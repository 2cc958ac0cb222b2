"""Operations on polynomial ideals: sum, product, intersection, colon,
saturation, radical membership and equality.

Intersections go through the classic auxiliary-variable construction:
I cap J = (t*I + (t-1)*J) cap R, computed under lex in an extended ring
whose variable t, prepended as the largest, is never visible to callers.
Colons divide the generators of I cap (f) exactly by f, and saturation
iterates colons until the chain stabilizes, reporting the stabilization
exponent.
"""

from __future__ import annotations

import os

from .ring import LEX, Polynomial, _BITS, extend, lift, restrict
from .groebner import GroebnerBasis, buchberger

DEFAULT_SATURATION_CAP = 64


class Ideal:
    """An ideal of a Ring, described by generators.

    Reduced Groebner bases are computed lazily and cached per monomial
    order, so repeated membership and equality tests against the same
    ideal cost one basis computation.
    """

    __slots__ = ("ring", "generators", "_cache")

    def __init__(self, ring, generators=(), _basis=None):
        gens = []
        for g in generators:
            if g.ring != ring:
                raise ValueError("generator outside the ring")
            if not g.is_zero:
                gens.append(g)
        self.ring = ring
        self.generators = tuple(gens)
        self._cache = {}
        if _basis is not None:
            self._cache[_basis.order] = _basis

    @property
    def is_zero(self):
        return not self.generators

    def reduced_basis(self, order=LEX):
        """The unique reduced Groebner basis under the order (cached)."""
        b = self._cache.get(order)
        if b is None:
            if not self.generators:
                b = GroebnerBasis((), order, True, True)
            else:
                b = buchberger(self.generators, order)
            self._cache[order] = b
        return b

    def contains(self, f):
        if f.ring != self.ring:
            raise ValueError("polynomial outside the ring")
        return self.reduced_basis().contains(f)

    def __contains__(self, f):
        return self.contains(f)

    @property
    def is_unit(self):
        b = self.reduced_basis()
        return len(b) == 1 and b[0].total_degree() == 0

    def _other_gens(self, other):
        if isinstance(other, Ideal):
            if other.ring != self.ring:
                raise ValueError("ideals belong to different rings")
            return other.generators
        if isinstance(other, Polynomial):
            other = (other,)
        gens = tuple(other)
        for g in gens:
            if g.ring != self.ring:
                raise ValueError("generator outside the ring")
        return gens

    def __add__(self, other):
        return Ideal(self.ring, self.generators + self._other_gens(other))

    def __mul__(self, other):
        gens = self._other_gens(other)
        return Ideal(self.ring, [f * g for f in self.generators for g in gens])

    def __repr__(self):
        return f"Ideal({len(self.generators)} generators, {self.ring!r})"


def _working_gens(I):
    # prefer an already-computed basis; never force one just to intersect
    b = I._cache.get(LEX)
    if b is not None and b.elements:
        return b.elements
    return I.generators


def intersect(I, J):
    """The intersection of two ideals of the same ring."""
    if not isinstance(J, Ideal):
        raise TypeError("intersect expects two ideals")
    if I.ring != J.ring:
        raise ValueError("ideals belong to different rings")
    ring = I.ring
    if I.is_zero or J.is_zero:
        return Ideal(ring)
    ext = extend(ring, ("t",))
    t = ext.var(1)
    u = t - 1
    gens = [t * lift(f, ext) for f in _working_gens(I)]
    gens += [u * lift(g, ext) for g in _working_gens(J)]
    basis = buchberger(gens, LEX)
    bound = 1 << (ring.nvars * _BITS)
    elems = [restrict(e, ring) for e in basis if max(e._d) < bound]
    found = GroebnerBasis(tuple(elems), LEX, True, True)
    return Ideal(ring, elems, _basis=found)


def _exact_div(g, f):
    """Quotient g/f when f divides g exactly; an engine bug otherwise."""
    ring = g.ring
    flm = f._lm_packed(LEX)
    finv = ring.inv(f._d[flm])
    ftail = tuple((m, c) for m, c in f._d.items() if m != flm)
    p = ring.char
    work = dict(g._d)
    out = {}
    while work:
        m = max(work)
        c = work.pop(m)
        q = ring.mono_div(m, flm)
        if q is None:
            raise RuntimeError("exact division failed; this indicates an engine bug")
        qc = c * finv % p if p else c * finv
        out[q] = qc
        for tm, tc in ftail:
            k = tm + q
            v = work.get(k)
            v = -qc * tc if v is None else v - qc * tc
            if p:
                v %= p
            if v:
                work[k] = v
            elif k in work:
                del work[k]
    return Polynomial._raw(ring, out)


def colon(I, f):
    """The colon ideal (I : f), computed as (I cap (f)) divided by f."""
    if not isinstance(f, Polynomial):
        raise TypeError("colon divides by a single polynomial")
    if f.ring != I.ring:
        raise ValueError("polynomial outside the ring")
    if f.is_zero:
        raise ValueError("colon by zero is undefined")
    if I.is_zero:
        return Ideal(I.ring)
    if f.total_degree() == 0:
        return I
    K = intersect(I, Ideal(I.ring, (f,)))
    return Ideal(I.ring, [_exact_div(g, f) for g in K.generators])


def saturate(I, f, max_iters=None):
    """Saturation of I at f: the stable colon (I : f^infinity).

    Returns (S, n) where S = (I : f^n) and n is the smallest exponent with
    (I : f^n) = (I : f^(n+1)).  The iteration cap defaults to 64 and can be
    overridden by the PERMAHANK_MAX_ITERS environment variable; exceeding
    it raises, since the chain must stabilize in a Noetherian ring.
    """
    if max_iters is None:
        raw = os.environ.get("PERMAHANK_MAX_ITERS", DEFAULT_SATURATION_CAP)
        try:
            max_iters = int(raw)
        except ValueError:
            max_iters = 0
        if max_iters < 1:
            raise ValueError(
                f"PERMAHANK_MAX_ITERS must be a positive integer, got {raw!r}"
            )
    elif max_iters < 1:
        raise ValueError("iteration cap must be positive")
    prev = I
    n = 0
    for _ in range(max_iters):
        nxt = colon(prev, f)
        if equal(nxt, prev):
            return prev, n
        prev = nxt
        n += 1
    raise RuntimeError(f"saturation did not stabilize within {max_iters} steps")


def radical_member(f, I):
    """Whether f lies in the radical of I.

    Decided by testing whether 1 lies in I + (1 - y*f) over a ring with one
    extra variable y; small powers of f are tried against the cached basis
    of I first, which settles most membership answers cheaply and never
    changes the outcome.
    """
    if f.ring != I.ring:
        raise ValueError("polynomial outside the ring")
    if f.is_zero:
        return True
    if I.is_zero:
        return False
    if len(f) <= 2 and f.total_degree() <= 4:
        basis = I.reduced_basis()
        g = f
        for _ in range(8):
            if basis.contains(g):
                return True
            g = g * f
    ext = extend(I.ring, ("y",))
    gens = [lift(p, ext) for p in _working_gens(I)]
    gens.append(1 - ext.var(1) * lift(f, ext))
    b = buchberger(gens, LEX)
    return len(b) == 1 and b[0].total_degree() == 0


def equal(I, J):
    """Exact ideal equality, decided by comparing reduced lex bases."""
    if I.ring != J.ring:
        raise ValueError("ideals belong to different rings")
    return I.reduced_basis().elements == J.reduced_basis().elements


def why_unequal(I, J):
    """A generator of one ideal missing from the other, or None when equal.

    Useful as a machine-checkable witness after a failed equality test.
    """
    for g in I.generators:
        if g not in J:
            return g
    for g in J.generators:
        if g not in I:
            return g
    return None


# -- serialization ---------------------------------------------------------


def polys_to_dict(ring, polys, order=LEX, extra=None):
    """JSON-ready description of a generator list over a default-named ring."""
    d = {
        "vars": ring.nvars,
        "char": ring.char,
        "order": order.kind,
        "generators": [p.format(order) for p in polys],
    }
    if extra:
        d.update(extra)
    return d


def ideal_from_dict(d):
    """Parse {"vars", "char", "order", "generators"} into (ring, order, polys)."""
    from .ring import DEGLEX, Ring, parse

    try:
        nvars = d["vars"]
        char = d.get("char", 0)
        order_name = d.get("order", "lex")
        gens = d["generators"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed ideal description: {exc}") from exc
    if not isinstance(nvars, int) or nvars < 1:
        raise ValueError("'vars' must be a positive integer")
    if not isinstance(char, int):
        raise ValueError("'char' must be an integer")
    if order_name == "lex":
        order = LEX
    elif order_name == "deglex":
        order = DEGLEX
    else:
        raise ValueError(f"unknown order {order_name!r}")
    if not isinstance(gens, list) or not all(isinstance(s, str) for s in gens):
        raise ValueError("'generators' must be a list of strings")
    ring = Ring(nvars, char)
    polys = [parse(s, ring) for s in gens]
    return ring, order, polys
