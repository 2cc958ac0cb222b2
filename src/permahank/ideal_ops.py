"""Operations on polynomial ideals: sum, product, intersection, colon,
saturation, radical membership and equality.

Intersections go through the classic auxiliary-variable construction:
I cap J = (t*I + (t-1)*J) cap R, computed under lex in an extended ring
whose variable t, prepended as the largest, is never visible to callers.
The elimination starts from the generators of I and J.

Colon and saturation by a power of one variable x_k, with I given by
homogeneous generators, come from one reduced Groebner basis G of I under
a degree reverse-lex order with x_k as the smallest variable
(`_RevlexOrder(N, k)`), in the ring's own coordinates.  By Bayer's
reverse-lex property (Bayer-Stillman 1987; Eisenbud, Commutative Algebra
15.7) x_k^a divides a homogeneous g exactly when it divides lt(g), so
dividing out powers of x_k keeps G a basis: (I : x_k^e) is generated by
g / x_k^min(e, nu(g)) and (I : x_k^infinity) by g / x_k^nu(g), where nu is
the exponent of x_k in lt(g), read off G's elements.  Those are all the
colons and saturations the decomposition makes.  The basis of a sum
I + gens under any order extends I's cached basis under the same order:
the run starts from I's reduced basis, which needs no pair among its own
elements, so saturating P2 + (x_N^2) at x1 after P2 costs only the pairs
with x_N^2 and what they produce.  Every other colon, by a monomial of
several variables too, is the reference path: (I : f) = (I cap (f)) / f
(Cox-Little-O'Shea, Ideals, Varieties, and Algorithms, ch. 4), the
generators of the intersection divided exactly by f.  One reverse-lex
basis per variable of a monomial costs more than that one elimination.
Every other saturation iterates colons by elimination until the chain
stabilizes.  Either way saturation reports the stabilization exponent,
which SATURATION_CAP caps.
"""

from __future__ import annotations

from .ring import (
    LEX, MonomialOrder, Polynomial, Ring, _BITS, _EMAX, _FMASK, _RevlexOrder, _degree,
    extend, lift, parse, restrict,
)
from .groebner import GroebnerBasis, _exact_div, _first_outside, buchberger, reducer

SATURATION_CAP = 64


class Ideal:
    """An ideal of a Ring, described by generators.

    Reduced Groebner bases are computed lazily and cached per monomial
    order, so repeated membership and equality tests against the same
    ideal cost one basis computation.  The reverse-lex bases behind colon
    and saturation by a variable are cached the same way, under their
    `_RevlexOrder`.  A sum I + gens remembers I, whose generators begin its
    own, so that its basis under an order can start from I's
    (`reduced_basis`).
    """

    __slots__ = ("ring", "generators", "_cache", "_summand")

    def __init__(self, ring, generators=(), _basis=None):
        if not isinstance(ring, Ring):
            raise TypeError("an ideal needs a Ring as its first argument")
        gens = []
        for g in generators:
            if g.ring != ring:
                raise ValueError("generator outside the ring")
            if not g.is_zero:
                gens.append(g)
        self.ring = ring
        self.generators = tuple(gens)
        self._cache = {}
        self._summand = None
        if _basis is not None:
            if not _basis.is_reduced:
                raise ValueError("only a reduced basis is cached")
            self._cache[_basis.order] = _basis

    @property
    def is_zero(self):
        return not self.generators

    def reduced_basis(self, order=LEX):
        """The unique reduced Groebner basis under the order (cached).

        When this ideal was built as a sum S + gens and S has its basis
        under the order cached, the run starts from that basis, then the
        new generators (`buchberger`'s `_known`), so no pair of two
        elements of S's basis is formed.
        """
        b = self._cache.get(order)
        if b is None:
            S = self._summand
            known = () if S is None else S._cache.get(order, ())
            gens = self.generators
            if known:
                gens = known.elements + gens[len(S.generators):]
            if gens:
                b = buchberger(gens, order, _known=len(known))
            else:
                b = GroebnerBasis((), order, True)
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
        s = Ideal(self.ring, self.generators + self._other_gens(other))
        s._summand = self
        return s

    def __mul__(self, other):
        gens = self._other_gens(other)
        return Ideal(self.ring, [f * g for f in self.generators for g in gens])

    def __repr__(self):
        return f"Ideal({len(self.generators)} generators, {self.ring!r})"


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
    gens = [t * lift(f, ext) for f in I.generators]
    gens += [u * lift(g, ext) for g in J.generators]
    basis = buchberger(gens, LEX)
    bound = 1 << (ring.nvars * _BITS)
    elems = [restrict(e, ring) for e in basis if max(e._d) < bound]
    found = GroebnerBasis(tuple(elems), LEX, True)
    return Ideal(ring, elems, _basis=found)


def _check_divisor(I, f):
    if not isinstance(f, Polynomial):
        raise TypeError("colon divides by a single polynomial")
    if f.ring != I.ring:
        raise ValueError("polynomial outside the ring")
    if f.is_zero:
        raise ValueError("colon by zero is undefined")


def _has_homogeneous_generators(I):
    """Whether every generator of I is homogeneous."""
    return all(len({_degree(t) for t in g._d}) == 1 for g in I.generators)


def _variable_power(I, f):
    """(k, e) when f = c * x_k^e, e >= 1, and I has homogeneous generators.

    None otherwise: the colon and saturation of I by f then go by elimination.
    """
    if I.is_zero or len(f) != 1:
        return None
    (m,) = f._d
    k = I.ring.support(m)
    if len(k) != 1 or not _has_homogeneous_generators(I):
        return None
    return k[0], _degree(m)


def _revlex_basis(I, k):
    """The reduced degree reverse-lex basis of I with x_k smallest, cached on I.

    Refuses generators of degree past 2**15 - 1, the range of the order's key.
    """
    order = _RevlexOrder(I.ring.nvars, k)
    if order not in I._cache and any(g.total_degree() > _EMAX for g in I.generators):
        raise ValueError("degree reached 2**15, past the range of the reverse-lex order")
    return I.reduced_basis(order)


def colon(I, f):
    """The colon ideal (I : f).

    For f = c * x_k^e and homogeneous generators of I, divides
    x_k^min(e, nu(g)) out of each g of the reverse-lex basis with x_k
    smallest (see the module docstring); every quotient stays homogeneous.
    Any other f, a monomial of several variables included, goes to
    `_colon_by_elimination`.
    """
    _check_divisor(I, f)
    power = _variable_power(I, f)
    if power is None:
        return _colon_by_elimination(I, f)
    k, e = power
    ring = I.ring
    basis = _revlex_basis(I, k)
    low = (ring.nvars - k) * _BITS
    quotients = []
    for g in basis:
        a = min(e, g._lm_packed(basis.order) >> low & _FMASK)
        if a:
            if any(m >> low & _FMASK < a for m in g._d):
                raise RuntimeError("reverse-lex division failed; this indicates an engine bug")
            cut = a << low
            g = Polynomial._raw(ring, {m - cut: c for m, c in g._d.items()})
        quotients.append(g)
    return Ideal(ring, quotients)


def _colon_by_elimination(I, f):
    """Reference path for colon: (I cap (f)) divided exactly by f."""
    if I.is_zero:
        return Ideal(I.ring)
    if f.total_degree() == 0:
        return I
    K = intersect(I, Ideal(I.ring, (f,)))
    return Ideal(I.ring, [_exact_div(g, f) for g in K.generators])


def saturate(I, f):
    """Saturation of I at f: the stable colon (I : f^infinity).

    Returns (S, n) where S = (I : f^n) and n is the smallest exponent with
    (I : f^n) = (I : f^(n+1)).  n >= SATURATION_CAP raises RuntimeError,
    since the chain must stabilize in a Noetherian ring and a cap hit means
    it was not seen to.

    For f = c*x_k^e and homogeneous generators of I, n comes from the
    reduced reverse-lex basis G with x_k smallest: with j = max nu(lt g),
    n = ceil(j / e) and S = (I : x_k^j), generated by the g / x_k^nu(g).
    That n is exact.  Bayer's property gives in(I : x_k^i) = (in(I) : x_k^i)
    for every i, so the chain in x_k is stable from i on exactly when the
    monomial colon is.  The leading terms of a reduced basis are the
    minimal generators of in(I); a minimal generator u with nu(u) > i
    gives u / x_k^(i+1), which lies in (in(I) : x_k^(i+1)) but not in
    (in(I) : x_k^i), since u / x_k is not in in(I).  So the x_k-chain first
    stabilizes at i = j, and the chain in f = c*x_k^e at the first n with
    e*n >= j.  Any other input, a monomial of several variables included,
    iterates colons by elimination.
    """
    _check_divisor(I, f)
    power = _variable_power(I, f)
    if power is None:
        return _saturate_by_colons(I, f)
    k, e = power
    basis = _revlex_basis(I, k)
    low = (I.ring.nvars - k) * _BITS
    j = max(g._lm_packed(basis.order) >> low & _FMASK for g in basis)
    n = -(-j // e)
    if n >= SATURATION_CAP:
        raise RuntimeError(f"saturation did not stabilize within {SATURATION_CAP} steps")
    if n == 0:
        return I, 0
    return colon(I, I.ring.var(k) ** j), n


def _saturate_by_colons(I, f):
    """Reference path for saturate: colons by elimination until stable."""
    prev = I
    for n in range(SATURATION_CAP):
        nxt = _colon_by_elimination(prev, f)
        if equal(nxt, prev):
            return prev, n
        prev = nxt
    raise RuntimeError(f"saturation did not stabilize within {SATURATION_CAP} steps")


def radical_member(f, I):
    """Whether f lies in the radical of I.

    Decided by testing whether 1 lies in I + (1 - y*f) over a ring with one
    extra variable y; small powers of f are tried against the cached basis
    of I first, which settles most membership answers cheaply and never
    changes the outcome.  That basis is the first one cached on I, under
    whatever order, and I's lex basis when none is: a polynomial lies in I
    exactly when it reduces to zero modulo a Groebner basis of I under the
    basis's own order, so every order gives the same answer.
    """
    if f.ring != I.ring:
        raise ValueError("polynomial outside the ring")
    if f.is_zero:
        return True
    if I.is_zero:
        return False
    if len(f) <= 2 and f.total_degree() <= 4:
        cached = I._cache
        nf = reducer(next(iter(cached.values())) if cached else I.reduced_basis())
        g = f
        for _ in range(8):
            if nf(g).is_zero:
                return True
            g = g * f
    ext = extend(I.ring, ("y",))
    gens = [lift(p, ext) for p in I.generators]
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
    The generators of I are tried first, against J's reduced lex basis,
    then those of J against I's; no basis is built for a side with no
    generators to test or none to test against.
    """
    if I.ring != J.ring:
        raise ValueError("ideals belong to different rings")
    for A, B in ((I, J), (J, I)):
        if A.generators:
            w = _first_outside(A.generators, B.reduced_basis() if B.generators else ())
            if w is not None:
                return w
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
    try:
        nvars = d["vars"]
        char = d.get("char", 0)
        order_name = d.get("order", "lex")
        gens = d["generators"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed ideal description: {exc}") from exc
    # type(), not isinstance: JSON true and false load as bool, an int subclass
    if type(nvars) is not int or nvars < 1:
        raise ValueError("'vars' must be a positive integer")
    if type(char) is not int:
        raise ValueError("'char' must be an integer")
    order = MonomialOrder(order_name)
    if not isinstance(gens, list) or not all(isinstance(s, str) for s in gens):
        raise ValueError("'generators' must be a list of strings")
    ring = Ring(nvars, char)
    polys = [parse(s, ring) for s in gens]
    return ring, order, polys
