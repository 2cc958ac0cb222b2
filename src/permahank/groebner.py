"""Buchberger's algorithm and normal forms for exact polynomial ideals.

Everything here is deterministic: reducers are tried in ascending index
order with the largest reducible term rewritten first, pairs are selected
by the normal strategy (smallest lcm under the active order, ties broken
by the smaller index pair), and the reduced basis comes back sorted by
descending leading monomial.  Output depends only on (generators, order,
criteria flags).
"""

from __future__ import annotations

from heapq import heappush, heappop

from .ring import LEX, Polynomial

# Support masks: with fill = guard - (guard >> 15), a 0x7FFF in every field,
# (m + fill) & guard sets a field's guard bit exactly when its exponent is
# nonzero.  Exact because every field is below 2**15, so no field carries.


def _common_ring(polys):
    ring = None
    for f in polys:
        if ring is None:
            ring = f.ring
        elif f.ring != ring:
            raise ValueError("polynomials belong to different rings")
    return ring


def _prepare(polys, ring, order):
    """Reducer table: list of (lt, support mask, inverse lc, tail items)."""
    g = ring.guard
    fill = g - (g >> 15)
    red = []
    for f in polys:
        if f.is_zero:
            raise ValueError("zero polynomial cannot be used as a reducer")
        lm = f._lm_packed(order)
        red.append(
            (
                lm,
                (lm + fill) & g,
                ring.inv(f._d[lm]),
                tuple((m, c) for m, c in f._d.items() if m != lm),
            )
        )
    return red


def _nf_dict(work, red, ring, order):
    """Fully reduce the term dict `work` (consumed) against the reducer table."""
    p = ring.char
    g = ring.guard
    fill = g - (g >> 15)
    lexlike = order.is_lexlike
    key = None if lexlike else order.key()
    out = {}
    while work:
        m = max(work) if lexlike else max(work, key=key)
        c = work.pop(m)
        mm = (m + fill) & g
        for lt, rm, inv, tail in red:
            if rm & ~mm:
                continue
            t = (m | g) - lt
            if t & g != g:
                continue
            q = t ^ g
            if p:
                f = c if inv == 1 else c * inv % p
                for tm, tc in tail:
                    k2 = tm + q
                    v = work.get(k2)
                    v = (-f * tc) % p if v is None else (v - f * tc) % p
                    if v:
                        work[k2] = v
                    else:
                        del work[k2]
            else:
                f = c if inv == 1 else c * inv
                for tm, tc in tail:
                    k2 = tm + q
                    v = work.get(k2)
                    v = -f * tc if v is None else v - f * tc
                    if v:
                        work[k2] = v
                    else:
                        del work[k2]
            break
        else:
            out[m] = c
    return out


def _spoly_dict(fd, flm, finv, gd, glm, ginv, ring):
    lcm = ring.mono_lcm(flm, glm)
    qf = lcm - flm
    qg = lcm - glm
    p = ring.char
    d = {}
    if finv == 1:
        for m, c in fd.items():
            d[m + qf] = c
    else:
        for m, c in fd.items():
            d[m + qf] = c * finv % p if p else c * finv
    for m, c in gd.items():
        k = m + qg
        s = c if ginv == 1 else (c * ginv % p if p else c * ginv)
        v = d.get(k)
        v = -s if v is None else v - s
        if p:
            v %= p
        if v:
            d[k] = v
        elif k in d:
            del d[k]
    return d


def s_polynomial(f, g, order=LEX):
    """S-polynomial of two nonzero polynomials under the given order."""
    ring = _common_ring((f, g))
    if f.is_zero or g.is_zero:
        raise ValueError("S-polynomial of the zero polynomial is undefined")
    flm = f._lm_packed(order)
    glm = g._lm_packed(order)
    d = _spoly_dict(
        f._d, flm, ring.inv(f._d[flm]), g._d, glm, ring.inv(g._d[glm]), ring
    )
    return Polynomial._raw(ring, d)


def normal_form(f, G, order=LEX):
    """Normal form of f modulo the sequence G.

    The result has no term divisible by any leading term of G, and f minus
    the result lies in the ideal generated by G.  When G is a Groebner
    basis for the order, a zero result is equivalent to membership.
    """
    if isinstance(G, GroebnerBasis):
        G = G.elements
    else:
        G = tuple(G)
    if not G:
        raise ValueError("need at least one reducer")
    ring = _common_ring(G)
    if f.ring != ring:
        raise ValueError("polynomial and reducers belong to different rings")
    if f.is_zero:
        return f
    red = _prepare(G, ring, order)
    return Polynomial._raw(ring, _nf_dict(dict(f._d), red, ring, order))


class GroebnerBasis:
    """An ordered Groebner basis together with minimality/reducedness flags."""

    __slots__ = ("elements", "order", "is_minimal", "is_reduced")

    def __init__(self, elements, order=LEX, is_minimal=False, is_reduced=False):
        self.elements = tuple(elements)
        self.order = order
        self.is_minimal = is_minimal
        self.is_reduced = is_reduced

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __getitem__(self, i):
        return self.elements[i]

    def __eq__(self, other):
        if not isinstance(other, GroebnerBasis):
            return NotImplemented
        return self.elements == other.elements and self.order == other.order

    def __hash__(self):
        return hash((self.elements, self.order))

    def __repr__(self):
        flags = "reduced" if self.is_reduced else ("minimal" if self.is_minimal else "raw")
        return f"GroebnerBasis({len(self.elements)} elements, {self.order.kind}, {flags})"

    def contains(self, f):
        """Ideal membership of f, decided by normal form against this basis."""
        if f.is_zero:
            return True
        if not self.elements:
            return False
        return normal_form(f, self.elements, self.order).is_zero

    def __contains__(self, f):
        return self.contains(f)


def _monic_dict(d, lm, ring):
    c = d[lm]
    if c == 1:
        return d
    inv = ring.inv(c)
    p = ring.char
    if p:
        return {m: v * inv % p for m, v in d.items()}
    return {m: v * inv for m, v in d.items()}


def _reduce_basis(dicts, lts, ring, order):
    """Minimalize and interreduce monic basis dicts; returns dicts LT-descending."""
    key = order.key()
    idx = sorted(range(len(dicts)), key=lambda i: key(lts[i]))
    keep = []
    kept_lts = []
    for i in idx:
        lt = lts[i]
        if any(ring.mono_div(lt, k) is not None for k in kept_lts):
            continue
        keep.append(i)
        kept_lts.append(lt)
    # One reducer table from the minimal basis.  An element's own leading
    # term divides none of its tail terms (all smaller), so reducing the
    # tail against the whole table equals reducing it against the others.
    g = ring.guard
    fill = g - (g >> 15)
    tails = {i: {m: c for m, c in dicts[i].items() if m != lts[i]} for i in keep}
    red = [(lts[i], (lts[i] + fill) & g, 1, tuple(tails[i].items())) for i in keep]
    out = []
    for i in sorted(keep, key=lambda i: key(lts[i]), reverse=True):
        r = {lts[i]: dicts[i][lts[i]]}
        r.update(_nf_dict(tails[i], red, ring, order))
        out.append(r)
    return out


def buchberger(gens, order=LEX, reduce=True, use_coprime=True, use_chain=True):
    """Groebner basis of the ideal generated by gens.

    Parameters
    ----------
    gens : sequence of Polynomial
        Generators, all in one ring; zero generators are dropped.
    order : MonomialOrder
        Monomial order, lex by default.
    reduce : bool
        With True (default) return the unique reduced basis (monic,
        interreduced, sorted by descending leading monomial).  With False
        return the raw accumulated basis in discovery order.
    use_coprime : bool
        Skip S-pairs with coprime leading terms.
    use_chain : bool
        Apply the Gebauer-Moeller chain criteria (prune old pairs whose
        lcm factors through the new element, keep only minimal lcms and one
        representative pair per lcm).

    Returns
    -------
    GroebnerBasis
    """
    gens = tuple(gens)
    if not gens:
        raise ValueError("need at least one generator")
    ring = _common_ring(gens)
    live = [g for g in gens if not g.is_zero]
    if not live:
        return GroebnerBasis((), order, True, True)
    key = order.key()
    lexlike = order.is_lexlike
    guard = ring.guard
    fill = guard - (guard >> 15)
    G = []       # term dicts, monic
    lts = []     # packed leading monomials
    red = []     # reducer table entries, parallel to G
    pairs = []   # heap of (lcm key, i, j)
    alive = {}   # (i, j) -> packed lcm

    def coprime(a, b):
        return ring.mono_gcd(a, b) == 0

    def add_element(d):
        lm = max(d) if lexlike else max(d, key=key)
        if lm == 0:
            return True  # a nonzero constant: the whole ring
        d = _monic_dict(d, lm, ring)
        t = len(G)
        if use_chain:
            for (i, j), L in list(alive.items()):
                if (
                    ring.mono_div(L, lm) is not None
                    and L != ring.mono_lcm(lts[i], lm)
                    and L != ring.mono_lcm(lts[j], lm)
                ):
                    del alive[(i, j)]
        by_lcm = {}
        for i in range(t):
            by_lcm.setdefault(ring.mono_lcm(lts[i], lm), []).append(i)
        if use_chain:
            kept_lcms = []
            for L in sorted(by_lcm, key=key):
                if any(ring.mono_div(L, K) is not None for K in kept_lcms):
                    continue
                kept_lcms.append(L)
                grp = by_lcm[L]
                if use_coprime and any(coprime(lts[i], lm) for i in grp):
                    continue
                i = grp[0]
                alive[(i, t)] = L
                heappush(pairs, (key(L), i, t))
        else:
            for L in sorted(by_lcm, key=key):
                for i in by_lcm[L]:
                    if use_coprime and coprime(lts[i], lm):
                        continue
                    alive[(i, t)] = L
                    heappush(pairs, (key(L), i, t))
        G.append(d)
        lts.append(lm)
        red.append((lm, (lm + fill) & guard, 1, tuple((m, c) for m, c in d.items() if m != lm)))
        return False

    for g in live:
        if add_element(dict(g._d)):
            return GroebnerBasis((ring.one(),), order, True, True)

    while pairs:
        _, i, j = heappop(pairs)
        if (i, j) not in alive:
            continue
        del alive[(i, j)]
        s = _spoly_dict(G[i], lts[i], 1, G[j], lts[j], 1, ring)
        if not s:
            continue
        r = _nf_dict(s, red, ring, order)
        if r:
            if add_element(r):
                return GroebnerBasis((ring.one(),), order, True, True)

    if not reduce:
        elems = [Polynomial._raw(ring, dict(d)) for d in G]
        return GroebnerBasis(tuple(elems), order, False, False)
    final = _reduce_basis(G, lts, ring, order)
    elems = [Polynomial._raw(ring, d) for d in final]
    return GroebnerBasis(tuple(elems), order, True, True)


def inter_reduce(polys, order=LEX):
    """Monic minimalized interreduction of a set of nonzero polynomials.

    When the input is a Groebner basis this yields the reduced basis of
    its ideal; the elements come back sorted by descending leading
    monomial.
    """
    polys = tuple(polys)
    if not polys:
        return ()
    ring = _common_ring(polys)
    dicts = []
    lts = []
    for f in polys:
        if f.is_zero:
            raise ValueError("cannot interreduce the zero polynomial")
        lm = f._lm_packed(order)
        dicts.append(_monic_dict(dict(f._d), lm, ring))
        lts.append(lm)
    return tuple(Polynomial._raw(ring, d) for d in _reduce_basis(dicts, lts, ring, order))


def is_groebner(G, order=LEX):
    """Check the Buchberger criterion for G; returns (flag, witness).

    Every S-polynomial of a pair of elements is reduced against all of G.
    The witness on failure is (f, g, nonzero normal form); no criteria are
    used to skip pairs, so coprime pairs are honestly checked too.
    """
    if isinstance(G, GroebnerBasis):
        G = G.elements
    G = tuple(G)
    if not G:
        raise ValueError("need at least one polynomial")
    ring = _common_ring(G)
    red = _prepare(G, ring, order)
    lms = [f._lm_packed(order) for f in G]
    invs = [ring.inv(f._d[lm]) for f, lm in zip(G, lms)]
    n = len(G)
    for i in range(n):
        for j in range(i + 1, n):
            s = _spoly_dict(G[i]._d, lms[i], invs[i], G[j]._d, lms[j], invs[j], ring)
            if not s:
                continue
            r = _nf_dict(s, red, ring, order)
            if r:
                return False, (G[i], G[j], Polynomial._raw(ring, r))
    return True, None
