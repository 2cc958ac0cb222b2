"""Buchberger's algorithm and normal forms for exact polynomial ideals.

Everything here is deterministic: reducers are tried in ascending index
order with the largest reducible term rewritten first, pairs are selected
by the normal strategy (smallest lcm under the active order, ties broken
by the smaller index pair), and the reduced basis comes back sorted by
descending leading monomial.  Output depends only on (generators, order,
criteria flags).

Buchberger reduces each generator, as it enters, against the generators
entered before it and drops one that reduces to zero, so generators that
share a leading term (as many Hankel permanents do) create no pairs of
their own.  The pair update runs on the packed monomials directly, with
the same guard-bit arithmetic as the support masks below: b divides a
exactly when ((a | guard) - b) & guard == guard, and that difference's
guard bits also mark the fields where a's exponent is at least b's, which
gives the lcm as a fieldwise maximum.

Every routine reads one entry per basis element, (leading monomial,
support mask, inverse leading coefficient, tail items): `_prepare` builds
them from polynomials, Buchberger one per new monic element.  S-polynomials
are built from the two tails alone, shifted to the lcm and scaled by the
inverse leading coefficients, since the leading terms cancel.
S-polynomials and normal forms raise ValueError rather than let an
exponent pass 2**15 - 1.

Normal forms remember each monomial's first divisor per reducer table.
The memo maps a monomial to the entry of its first divisor in the table,
or to the length n of the prefix scanned without finding one.  It stays
exact while the table only grows at its end: an appended reducer never
comes before a divisor already found, and a monomial with no divisor in
the first n entries needs only the rest scanned.  So every reduction
picks the same reducer the full scan picks.  Buchberger shares one memo
between its entry reductions and all its S-pair reductions,
interreduction and `is_groebner` one over their whole table, and
`normal_form` starts a fresh one.
"""

from __future__ import annotations

from heapq import heappush, heappop
from itertools import islice

from .ring import _EMAX, _FMASK, LEX, Polynomial, _degree

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
        tail = tuple((m, c) for m, c in f._d.items() if m != lm)
        red.append((lm, (lm + fill) & g, ring.inv(f._d[lm]), tail))
    return red


def _nf_dict(work, red, ring, order, first):
    """Fully reduce the term dict `work` (consumed) against the reducer table.

    `first` is the divisor memo of the table (see the module docstring): it
    maps a monomial to the entry of its first divisor in `red`, or to the
    length of the prefix of `red` scanned without finding one.  Pass the
    same dict to every call on one table, and a fresh one for a new table.

    Raises ValueError at the first step whose new terms pass the exponent
    range, so a wrapped monomial is never reduced further or returned.
    """
    p = ring.char
    g = ring.guard
    fill = g - (g >> 15)
    lexlike = order.is_lexlike
    key = None if lexlike else order.key()
    nred = len(red)
    out = {}
    seen = 0
    while work:
        m = max(work) if lexlike else max(work, key=key)
        c = work.pop(m)
        e = first.get(m, 0)
        if e.__class__ is int:  # no divisor in red[:e]: scan the rest
            if e == nred:
                out[m] = c
                continue
            zm = ((m + fill) & g) ^ g  # guard bits of the fields where m is 0
            mg = m | g
            for e in islice(red, e, None) if e else red:
                if e[1] & zm:
                    continue
                if (mg - e[0]) & g == g:
                    break
            else:
                first[m] = nred
                out[m] = c
                continue
            first[m] = e
        lt, _, inv, tail = e
        q = m - lt
        if p:
            f = c if inv == 1 else c * inv % p
            for tm, tc in tail:
                k2 = tm + q
                seen |= k2
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
                seen |= k2
                v = work.get(k2)
                v = -f * tc if v is None else v - f * tc
                if v:
                    work[k2] = v
                else:
                    del work[k2]
        if seen & g:
            raise ValueError(f"exponent overflow: a normal-form exponent exceeds {_EMAX}")
    return out


def _spoly_dict(a, b, ring):
    """S-polynomial (L/lt f)*f/lc f - (L/lt g)*g/lc g of two entries, L the lcm.

    Formed from the tails alone: the leading terms cancel.
    """
    flm, _, finv, ftail = a
    glm, _, ginv, gtail = b
    lcm = ring.mono_lcm(flm, glm)
    qf = lcm - flm
    qg = lcm - glm
    p = ring.char
    d = {}
    seen = 0
    if finv == 1:
        for m, c in ftail:
            k = m + qf
            seen |= k
            d[k] = c
    else:
        for m, c in ftail:
            k = m + qf
            seen |= k
            d[k] = c * finv % p if p else c * finv
    for m, c in gtail:
        k = m + qg
        seen |= k
        s = c if ginv == 1 else (c * ginv % p if p else c * ginv)
        v = d.get(k)
        v = -s if v is None else v - s
        if p:
            v %= p
        if v:
            d[k] = v
        elif k in d:
            del d[k]
    if seen & ring.guard:
        # two fields below 2**15 sum below 2**16: the guard bit is the carry
        raise ValueError(f"exponent overflow: an S-polynomial exponent exceeds {_EMAX}")
    return d


def s_polynomial(f, g, order=LEX):
    """S-polynomial of two nonzero polynomials under the given order."""
    ring = _common_ring((f, g))
    if f.is_zero or g.is_zero:
        raise ValueError("S-polynomial of the zero polynomial is undefined")
    return Polynomial._raw(ring, _spoly_dict(*_prepare((f, g), ring, order), ring))


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
    return Polynomial._raw(ring, _nf_dict(dict(f._d), red, ring, order, {}))


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


def _scaled(items, inv, p):
    """(monomial, coefficient) pairs with every coefficient times inv."""
    if p:
        return [(m, v * inv % p) for m, v in items]
    return [(m, v * inv) for m, v in items]


def _reduce_basis(red, ring, order):
    """Minimalize and interreduce reducer entries; monic term dicts, LT-descending.

    Each kept tail is reduced against the kept entries themselves: its own
    leading term divides none of its (smaller) terms.  Normal forms are
    linear, so the inverse leading coefficient scales the result after.
    """
    key = order.key()
    g = ring.guard
    p = ring.char
    one = ring.coeff(1)
    kept = []
    kept_lts = []
    for e in sorted(red, key=lambda e: key(e[0])):
        ltg = e[0] | g
        for k in kept_lts:
            if (ltg - k) & g == g:
                break
        else:
            kept.append(e)
            kept_lts.append(e[0])
    out = []
    first = {}
    for lt, _, inv, tail in reversed(kept):
        r = _nf_dict(dict(tail), kept, ring, order, first)
        if inv != 1:
            r = dict(_scaled(r.items(), inv, p))
        out.append({lt: one, **r})
    return out


def _minimal_lcms(lcms, lm, guard):
    """The minimal lcms: those that no earlier kept lcm divides (M-criterion).

    `lcms` are multiples of lm, sorted by the order.  The test runs on the
    quotients q = L/lm: a kept quotient of degree 1 divides q when its
    variable is in q's support, and any other can divide q only with
    smaller degree.  Keeps exactly what testing every kept lcm keeps.
    """
    fill = guard - (guard >> 15)
    mask1 = 0    # support of the kept quotients of degree 1
    kept = []    # (degree, quotient) of the other kept quotients
    out = []
    for L in lcms:
        q = L - lm
        if (q + fill) & mask1:
            continue
        dq = _degree(q)
        qg = q | guard
        for dk, k in kept:
            if dk < dq and (qg - k) & guard == guard:
                break
        else:
            if dq == 1:
                mask1 |= (q + fill) & guard
            else:
                kept.append((dq, q))
            out.append(L)
    return out


def buchberger(gens, order=LEX, reduce=True, use_coprime=True, use_chain=True):
    """Groebner basis of the ideal generated by gens.

    Parameters
    ----------
    gens : sequence of Polynomial
        Generators, all in one ring; zero generators are dropped.  Each
        one is reduced against the generators before it on entry, and one
        that reduces to zero is dropped too.
    order : MonomialOrder
        Monomial order, lex by default.
    reduce : bool
        With True (default) return the unique reduced basis (monic,
        interreduced, sorted by descending leading monomial).  With False
        return the raw accumulated basis in discovery order: the
        entry-reduced generators, then the reduced S-polynomials.
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
    lts = []     # packed leading monomials, for the lcm loop
    red = []     # reducer entries of the monic basis elements, parallel to lts
    pairs = []   # heap of (lcm key, i, j)
    alive = {}   # (i, j) -> packed lcm
    first = {}   # divisor memo of red, which only grows at its end

    def add_element(d):
        lm = max(d) if lexlike else max(d, key=key)
        if lm == 0:
            return True  # a nonzero constant: the whole ring
        c = d.pop(lm)
        tail = tuple(d.items() if c == 1 else _scaled(d.items(), ring.inv(c), ring.char))
        t = len(lts)
        # lcm(lts[i], lm) as a fieldwise maximum: a field's guard bit
        # survives (lm | guard) - a exactly where lm's exponent is >= a's.
        lmg = lm | guard
        lcms = []
        for a in lts:
            keep = (((lmg - a) & guard) >> 15) * _FMASK
            lcms.append(a ^ ((a ^ lm) & keep))
        if use_chain:
            dead = [
                ij for ij, L in alive.items()
                if ((L | guard) - lm) & guard == guard
                and L != lcms[ij[0]]
                and L != lcms[ij[1]]
            ]
            for ij in dead:
                del alive[ij]
        by_lcm = {}
        for i, L in enumerate(lcms):
            by_lcm.setdefault(L, []).append(i)
        # Coprime leading terms are exactly those whose lcm is their product.
        if use_chain:
            for L in _minimal_lcms(sorted(by_lcm, key=key), lm, guard):
                grp = by_lcm[L]
                if use_coprime and any(L == lts[i] + lm for i in grp):
                    continue
                i = grp[0]
                alive[(i, t)] = L
                heappush(pairs, (key(L), i, t))
        else:
            for L in sorted(by_lcm, key=key):
                for i in by_lcm[L]:
                    if use_coprime and L == lts[i] + lm:
                        continue
                    alive[(i, t)] = L
                    heappush(pairs, (key(L), i, t))
        lts.append(lm)
        red.append((lm, (lm + fill) & guard, 1, tail))
        return False

    # Reduce each generator against those already entered, so duplicate
    # leading terms and redundant generators create no pairs of their own.
    for g in live:
        d = _nf_dict(dict(g._d), red, ring, order, first)
        if d and add_element(d):
            return GroebnerBasis((ring.one(),), order, True, True)

    while pairs:
        _, i, j = heappop(pairs)
        if (i, j) not in alive:
            continue
        del alive[(i, j)]
        s = _spoly_dict(red[i], red[j], ring)
        if not s:
            continue
        r = _nf_dict(s, red, ring, order, first)
        if r:
            if add_element(r):
                return GroebnerBasis((ring.one(),), order, True, True)

    if not reduce:
        one = ring.coeff(1)
        elems = [Polynomial._raw(ring, {lt: one, **dict(tail)}) for lt, _, _, tail in red]
        return GroebnerBasis(tuple(elems), order, False, False)
    final = _reduce_basis(red, ring, order)
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
    if any(f.is_zero for f in polys):
        raise ValueError("cannot interreduce the zero polynomial")
    red = _prepare(polys, ring, order)
    return tuple(Polynomial._raw(ring, d) for d in _reduce_basis(red, ring, order))


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
    first = {}
    n = len(G)
    for i in range(n):
        for j in range(i + 1, n):
            s = _spoly_dict(red[i], red[j], ring)
            if not s:
                continue
            r = _nf_dict(s, red, ring, order, first)
            if r:
                return False, (G[i], G[j], Polynomial._raw(ring, r))
    return True, None
