"""Buchberger's algorithm and normal forms for exact polynomial ideals.

Everything here is deterministic: reducers are tried in ascending index
order with the largest reducible term rewritten first, pairs are selected
by the normal strategy (smallest lcm under the active order, ties broken
by the smaller index pair), and the reduced basis comes back sorted by
descending leading monomial.  Output depends only on (generators, order,
use_chain).

Buchberger enters its generators in two steps before it forms any pair.
It reduces each generator against the entries before it and drops one that
reduces to zero, so generators that share a leading term (as many Hankel
permanents do) create no entries of their own.  Then it reduces each
entry's tail against the entries with smaller leading terms
(`_reduce_tails`, which interreduction shares), so no term of an entry is
divisible by another entry's leading term.  Leading terms do not change,
so the pairs, the criteria and the basis size stay as they were; only the
tails shrink.  That makes S-polynomials vanish as they are formed: one is
built from the two tails alone, so the S-polynomial of two monomials is
zero, and most quadric entries become monomials (on 7x7 under lex, 79 of
83, since the quadrics of P2 span all but 8 of the 91 quadratic
monomials).  So no pair of two monomial entries is queued, and the raw
basis is unchanged.  While fewer than half the entries have a tail, an
entering monomial is tested only against those, the only ones it can pair
with (`_monomial_pairs`): one divisor scan of the earlier entries per
candidate decides what grouping, sorting and M-testing its lcms with every
earlier leading term would.  Otherwise, and for an entry with a tail, the
grouped update runs, which then costs less than the scans.

The pair update runs on the packed monomials directly, with the same
guard-bit arithmetic as the support masks below: b divides a exactly when
((a | guard) - b) & guard == guard, and that difference's guard bits also
mark the fields where a's exponent is at least b's, which gives the lcm as
a fieldwise maximum.  The pairs wait in one heap keyed by their lcm, and
each pair the update queues is formed when popped: there is no
B-criterion (see `buchberger`'s `use_chain`).

A run may start from a known reduced basis K of part of the ideal
(`buchberger`'s private `_known`, which `Ideal.reduced_basis` passes for
a sum I + gens whose summand I has its basis under the order cached): K's
elements enter as they are, with no pair update, and no pair of two of
them is formed, since each such S-polynomial has an lcm-representation
(proved in `buchberger`'s docstring).  The loop is the same one; only the
pairs among K are left out.

`is_groebner` decides the Buchberger criterion without forming the pairs
whose leading terms are coprime (Buchberger's first criterion, proved in
its docstring), which it tells from the support masks, or the pairs of two
monomial entries, whose S-polynomial is zero; the all-pairs loop it
replaced is kept in the tests as the reference it must agree with.
Interreduction and the verifier's basis check pick the minimal subset of
a basis by one routine, `_minimal_indices`.

Every routine reads one monic entry per basis element, (leading monomial,
support mask, tail items), with the tail divided by the leading
coefficient when `_entry` builds it: `_prepare` builds one per polynomial,
Buchberger one per new element, and only this module reads them.  So a
reduction step subtracts c times the tail, and an S-polynomial is the
difference of the two tails shifted to the lcm, since the leading terms
cancel.  S-polynomials and normal forms raise ValueError rather than let
an exponent pass 2**15 - 1.  A normal form whose work is down to one term
follows the divisors' one-term tails on the packed integer alone (the
single-term phase of `_nf_dict`, proved equal to the general loop in its
docstring): the bases here are mostly monomials and binomials, and most
of the verifier's normal forms start from one monomial.

Normal forms remember each monomial's first divisor per reducer table.
The memo maps a monomial to the entry of its first divisor in the table,
or to the length n of the prefix scanned without finding one.  It stays
exact while the table only grows at its end: an appended reducer never
comes before a divisor already found, and a monomial with no divisor in
the first n entries needs only the rest scanned.  So every reduction
picks the same reducer the full scan picks.  A memo lives as long as its
table, and whoever builds the table owns both: Buchberger for one run (one
for its entries, one for its S-pair reductions), `_reduce_tails` and
`is_groebner` for one call, and `_term_reducer` for the life of the map
on term dicts it returns, which its caller keeps for a loop over one basis
and then drops.  `reducer` wraps that map for polynomials; the verifier
calls it with packed monomials {m: c}, building no polynomial per
monomial.  `normal_form` is one call of a fresh `reducer`, and
`_first_outside` one `reducer` over a list, up to the first poly whose
normal form is nonzero: the batch containment test.  Nothing is
cached on a GroebnerBasis, so no memo outlives the caller that needed it.
"""

from __future__ import annotations

from bisect import bisect_right
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


def _entry(d, lm, ring):
    """The monic reducer entry (lt, support mask, tail items) of the term dict d.

    lm is d's leading monomial; the tail is d without it, divided by its
    coefficient.
    """
    g = ring.guard
    inv = ring.inv(d[lm])
    rest = dict(d)
    del rest[lm]
    if inv == 1:  # reduced bases are monic: keep their tails rather than scale them by 1
        tail = tuple(rest.items())
    else:
        p = ring.char
        tail = tuple((m, c * inv % p if p else c * inv) for m, c in rest.items())
    return lm, (lm + g - (g >> 15)) & g, tail


def _prepare(polys, ring, order):
    """Reducer table: one monic entry per polynomial."""
    red = []
    for f in polys:
        if f.is_zero:
            raise ValueError("zero polynomial cannot be used as a reducer")
        red.append(_entry(f._d, f._lm_packed(order), ring))
    return red


def _monic_polys(red, ring):
    """The monic polynomials of reducer entries, in their order."""
    one = ring.coeff(1)
    return tuple(Polynomial._raw(ring, {lt: one, **dict(tail)}) for lt, _, tail in red)


def _nf_dict(work, red, ring, order, first):
    """Fully reduce the term dict `work` (consumed) against the reducer table.

    `first` is the divisor memo of the table (see the module docstring): it
    maps a monomial to the entry of its first divisor in `red`, or to the
    length of the prefix of `red` scanned without finding one.  Pass the
    same dict to every call on one table, and a fresh one for a new table.

    Raises ValueError at the first step whose new terms pass the exponent
    range, so a wrapped monomial is never reduced further or returned.

    Whenever the work is one term c*m (at the start, or once the other
    terms have left it), a step by a reducer with a one-term tail tc*tm
    leaves one term again, -c*tc * (m/lt)*tm, and a step by a monomial
    reducer leaves none.  The single-term phase takes those steps on the
    packed integer and the coefficient alone, with no dict and no max,
    until m has no divisor or its first divisor has two or more tail
    terms, where the general step goes on.  Each phase step is the general
    step on a one-term work: the same divisor from the same memo (so the
    memo ends the same), the same coefficient expression, nonzero as a
    product of nonzero field elements, and the same overflow test on the
    one new term.  So the phase returns exactly what the general steps
    alone return, and leaves the same memo.
    """
    p = ring.char
    g = ring.guard
    fill = g - (g >> 15)
    lexlike = order.is_lexlike
    key = None if lexlike else order.key()
    nred = len(red)
    out = {}
    seen = 0
    single = len(work) == 1  # m, c hold the work's one term, and work is empty
    if single:
        m, c = work.popitem()
    while single or work:
        if single:
            single = False
        else:
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
        lt, _, tail = e
        q = m - lt
        if len(tail) < 2 and not work:  # the single-term phase
            if tail:
                (tm, tc), = tail
                m = tm + q
                if m & g:
                    raise ValueError(f"exponent overflow: a normal-form exponent exceeds {_EMAX}")
                c = -c * tc
                if p:
                    c %= p
                single = True
            continue
        for tm, tc in tail:
            k2 = tm + q
            seen |= k2
            v = work.get(k2)
            v = -c * tc if v is None else v - c * tc
            if p:
                v %= p
            if v:
                work[k2] = v
            else:
                del work[k2]
        if seen & g:
            raise ValueError(f"exponent overflow: a normal-form exponent exceeds {_EMAX}")
    return out


def _exact_div(g, f):
    """Quotient g/f when f divides g exactly; an engine bug otherwise."""
    ring = g.ring
    flm = max(f._d)  # the lex leading monomial
    _, _, ftail = _entry(f._d, flm, ring)
    finv = ring.inv(f._d[flm])
    p = ring.char
    work = dict(g._d)
    out = {}
    while work:
        m = max(work)
        c = work.pop(m)
        q = ring.mono_div(m, flm)
        if q is None:
            raise RuntimeError("exact division failed; this indicates an engine bug")
        out[q] = c * finv % p if p else c * finv
        for tm, tc in ftail:
            k = tm + q
            v = work.get(k)
            v = -c * tc if v is None else v - c * tc
            if p:
                v %= p
            if v:
                work[k] = v
            elif k in work:
                del work[k]
    return Polynomial._raw(ring, out)


def _spoly_dict(a, b, ring):
    """S-polynomial (L/lt f)*f - (L/lt g)*g of two monic entries, L the lcm.

    Formed from the tails alone: the leading terms cancel.
    """
    flm, _, ftail = a
    glm, _, gtail = b
    lcm = ring.mono_lcm(flm, glm)
    qf = lcm - flm
    qg = lcm - glm
    p = ring.char
    d = {}
    seen = 0
    for m, c in ftail:
        k = m + qf
        seen |= k
        d[k] = c
    for m, c in gtail:
        k = m + qg
        seen |= k
        v = d.get(k)
        v = -c if v is None else v - c
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
    if f.is_zero or g.is_zero:
        raise ValueError("S-polynomial of the zero polynomial is undefined")
    return s_polynomials((f, g), order)(0, 1)


def s_polynomials(G, order=LEX):
    """The map (i, j) -> s_polynomial(G[i], G[j], order), for many pairs of G.

    Builds the reducer table of the nonzero polynomials G once, so the
    S-polynomials of many pairs of one list cost one table.
    """
    ring = _common_ring(G)
    red = _prepare(G, ring, order)

    def spoly(i, j):
        return Polynomial._raw(ring, _spoly_dict(red[i], red[j], ring))

    return spoly


def _basis_and_order(G, order):
    """(elements, order): a GroebnerBasis brings its own order, a sequence LEX."""
    if isinstance(G, GroebnerBasis):
        if order is None:
            order = G.order
        elif order != G.order:
            raise ValueError(
                f"order {order!r} differs from the basis's own order {G.order!r}"
            )
        return G.elements, order
    return tuple(G), LEX if order is None else order


def _term_reducer(G, order=None):
    """The map d -> the term dict of d's normal form modulo G, on term dicts.

    d is a term dict of G's ring, consumed.  Builds the reducer table of G
    once and keeps one divisor memo for the life of the returned function.
    The order defaults as in `reducer`, which wraps this map for
    polynomials; a caller with packed monomials passes {m: c} straight in.
    """
    G, order = _basis_and_order(G, order)
    if not G:
        raise ValueError("need at least one reducer")
    ring = _common_ring(G)
    red = _prepare(G, ring, order)
    first = {}
    return lambda d: _nf_dict(d, red, ring, order, first)


def reducer(G, order=None):
    """The normal form map f -> normal_form(f, G, order), for many f.

    Builds the reducer table of G once and keeps one divisor memo for the
    life of the returned function, so reducing many polynomials against
    one basis costs one table.  The order defaults to G's own when G is a
    GroebnerBasis (another order raises ValueError), and to lex otherwise.
    """
    G, order = _basis_and_order(G, order)
    nf_terms = _term_reducer(G, order)
    ring = G[0].ring

    def nf(f):
        if f.ring != ring:
            raise ValueError("polynomial and reducers belong to different rings")
        if f.is_zero:
            return f
        return Polynomial._raw(ring, nf_terms(dict(f._d)))

    return nf


def normal_form(f, G, order=None):
    """Normal form of f modulo the sequence G.

    The result has no term divisible by any leading term of G, and f minus
    the result lies in the ideal generated by G.  When G is a Groebner
    basis for the order, a zero result is equivalent to membership.  The
    order defaults as in `reducer`, which reduces many f against one G.
    """
    return reducer(G, order)(f)


def _first_outside(polys, G, order=None):
    """The first nonzero poly whose normal form modulo G is nonzero, or None.

    When G is a Groebner basis under the order, that is the first poly
    outside the ideal of G, since a poly lies in it exactly when it reduces
    to zero.  The order defaults as in `reducer`.  The reducer table of G
    is built at the first nonzero poly, so none is built when none comes;
    against an empty G every nonzero poly is outside.  Every batch
    containment of the verifier and `why_unequal` asks this one loop.
    """
    G, order = _basis_and_order(G, order)
    nf = None
    for f in (f for f in polys if not f.is_zero):
        if not G:
            return f
        nf = nf or reducer(G, order)
        if not nf(f).is_zero:
            return f
    return None


class GroebnerBasis:
    """An ordered Groebner basis together with its reducedness flag."""

    __slots__ = ("elements", "order", "is_reduced")

    def __init__(self, elements, order=LEX, is_reduced=False):
        self.elements = tuple(elements)
        self.order = order
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
        flags = "reduced" if self.is_reduced else "raw"
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


def _reduce_tails(red, ring, order):
    """The entries of red, in red's order, each tail reduced by the entries below.

    Goes up in leading-term order with one growing table and one divisor
    memo, which stays exact because the table only grows at its end.  A
    tail term is smaller than its leading term, so only a smaller leading
    term can divide it, and every such entry is already in the table: no
    term of a returned tail is divisible by any leading term of red.
    """
    key = order.key()
    out = [None] * len(red)
    table = []
    first = {}
    for i in sorted(range(len(red)), key=lambda i: key(red[i][0])):
        lt, mask, tail = red[i]
        e = (lt, mask, tuple(_nf_dict(dict(tail), table, ring, order, first).items()))
        table.append(e)
        out[i] = e
    return out


def _minimal_indices(lts, order, guard):
    """Ascending indices of the lts no other divides, the first of equal ones.

    A divisor comes no later under the order, so one stable ascending pass
    tests each term against the minimal ones found before it.  Those are
    kept by support mask, and a term whose support is not inside the
    candidate's cannot divide it, so only the masks inside the candidate's
    are read: its submasks, when it has fewer of them than there are
    masks, and otherwise the masks that pass the test.  Either way every
    possible divisor is tested, so the same indices are kept.
    """
    key = order.key()
    fill = guard - (guard >> 15)
    kept = []
    by_support = {}  # support mask -> the kept lts with that support
    for i in sorted(range(len(lts)), key=lambda i: key(lts[i])):
        lt = lts[i]
        ltg = lt | guard
        support = (lt + fill) & guard
        if 1 << support.bit_count() < len(by_support):
            masks = []
            sub = support
            while True:  # every submask of support, itself to 0
                if sub in by_support:
                    masks.append(sub)
                if not sub:
                    break
                sub = (sub - 1) & support
        else:
            masks = [m for m in by_support if m & support == m]
        if not any((ltg - k) & guard == guard for m in masks for k in by_support[m]):
            kept.append(i)
            by_support.setdefault(support, []).append(lt)
    return sorted(kept)


def _reduce_basis(red, ring, order):
    """Minimalize and interreduce reducer entries; returns entries, LT-descending."""
    key = order.key()
    kept = [red[i] for i in _minimal_indices([e[0] for e in red], order, ring.guard)]
    kept.sort(key=lambda e: key(e[0]), reverse=True)
    return _reduce_tails(kept, ring, order)


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


def _monomial_pairs(lm, red, tailed, guard):
    """The pairs (c, L) the Gebauer-Moeller update queues when a monomial enters.

    lm is the entering monomial's leading term and red the entries before
    it.  Only an index c in `tailed` (the entries with a tail, ascending)
    can pair with lm, since two monomials have a zero S-polynomial.  With
    L = lcm(lt c, lm), the grouped update (group the lcms with lm, keep the
    minimal ones, queue each group's first index unless a member is coprime
    to lm) queues (c, L) exactly when every entry j with lt j | L has
    lcm(lt j, lm) == L (no smaller lcm divides L), j >= c (c leads its
    group) and L != lt j + lm (no member is coprime).  So one divisor scan
    of red per candidate decides, with `_nf_dict`'s arithmetic: a divisor
    before c rules c out, and one after c must share L and not be coprime.
    Returns the pairs by ascending c.
    """
    fill = guard - (guard >> 15)
    lmg = lm | guard
    out = []
    for c in tailed:
        a = red[c][0]
        L = a ^ ((a ^ lm) & ((((lmg - a) & guard) >> 15) * _FMASK))
        if L == a + lm:
            continue
        Lg = L | guard
        zL = ((L + fill) & guard) ^ guard  # guard bits of the fields where L is 0
        for e in islice(red, c):
            if e[1] & zL:
                continue
            if (Lg - e[0]) & guard == guard:
                break
        else:
            for e in islice(red, c + 1, None):
                if e[1] & zL:
                    continue
                b = e[0]
                if (Lg - b) & guard == guard and (
                    L == b + lm
                    or L != b ^ ((b ^ lm) & ((((lmg - b) & guard) >> 15) * _FMASK))
                ):
                    break
            else:
                out.append((c, L))
    return out


def buchberger(gens, order=LEX, reduce=True, use_chain=True, *, _known=0):
    """Groebner basis of the ideal generated by gens.

    Parameters
    ----------
    gens : sequence of Polynomial
        Generators, all in one ring; zero generators are dropped.  Each
        one is reduced against the generators before it on entry, and one
        that reduces to zero is dropped too.  Then each entry's tail is
        reduced against the entries with smaller leading terms, before any
        pair is formed.  A pair of two monomial entries is never queued:
        its S-polynomial is zero, so the raw basis does not change.  While
        fewer than half the entries have a tail, an entering monomial is
        tested only against those (`_monomial_pairs`), which queues the
        pairs the criteria below keep.
    order : MonomialOrder
        Monomial order, lex by default.
    reduce : bool
        With True (default) return the unique reduced basis (monic,
        interreduced, sorted by descending leading monomial).  With False
        return the raw accumulated basis in discovery order: the entries
        (the generators reduced on entry, their tails interreduced, in
        input order), then the reduced S-polynomials.
    use_chain : bool
        With True (default) apply Gebauer and Moeller's criteria to the
        pairs of each entering element: queue only its minimal lcms, one
        representative pair per lcm, and none for an lcm that an earlier
        leading term coprime to the entering one gives; an entering
        monomial is tested against the entries with a tail alone
        (`_monomial_pairs`).  Every queued pair is formed when popped.
        With False queue and form every pair, coprime ones too (but never
        one of two monomial entries): the all-pairs reference that the
        criteria must agree with.

        There is no B-criterion, which drops a queued pair (i, j) with lcm
        L when a later entry's leading term divides L and gives lcms other
        than L with both.  On these ideals it skips almost nothing: 0 of
        22,382 popped pairs on P2 of 2x39 under reverse-lex, 666 of 23,828
        under lex, and testing it took a third of those runs.  It only
        drops pairs, and the criteria kept are sound without it, so
        Buchberger forms more pairs and returns the same reduced basis,
        which is unique.  Every pair it used to skip reduces to zero on the
        ideals the tests pin, so their raw bases are unchanged too; only
        the count of S-polynomials formed grows (357 to 378 on 2x9 under
        lex).
    _known : int
        Private, for `Ideal.reduced_basis`: the first `_known` generators
        are already the reduced Groebner basis K of their ideal under the
        order (monic, none zero).  They enter as they are, with no pair
        update, so no pair of two of them is ever queued; the other
        generators then enter and pair as usual.  0 (default) is the
        plain run.

    Returns
    -------
    GroebnerBasis

    Notes
    -----
    The start from K returns the basis a plain run would, since a reduced
    basis is unique.  Entering K's elements unreduced changes nothing: no
    term of one is divisible by another's leading term, so reduction
    against the earlier ones would leave each as it is.  Skipping their
    pairs is safe by the lcm-representation criterion (Cox-Little-O'Shea,
    Ideals, Varieties, and Algorithms, ch. 2 §10, Theorem 6): a finite set
    G is a Groebner basis when every S-polynomial S(g, h) of two of its
    elements is a sum of terms a*q, q in G, with lt(a*q) < L = lcm(lt g,
    lt h).  That holds for a pair of K's elements k_i, k_j even after the
    tail step has reduced them by the new entries to k'_i, k'_j.  As K is
    a Groebner basis, S(k_i, k_j) = sum a_l * k_l with lt(a_l * k_l) < L.
    The tail step takes each k_l to k'_l = k_l - h_l, where h_l is a sum
    of terms c * u * q over final entries q with lt(u * q) < lt(k_l), and
    k'_l keeps k_l's leading term.  So
    S(k'_i, k'_j) = sum a_l * (k'_l + h_l) - (L / lt k_i) * h_i + (L / lt k_j) * h_j,
    and every product on the right has leading term below L.  A pair
    among K's elements is therefore as settled as a pair that the loop has
    reduced to zero, which is all the criteria on an entering element's
    pairs ask of a pair of earlier elements.
    """
    gens = tuple(gens)
    if not gens:
        raise ValueError("need at least one generator")
    ring = _common_ring(gens)
    live = [g for g in gens if not g.is_zero]
    if not live:
        return GroebnerBasis((), order, True)
    key = order.key()
    lexlike = order.is_lexlike
    guard = ring.guard
    lcm = ring.mono_lcm
    lts = []     # packed leading monomials, for the lcm loop
    red = []     # reducer entries of the monic basis elements, parallel to lts
    tailed = []  # indices of the entries with a tail, ascending
    top = 0      # largest degree in lts
    pairs = []   # heap of (lcm key, i, j)

    def entry(d):
        """The monic reducer entry of the nonzero term dict d."""
        return _entry(d, max(d) if lexlike else max(d, key=key), ring)

    def add_element(e):
        nonlocal top
        lm = e[0]
        mono = not e[2]  # a monomial entry: it has no tail
        t = len(lts)
        if t < _known:
            queue = ()  # no pair of two of K's elements (see Notes)
        elif use_chain and mono and 2 * len(tailed) < t:
            # A monomial pairs only with the entries that have a tail; while
            # they are under half the entries, testing only them is cheaper
            # than grouping every lcm.  Only queued lcms are keyed, so key
            # every lcm when one may pass the reverse-lex key's degree range.
            if _degree(lm) + top > _EMAX:
                for a in lts:
                    key(lcm(a, lm))
            queue = _monomial_pairs(lm, red, tailed, guard)
        else:
            # lcm(lts[i], lm) as a fieldwise maximum: a field's guard bit
            # survives (lm | guard) - a exactly where lm's exponent is >= a's.
            lmg = lm | guard
            lcms = []
            for a in lts:
                keep = (((lmg - a) & guard) >> 15) * _FMASK
                lcms.append(a ^ ((a ^ lm) & keep))
            if use_chain:
                by_lcm = {}
                for i, L in enumerate(lcms):
                    by_lcm.setdefault(L, []).append(i)
                # Coprime leading terms are exactly those whose lcm is their product.
                queue = [
                    (by_lcm[L][0], L)
                    for L in _minimal_lcms(sorted(by_lcm, key=key), lm, guard)
                    if not any(L == lts[i] + lm for i in by_lcm[L])
                ]
            else:
                queue = enumerate(lcms)
        for i, L in queue:
            if mono and not red[i][2]:
                continue
            heappush(pairs, (key(L), i, t))
        lts.append(lm)
        red.append(e)
        if not mono:
            tailed.append(t)
        top = max(top, _degree(lm))

    # Reduce each generator against those already entered, so duplicate
    # leading terms and redundant generators create no entries of their own
    # (K's elements are reduced already); then interreduce the entries'
    # tails before any pair is formed.
    entries = []
    first = {}  # divisor memo of entries, which only grows at its end
    for n, g in enumerate(live):
        d = g._d if n < _known else _nf_dict(dict(g._d), entries, ring, order, first)
        if d:
            e = entry(d)
            if not e[0]:
                return GroebnerBasis((ring.one(),), order, True)  # a nonzero constant
            entries.append(e)
    # from here on, the divisor memo of red (which only grows at its end);
    # dropping the entries' memo before the tail step keeps peak memory down
    first = {}
    for e in _reduce_tails(entries, ring, order):
        add_element(e)

    while pairs:
        _, i, j = heappop(pairs)
        s = _spoly_dict(red[i], red[j], ring)
        if not s:
            continue
        r = _nf_dict(s, red, ring, order, first)
        if r:
            e = entry(r)
            if not e[0]:
                return GroebnerBasis((ring.one(),), order, True)
            add_element(e)

    if not reduce:
        return GroebnerBasis(_monic_polys(red, ring), order, False)
    return GroebnerBasis(_monic_polys(_reduce_basis(red, ring, order), ring), order, True)


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
    return _monic_polys(_reduce_basis(_prepare(polys, ring, order), ring, order), ring)


def is_groebner(G, order=None):
    """Check the Buchberger criterion for G; returns (flag, witness).

    The S-polynomial of every pair whose leading terms share a variable is
    reduced against all of G, and G passes when each remainder is zero.
    Pairs with coprime leading terms, lcm(lt f, lt g) = lt f * lt g, are
    skipped by Buchberger's first criterion (Buchberger, EUROSAM 1979;
    Cox-Little-O'Shea, Ideals, Varieties, and Algorithms, ch. 2 §10): with
    f = lt f + f' and g = lt g + g' monic, S(f, g) = f'*g - g'*f.  The two
    products have different leading terms, since lt(f')*lt g = lt(g')*lt f
    with lt f coprime to lt g would make lt f divide lt(f') < lt f.  So
    neither leading term is above the S-polynomial's, which is a standard
    representation.  G is a Groebner basis exactly when every S-polynomial
    of a pair of G has a standard representation (ibid.), and a zero
    remainder gives one.  So the check stays an exact decision: a nonzero
    remainder is a nonzero element of (G) with no term divisible by a
    leading term of G, and all zero remainders make G a Groebner basis.

    Two leading terms are coprime exactly when their support masks are
    disjoint: a mask has a field's guard bit set exactly when the
    exponent there is nonzero, so a shared set bit is a shared variable.
    No pair of two monomial entries is formed either: of monic monomials
    f = lt f and g = lt g, S(f, g) = (L/lt f)*lt f - (L/lt g)*lt g = 0,
    as Buchberger's pair update also uses.  Such a pair never fails, so
    leaving it out changes neither the answer nor the witness.

    The witness on failure is (f, g, nonzero normal form) for the first
    failing pair (i, j), i < j in G's order, whose leading terms are not
    coprime.  The order defaults as in `reducer`.
    """
    G, order = _basis_and_order(G, order)
    if not G:
        raise ValueError("need at least one polynomial")
    ring = _common_ring(G)
    red = _prepare(G, ring, order)
    first = {}
    n = len(G)
    tailed = [j for j, e in enumerate(red) if e[2]]  # ascending
    for i, a in enumerate(red):
        # the later entries a can pair with: any, or only those with a tail
        later = range(i + 1, n) if a[2] else islice(tailed, bisect_right(tailed, i), None)
        mask = a[1]
        for j in later:
            b = red[j]
            if mask & b[1] == 0:
                continue
            s = _spoly_dict(a, b, ring)
            if not s:
                continue
            r = _nf_dict(s, red, ring, order, first)
            if r:
                return False, (G[i], G[j], Polynomial._raw(ring, r))
    return True, None
