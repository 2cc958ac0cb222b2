"""Machine verification of the closed-form structure of 2x2 permanental
ideals of Hankel matrices.

For each admissible shape (m, n) the suite checks, over Q or GF(p):

* the shape's closed-form lex Groebner basis (four families, selected by
  shape class);
* the component decomposition P2 = Q1 cap Q2 cap J with its colon chains
  and stabilization exponents, and the radical of J, proved from leading
  terms (`_outside_radical`);
* primary-component properties (radical containments, colon stability);
* monomials whose colon with P2 is the whole maximal ideal;
* index-rewriting identities: quadratic and cubic monomials reduce to
  their balanced middle forms, low-degree products of matrix entries lie
  in P2, and S-polynomials of generator pairs sharing a leading variable
  are bounded binomials.

Every check returns a VerificationReport carrying a pass/fail status and,
on failure, a machine-checkable witness.

A check does not compute what the facts it checks already prove; the
proof is in its docstring, and the computation lives on in the tests.
So no basis is built twice: one basis of P2, its reduced reverse-lex
basis with x1 smallest, decides every membership in P2 (`Case._in_p2`);
a passing closed-form check proves its interreduction to be P2's reduced
lex basis by containment, with no lex basis of P2 built; each closed
component q1, q2 has one basis, its reduced reverse-lex basis with its
outside variable smallest, which its colon check builds and the
decomposition's containment and the radical test read; a span of
variables, a minimal prime or the maximal ideal, has no basis at all,
since containment in it is read off supports (`_first_outside_span`);
the S-polynomials of two permanents u + v are decided on packed
monomials, with each generator's degree and index-sum shifts worked out
once; and the monomials of the lemma checks, the alphas and their
multiples by a variable go into the reducer tables as packed monomials,
with no polynomial built per monomial.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from itertools import combinations, combinations_with_replacement

from .ring import _BITS, _EMAX, _FMASK, LEX, Polynomial, _packed_variables, _RevlexOrder, _degree
from .groebner import (
    _first_outside,
    _term_reducer,
    inter_reduce,
    is_groebner,
    normal_form,
    s_polynomials,
)
from .ideal_ops import (
    Ideal,
    _has_homogeneous_generators,
    _revlex_basis,
    colon,
    intersect,
    radical_member,
    saturate,
)
from .hankel import HankelMatrix, permanent_ideal, permanent_index_triples


class ShapeClass(Enum):
    """Which closed-form basis family a shape (m, n) falls under."""

    TWO_BY_N = "2xn"
    THREE_THREE = "3x3"
    THREE_FOUR_OR_FOUR_FOUR = "3x4_4x4"
    GENERAL = "general"


def _reversal(ring):
    """The map f -> sigma(f), sigma: x_i -> x_(N+1-i), on packed monomials.

    Reverses the order of the N exponent fields.  sigma rotates a Hankel
    matrix by 180 degrees, entry (i, j) to (m+1-i, n+1-j), so it permutes
    its 2x2 permanents; it is its own inverse.

    Reading a monomial's 2N bytes in the opposite byte order reverses the
    fields and, inside each 16-bit field, its two bytes; swapping those
    back leaves each field's exponent in its mirrored place.
    """
    size = 2 * ring.nvars
    low = int.from_bytes(b"\x00\xff" * ring.nvars, "big")  # the low byte of each field

    def reverse(f):
        out = {}
        for m, c in f._d.items():
            r = int.from_bytes(m.to_bytes(size, "big"), "little")
            out[((r & low) << 8) | ((r >> 8) & low)] = c
        return Polynomial._raw(ring, out)

    return reverse


class Case:
    """One Hankel shape under verification, with cached derived ideals.

    Requires m + n > 4: the 2x2 permanental ideal is prime and carries
    none of the structure verified here.  Shapes are normalized to m <= n.
    """

    def __init__(self, m, n, char=0):
        self.matrix = HankelMatrix(m, n, char)
        m, n = self.matrix.shape
        if m + n <= 4:
            raise ValueError("the 2x2 permanental ideal is prime; nothing to verify")
        self.m = m
        self.n = n
        self.char = char
        self.nvars = m + n - 1
        self.r = m + n - 2
        self.ring = self.matrix.ring

    def __repr__(self):
        return f"Case({self.m}x{self.n}, char {self.char})"

    @property
    def shape_class(self):
        if self.m == 2:
            return ShapeClass.TWO_BY_N
        if (self.m, self.n) == (3, 3):
            return ShapeClass.THREE_THREE
        if (self.m, self.n) in ((3, 4), (4, 4)):
            return ShapeClass.THREE_FOUR_OR_FOUR_FOUR
        return ShapeClass.GENERAL

    def x(self, i):
        return self.ring.var(i)

    def _span(self, lo, hi):
        """The ideal of the consecutive variables x_lo..x_hi."""
        return Ideal(self.ring, [self.x(i) for i in range(lo, hi + 1)])

    @cached_property
    def p2(self):
        """The ideal of 2x2 permanents with its canonical generator list."""
        return permanent_ideal(self.matrix)

    @cached_property
    def maximal_ideal(self):
        return self._span(1, self.nvars)

    @cached_property
    def primes(self):
        """The two minimal primes over P2: spans of r consecutive variables (`_span`)."""
        return self._span(1, self.r), self._span(2, self.r + 1)

    @cached_property
    def q1(self):
        """Primary component at the first minimal prime (x1..xr)."""
        r, x = self.r, self.x
        gens = [x(i) for i in range(1, r - 2)]
        gens += [
            x(r - 2) ** 2,
            x(r - 2) * x(r - 1),
            x(r - 2) * x(r),
            x(r - 2) * x(r + 1) + x(r - 1) * x(r),
            x(r - 1) ** 2,
            x(r - 1) * x(r + 1) + x(r) ** 2,
        ]
        return Ideal(self.ring, gens)

    @cached_property
    def q2(self):
        """Primary component at the second minimal prime (x2..x_{r+1}): q1 under i -> r+2-i."""
        gens = list(map(_reversal(self.ring), self.q1.generators))
        # listed as q1 lists its own: by degree, then by descending lex leading term
        gens.sort(key=lambda g: (g.total_degree(), [-e for e in g.leading_monomial()]))
        return Ideal(self.ring, gens)

    @cached_property
    def j(self):
        """The embedded component J = P2 + (x1^2, x_{r+1}^2)."""
        return self.p2 + (self.x(1) ** 2, self.x(self.r + 1) ** 2)

    @cached_property
    def q1q2(self):
        return intersect(self.q1, self.q2)

    @cached_property
    def _nf_p2(self):
        """Normal forms of term dicts modulo P2's reduced reverse-lex basis
        with x1 smallest, the one `saturate(P2, x1)` caches: f lies in P2
        exactly when its terms reduce to zero.  One reducer table per case,
        which takes packed monomials {m: c} straight in."""
        return _term_reducer(self.p2.reduced_basis(_RevlexOrder(self.nvars)))

    def _in_p2(self, f, k=0):
        """Whether x_k * f lies in P2, for f in the case's ring (x_0 = 1).

        x_k * f is f's term dict with x_k's packed monomial added to each
        monomial; a field that passes the exponent range raises ValueError,
        as the product of polynomials does.
        """
        x = _packed_variables(self.nvars)[k]
        d = {m + x: c for m, c in f._d.items()}
        if k and any(m & self.ring.guard for m in d):
            raise ValueError(f"exponent overflow: a product exponent exceeds {_EMAX}")
        return not self._nf_p2(d)


def closed_form_gb(case):
    """The closed-form lex basis claimed for the case's shape class.

    Returned exactly as enumerated (permanents first, then the monomial
    and binomial tails); all elements are monic by construction.
    """
    x = case.x
    n, last = case.n, case.nvars
    gens = list(case.p2.generators)
    cls = case.shape_class
    if cls is ShapeClass.TWO_BY_N:
        gens += [x(i) ** 2 * x(i + 1) for i in range(2, n)]
        gens += [x(i) * x(i + 1) ** 2 for i in range(2, n)]
        gens += [x(i) ** 3 for i in range(3, n)]
        gens += [x(2) ** 4, x(n) ** 4]
    elif cls is ShapeClass.THREE_THREE:
        gens += [x(2) ** 2 * x(3), x(2) * x(3) ** 2, x(3) ** 2 * x(4), x(3) * x(4) ** 2]
        gens += [x(2) ** 4, x(3) ** 4, x(4) ** 4]
    else:
        if cls is ShapeClass.GENERAL:
            gens += [x(i) * x(i + 1) for i in range(3, last - 2)]
        gens += [x(2) ** 2 * x(3), x(last - 2) * x(last - 1) ** 2]
        gens += [x(i) ** 2 for i in range(3, last - 1)]
        gens += [x(2) ** 4, x(last - 1) ** 4]
    return gens


# Case's cached components as functions: the claim checks call these names,
# so a test can patch them and a tracer can wrap them.


def minimal_primes(case):
    return case.primes


def q1(case):
    return case.q1


def q2(case):
    return case.q2


def embedded_j(case):
    return case.j


def alphas(case):
    """Monomials whose colon with P2 is the full maximal ideal.

    None when the shape has no embedded component (and hence no such
    monomial is claimed): exactly (2,3), (3,5), (3,6) and (4,5).
    """
    m, n, last = case.m, case.n, case.nvars
    x = case.x
    if m == 2:
        if n < 4:
            return None
        return [
            x(i) * x(j)
            for i in range(2, n - 1)
            for j in range(max(i + 1, 4), n + 1)
        ]
    if (m, n) == (3, 3):
        return [x(1) * x(3) * x(5)]
    if (m, n) == (3, 4):
        return [x(2) * x(5), x(3) * x(4)]
    if (m, n) == (4, 4):
        return [x(2) * x(5), x(3) * x(4), x(3) * x(6), x(4) * x(5)]
    if last >= 9:
        return [x(j) for j in range(5, last - 3)]
    return None


@lru_cache(maxsize=None)
def _first_triples(m, n):
    """{(i, i+s+t): (i, s, t)}, the first canonical triple of each leading index pair."""
    out = {}
    for i, s, t in permanent_index_triples(m, n):
        out.setdefault((i, i + s + t), (i, s, t))
    return out


def rewrite_monomial_indices(m, n, indices):
    """Iterate the first-match rewrite rule on a monomial's variable indices.

    State is (sign, sorted index multiset).  One step finds the first
    triple in the canonical (i, s, t) enumeration whose leading index pair
    {i, i+s+t} lies in the multiset, replaces it by {i+s, i+t} and flips
    the sign.  Because each intermediate polynomial in the corresponding
    normal-form computation is a single signed monomial, this mirrors
    reduction against the permanent generators exactly, while being pure
    index bookkeeping independent of the polynomial engine.

    The enumeration ascends as tuples, so its first triple whose pair lies
    in the multiset is the least, over the multiset's index pairs, of the
    first triple with that pair (`_first_triples`, built once per shape).
    """
    first = _first_triples(m, n)
    state = sorted(indices)
    sign = 1
    while True:
        hits = [first[ij] for ij in combinations(state, 2) if ij in first]
        if not hits:
            return sign, tuple(state)
        i, s, t = min(hits)
        state.remove(i)
        state.remove(i + s + t)
        state.append(i + s)
        state.append(i + t)
        state.sort()
        sign = -sign


# -- reports -----------------------------------------------------------------


@dataclass
class VerificationReport:
    """Outcome of one claim check on one shape."""

    claim: str
    m: int
    n: int
    status: str
    witness: dict | None = None
    detail: str = ""
    millis: int = 0

    @property
    def passed(self):
        return self.status == "pass"

    def to_dict(self):
        d = {"claim": self.claim, "m": self.m, "n": self.n, "status": self.status}
        if self.witness is not None:
            d["witness"] = self.witness
        if self.detail:
            d["detail"] = self.detail
        d["millis"] = self.millis
        return d


def _report(claim, case, t0, failures, detail=""):
    ms = int((time.perf_counter() - t0) * 1000)
    if failures:
        witness = failures[0] if len(failures) == 1 else {"failures": failures}
        return VerificationReport(claim, case.m, case.n, "fail", witness, detail, ms)
    return VerificationReport(claim, case.m, case.n, "pass", None, detail, ms)


# -- claim checks --------------------------------------------------------------


def _set_mismatch(kind, got, want):
    """Failure record listing the polynomials of got not in want and back."""
    got = {str(p) for p in got}
    want = {str(p) for p in want}
    return {"kind": kind, "extra": sorted(got - want), "missing": sorted(want - got)}


def _basis_failure(G, H=None):
    """None when the polys G form a Groebner basis, else a failure record.

    H is `inter_reduce(G)`, computed here unless the caller has it.  G is a
    Groebner basis exactly when H passes the Buchberger criterion and
    every element of G reduces to zero modulo H.  H holds G's minimal
    elements (those whose lex leading term no other's divides, the first
    of equal ones), made monic, with their tails reduced by one another.
    Tail reduction keeps each leading term, so H lies in (G) and
    <lt H> = <lt G>.  If both conditions hold, H is a Groebner basis of
    (H), and G lies in (H), so (H) = (G) and in((G)) = <lt H> = <lt G>.
    Conversely, if G is a Groebner basis, H lies in (G) and its leading
    terms generate in((G)) = <lt G>, so H is a Groebner basis of (G)
    (Cox-Little-O'Shea, ch. 2 §5): it passes the criterion, and every
    element of G, lying in (G) = (H), reduces to zero modulo H.  Most of
    H is monomials, and a pair of two monomials has no S-polynomial.

    A failing pair of H gives `buchberger_criterion_fails`.  The first
    element of G with a nonzero remainder gives
    `nonminimal_element_not_reduced`, with that remainder: it is a nonzero
    element of (G) with no term divisible by a leading term of G.
    """
    if H is None:
        H = inter_reduce(G)
    ok, wit = is_groebner(H)
    if not ok:
        f, g, r = wit
        return {"kind": "buchberger_criterion_fails", "pair": [str(f), str(g)], "remainder": str(r)}
    g = _first_outside(G, H)
    if g is not None:
        r = normal_form(g, H)
        return {"kind": "nonminimal_element_not_reduced", "element": str(g), "remainder": str(r)}
    return None


def verify_gb(case):
    """Check the closed-form basis claim for the case's shape.

    Two sub-checks: the closed form G is a Groebner basis
    (`_basis_failure`), and its interreduction H equals the reduced lex
    basis of P2.  Shapes whose printed set is genuinely reduced ((2,3) and
    (3,3)) must additionally match the reduced basis verbatim; for the
    others the literal comparison is recorded in the detail field.

    The second sub-check builds no lex basis of P2 when it passes.  Once
    `_basis_failure` passes, H is the reduced lex basis of (G), and
    (G) = P2 is decided by containment both ways.  An element of G lies in
    P2 when it is a generator of P2 or lies in P2 by `Case._in_p2`, which
    reduces modulo P2's reduced reverse-lex basis with x1 smallest.  A
    generator of P2 lies in (G) when it is an element of G or reduces to
    zero modulo H, a Groebner basis of (G).  Then H is the reduced lex
    basis of (G) = P2, which is unique, so it is the basis a lex Buchberger
    run on P2 would return.  When a containment fails, (G) != P2 and H
    differs from P2's reduced basis, which is then built to list the
    difference as `interreduction_mismatch`.  It is built too when G is no
    Groebner basis, for the detail and the literal comparison.

    That G generates P2, and so lies in it, needs no other check: any
    (G) != P2 fails as `interreduction_mismatch`, and an element of G
    outside P2 fails one of the two sub-checks.
    """
    t0 = time.perf_counter()
    claim = f"gb.{case.shape_class.value}"
    cf = closed_form_gb(case)
    p2 = case.p2
    failures = []

    interreduced = inter_reduce(cf)
    failure = _basis_failure(cf, interreduced)
    gens, listed = set(p2.generators), set(cf)
    if (
        failure is None
        and all(case._in_p2(g) for g in cf if g not in gens)
        and _first_outside((g for g in p2.generators if g not in listed), interreduced) is None
    ):
        reduced = interreduced  # P2's reduced lex basis, by the containments
    else:
        reduced = p2.reduced_basis().elements
    if failure is not None:
        failures.append(failure)
    elif interreduced != reduced:
        failures.append(_set_mismatch("interreduction_mismatch", interreduced, reduced))
    literal = frozenset(cf) == frozenset(reduced)
    strict = case.shape_class is ShapeClass.THREE_THREE or (
        case.shape_class is ShapeClass.TWO_BY_N and case.n == 3
    )
    if strict and not literal:
        failures.append(_set_mismatch("literal_set_mismatch", cf, reduced))
    detail = (
        f"closed_form={len(cf)} reduced={len(reduced)} "
        f"literal_reduced={'yes' if literal else 'no'}"
    )
    return _report(claim, case, t0, failures, detail)


def _pure_powers(ring, polys, order):
    """The k with some leading term under the order among polys a power of x_k."""
    supports = (ring.support(g._lm_packed(order)) for g in polys)
    return {s[0] for s in supports if len(s) == 1}


def _outside_radical(case, Q, variables):
    """The first of the variables not in rad(Q), or None.

    One scan settles every variable at once when Q has homogeneous
    generators among which are all of P2's.  Then P2 lies in Q.  Take
    P2's reduced reverse-lex basis with x1 smallest, the one `Case._in_p2`
    reads: in(Q) under that order holds the leading terms of P2's basis
    under its order, and it holds each monomial generator of Q.  Suppose
    those include a pure power of every variable.  Then only finitely many
    monomials lie outside in(Q), and these standard monomials are a basis
    of R/Q (Cox-Little-O'Shea, Ideals, Varieties, and Algorithms, ch. 5 §3,
    the finiteness theorem).  Q is homogeneous, so R/Q is graded, Q's
    reduced basis is homogeneous, and the standard monomials of degree d
    are a basis of (R/Q)_d (ch. 9 §3).  So (R/Q)_d = 0 past the largest
    standard degree d0, and x_k^(d0+1) lies in Q for every k: every
    variable is in rad(Q).

    Otherwise each variable goes alone: a generator c * x_k^e of Q puts x_k
    in rad(Q), and `radical_member(x_k, Q)` decides the rest, so the answer
    is always exact.
    """
    ring = case.ring
    powers = _pure_powers(ring, [g for g in Q.generators if len(g) == 1], LEX)
    if _has_homogeneous_generators(Q) and set(case.p2.generators) <= set(Q.generators):
        basis = case.p2.reduced_basis(_RevlexOrder(case.nvars))
        if len(powers | _pure_powers(ring, basis, basis.order)) == ring.nvars:
            return None
    for v in variables:
        if ring.support(v._lm_packed(LEX))[0] not in powers and not radical_member(v, Q):
            return v
    return None


def verify_decomposition(case):
    """Check P2 = Q1 cap Q2 cap J on the record decomposition_summary returns.

    Its saturate computes c_{k+1} = (c_k : f).  Since
    ((I : f^k) : f) = (I : f^(k+1)), it returns S = (I : f^n) with
    (I : f^n) = (I : f^(n+1)), and the chain is stable from n on.  So
    S = Q1 with n <= 2 is the claim (P2 : x_N^2) = (P2 : x_N^infinity) = Q1,
    N = r + 1, and likewise ((P2 + (x_N^2)) : x1^2) =
    ((P2 + (x_N^2)) : x1^infinity) = Q2.

    Each saturation is compared with its closed form by containment both
    ways, against bases already held, so no lex basis of a saturation is
    built.  Both saturations run at x1 on ideals with homogeneous
    generators, P2 and P2 + (x_N^2), so `saturate` read each off the
    input's reduced reverse-lex basis G with x1 smallest.  With exponent
    n > 0 the saturation's generators are the g / x1^nu(g), which are a
    Groebner basis of it under that order (Bayer's property, see `colon`);
    with n = 0 `saturate` returned its input by its raw generators, and
    the saturation's own reduced basis serves, which is G, cached on the
    input.  Both saturations are read from the record: Q2 is the second
    one, and S = (P2 : x1^infinity), the first, is kept beside
    Q1 = sigma(S).  sigma is a ring automorphism and its own inverse, so
    f lies in Q1 exactly when sigma(f) lies in S.
    A component equals its closed form exactly when each contains the
    other.  A polynomial lies in an ideal exactly when it reduces to zero
    modulo a Groebner basis of the ideal under that basis's own order, so
    any one basis decides.  Every generator of the component must reduce
    to zero modulo the closed form's reduced reverse-lex basis with its
    outside variable smallest, x_N for q1 and x1 for q2: the basis that
    `colon(q, y)` reads for `primary.components`, so each closed form gets
    one basis.  Every generator of the closed form, mapped into the
    saturation, must reduce to zero modulo the saturation's basis.  Both
    containments go through `_first_outside`, and a mismatch's witness is
    the poly at which one failed: the first generator of the component
    outside the closed form, or else the first generator g of the closed
    form with into(g) outside the saturation, mapped back by sigma for q1.
    Membership does not depend on which Groebner basis decides it, so this
    is the generator `why_unequal(component, closed)` names, and no lex
    basis is built on a mismatch either.

    Also asserts that J is proper, which it is when no generator has a
    constant term (J then lies in the maximal ideal; only otherwise is
    `is_unit` asked), and that each x_k lies in rad(J), by
    `_outside_radical`, whose leading-term scan builds no basis of J.
    The detail records whether J is genuinely embedded, Q1 cap Q2 != P2,
    from the record's `j_redundant`.

    The triple intersection is not computed: the checks above prove it.
    The splitting lemma (Gianni-Trager-Zacharias, J. Symb. Comp. 6, 1988)
    gives I = (I : f^n) cap (I + (f^n)) whenever (I : f^n) = (I : f^infinity).
    With I = P2 and f = x_N, n = 2, that is P2 = Q1 cap (P2 + (x_N^2)).
    With I = P2 + (x_N^2) and f = x1, it is
    P2 + (x_N^2) = Q2 cap (P2 + (x_N^2, x1^2)) = Q2 cap J, since J is
    P2 + (x1^2, x_N^2) by construction (`Case.j`).  Hence
    P2 = Q1 cap Q2 cap J whenever the q1 and q2 checks pass.
    """
    t0 = time.perf_counter()
    claim = "decomp.main"
    failures = []
    s = decomposition_summary(case)
    J = s["j"]
    order = _RevlexOrder(case.nvars)

    # (closed form, its outside variable, the saturation, the map from the component into it)
    for tag, closed, k, sat, into in (
        ("q1", q1(case), case.nvars, s["s"], _reversal(case.ring)),
        ("q2", q2(case), 1, s["q2"], lambda f: f),
    ):
        component = s[tag]
        basis = sat.generators if s[f"{tag}_stab"] else sat.reduced_basis(order)
        w = _first_outside(component.generators, _revlex_basis(closed, k))
        if w is None and (w := _first_outside(map(into, closed.generators), basis, order)):
            w = into(w)  # into is its own inverse
        if w is not None:
            failures.append({"kind": f"{tag}_mismatch", "witness": str(w)})
        if s[f"{tag}_stab"] > 2:
            failures.append({"kind": f"{tag}_chain_not_stable"})

    if any(0 in g._d for g in J.generators) and J.is_unit:  # 0 packs the constant monomial
        failures.append({"kind": "j_is_unit_ideal"})
    elif (v := _outside_radical(case, J, case.maximal_ideal.generators)) is not None:
        failures.append({"kind": "radical_misses_variable", "variable": str(v)})

    embedded = "no" if s["j_redundant"] else "yes"
    detail = f"q1_stab={s['q1_stab']} q2_stab={s['q2_stab']} embedded={embedded}"
    return _report(claim, case, t0, failures, detail)


def classify_embedded(case):
    """Whether J contributes an embedded component: Q1 cap Q2 != P2.

    Where the shape lists alphas, one alpha outside P2 with x_N * alpha and
    x1 * alpha in P2, N = r + 1, settles it.  x_N * alpha in P2 puts alpha
    in (P2 : x_N), inside (P2 : x_N^infinity) = Q1.  x1 * alpha in P2, inside
    P2 + (x_N^2), puts alpha in ((P2 + (x_N^2)) : x1^infinity) = Q2.  So
    alpha lies in Q1 cap Q2 but not in P2.  The same holds for the closed
    forms q1 and q2, which contain P2 and are primary at P1 = (x1..xr) and
    P2' = (x2..xN): x_N is not in P1 = rad(q1), so x_N * alpha in q1 puts
    alpha in q1, and x1 is not in P2', so x1 * alpha in q2 puts alpha in q2.

    The three memberships are in P2 alone, decided by `Case._in_p2`
    against the reverse-lex basis with x1 smallest that `saturate(P2, x1)`
    caches on P2, so no basis of Q1 or Q2 is built.  Otherwise
    `case.q1q2`, the intersection of the closed forms, is compared with P2
    by containment both ways: its generators by the same test, and P2's
    generators by the lex basis of the intersection, which `intersect`
    returns cached.  So no lex basis of P2 is built.
    """
    in_p2 = case._in_p2
    al = alphas(case)
    if al is not None:
        N = case.nvars
        if any(not in_p2(a) and in_p2(a, N) and in_p2(a, 1) for a in al):
            return True
    q1q2 = case.q1q2
    if not all(map(in_p2, q1q2.generators)):
        return True
    return _first_outside(case.p2.generators, q1q2.reduced_basis()) is not None


def decomposition_summary(case):
    """The decomposition data for one case, computed by saturation.

    Q1 is P2 saturated at x_N, N = r + 1, and Q2 is P2 + (x_N^2) saturated
    at x1; the stabilization exponents are the saturations' step counts.
    J is P2 plus the two squared end variables.  J is redundant exactly
    when Q1 cap Q2 already equals P2, as `classify_embedded` decides.  It
    tests membership in P2 against the reverse-lex basis that the
    saturation at x1 has just cached, so no lex basis of P2 is built;
    without an alpha it also intersects the closed forms, which equal the
    saturations wherever decomp.main passes.

    Both saturations run at x1, the smallest variable of the reverse-lex
    order, so the second one's basis starts from P2's reduced basis plus
    x_N^2 (`Ideal.reduced_basis`).  Q1 and its exponent come from the
    mirror image: Q1 = sigma(S), S = (P2 : x1^infinity), sigma:
    x_i -> x_(N+1-i) (`_reversal`), with the same stabilization exponent;
    the record keeps S too, under "s".  sigma is a ring
    automorphism and its own inverse, so sigma(I : f) = (sigma(I) : sigma(f))
    for any ideal I and f.  sigma rotates the Hankel matrix by 180 degrees
    and so permutes P2's generators: sigma(P2) = P2, and with
    sigma(x1) = x_N, (P2 : x_N^n) = sigma(P2 : x1^n) for every n.  One
    chain is stable from n on exactly when the other is, so both stabilize
    at the same n.
    """
    p2 = case.p2
    x1 = case.x(1)
    S, stab1 = saturate(p2, x1)
    Q2, stab2 = saturate(p2 + case.x(case.nvars) ** 2, x1)
    return {
        "s": S,
        "q1": Ideal(case.ring, map(_reversal(case.ring), S.generators)),
        "q2": Q2,
        "j": embedded_j(case),
        "q1_stab": stab1,
        "q2_stab": stab2,
        "j_redundant": not classify_embedded(case),
    }


def _colon_witnesses(case):
    """Per component, (label, Q, P, variables): the variables not in P."""
    P1, P2prime = minimal_primes(case)
    comps = [
        ("q1", q1(case), P1),
        ("q2", q2(case), P2prime),
        ("j", embedded_j(case), case.maximal_ideal),
    ]
    out = []
    for label, Q, P in comps:
        pvars = {case.ring.support(v._lm_packed(LEX))[0] for v in P.generators}
        variables = [case.x(k) for k in range(1, case.nvars + 1) if k not in pvars]
        out.append((label, Q, P, variables))
    return out


def _first_outside_span(polys, P):
    """The first poly outside P, an ideal generated by variables, or None.

    A polynomial f lies in the ideal of the variables x_i, i in S, exactly
    when each of its terms contains some x_i with i in S.  If f = sum h_i*x_i,
    every term of every product h_i*x_i contains x_i, and cancelling terms
    in the sum adds none, so every term of f contains one.  Conversely, if
    every term t of f has some x_i | t, then f = sum of c_t*(t/x_i)*x_i.
    So the zero polynomial lies in P and a nonzero constant does not.  On
    packed monomials x_i is one bit at the bottom of its field, so x_i
    times `_FMASK` masks that field, and a term contains some x_i, i in S,
    exactly when it shares a bit with the sum of those masks.
    """
    mask = _FMASK * sum({m for v in P.generators for m in v._d})
    return next((f for f in polys if not all(m & mask for m in f._d)), None)


def _colon_fixes(Q, y):
    """Whether (Q : y) = Q for a variable y = x_k, with no basis of the colon built.

    Q always lies in (Q : y), so the two are equal exactly when every
    generator of `colon(Q, y)` lies in Q.  A polynomial lies in Q exactly
    when it reduces to zero modulo a Groebner basis of Q under that
    basis's own order, and the one read is Q's reduced reverse-lex basis
    with x_k smallest: the basis `colon` itself reads when Q has
    homogeneous generators, so Q gets no other basis.
    """
    (k,) = Q.ring.support(y._lm_packed(LEX))
    return _first_outside(colon(Q, y).generators, _revlex_basis(Q, k)) is None


def verify_primary_properties(case):
    """Primary-component battery for (Q1, Q2, J) against their primes.

    For each pair (Q, P): every generator of P lies in rad(Q), Q sits
    inside P (so rad(Q) = P), and (Q : y) = Q for each variable y not in
    P.  The radical goes through `_outside_radical`, the same test as in
    decomp.main: its leading-term scan settles J with no basis of J, and
    on Q1 and Q2 each variable of P not among their generators goes to
    `radical_member`.  The colon goes through `_colon_fixes`, which builds
    no basis of the colon and decides it against Q's reverse-lex basis with
    the outside variable smallest.  The colons run before the radical
    test, so `radical_member` finds that basis cached on Q and reads it:
    Q1 and Q2 each get one basis, and no lex basis of Q is built.  P is
    generated by variables, so Q lies in P exactly when each generator's
    terms all contain a variable of P (`_first_outside_span`), and P gets
    no basis; each y is a variable not among P's generators, so it lies
    outside P.  When Q has homogeneous generators and P misses at most one
    variable, this proves Q P-primary:

    * Q1 and Q2.  P is generated by every variable but x_k.  The
      associated primes of a homogeneous Q are homogeneous (Eisenbud,
      Commutative Algebra, 3.5), and each contains rad(Q) = P, so each is
      P or the maximal ideal.  The maximal ideal is associated exactly
      when x_k is a zero divisor mod Q, that is when (Q : x_k) != Q.  So
      rad(Q) = P together with (Q : x_k) = Q proves Q P-primary.
    * J.  rad(J) is the maximal ideal, so J is primary
      (Atiyah-Macdonald, Prop. 4.2), and no variable lies outside it.

    A component outside the proof fails, with `component_not_homogeneous`
    or `prime_misses_several_variables`: for it the variable colons are
    necessary but not sufficient.  Every component the paper gives is
    homogeneous, at a prime that misses at most one variable.
    """
    t0 = time.perf_counter()
    claim = "primary.components"
    failures = []
    for label, Q, P, variables in _colon_witnesses(case):
        # the colons first: they cache the reverse-lex basis that the radical
        # test then reads, so no lex basis of Q is built
        moved = next((y for y in variables if not _colon_fixes(Q, y)), None)
        v = _outside_radical(case, Q, P.generators)
        if v is not None:
            failures.append(
                {"kind": "prime_generator_outside_radical", "component": label, "generator": str(v)}
            )
        if (gq := _first_outside_span(Q.generators, P)) is not None:
            failures.append(
                {"kind": "component_outside_prime", "component": label, "generator": str(gq)}
            )
        if not _has_homogeneous_generators(Q):
            failures.append({"kind": "component_not_homogeneous", "component": label})
        if len(variables) > 1:
            failures.append({
                "kind": "prime_misses_several_variables",
                "component": label,
                "variables": [str(y) for y in variables],
            })
        if moved is not None:
            failures.append({"kind": "colon_moves_component", "component": label, "y": str(moved)})
    return _report(claim, case, t0, failures)


def verify_associated_maximal(case):
    """Check the listed monomials alpha with (P2 : alpha) = (x1..xN).

    Every alpha must lie outside P2 while x_k * alpha lies in P2 for all
    k.  That proves the colon is m = (x1..xN), with no colon computed:
    x_k * alpha in P2 for every k gives m inside (P2 : alpha), alpha
    outside P2 gives 1 outside it, and m is maximal.  Returns None when
    the shape claims no such monomial.
    """
    al = alphas(case)
    if al is None:
        return None
    t0 = time.perf_counter()
    claim = "assoc.maximal"
    failures = []
    in_p2 = case._in_p2
    for a in al:
        if in_p2(a):
            failures.append({"kind": "alpha_inside_ideal", "alpha": str(a)})
            continue
        for k in range(1, case.nvars + 1):
            if not in_p2(a, k):
                failures.append(
                    {"kind": "alpha_colon_misses_variable", "alpha": str(a), "variable": f"x{k}"}
                )
                break
    detail = "alpha=" + ",".join(str(a) for a in al)
    return _report(claim, case, t0, failures, detail)


def _monomial(ring, indices, c=1):
    """The monomial c * x_i * x_j * ... for 1-based variable indices, c nonzero.

    Packed directly, as the sum of the variables' packed monomials.
    """
    x = _packed_variables(ring.nvars)
    return Polynomial._raw(ring, {sum(map(x.__getitem__, indices)): ring.coeff(c)})


def verify_reduction_lemma(case):
    """Every x_i*x_j and x_i*x_j*x_k rewrites to its balanced middle form.

    The index-rewriting oracle must land on the degree-preserving middle
    monomial (the d indices of a degree-d monomial split as evenly as
    their sum allows), and reduction against the permanent generators must
    reproduce the oracle's signed monomial exactly.  Stops at the first
    failure.  Each monomial and its expected signed monomial are packed
    straight into term dicts; `_monomial` builds only a failure witness.
    """
    t0 = time.perf_counter()
    claim = "lemma.reduction"
    ring = case.ring
    top = case.nvars
    packed = _packed_variables(top)  # packed[i] is x_i
    signed = {1: ring.coeff(1), -1: ring.coeff(-1)}
    one = signed[1]
    # one reducer table for every monomial of the shape
    nf_perm = _term_reducer(case.p2.generators)
    for d in (2, 3):
        for idx in combinations_with_replacement(range(1, top + 1), d):
            c, rest = divmod(sum(idx), d)
            sign, final = rewrite_monomial_indices(case.m, case.n, idx)
            if final != (c,) * (d - rest) + (c + 1,) * rest:
                failure = {
                    "kind": "oracle_off_target",
                    "monomial": list(idx),
                    "got": list(final),
                }
                return _report(claim, case, t0, [failure])
            nf = nf_perm({sum(map(packed.__getitem__, idx)): one})
            if nf != {sum(map(packed.__getitem__, final)): signed[sign]}:
                failure = {
                    "kind": "engine_oracle_disagree",
                    "monomial": list(idx),
                    "engine": str(Polynomial._raw(ring, nf)),
                    "oracle": str(_monomial(ring, final, sign)),
                }
                return _report(claim, case, t0, [failure])
    return _report(claim, case, t0, [])


def _rows(a, height, width):
    """The rows of the cells holding x_a in a height x width Hankel matrix.

    Entry (r, c) is x_(r+c-1), so x_a sits in row r at column a - r + 1.
    """
    return range(max(1, a - width + 1), min(height, a) + 1)


def _cubic_fits(x, y, z, height, width):
    """Whether x_x and x_y (x < y) fit one row and x_z another, on three distinct columns."""
    for p in range(max(1, y - width + 1), min(height, x) + 1):  # the rows holding both
        cols = (x - p + 1, y - p + 1)
        for q in _rows(z, height, width):
            if q != p and z - q + 1 not in cols:
                return True
    return False


def _is_cubic(a, b, c, height, width):
    """Whether x_a*x_b*x_c (a <= b <= c) is a cubic of the membership lemma.

    That is a product of entries on three distinct columns and exactly two
    distinct rows, with any one of the three alone in its row.
    """
    return (
        (a < b and _cubic_fits(a, b, c, height, width))
        or (a < c and _cubic_fits(a, c, b, height, width))
        or (b < c and _cubic_fits(b, c, a, height, width))
    )


def _is_transversal(a, b, c, height, width):
    """Whether x_a, x_b, x_c sit in cells with distinct rows and distinct columns."""
    for ra in _rows(a, height, width):
        for rb in _rows(b, height, width):
            if rb == ra or b - rb == a - ra:
                continue
            for rc in _rows(c, height, width):
                if rc != ra and rc != rb and c - rc != a - ra and c - rc != b - rb:
                    return True
    return False


def verify_membership_lemmas(case):
    """Low-degree products of matrix entries lie in P2.

    Degree 3: entries from three distinct columns and exactly two distinct
    rows, or transposed.  Degree 4 (square-ish shapes, m, n >= 3):
    products over three cells with distinct rows and distinct columns,
    exponents summing to 4.  Products coinciding as monomials are checked
    once, in ascending index order.

    A product depends only on the anti-diagonals of its cells, so each
    sorted index triple is enumerated once and kept when some placement of
    its cells fits (`_is_cubic`, `_is_transversal`); the quartics are the
    three doublings of each kept transversal triple.
    """
    t0 = time.perf_counter()
    claim = "lemma.membership"
    m, n = case.m, case.n
    nf = case._nf_p2
    x = _packed_variables(case.nvars)  # x[i] is x_i
    one = case.ring.coeff(1)
    triples = list(combinations_with_replacement(range(1, case.nvars + 1), 3))

    cubics = [t for t in triples if _is_cubic(*t, m, n) or _is_cubic(*t, n, m)]
    for idx in cubics:
        if nf({sum(map(x.__getitem__, idx)): one}):
            failure = {"kind": "cubic_outside_ideal", "monomial": list(idx)}
            return _report(claim, case, t0, [failure])

    if m >= 3 and n >= 3:
        quartics = sorted({
            tuple(sorted(t + (v,)))
            for t in triples if _is_transversal(*t, m, n)
            for v in t
        })
        for idx in quartics:
            if nf({sum(map(x.__getitem__, idx)): one}):
                failure = {"kind": "quartic_outside_ideal", "monomial": list(idx)}
                return _report(claim, case, t0, [failure])
        checked = f"cubics={len(cubics)} quartics={len(quartics)}"
    else:
        checked = f"cubics={len(cubics)}"
    return _report(claim, case, t0, [], checked)


def _unit_binomial(g):
    """(u, v) when g = u + v with both coefficients 1, u its lex leading
    term and every exponent below 2**14; otherwise None."""
    ring = g.ring
    one = ring.coeff(1)
    d = g._d
    if len(d) != 2 or any(c != one for c in d.values()):
        return None
    v, u = sorted(d)  # under lex the larger packed monomial leads
    if (u | v) & ring.guard >> 1:  # the 2**14 bit of every field
        return None
    return u, v


def _bounded_s_polynomials(ring, pairs, lo, hi):
    """The map (a, b) -> whether S(g_a, g_b) is zero or a binomial of two
    cubics with one index sum within [lo, hi], for unit binomials g.

    pairs[a] = (u_a, v_a) is generator a as `_unit_binomial` splits it.
    With L = lcm(u_a, u_b),
    S = (L/u_a)*(u_a + v_a) - (L/u_b)*(u_b + v_b) = (L/u_a)*v_a - (L/u_b)*v_b,
    the leading terms cancelling, so S = s - t with s = (L/u_a)*v_a and
    t = (L/u_b)*v_b.  The exponents of L/u_a and v_a are below 2**14, so
    no field of their product carries: on packed monomials s = L + d_a and
    t = L + d_b, with d = v - u.  S is zero when s = t, that is when
    d_a = d_b, and otherwise the binomial s - t, whose coefficients 1 and
    -1 differ since the characteristic is not 2.

    Degree and index sum I(m) = e_1 + 2*e_2 + ... + N*e_N are additive over
    exponent vectors: deg s = deg L + (deg v_a - deg u_a) and
    I(s) = I(L) + (I(v_a) - I(u_a)), and likewise for t.  So with
    c = (deg v - deg u, I(v) - I(u)), worked out once per generator, s and
    t have one degree and one index sum exactly when c_a = c_b; then both
    are cubics when s is, and their index sum is I(s).  Each pair costs one
    lcm, one degree and one index sum, those of s = L + d_a, and a pair
    with c_a != c_b no lcm at all.  This is `s_polynomials` on packed
    integers, with no coefficient arithmetic.

    I(m) is the field of m * w at x1's position, where w holds k in the
    field k - 1 places above x_N's; every field of that product is at most
    deg(m) * N, so for a cubic s (N <= 4096) nothing carries.  The
    generators' own index sums are summed from their exponents, exact at
    any degree.
    """
    lcm = ring.mono_lcm
    nvars = ring.nvars
    w = sum(k << (k - 1) * _BITS for k in range(1, nvars + 1))
    shift = (nvars - 1) * _BITS

    def index_sum(m):
        return sum(k * e for k, e in enumerate(ring.unpack(m), 1))

    lts = [u for u, _ in pairs]
    diffs = [v - u for u, v in pairs]
    keys = [(_degree(v) - _degree(u), index_sum(v) - index_sum(u)) for u, v in pairs]

    def bounded(a, b):
        d = diffs[a]
        if d == diffs[b]:
            return True
        if keys[a] != keys[b]:
            return False
        s = lcm(lts[a], lts[b]) + d
        return _degree(s) == 3 and lo <= (s * w >> shift) & _FMASK <= hi

    return bounded


def verify_bound_lemma(case):
    """S-polynomials of generator pairs sharing a leading variable.

    For distinct leading terms with a common variable, the S-polynomial is
    zero or a binomial with unit coefficients of opposite sign whose two
    cubic monomials carry equal index sums within [7, 3m+3n-7].

    The lemma is about the permanents, each u + v with both coefficients
    1, and the check makes sure of that premise first: a generator of
    another form fails the claim by name.  Then each pair is decided on
    packed monomials (`_bounded_s_polynomials`): S = s - t is zero or a
    binomial with coefficients 1 and -1, so only the degrees and index
    sums are left to check.  A failing pair's S-polynomial is built by
    `s_polynomials` for the witness.
    """
    t0 = time.perf_counter()
    claim = "lemma.bound"
    ring = case.ring

    gens = case.p2.generators
    pairs = [_unit_binomial(g) for g in gens]
    if None in pairs:
        failure = {"kind": "generator_not_unit_binomial", "generator": str(gens[pairs.index(None)])}
        return _report(claim, case, t0, [failure])
    bounded = _bounded_s_polynomials(ring, pairs, 7, 3 * (case.m + case.n) - 7)

    checked = 0
    lts = [u for u, _ in pairs]  # the lex leading terms
    having = {}  # variable -> the generators whose leading term has it, ascending
    for a, lt in enumerate(lts):
        for k in ring.support(lt):
            having.setdefault(k, []).append(a)
    for a, lt in enumerate(lts):
        # the later generators whose leading term shares a variable with lt
        for b in sorted({b for k in ring.support(lt) for b in having[k] if b > a}):
            if lts[b] == lt:
                continue
            checked += 1
            if not bounded(a, b):
                pair = [str(gens[a]), str(gens[b])]
                witness = str(s_polynomials(gens)(a, b))
                failure = {"kind": "spair_not_bounded_binomial", "pair": pair, "spoly": witness}
                return _report(claim, case, t0, [failure])
    return _report(claim, case, t0, [], f"pairs={checked}")


# -- drivers -------------------------------------------------------------------

CHECK_NAMES = ("gb", "decomp", "primary", "assoc", "lemmas")


def run_case(case, checks=None):
    """All applicable claim checks for one case, in canonical order."""
    want = set(CHECK_NAMES if checks is None else checks)
    unknown = want - set(CHECK_NAMES)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")
    out = []
    if "gb" in want:
        out.append(verify_gb(case))
    if "decomp" in want:
        out.append(verify_decomposition(case))
    if "primary" in want:
        out.append(verify_primary_properties(case))
    if "assoc" in want:
        rep = verify_associated_maximal(case)
        if rep is not None:
            out.append(rep)
    if "lemmas" in want:
        out.append(verify_reduction_lemma(case))
        out.append(verify_membership_lemmas(case))
        out.append(verify_bound_lemma(case))
    return out


def default_grid(max_vars=12):
    """Shapes (m, n), m <= n, with 5 <= m+n <= max_vars + 1."""
    out = []
    for m in range(2, max_vars + 1):
        for n in range(m, max_vars + 2 - m):
            if m + n >= 5:
                out.append((m, n))
    return sorted(out)


def run_all(grid=None, char=0, checks=None):
    """Verification reports for every shape in the grid, sorted by (m, n)."""
    if grid is None:
        grid = default_grid()
    reports = []
    for m, n in sorted(grid):
        reports.extend(run_case(Case(m, n, char), checks))
    return reports
