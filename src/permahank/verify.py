"""Machine verification of the closed-form structure of 2x2 permanental
ideals of Hankel matrices.

For each admissible shape (m, n) the suite checks, over Q or GF(p):

* the shape's closed-form lex Groebner basis (four families, selected by
  shape class);
* the component decomposition P2 = Q1 cap Q2 cap J with its colon chains
  and stabilization exponents, and the radical of J;
* primary-component properties (radical containments, colon stability);
* monomials whose colon with P2 is the whole maximal ideal;
* index-rewriting identities: quadratic and cubic monomials reduce to
  their balanced middle forms, low-degree products of matrix entries lie
  in P2, and S-polynomials of generator pairs sharing a leading variable
  are bounded binomials.

Every check returns a VerificationReport carrying a pass/fail status and,
on failure, a machine-checkable witness.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import combinations, permutations, product as iproduct

from .ring import LEX, Polynomial
from .groebner import (
    GroebnerBasis,
    _nf_dict,
    _prepare,
    inter_reduce,
    is_groebner,
    normal_form,  # unused here, but perfbench's tracer wraps verify.normal_form
    s_polynomial,
)
from .ideal_ops import (
    Ideal,
    colon,
    equal,
    intersect,
    radical_member,
    saturate,
    why_unequal,
)
from .hankel import HankelMatrix, permanent_generators, permanent_index_triples


class ShapeClass(Enum):
    """Which closed-form basis family a shape (m, n) falls under."""

    TWO_BY_N = "2xn"
    THREE_THREE = "3x3"
    THREE_FOUR_OR_FOUR_FOUR = "3x4_4x4"
    GENERAL = "general"


class Case:
    """One Hankel shape under verification, with cached derived ideals.

    Requires m + n > 4: the 2x2 permanental ideal is prime and carries
    none of the structure verified here.  Shapes are normalized to m <= n.
    """

    def __init__(self, m, n, char=0):
        if m > n:
            m, n = n, m
        if m < 2:
            raise ValueError("need at least two rows and two columns")
        if m + n <= 4:
            raise ValueError("the 2x2 permanental ideal is prime; nothing to verify")
        self.m = m
        self.n = n
        self.char = char
        self.nvars = m + n - 1
        self.r = m + n - 2
        self.matrix = HankelMatrix(m, n, char)
        self.ring = self.matrix.ring
        self._cache = {}

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

    @cached_property
    def p2(self):
        """The ideal of 2x2 permanents with its canonical generator list."""
        return Ideal(self.ring, permanent_generators(self.matrix))

    @cached_property
    def maximal_ideal(self):
        return Ideal(self.ring, [self.x(k) for k in range(1, self.nvars + 1)])

    @cached_property
    def q1q2(self):
        return intersect(q1(self), q2(self))


def closed_form_gb(case):
    """The closed-form lex basis claimed for the case's shape class.

    Returned exactly as enumerated (permanents first, then the monomial
    and binomial tails); all elements are monic by construction.
    """
    x = case.x
    n, last = case.n, case.nvars
    gens = permanent_generators(case.matrix)
    cls = case.shape_class
    if cls is ShapeClass.TWO_BY_N:
        gens += [x(i) ** 2 * x(i + 1) for i in range(2, n)]
        gens += [x(i) * x(i + 1) ** 2 for i in range(2, n)]
        gens += [x(i) ** 3 for i in range(3, n)]
        gens += [x(2) ** 4, x(n) ** 4]
    elif cls is ShapeClass.THREE_THREE:
        gens += [x(2) ** 2 * x(3), x(2) * x(3) ** 2, x(3) ** 2 * x(4), x(3) * x(4) ** 2]
        gens += [x(2) ** 4, x(3) ** 4, x(4) ** 4]
    elif cls is ShapeClass.THREE_FOUR_OR_FOUR_FOUR:
        gens += [x(2) ** 2 * x(3), x(last - 2) * x(last - 1) ** 2]
        gens += [x(i) ** 2 for i in range(3, last - 1)]
        gens += [x(2) ** 4, x(last - 1) ** 4]
    else:
        gens += [x(i) * x(i + 1) for i in range(3, last - 2)]
        gens += [x(2) ** 2 * x(3), x(last - 2) * x(last - 1) ** 2]
        gens += [x(i) ** 2 for i in range(3, last - 1)]
        gens += [x(2) ** 4, x(last - 1) ** 4]
    return gens


def minimal_primes(case):
    """The two minimal primes over P2: spans of r consecutive variables."""
    if "primes" not in case._cache:
        r = case.r
        p1 = Ideal(case.ring, [case.x(i) for i in range(1, r + 1)])
        p2 = Ideal(case.ring, [case.x(i) for i in range(2, r + 2)])
        case._cache["primes"] = (p1, p2)
    return case._cache["primes"]


def q1(case):
    """Primary component at the first minimal prime (x1..xr)."""
    if "q1" not in case._cache:
        r = case.r
        x = case.x
        gens = [x(i) for i in range(1, r - 2)]
        gens += [
            x(r - 2) ** 2,
            x(r - 2) * x(r - 1),
            x(r - 2) * x(r),
            x(r - 2) * x(r + 1) + x(r - 1) * x(r),
            x(r - 1) ** 2,
            x(r - 1) * x(r + 1) + x(r) ** 2,
        ]
        case._cache["q1"] = Ideal(case.ring, gens)
    return case._cache["q1"]


def q2(case):
    """Primary component at the second minimal prime (x2..x_{r+1}).

    Mirror image of q1 under the index reversal i -> r+2-i.
    """
    if "q2" not in case._cache:
        r = case.r
        x = case.x
        gens = [x(i) for i in range(5, r + 2)]
        gens += [
            x(1) * x(3) + x(2) ** 2,
            x(1) * x(4) + x(2) * x(3),
            x(2) * x(4),
            x(3) ** 2,
            x(3) * x(4),
            x(4) ** 2,
        ]
        case._cache["q2"] = Ideal(case.ring, gens)
    return case._cache["q2"]


def embedded_j(case):
    """The embedded component J = P2 + (x1^2, x_{r+1}^2)."""
    if "j" not in case._cache:
        x = case.x
        case._cache["j"] = case.p2 + (x(1) ** 2, x(case.r + 1) ** 2)
    return case._cache["j"]


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


def rewrite_monomial_indices(m, n, indices):
    """Iterate the first-match rewrite rule on a monomial's variable indices.

    State is (sign, sorted index multiset).  One step finds the first
    triple in the canonical (i, s, t) enumeration whose leading index pair
    {i, i+s+t} lies in the multiset, replaces it by {i+s, i+t} and flips
    the sign.  Because each intermediate polynomial in the corresponding
    normal-form computation is a single signed monomial, this mirrors
    reduction against the permanent generators exactly, while being pure
    index bookkeeping independent of the polynomial engine.
    """
    triples = permanent_index_triples(m, n)
    state = sorted(indices)
    sign = 1
    while True:
        hit = None
        for i, s, t in triples:
            j = i + s + t
            if i in state and j in state:
                hit = (i, s, t)
                break
        if hit is None:
            return sign, tuple(state)
        i, s, t = hit
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


def verify_gb(case):
    """Check the closed-form basis claim for the case's shape.

    Four sub-checks: every closed-form element lies in P2; the set
    satisfies the Buchberger criterion (coprime pairs included); it
    generates exactly P2; and its interreduction equals the engine's
    reduced basis.  Shapes whose printed set is genuinely reduced ((2,3)
    and (3,3)) must additionally match the reduced basis verbatim; for
    the others the literal comparison is recorded in the detail field.
    """
    t0 = time.perf_counter()
    claim = f"gb.{case.shape_class.value}"
    cf = closed_form_gb(case)
    reduced = case.p2.reduced_basis()
    failures = []

    for g in cf:
        if g not in case.p2:
            failures.append({"kind": "element_outside_ideal", "element": str(g)})
            break
    ok, wit = is_groebner(cf)
    if not ok:
        f, g, r = wit
        failures.append(
            {
                "kind": "buchberger_criterion_fails",
                "pair": [str(f), str(g)],
                "remainder": str(r),
            }
        )
    if not failures:
        cf_basis = GroebnerBasis(tuple(cf), LEX)
        for g in case.p2.generators:
            if not cf_basis.contains(g):
                failures.append({"kind": "ideal_not_generated", "generator": str(g)})
                break
        interreduced = inter_reduce(cf)
        if tuple(interreduced) != reduced.elements:
            failures.append(_set_mismatch("interreduction_mismatch", interreduced, reduced))
    literal = frozenset(cf) == frozenset(reduced.elements)
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


def verify_decomposition(case):
    """Check P2 = Q1 cap Q2 cap J on the components decompose computes.

    Q1 and Q2 come from decomposition_summary, whose saturate computes
    c_{k+1} = (c_k : f).  Since ((I : f^k) : f) = (I : f^(k+1)), it returns
    S = (I : f^n) with (I : f^n) = (I : f^(n+1)), and the chain is stable
    from n on.  So S = Q1 with n <= 2 is the claim
    (P2 : x_{r+1}^2) = (P2 : x_{r+1}^3) = Q1, and likewise
    ((P2 + (x_{r+1}^2)) : x1^k) = Q2 for k = 2, 3.  Also asserts that the
    radical of J is the full maximal ideal and that the triple
    intersection recovers P2.  The detail records whether J is genuinely
    embedded (Q1 cap Q2 != P2) for this shape.
    """
    t0 = time.perf_counter()
    claim = "decomp.main"
    failures = []
    p2 = case.p2
    s = decomposition_summary(case)
    J = s["j"]

    for tag, closed in (("q1", q1(case)), ("q2", q2(case))):
        if not equal(s[tag], closed):
            w = why_unequal(s[tag], closed)
            failures.append({"kind": f"{tag}_mismatch", "witness": str(w)})
        if s[f"{tag}_stab"] > 2:
            failures.append({"kind": f"{tag}_chain_not_stable"})

    if J.is_unit:
        failures.append({"kind": "j_is_unit_ideal"})
    else:
        for k in range(1, case.nvars + 1):
            if not radical_member(case.x(k), J):
                failures.append({"kind": "radical_misses_variable", "variable": f"x{k}"})
                break

    triple = intersect(case.q1q2, J)
    if not equal(triple, p2):
        failures.append(
            {"kind": "triple_intersection_mismatch", "witness": str(why_unequal(triple, p2))}
        )
    embedded = not s["j_redundant"]
    detail = (
        f"q1_stab={s['q1_stab']} q2_stab={s['q2_stab']} "
        f"embedded={'yes' if embedded else 'no'}"
    )
    return _report(claim, case, t0, failures, detail)


def classify_embedded(case):
    """Whether J contributes an embedded component: Q1 cap Q2 != P2."""
    return not equal(case.q1q2, case.p2)


def decomposition_summary(case):
    """Compute the decomposition data for one case by saturation.

    Q1 and Q2 are obtained as saturations (not from their closed forms),
    J is P2 plus the two squared end variables, and the returned
    stabilization exponents are the saturation step counts.  J is
    redundant exactly when Q1 cap Q2 already equals P2.
    """
    p2 = case.p2
    f = case.x(case.r + 1)
    g = case.x(1)
    Q1, stab1 = saturate(p2, f)
    Q2, stab2 = saturate(p2 + f * f, g)
    return {
        "q1": Q1,
        "q2": Q2,
        "j": embedded_j(case),
        "q1_stab": stab1,
        "q2_stab": stab2,
        "j_redundant": not classify_embedded(case),
    }


def verify_primary_properties(case, samples=1):
    """Primary-component battery for (Q1, Q2, J) against their primes.

    For each pair (Q, P): every generator of P lies in rad(Q), Q sits
    inside P (so rad(Q) = P), and (Q : y) = Q for witnesses y outside P:
    each variable not in P, the affine form 1 + x_min(P), and samples - 1
    seeded random affine forms with nonzero constant term.
    """
    t0 = time.perf_counter()
    claim = "primary.components"
    failures = []
    P1, P2prime = minimal_primes(case)
    comps = [
        ("q1", q1(case), P1),
        ("q2", q2(case), P2prime),
        ("j", embedded_j(case), case.maximal_ideal),
    ]
    rng = random.Random(1000003 * case.m + 1009 * case.n + case.char)
    nvars = case.nvars
    for label, Q, P in comps:
        for v in P.generators:
            if not radical_member(v, Q):
                failures.append(
                    {"kind": "prime_generator_outside_radical", "component": label, "generator": str(v)}
                )
                break
        for gq in Q.generators:
            if gq not in P:
                failures.append(
                    {"kind": "component_outside_prime", "component": label, "generator": str(gq)}
                )
                break
        pvars = set()
        for v in P.generators:
            pvars.update(case.ring.support(v._lm_packed(LEX)))
        ys = [case.x(k) for k in sorted(set(range(1, nvars + 1)) - pvars)]
        ys.append(1 + case.x(min(pvars)))
        for _ in range(max(0, samples - 1)):
            terms = [(rng.randrange(1, 3), (0,) * nvars)]
            for k in range(nvars):
                c = rng.randrange(-2, 3)
                if c:
                    terms.append((c, tuple(1 if t == k else 0 for t in range(nvars))))
            ys.append(case.ring.poly(terms))
        for y in ys:
            assert y not in P, "witness accidentally inside the prime"
            if not equal(colon(Q, y), Q):
                failures.append(
                    {"kind": "colon_moves_component", "component": label, "y": str(y)}
                )
                break
    return _report(claim, case, t0, failures)


def verify_associated_maximal(case):
    """Check the listed monomials alpha with (P2 : alpha) = (x1..xN).

    Every alpha must lie outside P2 while x_k * alpha lies in P2 for all
    k; that forces the colon to be exactly the maximal ideal.  The first
    alpha is additionally cross-checked with a full colon computation.
    Returns None when the shape claims no such monomial.
    """
    al = alphas(case)
    if al is None:
        return None
    t0 = time.perf_counter()
    claim = "assoc.maximal"
    failures = []
    p2 = case.p2
    for a in al:
        if a in p2:
            failures.append({"kind": "alpha_inside_ideal", "alpha": str(a)})
            continue
        for k in range(1, case.nvars + 1):
            if case.x(k) * a not in p2:
                failures.append(
                    {"kind": "alpha_colon_misses_variable", "alpha": str(a), "variable": f"x{k}"}
                )
                break
    if not equal(colon(p2, al[0]), case.maximal_ideal):
        failures.append({"kind": "full_colon_mismatch", "alpha": str(al[0])})
    detail = "alpha=" + ",".join(str(a) for a in al)
    return _report(claim, case, t0, failures, detail)


def _monomial(ring, indices, c=1):
    """The monomial c * x_i * x_j * ... for 1-based variable indices."""
    exps = [0] * ring.nvars
    for i in indices:
        exps[i - 1] += 1
    return ring.monomial(tuple(exps), c)


def verify_reduction_lemma(case):
    """Every x_i*x_j and x_i*x_j*x_k rewrites to its balanced middle form.

    The index-rewriting oracle must land on the degree-preserving middle
    monomial (split by the parity of i+j, or i+j+k mod 3), and reduction
    against the permanent generators must reproduce the oracle's signed
    monomial exactly.
    """
    t0 = time.perf_counter()
    claim = "lemma.reduction"
    failures = []
    m, n, nvars = case.m, case.n, case.nvars
    ring = case.ring
    # one reducer table and divisor memo for every monomial of the shape
    red = _prepare(permanent_generators(case.matrix), ring, LEX)
    first = {}

    def run(idx, target):
        sign, final = rewrite_monomial_indices(m, n, idx)
        if final != target:
            failures.append(
                {"kind": "oracle_off_target", "monomial": list(idx), "got": list(final)}
            )
            return
        work = dict(_monomial(ring, idx)._d)
        nf = Polynomial._raw(ring, _nf_dict(work, red, ring, LEX, first))
        expected = _monomial(ring, final, sign)
        if nf != expected:
            failures.append(
                {
                    "kind": "engine_oracle_disagree",
                    "monomial": list(idx),
                    "engine": str(nf),
                    "oracle": str(expected),
                }
            )

    for i in range(1, nvars + 1):
        for j in range(i, nvars + 1):
            w = i + j
            target = (w // 2, w // 2) if w % 2 == 0 else ((w - 1) // 2, (w + 1) // 2)
            run((i, j), target)
            if failures:
                return _report(claim, case, t0, failures)
    for i in range(1, nvars + 1):
        for j in range(i, nvars + 1):
            for k in range(j, nvars + 1):
                w = i + j + k
                c = w // 3
                if w % 3 == 0:
                    target = (c, c, c)
                elif w % 3 == 1:
                    target = (c, c, c + 1)
                else:
                    target = (c, c + 1, c + 1)
                run((i, j, k), target)
                if failures:
                    return _report(claim, case, t0, failures)
    return _report(claim, case, t0, failures)


def verify_membership_lemmas(case):
    """Low-degree products of matrix entries lie in P2.

    Degree 3: entries from three distinct columns and exactly two distinct
    rows, or transposed.  Degree 4 (square-ish shapes, m, n >= 3):
    products over three cells with distinct rows and distinct columns,
    exponents summing to 4.  Products coinciding as monomials are checked
    once.
    """
    t0 = time.perf_counter()
    claim = "lemma.membership"
    failures = []
    m, n = case.m, case.n
    ring = case.ring
    basis = case.p2.reduced_basis()

    cubics = set()
    for cols in combinations(range(1, n + 1), 3):
        for rows in iproduct(range(1, m + 1), repeat=3):
            if len(set(rows)) == 2:
                cubics.add(tuple(sorted(r + c - 1 for r, c in zip(rows, cols))))
    for rows in combinations(range(1, m + 1), 3):
        for cols in iproduct(range(1, n + 1), repeat=3):
            if len(set(cols)) == 2:
                cubics.add(tuple(sorted(r + c - 1 for r, c in zip(rows, cols))))
    for idx in sorted(cubics):
        if not basis.contains(_monomial(ring, idx)):
            failures.append({"kind": "cubic_outside_ideal", "monomial": list(idx)})
            return _report(claim, case, t0, failures)

    if m >= 3 and n >= 3:
        quartics = set()
        for rows in combinations(range(1, m + 1), 3):
            for cols in combinations(range(1, n + 1), 3):
                for perm in permutations(cols):
                    cells = tuple(r + c - 1 for r, c in zip(rows, perm))
                    for epat in ((2, 1, 1), (1, 2, 1), (1, 1, 2)):
                        idx = []
                        for v, e in zip(cells, epat):
                            idx.extend([v] * e)
                        quartics.add(tuple(sorted(idx)))
        for idx in sorted(quartics):
            if not basis.contains(_monomial(ring, idx)):
                failures.append({"kind": "quartic_outside_ideal", "monomial": list(idx)})
                return _report(claim, case, t0, failures)
        checked = f"cubics={len(cubics)} quartics={len(quartics)}"
    else:
        checked = f"cubics={len(cubics)}"
    return _report(claim, case, t0, failures, checked)


def verify_bound_lemma(case):
    """S-polynomials of generator pairs sharing a leading variable.

    For distinct leading terms with a common variable, the S-polynomial is
    zero or a binomial with unit coefficients of opposite sign whose two
    cubic monomials carry equal index sums within [7, 3m+3n-7].
    """
    t0 = time.perf_counter()
    claim = "lemma.bound"
    failures = []
    ring = case.ring
    gens = permanent_generators(case.matrix)
    lo, hi = 7, 3 * (case.m + case.n) - 7
    lms = [g._lm_packed(LEX) for g in gens]
    minus_one = ring.coeff(-1)
    checked = 0
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if lms[i] == lms[j]:
                continue
            if ring.mono_gcd(lms[i], lms[j]) == 0:
                continue
            s = s_polynomial(gens[i], gens[j])
            checked += 1
            if s.is_zero:
                continue
            terms = s.terms()
            sums = [sum(k * e for k, e in enumerate(t[1], start=1)) for t in terms]
            degs = [sum(t[1]) for t in terms]
            coeffs = sorted((t[0] for t in terms), key=str)
            shape_ok = (
                len(terms) == 2
                and degs == [3, 3]
                and sums[0] == sums[1]
                and lo <= sums[0] <= hi
                and set(coeffs) == {ring.coeff(1), minus_one}
            )
            if not shape_ok:
                failures.append(
                    {
                        "kind": "spair_not_bounded_binomial",
                        "pair": [str(gens[i]), str(gens[j])],
                        "spoly": str(s),
                    }
                )
                return _report(claim, case, t0, failures)
    return _report(claim, case, t0, failures, f"pairs={checked}")


# -- drivers -------------------------------------------------------------------

CHECK_NAMES = ("gb", "decomp", "primary", "assoc", "lemmas")


def run_case(case, checks=None, samples=1):
    """All applicable claim checks for one case, in canonical order."""
    if checks is not None:
        unknown = set(checks) - set(CHECK_NAMES)
        if unknown:
            raise ValueError(f"unknown checks: {sorted(unknown)}")
        want = set(checks).__contains__
    else:
        want = lambda tag: True
    out = []
    if want("gb"):
        out.append(verify_gb(case))
    if want("decomp"):
        out.append(verify_decomposition(case))
    if want("primary"):
        out.append(verify_primary_properties(case, samples))
    if want("assoc"):
        rep = verify_associated_maximal(case)
        if rep is not None:
            out.append(rep)
    if want("lemmas"):
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


def run_all(grid=None, char=0, checks=None, samples=1):
    """Verification reports for every shape in the grid, sorted by (m, n)."""
    if grid is None:
        grid = default_grid()
    reports = []
    for m, n in sorted(grid):
        reports.extend(run_case(Case(m, n, char), checks, samples))
    return reports
