"""The verification suite itself: closed forms, components, oracles, reports."""

import random
from itertools import combinations, combinations_with_replacement, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from permahank import (
    Case,
    Ideal,
    ShapeClass,
    alphas,
    buchberger,
    classify_embedded,
    closed_form_gb,
    colon,
    decomposition_summary,
    default_grid,
    embedded_j,
    equal,
    inter_reduce,
    intersect,
    minimal_primes,
    normal_form,
    parse,
    permanent_generators,
    permanent_index_triples,
    q1,
    q2,
    reducer,
    rewrite_monomial_indices,
    run_all,
    run_case,
    s_polynomials,
    verify_associated_maximal,
    verify_bound_lemma,
    verify_decomposition,
    verify_gb,
    verify_membership_lemmas,
    verify_primary_properties,
    verify_reduction_lemma,
)
from permahank import groebner, ideal_ops
from permahank.ideal_ops import _has_homogeneous_generators
from permahank.ideal_ops import radical_member, saturate
from permahank.verify import (
    CHECK_NAMES,
    VerificationReport,
    _basis_failure,
    _bounded_s_polynomials,
    _unit_binomial,
    _colon_fixes,
    _colon_witnesses,
    _first_outside_span,
    _monomial,
    _outside_radical,
    _report,
    _reversal,
)
from permahank.groebner import GroebnerBasis, _exact_div, _minimal_indices, _term_reducer
from permahank.ring import _BITS, _FMASK, DEGLEX, LEX, Polynomial, Ring, _RevlexOrder, _degree
from test_groebner import assert_agrees_with_all_pairs


def test_case_validation():
    with pytest.raises(ValueError, match="prime"):
        Case(2, 2)
    with pytest.raises(ValueError):
        Case(1, 7)
    c = Case(5, 3)
    assert (c.m, c.n) == (3, 5)
    assert c.nvars == 7 and c.r == 6


def test_shape_classes():
    assert Case(2, 9).shape_class is ShapeClass.TWO_BY_N
    assert Case(3, 3).shape_class is ShapeClass.THREE_THREE
    assert Case(3, 4).shape_class is ShapeClass.THREE_FOUR_OR_FOUR_FOUR
    assert Case(4, 4).shape_class is ShapeClass.THREE_FOUR_OR_FOUR_FOUR
    assert Case(3, 5).shape_class is ShapeClass.GENERAL
    assert Case(6, 7).shape_class is ShapeClass.GENERAL


def test_closed_form_counts():
    for (m, n), count in [
        ((2, 3), 7),
        ((2, 4), 13),
        ((3, 3), 13),
        ((3, 4), 18),
        ((4, 4), 25),
        ((3, 5), 29),
    ]:
        assert len(closed_form_gb(Case(m, n))) == count


def test_closed_form_2x3_is_literal_reduced_basis():
    case = Case(2, 3)
    cf = closed_form_gb(case)
    reduced = buchberger(permanent_generators(case.matrix)).elements
    assert set(cf) == set(reduced)


def test_closed_form_3x3_is_literal_reduced_basis():
    case = Case(3, 3)
    cf = closed_form_gb(case)
    reduced = buchberger(permanent_generators(case.matrix)).elements
    assert set(cf) == set(reduced)


def test_closed_form_2x4_differs_from_reduced_basis():
    # the listed set is a Groebner basis of the right ideal but is not the
    # reduced basis: it keeps x1*x5 + x2*x4 where reduction replaces the
    # tail, giving x1*x5 - x3^2
    case = Case(2, 4)
    cf = closed_form_gb(case)
    reduced = buchberger(permanent_generators(case.matrix)).elements
    R = case.ring
    assert parse("x1*x5 + x2*x4", R) in cf
    assert parse("x1*x5 - x3^2", R) in reduced
    assert set(cf) != set(reduced)
    assert len(cf) == len(reduced) == 13
    assert set(inter_reduce(cf)) == set(reduced)


def test_closed_form_3x4_is_not_minimal():
    # two listed elements share the leading monomial x1*x5, so
    # interreduction shrinks the set from 18 to 16
    case = Case(3, 4)
    cf = closed_form_gb(case)
    reduced = buchberger(permanent_generators(case.matrix)).elements
    R = case.ring
    assert parse("x1*x5 + x2*x4", R) in cf and parse("x1*x5 + x3^2", R) in cf
    assert len(cf) == 18 and len(reduced) == 16
    assert set(inter_reduce(cf)) == set(reduced)


def test_q2_is_the_mirror_of_q1():
    for m, n in [(2, 3), (3, 4), (3, 5), (4, 6)]:
        case = Case(m, n)
        ring = case.ring
        mirrored = {
            ring.poly([(c, exps[::-1]) for c, exps in g.terms()])
            for g in q1(case).generators
        }
        assert mirrored == set(q2(case).generators)


def test_q1_structure():
    case = Case(3, 5)
    gens = [str(g) for g in q1(case).generators]
    assert gens == [
        "x1",
        "x2",
        "x3",
        "x4^2",
        "x4*x5",
        "x4*x6",
        "x4*x7 + x5*x6",
        "x5^2",
        "x5*x7 + x6^2",
    ]


def test_minimal_primes_are_consecutive_spans():
    case = Case(3, 4)
    P1, P2prime = minimal_primes(case)
    assert [str(g) for g in P1.generators] == ["x1", "x2", "x3", "x4", "x5"]
    assert [str(g) for g in P2prime.generators] == ["x2", "x3", "x4", "x5", "x6"]


def test_embedded_j_generators():
    case = Case(2, 3)
    J = embedded_j(case)
    R = case.ring
    assert parse("x1^2", R) in set(J.generators)
    assert parse("x4^2", R) in set(J.generators)
    # J = P2 + (x1^2, xN^2), which decomp.main's splitting-lemma proof relies on
    for shape in default_grid():
        case = Case(*shape)
        x = case.x
        assert embedded_j(case).generators == case.p2.generators + (x(1) ** 2, x(case.nvars) ** 2)


def test_alpha_lists():
    R33 = Case(3, 3).ring
    assert [str(a) for a in alphas(Case(3, 3))] == ["x1*x3*x5"]
    assert [str(a) for a in alphas(Case(3, 4))] == ["x2*x5", "x3*x4"]
    assert [str(a) for a in alphas(Case(4, 4))] == [
        "x2*x5",
        "x3*x4",
        "x3*x6",
        "x4*x5",
    ]
    assert [str(a) for a in alphas(Case(2, 4))] == ["x2*x4"]
    assert [str(a) for a in alphas(Case(2, 5))] == [
        "x2*x4",
        "x2*x5",
        "x3*x4",
        "x3*x5",
    ]
    assert [str(a) for a in alphas(Case(4, 6))] == ["x5"]
    for shape in [(2, 3), (3, 5), (3, 6), (4, 5)]:
        assert alphas(Case(*shape)) is None


def test_alpha_witness_behavior():
    # each alpha sits outside P2 with every variable multiple inside; assoc.maximal
    # derives (P2 : alpha) = m from that, and the full colon cross-checks it here
    shapes = 0
    for char in (0, 32003):
        for shape in default_grid():
            case = Case(*shape, char)
            al = alphas(case)
            if al is None:
                continue
            shapes += 1
            p2 = case.p2
            nf = reducer(p2.reduced_basis())
            for a in al:
                assert not nf(a).is_zero
                for k in range(1, case.nvars + 1):
                    assert nf(case.x(k) * a).is_zero
            assert equal(colon(p2, al[0]), case.maximal_ideal), (shape, char)
    assert shapes == 2 * 25


def test_assoc_reports_an_alpha_inside_the_ideal_and_a_missed_variable(monkeypatch):
    # on 3x3, x1*x3*x4 lies in P2; x1*x5 does not, nor does x3*x1*x5, the shape's alpha
    case = Case(3, 3)
    x = case.x
    al = [x(1) * x(3) * x(5), x(1) * x(3) * x(4), x(1) * x(5)]
    monkeypatch.setattr("permahank.verify.alphas", lambda c: al)
    rep = verify_associated_maximal(case)
    assert rep.witness == {
        "failures": [
            {"kind": "alpha_inside_ideal", "alpha": "x1*x3*x4"},
            {"kind": "alpha_colon_misses_variable", "alpha": "x1*x5", "variable": "x3"},
        ]
    }
    assert rep.detail == "alpha=x1*x3*x5,x1*x3*x4,x1*x5"


def test_rewrite_oracle_pairs():
    # quadratic states walk to the balanced middle, flipping sign each step
    assert rewrite_monomial_indices(3, 3, (1, 5)) == (-1, (3, 3))
    assert rewrite_monomial_indices(3, 3, (1, 4)) == (-1, (2, 3))
    assert rewrite_monomial_indices(3, 3, (2, 3)) == (1, (2, 3))
    assert rewrite_monomial_indices(3, 3, (3, 3)) == (1, (3, 3))


def test_rewrite_oracle_triples():
    assert rewrite_monomial_indices(3, 3, (1, 1, 5)) == (1, (2, 2, 3))
    # x1*x3*x5 is outside the ideal yet still rewrites: three flips to -x3^3
    assert rewrite_monomial_indices(3, 3, (1, 3, 5)) == (-1, (3, 3, 3))
    # two steps: {1,5} -> {3,3}, then {3,5} -> {4,4}; two sign flips
    assert rewrite_monomial_indices(3, 3, (1, 5, 5)) == (1, (3, 4, 4))


def test_rewrite_oracle_matches_engine():
    case = Case(3, 4)
    H = permanent_generators(case.matrix)
    R = case.ring
    for idx in [(1, 6), (1, 5), (2, 6), (1, 1, 6), (1, 4, 6), (2, 2, 6)]:
        sign, final = rewrite_monomial_indices(3, 4, idx)
        exps = [0] * 6
        for i in idx:
            exps[i - 1] += 1
        fexps = [0] * 6
        for i in final:
            fexps[i - 1] += 1
        nf = normal_form(R.monomial(tuple(exps)), H)
        assert nf == R.monomial(tuple(fexps), sign)


def test_decomposition_summary_2x3():
    s = decomposition_summary(Case(2, 3))
    assert s["q1_stab"] == 2
    assert s["q2_stab"] == 1
    assert s["j_redundant"] is True
    case = Case(2, 3)
    assert equal(s["q1"], q1(case))
    assert equal(s["q2"], q2(case))


def test_decomposition_summary_3x3():
    s = decomposition_summary(Case(3, 3))
    assert s["q1_stab"] == 2
    assert s["q2_stab"] == 2
    assert s["j_redundant"] is False


@pytest.mark.parametrize(
    "shape, detail",
    [
        ((2, 3), "q1_stab=2 q2_stab=1 embedded=no"),
        ((3, 3), "q1_stab=2 q2_stab=2 embedded=yes"),
        ((3, 5), "q1_stab=1 q2_stab=1 embedded=no"),
        ((4, 6), "q1_stab=1 q2_stab=1 embedded=yes"),
    ],
)
def test_decomposition_detail(shape, detail):
    rep = verify_decomposition(Case(*shape))
    assert rep.passed and rep.detail == detail


@pytest.mark.parametrize("char", [0, 32003])
def test_second_saturation_matches_the_direct_one(char):
    # decomposition_summary takes Q2 as the mirror image of
    # (P2 + (x1^2)) : x_N^inf, started from P2's cached basis; the direct
    # saturation of P2 + (x_N^2) at x1 is the reference, compared by reduced
    # lex basis and exponent
    for shape in default_grid():
        s = decomposition_summary(Case(*shape, char))
        ref = Case(*shape, char)
        S, stab = saturate(ref.p2 + ref.x(ref.nvars) ** 2, ref.x(1))
        assert s["q2_stab"] == stab, shape
        assert s["q2"].reduced_basis().elements == S.reduced_basis().elements, shape


def _reversal_by_fields(ring):
    """The reference for `_reversal`: one exponent field at a time."""
    shifts = [(i * _BITS, (ring.nvars - 1 - i) * _BITS) for i in range(ring.nvars)]

    def reverse(f):
        out = {}
        for m, c in f._d.items():
            r = 0
            for a, b in shifts:
                r |= ((m >> a) & _FMASK) << b
            out[r] = c
        return Polynomial._raw(ring, out)

    return reverse


def test_reversal_agrees_with_the_field_by_field_reference():
    # random packed monomials whose exponents are the edge values of a byte
    # and of a field, and P2's generators on the default grid
    rng = random.Random(7)
    edges = (0, 1, 255, 256, (1 << 15) - 1)
    for nvars in (1, 2, 4, 23, 29, 4096):
        ring = Ring(nvars)
        monos = [
            sum(rng.choice(edges) << (i * _BITS) for i in range(nvars))
            for _ in range(40 if nvars < 4096 else 4)
        ]
        monos += [sum(e << (i * _BITS) for i in range(nvars)) for e in edges]
        f = Polynomial._raw(ring, {m: ring.coeff(j + 1) for j, m in enumerate(set(monos))})
        got = _reversal(ring)(f)
        assert got == _reversal_by_fields(ring)(f), nvars
        assert _reversal(ring)(got) == f, nvars
    for char in (0, 32003):
        for shape in default_grid():
            case = Case(*shape, char)
            fast, ref = _reversal(case.ring), _reversal_by_fields(case.ring)
            assert [fast(g) for g in case.p2.generators] == [ref(g) for g in case.p2.generators]


def test_reversal_maps_p2_onto_itself():
    # x_i -> x_(N+1-i) rotates the Hankel matrix by 180 degrees
    for shape in default_grid() + [(2, 23), (8, 13)]:
        case = Case(*shape)
        gens = set(case.p2.generators)
        assert set(map(_reversal(case.ring), gens)) == gens, shape


@pytest.mark.parametrize("char", [0, 32003])
def test_flag_by_containment_agrees_with_equality(char, monkeypatch):
    # with no alpha, classify_embedded decides q1q2 == P2 by containment both
    # ways, with no lex basis of P2; equal() is the reference, on every shape,
    # and where q1q2 = P2 on a P2 short of one permanent (q1q2 is larger) and
    # on P2 + (x1) (q1q2 is smaller), so each containment fails once
    monkeypatch.setattr("permahank.verify.alphas", lambda case: None)
    for shape in default_grid():
        case = Case(*shape, char)
        embedded = classify_embedded(case)
        assert LEX not in case.p2._cache, shape
        assert embedded is not equal(case.q1q2, case.p2), shape
    for shape in [(2, 3), (3, 5), (3, 6), (4, 5)]:
        case = Case(*shape, char)
        p2 = case.p2
        for other in (Ideal(case.ring, p2.generators[1:]), p2 + case.x(1)):
            monkeypatch.setattr(case, "p2", other)
            assert equal(case.q1q2, other) is False
            assert classify_embedded(case) is True, shape


def _rejects_a_wrong_closed_form(monkeypatch, tag):
    monkeypatch.setattr(f"permahank.verify.{tag}", lambda case: case.maximal_ideal)
    rep = verify_decomposition(Case(2, 3))
    assert not rep.passed
    failures = rep.witness.get("failures", [rep.witness])
    wrong = [f for f in failures if f["kind"].startswith(f"{tag}_")]
    assert [f["kind"] for f in wrong] == [f"{tag}_mismatch"]
    assert wrong[0]["witness"] not in ("", "None")


def test_decomposition_rejects_a_wrong_closed_form(monkeypatch):
    _rejects_a_wrong_closed_form(monkeypatch, "q1")


def test_decomposition_rejects_a_wrong_q2(monkeypatch):
    _rejects_a_wrong_closed_form(monkeypatch, "q2")


def _failure_kinds(rep):
    if rep.witness is None:
        return []
    return [f["kind"] for f in rep.witness.get("failures", [rep.witness])]


def _agrees_with_equality(case, closed_forms):
    """Whether decomp.main's q1/q2 verdicts match equal() on the record, per tag."""
    with pytest.MonkeyPatch.context() as mp:
        for tag, closed in closed_forms.items():
            mp.setattr(f"permahank.verify.{tag}", lambda c, closed=closed: closed)
        kinds = _failure_kinds(verify_decomposition(case))
    s = decomposition_summary(case)
    out = {}
    for tag, closed in closed_forms.items():
        same = equal(s[tag], closed)
        assert (f"{tag}_mismatch" not in kinds) is same, (case, tag)
        out[tag] = same
    return out


def test_saturation_containment_agrees_with_equality_on_wrong_closed_forms():
    # each closed form with its first or its last generator dropped, with a
    # variable of its prime added, and with a product of two of its
    # generators added (the same ideal)
    seen = set()
    for char in (0, 32003):
        for shape in [(2, 3), (2, 6), (3, 4), (3, 5), (4, 5), (4, 7)]:
            case = Case(*shape, char)
            for tag, extra in (("q1", case.x(case.r)), ("q2", case.x(2))):
                closed = getattr(case, tag)
                gens = closed.generators
                for variant in (
                    Ideal(case.ring, gens[1:]),
                    Ideal(case.ring, gens[:-1]),
                    closed + extra,
                    closed + gens[0] * gens[-1],
                ):
                    same = _agrees_with_equality(case, {tag: variant})[tag]
                    seen.add((tag, same))
    assert seen == {("q1", True), ("q1", False), ("q2", True), ("q2", False)}


def test_saturation_containment_reads_the_input_basis_at_exponent_zero(monkeypatch):
    # an ideal of x2..xN alone is saturated at x1, and so is its sum with
    # x_N^2: both saturations report exponent 0 and return their input by its
    # raw generators, which here are no reverse-lex basis, so containment
    # must read the input's cached basis.  The closed forms that equal the
    # saturations are listed by those bases, whose extra elements reduce to
    # zero only modulo a basis.
    seen = set()
    for char in (0, 32003):
        case = Case(3, 4, char)
        ring, x, N = case.ring, case.x, case.nvars
        P = Ideal(ring, [x(3) * x(4) - x(2) * x(5), x(4) ** 2 - x(3) * x(6), x(5) ** 3])
        monkeypatch.setattr(case, "p2", P)
        s = decomposition_summary(case)
        assert s["q1_stab"] == s["q2_stab"] == 0 and s["q2"].generators == P.generators + (x(N) ** 2,)
        order = _RevlexOrder(N)
        basis, summed = P.reduced_basis(order), s["q2"].reduced_basis(order)
        assert len(basis) > len(P.generators) and len(summed) > len(s["q2"].generators)
        mirrored = Ideal(ring, map(_reversal(ring), basis))
        for forms in (
            {"q1": mirrored, "q2": Ideal(ring, summed)},
            {"q1": mirrored + x(1) * x(2) ** 2, "q2": Ideal(ring, summed)},
            {"q1": mirrored, "q2": P + x(N) ** 3},
            {"q1": case.q1, "q2": case.q2},
        ):
            seen.add(tuple(_agrees_with_equality(case, forms).values()))
    assert seen == {(True, True), (False, True), (True, False), (False, False)}


def test_saturation_containment_reads_the_record_at_exponent_zero(monkeypatch):
    # a record whose first exponent reads 0 although S = (P2 : x1^infinity)
    # is larger than P2: the q1 containment reads S's own reverse-lex basis
    # from the record, not P2's, so Q1 = sigma(S) still matches its closed
    # form, and a wrong closed form still fails
    for shape in [(2, 4), (3, 5)]:
        case = Case(*shape, 32003)
        real = decomposition_summary(case)
        assert real["q1_stab"] > 0 and not equal(real["s"], case.p2)
        monkeypatch.setattr(
            "permahank.verify.decomposition_summary", lambda c, real=real: {**real, "q1_stab": 0}
        )
        assert "q1_mismatch" not in _failure_kinds(verify_decomposition(case)), shape
        monkeypatch.setattr("permahank.verify.q1", lambda c: c.p2)
        assert "q1_mismatch" in _failure_kinds(verify_decomposition(case)), shape
        monkeypatch.undo()


def test_triple_intersection_recovers_ideal():
    # decomp.main derives this from the splitting lemma instead of computing it
    for char in (0, 32003):
        for shape in default_grid():
            case = Case(*shape, char)
            triple = intersect(case.q1q2, embedded_j(case))
            assert equal(triple, case.p2), (shape, char)


def test_classification_spot_checks():
    for shape, expected in [
        ((2, 3), False),
        ((3, 5), False),
        ((3, 6), False),
        ((4, 5), False),
        ((2, 4), True),
        ((3, 3), True),
        ((3, 4), True),
        ((4, 6), True),
    ]:
        assert classify_embedded(Case(*shape)) is expected


def _flag_by_closed_forms(case):
    """The reference embedded flag, decided as classify_embedded did before.

    An alpha outside P2 and inside the closed-form Q1 and Q2, by three
    normal forms against their lex bases; otherwise the intersection.
    """
    al = alphas(case)
    if al is not None:
        nf_p2, nf_q1, nf_q2 = (reducer(I.reduced_basis()) for I in (case.p2, case.q1, case.q2))
        if any(not nf_p2(a).is_zero and nf_q1(a).is_zero and nf_q2(a).is_zero for a in al):
            return True
    return not equal(case.q1q2, case.p2)


def test_classification_matches_alpha_availability():
    # classify_embedded settles most shapes by an alpha; it must agree with
    # the intersection of fresh copies of the closed-form Q1 and Q2, and
    # with the reference alpha test on the closed forms
    for char in (0, 32003):
        for m, n in default_grid():
            case = Case(m, n, char)
            embedded = classify_embedded(case)
            fresh = [Ideal(case.ring, I.generators) for I in (case.q1, case.q2, case.p2)]
            assert embedded is not equal(intersect(fresh[0], fresh[1]), fresh[2]), (m, n, char)
            assert (alphas(case) is not None) == embedded, (m, n, char)
            assert embedded is _flag_by_closed_forms(Case(m, n, char)), (m, n, char)


def test_individual_checks_pass():
    for shape in [(2, 3), (3, 3), (3, 4)]:
        case = Case(*shape)
        assert verify_gb(case).passed
        assert verify_decomposition(case).passed
        assert verify_primary_properties(case).passed
        assert verify_reduction_lemma(case).passed
        assert verify_membership_lemmas(case).passed
        assert verify_bound_lemma(case).passed
    rep = verify_associated_maximal(Case(3, 3))
    assert rep.passed and rep.detail == "alpha=x1*x3*x5"
    assert verify_associated_maximal(Case(2, 3)) is None


def test_report_shape():
    rep = verify_gb(Case(2, 3))
    d = rep.to_dict()
    assert d["claim"] == "gb.2xn"
    assert (d["m"], d["n"]) == (2, 3)
    assert d["status"] == "pass"
    assert "witness" not in d
    assert d["detail"] == "closed_form=7 reduced=7 literal_reduced=yes"
    assert isinstance(d["millis"], int)


def test_gb_mismatch_lists_extra_and_missing(monkeypatch):
    case = Case(3, 3)  # its closed form is literally the reduced basis
    cf = closed_form_gb(case)
    extra = case.x(2) * cf[0]
    with monkeypatch.context() as mp:
        mp.setattr("permahank.verify.closed_form_gb", lambda c: cf + [extra])
        rep = verify_gb(case)
    assert rep.witness == {"kind": "literal_set_mismatch", "extra": [str(extra)], "missing": []}
    # the first permanent times x1: still a Groebner basis, of an ideal that
    # misses the permanent, so the interreduction lists the product as extra
    # and the permanent as missing (3x4 is not held to the literal set)
    case = Case(3, 4)
    cf = closed_form_gb(case)
    mutant = [cf[0] * case.x(1)] + cf[1:]
    with monkeypatch.context() as mp:
        mp.setattr("permahank.verify.closed_form_gb", lambda c: mutant)
        rep = verify_gb(case)
    assert rep.witness == {
        "kind": "interreduction_mismatch",
        "extra": ["x1^2*x3 + x1*x2^2"],
        "missing": ["x1*x3 + x2^2"],
    }


def test_report_failure_path():
    rep = _report("gb.2xn", Case(2, 3), 0.0, [{"kind": "boom"}], "d")
    assert rep.status == "fail" and not rep.passed
    assert rep.to_dict()["witness"] == {"kind": "boom"}
    multi = _report("gb.2xn", Case(2, 3), 0.0, [{"kind": "a"}, {"kind": "b"}])
    assert multi.witness == {"failures": [{"kind": "a"}, {"kind": "b"}]}


def test_run_case_claim_order():
    reports = run_case(Case(3, 3))
    assert [r.claim for r in reports] == [
        "gb.3x3",
        "decomp.main",
        "primary.components",
        "assoc.maximal",
        "lemma.reduction",
        "lemma.membership",
        "lemma.bound",
    ]
    # no associated-prime claim where no alpha exists
    assert [r.claim for r in run_case(Case(2, 3))] == [
        "gb.2xn",
        "decomp.main",
        "primary.components",
        "lemma.reduction",
        "lemma.membership",
        "lemma.bound",
    ]


def test_run_case_check_filter():
    reports = run_case(Case(2, 3), checks=["gb"])
    assert [r.claim for r in reports] == ["gb.2xn"]
    reports = run_case(Case(2, 3), checks=["lemmas"])
    assert len(reports) == 3
    with pytest.raises(ValueError):
        run_case(Case(2, 3), checks=["spectral"])


def reference_rewrite(m, n, indices):
    """The rewrite oracle as a plain scan of the canonical triples per step."""
    triples = permanent_index_triples(m, n)
    state = sorted(indices)
    sign = 1
    while True:
        hit = next(((i, s, t) for i, s, t in triples if i in state and i + s + t in state), None)
        if hit is None:
            return sign, tuple(state)
        i, s, t = hit
        state.remove(i)
        state.remove(i + s + t)
        state += [i + s, i + t]
        state.sort()
        sign = -sign


@pytest.mark.parametrize("shape", [(3, 4), (4, 5), (2, 8)])
def test_rewrite_oracle_matches_the_reference_scan(shape):
    m, n = shape
    for d in (2, 3):
        for idx in combinations_with_replacement(range(1, m + n), d):
            assert rewrite_monomial_indices(m, n, idx) == reference_rewrite(m, n, idx), idx


def test_default_grid():
    grid = default_grid()
    assert len(grid) == 29
    assert grid[0] == (2, 3) and (6, 7) in grid
    assert all(m <= n and 5 <= m + n <= 13 for m, n in grid)
    small = default_grid(6)
    assert all(m + n <= 7 for m, n in small)
    assert grid == sorted(grid)


def test_run_all_small_grid_char_p():
    reports = run_all(grid=[(3, 3), (2, 3)], char=3)
    assert all(r.passed for r in reports)
    # sorted by shape regardless of input order
    assert [(r.m, r.n) for r in reports] == [(2, 3)] * 6 + [(3, 3)] * 7


def test_verification_report_dataclass():
    rep = VerificationReport("x", 2, 3, "pass")
    assert rep.witness is None and rep.detail == "" and rep.millis == 0
    assert rep.to_dict() == {"claim": "x", "m": 2, "n": 3, "status": "pass", "millis": 0}


def test_accessors_return_one_object_per_case():
    case = Case(3, 4)
    for accessor in (minimal_primes, q1, q2, embedded_j):
        assert accessor(case) is accessor(case)
    assert case.p2 is case.p2 and case.q1q2 is case.q1q2


def _counting(calls, fn):
    def wrapped(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    return wrapped


def test_p2_reducer_is_built_once_per_case(monkeypatch):
    # gb.*, the embedded flag, assoc.maximal and lemma.membership share the
    # case's one reducer table over P2's reverse-lex basis with x1 smallest,
    # and none of them builds a lex basis of P2
    builds = []
    monkeypatch.setattr("permahank.verify._term_reducer", _counting(builds, _term_reducer))
    case = Case(4, 6)
    assert verify_gb(case).passed and classify_embedded(case)
    assert verify_associated_maximal(case).passed and verify_membership_lemmas(case).passed
    revlex = case.p2.reduced_basis(_RevlexOrder(case.nvars))
    assert [args[0] is revlex for args in builds].count(True) == 1
    assert list(case.p2._cache) == [revlex.order]


def test_reduction_lemma_reports_the_first_off_target_monomial(monkeypatch):
    calls = []
    # an oracle that never rewrites: x1*x3 is the first monomial off its middle (2, 2)
    monkeypatch.setattr(
        "permahank.verify.rewrite_monomial_indices",
        _counting(calls, lambda m, n, idx: (1, tuple(idx))),
    )
    rep = verify_reduction_lemma(Case(2, 3))
    assert rep.witness == {"kind": "oracle_off_target", "monomial": [1, 3], "got": [1, 3]}
    assert [c[2] for c in calls] == [(1, 1), (1, 2), (1, 3)]


def test_reduction_lemma_checks_cubics_after_quadratics(monkeypatch):
    calls = []

    def oracle(m, n, idx):
        calls.append(idx)
        return (1, tuple(idx)) if len(idx) == 3 else rewrite_monomial_indices(m, n, idx)

    monkeypatch.setattr("permahank.verify.rewrite_monomial_indices", oracle)
    rep = verify_reduction_lemma(Case(2, 3))
    assert rep.witness == {"kind": "oracle_off_target", "monomial": [1, 1, 3], "got": [1, 1, 3]}
    assert [len(c) for c in calls] == [2] * 10 + [3] * 3
    assert calls[-3:] == [(1, 1, 1), (1, 1, 2), (1, 1, 3)]


def reference_reduction_lemma(case, oracle=rewrite_monomial_indices):
    """lemma.reduction with a Polynomial per monomial, the path the term dicts replace."""
    ring = case.ring
    nf_perm = reducer(case.p2.generators)
    for d in (2, 3):
        for idx in combinations_with_replacement(range(1, case.nvars + 1), d):
            c, rest = divmod(sum(idx), d)
            sign, final = oracle(case.m, case.n, idx)
            if final != (c,) * (d - rest) + (c + 1,) * rest:
                return "fail", {"kind": "oracle_off_target", "monomial": list(idx), "got": list(final)}
            nf = nf_perm(_monomial(ring, idx))
            expected = _monomial(ring, final, sign)
            if nf != expected:
                return "fail", {
                    "kind": "engine_oracle_disagree",
                    "monomial": list(idx),
                    "engine": str(nf),
                    "oracle": str(expected),
                }
    return "pass", None


@pytest.mark.parametrize("char", [0, 32003])
def test_reduction_lemma_agrees_with_the_reference(char, monkeypatch):
    for shape in default_grid() if char == 0 else [(2, 9), (5, 8)]:
        case = Case(*shape, char)
        rep = verify_reduction_lemma(case)
        assert (rep.status, rep.witness) == reference_reduction_lemma(case) == ("pass", None)
    # an oracle with the sign of every cubic flipped: the first cubic disagrees
    def flipped(m, n, idx):
        sign, final = rewrite_monomial_indices(m, n, idx)
        return (-sign if len(idx) == 3 else sign), final

    monkeypatch.setattr("permahank.verify.rewrite_monomial_indices", flipped)
    for shape in [(2, 3), (3, 4), (4, 5)]:
        case = Case(*shape, char)
        rep = verify_reduction_lemma(case)
        assert (rep.status, rep.witness) == reference_reduction_lemma(case, flipped), shape
        assert rep.witness["kind"] == "engine_oracle_disagree" and len(rep.witness["monomial"]) == 3


def test_reduction_lemma_reports_the_first_engine_disagreement(monkeypatch):
    # an engine that never reduces: x1*x3 is the first monomial off the oracle
    calls = []
    monkeypatch.setattr("permahank.verify._term_reducer", lambda G: _counting(calls, lambda d: d))
    rep = verify_reduction_lemma(Case(2, 3))
    assert rep.witness == {
        "kind": "engine_oracle_disagree",
        "monomial": [1, 3],
        "engine": "x1*x3",
        "oracle": "-x2^2",
    }
    assert len(calls) == 3


def test_membership_lemma_reports_the_first_cubic_outside(monkeypatch):
    calls = []
    monkeypatch.setattr("permahank.verify._term_reducer", lambda G: _counting(calls, lambda d: d))
    rep = verify_membership_lemmas(Case(2, 3))
    assert rep.witness == {"kind": "cubic_outside_ideal", "monomial": [1, 2, 4]}
    assert rep.detail == "" and len(calls) == 1


def test_membership_lemma_reports_the_first_quartic_outside(monkeypatch):
    quartics = []

    def cubics_only(G):
        nf, keep = _term_reducer(G), _counting(quartics, lambda d: d)
        return lambda d: keep(d) if _degree(next(iter(d))) == 4 else nf(d)

    monkeypatch.setattr("permahank.verify._term_reducer", cubics_only)
    rep = verify_membership_lemmas(Case(3, 3))
    assert rep.witness == {"kind": "quartic_outside_ideal", "monomial": [1, 1, 3, 5]}
    assert rep.detail == "" and len(quartics) == 1


def brute_force_products(m, n):
    """The membership lemma's cubics and quartics, from every product of entries."""
    cubics = set()
    for height, width in ((m, n), (n, m)):
        for cols in combinations(range(1, width + 1), 3):
            for rows in product(range(1, height + 1), repeat=3):
                if len(set(rows)) == 2:
                    cubics.add(tuple(sorted(r + c - 1 for r, c in zip(rows, cols))))
    quartics = set()
    if m >= 3 and n >= 3:
        for rows in combinations(range(1, m + 1), 3):
            for cols in combinations(range(1, n + 1), 3):
                for perm in permutations(cols):
                    cells = [r + c - 1 for r, c in zip(rows, perm)]
                    for k in range(3):
                        quartics.add(tuple(sorted(cells + [cells[k]])))
    return sorted(cubics), sorted(quartics)


def variable_product(case, idx):
    f = case.ring.one()
    for i in idx:
        f = f * case.x(i)
    return f


def test_membership_lemma_checks_the_brute_force_products(monkeypatch):
    checked = []

    def recording(G):
        return lambda d: checked.append(d) or {}

    monkeypatch.setattr("permahank.verify._term_reducer", recording)
    for m, n in default_grid():
        case = Case(m, n, 32003)
        checked.clear()
        rep = verify_membership_lemmas(case)
        cubics, quartics = brute_force_products(m, n)
        want = [variable_product(case, idx)._d for idx in cubics + quartics]
        assert checked == want, (m, n)
        assert rep.detail == (
            f"cubics={len(cubics)} quartics={len(quartics)}" if m >= 3 else f"cubics={len(cubics)}"
        )


def test_bound_lemma_reports_the_first_unbounded_spair(monkeypatch):
    # every pair comes back unbounded; the first pair fails, and its witness
    # is built by s_polynomials (here doubled, so the witness shows where it
    # came from)
    checked, built = [], []

    def unbounded(ring, pairs, lo, hi):
        return _counting(checked, lambda i, j: False)

    def doubled(G):
        spoly = s_polynomials(G)
        return _counting(built, lambda i, j: 2 * spoly(i, j))

    monkeypatch.setattr("permahank.verify._bounded_s_polynomials", unbounded)
    monkeypatch.setattr("permahank.verify.s_polynomials", doubled)
    rep = verify_bound_lemma(Case(2, 3))
    assert rep.witness == {
        "kind": "spair_not_bounded_binomial",
        "pair": ["x1*x3 + x2^2", "x1*x4 + x2*x3"],
        "spoly": "2*x2^2*x4 - 2*x2*x3^2",
    }
    # one pair checked, then one S-polynomial built for the witness
    assert checked == built == [(0, 1)]


def test_bound_lemma_reports_the_first_unbounded_packed_spair(monkeypatch):
    # a wrong index, x1*x4 + x2*x4 for x1*x4 + x2*x3, keeps the packed path:
    # the first pair's S-polynomial x2^2*x4 - x2*x3*x4 has index sums 8 and 9
    case = Case(2, 3)
    gens = [parse(g, case.ring) for g in ("x1*x3 + x2^2", "x1*x4 + x2*x4", "x2*x4 + x3^2")]
    monkeypatch.setattr(case, "p2", Ideal(case.ring, gens))
    calls, built = [], []

    def counted(ring, pairs, lo, hi):
        return _counting(calls, _bounded_s_polynomials(ring, pairs, lo, hi))

    monkeypatch.setattr("permahank.verify._bounded_s_polynomials", counted)
    monkeypatch.setattr(
        "permahank.verify.s_polynomials", lambda G: _counting(built, s_polynomials(G))
    )
    rep = verify_bound_lemma(case)
    assert rep.witness == {
        "kind": "spair_not_bounded_binomial",
        "pair": ["x1*x3 + x2^2", "x1*x4 + x2*x4"],
        "spoly": "x2^2*x4 - x2*x3*x4",
    }
    assert calls == built == [(0, 1)]


def test_bound_lemma_forms_the_pairs_sharing_a_leading_variable(monkeypatch):
    formed = []

    def recording(ring, pairs, lo, hi):
        return lambda i, j: formed.append((i, j)) or True

    monkeypatch.setattr("permahank.verify._bounded_s_polynomials", recording)
    for m, n in default_grid():
        case = Case(m, n, 32003)
        formed.clear()
        rep = verify_bound_lemma(case)
        lts = [g.leading_monomial() for g in case.p2.generators]
        want = [
            (a, b)
            for a, b in combinations(range(len(lts)), 2)
            if lts[a] != lts[b] and any(x and y for x, y in zip(lts[a], lts[b]))
        ]
        assert formed == want, (m, n)
        assert rep.detail == f"pairs={len(want)}"


def _pair_with_spoly(case, s, t):
    """Two unit binomials whose one S-polynomial is s - t, for monomials s, t.

    g_a = x1^10 * x_j + s and g_b = x1^10 + t / x_j, x_j the last variable
    of t: their leading terms share x1, L = x1^10 * x_j, and
    S = g_a - x_j * g_b = s - t.
    """
    x = case.x
    j = case.ring.support(t._lm_packed(LEX))[-1]
    return [x(1) ** 10 * x(j) + s, x(1) ** 10 + _exact_div(t, x(j))]


def _rejects_the_generator_behind(case, f):
    """lemma.bound on P2 with its first generator u + v changed so that an
    S-polynomial has f's form, which S = s - t of two unit binomials cannot
    have: a sign flipped (two terms of one sign) or the tail dropped (one
    term).  The claim names the changed generator, and the reference loop
    sees an S-polynomial of f's form and fails too."""
    ring = case.ring
    gens = case.p2.generators
    v, u = sorted(gens[0]._d)
    lead, tail = (Polynomial._raw(ring, {mono: ring.coeff(1)}) for mono in (u, v))
    new = lead if len(f) == 1 else lead - tail
    changed = (new,) + gens[1:]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(case, "p2", Ideal(ring, changed))
        assert _unit_binomial(new) is None
        assert verify_bound_lemma(case).witness == {
            "kind": "generator_not_unit_binomial", "generator": str(new),
        }
        assert reference_bound_lemma(case)[0] == "fail"
    spoly = s_polynomials(changed)
    assert any(
        len(S := spoly(0, b)) == len(f) and len(set(S._d.values())) == 1
        for b in range(1, len(changed))
        if ring.mono_gcd(u, changed[b]._lm_packed(LEX))
    )


@pytest.mark.parametrize("spoly, ok", [
    ("x1*x2*x4 - x1*x3^2", True),    # index sums 7 and 7
    ("x2*x3*x6 - x3*x4^2", True),    # 11 and 11
    ("x1^2*x4 - x2^3", False),       # 6 and 6, below 7
    ("x2*x6^2 - x4*x5^2", True),     # 14 and 14, 3m+3n-7 = 14
    ("x3*x6^2 - x5^3", False),       # 15 and 15, above 14
    ("x1*x3*x4 - x2^2*x3", False),   # 8 and 7
    ("x1*x2*x4 + x1*x3^2", False),   # same sign
    ("x1*x2^2*x3 - x1*x2*x3^2", False),  # quartics
    ("x1*x2*x3*x4 - x1*x2^2*x5", False),  # quartics with index sums 10 and 10
    ("x2*x5 - x3*x4", False),        # quadrics with index sums 7 and 7
    ("x1*x2*x4", False),
])
def test_bound_lemma_reads_index_sums_from_packed_monomials(spoly, ok, monkeypatch):
    # the packed path decides S = s - t, so every binomial with coefficients
    # 1 and -1 goes through it, as the one S-polynomial of a pair of unit
    # binomials; the other two forms need a generator outside its premise,
    # and the claim rejects that generator
    case = Case(3, 4)
    f = parse(spoly, case.ring)
    by_coefficient = {c: u for u, c in f._d.items()}
    one, minus = case.ring.coeff(1), case.ring.coeff(-1)
    if len(f) == 2 and set(by_coefficient) == {one, minus}:
        s, t = (Polynomial._raw(case.ring, {by_coefficient[c]: one}) for c in (one, minus))
        gens = _pair_with_spoly(case, s, t)
        assert s_polynomials(gens)(0, 1) == f
        monkeypatch.setattr(case, "p2", Ideal(case.ring, gens))
        rep = verify_bound_lemma(case)
        assert rep.passed is ok
        assert _outcome(rep) == reference_bound_lemma(case)
    else:
        assert spoly in ("x1*x2*x4 + x1*x3^2", "x1*x2*x4") and not ok
        _rejects_the_generator_behind(case, f)


def test_bound_lemma_passes_a_zero_packed_spair(monkeypatch):
    case = Case(3, 4)
    s = case.x(2) * case.x(3)
    gens = _pair_with_spoly(case, s, s)
    assert s_polynomials(gens)(0, 1).is_zero
    monkeypatch.setattr(case, "p2", Ideal(case.ring, gens))
    assert _outcome(verify_bound_lemma(case)) == ("pass", None, "pairs=1")


def reference_bound_lemma(case):
    """lemma.bound by s_polynomials on every pair, the path the packed one replaces."""
    ring = case.ring
    lo, hi = 7, 3 * (case.m + case.n) - 7
    units = {ring.coeff(1), ring.coeff(-1)}
    w = sum(k << (k - 1) * _BITS for k in range(1, case.nvars + 1))
    shift = (case.nvars - 1) * _BITS
    gens = case.p2.generators
    spoly = s_polynomials(gens)
    lts = [g._lm_packed(LEX) for g in gens]
    checked = 0
    for a, b in combinations(range(len(gens)), 2):
        if lts[a] == lts[b] or not ring.mono_gcd(lts[a], lts[b]):
            continue
        s = spoly(a, b)
        checked += 1
        if s.is_zero:
            continue
        terms = s._d
        shape_ok = (
            len(terms) == 2
            and all(ring.deg(u) == 3 for u in terms)
            and len(sums := {(u * w >> shift) & _FMASK for u in terms}) == 1
            and lo <= sums.pop() <= hi
            and set(terms.values()) == units
        )
        if not shape_ok:
            return "fail", {
                "kind": "spair_not_bounded_binomial",
                "pair": [str(gens[a]), str(gens[b])],
                "spoly": str(s),
            }, ""
    return "pass", None, f"pairs={checked}"


def per_pair_bound_lemma(case):
    """lemma.bound with each pair's S = s - t formed on packed monomials and
    the degree and index sum of both s and t read, the per-pair check that
    the per-generator keys of `_bounded_s_polynomials` replace."""
    ring = case.ring
    lo, hi = 7, 3 * (case.m + case.n) - 7
    w = sum(k << (k - 1) * _BITS for k in range(1, case.nvars + 1))
    shift = (case.nvars - 1) * _BITS
    gens = case.p2.generators
    pairs = [_unit_binomial(g) for g in gens]
    if None in pairs:
        return "fail", {
            "kind": "generator_not_unit_binomial", "generator": str(gens[pairs.index(None)]),
        }, ""

    def bounded(a, b):
        (ua, va), (ub, vb) = pairs[a], pairs[b]
        L = ring.mono_lcm(ua, ub)
        s, t = L - ua + va, L - ub + vb
        return s == t or (
            _degree(s) == 3 == _degree(t)
            and (k := (s * w >> shift) & _FMASK) == (t * w >> shift) & _FMASK
            and lo <= k <= hi
        )

    lts = [u for u, _ in pairs]
    checked = 0
    for a, b in combinations(range(len(gens)), 2):
        if lts[a] == lts[b] or not ring.mono_gcd(lts[a], lts[b]):
            continue
        checked += 1
        if not bounded(a, b):
            return "fail", {
                "kind": "spair_not_bounded_binomial",
                "pair": [str(gens[a]), str(gens[b])],
                "spoly": str(s_polynomials(gens)(a, b)),
            }, ""
    return "pass", None, f"pairs={checked}"


def _outcome(rep):
    return rep.status, rep.witness, rep.detail


@pytest.mark.parametrize("char", [0, 32003])
def test_packed_bound_lemma_agrees_with_the_reference_on_the_grid(char):
    for m, n in default_grid():
        case = Case(m, n, char)
        assert all(map(_unit_binomial, case.p2.generators))
        got = _outcome(verify_bound_lemma(case))
        assert got == reference_bound_lemma(case) == per_pair_bound_lemma(case), (m, n)


def test_packed_bound_lemma_agrees_with_the_reference_on_8x21():
    case = Case(8, 21, 32003)
    assert _outcome(verify_bound_lemma(case)) == reference_bound_lemma(case)


def _bound_mutants(case, per_kind=3):
    """(kind, generators, the changed generator) with one permanent changed,
    from a seeded draw.

    A flipped sign, a tail coefficient of 2 and a generator scaled by 2
    leave the packed path's premise.  A wrong index, the trailing term's
    last variable moved by one, keeps it.
    """
    ring, gens = case.ring, case.p2.generators
    rng = random.Random(100 * case.m + case.n + case.char)
    for kind in ("sign", "index", "tail2", "scaled"):
        for i in sorted(rng.sample(range(len(gens)), per_kind)):
            g = gens[i]
            v, u = sorted(g._d)  # lex: the leading monomial is the larger
            lead, tail = (Polynomial._raw(ring, {mono: ring.coeff(1)}) for mono in (u, v))
            if kind == "sign":
                new = lead - tail
            elif kind == "index":
                k = ring.support(v)[-1]
                other = k - 1 if k == case.nvars else k + 1
                new = lead + _exact_div(tail, case.x(k)) * case.x(other)
            elif kind == "tail2":
                new = lead + 2 * tail
            else:
                new = 2 * g
            yield kind, gens[:i] + (new,) + gens[i + 1:], new


def test_packed_bound_lemma_on_bad_generators(monkeypatch):
    # a wrong index keeps the premise, and the claim agrees with the
    # reference loop; every other mutant fails by the changed generator's
    # name, where the reference fails on an S-polynomial or, for the scaled
    # generator, whose S-polynomials are the permanents', passes
    outcomes = {}
    for char in (0, 32003):
        for m, n in [(2, 5), (3, 4), (4, 5), (3, 7)]:
            case = Case(m, n, char)
            for kind, gens, new in _bound_mutants(case):
                monkeypatch.setattr(case, "p2", Ideal(case.ring, gens))
                assert (_unit_binomial(new) is None) is (kind != "index"), kind
                got = _outcome(verify_bound_lemma(case))
                want = reference_bound_lemma(case)
                assert got == per_pair_bound_lemma(case), (m, n, char, kind)
                if kind == "index":
                    assert got == want, (m, n, char, kind)
                else:
                    witness = {"kind": "generator_not_unit_binomial", "generator": str(new)}
                    assert got == ("fail", witness, ""), (m, n, char, kind)
                outcomes.setdefault(kind, []).append(want[0])
    assert set(outcomes["scaled"]) == {"pass"}
    for kind in ("sign", "index", "tail2"):
        assert "fail" in outcomes[kind], kind


# -- primary components: proven for homogeneous components at near-maximal primes --


@pytest.mark.parametrize("char", [0, 32003])
def test_skipped_affine_colons_return_the_component(char):
    # a form with a nonzero constant term is no zero divisor mod a homogeneous
    # ideal, so the proof needs no affine colon; check that on the grid
    for m, n in default_grid():
        case = Case(m, n, char)
        for label, Q, P, _ in _colon_witnesses(case):
            assert _has_homogeneous_generators(Q), (m, n, label)
            low = min(k for k in range(1, case.nvars + 1) if case.x(k) in P.generators)
            y = 1 + case.x(low)
            assert equal(colon(Q, y), Q), (m, n, label, str(y))


def test_inhomogeneous_component_goes_through_colon(monkeypatch):
    case = Case(2, 3, 32003)
    calls = []
    monkeypatch.setattr("permahank.verify.colon", _counting(calls, colon))
    assert verify_primary_properties(case).passed
    # only the variable outside each prime; J has none
    assert [str(y) for _, y in calls] == ["x4", "x1"]
    calls.clear()
    Q = q1(case)
    g = Q.generators[0]
    same = Ideal(case.ring, Q.generators + (g + case.x(1) * g,))  # Q again, inhomogeneous generators
    monkeypatch.setattr("permahank.verify.q1", lambda c: same)
    rep = verify_primary_properties(case)
    assert rep.witness == {"kind": "component_not_homogeneous", "component": "q1"}
    assert [str(y) for _, y in calls] == ["x4", "x1"]


def test_prime_missing_several_variables_fails(monkeypatch):
    # Q = (x1, x2^2, x2*(x3 - x4)) has radical P = (x1, x2) and passes the
    # colons by x3 and x4, yet (x1, x2, x3 - x4) is an embedded prime
    case = Case(2, 3)
    x = case.x
    P = Ideal(case.ring, [x(1), x(2)])
    Q = Ideal(case.ring, [x(1), x(2) ** 2, x(2) * x(3) - x(2) * x(4)])
    assert not equal(colon(Q, x(3) - x(4)), Q)
    monkeypatch.setattr("permahank.verify.minimal_primes", lambda c: (P, c.primes[1]))
    monkeypatch.setattr("permahank.verify.q1", lambda c: Q)
    rep = verify_primary_properties(case)
    assert rep.witness == {
        "kind": "prime_misses_several_variables", "component": "q1", "variables": ["x3", "x4"],
    }


def test_non_primary_homogeneous_component_fails(monkeypatch):
    # (x3^2, x3*x4) with P = (x3), widened by x1, x2 to the prime (x1, x2, x3) of 2x3:
    # its radical is the prime, yet x4 is a zero divisor
    case = Case(2, 3)
    x = case.x
    Q = Ideal(case.ring, [x(1), x(2), x(3) ** 2, x(3) * x(4)])
    monkeypatch.setattr("permahank.verify.q1", lambda c: Q)
    rep = verify_primary_properties(case)
    assert rep.witness == {"kind": "colon_moves_component", "component": "q1", "y": "x4"}


@pytest.mark.parametrize("ring", [Ring(6), Ring(6, 32003)], ids=["q", "gfp"])
@given(data=st.data())
@settings(max_examples=60, derandomize=True, deadline=None)
def test_support_test_agrees_with_normal_forms_modulo_the_variables(ring, data):
    # the reference: a list of variables is a Groebner basis under any order
    # (the S-polynomial of two monomials is zero), so a poly lies in the span
    # exactly when its normal form modulo the list is zero
    N = ring.nvars
    if data.draw(st.booleans()):
        lo = data.draw(st.integers(1, N))
        S = set(range(lo, data.draw(st.integers(lo, N)) + 1))
    else:
        S = data.draw(st.sets(st.integers(1, N), min_size=1, max_size=N))
    gens = [ring.var(i) for i in sorted(S)]

    def term(c, exps, outside):
        # an outside term keeps only the variables not in S: a constant when it has none
        return c, tuple(0 if outside and i in S else e for i, e in enumerate(exps, 1))

    terms = st.builds(
        term, st.integers(-4, 4).filter(bool), st.tuples(*[st.integers(0, 2)] * N), st.booleans()
    )
    # zero polys, constants, and polys that mix terms inside and outside the span
    polys = data.draw(st.lists(st.lists(terms, max_size=4).map(ring.poly), max_size=6))
    inside = [normal_form(f, gens, LEX).is_zero for f in polys]
    # the generators in any order, and one listed twice
    for P in (Ideal(ring, gens), Ideal(ring, gens[::-1] + gens[:1])):
        assert [_first_outside_span([f], P) is None for f in polys] == inside
        want = next((f for f, ok in zip(polys, inside) if not ok), None)
        assert _first_outside_span(polys, P) is want


# (shape, component) -> the generator that fails component_outside_prime and
# the variable that moves the component, the same in both fields, as the claim
# reported them while the prime's lex basis decided the containment
_OUTSIDE_PRIME_WITNESSES = {
    ((4, 6), "q1"): ("x6^2 + x9^2", "x9"),
    ((4, 6), "q2"): ("x1^2 + x4^2", "x1"),
    ((2, 9), "q1"): ("x7^2 + x10^2", "x10"),
    ((2, 9), "q2"): ("x1^2 + x4^2", "x1"),
}


@pytest.mark.parametrize("char", [0, 32003])
def test_component_with_a_term_outside_its_prime_fails(char, monkeypatch):
    # q1's generator x_{r-2}^2 gains x_N^2, q2's mirror x4^2 gains x1^2: a
    # same-degree term with no variable of the prime
    for (shape, tag), (generator, y) in _OUTSIDE_PRIME_WITNESSES.items():
        case = Case(*shape, char)
        x, r = case.x, case.r
        g, outside = (x(r - 2) ** 2, x(case.nvars)) if tag == "q1" else (x(4) ** 2, x(1))
        gens = [f + outside ** 2 if f == g else f for f in getattr(case, tag).generators]
        fake = Ideal(case.ring, gens)
        with monkeypatch.context() as mp:
            mp.setattr(f"permahank.verify.{tag}", lambda c: fake)
            rep = verify_primary_properties(case)
        assert rep.witness == {"failures": [
            {"kind": "component_outside_prime", "component": tag, "generator": generator},
            {"kind": "colon_moves_component", "component": tag, "y": y},
        ]}, (shape, tag)


# -- gb: the Buchberger criterion on the interreduced closed form ------------------


def _minimal(G, order=LEX):
    """The elements of G that `_minimal_indices` keeps, in G's order."""
    lts = [g._lm_packed(order) for g in G]
    return [G[i] for i in _minimal_indices(lts, order, G[0].ring.guard)]


def test_minimal_subset_keeps_the_first_of_each_minimal_leading_term():
    ring = Case(2, 3).ring
    polys = [parse(t, ring) for t in ("x1*x2 + x3^2", "x1*x2", "x1 + x3", "x1", "x2^2", "x2^2*x3")]
    lts = [g._lm_packed(LEX) for g in polys]
    assert _minimal_indices(lts, LEX, ring.guard) == [2, 4]
    assert [str(g) for g in _minimal(polys)] == ["x1 + x3", "x2^2"]
    sizes = {s: len(_minimal(closed_form_gb(Case(*s)))) for s in [(3, 4), (4, 5)]}
    assert sizes == {(3, 4): 16, (4, 5): 32}


@pytest.mark.parametrize("order", [LEX, DEGLEX], ids=["lex", "deglex"])
def test_minimal_indices_match_a_divisor_scan_on_the_grid(order):
    # index i is kept exactly when no other leading term divides lt i, save an
    # equal one after i
    for shape in default_grid():
        cf = closed_form_gb(Case(*shape))
        ring = cf[0].ring
        lts = [g._lm_packed(order) for g in cf]
        scan = [
            i for i, a in enumerate(lts)
            if not any(
                ring.mono_div(a, b) is not None and (b != a or j < i)
                for j, b in enumerate(lts) if j != i
            )
        ]
        assert _minimal_indices(lts, order, ring.guard) == scan, shape


def reference_basis_failure(G):
    """The basis check through the minimal subset G', with every pair of G'.

    G is a Groebner basis exactly when G' passes the Buchberger criterion
    and every other element of G reduces to zero modulo G'.  This is the
    check `verify._basis_failure` replaced, kept as its reference.
    """
    keep = set(_minimal_indices([g._lm_packed(LEX) for g in G], LEX, G[0].ring.guard))
    minimal = [g for i, g in enumerate(G) if i in keep]
    ok, wit = assert_agrees_with_all_pairs(minimal)
    if not ok:
        return {"kind": "buchberger_criterion_fails", "pair": [str(wit[0]), str(wit[1])]}
    nf = reducer(minimal)
    for g in (g for i, g in enumerate(G) if i not in keep):
        if not nf(g).is_zero:
            return {"kind": "nonminimal_element_not_reduced", "element": str(g)}
    return None


@pytest.mark.parametrize("char", [0, 32003])
def test_basis_failure_agrees_with_all_pairs_on_the_grid(char):
    for m, n in default_grid():
        cf = closed_form_gb(Case(m, n, char))
        assert _basis_failure(cf) is None
        assert reference_basis_failure(cf) is None
        assert assert_agrees_with_all_pairs(cf) == (True, None)


def _mutants(case, per_kind=4):
    """Closed forms with one element dropped, perturbed or squared, from a seeded draw."""
    cf = closed_form_gb(case)
    rng = random.Random(100 * case.m + case.n + case.char)
    for kind in ("drop", "perturb", "square"):
        for i in sorted(rng.sample(range(len(cf)), per_kind)):
            g = cf[i]
            if kind == "drop":
                new = []
            elif kind == "perturb":
                new = [g + case.x(rng.randrange(1, case.nvars + 1)) ** g.total_degree()]
            else:
                new = [g * g]
            yield cf[:i] + new + cf[i + 1:]


def test_basis_failure_agrees_with_all_pairs_on_mutants():
    outcomes = []
    for char in (0, 32003):
        for m, n in [(2, 5), (3, 4), (4, 5), (3, 7)]:
            for mutant in _mutants(Case(m, n, char)):
                ok = assert_agrees_with_all_pairs(mutant)[0]
                assert (_basis_failure(mutant) is None) == ok, (m, n, char)
                assert (reference_basis_failure(mutant) is None) == ok, (m, n, char)
                outcomes.append(ok)
    assert len(outcomes) == 96 and 0 < outcomes.count(False) < 96


def test_gb_reports_a_failing_pair(monkeypatch):
    # the pair is of interreduced elements: x1*x5 - x3^2 is the closed form's
    # x1*x5 + x2*x4 with its tail reduced
    case = Case(2, 4)
    cf = [g for g in closed_form_gb(case) if str(g) != "x2*x5 + x3*x4"]
    monkeypatch.setattr("permahank.verify.closed_form_gb", lambda c: cf)
    assert verify_gb(case).witness == {
        "kind": "buchberger_criterion_fails",
        "pair": ["x1*x3 + x2^2", "x1*x5 - x3^2"],
        "remainder": "x2^2*x5",
    }
    assert reference_basis_failure(cf)["pair"] == ["x1*x3 + x2^2", "x1*x5 + x2*x4"]


def test_gb_reports_a_nonminimal_element_with_a_remainder(monkeypatch):
    case = Case(2, 4)
    x = case.x
    extra = x(1) * x(3) * x(5) + x(5) ** 5  # lt divisible by lt(x1*x3 + x2^2)
    cf = closed_form_gb(case) + [extra]
    monkeypatch.setattr("permahank.verify.closed_form_gb", lambda c: cf)
    assert verify_gb(case).witness == {
        "kind": "nonminimal_element_not_reduced",
        "element": "x1*x3*x5 + x5^5",
        "remainder": "x5^5",
    }


def test_gb_catches_a_closed_form_that_misses_a_permanent(monkeypatch):
    # without x1*x3 + x2^2 the 3x4 closed form is still a Groebner basis, of a
    # smaller ideal: the interreduction comparison is what tells
    case = Case(3, 4)
    cf = [g for g in closed_form_gb(case) if str(g) != "x1*x3 + x2^2"]
    monkeypatch.setattr("permahank.verify.closed_form_gb", lambda c: cf)
    assert _basis_failure(cf) is None
    assert verify_gb(case).witness == {
        "kind": "interreduction_mismatch",
        "extra": [],
        "missing": ["x1*x3 + x2^2"],
    }


def test_gb_fails_every_closed_form_that_misses_a_generator_of_p2(monkeypatch):
    # drop each permanent in turn: whenever the rest is a Groebner basis of an
    # ideal that misses a generator of P2, gb.* fails as interreduction_mismatch
    caught = 0
    for char in (0, 32003):
        for shape in [(2, 5), (3, 3), (3, 4), (4, 5)]:
            case = Case(*shape, char)
            cf = closed_form_gb(case)
            for p in case.p2.generators:
                G = [g for g in cf if g != p]
                monkeypatch.setattr("permahank.verify.closed_form_gb", lambda c: G)
                rep = verify_gb(case)
                nf = reducer(G)
                assert (_basis_failure(G) is None) == (reference_basis_failure(G) is None)
                if _basis_failure(G) is None and any(not nf(g).is_zero for g in case.p2.generators):
                    kinds = [f["kind"] for f in rep.witness.get("failures", [rep.witness])]
                    assert "interreduction_mismatch" in kinds, (shape, char, str(p))
                    caught += 1
    assert caught == 24


def test_gb_builds_p2s_lex_basis_when_the_containment_fails(monkeypatch):
    # a closed form that is a Groebner basis of a smaller ideal: the missing
    # permanent does not reduce to zero modulo H, so P2's lex basis comes
    # from Buchberger and the witness lists the difference
    case = Case(3, 4)
    cf = [g for g in closed_form_gb(case) if str(g) != "x1*x3 + x2^2"]
    monkeypatch.setattr("permahank.verify.closed_form_gb", lambda c: cf)
    rep = verify_gb(case)
    assert rep.witness["kind"] == "interreduction_mismatch"
    assert case.p2.reduced_basis() == buchberger(case.p2.generators, LEX)
    assert case.p2.reduced_basis().elements != inter_reduce(cf)


def test_gb_fails_a_closed_form_of_a_larger_ideal(monkeypatch):
    # P2's generators plus the reduced basis of P2 + (x1): a Groebner basis
    # that holds every permanent, of an ideal past P2; x1 does not reduce to
    # zero modulo P2's reverse-lex basis, so the containment fails and the
    # witness is the one Buchberger's basis of P2 gives
    for shape in [(2, 5), (3, 4), (4, 5)]:
        case = Case(*shape)
        larger = case.p2 + case.x(1)
        cf = list(case.p2.generators) + list(larger.reduced_basis())
        monkeypatch.setattr("permahank.verify.closed_form_gb", lambda c: cf)
        assert _basis_failure(cf) is None
        rep = verify_gb(case)
        assert rep.witness["kind"] == "interreduction_mismatch" and "x1" in rep.witness["extra"]
        assert case.p2.reduced_basis() == buchberger(case.p2.generators, LEX), shape


def test_ideal_caches_only_a_reduced_basis():
    case = Case(2, 4)
    gens = case.p2.generators
    with pytest.raises(ValueError, match="only a reduced basis"):
        Ideal(case.ring, gens, _basis=buchberger(gens, LEX, reduce=False))
    basis = buchberger(gens, LEX)
    assert Ideal(case.ring, gens, _basis=basis).reduced_basis() is basis


# -- decomp and primary: shortcuts against the paths they replace ----------------


def test_alpha_flag_needs_all_three_conditions(monkeypatch):
    # each fake alpha misses one condition: it lies in P2, or x_N*alpha or
    # x1*alpha lies outside P2; none settles the flag, so classify_embedded
    # falls back to the intersection, which answers both ways
    for shape, embedded in [((2, 3), False), ((3, 4), True)]:
        case = Case(*shape)
        x, N, P2 = case.x, case.nvars, case.p2
        fakes = [P2.generators[0], x(N - 1) * x(N), x(1) * x(2)]
        assert fakes[0] in P2
        assert fakes[1] not in P2 and x(N) * fakes[1] not in P2 and x(1) * fakes[1] in P2
        assert fakes[2] not in P2 and x(N) * fakes[2] in P2 and x(1) * fakes[2] not in P2
        for fake in fakes:
            monkeypatch.setattr("permahank.verify.alphas", lambda c, fake=fake: [fake])
            meets = []
            monkeypatch.setattr("permahank.verify.intersect", _counting(meets, intersect))
            assert classify_embedded(Case(*shape)) is embedded and len(meets) == 1, (shape, fake)
            rep = verify_decomposition(Case(*shape))
            assert rep.passed and rep.detail.endswith("embedded=" + ("yes" if embedded else "no"))


def test_decomposition_builds_no_lex_basis_for_the_flag(monkeypatch):
    # the flag comes from the reverse-lex basis of P2 that the first
    # saturation caches: the only reverse-lex Buchberger runs are the two
    # saturations', both at x1, the order's own smallest variable; the
    # second one starts from the first one's basis plus x_N^2, and no lex
    # basis of P2, Q1 or Q2 is built.  4x5 lists no alpha: there the
    # intersection of the closed forms, an elimination under lex, decides
    # by containment.
    runs = []

    def recording(gens, order, *args, **kwargs):
        B = buchberger(gens, order, *args, **kwargs)
        runs.append((tuple(gens), order, kwargs, B))
        return B

    monkeypatch.setattr("permahank.ideal_ops.buchberger", recording)
    for shape, redundant in [((4, 6), False), ((4, 5), True)]:
        runs.clear()
        case = Case(*shape)
        assert decomposition_summary(case)["j_redundant"] is redundant
        first, second = runs[:2]
        assert [r[1] for r in runs] == [_RevlexOrder(case.nvars)] * 2 + [LEX] * (len(runs) - 2)
        assert len(runs) == (2 if alphas(case) else 3)
        assert first[2] == {"_known": 0} and second[2] == {"_known": len(first[3])}
        assert second[0] == first[3].elements + (case.x(case.nvars) ** 2,)
        for I in (case.p2, case.q1, case.q2):
            assert LEX not in I._cache, shape


@pytest.mark.parametrize("char", [0, 32003])
def test_run_all_builds_no_basis_its_claims_prove(char, monkeypatch):
    # on a passing shape: no intersection where an alpha shows the embedded
    # component, and no lex Buchberger run on P2 (gb.* proves its basis), on
    # J, on a saturation or on a colon ideal; one decomposition, read by decomp.main, with its two
    # saturations and one embedded flag; and every basis cached on P2 and on
    # P2 + (x_N^2), the sum the second saturation starts from, is a
    # GroebnerBasis keyed by its order, the one reverse-lex basis reduced
    # with x1 smallest
    cases, meets, colons, summaries, flags, sats, lex_runs = [], [], [], [], [], [], []

    def summary(case):
        summaries.append(decomposition_summary(case))
        return summaries[-1]

    def recording(gens, order, *args, **kwargs):
        if order == LEX:
            lex_runs.append(tuple(gens))
        return buchberger(gens, order, *args, **kwargs)

    monkeypatch.setattr("permahank.verify.run_case", _counting(cases, run_case))
    monkeypatch.setattr("permahank.verify.intersect", _counting(meets, intersect))
    monkeypatch.setattr("permahank.verify.decomposition_summary", summary)
    monkeypatch.setattr("permahank.ideal_ops.buchberger", recording)
    monkeypatch.setattr("permahank.verify.classify_embedded", _counting(flags, classify_embedded))
    monkeypatch.setattr("permahank.verify.saturate", _counting(sats, saturate))

    def recording_colon(I, f):
        colons.append(colon(I, f))
        return colons[-1]

    monkeypatch.setattr("permahank.verify.colon", recording_colon)
    for shape in default_grid():
        for calls in (cases, meets, colons, summaries, flags, sats, lex_runs):
            calls.clear()
        assert all(r.passed for r in run_all([shape], char)), shape
        (case, _), = cases
        # no lex basis of P2 (gb.* proves the interreduced closed form to be
        # it) nor of either saturation (decomp.main decides them by containment)
        (record,) = summaries
        assert case.p2.generators not in lex_runs and LEX not in case.p2._cache, shape
        assert LEX not in record["q1"]._cache and LEX not in record["q2"]._cache, shape
        # the paths they replace: the interreduced closed form is Buchberger's
        # basis, and each saturation equals its closed form under equal()
        reference = buchberger(case.p2.generators, LEX).elements
        assert inter_reduce(closed_form_gb(case)) == reference, shape
        assert equal(record["q1"], case.q1) and equal(record["q2"], case.q2), shape
        assert len(meets) == (0 if alphas(case) else 1), shape
        assert case.j._cache == {}, shape
        assert len(colons) == 2 and all(LEX not in C._cache for C in colons), shape
        assert (len(summaries), len(flags), len(sats)) == (1, 1, 2), shape
        (p2, _), (summed, _) = sats
        assert p2 is case.p2, shape
        assert summed.generators == p2.generators + (case.x(case.nvars) ** 2,), shape
        for I in (p2, summed):
            assert I._cache and all(type(b) is GroebnerBasis for b in I._cache.values()), shape
            assert all(b.order == key for key, b in I._cache.items()), shape
            revlex = [b for key, b in I._cache.items() if key != LEX]
            assert revlex == [I._cache[_RevlexOrder(case.nvars)]], shape
            assert revlex[0].is_reduced, shape


@pytest.mark.parametrize("char", [0, 32003])
def test_outside_radical_agrees_with_radical_member(char):
    for shape in default_grid():
        case = Case(*shape, char)
        for Q in (embedded_j(case), case.q1, case.q2):
            reference = Ideal(case.ring, Q.generators)
            for k in range(1, case.nvars + 1):
                x = case.x(k)
                got = _outside_radical(case, Q, [x]) is None
                assert got == radical_member(x, reference), (shape, str(x))


@pytest.mark.parametrize("char", [0, 32003])
def test_outside_radical_settles_j_by_the_scan(char, monkeypatch):
    asked = []
    monkeypatch.setattr("permahank.verify.radical_member", _counting(asked, radical_member))
    for shape in default_grid():
        case = Case(*shape, char)
        assert _outside_radical(case, embedded_j(case), case.maximal_ideal.generators) is None
        # the scan reads P2's reverse-lex basis under its own order: no lex basis built
        assert case.j._cache == {} and list(case.p2._cache) == [_RevlexOrder(case.nvars)], shape
    assert asked == []


@pytest.mark.parametrize("char", [0, 32003])
def test_claim_groups_read_one_basis_of_p2(char, monkeypatch):
    # each claim group alone, and all of them, decide every membership in P2
    # by its reverse-lex basis with x1 smallest: that basis is built once, and
    # no lex Buchberger run starts from P2's generators
    runs = []

    def recording(gens, order, *args, **kwargs):
        runs.append((tuple(gens), order))
        return buchberger(gens, order, *args, **kwargs)

    monkeypatch.setattr("permahank.ideal_ops.buchberger", recording)
    for shape in [(2, 9), (4, 6)]:
        for checks in [[group] for group in CHECK_NAMES] + [None]:
            runs.clear()
            case = Case(*shape, char)
            assert all(r.passed for r in run_case(case, checks)), (shape, checks)
            on_p2 = [order for gens, order in runs if gens == case.p2.generators]
            assert on_p2 == [_RevlexOrder(case.nvars)], (shape, checks)


@pytest.mark.parametrize("char", [0, 32003])
def test_closed_form_ideals_get_one_basis_each(char, monkeypatch):
    # a full run, decomp.main alone and primary.components alone build P2's
    # reverse-lex basis with x1 smallest, the second saturation's basis of
    # P2 + (x_N^2), and one basis of each closed component: q1's with x_N
    # smallest and q2's with x1 smallest, the bases their colons read; the
    # intersection of q1 and q2 only on 4x5, which lists no alpha; no lex
    # basis of q1 or q2, and no basis at all of a span of variables, whose
    # containments are read off supports
    runs = []

    def recording(gens, order, *args, **kwargs):
        runs.append((tuple(gens), order))
        return buchberger(gens, order, *args, **kwargs)

    monkeypatch.setattr("permahank.ideal_ops.buchberger", recording)
    for shape in [(4, 6), (2, 9), (4, 5)]:
        for checks in (None, ["decomp"], ["primary"]):
            runs.clear()
            case = Case(*shape, char)
            assert all(r.passed for r in run_case(case, checks)), (shape, checks)
            N = case.nvars
            first = _RevlexOrder(N)
            names = {
                case.p2.generators: "p2",
                case.p2._cache[first].elements + (case.x(N) ** 2,): "p2 + x_N^2",
                case.q1.generators: "q1",
                case.q2.generators: "q2",
            }
            got = [
                (names.get(gens, "other") if gens[0].ring == case.ring else "intersection", order)
                for gens, order in runs
            ]
            components = [("q1", _RevlexOrder(N, N)), ("q2", first)]
            if checks == ["primary"]:
                want = components + [("p2", first)]
            else:
                want = [("p2", first), ("p2 + x_N^2", first)]
                want += [("intersection", LEX)] * (alphas(case) is None) + components
            assert got == want, (shape, checks)
            for P in case.primes + (case.maximal_ideal,):
                assert list(P._cache) == [], (shape, checks)


def test_spans_are_their_own_reduced_lex_basis():
    for char in (0, 32003):
        case = Case(4, 6, char)
        for lo, hi in [(1, 1), (1, 8), (2, 9), (1, 9), (3, 5)]:
            span = case._span(lo, hi)
            B = buchberger(span.generators, LEX)
            assert B.elements == span.generators and B.is_reduced, (char, lo, hi)


@pytest.mark.parametrize("char", [0, 32003])
def test_radical_member_agrees_whatever_basis_is_cached(char):
    # every variable against q1, q2 and J: with no basis of the ideal cached,
    # with only a reverse-lex basis cached (q1's with x_N smallest, the
    # others' with x1 smallest), and with its lex basis cached; x_N against
    # q1 and x1 against q2 lie outside the radical and take the slow path
    for shape in default_grid():
        case = Case(*shape, char)
        N = case.nvars
        for Q, revlex in (
            (case.q1, _RevlexOrder(N, N)),
            (case.q2, _RevlexOrder(N)),
            (embedded_j(case), _RevlexOrder(N)),
        ):
            bare = Ideal(case.ring, Q.generators)
            by_revlex = Ideal(case.ring, Q.generators, _basis=Q.reduced_basis(revlex))
            by_lex = Ideal(case.ring, Q.generators, _basis=Q.reduced_basis())
            for k in range(1, N + 1):
                x = case.x(k)
                answers = {radical_member(x, I) for I in (bare, by_revlex, by_lex)}
                assert len(answers) == 1, (shape, str(x))
            # the reverse-lex basis served: no lex basis was built beside it
            assert list(by_revlex._cache) == [revlex], shape
        assert not radical_member(case.x(N), case.q1) and not radical_member(case.x(1), case.q2)


# (shape, component, mutant) -> the decomp.main and primary.components
# witnesses, the same in both fields, as the claims reported them while the
# components were checked against their lex bases
_MUTANT_WITNESSES = {
    ((4, 6), "q1", "sign"): ({"kind": "q1_mismatch", "witness": "x7*x9 + x8^2"}, None),
    ((4, 6), "q1", "extra"): (
        {"kind": "q1_mismatch", "witness": "x8"},
        {"kind": "colon_moves_component", "component": "q1", "y": "x9"},
    ),
    ((4, 6), "q2", "drop"): (
        {"kind": "q2_mismatch", "witness": "x4^2"},
        {"failures": [
            {"kind": "prime_generator_outside_radical", "component": "q2", "generator": "x4"},
            {"kind": "colon_moves_component", "component": "q2", "y": "x1"},
        ]},
    ),
    ((4, 6), "q2", "swap"): (
        {"kind": "q2_mismatch", "witness": "x5^2"},
        {"kind": "prime_generator_outside_radical", "component": "q2", "generator": "x5"},
    ),
    ((2, 9), "q1", "sign"): ({"kind": "q1_mismatch", "witness": "x8*x10 + x9^2"}, None),
    ((2, 9), "q1", "extra"): (
        {"kind": "q1_mismatch", "witness": "x9"},
        {"kind": "colon_moves_component", "component": "q1", "y": "x10"},
    ),
    ((2, 9), "q2", "drop"): (
        {"kind": "q2_mismatch", "witness": "x1*x7 + x4^2"},
        {"failures": [
            {"kind": "prime_generator_outside_radical", "component": "q2", "generator": "x4"},
            {"kind": "colon_moves_component", "component": "q2", "y": "x1"},
        ]},
    ),
    ((2, 9), "q2", "swap"): (
        {"kind": "q2_mismatch", "witness": "x5"},
        {"kind": "prime_generator_outside_radical", "component": "q2", "generator": "x5"},
    ),
}


def _closed_form_mutant(case, tag, kind):
    """q1 or q2 with one generator changed: the last one's sign flipped, a
    variable of the prime added, the last one dropped, or the first one
    replaced by x3^2."""
    x, r = case.x, case.r
    gens = list((case.q1 if tag == "q1" else case.q2).generators)
    if kind == "sign":
        gens[-1] = x(r - 1) * x(r + 1) - x(r) ** 2
    elif kind == "extra":
        gens.append(x(r))
    elif kind == "drop":
        gens.pop()
    else:
        gens[0] = x(3) ** 2
    return Ideal(case.ring, gens)


@pytest.mark.parametrize("char", [0, 32003])
def test_mutated_closed_forms_fail_with_the_same_witnesses(char, monkeypatch):
    for (shape, tag, kind), want in _MUTANT_WITNESSES.items():
        case = Case(*shape, char)
        fake = _closed_form_mutant(case, tag, kind)
        with monkeypatch.context() as mp:
            mp.setattr(f"permahank.verify.{tag}", lambda c: fake)
            got = tuple(r.witness for r in run_case(case, ["decomp", "primary"]))
        assert got == want, (shape, tag, kind)


@pytest.mark.parametrize("char", [0, 32003])
def test_mutant_witnesses_come_from_the_failed_containment(char, monkeypatch):
    # decomp.main names the generator that why_unequal(component, closed)
    # names, read off the containment that failed, so a failing run builds
    # no lex basis: not of the mutant, of a saturation or of P2
    lex_runs = []

    def recording(gens, order, *args, **kwargs):
        if order == LEX:
            lex_runs.append(tuple(gens))
        return buchberger(gens, order, *args, **kwargs)

    for (shape, tag, kind), (want, _) in _MUTANT_WITNESSES.items():
        case = Case(*shape, char)
        fake = _closed_form_mutant(case, tag, kind)
        lex_runs.clear()
        with monkeypatch.context() as mp:
            mp.setattr(f"permahank.verify.{tag}", lambda c: fake)
            mp.setattr("permahank.ideal_ops.buchberger", recording)
            (rep,) = run_case(case, ["decomp"])
        assert rep.witness == want and lex_runs == [], (shape, tag, kind)
        component = decomposition_summary(Case(*shape, char))[tag]
        assert want["witness"] == str(ideal_ops.why_unequal(component, fake)), (shape, tag, kind)


@pytest.mark.parametrize("char", [0, 32003])
def test_run_case_builds_as_many_reducer_tables_as_before(char, monkeypatch):
    # every reducer table is built by groebner._prepare: a full run_case on
    # 4x6 and on 2x9 built 16 while verify kept its own containment loops
    # and while every batch containment went through `_first_outside`, and
    # builds 13 now that primary.components decides containment in the
    # primes P1, P2' and the maximal ideal from supports, with no table each
    tables = []
    monkeypatch.setattr("permahank.groebner._prepare", _counting(tables, groebner._prepare))
    for shape in [(4, 6), (2, 9)]:
        tables.clear()
        assert all(r.passed for r in run_case(Case(*shape, char))), shape
        assert len(tables) == 13, shape


@pytest.mark.parametrize("char", [0, 32003])
def test_the_two_saturations_agree(char):
    # S = (P2 : x1^infinity) equals Q2 = ((P2 + (x_N^2)) : x1^infinity).  By
    # P2 = Q1 cap Q2 cap J, which decomp.main proves, with Q1 primary at
    # P1 = (x1..xr), Q2 at P2' = (x2..xN) and J at the maximal ideal,
    # (P2 : x1^infinity) is the intersection of the components' saturations
    # at x1: x1 lies in P1 and in the maximal ideal, so those two become the
    # whole ring, and not in P2', so Q2 stays.  That is the uniqueness of the
    # component at the minimal prime P2'.  S comes from the reverse-lex run on
    # P2 alone, Q2 from the run started from that basis plus x_N^2
    # (buchberger's `_known`), so this checks the one run against the other.
    # With exponent > 0 each record lists a Groebner basis of its saturation
    # under the reverse-lex order with x1 smallest, and containment both ways
    # decides.  The exponents agree too, except on 2x3 (q1_stab 2, q2_stab 1).
    for shape in default_grid() + [(2, 23), (9, 16), (12, 13)]:
        case = Case(*shape, char)
        s = decomposition_summary(case)
        assert s["q1_stab"] > 0 and s["q2_stab"] > 0, shape
        S, Q2 = s["s"].generators, s["q2"].generators
        order = _RevlexOrder(case.nvars)
        for A, B in ((S, Q2), (Q2, S)):
            nf = reducer(B, order)
            assert all(nf(f).is_zero for f in A), shape
        assert (s["q1_stab"] == s["q2_stab"]) == (shape != (2, 3)), shape


def test_outside_radical_falls_back_without_p2s_generators(monkeypatch):
    case = Case(3, 4)
    x, p2 = case.x, case.p2
    variables = case.maximal_ideal.generators
    asked = []
    monkeypatch.setattr("permahank.verify.radical_member", _counting(asked, radical_member))
    # P2's generators in another order, as a new list: still the scan
    same = Ideal(case.ring, p2.generators[::-1] + (x(1) ** 2, x(6) ** 2))
    assert _outside_radical(case, same, variables) is None
    assert asked == []
    # one permanent short: x1 and x6 by their squares, the rest by radical_member
    short = Ideal(case.ring, p2.generators[1:] + (x(1) ** 2, x(6) ** 2))
    got = [_outside_radical(case, short, [v]) is None for v in variables]
    assert [str(f) for f, I in asked] == ["x2", "x3", "x4", "x5"]
    assert all(I is short for _, I in asked)
    assert got == [radical_member(v, Ideal(case.ring, short.generators)) for v in variables]


def test_outside_radical_needs_homogeneous_generators(monkeypatch):
    # with P2 stood in for by (x_k^2 - x_k), k = 2..5, every variable has a pure
    # power among the leading terms, yet (0, 1, 1, 1, 1, 0) is a zero of Q
    case = Case(3, 4)
    x = case.x
    fake = Ideal(case.ring, [x(k) ** 2 - x(k) for k in range(2, 6)])
    monkeypatch.setattr(case, "p2", fake)
    Q = fake + (x(1) ** 2, x(6) ** 2)
    assert str(_outside_radical(case, Q, case.maximal_ideal.generators)) == "x2"


def test_decomposition_fails_a_j_without_x1_squared(monkeypatch):
    # (P2 + (x_N^2)) vanishes on the x1 axis, so x1 is not in its radical
    case = Case(3, 4)
    partial = case.p2 + case.x(6) ** 2
    monkeypatch.setattr("permahank.verify.embedded_j", lambda c: partial)
    rep = verify_decomposition(case)
    assert rep.witness == {"kind": "radical_misses_variable", "variable": "x1"}


def test_decomposition_fails_a_unit_j(monkeypatch):
    # a generator with a constant term makes J the unit ideal: 1 = (1 + x1)(1 - x1) + x1^2
    case = Case(3, 4)
    x = case.x
    unit = Ideal(case.ring, case.j.generators + (1 + x(1),))
    monkeypatch.setattr("permahank.verify.embedded_j", lambda c: unit)
    rep = verify_decomposition(case)
    assert rep.witness == {"kind": "j_is_unit_ideal"}


@pytest.mark.parametrize("char", [0, 32003])
def test_colon_containment_agrees_with_equality(char):
    colons = 0
    for shape in default_grid():
        case = Case(*shape, char)
        for label, Q, P, variables in _colon_witnesses(case):
            for y in variables:
                assert _colon_fixes(Q, y) == equal(colon(Q, y), Q), (shape, label)
                colons += 1
    assert colons == 2 * 29
    # and on a component that a variable colon moves
    case = Case(2, 3, char)
    x = case.x
    Q = Ideal(case.ring, [x(1), x(2), x(3) ** 2, x(3) * x(4)])
    assert _colon_fixes(Q, x(4)) is equal(colon(Q, x(4)), Q) is False
