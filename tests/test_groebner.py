"""Buchberger engine: S-polynomials, normal forms, reduced bases.

Expected bases here were computed once with this engine and cross-checked
by hand against the closed forms; they are frozen as string literals.
"""

import random
from fractions import Fraction

import pytest

from permahank import (
    DEGLEX,
    LEX,
    GroebnerBasis,
    HankelMatrix,
    Ideal,
    Ring,
    buchberger,
    inter_reduce,
    is_groebner,
    normal_form,
    parse,
    permanent_generators,
    s_polynomial,
)
from permahank.ring import _RevlexOrder


def perms(m, n, char=0):
    return permanent_generators(HankelMatrix(m, n, char))


def strs(polys):
    return sorted(str(p) for p in polys)


# the reduced lex basis of the 2x3 ideal, all seven elements
BASIS_2X3 = [
    "x1*x3 + x2^2",
    "x1*x4 + x2*x3",
    "x2^2*x3",
    "x2*x3^2",
    "x2*x4 + x3^2",
    "x2^4",
    "x3^4",
]

# the reduced lex basis of the 3x3 ideal: six permanents plus seven monomials
BASIS_3X3 = [
    "x1*x3 + x2^2",
    "x1*x4 + x2*x3",
    "x1*x5 + x3^2",
    "x2*x4 + x3^2",
    "x2*x5 + x3*x4",
    "x3*x5 + x4^2",
    "x2^2*x3",
    "x2*x3^2",
    "x3^2*x4",
    "x3*x4^2",
    "x2^4",
    "x3^4",
    "x4^4",
]


def test_s_polynomial_frozen_value():
    R = Ring(5)
    f = parse("x1*x3 + x2^2", R)
    g = parse("x1*x5 + x3^2", R)
    assert str(s_polynomial(f, g)) == "x2^2*x5 - x3^3"


def test_s_polynomial_same_leading_term():
    R = Ring(5)
    f = parse("x1*x3 + x2^2", R)
    g = parse("x1*x3 - x4^2", R)
    assert str(s_polynomial(f, g)) == "x2^2 + x4^2"


def test_s_polynomial_overflow_raises():
    # the S-polynomial's term x2^40000 is past the exponent range: an error,
    # never a term whose exponent field has carried into its guard bit
    R = Ring(2)
    f = parse("x1^20000 + x2^20000", R)
    g = parse("x1*x2^20000 + 1", R)
    with pytest.raises(ValueError, match="overflow"):
        s_polynomial(f, g)
    with pytest.raises(ValueError, match="overflow"):
        buchberger([f, g])


@pytest.mark.parametrize("char", [0, 32003])
def test_normal_form_overflow_raises(char):
    # rewriting x1 as x2^20000 in x1*x2^20000 gives x2^40000, past the range
    R = Ring(2, char)
    with pytest.raises(ValueError, match="overflow"):
        normal_form(parse("x1*x2^20000", R), [parse("x1 - x2^20000", R)])
    # 16383 + 16384 = 2^15 - 1, the largest exponent: in range, no error
    r = normal_form(parse("x1*x2^16383", R), [parse("x1 - x2^16384 - x2^16383", R)])
    assert str(r) == "x2^32767 + x2^32766"


def test_s_polynomial_rejects_zero():
    R = Ring(3)
    with pytest.raises(ValueError):
        s_polynomial(R.zero(), R.var(1))


def test_normal_form_sign():
    # x1*x5 reduces to -x3^2 against the 3x3 permanents, not +x3^2
    G = perms(3, 3)
    R = G[0].ring
    assert str(normal_form(R.var(1) * R.var(5), G)) == "-x3^2"


def test_normal_form_zero_input():
    G = perms(2, 3)
    R = G[0].ring
    assert normal_form(R.zero(), G).is_zero


def test_normal_form_rejects_bad_reducers():
    R = Ring(4)
    with pytest.raises(ValueError):
        normal_form(R.var(1), [])
    with pytest.raises(ValueError):
        normal_form(R.var(1), [R.zero()])


def test_normal_form_is_irreducible():
    G = buchberger(perms(3, 4))
    R = G.elements[0].ring
    f = (R.var(1) + R.var(3)) ** 3
    r = normal_form(f, G)
    # no term of the remainder is divisible by any leading monomial
    for _, exps in r.terms():
        m = R.pack(exps)
        for g in G.elements:
            assert R.mono_div(m, g._lm_packed(LEX)) is None


def test_reduced_basis_2x3():
    B = buchberger(perms(2, 3))
    assert strs(B.elements) == sorted(BASIS_2X3)
    assert B.is_minimal and B.is_reduced


def test_reduced_basis_3x3():
    B = buchberger(perms(3, 3))
    assert strs(B.elements) == sorted(BASIS_3X3)


def test_basis_order_is_descending():
    B = buchberger(perms(2, 4))
    R = B.elements[0].ring
    key = LEX.key()
    lms = [key(g._lm_packed(LEX)) for g in B.elements]
    assert lms == sorted(lms, reverse=True)


def test_reduced_basis_unique_under_permutation():
    gens = perms(3, 4)
    want = buchberger(gens).elements
    rng = random.Random(11)
    for _ in range(4):
        shuffled = list(gens)
        rng.shuffle(shuffled)
        assert buchberger(shuffled).elements == want


def test_criteria_do_not_change_output():
    gens = perms(3, 3)
    want = buchberger(gens).elements
    assert buchberger(gens, use_coprime=False).elements == want
    assert buchberger(gens, use_chain=False).elements == want
    assert buchberger(gens, use_coprime=False, use_chain=False).elements == want


def test_unreduced_basis_still_generates():
    gens = perms(2, 4)
    raw = buchberger(gens, reduce=False)
    red = buchberger(gens)
    assert not raw.is_reduced
    assert set(red.elements) <= set(inter_reduce(raw.elements))


def test_deglex_basis():
    gens = perms(2, 3)
    B = buchberger(gens, DEGLEX)
    assert B.order == DEGLEX
    ok, wit = is_groebner(B.elements, DEGLEX)
    assert ok, wit
    for g in gens:
        assert B.contains(g)
    # both bases present the same ideal
    L = buchberger(gens)
    for g in B.elements:
        assert L.contains(g)


def test_unit_ideal_collapses():
    R = Ring(3)
    B = buchberger([R.var(1), R.var(1) + 1])
    assert B.elements == (R.one(),)
    assert B.contains(R.var(2) ** 5)


def test_zero_generators():
    R = Ring(3)
    assert buchberger([R.zero(), R.var(1)]).elements == (R.var(1),)
    assert buchberger([R.zero()]).elements == ()
    with pytest.raises(ValueError):
        buchberger([])


def test_is_groebner_witness():
    gens = perms(2, 3)
    ok, wit = is_groebner(gens)
    assert not ok
    f, g, rest = wit
    assert not rest.is_zero
    assert not normal_form(s_polynomial(f, g), gens).is_zero


def test_is_groebner_accepts_reduced_basis():
    B = buchberger(perms(2, 3))
    ok, wit = is_groebner(B.elements)
    assert ok and wit is None


def test_member_duck_typing():
    gens = perms(2, 3)
    R = gens[0].ring
    f = R.var(2) ** 4
    B = buchberger(gens)
    assert f in B
    assert f in Ideal(R, gens)
    assert R.var(2) not in B


def test_inter_reduce_drops_redundant():
    R = Ring(3)
    x1, x2 = R.var(1), R.var(2)
    out = inter_reduce([x1, x1 * x2, x2**2, 3 * x2**2])
    assert strs(out) == ["x1", "x2^2"]


def test_contains_requires_same_ring():
    B = buchberger(perms(2, 3))
    other = Ring(4, 5)
    with pytest.raises(ValueError):
        B.contains(other.var(1))


def test_groebner_basis_equality():
    a = buchberger(perms(2, 3))
    b = buchberger(list(reversed(perms(2, 3))))
    assert a == b
    assert hash(a) == hash(b)
    c = buchberger(perms(2, 3), DEGLEX)
    assert a != c


# -- generators are reduced as they enter --------------------------------------


def entry_order(name, nvars):
    return {"lex": LEX, "deglex": DEGLEX}.get(name) or _RevlexOrder(nvars)


ENTRY_CASES = [
    (name, char) for name in ("lex", "deglex", "revlex") for char in (0, 32003)
]


def assert_basis_of(B, gens, order):
    """B is a Groebner basis under order and generates the ideal of gens."""
    ok, wit = is_groebner(B.elements, order)
    assert ok, wit
    for g in gens:
        assert B.contains(g)
    other = buchberger(gens, DEGLEX if order == LEX else LEX)
    for b in B.elements:
        assert other.contains(b)


@pytest.mark.parametrize("name,char", ENTRY_CASES)
def test_entry_reduction_duplicate_leading_terms(name, char):
    gens = perms(3, 4, char)  # 12 permanents, at most 10 distinct leading terms
    order = entry_order(name, gens[0].ring.nvars)
    raw = buchberger(gens, order, reduce=False)
    lts = [f._lm_packed(order) for f in raw.elements]
    assert len(set(lts)) == len(lts)
    B = buchberger(gens, order)
    assert_basis_of(B, gens, order)
    for shuffled in (gens[::-1], gens[1::2] + gens[::2]):
        assert buchberger(shuffled, order).elements == B.elements
    for coprime in (True, False):
        for chain in (True, False):
            got = buchberger(gens, order, use_coprime=coprime, use_chain=chain)
            assert got.elements == B.elements


@pytest.mark.parametrize("name,char", ENTRY_CASES)
def test_entry_reduction_drops_redundant_generators(name, char):
    f, g = perms(2, 3, char)[:2]
    R = f.ring
    order = entry_order(name, R.nvars)
    gens = [f, g, 3 * f, f + R.var(4) * g]
    raw = buchberger(gens, order, reduce=False)
    assert raw.elements == buchberger([f, g], order, reduce=False).elements
    B = buchberger(gens, order)
    assert_basis_of(B, gens, order)
    assert buchberger(gens[::-1], order).elements == B.elements


@pytest.mark.parametrize("name,char", ENTRY_CASES)
def test_entry_reduction_to_a_constant_is_the_unit_ideal(name, char):
    f, g = perms(2, 3, char)[:2]
    R = f.ring
    order = entry_order(name, R.nvars)
    for gens in ([f, g, f + 2], [f + 2, g, f]):
        assert buchberger(gens, order).elements == (R.one(),)
        assert buchberger(gens, order, reduce=False).elements == (R.one(),)


@pytest.mark.parametrize("name,char", ENTRY_CASES)
def test_reduced_basis_enters_unchanged(name, char):
    # intersect and radical_member pass reduced bases back into buchberger
    gens = perms(3, 4, char)
    order = entry_order(name, gens[0].ring.nvars)
    B = buchberger(gens, order)
    assert buchberger(B.elements, order, reduce=False).elements == B.elements
    assert buchberger(B.elements, order) == B
    assert buchberger(B.elements[::-1], order) == B


# -- non-monic input: inverse leading coefficients in the reducer entries -----


def textbook_s_polynomial(f, g, order):
    """(L/lt f)*f/lc f - (L/lt g)*g/lc g with Polynomial arithmetic."""
    R = f.ring
    cf, ef = f.leading_term(order)
    cg, eg = g.leading_term(order)
    L = [max(a, b) for a, b in zip(ef, eg)]
    uf = R.monomial([l - a for l, a in zip(L, ef)], R.inv(cf))
    ug = R.monomial([l - b for l, b in zip(L, eg)], R.inv(cg))
    return uf * f - ug * g


def non_monic_scales(char):
    # leading coefficients 3 and 2/5 over Q, 3 and 7 over GF(p)
    return (3, Fraction(2, 5)) if char == 0 else (3, 7)


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("order", [LEX, DEGLEX], ids=["lex", "deglex"])
def test_s_polynomial_of_non_monic_input(char, order):
    R = Ring(4, char)
    x1, x2, x3, x4 = (R.var(i) for i in range(1, 5))
    a, b = non_monic_scales(char)
    pairs = [
        (a * x1**2 * x2 + x2**3 - x3, b * x1 * x3**2 + x2 * x4 + 1),
        (a * x1 * x3 + 5 * x2**2, b * x1 * x3 - x4**2 + 2 * x2),
        (a * x2**2 * x4 + x3, b * x1 * x3**3 + x4),
    ]
    for f, g in pairs:
        assert f.leading_coefficient(order) == a
        assert g.leading_coefficient(order) == b
        assert s_polynomial(f, g, order) == textbook_s_polynomial(f, g, order)
        assert s_polynomial(g, f, order) == textbook_s_polynomial(g, f, order)


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("order", [LEX, DEGLEX], ids=["lex", "deglex"])
def test_inter_reduce_of_non_monic_input(char, order):
    gens = perms(3, 4, char)
    R = gens[0].ring
    B = buchberger(gens, order)
    monic = list(B.elements) + [R.var(2) * B.elements[0]]
    a, b = non_monic_scales(char)
    scaled = [(a, b, -1)[i % 3] * f for i, f in enumerate(monic)]
    got = inter_reduce(scaled, order)
    assert got == inter_reduce(monic, order) == B.elements
    coeff_type = Fraction if char == 0 else int
    for f in got + buchberger(scaled, order, reduce=False).elements:
        lc = f.leading_coefficient(order)
        assert lc == 1 and type(lc) is coeff_type


@pytest.mark.parametrize("char", [0, 32003])
def test_is_groebner_witness_of_non_monic_input(char):
    a, b = non_monic_scales(char)
    G = [c * f for c, f in zip((a, b, -1, a), perms(2, 4, char))]
    ok, wit = is_groebner(G)
    assert not ok
    f, g, rest = wit
    assert not rest.is_zero
    assert rest == normal_form(s_polynomial(f, g), G)
