"""Buchberger engine: S-polynomials, normal forms, reduced bases.

Expected bases here were computed once with this engine and cross-checked
by hand against the closed forms; they are frozen as string literals.
"""

import hashlib
import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, islice

import pytest
from hypothesis import given, settings, strategies as st

from permahank import (
    DEGLEX,
    LEX,
    Case,
    GroebnerBasis,
    HankelMatrix,
    Ideal,
    Ring,
    buchberger,
    default_grid,
    inter_reduce,
    intersect,
    is_groebner,
    normal_form,
    parse,
    permanent_generators,
    reducer,
    s_polynomial,
    s_polynomials,
)
from permahank import groebner, ideal_ops
from permahank.groebner import (
    _exact_div,
    _minimal_lcms,
    _monomial_pairs,
    _nf_dict,
    _prepare,
    _term_reducer,
)
from permahank.ring import _BITS, _EMAX, _FMASK, Polynomial, _RevlexOrder


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


def test_normal_form_defaults_to_the_basis_order():
    R = Ring(3)
    x1, x2, x3 = (R.var(k) for k in (1, 2, 3))
    B = buchberger([x1**2 - x2, x1 * x3 - x2**3], DEGLEX)
    f = (x1**2 - x2) * (x3 + x1) + (x1 * x3 - x2**3) * x2
    assert B.contains(f)
    assert normal_form(f, B).is_zero
    assert reducer(B)(f).is_zero
    assert is_groebner(B) == (True, None)
    # a sequence has no order of its own: lex, as before
    assert normal_form(f, B.elements) == normal_form(f, B.elements, LEX)
    for call in (
        lambda: normal_form(f, B, LEX),
        lambda: reducer(B, LEX),
        lambda: is_groebner(B, LEX),
    ):
        with pytest.raises(ValueError, match="order"):
            call()
    # naming the basis's own order is fine
    assert normal_form(f, B, DEGLEX).is_zero


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
    assert B.is_reduced


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
    # use_chain=False queues every pair, coprime ones too: the reference
    for gens in (perms(3, 3), perms(2, 5)):
        want = buchberger(gens).elements
        assert buchberger(gens, use_chain=False).elements == want
        assert is_groebner(buchberger(gens, reduce=False, use_chain=False)) == (True, None)


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
    for chain in (True, False):
        got = buchberger(gens, order, use_chain=chain)
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


# -- a start from a known reduced basis ----------------------------------------


@pytest.mark.parametrize("char", [0, 32003])
def test_start_from_p2s_basis_on_the_default_grid(char):
    # the second saturation's run: P2's reduced reverse-lex basis with x1
    # smallest, then x_N^2, against the run from the raw generators, with
    # and without the criteria
    for shape in default_grid():
        gens = perms(*shape, char)
        R = gens[0].ring
        order = _RevlexOrder(R.nvars)
        K = buchberger(gens, order)
        square = R.var(R.nvars) ** 2
        want = buchberger(gens + [square], order)
        for chain in (True, False):
            got = buchberger(K.elements + (square,), order, use_chain=chain, _known=len(K))
            assert got == want, (shape, chain)


@pytest.mark.parametrize("name,char", ENTRY_CASES)
def test_start_from_a_known_basis_forms_no_pair_of_two_known_elements(name, char, monkeypatch):
    gens = perms(3, 4, char)
    R = gens[0].ring
    N = R.nvars
    x = R.var
    order = entry_order(name, N)
    K = buchberger(gens, order)
    known = {f._lm_packed(order) for f in K}
    formed = []
    spoly = groebner._spoly_dict

    def counted(a, b, ring):
        formed.append((a[0], b[0]))
        return spoly(a, b, ring)

    monkeypatch.setattr(groebner, "_spoly_dict", counted)
    tails_moved = 0
    for extra in ([x(1) ** 2], [x(N) ** 2], [x(1) * x(N) + 2 * x(3) ** 2, x(2) ** 3 - x(5) ** 3]):
        want = buchberger(gens + extra, order)
        for chain in (True, False):
            formed.clear()
            got = buchberger(K.elements + tuple(extra), order, use_chain=chain, _known=len(K))
            assert got == want, (extra, chain)
            assert not any(a in known and b in known for a, b in formed)
        raw = buchberger(K.elements + tuple(extra), order, reduce=False, _known=len(K))
        assert raw.elements[len(K):] and is_groebner(raw, order) == (True, None)
        # the tail step may reduce a known element by a new entry; its pairs
        # with the other known elements stay unformed (buchberger's Notes)
        tails_moved += raw.elements[:len(K)] != K.elements
    assert tails_moved


# -- the entry phase: generators interreduced before any pair -----------------


def p2_inputs(shape, char):
    """P2 and P2 + (x_N^2) of a shape: same-degree generators, many redundant."""
    gens = perms(*map(int, shape.split("x")), char)
    R = gens[0].ring
    return {"P2": gens, "P2+xN^2": gens + [R.var(R.nvars) ** 2]}


def divides(a, b):
    return all(x <= y for x, y in zip(a, b))


# Recorded before the entries' tails were interreduced: the length and digest
# of the reduced basis, which the entry phase must not change.
REDUCED_BASES = {
    ("2x6", 0, "lex", "P2"): (28, "1d2ab48eb2a1fbcc"),
    ("2x6", 0, "lex", "P2+xN^2"): (30, "edd5dd7b2c3669e5"),
    ("2x6", 0, "deglex", "P2"): (28, "619e19ceca94e1a4"),
    ("2x6", 0, "deglex", "P2+xN^2"): (30, "ed0c784daab14a0b"),
    ("2x6", 0, "revlex", "P2"): (26, "9d204d8b9b727abc"),
    ("2x6", 0, "revlex", "P2+xN^2"): (24, "c96e24ff3e3655fd"),
    ("2x6", 32003, "lex", "P2"): (28, "cfd77a6aa766847f"),
    ("2x6", 32003, "lex", "P2+xN^2"): (30, "15e8db1ef4fb9443"),
    ("2x6", 32003, "deglex", "P2"): (28, "facfead26ad82f4b"),
    ("2x6", 32003, "deglex", "P2+xN^2"): (30, "2799502a36ec5f7e"),
    ("2x6", 32003, "revlex", "P2"): (26, "3f806288ff386974"),
    ("2x6", 32003, "revlex", "P2+xN^2"): (24, "09b09c08e10a17c4"),
    ("3x4", 0, "lex", "P2"): (16, "cd781dcc3ec4c41b"),
    ("3x4", 0, "lex", "P2+xN^2"): (18, "e9125abc2ab50655"),
    ("3x4", 0, "deglex", "P2"): (16, "26af38ca885351fb"),
    ("3x4", 0, "deglex", "P2+xN^2"): (18, "bd9ffcb5266ce9bf"),
    ("3x4", 0, "revlex", "P2"): (16, "6c3c01b88c13ce3a"),
    ("3x4", 0, "revlex", "P2+xN^2"): (16, "9ebb593b63fa316c"),
    ("3x4", 32003, "lex", "P2"): (16, "cd781dcc3ec4c41b"),
    ("3x4", 32003, "lex", "P2+xN^2"): (18, "e9125abc2ab50655"),
    ("3x4", 32003, "deglex", "P2"): (16, "26af38ca885351fb"),
    ("3x4", 32003, "deglex", "P2+xN^2"): (18, "bd9ffcb5266ce9bf"),
    ("3x4", 32003, "revlex", "P2"): (16, "f13182ca23778c40"),
    ("3x4", 32003, "revlex", "P2+xN^2"): (16, "386357164e406016"),
    ("4x5", 0, "lex", "P2"): (32, "42ae74759e2aaa5b"),
    ("4x5", 0, "lex", "P2+xN^2"): (34, "2400955f85e6cdc2"),
    ("4x5", 0, "deglex", "P2"): (32, "a1915bb23544ceaf"),
    ("4x5", 0, "deglex", "P2+xN^2"): (34, "59d83602927982ef"),
    ("4x5", 0, "revlex", "P2"): (28, "5b5ce0a4a8332c2b"),
    ("4x5", 0, "revlex", "P2+xN^2"): (29, "b2c62494a93cd5af"),
    ("4x5", 32003, "lex", "P2"): (32, "42ae74759e2aaa5b"),
    ("4x5", 32003, "lex", "P2+xN^2"): (34, "2400955f85e6cdc2"),
    ("4x5", 32003, "deglex", "P2"): (32, "a1915bb23544ceaf"),
    ("4x5", 32003, "deglex", "P2+xN^2"): (34, "59d83602927982ef"),
    ("4x5", 32003, "revlex", "P2"): (28, "5b5ce0a4a8332c2b"),
    ("4x5", 32003, "revlex", "P2+xN^2"): (29, "b2c62494a93cd5af"),
}


@pytest.mark.parametrize("shape,char,name,ideal", sorted(REDUCED_BASES), ids=lambda v: str(v))
def test_entries_of_same_degree_input_are_interreduced(shape, char, name, ideal):
    gens = p2_inputs(shape, char)[ideal]
    order = entry_order(name, gens[0].ring.nvars)
    raw = buchberger(gens, order, reduce=False).elements
    # the entries come first and keep the generators' degree 2; a reduced
    # S-polynomial of two quadrics has a larger one
    k = sum(f.total_degree() == 2 for f in raw)
    entries = raw[:k]
    assert all(f.total_degree() == 2 for f in entries)
    lts = [f.leading_monomial(order) for f in entries]
    for i, f in enumerate(entries):
        for _, e in f.terms():
            assert not any(divides(lt, e) for j, lt in enumerate(lts) if j != i)
    nf = reducer(entries, order)
    assert all(nf(g).is_zero for g in gens)
    B = buchberger(gens, order)
    assert all(B.contains(f) for f in entries)
    assert (len(B), digest(B)) == REDUCED_BASES[shape, char, name, ideal]


@pytest.mark.parametrize("shape,char,name,ideal", sorted(REDUCED_BASES), ids=lambda v: str(v))
def test_no_s_polynomial_of_two_monomial_entries(shape, char, name, ideal, monkeypatch):
    gens = p2_inputs(shape, char)[ideal]
    order = entry_order(name, gens[0].ring.nvars)
    formed = []
    spoly = groebner._spoly_dict

    def counted(a, b, ring):
        formed.append(bool(a[2] or b[2]))
        return spoly(a, b, ring)

    monkeypatch.setattr(groebner, "_spoly_dict", counted)
    for chain in (True, False):
        formed.clear()
        B = buchberger(gens, order, use_chain=chain)
        # most entries are monomials, yet every pair formed has a tail
        assert formed and all(formed)
        assert (len(B), digest(B)) == REDUCED_BASES[shape, char, name, ideal]


# -- reverse-lex with any smallest variable -------------------------------------


def swapper(ring, k):
    """Packed-monomial map trading the fields of x1 and x_k; its own inverse.

    The reference for `_RevlexOrder(N, k)`, whose key is the key of
    `_RevlexOrder(N)` read after this swap: colon and saturation by x_k
    once ran under `_RevlexOrder(N)` on generators swapped by it.
    """
    top = (ring.nvars - 1) * _BITS
    low = (ring.nvars - k) * _BITS

    def swap(m):
        x = ((m >> top) ^ (m >> low)) & _FMASK
        return m ^ (x << top) ^ (x << low)

    return swap


def swapped(polys, k):
    R = polys[0].ring
    swap = swapper(R, k)
    return tuple(Polynomial._raw(R, {swap(m): c for m, c in f._d.items()}) for f in polys)


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("shape", ["3x4", "4x5", "2x6"])
def test_transposed_revlex_agrees_with_the_run_on_swapped_generators(shape, char):
    # for every k: the raw and the reduced basis under _RevlexOrder(N, k)
    # are the swapped bases of the run on swapped generators under
    # _RevlexOrder(N), the path colon by x_k took before the order could
    # name its smallest variable
    gens = perms(*map(int, shape.split("x")), char)
    R = gens[0].ring
    N = R.nvars
    plain = _RevlexOrder(N)
    assert _RevlexOrder(N, 1) == plain
    for k in range(1, N + 1):
        order = _RevlexOrder(N, k)
        key, ref_key, swap = order.key(), plain.key(), swapper(R, k)
        for reduce in (True, False):
            got = buchberger(gens, order, reduce=reduce).elements
            ref = buchberger(swapped(gens, k), plain, reduce=reduce).elements
            assert got == swapped(ref, k), (k, reduce)
            assert all(key(m) == ref_key(swap(m)) for f in got for m in f._d), k


# S-polynomials Buchberger forms on P2 of 4x5, recorded while an entering
# monomial's lcms were still grouped with every earlier leading term: a pair
# selection that queues more or fewer pairs fails here even where the raw
# basis happens to match.
PAIRS_FORMED_4X5 = {"lex": 36, "revlex": 34}


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("name", sorted(PAIRS_FORMED_4X5))
def test_pairs_formed_on_4x5(name, char, monkeypatch):
    gens = perms(4, 5, char)
    N = gens[0].ring.nvars
    # reverse-lex with x_N smallest, as colon by x_N uses
    order = _RevlexOrder(N, N) if name == "revlex" else entry_order(name, N)
    formed = []
    spoly = groebner._spoly_dict

    def counted(a, b, ring):
        formed.append(1)
        return spoly(a, b, ring)

    monkeypatch.setattr(groebner, "_spoly_dict", counted)
    buchberger(gens, order)
    assert len(formed) == PAIRS_FORMED_4X5[name]


# Per shape, field and order, the length and digest of Buchberger's raw basis
# and the number of S-polynomials it forms.  The raw bases were recorded
# while Buchberger still had the B-criterion, and dropping it left them all
# as they were; it changed only the two counts of 2x9 under lex, 357 -> 378,
# the pairs it used to skip, each of which reduces to zero.  "revlex" has x1
# smallest and "revlex_xN" x_N; "known" starts from P2's reduced "revlex"
# basis K plus x_N^2 with _known=len(K), as the second saturation does, and
# "known_x1" from P2's "revlex_xN" basis plus x1^2.  "intersect" is the lex
# elimination that intersect(case.q1, case.q2) runs, where the B-criterion
# skipped 1, 11 and 13 pairs on 2x3, 3x5 and 3x6.
PAIR_WORK = {
    ("2x9", 0, "deglex"): (58, "4d31b9f5c2f17325", 336),
    ("2x9", 0, "known"): (57, "3e6b599dd14b86ee", 0),
    ("2x9", 0, "known_x1"): (61, "30916c661ede58e5", 9),
    ("2x9", 0, "lex"): (64, "6627401e9eb3ad66", 378),
    ("2x9", 0, "revlex"): (56, "f86b1cc26e26baf3", 312),
    ("2x9", 0, "revlex_xN"): (58, "5b1eb89388e6fe6b", 323),
    ("2x9", 32003, "deglex"): (58, "da5e0b31dab86e23", 336),
    ("2x9", 32003, "known"): (57, "7c4a80f683d85149", 0),
    ("2x9", 32003, "known_x1"): (61, "56b5cd6df706230f", 9),
    ("2x9", 32003, "lex"): (64, "4aacca236ec71d01", 378),
    ("2x9", 32003, "revlex"): (56, "70dd3abff9ba63ee", 312),
    ("2x9", 32003, "revlex_xN"): (58, "ede3a3b51e513031", 323),
    ("4x5", 0, "deglex"): (32, "fea86c7bb22924b6", 36),
    ("4x5", 0, "known"): (29, "e03798ad6b7158d1", 0),
    ("4x5", 0, "known_x1"): (33, "050934b03d9419e4", 3),
    ("4x5", 0, "lex"): (32, "ade28390389a35f4", 36),
    ("4x5", 0, "revlex"): (28, "52d86d8b9eb7b4c4", 29),
    ("4x5", 0, "revlex_xN"): (30, "8a2603f13a7ec81d", 34),
    ("4x5", 32003, "deglex"): (32, "fea86c7bb22924b6", 36),
    ("4x5", 32003, "known"): (29, "e03798ad6b7158d1", 0),
    ("4x5", 32003, "known_x1"): (33, "050934b03d9419e4", 3),
    ("4x5", 32003, "lex"): (32, "ade28390389a35f4", 36),
    ("4x5", 32003, "revlex"): (28, "52d86d8b9eb7b4c4", 29),
    ("4x5", 32003, "revlex_xN"): (30, "8a2603f13a7ec81d", 34),
    ("5x6", 0, "deglex"): (51, "ff9d52dd2c0bf1c7", 48),
    ("5x6", 0, "known"): (48, "7b4cc3aa4265c22b", 0),
    ("5x6", 0, "known_x1"): (52, "e8ae5a5eff7621f2", 3),
    ("5x6", 0, "lex"): (51, "21e5af451b8a0e5a", 48),
    ("5x6", 0, "revlex"): (47, "002fd35b96745a9c", 39),
    ("5x6", 0, "revlex_xN"): (49, "1e33bc6a09b4af2f", 46),
    ("5x6", 32003, "deglex"): (51, "ff9d52dd2c0bf1c7", 48),
    ("5x6", 32003, "known"): (48, "7b4cc3aa4265c22b", 0),
    ("5x6", 32003, "known_x1"): (52, "e8ae5a5eff7621f2", 3),
    ("5x6", 32003, "lex"): (51, "21e5af451b8a0e5a", 48),
    ("5x6", 32003, "revlex"): (47, "002fd35b96745a9c", 39),
    ("5x6", 32003, "revlex_xN"): (49, "1e33bc6a09b4af2f", 46),
    ("2x3", 0, "intersect"): (16, "40fcaeca4845811a", 27),
    ("2x3", 32003, "intersect"): (16, "1e4ac6dc26a392f6", 27),
    ("3x5", 0, "intersect"): (60, "bce4b48a405ba785", 106),
    ("3x5", 32003, "intersect"): (60, "43c1625f37546e7d", 106),
    ("3x6", 0, "intersect"): (73, "890eaa42426b9106", 125),
    ("3x6", 32003, "intersect"): (73, "b9b2e5e4969534b9", 125),
}


@pytest.mark.parametrize("shape,char,name", sorted(PAIR_WORK), ids=lambda v: str(v))
def test_pair_work_matches_the_record(shape, char, name, monkeypatch):
    want = PAIR_WORK[shape, char, name]
    m, n = map(int, shape.split("x"))
    gens = perms(m, n, char)
    R = gens[0].ring
    N = R.nvars
    orders = {"lex": LEX, "deglex": DEGLEX, "revlex": _RevlexOrder(N), "revlex_xN": _RevlexOrder(N, N)}
    known = 0
    if name == "intersect":
        case = Case(m, n, char)
        q1, q2 = case.q1, case.q2
        calls = []
        run = ideal_ops.buchberger
        monkeypatch.setattr(ideal_ops, "buchberger", lambda g, order: calls.append(g) or run(g, order))
        intersect(q1, q2)
        monkeypatch.undo()
        (gens,) = calls
        name = "lex"
    elif name.startswith("known"):
        name, v = ("revlex", N) if name == "known" else ("revlex_xN", 1)
        K = buchberger(gens, orders[name])
        gens, known = K.elements + (R.var(v) ** 2,), len(K)
    formed = []
    spoly = groebner._spoly_dict

    def counted(a, b, ring):
        formed.append(1)
        return spoly(a, b, ring)

    monkeypatch.setattr(groebner, "_spoly_dict", counted)
    raw = buchberger(gens, orders[name], reduce=False, _known=known).elements
    assert (len(raw), digest(raw), len(formed)) == want


def mixed_degree_inputs(R, name):
    """f, g, h, k in three variables: lt(f) = x1 * lt(g), h = f + x3*g, and k."""
    # reverse-lex makes x1 the smallest variable, so it swaps x1 and x3
    a, b, c = (R.var(i) for i in ((3, 2, 1) if name == "revlex" else (1, 2, 3)))
    return a**2 * b + c**3, a * b - c**2, a**2 * b + a * b * c, c**3 + a * b * c + b**2 * c


# Recorded before the entries' tails were interreduced: the reduced bases of
# (f, g) and of (h, g, k), whose tails need reducing after Buchberger.
MIXED_BASES = {
    ("lex", 0): (
        ["x1*x2 - x3^2", "x1*x3^2 + x3^3", "x2*x3^3 + x3^4"],
        ["x1*x2 - x3^2", "x1*x3^2 + x3^3", "x2^2*x3 + 2*x3^3", "x2*x3^3", "x3^4"],
    ),
    ("deglex", 0): (
        ["x2*x3^3 + x3^4", "x1*x3^2 + x3^3", "x1*x2 - x3^2"],
        ["x2*x3^3", "x3^4", "x1*x3^2 + x3^3", "x2^2*x3 + 2*x3^3", "x1*x2 - x3^2"],
    ),
    ("revlex", 0): (
        ["x1^4 + x1^3*x2", "x1^3 + x1^2*x3", "-x1^2 + x2*x3"],
        ["x1^3*x2", "x1^4", "2*x1^3 + x1*x2^2", "x1^3 + x1^2*x3", "-x1^2 + x2*x3"],
    ),
    ("lex", 32003): (
        ["x1*x2 + 32002*x3^2", "x1*x3^2 + x3^3", "x2*x3^3 + x3^4"],
        ["x1*x2 + 32002*x3^2", "x1*x3^2 + x3^3", "x2^2*x3 + 2*x3^3", "x2*x3^3", "x3^4"],
    ),
    ("deglex", 32003): (
        ["x2*x3^3 + x3^4", "x1*x3^2 + x3^3", "x1*x2 + 32002*x3^2"],
        ["x2*x3^3", "x3^4", "x1*x3^2 + x3^3", "x2^2*x3 + 2*x3^3", "x1*x2 + 32002*x3^2"],
    ),
    ("revlex", 32003): (
        ["x1^4 + x1^3*x2", "x1^3 + x1^2*x3", "32002*x1^2 + x2*x3"],
        ["x1^3*x2", "x1^4", "2*x1^3 + x1*x2^2", "x1^3 + x1^2*x3", "32002*x1^2 + x2*x3"],
    ),
}


@pytest.mark.parametrize("name,char", ENTRY_CASES)
def test_entry_phase_of_mixed_degree_input(name, char):
    R = Ring(3, char)
    order = entry_order(name, 3)
    f, g, h, k = mixed_degree_inputs(R, name)
    for gens in ([f, g], [h, g]):
        # h's tail term x1*x2*x3 reduces by lt(g) although g enters after h;
        # the leading terms stay, although lt(g) divides lt(f)
        assert buchberger(gens, order, reduce=False).elements[:2] == (f, g)
        assert [str(p) for p in buchberger(gens, order)] == MIXED_BASES[name, char][0]
    assert [str(p) for p in buchberger([h, g, k], order)] == MIXED_BASES[name, char][1]
    # f + 1 reduces to 1 on entry after h and g, and from an S-polynomial before them
    for gens in ([h, g, f + 1], [f + 1, h, g]):
        assert buchberger(gens, order).elements == (R.one(),)


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


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("order", [LEX, DEGLEX], ids=["lex", "deglex"])
def test_normal_forms_against_a_rescaled_reduced_basis(char, order):
    B = buchberger(perms(3, 4, char), order)
    R = B[0].ring
    a, b = non_monic_scales(char)
    scaled = [(a, b, -1)[i % 3] * g for i, g in enumerate(B)]
    assert any(g.leading_coefficient(order) != 1 for g in scaled)
    monomials = [
        R.monomial([idx.count(i) for i in range(R.nvars)])
        for d in (2, 3) for idx in combinations_with_replacement(range(R.nvars), d)
    ]
    targets = monomials + [a * u - b * v + 1 for u, v in zip(monomials, monomials[7:])]
    nf, nf_scaled = reducer(B), reducer(scaled, order)
    got = [nf_scaled(f) for f in targets]
    assert got == [nf(f) for f in targets]
    assert any(r.is_zero for r in got) and not all(r.is_zero for r in got)


# -- the divisor memo: agreement with the linear scan it replaced -------------


def linear_scan_nf(work, red, ring, order):
    """Reference normal form: scan the whole table for every term."""
    g = ring.guard
    p = ring.char
    key = order.key()
    out = {}
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        for lt, _, tail in red:
            if ((m | g) - lt) & g == g:
                for tm, tc in tail:
                    k = tm + m - lt
                    v = work.get(k, 0) - c * tc
                    v = v % p if p else v
                    if v:
                        work[k] = v
                    else:
                        work.pop(k, None)
                break
        else:
            out[m] = c
    return out


def memo_polys(ring, count):
    exps = st.tuples(*[st.integers(0, 2)] * ring.nvars)
    coeff = st.integers(-4, 4).filter(bool)
    poly = st.lists(st.tuples(coeff, exps), min_size=1, max_size=4).map(ring.poly)
    return st.lists(poly.filter(lambda f: not f.is_zero), min_size=count, max_size=count)


@pytest.mark.parametrize("name", ["lex", "deglex", "revlex"])
@pytest.mark.parametrize("ring", [Ring(3), Ring(4), Ring(3, 32003), Ring(4, 32003)],
                         ids=["q3", "q4", "gfp3", "gfp4"])
@given(data=st.data())
@settings(max_examples=20, derandomize=True, deadline=None)
def test_divisor_memo_agrees_with_the_linear_scan(ring, name, data):
    order = entry_order(name, ring.nvars)
    reducers = _prepare(data.draw(memo_polys(ring, 6)), ring, order)
    targets = data.draw(memo_polys(ring, 4))
    red = []
    first = {}
    # the table grows at its end between calls, as in Buchberger
    for size in (0, 1, 3, 6):
        red.extend(reducers[len(red):size])
        for f in targets:
            want = linear_scan_nf(dict(f._d), red, ring, order)
            assert _nf_dict(dict(f._d), red, ring, order, first) == want
            # the memo only ever names a divisor or a scanned prefix
            for m, e in first.items():
                assert isinstance(e, int) and e <= len(red) or e in red


# -- the single-term phase: agreement with the general loop alone -------------


def general_loop_nf_dict(work, red, ring, order, first):
    """The reference for `_nf_dict`: its general loop alone, with no single-term phase."""
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
        if e.__class__ is int:
            if e == nred:
                out[m] = c
                continue
            zm = ((m + fill) & g) ^ g
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


def with_shorter_tails(polys, order):
    """Each poly's leading term alone and with its largest tail term only:
    duplicated leading terms with 0- and 1-term tails."""
    out = []
    for f in polys:
        terms = f.terms(order)
        out += [f.ring.poly(terms[:1]), f.ring.poly(terms[:2])]
    return out


@pytest.mark.parametrize("name", ["lex", "deglex", "revlex"])
@pytest.mark.parametrize("ring", [Ring(3), Ring(3, 32003)], ids=["q3", "gfp3"])
@given(data=st.data())
@settings(max_examples=15, derandomize=True, deadline=None)
def test_single_term_phase_agrees_with_the_general_loop(ring, name, data):
    order = entry_order(name, ring.nvars)
    polys = data.draw(memo_polys(ring, 4))  # 1 to 4 terms: tails of 0 to 3 terms
    table = polys + with_shorter_tails(polys, order)
    data.draw(st.randoms()).shuffle(table)
    red = _prepare(table, ring, order)
    terms = st.tuples(st.integers(-4, 4).filter(bool), st.tuples(*[st.integers(0, 3)] * 3))
    singles = [ring.poly([t]) for t in data.draw(st.lists(terms, min_size=6, max_size=6))]
    targets = singles + data.draw(memo_polys(ring, 4))
    # one memo shared by every call on the table, and a fresh one per call
    got_memo, want_memo = {}, {}
    for f in targets:
        want = general_loop_nf_dict(dict(f._d), red, ring, order, want_memo)
        assert _nf_dict(dict(f._d), red, ring, order, got_memo) == want
        assert got_memo == want_memo
        fresh_got, fresh_want = {}, {}
        assert _nf_dict(dict(f._d), red, ring, order, fresh_got) == want
        general_loop_nf_dict(dict(f._d), red, ring, order, fresh_want)
        assert fresh_got == fresh_want
        # over Q the coefficients stay Fractions
        assert all(type(c) is type(ring.coeff(1)) for c in want.values())


@pytest.mark.parametrize("char", [0, 32003])
def test_single_term_phase_raises_the_general_loops_overflow(char):
    # x1*x2^20000 rewrites to x2^40000 by a one-term tail (the phase) and to
    # x2^40000 + x2^20001 by a two-term tail (the general loop)
    R = Ring(2, char)
    f = parse("x1*x2^20000", R)
    for tail in ("x2^20000", "x2^20000 + x2^20001"):
        red = _prepare([parse(f"x1 - {tail}", R)], R, LEX)
        errors, memos = [], []
        for nf in (_nf_dict, general_loop_nf_dict):
            first = {}
            with pytest.raises(ValueError, match="overflow") as err:
                nf(dict(f._d), red, R, LEX, first)
            errors.append(str(err.value))
            memos.append(first)
        assert errors[0] == errors[1] and memos[0] == memos[1]


@pytest.mark.parametrize("char", [0, 32003])
def test_term_reducer_agrees_with_normal_form_on_the_default_grid(char):
    # the verifier's packed monomials {m: 1}, every quadric and cubic, against
    # the permanents under lex (lemma.reduction's table): each against the
    # linear scan on one table, and the quadrics against normal_form too
    for shape in default_grid() if char == 0 else [(2, 9), (4, 5), (5, 8)]:
        G = perms(*shape, char)
        ring = G[0].ring
        one = ring.coeff(1)
        nf, table = _term_reducer(G), _prepare(G, ring, LEX)
        for d in (2, 3):
            for exps in combinations_with_replacement(range(ring.nvars), d):
                m = sum(1 << (ring.nvars - 1 - i) * _BITS for i in exps)
                got = nf({m: one})
                assert got == linear_scan_nf({m: one}, table, ring, LEX), (shape, exps)
                if d == 2:
                    assert got == normal_form(Polynomial._raw(ring, {m: one}), G)._d


@pytest.mark.parametrize("ring", [Ring(3), Ring(3, 32003)], ids=["q3", "gfp3"])
@given(data=st.data())
@settings(max_examples=30, derandomize=True, deadline=None)
def test_exact_div_by_a_non_monic_divisor(ring, data):
    f, h = data.draw(memo_polys(ring, 2))
    c = ring.coeff(data.draw(st.sampled_from((3, -2, Fraction(2, 3)))))
    f = c * ring.inv(f.leading_coefficient()) * f
    assert f.leading_coefficient() == c != 1
    assert _exact_div(f * h, f) == h


def digest(polys):
    return hashlib.sha256("\n".join(map(str, polys)).encode()).hexdigest()[:16]


# Recorded from a linear-scan reference of this engine, in which every
# _nf_dict call gets a fresh divisor memo and _minimal_lcms is replaced by
# all_pairs_minimal_lcms below (re-derived when Buchberger began to interreduce
# its entries' tails before forming pairs, which changes the raw bases): per
# shape, field and order, the length and digest of buchberger(..., reduce=False),
# then the digests of the is_groebner witnesses with the last element and the
# middle element of that raw basis left out (None: still a Groebner basis).
RECORDED = {
    ("2x5", 0, "lex"): (22, "a4be0a0470a70d21", "8d27d434396ca838", "25673a24ab850cb9"),
    ("2x5", 0, "deglex"): (20, "284036014ba119f5", "8d27d434396ca838", "a9b4a5f307899e18"),
    ("2x5", 0, "revlex"): (18, "a9caf995743be16d", "fd53d903e7989524", "b4c95ec7576c8460"),
    ("2x5", 32003, "lex"): (22, "9d9b3a188884fe36", "8d27d434396ca838", "25673a24ab850cb9"),
    ("2x5", 32003, "deglex"): (20, "73468331cf1dd233", "8d27d434396ca838", "60d75715baf747ef"),
    ("2x5", 32003, "revlex"): (18, "679d3e3c81183910", "a6cc263dcac71dea", "b4c95ec7576c8460"),
    ("3x4", 0, "lex"): (16, "f6253331f5fb184f", "8d27d434396ca838", "aea9e98d15707f36"),
    ("3x4", 0, "deglex"): (16, "749e3937569ca10b", "8d27d434396ca838", "aea9e98d15707f36"),
    ("3x4", 0, "revlex"): (16, "6e35c081360b1903", "9b66113a98860280", "846375e56f534e5a"),
    ("3x4", 32003, "lex"): (16, "f6253331f5fb184f", "8d27d434396ca838", "7f9ad26c54199dab"),
    ("3x4", 32003, "deglex"): (16, "749e3937569ca10b", "8d27d434396ca838", "7f9ad26c54199dab"),
    ("3x4", 32003, "revlex"): (16, "b36aff2187b121ce", "d72722e204051cd0", "846375e56f534e5a"),
    ("3x5", 0, "lex"): (24, "64283fd7867b8acf", "8d27d434396ca838", "66995cda50685dbd"),
    ("3x5", 0, "deglex"): (24, "49837768b85966ed", "8d27d434396ca838", "66995cda50685dbd"),
    ("3x5", 0, "revlex"): (20, "17a575b697ecfb48", None, None),
    ("3x5", 32003, "lex"): (24, "64283fd7867b8acf", "8d27d434396ca838", "713a8f9c96c3fe37"),
    ("3x5", 32003, "deglex"): (24, "49837768b85966ed", "8d27d434396ca838", "713a8f9c96c3fe37"),
    ("3x5", 32003, "revlex"): (20, "17a575b697ecfb48", None, None),
    ("4x4", 0, "lex"): (22, "4ba7821947967c81", "8d27d434396ca838", "9801bd0ba346e170"),
    ("4x4", 0, "deglex"): (22, "f28ee080abedce2c", "8d27d434396ca838", "9801bd0ba346e170"),
    ("4x4", 0, "revlex"): (20, "c58acb680b3ea64d", "2771bd8d0b40a686", "f84ff8d2814ad2fc"),
    ("4x4", 32003, "lex"): (22, "4ba7821947967c81", "8d27d434396ca838", "5d4520bf7e96a133"),
    ("4x4", 32003, "deglex"): (22, "f28ee080abedce2c", "8d27d434396ca838", "5d4520bf7e96a133"),
    ("4x4", 32003, "revlex"): (20, "923bc141fcf51a99", "3a4fd9b04bbf7758", "bb033804925c9b6c"),
}


@pytest.mark.parametrize("shape,char,name", sorted(RECORDED), ids=lambda v: str(v))
def test_raw_bases_and_witnesses_match_the_linear_scan(shape, char, name):
    gens = perms(*map(int, shape.split("x")), char)
    order = entry_order(name, gens[0].ring.nvars)
    raw = buchberger(gens, order, reduce=False).elements
    mid = len(raw) // 2
    got = [len(raw), digest(raw)]
    for G in (raw[:-1], raw[:mid] + raw[mid + 1:]):
        ok, wit = is_groebner(G, order)
        got.append(None if ok else digest(wit))
    assert tuple(got) == RECORDED[shape, char, name]
    assert is_groebner(raw, order) == (True, None)


# -- is_groebner: agreement with the all-pairs criterion it replaced -----------


def all_pairs_is_groebner(G, order=None):
    """Reference Buchberger criterion: reduce the S-polynomial of every pair.

    The loop `is_groebner` ran before it skipped pairs with coprime leading
    terms: (flag, witness), the witness from the first failing pair (i, j)
    in G's order, coprime or not.
    """
    G, order = groebner._basis_and_order(G, order)
    spoly, nf = s_polynomials(G, order), reducer(G, order)
    for i, j in combinations(range(len(G)), 2):
        r = nf(spoly(i, j))
        if not r.is_zero:
            return False, (G[i], G[j], r)
    return True, None


def coprime_leading_terms(f, g, order):
    return not any(a and b for a, b in zip(f.leading_monomial(order), g.leading_monomial(order)))


def assert_agrees_with_all_pairs(G, order=None):
    """is_groebner(G) against the reference; returns the reference's answer.

    The flags must agree.  So must the witnesses when the reference's first
    failing pair is not coprime: is_groebner skips coprime pairs, so for
    them it may name a later pair, whose remainder is then nonzero too.
    """
    G, order = groebner._basis_and_order(G, order)
    got, want = is_groebner(G, order), all_pairs_is_groebner(G, order)
    assert got[0] == want[0]
    if not want[0]:
        f, g, r = got[1]
        assert not coprime_leading_terms(f, g, order) and not r.is_zero
        if not coprime_leading_terms(*want[1][:2], order):
            assert got == want
    return want


@pytest.mark.parametrize("shape,char,name", sorted(RECORDED), ids=lambda v: str(v))
def test_is_groebner_agrees_with_all_pairs_with_one_element_dropped(shape, char, name, monkeypatch):
    gens = perms(*map(int, shape.split("x")), char)
    order = entry_order(name, gens[0].ring.nvars)
    raw = buchberger(gens, order, reduce=False).elements
    answers = [assert_agrees_with_all_pairs(raw[:i] + raw[i + 1:], order) for i in range(len(raw))]
    assert any(not ok for ok, _ in answers)
    # among them, first failing pairs of a binomial and a monomial
    if shape != "2x5":
        assert any(not ok and 1 in (len(w[0]), len(w[1])) for ok, w in answers)
    # the pairs is_groebner forms: none of two monomial entries (raw has
    # several), none with coprime leading terms
    assert sum(len(f) == 1 for f in raw) > 2
    formed = []
    spoly = groebner._spoly_dict
    monkeypatch.setattr(
        groebner, "_spoly_dict", lambda a, b, ring: formed.append((a, b)) or spoly(a, b, ring)
    )
    for i in range(len(raw)):
        is_groebner(raw[:i] + raw[i + 1:], order)
    assert formed and all((a[2] or b[2]) and a[1] & b[1] for a, b in formed)


def all_pairs_minimal_lcms(lcms, guard):
    """Reference M-criterion: test each lcm against every kept one."""
    kept = []
    for L in lcms:
        if not any(((L | guard) - K) & guard == guard for K in kept):
            kept.append(L)
    return kept


@pytest.mark.parametrize("name", ["lex", "deglex", "revlex"])
@given(data=st.data())
@settings(max_examples=50, derandomize=True, deadline=None)
def test_minimal_lcms_agree_with_the_all_pairs_scan(name, data):
    R = Ring(4)
    order = entry_order(name, R.nvars)
    exps = st.tuples(*[st.integers(0, 3)] * R.nvars)
    lm = R.pack(data.draw(exps))
    lts = [R.pack(e) for e in data.draw(st.lists(exps, min_size=1, max_size=12))]
    lcms = sorted({R.mono_lcm(a, lm) for a in lts}, key=order.key())
    assert _minimal_lcms(lcms, lm, R.guard) == all_pairs_minimal_lcms(lcms, R.guard)


def grouped_monomial_pairs(R, order, lm, lts, tailed):
    """Reference for an entering monomial: the grouped Gebauer-Moeller update.

    Group the lcms with lm, sort them, keep the minimal ones, take each
    group's first index, drop a group with a member coprime to lm, and keep
    the pairs whose entry has a tail.
    """
    by_lcm = {}
    for i, a in enumerate(lts):
        by_lcm.setdefault(R.mono_lcm(a, lm), []).append(i)
    kept = all_pairs_minimal_lcms(sorted(by_lcm, key=order.key()), R.guard)
    return sorted(
        (by_lcm[L][0], L) for L in kept
        if by_lcm[L][0] in tailed and not any(L == lts[i] + lm for i in by_lcm[L])
    )


@pytest.mark.parametrize("name", ["lex", "deglex", "revlex"])
@given(data=st.data())
@settings(max_examples=50, derandomize=True, deadline=None)
def test_monomial_pairs_agree_with_the_grouped_update(name, data):
    R = Ring(4)
    order = entry_order(name, R.nvars)
    # half the exponents zero, so coprime leading terms are common
    exps = st.tuples(*[st.sampled_from((0, 0, 1, 3))] * R.nvars)
    lm = R.pack(data.draw(exps))
    pool = [R.pack(e) for e in data.draw(st.lists(exps, min_size=1, max_size=8))]
    lts = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=14))  # repeats
    flags = data.draw(st.lists(st.booleans(), min_size=len(lts), max_size=len(lts)))
    tailed = [i for i, f in enumerate(flags) if f]
    fill = R.guard - (R.guard >> 15)
    red = [(a, (a + fill) & R.guard, ()) for a in lts]  # entries: lt and support mask
    assert _monomial_pairs(lm, red, tailed, R.guard) == grouped_monomial_pairs(
        R, order, lm, lts, tailed
    )


# -- one reducer for many polynomials: agreement with fresh normal forms -------


@pytest.mark.parametrize("name", ["lex", "deglex", "revlex"])
@pytest.mark.parametrize("ring", [Ring(3), Ring(3, 32003)], ids=["q3", "gfp3"])
@given(data=st.data())
@settings(max_examples=20, derandomize=True, deadline=None)
def test_reducer_agrees_with_normal_form(ring, name, data):
    order = entry_order(name, ring.nvars)
    gens = data.draw(memo_polys(ring, 3))
    # exponents up to 2 in three variables: the targets share monomials,
    # so later calls read divisors the memo kept from earlier ones
    targets = data.draw(memo_polys(ring, 8))
    targets += [f * ring.var(1) for f in targets[:3]]
    # a GroebnerBasis wrapper brings its own order; the list takes it explicitly
    for G, o in ((gens, order), (GroebnerBasis(gens, order), None)):
        nf = reducer(G, o)
        table = _prepare(tuple(G), ring, order)
        for f in targets:
            got = nf(f)
            assert got == normal_form(f, G, o)
            assert got._d == linear_scan_nf(dict(f._d), table, ring, order)


def test_reducer_rejects_another_ring():
    nf = reducer(perms(2, 3))
    with pytest.raises(ValueError, match="different rings"):
        nf(Ring(4, 5).var(1))
    with pytest.raises(ValueError, match="different rings"):
        nf(Ring(5).var(1))
    assert nf(Ring(4).var(1)) == Ring(4).var(1)
