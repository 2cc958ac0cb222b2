"""Ideal arithmetic: intersection, quotient, saturation, radical membership."""

import random
from fractions import Fraction

import pytest

from permahank import (
    DEGLEX,
    LEX,
    Case,
    HankelMatrix,
    Ideal,
    Ring,
    alphas,
    buchberger,
    colon,
    decomposition_summary,
    default_grid,
    equal,
    ideal_from_dict,
    intersect,
    parse,
    permanent_generators,
    polys_to_dict,
    radical_member,
    reducer,
    saturate,
    why_unequal,
)
from permahank import ideal_ops
from permahank.ideal_ops import (
    _colon_by_elimination,
    _revlex_basis,
    _saturate_by_colons,
    _variable_power,
)


def ideal(R, *texts):
    return Ideal(R, [parse(t, R) for t in texts])


@pytest.fixture
def R():
    return Ring(4)


@pytest.fixture
def P2(R):
    return Ideal(R, permanent_generators(HankelMatrix(2, 3)))


def strs(I):
    return [str(p) for p in I.reduced_basis().elements]


def test_ideal_construction(R):
    I = Ideal(R, [R.var(1), R.zero(), R.var(2)])
    assert len(I.generators) == 2
    assert not I.is_zero
    assert Ideal(R).is_zero
    assert not Ideal(R).is_unit
    assert Ideal(R, [R.one()]).is_unit
    with pytest.raises(ValueError):
        Ideal(R, [Ring(3).var(1)])
    # the ring comes first: a generator list in its place is refused, not
    # read as a ring with no generators
    with pytest.raises(TypeError):
        Ideal([R.var(1) * R.var(2)])
    with pytest.raises(TypeError):
        Ideal(None, [R.var(1)])


def test_membership(P2, R):
    assert parse("x2^4", R) in P2
    assert parse("x2^2*x3", R) in P2
    assert R.var(2) not in P2
    assert R.zero() in P2


def test_add_and_product(R):
    I = ideal(R, "x1")
    J = ideal(R, "x2", "x3")
    S = I + J
    assert R.var(1) in S and R.var(3) in S
    P = I * J
    assert len(P.generators) == 2
    assert parse("x1*x2", R) in P
    assert R.var(1) not in P
    # polynomials and iterables also combine
    assert R.var(4) in (I + R.var(4))
    assert R.var(4) in (I + [R.var(4)])


def test_intersection_known_value(R):
    # monomial-and-binomial instance with a hand-checkable answer
    A = ideal(R, "x1^2", "x1*x2", "x1*x3", "x2^2")
    B = ideal(R, "x2*x4", "x3^2", "x3*x4", "x4^2", "x1*x4 + x2*x3")
    got = strs(intersect(A, B))
    assert got == [
        "x1^2*x4 + x1*x2*x3",
        "x1*x2*x4",
        "x1*x3^2",
        "x1*x3*x4",
        "x2^2*x3",
        "x2^2*x4",
    ]


def test_intersection_properties(P2, R):
    A = ideal(R, "x1", "x2")
    B = ideal(R, "x3", "x4")
    C = intersect(A, B)
    assert parse("x1*x3", R) in C
    assert R.var(1) not in C
    # containment both ways and symmetry
    assert equal(C, intersect(B, A))
    for g in C.reduced_basis().elements:
        assert g in A and g in B


def test_intersection_ring_mismatch(R):
    with pytest.raises(ValueError):
        intersect(ideal(R, "x1"), Ideal(Ring(3), [Ring(3).var(1)]))


def test_colon_toy(R):
    I = ideal(R, "x1^2", "x1*x2")
    C = colon(I, R.var(1))
    assert strs(C) == ["x1", "x2"]


def test_colon_recovers_component(P2, R):
    # (P2 : x4^2) is the first component; x4^3 gives nothing more
    Q1 = [
        "x1^2",
        "x1*x2",
        "x1*x3",
        "x1*x4 + x2*x3",
        "x2^2",
        "x2*x3^2",
        "x2*x4 + x3^2",
        "x3^4",
    ]
    c2 = colon(P2, R.var(4) ** 2)
    c3 = colon(P2, R.var(4) ** 3)
    assert strs(c2) == Q1
    assert equal(c2, c3)


def test_colon_validation(P2, R):
    assert equal(colon(P2, R.const(5)), P2)
    with pytest.raises(ValueError):
        colon(P2, R.zero())
    with pytest.raises(TypeError):
        colon(P2, 3)


def test_colon_unit_ideal(R):
    U = Ideal(R, [R.one()])
    assert colon(U, R.var(1)).is_unit


def test_saturate(P2, R):
    S, n = saturate(P2, R.var(4))
    assert n == 2
    assert equal(S, colon(P2, R.var(4) ** 2))
    # non-zerodivisor: nothing happens
    S0, n0 = saturate(P2, 1 + R.var(1))
    assert n0 == 0 and equal(S0, P2)


def test_saturate_cap(P2, R, monkeypatch):
    # the cap counts colon computations; seeing stability at exponent 2
    # takes three of them.  x4 takes the reverse-lex path, x1*x4 (several
    # variables) the colons of _saturate_by_colons; both stabilize at 2
    assert ideal_ops.SATURATION_CAP == 64
    x1, x4 = R.var(1), R.var(4)
    assert _variable_power(P2, x4) is not None and _variable_power(P2, x1 * x4) is None
    for f in (x4, x1 * x4):
        monkeypatch.setattr(ideal_ops, "SATURATION_CAP", 2)
        with pytest.raises(RuntimeError, match="within 2 steps"):
            saturate(P2, f)
        monkeypatch.setattr(ideal_ops, "SATURATION_CAP", 3)
        assert saturate(P2, f)[1] == 2


def test_gtz_splitting(P2, R):
    # I = (I : f^inf)  cap  (I + (f^n))  once the colon chain stabilizes
    f = R.var(4)
    S, n = saturate(P2, f)
    assert equal(intersect(S, P2 + f**n), P2)


def test_modular_law(P2, R):
    # A cap (B + C) = B + (A cap C) whenever B sits inside A
    A, _ = saturate(P2, R.var(4))
    C = ideal(R, "x1^2")
    assert equal(intersect(A, P2 + C), P2 + intersect(A, C))


def test_radical_membership(P2, R):
    x = R.var
    assert radical_member(x(2), P2)
    assert radical_member(x(3), P2)
    assert not radical_member(x(1), P2)
    assert not radical_member(x(4), P2)
    # three terms forces the adjoined-inverse route
    assert radical_member(x(2) + x(3) + x(2) * x(3), P2)
    assert not radical_member(1 + x(2), P2)
    assert radical_member(x(1) * x(3) + x(2) ** 2, P2)


def test_radical_member_unit_and_zero(R):
    U = Ideal(R, [R.one()])
    assert radical_member(R.var(1), U)
    assert not radical_member(R.var(1), Ideal(R))
    assert radical_member(R.zero(), Ideal(R))


def test_equal_and_witness(P2, R):
    J = Ideal(R, list(P2.generators) + [parse("x2^4", R)])
    assert equal(P2, J)
    assert why_unequal(P2, J) is None
    S, _ = saturate(P2, R.var(4))
    w = why_unequal(P2, S)
    assert w is not None
    assert (w in P2) != (w in S)
    assert why_unequal(S, P2) == w
    zero = Ideal(R)
    assert why_unequal(P2, zero) == P2.generators[0]
    assert why_unequal(zero, P2) == P2.generators[0]
    assert why_unequal(zero, zero) is None
    with pytest.raises(ValueError):
        why_unequal(P2, Ideal(Ring(5), [Ring(5).var(1)]))


def test_json_round_trip(P2, R):
    doc = polys_to_dict(R, P2.generators)
    assert doc["vars"] == 4 and doc["char"] == 0 and doc["order"] == "lex"
    ring2, order2, polys2 = ideal_from_dict(doc)
    assert ring2 == R
    assert [str(p) for p in polys2] == [str(p) for p in P2.generators]


def test_json_validation():
    with pytest.raises(ValueError):
        ideal_from_dict({"vars": 0, "generators": []})
    with pytest.raises(ValueError):
        ideal_from_dict({"vars": 3, "order": "grevlex", "generators": []})
    with pytest.raises(ValueError):
        ideal_from_dict({"vars": 3, "generators": [17]})
    with pytest.raises(ValueError):
        ideal_from_dict({"generators": []})
    with pytest.raises(ValueError):
        ideal_from_dict({"vars": 3, "char": "zero", "generators": []})


def test_reduced_basis_cached(P2):
    a = P2.reduced_basis()
    assert P2.reduced_basis() is a


# -- reverse-lex fast path against the elimination reference -------------------


def lex_strs(I):
    return tuple(str(p) for p in I.reduced_basis().elements)


@pytest.mark.parametrize("char", [0, 32003])
def test_saturation_fast_path_matches_reference_on_grid(char):
    for m, n in default_grid():
        case = Case(m, n, char)
        s = decomposition_summary(case)
        f, g = case.x(case.r + 1), case.x(1)
        for tag, I, v in (("q1", case.p2, f), ("q2", case.p2 + f * f, g)):
            ref, n_ref = _saturate_by_colons(I, v)
            assert (lex_strs(s[tag]), s[f"{tag}_stab"]) == (lex_strs(ref), n_ref), (m, n, tag)


@pytest.mark.parametrize("char", [0, 32003])
def test_colon_fast_path_matches_reference(char):
    for m, n in ((3, 4), (4, 5), (5, 5)):
        P = Ideal(Ring(m + n - 1, char), permanent_generators(HankelMatrix(m, n, char)))
        for k in range(1, m + n):
            for e in (1, 2):
                f = P.ring.var(k) ** e
                assert lex_strs(colon(P, f)) == lex_strs(_colon_by_elimination(P, f)), (m, n, k, e)
                if m == 3:
                    S, s = saturate(P, f)
                    ref, s_ref = _saturate_by_colons(P, f)
                    assert (lex_strs(S), s) == (lex_strs(ref), s_ref), (m, n, k, e)


@pytest.mark.parametrize("char", [0, 32003])
def test_revlex_membership_agrees_with_the_lex_basis(char):
    # the alphas, x1*alpha and x_N*alpha, P2's generators, random
    # combinations of them, and non-members made by adding a polynomial
    # outside P2: P2 is homogeneous of degree 2, so a linear part or an
    # alpha keeps the sum out
    rng = random.Random(char)
    for m, n in default_grid():
        case = Case(m, n, char)
        x, N, P2 = case.x, case.nvars, case.p2
        gens = list(P2.generators)
        al = alphas(case) or []
        polys = al + [x(1) * a for a in al] + [x(N) * a for a in al] + gens
        combos = []
        for _ in range(6):
            f = 0
            for g in rng.sample(gens, min(3, len(gens))):
                f = f + rng.randint(-3, 3) * x(rng.randint(1, N)) ** rng.randint(0, 1) * g
            combos.append(f)
        polys += combos
        polys += [f + x(rng.randint(1, N)) for f in combos]
        polys += [f + a for f in combos for a in al[:2]]
        nf = reducer(P2.reduced_basis())
        want = [nf(f).is_zero for f in polys]
        assert True in want and False in want, (m, n)
        for k in (1, 2, N):
            nf_k = reducer(_revlex_basis(P2, k))
            assert [nf_k(f).is_zero for f in polys] == want, (m, n, k)


@pytest.mark.parametrize("char", [0, 32003])
def test_saturation_of_a_sum_starts_from_the_summands_basis(char, monkeypatch):
    # the basis of I + gens under an order extends I's cached basis under the
    # same order, and only then: the reverse-lex basis at x_k, and the lex
    # and deglex bases alike; every way gives the reference basis
    R = Ring(4, char)
    x = R.var
    I = ideal(R, "x1*x3 - x2^2", "x2*x4 - x3^2", "x1*x4 - 5*x2*x3")  # not Hankel
    runs = []

    def recording(gens, order, *args, **kwargs):
        runs.append(kwargs.get("_known", 0))
        return buchberger(gens, order, *args, **kwargs)

    monkeypatch.setattr(ideal_ops, "buchberger", recording)
    for f, k, cache_k, seeded in [
        (x(1) ** 2, 4, 4, True),
        (x(2) * x(3) + x(4) ** 2, 1, 1, True),
        (x(1) ** 2, 4, 1, False),  # I's basis is cached at another variable
        (x(4) ** 3, 2, None, False),  # I's cache is empty
    ]:
        J = Ideal(R, I.generators)
        if cache_k is not None:
            saturate(J, x(cache_k))
        runs.clear()
        got = saturate(J + f, x(k))
        assert [bool(r) for r in runs] == [seeded], (str(f), k)
        ref, s_ref = _saturate_by_colons(Ideal(R, (J + f).generators), x(k))
        assert (lex_strs(got[0]), got[1]) == (lex_strs(ref), s_ref), (str(f), k)
    f = x(2) * x(3) + x(4) ** 2
    for order, other in ((LEX, DEGLEX), (DEGLEX, LEX)):
        for cached, seeded in ((order, True), (other, False), (None, False)):
            J = Ideal(R, I.generators)
            if cached is not None:
                J.reduced_basis(cached)
            runs.clear()
            got = (J + f).reduced_basis(order)
            assert [bool(r) for r in runs] == [seeded], (order, cached)
            assert got == buchberger((J + f).generators, order), (order, cached)


@pytest.mark.parametrize("char", [0, 32003])
def test_colon_by_a_scalar_multiple(char):
    P = Ideal(Ring(6, char), permanent_generators(HankelMatrix(3, 4, char)))
    x1, x2, x3 = (P.ring.var(i) for i in (1, 2, 3))
    for f in (1 + x1, x1 * x2 + x3):
        want = colon(P, f)
        for c in (3, -2, Fraction(2, 3)):
            c = P.ring.coeff(c)
            got = colon(P, c * f)
            assert lex_strs(got) == lex_strs(want)
            # the same intersection, each generator divided by c*f instead of f
            assert [c * g for g in got.generators] == list(want.generators)


def test_fast_path_only_for_homogeneous_ideal_and_variable_power(P2, R, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("reverse-lex path taken")

    monkeypatch.setattr(ideal_ops, "_revlex_basis", refuse)
    inhom = ideal(R, "x1^2 + x2", "x1*x4")
    assert strs(colon(inhom, R.var(4))) == ["x1", "x2"]
    assert saturate(inhom, R.var(1))[1] == 1
    colon(P2, 1 + R.var(1))
    saturate(P2, R.var(2) + R.var(3))
    # a monomial of two variables stays on the reference path
    colon(P2, R.var(1) * R.var(2))
    assert saturate(P2, R.var(1) * R.var(2))[1] == 4
    monkeypatch.undo()
    monkeypatch.setattr(ideal_ops, "intersect", refuse)
    colon(P2, R.var(4) ** 2)
    colon(P2, 3 * R.var(2))
    saturate(P2, R.var(1))


@pytest.mark.parametrize("char", [0, 32003])
def test_colon_by_monomial_equals_the_chain_of_variable_colons(char, monkeypatch):
    # (I : x_a^e_a x_b^e_b) = ((I : x_a^e_a) : x_b^e_b): the elimination path
    # against a chain of reverse-lex colons, one variable at a time
    def refuse(*args, **kwargs):
        raise AssertionError("path refused")

    for m, n in ((3, 3), (3, 4), (4, 4), (2, 6)):
        case = Case(m, n, char)
        x, N, unpack = case.x, case.nvars, case.ring.unpack
        monomials = [a for a in alphas(case) or () if len(a.ring.support(*a._d)) > 1]
        monomials += [
            x(1) * x(N),
            x(2) * x(3),
            x(2) ** 2 * x(N - 1),
            3 * x(1) * x(3) * x(5),
            x(1) ** 2 * x(2) * x(N) ** 3,
        ]
        for f in monomials:
            with monkeypatch.context() as mp:
                mp.setattr(ideal_ops, "_revlex_basis", refuse)
                direct = lex_strs(colon(case.p2, f))
            (mono,) = f._d
            chain = case.p2
            with monkeypatch.context() as mp:
                mp.setattr(ideal_ops, "intersect", refuse)
                for k in case.ring.support(mono):
                    chain = colon(chain, x(k) ** unpack(mono)[k - 1])
            assert direct == lex_strs(chain), (m, n, str(f))


def test_fast_path_degree_guard_at_2_pow_15():
    R2 = Ring(2)
    ok = ideal(R2, "x1^16383*x2^16383", "x1^16382*x2^16384")  # lcm degree 32767
    for k in (1, 2):
        v = R2.var(k)
        assert strs(colon(ok, v)) == strs(_colon_by_elimination(ok, v))
    over = ideal(R2, "x1^16384*x2^16383", "x1^16383*x2^16384")  # lcm degree 32768
    with pytest.raises(ValueError, match="2\\*\\*15"):
        colon(over, R2.var(2))
    with pytest.raises(ValueError, match="2\\*\\*15"):
        saturate(ideal(R2, "x1^16384*x2^16384"), R2.var(1))


def test_degree_guard_sees_a_monomial_entering_after_an_entry_with_a_tail():
    # Under reverse-lex with x3 smallest, lt(f) = x1^d, and the monomial g
    # enters after f.  Their leading terms are coprime, so their lcm is never
    # queued: only the degree guard on an entering monomial's lcms sees it.
    R3 = Ring(3)
    g = "x2^6500*x3^6500"
    ok = ideal(R3, "x1^19767 + x2^19767", g)  # lcm degree 32767
    assert [str(h) for h in colon(ok, R3.var(3)).generators] == [
        "x1^19767 + x2^19767", "x2^6500*x3^6499",
    ]
    # x1*x3 and x1*x2 enter between f and g, so f is the only entry with a
    # tail that g meets, and Buchberger tests only f's pair with g
    over = ideal(R3, "x1^19768 + x2^19768", "x1*x3", "x1*x2", g)  # lcm degree 32768
    with pytest.raises(ValueError, match="2\\*\\*15"):
        colon(over, R3.var(3))
