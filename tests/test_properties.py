"""Property-based invariants for orders, arithmetic, reduction and ideal ops.

Runs derandomized so the suite is reproducible; each property states an
algebraic law the engine must satisfy for all inputs, not a frozen value.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from permahank import (
    DEGLEX,
    LEX,
    HankelMatrix,
    Ideal,
    Ring,
    buchberger,
    colon,
    equal,
    intersect,
    normal_form,
    parse,
    permanent_generators,
    radical_member,
    rewrite_monomial_indices,
    saturate,
)
from permahank.groebner import _minimal_indices
from permahank.ring import _RevlexOrder
from permahank.verify import _bounded_s_polynomials


def compare(R, a, b, order=LEX):
    """Compare two exponent tuples by the order's key: -1, 0 or 1."""
    key = order.key()
    ka, kb = key(R.pack(a)), key(R.pack(b))
    return (ka > kb) - (ka < kb)


settings.register_profile("suite", derandomize=True, max_examples=25, deadline=None)
settings.load_profile("suite")

NV = 4
R = Ring(NV)
R5 = Ring(NV, 5)

exps4 = st.tuples(*[st.integers(0, 6)] * NV)
small4 = st.tuples(*[st.integers(0, 3)] * NV)


def polys(ring, max_terms=5, max_exp=4):
    term = st.tuples(
        st.integers(-5, 5), st.tuples(*[st.integers(0, max_exp)] * ring.nvars)
    )
    return st.lists(term, max_size=max_terms).map(ring.poly)


GB23 = buchberger(permanent_generators(HankelMatrix(2, 3)))
I23 = Ideal(R, permanent_generators(HankelMatrix(2, 3)))


# -- monomial orders -----------------------------------------------------------


@pytest.mark.parametrize("order", [LEX, DEGLEX, _RevlexOrder(NV)])
class TestOrderAxioms:
    @given(a=exps4, b=exps4)
    def test_antisymmetry(self, order, a, b):
        assert compare(R, a, b, order) == -compare(R, b, a, order)
        assert (compare(R, a, b, order) == 0) == (a == b)

    @given(a=exps4, b=exps4, c=exps4)
    def test_transitivity(self, order, a, b, c):
        if compare(R, a, b, order) >= 0 and compare(R, b, c, order) >= 0:
            assert compare(R, a, c, order) >= 0

    @given(a=small4, b=small4, c=small4)
    def test_multiplication_compatible(self, order, a, b, c):
        ac = tuple(x + y for x, y in zip(a, c))
        bc = tuple(x + y for x, y in zip(b, c))
        assert compare(R, a, b, order) == compare(R, ac, bc, order)

    @given(a=exps4)
    def test_one_is_minimal(self, order, a):
        assert compare(R, a, (0,) * NV, order) >= 0


@given(a=exps4, b=exps4)
def test_deglex_ranks_degree_first(a, b):
    if sum(a) != sum(b):
        assert (compare(R, a, b, DEGLEX) > 0) == (sum(a) > sum(b))


@given(a=exps4, b=exps4)
def test_revlex_matches_its_definition(a, b):
    # degree first; on a tie the first differing exponent from x1 up
    # decides, and the smaller exponent wins (x1 is the smallest variable)
    got = compare(R, a, b, _RevlexOrder(NV))
    if sum(a) != sum(b):
        assert got == (1 if sum(a) > sum(b) else -1)
    else:
        diff = [y - x for x, y in zip(a, b) if x != y]
        assert got == (0 if not diff else (1 if diff[0] > 0 else -1))


def revlex_tuple_key(nvars):
    """The reverse-lex key as the tuple (degree, -prefix sums): the reference.

    `_RevlexOrder`'s key packs the same two numbers into one int, the
    degree above bit 16 * nvars and the prefix sums below it.
    """
    ones = sum(1 << (16 * i) for i in range(nvars))
    shift = 16 * nvars
    return lambda m: (m % 0xFFFF, -((m * ones) >> shift))


def sign(x, y):
    return (x > y) - (x < y)


@pytest.mark.parametrize("nvars", [1, 4, 9])
@given(data=st.data())
def test_revlex_int_key_orders_as_the_tuple_key(nvars, data):
    # exponents small enough to tie in degree often, or as large as a degree
    # below 2**15 allows; a permutation of a has a's degree
    ring = Ring(nvars)
    exps = st.tuples(*[st.integers(0, 3) | st.integers(0, 32767 // nvars)] * nvars)
    a, b = data.draw(exps), data.draw(exps)
    c = tuple(data.draw(st.permutations(a)))
    new, ref = _RevlexOrder(nvars).key(), revlex_tuple_key(nvars)
    for u, v in ((a, b), (a, c), (c, b), (a, a)):
        mu, mv = ring.pack(u), ring.pack(v)
        assert sign(new(mu), new(mv)) == sign(ref(mu), ref(mv)), (u, v)


@given(a=exps4, b=exps4)
def test_elim_block_dominates(a, b):
    # lex eliminates every block of leading variables: a monomial using
    # one of x1..xk beats every monomial avoiding them (k = 1, 2 here).
    # intersect relies on this to drop its auxiliary variable t.
    if a[0] > 0 and b[0] == 0:
        assert compare(R, a, b, LEX) == 1
    if a[0] + a[1] > 0 and b[0] + b[1] == 0:
        assert compare(R, a, b, LEX) == 1


# -- packed monomial kernel ----------------------------------------------------


@given(a=exps4)
def test_pack_round_trip(a):
    assert R.unpack(R.pack(a)) == a
    assert R.deg(R.pack(a)) == sum(a)


@given(a=exps4, b=exps4)
def test_mono_div(a, b):
    q = R.mono_div(R.pack(a), R.pack(b))
    if all(x >= y for x, y in zip(a, b)):
        assert q is not None
        assert R.unpack(q) == tuple(x - y for x, y in zip(a, b))
    else:
        assert q is None


@given(a=exps4, b=exps4)
def test_lcm_gcd_complementary(a, b):
    L = R.unpack(R.mono_lcm(R.pack(a), R.pack(b)))
    G = R.unpack(R.mono_gcd(R.pack(a), R.pack(b)))
    assert L == tuple(max(x, y) for x, y in zip(a, b))
    assert G == tuple(min(x, y) for x, y in zip(a, b))
    assert tuple(l + g for l, g in zip(L, G)) == tuple(x + y for x, y in zip(a, b))


# -- ring arithmetic -----------------------------------------------------------


@given(f=polys(R), g=polys(R), h=polys(R))
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f - f == R.zero()
    assert f * R.one() == f
    assert f * R.zero() == R.zero()


@given(f=polys(R5), g=polys(R5))
def test_char_p_arithmetic_closed(f, g):
    for p in (f + g, f * g, f - g):
        for c, _ in p.terms():
            assert 0 < c < 5


@given(f=polys(R))
def test_parse_format_round_trip(f):
    assert parse(str(f), R) == f


@given(f=polys(R5))
def test_parse_format_round_trip_char_p(f):
    assert parse(str(f), R5) == f


@given(f=polys(R, max_terms=3, max_exp=2), e=st.integers(0, 4))
def test_power_matches_repeated_product(f, e):
    expected = R.one()
    for _ in range(e):
        expected = expected * f
    assert f**e == expected


@given(f=polys(R), g=polys(R))
def test_degree_of_product(f, g):
    if not f.is_zero and not g.is_zero:
        assert (f * g).total_degree() == f.total_degree() + g.total_degree()


# -- normal form against a fixed basis ------------------------------------------


@given(f=polys(R, max_terms=4, max_exp=3))
def test_nf_idempotent(f):
    r = normal_form(f, GB23)
    assert normal_form(r, GB23) == r


@given(f=polys(R, max_terms=4, max_exp=3), g=polys(R, max_terms=4, max_exp=3))
def test_nf_additive_on_groebner_basis(f, g):
    assert normal_form(f + g, GB23) == normal_form(f, GB23) + normal_form(g, GB23)


@given(f=polys(R, max_terms=4, max_exp=3))
def test_nf_difference_in_ideal(f):
    assert (f - normal_form(f, GB23)) in I23


@given(
    coefs=st.lists(
        st.tuples(st.integers(-3, 3), small4, st.integers(0, 6)),
        min_size=1,
        max_size=4,
    )
)
def test_ideal_combinations_reduce_to_zero(coefs):
    f = R.zero()
    for c, e, i in coefs:
        f = f + c * R.monomial(e) * GB23.elements[i % len(GB23.elements)]
    assert normal_form(f, GB23).is_zero
    assert f in I23


# -- ideal operations ------------------------------------------------------------


gens_st = st.lists(polys(R, max_terms=2, max_exp=2), min_size=1, max_size=3)


@given(a=gens_st, b=gens_st)
@settings(max_examples=15)
def test_intersection_contained_in_both(a, b):
    I, J = Ideal(R, a), Ideal(R, b)
    C = intersect(I, J)
    for g in C.reduced_basis().elements:
        assert g in I and g in J
    # and it absorbs products of the generators
    for f in a:
        for h in b:
            assert f * h in C


@given(a=gens_st, f=polys(R, max_terms=2, max_exp=2))
@settings(max_examples=15)
def test_colon_containments(a, f):
    assume(not f.is_zero)
    I = Ideal(R, a)
    C = colon(I, f)
    for g in I.reduced_basis().elements:
        assert g in C
    for g in C.reduced_basis().elements:
        assert g * f in I


@given(a=gens_st, i=st.integers(1, NV))
@settings(max_examples=10)
def test_gtz_splitting(a, i):
    I = Ideal(R, a)
    f = R.var(i)
    S, n = saturate(I, f)
    assert equal(intersect(S, I + f ** max(n, 1)), I)


@given(a=gens_st, f=polys(R, max_terms=2, max_exp=2))
@settings(max_examples=10)
def test_radical_membership_is_radical(a, f):
    I = Ideal(R, a)
    assert radical_member(f, I) == radical_member(f * f, I)
    if f in I:
        assert radical_member(f, I)


@given(perm=st.permutations(range(6)))
@settings(max_examples=10)
def test_reduced_basis_invariant_under_generator_order(perm):
    gens = permanent_generators(HankelMatrix(3, 3))
    want = buchberger(gens).elements
    assert buchberger([gens[i] for i in perm]).elements == want


# -- minimal leading terms -------------------------------------------------------

R6 = Ring(6)


@pytest.mark.parametrize("order", [LEX, _RevlexOrder(6), _RevlexOrder(6, 4)])
@given(
    pool=st.lists(st.tuples(*[st.integers(0, 2)] * 6), min_size=1, max_size=12),
    picks=st.lists(st.integers(0, 11), min_size=1, max_size=40),
)
def test_minimal_indices_match_the_plain_scan(order, pool, picks):
    # drawn from a small pool, so equal leading terms recur; index i is kept
    # exactly when no other term divides lt i, save an equal one after i
    lts = [R6.pack(pool[k % len(pool)]) for k in picks]
    scan = [
        i for i, a in enumerate(lts)
        if not any(
            R6.mono_div(a, b) is not None and (b != a or j < i)
            for j, b in enumerate(lts) if j != i
        )
    ]
    assert _minimal_indices(lts, order, R6.guard) == scan


# -- the bound lemma's pair check --------------------------------------------------

def _near_permanent(its):
    """x_i*x_(i+s+t) + x_(i+s)*x_(i+t+d): a permanent of R6 for d = 0, and one
    with a wrong index otherwise."""
    i, s, t, d = its
    u = tuple(int(k == i) + int(k == i + s + t) for k in range(1, 7))
    v = tuple(int(k == i + s) + int(k == i + t + d) for k in range(1, 7))
    return _sorted_pair((u, v))


def _sorted_pair(ab):
    return tuple(sorted(map(R6.pack, ab), reverse=True))  # lex: the larger leads


binomial_terms = st.one_of(
    st.tuples(st.integers(1, 4), st.integers(1, 2), st.integers(1, 2), st.integers(-1, 1))
    .filter(lambda its: its[0] + its[1] + its[2] <= 6)
    .map(_near_permanent),
    st.tuples(st.tuples(*[st.integers(0, 3)] * 6), st.tuples(*[st.integers(0, 3)] * 6))
    .map(_sorted_pair),
).filter(lambda uv: uv[0] != uv[1])


@given(pairs=st.lists(binomial_terms, min_size=2, max_size=10), lo=st.integers(4, 12),
       width=st.integers(0, 8))
def test_bound_check_matches_both_terms_read_per_pair(pairs, lo, width):
    # the per-generator degree and index-sum shifts decide each pair as
    # reading the degree and index sum of both s and t does, on permanents,
    # permanents with a wrong index, and unit binomials of any degree
    hi = lo + width
    bounded = _bounded_s_polynomials(R6, pairs, lo, hi)

    def isum(m):
        return sum(k * e for k, e in enumerate(R6.unpack(m), 1))

    for a in range(len(pairs)):
        for b in range(a + 1, len(pairs)):
            (ua, va), (ub, vb) = pairs[a], pairs[b]
            L = R6.mono_lcm(ua, ub)
            s, t = L - ua + va, L - ub + vb
            want = s == t or (
                R6.deg(s) == 3 == R6.deg(t) and isum(s) == isum(t) and lo <= isum(s) <= hi
            )
            assert bounded(a, b) == want


# -- rewriting oracle -------------------------------------------------------------


@given(idx=st.lists(st.integers(1, 7), min_size=2, max_size=3))
def test_rewrite_preserves_weight_and_terminates(idx):
    sign, final = rewrite_monomial_indices(3, 5, idx)
    assert sign in (1, -1)
    assert sum(final) == sum(idx)
    assert len(final) == len(idx)
    # fixpoints stay fixed with positive sign
    assert rewrite_monomial_indices(3, 5, final) == (1, final)


@given(idx=st.lists(st.integers(1, 7), min_size=2, max_size=2))
def test_rewrite_pairs_reach_the_middle(idx):
    _, final = rewrite_monomial_indices(3, 5, idx)
    w = sum(idx)
    assert final == ((w // 2, w - w // 2) if w % 2 else (w // 2, w // 2))
