"""Ring, coefficient, monomial order and parser behavior."""

import random
from fractions import Fraction

import pytest

from permahank import (
    DEGLEX,
    LEX,
    ParseError,
    Ring,
    RingMismatchError,
    parse,
)
from permahank.ring import extend, lift, restrict


@pytest.fixture
def R():
    return Ring(5)


@pytest.fixture
def R3():
    return Ring(5, 3)


def test_ring_rejects_char_2():
    with pytest.raises(ValueError, match="characteristic 2"):
        Ring(3, 2)


def test_ring_rejects_composite_char():
    with pytest.raises(ValueError, match="prime"):
        Ring(3, 15)
    with pytest.raises(ValueError, match="prime"):
        Ring(3, -3)


def test_ring_needs_a_variable():
    with pytest.raises(ValueError):
        Ring(0)


def test_ring_equality_and_names():
    assert Ring(4) == Ring(4)
    assert Ring(4) != Ring(5)
    assert Ring(4) != Ring(4, 3)
    assert Ring(4).names == ("x1", "x2", "x3", "x4")


def test_coeff_coercion(R, R3):
    assert R.coeff(Fraction(3, 2)) == Fraction(3, 2)
    assert R3.coeff(7) == 1
    # 1/2 = 2 in GF(3) since 2*2 = 4 = 1
    assert R3.coeff(Fraction(1, 2)) == 2
    with pytest.raises(TypeError):
        R.coeff(0.5)


def test_inverse(R, R3):
    assert R.inv(Fraction(3, 2)) == Fraction(2, 3)
    assert R3.inv(2) == 2
    with pytest.raises(ZeroDivisionError):
        R3.inv(0)


def test_pack_unpack_round_trip(R):
    for exps in [(0, 0, 0, 0, 0), (1, 0, 2, 0, 3), (7, 7, 7, 7, 7), (0, 0, 0, 0, 1)]:
        assert R.unpack(R.pack(exps)) == exps


def test_pack_bounds(R):
    with pytest.raises(ValueError):
        R.pack((1, 2, 3))
    with pytest.raises(ValueError):
        R.pack((0, 0, 0, 0, 40000))
    with pytest.raises(ValueError):
        R.pack((0, 0, 0, 0, -1))


def test_monomial_division(R):
    a = R.pack((2, 1, 0, 0, 1))
    b = R.pack((1, 1, 0, 0, 0))
    q = R.mono_div(a, b)
    assert q is not None and R.unpack(q) == (1, 0, 0, 0, 1)
    # not divisible: x3 exceeds
    c = R.pack((0, 0, 1, 0, 0))
    assert R.mono_div(b, c) is None


def test_monomial_lcm_gcd(R):
    a = R.pack((2, 0, 1, 0, 0))
    b = R.pack((1, 3, 0, 0, 0))
    assert R.unpack(R.mono_lcm(a, b)) == (2, 3, 1, 0, 0)
    assert R.unpack(R.mono_gcd(a, b)) == (1, 0, 0, 0, 0)
    assert R.mono_gcd(R.pack((1, 0, 0, 0, 0)), R.pack((0, 1, 0, 0, 0))) == 0


def test_support(R):
    assert R.support(R.pack((1, 0, 2, 0, 1))) == (1, 3, 5)
    assert R.support(0) == ()


def test_lex_order(R):
    # x1 beats any power of later variables
    assert R.compare((1, 0, 0, 0, 0), (0, 9, 9, 9, 9)) == 1
    assert R.compare((1, 1, 0, 0, 0), (1, 0, 9, 0, 0)) == 1
    assert R.compare((2, 0, 0, 0, 0), (1, 5, 0, 0, 0)) == 1
    assert R.compare((1, 2, 3, 0, 0), (1, 2, 3, 0, 0)) == 0


def test_deglex_order(R):
    # degree first, lex tie-break
    assert R.compare((1, 0, 0, 0, 0), (0, 9, 0, 0, 0), DEGLEX) == -1
    assert R.compare((2, 0, 0, 0, 1), (1, 1, 1, 0, 0), DEGLEX) == 1
    assert R.compare((1, 1, 0, 0, 0), (0, 0, 0, 1, 1), DEGLEX) == 1


def test_revlex_order(R):
    # degree first, then the smaller x1, x2, ... exponent wins: x1 is smallest
    from permahank.ring import _RevlexOrder

    rev = _RevlexOrder(5)
    assert R.compare((0, 0, 0, 0, 2), (1, 0, 0, 0, 0), rev) == 1
    assert R.compare((0, 1, 0, 0, 1), (1, 0, 0, 0, 1), rev) == 1
    assert R.compare((0, 0, 2, 0, 0), (0, 1, 0, 0, 1), rev) == 1
    assert R.compare((1, 0, 0, 1, 0), (1, 0, 1, 0, 0), rev) == 1
    assert R.compare((1, 2, 3, 0, 0), (1, 2, 3, 0, 0), rev) == 0


def test_revlex_degree_guard_at_2_pow_15(R):
    from permahank.ring import _RevlexOrder

    key = _RevlexOrder(5).key()
    key(R.pack((16383, 0, 16384, 0, 0)))  # degree 32767 is in range
    with pytest.raises(ValueError, match="2\\*\\*15"):
        key(R.pack((16384, 0, 16384, 0, 0)))


def test_total_degree_is_exact_past_65535():
    R3 = Ring(3)
    f = parse("x1^32767*x2^32767*x3", R3)
    assert f.total_degree() == 65535
    assert R3.deg(R3.pack((32767, 32767, 1))) == 65535
    assert parse("x1^32767*x2^32767*x3^32767 + x1", R3).total_degree() == 98301


def test_deglex_is_exact_past_degree_65535():
    R3 = Ring(3)
    assert R3.compare((32767, 32767, 1), (0, 0, 1), DEGLEX) == 1
    assert R3.compare((32767, 32767, 2), (32767, 32767, 1), DEGLEX) == 1
    assert R3.compare((32767, 32767, 1), (0, 32767, 32767), DEGLEX) == 1
    assert R3.compare((0, 0, 1), (0, 0, 0), DEGLEX) == 1
    f = parse("x3 + x1^32767*x2^32767*x3", R3)
    assert f.leading_monomial(DEGLEX) == (32767, 32767, 1)


def test_deglex_key_degree_matches_the_exponent_sum():
    key = DEGLEX.key()
    rng = random.Random(7)
    for nvars in (1, 2, 3, 19, 4096):
        R = Ring(nvars)
        for _ in range(20):
            exps = tuple(rng.choice((0, 1, 32767, rng.randrange(32768))) for _ in range(nvars))
            assert key(R.pack(exps))[0] == sum(exps) == R.deg(R.pack(exps))
        top = (32767,) * nvars
        assert key(R.pack(top))[0] == 32767 * nvars


def test_ring_size_is_bounded():
    with pytest.raises(ValueError, match="4096"):
        Ring(4097)


def test_product_overflow_raises():
    R2 = Ring(2)
    assert str(parse("x2^16383", R2) * parse("x2^16384", R2)) == "x2^32767"
    assert str(parse("x1^32767", R2) * parse("x2^32767", R2)) == "x1^32767*x2^32767"
    with pytest.raises(ValueError, match="overflow"):
        parse("x2^16384", R2) * parse("x2^16384", R2)
    with pytest.raises(ValueError, match="overflow"):
        parse("x2^32767", R2) ** 3
    with pytest.raises(ValueError, match="overflow"):
        parse("x1^32767 + x2", R2) * parse("x1 + 1", R2)  # the top field too
    assert str(parse("x2^10922", R2) ** 3) == "x2^32766"


def test_order_validation():
    from permahank.ring import MonomialOrder

    with pytest.raises(ValueError):
        MonomialOrder("weird")
    with pytest.raises(TypeError):
        MonomialOrder("lex", 2)


def test_variable_construction(R):
    assert str(R.var(1)) == "x1"
    assert str(R.var(5)) == "x5"
    with pytest.raises(ValueError):
        R.var(0)
    with pytest.raises(ValueError):
        R.var(6)


def test_arithmetic_identities(R):
    x1, x2 = R.var(1), R.var(2)
    f = (x1 + x2) ** 2
    assert f == x1**2 + 2 * x1 * x2 + x2**2
    assert (x1 - x1).is_zero
    assert x1 * 0 == R.zero()
    assert (x1 + 1) * (x1 - 1) == x1**2 - 1


def test_char_p_arithmetic(R3):
    x1, x2 = R3.var(1), R3.var(2)
    # freshman's dream in characteristic 3
    assert (x1 + x2) ** 3 == x1**3 + x2**3
    assert 3 * x1 == R3.zero()


def test_scalar_coercion(R):
    x1 = R.var(1)
    assert x1 + Fraction(1, 2) == x1 + R.const(Fraction(1, 2))
    assert 2 - x1 == -(x1 - 2)
    with pytest.raises(TypeError):
        x1 + 0.5


def test_cross_ring_mixing_fails(R, R3):
    with pytest.raises(RingMismatchError):
        R.var(1) + R3.var(1)


def test_power_edge_cases(R):
    x1 = R.var(1)
    assert x1**0 == R.one()
    assert R.zero() ** 0 == R.one()
    with pytest.raises(ValueError):
        x1 ** (-1)


def test_total_degree(R):
    x1, x5 = R.var(1), R.var(5)
    assert (x1**2 * x5 + x5**2).total_degree() == 3
    assert R.zero().total_degree() == -1
    assert R.one().total_degree() == 0


def test_leading_data_by_order(R):
    x1, x2 = R.var(1), R.var(2)
    f = x1 + x2**3
    assert f.leading_monomial(LEX) == (1, 0, 0, 0, 0)
    assert f.leading_monomial(DEGLEX) == (0, 3, 0, 0, 0)
    assert f.leading_coefficient() == 1
    with pytest.raises(ValueError):
        R.zero().leading_term()


def test_coefficient_accessor(R):
    f = 3 * R.var(1) * R.var(2) - R.var(3)
    assert f.coefficient((1, 1, 0, 0, 0)) == 3
    assert f.coefficient((0, 0, 1, 0, 0)) == -1
    assert f.coefficient((0, 0, 0, 0, 1)) == 0


def test_hash_and_dict_keys(R):
    f = R.var(1) + R.var(2)
    g = R.var(2) + R.var(1)
    assert f == g and hash(f) == hash(g)
    assert {f: 1}[g] == 1


def test_format_basics(R):
    x1, x2, x3 = R.var(1), R.var(2), R.var(3)
    assert str(x1 * x3 + x2**2) == "x1*x3 + x2^2"
    assert str(-(x3**2)) == "-x3^2"
    assert str(x1 - x2) == "x1 - x2"
    assert str(R.zero()) == "0"
    assert str(R.one()) == "1"
    assert str(R.const(Fraction(3, 2)) * x1) == "3/2*x1"
    assert str(x1 - 1) == "x1 - 1"


def test_format_respects_order(R):
    f = R.var(1) + R.var(2) ** 3
    assert f.format(LEX) == "x1 + x2^3"
    assert f.format(DEGLEX) == "x2^3 + x1"


def test_parse_round_trip(R):
    for text in [
        "x1*x3 + x2^2",
        "x1^2*x2 - 3*x3 + 1",
        "-x1 + 2",
        "3/2*x1^2 - 1/3",
        "0",
        "7",
    ]:
        assert str(parse(text, R)) == text


def test_parse_combines_like_terms(R):
    assert parse("x1 + x1", R) == 2 * R.var(1)
    assert parse("x1 - x1", R) == R.zero()
    assert parse("x2*x1", R) == R.var(1) * R.var(2)


def test_parse_char_p(R3):
    assert parse("4*x1", R3) == R3.var(1)
    assert parse("3*x1", R3) == R3.zero()
    assert parse("1/2*x1", R3) == 2 * R3.var(1)


def test_parse_errors_carry_position(R):
    with pytest.raises(ParseError) as e:
        parse("x1 + x9", R)
    assert e.value.position == 5
    with pytest.raises(ParseError):
        parse("x1 +", R)
    with pytest.raises(ParseError):
        parse("1.5*x1", R)
    with pytest.raises(ParseError):
        parse("x1 x2", R)
    with pytest.raises(ParseError):
        parse("+x1", R)
    with pytest.raises(ParseError):
        parse("", R)
    with pytest.raises(ParseError):
        parse("x1^a", R)
    with pytest.raises(ParseError):
        parse("1/0", R)
    with pytest.raises(ParseError):
        parse("x0", R)


def test_extend_lift_restrict(R):
    ext = extend(R, ("t",))
    assert ext.nvars == 6
    assert ext.names[0] == "t"
    f = R.var(1) * R.var(5) + 2
    assert restrict(lift(f, ext), R) == f
    # lifted polynomials multiply with the auxiliary variable
    t = ext.var(1)
    g = t * lift(f, ext)
    assert g.total_degree() == f.total_degree() + 1
    with pytest.raises(ValueError):
        extend(R, ("x1",))
