"""Cross-check reduced Groebner bases against sympy, an independent engine.

sympy is an optional test dependency: the module is skipped when it is not
installed, and nothing in permahank imports it.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

sympy = pytest.importorskip("sympy")

from permahank import (  # noqa: E402
    DEGLEX, LEX, HankelMatrix, Ring, buchberger, permanent_generators,
)
from permahank.ring import _RevlexOrder  # noqa: E402
from test_groebner import assert_agrees_with_all_pairs  # noqa: E402

# sympy's names for the same orders: x1 largest, grlex compares degree first;
# the reverse-lex order makes x1 smallest, which is grevlex on x_N, ..., x1
SYMPY_ORDER = {LEX: "lex", DEGLEX: "grlex"}
PRIME = 32003


def sympy_basis(gens, order):
    """The reduced basis sympy computes, as a set of permahank polynomials."""
    ring = gens[0].ring
    xs = sympy.symbols(ring.names)
    step = -1 if isinstance(order, _RevlexOrder) else 1  # sympy's variables x_N first
    domain = sympy.GF(ring.char) if ring.char else sympy.QQ
    polys = [
        sympy.Poly.from_dict(
            {ring.unpack(m)[::step]: int(c) if ring.char
             else sympy.Rational(c.numerator, c.denominator)
             for m, c in g._d.items()},
            *xs[::step],
            domain=domain,
        )
        for g in gens
    ]
    G = sympy.groebner(polys, *xs[::step], order=SYMPY_ORDER.get(order, "grevlex"), domain=domain)
    out = set()
    for p in G.polys:
        # GF(p) elements convert through int; rationals through their text
        out.add(ring.poly([(int(c) if ring.char else Fraction(str(c)), e[::step])
                           for e, c in p.terms()]))
    return out


@pytest.mark.parametrize("order", [LEX, DEGLEX], ids=["lex", "deglex"])
@pytest.mark.parametrize("char", [0, PRIME])
@pytest.mark.parametrize("shape", [(3, 4), (3, 5), (4, 5)], ids=lambda s: f"{s[0]}x{s[1]}")
def test_permanental_bases_agree_with_sympy(shape, char, order):
    gens = permanent_generators(HankelMatrix(*shape, char))
    ours = buchberger(gens, order).elements
    assert len(set(ours)) == len(ours)
    assert set(ours) == sympy_basis(gens, order)


def small_ideals(ring):
    term = st.tuples(st.integers(-3, 3), st.tuples(*[st.integers(0, 2)] * ring.nvars))
    poly = st.lists(term, min_size=1, max_size=3).map(ring.poly)
    return st.lists(poly, min_size=2, max_size=4)


R3 = Ring(3)
R3P = Ring(3, PRIME)


@pytest.mark.parametrize("order", [LEX, DEGLEX], ids=["lex", "deglex"])
@pytest.mark.parametrize("ring", [R3, R3P], ids=["q", "gfp"])
@given(data=st.data())
@settings(max_examples=20, derandomize=True, deadline=None)
def test_small_ideals_agree_with_sympy(ring, order, data):
    gens = [g for g in data.draw(small_ideals(ring)) if not g.is_zero]
    assume(gens)
    assert set(buchberger(gens, order).elements) == sympy_basis(gens, order)


# The inputs of the entry-phase tests in test_groebner.py: same-degree
# generators with many redundant ones, and mixed degrees where an earlier
# generator's leading term is a multiple of a later one's.
ORDER_NAMES = ["lex", "deglex", "revlex"]


def order_named(name, nvars):
    return {"lex": LEX, "deglex": DEGLEX}.get(name) or _RevlexOrder(nvars)


@pytest.mark.parametrize("name", ORDER_NAMES)
@pytest.mark.parametrize("char", [0, PRIME])
@pytest.mark.parametrize("shape", [(3, 4), (4, 5), (2, 6)], ids=lambda s: f"{s[0]}x{s[1]}")
def test_bases_of_p2_and_p2_plus_xn_squared_agree_with_sympy(shape, char, name):
    gens = permanent_generators(HankelMatrix(*shape, char))
    R = gens[0].ring
    order = order_named(name, R.nvars)
    for G in (gens, gens + [R.var(R.nvars) ** 2]):
        assert set(buchberger(G, order).elements) == sympy_basis(G, order)


@pytest.mark.parametrize("name", ORDER_NAMES)
@pytest.mark.parametrize("char", [0, PRIME])
def test_mixed_degree_bases_agree_with_sympy(char, name):
    R = Ring(3, char)
    order = order_named(name, 3)
    a, b, c = (R.var(i) for i in ((3, 2, 1) if name == "revlex" else (1, 2, 3)))
    f, g, h = a**2 * b + c**3, a * b - c**2, a**2 * b + a * b * c
    k = c**3 + a * b * c + b**2 * c
    for gens in ([f, g], [h, g], [h, g, k], [h, g, f + 1]):
        assert set(buchberger(gens, order).elements) == sympy_basis(gens, order)


def monomial_heavy_ideals(ring):
    """Monomials mixed with binomials and trinomials, in shuffled order."""
    exps = st.tuples(*[st.integers(0, 3)] * ring.nvars)
    mono = exps.map(ring.monomial)
    term = st.tuples(st.integers(-3, 3).filter(bool), exps)
    poly = st.lists(term, min_size=2, max_size=3).map(ring.poly)
    return st.tuples(
        st.lists(mono, min_size=2, max_size=5), st.lists(poly, min_size=1, max_size=3)
    ).flatmap(lambda t: st.permutations(t[0] + t[1]))


@pytest.mark.parametrize("name", ORDER_NAMES)
@pytest.mark.parametrize("ring", [R3, R3P, Ring(4), Ring(4, PRIME)], ids=["q3", "gfp3", "q4", "gfp4"])
@given(data=st.data())
@settings(max_examples=15, derandomize=True, deadline=None)
def test_monomial_heavy_ideals_agree_with_the_reference_and_sympy(ring, name, data):
    # Buchberger queues no pair of two monomial entries; the raw basis must
    # still be a Groebner basis, and the reduced one what every pair gives
    gens = [g for g in data.draw(monomial_heavy_ideals(ring)) if not g.is_zero]
    order = order_named(name, ring.nvars)
    assert assert_agrees_with_all_pairs(buchberger(gens, order, reduce=False)) == (True, None)
    B = buchberger(gens, order)
    assert B == buchberger(gens, order, use_chain=False)
    assert set(B.elements) == sympy_basis(gens, order)
