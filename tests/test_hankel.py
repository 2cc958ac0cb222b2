"""Hankel matrices, permanents, and the canonical generator enumeration."""

import pytest

from permahank import (
    HankelMatrix,
    Ring,
    default_grid,
    permanent,
    permanent_generators,
    permanent_ideal,
    permanent_index_triples,
    subpermanents_ideal,
)


def test_entries():
    M = HankelMatrix(2, 3)
    assert str(M.entry(1, 1)) == "x1"
    assert str(M.entry(2, 3)) == "x4"
    assert M.entry(1, 2) == M.entry(2, 1)
    with pytest.raises(ValueError):
        M.entry(3, 1)
    with pytest.raises(ValueError):
        M.entry(0, 1)


def test_shape_normalization():
    assert HankelMatrix(4, 3).shape == (3, 4)
    assert HankelMatrix(3, 4).ring == HankelMatrix(4, 3).ring
    with pytest.raises(ValueError):
        HankelMatrix(1, 5)


def test_permanent_2x2():
    M = HankelMatrix(2, 3)
    rows = [[M.entry(1, 1), M.entry(1, 2)], [M.entry(2, 1), M.entry(2, 2)]]
    assert str(permanent(rows)) == "x1*x3 + x2^2"


def test_permanent_all_ones():
    R = Ring(1)
    one = R.one()
    assert permanent([[one] * 3 for _ in range(3)]) == 6 * one


def test_permanent_3x3_hankel():
    M = HankelMatrix(3, 3)
    rows = [[M.entry(i, j) for j in (1, 2, 3)] for i in (1, 2, 3)]
    assert str(permanent(rows)) == "x1*x3*x5 + x1*x4^2 + x2^2*x5 + 2*x2*x3*x4 + x3^3"


def test_permanent_rejects_non_square():
    M = HankelMatrix(2, 3)
    with pytest.raises(ValueError):
        permanent([[M.entry(1, 1), M.entry(1, 2)]])
    with pytest.raises(ValueError):
        permanent([])


def test_generator_counts():
    # deduplicated 2x2 subpermanents for small shapes
    for (m, n), count in [((2, 3), 3), ((3, 3), 6), ((3, 4), 12), ((6, 7), 105)]:
        M = HankelMatrix(m, n)
        gens = permanent_generators(M)
        assert len(gens) == count
        assert len(permanent_index_triples(m, n)) == count


def test_generator_enumeration_order():
    got = [str(g) for g in permanent_generators(HankelMatrix(2, 3))]
    assert got == ["x1*x3 + x2^2", "x1*x4 + x2*x3", "x2*x4 + x3^2"]


def test_index_form_matches_submatrix_form():
    for m, n in [(2, 4), (3, 3), (3, 5), (4, 4)]:
        M = HankelMatrix(m, n)
        a = permanent_generators(M)
        b = subpermanents_ideal(M, 2).generators
        # same polynomials, and dedup leaves the same count
        assert set(a) == set(b)
        assert len(a) == len(b)


def test_duplicates_are_dropped_keep_first():
    # nine submatrices of the 3x3 produce only 6 distinct permanents
    M = HankelMatrix(3, 3)
    gens = subpermanents_ideal(M, 2).generators
    assert len(gens) == 6
    assert len(set(gens)) == 6


def test_subpermanents_sizes():
    M = HankelMatrix(3, 4)
    ones = subpermanents_ideal(M, 1).generators
    # size-1 subpermanents are the entries, deduplicated along antidiagonals
    assert [str(p) for p in ones] == [f"x{i}" for i in range(1, 7)]
    cubes = subpermanents_ideal(M, 3).generators
    assert len(cubes) == 4
    with pytest.raises(ValueError):
        subpermanents_ideal(M, 4)
    with pytest.raises(ValueError):
        subpermanents_ideal(M, 0)


def test_permanent_ideal_wrapper():
    M = HankelMatrix(2, 3)
    I = permanent_ideal(M)
    assert I.ring is M.ring
    assert list(I.generators) == permanent_generators(M)


def test_char_p_generators():
    M = HankelMatrix(2, 3, char=5)
    assert M.ring.char == 5
    assert [str(g) for g in permanent_generators(M)] == [
        "x1*x3 + x2^2",
        "x1*x4 + x2*x3",
        "x2*x4 + x3^2",
    ]


def test_triples_all_within_range():
    for m, n in [(2, 3), (3, 5), (5, 6)]:
        last = m + n - 1
        for i, s, t in permanent_index_triples(m, n):
            assert 1 <= i and 1 <= s < m + 1 and s <= t <= n - 1
            assert i + s + t <= last


def test_triples_are_built_once_per_shape():
    triples = permanent_index_triples(3, 5)
    assert isinstance(triples, tuple)
    assert permanent_index_triples(3, 5) is triples
    assert permanent_index_triples(5, 3) is triples


@pytest.mark.parametrize("char", [0, 32003])
def test_direct_permanents_match_the_arithmetic_construction(char):
    for m, n in default_grid() + [(2, 23), (8, 13), (12, 13)]:
        M = HankelMatrix(m, n, char)
        x = M.ring.var
        direct = permanent_generators(M)
        built = [
            x(i) * x(i + s + t) + x(i + s) * x(i + t)
            for i, s, t in permanent_index_triples(m, n)
        ]
        # term for term, in dict order, coefficient types included
        assert [list(g._d.items()) for g in direct] == [list(g._d.items()) for g in built]
        assert [type(c) for g in direct for c in g._d.values()] == [
            type(c) for g in built for c in g._d.values()
        ]
        assert set(direct) == set(subpermanents_ideal(M, 2).generators)
