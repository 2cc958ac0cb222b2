"""Hankel matrices of variables and the ideals of their 2x2 permanents."""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations

from .ring import Polynomial, Ring, _packed_variables
from .ideal_ops import Ideal


class HankelMatrix:
    """m x n matrix with entry (i, j) = x_{i+j-1} over K[x1..x_{m+n-1}].

    Shapes are normalized so that m <= n; the matrix and its transpose
    carry the same variables along anti-diagonals and generate identical
    subpermanent ideals.
    """

    __slots__ = ("m", "n", "ring")

    def __init__(self, m, n, char=0):
        if m > n:
            m, n = n, m
        if m < 2:
            raise ValueError("need at least two rows and two columns")
        self.m = m
        self.n = n
        self.ring = Ring(m + n - 1, char)

    @property
    def shape(self):
        return (self.m, self.n)

    def entry(self, i, j):
        """Entry in row i, column j (1-based): the variable x_{i+j-1}."""
        if not (1 <= i <= self.m and 1 <= j <= self.n):
            raise ValueError(f"entry ({i}, {j}) outside a {self.m}x{self.n} matrix")
        return self.ring.var(i + j - 1)

    def __repr__(self):
        return f"HankelMatrix({self.m}x{self.n}, {self.ring!r})"


def permanent(rows):
    """Permanent of a square matrix given as a sequence of rows of polynomials."""
    rows = [list(r) for r in rows]
    k = len(rows)
    if k == 0 or any(len(r) != k for r in rows):
        raise ValueError("permanent needs a nonempty square matrix")
    total = None
    for perm in permutations(range(k)):
        prod = rows[0][perm[0]]
        for i in range(1, k):
            prod = prod * rows[i][perm[i]]
        total = prod if total is None else total + prod
    return total


def subpermanents_ideal(M, r):
    """Ideal generated by all r x r subpermanents of M, duplicates dropped.

    Many choices of rows and columns repeat a polynomial because entries
    are constant along anti-diagonals; the generator list keeps the first
    occurrence in row-major enumeration order.
    """
    if not 1 <= r <= M.m:
        raise ValueError("subpermanent size must be between 1 and the row count")
    gens = []
    seen = set()
    for rows in combinations(range(1, M.m + 1), r):
        for cols in combinations(range(1, M.n + 1), r):
            p = permanent([[M.entry(i, j) for j in cols] for i in rows])
            if p not in seen:
                seen.add(p)
                gens.append(p)
    return Ideal(M.ring, gens)


@lru_cache(maxsize=None)
def permanent_index_triples(m, n):
    """Canonical (i, s, t) enumeration of the distinct 2x2 permanents.

    The 2x2 submatrix on rows i0 < i0+s and columns j0 < j0+t, with
    i = i0+j0-1, has permanent x_i*x_{i+s+t} + x_{i+s}*x_{i+t}.  Swapping
    s and t repeats the polynomial, so s <= t is kept; the admissible
    triples are s <= m-1, t <= n-1, i+s+t <= m+n-1, listed in ascending
    (i, s, t) order.  The reducer order used throughout the verification
    suite is exactly this enumeration.  Built once per shape: the tuple is
    cached.
    """
    if m > n:
        return permanent_index_triples(n, m)
    last = m + n - 1
    return tuple(
        (i, s, t)
        for i in range(1, last - 1)
        for s in range(1, m)
        for t in range(s, n)
        if i + s + t <= last
    )


def permanent_generators(M):
    """The distinct 2x2 permanents of M in canonical (i, s, t) order.

    Each is built as its two packed monomials x_i*x_(i+s+t) and
    x_(i+s)*x_(i+t), both with coefficient 1, the terms in that order.
    """
    ring = M.ring
    one = ring.coeff(1)
    x = _packed_variables(ring.nvars)  # x[i] is the packed monomial x_i
    return [
        Polynomial._raw(ring, {x[i] + x[i + s + t]: one, x[i + s] + x[i + t]: one})
        for i, s, t in permanent_index_triples(M.m, M.n)
    ]


def permanent_ideal(M):
    """The ideal of 2x2 permanents of M with the canonical generator list."""
    return Ideal(M.ring, permanent_generators(M))
