"""Invariant factors without transforms: unit pivots, then the residual
modulo one minor, checked against the U/V Smith form and a
determinantal-divisor oracle."""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanhodge.delta_complex import boundary_matrices, integral_homology, quotient_delta_complex
from fanhodge.fans import fan_system_from_dict, smooth_subdivide, two_division_subdivide
from fanhodge.linalg import Matrix, invariant_factors, rank, smith_normal_form
from dense_oracle import dense_det, is_integer, matmul, residual_invariant_factors, zeros


def snf_factors(m):
    _, d, _ = smith_normal_form(m)
    return [d[i, i] for i in range(min(m.rows, m.cols)) if d[i, i]]


def bareiss_det(rows):
    """Fraction-free determinant of a square integer matrix."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def determinantal_factors(rows):
    """d_k = D_k / D_{k-1}, with D_k the gcd of all k x k minors."""
    nr, nc = len(rows), len(rows[0])
    out, prev = [], 1
    for k in range(1, min(nr, nc) + 1):
        g = 0
        for ri in combinations(range(nr), k):
            for ci in combinations(range(nc), k):
                g = gcd(g, bareiss_det([[rows[i][j] for j in ci] for i in ri]))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def matrices(max_dim):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(-9, 9), min_size=c, max_size=c), min_size=r, max_size=r
            )
        )
    )


# Both run ``linalg._smith``, over Z and over Z/delta, so this checks the unit
# phase and the modulus rather than the loop; the determinantal divisors and
# the residual tests below check the loop against independent references.
@settings(max_examples=150, deadline=None)
@given(matrices(5))
def test_invariant_factors_match_the_smith_form_diagonal(rows):
    m = Matrix(rows)
    assert invariant_factors(m) == snf_factors(m)


@settings(max_examples=100, deadline=None)
@given(matrices(6))
def test_invariant_factors_match_determinantal_divisors(rows):
    assert invariant_factors(Matrix(rows)) == determinantal_factors(rows)


def unit_matrix(rng, rows, cols, per_column):
    """+-1 entries at ``per_column`` random rows of each column."""
    columns = []
    for _ in range(cols):
        col = [0] * rows
        for i in rng.sample(range(rows), min(per_column, rows)):
            col[i] = rng.choice((-1, 1))
        columns.append(col)
    return Matrix.from_columns(columns)


def assert_consistent(m, factors):
    """Count = rank, a divisibility chain, product = |det| when square."""
    assert len(factors) == rank(m)
    assert all(f > 0 for f in factors)
    assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
    if m.rows == m.cols and len(factors) == m.rows:
        assert prod(factors) == abs(dense_det(m))


def test_sparse_unit_matrices_against_the_smith_form():
    rng = random.Random(9001)
    non_unit = 0
    for size in (5, 10, 15, 20):
        for per_column in (2, 3):
            for rows, cols in ((size, size), (size, size - 2), (size - 3, size)):
                m = unit_matrix(rng, rows, cols, per_column)
                factors = invariant_factors(m)
                assert factors == snf_factors(m)
                non_unit += any(f > 1 for f in factors)
    assert non_unit > 0


def test_sparse_unit_matrices_up_to_60x60_with_six_per_column():
    rng = random.Random(6060)
    non_unit = 0
    for size in (30, 45, 60):
        for rows, cols in ((size, size), (size, size - 7), (size - 7, size)):
            m = unit_matrix(rng, rows, cols, 6)
            factors = invariant_factors(m)
            assert_consistent(m, factors)
            non_unit += factors[-1] > 1
    assert non_unit > 0


def test_dense_unit_matrix_of_density_one_fifth():
    # 30 x 30 at density 0.2: the U/V Smith loop did not finish on this in 60 s
    rng = random.Random(1)
    m = Matrix([[rng.choice((-1, 1)) if rng.random() < 0.2 else 0 for _ in range(30)]
                for _ in range(30)])
    factors = invariant_factors(m)
    assert_consistent(m, factors)
    assert factors[-1] > 1


def test_dense_20x20_matrices():
    rng = random.Random(2020)
    for shape in ((20, 20), (20, 17), (14, 20)):
        m = Matrix([[rng.randint(-9, 9) for _ in range(shape[1])] for _ in range(shape[0])])
        assert_consistent(m, invariant_factors(m))
    # rank-deficient: a product of 20 x 12 and 12 x 20 integer matrices
    a = Matrix([[rng.randint(-9, 9) for _ in range(12)] for _ in range(20)])
    b = Matrix([[rng.randint(-9, 9) for _ in range(20)] for _ in range(12)])
    factors = invariant_factors(matmul(a, b))
    assert len(factors) == 12
    assert_consistent(matmul(a, b), factors)


def no_unit_rows(rng, rows, cols):
    """Entries in +-[2, 30]: the unit phase finds no pivot, so the residual
    phase runs at full size."""
    return [[rng.choice((-1, 1)) * rng.randint(2, 30) for _ in range(cols)] for _ in range(rows)]


def no_unit_product(rng, size, inner):
    """A rank-deficient size x size product through ``inner`` dimensions,
    drawn again until it has no +-1 entry."""
    while True:
        rows = matmul(Matrix(no_unit_rows(rng, size, inner)),
                      Matrix(no_unit_rows(rng, inner, size))).to_lists()
        if all(abs(x) != 1 for row in rows for x in row):
            return rows


def test_residual_phase_matches_the_reference_route():
    """With no +-1 entry, all of the work is the residual phase over
    Z/delta; it must agree with the previous transform-free route and, on
    small sizes, with the determinantal divisors."""
    rng = random.Random(3030)
    full = non_unit = 0
    for size in (4, 5, 6, 8, 12, 16, 20, 25, 30):
        inputs = [no_unit_rows(rng, size, size), no_unit_rows(rng, size, size - 2),
                  no_unit_rows(rng, size - 3, size), no_unit_product(rng, size, size // 2)]
        for rows in inputs:
            assert all(abs(x) != 1 for row in rows for x in row)
            m = Matrix(rows)
            factors = invariant_factors(m)
            assert factors == residual_invariant_factors(m)
            assert_consistent(m, factors)
            if size <= 5:
                assert factors == determinantal_factors(rows)
            full += len(factors) == min(m.shape)
            non_unit += factors[-1] > 1
    assert full > 0 and non_unit > 0


def unimodular(rng, n):
    """A random n x n unimodular matrix: row additions applied to I."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i != j:
            k = rng.choice((-3, -2, -1, 1, 2, 3))
            rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
    return Matrix(rows)


def test_residual_phase_on_known_divisibility_chains():
    """U * D * V with D = diag(d_1, ..., d_r, 0, ...) and d_1 = 2, so no
    entry is +-1 and the residual phase must find a chain such as
    2 | 4 | 12 itself, through the rows it adds to a pivot row."""
    rng = random.Random(2468)
    for rows, cols in ((4, 4), (5, 3), (3, 6), (6, 6), (8, 7), (10, 12), (12, 12)):
        for _ in range(4):
            r = min(rows, cols) - rng.randint(0, 2)
            chain = [2]
            while len(chain) < r:
                chain.append(chain[-1] * rng.choice((1, 2, 3, 5)))
            d = Matrix([[chain[i] if i == j and i < r else 0 for j in range(cols)]
                        for i in range(rows)])
            m = matmul(matmul(unimodular(rng, rows), d), unimodular(rng, cols))
            assert invariant_factors(m) == chain
            assert residual_invariant_factors(m) == chain


def test_extended_gcd_must_keep_a_dividing_pivot():
    m = Matrix([[0, 2, -4, 0], [0, 4, 0, -1], [1, 0, -2, -1], [0, 1, 2, -2]])
    assert invariant_factors(m) == [1, 1, 1, 24]


def test_known_shapes():
    assert invariant_factors(zeros(0, 3)) == []
    assert invariant_factors(zeros(3, 0)) == []
    assert invariant_factors(zeros(2, 2)) == []
    assert invariant_factors(Matrix([[6, 4], [4, 6]])) == [2, 10]
    assert invariant_factors(Matrix([[Fraction(4), 2.0], [True, 0]])) == [1, 2]


@pytest.mark.parametrize("bad", [Fraction(1, 2), 0.5])
def test_non_integer_input_is_rejected(bad):
    with pytest.raises(ValueError, match="integer matrix"):
        invariant_factors(Matrix([[1, bad]]))


def test_is_integer_entry_types():
    """2.0, Fraction(4, 2) and True are integers, which ``smith_normal_form``
    takes; Fraction(1, 2) and 2.5 are not, and it refuses them."""
    for rows in ([[1, -2]], [[Fraction(4, 2), Fraction(-3)]], [[2.0]], [[True, False]]):
        m = Matrix(rows)
        assert is_integer(m)
        u, d, v = smith_normal_form(m)
        assert matmul(matmul(u, m), v) == d
    for rows in ([[Fraction(1, 2)]], [[2.5]]):
        assert not is_integer(Matrix(rows))
        with pytest.raises(ValueError, match="integer matrix"):
            smith_normal_form(Matrix(rows))


def test_integral_homology_of_the_subdivided_rank4_cone():
    rays = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 1, 1, 29]]
    fs = fan_system_from_dict(
        {"cusps": [{"name": "F", "rank": 4}], "cones": [{"cusp": "F", "rays": rays}]}
    )
    dc = quotient_delta_complex(smooth_subdivide(two_division_subdivide(fs)), "F")
    assert integral_homology(boundary_matrices(dc)) == [(1, []), (0, []), (0, []), (0, [])]
