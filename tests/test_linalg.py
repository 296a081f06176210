"""Exact linear algebra: SNF/rank against an independent elimination oracle."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanhodge.linalg import (
    Matrix,
    _det,
    invariant_factors,
    inverse,
    primitivize,
    rank,
    smith_normal_form,
)
import dense_oracle
from dense_oracle import dense_det, is_zero, matmul, rational_kernel_basis, solve, zeros


def oracle_rref(rows):
    """Reduced row echelon form by plain Fraction Gauss-Jordan, written
    independently of the library implementation.

    Returns (rref rows, pivot columns, determinant); the determinant is
    meaningful for square input only.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    nrows, ncols = len(m), len(m[0]) if m else 0
    pivots = []
    d = Fraction(1)
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            d = -d
        d *= m[r][c]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots, d if len(pivots) == nrows else Fraction(0)


def oracle_rank(rows):
    return len(oracle_rref(rows)[1])


def random_matrix(rng, max_dim=5, lo=-9, hi=9):
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    return Matrix(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]
    )


# invariant factors [1, 1, 1, 1, 1, 582597]; a remainder-and-swap Smith loop
# stalls on it
STALLING_6X6 = [[-9, 3, 4, -6, -9, -7], [-4, 5, 3, 7, 0, -5], [-5, 7, -6, -1, -9, 5],
                [3, -2, 8, 3, -9, 8], [-2, 4, -4, -4, 1, -2], [-7, 8, 8, -4, -4, 3]]


def test_snf_and_rank_agree_with_oracle_on_200_random_matrices():
    rng = random.Random(20240817)
    for _ in range(200):
        m = random_matrix(rng)
        expected = oracle_rank(m.to_lists())
        assert rank(m) == expected
        diag = assert_smith_form(m)
        assert sum(1 for x in diag if x != 0) == expected
    assert assert_smith_form(Matrix(STALLING_6X6)) == [1, 1, 1, 1, 1, 582597]
    dense = random.Random(6)
    for _ in range(400):
        assert_smith_form(Matrix([[dense.randint(-9, 9) for _ in range(6)] for _ in range(6)]))


def test_snf_transforms_match_the_reference_loop():
    """U, D and V equal those of the previous U/V loop, kept as
    ``dense_oracle.smith_normal_form``, on the 400 seeded dense 6 x 6
    matrices above, on seeded rectangular ones and on sparse +-1 ones."""
    dense = random.Random(6)
    square = [[[dense.randint(-9, 9) for _ in range(6)] for _ in range(6)] for _ in range(400)]
    rng = random.Random(4711)
    shapes = [(r, c) for r in range(1, 9) for c in range(1, 9) if r != c]
    rectangular = [[[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
                   for r, c in shapes for _ in range(4)]
    for rows in square + rectangular + [STALLING_6X6]:
        m = Matrix(rows)
        assert smith_normal_form(m) == dense_oracle.smith_normal_form(m)
    for rows, cols in ((12, 12), (15, 11), (9, 16)):
        m = sparse_unit_matrix(rng, rows, cols, 2)
        assert smith_normal_form(m) == dense_oracle.smith_normal_form(m)
    assert smith_normal_form(zeros(2, 4)) == dense_oracle.smith_normal_form(zeros(2, 4))


def test_kernel_basis_is_annihilated_and_spans():
    rng = random.Random(99)
    for _ in range(50):
        m = random_matrix(rng)
        k = rational_kernel_basis(m)
        assert k.cols == m.cols - rank(m)
        if k.cols:
            assert is_zero(matmul(m, k))
            assert rank(k) == k.cols


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-20, 20), min_size=1, max_size=4),
        min_size=1,
        max_size=4,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_rank_matches_oracle_property(rows):
    assert rank(Matrix(rows)) == oracle_rank(rows)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=3, max_size=3),
        min_size=2,
        max_size=4,
    )
)
def test_snf_transforms_are_unimodular_property(rows):
    m = Matrix(rows)
    u, d, v = smith_normal_form(m)
    assert matmul(matmul(u, m), v) == d
    assert abs(dense_det(u)) == 1 and abs(dense_det(v)) == 1


def test_invariant_factors_of_known_matrix():
    m = Matrix([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert invariant_factors(m) == [2, 2, 156]


def test_solve_and_inverse_round_trip():
    m = Matrix([[2, 1], [1, 1]])
    assert matmul(inverse(m), m) == Matrix.identity(2)
    x = solve(m, (3, 2))
    assert x == (Fraction(1), Fraction(1))
    assert solve(Matrix([[1, 1], [1, 1]]), (0, 1)) is None
    with pytest.raises(ValueError):
        solve(Matrix([[1, 0], [0, 1]]), (1,))


def test_empty_matrices():
    assert rank(zeros(0, 0)) == 0
    assert _det([]) == 1
    assert rational_kernel_basis(zeros(0, 3)) == Matrix.identity(3)


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_smith_normal_form_of_a_matrix_with_no_rows_or_no_columns(shape):
    """U * M * V = D with identity U and V and an empty D.  The reference
    loop in ``dense_oracle`` fails on these shapes as well, so the contract
    is checked directly."""
    m = zeros(*shape)
    u, d, v = smith_normal_form(m)
    assert u == Matrix.identity(shape[0]) and v == Matrix.identity(shape[1])
    assert d.shape == shape
    assert matmul(matmul(u, m), v) == d
    assert dense_det(u) == dense_det(v) == 1


def assert_exact(got, expected):
    """Equal values of equal types, entry by entry."""
    if isinstance(expected, Matrix):
        assert isinstance(got, Matrix) and got.shape == expected.shape
        got, expected = got.to_lists(), expected.to_lists()
        got = [x for row in got for x in row]
        expected = [x for row in expected for x in row]
    if isinstance(expected, (list, tuple)):
        assert type(got) is type(expected) and len(got) == len(expected)
        for x, y in zip(got, expected):
            assert type(x) is type(y) and x == y
    else:
        assert type(got) is type(expected) and got == expected


def check_against_oracle(rows, b):
    """rank, kernel, solve and inverse of ``rows`` against the oracle, and
    the determinant by ``_det`` when the rows are integers."""
    m = Matrix(rows)
    ncols = m.cols
    rref, pivots, d = oracle_rref(rows)
    assert_exact(rank(m), len(pivots))

    kernel = []
    for f in range(ncols):
        if f not in pivots:
            v = [Fraction(0)] * ncols
            v[f] = Fraction(1)
            for r, p in enumerate(pivots):
                v[p] = -rref[r][f]
            kernel.append(v)
    expected_kernel = (
        Matrix.from_columns(kernel) if kernel else zeros(ncols, 0)
    )
    assert_exact(rational_kernel_basis(m), expected_kernel)

    aug, aug_pivots, _ = oracle_rref([row + [bi] for row, bi in zip(rows, b)])
    if ncols in aug_pivots:
        assert solve(m, b) is None
    else:
        x = [Fraction(0)] * ncols
        for r, p in enumerate(aug_pivots):
            x[p] = aug[r][ncols]
        assert_exact(solve(m, b), tuple(x))

    if m.rows != ncols:
        return
    if all(type(x) is int for row in rows for x in row):
        assert _det(rows) == d
    n = ncols
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    inv, inv_pivots, _ = oracle_rref([row + e for row, e in zip(rows, eye)])
    if inv_pivots != list(range(n)):
        with pytest.raises(ValueError):
            inverse(m)
    else:
        assert_exact(inverse(m), Matrix([row[n:] for row in inv], cols=n))


def test_elimination_matches_fraction_rref_oracle():
    rng = random.Random(20261017)

    def entry():
        x = rng.randint(-6, 6)
        kind = rng.random()
        if kind < 0.3:
            return 0
        if kind < 0.6:
            return x
        if kind < 0.8:
            return Fraction(x)
        return Fraction(x, rng.randint(1, 7))

    for _ in range(400):
        nrows = rng.randint(1, 8)
        ncols = nrows if rng.random() < 0.5 else rng.randint(1, 8)
        rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
        if nrows >= 3 and rng.random() < 0.4:
            i, j, k = rng.sample(range(nrows), 3)
            s, t = Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-2, 2)
            rows[i] = [s * a + t * c for a, c in zip(rows[j], rows[k])]
        check_against_oracle(rows, [entry() for _ in range(nrows)])


def test_elimination_matches_oracle_on_circle_boundary():
    n = 80
    # column j is the edge (j, j+1 mod n): its boundary is v_{j+1} - v_j
    rows = [[(i == (j + 1) % n) - (i == j) for j in range(n)] for i in range(n)]
    assert rank(Matrix(rows)) == n - 1
    check_against_oracle(rows, [1] + [0] * (n - 1))
    check_against_oracle(rows, [1, -1] + [0] * (n - 2))


def test_primitivize():
    assert primitivize((4, -6)) == (2, -3)
    assert primitivize((0, 0, 5)) == (0, 0, 1)
    assert primitivize((0, 0)) == (0, 0)


def sparse_unit_matrix(rng, rows, cols, per_column):
    """+-1 entries at up to ``per_column`` random rows of each column, like
    the boundary map of a complex of dimension < per_column."""
    columns = []
    for _ in range(cols):
        col = [0] * rows
        for i in rng.sample(range(rows), rng.randint(1, min(per_column, rows))):
            col[i] = rng.choice((-1, 1))
        columns.append(col)
    return Matrix.from_columns(columns)


# U and V of dense 6 x 6 matrices with entries in [-9, 9] reach about 70 bits
# with extended-gcd steps; division with remainder reached 1,607 bits at 5 x 5
SNF_MAX_BITS = 96


def assert_smith_form(m):
    u, d, v = smith_normal_form(m)
    assert matmul(matmul(u, m), v) == d
    assert abs(dense_det(u)) == 1 and abs(dense_det(v)) == 1
    bits = max(abs(x).bit_length() for t in (u, v) for row in t.to_lists() for x in row)
    assert bits <= SNF_MAX_BITS
    diag = [d[i, i] for i in range(min(m.rows, m.cols))]
    assert all(d[i, j] == 0 for i in range(d.rows) for j in range(d.cols) if i != j)
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        assert (b == 0) if a == 0 else (b % a == 0)
    assert [x for x in diag if x] == invariant_factors(m)
    return diag


def test_snf_of_sparse_unit_matrices_up_to_40x40():
    rng = random.Random(20241018)
    non_unit = 0
    for size in (10, 20, 30, 40):
        shapes = [(size, size)] + [
            (rng.randint(size // 2, size), rng.randint(size // 2, size))
            for _ in range(5)
        ]
        for rows, cols in shapes:
            m = sparse_unit_matrix(rng, rows, cols, rng.choice((2, 3)))
            diag = assert_smith_form(m)
            assert sum(1 for x in diag if x) == rank(m)
            non_unit += any(x > 1 for x in diag)
    assert non_unit > 0


def dict_rows(rows):
    """The nonzeros of dense ``rows`` as ``{column: entry}`` dicts."""
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def test_dense_and_dict_rows_build_equal_matrices():
    rng = random.Random(23)
    for _ in range(100):
        rows = [[rng.choice((0, 0, rng.randint(-9, 9), Fraction(rng.randint(-9, 9), 4)))
                 for _ in range(5)] for _ in range(rng.randint(1, 5))]
        dense, sparse = Matrix(rows), Matrix(dict_rows(rows), 5)
        assert dense == sparse and sparse == dense
        assert hash(dense) == hash(sparse)
        assert sparse.to_lists() == dense.to_lists() == [
            [x if x else 0 for x in row] for row in rows]
    assert Matrix([[Fraction(0), 2]]) == Matrix([{1: 2, 0: 0}], 2) == Matrix([{1: 2}], 2)
    assert Matrix([[1, 0]]) != Matrix([{0: 1}], 3)


def test_rank_and_smith_forms_agree_on_dense_and_dict_rows():
    rng = random.Random(24)
    for _ in range(100):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.choice((0, 0, 1, -1, rng.randint(-9, 9))) for _ in range(ncols)]
                for _ in range(nrows)]
        dense, sparse = Matrix(rows), Matrix(dict_rows(rows), ncols)
        assert rank(dense) == rank(sparse) == oracle_rank(rows)
        assert invariant_factors(dense) == invariant_factors(sparse)
        assert smith_normal_form(dense) == smith_normal_form(sparse)


@pytest.mark.parametrize("rows, want", [
    ([[0.0, 1.0], [2.0, 2.0]], 2),
    ([[False, True], [True, True]], 2),
    ([[True, False], [False, False]], 1),
    ([[0.5, 0], [0, 0.0]], 1),
    ([[1.5, 3.0], [1, 2]], 1),
    ([[0.0, False], [False, 0.0]], 0),
])
def test_float_and_bool_entries_keep_their_rank(rows, want):
    """A Matrix keeps a 0.0 or a False from dense rows; the elimination
    drops it, as it drops every zero."""
    assert rank(Matrix(rows)) == want


@pytest.mark.parametrize("x", [None, "", [], "x", "3", {}])
def test_entries_that_are_not_numbers_are_refused(x):
    """rank, inverse, invariant_factors and smith_normal_form name an entry
    that is not an int, a float or a Fraction; a None, "" or [] read as
    zero before, and "3" as 3 in the Smith form."""
    message = f"^matrix entry {re.escape(repr(x))} is not a number$"
    for m in (Matrix([[x, 1], [1, 1]]), Matrix([{0: x, 1: 1}, {0: 1, 1: 1}], 2)):
        assert m[0, 0] is x
        for f in (rank, inverse, invariant_factors, smith_normal_form):
            with pytest.raises(ValueError, match=message):
                f(m)


def test_dict_rows_keep_falsy_entries_that_are_not_int_or_fraction_zeros():
    """A dict row, like a dense one, leaves out its int and Fraction zeros
    only; a None read as 0 before, so rank 1 and invariant factors [1]."""
    m = Matrix([{0: None, 1: 1}], 2)
    assert m.to_lists() == [[None, 1]]
    for f in (rank, invariant_factors, smith_normal_form):
        with pytest.raises(ValueError, match="^matrix entry None is not a number$"):
            f(m)
    for row in ([0.0, 1], [False, 1], [0, 1], [Fraction(0), 1]):
        assert Matrix([dict(enumerate(row))], 2) == Matrix([row])
    assert Matrix([{0: 0.0, 1: 1}], 2).to_lists() == [[0.0, 1]]
    assert Matrix([{0: 2, 1: 1}, {0: False, 1: 1}], 2)[1, 0] is False
    assert rank(Matrix([{0: 0.0, 1: 1}, {0: False, 1: 2}], 2)) == 1


@pytest.mark.parametrize("x", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_float_entries_are_refused(x):
    """rank, inverse, invariant_factors and smith_normal_form name an inf or
    nan entry, where Fraction raised an OverflowError or a ValueError that
    named none."""
    message = f"^matrix entry {re.escape(repr(x))} is not a finite number$"
    for m in (Matrix([[1, 2], [x, 1]]), Matrix([{0: 1, 1: 2}, {0: x, 1: 1}], 2)):
        for f in (rank, inverse, invariant_factors, smith_normal_form):
            with pytest.raises(ValueError, match=message):
                f(m)
