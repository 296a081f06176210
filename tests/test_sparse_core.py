"""The sparse elimination core of ``fanhodge.linalg`` against the dense one.

``dense_oracle`` keeps the dense integer Gauss-Jordan that the library used
before its core became sparse.  Both compute the unique reduced row echelon
form, so ranks, kernel bases and inverses must be identical, not just
equivalent.  Determinants come from Bareiss elimination instead of the core
and must equal the oracle's too.  The chain maps of ``delta_complex`` and
``weight_ss`` are sparse ``Matrix`` values; their ranks, kernel bases and
invariant factors must equal the oracle's on their dense rows.  The examples
are seeded (``derandomize`` or a fixed seed) and carry no wall-clock bound.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import (
    dense_det,
    dense_inverse,
    dense_invariant_factors,
    dense_kernel_basis,
    dense_rank,
    is_integer,
    is_zero,
    matmul,
    rational_kernel_basis,
    solve,
    transpose,
)
from fanhodge.delta_complex import ChainComplexQ, boundary_matrices, from_top_simplices
from fanhodge.errors import DependentInput, NotAComplex
from fanhodge.fixtures import p1xp1_strata
from fanhodge.linalg import (
    Matrix,
    _cofactor_forms,
    _det,
    _elimination_forms,
    coordinate_forms,
    invariant_factors,
    inverse,
    rank,
)
from fanhodge.weight_ss import (
    StrataComplex,
    bidegree_complex,
    signed_gysin_matrix,
    strata_complex_from_dict,
    strata_complex_to_dict,
)
from test_weight_ss import annotated_hilbert_window

SEEDED = settings(max_examples=150, deadline=None, derandomize=True)


def assert_same_as_dense(m: Matrix) -> None:
    assert rank(m) == dense_rank(m)
    assert rational_kernel_basis(m) == dense_kernel_basis(m)
    if m.rows != m.cols:
        return
    d = dense_det(m)
    rows = m.to_lists()
    if all(type(x) is int for row in rows for x in row):
        assert _det(rows) == d
    if d == 0:
        with pytest.raises(ValueError):
            inverse(m)
    else:
        assert inverse(m) == dense_inverse(m)


def assert_sparse_same_as_dense(m: Matrix) -> None:
    """A chain map against the oracle on its dense rows; invariant factors
    only for integer maps, and a rational one must be refused."""
    assert rank(m) == dense_rank(m)
    assert rational_kernel_basis(m) == dense_kernel_basis(m)
    if is_integer(m):
        assert invariant_factors(m) == dense_invariant_factors(m)
    else:
        with pytest.raises(ValueError, match="integer matrix"):
            invariant_factors(m)


@st.composite
def rational_matrices(draw, max_dim=12):
    """Up to max_dim x max_dim, of a drawn density; entries are ints and
    Fractions, and some rows repeat combinations of others."""
    nrows = draw(st.integers(1, max_dim))
    ncols = nrows if draw(st.booleans()) else draw(st.integers(1, max_dim))
    density = draw(st.sampled_from((0.1, 0.25, 0.5, 1.0)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def entry():
        if rng.random() >= density:
            return 0
        x = rng.choice([v for v in range(-9, 10) if v])
        return x if rng.random() < 0.6 else Fraction(x, rng.randint(1, 7))

    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    for _ in range(draw(st.integers(0, nrows // 2))):
        i, j, k = (rng.randrange(nrows) for _ in range(3))
        s, t = Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-2, 2)
        rows[i] = [s * a + t * b for a, b in zip(rows[j], rows[k])]
    return Matrix(rows, cols=ncols)


@SEEDED
@given(rational_matrices())
def test_rational_matrices_match_dense_core(m):
    assert_same_as_dense(m)
    assert_same_as_dense(transpose(m))


def circle_boundary(rng, n):
    """Boundary map of an n-cycle with shuffled vertices and random edge
    orientations: n x n, two +-1 entries per column, rank n - 1."""
    label = list(range(n))
    rng.shuffle(label)
    columns = []
    for k in range(n):
        col = [0] * n
        head, tail = label[k], label[(k + 1) % n]
        if rng.random() < 0.5:
            head, tail = tail, head
        col[head], col[tail] = 1, -1
        columns.append(col)
    return Matrix.from_columns(columns)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.integers(3, 200), st.integers(0, 2**32 - 1))
def test_circle_boundaries_match_dense_core(n, seed):
    m = circle_boundary(random.Random(seed), n)
    assert rank(m) == n - 1
    assert_same_as_dense(m)


def random_2_complex_boundaries(rng, vertices, triangles):
    tops = {tuple(sorted(rng.sample(range(vertices), 3))) for _ in range(triangles)}
    return boundary_matrices(from_top_simplices(sorted(tops))).boundary


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.integers(4, 40), st.integers(1, 66), st.integers(0, 2**32 - 1))
def test_random_2_complex_boundaries_match_dense_core(vertices, triangles, seed):
    # at most 3 * 66 = 198 edges, so both maps are at most 200 x 200
    boundary = random_2_complex_boundaries(random.Random(seed), vertices, triangles)
    for d in (1, 2):
        assert_sparse_same_as_dense(boundary[d])
        assert_same_as_dense(boundary[d])
    assert is_zero(matmul(boundary[1], boundary[2]))


def test_largest_2_complex_boundary_matches_dense_core():
    rng = random.Random(20261018)
    m = random_2_complex_boundaries(rng, 40, 66)[2]
    assert m.rows > 150 and m.cols > 60
    assert_sparse_same_as_dense(m)
    assert_same_as_dense(m)
    assert_same_as_dense(transpose(m))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_annotated_hilbert_maps_match_dense_core(d):
    sc = annotated_hilbert_window(10, d)
    maps = [bidegree_complex(sc, P, Q).maps[1:] for P in range(5) for Q in range(5)]
    assert sum(map(len, maps)) > 0
    for m in (signed_gysin_matrix(sc), *(m for ms in maps for m in ms)):
        assert_sparse_same_as_dense(m)


def test_rational_gysin_maps_match_dense_core():
    # a point's two Gysin entries scaled alike keep d1 o d1 = 0
    data = strata_complex_to_dict(p1xp1_strata())
    for g in data["gysin"]:
        g["matrix"] = {"P01": [["1/2"]], "P12": [["-3/2"]]}.get(g["src"], g["matrix"])
    sc = strata_complex_from_dict(data)
    assert any(type(x) is Fraction for m in bidegree_complex(sc, 2, 2).maps
               for row in m.to_lists() for x in row)
    for P, Q in ((1, 1), (2, 2)):
        for m in bidegree_complex(sc, P, Q).maps[1:]:
            assert_sparse_same_as_dense(m)


@pytest.mark.parametrize("seed", range(8))
def test_one_flipped_boundary_sign_is_not_a_complex(seed):
    # every edge lies in a triangle, so one flipped sign in either map
    # leaves a nonzero in boundary 1 o boundary 2
    rng = random.Random(seed)
    cc = boundary_matrices(from_top_simplices(sorted(
        {tuple(sorted(rng.sample(range(9), 3))) for _ in range(12)})))
    for d in (1, 2):
        rows = cc.boundary[d].to_lists()
        i, j = rng.choice([(i, j) for i, row in enumerate(rows) for j, x in enumerate(row) if x])
        rows[i][j] = -rows[i][j]
        maps = list(cc.boundary)
        maps[d] = Matrix(rows, cols=cc.dims[d])
        with pytest.raises(NotAComplex):
            ChainComplexQ(cc.dims, tuple(maps))


def test_one_flipped_gysin_sign_is_not_a_complex():
    sc = p1xp1_strata()
    flips = [key for key, _ in sc.gysin if key[0].startswith("P")]
    assert len(flips) == 8
    for key in flips:
        gysin = dict(sc.gysin)
        gysin[key] = Matrix([[-1]])
        broken = StrataComplex(sc.n, sc.components, sc.strata, gysin)
        with pytest.raises(NotAComplex):
            bidegree_complex(broken, 2, 2)


def in_cone_by_solve(rays, v):
    coeffs = solve(Matrix.from_columns(rays), v)
    return coeffs is not None and all(c >= 0 for c in coeffs)


@SEEDED
@given(st.integers(1, 6), st.data())
def test_coordinate_forms_membership_matches_solve(n, data):
    k = data.draw(st.integers(1, n))
    rays = data.draw(
        st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                 min_size=k, max_size=k)
    )
    if rank(Matrix.from_columns(rays)) < k:
        with pytest.raises(DependentInput):
            coordinate_forms(rays, n)
        return
    equations, coordinates = coordinate_forms(rays, n)
    assert len(equations) == n - k and len(coordinates) == k
    points = data.draw(st.lists(st.lists(st.integers(0, 3), min_size=k, max_size=k),
                                min_size=1, max_size=6))
    for coeffs in points:
        v = [sum(c * r[i] for c, r in zip(coeffs, rays)) for i in range(n)]
        if data.draw(st.booleans()):
            v[data.draw(st.integers(0, n - 1))] += data.draw(st.sampled_from((-1, 1)))
        inside = all(sum(e * x for e, x in zip(f, v)) == 0 for f in equations) and all(
            sum(c * x for c, x in zip(f, v)) >= 0 for f in coordinates
        )
        assert inside == in_cone_by_solve(rays, v)


def test_determinant_sign_follows_the_row_order():
    m = Matrix([[2, 1, 0], [1, 0, 0], [0, 3, 1]])
    rows = m.to_lists()
    assert _det(rows) == dense_det(m) == -1
    assert _det([rows[1], rows[0], rows[2]]) == 1
    # a zero leading entry makes Bareiss swap rows, and each swap flips the sign
    for rows, sign in (([[0, 1, 0], [0, 0, 1], [1, 0, 0]], 1),
                       ([[0, 1, 0], [1, 0, 0], [0, 0, 1]], -1),
                       ([[0, 0, 1], [0, 1, 0], [1, 0, 0]], -1)):
        assert _det(rows) == sign


@pytest.mark.parametrize("n", range(9))
def test_det_matches_dense_det(n):
    """Integer matrices with entries in [-9, 9], and the same with a repeated
    row or a zero column; with a vanishing leading (n - 1) x (n - 1) minor,
    so that the last, closed-form 2 x 2 step starts from a zero entry; and
    with a last row proportional to the one before it, so that the last
    step is singular."""
    rng = random.Random(n)
    kinds = ("int", "repeated row", "zero column", "zero-led tail", "singular tail")
    for kind in kinds * 10:
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        singular = (kind in ("repeated row", "singular tail") and n > 1) or (
            kind == "zero column" and n > 0)
        if singular and kind == "repeated row":
            i, j = rng.sample(range(n), 2)
            rows[i] = list(rows[j])
        elif singular and kind == "singular tail":
            rows[-1] = [-2 * x for x in rows[-2]]
        elif singular:
            j = rng.randrange(n)
            for row in rows:
                row[j] = 0
        elif kind == "zero-led tail" and n > 1:
            # rows 0 and n - 2 agree on the first n - 1 columns (for n = 2,
            # row 0 starts with 0)
            rows[n - 2][:n - 1] = rows[0][:n - 1] if n > 2 else [0]
        d = _det(rows)
        assert type(d) is int and d == dense_det(Matrix(rows, cols=n))
        if singular:
            assert d == 0
    for rows in ([[0, 3], [5, 7]], [[0, 0], [5, 7]], [[0, 3], [0, 7]], [[2, 3], [4, 6]],
                 [[1, 2, 3], [1, 2, 4], [5, 6, 8]], [[2, 4, 1], [1, 2, 3], [3, 1, 1]]):
        assert _det(rows) == dense_det(Matrix(rows))


def _forms_or_error(route, *args):
    try:
        return route(*args)
    except DependentInput as exc:
        return "DependentInput", str(exc)


def test_cofactor_forms_equal_elimination_forms():
    """For n <= 3 vectors of length n, the coordinate forms read off the
    cofactors equal those read off the elimination of [B | I], entry for
    entry, for positive and negative determinants, and dependent vectors
    raise the same DependentInput from both routes."""
    rng = random.Random(25)
    for n in range(4):
        signs = set()
        for t in range(400):
            rows = [tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n)]
            if n > 1 and t % 4 == 0:
                # a row that is a combination of the others
                a, b = rng.randint(-3, 3), rng.randint(-3, 3)
                rows[-1] = tuple(a * x + b * y for x, y in zip(rows[0], rows[-2]))
            elif t % 16 == 1:
                rows = [tuple(rng.randint(-2**70, 2**70) for _ in range(n)) for _ in range(n)]
            want = _forms_or_error(_elimination_forms, rows, n)
            assert _forms_or_error(_cofactor_forms, rows) == want
            assert _forms_or_error(coordinate_forms, rows, n) == want
            d = _det(rows)
            signs.add((d > 0) - (d < 0))
        assert signs == ({1} if n == 0 else {-1, 0, 1})
    with pytest.raises(DependentInput, match="^input vectors are linearly dependent over Q$"):
        _cofactor_forms([(1, 2, 3), (2, 4, 6), (0, 0, 1)])
