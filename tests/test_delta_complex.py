"""Quotient Delta-complexes, boundary maps, homology, pseudomanifolds.

The library has one homology path: ``integral_homology`` factors each
boundary map once, and ``homology_report`` reads its Betti numbers off the
free ranks.  ``betti_by_ranks`` is the rank formula that the library used
for the Betti numbers before, dims[d] - rank boundary[d] - rank
boundary[d+1]; it is the reference for both, with the dense Smith oracle
for the torsion.  The cases: the fixture quotients, 30 seeded random
2-complexes, circles, RP^2, the torus, the Moebius band, an eight-vertex
dunce hat (no edge in exactly one triangle, chi = 1, acyclic over Z) and the
quotient of the subdivided rank-6 m = 11 cone.  ``pseudomanifold_report``
must name the same simplex without a coface as the previous search over
(dimension, id) pairs, on seeded complexes with dangling simplices.
"""

import random
import re

import pytest

from fanhodge.delta_complex import (
    ChainComplexQ,
    DeltaComplex,
    boundary_matrices,
    from_top_simplices,
    homology_report,
    integral_homology,
    pseudomanifold_report,
    quotient_delta_complex,
)
from fanhodge.errors import NotAComplex, NotEquidimensional, SncConditionViolated
from fanhodge.fans import (
    fan_system_from_dict,
    hilbert_cusp_window,
    smooth_subdivide,
    two_division_subdivide,
)
from fanhodge.fixtures import hilbert_window, hilbert_window_cubed
from fanhodge.linalg import Matrix, rank
from dense_oracle import dense_invariant_factors, is_zero, matmul, zeros
from face_index_oracle import check_equidimensional, collapse_map, fundamental_class_vector
from test_face_index import outcome


VERTS = (((0,), ()), ((1,), ()))


def betti(cc: ChainComplexQ) -> list[int]:
    """The Betti numbers of the library: the free ranks of integral homology."""
    return [free for free, _ in integral_homology(cc)]


def betti_by_ranks(cc: ChainComplexQ) -> list[int]:
    """The rank reference: beta_d = dims[d] - rank boundary[d] - rank
    boundary[d+1], each boundary ranked once."""
    ranks = [0, *map(rank, cc.boundary[1:]), 0]  # ranks[d]: rank of boundary[d]
    return [dim - ranks[d] - ranks[d + 1] for d, dim in enumerate(cc.dims)]


def two_vertex_circle() -> DeltaComplex:
    """Two vertices a < b, two edges both running a -> b."""
    return DeltaComplex((VERTS, (((0, 1), (1, 0)), ((0, 1), (1, 0)))))


@pytest.mark.parametrize("fid", [-1, -2, 2, "0", True, 0.0, None])
def test_face_ids_must_be_ints_in_range(fid):
    # at -1 the id wrapped to the last vertex, and the circle read as open
    message = f"face {fid!r} of simplex 1 (dim 1) is not a simplex of dim 0"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        DeltaComplex((VERTS, (((0, 1), (1, 0)), ((0, 1), (fid, 0)))))


@pytest.mark.parametrize("dim, entry", [(0, 5), (1, 5), (1, ((0, 1), (1, 0), ())), (1, ((0, 1),))])
def test_level_entries_must_be_vertices_faces_pairs(dim, entry):
    levels = ((((0,), ()), entry),) if dim == 0 else (VERTS, (((0, 1), (1, 0)), entry))
    message = f"simplex 1 (dim {dim}) is {entry!r}, not a (vertices, faces) pair"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        DeltaComplex(levels)


def test_two_vertex_circle_boundary():
    dc = two_vertex_circle()
    cc = boundary_matrices(dc)
    # both edges: boundary = [b] - [a]
    assert cc.boundary[1].to_lists() == [[-1, -1], [1, 1]]
    assert betti(cc) == [1, 1]
    assert dc.euler_characteristic() == 0


def test_quotient_complex_of_subdivided_window():
    fs = smooth_subdivide(two_division_subdivide(hilbert_window()))
    dc = quotient_delta_complex(fs, "F")
    assert [dc.count(d) for d in (0, 1)] == [2, 2]
    assert betti(boundary_matrices(dc)) == [1, 1]


def test_quotient_complex_rejects_violating_window():
    with pytest.raises(SncConditionViolated):
        quotient_delta_complex(hilbert_window(), "F")


def test_three_vertex_circle_from_coarse_identification():
    dc = quotient_delta_complex(hilbert_window_cubed(), "F")
    assert [dc.count(d) for d in (0, 1)] == [3, 3]
    cc = boundary_matrices(dc)
    assert betti(cc) == [1, 1]
    assert integral_homology(cc) == [(1, []), (1, [])]


def test_pseudomanifold_circles():
    for dc in (
        two_vertex_circle(),
        quotient_delta_complex(
            smooth_subdivide(two_division_subdivide(hilbert_window())), "F"
        ),
        quotient_delta_complex(hilbert_window_cubed(), "F"),
    ):
        rep = pseudomanifold_report(dc)
        assert rep.closed and rep.oriented
        assert rep.fundamental_class is not None
        signs = dict(rep.fundamental_class)
        assert set(signs) == set(range(dc.count(dc.dim)))
        assert all(s in (-1, 1) for s in signs.values())
        v = fundamental_class_vector(dc)
        cc = boundary_matrices(dc)
        assert is_zero(matmul(cc.boundary[dc.dim], v))


def test_open_interval_is_not_closed():
    dc = from_top_simplices([(0, 1), (1, 2)])
    rep = pseudomanifold_report(dc)
    assert not rep.closed and rep.fundamental_class is None


def test_nonorientable_edge_pair():
    # one edge glued to itself head-to-head cannot happen with distinct
    # ordered vertices, but two edges with the same orientation pattern on a
    # single shared face list produce an unorientable incidence
    with pytest.raises(ValueError):
        # an edge needs two distinct vertices: the complex forbids loops
        DeltaComplex((VERTS[:1], (((0, 0), (0, 0)),)))


def test_not_equidimensional_detected():
    verts = tuple(((i,), ()) for i in range(3))
    edges = (((0, 1), (1, 0)),)  # vertex 2 has no coface
    with pytest.raises(NotEquidimensional):
        pseudomanifold_report(DeltaComplex((verts, edges)))


def test_the_first_simplex_without_a_coface_is_named_by_dimension():
    # triangle 012 and a dangling edge 23: edge 3 and its far vertex 3 are
    # unreached, and the vertex comes first in (dimension, id) order
    tri = from_top_simplices([(0, 1, 2)]).simplices
    verts = tri[0] + (((3,), ()),)
    edges = tri[1] + (((2, 3), (3, 2)),)
    dc = DeltaComplex((verts, edges, tri[2]))
    with pytest.raises(NotEquidimensional, match="^simplex 3 of dim 0 has no coface$"):
        pseudomanifold_report(dc)


def with_dangling_simplices(dc: DeltaComplex, rng) -> DeltaComplex:
    """``dc`` (of dimension 2) plus isolated vertices and dangling edges
    between old or new vertices, appended in random order."""
    verts, edges, tris = map(list, dc.simplices)
    vertex_id = {vs[0]: i for i, (vs, _) in enumerate(verts)}

    def vertex(v):
        if v not in vertex_id:
            vertex_id[v] = len(verts)
            verts.append(((v,), ()))
        return vertex_id[v]

    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.2:
            vertex(max(vertex_id) + 1)
        else:
            a, b = sorted(rng.sample(range(max(vertex_id) + 3), 2))
            edges.append(((a, b), (vertex(b), vertex(a))))
    return DeltaComplex((tuple(verts), tuple(edges), tuple(tris)))


@pytest.mark.parametrize("seed", range(40))
def test_the_unreached_simplex_named_is_the_one_the_search_names(seed):
    rng = random.Random(seed)
    dc = with_dangling_simplices(random_2_complex(rng), rng)
    new = outcome(pseudomanifold_report, dc)
    old = outcome(check_equidimensional, dc)
    assert new[0] is NotEquidimensional and new == old


def test_chain_complex_validation():
    with pytest.raises(NotAComplex):
        ChainComplexQ(
            (1, 1, 1),
            (zeros(0, 1), Matrix([[1]]), Matrix([[1]])),
        )


def test_chain_complex_validation_finds_one_flipped_sign():
    # the boundary of a 4-simplex: three maps, each checked against the next
    dc = from_top_simplices([tuple(v for v in range(5) if v != o) for o in range(5)])
    cc = boundary_matrices(dc)
    for d in (1, 2, 3):
        rows = cc.boundary[d].to_lists()
        j = next(j for j, x in enumerate(rows[-1]) if x)
        rows[-1][j] = -rows[-1][j]
        maps = list(cc.boundary)
        maps[d] = Matrix(rows, cols=cc.dims[d])
        with pytest.raises(NotAComplex):
            ChainComplexQ(cc.dims, tuple(maps))
    # a sum that cancels is no defect: scale one map by -1
    maps = list(cc.boundary)
    maps[2] = matmul(maps[2], -1)
    assert ChainComplexQ(cc.dims, tuple(maps)).dims == cc.dims


def test_integral_torsion_diagnostic():
    cc = ChainComplexQ((1, 1), (zeros(0, 1), Matrix([[2]])))
    assert integral_homology(cc) == [(0, [2]), (0, [])]


def test_euler_equals_alternating_betti_on_fixtures():
    for dc in (
        two_vertex_circle(),
        from_top_simplices([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]),
        quotient_delta_complex(hilbert_window_cubed(), "F"),
    ):
        assert dc.euler_characteristic() == sum(
            (-1) ** d * b for d, b in enumerate(betti(boundary_matrices(dc)))
        )


def test_sphere_boundary_of_tetrahedron():
    dc = from_top_simplices([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    assert betti(boundary_matrices(dc)) == [1, 0, 1]
    rep = pseudomanifold_report(dc)
    assert rep.closed and rep.oriented


def test_collapse_map_merges_equal_vertex_sets():
    dc = two_vertex_circle()
    cm = collapse_map(dc)
    assert cm[0] == {0: 0, 1: 1}
    assert cm[1] == {0: 0, 1: 0}  # the two edges collapse together
    assert set(cm[0].values()) == {0, 1}  # surjective (here bijective) on vertices


def test_subdivision_invariance_of_betti():
    fine = smooth_subdivide(two_division_subdivide(hilbert_window()))
    dc_fine = quotient_delta_complex(fine, "F")
    dc_coarse = quotient_delta_complex(hilbert_window_cubed(), "F")
    assert betti(boundary_matrices(dc_fine)) == betti(
        boundary_matrices(dc_coarse)
    )


# six-vertex real projective plane (hemi-icosahedron)
RP2_TOPS = [
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
    (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5),
]
# seven-vertex (Moebius-Csaszar) torus and five-vertex Moebius band
TORUS_TOPS = sorted(
    {tuple(sorted((i, (i + 1) % 7, (i + 3) % 7))) for i in range(7)}
    | {tuple(sorted((i, (i + 2) % 7, (i + 3) % 7))) for i in range(7)}
)
MOBIUS_TOPS = sorted({tuple(sorted((i, (i + 1) % 5, (i + 2) % 5))) for i in range(5)})


def test_projective_plane_is_closed_but_not_orientable():
    dc = from_top_simplices(RP2_TOPS)
    rep = pseudomanifold_report(dc)
    assert rep.closed and not rep.oriented and rep.fundamental_class is None
    cc = boundary_matrices(dc)
    assert betti(cc) == [1, 0, 0]
    assert integral_homology(cc) == [(1, []), (0, [2]), (0, [])]
    with pytest.raises(ValueError):
        fundamental_class_vector(dc)


def test_moebius_band_is_not_closed():
    dc = from_top_simplices(MOBIUS_TOPS)
    rep = pseudomanifold_report(dc)
    assert not rep.closed and not rep.oriented and rep.fundamental_class is None
    assert betti(boundary_matrices(dc)) == [1, 1, 0]


def test_torus_is_closed_and_oriented():
    dc = from_top_simplices(TORUS_TOPS)
    assert [dc.count(d) for d in (0, 1, 2)] == [7, 21, 14]
    rep = pseudomanifold_report(dc)
    assert rep.closed and rep.oriented
    cc = boundary_matrices(dc)
    assert betti(cc) == [1, 2, 1]
    assert is_zero(matmul(cc.boundary[2], fundamental_class_vector(dc)))


def circle(n):
    return from_top_simplices([(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])


def random_2_complex(rng):
    vertices = rng.randint(4, 9)
    tops = {tuple(sorted(rng.sample(range(vertices), 3))) for _ in range(rng.randint(1, 14))}
    return from_top_simplices(sorted(tops))


# eight-vertex dunce hat: a triangle with its three edges glued as x x x^-1;
# contractible, but every edge lies in two or three triangles, so no
# elementary collapse can start
DUNCE_HAT_TOPS = sorted(tuple(v - 1 for v in t) for t in (
    (1, 3, 5), (2, 3, 5), (2, 4, 5), (1, 2, 4), (1, 3, 4), (3, 4, 8), (1, 2, 8), (1, 7, 8),
    (1, 2, 7), (2, 3, 7), (3, 6, 7), (1, 3, 6), (1, 5, 6), (4, 5, 6), (4, 6, 8), (6, 7, 8),
    (2, 3, 8),
))


def test_dunce_hat_is_contractible_with_no_free_edge():
    dc = from_top_simplices(DUNCE_HAT_TOPS)
    assert [dc.count(d) for d in (0, 1, 2)] == [8, 24, 17]
    cofaces = [0] * dc.count(1)
    for _, faces in dc.simplices[2]:
        for fid in faces:
            cofaces[fid] += 1
    assert 1 not in cofaces and min(cofaces) == 2
    assert dc.euler_characteristic() == 1
    assert homology_report(dc)["betti"] == [1, 0, 0]
    assert integral_homology(boundary_matrices(dc)) == [(1, []), (0, []), (0, [])]


def rank6_cone_quotient(last: int) -> DeltaComplex:
    """The quotient complex of the subdivided rank-6 cone e_1, ..., e_5,
    (1, 1, 1, 1, 1, last)."""
    rays = [[int(i == j) for j in range(6)] for i in range(5)] + [[1, 1, 1, 1, 1, last]]
    fs = fan_system_from_dict(
        {"cusps": [{"name": "F", "rank": 6}], "cones": [{"cusp": "F", "rays": rays}]}
    )
    return quotient_delta_complex(smooth_subdivide(two_division_subdivide(fs)), "F")


HOMOLOGY_CASES = {
    "two-vertex circle": two_vertex_circle,
    "fine fixture": lambda: quotient_delta_complex(
        smooth_subdivide(two_division_subdivide(hilbert_window())), "F"),
    "coarse fixture": lambda: quotient_delta_complex(hilbert_window_cubed(), "F"),
    "coarse fixture subdivided": lambda: quotient_delta_complex(
        smooth_subdivide(two_division_subdivide(hilbert_window_cubed())), "F"),
    "tetrahedron boundary": lambda: from_top_simplices(
        [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]),
    "circle 40": lambda: circle(40),
    "circle 160": lambda: circle(160),
    "RP2": lambda: from_top_simplices(RP2_TOPS),
    "torus": lambda: from_top_simplices(TORUS_TOPS),
    "Moebius band": lambda: from_top_simplices(MOBIUS_TOPS),
    "dunce hat": lambda: from_top_simplices(DUNCE_HAT_TOPS),
    "rank-6 m = 11 cone": lambda: rank6_cone_quotient(11),
}
HOMOLOGY_CASES.update({
    f"random 2-complex {seed}": lambda seed=seed: random_2_complex(random.Random(seed))
    for seed in range(30)
})
# the maps of the cone are too large for the dense Smith oracle; its
# subdivision is a ball, whose quotient is acyclic over Z
KNOWN_TORSION = {"rank-6 m = 11 cone": [[]] * 6}


@pytest.mark.parametrize("name", list(HOMOLOGY_CASES))
def test_integral_free_ranks_are_the_betti_numbers(name):
    """The Betti numbers of ``homology_report`` and the free ranks of
    ``integral_homology`` equal the rank reference, and the torsion equals
    the dense Smith oracle's invariant factors above 1."""
    dc = HOMOLOGY_CASES[name]()
    cc = boundary_matrices(dc)
    reference = betti_by_ranks(cc)
    integral = integral_homology(cc)
    assert [free for free, _ in integral] == reference
    assert homology_report(dc)["betti"] == reference
    torsion = KNOWN_TORSION.get(name) or [
        [f for f in dense_invariant_factors(cc.boundary[d + 1]) if f > 1]
        for d in range(dc.dim)
    ] + [[]]
    assert [t for _, t in integral] == torsion
    assert dc.euler_characteristic() == sum((-1) ** d * b for d, b in enumerate(reference))
