"""Weight spectral sequence engine on the toric and fan-window fixtures."""

import re
from fractions import Fraction

import pytest

from fanhodge.delta_complex import boundary_matrices, quotient_delta_complex
from fanhodge.errors import NotAComplex
from fanhodge.fans import (
    FanSystem,
    Identification,
    hilbert_cusp_window,
    smooth_subdivide,
    two_division_subdivide,
)
from fanhodge.fixtures import (
    cstar_strata,
    hilbert_window,
    hilbert_window_cubed,
    p1xp1_strata,
)
from fanhodge.linalg import Matrix, rank
from fanhodge.mhs import PureHS
from fanhodge.weight_ss import (
    CuspStrataAnnotation,
    Stratum,
    StrataComplex,
    annotate_from_fans,
    bidegree_complex,
    e1_page,
    signed_gysin_matrix,
    strata_complex_from_dict,
    strata_complex_to_dict,
    weight_filtration_on_FnHn,
    weight_graded,
)
from dense_oracle import is_zero, matmul
from weight_oracle import (
    d1,
    e2_page,
    facets,
    kernel_basis,
    page_bidegrees,
    residue_projection,
    total_dim,
)


def tensor_identity(m: Matrix, d: int) -> Matrix:
    rows = []
    for i in range(m.rows):
        for a in range(d):
            row = []
            for j in range(m.cols):
                for b in range(d):
                    row.append(m[i, j] if a == b else 0)
            rows.append(row)
    return Matrix(rows, cols=m.cols * d)


def subdivided_window():
    return smooth_subdivide(two_division_subdivide(hilbert_window()))


def test_cstar_e1_entries():
    page = e1_page(cstar_strata(), 1)
    assert page.entry(-1, 2) == PureHS(2, {(1, 1): 2})
    assert page.entry(0, 1).is_zero()


def test_off_page_entry_has_weight_q():
    # E1^{-m,k+m} has weight k + m = q; (-2, 3) is off the k = 1 page of C*
    page = e1_page(cstar_strata(), 1)
    off = page.entry(-2, 3)
    assert off.weight == 3 and off.is_zero()
    assert page.entry(-1, 2) is dict(page.entries)[(-1, 2)]
    complexes = dict(d1(cstar_strata(), page))
    assert complexes and (9, 9) not in complexes
    for (P, Q), bc in complexes.items():
        assert (bc.P, bc.Q) == (P, Q)


def test_cstar_d1_matrix():
    sc = cstar_strata()
    bc = bidegree_complex(sc, 1, 1)
    assert bc.map_out(1).to_lists() == [[1, 1]]


def test_cstar_weight_graded():
    sc = cstar_strata()
    h1 = weight_graded(sc, 1)
    assert h1.graded_dim(2) == 1 and h1.piece(2).h(1, 1) == 1
    assert h1.graded_dim(1) == 0
    assert total_dim(weight_graded(sc, 2)) == 0


def test_p1xp1_e1_entries():
    page = e1_page(p1xp1_strata(), 2)
    assert page.entry(-2, 4) == PureHS(4, {(2, 2): 4})
    assert page.entry(-1, 3).is_zero()
    assert page.entry(0, 2) == PureHS(2, {(1, 1): 2})


def test_p1xp1_weight_graded():
    sc = p1xp1_strata()
    h1 = weight_graded(sc, 1)
    h2 = weight_graded(sc, 2)
    assert h1.graded_dim(2) == 2
    assert h2.graded_dim(4) == 1 and h2.piece(4).h(2, 2) == 1
    assert h2.graded_dim(3) == 0
    assert h2.graded_dim(2) == 0


def test_p1xp1_top_differential_is_circle_boundary_up_to_sign():
    sc = p1xp1_strata()
    bc = bidegree_complex(sc, 2, 2)
    m = bc.map_out(2)
    assert (m.rows, m.cols) == (4, 4)
    assert rank(m) == 3
    column_sums = [sum(m[i, j] for i in range(4)) for j in range(4)]
    assert column_sums == [0, 0, 0, 0]  # each point hits its two lines +/-
    assert is_zero(matmul(bc.map_out(1), m))


def test_d1_squares_to_zero_on_both_fixtures():
    for sc, k in ((cstar_strata(), 1), (p1xp1_strata(), 2)):
        for P, Q in page_bidegrees(sc, k):
            bc = bidegree_complex(sc, P, Q)  # raises NotAComplex on failure
            for m in range(2, len(bc.maps)):
                assert is_zero(matmul(bc.maps[m - 1], bc.maps[m]))


def test_d1_preserves_normalized_bidegree():
    sc = p1xp1_strata()
    for P, Q in page_bidegrees(sc, 2):
        bc = bidegree_complex(sc, P, Q)
        assert bc.P == P and bc.Q == Q
        for m in range(1, len(bc.maps)):
            mat = bc.maps[m]
            assert mat.shape == (bc.dim(m - 1), bc.dim(m))


def test_broken_gysin_is_rejected():
    sc = p1xp1_strata()
    bad_gysin = dict(sc.gysin)
    bad_gysin[("P01", "L0", 0, 0, 0)] = Matrix([[2]])  # breaks d1 o d1 = 0
    broken = StrataComplex(sc.n, sc.components, sc.strata, bad_gysin)
    with pytest.raises(NotAComplex):
        bidegree_complex(broken, 2, 2)


def test_validation_rejects_bad_weight_and_shape():
    odd = Stratum("S", (), {2: PureHS(3, {(2, 1): 1})})  # weight != degree
    with pytest.raises(ValueError):
        StrataComplex(1, ("A",), (odd,))
    sc = cstar_strata()
    with pytest.raises(ValueError):
        StrataComplex(
            sc.n,
            sc.components,
            sc.strata,
            {("D0", "Y", 0, 0, 0): Matrix([[1], [1]])},
        )


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("window", ["fine", "coarse"])
def test_fn_filtration_dimension_from_annotation(d, window):
    fs = subdivided_window() if window == "fine" else hilbert_window_cubed()
    sc = annotate_from_fans(fs, CuspStrataAnnotation({"F": d}))
    rep = weight_filtration_on_FnHn(sc)
    assert dict(rep.graded).get(sc.n, 0) == d
    assert dict(rep.graded).get(1, 0) == 0
    assert dict(rep.cumulative)[sc.n] == d


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("window", ["fine", "coarse"])
def test_single_stratum_residue_is_invertible(d, window):
    fs = subdivided_window() if window == "fine" else hilbert_window_cubed()
    sc = annotate_from_fans(fs, CuspStrataAnnotation({"F": d}))
    basis, rows = kernel_basis(sc, sc.n)
    for sid in sorted({s for s, _ in rows}):
        proj = residue_projection(sc, sc.n, sid)
        assert proj.shape == (d, d)
        assert rank(proj) == d


def named_window(name):
    """"fine" and "coarse" as above; "L<length>" is the chain of `length`
    cones identified by M^length, and "-sub" its subdivision."""
    if name == "fine":
        return subdivided_window()
    if name == "coarse":
        return hilbert_window_cubed()
    fs = hilbert_window_cubed(int(name[1:].split("-")[0]))
    return smooth_subdivide(two_division_subdivide(fs)) if name.endswith("-sub") else fs


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize(
    "window", ["fine", "coarse", "L10", "L10-sub", "L20", "L20-sub", "L40", "L40-sub"]
)
def test_signed_gysin_equals_boundary_tensor_identity(d, window):
    """With 10 or more ray classes, component labels must still sort as the
    vertices do, or facet signs stop following the boundary's."""
    fs = named_window(window)
    sc = annotate_from_fans(fs, CuspStrataAnnotation({"F": d}))
    gysin = signed_gysin_matrix(sc)
    boundary = boundary_matrices(quotient_delta_complex(fs, "F")).boundary[1]
    expected = tensor_identity(boundary, d)
    assert gysin == expected or gysin == matmul(expected, -1)


def test_json_round_trip():
    for sc in (cstar_strata(), p1xp1_strata()):
        back = strata_complex_from_dict(strata_complex_to_dict(sc))
        assert back.strata == sc.strata
        assert back.gysin == sc.gysin
        assert back.components == sc.components


def zero_table_strata():
    return strata_complex_from_dict(
        {"n": 1, "components": ["A"],
         "strata": [{"id": "X", "index_set": [],
                     "cohomology": {"0": {"weight": 0, "h": {"0,0": 1}}}}]}
    )


def test_e2_of_a_zero_table_is_empty():
    sc = zero_table_strata()
    page = e1_page(sc, 1)
    complexes = d1(sc, page)
    assert complexes == ()
    assert e2_page(page, complexes).to_dict() == {"degree": 1, "graded": []}
    assert weight_graded(sc, 1).to_dict() == {"degree": 1, "graded": []}
    assert total_dim(weight_graded(sc, 1)) == 0


def reference_maps(sc, P, Q):
    """The signed Gysin maps by their definition, assembled densely: every
    codim-(m-1) stratum is scanned for every codim-m stratum, and the sign
    is (-1)^(i-1) for the omitted component at position i."""
    top = min(P, Q, sc.n)
    strata = {m: sorted((s for s in sc.strata if s.codim == m), key=lambda s: s.id)
              for m in range(top + 1)}
    basis = [[(s.id, i) for s in strata[m] for i in range(s.h(P + Q - 2 * m, P - m, Q - m))]
             for m in range(top + 1)]
    gysin = dict(sc.gysin)
    maps = []
    for m in range(1, top + 1):
        deg = P + Q - 2 * m
        rows = [[0] * len(basis[m]) for _ in basis[m - 1]]
        for src in strata[m]:
            for dst in strata[m - 1]:
                omitted = set(src.index_set) - set(dst.index_set)
                block = gysin.get((src.id, dst.id, deg, P - m, Q - m))
                if len(omitted) != 1 or block is None:
                    continue
                sign = (-1) ** src.index_set.index(omitted.pop())
                roff = basis[m - 1].index((dst.id, 0))
                coff = basis[m].index((src.id, 0))
                for i in range(block.rows):
                    for j in range(block.cols):
                        rows[roff + i][coff + j] += sign * block[i, j]
        maps.append(Matrix(rows, cols=len(basis[m])))
    return [tuple(col) for col in basis], maps


def annotated_hilbert_window(length, d):
    """The a = b = 1 Hilbert cusp window of `length` cones, identified by
    M^length, subdivided and annotated with dimension d."""
    m = Matrix([[2, 1], [1, 1]])
    power = Matrix.identity(2)
    for _ in range(length):
        power = matmul(power, m)
    chain = hilbert_cusp_window(m.to_lists(), length)
    fs = FanSystem(chain.cusps, chain.cones, (Identification(power, "F", "F"),))
    fs = smooth_subdivide(two_division_subdivide(fs))
    return annotate_from_fans(fs, CuspStrataAnnotation({"F": d}))


@pytest.mark.parametrize(
    "name", ["cstar", "p1xp1", "L10d1", "L20d3", "L40d2", "L80d1", "fraction"]
)
def test_bidegree_complex_matches_reference_assembly(name):
    if name == "cstar":
        sc = cstar_strata()
    elif name == "p1xp1":
        sc = p1xp1_strata()
    elif name == "fraction":
        # rational Gysin entries: the cstar complex with one block halved
        sc = cstar_strata()
        gysin = {key: Matrix([[Fraction(1, 2)]]) for key, _ in sc.gysin}
        sc = StrataComplex(sc.n, sc.components, sc.strata, gysin)
    else:
        length, d = (int(x) for x in name[1:].split("d"))
        sc = annotated_hilbert_window(length, d)
    for P in range(2 * sc.n + 1):
        for Q in range(2 * sc.n + 1):
            bc = bidegree_complex(sc, P, Q)
            basis, maps = reference_maps(sc, P, Q)
            assert bc.basis == tuple(basis)
            assert list(bc.maps[1:]) == maps
    if name.startswith("L"):
        assert weight_filtration_on_FnHn(sc).graded == ((1, 0), (2, d))


@pytest.mark.parametrize("name", ["cstar", "p1xp1", "reversed", "L10d1", "L40d2"])
def test_facets_come_in_strata_order(name):
    if name == "cstar":
        sc = cstar_strata()
    elif name.startswith("L"):
        length, d = (int(x) for x in name[1:].split("d"))
        sc = annotated_hilbert_window(length, d)
    else:
        sc = p1xp1_strata()
        if name == "reversed":  # facets in strata order, not component order
            sc = StrataComplex(sc.n, sc.components, sc.strata[::-1], dict(sc.gysin))
    assert sc._facets == facets(sc)
    assert name == "cstar" or any(len(found) > 1 for found in sc._facets.values())


def test_strata_complex_lookups_are_not_fields():
    sc = p1xp1_strata()
    fresh = strata_complex_from_dict(strata_complex_to_dict(sc))
    bidegree_complex(sc, 2, 2)  # builds the lookups of sc only
    assert sc == fresh and hash(sc) == hash(fresh)
    assert strata_complex_to_dict(sc) == strata_complex_to_dict(fresh)
    assert sc.stratum("P01") is sc.strata[[s.id for s in sc.strata].index("P01")]
    with pytest.raises(KeyError):
        sc.stratum("nope")
    key, block = sc.gysin[0]
    assert sc.gysin_block(*key) is block
    assert sc.gysin_block("nope", *key[1:]) is None
    assert [s.id for s in sc.strata_of_codim(1)] == [
        s.id for s in sc.strata if s.codim == 1
    ]


def test_a_missing_gysin_block_is_named():
    sc = cstar_strata()
    gysin = {key: m for key, m in sc.gysin if key[0] != "Dinf"}
    broken = StrataComplex(sc.n, sc.components, sc.strata, gysin)
    message = "missing gysin block 'Dinf'->'Y' degree 0 bidegree (0,0)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        bidegree_complex(broken, 1, 1)


def test_a_degree_out_of_range_for_the_codimension_is_named():
    with pytest.raises(ValueError, match="^degree 2 out of range for codim 1 stratum 'D0'$"):
        StrataComplex(1, ("P0",), [Stratum("D0", ("P0",), {2: PureHS(2, {(1, 1): 1})})])


def test_a_cohomology_key_that_is_not_an_int_is_named():
    doc = strata_complex_to_dict(cstar_strata())
    doc["strata"][0]["cohomology"]["two"] = doc["strata"][0]["cohomology"].pop("2")
    message = "strata[0] (id 'Y').cohomology['two']: expected an int degree as key"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        strata_complex_from_dict(doc)


def test_maps_past_either_end_and_an_unpopulated_gysin_map_are_zero():
    bc = bidegree_complex(cstar_strata(), 1, 1)
    assert [bc.dim(m) for m in range(-1, 3)] == [0, 1, 2, 0]
    below, above = bc.map_out(0), bc.map_out(2)
    assert below.shape == (0, 1) and below.to_lists() == []
    assert above.shape == (2, 0) and above.to_lists() == [[], []]
    assert rank(below) == rank(above) == 0
    empty = StrataComplex(1, ("P0",), [Stratum("Y", (), {}), Stratum("D0", ("P0",), {})])
    gysin = signed_gysin_matrix(empty)
    assert gysin.shape == (0, 0) and gysin.to_lists() == []
