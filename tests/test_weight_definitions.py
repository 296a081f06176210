"""The F^n graded dims and the E1 page against their previous definitions.

``weight_filtration_on_FnHn`` reads Gr^W_{n+m} F^n as the source dimension
less the rank of the signed Gysin map; before, it was the column count of
that map's kernel basis, which ``weight_oracle.kernel_basis`` still
computes.  ``e1_page`` adds each distinct table's shifted Hodge numbers,
times the number of strata that carry it, into one table per entry;
before, it summed the Tate twists of the strata tables in id order, as
``weight_oracle.e1_page`` still does.  ``weight_graded`` reads the E2
dimension at column m of each bidegree complex on the antidiagonal k + m by
one routine; before, it built the E1 page, attached the complexes of the
page as its d1 and ranked them for E2, as ``weight_oracle.weight_graded``
still does, for every k <= 2n + 1; and each graded dimension of the F^n
filtration must be that reference's h^{n,m} at weight n + m.  All must
agree on the strata fixtures, on annotated Hilbert windows (L in
{10, 20, 40}, d in {1, 2, 3}), on the two-cusp window and on a document
with several distinct tables per codimension, a zero table and a rational
Gysin block.
"""

import copy

import pytest

import weight_oracle
from dense_oracle import is_integer
from fanhodge.fixtures import cstar_strata, p1xp1_strata
from fanhodge.mhs import PureHS
from fanhodge.weight_ss import (
    CuspStrataAnnotation,
    annotate_from_fans,
    e1_page,
    strata_complex_from_dict,
    weight_filtration_on_FnHn,
    weight_graded,
)
from test_annotated_strata import two_cusp_window
from test_weight_ss import annotated_hilbert_window, zero_table_strata


def table(weight, **h):
    """The JSON form of a Hodge table; ``h11=2`` is h^{1,1} = 2."""
    return {"weight": weight, "h": {f"{k[1]},{k[2]}": d for k, d in h.items()}}


def block(src, dst, degree, p, q, matrix):
    return {"src": src, "dst": dst, "degree": degree, "p": p, "q": q, "matrix": matrix}


# A surface Y with boundary components A and B: an elliptic curve EA on A,
# a line LB and a curve ZB with a zero degree-2 table on B, and two points
# of A and B, one of them with h^{0,0} = 2 and rational Gysin blocks.
MIXED = {
    "n": 2, "components": ["A", "B"],
    "strata": [
        {"id": "Y", "index_set": [],
         "cohomology": {"0": table(0, h00=1), "2": table(2, h11=2), "4": table(4, h22=1)}},
        {"id": "EA", "index_set": ["A"],
         "cohomology": {"0": table(0, h00=1), "1": table(1, h10=1, h01=1), "2": table(2, h11=1)}},
        {"id": "LB", "index_set": ["B"],
         "cohomology": {"0": table(0, h00=1), "2": table(2, h11=1)}},
        {"id": "ZB", "index_set": ["B"], "cohomology": {"0": table(0, h00=1), "2": table(2)}},
        {"id": "P1", "index_set": ["A", "B"], "cohomology": {"0": table(0, h00=1)}},
        {"id": "P2", "index_set": ["A", "B"], "cohomology": {"0": table(0, h00=2)}},
    ],
    "gysin": [
        block("P1", "EA", 0, 0, 0, [[1]]),
        block("P1", "LB", 0, 0, 0, [[1]]),
        block("P2", "EA", 0, 0, 0, [[1, "1/2"]]),
        block("P2", "LB", 0, 0, 0, [[1, "1/2"]]),
        block("EA", "Y", 0, 0, 0, [[1], [0]]),
        block("LB", "Y", 0, 0, 0, [[0], [1]]),
        block("ZB", "Y", 0, 0, 0, [[1], [1]]),
        block("EA", "Y", 2, 1, 1, [[1]]),
        block("LB", "Y", 2, 1, 1, [[1]]),
    ],
}


def mixed_strata():
    return strata_complex_from_dict(copy.deepcopy(MIXED))


def assert_as_previously_defined(sc):
    rep = weight_filtration_on_FnHn(sc)
    assert [m for m, _ in rep.graded] == list(range(1, sc.n + 1))
    for m, dim in rep.graded:
        found = weight_oracle.kernel_basis(sc, m)
        assert dim == (0 if found is None else found[0].cols)
    for k in range(2 * sc.n + 1):
        assert e1_page(sc, k) == weight_oracle.e1_page(sc, k)
    for k in range(2 * sc.n + 2):
        assert weight_graded(sc, k) == weight_oracle.weight_graded(sc, k)
    staged = weight_oracle.weight_graded(sc, sc.n)
    for m, dim in rep.graded:
        assert dim == staged.piece(sc.n + m).h(sc.n, m)
    return rep


@pytest.mark.parametrize("name", ["cstar", "p1xp1", "zero-table", "mixed"])
def test_strata_documents(name):
    sc = {"cstar": cstar_strata, "p1xp1": p1xp1_strata, "zero-table": zero_table_strata,
          "mixed": mixed_strata}[name]()
    assert_as_previously_defined(sc)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("length", [10, 20, 40])
def test_annotated_hilbert_windows(length, d):
    rep = assert_as_previously_defined(annotated_hilbert_window(length, d))
    assert rep.graded == ((1, 0), (2, d))


@pytest.mark.parametrize("cusp", ["F", "G"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_two_cusp_window(cusp, d):
    sc = annotate_from_fans(two_cusp_window(), CuspStrataAnnotation({cusp: d}))
    rep = assert_as_previously_defined(sc)
    assert rep.graded == ((1, 0), (2, 0))


def test_mixed_document_has_what_it_is_built_for():
    sc = mixed_strata()
    for m, want in ((1, 4), (2, 2)):
        assert len({hs for s in sc.strata_of_codim(m) for _, hs in s.cohomology}) == want
    assert PureHS(2) in [hs for _, hs in sc.stratum("ZB").cohomology]
    assert not is_integer(sc.gysin_block("P2", "EA", 0, 0, 0))
    # P1 and P2 carry h^{0,0} = 1 and 2; only EA carries degree-1 numbers
    assert e1_page(sc, 2).entries == (
        ((0, 2), PureHS(2, {(1, 1): 2})),
        ((-1, 3), PureHS(3, {(2, 1): 1, (1, 2): 1})),
        ((-2, 4), PureHS(4, {(2, 2): 3})),
    )
    # the kernel of the rational map out of the three points has dimension 2
    assert weight_filtration_on_FnHn(sc).graded == ((1, 1), (2, 2))
    basis, rows = weight_oracle.kernel_basis(sc, 2)
    assert basis.shape == (3, 2) and rows == (("P1", 0), ("P2", 0), ("P2", 1))
