"""The one-pass strata-complex loader against the reference loader, the
sharing of equal Hodge tables and Gysin blocks, and repeated keys."""

import copy
from collections import OrderedDict

import pytest

import loader_oracle
from fanhodge.linalg import Matrix
from fanhodge.weight_ss import strata_complex_from_dict, strata_complex_to_dict
from test_weight_ss import annotated_hilbert_window


def outcome(loader, doc):
    """What ``loader`` makes of a copy of ``doc``: the complex and its repr
    (which shows entry types: 1 and Fraction(1, 1) differ), or the type and
    message of what it raised."""
    try:
        sc = loader(copy.deepcopy(doc))
    except Exception as exc:
        return type(exc), str(exc)
    return sc, repr(sc)


def assert_same_as_reference(doc):
    want = outcome(loader_oracle.strata_complex_from_dict, doc)
    assert outcome(strata_complex_from_dict, doc) == want


def two_points():
    """Points X1, X2 on the curve Y, with equal tables and equal blocks."""
    point = {"weight": 0, "h": {"0,0": 1}}
    return {
        "n": 1, "components": ["A", "B"],
        "strata": [
            {"id": "Y", "index_set": [], "cohomology": {"2": {"weight": 2, "h": {"1,1": 1}}}},
            {"id": "X1", "index_set": ["A"], "cohomology": {"0": copy.deepcopy(point)}},
            {"id": "X2", "index_set": ["B"], "cohomology": {"0": copy.deepcopy(point)}},
        ],
        "gysin": [{"src": s, "dst": "Y", "degree": 0, "p": 0, "q": 0, "matrix": [[1]]}
                  for s in ("X1", "X2")],
    }


@pytest.mark.parametrize("length, d", [(10, 1), (10, 3), (20, 2), (40, 3)])
def test_annotated_windows_load_as_in_the_reference(length, d):
    doc = strata_complex_to_dict(annotated_hilbert_window(length, d))
    assert_same_as_reference(doc)
    sc = strata_complex_from_dict(doc)
    assert strata_complex_to_dict(sc) == doc


def test_equal_tables_and_blocks_are_shared():
    sc = strata_complex_from_dict(strata_complex_to_dict(annotated_hilbert_window(40, 3)))
    tables = [hs for s in sc.strata for _, hs in s.cohomology]
    blocks = [m for _, m in sc.gysin]
    assert len(tables) == len(blocks) == 160
    assert len({id(hs) for hs in tables}) == 2
    assert len({id(m) for m in blocks}) == 1
    assert blocks[0] == Matrix.identity(3)
    # sharing lasts one call
    again = strata_complex_from_dict(strata_complex_to_dict(sc))
    assert again == sc and again.gysin[0][1] is not blocks[0]


@pytest.mark.parametrize(
    "where, value, message",
    [("h", 1.0, "strata[2] (id 'X2').cohomology['0'].h['0,0']: expected int, got 1.0"),
     ("h", True, "strata[2] (id 'X2').cohomology['0'].h['0,0']: expected int, got True"),
     ("weight", True, "strata[2] (id 'X2').cohomology['0'].weight: expected int, got True"),
     ("weight", 0.0, "strata[2] (id 'X2').cohomology['0'].weight: expected int, got 0.0"),
     ("matrix", [[1.0]], "gysin[1].matrix[0][0]: expected an int or a 'p/q' string, got 1.0"),
     ("matrix", [[True]], "gysin[1].matrix[0][0]: expected an int or a 'p/q' string, got True")],
)
def test_equal_but_wrongly_typed_values_miss_the_shared_ones(where, value, message):
    doc = two_points()
    assert_same_as_reference(doc)
    if where == "matrix":
        doc["gysin"][1]["matrix"] = value
    elif where == "h":
        doc["strata"][2]["cohomology"]["0"]["h"]["0,0"] = value
    else:
        doc["strata"][2]["cohomology"]["0"]["weight"] = value
    with pytest.raises(ValueError) as exc:
        strata_complex_from_dict(doc)
    assert str(exc.value) == message
    assert_same_as_reference(doc)


def test_a_rational_block_equal_to_an_integer_one_stays_rational():
    doc = two_points()
    doc["gysin"][1]["matrix"] = [["2/2"]]
    sc = strata_complex_from_dict(doc)
    (_, first), (_, second) = sc.gysin
    assert first == second and first is not second
    assert type(first[0, 0]) is int and type(second[0, 0]) is not int
    assert_same_as_reference(doc)


def test_a_failed_table_is_not_shared():
    doc = two_points()
    doc["strata"][1]["cohomology"]["0"]["h"] = {"1,1": 1}  # p + q != weight
    doc["strata"][2]["cohomology"]["0"]["h"] = {"1,1": 1}
    with pytest.raises(ValueError, match=r"^strata\[1\] \(id 'X1'\)\.cohomology\['0'\]\.h: "):
        strata_complex_from_dict(doc)
    assert_same_as_reference(doc)


def test_a_repeated_gysin_block_is_rejected():
    doc = two_points()
    doc["gysin"].append(dict(doc["gysin"][0], matrix=[[0]]))
    with pytest.raises(ValueError) as exc:
        strata_complex_from_dict(doc)
    assert str(exc.value) == "gysin[2]: duplicate block 'X1'->'Y' deg 0 (0,0)"
    # the reference keeps the later block
    assert loader_oracle.strata_complex_from_dict(doc).gysin_block("X1", "Y", 0, 0, 0)[0, 0] == 0


def test_a_repeated_degree_is_rejected():
    doc = two_points()
    doc["strata"][2]["cohomology"]["00"] = {"weight": 0, "h": {"0,0": 5}}
    with pytest.raises(ValueError) as exc:
        strata_complex_from_dict(doc)
    assert str(exc.value) == "strata[2] (id 'X2').cohomology['00']: degree 0 given twice"
    # the reference keeps the later table, which then fails the block's shape
    assert outcome(loader_oracle.strata_complex_from_dict, doc) == (
        ValueError, "gysin 'X2'->'Y' deg 0 (0,0): shape (1, 1), declared dims (1, 5)")


@pytest.mark.parametrize(
    "edit, message",
    [(lambda d: d["gysin"][1].update(dst="X1"),
      "gysin 'X2'->'X1' deg 0 (0,0): not a codimension-1 inclusion"),
     (lambda d: d["gysin"][1].update(src="Z"), "gysin 'Z'->'Y' deg 0 (0,0): unknown stratum"),
     (lambda d: d["gysin"][1].update(p=1),
      "gysin 'X2'->'Y' deg 0 (1,0): bidegree does not match degree"),
     (lambda d: d["gysin"][1].update(matrix=[[1, 1]]),
      "gysin 'X2'->'Y' deg 0 (0,0): shape (1, 2), declared dims (1, 1)"),
     (lambda d: d["strata"][2].update(id="X1"), "duplicate stratum id 'X1'"),
     (lambda d: d["strata"][2].update(index_set=["C"]), "unknown component 'C' in 'X2'"),
     (lambda d: d["strata"][1].update(index_set=["B", "A"]),
      "index set of 'X1' not sorted/distinct"),
     (lambda d: d.update(components=["A", "A"]), "duplicate component labels")],
)
def test_validation_messages_match_the_reference(edit, message):
    doc = two_points()
    edit(doc)
    assert outcome(strata_complex_from_dict, doc) == (ValueError, message)
    assert_same_as_reference(doc)


def test_a_facet_of_the_right_codimension_must_be_a_subset():
    doc = {
        "n": 2, "components": ["A", "B", "C"],
        "strata": [
            {"id": "P", "index_set": ["A", "B"],
             "cohomology": {"0": {"weight": 0, "h": {"0,0": 1}}}},
            {"id": "L", "index_set": ["C"],
             "cohomology": {"2": {"weight": 2, "h": {"1,1": 1}}}},
        ],
        "gysin": [{"src": "P", "dst": "L", "degree": 0, "p": 0, "q": 0, "matrix": [[1]]}],
    }
    assert outcome(strata_complex_from_dict, doc) == (
        ValueError, "gysin 'P'->'L' deg 0 (0,0): not a codimension-1 inclusion")
    assert_same_as_reference(doc)
    doc["strata"][1]["index_set"] = ["A"]
    assert strata_complex_from_dict(doc).gysin_block("P", "L", 0, 0, 0) == Matrix([[1]])
    assert_same_as_reference(doc)
    # the ambient space is a face of P, but of codimension 2
    doc["strata"][1]["index_set"] = []
    assert outcome(strata_complex_from_dict, doc) == (
        ValueError, "gysin 'P'->'L' deg 0 (0,0): not a codimension-1 inclusion")
    assert_same_as_reference(doc)


def test_blocks_of_equal_hash_stay_apart():
    # hash(-1) == hash(-2) in CPython, so these two blocks hash alike
    doc = two_points()
    doc["gysin"][0]["matrix"], doc["gysin"][1]["matrix"] = [[-1]], [[-2]]
    sc = strata_complex_from_dict(doc)
    assert [m[0, 0] for _, m in sc.gysin] == [-1, -2]
    assert_same_as_reference(doc)


def test_tables_given_as_dict_subclasses_are_not_confused():
    # PureHS.from_dict takes any dict; so must the sharing, or every such
    # table would share one key
    doc = two_points()
    for s, d in zip(doc["strata"][1:], (1, 2)):
        s["cohomology"]["0"] = OrderedDict(weight=0, h=OrderedDict({"0,0": d}))
    doc["gysin"][1]["matrix"] = [[1, 1]]
    sc = strata_complex_from_dict(doc)
    assert [sc.stratum(x).h(0, 0, 0) for x in ("X1", "X2")] == [1, 2]
    assert_same_as_reference(doc)
