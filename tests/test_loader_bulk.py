"""The strata loader's bulk type tests against the reference loader.

``weight_ss.strata_complex_from_dict`` tests each stratum and each Gysin
block by one combined test of exact JSON types, and runs the per-field
checks only when it fails.  Those checks must still name the first bad
value in field order when one stratum or block holds several, and must pass
what ``isinstance`` accepts: subclasses of the JSON types, which fail the
exact-type test.
"""

from collections import OrderedDict

import pytest

from fanhodge.fans import fan_system_from_dict, fan_system_to_dict
from fanhodge.fixtures import hilbert_window_cubed, p1xp1_strata
from fanhodge.weight_ss import strata_complex_from_dict, strata_complex_to_dict
from test_face_index import outcome
from test_strata_loader import assert_same_as_reference, two_points


class Label(str):
    pass


class Items(list):
    pass


def test_subclasses_of_json_types_load_as_in_the_reference():
    doc = OrderedDict(strata_complex_to_dict(p1xp1_strata()))
    doc["components"] = Items(map(Label, doc["components"]))
    doc["strata"] = Items(
        OrderedDict(s, id=Label(s["id"]), index_set=Items(map(Label, s["index_set"])),
                    cohomology=OrderedDict(s["cohomology"]))
        for s in doc["strata"]
    )
    doc["gysin"] = Items(OrderedDict(g, src=Label(g["src"]), dst=Label(g["dst"]))
                         for g in doc["gysin"])
    assert strata_complex_from_dict(doc) == p1xp1_strata()
    assert_same_as_reference(doc)


def test_list_subclass_rows_of_a_fan_matrix_are_rows():
    doc = fan_system_to_dict(hilbert_window_cubed())
    ident = doc["identifications"][0]
    (a, b), (c, d) = ident["matrix"]
    for matrix in (Items([Items([a, b]), Items([c, d])]), [Items([a, b]), [c, d]]):
        ident["matrix"] = matrix
        assert fan_system_from_dict(doc) == hilbert_window_cubed()
    ident["matrix"] = [Items([a, b]), Items([c])]
    assert outcome(fan_system_from_dict, doc) == (
        ValueError, "identifications[0].matrix[1]: expected 2 entries, got 1")


def test_list_subclass_rows_of_a_gysin_block_are_rows():
    doc = two_points()
    want = strata_complex_from_dict(doc)
    doc["gysin"][1]["matrix"] = Items([Items([1])])
    assert strata_complex_from_dict(doc) == want
    assert_same_as_reference(doc)
    doc["gysin"][1]["matrix"] = [Items([1, 0]), [1]]
    assert outcome(strata_complex_from_dict, doc) == (
        ValueError, "gysin[1].matrix[1]: expected 2 entries, got 1")
    assert_same_as_reference(doc)


@pytest.mark.parametrize(
    "edit, message",
    [({"id": 5, "index_set": [1], "cohomology": []}, "strata[1].id: expected a string, got 5"),
     ({"index_set": ["A", 1], "cohomology": []},
      "strata[1].index_set[1]: expected a string, got 1"),
     ({"index_set": "A", "cohomology": []}, "strata[1].index_set: expected a list, got 'A'"),
     ({"cohomology": []}, "strata[1].cohomology: expected an object, got []")],
)
def test_the_first_bad_field_of_a_stratum_is_named(edit, message):
    doc = two_points()
    doc["strata"][1].update(edit)
    assert outcome(strata_complex_from_dict, doc) == (ValueError, message)
    assert_same_as_reference(doc)


@pytest.mark.parametrize(
    "edit, kind, message",
    [({"src": 1, "degree": "0", "matrix": 0}, ValueError, "gysin[1].src: expected a string, got 1"),
     ({"p": True, "q": None}, ValueError, "gysin[1].p: expected an int, got True"),
     ({"q": None, "matrix": 0}, ValueError, "gysin[1].q: expected an int, got None"),
     ({"matrix": [[1.5]]}, ValueError,
      "gysin[1].matrix[0][0]: expected an int or a 'p/q' string, got 1.5")],
)
def test_the_first_bad_field_of_a_block_is_named(edit, kind, message):
    doc = two_points()
    doc["gysin"][1].update(edit)
    assert outcome(strata_complex_from_dict, doc) == (kind, message)
    assert_same_as_reference(doc)


def test_a_block_without_a_matrix_is_named_after_its_key_is_checked():
    doc = two_points()
    del doc["gysin"][1]["matrix"]
    assert outcome(strata_complex_from_dict, doc) == (KeyError, "'gysin[1].matrix'")
    assert_same_as_reference(doc)
    doc["gysin"][1]["dst"] = 0
    assert outcome(strata_complex_from_dict, doc) == (
        ValueError, "gysin[1].dst: expected a string, got 0")
    assert_same_as_reference(doc)
