"""The strata-complex writer against the reference writer of ``loader_oracle``.

The writer converts each distinct Hodge table and Gysin block once per call
and copies that conversion into every entry that carries it; the reference
converts every entry on its own.  The documents must be equal, down to the
JSON text (so an entry ``True`` or ``Fraction(2, 1)`` must be written as an
int in both), and no list or dict may be shared between two entries or two
calls.  The inputs: the strata fixtures, annotated Hilbert windows (L in
{5, 40}, d in {0, 1, 3}) and a complex whose blocks hold ``"p/q"``, bool and
integral-``Fraction`` entries; each document must read back through the
loader.
"""

import copy
import json
from fractions import Fraction

import pytest

import loader_oracle
from fanhodge.fixtures import cstar_strata, p1xp1_strata
from fanhodge.linalg import Matrix
from fanhodge.mhs import PureHS
from fanhodge.weight_ss import (
    StrataComplex,
    Stratum,
    _frac_to_json,
    strata_complex_from_dict,
    strata_complex_to_dict,
)
from test_weight_ss import annotated_hilbert_window


def rational_complex() -> StrataComplex:
    """Points X1, X2, X3 (each with h^{0,0} = 2) on the curve Y.  X1 and X2
    share one table and one Gysin block of a "p/q" entry and a bool entry;
    X3 has an equal table of its own and a block of an integral Fraction
    and a False, which a Matrix keeps as an entry."""
    point = {0: PureHS(0, {(0, 0): 2})}
    block = Matrix([[Fraction(-3, 6), True]])
    return StrataComplex(
        n=1, components=("A", "B", "C"),
        strata=[Stratum("Y", (), {2: PureHS(2, {(1, 1): 1})}),
                Stratum("X1", ("A",), point), Stratum("X2", ("B",), point),
                Stratum("X3", ("C",), {0: PureHS(0, {(0, 0): 2})})],
        gysin={("X1", "Y", 0, 0, 0): block, ("X2", "Y", 0, 0, 0): block,
               ("X3", "Y", 0, 0, 0): Matrix([[Fraction(4, 2), False]])},
    )


def complexes():
    yield "cstar", cstar_strata
    yield "p1xp1", p1xp1_strata
    for length in (5, 40):
        for d in (0, 1, 3):
            yield f"L{length}d{d}", lambda length=length, d=d: annotated_hilbert_window(length, d)
    yield "rational", rational_complex


CASES = dict(complexes())


def containers(value):
    """Every list and dict inside ``value``, itself included."""
    if isinstance(value, (list, dict)):
        yield value
        for child in value.values() if isinstance(value, dict) else value:
            yield from containers(child)


@pytest.mark.parametrize("name", sorted(CASES))
def test_documents_equal_the_reference(name):
    sc = CASES[name]()
    doc = strata_complex_to_dict(sc)
    want = loader_oracle.strata_complex_to_dict(sc)
    # the JSON text tells 1 from True and fails on a Fraction
    assert doc == want and json.dumps(doc) == json.dumps(want)


@pytest.mark.parametrize("name", sorted(CASES))
def test_documents_round_trip(name):
    sc = CASES[name]()
    doc = strata_complex_to_dict(sc)
    back = strata_complex_from_dict(copy.deepcopy(doc))
    assert strata_complex_to_dict(back) == doc
    if name != "rational":  # its kept False entry is read back as no entry
        assert back == sc


def test_rational_entries_are_written_exactly():
    doc = strata_complex_to_dict(rational_complex())
    assert [g["matrix"] for g in doc["gysin"]] == [[["-1/2", 1]], [["-1/2", 1]], [[2, 0]]]
    assert [type(x) for g in doc["gysin"] for row in g["matrix"] for x in row] == [
        str, int, str, int, int, int]


@pytest.mark.parametrize(
    "x, want",
    [(7, 7), (-(2**70), -(2**70)), (True, 1), (False, 0), (Fraction(4, 2), 2),
     (Fraction(-3, 6), "-1/2"), (0.75, "3/4"), (2.0, 2)],
)
def test_entries_convert_as_through_fraction(x, want):
    got = _frac_to_json(x)
    assert got == want and type(got) is type(want)
    assert got == loader_oracle._frac_to_json(x)
    if type(x) is int:
        assert got is x


@pytest.mark.parametrize("name", ["L5d3", "rational"])
def test_no_container_is_shared_between_entries_or_calls(name):
    sc = CASES[name]()
    doc, again = strata_complex_to_dict(sc), strata_complex_to_dict(sc)
    found = [*containers(doc), *containers(again)]
    assert len({id(c) for c in found}) == len(found)
    want = copy.deepcopy(doc)
    # edit one matrix row and one Hodge table
    row = doc["gysin"][0]["matrix"][0]
    row[0] = 99
    row.append(5)
    top = next(s for s in doc["strata"] if s["cohomology"] and s["index_set"])
    next(iter(top["cohomology"].values()))["h"]["9,9"] = 9
    assert doc["gysin"][1:] == want["gysin"][1:]
    assert [s for s in doc["strata"] if s is not top] == [
        s for s in want["strata"] if s["id"] != top["id"]]
    assert again == want
    assert strata_complex_to_dict(sc) == want
