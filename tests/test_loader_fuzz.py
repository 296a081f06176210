"""Fuzz the three JSON loaders with mutated valid documents.

The strata documents include an annotated window, whose repeated Hodge
tables and Gysin blocks the loader shares; on every strata case the loader
must also agree with the reference loader of ``loader_oracle``: an equal
complex, or the same exception type and message.  On every fan case the fan
loader must agree in the same way with the one of ``fan_oracle``.

Each case starts from a valid document, then replaces one or two values by
values of another JSON type (an object inside a list by a non-object, say),
or deletes one or two keys; no value is mutated twice.  Keys of the ``cohomology`` and ``h`` tables
are data, not fields, so they are not deleted.  The loader must
return a valid object or raise ValueError, KeyError or FanhodgeError whose
message locates one of the mutated values: by its JSON path or that of an
enclosing value, or as the checks run on construction name objects:
``cone i``, ``identification i``, ``cusp 'name'`` (or its label), a stratum's
or component's quoted id, or the Gysin block ``gysin 'src'->'dst'`` as mutated.
Hypothesis draws 150 seeded cases per loader.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fan_oracle
from fanhodge.corank_report import CuspInventory
from fanhodge.errors import FanhodgeError, json_path
from fanhodge.fans import fan_system_from_dict
from fanhodge.fixtures import builtin_fixtures
from fanhodge.weight_ss import strata_complex_from_dict, strata_complex_to_dict
from test_face_index import outcome
from test_strata_loader import assert_same_as_reference
from test_weight_ss import annotated_hilbert_window

FIXTURES = builtin_fixtures()
TWO_CUSPS = {
    "cusps": [{"name": "P", "rank": 2},
              {"name": "C", "rank": 1, "embeddings": [{"parent": "P", "matrix": [[1], [0]]}]}],
    "cones": [{"cusp": "P", "rays": [[1, 0], [0, 1]]}, {"cusp": "C", "rays": [[1]]}],
    "identifications": [{"matrix": [[0, 1], [1, 0]], "source": "P", "target": "P"}],
}
GYSIN = {
    "n": 1, "components": ["A"],
    "strata": [
        {"id": "Y", "index_set": [], "cohomology": {"2": {"weight": 2, "h": {"1,1": 1}}}},
        {"id": "X", "index_set": ["A"], "cohomology": {"0": {"weight": 0, "h": {"0,0": 1}}}},
    ],
    "gysin": [{"src": "X", "dst": "Y", "degree": 0, "p": 0, "q": 0, "matrix": [["-3/6"]]}],
}
INVENTORY = {
    "cusps": [{"label": "a", "dim_S_cat": 2, "dim_U": 3},
              {"label": "b", "dim_S_cat": 0, "dim_U": 1}],
    "neat": False, "dim_M_can": 2, "dim_Omega_n_minus_1": 1, "dim_GrW_np1_Fn": 1,
    "dim_H0K_corank1": 2, "dim_Hn1": 1, "dim_FnW_np1": 1,
}
LOADERS = {
    "fan": (fan_system_from_dict, [FIXTURES["hilbert"], FIXTURES["hilbert_cubed"], TWO_CUSPS]),
    "strata": (strata_complex_from_dict, [FIXTURES["cstar"], FIXTURES["p1xp1"], GYSIN]),
    "inventory": (CuspInventory.from_dict, [INVENTORY]),
    # repeated Hodge tables and Gysin blocks, which the loader shares
    "annotated": (strata_complex_from_dict,
                  [strata_complex_to_dict(annotated_hilbert_window(5, 2))]),
}
# seeded, so that every run draws the same cases
FUZZ = settings(max_examples=150, deadline=None, derandomize=True)
# one value of each JSON type, nested ones included
REPLACEMENTS = [None, True, 0, -1, 1.5, "", "1/2", [], [1], [[1]], {}, {"a": 1}]


def _paths(value, path=()):
    """The path of every value inside ``value``, itself included, as
    ``json_path`` parts: a key after the first gets a leading dot."""
    yield path
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _paths(child, path + (f".{key}" if path else key,))
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield from _paths(child, path + (i,))


def _key(part):
    return part if type(part) is int else part.lstrip(".")


def _parent(doc, path):
    for part in path[:-1]:
        doc = doc[_key(part)]
    return doc


@st.composite
def mutated(draw, kind):
    """(loader, mutated document, strings that locate a mutation)."""
    loader, docs = LOADERS[kind]
    original = draw(st.sampled_from(docs))
    doc = copy.deepcopy(original)
    where, done = set(), []
    for _ in range(draw(st.integers(1, 2))):
        # a value is mutated once: a second mutation there could restore its type
        paths = [p for p in _paths(doc) if not any(p[:len(q)] == q for q in done)]
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = _parent(doc, path) if path else None
        if (isinstance(parent, dict) and path[-2:-1] not in ((".cohomology",), (".h",))
                and draw(st.booleans())):
            del parent[_key(path[-1])]
        else:
            old = parent[_key(path[-1])] if path else doc
            new = draw(st.sampled_from(
                [r for r in REPLACEMENTS if type(r) is not type(old)]))
            if path:
                parent[_key(path[-1])] = copy.deepcopy(new)
            else:
                doc = copy.deepcopy(new)
        where |= _locators(original, doc, path)
        done.append(path)
    return loader, doc, where


def _locators(original, doc, path):
    """Strings any of which locates the value at ``path`` of ``doc``, the
    mutation of ``original``, in an error message."""
    found = {json_path(*path[:n]) for n in range(min(2, len(path)), len(path) + 1)}
    if not path:  # a new document: its missing keys are top-level ones
        found.update(original)
    if len(path) < 2 or type(path[1]) is not int:
        return found
    top, i = path[0], path[1]
    if top in ("cones", "identifications"):
        found.add(f"{top[:-1]} {i}")
    elif top == "cusps":
        found.add(f"cusp {original[top][i].get('name', original[top][i].get('label'))!r}")
    elif top == "components":
        found.add(repr(original[top][i]))
    elif top == "strata":
        found.add(repr(original[top][i]["id"]))
    elif top == "gysin" and isinstance(doc[top][i], dict):
        found.add(f"gysin {doc[top][i].get('src')!r}->{doc[top][i].get('dst')!r}")
    return found


def _check(case):
    loader, doc, where = case
    try:
        loader(doc)
    except (ValueError, KeyError, FanhodgeError) as exc:
        message = str(exc)
        assert any(w in message for w in where), (type(exc).__name__, message, where)


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_unmutated_documents_load(kind):
    loader, docs = LOADERS[kind]
    for doc in docs:
        loader(copy.deepcopy(doc))


@FUZZ
@given(mutated("fan"))
def test_fan_loader_on_mutated_documents(case):
    _check(case)


@FUZZ
@given(mutated("strata"))
def test_strata_loader_on_mutated_documents(case):
    _check(case)


@FUZZ
@given(mutated("inventory"))
def test_inventory_loader_on_mutated_documents(case):
    _check(case)


@FUZZ
@given(mutated("fan"))
def test_fan_loader_matches_the_reference_loader(case):
    doc = case[1]
    assert outcome(fan_system_from_dict, copy.deepcopy(doc)) == outcome(
        fan_oracle.fan_system_from_dict, copy.deepcopy(doc))


@FUZZ
@given(mutated("strata"))
def test_strata_loader_matches_the_reference_loader(case):
    assert_same_as_reference(case[1])


@FUZZ
@given(mutated("annotated"))
def test_annotated_strata_load_as_in_the_reference_loader(case):
    _check(case)
    assert_same_as_reference(case[1])
