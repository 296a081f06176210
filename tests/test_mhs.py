"""Formal Hodge tables: twists, effectivity, direct sums, serialization.

Tate twists and direct sums are the test oracles of ``weight_oracle``: no
library code reads them since E1 adds Hodge numbers into one table.  So are
effectivity, the Hodge filtration dimensions, the total dimension and the
weight range check of a mixed table, which no library code reads.
"""

import pytest

from fanhodge.mhs import MixedHSTable, PureHS
from weight_oracle import (
    direct_sum,
    f_graded_dim,
    is_effective,
    tate_twist,
    total_dim,
    weights_in_range,
)


def test_pure_hs_basic():
    h = PureHS(2, {(1, 1): 3, (2, 0): 1, (0, 2): 1})
    assert h.dim == 5
    assert h.h(1, 1) == 3 and h.h(5, -3) == 0
    with pytest.raises(ValueError):
        PureHS(2, {(1, 0): 1})
    with pytest.raises(ValueError):
        PureHS(2, {(1, 1): -1})


def test_zero_entries_are_dropped():
    assert PureHS(0, {(0, 0): 0}) == PureHS(0)
    assert PureHS(0, {(0, 0): 0}).is_zero()


def test_direct_sum():
    a = PureHS(2, {(1, 1): 1})
    b = PureHS(2, {(1, 1): 2, (2, 0): 1})
    assert direct_sum(a, b).h(1, 1) == 3
    with pytest.raises(ValueError):
        direct_sum(a, PureHS(3))


def test_tate_twist():
    h = PureHS(1, {(1, 0): 1, (0, 1): 1})
    t = tate_twist(h, 2)
    assert t.weight == 5 and t.h(3, 2) == 1 and t.h(2, 3) == 1
    assert tate_twist(t, -2) == h


def test_effectivity():
    assert is_effective(PureHS(0, {(0, 0): 1}))
    assert not is_effective(tate_twist(PureHS(0, {(0, 0): 1}), -1))


def test_hodge_filtration_dims():
    h = PureHS(2, {(2, 0): 1, (1, 1): 3, (0, 2): 1})
    assert [f_graded_dim(h, p) for p in range(4)] == [5, 4, 1, 0]


def test_mixed_table():
    t = MixedHSTable(2, [PureHS(2, {(1, 1): 2}), PureHS(4, {(2, 2): 1})])
    assert t.graded_dim(2) == 2 and t.graded_dim(4) == 1 and t.graded_dim(3) == 0
    assert total_dim(t) == 3
    assert weights_in_range(t, 2)
    assert not weights_in_range(MixedHSTable(1, [PureHS(3, {(2, 1): 1})]), 5)
    with pytest.raises(ValueError):
        MixedHSTable(2, [PureHS(2, {(1, 1): 1}), PureHS(2, {(2, 0): 1})])


def test_json_round_trip():
    h = PureHS(3, {(2, 1): 2, (1, 2): 2})
    assert PureHS.from_dict(h.to_dict()) == h
    t = MixedHSTable(3, [h, PureHS(4, {(2, 2): 5})])
    assert MixedHSTable.from_dict(t.to_dict()) == t


@pytest.mark.parametrize(
    "data, message",
    [({"weight": 0, "h": {"0,0": 1.5}}, "h['0,0']: expected int, got 1.5"),
     ({"weight": 0, "h": {"0,0": False}}, "h['0,0']: expected int, got False"),
     ({"weight": 2, "h": {"1,1": "2"}}, "h['1,1']: expected int, got '2'"),
     ({"weight": 2.0, "h": {"1,1": 2}}, "weight: expected int, got 2.0"),
     ({"weight": True, "h": {}}, "weight: expected int, got True")],
)
def test_from_dict_requires_int_hodge_data(data, message):
    with pytest.raises(ValueError) as exc:
        PureHS.from_dict(data, "strata[3].cohomology['2'].")
    assert str(exc.value) == f"strata[3].cohomology['2'].{message}"
    with pytest.raises(ValueError, match=r"^h\[|^weight"):
        PureHS.from_dict(data)


@pytest.mark.parametrize(
    "data, message",
    [([0], "strata[3]: expected an object, got [0]"),
     ({"weight": 0, "h": [1]}, "strata[3].h: expected an object, got [1]"),
     ({"weight": 0, "h": {"0": 1}}, "strata[3].h['0']: expected a key 'p,q' of two ints"),
     ({"weight": 0, "h": {"a,b": 1}}, "strata[3].h['a,b']: expected a key 'p,q' of two ints"),
     ({"weight": 0, "h": {"0,0": 1, "00,0": 2}},
      "strata[3].h: keys '0,0' and '00,0' both name (0,0)"),
     ({"weight": 2, "h": {"1,1": 1, " 1,1": 1}},
      "strata[3].h: keys '1,1' and ' 1,1' both name (1,1)")],
)
def test_from_dict_names_the_path_of_malformed_tables(data, message):
    with pytest.raises(ValueError) as exc:
        PureHS.from_dict(data, "strata[3].")
    assert str(exc.value) == message
