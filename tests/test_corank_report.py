"""Siegel-operator dimension bookkeeping: graded dims, flags, exactness."""

import pytest

from fanhodge.errors import InvalidParams, MissingInput
from fanhodge.corank_report import (
    CuspInventory,
    CuspRecord,
    exact_sequence_check_n1,
    graded_dims,
    nonneat_note,
    report,
    surjectivity_flags,
)
from fanhodge.stairs import CorankData, preset_o2n, preset_sp, preset_u


def test_graded_dims_exact_sum():
    cd = CorankData(n=3, n_seq=(3,), c=1)
    inv = CuspInventory(cusps=(CuspRecord("a", 2, 3), CuspRecord("b", 3, 3)))
    (g,) = graded_dims(cd, inv)
    assert g.kind == "exact" and g.value == 5


def test_graded_dims_zero_dimensional_cusp_count():
    cd = CorankData(n=3, n_seq=(1, 3), c=2)
    cusps = tuple(CuspRecord(f"z{i}", 1, 3) for i in range(7))
    inv = CuspInventory(cusps=cusps + (CuspRecord("c", 4, 1),),
                        dim_Omega_n_minus_1=1)
    dims = graded_dims(cd, inv)
    top = dims[-1]
    assert cd.tube_domain
    assert top.kind == "exact" and top.value == 7


def test_graded_dims_bounds_for_first_step():
    cd = CorankData(n=3, n_seq=(1, 3), c=2)
    inv = CuspInventory(
        cusps=(CuspRecord("a", 4, 1),), dim_Omega_n_minus_1=1
    )
    first = graded_dims(cd, inv)[0]
    assert first.kind == "bounds" and first.bounds == (3, 4)


def test_graded_dims_missing_input():
    cd = CorankData(n=3, n_seq=(1, 3), c=2)
    inv = CuspInventory(cusps=(CuspRecord("a", 4, 1),))
    with pytest.raises(MissingInput):
        graded_dims(cd, inv)


def test_graded_dims_conditional_for_unit_gap_above_one():
    cd = CorankData(n=4, n_seq=(2, 3), c=2)
    inv = CuspInventory(cusps=(CuspRecord("a", 1, 2), CuspRecord("b", 1, 3)))
    kinds = [g.kind for g in graded_dims(cd, inv)]
    assert kinds == ["exact", "conditional"]


def test_graded_dims_rejects_unknown_corank():
    cd = CorankData(n=3, n_seq=(3,), c=1)
    inv = CuspInventory(cusps=(CuspRecord("a", 1, 2),))
    with pytest.raises(InvalidParams):
        graded_dims(cd, inv)


def test_surjectivity_flags_presets():
    for cd in (preset_sp(2), preset_sp(3), preset_u(2, 3), preset_u(2, 2)):
        flags = dict(surjectivity_flags(cd))
        assert flags[1] == "Obstructed-by-Omega^{n-1}"
        assert all(flags[i] == "Surjective" for i in range(2, cd.r + 1))
    o_flags = dict(surjectivity_flags(preset_o2n(5)))
    assert o_flags[1] == "Obstructed-by-Omega^{n-1}"
    assert o_flags[2] == "Surjective"


def test_surjectivity_flag_flips_with_first_step():
    custom = CorankData(n=5, n_seq=(2, 5), c=3)
    flags = dict(surjectivity_flags(custom))
    assert flags == {1: "Surjective", 2: "Surjective"}
    lowered = CorankData(n=5, n_seq=(1, 5), c=3)
    flipped = dict(surjectivity_flags(lowered))
    assert flipped[1] == "Obstructed-by-Omega^{n-1}" and flipped[2] == "Surjective"


def test_exact_sequence_defects():
    ok = CuspInventory(dim_GrW_np1_Fn=1, dim_H0K_corank1=2, dim_Hn1=1,
                       dim_FnW_np1=0)
    assert exact_sequence_check_n1(ok) == 0
    zero = CuspInventory(dim_GrW_np1_Fn=0, dim_H0K_corank1=0, dim_Hn1=0,
                         dim_FnW_np1=0)
    assert exact_sequence_check_n1(zero) == 0
    bad = CuspInventory(dim_GrW_np1_Fn=1, dim_H0K_corank1=2, dim_Hn1=1,
                        dim_FnW_np1=1)
    assert exact_sequence_check_n1(bad) == 1
    with pytest.raises(MissingInput):
        exact_sequence_check_n1(CuspInventory(dim_GrW_np1_Fn=1))


def test_nonneat_note():
    assert nonneat_note(CuspInventory()) is None
    note = nonneat_note(CuspInventory(neat=False))
    assert note and "G-invariant" in note


def test_report_mismatch_flagged_not_corrected():
    cd = CorankData(n=3, n_seq=(3,), c=1)
    inv = CuspInventory(cusps=(CuspRecord("a", 2, 3),), dim_M_can=5)
    out = report(cd, inv)
    check = out["dim_M_can_check"]
    assert check["consistent"] is False
    assert check["sum_of_graded"] == 2 and check["supplied"] == 5
    assert out["graded_dims"][0]["value"] == 2  # never silently corrected


def test_report_nonneat_annotates_every_identity():
    cd = CorankData(n=3, n_seq=(3,), c=1)
    inv = CuspInventory(
        cusps=(CuspRecord("z1", 1, 3), CuspRecord("z2", 1, 3),
               CuspRecord("z3", 1, 3)),
        neat=False,
    )
    out = report(cd, inv)
    assert out["graded_dims"][0]["value"] == 3  # count still asserted
    assert all("note" in g for g in out["graded_dims"])
    assert all("note" in f for f in out["surjectivity"])
    assert "nonneat_note" in out


def test_report_is_pure():
    cd = preset_sp(2)
    inv = CuspInventory(
        cusps=(CuspRecord("a", 1, 1), CuspRecord("b", 2, 3)),
        dim_Omega_n_minus_1=1,
    )
    assert report(cd, inv) == report(cd, inv)


def test_report_notes_a_dim_M_can_check_it_cannot_make():
    cd = preset_sp(2)  # n(1) = 1: the corank-1 piece is only bounded
    inv = CuspInventory(cusps=(CuspRecord("a", 1, 1), CuspRecord("b", 2, 3)),
                        dim_Omega_n_minus_1=1, dim_M_can=3)
    assert [g.kind for g in graded_dims(cd, inv)] == ["bounds", "exact"]
    assert report(cd, inv)["dim_M_can_check"] == {
        "supplied": 3, "consistent": None, "note": "not all graded pieces are exact"}


def test_report_nonneat_annotates_the_n1_exact_sequence():
    cd = CorankData(n=3, n_seq=(3,), c=1)
    inv = CuspInventory(dim_GrW_np1_Fn=1, dim_H0K_corank1=2, dim_Hn1=1, dim_FnW_np1=1,
                        neat=False)
    assert report(cd, inv)["n1_exact_sequence"] == {
        "defect": 1, "consistent": False, "note": nonneat_note(inv)}
