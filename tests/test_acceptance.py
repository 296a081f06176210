"""Acceptance gate: nine desk-scale criteria, one test (one pass/fail line
under -v) per criterion.  All values are exact rational arithmetic; the only
tolerance anywhere is the wall-clock budget of criterion 1.

The criteria: (1) the Hilbert-cusp subdivision pipeline through the CLI;
(2) the ray condition preserved by smoothing on randomized windows; (3) the
top homology of quotient circles; (4) the weight spectral sequence on the
``C*`` and ``(P^1)^2`` toric fixtures; (5) the residue description of the
weight filtration on the top Hodge piece; (6) the signed Gysin map against
the boundary map tensored with the identity; (7) stairs regions for the
classical group presets; (8) the Smith normal form against an independent
elimination oracle on 200 random matrices; (9) the corank
dimension-identity reports.
"""

import json
import random
import time
from fractions import Fraction

from fanhodge.cli import main
from fanhodge.corank_report import (
    CuspInventory,
    CuspRecord,
    exact_sequence_check_n1,
    graded_dims,
    surjectivity_flags,
)
from fanhodge.delta_complex import (
    boundary_matrices,
    pseudomanifold_report,
    quotient_delta_complex,
)
from fanhodge.fans import (
    check_snc_condition,
    fan_system_from_dict,
    fan_system_to_dict,
    hilbert_cusp_window,
    is_refinement,
    is_smooth,
    smooth_subdivide,
    two_division_subdivide,
)
from fanhodge.fixtures import (
    cstar_strata,
    hilbert_window,
    hilbert_window_cubed,
    p1xp1_strata,
)
from fanhodge.linalg import Matrix, rank, smith_normal_form
from fanhodge.stairs import (
    CorankData,
    admissible_region,
    preset_o2n,
    preset_sp,
    preset_u,
)
from fanhodge.weight_ss import (
    CuspStrataAnnotation,
    annotate_from_fans,
    bidegree_complex,
    signed_gysin_matrix,
    weight_filtration_on_FnHn,
    weight_graded,
)

from dense_oracle import dense_det, is_zero, matmul
from weight_oracle import kernel_basis, page_bidegrees, residue_projection, total_dim
from test_fans import random_unimodular_2x2, rank3_window
from test_linalg import oracle_rank, random_matrix
from test_weight_ss import tensor_identity


def test_criterion_1_subdivision_pipeline(tmp_path, capsys):
    start = time.monotonic()
    fan_path = tmp_path / "hilbert.json"
    fan_path.write_text(json.dumps(fan_system_to_dict(hilbert_window())))

    assert main(["check-snc", str(fan_path)]) == 1
    payload = json.loads(capsys.readouterr().out)
    rays = [(1, 0), (2, 1), (5, 3), (13, 8)]
    reported = sorted(
        (v["cone"], tuple(tuple(r) for r in v["rays"]))
        for v in payload["violations"]
    )
    assert reported == [(k, (rays[k], rays[k + 1])) for k in range(3)]

    out_path = tmp_path / "subdivided.json"
    assert main(["subdivide", str(fan_path), "-o", str(out_path)]) == 0
    assert main(["check-snc", str(out_path)]) == 0
    capsys.readouterr()

    sub = fan_system_from_dict(json.loads(out_path.read_text()))
    orig = hilbert_window()
    assert all(is_smooth(sub, c) for c in sub.cones)
    for c in sub.cones:
        assert abs(dense_det(Matrix([list(r) for r in c.rays]))) == 1
    assert is_refinement(sub, orig)
    assert time.monotonic() - start < 1.0


def test_criterion_2_condition_preserved_by_smoothing():
    rng = random.Random(20240501)
    fixtures = []
    for _ in range(6):
        m = random_unimodular_2x2(rng)
        window = hilbert_cusp_window(
            tuple(tuple(r) for r in m.to_lists()), rng.randint(2, 4)
        )
        fixtures.append(two_division_subdivide(window))
    for _ in range(6):
        fixtures.append(rank3_window(rng))
    assert len(fixtures) >= 10
    failures = 0
    for fs in fixtures:
        assert len(fs.cones) <= 20 and check_snc_condition(fs).ok
        if not check_snc_condition(smooth_subdivide(fs)).ok:
            failures += 1
    assert failures == 0


def test_criterion_3_top_homology_of_quotient_circles():
    fine = quotient_delta_complex(
        smooth_subdivide(two_division_subdivide(hilbert_window())), "F"
    )
    coarse = quotient_delta_complex(hilbert_window_cubed(), "F")
    assert coarse.count(0) == 3  # three-vertex circle
    for dc in (fine, coarse):
        rep = pseudomanifold_report(dc)
        assert rep.closed and rep.oriented
        cc = boundary_matrices(dc)
        top = dc.dim
        beta_top = dc.count(top) - rank(cc.boundary[top])
        assert beta_top == 1
        signs = dict(rep.fundamental_class)
        assert set(signs) == set(range(dc.count(top)))
        assert all(s in (-1, 1) for s in signs.values())  # every coordinate nonzero
        chain = Matrix([[Fraction(signs[i])] for i in range(dc.count(top))], cols=1)
        assert is_zero(matmul(cc.boundary[top], chain))  # exact, tolerance 0


def test_criterion_4_weight_ss_fixture_oracles():
    cstar = cstar_strata()
    h1 = weight_graded(cstar, 1)
    assert h1.graded_dim(2) == 1 and h1.piece(2).h(1, 1) == 1
    assert total_dim(weight_graded(cstar, 2)) == 0

    square = p1xp1_strata()
    assert weight_graded(square, 1).graded_dim(2) == 2
    h2 = weight_graded(square, 2)
    assert h2.graded_dim(3) == 0 and h2.graded_dim(4) == 1

    for sc, k in ((cstar, 1), (square, 2)):
        for P, Q in page_bidegrees(sc, k):
            bc = bidegree_complex(sc, P, Q)
            for m in range(2, len(bc.maps)):
                assert is_zero(matmul(bc.maps[m - 1], bc.maps[m]))


def test_criterion_5_top_hodge_piece_weight_graded():
    windows = (
        smooth_subdivide(two_division_subdivide(hilbert_window())),
        hilbert_window_cubed(),
    )
    for fs in windows:
        for d in (1, 2, 3):
            sc = annotate_from_fans(fs, CuspStrataAnnotation({"F": d}))
            rep = weight_filtration_on_FnHn(sc)
            assert dict(rep.graded).get(sc.n, 0) == d
            _, rows = kernel_basis(sc, sc.n)
            for sid in sorted({s for s, _ in rows}):
                proj = residue_projection(sc, sc.n, sid)
                assert proj.rows == proj.cols == d
                assert rank(proj) == d  # square and invertible


def test_criterion_6_signed_gysin_is_boundary_tensor_identity():
    windows = (
        smooth_subdivide(two_division_subdivide(hilbert_window())),
        hilbert_window_cubed(),
    )
    for fs in windows:
        boundary = boundary_matrices(quotient_delta_complex(fs, "F")).boundary[1]
        for d in (1, 2, 3):
            sc = annotate_from_fans(fs, CuspStrataAnnotation({"F": d}))
            gysin = signed_gysin_matrix(sc)
            expected = tensor_identity(boundary, d)
            assert gysin == expected or gysin == matmul(expected, -1)


def test_criterion_7_stairs_regions(capsys):
    assert main(["stairs", "--preset", "sp:2", "--k", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert sorted(map(tuple, payload["admissible"])) == sorted(
        {(0, 3), (1, 2), (2, 1), (3, 0), (1, 3), (2, 2), (3, 1), (3, 3)}
    )
    presets = (preset_sp(2), preset_sp(3), preset_o2n(4), preset_o2n(5),
               preset_u(2, 2), preset_u(2, 3))
    for cd in presets:
        for k in range(0, cd.c):  # single pure row below the boundary codim
            region = admissible_region(cd, k).admissible
            assert all(p + q == k for p, q in region)
            assert region == {
                (p, k - p)
                for p in range(min(k, cd.n) + 1)
                if 0 <= k - p <= min(k, cd.n)
            }
        for k in range(0, cd.n):  # roof pairs absent below the top degree
            for p, q in admissible_region(cd, k).admissible:
                if p + q > k:
                    assert p != k and q != k
    for n in (3, 4, 5, 6):  # odd weights vanish above the first step
        for p, q in admissible_region(preset_o2n(n), n).admissible:
            if p + q - n > 1:
                assert (p + q) % 2 == 0


def test_criterion_8_exact_linalg_oracle_agreement():
    rng = random.Random(777)
    agree = 0
    for _ in range(200):
        m = random_matrix(rng, max_dim=5, lo=-9, hi=9)
        expected = oracle_rank(m.to_lists())
        u, d, v = smith_normal_form(m)
        ok = (
            rank(m) == expected
            and matmul(matmul(u, m), v) == d
            and abs(dense_det(u)) == 1
            and abs(dense_det(v)) == 1
            and sum(1 for i in range(min(d.shape)) if d[i, i] != 0) == expected
        )
        agree += ok
    assert agree == 200  # 100% agreement


def test_criterion_9_corank_report_examples():
    # graded_dims worked examples
    (g,) = graded_dims(
        CorankData(n=3, n_seq=(3,), c=1),
        CuspInventory(cusps=(CuspRecord("a", 2, 3), CuspRecord("b", 3, 3))),
    )
    assert g.kind == "exact" and g.value == 5
    tube = preset_sp(2)  # n=3, n_seq=(1,3): top gap 2, tube domain
    inv = CuspInventory(
        cusps=tuple(CuspRecord(f"z{i}", 1, 3) for i in range(7)),
        dim_Omega_n_minus_1=0,
    )
    assert graded_dims(tube, inv)[-1].value == 7
    bounded = graded_dims(
        tube,
        CuspInventory(cusps=(CuspRecord("a", 4, 1),), dim_Omega_n_minus_1=1),
    )[0]
    assert bounded.kind == "bounds" and bounded.bounds == (3, 4)

    # exact-sequence worked examples
    assert exact_sequence_check_n1(CuspInventory(
        dim_GrW_np1_Fn=1, dim_H0K_corank1=2, dim_Hn1=1, dim_FnW_np1=0)) == 0
    assert exact_sequence_check_n1(CuspInventory(
        dim_GrW_np1_Fn=0, dim_H0K_corank1=0, dim_Hn1=0, dim_FnW_np1=0)) == 0
    assert exact_sequence_check_n1(CuspInventory(
        dim_GrW_np1_Fn=1, dim_H0K_corank1=2, dim_Hn1=1, dim_FnW_np1=1)) == 1

    # surjectivity worked examples and preset flags
    assert dict(surjectivity_flags(preset_sp(2)))[2] == "Surjective"
    assert dict(surjectivity_flags(preset_o2n(5)))[1] == "Obstructed-by-Omega^{n-1}"
    custom = dict(surjectivity_flags(CorankData(n=5, n_seq=(2, 5), c=3)))
    assert custom[1] == "Surjective"
    for cd in (preset_sp(2), preset_sp(3), preset_u(2, 2), preset_u(2, 3)):
        flags = dict(surjectivity_flags(cd))
        assert all(flags[i] == "Surjective" for i in range(2, cd.r + 1))
