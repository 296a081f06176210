"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

Every workload runs at a tiny size (one short pass); the full sizes are only
exercised by perfbench/run.py.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

bench.import_program()

import fanhodge.cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COUNT_UNITS = ("count", "bits", "lines")


def tiny(workload: str, trace: bool, seed: int = 3) -> dict:
    return bench.run(workload, seed, 0, trace, tiny=True)


@pytest.mark.parametrize("trace", (False, True))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_is_correct_and_prints_every_metric_with_its_unit(workload, trace):
    out = tiny(workload, trace)
    result = out["result"]
    assert result["correct"], out["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = bench.PER_LAYER if trace else bench.END_TO_END
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == list(expected)
    table = bench.report(workload, 3, int(trace), out).splitlines()
    for name, unit in expected:
        assert any(line.split()[:1] == [name] and f" {unit}" in line for line in table), name
    assert json.loads(json.dumps(result)) == result


def test_benchmark_json_names_the_metrics_run_py_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(bench.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_traced_counts_repeat_exactly():
    first, second = (tiny("hilbert_ladder", True)["result"]["metrics"] for _ in range(2))
    counts = {k for k, v in first.items() if v["unit"] in COUNT_UNITS}
    assert "linalg.solve.calls" in counts and "fans.smooth_subdivide.cones_out" in counts
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["linalg.solve.calls"]["value"] > 0
    assert first["fans.smooth_subdivide.cones_out"]["value"] > 0


def _inputs(workload: str, seed: int, work: Path):
    jobs = WORKLOADS[workload]().setup(seed, work)
    files = {p.relative_to(work).as_posix(): p.read_bytes()
             for p in sorted(work.rglob("*")) if p.is_file()}
    return files, [getattr(job, "inputs", None) for job in jobs], [job.key for job in jobs]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_fixes_the_inputs(workload, tmp_path):
    one = _inputs(workload, 11, tmp_path / "a")
    assert one == _inputs(workload, 11, tmp_path / "b")
    assert one != _inputs(workload, 12, tmp_path / "c")


def test_corrupted_cli_output_counts_as_failed(monkeypatch):
    emit = fanhodge.cli._emit

    def corrupting_emit(payload, out, *, raw=False):
        emit(payload, out, raw=raw)
        if out:
            Path(out).write_bytes(Path(out).read_bytes() + b" ")

    monkeypatch.setattr(fanhodge.cli, "_emit", corrupting_emit)
    out = tiny("hilbert_ladder", False)
    assert not out["result"]["correct"]
    assert out["failed_frac"] == 1.0
    assert out["result"]["failed"] == out["result"]["attempted"]


def test_corrupted_smith_form_fails_the_oracle(tmp_path):
    jobs = WORKLOADS["lattice_snf"]().setup(5, tmp_path, tiny=True)
    job = next(j for j in jobs if j.kind == "snf")
    result = job.run()
    assert job.check(result, {}) == []
    u, d, v = result[0]
    rows = d.to_lists()
    rows[0][0] += 1
    assert job.check([(u, type(d)(rows), v)] + result[1:], {})


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "cli_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_times_are_scaled_by_the_reference_timings_around_them(monkeypatch):
    monkeypatch.setattr(bench, "REF_WINDOW", 1)  # one timing before, one after
    loop = bench.Loop()
    loop.times = [1.0, 1.0, 3.0]
    loop.refs = [(0, 2 * bench.REF_S), (2, 4 * bench.REF_S), (3, 4 * bench.REF_S)]
    assert loop.scaled() == pytest.approx([1 / 3, 1 / 3, 0.75])
