#!/usr/bin/env python3
"""Benchmark of fanhodge's fan -> homology -> weight pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see README.md) as a closed loop: one client, one thread,
each job issued after the previous one returns.  Reported times are wall
times scaled to a machine on which ``reference()`` takes REF_S (see Loop);
the table prints the unscaled wall times beside them.  Set-up builds the seeded
inputs and reference data several times and reports the median; the loop then
repeats the pass of jobs until the jobs' own wall time reaches ``--seconds``
(finishing the current pass).  Every job's exit codes and output bytes are
checked against ``golden.json`` and closed-form oracles outside the timed
region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half the
time untraced and half with the outside-in tracer installed, and prints the
per-layer metrics, per pass of the job list, plus the tracing overhead.  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import ast
import bisect
import gc
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import tokenize
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from tracer import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 5
MIN_TAIL_ABOVE = 10  # job_tail_s: highest percentile with this many jobs above it
REF_S = 0.005  # reported times are scaled to a machine where reference() takes this long
REF_EVERY_S = 0.05  # job time between two timings of reference()
REF_WINDOW = 5  # timings of reference() on each side of a job that set its scale

END_TO_END = (("job_p50_s", "s"), ("job_tail_s", "s"), ("jobs_per_s", "1/s"),
              ("setup_s", "s"), ("peak_rss_mib", "MiB"))

# (metric, traced function, field); counts are per pass of the job list
FUNCTION_METRICS = [("cli.main.calls", "cli.main", "calls"),
                    ("cli.main.self_s", "cli.main", "self_s")]
FUNCTION_METRICS += [(f"fans.{f}.self_s", f"fans.{f}", "self_s") for f in (
    "fan_system_from_dict", "two_division_subdivide", "smooth_subdivide", "is_refinement",
    "check_snc_condition", "ray_class_index", "cone_orbit_classes")]
FUNCTION_METRICS += [("fans.cone_orbit_classes.calls", "fans.cone_orbit_classes", "calls"),
                     ("fans.is_smooth.calls", "fans.is_smooth", "calls"),
                     ("fans.smooth_subdivide.cones_out", "fans.smooth_subdivide", "cones_out")]
FUNCTION_METRICS += [(f"delta_complex.{f}.self_s", f"delta_complex.{f}", "self_s") for f in (
    "quotient_delta_complex", "boundary_matrices", "homology_dims", "pseudomanifold_report",
    "integral_homology")]
FUNCTION_METRICS += [(f"linalg.{f}.{field}", f"linalg.{f}", field)
                     for f in ("rank", "solve", "rational_kernel_basis", "smith_normal_form")
                     for field in ("calls", "self_s", "cells")]
FUNCTION_METRICS += [("linalg.smith_normal_form.max_bits", "linalg.smith_normal_form",
                      "max_bits")]
FUNCTION_METRICS += [(f"linalg.{f}.calls", f"linalg.{f}", "calls") for f in (
    "invariant_factors", "extend_to_lattice_basis", "det", "inverse")]
FUNCTION_METRICS += [(f"weight_ss.{f}.self_s", f"weight_ss.{f}", "self_s") for f in (
    "strata_complex_from_dict", "weight_graded", "weight_filtration_on_FnHn")]
FUNCTION_METRICS += [(f"{f}.{field}", f, field) for f in (
    "weight_ss.bidegree_complex", "weight_ss.StrataComplex.gysin_block",
    "weight_ss.StrataComplex.stratum", "mhs.PureHS.h") for field in ("calls", "self_s")]
FUNCTION_METRICS += [(f"{f}.self_s", f, "self_s") for f in (
    "stairs.admissible_region", "stairs.render_region", "corank_report.report")]
UNITS = {"calls": "count", "self_s": "s", "cells": "count", "max_bits": "bits",
         "cones_out": "count"}

PER_LAYER = [(name, UNITS[field]) for name, _, field in FUNCTION_METRICS]
PER_LAYER += [(f"{layer}.self_s", "s") for layer in LAYERS]
PER_LAYER += [(f"{layer}.errors", "count") for layer in LAYERS]
PER_LAYER += [(f"loc.{layer}", "lines") for layer in LAYERS]
PER_LAYER += [("trace.overhead_s", "s"), ("trace.job_p50_s", "s"), ("trace.spans", "count"),
              ("failed_frac", "ratio")]


def import_program():
    """Put the checkout's own sources first on the path and import them."""
    if not (SRC / "fanhodge" / "__init__.py").is_file():
        raise SystemExit(f"error: no fanhodge sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fanhodge

    if Path(fanhodge.__file__).resolve().parent != SRC / "fanhodge":
        raise SystemExit(f"error: imported fanhodge from {fanhodge.__file__}")


def source_lines(path: Path) -> int:
    """Lines holding code: no blank, comment-only or docstring lines."""
    text = path.read_text(encoding="utf-8")
    doc_lines = set()
    for node in ast.walk(ast.parse(text)):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.Expr) \
                and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str):
            doc_lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    code_lines = set()
    skip = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER)
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in skip:
            code_lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(code_lines - doc_lines)


def reference() -> None:
    """Fixed pure-Python work: dicts, tuples, Fractions, big ints and a sort."""
    table = {}
    for i in range(1500):
        table[(i % 97, str(i))] = [Fraction(i, 7) + Fraction(1, i + 1),
                                   (i * 12345678901234567) ** 2]
    sorted(table.items(), key=lambda kv: (kv[0][1], kv[0][0]))


def time_reference() -> float:
    """Wall time of reference(), without garbage collection in it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        reference()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Loop:
    """Results of one closed-loop measurement.

    A shared machine changes speed for seconds to minutes at a time, by as
    much as the change a program edit would be judged by.  So the loop times
    ``reference()`` between jobs (every REF_EVERY_S of job time) and
    ``scaled()`` divides each job's wall time by the median reference time
    around it, then multiplies by REF_S.
    """

    def __init__(self):
        self.times: list[float] = []  # wall time of each job, in order
        self.refs: list[tuple[int, float]] = []  # (index of the next job, reference time)
        self.failed = 0
        self.passes = 0
        self.problems: list[str] = []

    @property
    def busy_s(self) -> float:
        return sum(self.times)

    def scaled(self) -> list[float]:
        at = [i for i, _ in self.refs]
        refs = [t for _, t in self.refs]
        out = []
        for i, t in enumerate(self.times):
            k = bisect.bisect_right(at, i)
            near = refs[max(0, k - REF_WINDOW):k + REF_WINDOW]
            out.append(t * REF_S / statistics.median(near))
        return out


def closed_loop(jobs, seconds: float, golden: dict, tracer=None) -> Loop:
    """Repeat the pass until the jobs' wall time reaches `seconds` (>= 1 pass)."""
    loop = Loop()
    since_ref = REF_EVERY_S
    while loop.passes == 0 or loop.busy_s < seconds:
        for job in jobs:
            if since_ref >= REF_EVERY_S:
                loop.refs.append((len(loop.times), time_reference()))
                since_ref = 0.0
            job.reset()
            if tracer is not None:
                tracer.job = len(loop.times)
            error = None
            start = perf_counter()
            try:
                outcome = job.run()
            except Exception as exc:  # a job that raises is a failed job
                error = exc
            loop.times.append(perf_counter() - start)
            since_ref += loop.times[-1]
            problems = [f"raised {error!r}"] if error else job.check(outcome, golden)
            if problems:
                loop.failed += 1
                loop.problems.append(f"{job.key}: {problems[0]}")
        loop.passes += 1
    loop.refs.append((len(loop.times), time_reference()))
    return loop


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with MIN_TAIL_ABOVE jobs above."""
    ordered = sorted(times)
    i = max(0, len(ordered) - MIN_TAIL_ABOVE - 1)
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def throughput(times: list[float], per_pass: int) -> float:
    """Jobs per second of one pass, from each job's median time over the passes.

    The median per job keeps a slow stretch of the machine, which hits only
    some passes, out of the figure.
    """
    medians = [statistics.median(times[j::per_pass]) for j in range(per_pass)]
    return per_pass / sum(medians)


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Set up and measure one workload; returns the result object and notes."""
    from workloads import WORKLOADS

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root))
    time_reference()  # warm-up: the first call also grows the heap
    try:
        setup_times, setup_refs = [], []
        for rep in range(SETUP_REPS):
            setup_refs.append(time_reference())
            start = perf_counter()
            golden = json.loads((HERE / "golden.json").read_text())
            jobs = WORKLOADS[workload]().setup(seed, work / f"setup{rep}", tiny)
            setup_times.append(perf_counter() - start)
            if rep:
                shutil.rmtree(work / f"setup{rep - 1}")
        setup_refs.append(time_reference())
        if not trace:
            loop = closed_loop(jobs, seconds, golden)
            scaled = loop.scaled()
            value, pct = tail(scaled)
            ref = statistics.median(t for _, t in loop.refs)
            metrics = {
                "job_p50_s": statistics.median(scaled),
                "job_tail_s": value,
                "jobs_per_s": throughput(scaled, len(jobs)),
                "setup_s": statistics.median(setup_times) * REF_S / statistics.median(setup_refs),
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = dict(END_TO_END)
            notes = {
                "job_p50_s": f"n={len(scaled)} jobs, {loop.passes} passes; "
                             f"wall {statistics.median(loop.times):.4g} s",
                "job_tail_s": f"p{pct:.1f} of n={len(scaled)} jobs; wall {tail(loop.times)[0]:.4g} s",
                "jobs_per_s": f"wall {throughput(loop.times, len(jobs)):.4g} 1/s; "
                              f"reference() {ref * 1e3:.3f} ms, {len(loop.refs)} timings",
                "setup_s": f"wall {statistics.median(setup_times):.4g} s",
            }
            loops = [loop]
        else:
            metrics, notes, loops = traced_metrics(workload, seed, jobs, seconds, golden)
            units = dict(PER_LAYER)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(len(lp.times) for lp in loops)
    failed = sum(lp.failed for lp in loops)
    if trace:
        metrics["failed_frac"] = failed / attempted
    return {
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        },
        "notes": notes,
        "failed_frac": failed / attempted,
        "problems": [p for lp in loops for p in lp.problems],
    }


def traced_metrics(workload, seed, jobs, seconds, golden):
    """Half the time untraced, half traced; per-layer metrics per traced pass."""
    import fanhodge

    plain = closed_loop(jobs, seconds / 2, golden)
    tracer = Tracer()
    tracer.install()
    try:
        traced = closed_loop(jobs, seconds / 2, golden, tracer)
    finally:
        tracer.uninstall()
    per_pass = traced.passes
    metrics = {}
    for name, function, field in FUNCTION_METRICS:
        stats = tracer.stats.get(function)
        value = 0 if stats is None else getattr(stats, field)
        metrics[name] = value if field == "max_bits" else value / per_pass
    for layer, self_s in tracer.layer_self_s().items():
        metrics[f"{layer}.self_s"] = self_s / per_pass
    for layer, errors in tracer.errors.items():
        metrics[f"{layer}.errors"] = errors / per_pass
    package = Path(fanhodge.__file__).parent
    for layer in LAYERS:
        metrics[f"loc.{layer}"] = source_lines(package / f"{layer}.py")
    traced_p50 = statistics.median(traced.scaled())
    metrics["trace.overhead_s"] = traced_p50 - statistics.median(plain.scaled())
    metrics["trace.job_p50_s"] = traced_p50
    metrics["trace.spans"] = len(tracer.span_name) / per_pass
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"spans-{workload}-seed{seed}.tsv.gz")
    notes = {"trace.overhead_s": f"traced {traced.passes} passes, untraced {plain.passes}"}
    return metrics, notes, [plain, traced]


def report(workload: str, seed: int, trace: int, out: dict) -> str:
    """Human-readable table: every metric by name with its unit."""
    result = out["result"]
    lines = [f"workload {workload}  seed {seed}  trace {trace}"]
    for name, m in result["metrics"].items():
        note = out["notes"].get(name, "")
        lines.append(f"  {name:<44} {m['value']:>14.6g} {m['unit']:<6} {note}".rstrip())
    lines.append(f"  failed_frac {out['failed_frac']:.6g} ({result['failed']} of "
                 f"{result['attempted']} jobs)")
    lines += [f"  FAILED {problem}" for problem in out["problems"][:5]]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(report(args.workload, args.seed, args.trace, out))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
