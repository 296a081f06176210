#!/usr/bin/env python3
"""Record golden.json: exit code and output digest of every catalogue spec.

    python3 perfbench/make_golden.py

Run once at the commit whose outputs are the reference; later commits are
checked against the recorded bytes.  Refuses to record a spec whose job
exits 2, writes to the console or fails its oracle.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
import tempfile
from pathlib import Path

from run import HERE, ROOT, import_program


def main() -> int:
    import_program()
    from workloads import WORKLOADS, digest

    golden = {}
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="golden-", dir=work_root))
    try:
        for name, cls in WORKLOADS.items():
            workload = cls()
            specs = workload.catalogue()
            for i, spec in enumerate(specs):
                job = workload.build(spec, work / name / f"{i:04d}", random.Random(0))
                outcome = job.run()
                outs = job.outputs(outcome)
                problems = [f"console output {outcome[1]!r}"] if outcome[1] else []
                problems += [f"{step} exit 2" for step, (code, _) in outs.items() if code == 2]
                if job.oracle is not None and not problems:
                    problems += job.oracle(outs)
                if problems:
                    raise SystemExit(f"{job.key}: {problems}")
                for step, (code, data) in outs.items():
                    golden[f"{job.key}/{step}"] = f"{code}:{digest(data)}"
            print(f"{name}: {len(specs)} specs", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    text = json.dumps(golden, indent=0, sort_keys=True) + "\n"
    (HERE / "golden.json").write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
