"""The four seeded workloads: what one pass of jobs holds, and how it is checked.

Every job drives the public surface of fanhodge: ``fanhodge.cli.main`` with
JSON files in and out, or a public library function where no subcommand
exposes the computation.  A workload's seed picks the job specs of one pass;
the run repeats that pass.  CLI outputs are compared byte for byte with
``golden.json`` (recorded by ``make_golden.py``), so every spec a seed can
draw is listed by the workload's ``catalogue``.  Library results are checked
against the closed-form oracles in ``oracles.py``.

Pass compositions are fixed per workload and only cost-neutral properties
(lattice automorphism applied to a window, which (a, b) of equal cost, job
order) are left to the seed, so that medians agree across seeds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from math import gcd
from pathlib import Path

import fanhodge.cli as cli
import fanhodge.delta_complex as delta_complex
import fanhodge.fans as fans
import fanhodge.fixtures as fixtures
import fanhodge.linalg as linalg
import fanhodge.weight_ss as weight_ss

import oracles

# Lattice automorphisms applied to generated windows.  Small entries keep the
# cost of a job nearly independent of the choice.
G2 = (
    ((1, 0), (0, 1)), ((0, 1), (1, 0)), ((1, 1), (0, 1)), ((1, 0), (1, 1)),
    ((1, -1), (0, 1)), ((-1, 0), (0, 1)), ((2, 1), (1, 1)), ((1, 0), (-2, 1)),
)
G3 = (
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
    ((1, 1, 0), (0, 1, 0), (0, 0, 1)), ((1, 0, 0), (0, 1, 1), (0, 0, 1)),
    ((1, 0, 0), (0, 1, 0), (1, 0, 1)), ((1, 0, -1), (0, 1, 0), (0, 0, 1)),
    ((0, 0, 1), (1, 0, 0), (0, 1, 0)), ((-1, 0, 0), (0, 1, 0), (0, 1, 1)),
)
AB_SMALL = [(a, b) for a in (1, 2, 3) for b in (1, 2)]  # one two-division step
AB_ALL = [(a, b) for a in (1, 2, 3) for b in (1, 2, 3)]  # b = 3 also smooths


def dump(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode()


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def spec_key(workload: str, spec: tuple) -> str:
    return ":".join([workload] + [str(x) for x in spec])


# -- generated inputs (benchmark code only, no fanhodge) -----------------------


def _apply(m, v):
    return [sum(x * y for x, y in zip(row, v)) for row in m]


def _inverse2(g):
    (p, q), (r, s) = g
    d = p * s - q * r  # +-1
    return [[d * s, -d * q], [-d * r, d * p]]


def hilbert_window(a: int, b: int, length: int, g: int, power: int | None = None) -> dict:
    """Chain of `length` cones v_k, v_k+1 with v_k = M^k (1,0), M = [[1+ab, a],
    [b, 1]], identified by M^power (default M^length), conjugated by G2[g]."""
    m = [[1 + a * b, a], [b, 1]]
    rays = [[1, 0]]
    for _ in range(length):
        rays.append(_apply(m, rays[-1]))
    ident = [[1, 0], [0, 1]]
    for _ in range(length if power is None else power):
        ident = oracles.matmul(ident, m)
    gm = [list(r) for r in G2[g]]
    rays = [_apply(gm, r) for r in rays]
    ident = oracles.matmul(oracles.matmul(gm, ident), _inverse2(gm))
    return {
        "cusps": [{"name": "F", "rank": 2, "embeddings": []}],
        "cones": [{"cusp": "F", "rays": [rays[k], rays[k + 1]]} for k in range(length)],
        "identifications": [{"matrix": ident, "source": "F", "target": "F"}],
    }


def cone_window(rays: list[list[int]], g: int) -> dict:
    """One simplicial cone, no identifications, rays moved by G2/G3[g]."""
    gm = [list(r) for r in (G2 if len(rays) == 2 else G3)[g]]
    return {
        "cusps": [{"name": "F", "rank": len(rays), "embeddings": []}],
        "cones": [{"cusp": "F", "rays": [_apply(gm, r) for r in rays]}],
        "identifications": [],
    }


def subdivided(window: dict):
    """The library's subdivision of a window (set-up work, not timed)."""
    fs = fans.fan_system_from_dict(window)
    return fans.smooth_subdivide(fans.two_division_subdivide(fs))


def annotated_strata(fs, d: int) -> dict:
    """Strata-complex JSON of a subdivided window annotated with dimension d."""
    sc = weight_ss.annotate_from_fans(fs, weight_ss.CuspStrataAnnotation({"F": d}))
    return weight_ss.strata_complex_to_dict(sc)


def circle_tops(n: int, rng: random.Random) -> list[list[int]]:
    """Edges of an n-cycle whose vertices are relabelled by a seeded permutation."""
    label = list(range(n))
    rng.shuffle(label)
    return [sorted((label[i], label[(i + 1) % n])) for i in range(n)]


# -- jobs -------------------------------------------------------------------------


class CliJob:
    """A sequence of CLI calls, each writing one output file."""

    def __init__(self, key: str, kind: str, steps, oracle=None):
        self.key, self.kind = key, kind
        self.steps = steps  # [(step name, argv, output path)]
        self.oracle = oracle  # {step: (exit, bytes)} -> [problems]

    def reset(self) -> None:
        for _, _, path in self.steps:
            Path(path).unlink(missing_ok=True)

    def run(self):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            codes = [cli.main(argv) for _, argv, _ in self.steps]
        return codes, sink.getvalue()

    def outputs(self, outcome) -> dict:
        """Exit code and output bytes per step."""
        codes, _ = outcome
        out = {}
        for (name, _, path), code in zip(self.steps, codes):
            p = Path(path)
            out[name] = (code, p.read_bytes() if p.exists() else b"")
        return out

    def check(self, outcome, golden: dict) -> list[str]:
        problems = []
        if outcome[1]:
            problems.append(f"console output: {outcome[1][:80]!r}")
        outs = self.outputs(outcome)
        for name, (code, data) in outs.items():
            want = golden.get(f"{self.key}/{name}")
            got = f"{code}:{digest(data)}"
            if want != got:
                problems.append(f"{name}: got {got}, golden {want}")
        if self.oracle is not None and not problems:
            problems += _apply_oracle(self.oracle, outs)
        return problems


class LibJob:
    """A call into a public library function, checked by an oracle."""

    def __init__(self, key: str, kind: str, inputs, call, oracle):
        self.key, self.kind = key, kind
        self.inputs = inputs  # JSON-ready copy of what `call` is given
        self.call, self.oracle = call, oracle

    def reset(self) -> None:
        pass

    def run(self):
        return self.call()

    def check(self, outcome, golden: dict) -> list[str]:
        return _apply_oracle(self.oracle, outcome)


def _apply_oracle(oracle, outcome) -> list[str]:
    """The oracle's problems; an output it cannot read is a problem too."""
    try:
        return oracle(outcome)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return [f"oracle could not read output: {exc!r}"]


def _write(path: Path, obj) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(dump(obj))
    return str(path)


def _load(data: bytes):
    return json.loads(data.decode())


def _hilbert_oracle(outs) -> list[str]:
    problems = []
    if not oracles.all_cones_unimodular(_load(outs["subdivide"][1])):
        problems.append("subdivided cone with |det| != 1")
    snc = _load(outs["check-snc"][1])
    if outs["check-snc"][0] != 0 or not snc["ok"] or snc["violations"]:
        problems.append("check-snc fails on subdivide output")
    hom = _load(outs["homology"][1])
    fc = hom["fundamental_class"] or []
    if hom["betti"] != [1, 1] or not hom["closed"] or not hom["oriented"]:
        problems.append(f"quotient circle homology {hom}")
    if not fc or any(abs(e["sign"]) != 1 for e in fc):
        problems.append("fundamental class entries not +-1")
    return problems


def _fn_oracle(d: int):
    def check(outs) -> list[str]:
        fn = _load(outs["fn-filtration"][1])
        want = [{"m": 1, "dim": 0}, {"m": 2, "dim": d}]
        if fn["n"] != 2 or fn["graded"] != want or fn["cumulative"] != want:
            return [f"Gr^W F^n {fn} != (m=1: 0, m=2: {d})"]
        return []
    return check


def _subdivide_oracle(outs) -> list[str]:
    if not oracles.all_cones_unimodular(_load(outs["subdivide"][1])):
        return ["subdivided cone with |det| != 1"]
    return []


# -- workloads --------------------------------------------------------------------


class Workload:
    """One workload; an instance holds the state of one set-up."""

    name = ""
    shuffle = True  # job order within a pass is left to the seed

    def __init__(self):
        self._fixtures = None

    def fixture(self, name: str) -> dict:
        if self._fixtures is None:
            self._fixtures = fixtures.builtin_fixtures()
        return self._fixtures[name]

    def catalogue(self) -> list[tuple]:
        """Every golden-checked spec that `draw` can return."""
        raise NotImplementedError

    def draw(self, rng: random.Random, tiny: bool) -> list[tuple]:
        raise NotImplementedError

    def build(self, spec: tuple, work: Path, rng: random.Random):
        raise NotImplementedError

    def setup(self, seed: int, work: Path, tiny: bool = False) -> list:
        """Generate the inputs and reference data of one pass."""
        rng = random.Random(seed)
        specs = self.draw(rng, tiny)
        if self.shuffle:
            rng.shuffle(specs)
        return [self.build(spec, work / f"{i:03d}", rng) for i, spec in enumerate(specs)]


class HilbertLadder(Workload):
    """subdivide -> check-snc -> homology on rank-2 Hilbert cusp windows."""

    name = "hilbert_ladder"

    def catalogue(self):
        sizes = [(ab, 10) for ab in AB_ALL] + [(ab, 20) for ab in AB_SMALL]
        sizes += [(ab, 40) for ab in AB_SMALL] + [((1, 1), 80)]
        return [("win", a, b, n, g) for (a, b), n in sizes for g in range(len(G2))]

    def draw(self, rng, tiny):
        g = lambda: rng.randrange(len(G2))  # noqa: E731
        if tiny:
            return [("win", 1, 1, 10, g()), ("win", 1, 3, 10, g())]
        specs = [("win", a, b, 10, g()) for a, b in AB_SMALL]
        specs += [("win", a, b, 20, g()) for a, b in AB_SMALL]
        specs += [("win", a, 3, 10, g()) for a in (1, 2, 3)]
        specs += [("win", a, b, 40, g()) for a, b in rng.sample(AB_SMALL, 3)]
        specs.append(("win", 1, 1, 80, g()))
        return specs

    def build(self, spec, work, rng):
        _, a, b, n, g = spec
        src = _write(work / "window.json", hilbert_window(a, b, n, g))
        sub, snc, hom = (str(work / f) for f in ("sub.json", "snc.json", "hom.json"))
        steps = [
            ("subdivide", ["subdivide", src, "-o", sub], sub),
            ("check-snc", ["check-snc", sub, "-o", snc], snc),
            ("homology", ["homology", sub, "-o", hom], hom),
        ]
        return CliJob(spec_key(self.name, spec), f"L{n}", steps, _hilbert_oracle)


FN_G40 = (0, 2, 5, 6)  # G2 entries under which L = 40, d = 3 costs the same


class FnWeight(Workload):
    """fn-filtration and spectral --k 2 on strata complexes built by the library."""

    name = "fn_weight"

    def __init__(self):
        super().__init__()
        self._subdivided = {}  # (g, L) -> subdivided FanSystem

    def catalogue(self):
        specs = [("ann", g, n, d) for g in range(len(G2)) for n in (10, 20, 40)
                 for d in (1, 2, 3)]
        return specs + [("fixture", "cstar"), ("fixture", "p1xp1")]

    def draw(self, rng, tiny):
        if tiny:
            return [("ann", 0, 10, 1), ("fixture", "cstar")]
        specs = [("fixture", "cstar"), ("fixture", "p1xp1")]
        for n in (10, 20):
            g = rng.randrange(len(G2))
            specs += [("ann", g, n, d) for d in (1, 2, 3)]
        # d = 3 at L = 40 three times (three windows of equal cost) puts enough
        # of the costliest jobs in a run that job_tail_s falls inside their
        # group, not on its edge.
        g, *others = rng.sample(FN_G40, 3)
        specs += [("ann", g, 40, d) for d in (1, 2, 3)]
        specs += [("ann", h, 40, 3) for h in others]
        return specs

    def strata(self, spec) -> dict:
        """The strata-complex JSON of a spec, built through the library."""
        if spec[0] == "fixture":
            return self.fixture(spec[1])
        _, g, n, d = spec
        if (g, n) not in self._subdivided:
            self._subdivided[(g, n)] = subdivided(hilbert_window(1, 1, n, g))
        return annotated_strata(self._subdivided[(g, n)], d)

    def build(self, spec, work, rng):
        src = _write(work / "strata.json", self.strata(spec))
        fn, sp = str(work / "fn.json"), str(work / "spectral.json")
        steps = [
            ("fn-filtration", ["fn-filtration", src, "-o", fn], fn),
            ("spectral", ["spectral", src, "--k", "2", "-o", sp], sp),
        ]
        oracle = _fn_oracle(spec[3]) if spec[0] == "ann" else None
        kind = f"L{spec[2]}d{spec[3]}" if spec[0] == "ann" else spec[1]
        return CliJob(spec_key(self.name, spec), kind, steps, oracle)


R2_MULTS = (7, 13, 19, 25, 31)
R3_LAST_RAYS = ((1, 1, 7), (1, 2, 9), (1, 2, 11))  # rank-3 cones e1, e2, (x, y, m)
R3_G = (1, 2, 3, 4, 6)  # G3 entries under which each of these cones costs the same
CIRCLE_SIZES = (40, 80, 160)
SNF_BATCHES, SNF_BATCH, SNF_SIZE = 22, 8, 5


def _units(m: int) -> list[int]:
    """k in 1..m-1 with (k, m) primitive."""
    return [k for k in range(1, m) if gcd(k, m) == 1]


class LatticeSnf(Workload):
    """Lattice-point search, sparse integral homology and dense Smith forms."""

    name = "lattice_snf"

    def catalogue(self):
        specs = [("r2", m, k, g) for m in R2_MULTS for k in _units(m)
                 for g in range(len(G2))]
        specs += [("r3",) + last + (g,) for last in R3_LAST_RAYS for g in R3_G]
        return specs

    def draw(self, rng, tiny):
        if tiny:
            return [("r2", 7, 2, 0), ("r3", 1, 1, 7, 1), ("circle", 20), ("snf", 2)]
        specs = [("r2", m, rng.choice(_units(m)), rng.randrange(len(G2))) for m in R2_MULTS]
        specs += [("r3",) + last + (rng.choice(R3_G),) for last in R3_LAST_RAYS]
        specs += [("circle", n) for n in CIRCLE_SIZES]
        specs += [("snf", SNF_BATCH)] * SNF_BATCHES
        return specs

    def build(self, spec, work, rng):
        key = spec_key(self.name, spec)
        if spec[0] in ("r2", "r3"):
            if spec[0] == "r2":
                _, m, k, g = spec
                rays = [[1, 0], [k, m]]
            else:
                _, x, y, m, g = spec
                rays = [[1, 0, 0], [0, 1, 0], [x, y, m]]
            src = _write(work / "cone.json", cone_window(rays, g))
            out = str(work / "sub.json")
            steps = [("subdivide", ["subdivide", src, "-o", out], out)]
            return CliJob(key, f"{spec[0]}m{rays[-1][-1]}", steps, _subdivide_oracle)
        if spec[0] == "circle":
            tops = circle_tops(spec[1], rng)

            def call():
                dc = delta_complex.from_top_simplices(tops)
                return delta_complex.integral_homology(delta_complex.boundary_matrices(dc))

            def oracle(result):
                got = [[free, list(torsion)] for free, torsion in result]
                if got != oracles.CIRCLE_INTEGRAL_HOMOLOGY:
                    return [f"circle integral homology {got}"]
                return []

            return LibJob(key, f"circle{spec[1]}", tops, call, oracle)
        mats = [[[rng.randint(-9, 9) for _ in range(SNF_SIZE)] for _ in range(SNF_SIZE)]
                for _ in range(spec[1])]
        expected = [oracles.invariant_factors(m) for m in mats]

        def call():
            return [linalg.smith_normal_form(linalg.Matrix(m)) for m in mats]

        def oracle(result):
            problems = []
            for m, want, (u, d, v) in zip(mats, expected, result):
                problems += oracles.snf_problems(
                    m, u.to_lists(), d.to_lists(), v.to_lists(), want)
            return problems

        return LibJob(key, "snf", mats, call, oracle)


STAIRS_PRESETS = ("sp:2", "sp:3", "sp:4", "o2n:3", "o2n:4", "o2n:5", "o2n:6",
                  "u:1,1", "u:1,2", "u:2,2", "u:2,3", "custom:5;2,5;2",
                  "custom:6;1,3,6;3")
STAIRS_KS = range(1, 9)
REPORT_INVENTORIES = 48
# fn-filtration input per round: (L, d) of an annotated window, or a fixture
FN_INPUTS = ((3, 1), (4, 2), (5, 1), (3, 2), (4, 1), (5, 2), "cstar", "p1xp1")
SMALL_AB = ((1, 1), (1, 2), (2, 1), (2, 2))


def _n_seq(preset: str) -> tuple[int, ...]:
    name, _, rest = preset.partition(":")
    if name == "sp":
        return tuple(i * (i + 1) // 2 for i in range(1, int(rest) + 1))
    if name == "o2n":
        return (1, int(rest))
    if name == "u":
        return tuple(i * i for i in range(1, int(rest.split(",")[0]) + 1))
    return tuple(int(x) for x in rest.split(";")[1].split(","))


def inventory(i: int) -> tuple[str, dict]:
    """Seeded cusp inventory number i and the preset it is reported against."""
    rng = random.Random(f"inventory-{i}")
    preset = rng.choice(STAIRS_PRESETS)
    seq = _n_seq(preset)
    cusps = [{"label": f"c{j}", "dim_S_cat": rng.randint(0, 5), "dim_U": rng.choice(seq)}
             for j in range(rng.randint(1, 5))]
    inv = {"cusps": cusps, "neat": rng.random() < 0.7}
    if seq[0] == 1:
        inv["dim_Omega_n_minus_1"] = rng.randint(0, 3)
    if rng.random() < 0.5:
        inv["dim_M_can"] = sum(c["dim_S_cat"] for c in cusps) + rng.choice((0, 0, 0, 1))
    if rng.random() < 0.5:  # four-term sequence, defect |a - b + c - d|
        a, c = rng.randint(0, 4), rng.randint(0, 4)
        b = rng.randint(0, a + c)
        inv.update(dim_GrW_np1_Fn=a, dim_H0K_corank1=b, dim_Hn1=c,
                   dim_FnW_np1=a - b + c + rng.choice((0, 0, 0, 1)))
    return preset, inv


class CliSmall(Workload):
    """Round-robin over all eight subcommands on small inputs."""

    name = "cli_small"
    shuffle = False  # round-robin order
    ROUNDS = 40

    def catalogue(self):
        specs = [("fixtures",)]
        specs += [("snc", a, b, n, p, g) for a, b in SMALL_AB for n in range(2, 7)
                  for p in ("M", "ML") for g in range(4)]
        specs += [("sub", a, b, n, g) for a, b in SMALL_AB for n in range(2, 7)
                  for g in range(4)]
        specs += [("hom", a, b, n, g) for a, b in SMALL_AB for n in range(3, 9)
                  for g in range(4)]
        specs += [("spectral", f, k) for f in ("cstar", "p1xp1") for k in (0, 1, 2)]
        specs += [("fn", a, b, n, d) for a, b in SMALL_AB for n in (3, 4, 5) for d in (1, 2)]
        specs += [("fn", f) for f in ("cstar", "p1xp1")]
        specs += [("stairs", p, k, f) for p in STAIRS_PRESETS for k in STAIRS_KS
                  for f in ("json", "ascii", "svg")]
        specs += [("report", i) for i in range(REPORT_INVENTORIES)]
        return specs

    def draw(self, rng, tiny):
        """Round i fixes the sizes (cycling with i); the seed picks the rest."""
        def ab():
            return rng.choice(SMALL_AB)

        specs = []
        for i in range(1 if tiny else self.ROUNDS):
            item = FN_INPUTS[i % len(FN_INPUTS)]
            fn = ("fn", item) if isinstance(item, str) else ("fn",) + ab() + item
            specs += [
                ("fixtures",),
                ("snc",) + ab() + (2 + i % 5, ("M", "ML")[i % 2], rng.randrange(4)),
                ("sub",) + ab() + (2 + i % 5, rng.randrange(4)),
                ("hom",) + ab() + (3 + i % 6, rng.randrange(4)),
                ("spectral", ("cstar", "p1xp1")[i % 2], i % 3),
                fn,
                ("stairs", rng.choice(STAIRS_PRESETS), rng.choice(STAIRS_KS), "json"),
                ("stairs", rng.choice(STAIRS_PRESETS), rng.choice(STAIRS_KS),
                 ("ascii", "svg")[i % 2]),
                ("report", rng.randrange(REPORT_INVENTORIES)),
            ]
        return specs

    def build(self, spec, work, rng):
        kind = spec[0]
        work.mkdir(parents=True, exist_ok=True)
        out = str(work / "out")
        oracle = None
        if kind == "fixtures":
            argv = ["fixtures"]
        elif kind in ("snc", "sub", "hom"):
            if kind == "snc":
                _, a, b, n, p, g = spec
                window = hilbert_window(a, b, n, g, power=1 if p == "M" else None)
                oracle = _snc_oracle(p == "M")
            elif kind == "sub":
                _, a, b, n, g = spec
                window = hilbert_window(a, b, n, g, power=1)
                oracle = _subdivide_oracle
            else:
                _, a, b, n, g = spec
                window = hilbert_window(a, b, n, g)
                oracle = _circle_report_oracle
            src = _write(work / "window.json", window)
            argv = [{"snc": "check-snc", "sub": "subdivide", "hom": "homology"}[kind], src]
        elif kind == "spectral":
            src = _write(work / "strata.json", self.fixture(spec[1]))
            argv = ["spectral", src, "--k", str(spec[2])]
        elif kind == "fn":
            if len(spec) == 2:
                data = self.fixture(spec[1])
            else:
                _, a, b, n, d = spec
                data = annotated_strata(subdivided(hilbert_window(a, b, n, 0)), d)
                oracle = _fn_oracle(d)
            src = _write(work / "strata.json", data)
            argv = ["fn-filtration", src]
        elif kind == "stairs":
            _, preset, k, fmt = spec
            argv = ["stairs", "--preset", preset, "--k", str(k), "--format", fmt]
        else:
            preset, inv = inventory(spec[1])
            src = _write(work / "inventory.json", inv)
            argv = ["report", "--preset", preset, "--inventory", src]
        steps = [(argv[0], argv + ["-o", out], out)]
        return CliJob(spec_key(self.name, spec), argv[0], steps, oracle)


def _snc_oracle(expect_violations: bool):
    def check(outs) -> list[str]:
        code, data = outs["check-snc"]
        payload = _load(data)
        if expect_violations != (code == 1) or payload["ok"] == expect_violations:
            return [f"check-snc exit {code}, ok={payload['ok']}"]
        return []
    return check


def _circle_report_oracle(outs) -> list[str]:
    hom = _load(outs["homology"][1])
    if hom["betti"] != [1, 1] or not hom["closed"] or not hom["oriented"]:
        return [f"quotient circle homology {hom}"]
    return []


WORKLOADS = {w.name: w for w in (HilbertLadder, FnWeight, LatticeSnf, CliSmall)}
