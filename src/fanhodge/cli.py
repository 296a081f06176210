"""Command-line entry point: file I/O wiring for every module.

Exit codes: 0 success, 1 validation failure (SNC violations found, nonzero
exact-sequence defect), 2 input/usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from operator import countOf

from . import __version__
from .corank_report import CuspInventory, report
from .delta_complex import homology_report, quotient_delta_complex
from .errors import FanhodgeError
from .fans import (
    check_snc_condition,
    fan_system_from_dict,
    fan_system_to_dict,
    is_refinement,
    smooth_subdivide,
    two_division_subdivide,
)
from .fixtures import builtin_fixtures
from .stairs import admissible_region, parse_preset, render_region
from .weight_ss import (
    strata_complex_from_dict,
    weight_filtration_on_FnHn,
    weight_graded,
)


def _load_json(path: str) -> dict:
    """The JSON value in the file ``path``.  Text that is not UTF-8 or not
    JSON, a value nested too deeply for the json module to read and an
    integer longer than the interpreter's digit limit are input errors
    naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            message = "JSON nested too deeply to read"
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            message = str(exc)
        except ValueError:  # the only other one json.load raises: int() of a long literal
            message = f"an integer has more than {sys.get_int_max_str_digits()} digits"
    raise ValueError(f"{path}: {message}")


class _NotPlainJSON(Exception):
    """A value that `_dump` leaves to the json module."""


_quote = json.encoder.encode_basestring_ascii


def _dump(obj, indent: str, parts: list) -> None:
    """Append to `parts` the text ``json.dumps(obj, indent=2, sort_keys=True)``
    gives for `obj` nested at `indent`.

    Takes exact str, int, bool, None, finite float, list, tuple and dicts
    with str keys; raises _NotPlainJSON on anything else.  A bool is not an
    exact int, so a list holding one is written item by item.
    """
    kind = type(obj)
    if kind is str:
        parts.append(_quote(obj))
    elif kind is int:
        parts.append(int.__repr__(obj))
    elif obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif kind is dict:
        if not obj:
            parts.append("{}")
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for key in sorted(obj):
            if type(key) is not str:
                raise _NotPlainJSON
            parts += (sep, _quote(key), ": ")
            _dump(obj[key], inner, parts)
            sep = ",\n" + inner
        parts.append("\n" + indent + "}")
    elif kind is list or kind is tuple:
        if not obj:
            parts.append("[]")
            return
        inner = indent + "  "
        if countOf(map(type, obj), int) == len(obj):
            # exact ints only (a bool is not one): rays, matrix rows, ids
            parts += ("[\n", inner, (",\n" + inner).join(map(int.__repr__, obj)),
                      "\n", indent, "]")
            return
        sep = "[\n" + inner
        for item in obj:
            parts.append(sep)
            _dump(item, inner, parts)
            sep = ",\n" + inner
        parts.append("\n" + indent + "]")
    elif kind is float and math.isfinite(obj):
        parts.append(float.__repr__(obj))
    else:
        raise _NotPlainJSON


def _dumps(payload) -> str:
    """The text of ``json.dumps(payload, indent=2, sort_keys=True)``.

    With ``indent`` the json module takes its pure-Python encoder, whose
    nested closures form reference cycles: each call would leave about 30
    objects that only the cyclic garbage collector frees, so a process
    calling `main` many times would run a collection every 20 or so calls
    and, now and then, a full one that stalls a single call.  `_dump` writes
    the same text and frees everything by reference counting; payloads
    it does not take go to json.dumps.  A list or tuple of exact ints, such
    as a ray, a matrix row or a list of simplex ids, is written in one
    join rather than one `_dump` call per entry.
    """
    parts: list = []
    try:
        _dump(payload, "", parts)
    except _NotPlainJSON:
        return json.dumps(payload, indent=2, sort_keys=True)
    return "".join(parts)


def _emit(payload, out: str | None, *, raw: bool = False) -> None:
    text = payload if raw else _dumps(payload) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cusp_or_default(fs, cusp: str | None) -> str:
    if cusp is not None:
        return cusp
    if len(fs.cusps) == 1:
        return fs.cusps[0].name
    if not fs.cusps:
        raise FanhodgeError("the window has no cusp")
    raise FanhodgeError("several cusps present; pass --cusp")


def cmd_check_snc(args) -> int:
    fs = fan_system_from_dict(_load_json(args.input))
    rep = check_snc_condition(fs)
    payload = {
        "ok": rep.ok,
        "violations": [
            {"cone": cone_id, "rays": [list(r) for r in rays]}
            for cone_id, rays in rep.violations
        ],
    }
    _emit(payload, args.output)
    return 0 if rep.ok else 1


def cmd_subdivide(args) -> int:
    fs = fan_system_from_dict(_load_json(args.input))
    sub = smooth_subdivide(two_division_subdivide(fs))
    if not is_refinement(sub, fs):
        raise FanhodgeError("internal: output does not refine the input")
    payload = fan_system_to_dict(sub)
    payload["note"] = "projectivity of the subdivision is not checked"
    _emit(payload, args.output)
    return 0


def cmd_homology(args) -> int:
    fs = fan_system_from_dict(_load_json(args.input))
    cusp = _cusp_or_default(fs, args.cusp)
    dc = quotient_delta_complex(fs, cusp)
    _emit(homology_report(dc), args.output)
    return 0


def cmd_spectral(args) -> int:
    sc = strata_complex_from_dict(_load_json(args.input))
    table = weight_graded(sc, args.k)
    _emit(table.to_dict(), args.output)
    return 0


def cmd_fn_filtration(args) -> int:
    sc = strata_complex_from_dict(_load_json(args.input))
    rep = weight_filtration_on_FnHn(sc)
    payload = {
        "n": rep.n,
        "graded": [{"m": m, "dim": d} for m, d in rep.graded],
        "cumulative": [{"m": m, "dim": d} for m, d in rep.cumulative],
    }
    _emit(payload, args.output)
    return 0


def cmd_stairs(args) -> int:
    cd = parse_preset(args.preset)
    rg = admissible_region(cd, args.k)
    if args.format == "json":
        _emit(rg.to_dict(), args.output)
    else:
        _emit(render_region(rg, args.format), args.output, raw=True)
    return 0


def cmd_report(args) -> int:
    cd = parse_preset(args.preset)
    inv = CuspInventory.from_dict(_load_json(args.inventory))
    payload = report(cd, inv)
    _emit(payload, args.output)
    n1 = payload.get("n1_exact_sequence")
    if n1 is not None and not n1["consistent"]:
        return 1
    check = payload.get("dim_M_can_check")
    if check is not None and check.get("consistent") is False:
        return 1
    return 0


@functools.cache
def _fixtures_text() -> str:
    """The ``fixtures`` document as emitted, built once per process: it
    never changes, and ``builtin_fixtures`` builds it afresh on each call."""
    return _dumps(builtin_fixtures()) + "\n"


def cmd_fixtures(args) -> int:
    _emit(_fixtures_text(), args.output, raw=True)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every call.

    Each subcommand NAME is handled by the module function ``cmd_NAME``
    (dashes become underscores); ``main`` looks it up when it dispatches,
    so the parser holds no handler.  Callers must not modify the result.
    """
    parser = argparse.ArgumentParser(
        prog="fanhodge",
        description="Fan subdivision, quotient homology, and weight bookkeeping.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, **kw):
        p = sub.add_parser(name, **kw)
        p.add_argument("-o", "--output", help="write output to this file")
        return p

    p = add("check-snc", help="check the ray condition on a fan window")
    p.add_argument("input", help="fan system JSON")

    p = add("subdivide", help="two-division + smoothing subdivision")
    p.add_argument("input", help="fan system JSON")

    p = add("homology", help="quotient-complex homology report")
    p.add_argument("input", help="fan system JSON")
    p.add_argument("--cusp", help="cusp name (defaults to the only cusp)")

    p = add("spectral", help="weight-graded Hodge table of H^k")
    p.add_argument("input", help="strata complex JSON")
    p.add_argument("--k", type=int, required=True, help="cohomology degree")

    p = add("fn-filtration", help="weight filtration on the top Hodge piece")
    p.add_argument("input", help="strata complex JSON")

    p = add("stairs", help="admissible (p,q) region")
    p.add_argument("--preset", required=True,
                   help="sp:G | o2n:N | u:P,Q | custom:N;N1,..;C")
    p.add_argument("--k", type=int, required=True, help="cohomology degree")
    p.add_argument("--format", choices=("json", "ascii", "svg"), default="json")

    p = add("report", help="corank dimension-identity report")
    p.add_argument("--preset", required=True, help="corank data preset")
    p.add_argument("--inventory", required=True, help="cusp inventory JSON")

    add("fixtures", help="emit the built-in fixtures as JSON")
    return parser


def main(argv=None) -> int:
    """Run one subcommand on ``argv`` (default ``sys.argv[1:]``); return its exit code.

    May be called any number of times in one process: every call parses
    into a fresh namespace on the shared parser of ``build_parser``, and the
    handler is read from the module when the call dispatches, so a
    ``cmd_*`` rebound after an earlier call takes effect.
    """
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except KeyError as exc:
        print(f"error: missing key {exc}", file=sys.stderr)
        return 2
    except (FanhodgeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
