"""Reference strata-complex loader and writer: the oracles for ``weight_ss``'s
one-pass loader and its writer.

This was ``weight_ss.strata_complex_from_dict`` and ``StrataComplex._validate``
before the loader shared equal Hodge tables and Gysin blocks and formatted
messages only on failure.  Every field is read through ``expect``/``member``,
every table through ``PureHS.from_dict`` and every block into a new
``Matrix``, and the validation builds each block's message and index sets.
It never rejects a repeated degree or Gysin block: the later one wins, but
it rejects a negative n as ``StrataComplex`` does.  Both
loaders must give equal complexes or raise the same exception with the same
message on every document without such a repeat.

``strata_complex_to_dict`` was ``weight_ss.strata_complex_to_dict`` before
the writer converted each distinct Hodge table and Gysin block once per
call: it converts every table and every entry of every block on its own,
each entry through ``Fraction``.  Both writers must give equal documents.
"""

from __future__ import annotations

import re
from fractions import Fraction

from fanhodge.errors import expect, json_path, member
from fanhodge.linalg import Matrix
from fanhodge.mhs import PureHS
from fanhodge.weight_ss import StrataComplex, Stratum

_RATIONAL = re.compile(r"([+-]?\d+)/(\d+)")
_GYSIN_FIELDS = (("src", str), ("dst", str), ("degree", int), ("p", int), ("q", int))
_GYSIN_TYPES = tuple(kind for _, kind in _GYSIN_FIELDS)


def _expect_rows(rows, *path) -> int:
    for i, row in enumerate(expect(rows, list, *path)):
        if len(expect(row, list, *path, i)) != len(rows[0]):
            raise ValueError(
                f"{json_path(*path, i)}: expected {len(rows[0])} entries, got {len(row)}"
            )
    return len(rows[0]) if rows else 0


def _gysin_matrix_from_json(rows, *path) -> Matrix:
    ncols = _expect_rows(rows, *path)
    out = []
    for i, row in enumerate(rows):
        if all(type(x) is int for x in row):
            out.append(row)
            continue
        entries = []
        for j, x in enumerate(row):
            match = _RATIONAL.fullmatch(x) if type(x) is str else None
            if type(x) is not int and (match is None or int(match[2]) == 0):
                raise ValueError(
                    f"{json_path(*path, i, j)}: expected an int or a 'p/q' string, got {x!r}"
                )
            entries.append(x if match is None else Fraction(int(match[1]), int(match[2])))
        out.append(entries)
    return Matrix(out, cols=ncols)


def _validate(n, components, strata, gysin):
    if n < 0:
        raise ValueError(f"n: negative dimension {n}")
    comp = set(components)
    if len(comp) != len(components):
        raise ValueError("duplicate component labels")
    ids = {}
    for s in strata:
        if s.id in ids:
            raise ValueError(f"duplicate stratum id {s.id!r}")
        ids[s.id] = s
        if list(s.index_set) != sorted(set(s.index_set)):
            raise ValueError(f"index set of {s.id!r} not sorted/distinct")
        if not set(s.index_set) <= comp:
            unknown = min(set(s.index_set) - comp)
            raise ValueError(f"unknown component {unknown!r} in {s.id!r}")
        m = s.codim
        for deg, hs in s.cohomology:
            if not 0 <= deg <= 2 * (n - m):
                raise ValueError(f"degree {deg} out of range for codim {m} stratum {s.id!r}")
            if hs.weight != deg:
                raise ValueError(f"stratum {s.id!r} degree {deg} carries weight {hs.weight}")
    for (src, dst, deg, p, q), m in sorted(gysin.items()):
        block = f"gysin {src!r}->{dst!r} deg {deg} ({p},{q})"
        if src not in ids or dst not in ids:
            raise ValueError(f"{block}: unknown stratum")
        s, t = ids[src], ids[dst]
        if p + q != deg:
            raise ValueError(f"{block}: bidegree does not match degree")
        omitted = set(s.index_set) - set(t.index_set)
        if len(t.index_set) != s.codim - 1 or len(omitted) != 1:
            raise ValueError(f"{block}: not a codimension-1 inclusion")
        want = (t.h(deg + 2, p + 1, q + 1), s.h(deg, p, q))
        if m.shape != want:
            raise ValueError(f"{block}: shape {m.shape}, declared dims {want}")


def strata_complex_from_dict(data: dict) -> StrataComplex:
    expect(data, dict)
    components = member(data, "components", list)
    for i, c in enumerate(components):
        expect(c, str, "components", i)
    strata = []
    for i, s in enumerate(member(data, "strata", list)):
        expect(s, dict, "strata", i)
        sid = member(s, "id", str, "strata", i)
        index_set = member(s, "index_set", list, "strata", i)
        for j, c in enumerate(index_set):
            expect(c, str, "strata", i, ".index_set", j)
        cohomology = {}
        for deg, hs in expect(s.get("cohomology", {}), dict, "strata", i, ".cohomology").items():
            path = f"strata[{i}] (id {sid!r}).cohomology[{deg!r}]"
            try:
                degree = int(deg)
            except ValueError:
                raise ValueError(f"{path}: expected an int degree as key") from None
            cohomology[degree] = PureHS.from_dict(hs, path + ".")
        strata.append(Stratum(sid, index_set, cohomology))
    gysin = {}
    for k, g in enumerate(expect(data.get("gysin", []), list, "gysin")):
        expect(g, dict, "gysin", k)
        key = tuple(g.get(f) for f, _ in _GYSIN_FIELDS)
        if tuple(map(type, key)) != _GYSIN_TYPES:
            for f, kind in _GYSIN_FIELDS:
                member(g, f, kind, "gysin", k)
        gysin[key] = _gysin_matrix_from_json(member(g, "matrix", object, "gysin", k),
                                             "gysin", k, ".matrix")
    n = member(data, "n", int)
    _validate(n, tuple(components), tuple(strata), gysin)
    try:
        return StrataComplex(n=n, components=components, strata=strata, gysin=gysin)
    except Exception as exc:  # the reference accepted it: the library must too
        raise AssertionError(f"library rejects what the reference accepts: {exc!r}") from exc


def _frac_to_json(x) -> int | str:
    f = Fraction(x)
    return int(f) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def strata_complex_to_dict(sc: StrataComplex) -> dict:
    return {
        "n": sc.n,
        "components": list(sc.components),
        "strata": [
            {
                "id": s.id,
                "index_set": list(s.index_set),
                "cohomology": {
                    str(deg): hs.to_dict() for deg, hs in s.cohomology
                },
            }
            for s in sc.strata
        ],
        "gysin": [
            {
                "src": src,
                "dst": dst,
                "degree": deg,
                "p": p,
                "q": q,
                "matrix": [[_frac_to_json(x) for x in row] for row in m.to_lists()],
            }
            for (src, dst, deg, p, q), m in sc.gysin
        ],
    }
