"""Weight spectral sequence of an SNC compactification over formal strata data.

The input is combinatorial: a list of boundary strata with declared pure
Hodge tables per cohomology degree, plus Gysin matrices between adjacent
strata.  The engine owns the E1 assembly, the alternating signs of the
differential, the E2 (= weight graded) dimensions, and the residue-kernel
description of the weight filtration on the top Hodge piece.

E2 is read one normalized bidegree at a time: the signed Gysin complex of
bidegree (P, Q) is a chain of columns over the codimension m, and one
private routine, ``_e2_dim``, gives the E2 dimension at column m, the
column's dimension less the ranks of the maps into and out of it (nothing
is ranked for an empty column).  ``weight_graded(sc, k)`` reads it at
column m of each bidegree complex on the antidiagonal k + m, and
``weight_filtration_on_FnHn`` at column m of bidegree (n, m): Gr^W_{n+m}
F^n H^n is that E2 term.  The E1 page itself (``e1_page``) is not needed
for either.

A stratum with index set I of size m lives in codimension m; the ambient
space itself is the unique stratum with empty index set.  Several strata
may share one index set (disconnected intersections).

Each ``StrataComplex`` indexes itself once: strata by id and the Gysin
blocks by key as it validates itself, and on first use strata by
codimension, in strata order and sorted by id (the order of the E1 sums
and of the bidegree bases), and each stratum's codimension-1 facets, found
by index-set lookup, with the sign of the omitted component.  Like
``FanSystem``'s cache, these lookups are not dataclass fields, so they never
change equality, hashing or the JSON form.  A bidegree complex is assembled
from the nonzero Gysin entries only, into the ``{column: entry}`` rows of a
``Matrix``, on which d_1 o d_1 = 0 is checked and which go as they are to
the sparse elimination core of ``linalg``, so E2 and the F^n filtration
cost in proportion to the nonzeros.  A Gysin block is a ``Matrix`` too,
whose nonzeros are copied with their sign.  Ranks take the forward
elimination pass only; no kernel basis is built.  An E1 entry adds the
shifted Hodge numbers of each distinct table, times the number of strata
that carry it, into one table.

The JSON loader reads a document in one validating pass and formats a
message only for a check that fails.  Each stratum and each Gysin block is
type-checked by one combined test of exact JSON types; only when it fails
do the per-field checks run, in field order, to name the first bad value
(or to pass a subclass of a JSON type).  Within one document, equal Hodge
tables and equal integer Gysin blocks are built once and shared (both are
immutable): a repeat is type-checked and looked up, not built again.  A
degree or a Gysin block given twice is an error.  Integral Gysin entries
stay ints; only "p/q" strings become Fractions.  A negative n is an error.

The JSON writer mirrors that sharing: each distinct Hodge table and Gysin
block object is converted once per call, an exact int entry as it is and
any other through ``Fraction``, and every stratum and every Gysin entry
gets fresh containers copied from that conversion, so no list or dict of
the document is shared and editing one entry leaves the others alone.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import attrgetter, countOf
from typing import Mapping, Sequence

from .errors import NotAComplex, SncConditionViolated, expect, expect_rows, json_path, member
from .delta_complex import _quotient
from .fans import FanSystem, check_snc_condition
from .linalg import Entry, Matrix, rank
from .mhs import MixedHSTable, PureHS

GysinKey = tuple[str, str, int, int, int]  # (src id, dst id, degree, p, q)


@dataclass(frozen=True)
class Stratum:
    """One connected boundary stratum (or the ambient space, index_set=())."""

    id: str
    index_set: tuple[str, ...]
    cohomology: tuple[tuple[int, PureHS], ...] = ()

    def __init__(
        self,
        id: str,
        index_set: Sequence[str],
        cohomology: Mapping[int, PureHS] = (),
    ):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "index_set", tuple(index_set))
        by_degree = dict(cohomology)
        object.__setattr__(self, "cohomology", tuple(sorted(by_degree.items())))
        # lookup table for h(); not a field, so equality and hashing ignore it
        object.__setattr__(self, "_by_degree", by_degree)

    @property
    def codim(self) -> int:
        return len(self.index_set)

    def h(self, degree: int, p: int, q: int) -> int:
        hs = self._by_degree.get(degree)
        return 0 if hs is None else hs.h(p, q)


@dataclass(frozen=True)
class StrataComplex:
    n: int
    components: tuple[str, ...]
    strata: tuple[Stratum, ...]
    gysin: tuple[tuple[GysinKey, Matrix], ...] = ()

    def __init__(
        self,
        n: int,
        components: Sequence[str],
        strata: Sequence[Stratum],
        gysin: Mapping[GysinKey, Matrix] = (),
    ):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "components", tuple(components))
        object.__setattr__(self, "strata", tuple(strata))
        object.__setattr__(self, "_gysin", dict(gysin))
        object.__setattr__(self, "gysin", tuple(sorted(self._gysin.items())))
        self._validate()

    def _validate(self):
        """Check n, the strata, then the Gysin blocks in key order; stores
        the id lookup it builds.  A message is formatted only for a failure."""
        if self.n < 0:
            raise ValueError(f"n: negative dimension {self.n}")
        comp = set(self.components)
        if len(comp) != len(self.components):
            raise ValueError("duplicate component labels")
        by_id, members = {}, {}  # members: the index set of each id, as a set
        for s in self.strata:
            if s.id in by_id:
                raise ValueError(f"duplicate stratum id {s.id!r}")
            by_id[s.id] = s
            ix = members[s.id] = set(s.index_set)
            if list(s.index_set) != sorted(ix):
                raise ValueError(f"index set of {s.id!r} not sorted/distinct")
            if not ix <= comp:
                unknown = min(ix - comp)
                raise ValueError(f"unknown component {unknown!r} in {s.id!r}")
            m = s.codim
            for deg, hs in s.cohomology:
                if not 0 <= deg <= 2 * (self.n - m):
                    raise ValueError(
                        f"degree {deg} out of range for codim {m} stratum {s.id!r}"
                    )
                if hs.weight != deg:
                    raise ValueError(
                        f"stratum {s.id!r} degree {deg} carries weight {hs.weight}"
                    )
        object.__setattr__(self, "_by_id", by_id)
        for (src, dst, deg, p, q), m in self.gysin:
            s, t = by_id.get(src), by_id.get(dst)
            if s is None or t is None:
                problem = "unknown stratum"
            elif p + q != deg:
                problem = "bidegree does not match degree"
            elif len(t.index_set) != s.codim - 1 or not members[dst] < members[src]:
                problem = "not a codimension-1 inclusion"
            elif m.shape != (want := (t.h(deg + 2, p + 1, q + 1), s.h(deg, p, q))):
                problem = f"shape {m.shape}, declared dims {want}"
            else:
                continue
            raise ValueError(f"gysin {src!r}->{dst!r} deg {deg} ({p},{q}): {problem}")

    # -- lookups: by id and by key built on construction, the rest on first use

    @cached_property
    def _by_codim(self) -> dict[int, tuple[Stratum, ...]]:
        groups: dict[int, list[Stratum]] = {}
        for s in self.strata:
            groups.setdefault(s.codim, []).append(s)
        return {m: tuple(group) for m, group in groups.items()}

    @cached_property
    def _by_codim_id(self) -> dict[int, tuple[Stratum, ...]]:
        """The strata of each codimension sorted by id: the order of the
        E1 sums and of the bidegree bases."""
        return {m: tuple(sorted(group, key=attrgetter("id")))
                for m, group in self._by_codim.items()}

    @cached_property
    def _facets(self) -> dict[str, tuple[tuple[Stratum, int], ...]]:
        """Per stratum id, its codimension-1 facets in strata order, each
        with the sign (-1)^(i-1) of the omitted component's position i."""
        cofaces: dict[tuple[str, ...], list[tuple[Stratum, int]]] = {}
        for s in self.strata:  # s, with its sign, per index set of a facet
            ix = s.index_set
            for i in range(len(ix)):
                cofaces.setdefault(ix[:i] + ix[i + 1 :], []).append((s, -1 if i % 2 else 1))
        found: dict[str, list[tuple[Stratum, int]]] = {s.id: [] for s in self.strata}
        for t in self.strata:  # in strata order, so no list needs a sort
            for s, sign in cofaces.get(t.index_set, ()):
                found[s.id].append((t, sign))
        return {sid: tuple(ts) for sid, ts in found.items()}

    def stratum(self, sid: str) -> Stratum:
        return self._by_id[sid]

    def strata_of_codim(self, m: int) -> list[Stratum]:
        return list(self._by_codim.get(m, ()))

    def gysin_block(self, src: str, dst: str, degree: int, p: int, q: int) -> Matrix | None:
        return self._gysin.get((src, dst, degree, p, q))


@dataclass(frozen=True)
class BidegreeComplex:
    """The (P,Q)-graded piece of the E1 page, as a chain of columns over m.

    Column m collects the h^{P-m,Q-m} parts of degree (P+Q-2m) cohomology of
    the codimension-m strata (normalized bidegree after the Tate twist by m).
    `maps[m]` is the signed Gysin sum column m -> column m-1 (this is -d_1).
    """

    P: int
    Q: int
    basis: tuple[tuple[tuple[str, int], ...], ...]  # per m: (stratum id, index)
    maps: tuple[Matrix, ...]  # maps[m]: column m -> column m-1; maps[0] unused

    def dim(self, m: int) -> int:
        if 0 <= m < len(self.basis):
            return len(self.basis[m])
        return 0

    def map_out(self, m: int) -> Matrix:
        if 1 <= m < len(self.maps):
            return self.maps[m]
        return Matrix([{}] * self.dim(m - 1), self.dim(m))


def bidegree_complex(sc: StrataComplex, P: int, Q: int) -> BidegreeComplex:
    """Assemble the signed Gysin complex in one normalized bidegree.

    Each map is written from the nonzero Gysin entries straight into the
    rows of a ``Matrix``, and d_1 o d_1 = 0 is checked on those rows, so the
    work is proportional to the nonzeros.
    """
    top = min(P, Q, sc.n)
    basis: list[tuple[tuple[str, int], ...]] = []
    offsets: list[dict[str, int]] = []
    by_codim = sc._by_codim_id
    for m in range(top + 1):
        deg = P + Q - 2 * m
        col: list[tuple[str, int]] = []
        off: dict[str, int] = {}
        for s in by_codim.get(m, ()):
            d = s.h(deg, P - m, Q - m)
            if d:
                off[s.id] = len(col)
                col.extend((s.id, i) for i in range(d))
        basis.append(tuple(col))
        offsets.append(off)
    maps = [Matrix((), len(basis[0]))]
    facets = sc._facets
    for m in range(1, top + 1):
        deg, p, q = P + Q - 2 * m, P - m, Q - m
        rows: list[dict[int, Entry]] = [{} for _ in basis[m - 1]]
        for src in sc.strata_of_codim(m):
            if src.id not in offsets[m]:
                continue
            coff = offsets[m][src.id]
            for dst, sign in facets[src.id]:
                block = sc.gysin_block(src.id, dst.id, deg, p, q)
                if block is None:
                    if dst.h(deg + 2, p + 1, q + 1) != 0:
                        raise ValueError(
                            f"missing gysin block {src.id!r}->{dst.id!r} "
                            f"degree {deg} bidegree ({p},{q})"
                        )
                    continue
                if not block.rows:
                    continue
                roff = offsets[m - 1][dst.id]
                for i in range(block.rows):
                    row = rows[roff + i]
                    # a sum that cancels is dropped by Matrix
                    for j, x in block.row(i):
                        row[coff + j] = row.get(coff + j, 0) + sign * x
        maps.append(Matrix(rows, len(basis[m])))
        if m > 1 and not maps[m - 1].product_is_zero(maps[m]):
            raise NotAComplex(
                f"signed Gysin maps do not compose to zero at bidegree ({P},{Q})"
            )
    return BidegreeComplex(P, Q, tuple(basis), tuple(maps))


def _bidegrees_for_antidiagonal(sc: StrataComplex, w: int) -> list[tuple[int, int]]:
    """Normalized bidegrees (P,Q) with P+Q=w that carry any dimension."""
    seen = set()
    for s in sc.strata:
        m = s.codim
        deg = w - 2 * m
        for d, hs in s.cohomology:
            if d != deg:
                continue
            for (p, q), dim in hs.hodge_numbers:
                if dim:
                    seen.add((p + m, q + m))
    return sorted(seen)


def _e2_dim(bc: BidegreeComplex, m: int) -> int:
    """The E2 dimension at column m of a bidegree complex: the column's
    dimension less the ranks of the maps out of it (maps[m]) and into it
    (maps[m + 1]).  The zero maps past either end, and both maps of an
    empty column, are not ranked."""
    dim = bc.dim(m)
    if dim:
        dim -= sum(rank(bc.maps[i]) for i in (m, m + 1) if 0 < i < len(bc.maps))
    return dim


@dataclass(frozen=True)
class SpectralPage:
    """E1 page data for one cohomology degree k.

    `entries` maps (p,q)=(-m,k+m) to the Tate-normalized Hodge table of
    H^{k-m}(D(m))(-m).
    """

    k: int
    n: int
    entries: tuple[tuple[tuple[int, int], PureHS], ...]

    @cached_property
    def _entries(self) -> dict[tuple[int, int], PureHS]:
        return dict(self.entries)

    def entry(self, p: int, q: int) -> PureHS:
        """The entry at (p, q); zero of weight q off the page, as
        E1^{-m,k+m} has weight k + m = q."""
        hs = self._entries.get((p, q))
        return PureHS(q) if hs is None else hs


def e1_page(sc: StrataComplex, k: int) -> SpectralPage:
    """Entry (-m, k+m) = Tate twist by m of degree (k-m) cohomology of D(m).

    Each distinct degree-(k-m) table of the codimension-m strata adds its
    Hodge numbers, shifted by (m, m) and times the number of strata that
    carry it, into one table per entry.
    """
    entries = []
    by_codim = sc._by_codim_id
    for m in range(0, min(k, sc.n) + 1):
        deg = k - m
        table: dict[tuple[int, int], int] = {}
        for hs, mult in Counter(s._by_degree.get(deg) for s in by_codim.get(m, ())).items():
            if hs is not None:
                for (p, q), d in hs.hodge_numbers:
                    table[p + m, q + m] = table.get((p + m, q + m), 0) + mult * d
        entries.append(((-m, k + m), PureHS(k + m, table)))
    return SpectralPage(k=k, n=sc.n, entries=tuple(entries))


def weight_graded(sc: StrataComplex, k: int) -> MixedHSTable:
    """E2 = E-infinity dimensions: the weight graded Hodge table of H^k.

    Weight k + m, for m = 0 .. min(k, n), has h^{P,Q} = ``_e2_dim`` at
    column m of the bidegree complex of (P, Q), for each normalized
    bidegree on the antidiagonal P + Q = k + m that carries any dimension.
    Every such complex is built, so d_1 o d_1 = 0 is checked on each.
    """
    graded = []
    for m in range(min(k, sc.n) + 1):
        table = {}
        for P, Q in _bidegrees_for_antidiagonal(sc, k + m):
            dim = _e2_dim(bidegree_complex(sc, P, Q), m)
            if dim:
                table[P, Q] = dim
        if table:
            graded.append(PureHS(k + m, table))
    return MixedHSTable(k, graded)


# -- weight filtration on the top Hodge piece -------------------------------


@dataclass(frozen=True)
class FnFiltrationReport:
    """Per-weight data for W on F^n H^n: graded and cumulative dims."""

    n: int
    graded: tuple[tuple[int, int], ...]  # (m, dim Gr^W_{n+m} F^n), m >= 1
    cumulative: tuple[tuple[int, int], ...]  # (m, dim W_{n+m}F^n / W_n F^n)


def weight_filtration_on_FnHn(sc: StrataComplex) -> FnFiltrationReport:
    """Gr^W_{n+m} F^n = kernel of the signed residue/Gysin map out of the
    canonical-form layer of the codimension-m strata: the E2 term at column
    m of bidegree (n, m), by ``_e2_dim``.  Column m is the last of that
    complex, so only the map out of it is ranked, and an empty column is
    not ranked."""
    n = sc.n
    graded = [(m, _e2_dim(bidegree_complex(sc, n, m), m)) for m in range(1, n + 1)]
    cumulative = []
    running = 0
    for m, d in graded:
        running += d
        cumulative.append((m, running))
    return FnFiltrationReport(n=n, graded=tuple(graded), cumulative=tuple(cumulative))


# -- synthetic strata complexes from fan windows -----------------------------


@dataclass(frozen=True)
class CuspStrataAnnotation:
    """Formal dimension of the canonical-form space per annotated cusp."""

    dims: tuple[tuple[str, int], ...]  # (cusp name, dim H^0(K) of Y-bar)
    ambient_dim: int | None = None

    def __init__(self, dims: Mapping[str, int], ambient_dim: int | None = None):
        object.__setattr__(self, "dims", tuple(sorted(dict(dims).items())))
        object.__setattr__(self, "ambient_dim", ambient_dim)


def annotate_from_fans(fs: FanSystem, ann: CuspStrataAnnotation) -> StrataComplex:
    """Synthetic strata complex whose signed Gysin complex is the boundary map
    of the quotient complex tensored with the annotated dimension.

    The strata of each annotated cusp are simplices of its quotient complex
    (``delta_complex``): the (t-1)-simplices carry the canonical-form
    dimension d in the top layer, the (t-2)-simplices the matching
    (n-t+1,1) layer, each face of a simplex is one identity Gysin block (the
    chain-complex signs are supplied by assembly), and a stratum's index set
    is the global ray classes of its vertices.  An annotated cusp with no
    cones in the window raises a ValueError naming it.  Two annotated cusps
    that share an orbit class of the strata's cone dimensions raise a
    ValueError naming both: each cusp's quotient would hold that class.
    The model is synthetic: it checks bookkeeping, not geometry.
    """
    report = check_snc_condition(fs)
    if not report.ok:
        raise SncConditionViolated(f"{len(report.violations)} violating cone(s)")
    dims = dict(ann.dims)
    tops = {
        cusp: max((c.dim() for c in fs.cones if c.cusp == cusp), default=None)
        for cusp in dims
    }
    missing = [cusp for cusp, top in tops.items() if top is None]
    if missing:
        raise ValueError(f"annotated cusp {missing[0]!r} has no cones in the window")
    t_values = set(tops.values())
    if len(t_values) != 1:
        raise ValueError("annotated cusps must share one top cone dimension")
    t = t_values.pop()
    if t < 1:
        raise ValueError("annotated cusps carry no cones")
    n = ann.ambient_dim if ann.ambient_dim is not None else t
    if n < t:
        raise ValueError("ambient dimension below top cone dimension")
    index = fs._index
    if len(dims) > 1:  # a stratum's orbit class must be one cusp's alone
        for dim in range(max(t - 1, 1), t + 1):
            for cls in index.orbits(dim):
                shared = sorted({index.rays[face[0]][0] for face in cls}.intersection(dims))
                if len(shared) > 1:
                    raise ValueError(
                        f"annotated cusps {shared[0]!r} and {shared[1]!r} share an orbit "
                        f"class of {dim}-cones; annotate one of them"
                    )

    # zero-padded, so that labels sort as their classes and vertices do
    n_classes = max(index.ray_class) + 1
    components = [f"C{j:0{len(str(n_classes - 1))}d}" for j in range(n_classes)]
    strata: list[Stratum] = []
    gysin: dict[GysinKey, Matrix] = {}
    for cusp in sorted(dims):
        d = dims[cusp]
        dc, vertex_class = _quotient(fs, cusp)
        top_hs = {n - t: PureHS(n - t, {(n - t, 0): d})} if d else {}
        wall_hs = {n - t + 2: PureHS(n - t + 2, {(n - t + 1, 1): d})} if d else {}
        block = Matrix.identity(d)

        def index_set(vertices):
            return tuple(components[vertex_class[v]] for v in vertices)

        walls = dc.simplices[t - 2] if t > 1 else ()
        wall_ids = [f"{cusp}/w{i:03d}" for i in range(len(walls))]
        strata += (Stratum(sid, index_set(vs), wall_hs) for sid, (vs, _) in zip(wall_ids, walls))
        for i, (vertices, faces) in enumerate(dc.simplices[t - 1]):
            sid = f"{cusp}/s{i:03d}"
            strata.append(Stratum(sid, index_set(vertices), top_hs))
            if d:
                for f in faces:
                    gysin[(sid, wall_ids[f], n - t, n - t, 0)] = block
    return StrataComplex(n=n, components=components, strata=strata, gysin=gysin)


def signed_gysin_matrix(sc: StrataComplex) -> Matrix:
    """The assembled signed Gysin map out of the top canonical-form layer
    (column m = deepest populated codimension at bidegree (n, m))."""
    populated = [s.codim for s in sc.strata if s.cohomology]
    if not populated:
        return Matrix((), 0)
    t = max(populated)
    bc = bidegree_complex(sc, sc.n, t)
    return bc.map_out(t)


# -- JSON ---------------------------------------------------------------------


def _frac_to_json(x) -> int | str:
    """An exact int as it is; anything else through ``Fraction``, so a bool
    or an integral Fraction is written as an int and any other as "p/q"."""
    if type(x) is int:
        return x
    f = Fraction(x)
    return int(f) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


_RATIONAL = re.compile(r"([+-]?\d+)/(\d+)")
_GYSIN_FIELDS = (("src", str), ("dst", str), ("degree", int), ("p", int), ("q", int))
_GYSIN_TYPES = tuple(kind for _, kind in _GYSIN_FIELDS)
_STRATUM_TYPES = (str, list, dict)  # id, index_set, cohomology


def _gysin_matrix_from_json(rows, shared: dict, *path) -> Matrix:
    """A rectangular list of rows whose entries are ints, which stay ints,
    or "p/q" strings, which become Fractions; else ValueError naming the
    path of the first bad value.  An integer block equal to one kept in
    ``shared`` (hash -> (rows, Matrix)) is that Matrix; keyed by the hash,
    a new block hashes its rows once."""
    ncols = expect_rows(rows, *path)
    if countOf(map(type, chain.from_iterable(rows)), int) == len(rows) * ncols:
        key = tuple(map(tuple, rows))
        kept = shared.get(h := hash(key))
        if kept is None or kept[0] != key:
            kept = shared[h] = key, Matrix(key, cols=ncols)
        return kept[1]
    out = []
    for i, row in enumerate(rows):
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


def strata_complex_to_dict(sc: StrataComplex) -> dict:
    """The JSON form that ``strata_complex_from_dict`` reads back.

    Mirrors the loader's sharing: each distinct ``PureHS`` table and each
    distinct Gysin block ``Matrix`` (the same object, not merely an equal
    one) is converted once per call.  Every stratum and every Gysin entry
    still gets fresh containers copied from that one conversion, so no list
    or dict is shared between two entries or two calls, and a caller may
    edit one entry without touching another."""
    tables: dict[int, dict] = {}  # id(PureHS) -> its to_dict()
    blocks: dict[int, list[list]] = {}  # id(Matrix) -> rows
    strata = []
    for s in sc.strata:
        cohomology = {}
        for deg, hs in s.cohomology:
            table = tables.get(id(hs))
            if table is None:
                table = tables[id(hs)] = hs.to_dict()
            cohomology[str(deg)] = {"weight": table["weight"], "h": table["h"].copy()}
        strata.append({"id": s.id, "index_set": list(s.index_set), "cohomology": cohomology})
    gysin = []
    for (src, dst, deg, p, q), m in sc.gysin:
        rows = blocks.get(id(m))
        if rows is None:
            rows = blocks[id(m)] = [[_frac_to_json(x) for x in row] for row in m.to_lists()]
        gysin.append({"src": src, "dst": dst, "degree": deg, "p": p, "q": q,
                      "matrix": list(map(list.copy, rows))})
    return {"n": sc.n, "components": list(sc.components), "strata": strata, "gysin": gysin}


def _hodge_key(hs):
    """(weight, items of h) of a Hodge table that passes the type checks of
    ``PureHS.from_dict``, so that equal keys mean equal tables; else None."""
    if isinstance(hs, dict) and isinstance(h := hs.get("h", {}), dict):
        if type(w := hs.get("weight")) is int and countOf(map(type, h.values()), int) == len(h):
            return w, tuple(h.items())
    return None


def strata_complex_from_dict(data: dict) -> StrataComplex:
    """Read the JSON form in one validating pass.  A value of the wrong JSON
    type raises a ValueError, and a missing key a KeyError, that names its
    path; so does a degree or a Gysin block given twice.  Equal Hodge tables
    and equal integer Gysin blocks are built once per call and shared.

    Each stratum and each Gysin block is type-checked by one combined test
    of exact JSON types; only when it fails do the checks of ``expect`` and
    ``member`` run, in the order of the fields, to name the first bad value
    or to accept a subclass of a JSON type."""
    expect(data, dict)
    components = member(data, "components", list)
    if countOf(map(type, components), str) != len(components):
        for i, c in enumerate(components):
            expect(c, str, "components", i)
    tables, blocks = {}, {}  # _hodge_key -> PureHS; see _gysin_matrix_from_json
    strata = []
    for i, s in enumerate(member(data, "strata", list)):
        fields = ((s.get("id"), s.get("index_set"), s.get("cohomology", {}))
                  if type(s) is dict else ())
        if (tuple(map(type, fields)) != _STRATUM_TYPES
                or countOf(map(type, fields[1]), str) != len(fields[1])):
            fields = _stratum_fields(s, i)
        sid, index_set, coh = fields
        cohomology = {}
        for deg, hs in coh.items():
            try:
                degree = int(deg)
            except ValueError:
                raise ValueError(f"{_where(i, sid, deg)}: expected an int degree as key") from None
            if degree in cohomology:
                raise ValueError(f"{_where(i, sid, deg)}: degree {degree} given twice")
            table = tables.get(key := _hodge_key(hs))
            if table is None:  # from_dict raises on a key of None, so None is never kept
                table = tables[key] = PureHS.from_dict(hs, _where(i, sid, deg) + ".")
            cohomology[degree] = table
        strata.append(Stratum(sid, index_set, cohomology))
    gysin = {}
    for k, g in enumerate(expect(data.get("gysin", []), list, "gysin")):
        key = ((g.get("src"), g.get("dst"), g.get("degree"), g.get("p"), g.get("q"))
               if type(g) is dict else ())
        if tuple(map(type, key)) != _GYSIN_TYPES:
            expect(g, dict, "gysin", k)
            key = tuple(member(g, f, kind, "gysin", k) for f, kind in _GYSIN_FIELDS)
        if key in gysin:
            raise ValueError("gysin[{}]: duplicate block {!r}->{!r} deg {} ({},{})".format(k, *key))
        rows = g["matrix"] if "matrix" in g else member(g, "matrix", object, "gysin", k)
        gysin[key] = _gysin_matrix_from_json(rows, blocks, "gysin", k, ".matrix")
    return StrataComplex(
        n=member(data, "n", int),
        components=components,
        strata=strata,
        gysin=gysin,
    )


def _stratum_fields(s, i: int) -> tuple:
    """The id, index set and cohomology of ``strata[i]`` by the checks of
    ``expect`` and ``member``, in field order: they raise for the first bad
    value, and pass a subclass of a JSON type."""
    expect(s, dict, "strata", i)
    sid = member(s, "id", str, "strata", i)
    index_set = member(s, "index_set", list, "strata", i)
    for j, c in enumerate(index_set):
        expect(c, str, "strata", i, ".index_set", j)
    return sid, index_set, expect(s.get("cohomology", {}), dict, "strata", i, ".cohomology")


def _where(i: int, sid: str, deg) -> str:
    """The path of the table of degree key ``deg`` of stratum ``i``."""
    return f"strata[{i}] (id {sid!r}).cohomology[{deg!r}]"
