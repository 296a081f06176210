"""Quotient Delta-complexes of fan windows, chain complexes, homology.

A Delta-complex here is a family of simplices with ordered, pairwise
distinct vertices and order-preserving face maps; two simplices may share
the same vertex set.  Built from a fan window, the d-simplices are the
orbit classes of (d+1)-dimensional cones and the vertices are ray classes.

A simplex is stored as a ``(vertices, faces)`` pair, and its id is its
position in its level: level d of ``DeltaComplex.simplices`` is a tuple of
such pairs, ``vertices`` is the ascending tuple of its d + 1 vertex ids,
and ``faces[t]`` is the id (position in level d - 1) of the face that omits
vertex t.  No per-simplex object is built.

The quotient is read from the window's face index (``fans._FanIndex``):
the orbit classes of each dimension come in the order of their least
members from one sort of that dimension's faces, a simplex orders its
rep's rays by vertex once, and each face is one dict lookup of that key
with one ray deleted.  ``DeltaComplex`` checks each simplex's faces
against the ordered subsets of its vertex tuple.  One private builder,
``_quotient``, also returns the global ray class of each vertex, which
``weight_ss.annotate_from_fans`` reads as its index sets.

Boundary maps are ``Matrix`` values whose ``{column: entry}`` rows are
written straight from the simplex faces.  Homology has one path:
``integral_homology`` takes the invariant factors of each boundary map once
(unit pivots, then the residual modulo one minor; no transforms), which
give both the torsion and, by their count, the rank that the next degree
needs.  The Betti numbers of ``homology_report`` are its free ranks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import lt
from typing import Sequence

from .errors import NotAComplex, NotEquidimensional, SncConditionViolated
from .fans import Face, FanSystem, check_snc_condition
from .linalg import Matrix, invariant_factors

_Level = tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]  # (vertices, faces) pairs


@dataclass(frozen=True)
class DeltaComplex:
    """Per-dimension simplex levels; index d of `simplices` is the dimension.

    Level d is a tuple of ``(vertices, faces)`` pairs, one per d-simplex,
    whose id is its position in the level: ``vertices`` ascend, and
    ``faces[t]`` is the id of the (d-1)-simplex omitting vertex t (``()``
    for a vertex).  Each entry must be such a pair, each face id an int in
    range, and the face must have the vertex tuple with vertex t deleted.
    """

    simplices: tuple[_Level, ...]

    def __post_init__(self):
        below: _Level = ()  # level d - 1
        for d, level in enumerate(self.simplices):
            for i, simplex in enumerate(level):
                try:
                    vertices, faces = simplex
                except (TypeError, ValueError):
                    raise ValueError(
                        f"simplex {i} (dim {d}) is {simplex!r}, not a (vertices, faces) pair"
                    ) from None
                if len(vertices) != d + 1:
                    raise ValueError("vertex count != dimension + 1")
                if not all(map(lt, vertices, vertices[1:])):
                    raise ValueError("vertices must be distinct and ascending")
                if d == 0:
                    if faces != ():
                        raise ValueError("0-simplices have no faces")
                    continue
                if len(faces) != d + 1:
                    raise ValueError("need one face per omitted vertex")
                # face t omits vertex t; combinations omit the last vertex first
                expected = list(itertools.combinations(vertices, d))
                expected.reverse()
                for fid, want in zip(faces, expected):
                    if type(fid) is not int or not 0 <= fid < len(below):
                        raise ValueError(
                            f"face {fid!r} of simplex {i} (dim {d}) is not a simplex of dim {d - 1}"
                        )
                    if below[fid][0] != want:
                        raise ValueError(
                            f"face {fid} of simplex {i} (dim {d}) has wrong vertices"
                        )
            below = level

    @property
    def dim(self) -> int:
        return len(self.simplices) - 1

    def count(self, d: int) -> int:
        if 0 <= d <= self.dim:
            return len(self.simplices[d])
        return 0

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * self.count(d) for d in range(self.dim + 1))


def from_top_simplices(tops: Sequence[Sequence[int]]) -> DeltaComplex:
    """Build a Delta-complex from top vertex tuples, gluing faces by vertex set.

    The top level holds one ``(vertices, faces)`` pair per given tuple, in
    the given order; each lower level holds every vertex subset of that
    size once, in ascending order.  Lower simplices are unique per vertex
    set, so this cannot express two glued edges with equal endpoints below
    the top dimension; it is a test and fixture convenience.  A general
    complex is built by passing its levels of pairs to ``DeltaComplex``.
    """
    if not tops:
        raise ValueError("need at least one top simplex")
    dims = {len(t) - 1 for t in tops}
    if len(dims) != 1:
        raise ValueError("top simplices must be equidimensional")
    top_dim = dims.pop()
    tops = [tuple(t) for t in tops]
    if any(list(vs) != sorted(set(vs)) for vs in tops):
        raise ValueError("vertices must be distinct and ascending")
    keys = [sorted({sub for vs in tops for sub in itertools.combinations(vs, d + 1)})
            for d in range(top_dim)]
    levels: list[_Level] = []
    face_id: dict[tuple[int, ...], int] = {}  # vertex tuple of a (d-1)-simplex -> id
    for d, level in enumerate(keys + [tops]):
        levels.append(tuple(
            (vs, tuple(face_id[vs[:t] + vs[t + 1:]] for t in range(d + 1)) if d else ())
            for vs in level
        ))
        face_id = {vs: i for i, vs in enumerate(level)}
    return DeltaComplex(tuple(levels))


def quotient_delta_complex(fs: FanSystem, cusp: str) -> DeltaComplex:
    """Quotient complex of the fan at one cusp: simplices = cone orbit classes.

    d-simplices are orbit classes of (d+1)-dimensional cones reachable from
    the given cusp, in the order of their least members; vertices are ray
    classes in their global order.  Read from the window's face index: a
    simplex's rays are ordered by vertex once, and the face omitting vertex
    t is found by deleting ray t from that class-ordered key.
    """
    report = check_snc_condition(fs)
    if not report.ok:
        raise SncConditionViolated(f"{len(report.violations)} violating cone(s)")
    return _quotient(fs, cusp)[0]


def _quotient(fs: FanSystem, cusp: str) -> tuple[DeltaComplex, list[int]]:
    """The quotient complex of a window that satisfies the SNC condition,
    with the global ray class of each vertex."""
    max_dim = max((c.dim() for c in fs.cones if c.cusp == cusp), default=0)
    if max_dim == 0:
        raise ValueError(f"no cones on cusp {cusp!r}")
    index = fs._index
    on_cusp = index.ids[cusp].values()  # the contiguous ray ids of the cusp
    lo, hi = min(on_cusp), max(on_cusp)

    def kept(d: int):
        """The orbit classes of d-cones that touch the cusp."""
        return [cls for cls in index.orbits(d) if any(lo <= f[0] <= hi for f in cls)]

    # vertex order: ascending global ray class index
    ray_class = index.ray_class
    vertex_classes = sorted(ray_class[cls[0][0]] for cls in kept(1))
    vid_of_class = {c: v for v, c in enumerate(vertex_classes)}
    vid = [vid_of_class.get(c) for c in ray_class]
    by_vertex = vid.__getitem__

    levels: list[_Level] = []
    face_id: dict[Face, int] = {}  # class-ordered key of a (d-1)-face -> simplex id
    for d in range(1, max_dim + 1):
        level, ids = [], {}
        for sid, cls in enumerate(kept(d)):
            key = tuple(sorted(cls[0], key=by_vertex))
            faces = ()
            if d > 1:  # the (d-1)-subsets of key come omitting its last ray first
                faces = tuple(map(face_id.__getitem__, itertools.combinations(key, d - 1)))[::-1]
            level.append((tuple(map(by_vertex, key)), faces))
            ids[key] = sid
            for other in cls[1:]:
                ids[tuple(sorted(other, key=by_vertex))] = sid
        levels.append(tuple(level))
        face_id = ids
    return DeltaComplex(tuple(levels)), vertex_classes


@dataclass(frozen=True)
class ChainComplexQ:
    """Rational chain complex: boundary[d] maps degree d to degree d-1."""

    dims: tuple[int, ...]  # number of simplices per degree
    boundary: tuple[Matrix, ...]  # boundary[d], d >= 1; boundary[0] is zero map

    def __post_init__(self):
        for d in range(1, len(self.dims)):
            m = self.boundary[d]
            if m.shape != (self.dims[d - 1], self.dims[d]):
                raise ValueError(f"boundary {d} has shape {m.shape}")
            if d > 1 and not self.boundary[d - 1].product_is_zero(m):
                raise NotAComplex(f"boundary {d-1} o boundary {d} != 0")


def boundary_matrices(dc: DeltaComplex) -> ChainComplexQ:
    """Boundary of a d-simplex: sum over omitted positions j=1..d+1 of
    (-1)^(j-1) times the corresponding face."""
    dims = tuple(dc.count(d) for d in range(dc.dim + 1))
    boundaries = [Matrix((), dims[0])]
    for d in range(1, dc.dim + 1):
        rows: list[dict[int, int]] = [{} for _ in range(dims[d - 1])]
        for sid, (_, faces) in enumerate(dc.simplices[d]):
            # the faces of a simplex have distinct vertex sets, so distinct ids
            for j, fid in enumerate(faces):
                rows[fid][sid] = -1 if j % 2 else 1
        boundaries.append(Matrix(rows, dims[d]))
    return ChainComplexQ(dims, tuple(boundaries))


def integral_homology(cc: ChainComplexQ) -> list[tuple[int, list[int]]]:
    """(free rank, torsion coefficients) per degree; the free ranks are the
    rational Betti numbers.

    One ``invariant_factors`` call per boundary map: the factors give the
    torsion of H_d and, by their count, the rank of the boundary that
    H_{d+1} needs.
    """
    out = []
    boundary_rank = 0  # rank of the boundary out of degree d
    for d in range(len(cc.dims)):
        ker = cc.dims[d] - boundary_rank
        if d + 1 < len(cc.dims):
            factors = invariant_factors(cc.boundary[d + 1])
        else:
            factors = []
        out.append((ker - len(factors), [f for f in factors if f > 1]))
        boundary_rank = len(factors)
    return out


@dataclass(frozen=True)
class PseudomanifoldReport:
    closed: bool
    oriented: bool
    fundamental_class: tuple[tuple[int, int], ...] | None  # (top id, sign)


def pseudomanifold_report(dc: DeltaComplex) -> PseudomanifoldReport:
    """Closedness, orientability and the fundamental class of the top level.

    Requires equidimensionality: every simplex must be an iterated face of
    a top-dimensional simplex.
    """
    levels = dc.simplices
    top = dc.dim
    # reachable[k] holds the ids of the (top - k)-simplices that are iterated
    # faces of top simplices: the faces of the reachable simplices one up
    reachable = [range(len(levels[top]))]
    for d in range(top, 0, -1):
        reachable.append({fid for sid in reachable[-1] for fid in levels[d][sid][1]})
    for d, reached in enumerate(reversed(reachable)):
        if len(reached) < len(levels[d]):  # face ids are in range, so one is missing
            sid = next(i for i in range(len(levels[d])) if i not in reached)
            raise NotEquidimensional(f"simplex {sid} of dim {d} has no coface")

    if top == 0:
        # a discrete set: closed, oriented, fundamental class exists iff single point
        return PseudomanifoldReport(True, True, tuple((i, 1) for i in reachable[0]))

    tops = levels[top]
    incidences: list[list[tuple[int, int]]] = [[] for _ in levels[top - 1]]
    for sid, (_, faces) in enumerate(tops):
        for j, fid in enumerate(faces):
            incidences[fid].append((sid, -1 if j % 2 else 1))
    if any(len(inc) != 2 for inc in incidences):
        return PseudomanifoldReport(False, False, None)

    # propagate compatible orientations from each top simplex to its
    # neighbours across its own codimension-1 faces
    signs = [0] * len(tops)  # 0 until reached
    for start in range(len(tops)):
        if signs[start]:
            continue
        signs[start] = 1
        queue = [start]
        while queue:
            cur = queue.pop()
            for fid in tops[cur][1]:
                # the faces of one simplex have distinct vertex sets, so the
                # two incidences of fid belong to two different simplices
                (a, sa), (b, sb) = incidences[fid]
                other, so, sc = (b, sb, sa) if cur == a else (a, sa, sb)
                want = -signs[cur] * sc * so
                if not signs[other]:
                    signs[other] = want
                    queue.append(other)
                elif signs[other] != want:
                    return PseudomanifoldReport(True, False, None)

    # the signed sum of the top simplices is a cycle iff its signed
    # incidences cancel on every codimension-1 face
    if any(sum(signs[t] * sign for t, sign in inc) for inc in incidences):
        return PseudomanifoldReport(True, False, None)
    return PseudomanifoldReport(True, True, tuple(enumerate(signs)))


# -- JSON ---------------------------------------------------------------------


def homology_report(dc: DeltaComplex) -> dict:
    cc = boundary_matrices(dc)
    rep = pseudomanifold_report(dc)
    return {
        "betti": [free for free, _ in integral_homology(cc)],
        "closed": rep.closed,
        "oriented": rep.oriented,
        "fundamental_class": (
            None
            if rep.fundamental_class is None
            else [{"id": i, "sign": s} for i, s in rep.fundamental_class]
        ),
    }


__all__ = [
    "DeltaComplex",
    "from_top_simplices",
    "quotient_delta_complex",
    "ChainComplexQ",
    "boundary_matrices",
    "integral_homology",
    "PseudomanifoldReport",
    "pseudomanifold_report",
    "homology_report",
]
