"""Whole-window face registry: the oracle for ``fanhodge.fans``' face index.

This was ``fans._FanIndex`` and ``delta_complex.quotient_delta_complex``
before they shared one face index.  Here every face of every dimension is
built and sorted as a (cusp, rays) key, each ray map scans every face, the
DSUs run over every ray and every face, and the quotient sorts a fresh key
for every face it looks up, ``check_simplices`` checks a Delta-complex one
simplex at a time, and ``check_equidimensional`` finds the simplices that
are iterated faces of top simplices by a search over (dimension, id) pairs.
The library must give the same ray classes, orbit classes and
Delta-complexes, and raise the same errors with the same messages.

``fundamental_class_vector`` and ``collapse_map`` left ``delta_complex`` for
the same reason the registry did: only the tests read them.

``annotate_from_fans`` is ``weight_ss.annotate_from_fans`` as it was before
it read the quotient complex: it rebuilds the orbit classes and ray classes
as (cusp, rays) keys through ``cone_orbit_classes`` and ``ray_class_index``,
and labels components ``C{j}``, so its index sets sort as strings.  The
library must give the same strata complex once its labels are mapped, and
raise the same errors with the same messages.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from fanhodge.delta_complex import DeltaComplex, pseudomanifold_report
from fanhodge.errors import (
    NonFreeAction,
    NotEquidimensional,
    SncConditionViolated,
    UnsaturatedWindow,
)
from fanhodge.fans import FanSystem, SncReport
from fanhodge.linalg import Matrix, inverse
from fanhodge.mhs import PureHS
from fanhodge.weight_ss import CuspStrataAnnotation, Stratum, StrataComplex


@dataclass(frozen=True)
class RayClass:
    representative: tuple
    members: tuple


def _mat_vec(rows, v):
    return tuple(sum(a * b for a, b in zip(row, v)) for row in rows)


class _DSU:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)

    def classes(self) -> list[list]:
        groups: dict = {}
        for x in self.parent:
            groups.setdefault(self.find(x), []).append(x)
        return [sorted(g) for g in sorted(groups.values(), key=min)]


class FaceRegistry:
    """Every face of one FanSystem, with its ray maps, pairings and classes."""

    def __init__(self, fs: FanSystem):
        self._cusps = fs.cusps
        self._cones = fs.cones
        self._identifications = fs.identifications
        self._orbits: dict = {}

    @cached_property
    def windows(self):
        rays = {c.name: set() for c in self._cusps}
        for cone in self._cones:
            rays[cone.cusp].update(cone.rays)
        return {name: frozenset(r) for name, r in rays.items()}

    @cached_property
    def faces(self):
        """All faces of window cones, per dimension, sorted; dim 0 omitted."""
        by_dim: dict = {}
        for cone in self._cones:
            for d in range(1, cone.dim() + 1):
                for subset in itertools.combinations(cone.rays, d):
                    by_dim.setdefault(d, set()).add((cone.cusp, subset))
        return {d: tuple(sorted(keys)) for d, keys in by_dim.items()}

    @cached_property
    def ray_maps(self):
        """Directed ray maps (identifications both ways, then embeddings),
        each with the images of the source window rays that land in the
        target window."""
        maps = []
        for ident in self._identifications:
            maps.append((ident.source, ident.target, ident.matrix))
            inv = inverse(ident.matrix)
            maps.append((ident.target, ident.source,
                         Matrix([[int(x) for x in row] for row in inv.to_lists()])))
        for cusp in self._cusps:
            for parent, emb in cusp.parent_embeddings:
                maps.append((cusp.name, parent, emb))
        out = []
        for src, dst, m in maps:
            target, rows = self.windows[dst], m.to_lists()
            images = {}
            for ray in self.windows[src]:
                image = _mat_vec(rows, ray)
                if image in target:
                    images[ray] = image
            out.append((src, dst, m, images))
        return tuple(out)

    @cached_property
    def ray_classes(self):
        dsu = _DSU(sorted(
            (name, ray) for name, rays in self.windows.items() for ray in rays
        ))
        for src, dst, _m, images in self.ray_maps:
            for ray, image in images.items():
                dsu.union((src, ray), (dst, image))
        return tuple(
            RayClass(representative=members[0], members=tuple(members))
            for members in dsu.classes()
        )

    @cached_property
    def ray_class_index(self):
        return {
            member: i
            for i, cls in enumerate(self.ray_classes)
            for member in cls.members
        }

    @cached_property
    def pairings(self):
        all_keys = {k for keys in self.faces.values() for k in keys}
        edges = []
        for src, dst, m, images in self.ray_maps:
            for keys in self.faces.values():
                for key in keys:
                    if key[0] != src or not all(r in images for r in key[1]):
                        continue
                    image_key = (dst, tuple(sorted(images[r] for r in key[1])))
                    if image_key not in all_keys:
                        raise UnsaturatedWindow(
                            f"identification maps face {key} to {image_key}, "
                            "which is not a face of any window cone"
                        )
                    edges.append((key, image_key, m))
        return tuple(edges)

    def orbit_classes(self, dim: int):
        if dim not in self._orbits:
            dsu = _DSU(self.faces.get(dim, ()))
            for src, dst, _m in self.pairings:
                if len(src[1]) == dim:
                    dsu.union(src, dst)
            self._orbits[dim] = tuple(tuple(cls) for cls in dsu.classes())
        return self._orbits[dim]


def registry(fs: FanSystem) -> FaceRegistry:
    """The registry of ``fs``, built once per instance; it is kept outside
    the dataclass fields, so equality and hashing do not see it."""
    reg = fs.__dict__.get("_face_registry")
    if reg is None:
        reg = fs.__dict__["_face_registry"] = FaceRegistry(fs)
    return reg


def ray_classes(fs: FanSystem) -> list[RayClass]:
    return list(registry(fs).ray_classes)


def ray_class_index(fs: FanSystem) -> dict:
    return dict(registry(fs).ray_class_index)


def cone_orbit_classes(fs: FanSystem, dim: int) -> list[list]:
    return [list(cls) for cls in registry(fs).orbit_classes(dim)]


def pairings(fs: FanSystem):
    return registry(fs).pairings


def check_free_action(fs: FanSystem) -> None:
    for src, dst, m in registry(fs).pairings:
        if src == dst:
            for ray in src[1]:
                if _mat_vec(m.to_lists(), ray) != ray:
                    raise NonFreeAction(
                        f"identification fixes face {src} with a nontrivial "
                        "ray permutation"
                    )


def check_snc_condition(fs: FanSystem) -> SncReport:
    index = registry(fs).ray_class_index
    violations = []
    for cone in fs.cones:
        for a, b in itertools.combinations(cone.rays, 2):
            if index[(cone.cusp, a)] == index[(cone.cusp, b)]:
                violations.append((cone.id, (a, b)))
    return SncReport(ok=not violations, violations=tuple(violations))


def quotient_delta_complex(fs: FanSystem, cusp: str) -> DeltaComplex:
    report = check_snc_condition(fs)
    if not report.ok:
        raise SncConditionViolated(f"{len(report.violations)} violating cone(s)")
    rci = ray_class_index(fs)
    max_dim = max((c.dim() for c in fs.cones if c.cusp == cusp), default=0)
    if max_dim == 0:
        raise ValueError(f"no cones on cusp {cusp!r}")

    classes: dict = {}
    class_of_key: dict = {}
    for d in range(1, max_dim + 1):
        kept = [
            cls
            for cls in cone_orbit_classes(fs, d)
            if any(key[0] == cusp for key in cls)
        ]
        classes[d] = kept
        class_of_key[d] = {key: i for i, cls in enumerate(kept) for key in cls}

    vertex_class = []
    for cls in classes[1]:
        key = cls[0]
        vertex_class.append(rci[(key[0], key[1][0])])
    order = sorted(range(len(vertex_class)), key=lambda i: vertex_class[i])
    vid_of_rayclass = {vertex_class[i]: rank_ for rank_, i in enumerate(order)}

    levels: list = [[] for _ in range(max_dim)]
    simplex_id: dict = {}
    for d in range(1, max_dim + 1):
        for ci, cls in enumerate(classes[d]):
            key = cls[0]
            kcusp, rays = key
            ray_cls = [rci[(kcusp, r)] for r in rays]
            if len(set(ray_cls)) != len(ray_cls):
                raise SncConditionViolated(f"cone {key} has repeated ray classes")
            ordered = sorted(zip(ray_cls, rays))
            vertices = tuple(vid_of_rayclass[rc] for rc, _ in ordered)
            faces = ()
            if d > 1:
                face_ids = []
                for t in range(d):
                    sub = tuple(sorted(r for s, (_, r) in enumerate(ordered) if s != t))
                    face_ids.append(simplex_id[(d - 1, class_of_key[d - 1][(kcusp, sub)])])
                faces = tuple(face_ids)
            sid = len(levels[d - 1])
            simplex_id[(d, ci)] = sid
            levels[d - 1].append((vertices, faces))
    return DeltaComplex(tuple(tuple(level) for level in levels))


def check_simplices(simplices) -> None:
    """``DeltaComplex``'s checks, one simplex at a time; a simplex is a
    (vertices, faces) pair and its id is its position in its level."""
    for d, level in enumerate(simplices):
        for i, (vertices, faces) in enumerate(level):
            if len(vertices) != d + 1:
                raise ValueError("vertex count != dimension + 1")
            if list(vertices) != sorted(set(vertices)):
                raise ValueError("vertices must be distinct and ascending")
            if d == 0:
                if faces != ():
                    raise ValueError("0-simplices have no faces")
                continue
            if len(faces) != d + 1:
                raise ValueError("need one face per omitted vertex")
            for t, fid in enumerate(faces):
                if type(fid) is not int or fid not in range(len(simplices[d - 1])):
                    raise ValueError(
                        f"face {fid!r} of simplex {i} (dim {d}) is not a simplex of dim {d - 1}"
                    )
                expected = vertices[:t] + vertices[t + 1:]
                if simplices[d - 1][fid][0] != expected:
                    raise ValueError(
                        f"face {fid} of simplex {i} (dim {d}) has wrong vertices"
                    )


def check_equidimensional(dc: DeltaComplex) -> None:
    """``pseudomanifold_report``'s first check, as it was: a search from the
    top simplices over (dimension, id) pairs, then the first simplex in
    (dimension, id) order that it did not reach is named."""
    top = dc.dim
    reachable = {(top, i) for i in range(dc.count(top))}
    frontier = list(reachable)
    while frontier:
        d, sid = frontier.pop()
        if d == 0:
            continue
        for fid in dc.simplices[d][sid][1]:
            if (d - 1, fid) not in reachable:
                reachable.add((d - 1, fid))
                frontier.append((d - 1, fid))
    for d in range(top + 1):
        for i in range(dc.count(d)):
            if (d, i) not in reachable:
                raise NotEquidimensional(f"simplex {i} of dim {d} has no coface")


def fundamental_class_vector(dc: DeltaComplex) -> Matrix:
    """Fundamental class as a column vector; raises if the complex lacks one."""
    rep = pseudomanifold_report(dc)
    if rep.fundamental_class is None:
        raise ValueError("complex is not a closed oriented pseudomanifold")
    return Matrix([[s] for _, s in rep.fundamental_class], cols=1)


def collapse_map(dc: DeltaComplex) -> dict[int, dict[int, int]]:
    """Map to the simplicial collapse: simplices with equal vertex sets merge.

    Returns per dimension a map from simplex id to collapsed index (indices
    are positions in the sorted list of distinct vertex tuples).
    """
    out: dict[int, dict[int, int]] = {}
    for d in range(dc.dim + 1):
        keys = sorted({vertices for vertices, _ in dc.simplices[d]})
        index = {k: i for i, k in enumerate(keys)}
        out[d] = {i: index[vertices] for i, (vertices, _) in enumerate(dc.simplices[d])}
    return out


def annotate_from_fans(fs: FanSystem, ann: CuspStrataAnnotation) -> StrataComplex:
    report = check_snc_condition(fs)
    if not report.ok:
        raise SncConditionViolated(f"{len(report.violations)} violating cone(s)")
    rci = ray_class_index(fs)
    dims = dict(ann.dims)
    tops = {
        cusp: max((c.dim() for c in fs.cones if c.cusp == cusp), default=0)
        for cusp in dims
    }
    t_values = set(tops.values())
    if len(t_values) != 1:
        raise ValueError("annotated cusps must share one top cone dimension")
    t = t_values.pop()
    if t < 1:
        raise ValueError("annotated cusps carry no cones")
    n = ann.ambient_dim if ann.ambient_dim is not None else t
    if n < t:
        raise ValueError("ambient dimension below top cone dimension")

    n_classes = max(rci.values()) + 1
    components = [f"C{j}" for j in range(n_classes)]
    strata: list = []
    gysin: dict = {}
    for cusp in sorted(dims):
        d = dims[cusp]
        top_classes = [
            cls for cls in cone_orbit_classes(fs, t) if any(key[0] == cusp for key in cls)
        ]
        wall_classes = [
            cls for cls in cone_orbit_classes(fs, t - 1) if any(key[0] == cusp for key in cls)
        ] if t > 1 else []
        wall_index = {key: i for i, cls in enumerate(wall_classes) for key in cls}

        def index_set_of(key):
            kcusp, rays = key
            return tuple(sorted(f"C{rci[(kcusp, r)]}" for r in rays))

        wall_ids = []
        for j, cls in enumerate(wall_classes):
            sid = f"{cusp}/w{j:03d}"
            wall_ids.append(sid)
            strata.append(Stratum(
                sid,
                index_set_of(cls[0]),
                {n - t + 2: PureHS(n - t + 2, {(n - t + 1, 1): d})} if d else {},
            ))
        for j, cls in enumerate(top_classes):
            sid = f"{cusp}/s{j:03d}"
            key = cls[0]
            kcusp, rays = key
            strata.append(Stratum(
                sid,
                index_set_of(key),
                {n - t: PureHS(n - t, {(n - t, 0): d})} if d else {},
            ))
            if d == 0 or t == 1:
                continue
            for omit in rays:
                sub = tuple(sorted(r for r in rays if r != omit))
                wj = wall_index[(kcusp, sub)]
                gysin[(sid, wall_ids[wj], n - t, n - t, 0)] = Matrix.identity(d)
    return StrataComplex(n=n, components=components, strata=strata, gysin=gysin)
