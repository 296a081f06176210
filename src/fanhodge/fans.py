"""Lattice cones, fan windows with group identifications, and subdivision.

An infinite group-invariant fan is represented by a finite *window*: a list
of simplicial cones containing at least one representative of every orbit,
together with the unimodular generators identifying them.  Equivalence of
rays and cones is the union-find closure of the generators restricted to
the window; an undersized window can under-merge classes (documented
limitation, window length is user input).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import NonFreeAction, UnsaturatedWindow
from .linalg import (
    Matrix,
    apply_matrix,
    det,
    extend_to_lattice_basis,
    inverse,
    invariant_factors,
    primitivize,
    rank,
    solve,
)

Ray = tuple[int, ...]
FaceKey = tuple[str, tuple[Ray, ...]]  # (cusp name, lex-sorted rays)


@dataclass(frozen=True)
class Cone:
    """Simplicial lattice cone: primitive, Q-independent rays."""

    cusp: str
    rays: tuple[Ray, ...]
    id: int = -1

    def dim(self) -> int:
        return len(self.rays)

    def key(self) -> FaceKey:
        return (self.cusp, tuple(sorted(self.rays)))


@dataclass(frozen=True)
class CuspLabel:
    name: str
    lattice_rank: int
    # (parent cusp name, injective integer matrix of the lattice inclusion)
    parent_embeddings: tuple[tuple[str, Matrix], ...] = ()


@dataclass(frozen=True)
class Identification:
    matrix: Matrix
    source: str
    target: str


@dataclass(frozen=True)
class RayClass:
    representative: tuple[str, Ray]
    members: tuple[tuple[str, Ray], ...]



@dataclass(frozen=True)
class FanSystem:
    """Finite window of lattice cones plus group identifications.

    Construction canonicalizes: rays of each cone are sorted
    lexicographically, cones are sorted by (cusp, rays) and re-numbered, so
    equal windows compare equal and JSON round-trips are stable.
    """

    cusps: tuple[CuspLabel, ...]
    cones: tuple[Cone, ...]
    identifications: tuple[Identification, ...] = ()

    def __post_init__(self):
        cusp_names = [c.name for c in self.cusps]
        if len(set(cusp_names)) != len(cusp_names):
            raise ValueError("duplicate cusp names")
        ranks = {c.name: c.lattice_rank for c in self.cusps}
        for c in self.cusps:
            for parent, emb in c.parent_embeddings:
                if parent not in ranks:
                    raise ValueError(f"unknown parent cusp {parent!r}")
                if emb.shape != (ranks[parent], c.lattice_rank):
                    raise ValueError("embedding shape mismatch")
                if rank(emb) != c.lattice_rank:
                    raise ValueError("embedding not of full column rank")
                if extend_to_lattice_basis(emb.columns(), ranks[parent]) is None:
                    raise ValueError("embedding image is not saturated")
        canonical = []
        for cone in self.cones:
            if cone.cusp not in ranks:
                raise ValueError(f"cone on unknown cusp {cone.cusp!r}")
            r = ranks[cone.cusp]
            rays = tuple(sorted(tuple(int(x) for x in ray) for ray in cone.rays))
            for ray in rays:
                if len(ray) != r:
                    raise ValueError("ray length != cusp lattice rank")
                if primitivize(ray) != ray or all(x == 0 for x in ray):
                    raise ValueError(f"non-primitive ray {ray}")
            if rays and rank(Matrix.from_columns(rays)) != len(rays):
                raise ValueError(f"dependent rays in cone {rays} (simplicial only)")
            canonical.append((cone.cusp, rays))
        canonical = sorted(set(canonical))
        object.__setattr__(
            self,
            "cones",
            tuple(Cone(cusp, rays, i) for i, (cusp, rays) in enumerate(canonical)),
        )
        for ident in self.identifications:
            if ident.source not in ranks or ident.target not in ranks:
                raise ValueError("identification on unknown cusp")
            if ident.matrix.shape != (ranks[ident.target], ranks[ident.source]):
                raise ValueError("identification matrix shape mismatch")
            if abs(det(ident.matrix)) != 1:
                raise ValueError("identification is not a lattice automorphism")

    # -- basic queries ----------------------------------------------------

    def cusp(self, name: str) -> CuspLabel:
        for c in self.cusps:
            if c.name == name:
                return c
        raise KeyError(name)

    def window_rays(self, cusp: str) -> set[Ray]:
        out: set[Ray] = set()
        for cone in self.cones:
            if cone.cusp == cusp:
                out.update(cone.rays)
        return out

    def face_keys(self) -> dict[int, list[FaceKey]]:
        """All faces of window cones, per dimension, sorted; dim 0 omitted."""
        by_dim: dict[int, set[FaceKey]] = {}
        for cone in self.cones:
            for d in range(1, cone.dim() + 1):
                for subset in itertools.combinations(sorted(cone.rays), d):
                    by_dim.setdefault(d, set()).add((cone.cusp, subset))
        return {d: sorted(keys) for d, keys in by_dim.items()}


# -- orbit machinery -------------------------------------------------------


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


def _ray_maps(fs: FanSystem) -> list[tuple[str, str, Matrix]]:
    """Directed ray-level maps: identifications (both ways) and embeddings."""
    maps = []
    for ident in fs.identifications:
        maps.append((ident.source, ident.target, ident.matrix))
        inv = inverse(ident.matrix)
        maps.append(
            (ident.target, ident.source,
             Matrix([[int(x) for x in row] for row in inv.to_lists()]))
        )
    for cusp in fs.cusps:
        for parent, emb in cusp.parent_embeddings:
            maps.append((cusp.name, parent, emb))
    return maps


def ray_classes(fs: FanSystem) -> list[RayClass]:
    """Equivalence classes of window rays under the identification closure.

    Classes are numbered by their smallest member, lexicographic on
    (cusp, coordinates).
    """
    items = sorted(
        (cusp.name, ray) for cusp in fs.cusps for ray in fs.window_rays(cusp.name)
    )
    dsu = _DSU(items)
    windows = {cusp.name: fs.window_rays(cusp.name) for cusp in fs.cusps}
    for src, dst, m in _ray_maps(fs):
        for ray in windows[src]:
            image = tuple(int(x) for x in apply_matrix(m, ray))
            if image in windows[dst]:
                dsu.union((src, ray), (dst, image))
    return [
        RayClass(representative=members[0], members=tuple(members))
        for members in dsu.classes()
    ]


def ray_class_index(fs: FanSystem) -> dict[tuple[str, Ray], int]:
    return {
        member: i
        for i, cls in enumerate(ray_classes(fs))
        for member in cls.members
    }


def _face_edges(fs: FanSystem) -> list[tuple[FaceKey, FaceKey, Matrix]]:
    """Directed face-level pairings induced by the ray maps.

    A map is *defined* on a face only when every image ray lies in the
    target window; all image rays in the window but no matching face is an
    inconsistent (unsaturated) window.
    """
    registry = fs.face_keys()
    all_keys = {k for keys in registry.values() for k in keys}
    windows = {cusp.name: fs.window_rays(cusp.name) for cusp in fs.cusps}
    edges = []
    for src, dst, m in _ray_maps(fs):
        for d, keys in registry.items():
            for key in keys:
                if key[0] != src:
                    continue
                images = [tuple(int(x) for x in apply_matrix(m, r)) for r in key[1]]
                if not all(img in windows[dst] for img in images):
                    continue
                image_key: FaceKey = (dst, tuple(sorted(images)))
                if image_key not in all_keys:
                    raise UnsaturatedWindow(
                        f"identification maps face {key} to {image_key}, "
                        "which is not a face of any window cone"
                    )
                edges.append((key, image_key, m))
    return edges


def cone_orbit_classes(fs: FanSystem, dim: int) -> list[list[FaceKey]]:
    """Orbit classes of dim-dimensional faces of window cones."""
    registry = fs.face_keys()
    keys = registry.get(dim, [])
    dsu = _DSU(keys)
    for src, dst, _m in _face_edges(fs):
        if len(src[1]) == dim:
            dsu.union(src, dst)
    return dsu.classes()


def _check_free_action(fs: FanSystem) -> None:
    """Reject identifications that fix a face while permuting its rays."""
    for src, dst, m in _face_edges(fs):
        if src == dst:
            for ray in src[1]:
                image = tuple(int(x) for x in apply_matrix(m, ray))
                if image != ray:
                    raise NonFreeAction(
                        f"identification fixes face {src} with a nontrivial "
                        "ray permutation"
                    )


# -- smoothness and the SNC condition --------------------------------------


def is_smooth(fs: FanSystem, c: Cone) -> bool:
    """True iff the rays extend to a basis of the cusp lattice."""
    ambient = fs.cusp(c.cusp).lattice_rank
    return extend_to_lattice_basis(c.rays, ambient) is not None


@dataclass(frozen=True)
class SncReport:
    ok: bool
    violations: tuple[tuple[int, tuple[Ray, Ray]], ...]


def check_snc_condition(fs: FanSystem) -> SncReport:
    """No window cone may have two distinct rays in the same ray class."""
    index = ray_class_index(fs)
    violations = []
    for cone in fs.cones:
        for a, b in itertools.combinations(cone.rays, 2):
            if index[(cone.cusp, a)] == index[(cone.cusp, b)]:
                violations.append((cone.id, (a, b)))
    return SncReport(ok=not violations, violations=tuple(violations))


# -- subdivision ------------------------------------------------------------


def _propagate_new_ray(
    fs: FanSystem, members: list[FaceKey], rep: FaceKey, w: Ray
) -> dict[FaceKey, Ray]:
    """BFS the new ray through the pairing graph of one orbit class."""
    adjacency: dict[FaceKey, list[tuple[FaceKey, Matrix]]] = {}
    member_set = set(members)
    for src, dst, m in _face_edges(fs):
        if src in member_set and dst in member_set:
            adjacency.setdefault(src, []).append((dst, m))
    assignment = {rep: w}
    queue = [rep]
    while queue:
        cur = queue.pop()
        for nxt, m in adjacency.get(cur, []):
            image = primitivize(tuple(int(x) for x in apply_matrix(m, assignment[cur])))
            if nxt in assignment:
                if assignment[nxt] != image:
                    raise NonFreeAction(
                        f"conflicting new-ray propagation at face {nxt}"
                    )
            else:
                assignment[nxt] = image
                queue.append(nxt)
    if set(assignment) != member_set:
        # window members not reachable from the representative; propagate
        # from each already-assigned face until stable (disconnected graphs
        # cannot occur for union-find classes built from the same edges)
        raise UnsaturatedWindow("orbit class not connected by pairings")
    return assignment


def _split_cones_at_wall(
    cones: list[tuple[str, tuple[Ray, ...]]], face: FaceKey, w: Ray
) -> list[tuple[str, tuple[Ray, ...]]]:
    """Insert the wall of a two-divided 2-face into every containing cone."""
    cusp, (a, b) = face[0], face[1]
    out = []
    for c_cusp, rays in cones:
        if c_cusp == cusp and a in rays and b in rays:
            others = tuple(r for r in rays if r not in (a, b))
            out.append((c_cusp, tuple(sorted(others + (a, w)))))
            out.append((c_cusp, tuple(sorted(others + (w, b)))))
        else:
            out.append((c_cusp, rays))
    return out


def two_division_subdivide(fs: FanSystem) -> FanSystem:
    """Divide one representative of every 2-cone orbit at the ray sum.

    The new ray is the primitivized sum of the representative's two
    primitive generators; it is propagated through the orbit by the
    identifications, then the corresponding wall is inserted into every
    window cone containing the divided 2-face.
    """
    _check_free_action(fs)
    divisions: list[tuple[FaceKey, Ray]] = []
    for members in cone_orbit_classes(fs, 2):
        rep = members[0]
        a, b = rep[1]
        w = primitivize(tuple(x + y for x, y in zip(a, b)))
        assignment = _propagate_new_ray(fs, members, rep, w)
        for key in sorted(assignment):
            divisions.append((key, assignment[key]))
    cones = [(c.cusp, c.rays) for c in fs.cones]
    for face, w in divisions:
        cones = _split_cones_at_wall(cones, face, w)
    return FanSystem(
        cusps=fs.cusps,
        cones=tuple(Cone(cusp, rays) for cusp, rays in cones),
        identifications=fs.identifications,
    )


def _subdivision_point(rays: Sequence[Ray]) -> tuple[Ray, tuple[Ray, ...]] | None:
    """Minimal lattice point inside the half-open ray parallelepiped.

    Returns (point, supporting rays with positive coefficient), or None for
    a smooth cone.  Coefficient denominators divide the sublattice index,
    so a grid search over k/mult is exhaustive.
    """
    b = Matrix.from_columns(rays)
    mult = 1
    for f in invariant_factors(b):
        mult *= f
    if mult == 1:
        return None
    best = None
    for ks in itertools.product(range(mult), repeat=len(rays)):
        if not any(ks):
            continue
        c = [Fraction(k, mult) for k in ks]
        x = [sum(ci * ray[i] for ci, ray in zip(c, rays)) for i in range(len(rays[0]))]
        if all(xi.denominator == 1 for xi in x):
            key = (sum(c), tuple(c))
            if best is None or key < best[0]:
                best = (key, c, tuple(int(xi) for xi in x))
    assert best is not None
    _, c, x = best
    support = tuple(ray for ci, ray in zip(c, rays) if ci > 0)
    return primitivize(x), support


def _stellar_subdivide(
    cones: list[tuple[str, tuple[Ray, ...]]], face: FaceKey, w: Ray
) -> list[tuple[str, tuple[Ray, ...]]]:
    """Star subdivision at a point interior to the given face."""
    cusp, support = face
    out = []
    for c_cusp, rays in cones:
        if c_cusp == cusp and all(r in rays for r in support):
            for omitted in support:
                kept = tuple(r for r in rays if r != omitted)
                out.append((c_cusp, tuple(sorted(kept + (w,)))))
        else:
            out.append((c_cusp, rays))
    return out


def smooth_subdivide(fs: FanSystem) -> FanSystem:
    """Equivariant stellar resolution until every cone is smooth.

    Each step subdivides one non-smooth cone orbit at a minimal interior
    lattice point; the sublattice index strictly decreases, so the loop
    terminates.
    """
    _check_free_action(fs)
    current = fs
    while True:
        nonsmooth = [c for c in current.cones if not is_smooth(current, c)]
        if not nonsmooth:
            return current
        target = min(nonsmooth, key=lambda c: c.key())
        point = _subdivision_point(target.rays)
        assert point is not None
        w, support = point
        face: FaceKey = (target.cusp, tuple(sorted(support)))
        members = next(
            cls
            for cls in cone_orbit_classes(current, len(support))
            if face in cls
        )
        assignment = _propagate_new_ray(current, members, face, w)
        cones = [(c.cusp, c.rays) for c in current.cones]
        for key in sorted(assignment):
            cones = _stellar_subdivide(cones, key, assignment[key])
        current = FanSystem(
            cusps=current.cusps,
            cones=tuple(Cone(cusp, rays) for cusp, rays in cones),
            identifications=current.identifications,
        )


# -- refinement and equivariance helpers ------------------------------------


def cone_contains_vector(rays: Sequence[Ray], v: Sequence[int]) -> bool:
    """Membership of a vector in the nonnegative span of the rays."""
    if not rays:
        return all(x == 0 for x in v)
    coeffs = solve(Matrix.from_columns(rays), v)
    return coeffs is not None and all(c >= 0 for c in coeffs)


def is_refinement(fine: FanSystem, coarse: FanSystem) -> bool:
    """Every cone of `fine` lies inside some cone of `coarse` (same cusp)."""
    for cone in fine.cones:
        hosts = [
            c
            for c in coarse.cones
            if c.cusp == cone.cusp
            and all(cone_contains_vector(c.rays, r) for r in cone.rays)
        ]
        if not hosts:
            return False
    return True


# -- fixtures ---------------------------------------------------------------


def hilbert_cusp_window(m: Sequence[Sequence[int]], length: int) -> FanSystem:
    """Rank-2 cusp window with rays v_k = M^k (1,0) and identification M.

    This is the classical infinite-chain cusp of a Hilbert modular surface,
    truncated to `length` top-dimensional cones.
    """
    matrix = Matrix(m)
    if matrix.shape != (2, 2) or abs(det(matrix)) != 1:
        raise ValueError("need a 2x2 unimodular matrix")
    rays = [(1, 0)]
    for _ in range(length):
        rays.append(tuple(int(x) for x in apply_matrix(matrix, rays[-1])))
    cones = [Cone("F", (rays[k], rays[k + 1])) for k in range(length)]
    return FanSystem(
        cusps=(CuspLabel("F", 2),),
        cones=tuple(cones),
        identifications=(Identification(matrix, "F", "F"),),
    )


# -- JSON schema -------------------------------------------------------------


def fan_system_to_dict(fs: FanSystem) -> dict:
    return {
        "cusps": [
            {
                "name": c.name,
                "rank": c.lattice_rank,
                "embeddings": [
                    {"parent": parent, "matrix": emb.to_lists()}
                    for parent, emb in c.parent_embeddings
                ],
            }
            for c in fs.cusps
        ],
        "cones": [
            {"cusp": c.cusp, "rays": [list(r) for r in c.rays]} for c in fs.cones
        ],
        "identifications": [
            {
                "matrix": ident.matrix.to_lists(),
                "source": ident.source,
                "target": ident.target,
            }
            for ident in fs.identifications
        ],
    }


def fan_system_from_dict(data: dict) -> FanSystem:
    cusps = tuple(
        CuspLabel(
            name=c["name"],
            lattice_rank=c["rank"],
            parent_embeddings=tuple(
                (e["parent"], Matrix(e["matrix"])) for e in c.get("embeddings", [])
            ),
        )
        for c in data["cusps"]
    )
    cones = tuple(
        Cone(c["cusp"], tuple(tuple(r) for r in c["rays"])) for c in data["cones"]
    )
    idents = tuple(
        Identification(Matrix(i["matrix"]), i["source"], i["target"])
        for i in data.get("identifications", [])
    )
    return FanSystem(cusps=cusps, cones=cones, identifications=idents)
