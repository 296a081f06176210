"""Lattice cones, fan windows with group identifications, and subdivision.

An infinite group-invariant fan is represented by a finite *window*: a list
of simplicial cones containing at least one representative of every orbit,
together with the unimodular generators identifying them.  Equivalence of
rays and cones is the union-find closure of the generators restricted to
the window; an undersized window can under-merge classes (documented
limitation, window length is user input).

Each ``FanSystem`` computes its combinatorial structure at most once, on
first use: the face registry, the window rays of each cusp, the directed
ray maps (each inverse computed once) with the images of the window rays,
the face pairings with their source -> [(target, matrix)] adjacency, the
ray classes and the cone orbit classes of each dimension.  Every query and
subdivision step below reads from it.  The cache is not a dataclass field,
so it never changes equality, hashing or the JSON form, and public queries
return fresh containers so callers cannot alter it.  A subdivision returns
a new ``FanSystem`` with a cache of its own.

The lattice work reads the Smith form U B V = D of a cone's ray matrix B:
the cone is smooth iff every invariant factor is 1, and the lattice points
of its half-open parallelepiped are walked through the group Z/d_1 x ... x
Z/d_k, which has exactly mult = d_1 ... d_k elements, to find the stellar
subdivision point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import prod
from typing import Sequence

from .errors import DependentInput, NonFreeAction, UnsaturatedWindow, expect, expect_rows
from .linalg import (
    Matrix,
    apply_matrix,
    coordinate_forms,
    det,
    extend_to_lattice_basis,
    inverse,
    invariant_factors,
    primitivize,
    rank,
    smith_normal_form,
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


def _require_int_matrix(m: Matrix, where: str) -> None:
    for row in m.to_lists():
        for x in row:
            if type(x) is not int:
                raise ValueError(f"{where}: matrix entry {x!r} is not an integer")


@dataclass(frozen=True)
class FanSystem:
    """Finite window of lattice cones plus group identifications.

    Construction canonicalizes: rays of each cone are sorted
    lexicographically, cones are sorted by (cusp, rays) and re-numbered, so
    equal windows compare equal and JSON round-trips are stable.  Rays and
    matrices must hold Python ints (not bool or float): anything else raises
    ValueError instead of being truncated.
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
            if type(c.lattice_rank) is not int or c.lattice_rank < 0:
                raise ValueError(
                    f"cusp {c.name!r}: lattice rank {c.lattice_rank!r} is not a nonnegative int"
                )
            for parent, emb in c.parent_embeddings:
                _require_int_matrix(emb, f"cusp {c.name!r}: embedding into {parent!r}")
                if parent not in ranks:
                    raise ValueError(f"unknown parent cusp {parent!r}")
                if emb.shape != (ranks[parent], c.lattice_rank):
                    raise ValueError("embedding shape mismatch")
                if rank(emb) != c.lattice_rank:
                    raise ValueError("embedding not of full column rank")
                if extend_to_lattice_basis(emb.columns(), ranks[parent]) is None:
                    raise ValueError("embedding image is not saturated")
        canonical = []
        for i, cone in enumerate(self.cones):
            if cone.cusp not in ranks:
                raise ValueError(f"cone on unknown cusp {cone.cusp!r}")
            for ray in cone.rays:
                if not all(type(x) is int for x in ray):
                    raise ValueError(
                        f"cone {i}: ray {list(ray)} has a non-integer entry"
                    )
            r = ranks[cone.cusp]
            rays = tuple(sorted(tuple(ray) for ray in cone.rays))
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
        for i, ident in enumerate(self.identifications):
            _require_int_matrix(ident.matrix, f"identification {i}")
            if ident.source not in ranks or ident.target not in ranks:
                raise ValueError("identification on unknown cusp")
            if ident.matrix.shape != (ranks[ident.target], ranks[ident.source]):
                raise ValueError("identification matrix shape mismatch")
            if abs(det(ident.matrix)) != 1:
                raise ValueError("identification is not a lattice automorphism")

    @cached_property
    def _index(self) -> _FanIndex:
        return _FanIndex(self)

    # -- basic queries ----------------------------------------------------

    def cusp(self, name: str) -> CuspLabel:
        for c in self.cusps:
            if c.name == name:
                return c
        raise KeyError(name)


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


class _FanIndex:
    """Combinatorial structure of one FanSystem, each part built on first use.

    Holds the window's fields rather than the FanSystem itself, so no
    reference cycle keeps intermediate subdivisions alive.
    """

    def __init__(self, fs: FanSystem):
        self._cusps = fs.cusps
        self._cones = fs.cones
        self._identifications = fs.identifications
        self._orbits: dict[int, tuple[tuple[FaceKey, ...], ...]] = {}

    @cached_property
    def windows(self) -> dict[str, frozenset[Ray]]:
        rays: dict[str, set[Ray]] = {c.name: set() for c in self._cusps}
        for cone in self._cones:
            rays[cone.cusp].update(cone.rays)
        return {name: frozenset(r) for name, r in rays.items()}

    @cached_property
    def faces(self) -> dict[int, tuple[FaceKey, ...]]:
        """All faces of window cones, per dimension, sorted; dim 0 omitted."""
        by_dim: dict[int, set[FaceKey]] = {}
        for cone in self._cones:
            for d in range(1, cone.dim() + 1):
                for subset in itertools.combinations(cone.rays, d):
                    by_dim.setdefault(d, set()).add((cone.cusp, subset))
        return {d: tuple(sorted(keys)) for d, keys in by_dim.items()}

    @cached_property
    def ray_maps(self) -> tuple[tuple[str, str, Matrix, dict[Ray, Ray]], ...]:
        """Directed ray maps: identifications (both ways) and embeddings.

        Each comes with the images of those source window rays whose image
        lies in the target window.
        """
        maps = []
        for ident in self._identifications:
            maps.append((ident.source, ident.target, ident.matrix))
            inv = inverse(ident.matrix)
            maps.append(
                (ident.target, ident.source,
                 Matrix([[int(x) for x in row] for row in inv.to_lists()]))
            )
        for cusp in self._cusps:
            for parent, emb in cusp.parent_embeddings:
                maps.append((cusp.name, parent, emb))
        out = []
        for src, dst, m in maps:
            target = self.windows[dst]
            images = {}
            for ray in self.windows[src]:
                image = tuple(int(x) for x in apply_matrix(m, ray))
                if image in target:
                    images[ray] = image
            out.append((src, dst, m, images))
        return tuple(out)

    @cached_property
    def ray_classes(self) -> tuple[RayClass, ...]:
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
    def ray_class_index(self) -> dict[tuple[str, Ray], int]:
        return {
            member: i
            for i, cls in enumerate(self.ray_classes)
            for member in cls.members
        }

    @cached_property
    def pairings(self) -> tuple[tuple[FaceKey, FaceKey, Matrix], ...]:
        """Directed face-level pairings induced by the ray maps.

        A map is *defined* on a face only when every image ray lies in the
        target window; all image rays in the window but no matching face is
        an inconsistent (unsaturated) window.
        """
        all_keys = {k for keys in self.faces.values() for k in keys}
        edges = []
        for src, dst, m, images in self.ray_maps:
            for keys in self.faces.values():
                for key in keys:
                    if key[0] != src or not all(r in images for r in key[1]):
                        continue
                    image_key: FaceKey = (dst, tuple(sorted(images[r] for r in key[1])))
                    if image_key not in all_keys:
                        raise UnsaturatedWindow(
                            f"identification maps face {key} to {image_key}, "
                            "which is not a face of any window cone"
                        )
                    edges.append((key, image_key, m))
        return tuple(edges)

    @cached_property
    def adjacency(self) -> dict[FaceKey, list[tuple[FaceKey, Matrix]]]:
        out: dict[FaceKey, list[tuple[FaceKey, Matrix]]] = {}
        for src, dst, m in self.pairings:
            out.setdefault(src, []).append((dst, m))
        return out

    def orbit_classes(self, dim: int) -> tuple[tuple[FaceKey, ...], ...]:
        if dim not in self._orbits:
            dsu = _DSU(self.faces.get(dim, ()))
            for src, dst, _m in self.pairings:
                if len(src[1]) == dim:
                    dsu.union(src, dst)
            self._orbits[dim] = tuple(tuple(cls) for cls in dsu.classes())
        return self._orbits[dim]


def ray_classes(fs: FanSystem) -> list[RayClass]:
    """Equivalence classes of window rays under the identification closure.

    Classes are numbered by their smallest member, lexicographic on
    (cusp, coordinates).
    """
    return list(fs._index.ray_classes)


def ray_class_index(fs: FanSystem) -> dict[tuple[str, Ray], int]:
    return dict(fs._index.ray_class_index)


def cone_orbit_classes(fs: FanSystem, dim: int) -> list[list[FaceKey]]:
    """Orbit classes of dim-dimensional faces of window cones."""
    return [list(cls) for cls in fs._index.orbit_classes(dim)]


def _check_free_action(fs: FanSystem) -> None:
    """Reject identifications that fix a face while permuting its rays."""
    for src, dst, m in fs._index.pairings:
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
    """True iff the rays extend to a basis of the cusp lattice.

    That holds iff every invariant factor of the ray matrix is 1.  Raises
    DependentInput when the rays are linearly dependent over Q.
    """
    ambient = fs.cusp(c.cusp).lattice_rank
    if any(len(r) != ambient for r in c.rays):
        raise ValueError("ray length != cusp lattice rank")
    if not c.rays:
        return True
    factors = invariant_factors(Matrix.from_columns(c.rays))
    if len(factors) < len(c.rays):
        raise DependentInput("cone rays are linearly dependent over Q")
    return all(f == 1 for f in factors)


@dataclass(frozen=True)
class SncReport:
    ok: bool
    violations: tuple[tuple[int, tuple[Ray, Ray]], ...]


def check_snc_condition(fs: FanSystem) -> SncReport:
    """No window cone may have two distinct rays in the same ray class."""
    index = fs._index.ray_class_index
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
    """BFS the new ray through the pairing graph of one orbit class.

    Orbit classes are closed under the pairings, so the walk over the
    cached adjacency never leaves the class.
    """
    adjacency = fs._index.adjacency
    assignment = {rep: w}
    queue = [rep]
    while queue:
        cur = queue.pop()
        for nxt, m in adjacency.get(cur, ()):
            image = primitivize(tuple(int(x) for x in apply_matrix(m, assignment[cur])))
            if nxt in assignment:
                if assignment[nxt] != image:
                    raise NonFreeAction(
                        f"conflicting new-ray propagation at face {nxt}"
                    )
            else:
                assignment[nxt] = image
                queue.append(nxt)
    if set(assignment) != set(members):
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
    a smooth cone.  With U B V = D the Smith form of the ray matrix B, the
    lattice points x = B c with c in [0, 1)^k have c = V (y_1/d_1, ...,
    y_k/d_k) mod 1, one for each y in Z/d_1 x ... x Z/d_k: exactly mult =
    d_1 ... d_k of them.  Each is handled by its integer numerators
    mult * c_j, and the minimum is taken by (sum of the c_j, the c_j).
    """
    k = len(rays)
    _, d, v = smith_normal_form(Matrix.from_columns(rays))
    diag = [d[i, i] for i in range(k)]
    mult = prod(diag)
    if mult == 1:
        return None
    # numerator steps of the nontrivial cyclic factors
    steps = [
        [v[j, i] * (mult // diag[i]) for j in range(k)]
        for i in range(k)
        if diag[i] > 1
    ]
    best = None
    for y in itertools.product(*(range(di) for di in diag if di > 1)):
        c = tuple(
            sum(yi * step[j] for yi, step in zip(y, steps)) % mult for j in range(k)
        )
        key = (sum(c), c)
        if key[0] and (best is None or key < best):  # y = 0 is the origin
            best = key
    assert best is not None
    _, c = best
    x = tuple(
        sum(cj * ray[i] for cj, ray in zip(c, rays)) // mult
        for i in range(len(rays[0]))
    )
    support = tuple(ray for cj, ray in zip(c, rays) if cj > 0)
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
    terminates.  Smoothness depends only on the cusp and the rays, so each
    distinct cone is tested once across all steps.
    """
    _check_free_action(fs)
    current = fs
    smooth: dict[tuple[str, tuple[Ray, ...]], bool] = {}
    while True:
        nonsmooth = []
        for c in current.cones:
            key = (c.cusp, c.rays)
            if key not in smooth:
                smooth[key] = is_smooth(current, c)
            if not smooth[key]:
                nonsmooth.append(c)
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


def _in_cone(forms, v: Ray) -> bool:
    equations, coordinates = forms
    return all(
        sum(a * b for a, b in zip(e, v)) == 0 for e in equations
    ) and all(sum(a * b for a, b in zip(f, v)) >= 0 for f in coordinates)


def is_refinement(fine: FanSystem, coarse: FanSystem) -> bool:
    """Every cone of `fine` lies inside some cone of `coarse` (same cusp).

    Each coarse cone is eliminated once into the integer forms of
    ``coordinate_forms``; a ray lies in the cone iff the equations vanish
    on it and the coordinate forms are nonnegative.  The search for a fine
    cone's host stops at the first coarse cone that contains all its rays.
    """
    ranks = {c.name: c.lattice_rank for c in coarse.cusps}
    if any(ranks.get(c.name, c.lattice_rank) != c.lattice_rank for c in fine.cusps):
        raise ValueError("fine and coarse cusps have different lattice ranks")
    hosts: dict[str, list] = {}
    for c in coarse.cones:
        hosts.setdefault(c.cusp, []).append(coordinate_forms(c.rays, ranks[c.cusp]))
    return all(
        any(
            all(_in_cone(forms, r) for r in cone.rays)
            for forms in hosts.get(cone.cusp, ())
        )
        for cone in fine.cones
    )


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


def _rays_from_json(rays, path: str) -> tuple[Ray, ...]:
    """Rays as tuples; a non-list names its JSON path in a ValueError.

    Entry types are checked by ``FanSystem`` itself.
    """
    if not isinstance(rays, list):
        raise ValueError(f"{path}: expected a list of rays, got {rays!r}")
    for j, ray in enumerate(rays):
        if not isinstance(ray, list):
            raise ValueError(f"{path}[{j}]: expected a list of ints, got {ray!r}")
    return tuple(tuple(r) for r in rays)


def fan_system_from_dict(data: dict) -> FanSystem:
    """Read the JSON form.  A value of the wrong JSON type raises a
    ValueError that names its path; a missing key raises KeyError."""
    expect(data, dict)
    cusps = []
    for i, c in enumerate(expect(data["cusps"], list, "cusps")):
        expect(c, dict, "cusps", i)
        embeddings = []
        for j, e in enumerate(expect(c.get("embeddings", []), list, "cusps", i, ".embeddings")):
            path = ("cusps", i, ".embeddings", j)
            expect(e, dict, *path)
            matrix = e["matrix"]
            embeddings.append((expect(e["parent"], str, *path, ".parent"),
                               Matrix(matrix, cols=expect_rows(matrix, *path, ".matrix"))))
        cusps.append(CuspLabel(expect(c["name"], str, "cusps", i, ".name"),
                               expect(c["rank"], int, "cusps", i, ".rank"), tuple(embeddings)))
    cones = []
    for i, c in enumerate(expect(data["cones"], list, "cones")):
        expect(c, dict, "cones", i)
        cones.append(Cone(expect(c["cusp"], str, "cones", i, ".cusp"),
                          _rays_from_json(c["rays"], f"cones[{i}].rays")))
    idents = []
    for i, g in enumerate(expect(data.get("identifications", []), list, "identifications")):
        path = ("identifications", i)
        expect(g, dict, *path)
        matrix = g["matrix"]
        idents.append(Identification(Matrix(matrix, cols=expect_rows(matrix, *path, ".matrix")),
                                     expect(g["source"], str, *path, ".source"),
                                     expect(g["target"], str, *path, ".target")))
    return FanSystem(cusps=tuple(cusps), cones=tuple(cones), identifications=tuple(idents))
