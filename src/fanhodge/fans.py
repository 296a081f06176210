"""Lattice cones, fan windows with group identifications, and subdivision.

An infinite group-invariant fan is represented by a finite *window*: a list
of simplicial cones containing at least one representative of every orbit,
together with the unimodular generators identifying them.  Equivalence of
rays and cones is the union-find closure of the generators restricted to
the window; an undersized window can under-merge classes (documented
limitation, window length is user input).

Each ``FanSystem`` computes its combinatorial structure at most once, on
first use, in one face index (``_FanIndex``): window rays numbered in
(cusp, ray) order, one face table per dimension (the ray-id tuples of its
faces, in sorted order, with O(1) membership), built when that dimension is
first asked for, the directed ray maps with the images of the window rays
(an inverse's read backwards from the forward ones), the face pairings, the
ray classes and the cone orbit classes of each dimension.  A map's pairings
are read off the face tables: the faces whose rays all lie in its domain,
each with its image, which must be in the table too.  The DSUs hold only the
rays and faces that a map or pairing touches.  Every reader takes its
structure from it: the free-action and SNC checks, the subdivisions (two-
division stars the 2-face orbit classes), the refinement check (candidate
hosts by a ray -> cones incidence), and through ``delta_complex`` the
quotient complex and the annotated strata of ``weight_ss``.  The cache is
not a dataclass field, so it never changes equality, hashing or the JSON
form.

A window is validated one cone at a time, by ``_canonical_cone``: the int
entries, the ray sort, then ray length, primitivity and the multiplicity,
with a message formatted only for the check that fails.  The constructor
and the JSON loader both go through it, and the loader hands it (cusp,
rays) pairs, so the only ``Cone`` objects built are the canonical ones.
The refinement check tests a fine ray against a candidate host only when
the ray is not one of the host's own rays, by plain integer dot products
with the host's coordinate forms: the cofactors of its rays for a
full-dimensional host of rank at most 3, else one elimination.

The two subdivisions do not rebuild a ``FanSystem`` per step.  Each works
on one mutable local state, ``_LocalFan``: the cone set, a (cusp, ray) ->
cones incidence and the directed integer ray maps.  The rows of each
inverse g^-1 are read off ``coordinate_forms`` of the columns of g: for a
unimodular g, every row of g^-1 is primitive, and so are the forms, with
positive scale.  They come from cofactors for rank <= 3 and from one
integer elimination otherwise, so no ``Fraction`` is built on the fan
path.  A face exists iff the incidence sets of its rays intersect, a face
orbit is walked through the maps, and both subdivisions take one stellar
step, ``_LocalFan.star``, which stars the faces of an orbit in sorted order
and touches only the cones that contain one of them; two-division is the
star of each 2-face at its ray sum.  Each cone a step leaves in the fan is
validated once (ray length, primitivity, independence); in the stellar
loop the one multiplicity that validates a cone also answers whether it is
smooth.  One ``FanSystem`` is built at the end from the input's cusps and
identifications without checking them again; when there are ray maps its
pairings are read, so a subdivision raises ``UnsaturatedWindow`` rather
than return an unsaturated window.

The lattice work reads the ray matrix B of a cone.  Its multiplicity is
|det B| for a full-dimensional cone, read by the integer Bareiss
determinant ``linalg._det`` straight from the ray tuples (the rows of B^T),
with no ``Matrix`` built (at rank 2 one closed expression, at rank 3 one
elimination step and that expression), and the product of the invariant
factors of B for a lower-dimensional one; it is 0 iff the rays are
dependent and 1 iff the cone is smooth.  Identifications are checked
unimodular by the same determinant.  Rays are mapped by integer
matrix-vector products.  The lattice points of the half-open
parallelepiped are walked through the Smith group Z/d_1 x ... x Z/d_k,
which has exactly mult = d_1 ... d_k elements, to find the stellar
subdivision point.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from functools import cached_property
from math import gcd, prod
from operator import countOf, mul
from typing import Sequence

from .errors import DependentInput, NonFreeAction, UnsaturatedWindow, expect, expect_rows, member
from .linalg import (
    Matrix,
    _det,
    coordinate_forms,
    invariant_factors,
    primitivize,
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


def _require_int_matrix(m: Matrix, where: str) -> None:
    for row in m.to_lists():
        for x in row:
            if type(x) is not int:
                raise ValueError(f"{where}: matrix entry {x!r} is not an integer")


def _check_rays(rays: tuple[Ray, ...], lattice_rank: int) -> None:
    """Ray length and primitive nonzero rays.  Rays must already be int
    tuples."""
    for ray in rays:
        if len(ray) != lattice_rank:
            raise ValueError("ray length != cusp lattice rank")
        if gcd(*ray) != 1:  # 0 for the zero ray
            raise ValueError(f"non-primitive ray {ray}")


def _multiplicity(rays: tuple[Ray, ...], lattice_rank: int) -> int:
    """The index of the lattice the rays span in its saturation, or 0 when
    they are dependent over Q: |det| of the ray tuples of a full-dimensional
    cone, the product of the invariant factors of a lower-dimensional one.
    A cone is smooth iff it is 1."""
    if not rays:
        return 1
    if len(rays) == lattice_rank:
        return abs(_det(rays))
    factors = invariant_factors(Matrix(rays))
    return prod(factors) if len(factors) == len(rays) else 0


def _check_cone(rays: tuple[Ray, ...], lattice_rank: int) -> int:
    """The per-cone checks, ``_check_rays`` and rays independent over Q;
    returns the cone's multiplicity."""
    _check_rays(rays, lattice_rank)
    mult = _multiplicity(rays, lattice_rank)
    if not mult:
        raise ValueError(f"dependent rays in cone {rays} (simplicial only)")
    return mult


def _canonical_cone(i: int, cusp: str, rays, ranks: dict[str, int]) -> FaceKey:
    """The (cusp, sorted rays) pair of cone ``i`` of a window, once it
    passes the per-cone checks in order: a known cusp, int entries, then
    ``_check_cone`` on the sorted rays.  A message is formatted only for the
    check that fails, and names the cone."""
    if cusp not in ranks:
        raise ValueError(f"cone {i}: unknown cusp {cusp!r}")
    for ray in rays:
        if countOf(map(type, ray), int) != len(ray):
            raise ValueError(f"cone {i}: ray {list(ray)} has a non-integer entry")
    rays = tuple(sorted(map(tuple, rays)))
    try:
        _check_cone(rays, ranks[cusp])
    except ValueError as exc:
        raise ValueError(f"cone {i}: {exc}") from None
    return cusp, rays


def _numbered(cones) -> tuple[Cone, ...]:
    """Distinct (cusp, sorted rays) pairs, sorted and numbered from 0."""
    return tuple(Cone(cusp, rays, i) for i, (cusp, rays) in enumerate(sorted(set(cones))))


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
        self._check((cone.cusp, cone.rays) for cone in self.cones)

    @classmethod
    def _from_parts(cls, cusps, cones, identifications) -> FanSystem:
        """The FanSystem of (cusp, rays) pairs, checked and canonicalised as
        construction does; no ``Cone`` is built but the canonical ones."""
        fs = object.__new__(cls)
        object.__setattr__(fs, "cusps", cusps)
        object.__setattr__(fs, "identifications", identifications)
        fs._check(cones)
        return fs

    def _check(self, cones) -> None:
        """Check the cusps, then each (cusp, rays) pair of ``cones`` by
        ``_canonical_cone``, then the identifications; set ``cones`` to the
        canonical cones."""
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
                where = f"cusp {c.name!r}: embedding into {parent!r}"
                _require_int_matrix(emb, where)
                if parent not in ranks:
                    raise ValueError(f"{where}: unknown parent cusp")
                if emb.shape != (ranks[parent], c.lattice_rank):
                    raise ValueError(f"{where}: shape mismatch")
                # full column rank and a saturated image: lattice_rank unit factors
                factors = invariant_factors(emb)
                if len(factors) != c.lattice_rank:
                    raise ValueError(f"{where}: not of full column rank")
                if any(f != 1 for f in factors):
                    raise ValueError(f"{where}: image is not saturated")
        object.__setattr__(self, "cones", _numbered(
            [_canonical_cone(i, cusp, rays, ranks) for i, (cusp, rays) in enumerate(cones)]))
        for i, ident in enumerate(self.identifications):
            _require_int_matrix(ident.matrix, f"identification {i}")
            if ident.source not in ranks or ident.target not in ranks:
                raise ValueError(f"identification {i}: unknown cusp")
            if ident.matrix.shape != (ranks[ident.target], ranks[ident.source]):
                raise ValueError(f"identification {i}: matrix shape mismatch")
            if ident.matrix.rows != ident.matrix.cols:
                raise ValueError(f"identification {i}: not square")
            if abs(_det(ident.matrix.to_lists())) != 1:
                raise ValueError(f"identification {i}: not a lattice automorphism")

    @classmethod
    def _trusted(cls, like: FanSystem, cones) -> FanSystem:
        """The FanSystem with the cusps and identifications of ``like`` and
        the given (cusp, sorted rays) pairs, canonicalised as construction
        does but not checked again: ``like`` was validated on construction,
        and each cone passed the per-cone checks when it was made."""
        fs = object.__new__(cls)
        object.__setattr__(fs, "cusps", like.cusps)
        object.__setattr__(fs, "cones", _numbered(cones))
        object.__setattr__(fs, "identifications", like.identifications)
        return fs

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


def _mat_vec(rows: list[list[int]], v: Ray) -> Ray:
    return tuple([sum(map(mul, row, v)) for row in rows])


class _DSU(dict):
    """Union-find over the items some union touched, which are its keys;
    every other item is its own class.  A class's root is its least member."""

    def find(self, x):
        while (up := self.get(x, x)) != x:
            self[x] = x = self.get(up, up)  # halve the path
        return x

    def union(self, a, b):
        lo, hi = sorted((self.find(a), self.find(b)))
        self[hi] = lo
        self.setdefault(lo, lo)


Face = tuple[int, ...]  # ascending ray ids


class _FanIndex:
    """The face index of one FanSystem, each part built on first use.

    Window rays are numbered in (cusp, ray) order, so a face is the tuple of
    its ascending ray ids, and tuples of one length sort as their (cusp,
    sorted rays) keys do.  The face table of one dimension is built when
    first asked for, from the cones' ray-id tuples, sorted once and kept as
    an ordered dict: it is both the sorted face list and the face test.  The
    pairings of a ray map are the faces of each table whose rays lie in the
    map's domain (the rays whose image is in the target window), and an
    image is a face iff it is in the table.  The ray-class and orbit DSUs
    hold only the rays and faces that some map or pairing touches; every
    other one is its own class, placed by the one sort of its dimension.
    ``holders`` maps each ray to the cones holding it, for the refinement
    check.

    Holds the window's fields rather than the FanSystem itself, so no
    reference cycle keeps intermediate subdivisions alive.
    """

    def __init__(self, fs: FanSystem):
        self._cusps = fs.cusps
        self._cones = fs.cones
        self._identifications = fs.identifications
        windows: dict[str, set[Ray]] = {c.name: set() for c in fs.cusps}
        for cone in fs.cones:
            windows[cone.cusp].update(cone.rays)
        self.rays = [(name, ray) for name in sorted(windows) for ray in sorted(windows[name])]
        self.ids: dict[str, dict[Ray, int]] = {name: {} for name in windows}
        for i, (name, ray) in enumerate(self.rays):
            self.ids[name][ray] = i
        self._faces: dict[int, dict[Face, None]] = {}
        self._orbits: dict[int, list[Sequence[Face]]] = {}

    def key(self, face: Face) -> FaceKey:
        return (self.rays[face[0]][0], tuple(self.rays[r][1] for r in face))

    @cached_property
    def cones(self) -> tuple[Face, ...]:
        """The ray ids of each window cone, in cone order."""
        return tuple(tuple(map(self.ids[c.cusp].__getitem__, c.rays)) for c in self._cones)

    @cached_property
    def holders(self) -> list[set[int]]:
        """The positions of the cones holding each ray."""
        out: list[set[int]] = [set() for _ in self.rays]
        for i, cone in enumerate(self.cones):
            for r in cone:
                out[r].add(i)
        return out

    def faces(self, dim: int) -> dict[Face, None]:
        """The dim-faces of window cones, iterated in sorted order."""
        if dim not in self._faces:
            found: set[Face] = set()
            for cone in self.cones:
                if len(cone) >= dim > 0:
                    found.update(itertools.combinations(cone, dim))
            self._faces[dim] = dict.fromkeys(sorted(found))
        return self._faces[dim]

    @cached_property
    def ray_maps(self) -> tuple[tuple[str, str, dict[int, int]], ...]:
        """Directed ray maps: each identification both ways, then the
        embeddings, as (source, target, images).

        ``images`` maps the id of each source window ray whose image lies in
        the target window to the image's id.  An inverse reads the forward
        images backwards, so no inverse matrix is needed here.
        """
        out = []
        for g in self._identifications:
            images = self._images(g.source, g.target, g.matrix)
            out += [(g.source, g.target, images),
                    (g.target, g.source, {b: a for a, b in images.items()})]
        out += [(c.name, parent, self._images(c.name, parent, emb))
                for c in self._cusps for parent, emb in c.parent_embeddings]
        return tuple(out)

    def _images(self, src: str, dst: str, m: Matrix) -> dict[int, int]:
        rows, source, target = m.to_lists(), self.ids[src], self.ids[dst]
        return {r: target[v] for ray, r in source.items() if (v := _mat_vec(rows, ray)) in target}

    @cached_property
    def ray_class(self) -> list[int]:
        """The class of each ray id; classes are numbered by least member,
        which is the first ray of its class in id order."""
        dsu = _DSU()
        for _, _, images in self.ray_maps:
            for a, b in images.items():
                dsu.union(a, b)
        number: dict[int, int] = {}
        return [number.setdefault(dsu.find(r), len(number)) for r in range(len(self.rays))]

    @cached_property
    def pairings(self) -> tuple[tuple[int, Face, Face], ...]:
        """Directed face pairings (map position, face, image face), by map,
        then dimension, then face.

        A map is *defined* on a face only when every ray of the face is in its
        domain, i.e. has its image in the target window; all image rays in
        the window but no matching face is an inconsistent (unsaturated)
        window.  Both are read off the face table of the face's dimension.
        """
        edges, top = [], max(map(len, self.cones), default=0)
        for i, (_, _, images) in enumerate(self.ray_maps):
            defined = set(images).issuperset
            for d in range(1, top + 1):
                table = self.faces(d)
                for face in filter(defined, table):
                    image = tuple(sorted(map(images.__getitem__, face)))
                    if image not in table:
                        raise UnsaturatedWindow(
                            f"identification maps face {self.key(face)} to "
                            f"{self.key(image)}, which is not a face of any window cone"
                        )
                    edges.append((i, face, image))
        return tuple(edges)

    def orbits(self, dim: int) -> list[Sequence[Face]]:
        """The orbit classes of dim-faces, each sorted, ordered by least
        member."""
        if dim not in self._orbits:
            dsu = _DSU()
            for _, face, image in self.pairings:
                if len(face) == dim:
                    dsu.union(face, image)
            classes: list[Sequence[Face]] = []
            groups: dict[Face, list[Face]] = {}
            for f in self.faces(dim):
                if f not in dsu:
                    classes.append((f,))
                elif (root := dsu.find(f)) in groups:
                    groups[root].append(f)
                else:
                    classes.append(groups.setdefault(root, [f]))
            self._orbits[dim] = classes
        return self._orbits[dim]


def _check_free_action(fs: FanSystem) -> None:
    """Reject identifications that fix a face while permuting its rays."""
    index = fs._index
    for i, face, image in index.pairings:
        images = index.ray_maps[i][2]
        if face == image and any(images[r] != r for r in face):
            raise NonFreeAction(
                f"identification fixes face {index.key(face)} with a nontrivial "
                "ray permutation"
            )


# -- smoothness and the SNC condition --------------------------------------


def is_smooth(fs: FanSystem, c: Cone) -> bool:
    """True iff the rays extend to a basis of the cusp lattice, i.e. the
    cone's multiplicity is 1.  Raises DependentInput when the rays are
    linearly dependent over Q, and ValueError when a ray's length is not the
    cusp's lattice rank.
    """
    ambient = fs.cusp(c.cusp).lattice_rank
    if any(len(r) != ambient for r in c.rays):
        raise ValueError("ray length != cusp lattice rank")
    mult = _multiplicity(c.rays, ambient)
    if not mult:
        raise DependentInput("cone rays are linearly dependent over Q")
    return mult == 1


@dataclass(frozen=True)
class SncReport:
    ok: bool
    violations: tuple[tuple[int, tuple[Ray, Ray]], ...]


def check_snc_condition(fs: FanSystem) -> SncReport:
    """No window cone may have two distinct rays in the same ray class.

    Read off the ray-id tuples of the cones; the ray pairs are listed only
    for a cone whose rays do not have distinct classes."""
    index = fs._index
    cls = index.ray_class
    violations = [
        (cone.id, (a, b)) for cone, ids in zip(fs.cones, index.cones)
        if len(set(map(cls.__getitem__, ids))) < len(ids)
        for (a, i), (b, j) in itertools.combinations(zip(cone.rays, ids), 2) if cls[i] == cls[j]
    ]
    return SncReport(ok=not violations, violations=tuple(violations))


# -- subdivision ------------------------------------------------------------


class _LocalFan:
    """The mutable cone state of one subdivision run.

    A cone is its (cusp, sorted rays) key.  ``incidence`` maps (cusp, ray)
    to the cones holding that ray, so the cones holding a face are the
    intersection of its rays' sets, and a ray is in the window while its set
    is nonempty.  ``maps`` holds the directed ray maps as integer rows: each
    identification g, then g^-1, then each embedding, one way; each image of
    a ray is computed once.  An embedding is one-way, so for each one its
    source rays are also kept by image, to find the faces that embed into an
    orbit.
    """

    def __init__(self, fs: FanSystem):
        self.ranks = {c.name: c.lattice_rank for c in fs.cusps}
        self.cones: set[FaceKey] = set()
        self.incidence: dict[tuple[str, Ray], set[FaceKey]] = {}
        self.maps = []
        for g in fs.identifications:
            rows = g.matrix.to_lists()
            # g is unimodular, so the coordinate forms of its columns, each
            # primitive with positive scale, are the rows of g^-1
            self.maps += [(g.source, g.target, rows, {}),
                          (g.target, g.source, coordinate_forms(zip(*rows), len(rows))[1], {})]
        self.maps += [(c.name, parent, emb.to_lists(), {})
                      for c in fs.cusps for parent, emb in c.parent_embeddings]
        one_way = range(2 * len(fs.identifications), len(self.maps))
        self.preimages: dict[int, dict[Ray, Ray]] = {i: {} for i in one_way}
        self.out_of: dict[str, list[int]] = {}
        self.into: dict[str, list[int]] = {}  # one-way maps only
        for i, (src, dst, _, _) in enumerate(self.maps):
            self.out_of.setdefault(src, []).append(i)
            if i in one_way:
                self.into.setdefault(dst, []).append(i)
        for cone in fs.cones:
            self.add(cone.cusp, cone.rays)

    def image(self, i: int, ray: Ray) -> Ray:
        images = self.maps[i][3]
        out = images.get(ray)
        if out is None:
            out = images[ray] = _mat_vec(self.maps[i][2], ray)
        return out

    def add(self, cusp: str, rays: tuple[Ray, ...]) -> FaceKey:
        key = (cusp, rays)
        if key not in self.cones:
            self.cones.add(key)
            for ray in rays:
                holders = self.incidence.get((cusp, ray))
                if holders is None:
                    self.incidence[(cusp, ray)] = holders = set()
                    for i in self.preimages:
                        if self.maps[i][0] == cusp:
                            self.preimages[i][self.image(i, ray)] = ray
                holders.add(key)
        return key

    def holders(self, cusp: str, rays) -> set[FaceKey]:
        """The cones holding every ray: nonempty iff (cusp, rays) is a face."""
        sets = [self.incidence.get((cusp, ray)) for ray in rays]
        if not all(sets):
            return set()
        sets.sort(key=len)
        return sets[0].intersection(*sets[1:])

    def orbit(self, face: FaceKey, w: Ray) -> dict[FaceKey, Ray]:
        """The new ray ``w`` of ``face`` carried to every face of its orbit.

        The walk follows each directed map defined on a face, i.e. one that
        sends all its rays into the window; such an image must be a face.
        Each image ray is primitivized, and two different images of one face
        mean the action is not free.  Embeddings are one-way, so a face that
        embeds into the orbit but is not reached from ``face`` makes the
        orbit unreachable from its representative.
        """
        assignment = {face: w}
        stack = [face]
        while stack:
            cur = stack.pop()
            cusp, rays = cur
            for i in self.out_of.get(cusp, ()):
                dst, rows = self.maps[i][1], self.maps[i][2]
                images = [self.image(i, ray) for ray in rays]
                if not all(self.incidence.get((dst, x)) for x in images):
                    continue
                nxt = (dst, tuple(sorted(images)))
                if not self.holders(*nxt):
                    raise UnsaturatedWindow(
                        f"identification maps face {cur} to {nxt}, "
                        "which is not a face of any window cone"
                    )
                image = primitivize(_mat_vec(rows, assignment[cur]))
                if nxt in assignment:
                    if assignment[nxt] != image:
                        raise NonFreeAction(f"conflicting new-ray propagation at face {nxt}")
                else:
                    assignment[nxt] = image
                    stack.append(nxt)
        for cusp, rays in assignment:
            for i in self.into.get(cusp, ()):
                src = self.maps[i][0]
                sources = [self.preimages[i].get(ray) for ray in rays]
                if None in sources or not self.holders(src, sources):
                    continue
                if (src, tuple(sorted(sources))) not in assignment:
                    raise UnsaturatedWindow("orbit class not connected by pairings")
        return assignment

    def star(self, assignment: dict[FaceKey, Ray]) -> list[FaceKey]:
        """Star each face of an orbit ``assignment`` at its new ray, in
        sorted face order: each cone holding the face at that moment is
        replaced by the cones that trade one ray of the face for the new
        ray.  Returns the cones added."""
        added = []
        for (cusp, support), w in sorted(assignment.items()):
            for key in self.holders(cusp, support):
                self.cones.remove(key)
                for ray in key[1]:
                    self.incidence[(cusp, ray)].discard(key)
                for omitted in support:
                    piece = tuple(sorted(tuple(r for r in key[1] if r != omitted) + (w,)))
                    added.append(self.add(cusp, piece))
        return added

    def alive(self, keys) -> list[FaceKey]:
        """The distinct cones among ``keys`` still in the fan."""
        return [key for key in dict.fromkeys(keys) if key in self.cones]

    def window(self, like: FanSystem) -> FanSystem:
        """The cones as a window with the cusps and identifications of
        ``like``.  When there are ray maps, its pairings are read once, so an
        unsaturated result raises ``UnsaturatedWindow`` rather than being
        returned; they stay cached on the result."""
        out = FanSystem._trusted(like, self.cones)
        if self.maps:
            out._index.pairings
        return out


def two_division_subdivide(fs: FanSystem) -> FanSystem:
    """Divide one representative of every 2-cone orbit at the ray sum.

    The orbits are the index's classes of 2-faces, ``_FanIndex.orbits(2)``,
    in their order; the representative is the least face of its class.  The
    new ray is the primitivized sum of the representative's two primitive
    generators; ``_LocalFan.orbit`` carries it through the maps to every
    face of the class, or raises when the walk misses one.  Once every
    orbit has its rays, the orbits are starred by ``_LocalFan.star`` in
    that order: starring a 2-face cuts every window cone that contains it
    at that moment by the wall at its new ray.
    """
    _check_free_action(fs)
    state, index, assignments = _LocalFan(fs), fs._index, []
    for cls in index.orbits(2):
        face = index.key(cls[0])
        a, b = face[1]
        assignments.append(state.orbit(face, primitivize(tuple(x + y for x, y in zip(a, b)))))
    added = []
    for assignment in assignments:
        added += state.star(assignment)
    for cusp, rays in state.alive(added):
        _check_cone(rays, state.ranks[cusp])
    return state.window(fs)


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


def smooth_subdivide(fs: FanSystem) -> FanSystem:
    """Equivariant stellar resolution until every cone is smooth.

    Each step subdivides the orbit of the least non-smooth cone, by (cusp,
    rays), at a minimal interior lattice point; ``_LocalFan.star`` stars
    the faces of the orbit in sorted order, each in the cones that contain
    it at that moment.  The sublattice index strictly decreases, so the loop
    terminates.  Smoothness depends only on the cusp and the rays, so each
    distinct cone is tested once across all steps; for a new cone it is
    read off the multiplicity that validated it.
    A window whose cones are all smooth is returned as it is.
    """
    _check_free_action(fs)
    smooth = {(c.cusp, c.rays): is_smooth(fs, c) for c in fs.cones}
    queue = [key for key, ok in smooth.items() if not ok]  # a heap, sorted already
    if not queue:
        return fs
    state = _LocalFan(fs)
    while queue:
        if queue[0] not in state.cones:
            heapq.heappop(queue)
            continue
        cusp, rays = queue[0]
        point = _subdivision_point(rays)
        assert point is not None
        w, support = point
        assignment = state.orbit((cusp, tuple(sorted(support))), w)
        for key in state.alive(state.star(assignment)):
            if key not in smooth:
                smooth[key] = _check_cone(key[1], state.ranks[key[0]]) == 1
            if not smooth[key]:
                heapq.heappush(queue, key)
    return state.window(fs)


# -- refinement and equivariance helpers ------------------------------------


def is_refinement(fine: FanSystem, coarse: FanSystem) -> bool:
    """Every cone of `fine` lies inside some cone of `coarse` (same cusp).

    A fine cone's host is looked for first among the coarse cones that
    share a ray with it, read from the coarse face index, then among the
    other coarse cones of its cusp.  A fine ray that is one of the
    candidate's own rays lies in it; every other ray is tested against the
    candidate's integer forms from ``coordinate_forms``: it lies in the cone
    iff the equations vanish on it and the coordinate forms are nonnegative.
    Each coarse cone's forms are computed at most once, when a ray first
    needs them.
    """
    ranks = {c.name: c.lattice_rank for c in coarse.cusps}
    if any(ranks.get(c.name, c.lattice_rank) != c.lattice_rank for c in fine.cusps):
        raise ValueError("fine and coarse cusps have different lattice ranks")
    index = coarse._index
    forms: dict[int, tuple] = {}

    def hosts(i: int, rays: tuple[Ray, ...], ids: list) -> bool:
        own, outside = index.cones[i], []
        for ray, r in zip(rays, ids):
            if r not in own:
                outside.append(ray)
        if not outside:
            return True
        f = forms.get(i)
        if f is None:
            host = coarse.cones[i]
            f = forms[i] = coordinate_forms(host.rays, ranks[host.cusp])
        equations, coordinates = f
        for v in outside:
            for e in equations:
                if sum(map(mul, e, v)):
                    return False
            for c in coordinates:
                if sum(map(mul, c, v)) < 0:
                    return False
        return True

    for cone in fine.cones:
        ids = list(map(index.ids.get(cone.cusp, {}).get, cone.rays))  # None off the window
        near: set[int] = set()
        for r in ids:
            if r is not None:
                near |= index.holders[r]
        for i in sorted(near):
            if hosts(i, cone.rays, ids):
                break
        else:
            for i, c in enumerate(coarse.cones):
                if c.cusp == cone.cusp and i not in near and hosts(i, cone.rays, ids):
                    break
            else:
                return False
    return True


# -- fixtures ---------------------------------------------------------------


def hilbert_cusp_window(m: Sequence[Sequence[int]], length: int) -> FanSystem:
    """Rank-2 cusp window with rays v_k = M^k (1,0) and identification M.

    This is the classical infinite-chain cusp of a Hilbert modular surface,
    truncated to `length` top-dimensional cones.
    """
    matrix = Matrix(m)
    rows = matrix.to_lists()
    if matrix.shape != (2, 2) or abs(_det(rows)) != 1:
        raise ValueError("need a 2x2 unimodular matrix")
    rays = [(1, 0)]
    for _ in range(length):
        rays.append(_mat_vec(rows, rays[-1]))
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


def _check_json_rays(rays, i: int) -> None:
    """A ValueError that names the JSON path of cone ``i``'s rays when they
    are not a list, or of the first ray that is not a list."""
    path = f"cones[{i}].rays"
    if not isinstance(rays, list):
        raise ValueError(f"{path}: expected a list of rays, got {rays!r}")
    for j, ray in enumerate(rays):
        if not isinstance(ray, list):
            raise ValueError(f"{path}[{j}]: expected a list of ints, got {ray!r}")


def fan_system_from_dict(data: dict) -> FanSystem:
    """Read the JSON form.  A value of the wrong JSON type raises a
    ValueError, and a missing key a KeyError, that names its path; every
    value is type-checked before any cone or identification is validated.
    Entry types and everything else are checked as ``FanSystem`` checks
    them, with each cone checked once."""
    expect(data, dict)
    cusps = []
    for i, c in enumerate(member(data, "cusps", list)):
        expect(c, dict, "cusps", i)
        embeddings = []
        for j, e in enumerate(expect(c.get("embeddings", []), list, "cusps", i, ".embeddings")):
            path = ("cusps", i, ".embeddings", j)
            expect(e, dict, *path)
            matrix = member(e, "matrix", object, *path)
            embeddings.append((member(e, "parent", str, *path),
                               Matrix(matrix, cols=expect_rows(matrix, *path, ".matrix"))))
        cusps.append(CuspLabel(member(c, "name", str, "cusps", i),
                               member(c, "rank", int, "cusps", i), tuple(embeddings)))
    cones = []
    for i, c in enumerate(member(data, "cones", list)):
        expect(c, dict, "cones", i)
        cusp = member(c, "cusp", str, "cones", i)
        rays = member(c, "rays", object, "cones", i)
        if type(rays) is not list or countOf(map(type, rays), list) != len(rays):
            _check_json_rays(rays, i)
        cones.append((cusp, rays))
    idents = []
    for i, g in enumerate(expect(data.get("identifications", []), list, "identifications")):
        path = ("identifications", i)
        expect(g, dict, *path)
        matrix = member(g, "matrix", object, *path)
        idents.append(Identification(Matrix(matrix, cols=expect_rows(matrix, *path, ".matrix")),
                                     member(g, "source", str, *path),
                                     member(g, "target", str, *path)))
    return FanSystem._from_parts(tuple(cusps), cones, tuple(idents))
