"""Reference fan-window checks: the oracle for ``fans``' loader and
refinement test.

``fan_system_from_dict`` is ``fans.fan_system_from_dict`` as it was before
each cone was validated in one pass: ``parts_from_dict`` turns every cone
into a ``Cone`` of ray tuples, and ``checked_fan_system`` runs the checks of
the previous ``FanSystem.__post_init__`` on the parts (every ray's entries
through ``all``, then the sort, then ``_check_cone`` with its message
re-raised under the cone's number).  Both loaders must give equal windows or raise the same
exception with the same message, and so must the ``FanSystem`` constructor.

``is_refinement`` is ``fans.is_refinement`` as it was before it skipped the
candidate host's own rays: every ray of a fine cone is dotted against the
forms of every candidate, through nested ``any``/``all`` generators.  Both
must give the same answer and raise the same errors.
"""

from __future__ import annotations

from fanhodge.errors import expect, expect_rows, member
from fanhodge.fans import (
    Cone,
    CuspLabel,
    FanSystem,
    Identification,
    Ray,
    _check_cone,
    _require_int_matrix,
)
from fanhodge.linalg import Matrix, _det, coordinate_forms, invariant_factors


def checked_fan_system(cusps, cones, identifications=()) -> FanSystem:
    """The checks of the previous ``FanSystem.__post_init__``, in its order;
    the window is then built by the library."""
    cusp_names = [c.name for c in cusps]
    if len(set(cusp_names)) != len(cusp_names):
        raise ValueError("duplicate cusp names")
    ranks = {c.name: c.lattice_rank for c in cusps}
    for c in cusps:
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
            factors = invariant_factors(emb)
            if len(factors) != c.lattice_rank:
                raise ValueError(f"{where}: not of full column rank")
            if any(f != 1 for f in factors):
                raise ValueError(f"{where}: image is not saturated")
    canonical = []
    for i, cone in enumerate(cones):
        if cone.cusp not in ranks:
            raise ValueError(f"cone {i}: unknown cusp {cone.cusp!r}")
        for ray in cone.rays:
            if not all(type(x) is int for x in ray):
                raise ValueError(f"cone {i}: ray {list(ray)} has a non-integer entry")
        rays = tuple(sorted(tuple(ray) for ray in cone.rays))
        try:
            _check_cone(rays, ranks[cone.cusp])
        except ValueError as exc:
            raise ValueError(f"cone {i}: {exc}") from None
        canonical.append(Cone(cone.cusp, rays))
    for i, ident in enumerate(identifications):
        _require_int_matrix(ident.matrix, f"identification {i}")
        if ident.source not in ranks or ident.target not in ranks:
            raise ValueError(f"identification {i}: unknown cusp")
        if ident.matrix.shape != (ranks[ident.target], ranks[ident.source]):
            raise ValueError(f"identification {i}: matrix shape mismatch")
        if ident.matrix.rows != ident.matrix.cols:
            raise ValueError(f"identification {i}: not square")
        if abs(_det(ident.matrix.to_lists())) != 1:
            raise ValueError(f"identification {i}: not a lattice automorphism")
    return FanSystem(tuple(cusps), tuple(canonical), tuple(identifications))


def _rays_from_json(rays, path: str) -> tuple[Ray, ...]:
    if not isinstance(rays, list):
        raise ValueError(f"{path}: expected a list of rays, got {rays!r}")
    for j, ray in enumerate(rays):
        if not isinstance(ray, list):
            raise ValueError(f"{path}[{j}]: expected a list of ints, got {ray!r}")
    return tuple(tuple(r) for r in rays)


def parts_from_dict(data: dict) -> tuple[tuple, tuple, tuple]:
    """The cusps, the ``Cone``s and the identifications the previous loader
    handed to ``FanSystem``, each value type-checked."""
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
        cones.append(Cone(member(c, "cusp", str, "cones", i),
                          _rays_from_json(member(c, "rays", object, "cones", i),
                                          f"cones[{i}].rays")))
    idents = []
    for i, g in enumerate(expect(data.get("identifications", []), list, "identifications")):
        path = ("identifications", i)
        expect(g, dict, *path)
        matrix = member(g, "matrix", object, *path)
        idents.append(Identification(Matrix(matrix, cols=expect_rows(matrix, *path, ".matrix")),
                                     member(g, "source", str, *path),
                                     member(g, "target", str, *path)))
    return tuple(cusps), tuple(cones), tuple(idents)


def fan_system_from_dict(data: dict) -> FanSystem:
    return checked_fan_system(*parts_from_dict(data))


def _in_cone(forms, v: Ray) -> bool:
    equations, coordinates = forms
    return all(
        sum(a * b for a, b in zip(e, v)) == 0 for e in equations
    ) and all(sum(a * b for a, b in zip(f, v)) >= 0 for f in coordinates)


def is_refinement(fine: FanSystem, coarse: FanSystem) -> bool:
    ranks = {c.name: c.lattice_rank for c in coarse.cusps}
    if any(ranks.get(c.name, c.lattice_rank) != c.lattice_rank for c in fine.cusps):
        raise ValueError("fine and coarse cusps have different lattice ranks")
    index = coarse._index
    forms: dict[int, tuple] = {}

    def hosts(i: int, rays: tuple[Ray, ...]) -> bool:
        f = forms.get(i)
        if f is None:
            host = coarse.cones[i]
            f = forms[i] = coordinate_forms(host.rays, ranks[host.cusp])
        return all(_in_cone(f, r) for r in rays)

    for cone in fine.cones:
        ids = index.ids.get(cone.cusp, {})
        near = set().union(*(index.holders[ids[r]] for r in cone.rays if r in ids))
        if any(hosts(i, cone.rays) for i in sorted(near)):
            continue
        if not any(hosts(i, cone.rays) for i, c in enumerate(coarse.cones)
                   if c.cusp == cone.cusp and i not in near):
            return False
    return True
