"""Rebuild-per-step subdivision: the oracle for ``fanhodge.fans``' local loops.

This was ``fans.two_division_subdivide`` and ``fans.smooth_subdivide`` before
they kept one local cone state across steps.  Every step here builds a whole
new ``FanSystem`` (so every cone is validated again) and reads the face
pairings and orbit classes of that window from the whole-window registry of
``face_index_oracle``, so neither loop here depends on the library's index.
Both versions must give equal windows and raise the same error types.
"""

from __future__ import annotations

from fanhodge.errors import NonFreeAction, UnsaturatedWindow
from fanhodge.fans import Cone, FanSystem, _subdivision_point, is_smooth
from fanhodge.linalg import primitivize
from dense_oracle import apply_matrix
from face_index_oracle import check_free_action, cone_orbit_classes, pairings


def _propagate_new_ray(fs, members, rep, w):
    """BFS the new ray through the pairing graph of one orbit class."""
    adjacency = {}
    for src, dst, m in pairings(fs):
        adjacency.setdefault(src, []).append((dst, m))
    assignment = {rep: w}
    queue = [rep]
    while queue:
        cur = queue.pop()
        for nxt, m in adjacency.get(cur, ()):
            image = primitivize(tuple(int(x) for x in apply_matrix(m, assignment[cur])))
            if nxt in assignment:
                if assignment[nxt] != image:
                    raise NonFreeAction(f"conflicting new-ray propagation at face {nxt}")
            else:
                assignment[nxt] = image
                queue.append(nxt)
    if set(assignment) != set(members):
        raise UnsaturatedWindow("orbit class not connected by pairings")
    return assignment


def _split_cones_at_wall(cones, face, w):
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
    check_free_action(fs)
    divisions = []
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
    return FanSystem(fs.cusps, tuple(Cone(cusp, rays) for cusp, rays in cones),
                     fs.identifications)


def _stellar_subdivide(cones, face, w):
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
    check_free_action(fs)
    current = fs
    smooth = {}
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
        w, support = _subdivision_point(target.rays)
        face = (target.cusp, tuple(sorted(support)))
        members = next(
            cls for cls in cone_orbit_classes(current, len(support)) if face in cls
        )
        assignment = _propagate_new_ray(current, members, face, w)
        cones = [(c.cusp, c.rays) for c in current.cones]
        for key in sorted(assignment):
            cones = _stellar_subdivide(cones, key, assignment[key])
        current = FanSystem(current.cusps, tuple(Cone(cusp, rays) for cusp, rays in cones),
                            current.identifications)
