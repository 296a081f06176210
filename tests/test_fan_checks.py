"""The fan loader and the refinement check against the versions they
replaced (``fan_oracle``).

``is_refinement`` skips a candidate host's own rays and dots only the other
rays against its forms; on seeded subdivided windows, swapped arguments,
fine rays pushed just outside their host, two-cusp and embedded windows,
lower-dimensional and zero-ray cones and the rank-6 m = 23 cone, it must
give the previous answer, and raise the same error on a lattice-rank
mismatch.  ``fan_system_from_dict`` and the ``FanSystem`` constructor
validate each cone once; on a table of malformed documents, several of them
with more than one fault, both must raise the previous exception type and
message, so the first fault reported is pinned too.
"""

import copy
import random

import pytest

import fan_oracle as oracle
from fanhodge.fans import (
    Cone,
    CuspLabel,
    FanSystem,
    fan_system_from_dict,
    hilbert_cusp_window,
    is_refinement,
    smooth_subdivide,
    two_division_subdivide,
)
from fanhodge.linalg import primitivize
from test_annotated_strata import two_cusp_window
from test_face_index import outcome
from test_fans import _independent, _random_cone, _random_point, one_cusp
from test_local_subdivision import conjugated_hilbert_window, embedded_window


def same_refinement(fine, coarse):
    """The answer of ``is_refinement``, once it matches the previous one."""
    got = outcome(is_refinement, fine, coarse)
    assert got == outcome(oracle.is_refinement, fine, coarse)
    return got


def subdivided(fs):
    return smooth_subdivide(two_division_subdivide(fs))


def pushed_out(fine, coarse, rng):
    """``fine`` with one ray r of a cone, a ray of the coarse cone h, moved
    to 5r - b for another ray b of h: just outside h, in h's span.  None
    when no fine cone holds a coarse ray."""
    rays_of = {}
    for h in coarse.cones:
        for r in h.rays:
            rays_of.setdefault((h.cusp, r), []).append(h)
    candidates = [(i, r) for i, c in enumerate(fine.cones) for r in c.rays
                  if any(len(h.rays) > 1 for h in rays_of.get((c.cusp, r), ()))]
    rng.shuffle(candidates)
    for i, r in candidates:
        cone = fine.cones[i]
        h = rng.choice([h for h in rays_of[(cone.cusp, r)] if len(h.rays) > 1])
        b = rng.choice([x for x in h.rays if x != r])
        moved = primitivize(tuple(5 * x - y for x, y in zip(r, b)))
        rays = tuple(moved if x == r else x for x in cone.rays)
        if _independent(rays):
            cones = fine.cones[:i] + (Cone(cone.cusp, rays),) + fine.cones[i + 1:]
            return FanSystem(fine.cusps, cones, fine.identifications)
    return None


def test_refinement_matches_the_previous_check_on_subdivided_windows():
    rng = random.Random(20261020)
    windows = [conjugated_hilbert_window(rng, a, b, rng.choice((3, 5, 10)))
               for a in (1, 2, 3) for b in (1, 2, 3)]
    windows += [hilbert_cusp_window(((2, 1), (1, 1)), 40), two_cusp_window(), embedded_window()]
    pushed = []
    for fs in windows:
        sub = subdivided(fs)
        assert same_refinement(sub, fs) is True
        assert same_refinement(fs, sub) is (sub == fs)
        moved = pushed_out(sub, fs, rng)
        if moved is not None:
            pushed.append(same_refinement(moved, fs))
    assert len(pushed) >= 9 and False in pushed


def test_refinement_matches_the_previous_check_on_the_rank6_m23_cone():
    rays = tuple(tuple(int(i == j) for j in range(6)) for i in range(5)) + ((1, 1, 1, 1, 1, 23),)
    fs = one_cusp(6, rays)
    sub = subdivided(fs)
    assert len(sub.cones) == 4426
    assert same_refinement(sub, fs) is True
    assert same_refinement(fs, sub) is False
    rng = random.Random(23)
    assert [same_refinement(pushed_out(sub, fs, rng), fs) for _ in range(3)] == [False] * 3


def test_refinement_matches_the_previous_check_on_lower_dimensional_hosts():
    """Seeded coarse cones with fewer rays than the lattice rank; the fine
    cones take some rays of a coarse cone and points in or near its span,
    so the host's own rays are skipped with a ray outside its span beside
    them."""
    rng = random.Random(20261021)
    outcomes = []
    for n in (2, 3, 4):
        for _ in range(60):
            coarse_cones = [_random_cone(rng, n, rng.randint(1, n - 1))
                            for _ in range(rng.randint(1, 3))]
            if rng.random() < 0.3:
                coarse_cones.append(_random_cone(rng, n, n))
            coarse = one_cusp(n, *coarse_cones)
            fine_cones = []
            for _ in range(rng.randint(1, 3)):
                host = rng.choice(coarse_cones)
                own = rng.sample(host, rng.randint(0, len(host)))
                for _ in range(20):
                    extra = [_random_point(rng, host, n)
                             for _ in range(rng.randint(0, n - len(own)))]
                    rays = tuple(own) + tuple(extra)
                    if not rays or len(set(rays)) == len(rays) and _independent(rays):
                        fine_cones.append(rays)
                        break
            fine = one_cusp(n, *fine_cones)
            outcomes.append(same_refinement(fine, coarse))
            outcomes.append(same_refinement(coarse, fine))
    assert outcomes.count(True) > 50 and outcomes.count(False) > 50


def test_refinement_matches_the_previous_check_on_zero_ray_cones_and_ranks():
    two = (CuspLabel("F", 2), CuspLabel("G", 2))
    zero_f, zero_g = Cone("F", ()), Cone("G", ())
    quadrant, ray = Cone("F", ((1, 0), (0, 1))), Cone("F", ((1, 0),))
    windows = [FanSystem(two, cones) for cones in (
        (), (zero_f,), (zero_g,), (zero_f, zero_g), (quadrant,), (ray,), (zero_f, ray),
        (zero_g, quadrant), (Cone("G", ((1, 1),)), quadrant), (Cone("G", ((0, 1), (1, 0))),),
    )]
    answers = [same_refinement(fine, coarse) for fine in windows for coarse in windows]
    assert answers.count(True) > 20 and answers.count(False) > 20
    # a cusp of another lattice rank, either way round
    wall = one_cusp(3, ((1, 0, 0), (0, 1, 0)))
    flat = one_cusp(2, ((1, 0), (0, 1)))
    for fine, coarse in ((wall, flat), (flat, wall)):
        got = same_refinement(fine, coarse)
        assert got == (ValueError, "fine and coarse cusps have different lattice ranks")


# -- the loader -------------------------------------------------------------

BASE = {
    "cusps": [{"name": "P", "rank": 2},
              {"name": "C", "rank": 1, "embeddings": [{"parent": "P", "matrix": [[1], [0]]}]}],
    "cones": [{"cusp": "P", "rays": [[1, 0], [0, 1]]},
              {"cusp": "P", "rays": [[0, 1], [-1, 1]]},
              {"cusp": "C", "rays": [[1]]}],
    "identifications": [{"matrix": [[0, 1], [1, 0]], "source": "P", "target": "P"}],
}
DELETE = object()


def faulty(*edits):
    """A copy of BASE with each (path, value) edit made; DELETE removes."""
    doc = copy.deepcopy(BASE)
    for path, value in edits:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return doc


def ray(cone, j):
    return ("cones", cone, "rays", j)


# (document, the message the first fault gives)
MALFORMED = [
    # one fault
    (faulty((ray(0, 0), [1.0, 0])), "cone 0: ray [1.0, 0] has a non-integer entry"),
    (faulty((ray(0, 0), [True, 0])), "cone 0: ray [True, 0] has a non-integer entry"),
    (faulty((ray(0, 0), 5)), "cones[0].rays[0]: expected a list of ints, got 5"),
    (faulty((("cones", 1, "rays"), "x")), "cones[1].rays: expected a list of rays, got 'x'"),
    (faulty((("cones", 1, "cusp"), "Q")), "cone 1: unknown cusp 'Q'"),
    (faulty((ray(0, 0), [2, 0])), "cone 0: non-primitive ray (2, 0)"),
    (faulty((ray(1, 1), [0, 0])), "cone 1: non-primitive ray (0, 0)"),
    (faulty((ray(0, 0), [1, 0, 0])), "cone 0: ray length != cusp lattice rank"),
    (faulty((ray(1, 1), [0, -1])), "cone 1: dependent rays in cone ((0, -1), (0, 1))"),
    (faulty((("cones", 2, "rays"), [[1], [-1]])), "cone 2: dependent rays"),
    (faulty((("cusps", 1, "name"), "P")), "duplicate cusp names"),
    (faulty((("cusps", 0, "rank"), -1)), "cusp 'P': lattice rank -1"),
    (faulty((("cusps", 1, "embeddings", 0, "matrix"), [[2], [0]])), "image is not saturated"),
    (faulty((("identifications", 0, "matrix"), [[1, 1], [1, 1]])),
     "identification 0: not a lattice automorphism"),
    (faulty((("identifications", 0, "source"), "C")), "identification 0: matrix shape mismatch"),
    (faulty((("cones", 0, "rays"), DELETE)), "cones[0].rays"),
    # several faults: the first one is reported
    (faulty((ray(0, 0), [2, 0]), (ray(0, 1), [1.5, 1])), "cone 0: ray [1.5, 1] has a non-integer"),
    (faulty((ray(0, 0), [2, 0]), (ray(0, 1), [0, 4])), "cone 0: non-primitive ray (0, 4)"),
    (faulty((ray(0, 0), [1, 0, 0]), (ray(0, 1), [0, 2])), "cone 0: non-primitive ray (0, 2)"),
    (faulty((ray(0, 0), [0, -1]), (ray(0, 1), [0, 2])), "cone 0: non-primitive ray (0, 2)"),
    (faulty((ray(0, 0), [2, 0]), (ray(1, 0), [0.5, 1])), "cone 0: non-primitive ray (2, 0)"),
    (faulty((ray(0, 0), [2, 0]), (ray(1, 0), 7)), "cones[1].rays[0]: expected a list of ints"),
    (faulty((ray(0, 0), [2, 0]), (("identifications", 0, "matrix"), "I")),
     "identifications[0].matrix: expected a list"),
    (faulty((ray(0, 0), [2, 0]), (("identifications", 0, "matrix"), [[1, 1], [1, 1]])),
     "cone 0: non-primitive ray (2, 0)"),
    (faulty((ray(0, 0), [2, 0]), (("cusps", 1, "name"), "P")), "duplicate cusp names"),
    (faulty((("cones", 1, "cusp"), "Q"), (ray(1, 0), [0.0, 1])), "cone 1: unknown cusp 'Q'"),
    (faulty((("cones", 1, "cusp"), DELETE), (("cones", 1, "rays"), 3)), "cones[1].cusp"),
    (faulty((ray(0, 0), [2, 0]), (("cusps", 1, "embeddings", 0, "matrix"), [[3], [0]])),
     "cusp 'C': embedding into 'P': image is not saturated"),
]


@pytest.mark.parametrize("doc, message", MALFORMED)
def test_loader_raises_as_the_previous_loader(doc, message):
    got = outcome(fan_system_from_dict, copy.deepcopy(doc))
    assert got == outcome(oracle.fan_system_from_dict, copy.deepcopy(doc))
    assert isinstance(got, tuple) and message in got[1]


def test_constructor_rejects_what_it_rejected():
    """Every table document whose values have their JSON types, as parts
    handed to ``FanSystem``, and parts no JSON document gives."""
    parts = []
    for doc, _ in MALFORMED + [(BASE, None)]:
        try:
            parts.append(oracle.parts_from_dict(copy.deepcopy(doc)))
        except (KeyError, ValueError):
            continue
    assert len(parts) >= 20
    plane = (CuspLabel("F", 2),)
    for cones in (
        [Cone("F", ((1, 0), (0, 1.0)))],
        [Cone("F", ([1, 0], [0, 1]))],
        [Cone("F", [(0, 1), (1, 0)]), Cone("F", ((2, 1), (1, 1)))],
        [Cone("F", ((1, 0), (False, 1)))],
        [Cone("F", ((1, 0), (0, 2))), Cone("F", ((1, 0.5),))],
        [Cone("G", ((1, 0),))],
        [Cone("F", ((1, 1, 1), (1, 0)))],
        [Cone("F", ((2, 0), (0, 1), (1, 1)))],
        [Cone("F", ())],
    ):
        parts.append((plane, tuple(cones), ()))
    rejected = 0
    for cusps, cones, identifications in parts:
        got = outcome(FanSystem, cusps, cones, identifications)
        assert got == outcome(oracle.checked_fan_system, cusps, cones, identifications)
        rejected += isinstance(got, tuple)
    assert rejected >= len(parts) - 4
