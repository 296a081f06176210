"""The face index against the whole-window registry of ``face_index_oracle``.

On seeded windows, before and after subdivision, both must give the same
ray classes, orbit classes of every dimension, SNC reports and quotient
Delta-complexes (simplex ids, vertices and faces); on unsaturated, non-free
and SNC-violating windows both must raise the same error type with the same
message.  The windows: Hilbert windows with b <= 3 and L <= 40, the fixture
windows, the closed windows RP^2, RP^3 and S^3 of ``test_closed_forms``, and
seeded rank-4 and rank-6 cones.  The ``DeltaComplex`` checks
must also find the same faults as the previous per-simplex ones on seeded
faulty complexes.
"""

import itertools
import random

import face_index_oracle as oracle
import rebuild_oracle
from fanhodge import delta_complex, fans
from fanhodge.delta_complex import DeltaComplex, from_top_simplices
from fanhodge.errors import (
    FanhodgeError,
    NonFreeAction,
    SncConditionViolated,
    UnsaturatedWindow,
)
from fanhodge.fans import (
    Cone,
    CuspLabel,
    FanSystem,
    Identification,
    smooth_subdivide,
    two_division_subdivide,
)
from fanhodge.fixtures import hilbert_window, hilbert_window_cubed
from fanhodge.linalg import Matrix
from dense_oracle import apply_matrix
from test_closed_forms import projective_window, sphere_window
from test_local_subdivision import (
    COMPOSITE_FLIP,
    GAP,
    NON_FREE,
    conjugated_hilbert_window,
    embedded_window,
    orbit_chain,
    random_unimodular,
    rank4_cone,
)


def outcome(fn, *args):
    """The value of ``fn(*args)``, or the type and message of its error."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc)


def ray_classes(fs):
    """The index's ray classes in the registry's form."""
    index, members = fs._index, {}
    for ray, c in zip(index.rays, index.ray_class):
        members.setdefault(c, []).append(ray)
    return [oracle.RayClass(m[0], tuple(m)) for m in members.values()]


def ray_class_index(fs):
    index = fs._index
    return dict(zip(index.rays, index.ray_class))


def cone_orbit_classes(fs, dim):
    """The index's orbit classes as lists of (cusp, rays) keys."""
    index = fs._index
    return [list(map(index.key, cls)) for cls in index.orbits(dim)]


def assert_same_index(fs):
    for mine, name in ((ray_classes, "ray_classes"), (ray_class_index, "ray_class_index"),
                       (fans.check_snc_condition, "check_snc_condition")):
        assert outcome(mine, fs) == outcome(getattr(oracle, name), fs), name
    assert outcome(fans._check_free_action, fs) == outcome(oracle.check_free_action, fs)
    top = max((c.dim() for c in fs.cones), default=0)
    for d in range(top + 2):
        assert outcome(cone_orbit_classes, fs, d) == outcome(oracle.cone_orbit_classes, fs, d)
    for cusp in fs.cusps:
        new = outcome(delta_complex.quotient_delta_complex, fs, cusp.name)
        assert new == outcome(oracle.quotient_delta_complex, fs, cusp.name)


def moved(rng, rays):
    """The cone on ``rays``, moved by a seeded lattice automorphism."""
    g = random_unimodular(rng, len(rays[0]), rng.randint(1, 3))
    return tuple(tuple(int(x) for x in apply_matrix(g, r)) for r in rays)


def single_cone(rng, n, last):
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n - 1)] + [tuple(last)]
    return FanSystem((CuspLabel("F", n),), (Cone("F", moved(rng, rays)),))


def antipodal(rng, n, last):
    """A singular cone and its negative, identified by -1: a free action
    defined on every face of both cones."""
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n - 1)] + [tuple(last)]
    rays = moved(rng, rays)
    minus = Matrix([[-int(i == j) for j in range(n)] for i in range(n)])
    cones = (Cone("F", rays), Cone("F", tuple(tuple(-x for x in r) for r in rays)))
    return FanSystem((CuspLabel("F", n),), cones, (Identification(minus, "F", "F"),))


def with_subdivisions(fs):
    out = [fs]
    for step in (two_division_subdivide, smooth_subdivide):
        try:
            out.append(step(out[-1]))
        except FanhodgeError:  # an error window is compared unsubdivided
            break
    return out


def test_hilbert_windows_match_the_registry():
    rng = random.Random(20261019)
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            length = rng.choice((1, 2, 3, 7, 16, 40))
            for fs in with_subdivisions(conjugated_hilbert_window(rng, a, b, length)):
                assert_same_index(fs)


def test_fixture_and_error_windows_match_the_registry():
    """The closed windows are complete fans; on RP^2 and RP^3 the map -I is
    defined on every face."""
    windows = [hilbert_window(), hilbert_window_cubed(), hilbert_window(1),
               projective_window(3, 3), projective_window(4, 3), sphere_window(4, 5),
               NON_FREE, COMPOSITE_FLIP, GAP, embedded_window(),
               embedded_window(child="C", parent="A")]
    for fs in windows:
        for sub in with_subdivisions(fs):
            assert_same_index(sub)
    assert outcome(cone_orbit_classes, GAP, 2)[0] is UnsaturatedWindow
    assert outcome(fans._check_free_action, NON_FREE)[0] is NonFreeAction
    violated = outcome(delta_complex.quotient_delta_complex, hilbert_window(), "F")
    assert violated == (SncConditionViolated, "3 violating cone(s)")


def test_rank4_and_rank6_cones_match_the_registry():
    rng = random.Random(97)
    windows = [rank4_cone(rng) for _ in range(3)]
    windows += [single_cone(rng, 6, (1, 1, 1, 1, 1, m)) for m in (2, 5)]
    windows += [antipodal(rng, 4, (1, 1, 2, 5)), antipodal(rng, 6, (1, 1, 1, 1, 1, 3))]
    # saturated at first; the two-division of the last is not
    windows += [orbit_chain(rng, 4, 3), orbit_chain(rng, 4, 2), orbit_chain(rng, 6, 2)]
    for fs in windows:
        for sub in with_subdivisions(fs):
            assert_same_index(sub)
    # the library refuses to return that two-division; the rebuild oracle's
    # is compared instead
    assert outcome(two_division_subdivide, windows[-1])[0] is UnsaturatedWindow
    unsaturated = rebuild_oracle.two_division_subdivide(windows[-1])
    assert outcome(fans._check_free_action, unsaturated)[0] is UnsaturatedWindow
    assert_same_index(unsaturated)


def test_identification_fixing_a_face_names_it_in_both():
    fs = FanSystem(
        (CuspLabel("F", 3),),
        (Cone("F", ((1, 0, 0), (0, 1, 0), (0, 0, 1))),),
        (Identification(Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]]), "F", "F"),),
    )
    new = outcome(fans._check_free_action, fs)
    assert new == outcome(oracle.check_free_action, fs)
    assert new[0] is NonFreeAction and "((0, 1, 0), (1, 0, 0))" in new[1]


def test_delta_complex_checks_match_the_per_simplex_checks():
    """Seeded faults in the boundary of a 4-simplex: ``DeltaComplex`` must
    raise what the previous per-simplex checks raise, with the same
    message.  A face id out of range, negative or not an int is rejected
    by both."""
    base = from_top_simplices(list(itertools.combinations(range(5), 4))).simplices
    rng = random.Random(4)
    faults = [
        lambda vs, fs, n: (vs[::-1], fs),
        lambda vs, fs, n: (vs[:-1], fs),
        lambda vs, fs, n: (vs, fs[::-1]),
        lambda vs, fs, n: (vs, fs[:-1]),
        lambda vs, fs, n: (vs, fs[:1] + (rng.randrange(-n, 2 * n),) + fs[2:]),
        lambda vs, fs, n: (vs, fs[:-1] + ("0",)),
    ]
    seen = set()
    for _ in range(300):
        levels = [list(level) for level in base]
        for _ in range(rng.randint(1, 2)):
            d = rng.randrange(1, len(levels))
            i = rng.randrange(len(levels[d]))
            levels[d][i] = rng.choice(faults)(*levels[d][i], len(levels[d - 1]))
        simplices = tuple(map(tuple, levels))
        new = outcome(DeltaComplex, simplices)
        old = outcome(oracle.check_simplices, simplices)
        assert (None if isinstance(new, DeltaComplex) else new) == old
        seen.add(old if old is None else (old[0], old[1].split(") ")[-1]))
    assert seen == {None, (ValueError, "vertex count != dimension + 1"),
                    (ValueError, "vertices must be distinct and ascending"),
                    (ValueError, "need one face per omitted vertex"),
                    (ValueError, "has wrong vertices"), (ValueError, "is not a simplex of dim 2"),
                    (ValueError, "is not a simplex of dim 1"),
                    (ValueError, "is not a simplex of dim 0")}
