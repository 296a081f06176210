"""The local subdivision loops against the rebuild-per-step oracle.

``rebuild_oracle`` builds a new ``FanSystem`` per step; ``fanhodge.fans``
keeps one local cone state.  On seeded random windows both must return equal
windows with identical JSON, and on the error fixtures both must raise the
same error types.  On seeded orbit chains, identifying by g or by g^-1 must
give the same window or error type, and every window a subdivision returns
must pass the registry's pairings of ``face_index_oracle``.
"""

import random

import pytest

import face_index_oracle
import rebuild_oracle
from fanhodge.errors import FanhodgeError, NonFreeAction, UnsaturatedWindow
from fanhodge.fans import (
    Cone,
    CuspLabel,
    FanSystem,
    Identification,
    _LocalFan,
    fan_system_to_dict,
    hilbert_cusp_window,
    is_refinement,
    smooth_subdivide,
    two_division_subdivide,
)
from fanhodge.linalg import Matrix, primitivize
from dense_oracle import apply_matrix, dense_inverse, matmul
from test_fans import M, one_cusp, rank3_window


def random_unimodular(rng, n, moves):
    """A product of ``moves`` random elementary matrices and sign changes."""
    m = Matrix.identity(n)
    for _ in range(moves):
        rows = Matrix.identity(n).to_lists()
        i, j = rng.sample(range(n), 2)
        rows[i][j] = rng.choice((-1, 1))
        if rng.random() < 0.2:
            rows[i][i] = -1
            rows[i][j] = 0
        m = matmul(m, Matrix(rows))
    return m


def integer_inverse(g):
    return Matrix([[int(x) for x in row] for row in dense_inverse(g).to_lists()])


def conjugated_hilbert_window(rng, a, b, length):
    """The chain of ``length`` cones of M = [[1 + ab, a], [b, 1]], identified
    by M^length, moved by a random lattice automorphism g."""
    m = Matrix([[1 + a * b, a], [b, 1]])
    chain = hilbert_cusp_window(m.to_lists(), length)
    power = Matrix.identity(2)
    for _ in range(length):
        power = matmul(power, m)
    g = random_unimodular(rng, 2, rng.randint(1, 4))
    g_inv = integer_inverse(g)
    cones = tuple(
        Cone("F", tuple(tuple(int(x) for x in apply_matrix(g, r)) for r in c.rays))
        for c in chain.cones
    )
    return FanSystem(chain.cusps, cones, (Identification(matmul(matmul(g, power), g_inv), "F", "F"),))


def rank4_cone(rng):
    """e_1, e_2, e_3 and a last ray of small multiplicity, moved by g."""
    last = primitivize([rng.randint(0, 3) for _ in range(3)] + [rng.randint(2, 7)])
    rays = [tuple(int(i == j) for j in range(4)) for i in range(3)] + [last]
    g = random_unimodular(rng, 4, rng.randint(1, 3))
    return one_cusp(4, tuple(tuple(int(x) for x in apply_matrix(g, r)) for r in rays))


def orbit_chain(rng, n, length):
    """The cones sigma, g sigma, ..., g^(length-1) sigma of a singular cone,
    identified by g: every map is defined on whole cones, in every dimension."""
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n - 1)]
    rays.append(primitivize([rng.randint(0, 2) for _ in range(n - 1)] + [rng.randint(2, 4)]))
    g = random_unimodular(rng, n, rng.randint(1, 3))
    cones = []
    for _ in range(length):
        cones.append(Cone("F", tuple(rays)))
        rays = [tuple(int(x) for x in apply_matrix(g, r)) for r in rays]
    return FanSystem((CuspLabel("F", n),), tuple(cones), (Identification(g, "F", "F"),))


def embedded_window(child="C", parent="P"):
    """A rank-2 cone of multiplicity 3 embedded as a face of a rank-3 cone."""
    emb = Matrix([[1, 0], [0, 1], [0, 0]])
    return FanSystem(
        cusps=(CuspLabel(parent, 3), CuspLabel(child, 2, ((parent, emb),))),
        cones=(Cone(child, ((1, 0), (1, 3))),
               Cone(parent, ((1, 0, 0), (1, 3, 0), (0, 0, 1))),
               Cone(parent, ((1, 0, 0), (1, 3, 0), (1, 1, -1)))),
    )


def assert_same_subdivision(fs):
    old_two = rebuild_oracle.two_division_subdivide(fs)
    new_two = two_division_subdivide(fs)
    assert new_two == old_two
    assert fan_system_to_dict(new_two) == fan_system_to_dict(old_two)
    old = rebuild_oracle.smooth_subdivide(old_two)
    new = smooth_subdivide(new_two)
    assert new == old and hash(new) == hash(old)
    assert fan_system_to_dict(new) == fan_system_to_dict(old)
    assert is_refinement(new, fs)
    return new


def test_local_loops_match_the_rebuild_on_random_windows():
    rng = random.Random(20261018)
    windows = [
        conjugated_hilbert_window(rng, a, b, rng.choice((3, 5, 10)))
        for a in (1, 2, 3) for b in (1, 2, 3)
    ]
    windows += [rank3_window(rng) for _ in range(8)]
    windows += [rank4_cone(rng) for _ in range(4)]
    windows.append(embedded_window())
    grew = 0
    for fs in windows:
        out = assert_same_subdivision(fs)
        grew += len(out.cones) > len(fs.cones)
    assert grew >= len(windows) - 2


def test_local_inverse_rows_are_the_integer_inverse():
    """``_LocalFan`` reads the rows of g^-1 off the coordinate forms of the
    columns of g: cofactors up to size 3, one elimination above.  For random
    unimodular g of sizes 0 to 6 they equal the dense inverse, and each
    window ray mapped through g and back is itself."""
    rng = random.Random(20261022)
    for n in range(7):
        for _ in range(20):
            if n < 2:
                g = Matrix([[rng.choice((-1, 1))] for _ in range(n)], n)
                rays = tuple(map(tuple, Matrix.identity(n).to_lists()))
            else:
                g = random_unimodular(rng, n, rng.randint(1, 3 * n))
                rays = tuple(map(tuple, random_unimodular(rng, n, n).to_lists()))
            fs = FanSystem((CuspLabel("F", n),), (Cone("F", rays),), (Identification(g, "F", "F"),))
            local = _LocalFan(fs)
            assert local.maps[1][:2] == ("F", "F")
            assert [list(row) for row in local.maps[1][2]] == dense_inverse(g).to_lists()
            for ray in rays:
                assert local.image(1, local.image(0, ray)) == ray


def seeded_chains():
    """300 orbit chains of 2 or 3 cones in rank 2 or 3."""
    rng = random.Random(7)
    return [orbit_chain(rng, rng.choice((2, 3)), rng.choice((2, 3))) for _ in range(300)]


def inverse_identified(fs):
    """The same cones, identified by the inverse of each identification."""
    return FanSystem(fs.cusps, fs.cones, tuple(
        Identification(integer_inverse(g.matrix), g.target, g.source) for g in fs.identifications))


def subdivided(fs):
    """The cones of the subdivision of ``fs``, or the type of its error."""
    try:
        return smooth_subdivide(two_division_subdivide(fs)).cones
    except FanhodgeError as exc:
        return type(exc)


def test_a_chain_subdivides_alike_identified_by_g_or_its_inverse():
    """g and g^-1 generate the same group, so they give the same window or
    the same error type: a wrong g^-1 in ``_LocalFan`` sends the new rays of
    an orbit elsewhere."""
    outcomes = set()
    for fs in seeded_chains():
        out = subdivided(fs)
        assert subdivided(inverse_identified(fs)) == out
        outcomes.add(out if isinstance(out, type) else "window")
    assert outcomes == {"window", NonFreeAction, UnsaturatedWindow}


def test_every_returned_subdivision_is_saturated():
    """A subdivision that would leave a map carrying a face onto rays that
    span no face raises instead: every window either step returns passes
    the registry's pairings."""
    returned = 0
    for fs in seeded_chains():
        for step in (two_division_subdivide, smooth_subdivide):
            try:
                fs = step(fs)
            except FanhodgeError:
                break
            face_index_oracle.pairings(fs)
            returned += 1
    assert returned >= 300


def test_embedded_window_carries_new_rays_into_the_parent():
    out = assert_same_subdivision(embedded_window())
    child = {r for c in out.cones if c.cusp == "C" for r in c.rays}
    parent = {r for c in out.cones if c.cusp == "P" for r in c.rays}
    assert len(child) > 2
    assert {r + (0,) for r in child} <= parent


def test_smooth_input_is_returned_as_it_is():
    fs = two_division_subdivide(hilbert_cusp_window(M, 3))
    assert smooth_subdivide(fs) is fs


NON_FREE = FanSystem(
    cusps=(CuspLabel("F", 2),),
    cones=(Cone("F", ((1, 0), (0, 1))),),
    identifications=(Identification(Matrix([[0, 1], [1, 0]]), "F", "F"),),
)
# -I and -h each move both cones, so no single identification fixes a face,
# but their composite h swaps the rays of the first: the new ray (1, 2) of a
# multiplicity-3 cone is not symmetric, so its two images conflict
COMPOSITE_FLIP = FanSystem(
    cusps=(CuspLabel("F", 2),),
    cones=(Cone("F", ((1, 0), (1, 3))), Cone("F", ((-1, 0), (-1, -3)))),
    identifications=(Identification(Matrix([[-1, 0], [0, -1]]), "F", "F"),
                     Identification(Matrix([[-1, 0], [-3, 1]]), "F", "F")),
)
GAP = FanSystem(
    cusps=(CuspLabel("F", 2),),
    cones=(Cone("F", ((1, 0), (2, 1))), Cone("F", ((5, 3), (13, 8)))),
    identifications=(Identification(Matrix(list(M)), "F", "F"),),
)


def outcome(subdivide, fs):
    try:
        subdivide(fs)
    except FanhodgeError as exc:
        return type(exc)
    return None


LOCAL = {"two_division_subdivide": two_division_subdivide, "smooth_subdivide": smooth_subdivide}
BOTH = tuple(LOCAL)


@pytest.mark.parametrize(
    "fs, names, error",
    [(NON_FREE, BOTH, NonFreeAction),
     (COMPOSITE_FLIP, ("smooth_subdivide",), NonFreeAction),
     (GAP, BOTH, UnsaturatedWindow),
     # the parent's faces sort first, and an embedding cannot be walked back
     (embedded_window(child="C", parent="A"), BOTH, UnsaturatedWindow)],
)
def test_error_fixtures_raise_the_same_types(fs, names, error):
    for name in names:
        new = outcome(LOCAL[name], fs)
        assert new is error
        assert new is outcome(getattr(rebuild_oracle, name), fs)
