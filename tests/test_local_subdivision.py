"""The local subdivision loops against the rebuild-per-step oracle.

``rebuild_oracle`` builds a new ``FanSystem`` per step; ``fanhodge.fans``
keeps one local cone state.  On seeded random windows both must return equal
windows with identical JSON, and on the error fixtures both must raise the
same error types.
"""

import random

import pytest

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


def conjugated_hilbert_window(rng, a, b, length):
    """The chain of ``length`` cones of M = [[1 + ab, a], [b, 1]], identified
    by M^length, moved by a random lattice automorphism g."""
    m = Matrix([[1 + a * b, a], [b, 1]])
    chain = hilbert_cusp_window(m.to_lists(), length)
    power = Matrix.identity(2)
    for _ in range(length):
        power = matmul(power, m)
    g = random_unimodular(rng, 2, rng.randint(1, 4))
    g_inv = Matrix([[int(x) for x in row] for row in dense_inverse(g).to_lists()])
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
