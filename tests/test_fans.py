"""Fan windows: ray classes, the ray condition, and equivariant subdivision."""

import itertools
import math
import random
import re
from fractions import Fraction

import pytest

from fanhodge.delta_complex import homology_report, quotient_delta_complex
from fanhodge.errors import DependentInput, NonFreeAction, UnsaturatedWindow
from fanhodge.fans import (
    Cone,
    CuspLabel,
    FanSystem,
    Identification,
    check_snc_condition,
    fan_system_from_dict,
    fan_system_to_dict,
    hilbert_cusp_window,
    is_refinement,
    is_smooth,
    smooth_subdivide,
    two_division_subdivide,
)
from fanhodge.fans import _check_cone, _multiplicity as cone_multiplicity, _subdivision_point
from fanhodge.linalg import (
    Matrix,
    coordinate_forms,
    invariant_factors,
    primitivize,
    rank,
    smith_normal_form,
)
from dense_oracle import apply_matrix, dense_det, matmul, solve, submatrix

M = ((2, 1), (1, 1))


def random_unimodular_2x2(rng):
    a, b = rng.randint(1, 3), rng.randint(1, 3)
    shear_u = Matrix([[1, a], [0, 1]])
    shear_l = Matrix([[1, 0], [b, 1]])
    return matmul(shear_u, shear_l)


def random_gl3(rng):
    m = Matrix.identity(3)
    for _ in range(rng.randint(1, 4)):
        i, j = rng.sample(range(3), 2)
        rows = Matrix.identity(3).to_lists()
        rows[i][j] = rng.choice((-1, 1))
        m = matmul(m, Matrix(rows))
    return m


def rank3_window(rng):
    """A window of orthant-type smooth cones plus one singular cone, in a
    random unimodular basis, with no identifications."""
    g = random_gl3(rng)
    base = [
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((-1, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((1, 0, 0), (0, -1, 0), (0, 0, 1)),
    ]
    if rng.random() < 0.5:
        base.append(((0, -1, 0), (0, 0, -1), (-1, -1, -2)))
    cones = []
    for rays in base:
        image = tuple(tuple(int(x) for x in apply_matrix(g, r)) for r in rays)
        cones.append(Cone("F", image))
    return FanSystem(
        cusps=(CuspLabel("F", 3),), cones=tuple(cones), identifications=()
    )


def test_hilbert_window_ray_classes_and_violations():
    fs = hilbert_cusp_window(M, 3)
    assert len(set(fs._index.ray_class)) == 1
    rep = check_snc_condition(fs)
    assert not rep.ok
    rays = [(1, 0), (2, 1), (5, 3), (13, 8)]
    expected = [(k, (rays[k], rays[k + 1])) for k in range(3)]
    assert sorted(rep.violations) == expected


def test_two_division_restores_the_ray_condition():
    fs = hilbert_cusp_window(M, 3)
    sub = two_division_subdivide(fs)
    assert check_snc_condition(sub).ok
    assert len(sub.cones) == 6
    assert len(set(sub._index.ray_class)) == 2
    assert is_refinement(sub, fs)
    assert all(is_smooth(sub, c) for c in sub.cones)


def test_smooth_subdivide_idempotent_on_smooth_input():
    sub = two_division_subdivide(hilbert_cusp_window(M, 3))
    again = smooth_subdivide(sub)
    assert {c.key() for c in again.cones} == {c.key() for c in sub.cones}


def test_condition_preserved_on_randomized_fixtures():
    rng = random.Random(4242)
    fixtures = []
    for _ in range(6):
        m = random_unimodular_2x2(rng)
        window = hilbert_cusp_window(
            tuple(tuple(r) for r in m.to_lists()), rng.randint(2, 4)
        )
        fixtures.append(two_division_subdivide(window))
    for _ in range(6):
        fixtures.append(rank3_window(rng))
    assert len(fixtures) >= 10
    for fs in fixtures:
        assert len(fs.cones) <= 20
        assert check_snc_condition(fs).ok
        out = smooth_subdivide(fs)
        assert check_snc_condition(out).ok
        assert all(is_smooth(out, c) for c in out.cones)
        assert is_refinement(out, fs)


def test_cone_orbit_classes_count():
    sub = two_division_subdivide(hilbert_cusp_window(M, 3))
    assert len(sub._index.orbits(2)) == 2
    assert len(sub._index.orbits(1)) == 2


def test_unsaturated_window_detected():
    # chain with the middle cone removed: sigma_0 maps onto the missing face
    fs = FanSystem(
        cusps=(CuspLabel("F", 2),),
        cones=(Cone("F", ((1, 0), (2, 1))), Cone("F", ((5, 3), (13, 8)))),
        identifications=(Identification(Matrix(list(M)), "F", "F"),),
    )
    with pytest.raises(UnsaturatedWindow):
        fs._index.orbits(2)


def test_non_free_action_detected():
    flip = Matrix([[0, 1], [1, 0]])
    fs = FanSystem(
        cusps=(CuspLabel("F", 2),),
        cones=(Cone("F", ((1, 0), (0, 1))),),
        identifications=(Identification(flip, "F", "F"),),
    )
    with pytest.raises(NonFreeAction):
        two_division_subdivide(fs)


def test_json_round_trip():
    fs = two_division_subdivide(hilbert_cusp_window(M, 3))
    back = fan_system_from_dict(fan_system_to_dict(fs))
    assert {c.key() for c in back.cones} == {c.key() for c in fs.cones}
    assert back.cusps == fs.cusps


def cone_contains_vector(rays, v):
    """Membership oracle: solve for the coefficients, test them for signs."""
    if not rays:
        return all(x == 0 for x in v)
    coeffs = solve(Matrix.from_columns(rays), v)
    return coeffs is not None and all(c >= 0 for c in coeffs)


def oracle_is_refinement(fine, coarse):
    return all(
        any(
            c.cusp == cone.cusp
            and all(cone_contains_vector(c.rays, r) for r in cone.rays)
            for c in coarse.cones
        )
        for cone in fine.cones
    )


def one_cusp(rank_, *cones):
    return FanSystem(
        cusps=(CuspLabel("F", rank_),), cones=tuple(Cone("F", r) for r in cones)
    )


def test_refinement_negative_cases():
    coarse = hilbert_cusp_window(M, 3)
    fine = two_division_subdivide(coarse)
    assert is_refinement(fine, coarse)
    assert not is_refinement(coarse, fine)
    # a cone that sticks out of the positive quadrant
    quadrant = one_cusp(2, ((1, 0), (0, 1)))
    assert is_refinement(one_cusp(2, ((1, 0), (1, 1))), quadrant)
    assert not is_refinement(one_cusp(2, ((1, 0), (-1, 1))), quadrant)
    assert not is_refinement(one_cusp(2, ((1, 1),), ((1, 2), (-1, 3))), quadrant)
    # a ray outside the span of a lower-dimensional cone
    wall = one_cusp(3, ((1, 0, 0), (0, 1, 0)))
    assert is_refinement(one_cusp(3, ((1, 1, 0),)), wall)
    assert not is_refinement(one_cusp(3, ((1, 1, 1),)), wall)
    assert not is_refinement(one_cusp(3, ((1, -1, 0),)), wall)
    # no coarse cone on the fine cone's cusp, or a cusp of another rank
    assert not is_refinement(fine, FanSystem(cusps=coarse.cusps, cones=()))
    with pytest.raises(ValueError):
        is_refinement(wall, quadrant)


def test_refinement_finds_a_host_that_shares_no_ray():
    # x shares the ray (1, 2) with the fine cones but holds neither; y
    # shares no ray with them, so only the scan past the candidates finds it
    x, y = ((1, 2), (-1, 0)), ((1, 1), (1, 3))
    coarse = one_cusp(2, x, y)
    assert is_refinement(one_cusp(2, ((1, 2), (2, 3))), coarse)
    assert not is_refinement(one_cusp(2, ((1, 2), (3, 1))), coarse)
    # the only host that could hold (2, 3), (3, 4) is y, which shares no ray
    assert is_refinement(one_cusp(2, ((2, 3), (3, 4))), coarse)
    assert not is_refinement(one_cusp(2, ((2, 3), (3, 1))), one_cusp(2, y))
    for fine in (one_cusp(2, ((1, 2), (2, 3))), one_cusp(2, ((2, 3), (3, 4))),
                 one_cusp(2, ((2, 3), (3, 1)))):
        for hosts in (coarse, one_cusp(2, y)):
            assert is_refinement(fine, hosts) == oracle_is_refinement(fine, hosts)


def _independent(rays):
    return all(any(r) for r in rays) and rank(Matrix.from_columns(rays)) == len(rays)


def _random_cone(rng, n, k):
    while True:
        rays = tuple(
            primitivize([rng.randint(-3, 3) for _ in range(n)]) for _ in range(k)
        )
        if _independent(rays):
            return rays


def _random_point(rng, rays, n):
    """A nonnegative combination of the rays, sometimes pushed off the cone."""
    v = [sum(rng.randint(0, 3) * r[i] for r in rays) for i in range(n)]
    if rng.random() < 0.3:
        v[rng.randrange(n)] += rng.choice((-1, 1))
    return primitivize(v)


def _dot(f, v):
    return sum(a * b for a, b in zip(f, v))


def test_refinement_matches_solve_oracle_on_random_windows():
    rng = random.Random(20240611)
    outcomes = set()
    for n in (2, 3):
        for _ in range(150):
            coarse_cones = [_random_cone(rng, n, rng.randint(1, n - 1))
                            for _ in range(rng.randint(1, 3))]
            if rng.random() < 0.5:
                coarse_cones.append(_random_cone(rng, n, n))
            coarse = one_cusp(n, *coarse_cones)
            for rays in coarse_cones:
                equations, coordinates = coordinate_forms(rays, n)
                for _ in range(4):
                    v = _random_point(rng, rays, n)
                    inside = all(_dot(e, v) == 0 for e in equations) and all(
                        _dot(f, v) >= 0 for f in coordinates
                    )
                    assert inside == cone_contains_vector(rays, v)
            fine_cones = []
            for _ in range(rng.randint(1, 3)):
                host = rng.choice(coarse_cones)
                k = rng.randint(1, len(host))
                for _ in range(20):
                    rays = tuple(_random_point(rng, host, n) for _ in range(k))
                    if _independent(rays):
                        fine_cones.append(rays)
                        break
            if not fine_cones:
                continue
            fine = one_cusp(n, *fine_cones)
            expected = oracle_is_refinement(fine, coarse)
            assert is_refinement(fine, coarse) == expected
            outcomes.add(expected)
    assert outcomes == {True, False}


def test_coordinate_forms_reject_dependent_vectors():
    with pytest.raises(DependentInput):
        coordinate_forms([(1, 2, 0), (2, 4, 0)], 3)
    assert coordinate_forms([], 2) == ([(1, 0), (0, 1)], [])


@pytest.mark.parametrize("a, b, length", [(1, 1, 40), (2, 1, 40), (1, 3, 20)])
def test_large_hilbert_windows_against_oracles(a, b, length):
    """Chain of `length` cones identified by M^length: after subdivision every
    cone is unimodular, the ray condition holds, the fan refines the window
    and the quotient is a circle."""
    m = ((1 + a * b, a), (b, 1))
    chain = hilbert_cusp_window(m, length)
    power = Matrix.identity(2)
    for _ in range(length):
        power = matmul(power, Matrix(list(m)))
    fs = FanSystem(chain.cusps, chain.cones, (Identification(power, "F", "F"),))
    sub = smooth_subdivide(two_division_subdivide(fs))
    assert check_snc_condition(sub).ok
    assert all(abs(dense_det(Matrix.from_columns(c.rays))) == 1 for c in sub.cones)
    assert is_refinement(sub, fs)
    report = homology_report(quotient_delta_complex(sub, "F"))
    assert report["betti"] == [1, 1]
    assert report["closed"] and report["oriented"]


@pytest.mark.parametrize(
    "ray, shown", [((1.9, 0), "[1.9, 0]"), ((True, 0), "[True, 0]"),
                   ((Fraction(1), 0), "[Fraction(1, 1), 0]")]
)
def test_non_integer_ray_rejected(ray, shown):
    with pytest.raises(ValueError, match=rf"cone 1: ray {re.escape(shown)}"):
        FanSystem(
            cusps=(CuspLabel("F", 2),),
            cones=(Cone("F", ((1, 0), (0, 1))), Cone("F", ((0, 1), ray))),
        )


def test_non_integer_matrices_rejected():
    with pytest.raises(ValueError, match=r"identification 0: matrix entry 1\.0"):
        FanSystem(
            cusps=(CuspLabel("F", 2),),
            cones=(Cone("F", ((1, 0), (0, 1))),),
            identifications=(Identification(Matrix([[1.0, 0], [0, 1]]), "F", "F"),),
        )
    with pytest.raises(ValueError, match="embedding into 'P'"):
        FanSystem(
            cusps=(
                CuspLabel("P", 2),
                CuspLabel("C", 1, (("P", Matrix([[True], [0]])),)),
            ),
            cones=(),
        )


@pytest.mark.parametrize("via", ["FanSystem", "fan_system_from_dict"])
@pytest.mark.parametrize("where", ["identification", "embedding"])
@pytest.mark.parametrize("bad", [0.0, False, None])
def test_zero_like_matrix_entries_rejected(bad, where, via):
    """A Matrix leaves out int zeros only, so the checks still see a 0.0, a
    False or a None in a lattice map and name it."""
    ident = [[1, bad], [0, 1]] if where == "identification" else [[1, 0], [0, 1]]
    emb = [[1], [bad]] if where == "embedding" else [[1], [0]]
    if via == "FanSystem":
        def build():
            return FanSystem(
                cusps=(CuspLabel("P", 2), CuspLabel("C", 1, (("P", Matrix(emb)),))),
                cones=(Cone("P", ((1, 0), (0, 1))),),
                identifications=(Identification(Matrix(ident), "P", "P"),),
            )
    else:
        def build():
            return fan_system_from_dict({
                "cusps": [{"name": "P", "rank": 2},
                          {"name": "C", "rank": 1,
                           "embeddings": [{"parent": "P", "matrix": emb}]}],
                "cones": [{"cusp": "P", "rays": [[1, 0], [0, 1]]}],
                "identifications": [{"matrix": ident, "source": "P", "target": "P"}],
            })
    prefix = "identification 0" if where == "identification" else "cusp 'C': embedding into 'P'"
    message = f"{prefix}: matrix entry {bad!r} is not an integer"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize(
    "matrix, message",
    [([[1, 2], [2, 4], [0, 0]], "embedding into 'P': not of full column rank"),
     ([[2], [0]], "embedding into 'P': image is not saturated")],
)
def test_bad_embeddings_rejected(matrix, message):
    emb = Matrix(matrix)
    with pytest.raises(ValueError, match=message):
        FanSystem(
            cusps=(CuspLabel("P", emb.rows), CuspLabel("C", emb.cols, (("P", emb),))),
            cones=(),
        )


def test_cached_structure_leaves_equality_and_json_alone():
    fs = two_division_subdivide(hilbert_cusp_window(M, 3))
    fresh = fan_system_from_dict(fan_system_to_dict(fs))
    before = fan_system_to_dict(fs)
    assert fs._index.orbits(2) == fresh._index.orbits(2)
    assert fs._index.ray_class == fresh._index.ray_class
    assert fs == fresh and hash(fs) == hash(fresh)
    assert fan_system_to_dict(fs) == before


def _multiplicity(rays):
    mult = 1
    for f in invariant_factors(Matrix.from_columns(rays)):
        mult *= f
    return mult


def grid_subdivision_point(rays):
    """Oracle for ``_subdivision_point``: search the whole grid of
    coefficient vectors c = ks / mult, ks in {0, ..., mult-1}^k (mult^k
    points), for the integral point B c of least (sum(c), c)."""
    mult = _multiplicity(rays)
    if mult == 1:
        return None
    best = None
    for ks in itertools.product(range(mult), repeat=len(rays)):
        x = [sum(k * ray[i] for k, ray in zip(ks, rays)) for i in range(len(rays[0]))]
        if any(ks) and all(xi % mult == 0 for xi in x):
            key = (sum(ks), ks)
            if best is None or key < best[0]:
                best = (key, tuple(xi // mult for xi in x))
    (_, ks), x = best
    return primitivize(x), tuple(ray for k, ray in zip(ks, rays) if k > 0)


def _dense_cone(rng, n, k):
    """k of the rows of T W, all primitive, for W unimodular and T lower
    triangular, with entries in [-2, 2] below the diagonal and ones on it
    but for one entry in 1..4: dense rays of multiplicity at most 4."""
    while True:
        w = _unimodular_rays(rng, n)
        diag = [1] * n
        diag[rng.randrange(n)] = rng.randint(1, 4)
        t = [[diag[i] if i == j else rng.randint(-2, 2) * (j < i) for j in range(n)]
             for i in range(n)]
        rows = [tuple(sum(a * b for a, b in zip(ti, col)) for col in zip(*w)) for ti in t]
        rays = tuple(rng.sample(rows, k))
        if all(primitivize(r) == r for r in rays):
            return rays


# entries in [-9, 9] and |det| = 4; a remainder-and-swap Smith loop stalls on it
DENSE_CONE = ((7, 1, -4, 6, -4, 5), (-1, -3, 4, -5, -1, 8), (8, 5, 1, -4, -7, -9),
              (-8, -4, -9, -5, 0, -9), (6, 4, 9, -7, 0, -6), (-8, -4, -3, 0, -3, 7))


def test_subdivision_point_matches_grid_oracle():
    rng = random.Random(20241018)
    sizes = (2, 3, 4, 5, 6)
    seen = {(n, kind): 0 for n in sizes for kind in ("smooth", "full", "lower")}
    for n in sizes:
        done = 0
        while done < 150:
            k = rng.randint(1, n)
            rays = (_random_cone if n < 5 else _dense_cone)(rng, n, k)
            mult = _multiplicity(rays)
            # mostly singular cones, and a grid small enough for the oracle
            if mult ** k > 20_000 or (mult == 1 and rng.random() < 0.8):
                continue
            done += 1
            point = _subdivision_point(rays)
            assert point == grid_subdivision_point(rays), rays
            if point is None:
                seen[(n, "smooth")] += 1
                continue
            seen[(n, "full" if k == n else "lower")] += 1
            w, support = point
            assert support and set(support) <= set(rays)
            assert _multiplicity(tuple(r for r in rays if r not in support) + (w,)) < mult
    assert seen.pop((2, "lower")) == 0  # a primitive ray spans a saturated line
    assert min(seen.values()) >= 20, seen
    assert _multiplicity(DENSE_CONE) == 4
    assert _subdivision_point(DENSE_CONE) == grid_subdivision_point(DENSE_CONE)


def gcd_of_maximal_minors(rays):
    """The k x k minors of the n x k ray matrix, by the dense oracle: the
    rays extend to a lattice basis iff their gcd is 1."""
    b = Matrix.from_columns(rays)
    g = 0
    for rows in itertools.combinations(range(b.rows), b.cols):
        g = math.gcd(g, int(dense_det(submatrix(b, rows, range(b.cols)))))
    return g


def _unimodular_rays(rng, n):
    """The columns of a product of 2n random elementary matrices: the rays of
    a smooth full-dimensional cone."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return tuple(zip(*rows))


def test_is_smooth_matches_the_gcd_of_maximal_minors():
    rng = random.Random(7)
    answers = set()
    for n in (2, 3, 4):
        for _ in range(60):
            rays = _random_cone(rng, n, rng.randint(1, n))
            fs = one_cusp(n, rays)
            expected = gcd_of_maximal_minors(rays) == 1
            assert is_smooth(fs, Cone("F", rays)) == expected
            answers.add(expected)
    assert answers == {True, False}
    # full-dimensional cones, read by the determinant, against invariant factors
    for n in range(2, 7):
        answers = set()
        for _ in range(30):
            rays = _unimodular_rays(rng, n) if rng.random() < 0.5 else _random_cone(rng, n, n)
            expected = all(f == 1 for f in invariant_factors(Matrix.from_columns(rays)))
            assert is_smooth(one_cusp(n, rays), Cone("F", rays)) == expected
            answers.add(expected)
        assert answers == {True, False}
    fs = one_cusp(2, ((1, 0),))
    assert is_smooth(fs, Cone("F", ()))
    with pytest.raises(DependentInput):
        is_smooth(fs, Cone("F", ((1, 0), (-1, 0))))
    with pytest.raises(DependentInput):
        is_smooth(one_cusp(3, ((1, 0, 0),)), Cone("F", ((1, 0, 0), (2, 0, 0))))
    with pytest.raises(ValueError):
        is_smooth(fs, Cone("F", ((1, 0, 0),)))


@pytest.mark.parametrize("last", [(1, 1, 1, 29), (1, 1, 1, 1, 1, 97)])
def test_high_rank_cones_subdivide_smoothly(last):
    """The Siegel-type ranks: a singular cone of multiplicity 29 in rank 4
    and 97 in rank 6, resolved by stellar subdivision."""
    n = len(last)
    rays = tuple(tuple(int(i == j) for j in range(n)) for i in range(n - 1)) + (last,)
    fs = one_cusp(n, rays)
    assert _multiplicity(rays) == last[-1]
    sub = smooth_subdivide(fs)
    assert len(sub.cones) > 1
    for cone in sub.cones:
        assert len(cone.rays) == n
        assert abs(dense_det(Matrix.from_columns(cone.rays))) == 1
        assert is_smooth(sub, cone)
    assert is_refinement(sub, fs)
    assert check_snc_condition(sub).ok


def test_new_cones_are_checked_by_one_multiplicity():
    """``_check_cone`` validates a new cone and returns its multiplicity,
    which is 1 iff ``is_smooth``."""
    assert _check_cone(((0, 1), (1, 0)), 2) == 1
    assert _check_cone(((1, 0), (1, 2)), 2) == 2
    assert _check_cone(((0, 1, 2), (1, 0, 0)), 3) == 1
    assert _check_cone(((1, 0, 0), (1, 2, 0)), 3) == 2
    assert _check_cone(((1, 0, 0), (1, 3, 0), (1, 1, 5)), 3) == 15
    assert _check_cone((), 2) == 1
    bad = [
        (((-1, 0), (1, 0)), 2, "dependent rays"),
        (((-1, 0, 0), (1, 0, 0)), 3, "dependent rays"),
        (((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)), 3, "dependent rays"),
        (((0, 1), (2, 0)), 2, "non-primitive"),
        (((0, 1), (1, 0, 0)), 2, "ray length"),
    ]
    for rays, n, message in bad:
        with pytest.raises(ValueError, match=message):
            _check_cone(rays, n)


def test_multiplicity_matches_the_smith_form():
    """On seeded cones of every dimension: the product of the Smith form's
    diagonal, 0 for dependent rays, and is_smooth iff it is 1."""
    rng = random.Random(31)
    for n in (2, 3, 4):
        for k in range(1, n + 2):
            for _ in range(15):
                vectors = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)]
                rays = tuple(primitivize(v) for v in vectors if any(v))
                _, d, _ = smith_normal_form(Matrix.from_columns(rays))
                factors = [d[i, i] for i in range(min(d.shape)) if d[i, i]]
                want = math.prod(factors) if len(factors) == len(rays) else 0
                assert cone_multiplicity(rays, n) == want
                fs = one_cusp(n)
                if want:
                    assert is_smooth(fs, Cone("F", rays)) == (want == 1)
                else:
                    with pytest.raises(DependentInput):
                        is_smooth(fs, Cone("F", rays))


def test_refinement_of_zero_cones_and_cusps_the_coarse_window_lacks():
    """The zero cone lies in every cone of its cusp, a zero cone holds only
    the zero cone, and a cone on a cusp with no coarse cone has no host."""
    two = (CuspLabel("F", 2), CuspLabel("G", 2))
    zero = FanSystem(two, (Cone("F", ()),))
    cases = [
        (zero, FanSystem(two, (Cone("F", ((1, 0), (0, 1))),))),
        (zero, zero),
        (zero, FanSystem(two, (Cone("G", ()),))),
        (FanSystem(two, (Cone("F", ((1, 0),)),)), zero),
        (FanSystem(two, (Cone("G", ((1, 0),)),)), FanSystem(two, (Cone("F", ((1, 0), (0, 1))),))),
        (FanSystem(two, (Cone("G", ((1, 1),)),)),
         FanSystem(two, (Cone("F", ((1, 0), (0, 1))), Cone("G", ((1, 0), (0, 1)))))),
    ]
    assert [is_refinement(fine, coarse) for fine, coarse in cases] == [
        True, True, False, False, False, True]
    for fine, coarse in cases:
        assert is_refinement(fine, coarse) == oracle_is_refinement(fine, coarse)
