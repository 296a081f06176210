"""Spheres and real projective spaces built from complete fans, against
their closed-form homology.

Every other large complex of the suite is a ball or a circle; these two
families are closed, so they check the top class, the orientation signs
and the torsion phase of the integral homology on subdivided windows.

- S^{n-1}: the complete fan of the weighted projective space P(1,...,1,m)
  in rank n, rays e_1..e_n and -(1,...,1,m), and the n + 1 cones that each
  omit one ray.  The cone omitting e_n has multiplicity m.  Its link is
  S^{n-1}: Z in degrees 0 and n - 1, 0 between; closed and oriented.
- RP^{n-1}: the 2^n orthant cones, the all-plus and all-minus orthants
  starred at +-(1,...,1,m), identified with themselves by -I, which fixes
  no nonzero cone.  H_0 = Z, H_d = Z/2 for odd d < n - 1 and 0 for even
  0 < d < n - 1, and H_{n-1} = Z if n is even, else 0.  It is closed, and
  oriented iff n is even.

Each window, for n = 3, 4, 5, is subdivided and its quotient must have the
closed-form integral homology, torsion included, Euler characteristic and
orientability; the same windows go through ``check-snc``, ``subdivide``,
``check-snc`` and ``homology`` on JSON files, whose Betti numbers must be
the free ranks.

In rank 1 the complete fan, rays 1 and -1, has the two points S^0 as its
link, and -1 identifies them to one point; ``homology`` reports both as
closed and oriented, with the sum of the points as the fundamental class.
"""

import json
from itertools import product

import pytest

from fanhodge import cli
from fanhodge.delta_complex import (
    boundary_matrices,
    integral_homology,
    pseudomanifold_report,
    quotient_delta_complex,
)
from fanhodge.fans import (
    Cone,
    CuspLabel,
    FanSystem,
    Identification,
    check_snc_condition,
    fan_system_to_dict,
    smooth_subdivide,
    two_division_subdivide,
)
from fanhodge.linalg import Matrix


def unit(n: int, i: int, sign: int = 1) -> tuple[int, ...]:
    return tuple(sign * (j == i) for j in range(n))


def sphere_window(n: int, m: int) -> FanSystem:
    """The complete fan of P(1,...,1,m) in rank n: its link is S^{n-1}."""
    rays = [unit(n, i) for i in range(n)] + [(-1,) * (n - 1) + (-m,)]
    cones = [Cone("F", tuple(rays[:i] + rays[i + 1:])) for i in range(n + 1)]
    return FanSystem((CuspLabel("F", n),), tuple(cones))


def projective_window(n: int, m: int) -> FanSystem:
    """The orthant fan in rank n, its all-plus and all-minus orthants
    starred at +-(1,...,1,m), identified with itself by -I: RP^{n-1}."""
    cones = []
    for signs in product((1, -1), repeat=n):
        orthant = [unit(n, i, s) for i, s in enumerate(signs)]
        if len(set(signs)) == 2:
            cones.append(orthant)
            continue
        star = tuple(signs[0] * x for x in (1,) * (n - 1) + (m,))
        cones += (orthant[:i] + [star] + orthant[i + 1:] for i in range(n))
    minus = Matrix([unit(n, i, -1) for i in range(n)])
    return FanSystem((CuspLabel("F", n),), tuple(Cone("F", tuple(c)) for c in cones),
                     (Identification(minus, "F", "F"),))


def sphere_homology(n: int) -> list[tuple[int, list[int]]]:
    return [(1, [])] + [(0, [])] * (n - 2) + [(1, [])]


def projective_homology(n: int) -> list[tuple[int, list[int]]]:
    middle = [(0, [2]) if d % 2 else (0, []) for d in range(1, n - 1)]
    return [(1, [])] + middle + [(1 - n % 2, [])]


CASES = [("sphere", n, sphere_window, 5, sphere_homology, True) for n in (3, 4, 5)] + [
    ("projective", n, projective_window, 3, projective_homology, n % 2 == 0)
    for n in (3, 4, 5)
]


def test_the_closed_forms_are_the_known_groups():
    assert sphere_homology(3) == [(1, []), (0, []), (1, [])]
    assert projective_homology(3) == [(1, []), (0, [2]), (0, [])]  # RP^2
    assert projective_homology(4) == [(1, []), (0, [2]), (0, []), (1, [])]  # RP^3
    assert projective_homology(5) == [(1, []), (0, [2]), (0, []), (0, [2]), (0, [])]  # RP^4


@pytest.mark.parametrize("family, n, window, m, homology, oriented", CASES,
                         ids=[f"{c[0]}-{c[1]}" for c in CASES])
def test_subdivided_windows_have_the_closed_form_homology(
    family, n, window, m, homology, oriented
):
    fs = window(n, m)
    assert check_snc_condition(fs).ok
    sub = smooth_subdivide(two_division_subdivide(fs))
    assert check_snc_condition(sub).ok
    dc = quotient_delta_complex(sub, "F")
    assert dc.dim == n - 1
    assert integral_homology(boundary_matrices(dc)) == homology(n)
    rep = pseudomanifold_report(dc)
    assert rep.closed and rep.oriented == oriented
    assert (rep.fundamental_class is not None) == oriented
    assert dc.euler_characteristic() == sum(
        (-1) ** d * free for d, (free, _) in enumerate(homology(n)))


@pytest.mark.parametrize("family, n, window, m, homology, oriented", CASES,
                         ids=[f"{c[0]}-{c[1]}" for c in CASES])
def test_closed_forms_through_the_cli(
    tmp_path, capsys, family, n, window, m, homology, oriented
):
    """check-snc, subdivide, check-snc and homology on JSON files: the Betti
    numbers are the free ranks of the closed form."""
    src, sub, out = (str(tmp_path / name) for name in ("window.json", "sub.json", "h.json"))
    with open(src, "w") as fh:
        json.dump(fan_system_to_dict(window(n, m)), fh)
    assert cli.main(["check-snc", src]) == 0
    assert cli.main(["subdivide", src, "-o", sub]) == 0
    assert cli.main(["check-snc", sub]) == 0
    assert cli.main(["homology", sub, "-o", out]) == 0
    assert capsys.readouterr().err == ""
    with open(out) as fh:
        rep = json.load(fh)
    assert rep["betti"] == [free for free, _ in homology(n)]
    assert rep["closed"] is True and rep["oriented"] is oriented


@pytest.mark.parametrize("matrices, report", [
    ([], {"betti": [2], "closed": True, "oriented": True,
          "fundamental_class": [{"id": 0, "sign": 1}, {"id": 1, "sign": 1}]}),
    ([[[-1]]], {"betti": [1], "closed": True, "oriented": True,
                "fundamental_class": [{"id": 0, "sign": 1}]}),
], ids=["S0", "point"])
def test_rank1_quotients_are_points(tmp_path, capsys, matrices, report):
    src = tmp_path / "window.json"
    src.write_text(json.dumps({
        "cusps": [{"name": "F", "rank": 1}],
        "cones": [{"cusp": "F", "rays": [[1]]}, {"cusp": "F", "rays": [[-1]]}],
        "identifications": [{"matrix": m, "source": "F", "target": "F"} for m in matrices],
    }))
    assert cli.main(["homology", str(src)]) == 0
    out, err = capsys.readouterr()
    assert (json.loads(out), err) == (report, "")
