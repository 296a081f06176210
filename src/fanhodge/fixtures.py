"""Built-in desk-scale fixtures: toric strata complexes and Hilbert windows.

These are the canonical small inputs used by the test suite and emitted by
the `fixtures` CLI command: the punctured projective line, the 2-torus inside
the product of two projective lines, and the rank-2 Hilbert cusp windows.
"""

from __future__ import annotations

from .fans import (
    FanSystem,
    Identification,
    fan_system_to_dict,
    hilbert_cusp_window,
)
from .linalg import Matrix
from .mhs import PureHS
from .weight_ss import Stratum, StrataComplex, strata_complex_to_dict

HILBERT_M = ((2, 1), (1, 1))


def cstar_strata() -> StrataComplex:
    """The projective line minus two points: boundary D = {0} + {infinity}."""
    point = {0: PureHS(0, {(0, 0): 1})}
    strata = [
        Stratum("Y", (), {0: PureHS(0, {(0, 0): 1}), 2: PureHS(2, {(1, 1): 1})}),
        Stratum("D0", ("P0",), point),
        Stratum("Dinf", ("Pinf",), point),
    ]
    gysin = {
        ("D0", "Y", 0, 0, 0): Matrix([[1]]),
        ("Dinf", "Y", 0, 0, 0): Matrix([[1]]),
    }
    return StrataComplex(
        n=1, components=("P0", "Pinf"), strata=strata, gysin=gysin
    )


def p1xp1_strata() -> StrataComplex:
    """The 2-torus inside the product of two projective lines.

    The boundary is a square of four lines L0..L3 (L0, L2 one ruling;
    L1, L3 the other) meeting in four points.  Line classes in H^2 of the
    ambient surface are written in the ruling basis (e0, e1).
    """
    ambient = Stratum(
        "Y",
        (),
        {
            0: PureHS(0, {(0, 0): 1}),
            2: PureHS(2, {(1, 1): 2}),
            4: PureHS(4, {(2, 2): 1}),
        },
    )
    line_coh = {0: PureHS(0, {(0, 0): 1}), 2: PureHS(2, {(1, 1): 1})}
    point_coh = {0: PureHS(0, {(0, 0): 1})}
    lines = [Stratum(f"L{i}", (f"L{i}",), line_coh) for i in range(4)]
    points = [
        Stratum("P01", ("L0", "L1"), point_coh),
        Stratum("P12", ("L1", "L2"), point_coh),
        Stratum("P23", ("L2", "L3"), point_coh),
        Stratum("P03", ("L0", "L3"), point_coh),
    ]
    ruling = {"L0": 0, "L2": 0, "L1": 1, "L3": 1}
    gysin = {}
    for line in lines:
        cls = [[0], [0]]
        cls[ruling[line.id]][0] = 1
        gysin[(line.id, "Y", 0, 0, 0)] = Matrix(cls)
        gysin[(line.id, "Y", 2, 1, 1)] = Matrix([[1]])
    for pt in points:
        for lid in pt.index_set:
            gysin[(pt.id, lid, 0, 0, 0)] = Matrix([[1]])
    return StrataComplex(
        n=2,
        components=tuple(f"L{i}" for i in range(4)),
        strata=[ambient] + lines + points,
        gysin=gysin,
    )


def hilbert_window(length: int = 3) -> FanSystem:
    """Rank-2 Hilbert cusp window for M = [[2,1],[1,1]]."""
    return hilbert_cusp_window(HILBERT_M, length)


def hilbert_window_cubed(length: int = 3) -> FanSystem:
    """Same chain of cones, but identified only by M^length (index-3 subgroup
    for the default length), so the quotient circle keeps `length` vertices."""
    base = hilbert_cusp_window(HILBERT_M, length)
    power = [[1, 0], [0, 1]]
    for _ in range(length):  # power = power * M on 2 x 2 integer rows
        power = [[sum(x * y for x, y in zip(row, col)) for col in zip(*HILBERT_M)]
                 for row in power]
    return FanSystem(
        cusps=base.cusps,
        cones=base.cones,
        identifications=(Identification(Matrix(power), "F", "F"),),
    )


def builtin_fixtures() -> dict:
    """All fixtures as one JSON-ready dictionary (for the CLI)."""
    return {
        "cstar": strata_complex_to_dict(cstar_strata()),
        "p1xp1": strata_complex_to_dict(p1xp1_strata()),
        "hilbert": fan_system_to_dict(hilbert_window()),
        "hilbert_cubed": fan_system_to_dict(hilbert_window_cubed()),
    }
