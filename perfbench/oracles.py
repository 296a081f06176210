"""Independent reference checks for job outputs.

Nothing here imports fanhodge: every expected value is derived from the
inputs by the benchmark's own integer arithmetic, so a change to the
library's linear algebra cannot also change the oracle it is checked against.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd


def det(rows: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        pivot = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def invariant_factors(rows: list[list[int]]) -> list[int]:
    """Nonzero invariant factors as ratios of determinantal divisors.

    d_k is the gcd of all k x k minors; the k-th invariant factor is
    d_k / d_{k-1}.  Exponential in the size, so only for small matrices.
    """
    nr, nc = len(rows), len(rows[0])
    factors, prev = [], 1
    for k in range(1, min(nr, nc) + 1):
        g = 0
        for ri in combinations(range(nr), k):
            for ci in combinations(range(nc), k):
                g = gcd(g, det([[rows[i][j] for j in ci] for i in ri]))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return factors


def snf_problems(m, u, d, v, expected: list[int]) -> list[str]:
    """Problems with (U, D, V) as a Smith normal form of m, or []."""
    out = []
    if matmul(matmul(u, m), v) != d:
        out.append("U*M*V != D")
    diag = []
    for i, row in enumerate(d):
        for j, x in enumerate(row):
            if i != j and x != 0:
                out.append("D is not diagonal")
                break
        if i < len(row):
            diag.append(row[i])
    if any(x < 0 for x in diag):
        out.append("negative diagonal entry")
    nonzero = [x for x in diag if x != 0]
    if diag[: len(nonzero)] != nonzero:
        out.append("zero diagonal entry before a nonzero one")
    if any(b % a for a, b in zip(nonzero, nonzero[1:])):
        out.append("divisibility chain broken")
    if abs(det(u)) != 1 or abs(det(v)) != 1:
        out.append("U or V is not unimodular")
    if nonzero != expected:
        out.append(f"invariant factors {nonzero} != determinantal {expected}")
    return out


def all_cones_unimodular(fan: dict) -> bool:
    """Every cone of a fan-system JSON has |det| = 1 (square ray matrix)."""
    for cone in fan["cones"]:
        rays = cone["rays"]
        if len(rays) != len(rays[0]) or abs(det(rays)) != 1:
            return False
    return True


CIRCLE_INTEGRAL_HOMOLOGY = [[1, []], [1, []]]
