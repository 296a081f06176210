"""Dense integer Gauss-Jordan elimination: the oracle for the sparse core.

Rows are dense integer lists, the pivot is the first row with a nonzero
entry in the column, and every combined row is divided by the gcd of its
entries.  This was ``fanhodge.linalg``'s elimination before its core became
sparse; pivot columns are taken left to right in both, so both must give the
same reduced row echelon form.  ``solve`` lives only here: the tests use it
as the cone-membership oracle for ``coordinate_forms``.  ``apply_matrix``,
a matrix-vector product that also takes ``Fraction`` entries, lives only
here too: the subdivision oracles map rays with it, where the library uses
integer rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import Sequence

from fanhodge.linalg import Matrix


def apply_matrix(m: Matrix, v: Sequence) -> tuple:
    """m applied to a column vector, returned as a tuple."""
    if m.cols != len(v):
        raise ValueError("shape mismatch")
    return tuple(sum(a * b for a, b in zip(m.row(i), v)) for i in range(m.rows))


def dense_echelon(rows: list) -> tuple[list[int], Fraction]:
    """Integer Gauss-Jordan elimination of ``rows``, in place.

    Returns the pivot columns and the factor by which the determinant of the
    rows changed; the reduced row echelon form has entries
    ``Fraction(rows[r][j], rows[r][pivots[r]])``.
    """
    num = den = 1
    for i, row in enumerate(rows):
        row = [x if type(x) is int else Fraction(x) for x in row]
        scale = lcm(*(x.denominator for x in row))
        rows[i] = [x.numerator * scale // x.denominator for x in row]
        num *= scale
    nrows = len(rows)
    pivots: list[int] = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            num = -num
        prow = rows[r]
        p = prow[c]
        for i, row in enumerate(rows):
            a = row[c]
            if a and i != r:
                row = [p * x - a * y for x, y in zip(row, prow)]
                g = gcd(*row)
                if g > 1:
                    row = [x // g for x in row]
                    den *= g
                num *= p
                rows[i] = row
        pivots.append(c)
    return pivots, Fraction(num, den)


def dense_rank(m: Matrix) -> int:
    return len(dense_echelon(m.to_lists())[0])


def dense_kernel_basis(m: Matrix) -> Matrix:
    if m.rows == 0:
        return Matrix.identity(m.cols)
    rows = m.to_lists()
    pivots, _ = dense_echelon(rows)
    basis_cols = []
    for f in range(m.cols):
        if f in pivots:
            continue
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -Fraction(rows[r][f], rows[r][p])
        basis_cols.append(v)
    if not basis_cols:
        return Matrix.zeros(m.cols, 0)
    return Matrix.from_columns(basis_cols)


def solve(m: Matrix, b: Sequence) -> tuple[Fraction, ...] | None:
    """One exact solution of m x = b, or None when inconsistent."""
    if len(b) != m.rows:
        raise ValueError(f"right-hand side has length {len(b)}, expected {m.rows}")
    rows = [list(row) + [bi] for row, bi in zip(m.to_lists(), b)]
    pivots, _ = dense_echelon(rows)
    if m.cols in pivots:
        return None
    x = [Fraction(0)] * m.cols
    for r, p in enumerate(pivots):
        x[p] = Fraction(rows[r][m.cols], rows[r][p])
    return tuple(x)


def dense_inverse(m: Matrix) -> Matrix:
    if m.rows != m.cols:
        raise ValueError("not square")
    n = m.rows
    rows = [row + [int(i == j) for j in range(n)] for i, row in enumerate(m.to_lists())]
    pivots, _ = dense_echelon(rows)
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    return Matrix(
        [[Fraction(x, row[r]) for x in row[n:]] for r, row in enumerate(rows)], cols=n
    )


def dense_det(m: Matrix) -> Fraction:
    if m.rows != m.cols:
        raise ValueError("not square")
    rows = m.to_lists()
    pivots, factor = dense_echelon(rows)
    if len(pivots) < m.rows:
        return Fraction(0)
    return prod(rows[r][r] for r in range(m.rows)) / factor
