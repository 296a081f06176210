"""Dense integer Gauss-Jordan elimination: the oracle for the sparse core.

Rows are dense integer lists, the pivot is the first row with a nonzero
entry in the column, and every combined row is divided by the gcd of its
entries.  This was ``fanhodge.linalg``'s elimination before its core became
sparse; pivot columns are taken left to right in both, so both must give the
same reduced row echelon form.  ``solve`` lives only here: the tests use it
as the cone-membership oracle for ``coordinate_forms``.  ``apply_matrix``,
a matrix-vector product that also takes ``Fraction`` entries, lives only
here too: the subdivision oracles map rays with it, where the library uses
integer rows.  So do ``matmul``, ``transpose``, ``zeros`` and ``is_zero``:
the library's chain maps are ``SparseMatrix`` values, and the tests multiply
them densely through ``to_matrix()``; ``sparse`` goes the other way.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import Sequence

from fanhodge.linalg import Entry, Matrix, SparseMatrix


def matmul(a: Matrix, b: Matrix | Entry) -> Matrix:
    """The product a * b of two matrices, or of a matrix and a scalar."""
    if not isinstance(b, Matrix):
        return Matrix([[x * b for x in row] for row in a.to_lists()], cols=a.cols)
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch {a.shape} * {b.shape}")
    cols = list(zip(*b.to_lists())) if b.rows else [()] * b.cols
    return Matrix(
        [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a.to_lists()],
        cols=b.cols,
    )


def transpose(m: Matrix) -> Matrix:
    return Matrix(list(zip(*m.to_lists())), cols=m.rows)


def zeros(rows: int, cols: int) -> Matrix:
    return Matrix([[0] * cols for _ in range(rows)], cols=cols)


def is_zero(m: Matrix) -> bool:
    return all(x == 0 for row in m.to_lists() for x in row)


def sparse(m: Matrix) -> SparseMatrix:
    """m as a ``SparseMatrix``."""
    return SparseMatrix((dict(enumerate(m.row(i))) for i in range(m.rows)), m.cols)


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
        return zeros(m.cols, 0)
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


def dense_invariant_factors(m: Matrix) -> list[int]:
    """Nonzero Smith diagonal of an integer matrix by dense steps over Z.

    The pivot is an entry of least absolute value, moved to (0, 0); division
    with remainder clears its row and column, and a row with an entry that
    the pivot does not divide is added to the pivot row, until the pivot
    divides the whole remaining block.  Meant for the small, sparse +-1
    maps of the tests: remainders can grow on dense input.
    """
    a = [[int(x) for x in row] for row in m.to_lists()]
    out = []
    while a and a[0]:
        nonzero = [(abs(x), i, j) for i, row in enumerate(a) for j, x in enumerate(row) if x]
        if not nonzero:
            break
        _, i, j = min(nonzero)
        a[0], a[i] = a[i], a[0]
        for row in a:
            row[0], row[j] = row[j], row[0]
        p = a[0][0]
        for i in range(1, len(a)):
            q = a[i][0] // p
            a[i] = [x - q * y for x, y in zip(a[i], a[0])]
        qs = [x // p for x in a[0][1:]]
        for row in a:
            row[1:] = [x - q * row[0] for q, x in zip(qs, row[1:])]
        if any(row[0] for row in a[1:]) or any(a[0][1:]):
            continue
        offender = next((row for row in a[1:] if any(x % p for x in row[1:])), None)
        if offender is not None:
            a[0] = [x + y for x, y in zip(a[0], offender)]
            continue
        out.append(abs(p))
        a = [row[1:] for row in a[1:]]
    return out
