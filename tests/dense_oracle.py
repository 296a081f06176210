"""Dense integer Gauss-Jordan elimination: the oracle for the sparse core.

Rows are dense integer lists, the pivot is the first row with a nonzero
entry in the column, and every combined row is divided by the gcd of its
entries.  This was ``fanhodge.linalg``'s elimination before its core became
sparse; pivot columns are taken left to right in both, so both must give the
same reduced row echelon form.  ``solve`` lives only here: the tests use it
as the cone-membership oracle for ``coordinate_forms``.  ``apply_matrix``,
a matrix-vector product that also takes ``Fraction`` entries, lives only
here too: the subdivision oracles map rays with it, where the library uses
integer rows.  So do ``matmul``, ``transpose``, ``zeros``, ``is_zero``,
``is_integer`` and ``submatrix``, which the tests apply to the library's
sparse ``Matrix`` values through their dense rows.
``rational_kernel_basis`` was ``fanhodge.linalg``'s kernel basis; the
library now reads only ranks, so it lives here, on the library's sparse
``_echelon``, and the tests hold it to ``dense_kernel_basis``.

``smith_normal_form`` and ``residual_invariant_factors`` are the two Smith
loops that ``fanhodge.linalg`` ran before it folded them into one loop that
takes the modulus: the U/V loop over Z, and the transform-free loop over
Z/delta that took the residual left by the unit phase of
``invariant_factors``.  The tests hold the library's U, D, V and factors
to them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import gcd, lcm, prod
from typing import Callable, Sequence

from fanhodge.linalg import Entry, Matrix, _echelon


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


def is_integer(m: Matrix) -> bool:
    """Whether every entry is an integer, of any type: 2.0, Fraction(4, 2)
    and True are."""
    return all(type(x) is int or Fraction(x).denominator == 1
               for row in m.to_lists() for x in row)


def submatrix(m: Matrix, row_idx: Sequence[int], col_idx: Sequence[int]) -> Matrix:
    rows = m.to_lists()
    return Matrix([[rows[i][j] for j in col_idx] for i in row_idx], cols=len(col_idx))


def apply_matrix(m: Matrix, v: Sequence) -> tuple:
    """m applied to a column vector, returned as a tuple."""
    if m.cols != len(v):
        raise ValueError("shape mismatch")
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m.to_lists())


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


def rational_kernel_basis(m: Matrix) -> Matrix:
    """Basis of ker(m) as matrix columns; exact, full column rank.

    Returns a matrix with ``cols - rank`` columns (possibly zero columns).
    Column k is the free column f_k set to 1 and the others to 0, solved
    for the pivot columns of the sparse core's reduced row echelon form, so
    its entries are all ``Fraction``s.
    """
    if m.rows == 0:
        return Matrix.identity(m.cols)
    reduced, pivots = _echelon(m._d)
    is_pivot = set(pivots)
    free = {f: k for k, f in enumerate(f for f in range(m.cols) if f not in is_pivot)}
    zero, one = Fraction(0), Fraction(1)
    rows = [[zero] * len(free) for _ in range(m.cols)]
    for f, k in free.items():
        rows[f][k] = one
    for p, row in zip(pivots, reduced):
        x = row[p]
        out = rows[p]
        for j, y in row.items():
            if j != p:
                out[free[j]] = Fraction(-y, x)
    return Matrix(rows, cols=len(free))


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


def smith_normal_form(m: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """(U, D, V) with U * m * V = D by the library's previous U/V loop.

    The loop keeps the rows of [A | X] and, apart, the rows of Y, with
    X * m * Y^T = A.  Each pivot is the first entry of least absolute value
    in the remaining block; its column is cleared by ``_gcd_step`` row steps,
    its row the same way on [A^T | Y], and a row with an entry that the
    pivot does not divide is added to the pivot row until none is left.
    """
    nrows, ncols = m.shape
    w = [[int(x) for x in row] + [int(i == j) for j in range(nrows)]
         for i, row in enumerate(m.to_lists())]
    y = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    flipped = False
    for t in range(min(nrows, ncols)):
        k = len(y)
        j = _pivot(w, t, k, abs)
        if j is None:
            break
        y[t], y[j] = y[j], y[t]
        while True:
            for i in range(t + 1, len(w)):
                if w[i][t]:
                    w[t], w[i] = _gcd_step(w[t], w[i], t)
            if any(w[t][t + 1:k]):
                w, y = [[*col, *row] for col, row in zip(zip(*w), y)], [r[k:] for r in w]
                k = len(y)
                flipped = not flipped
                continue
            p = w[t][t]
            rest = w[t + 1:] if abs(p) > 1 else ()
            offender = next((row for row in rest if any(x % p for x in row[t + 1:k])), None)
            if offender is None:
                break
            w[t] = [a + b for a, b in zip(w[t], offender)]
        if w[t][t] < 0:
            w[t] = [-x for x in w[t]]
    k = len(y)
    d, x = [r[:k] for r in w], [r[k:] for r in w]
    if flipped:
        return Matrix(y), Matrix(list(zip(*d))), Matrix(list(zip(*x)))
    return Matrix(x), Matrix(d), Matrix(list(zip(*y)))


def residual_invariant_factors(m: Matrix) -> list[int]:
    """Nonzero Smith diagonal of an integer matrix by the previous residual
    route of ``invariant_factors``, with no unit phase.

    delta is |det| of an r x r submatrix of rank r, on the pivot columns of
    m and of its transpose (``dense_echelon``).  ``factors_mod`` of m mod
    delta gives the factors below delta; the rest of the r factors are delta.
    """
    rows = m.to_lists()
    cols, _ = dense_echelon([list(r) for r in rows])
    if not cols:
        return []
    pivot_rows, _ = dense_echelon([list(r) for r in zip(*rows)])
    delta = int(abs(dense_det(Matrix([[rows[i][j] for j in cols] for i in pivot_rows]))))
    factors = factors_mod(rows, delta) if delta > 1 else []
    return factors + [delta] * (len(cols) - len(factors))


def factors_mod(rows: list[list[int]], delta: int) -> list[int]:
    """gcd(pivot, delta) for each pivot of a diagonalisation over Z/delta,
    by the library's previous transform-free loop; entries that are 0 mod
    delta give none."""
    a = [[x % delta for x in row] for row in rows]
    out = []
    for t in range(min(len(a), len(a[0]))):
        if _pivot(a, t, len(a[0]), partial(gcd, delta)) is None:
            break
        while True:
            for i in range(t + 1, len(a)):
                if a[i][t]:
                    p, q = _gcd_step(a[t], a[i], t)
                    a[t], a[i] = [x % delta for x in p], [x % delta for x in q]
            if any(a[t][t + 1:]):
                a = [list(col) for col in zip(*a)]
                continue
            g = gcd(a[t][t], delta)
            rest = a[t + 1:] if g > 1 else ()
            offender = next((row for row in rest if any(x % g for x in row[t + 1:])), None)
            if offender is None:
                out.append(g)
                break
            a[t] = [(p + q) % delta for p, q in zip(a[t], offender)]
    return out


def _pivot(a: list[list[int]], t: int, k: int, key: Callable[[int], int]) -> int | None:
    """Move the first nonzero entry of least ``key`` in a[t:][t:k] to (t, t)
    by a row and a column swap and return its column; None when the block
    is zero."""
    best = None
    for i in range(t, len(a)):
        row = a[i]
        for j in range(t, k):
            if row[j]:
                g = key(row[j])
                if best is None or g < best[0]:
                    best = g, i, j
        if best is not None and best[0] == 1:
            break
    if best is None:
        return None
    _, i, j = best
    a[t], a[i] = a[i], a[t]
    if j != t:
        for row in a:
            row[t], row[j] = row[j], row[t]
    return j


def _gcd_step(p: list[int], q: list[int], c: int) -> tuple[list[int], list[int]]:
    """Rows p and q after a determinant-1 row step that takes p[c] != 0 and
    q[c] to (+-gcd, 0); p stays as it is when p[c] divides q[c]."""
    a, b = p[c], q[c]
    if b % a == 0:
        y = b // a
        return p, [j - y * i for i, j in zip(p, q)]
    g, r, s0, s1, t0, t1 = a, b, 1, 0, 0, 1
    while r:
        k = g // r
        g, r = r, g - k * r
        s0, s1 = s1, s0 - k * s1
        t0, t1 = t1, t0 - k * t1
    x, y = a // g, b // g
    return [s0 * i + t0 * j for i, j in zip(p, q)], [x * j - y * i for i, j in zip(p, q)]
