"""Exact linear algebra over the integers and rationals.

Everything here works with Python ints and ``fractions.Fraction``, so there
is no overflow and no rounding anywhere.  Matrices are immutable and all
operations return new values, so they are safe to call concurrently.
There is one matrix type, ``Matrix``, which keeps a ``{column: entry}``
dict of the nonzero entries of each row: the form in which
``fanhodge.delta_complex`` and ``fanhodge.weight_ss`` build their chain
maps.  Rays, identifications, Gysin blocks and Smith transforms are given
as dense rows and stored the same way.

``rank`` and ``coordinate_forms`` (but that of a small full-dimensional
cone) share one elimination core: sparse integer Gauss-Jordan on
``{column: int}`` rows, with a column -> rows index so that a pivot
touches only the rows holding its column, and every combined row divided
by the gcd of its entries.  ``_sparse_rows`` sets it up by copying the
dict rows without their zeros.  The sparse +-1 Gysin maps therefore cost
in proportion to their nonzeros and keep small entries.  Its forward
pass, ``_row_echelon``, is all that ``rank`` needs, and ``rank`` is all
that the E2 and weight-filtration dimensions read; ``_echelon`` adds the
backward pass for ``coordinate_forms``.  Pivot columns are taken left to
right, so each reader gets the unique reduced row echelon form, whatever
the pivot rows.  The core keeps no determinant factor.

Determinants come from ``_det``, fraction-free (Bareiss) elimination on
dense integer rows, whose intermediate entries are minors of the input;
its last step, on the final 2 x 2, is one closed expression, so a 2 x 2
determinant costs two products.  ``invariant_factors`` and
``fanhodge.fans`` call it on integer rows, such as the ray tuples of a
cone.  The coordinate forms of n independent vectors of length n <= 3,
the full-dimensional cones of ``fanhodge.fans`` up to rank 3, are read off
their cofactors: n^2 minors of size at most 2, each one closed-form
``_det``, in place of an elimination.  There is no general inverse: the
one that ``fanhodge.fans`` needs, of a unimodular integer g, is read from
the coordinate forms of the columns of g, which are the rows of g^-1, so
no ``Fraction`` is built for it.

An entry that is not an int, a float or a ``Fraction`` (a bool counts as an
int) raises ``ValueError: matrix entry <x!r> is not a number``, and an
``inf`` or ``nan`` one ``ValueError: matrix entry <x!r> is not a finite
number``, in the elimination set-up and in ``smith_normal_form``; an
all-int row is not checked entry by entry.

``invariant_factors`` runs on the same sparse rows and keeps no
transforms; it is all that homology reads, rational and integral.  A unit
phase eliminates +-1 pivots, sparsest first, exactly and without scaling;
each is unimodular and gives a factor 1, and the sparse +-1 boundary maps
are mostly used up by it.  A residual phase takes what is left modulo
delta, the absolute value of one nonzero r x r minor of the residual of
rank r, which every invariant factor divides.
``smith_normal_form`` returns the unimodular transforms, so it works over
Z.  Both run one Smith loop, ``_smith``, which takes the modulus: 0 for Z,
delta for Z/delta, where every row is reduced after each step, so no entry
ever exceeds delta.  ``_gcd_step`` turns a pivot and an entry below it into
their gcd and a zero in one row step, and rows are cleared as the columns
of the transpose.  A pivot that changes becomes a proper divisor of itself,
so the loop cannot stall, and on dense 6 x 6 input with entries in [-9, 9]
the U/V entries stay under about 70 bits.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd, isfinite, lcm
from operator import countOf, itemgetter
from typing import ItemsView, Iterable, Sequence

from .errors import DependentInput

Entry = int | Fraction
_EXACT = (int, Fraction)
_NUMBERS = (int, float, Fraction)  # a bool is an int
_second = itemgetter(1)


def _number(x):
    """``x``, if it is an int, a finite float or a ``Fraction``; else ValueError."""
    if not isinstance(x, _NUMBERS):
        raise ValueError(f"matrix entry {x!r} is not a number")
    if isinstance(x, float) and not isfinite(x):
        raise ValueError(f"matrix entry {x!r} is not a finite number")
    return x


class Matrix:
    """Immutable matrix with exact integer or rational entries.

    Row i is a ``{column: entry}`` dict of its nonzero entries.  The rows
    are given dense, as sequences of entries, or as such dicts, in which a
    caller may add up terms that cancel; ``cols`` is needed when no row is
    dense.  Both forms leave out their int and ``Fraction`` zeros only: any
    other falsy entry, such as ``0.0``, ``False`` or ``None``, is kept for a
    check to reject, and the elimination drops a numeric one.
    """

    __slots__ = ("rows", "cols", "_d")

    def __init__(self, rows: Iterable[Sequence[Entry] | dict[int, Entry]], cols: int | None = None):
        data, widths = [], set()
        for row in rows:
            if isinstance(row, dict):
                entries = dict(filter(_second, row.items()))
                if len(entries) != len(row):
                    # a falsy entry that is no int or Fraction zero stays, as below
                    entries = {j: x for j, x in row.items() if x or type(x) not in _EXACT}
                data.append(entries)
                continue
            widths.add(len(row))
            data.append({j: x for j, x in enumerate(row) if x or type(x) not in _EXACT})
        if len(widths) > 1:
            raise ValueError("ragged rows")
        if widths:
            width = widths.pop()
            if cols is not None and cols != width:
                raise ValueError("column count mismatch")
            cols = width
        elif cols is None:
            raise ValueError("a matrix with no dense rows needs an explicit column count")
        self._set(tuple(data), cols)

    def _set(self, data: tuple[dict[int, Entry], ...], cols: int) -> "Matrix":
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_d", data)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @staticmethod
    def _of(data: Iterable[dict[int, Entry]], cols: int) -> "Matrix":
        """The matrix whose rows are the given new dicts of nonzeros, not copied."""
        return object.__new__(Matrix)._set(tuple(data), cols)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix._of(({i: 1} for i in range(n)), n)

    @staticmethod
    def from_columns(columns: Sequence[Sequence[Entry]]) -> "Matrix":
        return Matrix(list(zip(*columns)), cols=len(columns))

    def __getitem__(self, ij: tuple[int, int]) -> Entry:
        i, j = ij
        return self._d[i].get(j, 0)

    def row(self, i: int) -> ItemsView[int, Entry]:
        """The nonzeros of row i, as a read-only view of (column, entry) pairs."""
        return self._d[i].items()

    def to_lists(self) -> list[list[Entry]]:
        """Dense rows; each entry left out reads as int 0."""
        cols, zeros = range(self.cols), (0,) * self.cols
        return [list(map(row.get, cols, zeros)) for row in self._d]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def product_is_zero(self, other: "Matrix") -> bool:
        """Whether self * other = 0, row by row on the nonzeros of both."""
        for row in self._d:
            image: dict[int, Entry] = {}
            for k, x in row.items():
                for j, y in other._d[k].items():
                    image[j] = image.get(j, 0) + x * y
            if any(image.values()):
                return False
        return True

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape == other.shape and self._d == other._d

    def __hash__(self) -> int:
        return hash((self.shape, tuple(frozenset(row.items()) for row in self._d)))

    def __repr__(self) -> str:
        return f"Matrix({self.to_lists()!r})"


def primitivize(v: Sequence[int]) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries (sign preserved)."""
    g = 0
    for x in v:
        g = gcd(g, x)
    if g == 0:
        return tuple(v)
    return tuple(x // g for x in v)


# -- elimination ----------------------------------------------------------


def _clear(
    sparse: list[dict[int, int]],
    where: dict[int, set[int]],
    c: int,
    prow: dict[int, int],
    others: list[int],
) -> None:
    """Clear column c of the rows ``others`` with the pivot row ``prow``.

    A row with an entry ``a != 0`` in column c becomes
    ``p * row - a * prow`` (both factors divided by their gcd), divided by
    the gcd of its entries, so sparse +-1 maps stay sparse and small.
    """
    p = prow[c]
    for i in others:
        row = sparse[i]
        a = row[c]
        s, b = (p, a) if p > 0 else (-p, -a)
        if s != 1:
            g = gcd(s, b)
            s, b = s // g, b // g
            if s != 1:
                for j in row:
                    row[j] *= s
        _subtract(row, i, where, b, prow)
        g = gcd(*row.values())
        if g > 1:
            for j in row:
                row[j] //= g


def _subtract(
    row: dict[int, int], i: int, where: dict[int, set[int]], b: int, prow: dict[int, int]
) -> None:
    """``row -= b * prow`` in place, keeping the index entries of row i."""
    for j, y in prow.items():
        x = row.get(j)
        if x is None:
            row[j] = -b * y
            where[j].add(i)
        else:
            x -= b * y
            if x:
                row[j] = x
            else:
                del row[j]
                where[j].discard(i)


def _integer_row(row: Sequence[Entry]) -> tuple[Sequence[int], int]:
    """``row`` scaled to integers by the lcm of its denominators, and that lcm."""
    # a sum of ints is an int; any Fraction entry makes it a Fraction
    if type(sum(row)) is int:
        return row, 1
    fracs = [Fraction(x) for x in row]
    scale = lcm(*(x.denominator for x in fracs))
    return [x.numerator * (scale // x.denominator) for x in fracs], scale


def _sparse_rows(rows: Iterable[dict[int, Entry]], integer: bool = False) -> tuple[
    list[dict[int, int]], dict[int, set[int]]
]:
    """The set-up of the elimination core.

    Each ``{column: entry}`` row is copied.  A row with an entry that is not
    an int has each entry checked by ``_number``, loses its zeros, such as a
    ``0.0`` or a ``False`` that a ``Matrix`` keeps (it stores no int zero),
    and is scaled to integers by ``_integer_row``.  A column -> rows index
    finds the rows that hold a column.  Returns the rows and the index; with
    ``integer``, a row that needs scaling raises ValueError instead.
    """
    sparse: list[dict[int, int]] = []
    where: dict[int, set[int]] = {}  # column -> rows with a nonzero there
    for i, row in enumerate(rows):
        entries = row.copy()
        if countOf(map(type, entries.values()), int) != len(entries):
            entries = {j: x for j, x in entries.items() if _number(x)}
            ints, scale = _integer_row(list(entries.values()))
            if integer and scale != 1:
                raise ValueError("invariant_factors needs an integer matrix")
            entries = dict(zip(entries, ints))
        sparse.append(entries)
        for j in entries:
            holders = where.get(j)
            if holders is None:
                where[j] = {i}
            else:
                holders.add(i)
    return sparse, where


def _row_echelon(rows: Iterable[dict[int, Entry]]) -> tuple[
    list[dict[int, int]], dict[int, set[int]], list[int], list[int]
]:
    """Forward pass of the elimination core: a row echelon form of ``rows``.

    The rows are set up by ``_sparse_rows``.  Pivot columns are taken
    strictly left to right.  In each, the pivot row is the unused row with
    a unit entry there, then with the fewest nonzeros, then with the lowest
    index, and the column is cleared from the other unused rows.

    Returns the rows, the column index, the pivot row of each pivot column
    and the pivot columns.  Rows that are not pivot rows end up empty.
    """
    sparse, where = _sparse_rows(rows)
    nrows = len(sparse)
    used = [False] * nrows
    order: list[int] = []  # pivot row of each pivot column
    pivots: list[int] = []
    for c in sorted(where):
        holders = where[c]
        pi = -1
        for i in holders:
            if not used[i]:
                if pi < 0:
                    pi = i
                    continue
                x = sparse[i][c]
                y = sparse[pi][c]
                # unit entry first, then fewest nonzeros, then lowest index
                ku, kp = x in (1, -1), y in (1, -1)
                if ku != kp:
                    if ku:
                        pi = i
                elif (len(sparse[i]), i) < (len(sparse[pi]), pi):
                    pi = i
        if pi < 0:
            continue
        used[pi] = True
        others = [i for i in holders if not used[i]]
        if others:
            _clear(sparse, where, c, sparse[pi], others)
        order.append(pi)
        pivots.append(c)
        if len(order) == nrows:
            break
    return sparse, where, order, pivots


def _echelon(rows: Iterable[dict[int, Entry]]) -> tuple[list[dict[int, int]], list[int]]:
    """Sparse integer Gauss-Jordan elimination of ``rows``.

    The forward pass ``_row_echelon`` clears each pivot column below its
    pivot; the backward pass then clears it above, last pivot first, so a
    pivot row is combined into the rows above it only once it is final.
    Reducing a long cycle that way costs in proportion to its length, where
    clearing above each pivot as it is found costs the square.

    Returns the pivot rows in pivot order and the pivot columns.  Pivot
    columns are taken left to right, so row ``r`` of the unique reduced row
    echelon form has entries ``Fraction(rows[r].get(j, 0), rows[r][pivots[r]])``.
    """
    sparse, where, order, pivots = _row_echelon(rows)
    for pi, c in zip(reversed(order), reversed(pivots)):
        if len(where[c]) > 1:
            _clear(sparse, where, c, sparse[pi], [i for i in where[c] if i != pi])
    return [sparse[i] for i in order], pivots


def rank(m: Matrix) -> int:
    """Rank over the rationals."""
    return len(_row_echelon(m._d)[3])


def _det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of square integer ``rows`` by fraction-free elimination.

    Bareiss's method: each step takes the first row with a nonzero leading
    entry p as the pivot row (a row swap flips the sign), drops it and the
    leading column, and replaces each entry a_ij of the rest by
    (p * a_ij - a_i0 * a_0j) / (the previous pivot).  The division is exact,
    because the result is a minor of the input, so no entry ever exceeds
    Hadamard's bound.  When two rows [a, b], [c, d] remain, the last step
    is (a * d - b * c) / (the previous pivot) in one expression, with no
    pivot search: a swap would flip both its sign and the step's.  So a
    2 x 2 costs two products and a 3 x 3 one step more; the cost is still
    cubic in the size, whatever the sparsity.
    """
    sign, prev = 1, 1
    while len(rows) > 2:
        if not rows[0][0]:
            i = next((i for i, row in enumerate(rows) if row[0]), 0)
            if not i:
                return 0
            rows = [rows[i], *rows[1:i], rows[0], *rows[i + 1:]]
            sign = -sign
        p, *top = rows[0]
        rows = [
            [(p * y - row[0] * t) // prev for y, t in zip(row[1:], top)] if row[0]
            # a row with no entry in the pivot column is only scaled by p / prev
            else row[1:] if p == prev else [p * y // prev for y in row[1:]]
            for row in rows[1:]
        ]
        prev = p
    if len(rows) == 2:
        (a, b), (c, d) = rows
        return sign * (a * d - b * c) // prev
    return sign * rows[0][0] if rows else 1


def coordinate_forms(
    vectors: Iterable[Sequence[int]], ambient_rank: int
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Integer linear forms that test the span and the coordinate signs.

    For k independent integer vectors b_1..b_k of length n, returns
    ``(equations, coordinates)``: n - k forms whose common zero set is the
    rational span of the b_i, and k forms f_i with f_i . (c_1 b_1 + ... +
    c_k b_k) = s_i c_i for fixed s_i > 0.  So v lies in the cone spanned by
    the b_i iff every equation vanishes on v and every coordinate form is
    nonnegative on v.  For k = n <= 3 the forms are read off cofactors
    (``_cofactor_forms``), otherwise off one elimination of [B | I]
    (``_elimination_forms``).  For k = n both routes give each f_i
    primitive, and so give the same forms.

    Raises DependentInput when the vectors are linearly dependent over Q.
    """
    cols = [tuple(v) for v in vectors]
    if any(len(c) != ambient_rank for c in cols):
        raise ValueError("vector length != ambient_rank")
    if len(cols) == ambient_rank <= 3:
        return _cofactor_forms(cols)
    return _elimination_forms(cols, ambient_rank)


def _elimination_forms(
    cols: list[tuple[int, ...]], ambient_rank: int
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """``coordinate_forms`` read off one elimination of [B | I], B the
    matrix with the k vectors as its columns.

    Row r < k of the reduced form, made primitive by the core, has its
    pivot in column r, and its right part, negated when that pivot is
    negative, is f_r; the right parts of the rows past them are the
    equations.
    """
    k = len(cols)
    reduced, pivots = _echelon(
        {j: c[i] for j, c in enumerate(cols) if c[i]} | {k + i: 1} for i in range(ambient_rank)
    )
    if pivots[:k] != list(range(k)):
        raise DependentInput("input vectors are linearly dependent over Q")
    right, zeros = range(k, k + ambient_rank), (0,) * ambient_rank
    forms = [tuple(map(row.get, right, zeros)) for row in reduced]
    coordinates = [
        f if reduced[r][r] > 0 else tuple(-x for x in f) for r, f in enumerate(forms[:k])
    ]
    return forms[k:], coordinates


def _cofactor_forms(
    cols: list[tuple[int, ...]]
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """``coordinate_forms`` of n independent vectors of length n, for small n.

    With the vectors as the rows of M, the cofactors of row i form the
    column i of adj(M), whose dot product with row j is det(M) if j = i and
    0 otherwise.  So f_i is that column times the sign of det(M), divided
    by the gcd of its entries.  Each cofactor is one ``_det`` of an
    (n - 1) x (n - 1) minor, which for n <= 3 is closed form; for larger n
    the n^2 minors cost more than one elimination.  There are no equations.
    """
    det = _det(cols)
    if not det:
        raise DependentInput("input vectors are linearly dependent over Q")
    n = len(cols)
    coordinates = []
    for i in range(n):
        others = cols[:i] + cols[i + 1:]
        f = [_det([r[:j] + r[j + 1:] for r in others]) for j in range(n)]
        f[1::2] = [-x for x in f[1::2]]
        # cofactor (i, j) is (-1)^(i + j) times minor (i, j); g carries the
        # sign of det(M) and the (-1)^i
        g = gcd(*f)
        if (det < 0) != (i % 2 == 1):
            g = -g
        coordinates.append(tuple([x // g for x in f]))
    return [], coordinates


# -- Smith normal form -----------------------------------------------------


def smith_normal_form(m: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Smith normal form of an integer matrix.

    Returns (U, D, V) with U * m * V = D, U and V unimodular, and D diagonal
    with nonnegative entries d_i | d_{i+1}, from ``_smith`` over Z on the
    rows of [m | I] and of I.
    """
    nrows, ncols = m.shape
    w = []
    for i, row in enumerate(m._d):
        r = [0] * (ncols + nrows)
        r[ncols + i] = 1
        for j, x in row.items():
            if type(x) is not int:
                x = Fraction(_number(x))
                if x.denominator != 1:
                    raise ValueError("smith_normal_form needs an integer matrix")
                x = x.numerator
            r[j] = x
        w.append(r)
    y = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    w, y, flipped = _smith(w, y, 0)
    k = len(y)
    x = [r[k:] for r in w]
    u, v = (y, x) if flipped else (x, y)
    # a matrix with no rows or no columns has an empty D and identity U and V
    diag = min(nrows, ncols)
    d = ({t: w[t][t]} if t < diag and w[t][t] else {} for t in range(nrows))
    return (Matrix._of((dict(filter(_second, enumerate(row))) for row in u), nrows),
            Matrix._of(d, ncols),
            Matrix._of((dict(filter(_second, enumerate(col))) for col in zip(*v)), ncols))


def invariant_factors(m: Matrix) -> list[int]:
    """Nonzero diagonal entries of the Smith normal form, in order.

    No transforms are kept.  First ``_unit_pivots`` eliminates +-1 pivots
    on the sparse rows of the elimination core; each is a unimodular step
    that contributes a factor 1.  The unit-free residual R, if any, has
    rank r, pivot rows and pivot columns from one ``_row_echelon`` pass.
    Let delta be |det| of the r x r submatrix of R on those rows and
    columns, by ``_det``.  It is a nonzero r x r minor, so d_1 ... d_r, the
    gcd of all of them, divides delta, and so does every d_i.  Over
    Z/delta, R is equivalent to diag(d_1, ..., d_r) mod delta, whose
    entries have gcd(d_i, delta) = d_i, except that d_i = delta reads 0.
    So ``_smith`` over Z/delta on R mod delta, with no transforms, leaves
    diagonal entries p_1, ..., p_r with gcd(p_i, delta) = d_i, where a
    p_i = 0 reads delta.
    """
    sparse, where = _sparse_rows(m._d, integer=True)
    units = _unit_pivots(sparse, where)
    residual = [row for row in sparse if row]
    if not residual:
        return [1] * units
    _, _, order, pivots = _row_echelon(residual)
    delta = abs(_det([[residual[i].get(c, 0) for c in pivots] for i in order]))
    cols = sorted(c for c, holders in where.items() if holders)
    w, _, _ = _smith([[row.get(c, 0) % delta for c in cols] for row in residual],
                     [[] for _ in cols], delta)
    return [1] * units + [gcd(w[t][t], delta) for t in range(len(pivots))]


def _unit_pivots(sparse: list[dict[int, int]], where: dict[int, set[int]]) -> int:
    """Eliminate +-1 pivots from integer rows in place; returns how many.

    Columns are visited by their current number of nonzeros (a heap whose
    stale entries are pushed back with the new count), and in a column the
    pivot is the unit entry whose row has the fewest nonzeros: a cheap
    approximation of the Markowitz order, least (row nnz - 1) * (column
    nnz - 1) first.  The pivot column is cleared from the other rows
    exactly (the pivot is +-1, so nothing is scaled), then the pivot row
    and column are dropped, as column steps would clear the rest of the
    row.  Clearing can create units, so columns passed over for want of one
    are visited again after any round that made a pivot.
    """
    count = 0
    todo = list(where)
    while todo:
        made = count
        heap = [(len(where[c]), c) for c in todo if where[c]]
        heapq.heapify(heap)
        todo = []
        while heap:
            n, c = heapq.heappop(heap)
            holders = where[c]
            if len(holders) != n:
                if holders:
                    heapq.heappush(heap, (len(holders), c))
                continue
            pi = -1
            for i in holders:
                if sparse[i][c] in (1, -1) and (pi < 0 or len(sparse[i]) < len(sparse[pi])):
                    pi = i
            if pi < 0:
                todo.append(c)
                continue
            prow = sparse[pi]
            p = prow[c]
            for k in [k for k in holders if k != pi]:
                _subtract(sparse[k], k, where, sparse[k][c] * p, prow)
            for j in prow:
                where[j].discard(pi)
            sparse[pi] = {}
            count += 1
        if count == made:
            break
    return count


def _smith(w: list[list[int]], y: list[list[int]], mod: int) -> tuple[
    list[list[int]], list[list[int]], bool
]:
    """The Smith loop over Z (``mod`` 0) or over Z/mod, for both
    ``smith_normal_form`` and ``invariant_factors``.

    ``w`` holds the rows of [A | X] and ``y``, apart, the rows of Y, with
    X * m * Y^T = A; a row step on [A | X] keeps that true.  Transposed,
    Y * m^T * X^T = A^T has the same form with the roles swapped, so a
    column step on A is a row step on [A^T | Y].  Without transforms, X and
    Y have empty rows, one per row and column of A.  Each pivot is the first
    entry of least gcd with ``mod`` (least absolute value over Z) in the
    remaining block, moved by ``_pivot``; Y gets its column swap as a row
    swap.  The pivot column is cleared by the row steps of ``_gcd_step``,
    which leave the gcd of the column at the pivot; if the pivot row is not
    clear, the loop transposes and clears it as a column.  Then a row of
    the block with an entry that gcd(pivot, mod) does not divide is added
    to the pivot row, to be cleared again.  Over Z/mod every row is reduced
    after each step.  A clearing that changes the pivot makes it a proper
    divisor of itself, so the loop ends.  Over Z a negative pivot row is
    negated.

    Returns the final rows of [A | X] and of Y, A now diagonal, and whether
    they are those of the transposed system.
    """
    flipped = False
    for t in range(min(len(w), len(y))):
        k = len(y)  # the columns of A
        j = _pivot(w, t, k, mod)
        if j is None:
            break
        y[t], y[j] = y[j], y[t]
        while True:
            for i in range(t + 1, len(w)):
                if w[i][t]:
                    w[t], w[i] = _gcd_step(w[t], w[i], t)
                    if mod:
                        w[t], w[i] = [x % mod for x in w[t]], [x % mod for x in w[i]]
            if any(w[t][t + 1:k]):
                # on to [A^T | Y]; zip stops at the k columns of A
                w, y = [[*col, *row] for col, row in zip(zip(*w), y)], [r[k:] for r in w]
                k = len(y)
                flipped = not flipped
                continue
            g = gcd(w[t][t], mod)
            rest = w[t + 1:] if g > 1 else ()  # a unit divides the rest
            offender = next((row for row in rest if any(x % g for x in row[t + 1:k])), None)
            if offender is None:
                break
            w[t] = [a + b for a, b in zip(w[t], offender)]
            if mod:
                w[t] = [x % mod for x in w[t]]
        if w[t][t] < 0:
            w[t] = [-x for x in w[t]]
    return w, y, flipped


def _pivot(a: list[list[int]], t: int, k: int, mod: int) -> int | None:
    """Move the first nonzero entry of least gcd with ``mod`` in the block
    a[t:][t:k], in row-major order, to (t, t) by a row and a column swap,
    and return its column; None when the block is zero.  gcd(0, x) = |x|,
    so over Z that is the least absolute value.  No gcd is below 1, so the
    search ends with the row of the first entry of gcd 1.
    """
    best = None
    for i in range(t, len(a)):
        row = a[i]
        for j in range(t, k):
            if row[j]:
                g = gcd(mod, row[j])
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
    """Rows p and q after a 2 x 2 row step of determinant 1 that takes
    their entries a = p[c] != 0 and b = q[c] to (g, 0), g = +-gcd(a, b).

    When a divides b, p stays as it is and q becomes q - (b / a) * p; any
    other step with g = a would move the pivot and refill what was cleared.
    Otherwise the extended Euclidean algorithm gives s * a + t * b = g, p
    becomes s * p + t * q and q becomes (a / g) * q - (b / g) * p.  g > 0
    when a and b are.
    """
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
