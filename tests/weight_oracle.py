"""Lookups and previous definitions of weight spectral sequence results that
only the tests read.

``weight_graded`` is the previous staged E2: ``weight_ss.e1_page``, then
``d1``, which built the signed Gysin complex of every normalized bidegree
on the page's antidiagonals (``page_bidegrees``) and was attached to the
page as ``SpectralPage.complexes``, then ``e2_page``, which ranked the maps
into and out of each entry's column.  ``weight_ss.weight_graded`` now reads
each column by one routine, with no page of complexes.

``is_effective``, ``f_graded_dim``, ``total_dim`` and ``weights_in_range``
were ``mhs.is_effective``, ``mhs.f_graded_dim`` and the ``total_dim`` and
``weights_in_range`` members of ``mhs.MixedHSTable``; no library code read
them.

``weight_ss.weight_filtration_on_FnHn`` reads each graded dimension off a
rank and keeps no kernel basis.  ``kernel_basis`` computes the basis that
its report kept, by the library's previous ``rational_kernel_basis`` (now in
``dense_oracle``), and ``residue_projection``, which was a method of the
report, reads its rows of one stratum.  ``e1_page`` is the previous E1
page: the sum of the Tate twists of the strata tables, in id order, by
``tate_twist`` and ``direct_sum``, which were ``mhs.tate_twist`` and
``mhs.PureHS.__add__``.

``facets`` is ``StrataComplex._facets`` as it was: each stratum's facets
sorted by a key function that looks up their strata positions by id.
"""

from __future__ import annotations

from dense_oracle import rational_kernel_basis, submatrix
from fanhodge.linalg import Matrix, rank
from fanhodge.mhs import MixedHSTable, PureHS
from fanhodge.weight_ss import (
    BidegreeComplex,
    SpectralPage,
    StrataComplex,
    Stratum,
    _bidegrees_for_antidiagonal,
    bidegree_complex,
    e1_page as library_e1_page,
)

Complexes = tuple[tuple[tuple[int, int], BidegreeComplex], ...]


def page_bidegrees(sc: StrataComplex, k: int) -> list[tuple[int, int]]:
    """The normalized bidegrees on the antidiagonals k .. k + min(k, n) that
    carry dimension: those of the E1 page of degree k."""
    return [(P, Q) for w in range(k, k + min(k, sc.n) + 1)
            for P, Q in _bidegrees_for_antidiagonal(sc, w)]


def d1(sc: StrataComplex, page: SpectralPage) -> Complexes:
    """The signed Gysin complexes of the page; verifies d1 o d1 = 0."""
    return tuple(((P, Q), bidegree_complex(sc, P, Q)) for P, Q in page_bidegrees(sc, page.k))


def e2_page(page: SpectralPage, complexes: Complexes) -> MixedHSTable:
    """E2 = E-infinity dimensions: the weight graded Hodge table of H^k."""
    graded = []
    for (p, q), _ in page.entries:
        m = -p
        w = q  # = k + m
        table: dict[tuple[int, int], int] = {}
        for (P, Q), bc in complexes:
            if P + Q != w:
                continue
            # dim ker maps[m] - rank maps[m+1]; the zero maps past either end
            # are not ranked
            ranks = (rank(bc.maps[i]) for i in (m, m + 1) if 0 < i < len(bc.maps))
            dim = bc.dim(m) - sum(ranks)
            if dim:
                table[(P, Q)] = dim
        graded.append(PureHS(w, table))
    return MixedHSTable(page.k, [h for h in graded if not h.is_zero()])


def weight_graded(sc: StrataComplex, k: int) -> MixedHSTable:
    """E1 -> d1 -> E2, staged."""
    page = library_e1_page(sc, k)
    return e2_page(page, d1(sc, page))


def is_effective(h: PureHS) -> bool:
    """True iff only indices with p >= 0 and q >= 0 carry dimension."""
    return all(p >= 0 and q >= 0 for (p, q), _ in h.hodge_numbers)


def f_graded_dim(h: PureHS, p: int) -> int:
    """Dimension of the p-th Hodge filtration step: sum of h^{p',q} for p' >= p."""
    return sum(d for (pp, _), d in h.hodge_numbers if pp >= p)


def total_dim(t: MixedHSTable) -> int:
    return sum(h.dim for h in t.graded)


def weights_in_range(t: MixedHSTable, n: int) -> bool:
    """Weight support allowed for H^k of an n-fold: [k, min(2k, 2n)]."""
    k = t.degree
    return all(k <= h.weight <= min(2 * k, 2 * n) for h in t.graded if not h.is_zero())


def kernel_basis(sc: StrataComplex, m: int) -> tuple[Matrix, tuple[tuple[str, int], ...]] | None:
    """The kernel basis (columns) of the signed Gysin map out of column m at
    bidegree (n, m) and its row basis, the (stratum id, index) of each row;
    None when that column is empty."""
    bc = bidegree_complex(sc, sc.n, m)
    if bc.dim(m) == 0:
        return None
    return rational_kernel_basis(bc.map_out(m)), bc.basis[m]


def residue_projection(sc: StrataComplex, m: int, stratum_id: str) -> Matrix:
    """Rows of the kernel basis belonging to one codim-m stratum."""
    found = kernel_basis(sc, m)
    if found is None:
        raise KeyError(f"no kernel data at weight offset {m}")
    basis, rows = found
    idx = [i for i, (sid, _) in enumerate(rows) if sid == stratum_id]
    return submatrix(basis, idx, range(basis.cols))


def tate_twist(h: PureHS, m: int) -> PureHS:
    """(-m)-th Tate twist: weight += 2m, each (p,q) -> (p+m, q+m)."""
    return PureHS(
        h.weight + 2 * m,
        {(p + m, q + m): d for (p, q), d in h.hodge_numbers},
    )


def direct_sum(a: PureHS, b: PureHS) -> PureHS:
    """Direct sum (weights must agree)."""
    if a.weight != b.weight:
        raise ValueError("direct sum of different weights")
    table = dict(a.hodge_numbers)
    for pq, d in b.hodge_numbers:
        table[pq] = table.get(pq, 0) + d
    return PureHS(a.weight, table)


def e1_page(sc: StrataComplex, k: int) -> SpectralPage:
    """Entry (-m, k+m) = Tate twist by m of degree (k-m) cohomology of D(m),
    summed over the codimension-m strata in id order."""
    entries = []
    for m in range(0, min(k, sc.n) + 1):
        deg = k - m
        total = PureHS(k + m)
        for s in sorted(sc.strata_of_codim(m), key=lambda s: s.id):
            for d, hs in s.cohomology:
                if d == deg:
                    total = direct_sum(total, tate_twist(hs, m))
        entries.append(((-m, k + m), total))
    return SpectralPage(k=k, n=sc.n, entries=tuple(entries))


def facets(sc: StrataComplex) -> dict[str, tuple[tuple[Stratum, int], ...]]:
    """Per stratum id, its codimension-1 facets in strata order, each with
    the sign (-1)^(i-1) of the omitted component's position i."""
    position = {s.id: i for i, s in enumerate(sc.strata)}
    by_index_set: dict[tuple[str, ...], list[Stratum]] = {}
    for s in sc.strata:
        by_index_set.setdefault(s.index_set, []).append(s)
    out = {}
    for s in sc.strata:
        found = [
            (t, -1 if i % 2 else 1)
            for i in range(s.codim)
            for t in by_index_set.get(s.index_set[:i] + s.index_set[i + 1 :], ())
        ]
        found.sort(key=lambda ts: position[ts[0].id])
        out[s.id] = tuple(found)
    return out
