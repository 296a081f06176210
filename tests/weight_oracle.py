"""Lookups and previous definitions of weight spectral sequence results that
only the tests read.

``complex_at`` was ``weight_ss.SpectralPage.complex_at``; no library code
called it, so it left ``weight_ss`` and lives here, taking the page as its
first argument.

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
from fanhodge.linalg import Matrix
from fanhodge.mhs import PureHS
from fanhodge.weight_ss import (
    BidegreeComplex,
    SpectralPage,
    StrataComplex,
    Stratum,
    bidegree_complex,
)


def complex_at(page: SpectralPage, P: int, Q: int) -> BidegreeComplex | None:
    """The bidegree complex of (P, Q) on the page, or None."""
    return dict(page.complexes or ()).get((P, Q))


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
