"""Lookups on weight spectral sequence results that only the tests read.

``complex_at`` was ``weight_ss.SpectralPage.complex_at`` and
``residue_projection`` was ``weight_ss.FnFiltrationReport.residue_projection``;
no library code called either, so they left ``weight_ss`` and live here,
taking the page or the report as their first argument.
"""

from __future__ import annotations

from fanhodge.linalg import Matrix
from fanhodge.weight_ss import BidegreeComplex, FnFiltrationReport, SpectralPage


def complex_at(page: SpectralPage, P: int, Q: int) -> BidegreeComplex | None:
    """The bidegree complex of (P, Q) on the page, or None."""
    return dict(page.complexes or ()).get((P, Q))


def residue_projection(report: FnFiltrationReport, m: int, stratum_id: str) -> Matrix:
    """Rows of the kernel basis belonging to one codim-m stratum."""
    found = report.kernel_basis(m)
    if found is None:
        raise KeyError(f"no kernel data at weight offset {m}")
    basis, rows = found
    idx = [i for i, (sid, _) in enumerate(rows) if sid == stratum_id]
    return basis.submatrix(idx, range(basis.cols))
