"""Dimension bookkeeping for Siegel operators and the corank filtration.

Given a cusp inventory (labels and dimension counts only), this module emits
the dimension identities forced on the canonical-form space: exact graded
dimensions where the corank gaps allow, cokernel bounds in the n(1)=1 case,
surjectivity flags, and the n(1)=1 exact-sequence defect.  It never computes
modular forms; everything here is arithmetic on supplied counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidParams, MissingInput, expect, member
from .stairs import CorankData

NONNEAT_NOTE = (
    "non-neat group: all dimension identities apply to the G-invariant "
    "dimensions (G the finite quotient acting on the neat cover)"
)


# the optional global counts of an inventory, in JSON order
_GLOBAL_COUNTS = ("dim_M_can", "dim_Omega_n_minus_1", "dim_GrW_np1_Fn",
                  "dim_H0K_corank1", "dim_Hn1", "dim_FnW_np1")


@dataclass(frozen=True)
class CuspRecord:
    """One cusp: its label, dim S_cat(F), and dim U(F) (which fixes its corank)."""

    label: str
    dim_S_cat: int
    dim_U: int

    def __post_init__(self):
        if self.dim_S_cat < 0 or self.dim_U < 0:
            raise InvalidParams(f"cusp {self.label!r}: negative dimension count")


@dataclass(frozen=True)
class CuspInventory:
    """Cusps plus optional global dimension data for cross-checks.

    The four n(1)=1 exact-sequence terms are, in order: dim Gr^W_{n+1}F^n,
    the total dim H^0(K) over corank-1 cusps, dim H^{n,1} (= dim Omega^{n-1}
    by the Lefschetz pairing on the cusp), and dim F^n W_{n+1} H^{n+1}.
    A negative global count raises InvalidParams that names its key.
    """

    cusps: tuple[CuspRecord, ...] = ()
    dim_M_can: int | None = None
    dim_Omega_n_minus_1: int | None = None
    dim_GrW_np1_Fn: int | None = None
    dim_H0K_corank1: int | None = None
    dim_Hn1: int | None = None
    dim_FnW_np1: int | None = None
    neat: bool = True

    def __post_init__(self):
        object.__setattr__(self, "cusps", tuple(self.cusps))
        for key in _GLOBAL_COUNTS:
            value = getattr(self, key)
            if value is not None and value < 0:
                raise InvalidParams(f"{key}: negative dimension count")

    def cusps_of_corank(self, cd: CorankData, i: int) -> tuple[CuspRecord, ...]:
        return tuple(c for c in self.cusps if c.dim_U == cd.n_of(i))

    @staticmethod
    def from_dict(data: dict) -> "CuspInventory":
        """Read the JSON form.  Counts must be ints (not bool, float or
        string) and ``neat`` a bool; a value of the wrong JSON type raises a
        ValueError, and a missing key a KeyError, that names its path."""
        expect(data, dict)
        cusps = []
        for i, c in enumerate(expect(data.get("cusps", []), list, "cusps")):
            expect(c, dict, "cusps", i)
            cusps.append(CuspRecord(member(c, "label", str, "cusps", i),
                                    member(c, "dim_S_cat", int, "cusps", i),
                                    member(c, "dim_U", int, "cusps", i)))
        counts = {}
        for key in _GLOBAL_COUNTS:
            value = data.get(key)
            counts[key] = None if value is None else expect(value, int, key)
        return CuspInventory(cusps=tuple(cusps), neat=expect(data.get("neat", True), bool, "neat"),
                             **counts)


@dataclass(frozen=True)
class GradedDim:
    """Dimension of one corank-graded piece of the canonical-form space."""

    i: int
    n_i: int
    sum_S_cat: int
    kind: str  # "exact" | "bounds" | "conditional"
    value: int | None = None
    bounds: tuple[int, int] | None = None

    def to_dict(self) -> dict:
        out = {"i": self.i, "n_i": self.n_i, "sum_S_cat": self.sum_S_cat,
               "kind": self.kind}
        if self.value is not None:
            out["value"] = self.value
        if self.bounds is not None:
            out["bounds"] = list(self.bounds)
        return out


def _validate_inventory(cd: CorankData, inv: CuspInventory) -> None:
    for cusp in inv.cusps:
        if cusp.dim_U not in cd.n_seq:
            raise InvalidParams(
                f"cusp {cusp.label!r} has dim U = {cusp.dim_U}, "
                f"not one of n_seq {cd.n_seq}"
            )


def graded_dims(cd: CorankData, inv: CuspInventory) -> list[GradedDim]:
    """Per-corank dimensions of Gr(M_can), exact when n(i)-n(i-1) > 1.

    When n(1) = 1 the corank-1 piece only has an injection into the sum of
    cusp spaces with cokernel controlled by Omega^{n-1}; the entry becomes
    a two-sided bound and requires dim_Omega_n_minus_1.  Any other corank
    gap of 1 yields a conditional entry with no asserted value.
    """
    _validate_inventory(cd, inv)
    out = []
    for i in range(1, cd.r + 1):
        total = sum(c.dim_S_cat for c in inv.cusps_of_corank(cd, i))
        gap = cd.n_of(i) - cd.n_of(i - 1)
        if gap > 1:
            out.append(GradedDim(i, cd.n_of(i), total, "exact", value=total))
        elif i == 1 and cd.n_of(1) == 1:
            if inv.dim_Omega_n_minus_1 is None:
                raise MissingInput(
                    "n(1)=1 bound needs dim_Omega_n_minus_1 in the inventory"
                )
            lo = max(0, total - inv.dim_Omega_n_minus_1)
            out.append(GradedDim(i, 1, total, "bounds", bounds=(lo, total)))
        else:
            out.append(GradedDim(i, cd.n_of(i), total, "conditional"))
    return out


def surjectivity_flags(cd: CorankData) -> list[tuple[int, str]]:
    """Per-corank surjectivity of the cuspidal total Siegel operator."""
    flags = []
    for i in range(1, cd.r + 1):
        ok = cd.n_of(i) - cd.n_of(i - 1) > 1 or (i > 1 and cd.q_simple)
        flags.append((i, "Surjective" if ok else "Obstructed-by-Omega^{n-1}"))
    return flags


def exact_sequence_check_n1(inv: CuspInventory) -> int:
    """Alternating-sum defect of the four-term n(1)=1 exact sequence.

    Returns |dim Gr^W_{n+1}F^n - sum dim H^0(K) + dim H^{n,1}
    - dim F^n W_{n+1} H^{n+1}|; zero means consistent.
    """
    terms = (inv.dim_GrW_np1_Fn, inv.dim_H0K_corank1, inv.dim_Hn1, inv.dim_FnW_np1)
    if any(t is None for t in terms):
        raise MissingInput(
            "exact_sequence_check_n1 needs dim_GrW_np1_Fn, dim_H0K_corank1, "
            "dim_Hn1, dim_FnW_np1"
        )
    a, b, c, d = terms
    return abs(a - b + c - d)


def nonneat_note(inv: CuspInventory) -> str | None:
    """Annotation attached to every identity when the group is not neat."""
    return None if inv.neat else NONNEAT_NOTE


def report(cd: CorankData, inv: CuspInventory) -> dict:
    """Assembled JSON-ready report of all identities and flags."""
    grades = graded_dims(cd, inv)
    note = nonneat_note(inv)
    out: dict = {
        "corank_data": cd.to_dict(),
        "graded_dims": [g.to_dict() for g in grades],
        "surjectivity": [
            {"i": i, "flag": flag} for i, flag in surjectivity_flags(cd)
        ],
    }
    if inv.dim_M_can is not None:
        if all(g.kind == "exact" for g in grades):
            total = sum(g.value for g in grades)
            out["dim_M_can_check"] = {
                "supplied": inv.dim_M_can,
                "sum_of_graded": total,
                "consistent": total == inv.dim_M_can,
            }
        else:
            out["dim_M_can_check"] = {
                "supplied": inv.dim_M_can,
                "consistent": None,
                "note": "not all graded pieces are exact",
            }
    n1_terms = (inv.dim_GrW_np1_Fn, inv.dim_H0K_corank1, inv.dim_Hn1,
                inv.dim_FnW_np1)
    if all(t is not None for t in n1_terms):
        defect = exact_sequence_check_n1(inv)
        out["n1_exact_sequence"] = {"defect": defect, "consistent": defect == 0}
    if note is not None:
        out["nonneat_note"] = note
        for g in out["graded_dims"]:
            g["note"] = note
        for f in out["surjectivity"]:
            f["note"] = note
        if "n1_exact_sequence" in out:
            out["n1_exact_sequence"]["note"] = note
    return out
