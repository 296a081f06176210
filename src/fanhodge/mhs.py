"""Formal Hodge-structure bookkeeping: dimension tables.

A pure Hodge structure is recorded only through its Hodge numbers h^{p,q};
a mixed one through the Hodge numbers of its weight graded pieces.  This is
all the downstream dimension identities need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import expect


@dataclass(frozen=True)
class PureHS:
    """Pure Hodge structure of one weight, as a table (p,q) -> dimension."""

    weight: int
    hodge_numbers: tuple[tuple[tuple[int, int], int], ...] = ()

    def __init__(self, weight: int, hodge_numbers: Mapping[tuple[int, int], int] = ()):
        items = dict(hodge_numbers)
        for (p, q), d in items.items():
            if p + q != weight:
                raise ValueError(f"(p,q)=({p},{q}) has p+q != weight {weight}")
            if d < 0:
                raise ValueError("negative Hodge number")
        cleaned = tuple(sorted((pq, d) for pq, d in items.items() if d != 0))
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "hodge_numbers", cleaned)
        # lookup table for h(); not a field, so equality and hashing ignore it
        object.__setattr__(self, "_table", dict(cleaned))

    def h(self, p: int, q: int) -> int:
        return self._table.get((p, q), 0)

    @property
    def dim(self) -> int:
        return sum(d for _, d in self.hodge_numbers)

    def is_zero(self) -> bool:
        return self.dim == 0

    def to_dict(self) -> dict:
        return {
            "weight": self.weight,
            "h": {f"{p},{q}": d for (p, q), d in self.hodge_numbers},
        }

    @staticmethod
    def from_dict(data: dict, path: str = "") -> "PureHS":
        """Read the JSON form; the weight and every Hodge number must be an
        int (not bool or float), else ValueError names ``path`` and the key;
        a missing weight raises KeyError, and a table the constructor
        rejects ValueError, naming ``path`` and the key.  Two keys that name
        one (p,q), such as "0,0" and "00,0", raise ValueError naming both."""
        expect(data, dict, path.rstrip("."))
        try:
            weight = data["weight"]
        except KeyError:
            raise KeyError(f"{path}weight") from None
        if type(weight) is not int:
            raise ValueError(f"{path}weight: expected int, got {weight!r}")
        table, keys = {}, {}
        for key, d in expect(data.get("h", {}), dict, path, "h").items():
            if type(d) is not int:
                raise ValueError(f"{path}h[{key!r}]: expected int, got {d!r}")
            try:
                p, q = (int(x) for x in key.split(","))
            except (AttributeError, ValueError):
                raise ValueError(f"{path}h[{key!r}]: expected a key 'p,q' of two ints") from None
            if (p, q) in keys:
                raise ValueError(f"{path}h: keys {keys[(p, q)]!r} and {key!r} both name ({p},{q})")
            table[(p, q)] = d
            keys[(p, q)] = key
        try:
            return PureHS(weight, table)
        except ValueError as exc:
            raise ValueError(f"{path}h: {exc}") from None


@dataclass(frozen=True)
class MixedHSTable:
    """Weight-graded Hodge data of one cohomology degree."""

    degree: int
    graded: tuple[PureHS, ...] = ()

    def __init__(self, degree: int, graded: Iterable[PureHS] = ()):
        pieces = tuple(sorted(graded, key=lambda h: h.weight))
        weights = [h.weight for h in pieces]
        if len(set(weights)) != len(weights):
            raise ValueError("duplicate weight in graded pieces")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "graded", pieces)

    def piece(self, weight: int) -> PureHS:
        for h in self.graded:
            if h.weight == weight:
                return h
        return PureHS(weight)

    def graded_dim(self, weight: int) -> int:
        return self.piece(weight).dim

    def to_dict(self) -> dict:
        return {
            "degree": self.degree,
            "graded": [h.to_dict() for h in self.graded if not h.is_zero()],
        }
