"""Singularity data of a translation surface: a multiset of zero orders."""

from __future__ import annotations

import re


class Stratum:
    """Zero orders with multiplicity. Empty means the torus.

    Kept as (order, multiplicity) pairs with descending orders, so H(k^l)
    costs O(1) whatever l is; `zeros` lists them one by one. Strata of
    actual surfaces have even total order; odd-total multisets are
    representable so that queries about them can be answered (they are
    empty as sets of surfaces).
    """

    __slots__ = ("_counts",)

    def __init__(self, zeros=()):
        self._counts = _merge((k, 1) for k in zeros)

    @classmethod
    def from_counts(cls, pairs) -> "Stratum":
        """From (order, multiplicity) pairs in any order; repeated orders add up."""
        stratum = cls.__new__(cls)
        stratum._counts = _merge(pairs)
        return stratum

    @property
    def zeros(self) -> tuple:
        """Zero orders one by one, descending."""
        return tuple(k for k, s in self._counts for _ in range(s))

    def __eq__(self, other):
        return isinstance(other, Stratum) and self._counts == other._counts

    def __hash__(self):
        return hash(self._counts)

    def __repr__(self):
        return f"Stratum.from_counts({self._counts!r})"

    @property
    def realizable(self) -> bool:
        return self._total() % 2 == 0

    def _total(self) -> int:
        return sum(k * s for k, s in self._counts)

    @property
    def genus(self) -> int:
        if not self.realizable:
            raise ValueError(f"{self} has odd total order: no surface carries it")
        return self._total() // 2 + 1

    def uniform(self):
        """(k, multiplicity) when all zeros share one order, else None."""
        return self._counts[0] if len(self._counts) == 1 else None

    def counts(self) -> list:
        """(order, multiplicity) pairs, descending order."""
        return list(self._counts)

    def __str__(self):
        parts = (f"{k}^{s}" if s > 1 else str(k) for k, s in self._counts)
        return "H(" + ",".join(parts) + ")"


def _merge(pairs) -> tuple:
    total = {}
    for k, s in pairs:
        if s > 0:
            if k < 1:
                raise ValueError("zero orders must be positive")
            total[k] = total.get(k, 0) + s
    return tuple(sorted(total.items(), reverse=True))


def uniform_stratum(k: int, s: int) -> Stratum:
    return Stratum.from_counts([(k, s)])


_PART = re.compile(r"^(\d+)(?:\^(\d+))?$")


def parse_stratum(text: str) -> Stratum:
    """Parse ``H(k1^s1,...)`` with optional ^1 and ignorable whitespace."""
    s = re.sub(r"\s+", "", text)
    m = re.fullmatch(r"[Hh]\((.*)\)", s)
    if not m:
        raise ValueError(f"cannot parse stratum {text!r}")
    body = m.group(1)
    pairs = []
    for part in body.split(",") if body else ():
        pm = _PART.fullmatch(part)
        if not pm:
            raise ValueError(f"bad stratum entry {part!r} in {text!r}")
        pairs.append((int(pm.group(1)), int(pm.group(2) or 1)))
    return Stratum.from_counts(pairs)
