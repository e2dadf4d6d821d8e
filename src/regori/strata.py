"""Singularity data of a translation surface: a multiset of zero orders."""

from __future__ import annotations

import re
from dataclasses import dataclass


@dataclass(frozen=True)
class Stratum:
    """Zero orders with multiplicity, stored descending. Empty means the torus.

    Strata of actual surfaces have even total order; odd-total multisets
    are representable so that queries about them can be answered (they are
    empty as sets of surfaces).
    """

    zeros: tuple

    def __post_init__(self):
        zeros = tuple(sorted(self.zeros, reverse=True))
        if any(k < 1 for k in zeros):
            raise ValueError("zero orders must be positive")
        object.__setattr__(self, "zeros", zeros)

    @property
    def realizable(self) -> bool:
        return sum(self.zeros) % 2 == 0

    @property
    def genus(self) -> int:
        if not self.realizable:
            raise ValueError(f"{self} has odd total order: no surface carries it")
        return sum(self.zeros) // 2 + 1

    def uniform(self):
        """(k, multiplicity) when all zeros share one order, else None."""
        # zeros are sorted descending, so the ends decide uniformity
        if self.zeros and self.zeros[0] == self.zeros[-1]:
            return self.zeros[0], len(self.zeros)
        return None

    def counts(self) -> list:
        """(order, multiplicity) pairs, descending order."""
        out = []
        for k in self.zeros:
            if out and out[-1][0] == k:
                out[-1][1] += 1
            else:
                out.append([k, 1])
        return [(k, s) for k, s in out]

    def __str__(self):
        if not self.zeros:
            return "H()"
        parts = []
        for k, s in self.counts():
            parts.append(f"{k}^{s}" if s > 1 else str(k))
        return "H(" + ",".join(parts) + ")"


def uniform_stratum(k: int, s: int) -> Stratum:
    return Stratum((k,) * s)


_PART = re.compile(r"^(\d+)(?:\^(\d+))?$")


def parse_stratum(text: str) -> Stratum:
    """Parse ``H(k1^s1,...)`` with optional ^1 and ignorable whitespace."""
    s = re.sub(r"\s+", "", text)
    m = re.fullmatch(r"[Hh]\((.*)\)", s)
    if not m:
        raise ValueError(f"cannot parse stratum {text!r}")
    body = m.group(1)
    if not body:
        return Stratum(())
    zeros = []
    for part in body.split(","):
        pm = _PART.fullmatch(part)
        if not pm:
            raise ValueError(f"bad stratum entry {part!r} in {text!r}")
        k = int(pm.group(1))
        mult = int(pm.group(2) or 1)
        zeros.extend([k] * mult)
    return Stratum(tuple(zeros))
