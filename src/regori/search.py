"""The translation-count maximum t(g) over genus-g surfaces.

For each admissible singularity order m the candidate count is
2(m+1)(g-1)/m, decreasing in m, so the orders are scanned ascending and
the first constructive hit is the exact maximum. A gap in the
classification turns the answer into a certified interval instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvalidGenus
from .numtheory import divisors
from .oracle import EXISTS, NOT_EXISTS, UNKNOWN, ExistenceVerdict, decide_uniform
from .strata import uniform_stratum

EXACT = "exact"
INTERVAL = "interval"

# tag for genera whose maximum 4(g-1) comes from the known classification
# of the top-slope case rather than a materializable witness here
G1_TAG = "cited:G1"
ONE_CYLINDER_TAG = "onecyl"


def candidate_ms(g: int) -> list:
    """Divisors m of 2(g-1) with 3 and 4 ruled out, ascending, then None.

    None stands for the infinite sentinel: the one-cylinder surface always
    realizes 2(g-1) translations, whatever the divisors do.
    """
    if g < 2:
        raise InvalidGenus(f"need genus at least 2, got {g}")
    out = [m for m in divisors(2 * (g - 1)) if m % 3 != 0 and m % 4 != 0]
    out.append(None)
    return out


def t_candidate(g: int, m) -> int:
    if m is None:
        return 2 * (g - 1)
    return 2 * (g - 1) // m * (m + 1)


@dataclass(frozen=True)
class TransBound:
    """Exact value or certified interval for t(g), with the scan record."""

    g: int
    status: str
    lower: int
    upper: int
    m: int | None
    witness: str
    first_unknown_m: int | None = None
    blocking: tuple = field(default_factory=tuple)

    @property
    def exact(self) -> bool:
        return self.status == EXACT


def _g1_exists(g: int) -> bool:
    return (g - 1) % 2 == 0 or (g - 1) % 3 == 0


def _verdict_for_m(g: int, m, budget: int) -> ExistenceVerdict:
    if m is None:
        return ExistenceVerdict(EXISTS, witness=f"{ONE_CYLINDER_TAG}({g})")
    if m == 1:
        if _g1_exists(g):
            return ExistenceVerdict(EXISTS, witness=G1_TAG)
        return ExistenceVerdict(NOT_EXISTS, reason="g1_classification")
    l = 2 * (g - 1) // m
    verdict = decide_uniform(m, l)
    if verdict.status == UNKNOWN and budget:
        order = (m + 1) * l
        if order <= budget:
            verdict = _resolve_by_enumeration(uniform_stratum(m, l), order)
    return verdict


def _resolve_by_enumeration(stratum, order: int) -> ExistenceVerdict:
    from .enumerator import enumerate_regular, witnesses_for_stratum

    hits = witnesses_for_stratum(enumerate_regular(order, budget=order), stratum)
    if hits:
        return ExistenceVerdict(EXISTS, witness="origami:" + hits[0].origami.serialize())
    return ExistenceVerdict(NOT_EXISTS, reason="enumerated_empty")


def t_of_g(g: int, budget: int = 0) -> TransBound:
    """Scan singularity orders ascending; stop at the first constructive hit.

    An Unknown before that hit caps the answer from above and the hit
    itself (always reached: the sentinel is constructive) gives the
    realized lower bound.
    """
    blocking = []
    first_unknown = None
    for m in candidate_ms(g):
        verdict = _verdict_for_m(g, m, budget)
        cand = t_candidate(g, m)
        if verdict.status == EXISTS:
            if first_unknown is None:
                return TransBound(
                    g, EXACT, cand, cand, m, verdict.witness, None, tuple(blocking)
                )
            return TransBound(
                g,
                INTERVAL,
                cand,
                first_unknown[1],
                m,
                verdict.witness,
                first_unknown[0],
                tuple(blocking),
            )
        if verdict.status == UNKNOWN and first_unknown is None:
            first_unknown = (m, cand)
        blocking.append((m, verdict.status, verdict.reason))
    raise AssertionError("sentinel is always constructive")  # pragma: no cover
