"""Embedded reference rows and the report generators built on them.

The small-genus table lists the best known translation counts; rows backed
by a proof reproduce exactly, rows found by randomized search are reported
as intervals containing the listed value. The progression table pins the
smallest admissible prime per singularity order, and the summary table
classifies which orders occur at all.
"""

from __future__ import annotations

from dataclasses import dataclass

from .numtheory import cofactor_z, smallest_progression_prime
from .search import EXACT, INTERVAL, t_of_g

# genus -> (t, m, stratum text, group text, certified)
# uncertified rows rest on randomized search and are interval targets
SMALL_GENUS_ROWS = {
    26: (55, 10, "H(10^5)", "Z/11 : Z/5", True),
    122: (253, 22, "H(22^11)", "Z/23 : Z/11", True),
    126: (275, 10, "H(10^25)", "(Z/11 : Z/5) x Z/5", False),
    176: (385, 10, "H(10^35)", "(Z/11 : Z/5) x Z/7", False),
    246: (497, 70, "H(70^7)", "Z/71 : Z/7", False),
    276: (660, 5, "H(5^110)", "PSL(2,11)", True),
    326: (715, 10, "H(10^65)", "(Z/11 : Z/5) x Z/13", False),
    426: (935, 10, "H(10^85)", "(Z/11 : Z/5) x Z/17", False),
    456: (1092, 5, "H(5^182)", "PSL(2,13)", True),
    476: (1045, 10, "H(10^95)", "(Z/11 : Z/5) x Z/19", False),
    530: (1081, 46, "H(46^23)", "Z/47 : Z/23", True),
    576: (1265, 10, "H(10^115)", "(Z/11 : Z/5) x Z/23", False),
    606: (1331, 10, "H(10^121)", "Z/121 : Z/11", False),
    626: (1375, 10, "H(10^125)", "(Z/11 : Z/5) x Z/25", False),
    726: (1595, 10, "H(10^145)", "(Z/11 : Z/5) x Z/29", False),
    776: (1705, 10, "H(10^155)", "(Z/11 : Z/5) x Z/31", False),
    834: (1673, 238, "H(238^7)", "Z/239 : Z/7", False),
    842: (1711, 58, "H(58^29)", "Z/59 : Z/29", True),
    846: (1703, 130, "H(130^13)", "Z/131 : Z/13", False),
    848: (1771, 22, "H(22^77)", "(Z/23 : Z/11) x Z/7", False),
    876: (1925, 10, "H(10^175)", "(Z/11 : Z/5) x Z/35", False),
}

# singularity order m -> (smallest progression prime p, genus, group order)
PROGRESSION_ROWS = {
    5: (11, 276, 660),
    11: (23, 2784, 6072),
    17: (37, 11952, 25308),
    23: (47, 24864, 51888),
    29: (59, 49620, 102660),
    41: (83, 139524, 285852),
    53: (107, 300564, 612468),
}

# order m -> expected classification in the summary table
SUMMARY_ROWS = {
    1: "nonempty",
    2: "empty", 3: "empty", 4: "empty",
    5: "progressions",
    6: "empty", 7: "empty", 8: "empty", 9: "empty",
    10: "nonempty",
    11: "progressions",
    12: "empty",
    13: "unknown", 14: "unknown",
    15: "empty", 16: "empty",
    17: "progressions",
    18: "empty",
    19: "unknown",
    20: "empty", 21: "empty",
    22: "nonempty",
    23: "progressions",
    24: "empty",
    25: "unknown",
}


@dataclass(frozen=True)
class RowReport:
    key: int
    expected: tuple
    computed: tuple
    match: bool
    note: str = ""


def _is_power_of_two_minus_one(m: int) -> bool:
    v = m + 1
    return v >= 4 and v & (v - 1) == 0


def _is_sophie_germain_double(m: int) -> bool:
    from .numtheory import is_prime

    return m % 2 == 0 and is_prime(m // 2) and m // 2 >= 5 and is_prime(m + 1)


def classify_order(m: int) -> str:
    """Status of the set of genera with singularity order m at the maximum."""
    from .numtheory import is_prime

    if m == 1:
        return "nonempty"
    if m % 3 == 0 or m % 4 == 0:
        return "empty"
    if m == 2 or _is_power_of_two_minus_one(m):
        return "empty"
    if is_prime(m) and m >= 5 and m % 3 == 2:
        return "progressions"
    if _is_sophie_germain_double(m):
        return "nonempty"
    return "unknown"


def report_small_genus(rows=None) -> list:
    """Recompute the small-genus rows and compare with the embedded table."""
    for g in rows or ():
        if g not in SMALL_GENUS_ROWS:
            known = ", ".join(map(str, sorted(SMALL_GENUS_ROWS)))
            raise ValueError(f"no reference row for genus {g}; known genera: {known}")
    out = []
    for g in sorted(rows or SMALL_GENUS_ROWS):
        t, m, stratum_text, group_text, certified = SMALL_GENUS_ROWS[g]
        bound = t_of_g(g)
        if certified:
            ok = bound.status == EXACT and bound.lower == t and bound.m == m
            note = ""
        else:
            ok = (
                bound.status == INTERVAL
                and bound.lower == t
                and bound.m == m
                and bound.lower <= t <= bound.upper
            )
            note = f"listed value rests on randomized search; certified range [{bound.lower}, {bound.upper}]"
        out.append(
            RowReport(
                g,
                (t, m, stratum_text, group_text),
                (bound.lower, bound.m, bound.status, bound.witness),
                ok,
                note,
            )
        )
    return out


def report_progression_rows(ms=None) -> list:
    """Smallest progression primes and the derived genus and group order."""
    out = []
    for m in sorted(ms or PROGRESSION_ROWS):
        p_exp, g_exp, n_exp = PROGRESSION_ROWS[m]
        p = smallest_progression_prime(m)
        z = cofactor_z(m, p)
        g = m * p * z + 1
        n = p * (p - 1) * (p + 1) // 2
        ok = (p, g, n) == (p_exp, g_exp, n_exp)
        out.append(RowReport(m, (p_exp, g_exp, n_exp), (p, g, n), ok))
    return out


def report_summary(m_max: int = 25) -> list:
    out = []
    for m in range(1, m_max + 1):
        computed = classify_order(m)
        expected = SUMMARY_ROWS.get(m)
        ok = expected is None or computed == expected
        out.append(RowReport(m, (expected,), (computed,), ok))
    return out
