"""The paper's reference values, as the benchmark keeps them.

The checks take their expected values from here, never from
``regori.tables``, so a change to the library's tables cannot make a
wrong answer pass. Running this file recomputes every derived value from
the paper's primary data and compares it with the library:

    python3 perfbench/paper.py

It exits 1 if any derived value disagrees with the library.
"""

from __future__ import annotations

# Small-genus rows: genus -> (t, m). The stratum is H(m^(2(g-1)/m)).
SMALL_GENUS = {
    26: (55, 10),
    122: (253, 22),
    126: (275, 10),
    176: (385, 10),
    246: (497, 70),
    276: (660, 5),
    326: (715, 10),
    426: (935, 10),
    456: (1092, 5),
    476: (1045, 10),
    530: (1081, 46),
    576: (1265, 10),
    606: (1331, 10),
    626: (1375, 10),
    726: (1595, 10),
    776: (1705, 10),
    834: (1673, 238),
    842: (1711, 58),
    846: (1703, 130),
    848: (1771, 22),
    876: (1925, 10),
}

# The lower-bound witness the library gives for each small-genus row,
# fixed here so that the command mix does not follow the library's choice.
SMALL_GENUS_WITNESS = {
    26: "sd(11,5,3)",
    122: "sd(23,11,2)",
    126: "sd(11,25,3)",
    176: "sd(11,35,3)",
    246: "sd(71,7,20)",
    276: "psl(11,12)",
    326: "sd(11,65,3)",
    426: "sd(11,85,3)",
    456: "psl(13,12)",
    476: "sd(11,95,3)",
    530: "sd(47,23,2)",
    576: "sd(11,115,3)",
    606: "sd(121,11,12)",
    626: "sd(11,125,3)",
    726: "sd(11,145,3)",
    776: "sd(11,155,3)",
    834: "sd(239,7,10)",
    842: "sd(59,29,3)",
    846: "sd(131,13,39)",
    848: "sd(23,77,2)",
    876: "sd(11,175,3)",
}

# Prime progressions: singularity order m -> smallest admissible prime p.
PROGRESSION_PAIRS = {5: 11, 11: 23, 17: 37, 23: 47, 29: 59, 41: 83, 53: 107}


def progression_order(p: int) -> int:
    """|PSL(2,p)| = p(p^2-1)/2, the translation count of the row."""
    return p * (p * p - 1) // 2


def progression_genus(m: int, p: int) -> int:
    """Genus g with 2(m+1)(g-1)/m = |PSL(2,p)|."""
    t = progression_order(p)
    num = m * t
    if num % (2 * (m + 1)):
        raise ValueError(f"m = {m}, p = {p}: genus not integral")
    return num // (2 * (m + 1)) + 1


def progression_rows() -> list:
    """(m, p, genus, t, l) with the stratum H(m^l) of each progression row."""
    out = []
    for m, p in sorted(PROGRESSION_PAIRS.items()):
        g = progression_genus(m, p)
        out.append((m, p, g, progression_order(p), 2 * (g - 1) // m))
    return out


def small_genus_stratum(g: int) -> tuple:
    """(k, l) of the row's uniform stratum H(k^l)."""
    _, m = SMALL_GENUS[g]
    return m, 2 * (g - 1) // m


def main() -> int:
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from regori import search, tables

    bad = 0
    print("progression rows: m p genus t stratum | library row | library t(g)")
    for m, p, g, t, l in progression_rows():
        lib = tables.PROGRESSION_ROWS.get(m)
        b = search.t_of_g(g)
        ok = lib == (p, g, t) and b.exact and b.lower == t and b.m == m
        bad += not ok
        print(f"  {m} {p} {g} {t} H({m}^{l}) | {lib} | {b.status} {b.lower} m={b.m} {b.witness}"
              f"{'' if ok else '  MISMATCH'}")
    print("small-genus rows: g t m stratum witness | library row | library t(g)")
    for g, (t, m) in sorted(SMALL_GENUS.items()):
        k, l = small_genus_stratum(g)
        desc = SMALL_GENUS_WITNESS[g]
        lib = tables.SMALL_GENUS_ROWS.get(g)
        b = search.t_of_g(g)
        ok = (
            lib is not None
            and lib[:3] == (t, m, f"H({k}^{l})")
            and 2 * (m + 1) * (g - 1) == m * t
            and b.lower == t
            and b.m == m
            and b.witness == desc
        )
        bad += not ok
        print(f"  {g} {t} {m} H({k}^{l}) {desc} | {lib} | {b.status} {b.lower} m={b.m} {b.witness}"
              f"{'' if ok else '  MISMATCH'}")
    print("all match" if not bad else f"{bad} mismatches")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
