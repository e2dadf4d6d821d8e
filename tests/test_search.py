"""The translation maximum: candidate scan, exact hits, intervals."""

import pytest

from regori.errors import InvalidGenus
from regori.search import EXACT, INTERVAL, G1_TAG, candidate_ms, t_candidate, t_of_g


def test_candidate_ms_examples():
    assert candidate_ms(26) == [1, 2, 5, 10, 25, 50, None]
    assert candidate_ms(4) == [1, 2, None]
    assert candidate_ms(2) == [1, 2, None]
    with pytest.raises(InvalidGenus):
        candidate_ms(1)


def test_t_candidates_descend():
    for g in (26, 126, 276):
        cands = [t_candidate(g, m) for m in candidate_ms(g)]
        assert cands == sorted(cands, reverse=True)


def test_exact_semidirect_row():
    b = t_of_g(26)
    assert b.status == EXACT and b.lower == 55 and b.m == 10
    assert b.witness == "sd(11,5,3)"


def test_exact_top_slope():
    b = t_of_g(4)
    assert b.status == EXACT and b.lower == 12 and b.m == 1
    assert b.witness == G1_TAG


def test_exact_one_cylinder():
    b = t_of_g(36)
    assert b.status == EXACT and b.lower == 70 and b.m is None
    assert b.witness == "onecyl(36)"


def test_exact_projective_rows():
    b = t_of_g(276)
    assert (b.status, b.lower, b.m, b.witness) == (EXACT, 660, 5, "psl(11,12)")
    b = t_of_g(456)
    assert (b.status, b.lower, b.m, b.witness) == (EXACT, 1092, 5, "psl(13,12)")


def test_interval_row():
    b = t_of_g(126)
    assert b.status == INTERVAL
    assert (b.lower, b.upper) == (275, 300)
    assert b.first_unknown_m == 5
    assert b.m == 10


def test_sophie_germain_rows():
    for p, expected in ((5, 55), (11, 253), (23, 1081), (29, 1711)):
        b = t_of_g(p * p + 1)
        assert b.status == EXACT
        assert b.lower == expected
        assert b.m == 2 * p
        assert b.witness.startswith(f"sd({2 * p + 1},{p},")


def test_prime_plus_one_small():
    for p in (5, 7, 11, 13, 17, 19, 23):
        b = t_of_g(p + 1)
        assert b.status == EXACT and b.lower == 2 * p and b.m is None


def test_blocking_records_scan():
    b = t_of_g(26)
    blocked = {m: status for m, status, _ in b.blocking}
    assert blocked == {1: "not_exists", 2: "not_exists", 5: "not_exists"}


def test_lower_bounds_materialize_end_to_end():
    # descriptor witnesses of modest order are rebuilt and re-measured
    from regori.origami import genus_of, regular_origami, translation_group
    from regori.witnesses import descriptor_order, materialize

    for g in (26, 122, 176, 276):
        bound = t_of_g(g)
        if bound.witness == G1_TAG or bound.witness.startswith("onecyl"):
            continue
        if descriptor_order(bound.witness) > 720:
            continue
        G, x, y = materialize(bound.witness)
        o = regular_origami(G, x, y)
        assert genus_of(o) == g
        assert translation_group(o).order == bound.lower


def test_one_cylinder_lower_bound_materializes():
    from regori.origami import genus_of, one_cylinder, translation_group

    bound = t_of_g(36)
    assert bound.witness == "onecyl(36)"
    o = one_cylinder(36)
    assert genus_of(o) == 36
    assert translation_group(o).order == bound.lower


def test_budget_resolution_settles_smallest_open_stratum():
    # H(4^9) is the smallest stratum the rules leave open; all order-45
    # groups are abelian, so enumeration settles it negatively
    from regori.oracle import UNKNOWN, decide
    from regori.search import _resolve_by_enumeration
    from regori.strata import uniform_stratum

    stratum = uniform_stratum(4, 9)
    assert decide(stratum).status == UNKNOWN
    resolved = _resolve_by_enumeration(stratum, 45)
    assert resolved.status == "not_exists"
    assert resolved.reason == "enumerated_empty"


def test_large_genus_builds_no_stratum(monkeypatch):
    from regori import search
    from regori.tables import PROGRESSION_ROWS

    def refuse(k, l):
        raise AssertionError(f"built H({k}^{l})")

    monkeypatch.setattr(search, "uniform_stratum", refuse)
    p = 1000003  # prime; H(2^p) is the largest stratum the scan meets
    b = t_of_g(p + 1)
    assert b.status == EXACT and b.lower == 2 * p and b.m is None
    prime, g, t = PROGRESSION_ROWS[53]
    b = t_of_g(g)
    assert b.status == EXACT and (b.lower, b.m) == (t, 53)
    assert b.witness == f"psl({prime},108)"
