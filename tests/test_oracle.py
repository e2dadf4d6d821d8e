"""Stratum decisions: the rule cascade plus end-to-end witness soundness."""

import pytest

from regori.errors import PreconditionViolated
from regori.oracle import EXISTS, NOT_EXISTS, UNKNOWN, decide, decide_uniform
from regori.origami import genus_of, regular_origami, stratum_of, translation_group
from regori.strata import Stratum, parse_stratum, uniform_stratum
from regori.witnesses import descriptor_order, materialize


def _decide(text):
    return decide(parse_stratum(text))


def test_examples():
    v = _decide("H(10^5)")
    assert v.status == EXISTS and v.witness == "sd(11,5,3)"
    v = _decide("H(5^10)")
    assert v.status == NOT_EXISTS and v.reason == "k_odd_l_2q_q_gt_3"
    v = _decide("H(25^2)")
    assert v.status == NOT_EXISTS and v.reason == "g_even"
    assert _decide("H(2^9)").status == EXISTS
    assert _decide("H(5^50)").status == UNKNOWN
    v = _decide("H(1,2)")
    assert v.status == NOT_EXISTS and v.reason == "non_uniform"


def test_more_rules():
    assert _decide("H(4^4)").status == EXISTS  # even, even
    assert _decide("H(3^4)").status == EXISTS  # multiplicity four
    assert _decide("H(2^2)").status == EXISTS
    assert _decide("H(8^2)").status == EXISTS  # odd genus two-zero case
    assert _decide("H(6)").reason == "minimal_stratum"
    assert _decide("H(13^6)").witness == "klein(7)"
    assert _decide("H(3^6)").witness == "q8w(1)"
    assert _decide("H(5^6)").reason == "k_odd_l_6_factor_criterion"
    assert _decide("H(10^121)").witness == "sd(121,11,12)"
    assert _decide("H(5^110)").witness == "psl(11,12)"
    assert _decide("H(5^182)").witness == "psl(13,12)"
    assert _decide("H(13^18)").witness == "dp(klein(7),c(3))"
    assert _decide("H(7^242)").reason == "mersenne_commutator"
    assert _decide("H(2^5)").reason == "two_zeros_odd_count_not_9"
    assert _decide("H(1^3)").reason == "empty_stratum"


def test_decide_rejects_torus():
    with pytest.raises(PreconditionViolated):
        decide(Stratum(()))


def test_deterministic():
    assert _decide("H(10^35)") == _decide("H(10^35)")


def _materialized_check(stratum, witness):
    G, x, y = materialize(witness)
    o = regular_origami(G, x, y)
    assert stratum_of(o) == stratum
    assert translation_group(o).order == G.order
    assert 2 * (genus_of(o) - 1) == sum(stratum.zeros)


def test_exists_witnesses_sound_up_to_720():
    # every Exists over a modest stratum grid materializes correctly
    checked = 0
    for k in range(1, 25):
        for s in range(1, 40):
            if (k * s) % 2:
                continue
            stratum = uniform_stratum(k, s)
            verdict = decide(stratum)
            if verdict.status != EXISTS:
                continue
            if descriptor_order(verdict.witness) > 720:
                continue
            _materialized_check(stratum, verdict.witness)
            checked += 1
    assert checked >= 60


def test_exists_projective_witness_sound():
    stratum = parse_stratum("H(5^110)")
    verdict = decide(stratum)
    assert verdict.witness == "psl(11,12)"
    _materialized_check(stratum, verdict.witness)


def test_not_exists_confirmed_by_enumeration():
    from regori.enumerator import enumerate_regular, witnesses_for_stratum

    cache = {}
    for k in range(1, 24):
        for s in range(1, 24):
            if (k * s) % 2:
                continue
            order = (k + 1) * s
            if order > 24:
                continue
            stratum = uniform_stratum(k, s)
            verdict = decide(stratum)
            if order not in cache:
                cache[order] = enumerate_regular(order, budget=24)
            hits = witnesses_for_stratum(cache[order], stratum)
            if verdict.status == NOT_EXISTS:
                assert not hits, (k, s)
            elif verdict.status == EXISTS:
                assert hits, (k, s)


def test_consistency_with_slope_filter():
    # an Exists with zero order divisible by 3 or 4 forces the genus into
    # the top-slope class
    for k in range(1, 20):
        for s in range(1, 30):
            if (k * s) % 2:
                continue
            verdict = decide(uniform_stratum(k, s))
            if verdict.status != EXISTS:
                continue
            g1 = (k * s // 2) % 2 == 0 or (k * s // 2) % 3 == 0
            if k % 3 == 0 or k % 4 == 0:
                assert g1, (k, s)


def test_decide_uniform_matches_decide():
    # the whole verdict (status, witness, reason) for every H(k^l) with (k+1)l <= 2000
    for k in range(1, 2000):
        for l in range(1, 2000 // (k + 1) + 1):
            assert decide_uniform(k, l) == decide(uniform_stratum(k, l)), (k, l)


def test_decide_uniform_rejects_empty_data():
    for k, l in ((0, 3), (3, 0), (-2, 2)):
        with pytest.raises(PreconditionViolated):
            decide_uniform(k, l)
