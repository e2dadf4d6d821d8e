"""Stratum decisions: the rule cascade plus end-to-end witness soundness."""

import pytest

from regori import sl2, witnesses
from regori.errors import InternalAssertion, PreconditionViolated
from regori.groups import generates
from regori.oracle import EXISTS, NOT_EXISTS, UNKNOWN, ExistenceVerdict, decide, decide_uniform
from regori.origami import genus_of, regular_origami, stratum_of, translation_group
from regori.strata import Stratum, parse_stratum, uniform_stratum
from regori.witnesses import certify, descriptor_order, generator_coords, materialize

CHECKS = ("order", "commutator_order", "generation")


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

    max_order = 64
    cache = {}
    for k in range(1, max_order):
        for s in range(1, max_order):
            if (k * s) % 2:
                continue
            order = (k + 1) * s
            if order > max_order:
                continue
            stratum = uniform_stratum(k, s)
            verdict = decide(stratum)
            if order not in cache:
                cache[order] = enumerate_regular(order, budget=max_order)
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


def test_certify_and_coords_agree_with_materialization_up_to_720():
    # every Exists with (k+1)l <= 720: the symbolic certificate and
    # coordinates against the built group, its origami and its stratum
    heads = set()
    for k in range(1, 720):
        for l in range(1, 720 // (k + 1) + 1):
            verdict = decide_uniform(k, l)
            if not verdict.exists:
                continue
            desc = verdict.witness
            assert certify(desc, k, l) == CHECKS, desc
            G, x, y = materialize(desc)
            assert generator_coords(desc) == [G.coords(x), G.coords(y)], desc
            assert generates(G, (x, y)), desc
            assert stratum_of(regular_origami(G, x, y)) == uniform_stratum(k, l), desc
            heads.add(desc[: desc.index("(")])
            if desc.startswith("dp("):
                heads.add("dp/" + desc[3 : desc.index("(", 3)])
    assert heads >= {"sd", "dp", "klein", "q8w", "psl", "dp/sd", "dp/klein", "dp/q8w"}


def test_generator_coords_closed_forms():
    assert generator_coords("c(5)") == [1, 0]
    assert generator_coords("c(1)") == [0, 0]
    assert generator_coords("psl(13,12)") == [[2, 4, 0, 7], [0, 1, 12, 0]]
    assert generator_coords("klein(7)") == [[[1, 1, 0], 0], [[0, 0, 1], 1]]
    assert generator_coords("q8w(1)") == [[[0, "i"], 0], [[0, "k"], 1]]
    for desc in ("c(5)", "c(1)", "psl(13,12)", "klein(1)", "q8w(7)", "dp(psl(11,12),c(7))"):
        G, x, y = materialize(desc)
        assert generator_coords(desc) == [G.coords(x), G.coords(y)], desc


def test_certify_rejects_wrong_claims():
    assert certify("sd(11,5,3)", 10, 5) == CHECKS
    with pytest.raises(InternalAssertion, match="order 55, not 44"):
        certify("sd(11,5,3)", 10, 4)
    with pytest.raises(InternalAssertion, match="commutator order 11, not 5"):
        certify("sd(11,5,3)", 4, 11)
    with pytest.raises(InternalAssertion, match="twist is ill-defined"):
        certify("sd(11,5,2)", 10, 5)
    with pytest.raises(InternalAssertion, match="no order-3 multiplier"):
        certify("klein(5)", 9, 6)
    # both generator orders of sd(9,3,4) share the factor 3 with c(3)
    with pytest.raises(InternalAssertion, match="shares a factor"):
        certify("dp(sd(9,3,4),c(3))", 2, 27)


def test_certify_rejects_exceptional_psl_pair(monkeypatch):
    # The order-6 commutator pair over F_17 found by
    # test_mw_rejects_exceptional_subgroups: it generates a 48-element
    # subgroup, yet |PSL(2,17)| = 3 * 816 and its commutator has projective
    # order 3, so only the generation check can refuse psl(17,6) for H(2^816).
    A, B = sl2.Mat2(17, 1, 2, 8, 0), sl2.standard_b(17)
    assert sl2.closure_order(17, A, B) == 48
    monkeypatch.setattr(witnesses, "_psl_pair", lambda p, d: (A, B))
    with pytest.raises(InternalAssertion, match="does not generate SL"):
        certify("psl(17,6)", 2, 816)


def test_verdict_fields_defaults_and_immutability():
    v = decide_uniform(10, 5)
    assert v == ExistenceVerdict(EXISTS, witness="sd(11,5,3)")
    assert (v.status, v.witness, v.reason, v.exists) == (EXISTS, "sd(11,5,3)", None, True)
    assert repr(v) == "ExistenceVerdict(status='exists', witness='sd(11,5,3)', reason=None)"
    assert not ExistenceVerdict(UNKNOWN).exists
    with pytest.raises(AttributeError):
        v.status = UNKNOWN
