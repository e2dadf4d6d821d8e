"""Integer routines: factorization, CRT, progressions, witnesses."""

from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regori import numtheory as nt
from regori.errors import (
    BudgetExceeded,
    CoprimalityViolated,
    IncompatibleCongruences,
    InvalidModulus,
)


def test_factorize_examples():
    assert nt.factorize(720) == [2, 2, 2, 2, 3, 3, 5]
    assert nt.factorize(1) == []
    assert nt.factorization(360) == {2: 3, 3: 2, 5: 1}


def test_is_prime_small():
    primes = [n for n in range(60) if nt.is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_divisors():
    assert nt.divisors(50) == [1, 2, 5, 10, 25, 50]
    assert nt.divisors(1) == [1]


def test_crt_examples():
    assert nt.crt_solve([(1, 3), (2, 5)]) == (7, 15)
    with pytest.raises(IncompatibleCongruences):
        nt.crt_solve([(0, 2), (1, 4)])


@given(st.lists(st.tuples(st.integers(0, 400), st.integers(1, 60)), min_size=1, max_size=4))
@settings(max_examples=200)
def test_crt_properties(congs):
    from math import lcm

    try:
        r, m = nt.crt_solve(congs)
    except IncompatibleCongruences:
        return
    assert m == lcm(*(mi for _, mi in congs))
    for ri, mi in congs:
        assert r % mi == ri % mi


def test_progression_m5():
    system = nt.progression_for_m(5)
    assert system.modulus == 72
    assert system.residues == (11, 13, 59, 61)


def test_progression_m11_refined():
    system = nt.progression_for_m(11)
    assert system.modulus == 720
    assert system.residues == (23, 167, 263, 313, 407, 457, 553, 697)


def test_progression_rejects_bad_m():
    for m in (7, 4, 6, 13, 9):
        with pytest.raises(InvalidModulus):
            nt.progression_for_m(m)


def test_progression_large_m_budget():
    with pytest.raises(BudgetExceeded):
        nt.progression_for_m(23)


def test_progression_cofactor_property_m5():
    # every prime in the system yields an odd cofactor coprime to 3
    system = nt.progression_for_m(5)
    for p in range(7, 20000):
        if p in system and nt.is_prime(p):
            z = nt.cofactor_z(5, p)
            assert z % 2 == 1 and z % 3 != 0, p


def test_smallest_progression_primes():
    assert nt.smallest_progression_prime(5) == 11
    assert nt.smallest_progression_prime(11) == 23
    assert nt.smallest_progression_prime(17) == 37


def test_semidirect_exists_examples():
    w = nt.semidirect_exists(11, 5)
    assert (w.m, w.n, w.d) == (11, 5, 3)
    w = nt.semidirect_exists(11, 121)
    assert (w.m, w.n) == (121, 11)
    assert nt.semidirect_exists(9, 5) is None
    assert nt.semidirect_exists_bruteforce(9, 5) is None


def test_semidirect_witness_verifies():
    for u, l in ((11, 5), (11, 121), (33, 15), (63, 49), (35, 21), (9, 27)):
        w = nt.semidirect_exists(u, l)
        if w is None:
            assert nt.semidirect_exists_bruteforce(u, l) is None
            continue
        assert w.m * w.n == u * l
        assert pow(w.d, w.n, w.m) == 1
        assert gcd(w.d - 1, w.m) == w.m // u


def test_semidirect_agrees_with_bruteforce_small():
    for u in range(3, 34, 2):
        for l in range(1, 13):
            fast = nt.semidirect_exists(u, l)
            slow = nt.semidirect_exists_bruteforce(u, l)
            assert (fast is None) == (slow is None), (u, l)


def test_residue_system_and_witness_records():
    system = nt.progression_for_m(5)
    assert (system.modulus, system.residues) == (72, (11, 13, 59, 61))
    assert 83 in system and 84 not in system
    assert repr(nt.semidirect_exists(11, 5)) == "SemidirectWitness(m=11, n=5, d=3)"
    with pytest.raises(AttributeError):
        system.modulus = 1


def test_coprime_split():
    # 12 = 4 * 3: 4 avoids a = 9, 3 avoids b = 8
    assert nt.split_coprime(12, 9, 8) == (4, 3)
    u, v = nt.split_residues(12, 9, 8)
    assert (u % 4, u % 3, v % 4, v % 3) == (1, 0, 0, 1)
    with pytest.raises(CoprimalityViolated):
        nt.split_coprime(6, 2, 4)
