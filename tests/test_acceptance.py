"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import time
from contextlib import contextmanager

from regori import sl2
from regori.constructions import two_group
from regori.enumerator import enumerate_regular, witnesses_for_stratum
from regori.groups import automorphism_count
from regori.numtheory import (
    cofactor_z,
    is_prime,
    progression_for_m,
    semidirect_exists,
    semidirect_exists_bruteforce,
    smallest_progression_prime,
)
from regori.origami import genus_of, one_cylinder, stratum_of, translation_group
from regori.search import EXACT, t_of_g
from regori.strata import Stratum
from regori.tables import PROGRESSION_ROWS


@contextmanager
def criterion(number, description, limit):
    start = time.time()
    yield
    elapsed = time.time() - start
    assert elapsed < limit, f"criterion {number} took {elapsed:.1f}s (limit {limit}s)"
    print(f"ACCEPTANCE {number} ({description}): PASS in {elapsed:.1f}s")


def test_criterion_1_sophie_germain_exact_values():
    with criterion(1, "Sophie Germain exact rows", 5):
        for p, t in ((5, 55), (11, 253), (23, 1081), (29, 1711)):
            g = p * p + 1
            bound = t_of_g(g)
            assert bound.status == EXACT
            assert bound.lower == t
            assert bound.m == 2 * p
            assert 2 * (g - 1) // bound.m == p  # stratum H(2p^p)
            assert bound.witness.startswith(f"sd({2 * p + 1},{p},")


def test_criterion_2_projective_rows():
    with criterion(2, "projective linear rows", 30):
        bound = t_of_g(276)
        assert (bound.status, bound.lower, bound.witness) == (EXACT, 660, "psl(11,12)")
        bound = t_of_g(456)
        assert (bound.status, bound.lower, bound.witness) == (EXACT, 1092, "psl(13,12)")
        for p, order in ((11, 660), (13, 1092)):
            A, B = sl2.build_generating_pair(p, 12)
            assert sl2.closure_order(p, A, B) == 2 * order
            G, _, _ = sl2.psl_group(p, A, B)
            assert G.order == order


def test_criterion_3_no_regular_origami_families():
    with criterion(3, "2(g-1) families", 60):
        for p in range(5, 200):
            if not is_prime(p):
                continue
            bound = t_of_g(p + 1)
            assert bound.status == EXACT and bound.lower == 2 * p, p
            assert bound.m is None
        primes = [p for p in range(5, 32) if is_prime(p)]
        for i, p in enumerate(primes):
            for q in primes[i + 1 :]:
                bound = t_of_g(p * q + 1)
                assert bound.status == EXACT and bound.lower == 2 * p * q, (p, q)
                assert bound.m is None
        for p in (7, 13, 17):  # prime but not Sophie Germain
            bound = t_of_g(p * p + 1)
            assert bound.status == EXACT and bound.lower == 2 * p * p, p
            assert bound.m is None


def test_criterion_4_progressions():
    with criterion(4, "residue systems", 5):
        system = progression_for_m(5)
        assert system.modulus == 72
        assert set(system.residues) == {11, 13, 59, 61}
        system11 = progression_for_m(11)
        assert system11.modulus == 720
        assert set(system11.residues) == {23, 167, 263, 313, 407, 457, 553, 697}
        # sieve the primes up to 1e5 and check every member's cofactor
        limit = 100_000
        sieve = bytearray([1]) * (limit + 1)
        sieve[0:2] = b"\x00\x00"
        for i in range(2, int(limit ** 0.5) + 1):
            if sieve[i]:
                sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
        members = 0
        for p in range(7, limit + 1):
            if sieve[p] and p % 72 in (11, 13, 59, 61):
                z = cofactor_z(5, p)
                assert z % 2 == 1 and z % 3 != 0, p
                members += 1
        assert members > 1000


def test_criterion_5_progression_prime_rows():
    with criterion(5, "smallest progression primes", 10):
        for m, (p_exp, g_exp, n_exp) in sorted(PROGRESSION_ROWS.items()):
            p = smallest_progression_prime(m)
            assert p == p_exp, (m, p)
            z = cofactor_z(m, p)
            assert m * p * z + 1 == g_exp
            assert p * (p - 1) * (p + 1) // 2 == n_exp


def test_criterion_6_semidirect_equivalence():
    with criterion(6, "semidirect criterion vs brute force", 300):
        from math import gcd

        for u in range(3, 100, 2):
            for l in range(1, 25):
                fast = semidirect_exists(u, l)
                slow = semidirect_exists_bruteforce(u, l)
                assert (fast is None) == (slow is None), (u, l)
                if fast is not None:
                    assert fast.m * fast.n == u * l
                    assert pow(fast.d, fast.n, fast.m) == 1
                    assert gcd(fast.d - 1, fast.m) == fast.m // u


def test_criterion_7_generating_pairs_sweep():
    with criterion(7, "generating pairs with closure verification", 600):
        for p in range(17, 102):
            if not is_prime(p):
                continue
            for d in range(6, 15):
                if (p - 1) % d and (p + 1) % d:
                    continue
                A, B = sl2.build_generating_pair(p, d)
                assert sl2.mat_order(sl2.commutator(A, B)) == d, (p, d)
                assert sl2.closure_order(p, A, B) == p * (p - 1) * (p + 1), (p, d)


def test_criterion_7_generating_pairs_sweep_to_211():
    # the closure is orbit-stabilizer, O(p^2), so the sweep reaches twice as far
    with criterion(7, "generating pairs with closure verification to p = 211", 120):
        for p in range(17, 212):
            if not is_prime(p):
                continue
            for d in range(6, 15):
                if (p - 1) % d and (p + 1) % d:
                    continue
                A, B = sl2.build_generating_pair(p, d)
                assert sl2.mat_order(sl2.commutator(A, B)) == d, (p, d)
                assert sl2.closure_order(p, A, B) == p * (p - 1) * (p + 1), (p, d)


def test_criterion_8_enumerator_vs_theorems():
    with criterion(8, "exhaustive search vs classification", 900):
        # two equal zeros: existence at order 2g exactly for odd g
        for g in range(2, 13):
            ws = enumerate_regular(2 * g, budget=33)
            hits = witnesses_for_stratum(ws, Stratum((g - 1, g - 1)))
            assert bool(hits) == (g % 2 == 1), g
            for w in ws:
                assert len(w.origami.sigma_h) == w.group_order
                assert sum(w.stratum.zeros) % 2 == 0
        # order-2 zeros, count l: existence at order 3l exactly when l is
        # even or divisible by 9
        for l in range(1, 12):
            ws = enumerate_regular(3 * l, budget=33)
            hits = witnesses_for_stratum(ws, Stratum((2,) * l))
            assert bool(hits) == (l % 2 == 0 or l % 9 == 0), l
            for w in ws:
                g = genus_of(w.origami)
                assert sum(w.stratum.zeros) == 2 * g - 2


def test_criterion_9_one_cylinder_family():
    with criterion(9, "one-cylinder family", 5):
        for g in range(2, 51):
            o = one_cylinder(g)
            assert stratum_of(o) == Stratum((1,) * (2 * g - 2))
            T = translation_group(o)
            assert T.order == 2 * g - 2
            assert max(T.element_order(a) for a in T.elements()) == 2 * g - 2
        T3 = translation_group(one_cylinder(3))
        assert T3.order == 4
        assert sorted(T3.element_order(a) for a in T3.elements()) == [1, 2, 4, 4]


def test_criterion_10_automorphism_fixtures():
    expected = {
        "cyclic": lambda a: 2 ** (a - 1),
        "cyclic_x_z2": lambda a: 6 if a == 2 else 2 ** a,
        "M": lambda a: 2 ** a,
        "D": lambda a: 2 ** (2 * a - 3),
        "SD": lambda a: 2 ** (2 * a - 4),
        "Dic": lambda a: 24 if a == 3 else 2 ** (2 * a - 3),
    }
    first_alpha = {"cyclic": 2, "cyclic_x_z2": 2, "M": 3, "D": 3, "SD": 4, "Dic": 3}
    with criterion(10, "automorphism counts", 120):
        for family, formula in expected.items():
            for alpha in range(first_alpha[family], 7):
                G = two_group(family, alpha)
                assert automorphism_count(G) == formula(alpha), (family, alpha)
