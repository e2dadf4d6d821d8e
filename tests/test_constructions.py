"""Witness family constructors and their verified postconditions."""

from math import gcd

import pytest

from regori.constructions import (
    cyclic,
    dihedral,
    direct_product,
    find_order3_multiplier,
    klein_witness,
    q8_witness,
    quaternions,
    semidirect_cyclic,
    semidirect_generators,
    two_group,
)
from regori.errors import InvalidAction, NoSuchAction, OutOfRange
from regori.groups import (
    derived_subgroup,
    generates,
    is_isomorphic,
    subgroup_generated,
)


def test_cyclic_trivial():
    assert cyclic(1).order == 1
    with pytest.raises(ValueError):
        cyclic(0)


def test_direct_product_crt():
    assert is_isomorphic(direct_product(cyclic(2), cyclic(3)), cyclic(6))


def test_direct_product_table_row():
    G = direct_product(semidirect_cyclic(11, 5, 3), cyclic(7))
    assert G.order == 385


def test_semidirect_dihedral():
    G = semidirect_cyclic(5, 2, 4)
    assert G.order == 10
    assert derived_subgroup(G).order == 5
    assert is_isomorphic(G, dihedral(10))


def test_semidirect_table_row():
    G = semidirect_cyclic(11, 5, 3)
    assert G.order == 55
    assert derived_subgroup(G).order == 11


def test_semidirect_invalid_action():
    with pytest.raises(InvalidAction):
        semidirect_cyclic(5, 2, 2)


def test_two_group_families():
    Q8 = two_group("Dic", 3)
    assert Q8.order == 8
    assert derived_subgroup(Q8).order == 2
    assert is_isomorphic(Q8, quaternions())
    assert two_group("D", 4).order == 16
    with pytest.raises(OutOfRange):
        two_group("SD", 3)
    with pytest.raises(OutOfRange):
        two_group("M", 2)
    with pytest.raises(OutOfRange):
        two_group("nope", 3)


def test_dicyclic_derived_orders():
    # commutator subgroup is cyclic of order 2^(alpha-2)
    for alpha in range(3, 7):
        G = two_group("Dic", alpha)
        assert derived_subgroup(G).order == 2 ** (alpha - 2)


def test_quaternion_axioms():
    quaternions().check_axioms()


def test_klein_witness_example():
    G, x, y = klein_witness(7)
    assert find_order3_multiplier(7) == 2
    assert G.order == 84
    assert G.element_order(G.commutator(x, y)) == 14
    assert generates(G, (x, y))


def test_q8_witness_trivial_factor():
    G, x, y = q8_witness(1)
    assert G.order == 24
    assert G.element_order(G.commutator(x, y)) == 4


def test_klein_witness_rejects_bad_modulus():
    with pytest.raises(NoSuchAction):
        klein_witness(5)
    with pytest.raises(NoSuchAction):
        q8_witness(3)


def test_twist_witnesses_all_admissible():
    # every odd lam <= 49 whose prime factors are 1 mod 3
    admissible = [1, 7, 13, 19, 31, 37, 43, 49]
    for lam in admissible:
        G, x, y = klein_witness(lam)
        assert G.order == 12 * lam
        assert G.element_order(G.commutator(x, y)) == 2 * lam
        H, a, b = q8_witness(lam)
        assert H.order == 24 * lam
        assert H.element_order(H.commutator(a, b)) == 4 * lam
    for lam in (3, 5, 9, 11, 15, 21, 25, 33, 35, 45):
        with pytest.raises(NoSuchAction):
            find_order3_multiplier(lam)


# sha256 of the JSON list of `G.coords(i)` for every element index, and of
# the full product table [[G.mul(a, b) for b] for a], with the order, label
# and generator pair of each twist witness: the numbering that witnesses and
# the CLI report must not drift
TWIST_PINS = {
    ("klein", 1): (12, "(Z/1 x Z/2 x Z/2) : Z/3", 6, 4,
                   "e887e45f128e9f9f7bfb43f38c88c3a1e27b064033b97273e21ec35911a52e9a",
                   "82a70e1d3d9cf08f75db84e1f74f3456f4b4d6355364d4904660543318f26ee8"),
    ("klein", 7): (84, "(Z/7 x Z/2 x Z/2) : Z/3", 18, 4,
                   "c8c4a8a3366ac11ffcd0be870b253cfef6d7da9b6693a7bc5ad373c4b8b26985",
                   "5bcc3291805a4334814ec984aec0e0c5604d0b2a175bd4a4c16f92ffb5a19a1d"),
    ("q8w", 1): (24, "(Z/1 x Q8) : Z/3", 6, 19,
                 "083784360a94d3e36e3c32ea678c34b37699d58c79217258cb54c9ee57d44d93",
                 "36deefa9a273ed0eba76ca11884606f3fd83d60679cc31956379ca427d32b896"),
    ("q8w", 7): (168, "(Z/7 x Q8) : Z/3", 30, 19,
                 "14bc4d21446c0f9c34f5f70854bd90deaf4ab45ec771acecf259c82b5acad322",
                 "ae911b01902b1b77dcd11ca199c6fd7e3434b6b5621cf93139372a0e124ac5c1"),
}


@pytest.mark.parametrize("family, lam", sorted(TWIST_PINS))
def test_twist_witness_numbering_is_pinned(family, lam):
    import hashlib
    import json

    G, x, y = {"klein": klein_witness, "q8w": q8_witness}[family](lam)
    order, label, px, py, coords_digest, table_digest = TWIST_PINS[(family, lam)]
    assert (G.order, G.label, x, y) == (order, label, px, py)
    coords = json.dumps([G.coords(i) for i in range(G.order)]).encode()
    assert hashlib.sha256(coords).hexdigest() == coords_digest
    table = json.dumps([[G.mul(a, b) for b in range(G.order)] for a in range(G.order)]).encode()
    assert hashlib.sha256(table).hexdigest() == table_digest


def test_semidirect_derived_sweep_to_720():
    for m in range(2, 100):
        for n in range(2, 25):
            if m * n > 720:
                continue
            for d in range(2, m):
                if gcd(d, m) != 1 or pow(d, n, m) != 1:
                    continue
                G = semidirect_cyclic(m, n, d)
                assert derived_subgroup(G).order == m // gcd(d - 1, m), (m, n, d)


def test_group_axioms_for_witnesses():
    for G in (klein_witness(7)[0], q8_witness(1)[0], semidirect_cyclic(11, 5, 3)):
        G.check_axioms()


def test_semidirect_generator_pair_generates():
    for m, n, d in ((11, 5, 3), (9, 3, 4), (23, 11, 2)):
        G = semidirect_cyclic(m, n, d)
        x, y = semidirect_generators(m, n)
        assert G.element_order(x) == m
        assert G.element_order(y) == n
        assert subgroup_generated(G, (x, y)).order == G.order
