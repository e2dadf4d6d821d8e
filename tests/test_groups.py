"""Group kernel: closure, orders, subgroups, automorphisms, isomorphism."""

import pytest

from regori.constructions import (
    cyclic,
    dihedral,
    direct_product,
    semidirect_cyclic,
    semidirect_generators,
    two_group,
)
from regori.errors import BudgetExceeded, DegreeMismatch
from regori.groups import (
    automorphism_count,
    center,
    closure,
    closure_from_generators,
    derived_subgroup,
    generates,
    generating_set,
    is_isomorphic,
    subgroup_generated,
)
from regori.perms import compose


def test_closure_symmetric_group():
    G = closure_from_generators([(1, 0, 2), (1, 2, 0)], budget=10)
    assert G.order == 6


def test_closure_trivial():
    G = closure_from_generators([(0, 1, 2)], budget=5)
    assert G.order == 1


def test_closure_right_translations_of_dihedral():
    D6 = dihedral(6)
    x, y = semidirect_generators(3, 2)
    gens = [D6.right_translation(x), D6.right_translation(y)]
    assert closure_from_generators(gens, budget=6).order == 6


def test_closure_budget():
    with pytest.raises(BudgetExceeded):
        closure_from_generators([(1, 2, 0), (1, 0, 2)], budget=5)
    # exactly `budget` elements are allowed
    gens = [(1, 2, 3, 0), (1, 0, 2, 3)]
    assert len(closure((0, 1, 2, 3), gens, compose, budget=24)) == 24
    with pytest.raises(BudgetExceeded):
        closure((0, 1, 2, 3), gens, compose, budget=23)
    assert closure(0, [4], cyclic(12).mul) == [0, 4, 8]
    with pytest.raises(DegreeMismatch):
        closure_from_generators([(1, 0), (1, 2, 0)], budget=10)


def test_element_orders():
    G = semidirect_cyclic(5, 2, 4)
    x, y = semidirect_generators(5, 2)
    assert G.element_order(G.identity) == 1
    assert G.element_order(x) == 5
    H = direct_product(cyclic(6), cyclic(4))
    assert H.element_order(1 * 4 + 1) == 12


def test_axioms_exhaustive_small():
    from regori import sl2
    from regori.origami import one_cylinder, translation_group

    for G in (
        cyclic(12),
        direct_product(cyclic(4), cyclic(6)),
        semidirect_cyclic(9, 3, 4),
        two_group("Dic", 4),
        two_group("SD", 4),
        # constructions that number their own elements put the identity at 0
        sl2.psl_group(5, sl2.Mat2(5, 1, 1, 0, 1), sl2.standard_b(5))[0],
        translation_group(one_cylinder(3)),
        closure_from_generators([(1, 0, 2, 3), (1, 2, 3, 0)], budget=24),
    ):
        G.check_axioms()


def test_lagrange_on_small_groups():
    for G in (semidirect_cyclic(11, 5, 3), two_group("D", 5), direct_product(cyclic(6), cyclic(6))):
        for a in G.elements():
            assert G.order % G.element_order(a) == 0


def test_derived_subgroup_abelian_trivial():
    assert derived_subgroup(direct_product(cyclic(6), cyclic(15))).order == 1


def test_derived_subgroup_metacyclic_example():
    assert derived_subgroup(semidirect_cyclic(9, 3, 4)).order == 3


def test_derived_subgroup_is_normal():
    G = semidirect_cyclic(8, 2, 3)
    D = derived_subgroup(G)
    for g in G.elements():
        for h in D.members:
            assert G.mul(G.mul(g, h), G.inv(g)) in D.members


def test_center_of_quaternions():
    Q8 = two_group("Dic", 3)
    assert center(Q8).order == 2


def test_subgroup_generated_and_generates():
    G = cyclic(12)
    assert subgroup_generated(G, (4,)).order == 3
    assert generates(G, (1,))
    assert not generates(G, (2,))


def test_right_regular_representation_roundtrip():
    G = semidirect_cyclic(5, 2, 4)
    K = closure_from_generators([G.right_translation(x) for x in G.elements()],
                                budget=G.order)
    assert K.order == G.order
    assert is_isomorphic(K, G)


# sha256 of the JSON list of `G.perms` for closures of the standard
# generators of S4 and S5: the breadth-first numbering must not drift
PERM_NUMBERING = {
    4: "e9d28514fd9a310e8496464fe45ddc35bd4497512ca1d0a9752a9eb84bde8251",
    5: "916cb901193ada8b5fecad619ef3c047600316ca0e271ce095a199b93d25e8b7",
}


@pytest.mark.parametrize("n", sorted(PERM_NUMBERING))
def test_closure_numbering_is_pinned(n):
    import hashlib
    import json
    from math import factorial

    cycle = tuple(range(1, n)) + (0,)
    swap = (1, 0) + tuple(range(2, n))
    G = closure_from_generators([cycle, swap], budget=factorial(n))
    assert G.perms[0] == tuple(range(n))
    digest = hashlib.sha256(json.dumps([list(q) for q in G.perms]).encode()).hexdigest()
    assert digest == PERM_NUMBERING[n]


def test_generating_set_deterministic():
    Q8 = two_group("Dic", 3)
    gens = generating_set(Q8)
    assert len(gens) == 2
    assert generates(Q8, gens)


def test_automorphism_counts():
    assert automorphism_count(direct_product(cyclic(2), cyclic(2))) == 6
    assert automorphism_count(two_group("Dic", 3)) == 24
    assert automorphism_count(cyclic(8)) == 4
    # GL(3,2): image triples such as (a, b, ab) keep every order the search
    # filters on, but the homomorphism they extend to is not injective
    assert automorphism_count(direct_product(direct_product(cyclic(2), cyclic(2)), cyclic(2))) == 168
    with pytest.raises(BudgetExceeded):
        automorphism_count(cyclic(128))


def test_isomorphism_examples():
    assert not is_isomorphic(cyclic(4), direct_product(cyclic(2), cyclic(2)))
    assert not is_isomorphic(two_group("D", 3), two_group("Dic", 3))
    assert is_isomorphic(cyclic(6), direct_product(cyclic(2), cyclic(3)))


def test_root_spectrum_separates_equal_order_spectra():
    # Z/4 x Z/4 and Z/4 : Z/4 have the same element orders; the numbers of
    # square roots tell them apart without an isomorphism search
    A = direct_product(cyclic(4), cyclic(4))
    B = semidirect_cyclic(4, 4, 3)
    orders = lambda G: sorted(G.element_order(a) for a in G.elements())
    assert orders(A) == orders(B)
    assert A.root_spectrum() != B.root_spectrum()
    assert not is_isomorphic(A, B)
    C6, C2xC3 = cyclic(6), direct_product(cyclic(2), cyclic(3))
    assert C6.root_spectrum() == C2xC3.root_spectrum()


def test_involution_counts_separate_d8_q8():
    D8, Q8 = two_group("D", 3), two_group("Dic", 3)
    count = lambda G: sum(1 for a in G.elements() if G.element_order(a) == 2)
    assert count(D8) == 5
    assert count(Q8) == 1


def test_derived_subgroup_matches_exhaustive_definition():
    from regori.groups import derived_subgroup_exhaustive

    for G in (
        semidirect_cyclic(9, 3, 4),
        two_group("Dic", 4),
        two_group("SD", 4),
        semidirect_cyclic(11, 5, 3),
        direct_product(dihedral(6), cyclic(4)),
        closure_from_generators([(1, 0, 2, 3), (1, 2, 3, 0)], budget=24),
    ):
        assert derived_subgroup(G).members == derived_subgroup_exhaustive(G).members
