"""Origami construction, singularity data, translations, cyclic extensions."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regori import perms
from regori.constructions import (
    cyclic,
    dihedral,
    semidirect_cyclic,
    semidirect_generators,
    two_group,
)
from regori.errors import CoprimalityViolated, InvalidGenus, NotGenerating
from regori.origami import (
    Origami,
    _translation_generators,
    extend_by_cyclic,
    genus_of,
    is_regular,
    one_cylinder,
    regular_origami,
    stratum_of,
    translation_group,
    translation_order,
    translations,
)
from regori.strata import Stratum, parse_stratum


def test_origami_rejects_disconnected():
    with pytest.raises(ValueError):
        Origami((1, 0, 2, 3), (0, 1, 3, 2))


def test_serialize_roundtrip():
    o = one_cylinder(3)
    assert Origami.deserialize(o.serialize()) == o


def test_origami_is_an_immutable_value():
    import copy
    import pickle

    o = Origami([1, 0, 2], (2, 0, 1))
    assert o.sigma_h == (1, 0, 2)
    assert o == Origami((1, 0, 2), (2, 0, 1)) and hash(o) == hash(Origami((1, 0, 2), (2, 0, 1)))
    assert o != Origami((2, 0, 1), (1, 0, 2)) and o != ((1, 0, 2), (2, 0, 1))
    assert repr(o) == "Origami(sigma_h=(1, 0, 2), sigma_v=(2, 0, 1))"
    assert pickle.loads(pickle.dumps(o)) == o == copy.deepcopy(o)
    for mutate in (lambda: setattr(o, "sigma_h", (0, 1, 2)), lambda: delattr(o, "sigma_v"),
                   lambda: setattr(o, "extra", 1)):
        with pytest.raises(AttributeError):
            mutate()
    assert o.sigma_h == (1, 0, 2) and o.sigma_v == (2, 0, 1)


def test_regular_origami_dihedral():
    D6 = dihedral(6)
    x, y = semidirect_generators(3, 2)
    o = regular_origami(D6, x, y)
    assert o.n == 6
    assert stratum_of(o) == parse_stratum("H(2,2)")
    assert genus_of(o) == 3
    assert translation_group(o).order == 6


def test_regular_origami_table_row():
    G = semidirect_cyclic(11, 5, 3)
    o = regular_origami(G, *semidirect_generators(11, 5))
    assert o.n == 55
    assert stratum_of(o) == parse_stratum("H(10^5)")
    assert genus_of(o) == 26
    assert translation_group(o).order == 55


def test_regular_origami_abelian_torus():
    G = cyclic(4)
    o = regular_origami(G, 1, 1)
    assert stratum_of(o) == Stratum(())
    assert genus_of(o) == 1
    assert translation_group(o).order == 4


def test_regular_origami_rejects_nongenerating():
    with pytest.raises(NotGenerating):
        regular_origami(cyclic(4), 2, 2)
    # the connectivity walk is the generation check, and stays a ValueError
    with pytest.raises(NotGenerating) as info:
        Origami((1, 0, 2, 3), (0, 1, 3, 2))
    assert isinstance(info.value, ValueError)


def test_one_cylinder_family():
    o = one_cylinder(3)
    assert o.n == 8
    assert stratum_of(o) == parse_stratum("H(1^4)")
    T = translation_group(o)
    assert T.order == 4
    assert any(T.element_order(a) == 4 for a in T.elements())

    o2 = one_cylinder(2)
    assert o2.n == 4
    assert stratum_of(o2) == parse_stratum("H(1^2)")
    assert translation_group(o2).order == 2

    with pytest.raises(InvalidGenus):
        one_cylinder(1)


def test_one_cylinder_sweep():
    for g in range(2, 31):
        o = one_cylinder(g)
        assert o.n == 4 * g - 4
        assert stratum_of(o) == Stratum((1,) * (2 * g - 2))
        assert genus_of(o) == g
        T = translation_group(o)
        assert T.order == 2 * g - 2
        # cyclic: some element attains the full order
        assert max(T.element_order(a) for a in T.elements()) == 2 * g - 2
        assert not is_regular(o)


def test_l_origami_trivial_translations():
    o = Origami((1, 0, 2), (2, 1, 0))
    assert len(translations(o)) == 1


def test_translation_count_divides_squares():
    for o in (one_cylinder(4), Origami((1, 0, 2), (2, 1, 0)), one_cylinder(5)):
        assert o.n % len(translations(o)) == 0


def test_commutator_order_matches_stratum():
    # zeros have order ord([x,y]) - 1 with multiplicity index of the cyclic hull
    for m, n, d in ((11, 5, 3), (9, 3, 4), (23, 11, 2), (12, 2, 11)):
        G = semidirect_cyclic(m, n, d)
        x, y = semidirect_generators(m, n)
        o = regular_origami(G, x, y)
        comm_order = G.element_order(G.commutator(x, y))
        uni = stratum_of(o).uniform()
        assert uni is not None
        assert uni[0] == comm_order - 1
        assert uni[1] == G.order // comm_order
        # group order identity: |G| = 2(m+1)/m (g-1) for zero order m
        zero_order = uni[0]
        assert G.order * zero_order == 2 * (zero_order + 1) * (genus_of(o) - 1)


def test_extend_by_cyclic_table_row():
    G = semidirect_cyclic(11, 5, 3)
    x, y = semidirect_generators(11, 5)
    H, a, b = extend_by_cyclic(G, x, y, 7)
    assert H.order == 385
    assert H.element_order(H.commutator(a, b)) == 11
    o = regular_origami(H, a, b)
    assert stratum_of(o) == parse_stratum("H(10^35)")
    assert genus_of(o) == 176


def test_extend_by_cyclic_identity():
    G = semidirect_cyclic(11, 5, 3)
    x, y = semidirect_generators(11, 5)
    H, a, b = extend_by_cyclic(G, x, y, 1)
    assert H.order == G.order
    assert stratum_of(regular_origami(H, a, b)) == parse_stratum("H(10^5)")


def test_extend_by_cyclic_coprimality():
    G = two_group("cyclic_x_z2", 2)  # Klein group: both generators of order 2
    x, y = 1 * 2, 1
    assert G.element_order(x) == 2 and G.element_order(y) == 2
    with pytest.raises(CoprimalityViolated):
        extend_by_cyclic(G, x, y, 2)


def test_extend_preserves_commutator_and_multiplies_index():
    G = dihedral(14)
    x, y = semidirect_generators(7, 2)
    for k in (2, 3, 6, 10):
        H, a, b = extend_by_cyclic(G, x, y, k)
        assert H.element_order(H.commutator(a, b)) == 7
        o = regular_origami(H, a, b)
        assert stratum_of(o) == Stratum((6,) * (2 * k))


def test_regularity_bound_trichotomy_small():
    # translations beyond 2(g-1) happen only for regular squares-as-group origamis
    for o in (one_cylinder(3), one_cylinder(4)):
        g = genus_of(o)
        assert len(translations(o)) <= 2 * (g - 1)
    D6 = dihedral(6)
    o = regular_origami(D6, *semidirect_generators(3, 2))
    g = genus_of(o)
    assert len(translations(o)) == 6 > 2 * (g - 1)


@st.composite
def _small_pairs(draw):
    n = draw(st.integers(2, 7))
    sh = tuple(draw(st.permutations(range(n))))
    sv = tuple(draw(st.permutations(range(n))))
    return sh, sv


@given(_small_pairs())
@settings(max_examples=300, deadline=None)
def test_random_pairs_genus_consistency(pair):
    sh, sv = pair
    if not perms.is_transitive_pair(sh, sv):
        return
    o = Origami(sh, sv)
    g = genus_of(o)
    assert g >= 1
    assert sum(stratum_of(o).zeros) == 2 * g - 2
    assert o.n % len(translations(o)) == 0


def _translations_reference(o):
    """Every target square propagated on its own: the O(n^2) definition."""
    n = o.n
    h, v = o.sigma_h, o.sigma_v
    hi, vi = perms.invert(h), perms.invert(v)
    out = []
    for j in range(n):
        tau = [-1] * n
        used = [False] * n
        tau[0] = j
        used[j] = True
        stack = [0]
        ok = True
        while stack and ok:
            p = stack.pop()
            tp = tau[p]
            for f in (h, v, hi, vi):
                q, tq = f[p], f[tp]
                if tau[q] == -1:
                    if used[tq]:
                        ok = False
                        break
                    tau[q] = tq
                    used[tq] = True
                    stack.append(q)
                elif tau[q] != tq:
                    ok = False
                    break
        if ok:
            out.append(tuple(tau))
    return out


def _random_origamis(seed, count):
    """Seeded transitive pairs on fewer than 40 squares.

    Half are uniform random pairs, whose translations are mostly trivial;
    the other half are random cyclic covers of random pairs, whose deck
    group adds translations, so that both found and failed targets occur.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a = rng.randrange(1, 14)
        b = 1 if len(out) % 2 == 0 else rng.randrange(2, 40 // a)
        sh, sv = list(range(a)), list(range(a))
        rng.shuffle(sh)
        rng.shuffle(sv)
        dh = [rng.randrange(b) for _ in range(a)]
        dv = [rng.randrange(b) for _ in range(a)]
        h = tuple(sh[i % a] + a * ((i // a + dh[i % a]) % b) for i in range(a * b))
        v = tuple(sv[i % a] + a * ((i // a + dv[i % a]) % b) for i in range(a * b))
        if perms.is_transitive_pair(h, v):
            out.append(Origami(h, v))
    return out


def _enumerated_origamis():
    from regori.enumerator import enumerate_regular

    return [w.origami for n in (8, 12, 16, 24) for w in enumerate_regular(n)]


@pytest.mark.parametrize(
    "family",
    [
        lambda: _random_origamis(seed=2024, count=1500),
        lambda: [one_cylinder(g) for g in range(2, 61)],
        _enumerated_origamis,
    ],
    ids=["random", "one_cylinder", "enumerated"],
)
def test_translations_match_per_target_reference(family):
    origamis = family()
    assert origamis
    for o in origamis:
        taus = translations(o)
        assert taus == _translations_reference(o), o.serialize()
        assert translation_order(o) == len(taus)
        # each generator at least doubles the orbit of square 0
        gens, orbit = _translation_generators(o)
        assert 2 ** len(gens) <= len(orbit)
        assert is_regular(o) == (len(taus) == o.n)


def test_random_covers_have_translations_and_dead_targets():
    counts = [(len(translations(o)), o.n) for o in _random_origamis(seed=2024, count=1500)]
    assert any(1 < t < n for t, n in counts)
    assert any(t == n > 1 for t, n in counts)


@pytest.mark.parametrize(
    "family",
    [
        lambda: _random_origamis(seed=2024, count=1500),
        lambda: [one_cylinder(g) for g in range(2, 31)],
    ],
    ids=["random", "one_cylinder"],
)
def test_translation_group_product_is_composition(family):
    # the product reads where a translation sends square 0; it must agree
    # with composing the permutations, also when 1 < |T| < n
    for o in family():
        T = translation_group(o)
        taus = T.perms
        index = {t: i for i, t in enumerate(taus)}
        assert T.identity == index[perms.identity(o.n)]
        for a in range(T.order):
            for b in range(T.order):
                assert T.mul(a, b) == index[perms.compose(taus[a], taus[b])], o.serialize()


def test_translation_order_large_regular_origami(capsys):
    from regori.cli import main

    assert main(["--output", "json", "regular-origami", "--group", "sd(11,175,3)"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["order"] == 1925
    assert payload["translations"] == 1925
