"""The exhaustive regular-pair search and its cross-checks."""

import pytest

from regori.enumerator import enumerate_regular, witnesses_for_stratum
from regori.errors import BudgetExceeded
from regori.origami import is_regular, genus_of, stratum_of
from regori.strata import Stratum, parse_stratum


def test_budget():
    with pytest.raises(BudgetExceeded):
        enumerate_regular(40)


def test_rejects_nonpositive_workers():
    for workers in (0, -2):
        with pytest.raises(ValueError, match="worker count"):
            enumerate_regular(6, workers=workers)


def test_six_squares_has_dihedral_witness():
    ws = enumerate_regular(6)
    hits = witnesses_for_stratum(ws, parse_stratum("H(2^2)"))
    assert len(hits) == 1
    assert hits[0].group_order == 6
    assert hits[0].commutator_order == 3


def test_eight_squares_has_quaternion_witness():
    from regori.groups import is_isomorphic
    from regori.constructions import two_group

    ws = enumerate_regular(8)
    hits = witnesses_for_stratum(ws, parse_stratum("H(1^4)"))
    assert len(hits) == 2  # the two nonabelian order-8 groups
    assert any(is_isomorphic(w.group, two_group("Dic", 3)) for w in hits)
    for w in hits:
        assert w.commutator_order == 2
        assert genus_of(w.origami) == 3


def test_five_squares_only_torus_covers():
    ws = enumerate_regular(5)
    assert all(w.stratum == Stratum(()) for w in ws)
    assert all(w.commutator_order == 1 for w in ws)


def test_witnesses_are_regular_and_consistent():
    for n in (4, 6, 8, 9, 10, 12):
        for w in enumerate_regular(n):
            assert is_regular(w.origami)
            assert w.group_order == n
            assert stratum_of(w.origami) == w.stratum
            assert sum(w.stratum.zeros) == 2 * (genus_of(w.origami) - 1)
            # zeros all share order (commutator order - 1)
            if w.stratum.zeros:
                k, s = w.stratum.uniform()
                assert k == w.commutator_order - 1
                assert s == n // w.commutator_order


def test_translation_bound_trichotomy():
    # regular squares-as-group surfaces pass 2(g-1); everything the search
    # keeps is regular, so the top bound 4(g-1) is the only cap
    for n in (6, 8, 12, 16):
        for w in enumerate_regular(n):
            g = genus_of(w.origami)
            if g > 1:
                assert 2 * (g - 1) < n <= 4 * (g - 1)


def test_dedup_keeps_separate_groups():
    ws = enumerate_regular(16)
    h34 = witnesses_for_stratum(ws, parse_stratum("H(3^4)"))
    assert len(h34) == 3  # dihedral, semidihedral, dicyclic


def test_workers_agree_with_serial():
    serial = enumerate_regular(12, workers=1)
    parallel = enumerate_regular(12, workers=2)
    key = lambda ws: [(w.stratum.zeros, w.origami.serialize()) for w in ws]
    assert key(serial) == key(parallel)


def _unpruned(monkeypatch):
    """Switch the search back to every (a, b) block and no short-word prune."""
    from regori import enumerator
    from regori.numtheory import divisors

    monkeypatch.setattr(enumerator._ShortWords, "closes_early", lambda self: False)
    monkeypatch.setattr(
        enumerator, "_blocks", lambda n: [(n, a, b) for a in divisors(n) for b in divisors(n)]
    )


def test_class_representative_search_keeps_output(monkeypatch):
    # the pruned search keeps the first raw member of every class, so the
    # witnesses are the same, and each block's stream only loses pairs
    from regori import enumerator

    sizes = range(1, 25)
    key = lambda ws: [
        (w.origami.serialize(), w.stratum.zeros, w.group_order, w.commutator_order) for w in ws
    ]
    pruned = {n: key(enumerate_regular(n)) for n in sizes}
    streams = {blk: enumerator._pairs_for_block(blk) for n in sizes for blk in enumerator._blocks(n)}
    _unpruned(monkeypatch)
    for n in sizes:
        assert key(enumerate_regular(n)) == pruned[n], n
    for blk, pairs in streams.items():
        full = iter(enumerator._pairs_for_block(blk))
        assert all(pair in full for pair in pairs), blk


def test_cyclic_pair_with_x_a_power_of_y_is_pruned(monkeypatch):
    # x = y^16 in Z/32: its image (x y^16, y) = (1, y) lies in block (1, 32)
    from regori import enumerator, perms

    assert enumerator._pairs_for_block((32, 2, 32)) == []
    cyclic = [
        w for w in enumerate_regular(32)
        if w.commutator_order == 1 and w.origami.sigma_h == perms.identity(32)
    ]
    assert len(cyclic) == 1 and perms.cycle_type(cyclic[0].origami.sigma_v) == (32,)
    _unpruned(monkeypatch)
    [(sh, sv)] = enumerator._pairs_for_block((32, 2, 32))
    y16 = perms.identity(32)
    for _ in range(16):
        y16 = tuple(sv[i] for i in y16)
    assert sh == y16


def _closes_early_reference(sv, a, b):
    """Walk x^k y (1 <= k < a) and x y^k (1 <= k < b) from square 0 afresh:
    does one come back to 0 in fewer than b, resp. a, steps?"""
    rot = lambda g, k: g - g % a + (g + k) % a
    words = [(k, 1, b) for k in range(1, a)] + [(1, k, a) for k in range(1, b)]
    for kh, kv, limit in words:
        g = 0
        for _ in range(limit - 1):
            g = rot(g, kh)
            for _ in range(kv):
                g = sv[g] if g != -1 else -1
            if g == 0:
                return True
            if g == -1:
                break
    return False


@pytest.mark.parametrize("n", (12, 16, 18, 24))
def test_incremental_short_words_match_fresh_walks(n, monkeypatch):
    from collections import Counter

    from regori import enumerator

    stats = Counter()
    incremental = enumerator._ShortWords.closes_early
    block = None

    def checked(self):
        got = incremental(self)
        assert got == _closes_early_reference(self.sv, *block[1:]), block
        stats[got] += 1
        return got

    monkeypatch.setattr(enumerator._ShortWords, "closes_early", checked)
    for block in enumerator._blocks(n):
        enumerator._pairs_for_block(block)
    assert stats[True] and stats[False], stats


def _uniform_perms(n, b):
    """Every permutation of {0..n-1} with all cycles of length b."""
    if n % b:
        return
    if b == 1:
        yield tuple(range(n))
        return

    def rec(unplaced, mapping):
        if not unplaced:
            yield dict(mapping)
            return
        first = min(unplaced)
        rest = sorted(unplaced - {first})
        from itertools import permutations

        for tail in permutations(rest, b - 1):
            cycle = (first,) + tail
            for i in range(b):
                mapping[cycle[i]] = cycle[(i + 1) % b]
            yield from rec(unplaced - set(cycle), mapping)
        return

    for mapping in rec(set(range(n)), {}):
        yield tuple(mapping[i] for i in range(n))


def test_bruteforce_crosscheck_small():
    # no symmetry breaking, no propagation: just filter every uniform pair
    from regori import perms
    from regori.groups import closure_from_generators, is_isomorphic
    from regori.numtheory import divisors
    from regori.origami import Origami, translations

    for n in (4, 6, 8, 9):
        brute = []
        for a in divisors(n):
            sh = perms.uniform_cycles(n, a)
            for b in divisors(n):
                for sv in _uniform_perms(n, b):
                    if not perms.is_transitive_pair(sh, sv):
                        continue
                    if len(translations(Origami(sh, sv))) != n:
                        continue
                    G = closure_from_generators([sh, sv], budget=n + 1)
                    if G.order != n:
                        continue
                    o = Origami(sh, sv)
                    x, y = G.perms.index(sh), G.perms.index(sv)
                    comm = G.element_order(G.commutator(x, y))
                    brute.append((stratum_of(o), comm, G))
        brute_classes = []
        for stratum, comm, G in brute:
            if not any(
                s == stratum and c == comm and is_isomorphic(H, G, bound=64)
                for s, c, H in brute_classes
            ):
                brute_classes.append((stratum, comm, G))
        fast = enumerate_regular(n)
        assert len(fast) == len(brute_classes), n
        for stratum, comm, G in brute_classes:
            assert any(
                w.stratum == stratum
                and w.commutator_order == comm
                and is_isomorphic(w.group, G, bound=64)
                for w in fast
            ), (n, stratum, comm)


def test_stratum_existence_matches_two_zero_rule():
    # H((g-1)^2) holds a witness exactly for odd genus
    for n in range(4, 25, 2):
        g = n // 2
        ws = enumerate_regular(n)
        hits = witnesses_for_stratum(ws, Stratum((g - 1, g - 1))) if g >= 2 else []
        if g >= 2 and g % 2 == 1:
            assert hits, n
        else:
            assert not hits, n


def _propagate_reference(n, sh, shi, sv, svi):
    """Every square-0 translation rebuilt from scratch; the forced sigma_v values.

    Raises _Conflict when some translation cannot exist, which no
    completion of the partial sigma_v can repair.
    """
    from regori.enumerator import _Conflict

    forced = {}
    for j in range(n):
        tau = [-1] * n
        used = [False] * n
        tau[0] = j
        used[j] = True
        queue = [0]
        while queue:
            p = queue.pop()
            tp = tau[p]
            for f in (sh, shi):
                q, tq = f[p], f[tp]
                if tau[q] == -1:
                    if used[tq]:
                        raise _Conflict
                    tau[q] = tq
                    used[tq] = True
                    queue.append(q)
                elif tau[q] != tq:
                    raise _Conflict
            for f in (sv, svi):
                q = f[p]
                if q == -1:
                    continue
                gq = f[tp]
                if gq != -1:
                    if tau[q] == -1:
                        if used[gq]:
                            raise _Conflict
                        tau[q] = gq
                        used[gq] = True
                        queue.append(q)
                    elif tau[q] != gq:
                        raise _Conflict
                elif tau[q] != -1:
                    # equivariance pins sigma_v at tau[p]: f(tp) must be tau[q]
                    src, dst = (tp, tau[q]) if f is sv else (tau[q], tp)
                    prev = forced.get(src)
                    if prev is not None and prev != dst:
                        raise _Conflict
                    forced[src] = dst
    return forced


def _reference_round(n, b, sh, shi, state, batch):
    """Set the batch on a copy of state, then rebuild: (new state, forced or None)."""
    from regori.enumerator import _apply, _Conflict

    state = tuple(list(s) for s in state)
    try:
        for p, q in batch:
            _apply(*state, b, p, q)
        return state, _propagate_reference(n, sh, shi, state[0], state[1])
    except _Conflict:
        return state, None


def _random_walk(n, a, b, rng, stats):
    """Descend a random search path, comparing every round with the rebuild.

    At each node a random sigma_v(p) = q is tried and its forced values are
    set round by round, as the search does; a conflict undoes the try and
    the next q is tried. The path ends when sigma_v is complete or every q
    conflicts.
    """
    from regori import perms
    from regori.enumerator import _Conflict, _PairState

    sh = perms.uniform_cycles(n, a)
    shi = perms.invert(sh)
    st = _PairState(n, a, b)
    bookkeeping = lambda: (st.sv, st.svi, st.cstart, st.cend, st.clen)
    ref = tuple(list(s) for s in bookkeeping())
    while st.assigned < n:
        p = st.sv.index(-1)
        cands = [q for q in range(n) if st.svi[q] == -1]
        rng.shuffle(cands)
        for q in cands:
            mark = len(st.trail)
            taus = [(t[:], ti[:]) for t, ti in st.targets]
            batch, state = [(p, q)], ref
            while batch:
                state, expected = _reference_round(n, b, sh, shi, state, batch)
                try:
                    for fp, fq in batch:
                        st.set(fp, fq)
                    got = dict(st.pending())
                except _Conflict:
                    got = None
                assert got == expected, (n, a, b, batch)
                stats["conflicts" if got is None else "forced" if got else "quiet"] += 1
                batch = list(got.items()) if got else []
            if got is not None:
                ref = state
                break
            st.undo(mark)
            assert bookkeeping() == ref
            assert [(t[:], ti[:]) for t, ti in st.targets] == taus
        else:
            return


@pytest.mark.parametrize("n", (12, 16, 18, 24))
def test_incremental_propagation_matches_rebuild(n):
    import random
    from collections import Counter

    from regori.numtheory import divisors

    stats = Counter()
    for a in divisors(n):
        for b in divisors(n):
            if b == 1:
                continue  # sigma_v is the identity; nothing is searched
            for walk in range(3):
                _random_walk(n, a, b, random.Random(f"{n},{a},{b},{walk}"), stats)
    assert min(stats["conflicts"], stats["forced"], stats["quiet"]) > 0, stats
