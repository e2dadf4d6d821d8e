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


def _block_reference(n, a, b):
    """The search of one (a, b) block with b fixed from the start and no
    short-word prune: every sigma_v of type b^(n/b) it reaches beside
    sigma_h of type a^(n/a), intransitive ones included, in lexicographic
    order."""
    from regori import perms
    from regori.enumerator import _Conflict, _PairState

    sh = perms.uniform_cycles(n, a)
    if b == 1:
        return [(sh, perms.identity(n))] if a == n else []
    ncyc = n // a
    st = _PairState(n, a)
    st.b = b
    sv, svi, cstart, clen, touched = st.sv, st.svi, st.cstart, st.clen, st.touched
    leaves = []

    def rec():
        if st.assigned == n:
            leaves.append((sh, tuple(sv)))
            return
        p = sv.index(-1)
        pcyc = p // a
        fresh_leader = next((c * a for c in range(ncyc) if not touched[c] and c != pcyc), None)
        sp = cstart[p]
        for q in range(n):
            if svi[q] != -1 or q == p:
                continue
            if not touched[q // a] and q // a != pcyc and q != fresh_leader:
                continue
            if cstart[q] == sp:
                if q != sp or clen[sp] != b:
                    continue
            elif cstart[q] != q or clen[sp] + clen[q] > b:
                continue
            mark = len(st.trail)
            try:
                st.extend(p, q)
            except _Conflict:
                st.undo(mark)
                continue
            rec()
            st.undo(mark)

    rec()
    return leaves


def _cycle_length_of_0(sv):
    g, length = sv[0], 1
    while g != 0:
        g, length = sv[g], length + 1
    return length


def _unpruned(monkeypatch):
    """Switch the search back to every (a, b) block and no short-word prune."""
    from regori import enumerator, perms
    from regori.numtheory import divisors

    monkeypatch.setattr(enumerator, "_search", lambda n, a: [
        pair for b in divisors(n) for pair in _block_reference(n, a, b)
        if perms.is_transitive_pair(*pair)
    ])


def test_class_representative_search_keeps_output(monkeypatch):
    # the pruned search keeps the first raw member of every class, so the
    # witnesses are the same, and each block's stream only loses pairs
    from regori import enumerator, perms
    from regori.numtheory import divisors

    sizes = range(1, 25)
    key = lambda ws: [
        (w.origami.serialize(), w.stratum.zeros, w.group_order, w.commutator_order) for w in ws
    ]
    pruned = {n: key(enumerate_regular(n)) for n in sizes}
    for n in sizes:
        for a in divisors(n):
            got = enumerator._search(n, a)
            lengths = [_cycle_length_of_0(sv) for _, sv in got]
            assert lengths == sorted(lengths) and all(b >= a for b in lengths), (n, a)
            for b in divisors(n):
                full = iter(p for p in _block_reference(n, a, b) if perms.is_transitive_pair(*p))
                pairs = [pair for pair, length in zip(got, lengths) if length == b]
                assert all(pair in full for pair in pairs), (n, a, b)
    _unpruned(monkeypatch)
    for n in sizes:
        assert key(enumerate_regular(n)) == pruned[n], n


def test_cyclic_pair_with_x_a_power_of_y_is_pruned():
    # x = y^16 in Z/32: its image (x y^16, y) = (1, y) lies in block (1, 32)
    from regori import enumerator, perms

    assert all(perms.cycle_type(sv) != (32,) for _, sv in enumerator._search(32, 2))
    cyclic = [
        w for w in enumerate_regular(32)
        if w.commutator_order == 1 and w.origami.sigma_h == perms.identity(32)
    ]
    assert len(cyclic) == 1 and perms.cycle_type(cyclic[0].origami.sigma_v) == (32,)
    [(sh, sv)] = _block_reference(32, 2, 32)
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
def test_one_search_per_a_matches_fixed_b_blocks(n):
    # grouped by b, the search's leaves are the least conjugates of each
    # block's transitive leaves whose short words do not close early, in
    # lexicographic order
    from collections import Counter

    from regori import enumerator, perms
    from regori.numtheory import divisors

    stats = Counter()
    for a in divisors(n):
        got = enumerator._search(n, a)
        for b in divisors(n):
            if b < a:
                continue
            expected = []
            for sh, sv in _block_reference(n, a, b):
                if perms.is_transitive_pair(sh, sv):
                    early = _closes_early_reference(sv, a, b)
                    assert enumerator._short_word(sv, a, b) == early, (n, a, b, sv)
                    stats[early] += 1
                    if not early:
                        expected.append((sh, enumerator._least_conjugate(sv, a)))
            assert [pair for pair in got if _cycle_length_of_0(pair[1]) == b] == sorted(
                set(expected)), (a, b)
    assert stats[True] and stats[False], stats


def _relabel(sv, a, order, shifts):
    """sigma_v conjugated by the relabelling that sends sigma_h-cycle c to
    order[c], rotated by shifts[c]; it commutes with sigma_h."""
    phi = [order[x // a] * a + (x + shifts[x // a]) % a for x in range(len(sv))]
    out = [0] * len(sv)
    for x, y in enumerate(sv):
        out[phi[x]] = phi[y]
    return tuple(out)


def _relabellings(n, a):
    """Every relabelling that permutes and rotates the sigma_h-cycles other
    than cycle 0, as (order, shifts)."""
    from itertools import permutations, product

    for rest in permutations(range(1, n // a)):
        for shifts in product(range(a), repeat=n // a - 1):
            yield (0, *rest), (0, *shifts)


def test_least_conjugate_is_the_least_relabelling():
    # every leaf is the least of its relabellings, and each relabelling of
    # it maps back to it
    from math import factorial

    from regori import enumerator
    from regori.numtheory import divisors

    for n in range(1, 13):
        for a in divisors(n):
            k = n // a
            if factorial(k - 1) * a ** (k - 1) > 50_000:
                # only the cyclic leaf (1, 2, ..., n-1, 0), whose values are
                # each the least unused one
                assert a == 1 and n >= 10, (n, a)
                continue
            for _, sv in enumerator._search(n, a):
                least = sv
                for order, shifts in _relabellings(n, a):
                    conj = _relabel(sv, a, order, shifts)
                    assert enumerator._least_conjugate(conj, a) == sv, (n, a, conj)
                    least = min(least, conj)
                assert least == sv, (n, a)


def test_least_conjugate_is_idempotent_and_invariant():
    import random

    from regori import enumerator
    from regori.numtheory import divisors

    rng = random.Random(20)
    leaves = 0
    for n in range(1, 33):
        for a in divisors(n):
            rest = list(range(1, n // a))
            for _, sv in enumerator._search(n, a):
                leaves += 1
                assert enumerator._least_conjugate(sv, a) == sv, (n, a)
                for _ in range(4):
                    rng.shuffle(rest)
                    order = (0, *rest)
                    shifts = (0, *(rng.randrange(a) for _ in rest))
                    assert enumerator._least_conjugate(_relabel(sv, a, order, shifts), a) == sv
    assert leaves > 100, leaves


def test_closed_forms_and_cycle_bound_keep_the_leaves(monkeypatch):
    # a = 1 and a = n need no search, and b = n only with a = 1: the
    # general search with neither shortcut yields the same leaves
    from regori import enumerator
    from regori.numtheory import divisors

    sizes = range(2, 25)
    shortcut = {(n, a): enumerator._search(n, a) for n in sizes for a in divisors(n)}
    assert all(shortcut[n, 1] == [(tuple(range(n)), (*range(1, n), 0))] for n in sizes)
    assert all(shortcut[n, n] == [] for n in sizes)
    monkeypatch.setattr(enumerator, "_closed_form", lambda n, a: None)
    monkeypatch.setattr(enumerator, "_longest", lambda n, a: n)
    for (n, a), leaves in shortcut.items():
        assert enumerator._search(n, a) == leaves, (n, a)


def test_first_closed_cycle_fixes_b():
    # sigma_h = (0 1 2)(3 4 5)(6 7 8)(9 10 11); chains that avoid the cycle
    # of square 0 force nothing, so only the closing rule can conflict
    from regori.enumerator import _Conflict, _PairState

    st = _PairState(12, 3)

    def chain(*squares):
        for p, q in zip(squares, squares[1:]):
            st.set(p, q)

    fresh = (st.sv[:], st.svi[:], st.cstart[:], st.cend[:], st.clen[:])
    for open_chain, cycle in (
        ((), (3, 4, 3)),  # shorter than a
        ((), (3, 4, 5, 6, 7, 3)),  # 5 does not divide 12
        ((3, 4, 5, 6, 7, 8), (9, 10, 11, 9)),  # an open chain is longer
    ):
        chain(*open_chain)
        chain(*cycle[:-1])
        assert st.b is None
        with pytest.raises(_Conflict):
            st.set(cycle[-2], cycle[-1])
        st.undo(0)
        assert st.pending() == [] and (st.sv, st.svi, st.cstart, st.cend, st.clen) == fresh
    chain(3, 4)
    mark = len(st.trail)
    chain(9, 10, 11)
    closing = len(st.trail)
    st.set(11, 9)
    assert st.b == 3
    chain(4, 5)
    with pytest.raises(_Conflict):
        st.set(5, 6)  # a chain longer than b
    st.undo(closing)
    assert st.b is None and st.sv[11] == st.sv[4] == -1
    chain(4, 5, 6)  # until b is fixed, chains grow past 3
    st.undo(mark)
    assert st.b is None and st.sv[9] == st.sv[4] == -1


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


def _propagate_reference(n, a, sh, shi, sv, svi):
    """The square-0 translations the search tracks, rebuilt from scratch;
    the forced sigma_v values.

    Raises _Conflict when some translation cannot exist, which no
    completion of the partial sigma_v can repair.
    """
    from regori.enumerator import _Conflict, _tracked

    forced = {}
    for j in _tracked(n, a):
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


def _reference_round(n, a, sh, shi, state, batch):
    """Set the batch on a copy of state, then rebuild: (new state, forced or None)."""
    from regori.enumerator import _apply, _Conflict

    lists, b = state
    lists = tuple(list(s) for s in lists)
    try:
        for p, q in batch:
            b = _apply(*lists, a, b, p, q)
        return (lists, b), _propagate_reference(n, a, sh, shi, lists[0], lists[1])
    except _Conflict:
        return (lists, b), None


def _random_walk(n, a, rng, stats):
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
    st = _PairState(n, a)
    bookkeeping = lambda: ((st.sv, st.svi, st.cstart, st.cend, st.clen), st.b)
    ref = (tuple(list(s) for s in bookkeeping()[0]), None)
    while st.assigned < n:
        p = st.sv.index(-1)
        cands = [q for q in range(n) if st.svi[q] == -1]
        rng.shuffle(cands)
        for q in cands:
            mark = len(st.trail)
            taus = [(t[:], ti[:]) for t, ti in st.targets]
            batch, state = [(p, q)], ref
            while batch:
                state, expected = _reference_round(n, a, sh, shi, state, batch)
                try:
                    for fp, fq in batch:
                        st.set(fp, fq)
                    got = dict(st.pending())
                except _Conflict:
                    got = None
                assert got == expected, (n, a, batch)
                stats["conflicts" if got is None else "forced" if got else "quiet"] += 1
                batch = list(got.items()) if got else []
            if got is not None:
                assert bookkeeping() == state
                ref = state
                break
            st.undo(mark)
            assert bookkeeping() == ref
            assert [(t[:], ti[:]) for t, ti in st.targets] == taus
        else:
            return


WALKS_PER_A = 24


@pytest.mark.parametrize("n", (12, 16, 18, 24))
def test_incremental_propagation_matches_rebuild(n):
    import random
    from collections import Counter

    from regori.numtheory import divisors

    stats = Counter()
    for a in divisors(n):
        for walk in range(WALKS_PER_A):
            _random_walk(n, a, random.Random(f"{n},{a},{walk}"), stats)
    assert min(stats["conflicts"], stats["forced"], stats["quiet"]) > 0, stats


def _filter_walk(n, a, rng, stats):
    """Descend a random search path; at each node, every candidate that
    `admissible` rejects must conflict when it is extended from there."""
    from regori.enumerator import _Conflict, _PairState

    st = _PairState(n, a)
    while st.assigned < n:
        p = st.sv.index(-1)
        admissible = st.admissible(p)
        pin, unset = admissible or (-1, [])
        kept = []
        for q in range(n):
            if st.svi[q] != -1:
                continue
            if admissible and (pin == -1 or q == pin) and all(m[q] == -1 for m in unset):
                kept.append(q)
                continue
            stats["no candidate" if not admissible else "unpinned" if pin not in (-1, q) else "ruled out"] += 1
            mark = len(st.trail)
            with pytest.raises(_Conflict):
                st.extend(p, q)
            st.undo(mark)
        rng.shuffle(kept)
        for q in kept:
            mark = len(st.trail)
            try:
                st.extend(p, q)
                break
            except _Conflict:
                st.undo(mark)
        else:
            return


@pytest.mark.parametrize("n", (12, 16, 18, 24))
def test_candidate_filter_rejects_only_conflicts(n):
    import random
    from collections import Counter

    from regori.numtheory import divisors

    stats = Counter()
    for a in divisors(n):
        for walk in range(WALKS_PER_A):
            _filter_walk(n, a, random.Random(f"filter {n},{a},{walk}"), stats)
    assert stats["unpinned"] and stats["ruled out"], stats


def test_subtree_prunes_keep_the_leaves(monkeypatch):
    # the closed-orbit and early short-word prunes only drop subtrees with
    # no leaf: switched off on partial sigma_v's, the search yields the same
    from collections import Counter

    from regori import enumerator
    from regori.numtheory import divisors

    sizes = range(1, 25)
    pruned = {(n, a): enumerator._search(n, a) for n in sizes for a in divisors(n)}
    fired = Counter()
    orbit_size, short_word = enumerator._orbit_size, enumerator._short_word

    def unpruned(name, prune):
        def wrapper(sv, *args):
            result = prune(sv, *args)
            if -1 in sv:
                fired[name] += bool(result)
                return 0
            return result
        return wrapper

    monkeypatch.setattr(enumerator, "_orbit_size", unpruned("orbit", orbit_size))
    monkeypatch.setattr(enumerator, "_short_word", unpruned("short word", short_word))
    for (n, a), leaves in pruned.items():
        assert enumerator._search(n, a) == leaves, (n, a)
    assert fired["orbit"] and fired["short word"], fired


def test_tracked_targets_generate_the_translations():
    # cycle 0 and the leaders generate every translation of a regular
    # completion; cycle 1 is tracked too, and small cycles leave nothing out
    from regori.enumerator import _tracked
    from regori.numtheory import divisors

    for n in range(1, 49):
        for a in divisors(n):
            tracked = _tracked(n, a)
            assert len(set(tracked)) == len(tracked) and set(tracked) <= set(range(1, n))
            assert set(range(1, a)) | set(range(a, n, a)) <= set(tracked), (n, a)
            assert set(range(a, min(n, 2 * a))) <= set(tracked), (n, a)
            if a == 1 or 2 * a >= n:
                assert tracked == list(range(1, n)), (n, a)


def test_tracking_every_target_keeps_the_leaves(monkeypatch):
    # fewer targets prune and force less, but never change which leaves
    # the search yields, nor their order
    from regori import enumerator
    from regori.numtheory import divisors

    sizes = range(1, 25)
    tracked = {(n, a): enumerator._search(n, a) for n in sizes for a in divisors(n)}
    monkeypatch.setattr(enumerator, "_tracked", lambda n, a: range(1, n))
    assert len(enumerator._PairState(24, 2).targets) == 23
    for (n, a), leaves in tracked.items():
        assert enumerator._search(n, a) == leaves, (n, a)


def test_orbit_size_of_partial_sigma_v():
    # against a closure over sigma_h, sigma_v and sigma_v^-1: sigma_v maps
    # a random union of sigma_h-cycles and its complement onto themselves,
    # with some values unset; the orbit is closed exactly when no edge end
    # in it is unset
    import random
    from collections import Counter

    from regori import perms
    from regori.enumerator import _orbit_size

    rng = random.Random(7)
    outcomes = Counter()
    for _ in range(400):
        n, a = rng.choice(((12, 3), (12, 2), (16, 4), (18, 3)))
        sh = perms.uniform_cycles(n, a)
        inside = [x for x in range(n) if x // a == 0 or rng.random() < 0.5]
        sv, svi = [-1] * n, [-1] * n
        share_unset = rng.choice((0, 0.05, 0.3))
        for part in (inside, [x for x in range(n) if x not in inside]):
            for p, q in zip(part, rng.sample(part, len(part))):
                if rng.random() >= share_unset:
                    sv[p], svi[q] = q, p
        orbit, frontier = {0}, [0]
        while frontier:
            x = frontier.pop()
            for y in (sh[x], sv[x], svi[x]):
                if y != -1 and y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        closed = all(sv[x] != -1 and svi[x] != -1 for x in orbit)
        outcomes["open" if not closed else "all" if len(orbit) == n else "part"] += 1
        assert _orbit_size(sv, a) == (len(orbit) if closed else 0), (sv, a)
    assert min(outcomes["open"], outcomes["all"], outcomes["part"]) > 0, outcomes


# the square counts of perfbench's enum-sweep workload
ENUM_SWEEP_SIZES = (8, 10, 12, 14, 15, 16, 18, 20, 21, 22, 24, 25, 26, 27, 28, 32)


def extend_calls(sizes, budget=32) -> int:
    """How many candidates `enumerate_regular` writes over these sizes: a
    count of `_PairState.extend` calls, free of timing noise."""
    from regori.enumerator import _PairState

    calls = 0
    extend = _PairState.extend

    def counted(self, p, q):
        nonlocal calls
        calls += 1
        return extend(self, p, q)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_PairState, "extend", counted)
        for n in sizes:
            enumerate_regular(n, budget=budget)
    return calls


def test_search_effort():
    assert extend_calls(ENUM_SWEEP_SIZES) <= 4_500
    assert extend_calls([48], budget=48) <= 13_000


if __name__ == "__main__":
    print(f"extend calls over the enum-sweep sizes: {extend_calls(ENUM_SWEEP_SIZES)}")
    print(f"extend calls for n = 48: {extend_calls([48], budget=48)}")
    print(f"extend calls for n = 60: {extend_calls([60], budget=60)}")
