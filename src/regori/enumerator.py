"""Exhaustive search for regular pairs on a given square count.

A pair (sigma_h, sigma_v) is regular when the generated group acts simply
transitively, i.e. the origami's translations act transitively. The search
fixes sigma_h as the canonical product of equal cycles, then backtracks
over sigma_v among uniform-cycle-type permutations.

Two devices keep the tree small:

* translation propagation: for every target square j, the translation
  sending 0 to j is propagated through the determined edges; a conflict
  kills the branch, and values it forces on sigma_v are applied at once
  (this realizes the freeness prune: any word fixing a square must fix
  them all);
* cycle symmetry: permuting the untouched sigma_h-cycles commutes with
  sigma_h, so a choice entering fresh territory may as well land on the
  leader of the first untouched cycle.

Results are deduplicated by group isomorphism plus commutator order and
sorted by (stratum, serialized origami).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import perms
from .errors import BudgetExceeded
from .groups import FiniteGroup, is_isomorphic
from .numtheory import divisors
from .origami import Origami, is_regular, stratum_of, translation_group
from .strata import Stratum

DEFAULT_ENUM_BUDGET = 32


@dataclass(frozen=True)
class EnumWitness:
    origami: Origami
    group: FiniteGroup
    x: int
    y: int
    stratum: Stratum

    @property
    def group_order(self) -> int:
        return self.group.order

    @property
    def commutator_order(self) -> int:
        return self.group.element_order(self.group.commutator(self.x, self.y))


class _Conflict(Exception):
    pass


def _propagate(n, sh, shi, sv, svi):
    """Propagate all square-0 translations; return forced sigma_v values.

    Raises _Conflict when some translation cannot exist, which no
    completion of the partial sigma_v can repair.
    """
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


def _apply(sv, svi, cstart, cend, clen, b, p, q):
    """sigma_v(p) = q with uniform-cycle bookkeeping; _Conflict when illegal."""
    if sv[p] != -1:
        if sv[p] == q:
            return
        raise _Conflict
    if svi[q] != -1:
        raise _Conflict
    sp = cstart[p]
    if cend[sp] != p:
        raise _Conflict  # p is mid-chain
    if q == sp:
        # closing the chain into a cycle of exact length b
        if clen[sp] != b:
            raise _Conflict
        sv[p] = q
        svi[q] = p
        return
    if cstart[q] != q:
        raise _Conflict  # q is not a chain start
    if clen[sp] + clen[q] > b:
        raise _Conflict
    sv[p] = q
    svi[q] = p
    end_q = cend[q]
    r = q
    while True:
        cstart[r] = sp
        if r == end_q:
            break
        r = sv[r]
    cend[sp] = end_q
    clen[sp] += clen[q]


def _enumerate_pairs(n, a, b):
    """Yield completed sigma_v's for sigma_h of type a^(n/a), sigma_v of type b^(n/b)."""
    sh = perms.uniform_cycles(n, a)
    shi = perms.invert(sh)
    if b == 1:
        if a == n:
            yield sh, perms.identity(n)
        return

    ncyc = n // a

    def rec(sv, svi, cstart, cend, clen, frozen, assigned):
        if assigned == n:
            yield tuple(sv)
            return
        p = next(i for i in range(n) if sv[i] == -1)
        pcyc = p // a
        eff_frozen = frozen | {pcyc}
        fresh_leader = next((c * a for c in range(ncyc) if c not in eff_frozen), None)
        cands = []
        for q in range(n):
            if svi[q] != -1 or q == p:
                continue
            if q // a not in eff_frozen and q != fresh_leader:
                continue
            sp = cstart[p]
            if cstart[q] == sp:
                if q == sp and clen[sp] == b:
                    cands.append(q)
            elif cstart[q] == q and clen[sp] + clen[q] <= b:
                cands.append(q)
        for q in cands:
            state = _snapshot(sv, svi, cstart, cend, clen, frozen)
            try:
                _apply(sv, svi, cstart, cend, clen, b, p, q)
                frozen.add(pcyc)
                frozen.add(q // a)
                count = assigned + 1
                while True:
                    forced = _propagate(n, sh, shi, sv, svi)
                    todo = [(fp, fq) for fp, fq in forced.items() if sv[fp] == -1]
                    if not todo:
                        break
                    for fp, fq in todo:
                        _apply(sv, svi, cstart, cend, clen, b, fp, fq)
                        frozen.add(fp // a)
                        frozen.add(fq // a)
                        count += 1
                yield from rec(sv, svi, cstart, cend, clen, frozen, count)
            except _Conflict:
                pass
            _restore(state, sv, svi, cstart, cend, clen, frozen)

    sv = [-1] * n
    svi = [-1] * n
    cstart = list(range(n))
    cend = list(range(n))
    clen = [1] * n
    frozen = {0}
    for svt in rec(sv, svi, cstart, cend, clen, frozen, 0):
        yield sh, svt


def _snapshot(sv, svi, cstart, cend, clen, frozen):
    return (sv[:], svi[:], cstart[:], cend[:], clen[:], set(frozen))


def _restore(state, sv, svi, cstart, cend, clen, frozen):
    sv[:], svi[:], cstart[:], cend[:], clen[:] = state[0], state[1], state[2], state[3], state[4]
    frozen.clear()
    frozen.update(state[5])


def _pairs_for_block(args) -> list:
    n, a, b = args
    return list(_enumerate_pairs(n, a, b))


def enumerate_regular(n: int, budget: int = DEFAULT_ENUM_BUDGET, workers: int = 1) -> list:
    """All regular pairs on n squares, up to relabeling and group data.

    Deduplicates by (group isomorphism class, commutator order), which is
    exactly what stratum-existence questions need. Each witness is verified
    regular before being kept. With several workers the (cycle type,
    cycle type) blocks run in a process pool; block order keeps the merge
    deterministic.
    """
    if n < 1:
        raise ValueError(f"square count must be at least 1, got {n}")
    if n > budget:
        raise BudgetExceeded(f"square count {n} beyond budget {budget}")
    blocks = [(n, a, b) for a in divisors(n) for b in divisors(n)]
    if workers > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            pair_lists = pool.map(_pairs_for_block, blocks)
    else:
        pair_lists = [_pairs_for_block(block) for block in blocks]
    raw = []
    for pairs in pair_lists:
        for sh, sv in pairs:
            if not perms.is_transitive_pair(sh, sv):
                continue
            o = Origami(sh, sv)
            if not is_regular(o):
                continue
            # The pair generates a regular group, anti-isomorphic to its
            # centralizer, the translations (Dixon & Mortimer, Thm 4.2A); sh
            # and sv map to the translations moving square 0 as they do, at
            # indices sh[0] and sv[0]. Isomorphism class and commutator
            # order are kept.
            raw.append(EnumWitness(o, translation_group(o), sh[0], sv[0], stratum_of(o)))
    kept = []
    for w in raw:
        dup = False
        for v in kept:
            if (
                v.stratum == w.stratum
                and v.commutator_order == w.commutator_order
                and is_isomorphic(v.group, w.group, bound=max(n, 64))
            ):
                dup = True
                break
        if not dup:
            kept.append(w)
    kept.sort(key=lambda w: (w.stratum.zeros, w.origami.serialize()))
    return kept


def witnesses_for_stratum(witnesses, stratum: Stratum) -> list:
    return [w for w in witnesses if w.stratum == stratum]
