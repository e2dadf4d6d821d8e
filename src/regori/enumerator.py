"""Exhaustive search for regular pairs on a given square count.

A pair (sigma_h, sigma_v) is regular when the generated group acts simply
transitively, i.e. the origami's translations act transitively. The search
fixes sigma_h as the canonical product of equal cycles, then backtracks
over sigma_v among uniform-cycle-type permutations. The (a, b) blocks of
sigma_h of type a^(n/a) and sigma_v of type b^(n/b) run in raw order, a
then b ascending, and each block's search finds every regular pair with
ord x = a, ord y = b up to relabelling.

Three devices keep the tree small:

* translation propagation: for every target square j, the partial
  translation sending 0 to j is kept across the whole search and grown
  incrementally as sigma_v is set, with every change on an undo trail
  that backtracking unwinds (the partial coset-table closure of low-index
  search, Sims, *Computation with Finitely Presented Groups*, ch. 5). A
  conflict kills the branch, and values it forces on sigma_v are applied
  at once (this realizes the freeness prune: any word fixing a square
  must fix them all). The rules are exactly those of rebuilding every
  translation from scratch at each node;
* cycle symmetry: permuting the untouched sigma_h-cycles commutes with
  sigma_h, so a choice entering fresh territory may as well land on the
  leader of the first untouched cycle;
* class representatives: only blocks with a <= b run, and a subtree is
  dropped as soon as, walking from square 0, the word x^k y (1 <= k < a)
  closes in fewer than b steps or x y^k (1 <= k < b) in fewer than a.

Which origami stands for each class is the first raw pair with its dedup
key, so a prune keeps the output exactly when it drops only pairs whose
class has an earlier raw member. The last device does that:

- Dedup keys a pair on its stratum, its commutator order and the
  isomorphism class of its translation group, which is anti-isomorphic to
  G = <x, y>.
- The images (y, x), (x, x^k y) and (x y^k, y) generate the same G, and
  their commutators are conjugate to [x, y]^(+-1). A regular stratum is
  H((c-1)^(n/c)) for c the commutator order, so every image has the key
  of (x, y).
- In a regular pair, right multiplication by g has all its cycles of
  length ord(g), so a cycle through square 0 that has closed in a partial
  sigma_v gives ord(x^k y) < b or ord(x y^k) < a in every regular
  completion. Each skipped or dropped regular pair thus has an image in a
  block that comes earlier: (b, a) with b < a, (a, ord(x^k y)), or
  (ord(x y^k), b).
- The earliest block holding a member of a class therefore has a <= b and
  no droppable pair, and the complete search of that block meets the
  class's first raw member there. Dropping leaves keeps the rest of the
  raw stream in order, so that member is still the first.
- Intransitive and irregular leaves are filtered afterwards, so dropping
  them is harmless.

Results are deduplicated by group isomorphism plus commutator order and
sorted by (stratum, serialized origami).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import perms
from .errors import BudgetExceeded
from .groups import FiniteGroup, is_isomorphic
from .numtheory import divisors
from .origami import Origami, stratum_of, translation_group
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


class _PairState:
    """A partial sigma_v beside sigma_h = (0..a-1)(a..2a-1)..., with undo.

    For every target j = 1..n-1 it keeps the partial translation tau_j
    sending square 0 to j, and its inverse, closed under three rules: an
    edge of sigma_h or sigma_v at x whose image edge at tau_j(x) exists
    assigns tau_j at the other end; tau_j stays injective; and an edge
    x -> y of sigma_v with tau_j defined at both ends forces sigma_v at
    tau_j(x) to be tau_j(y). Target 0 is the identity, which never
    conflicts or forces anything.

    A translation commutes with sigma_h, so it maps each sigma_h-cycle onto
    one by a rotation: tau_j's domain grows a whole cycle at a time, and
    the cycle of 0 is mapped onto the cycle of j from the start. Setting
    sigma_v(p) = q changes the rules only at p, q, tau_j^-1(p) and
    tau_j^-1(q), so only those points are visited, plus each point that
    enters a domain. Every change goes on one undo trail.
    """

    def __init__(self, n, a, b):
        self.n, self.a, self.b = n, a, b
        self.sv = [-1] * n
        self.svi = [-1] * n
        self.cstart = list(range(n))
        self.cend = list(range(n))
        self.clen = [1] * n
        self.assigned = 0
        # sigma_v edge ends in each sigma_h-cycle: the cycle-symmetry prune
        # lets only touched cycles and one fresh leader be chosen; the cycle
        # of 0 counts as touched from the start
        self.touched = [0] * (n // a)
        self.touched[0] = 1
        self.targets = []  # (tau_j, tau_j^-1) for j = 1..n-1
        for j in range(1, n):
            t, ti = [-1] * n, [-1] * n
            base = j - j % a
            for i in range(a):
                w = base + (j + i) % a
                t[i], ti[w] = w, i
            self.targets.append((t, ti))
        # p for sigma_v(p) being set; (tau_j, tau_j^-1, first square of the
        # cycle, first square of its image) for a sigma_h-cycle entering
        # tau_j's domain
        self.trail = []
        self.forced = {}

    def extend(self, p, q):
        """Set sigma_v(p) = q and every value it forces; _Conflict when a
        translation can no longer exist."""
        todo = [(p, q)]
        while todo:
            for fp, fq in todo:
                self.set(fp, fq)
            todo = self.pending()

    def pending(self) -> list:
        """The sigma_v values forced since the last call and still unset."""
        sv = self.sv
        todo = [(fp, fq) for fp, fq in self.forced.items() if sv[fp] == -1]
        self.forced = {}
        return todo

    def set(self, p, q):
        """sigma_v(p) = q, then every consequence for the translations."""
        sv, svi, a = self.sv, self.svi, self.a
        if sv[p] == q:
            return
        _apply(sv, svi, self.cstart, self.cend, self.clen, self.b, p, q)
        self.trail.append(p)
        self.assigned += 1
        self.touched[p // a] += 1
        self.touched[q // a] += 1
        forced, close = self.forced, self._close
        todo = []  # (y, g): tau_j(y) must be g
        for t, ti in self.targets:
            # the new edge p -> q where tau_j is defined at either end
            tp, tq = t[p], t[q]
            if tp != -1:
                g = sv[tp]
                if g == -1:
                    # pins sigma_v(tp) = tq; a used tq is the conflict the
                    # rule at q would find
                    if tq != -1 and (svi[tq] != -1 or forced.setdefault(tp, tq) != tq):
                        raise _Conflict
                elif tq != g:
                    todo.append((q, g))
            elif tq != -1:
                g = svi[tq]
                if g != -1:
                    todo.append((p, g))
            # the edges that tau_j maps onto p -> q
            u = ti[p]
            if u != -1:
                y = sv[u]
                if y != -1 and t[y] != q:
                    todo.append((y, q))
            u = ti[q]
            if u != -1:
                y = svi[u]
                if y != -1 and t[y] != p:
                    todo.append((y, p))
            if todo:
                close(t, ti, todo)

    def _close(self, t, ti, todo):
        """Meet the (y, g) demands on tau_j and whatever the new points imply;
        todo is left empty."""
        sv, svi, a, forced = self.sv, self.svi, self.a, self.forced
        while todo:
            y, g = todo.pop()
            ty = t[y]
            if ty != -1:
                if ty != g:
                    raise _Conflict
                continue
            if ti[g] != -1:
                raise _Conflict
            # the sigma_h-cycle of y enters the domain, rotated onto that of g
            yb, gb = y - y % a, g - g % a
            shift = g - gb - (y - yb)
            self.trail.append((t, ti, yb, gb))
            for x in range(yb, yb + a):
                # an edge to a square of the cycle not yet placed is checked
                # again from that square
                tx = gb + (x - yb + shift) % a
                t[x], ti[tx] = tx, x
                y = sv[x]
                if y != -1:
                    g, ty = sv[tx], t[y]
                    if g != -1:
                        if ty != g:
                            todo.append((y, g))
                    elif ty != -1 and (svi[ty] != -1 or forced.setdefault(tx, ty) != ty):
                        raise _Conflict
                y = svi[x]
                if y != -1:
                    g, ty = svi[tx], t[y]
                    if g != -1:
                        if ty != g:
                            todo.append((y, g))
                    elif ty != -1 and (sv[ty] != -1 or forced.setdefault(ty, tx) != tx):
                        raise _Conflict

    def undo(self, mark):
        """Unwind the trail to its length `mark`, dropping pending forces."""
        self.forced = {}
        a, trail, blank = self.a, self.trail, [-1] * self.a
        sv, svi, cstart, cend, clen = self.sv, self.svi, self.cstart, self.cend, self.clen
        while len(trail) > mark:
            e = trail.pop()
            if type(e) is tuple:
                t, ti, yb, gb = e
                t[yb:yb + a] = ti[gb:gb + a] = blank
                continue
            p = e
            q = sv[p]
            sv[p] = svi[q] = -1
            self.assigned -= 1
            self.touched[p // a] -= 1
            self.touched[q // a] -= 1
            sp = cstart[p]
            if q == sp:
                continue  # it closed a cycle
            # split the chain sp..p q..end back in two
            end_q = cend[sp]
            r = q
            while True:
                cstart[r] = q
                if r == end_q:
                    break
                r = sv[r]
            cend[sp] = p
            clen[sp] -= clen[q]


class _ShortWords:
    """Walks from square 0 of the words x^k y and x y^k, grown with sigma_v.

    Word (kh, kv, limit) takes the step g -> sigma_v^kv(sigma_h^kh(g)):
    (k, 1, b) for 1 <= k < a and (1, k, a) for 1 <= k < b. A walk is
    followed only while it could still come back to 0 in fewer than limit
    steps. It waits at the square whose sigma_v value it needs next, so a
    check visits only the few squares that walks wait at. The undo log
    holds, per square whose walks moved on, those walks with their step
    counts, and each square a walk moved on to.
    """

    def __init__(self, a, b, sv):
        self.sv, self.a = sv, a
        self.words = [(k, 1, b) for k in range(1, a)]
        if a > 1:
            self.words += [(1, k, a) for k in range(1, b)]
        self.count = [0] * len(self.words)  # sigma_v steps taken by each walk
        self.waiting = {}  # square -> the walks waiting at it
        for w, (kh, _, _) in enumerate(self.words):
            self.waiting.setdefault(kh, []).append(w)  # sigma_h^kh(0) = kh
        self.log = []

    def closes_early(self) -> bool:
        """Move on every walk whose square now has its sigma_v value; True
        when one of them comes back to square 0 in fewer than limit steps."""
        sv, a, words, count, waiting, log = (
            self.sv, self.a, self.words, self.count, self.waiting, self.log)
        for p in [p for p in waiting if sv[p] != -1]:
            ws = waiting.pop(p)
            log.append((p, ws, [count[w] for w in ws]))
            for w in ws:
                kh, kv, limit = words[w]
                x, c = p, count[w]
                while True:
                    r = sv[x]
                    if r == -1:
                        count[w] = c
                        waiting.setdefault(x, []).append(w)
                        log.append(x)
                        break
                    c += 1
                    if c % kv:
                        x = r
                        continue
                    if r == 0:
                        return True
                    if c // kv + 1 >= limit:
                        break  # it can no longer close early
                    x = r - r % a + (r + kh) % a
        return False

    def undo(self, mark):
        """Unwind the log to its length `mark`."""
        log, waiting, count = self.log, self.waiting, self.count
        while len(log) > mark:
            e = log.pop()
            if type(e) is int:
                ws = waiting[e]
                ws.pop()
                if not ws:
                    del waiting[e]
                continue
            p, ws, counts = e
            waiting[p] = ws
            for w, c in zip(ws, counts):
                count[w] = c


def _enumerate_pairs(n, a, b):
    """Yield completed sigma_v's for sigma_h of type a^(n/a), sigma_v of type b^(n/b)."""
    sh = perms.uniform_cycles(n, a)
    if b == 1:
        if a == n:
            yield sh, perms.identity(n)
        return

    ncyc = n // a
    st = _PairState(n, a, b)
    sv, svi, cstart, clen, touched = st.sv, st.svi, st.cstart, st.clen, st.touched
    words = _ShortWords(a, b, sv)

    def rec():
        if st.assigned == n:
            yield tuple(sv)
            return
        p = sv.index(-1)
        pcyc = p // a
        fresh_leader = next((c * a for c in range(ncyc) if not touched[c] and c != pcyc), None)
        sp = cstart[p]
        cands = []
        for q in range(n):
            if svi[q] != -1 or q == p:
                continue
            if not touched[q // a] and q // a != pcyc and q != fresh_leader:
                continue
            if cstart[q] == sp:
                if q == sp and clen[sp] == b:
                    cands.append(q)
            elif cstart[q] == q and clen[sp] + clen[q] <= b:
                cands.append(q)
        for q in cands:
            mark = len(st.trail)
            try:
                st.extend(p, q)
            except _Conflict:
                st.undo(mark)
                continue
            wmark = len(words.log)
            if not words.closes_early():
                yield from rec()
            words.undo(wmark)
            st.undo(mark)

    for svt in rec():
        yield sh, svt


def _blocks(n) -> list:
    """The (n, a, b) blocks searched, in raw order: a <= b only."""
    return [(n, a, b) for a in divisors(n) for b in divisors(n) if a <= b]


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
    if workers < 1:
        raise ValueError(f"worker count must be at least 1, got {workers}")
    if n > budget:
        raise BudgetExceeded(f"square count {n} beyond budget {budget}")
    blocks = _blocks(n)
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
            T = translation_group(o)
            if T.order != n:
                continue
            # The pair generates a regular group, anti-isomorphic to its
            # centralizer, the translations (Dixon & Mortimer, Thm 4.2A); sh
            # and sv map to the translations moving square 0 as they do, at
            # indices sh[0] and sv[0]. Isomorphism class and commutator
            # order are kept.
            raw.append(EnumWitness(o, T, sh[0], sv[0], stratum_of(o)))
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
