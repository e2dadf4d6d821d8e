"""Exhaustive search for regular pairs on a given square count.

A pair (sigma_h, sigma_v) is regular when the generated group acts simply
transitively, i.e. the origami's translations act transitively. For each
cycle type a^(n/a) of sigma_h, a ascending, one search (`_search`) fixes
sigma_h as the canonical product of equal cycles and backtracks over
sigma_v. The cycle length b of sigma_v is left open until its first cycle
closes, which fixes it. The search finds every regular pair with ord x = a
up to relabelling, for every b.

These devices keep the tree small, each explained where it lives:

* branching along square 0's chain, so that b is fixed early (`_search`);
* translation propagation (`_PairState`, over the targets of `_tracked`):
  the partial coset-table closure of low-index search (Sims, *Computation
  with Finitely Presented Groups*, ch. 5). A conflict kills the branch,
  and the sigma_v values it forces are applied at once (the freeness
  prune: any word fixing a square must fix them all). The translations
  may stay partial at a leaf, so a leaf is tested afresh for transitivity
  and regularity;
* a read-only candidate filter (`_PairState.admissible`);
* exact subtree prunes: a closed orbit of square 0 smaller than n
  (`_orbit_size`), below which every leaf is intransitive, and a short
  word that has closed (`_short_word`);
* cycle symmetry: permuting the untouched sigma_h-cycles commutes with
  sigma_h, so a choice entering fresh territory may as well land on the
  leader of the first untouched cycle;
* class representatives: the first closed cycle may fix only b >= a
  (`_closable`), and a complete sigma_v with a short word is dropped;
* no n-cycle beside a > 1 (`_longest`), and closed forms for a = 1 and
  a = n (`_closed_form`).

The raw order of pairs is a, then b, then sigma_v lexicographic, over the
regular pairs that pass the class-representative tests, each taken up to
cycle symmetry: the relabellings that permute and rotate the
sigma_h-cycles other than cycle 0, which commute with sigma_h and fix
square 0. Each search returns the least conjugate of each leaf
(`_least_conjugate`), sorted by b and then lexicographically:

- Cycle symmetry keeps every test a leaf must pass: transitivity,
  regularity, b and the walks from square 0.
- Each rule of the search holds at any node, whatever square it branches
  on. Propagation and the candidate filter drop only what no regular
  completion satisfies, the subtree prunes are exact, and the symmetry
  rule drops a choice only for a relabelling of it that fixes every
  value set so far. So every orbit with a kept member yields a leaf,
  however much is forced, and its least conjugate stands for it.
- A leaf with cycle length b passes the same tests on its way down as in
  a search with b fixed from the start: its chains never exceed b, and
  its first closed cycle has length b, which divides n and is at least
  as long as every open chain. So no leaf is lost by leaving b open.
- A conjugate has the dedup key of its pair (below) and is preceded by
  the least conjugate, so the first raw pair with each key is the same
  as over every member of every orbit, in lexicographic order.

Which origami stands for each class is the first raw pair with its dedup
key, so a prune keeps the output exactly when it drops only pairs whose
class has an earlier raw member. The class-representative device does
that:

- Dedup keys a pair on its stratum and the isomorphism class of its
  translation group, which is anti-isomorphic to G = <x, y>. A regular
  stratum is H((c-1)^(n/c)) for c the commutator order, so the stratum
  and c determine each other.
- The images (y, x), (x, x^k y) and (x y^k, y) generate the same G, and
  their commutators are conjugate to [x, y]^(+-1), so every image has the
  key of (x, y).
- In a regular pair, right multiplication by g has all its cycles of
  length ord(g), so a cycle through square 0 that closes early gives
  ord(x^k y) < b or ord(x y^k) < a. Each skipped or dropped regular pair
  thus has an image in a block that comes earlier: (b, a) with b < a,
  (a, ord(x^k y)), or (ord(x y^k), b).
- The earliest block holding a member of a class therefore has a <= b and
  no droppable pair, and that block's leaves include the class's first
  raw member. Dropping leaves keeps the rest of the raw stream in order,
  so that member is still the first.
- Intransitive and irregular leaves are dropped too, which is harmless.
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


def _longest(n, a) -> int:
    """The longest sigma_v cycle a kept pair can have beside sigma_h of type
    a^(n/a): n when a = 1, else the largest proper divisor of n.

    With b = n and a > 1, G = <y> is cyclic and x = y^m, so x y^(n-m) closes
    in one step, fewer than a, and the pair would be dropped as a short
    word. While b is open, a chain may thus grow only to this length.
    """
    return n if a == 1 else n // next(d for d in range(2, n + 1) if n % d == 0)


def _closable(a, b, cstart, clen, length) -> bool:
    """May a sigma_v chain of this length close into a cycle?

    Once b is fixed, exactly when length is b. Before, the first cycle to
    close fixes b, so its length must lie between a and `_longest`, divide
    n, and leave no chain longer than itself; no cycle has closed yet, so
    every chain is open.
    """
    if b is not None:
        return length == b
    n = len(cstart)
    return (
        a <= length <= _longest(n, a)
        and n % length == 0
        and all(clen[s] <= length for s in range(n) if cstart[s] == s)
    )


def _apply(sv, svi, cstart, cend, clen, a, b, p, q):
    """sigma_v(p) = q with uniform-cycle bookkeeping; b afterwards, which a
    first closed cycle fixes; _Conflict when illegal.

    Once sigma_v(p) and sigma_v^-1(q) are known unset, p ends its chain and
    q starts one: a square with no successor is the last of its chain, and
    one with no predecessor is the first.
    """
    if sv[p] != -1:
        if sv[p] == q:
            return b
        raise _Conflict
    if svi[q] != -1:
        raise _Conflict
    sp = cstart[p]
    if q == sp:
        # closing the chain into a cycle of length b
        if not _closable(a, b, cstart, clen, clen[sp]):
            raise _Conflict
        sv[p] = q
        svi[q] = p
        return clen[sp]
    if b is not None and clen[sp] + clen[q] > b:
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
    return b


def _tracked(n, a) -> list:
    """The target squares whose translations the pair search keeps: those
    of sigma_h-cycles 0 and 1, and every cycle leader c*a. For a = 1 or
    a >= n/2 that is every square but 0.

    In a regular completion tau_(c*a+i) = tau_(c*a) tau_i, so these
    translations generate all of them, and a composite target would mostly
    repeat deductions its factors make. Cycle 1 is kept because sigma_v(0)
    lies in cycle 0 or on the fresh leader a, so cycle 1 holds the first
    composite translations (y x^i) the search can use.
    """
    return [*range(1, min(n, 2 * a)), *range(2 * a, n, a)]


class _PairState:
    """A partial sigma_v beside sigma_h = (0..a-1)(a..2a-1)..., with undo.

    sigma_v's cycle length b is None until its first cycle closes, which
    fixes it (`_closable`); until then chains may grow to any length.

    For each tracked target j (`_tracked`) it keeps the partial translation
    tau_j sending square 0 to j, and its inverse, grown by three rules: an
    edge of sigma_h or sigma_v at x whose image edge at tau_j(x) exists
    assigns tau_j at the other end; tau_j stays injective; and an edge
    x -> y of sigma_v with tau_j defined at both ends forces sigma_v at
    tau_j(x) to be tau_j(y). Every regular completion meets these rules
    for every j, and the leaf tests of `_search` do not read the targets,
    so any set of targets is sound; fewer only prune and force less.
    Target 0 is the identity, which never conflicts or forces anything.
    `set` applies the rules to its edge and collects the sigma_v values
    they force; `extend` writes those with their sigma_v bookkeeping only
    (see its docstring).

    A translation commutes with sigma_h, so it maps each sigma_h-cycle onto
    one by a rotation: tau_j's domain grows a whole cycle at a time, and
    the cycle of 0 is mapped onto the cycle of j from the start. Setting
    sigma_v(p) = q changes the rules only at p, q, tau_j^-1(p) and
    tau_j^-1(q), so only those points are visited, plus each point that
    enters a domain. Every change goes on one undo trail.
    """

    def __init__(self, n, a):
        self.n, self.a, self.b = n, a, None
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
        self.targets = []  # (tau_j, tau_j^-1) for each tracked j
        for j in _tracked(n, a):
            t, ti = [-1] * n, [-1] * n
            base = j - j % a
            for i in range(a):
                w = base + (j + i) % a
                t[i], ti[w] = w, i
            self.targets.append((t, ti))
        # p for sigma_v(p) being set; None where that fixed b; (tau_j,
        # tau_j^-1, first square of the cycle, first square of its image)
        # for a sigma_h-cycle entering tau_j's domain
        self.trail = []
        self.forced = {}

    def extend(self, p, q):
        """Set sigma_v(p) = q and the values it forces; _Conflict when a
        translation can no longer exist.

        Only the chosen edge goes through the rules of `set`. A forced edge
        is a translate of an edge that went through them, so its own
        consequences are left to `_close`, which checks every edge of a
        cycle entering a domain, and to the leaf tests of `_search`.
        """
        self.set(p, q)
        for fp, fq in self.pending():
            self._assign(fp, fq)

    def admissible(self, p):
        """What the first checks of `set` leave open for sigma_v(p), read
        without writing: (the square it must be, or -1; the arrays among
        the tau_j and tau_j^-1 that must be undefined at it), or None when
        two targets pin different squares.

        Where tau_j(p) = tp and sigma_v(tp) = g, q must be tau_j^-1(g), and
        lie outside tau_j's domain when that is undefined; where
        tau_j(u) = p and sigma_v(u) = y, q must be tau_j(y), and lie outside
        tau_j's image when that is undefined. A domain and an image are
        unions of sigma_h-cycles, so each such test rules out whole cycles.
        """
        sv = self.sv
        pin, unset = -1, []
        for t, ti in self.targets:
            tp, u = t[p], ti[p]
            if tp != -1 and sv[tp] != -1:
                w = ti[sv[tp]]
                if w == -1:
                    unset.append(t)
                elif pin != w:
                    if pin != -1:
                        return None
                    pin = w
            if u != -1 and sv[u] != -1:
                w = t[sv[u]]
                if w == -1:
                    unset.append(ti)
                elif pin != w:
                    if pin != -1:
                        return None
                    pin = w
        return pin, unset

    def pending(self) -> list:
        """The sigma_v values forced since the last call and still unset."""
        sv = self.sv
        todo = [(fp, fq) for fp, fq in self.forced.items() if sv[fp] == -1]
        self.forced = {}
        return todo

    def _assign(self, p, q):
        """sigma_v(p) = q with its bookkeeping on the trail, no rules."""
        a = self.a
        b = _apply(self.sv, self.svi, self.cstart, self.cend, self.clen, a, self.b, p, q)
        self.trail.append(p)
        if b != self.b:
            self.b = b
            self.trail.append(None)
        self.assigned += 1
        self.touched[p // a] += 1
        self.touched[q // a] += 1

    def set(self, p, q):
        """sigma_v(p) = q, then every consequence for the translations."""
        sv, svi = self.sv, self.svi
        if sv[p] == q:
            return
        self._assign(p, q)
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
            if e is None:
                self.b = None
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


def _short_word(sv, a, b) -> bool:
    """Walking from square 0, does x^k y (1 <= k < a) close in fewer than b
    steps, or x y^k (1 <= k < b) in fewer than a?

    A step of x^k y is g -> sigma_v(sigma_h^k(g)), one of x y^k is
    g -> sigma_v^k(sigma_h(g)). On a partial sigma_v a walk ends open at an
    unset value (-1); one that has closed stays closed as sigma_v grows.
    """
    for k in range(1, a):
        g = 0
        for _ in range(b - 1):
            g = sv[g - g % a + (g + k) % a]
            if g <= 0:
                if g == 0:
                    return True
                break
    if a > 1:
        for k in range(1, b):
            g = 0
            for _ in range(a - 1):
                g = g - g % a + (g + 1) % a
                for _ in range(k):
                    g = sv[g]
                    if g < 0:
                        break
                if g <= 0:
                    break
            if g == 0:
                return True
    return False


def _orbit_size(sv, a) -> int:
    """The size of the orbit of square 0 under sigma_h and the sigma_v edges
    set so far, or 0 while sigma_v is unset somewhere in it.

    A set of squares that sigma_v maps into itself is mapped onto itself,
    so a closed orbit holds no unset end of sigma_v^-1 either, and stays
    closed as sigma_v grows.
    """
    seen = bytearray(len(sv) // a)
    seen[0] = 1
    cycles = [0]
    for c in cycles:
        for y in sv[c * a:c * a + a]:
            if y < 0:
                return 0
            if not seen[y // a]:
                seen[y // a] = 1
                cycles.append(y // a)
    return len(cycles) * a


def _least_conjugate(sv, a) -> tuple:
    """The lexicographically least relabelling of a transitive sigma_v by the
    cycle symmetry: permutations and rotations of the sigma_h-cycles other
    than cycle 0, which commute with sigma_h and fix square 0.

    Greedy over p = 0..n-1: cycle 0 stays fixed, and the value at p of a
    cycle not yet placed maps to the leader of the next new cycle, the
    least value it can take. Transitivity places the cycle of p in time.
    """
    n = len(sv)
    label, square = [-1] * n, [-1] * n
    label[:a] = square[:a] = range(a)
    placed = a  # the leader of the next new cycle
    least = []
    for p in range(n):
        q = sv[square[p]]
        if label[q] == -1:
            qb = q - q % a
            for i in range(a):
                s = qb + (q + i) % a
                label[s], square[placed + i] = placed + i, s
            placed += a
        least.append(label[q])
    return tuple(least)


def _closed_form(n, a):
    """The leaves of `_search` for a = 1, the n-cycle (1, 2, ..., n-1, 0),
    which the search would reach; for a = n > 1, none, since b >= a makes
    b = n there (`_longest`); None for any other a."""
    if a == 1:
        return [(*range(1, n), 0)]
    return [] if a == n else None


def _search(n, a) -> list:
    """The raw pairs with sigma_h of type a^(n/a), in raw order: b ascending,
    then sigma_v lexicographic. Only transitive, regular pairs with no
    short word are kept, each as its least conjugate (`_least_conjugate`).

    While the sigma_v-chain through square 0 is open, the search branches
    on its last square, so that the first cycle closes, fixing b, as early
    as it can; then on the smallest unset square.
    """
    sh = perms.uniform_cycles(n, a)
    closed = _closed_form(n, a)
    if closed is not None:
        return [(sh, sv) for sv in closed]

    ncyc, longest = n // a, _longest(n, a)
    st = _PairState(n, a)
    sv, svi, cstart, cend, clen, touched = st.sv, st.svi, st.cstart, st.cend, st.clen, st.touched
    leaves = set()  # (b, least conjugate of sigma_v)

    def rec():
        b = st.b
        if st.assigned == n:
            svt = tuple(sv)
            if (_orbit_size(svt, a) == n and not _short_word(svt, a, b)
                    and is_regular(Origami(sh, svt))):
                leaves.add((b, _least_conjugate(svt, a)))
            return
        p = cend[cstart[0]]
        if sv[p] != -1:  # the cycle of square 0 has closed
            p = sv.index(-1)
        pcyc = p // a
        if not touched[pcyc] and _orbit_size(sv, a):  # closed, smaller than n
            return
        # every leaf below has b at least this, and a closed walk stays closed
        if _short_word(sv, a, max(a, *clen) if b is None else b):
            return
        admissible = st.admissible(p)
        if admissible is None:
            return
        pin, unset = admissible
        fresh_leader = next((c * a for c in range(ncyc) if not touched[c] and c != pcyc), None)
        sp = cstart[p]
        room = longest if b is None else b
        cands = []
        for q in range(n) if pin == -1 else (pin,):
            if svi[q] != -1 or q == p:
                continue
            if not touched[q // a] and q // a != pcyc and q != fresh_leader:
                continue
            # svi[q] == -1, so q starts its own chain
            if q == sp:
                if not _closable(a, b, cstart, clen, clen[sp]):
                    continue
            elif clen[sp] + clen[q] > room:
                continue
            for m in unset:
                if m[q] != -1:
                    break
            else:
                cands.append(q)
        for q in cands:
            mark = len(st.trail)
            try:
                st.extend(p, q)
            except _Conflict:
                st.undo(mark)
                continue
            rec()
            st.undo(mark)

    rec()
    return [(sh, svt) for _, svt in sorted(leaves)]


def enumerate_regular(n: int, budget: int = DEFAULT_ENUM_BUDGET) -> list:
    """All regular pairs on n squares, up to relabeling and group data.

    Deduplicates by stratum and group isomorphism class, which is exactly
    what stratum-existence questions need, and sorts by (stratum,
    serialized origami). Each witness is verified regular before being
    kept.
    """
    if n < 1:
        raise ValueError(f"square count must be at least 1, got {n}")
    if n > budget:
        raise BudgetExceeded(f"square count {n} beyond budget {budget}")
    raw = []
    for a in divisors(n):
        for sh, sv in _search(n, a):
            o = Origami(sh, sv)
            T = translation_group(o)
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
            # the stratum H((c-1)^(n/c)) fixes the commutator order c
            if v.stratum == w.stratum and is_isomorphic(v.group, w.group, bound=max(n, 64)):
                dup = True
                break
        if not dup:
            kept.append(w)
    kept.sort(key=lambda w: (w.stratum.zeros, w.origami.serialize()))
    return kept


def witnesses_for_stratum(witnesses, stratum: Stratum) -> list:
    return [w for w in witnesses if w.stratum == stratum]
