"""Finite groups on dense element indices 0..order-1.

A group is its order plus a total product on indices. Groups built from
explicit multiplication rules (cyclic, semidirect, ...) wrap an encoding of
structured elements; groups built by closure keep their permutations. Both
expose the same interface, and every operation here works through it.

`closure` is the one breadth-first closure: it generates permutation
groups, subgroups on indices, and the SL(2,p) matrix groups of `sl2`.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from . import perms
from .errors import BudgetExceeded, DegreeMismatch, NotGenerating

DEFAULT_ISO_BOUND = 64


class FiniteGroup:
    """A finite group with elements 0..order-1 and a callable product."""

    def __init__(self, order, mul, identity=0, label="", coords=None, perms_list=None):
        if order < 1:
            raise ValueError("order must be positive")
        self.order = order
        # the product on indices, a plain attribute so inner loops call it directly
        self.mul = mul
        self.identity = identity
        self.label = label or f"group of order {order}"
        # optional pretty-printer for structured elements, used in reports
        self._coords = coords
        # permutations realizing the elements, when built by closure
        self.perms = perms_list
        self._inv = {}
        self._orders = {}
        self._root_spectrum = None

    def __repr__(self):
        return f"FiniteGroup({self.label!r}, order={self.order})"

    def elements(self):
        return range(self.order)

    def power(self, a: int, k: int) -> int:
        if k < 0:
            a, k = self.inv(a), -k
        result = self.identity
        base = a
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result

    def element_order(self, a: int) -> int:
        cached = self._orders.get(a)
        if cached is not None:
            return cached
        k, x = 1, a
        while x != self.identity:
            x = self.mul(x, a)
            k += 1
        self._orders[a] = k
        return k

    def inv(self, a: int) -> int:
        cached = self._inv.get(a)
        if cached is not None:
            return cached
        # a^(ord-1) is the inverse; avoids scanning all elements
        b = self.power(a, self.element_order(a) - 1)
        self._inv[a] = b
        return b

    def commutator(self, a: int, b: int) -> int:
        ab = self.mul(a, b)
        return self.mul(ab, self.mul(self.inv(a), self.inv(b)))

    def coords(self, a: int):
        return self._coords(a) if self._coords else a

    def root_spectrum(self) -> tuple:
        """Sorted ((order, number of square roots), count) pairs over all
        elements; an isomorphism invariant.

        It refines the order spectrum: Z/4 x Z/4 and Z/4 : Z/4 have the
        same element orders, but only in the first does every square have
        four roots. Among the regular origamis on 32 squares it tells apart
        every pair of non-isomorphic translation groups that the
        enumerator's dedup compares.
        """
        if self._root_spectrum is None:
            roots = [0] * self.order
            for a in self.elements():
                roots[self.mul(a, a)] += 1
            counts = {}
            for a in self.elements():
                key = (self.element_order(a), roots[a])
                counts[key] = counts.get(key, 0) + 1
            self._root_spectrum = tuple(sorted(counts.items()))
        return self._root_spectrum

    def right_translation(self, x: int) -> tuple:
        """The permutation g -> g*x of the element indices."""
        return tuple(self.mul(g, x) for g in self.elements())

    def check_axioms(self):
        """Exhaustive associativity / identity / inverse check. O(n^3): small groups only."""
        n = self.order
        e = self.identity
        for a in range(n):
            if self.mul(a, e) != a or self.mul(e, a) != a:
                raise AssertionError(f"{e} is not an identity at {a}")
            if self.mul(a, self.inv(a)) != e or self.mul(self.inv(a), a) != e:
                raise AssertionError(f"no two-sided inverse for {a}")
        for a in range(n):
            for b in range(n):
                ab = self.mul(a, b)
                for c in range(n):
                    if self.mul(ab, c) != self.mul(a, self.mul(b, c)):
                        raise AssertionError(f"associativity fails at ({a},{b},{c})")


class Subgroup(namedtuple("Subgroup", "parent members")):
    """A subgroup as the set of member indices of its parent group."""

    __slots__ = ()

    @property
    def order(self) -> int:
        return len(self.members)


def closure(identity, gens, mul, budget=None) -> list:
    """Every product of gens, in breadth-first discovery order from identity.

    The returned list is also the FIFO queue of the walk: each element is
    multiplied on the right by every generator in turn, and each product is
    appended when first seen. Raises BudgetExceeded on the first new element
    past ``budget``, so a group of exactly ``budget`` elements is allowed.
    """
    elems = [identity]
    seen = {identity}
    for x in elems:
        for g in gens:
            y = mul(x, g)
            if y not in seen:
                if budget is not None and len(elems) >= budget:
                    raise BudgetExceeded(f"closure passed budget {budget}")
                seen.add(y)
                elems.append(y)
    return elems


def closure_from_generators(gens, budget: int, label: str = "") -> FiniteGroup:
    """Group generated by permutations, elements numbered in BFS discovery order.

    The identity gets index 0 and each new product is numbered when first
    seen, so labels are stable for fixtures. Raises BudgetExceeded as soon
    as the closure passes ``budget`` elements.
    """
    gens = [perms.check_perm(g) for g in gens]
    degree = len(gens[0])
    if any(len(g) != degree for g in gens):
        raise DegreeMismatch("generators have different degrees")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    elems = closure(perms.identity(degree), gens, perms.compose, budget)
    index = {q: i for i, q in enumerate(elems)}

    def mul(a, b, _elems=elems, _index=index):
        return _index[perms.compose(_elems[a], _elems[b])]

    label = label or f"closure of {len(gens)} permutations on {degree} points"
    return FiniteGroup(len(elems), mul, identity=0, label=label, perms_list=elems)


def subgroup_generated(G: FiniteGroup, elems) -> Subgroup:
    """Closure of a set of elements under multiplication (BFS on indices)."""
    return Subgroup(G, frozenset(closure(G.identity, list(elems), G.mul)))


def generates(G: FiniteGroup, elems) -> bool:
    return subgroup_generated(G, elems).order == G.order


def derived_subgroup(G: FiniteGroup) -> Subgroup:
    """Smallest subgroup containing every commutator.

    Computed as the normal closure of the generator commutators, which
    equals the closure of all commutators at a fraction of the cost;
    the exhaustive variant below stays available as a cross-check.
    """
    gens = generating_set(G)
    if not gens:
        return Subgroup(G, frozenset({G.identity}))
    seeds = {G.commutator(s, t) for s in gens for t in gens}
    mul = G.mul
    while True:
        H = subgroup_generated(G, seeds)
        conj = {mul(mul(g, h), G.inv(g)) for g in gens for h in H.members}
        new = conj - H.members
        if not new:
            return H
        seeds = H.members | new


def derived_subgroup_exhaustive(G: FiniteGroup) -> Subgroup:
    comms = {G.commutator(a, b) for a in G.elements() for b in G.elements()}
    return subgroup_generated(G, comms)


def center(G: FiniteGroup) -> Subgroup:
    mul = G.mul
    members = frozenset(
        a
        for a in G.elements()
        if all(mul(a, b) == mul(b, a) for b in G.elements())
    )
    return Subgroup(G, members)


def generating_set(G: FiniteGroup) -> list:
    """A small generating set, found greedily.

    Candidates are scanned by decreasing element order (ties by lowest
    index) and each one that enlarges the running closure is kept, so the
    result is deterministic for a fixed element numbering.
    """
    if G.order == 1:
        return []
    orders = _all_element_orders(G)
    ranked = sorted(G.elements(), key=lambda a: (-orders[a], a))
    gens = []
    current = {G.identity}
    for a in ranked:
        if a in current:
            continue
        gens.append(a)
        current = set(subgroup_generated(G, gens).members)
        if len(current) == G.order:
            return gens
    raise AssertionError("scan exhausted without generating")  # pragma: no cover


def _all_element_orders(G: FiniteGroup) -> dict:
    """Fill G's order cache for every element, one walk per cyclic subgroup.

    Walking the powers a, a^2, ..., a^k = 1 of an element of order k gives
    every power its order at once: ord(a^i) = k / gcd(i, k).
    """
    orders = G._orders
    mul, e = G.mul, G.identity
    for a in G.elements():
        if a in orders:
            continue
        powers = [a]
        while powers[-1] != e:
            powers.append(mul(powers[-1], a))
        k = len(powers)
        for i, b in enumerate(powers, 1):
            orders[b] = k // gcd(i, k)
    return orders


def _hom_extension_images(G: FiniteGroup, H: FiniteGroup, gens, images):
    """Extend gens -> images to a map on all of G, or return None.

    Builds f by BFS over right multiplication by generators. Each element
    is expanded once, so every edge a -> a*g is checked (or assigned) as
    f(a*g) = f(a)*f(g), which forces the homomorphism property on the
    whole group.
    """
    f = {G.identity: H.identity}
    queue = [G.identity]
    gmul, hmul = G.mul, H.mul
    while queue:
        a = queue.pop()
        fa = f[a]
        for g, fg in zip(gens, images):
            b = gmul(a, g)
            fb = hmul(fa, fg)
            known = f.get(b)
            if known is None:
                f[b] = fb
                queue.append(b)
            elif known != fb:
                return None
    if len(f) != G.order:
        return None  # gens did not generate; caller bug
    return f


def _iter_isomorphisms(G: FiniteGroup, H: FiniteGroup, gens):
    from itertools import product

    orders = [G.element_order(g) for g in gens]
    pools = []
    for o in orders:
        pools.append([b for b in H.elements() if H.element_order(b) == o])
    # a homomorphism also keeps the order of each product of two generators
    pairs = [(i, k, G.element_order(G.mul(gens[i], gens[k])))
             for i in range(len(gens)) for k in range(i + 1, len(gens))]
    hmul = H.mul
    for images in product(*pools):
        if any(H.element_order(hmul(images[i], images[k])) != o for i, k, o in pairs):
            continue
        f = _hom_extension_images(G, H, gens, images)
        if f is None:
            continue
        if len(set(f.values())) == G.order:
            yield f


def automorphism_count(G: FiniteGroup, bound: int = DEFAULT_ISO_BOUND) -> int:
    """Number of automorphisms, by backtracking over generator images.

    Candidate images are pruned to elements of matching order before any
    extension is attempted.
    """
    if G.order > bound:
        raise BudgetExceeded(f"order {G.order} beyond bound {bound}")
    if G.order == 1:
        return 1
    gens = generating_set(G)
    return sum(1 for _ in _iter_isomorphisms(G, G, gens))


def is_isomorphic(G: FiniteGroup, H: FiniteGroup, bound: int = DEFAULT_ISO_BOUND) -> bool:
    if G.order > bound or H.order > bound:
        raise BudgetExceeded(f"orders {G.order}, {H.order} beyond bound {bound}")
    if G.order != H.order:
        return False
    if G.root_spectrum() != H.root_spectrum():
        return False
    gens = generating_set(G)
    for _ in _iter_isomorphisms(G, H, gens):
        return True
    return False


def require_generating_pair(G: FiniteGroup, x: int, y: int):
    if not generates(G, (x, y)):
        raise NotGenerating(f"elements {x}, {y} generate a proper subgroup of {G.label}")
