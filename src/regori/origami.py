"""Origamis: pairs of permutations gluing unit squares into a surface.

Squares are glued rightward by sigma_h and upward by sigma_v. The surface
must be connected, so the pair is required to act transitively. Building
from a group uses right multiplication for the gluings, which leaves left
multiplication free to act as translations.
"""

from __future__ import annotations

from . import perms
from .errors import InvalidGenus
from .groups import FiniteGroup, require_generating_pair
from .strata import Stratum


class Origami:
    """An immutable, hashable pair (sigma_h, sigma_v) of permutations acting
    transitively; a plain class, so that building one imports no
    `dataclasses`."""

    __slots__ = ("sigma_h", "sigma_v")

    def __init__(self, sigma_h, sigma_v):
        h = perms.check_perm(sigma_h)
        v = perms.check_perm(sigma_v)
        object.__setattr__(self, "sigma_h", h)
        object.__setattr__(self, "sigma_v", v)
        if not perms.is_transitive_pair(h, v):
            raise ValueError("the squares are not connected")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not Origami:
            return NotImplemented
        return self.sigma_h == other.sigma_h and self.sigma_v == other.sigma_v

    def __hash__(self):
        return hash((self.sigma_h, self.sigma_v))

    def __repr__(self):
        return f"Origami(sigma_h={self.sigma_h!r}, sigma_v={self.sigma_v!r})"

    def __reduce__(self):
        return Origami, (self.sigma_h, self.sigma_v)

    @property
    def n(self) -> int:
        return len(self.sigma_h)

    def serialize(self) -> str:
        return ";".join(
            (str(self.n), perms.format_perm(self.sigma_h), perms.format_perm(self.sigma_v))
        )

    @staticmethod
    def deserialize(text: str) -> "Origami":
        n_str, h_str, v_str = text.split(";")
        h, v = perms.parse_perm(h_str), perms.parse_perm(v_str)
        if len(h) != int(n_str):
            raise ValueError(f"square count {n_str} does not match {len(h)}")
        return Origami(h, v)


def regular_origami(G: FiniteGroup, x: int, y: int) -> Origami:
    """Label squares by group elements; glue rightward by *x and upward by *y."""
    require_generating_pair(G, x, y)
    return Origami(G.right_translation(x), G.right_translation(y))


def singularity_permutation(o: Origami) -> tuple:
    """sigma_h sigma_v sigma_h^-1 sigma_v^-1; its long cycles mark the zeros."""
    return perms.compose(
        perms.compose(o.sigma_h, o.sigma_v),
        perms.compose(perms.invert(o.sigma_h), perms.invert(o.sigma_v)),
    )


def stratum_of(o: Origami) -> Stratum:
    zeros = []
    for c in perms.cycles(singularity_permutation(o)):
        if len(c) >= 2:
            zeros.append(len(c) - 1)
    return Stratum(tuple(zeros))


def genus_of(o: Origami) -> int:
    cycles = perms.cycles(singularity_permutation(o))
    return (o.n - len(cycles)) // 2 + 1


def _extend(h, v, hi, vi, j: int):
    """The translation sending square 0 to j, or None when there is none.

    A translation is determined by the image of square 0: the unique
    equivariant extension either closes up or hits a contradiction.
    """
    n = len(h)
    tau = [-1] * n
    used = [False] * n
    tau[0] = j
    used[j] = True
    stack = [0]
    while stack:
        p = stack.pop()
        tp = tau[p]
        for f in (h, v, hi, vi):
            q, tq = f[p], f[tp]
            if tau[q] == -1:
                if used[tq]:
                    return None
                tau[q] = tq
                used[tq] = True
                stack.append(q)
            elif tau[q] != tq:
                return None
    return tuple(tau)


def _orbit(start: list, gens: list, mark: bytearray, value: int) -> list:
    """Close the points of start under gens, setting mark[p] = value on each."""
    out = list(start)
    for p in out:
        for s in gens:
            q = s[p]
            if mark[q] != value:
                mark[q] = value
                out.append(q)
    return out


def _translation_generators(o: Origami) -> tuple:
    """Generators of the translation group, and the orbit of square 0 under it.

    The translations centralize the transitive monodromy group, so they act
    freely (semiregularly) on the squares (Dixon & Mortimer, *Permutation
    Groups*, Thm 4.2A). Hence a target j needs a propagation only when the
    translations found so far neither reach it from 0 nor have seen it fail:
    if none sends 0 to j, none sends 0 to t(j) for a translation t either,
    since t^-1 would then send 0 to j. Each success at least doubles the
    orbit of 0, so there are at most log2(n) generators.
    """
    h, v = o.sigma_h, o.sigma_v
    hi, vi = perms.invert(h), perms.invert(v)
    mark = bytearray(o.n)  # 1: in the orbit of 0, 2: no translation reaches it
    mark[0] = 1
    gens = []
    orbit = [0]
    for j in range(1, o.n):
        if mark[j]:
            continue
        tau = _extend(h, v, hi, vi, j)
        if tau is None:
            mark[j] = 2
            _orbit([j], gens, mark, 2)
        else:
            gens.append(tau)
            orbit = _orbit(orbit, gens, mark, 1)
    return gens, orbit


def translation_order(o: Origami) -> int:
    """The number of translations, without building them.

    The translations act freely (see `_translation_generators`), so their
    number is the size of the orbit of square 0.
    """
    return len(_translation_generators(o)[1])


def translations(o: Origami) -> list:
    """All square permutations commuting with both gluings, sorted by the image of 0.

    A translation acts freely, so it is determined by the image of square 0
    (Dixon & Mortimer, Thm 4.2A); the group is expanded from the generators
    of `_translation_generators`, building each element once.
    """
    gens, _ = _translation_generators(o)
    by_image = {0: perms.identity(o.n)}
    queue = [by_image[0]]
    for e in queue:
        for s in gens:
            j = s[e[0]]
            if j not in by_image:
                by_image[j] = c = tuple(map(s.__getitem__, e))
                queue.append(c)
    return [by_image[j] for j in sorted(by_image)]


def translation_group(o: Origami) -> FiniteGroup:
    """The translations as an indexed group; they are already closed.

    Element i is translations(o)[i], so on a regular origami element j is
    the translation sending square 0 to j. A translation is determined by
    the image of square 0, so a product is found from where it sends 0,
    without composing permutations.
    """
    taus = translations(o)
    pos = {t[0]: i for i, t in enumerate(taus)}

    def mul(a, b, _taus=taus, _pos=pos):
        return _pos[_taus[a][_taus[b][0]]]

    return FiniteGroup(
        len(taus),
        mul,
        identity=pos[0],
        label=f"translations of {o.n}-square origami",
        perms_list=taus,
    )


def is_regular(o: Origami) -> bool:
    return translation_order(o) == o.n


def one_cylinder(g: int) -> Origami:
    """Genus-g origami on 4g-4 squares with a cyclic translation group of order 2g-2.

    One horizontal cylinder: sigma_h is the full cycle; sigma_v shifts the
    even squares halfway around and fixes the odd ones.
    """
    if g < 2:
        raise InvalidGenus(f"need genus at least 2, got {g}")
    d = 4 * g - 4
    sigma_h = tuple((i + 1) % d for i in range(d))
    sigma_v = tuple((2 * g - 2 + i) % d if i % 2 == 0 else i for i in range(d))
    return Origami(sigma_h, sigma_v)


def extend_by_cyclic(G: FiniteGroup, x: int, y: int, k: int) -> tuple:
    """Extend (G, x, y) to (G x Z/k, a, b) preserving the commutator order.

    The pair a = (x, u), b = (y, v) spreads the cyclic factor across the t*s
    split so that both components stay reachable; the new origami's stratum
    keeps the zero order and multiplies the multiplicity by k.
    """
    from .constructions import cyclic, direct_product
    from .numtheory import split_residues

    u, v = split_residues(k, G.element_order(x), G.element_order(y))
    H = direct_product(G, cyclic(k))
    a = x * k + u
    b = y * k + v
    require_generating_pair(H, a, b)
    return H, a, b
