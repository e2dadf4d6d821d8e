"""Origamis: pairs of permutations gluing unit squares into a surface.

Squares are glued rightward by sigma_h and upward by sigma_v. The surface
must be connected, so the pair is required to act transitively. Building
from a group uses right multiplication for the gluings, which leaves left
multiplication free to act as translations; the squares are then connected
exactly when the two elements generate the group.
"""

from __future__ import annotations

from . import perms
from .errors import InvalidGenus, NotGenerating
from .groups import FiniteGroup, closure, extend_map, generates
from .strata import Stratum


class Origami:
    """An immutable, hashable pair (sigma_h, sigma_v) of permutations acting
    transitively; a plain class, so that building one imports no
    `dataclasses`. Raises NotGenerating (a ValueError) when the squares are
    not connected."""

    __slots__ = ("sigma_h", "sigma_v")

    def __init__(self, sigma_h, sigma_v):
        h = perms.check_perm(sigma_h)
        v = perms.check_perm(sigma_v)
        object.__setattr__(self, "sigma_h", h)
        object.__setattr__(self, "sigma_v", v)
        if not perms.is_transitive_pair(h, v):
            raise NotGenerating("the squares are not connected")

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
    """Label squares by group elements; glue rightward by *x and upward by *y.

    The squares reachable from square 0 form the subgroup that x and y
    generate, so `Origami` raises NotGenerating unless they generate G.
    """
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
    return stratum_of(o).genus


def _image(p: int, s) -> int:
    """The image of point p under s: `closure`'s product for point orbits."""
    return s[p]


def _translation_generators(o: Origami) -> tuple:
    """Generators of the translation group, and the orbit of square 0 under it.

    The translations centralize the transitive monodromy group, so they act
    freely (semiregularly) on the squares (Dixon & Mortimer, *Permutation
    Groups*, Thm 4.2A). Hence a target j needs a propagation (`extend_map`
    along the gluings) only when the translations found so far neither
    reach it from 0 nor have seen it fail: if none sends 0 to j, none sends
    0 to t(j) for a translation t either, since t^-1 would then send 0 to
    j. Each success at least doubles the orbit of 0, so there are at most
    log2(n) generators.
    """
    h, v = o.sigma_h, o.sigma_v
    hi, vi = perms.invert(h), perms.invert(v)
    gluings = ((h, h), (v, v), (hi, hi), (vi, vi))
    settled = bytearray(o.n)  # in the orbit of 0, or reached by no translation
    gens = []
    orbit = [0]
    for j in range(1, o.n):
        if settled[j]:
            continue
        tau = extend_map(gluings, 0, j)
        if tau is None:
            points = closure(j, gens, _image)
        else:
            gens.append(tau)
            points = orbit = closure(0, gens, _image)
        for p in points:
            settled[p] = 1
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

    Element i is translations(o)[i], so element 0 is the identity, and on a
    regular origami element j is the translation sending square 0 to j. A
    translation is determined by the image of square 0, so a product is
    found from where it sends 0, without composing permutations.
    """
    taus = translations(o)
    pos = {t[0]: i for i, t in enumerate(taus)}

    def mul(a, b, _taus=taus, _pos=pos):
        return _pos[_taus[a][_taus[b][0]]]

    return FiniteGroup(
        len(taus), mul, label=f"translations of {o.n}-square origami", perms_list=taus
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
    if not generates(H, (a, b)):
        raise NotGenerating(f"elements {a}, {b} generate a proper subgroup of {H.label}")
    return H, a, b
