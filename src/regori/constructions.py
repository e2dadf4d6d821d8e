"""Constructors for the group families used as witnesses.

Covers cyclic groups, direct and semidirect products of cyclic groups, the
six families of 2-groups with a cyclic index-two subgroup, and the two
order-3 twist families built over the Klein group and the quaternions.
"""

from __future__ import annotations

from math import gcd
from operator import xor

from .errors import InternalAssertion, NoSuchAction, OutOfRange
from .groups import FiniteGroup, generates
from .numtheory import check_twist

TWO_GROUP_FAMILIES = ("cyclic", "cyclic_x_z2", "M", "D", "SD", "Dic")


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("order must be positive")
    return FiniteGroup(n, lambda a, b: (a + b) % n, label=f"Z/{n}", coords=lambda a: a)


def direct_product(G: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    """Product group with element (a, b) indexed as a*|H| + b."""
    m = H.order

    def mul(x, y, _gmul=G.mul, _hmul=H.mul, _m=m):
        a1, b1 = divmod(x, _m)
        a2, b2 = divmod(y, _m)
        return _gmul(a1, a2) * _m + _hmul(b1, b2)

    def coords(x, _G=G, _m=m):
        a, b = divmod(x, _m)
        return [_G.coords(a), H.coords(b)]

    return FiniteGroup(
        G.order * m,
        mul,
        identity=G.identity * m + H.identity,
        label=f"({G.label}) x ({H.label})",
        coords=coords,
    )


def semidirect_cyclic(m: int, n: int, d: int) -> FiniteGroup:
    """Z/m twisted by Z/n: (a1,b1)(a2,b2) = (a1 + d^b1 * a2, b1 + b2)."""
    d = d % m if m > 1 else 0
    check_twist(m, n, d)
    powers = [1 % m]
    for _ in range(n - 1):
        powers.append(powers[-1] * d % m)

    def mul(x, y, _m=m, _n=n, _powers=powers):
        a1, b1 = divmod(x, _n)
        a2, b2 = divmod(y, _n)
        return ((a1 + _powers[b1] * a2) % _m) * _n + (b1 + b2) % _n

    def coords(x, _n=n):
        a, b = divmod(x, _n)
        return [a, b]

    return FiniteGroup(
        m * n, mul, identity=0, label=f"Z/{m} : Z/{n} (mult {d})", coords=coords
    )


def semidirect_generators(m: int, n: int) -> tuple:
    """Indices of x = (1, 0) and y = (0, 1) in semidirect_cyclic(m, n, d)."""
    x = 1 * n + 0 if m > 1 else 0
    y = 1 if n > 1 else 0
    return x, y


def _dicyclic(alpha: int) -> FiniteGroup:
    # presentation x^(2^(a-1)) = 1, y^2 = x^(2^(a-2)), y x y^-1 = x^-1;
    # element x^i y^j indexed as i*2 + j
    half = 2 ** (alpha - 1)
    quarter = 2 ** (alpha - 2)

    def mul(u, v, _half=half, _quarter=quarter):
        i1, j1 = divmod(u, 2)
        i2, j2 = divmod(v, 2)
        i = (i1 + (i2 if j1 == 0 else -i2)) % _half
        j = j1 + j2
        if j == 2:
            return ((i + _quarter) % _half) * 2
        return i * 2 + j

    return FiniteGroup(
        2 ** alpha, mul, identity=0, label=f"Dic{2 ** alpha}", coords=lambda u: list(divmod(u, 2))
    )


def two_group(family: str, alpha: int) -> FiniteGroup:
    """The order-2^alpha member of one of the six cyclic-index-two families."""
    if family == "cyclic":
        if alpha < 1:
            raise OutOfRange("cyclic needs alpha >= 1")
        return cyclic(2 ** alpha)
    if family == "cyclic_x_z2":
        if alpha < 2:
            raise OutOfRange("cyclic_x_z2 needs alpha >= 2")
        return direct_product(cyclic(2 ** (alpha - 1)), cyclic(2))
    if family == "M":
        if alpha < 3:
            raise OutOfRange("M needs alpha >= 3")
        return semidirect_cyclic(2 ** (alpha - 1), 2, 2 ** (alpha - 2) + 1)
    if family == "D":
        if alpha < 3:
            raise OutOfRange("D needs alpha >= 3")
        return semidirect_cyclic(2 ** (alpha - 1), 2, 2 ** (alpha - 1) - 1)
    if family == "SD":
        if alpha < 4:
            raise OutOfRange("SD needs alpha >= 4")
        return semidirect_cyclic(2 ** (alpha - 1), 2, 2 ** (alpha - 2) - 1)
    if family == "Dic":
        if alpha < 3:
            raise OutOfRange("Dic needs alpha >= 3")
        return _dicyclic(alpha)
    raise OutOfRange(f"unknown family {family!r}")


def dihedral(order: int) -> FiniteGroup:
    """Dihedral group of the given even order, as Z/(order/2) twisted by Z/2."""
    if order % 2 or order < 2:
        raise ValueError("dihedral order must be even and positive")
    half = order // 2
    return semidirect_cyclic(half, 2, half - 1 if half > 1 else 0)


def find_order3_multiplier(lam: int) -> int:
    """Smallest r in 2..lam-1 with r^3 = 1 mod lam and r-1 invertible mod lam.

    Such r exists exactly when every prime factor of lam is 1 mod 3; the
    scan is ascending so witnesses are reproducible.
    """
    if lam == 1:
        return 0
    for r in range(2, lam):
        if pow(r, 3, lam) == 1 and gcd(r - 1, lam) == 1:
            return r
    raise NoSuchAction(f"no order-3 multiplier with invertible r-1 exists mod {lam}")


# quaternion units ordered 1, -1, i, -i, j, -j, k, -k
_Q8_AXIS_MUL = {
    (0, 0): (0, 0), (0, 1): (0, 1), (0, 2): (0, 2), (0, 3): (0, 3),
    (1, 0): (0, 1), (1, 1): (1, 0), (1, 2): (0, 3), (1, 3): (1, 2),
    (2, 0): (0, 2), (2, 1): (1, 3), (2, 2): (1, 0), (2, 3): (0, 1),
    (3, 0): (0, 3), (3, 1): (0, 2), (3, 2): (1, 1), (3, 3): (1, 0),
}
Q8_NAMES = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")


def _q8_mul(u: int, v: int) -> int:
    # index = axis*2 + sign with axes 1, i, j, k and sign bit 1 for negative
    a1, s1 = divmod(u, 2)
    a2, s2 = divmod(v, 2)
    sign, axis = _Q8_AXIS_MUL[(a1, a2)]
    return axis * 2 + (sign ^ s1 ^ s2)


def quaternions() -> FiniteGroup:
    return FiniteGroup(8, _q8_mul, identity=0, label="Q8", coords=lambda u: Q8_NAMES[u])


def _twist_witness(lam, core, core_label, core_mul, theta, core_coords, x_core, y_core,
                   comm_order, name):
    """(Z/lam x K) : Z/3 for a core K of the given order with an order-3
    automorphism theta (a tuple of images), and its standard generating pair.

    The generator of Z/3 acts on Z/lam by an order-3 multiplier r and on K
    by theta. Element ((a, q), c) is indexed as (a*|K| + q)*3 + c; x is
    ((1, x_core), 0), y is ((0, y_core), 1), and [x, y] must have order
    comm_order.
    """
    r = find_order3_multiplier(lam)
    rp = [1 % lam, r % lam if lam > 1 else 0, (r * r) % lam if lam > 1 else 0]
    tw = [tuple(range(core)), theta, tuple(theta[q] for q in theta)]

    def mul(e1, e2, _lam=lam, _core=core, _rp=rp, _tw=tw, _core_mul=core_mul):
        w1, c1 = divmod(e1, 3)
        w2, c2 = divmod(e2, 3)
        a1, q1 = divmod(w1, _core)
        a2, q2 = divmod(w2, _core)
        a = (a1 + _rp[c1] * a2) % _lam
        return (a * _core + _core_mul(q1, _tw[c1][q2])) * 3 + (c1 + c2) % 3

    def coords(e, _core=core):
        w, c = divmod(e, 3)
        a, q = divmod(w, _core)
        return [[a, *core_coords(q)], c]

    G = FiniteGroup(3 * core * lam, mul, identity=0, label=f"(Z/{lam} x {core_label}) : Z/3",
                    coords=coords)
    x = ((1 % lam) * core + x_core) * 3
    y = y_core * 3 + 1
    if G.element_order(G.commutator(x, y)) != comm_order or not generates(G, (x, y)):
        raise InternalAssertion(f"{name} witness failed verification")
    return G, x, y


def klein_witness(lam: int):
    """(Z/lam x Z/2 x Z/2) : Z/3 with its standard generating pair.

    Returns (G, x, y) where x = ((1,1,0), 0) and y = ((0,0,1), 1); the
    commutator of the pair has order 2*lam. The twist acts on Z/lam by an
    order-3 multiplier r and on the Klein factor by (u, v) -> (u+v, u).
    """
    # (u, v) indexed as u*2 + v, so the product is XOR
    return _twist_witness(lam, core=4, core_label="Z/2 x Z/2", core_mul=xor,
                          theta=(0, 2, 3, 1), core_coords=lambda q: list(divmod(q, 2)),
                          x_core=2, y_core=1, comm_order=2 * lam, name="klein")


def q8_witness(lam: int):
    """(Z/lam x Q8) : Z/3 with generators x = ((1,i),0), y = ((0,k),1).

    The commutator of the pair has order 4*lam. The twist rotates the
    quaternion axes with period three (i -> -j -> -k -> i, fixing +-1) and
    acts on Z/lam by an order-3 multiplier.
    """
    return _twist_witness(lam, core=8, core_label="Q8", core_mul=_q8_mul,
                          theta=(0, 1, 5, 4, 6, 7, 3, 2), core_coords=lambda q: [Q8_NAMES[q]],
                          x_core=2, y_core=6, comm_order=4 * lam, name="quaternion")
