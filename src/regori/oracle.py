"""Existence of regular origamis in a prescribed stratum.

The decision cascades through the classification: constructive families
first (dihedral products, the modular 3-group tower, the two order-3 twist
families, semidirect products, the projective linear family, cyclic
extensions of any of these), then the emptiness results, then Unknown.
Witnesses come back as descriptors; materializing and re-checking them is
a separate, heavier step.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import PreconditionViolated
from .numtheory import divisors, factorize, is_prime, semidirect_exists
from .strata import Stratum
from .witnesses import extend_descriptor, extension_slack_ok

EXISTS = "exists"
NOT_EXISTS = "not_exists"
UNKNOWN = "unknown"

# largest prime field the projective witness search will offer; the group
# order p(p^2-1)/2 must divide the stratum's group order anyway
PSL_WITNESS_CAP = 1000


class ExistenceVerdict(namedtuple("ExistenceVerdict", "status witness reason",
                                  defaults=(None, None))):
    """status, the witness descriptor of an `exists`, the rule of a `not_exists`."""

    __slots__ = ()

    @property
    def exists(self) -> bool:
        return self.status == EXISTS


def _exists(witness: str) -> ExistenceVerdict:
    return ExistenceVerdict(EXISTS, witness=witness)


def _not_exists(reason: str) -> ExistenceVerdict:
    return ExistenceVerdict(NOT_EXISTS, reason=reason)


_UNKNOWN = ExistenceVerdict(UNKNOWN)


def _dihedral_product_witness(k: int, l: int) -> str:
    """Even k, even l: the order-2(k+1) dihedral group, extended if l > 2."""
    base = f"sd({k + 1},2,{k})"
    return base if l == 2 else extend_descriptor(base, l // 2)


def _two_order_witness(l: int) -> str:
    """Odd l divisible by 9: the modular 3-group of order 3^(a+1), extended."""
    lam = l
    alpha = 0
    while lam % 3 == 0:
        lam //= 3
        alpha += 1
    base = f"sd({3 ** alpha},3,{3 ** (alpha - 1) + 1})"
    return base if lam == 1 else extend_descriptor(base, lam)


def _order3_twist_case(k: int, l: int) -> ExistenceVerdict:
    """Odd k, l = 2q for an odd prime q: only q = 3 can carry witnesses."""
    q = l // 2
    if q > 3:
        return _not_exists("k_odd_l_2q_q_gt_3")
    if k % 4 == 1:
        lam, head = (k + 1) // 2, "klein"
    else:
        lam, head = (k + 1) // 4, "q8w"
    if all(p % 3 == 1 for p in set(factorize(lam))):
        return _exists(f"{head}({lam})")
    return _not_exists("k_odd_l_6_factor_criterion")


def _semidirect_witness(k: int, l: int) -> str | None:
    """Semidirect family for stratum H(k^l); None when the family is empty."""
    u = k + 1
    if u % 2 == 1:
        w = semidirect_exists(u, l)
        return f"sd({w.m},{w.n},{w.d})" if w else None
    # even commutator order: the twist by -1 on Z/2u works exactly when 4 | l
    if l % 4 == 0:
        return f"sd({2 * u},{l // 2},{2 * u - 1})"
    return None


def _psl_witness(k: int, l: int) -> str | None:
    """Projective family: PSL(2,p) x Z/t filling H(k^l) for prime k = 2 mod 3.

    Scans primes p = +-1 mod 2(k+1) whose group order divides (k+1)*l; the
    cyclic cofactor must pass the extension slack test.
    """
    if k < 5 or not is_prime(k) or k % 3 != 2:
        return None
    d = 2 * (k + 1)
    total = (k + 1) * l
    p = 11
    while p <= PSL_WITNESS_CAP:
        psl_order = p * (p - 1) * (p + 1) // 2
        if psl_order > total:
            return None
        if (
            is_prime(p)
            and p % d in (1, d - 1)
            and (p > 13 or d == 12)
            and total % psl_order == 0
        ):
            t = total // psl_order
            desc = f"psl({p},{d})"
            if t == 1:
                return desc
            if extension_slack_ok(desc, t):
                return extend_descriptor(desc, t)
        p += 1
    return None


def _extension_witness(k: int, l: int) -> str | None:
    """Lift a base witness for H(k^s) to H(k^l) along l = t*s."""
    for s in divisors(l):
        if s == l:
            continue
        if (k * s) % 2:
            continue
        base = decide_uniform(k, s, allow_extension=False)
        if not base.exists:
            continue
        t = l // s
        if extension_slack_ok(base.witness, t):
            return extend_descriptor(base.witness, t)
    return None


def decide_uniform(k: int, l: int, allow_extension: bool = True) -> ExistenceVerdict:
    """Existence verdict for H(k^l), decided from the pair (k, l) alone."""
    if k < 1 or l < 1:
        raise PreconditionViolated(f"H({k}^{l}) needs k >= 1 and l >= 1")
    if (k * l) % 2:
        return _not_exists("empty_stratum")
    if k % 2 == 0 and l % 2 == 0:
        return _exists(_dihedral_product_witness(k, l))
    if l == 4:
        return _exists(f"sd({2 * (k + 1)},2,{2 * k + 1})")
    if k == 2 and l % 2 == 1:
        if l % 9 == 0:
            return _exists(_two_order_witness(l))
        return _not_exists("two_zeros_odd_count_not_9")
    if l == 2:
        return _not_exists("g_even")
    if l % 2 == 0 and l // 2 > 2 and is_prime(l // 2) and k % 2 == 1:
        return _order3_twist_case(k, l)
    if l % 2 == 1 and l > 2 and is_prime(l) and k % 2 == 0:
        w = _semidirect_witness(k, l)
        if w:
            return _exists(w)
        return _not_exists("l_prime_factor_criterion")
    if l == 1:
        return _not_exists("minimal_stratum")
    kp1 = k + 1
    if kp1 & (kp1 - 1) == 0 and kp1 >= 4 and l % 4 == 2 and (l * k) % 3 != 0:
        return _not_exists("mersenne_commutator")
    w = _semidirect_witness(k, l)
    if w:
        return _exists(w)
    w = _psl_witness(k, l)
    if w:
        return _exists(w)
    if allow_extension:
        w = _extension_witness(k, l)
        if w:
            return _exists(w)
    return _UNKNOWN


def decide(stratum: Stratum) -> ExistenceVerdict:
    """Existence verdict for regular origamis in the stratum.

    Non-uniform strata never contain one. Uniform strata run the rule
    cascade; Unknown is an honest answer, not an error.
    """
    if not stratum.counts():
        raise PreconditionViolated("the torus stratum needs no decision")
    uni = stratum.uniform()
    if uni is None:
        return _not_exists("non_uniform")
    return decide_uniform(*uni)
