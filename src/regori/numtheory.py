"""Exact integer arithmetic: factorization, CRT, the prime progressions,
and the semidirect existence criterion."""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .errors import (
    BudgetExceeded,
    CoprimalityViolated,
    IncompatibleCongruences,
    InternalAssertion,
    InvalidAction,
    InvalidModulus,
    PreconditionViolated,
)


def is_prime(n: int) -> bool:
    """Deterministic trial division; inputs here stay far below 2^63."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


def factorize(n: int) -> list:
    """Prime factors with multiplicity, ascending."""
    if n < 1:
        raise ValueError("n must be positive")
    out = []
    for p in (2, 3):
        while n % p == 0:
            out.append(p)
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out.append(p)
                n //= p
        f += 6
    if n > 1:
        out.append(n)
    return out


def factorization(n: int) -> dict:
    """Map prime -> exponent."""
    out = {}
    for p in factorize(n):
        out[p] = out.get(p, 0) + 1
    return out


def divisors(n: int) -> list:
    """All positive divisors, ascending."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def crt_solve(congruences) -> tuple:
    """Solve x = r_i mod m_i simultaneously; returns (residue, lcm).

    Moduli need not be coprime; contradictory congruences raise.
    """
    r, m = 0, 1
    for ri, mi in congruences:
        if mi < 1:
            raise ValueError("moduli must be positive")
        g = gcd(m, mi)
        if (ri - r) % g:
            raise IncompatibleCongruences(
                f"x = {r} mod {m} conflicts with x = {ri} mod {mi}"
            )
        lcm = m // g * mi
        # shift r by a multiple of m landing in ri's class mod mi
        t = ((ri - r) // g * pow(m // g, -1, mi // g)) % (mi // g)
        r = (r + m * t) % lcm
        m = lcm
    return r, m


class ResidueSystem(namedtuple("ResidueSystem", "modulus residues")):
    """A modulus with the set of invertible residues cut out by a congruence family."""

    __slots__ = ()

    def __contains__(self, n: int) -> bool:
        return n % self.modulus in self.residues


_PROGRESSION_SCAN_LIMIT = 4_000_000


def _progression_parameters(m: int):
    if not is_prime(m) or m < 5 or m % 3 != 2:
        raise InvalidModulus(f"need a prime m >= 5 with m = 2 mod 3, got {m}")
    # odd primes below m constrain the cofactor; the m = 11 case drops 7
    # because singularity order 7 never realizes the maximum anyway
    qs = [q for q in range(3, m, 2) if is_prime(q)]
    if m == 11:
        qs.remove(7)
    fact = factorization(m + 1)
    alpha = fact.get(2, 0)
    betas = {q: fact.get(q, 0) for q in qs}
    return qs, alpha, betas


def _progression_modulus(m: int, qs, alpha, betas) -> int:
    from math import lcm

    mod = lcm(2 * (m + 1), 2 ** (alpha + 2))
    for q in qs:
        mod = lcm(mod, q ** (betas[q] + 1))
    return mod


def progression_member(m: int, x: int) -> bool:
    """Whether x satisfies the congruence family for singularity order m.

    Membership forces (x-1)(x+1)/(4(m+1)) to be an integer with no prime
    factor below m (excepting 7 when m = 11), for every prime x in the class.
    """
    qs, alpha, betas = _progression_parameters(m)
    if x % (2 * (m + 1)) not in (1, 2 * (m + 1) - 1):
        return False
    two_mod = 2 ** (alpha + 2)
    if x % two_mod not in ((2 ** (alpha + 1) - 1) % two_mod, (2 ** (alpha + 1) + 1) % two_mod):
        return False
    for q in qs:
        beta = betas[q]
        lo, hi = q ** beta, q ** (beta + 1)
        if beta and x % lo not in (1, lo - 1):
            return False
        if x % hi in (1, hi - 1):
            return False
    return True


def progression_for_m(m: int) -> ResidueSystem:
    """All residues mod 4(m+1)Q cut out by the congruence family for m.

    Found by a direct scan of the full period, so the complete residue set
    comes back rather than one class per sign branch. Large m would need a
    period beyond the scan limit and raises instead.
    """
    qs, alpha, betas = _progression_parameters(m)
    modulus = _progression_modulus(m, qs, alpha, betas)
    if modulus > _PROGRESSION_SCAN_LIMIT:
        raise BudgetExceeded(f"progression period {modulus} beyond scan limit")
    residues = tuple(
        x
        for x in range(modulus)
        if gcd(x, modulus) == 1 and progression_member(m, x)
    )
    return ResidueSystem(modulus, residues)


def smallest_progression_prime(m: int) -> int:
    """Least prime in the progression for m (membership test, no enumeration)."""
    step = 2 * (m + 1)
    n = step - 1
    while True:
        for x in (n, n + 2):  # the two classes +-1 mod 2(m+1)
            if is_prime(x) and progression_member(m, x):
                return x
        n += step


def cofactor_z(m: int, p: int) -> int:
    """(p-1)(p+1) / (4(m+1)); integral for progression members."""
    num = (p - 1) * (p + 1)
    den = 4 * (m + 1)
    if num % den:
        raise InternalAssertion(f"cofactor for p={p}, m={m} is not integral")
    return num // den


# Z/m twisted by Z/n through multiplication by d
SemidirectWitness = namedtuple("SemidirectWitness", "m n d")


def check_twist(m: int, n: int, d: int) -> None:
    """Raise InvalidAction unless multiplication by d is an action of Z/n on
    Z/m: d invertible mod m and d^n = 1 mod m."""
    if m < 1 or n < 1:
        raise InvalidAction("moduli must be positive")
    if m == 1:
        return
    if gcd(d, m) != 1:
        raise InvalidAction(f"multiplier {d} not invertible mod {m}")
    if pow(d, n, m) != 1:
        raise InvalidAction(f"{d}^{n} is not 1 mod {m}: the twist is ill-defined")


def semidirect_criterion(u: int, l: int) -> bool:
    """Prime-power test: every p^a dividing u exactly has p^(a+1) | l or
    p = 1 mod q for some prime q | l."""
    l_primes = set(factorize(l))
    for p, a in factorization(u).items():
        if l % p ** (a + 1) == 0:
            continue
        if any(p % q == 1 for q in l_primes):
            continue
        return False
    return True


def _element_of_order_q(p: int, alpha: int, q: int) -> int:
    """Smallest d >= 2 of multiplicative order exactly q mod p^alpha."""
    mod = p ** alpha
    for d in range(2, mod):
        if pow(d, q, mod) == 1 and d % mod != 1:
            # q prime, so d != 1 with d^q = 1 already has order exactly q
            return d
    raise InternalAssertion(f"no order-{q} element mod {p}^{alpha}")


def semidirect_exists(u: int, l: int):
    """Decide whether some Z/m : Z/n with mn = u*l has a cyclic derived
    subgroup of order exactly u, and construct (m, n, d) when it does.

    Returns a SemidirectWitness or None. The split: primes of u that are
    1 mod some prime of l go into m with an order-q multiplier; primes
    whose next power divides l are matched by the 1 + q^e unit; the
    multiplier d is assembled by CRT and re-verified.
    """
    if u < 2 or u % 2 == 0:
        raise PreconditionViolated(f"u must be odd and >= 2, got {u}")
    if l < 1:
        raise PreconditionViolated("l must be positive")
    if not semidirect_criterion(u, l):
        return None
    l_fact = factorization(l)
    l_primes = sorted(l_fact)
    m = 1
    n = 1
    congruences = []
    handled = set()
    for p, a in sorted(factorization(u).items()):
        qs = [q for q in l_primes if p % q == 1]
        if qs:
            q = qs[0]  # smallest works; keeps the witness deterministic
            m *= p ** a
            congruences.append((_element_of_order_q(p, a, q), p ** a))
        else:
            # p^(a+1) divides l: pair p^gamma into m and p^a into n
            gamma = l_fact[p]
            m *= p ** gamma
            n *= p ** a
            congruences.append((1 + p ** (gamma - a), p ** gamma))
            handled.add(p)
    for q in l_primes:
        if q not in handled:
            n *= q ** l_fact[q]
    d, mod = crt_solve(congruences) if congruences else (0, 1)
    if mod != m:
        raise InternalAssertion("multiplier modulus mismatch")
    if m * n != u * l or pow(d, n, m) != 1 or gcd(d - 1, m) != m // u:
        raise InternalAssertion(f"semidirect witness ({m},{n},{d}) failed verification")
    return SemidirectWitness(m, n, d)


def semidirect_exists_bruteforce(u: int, l: int):
    """Independent search over every factorization mn = u*l and multiplier d."""
    total = u * l
    for m in divisors(total):
        if m % u:
            continue  # gcd(d-1, m) = m/u needs u | m
        n = total // m
        target = m // u
        for d in range(2, m):
            if gcd(d - 1, m) == target and pow(d, n, m) == 1:
                return SemidirectWitness(m, n, d)
    return None


def split_coprime(k: int, a: int, b: int) -> tuple:
    """Write k = t*s with t coprime to a, s coprime to b, t coprime to s.

    Needs gcd(k, gcd(a, b)) = 1: each prime power of k avoids a or b.
    """
    if gcd(k, gcd(a, b)) != 1:
        raise CoprimalityViolated(
            f"{k} shares a factor with both generator orders {a} and {b}"
        )
    t = s = 1
    for p, e in factorization(k).items():
        if a % p:
            t *= p ** e
        else:
            s *= p ** e
    return t, s


def split_residues(k: int, a: int, b: int) -> tuple:
    """(u, v) in 0..k-1 with u = 1 mod t, 0 mod s and v = 0 mod t, 1 mod s,
    for the split k = t*s of `split_coprime(k, a, b)`."""
    t, s = split_coprime(k, a, b)
    u, _ = crt_solve([(1, t), (0, s)])
    v, _ = crt_solve([(0, t), (1, s)])
    return u, v
