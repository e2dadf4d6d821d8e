"""Determinant-one 2x2 matrices over a prime field.

Covers exact arithmetic, elements of prescribed order, the two-trace
generation test, an orbit-stabilizer closure order, generating pairs with a
prescribed commutator order, and the indexed PSL(2,p) group that
`witnesses.materialize` builds for a psl(P,D) descriptor.

A `Mat2` is the namedtuple (p, a, b, c, d), so `M[1:]` is its bare 4-tuple
of entries. `_product` multiplies such 4-tuples mod p, and `groups.closure`
closes the matrix groups over them; `groups` is imported only where a
closure runs.
"""

from __future__ import annotations

from collections import namedtuple
from functools import partial

from .errors import (
    BudgetExceeded,
    InternalAssertion,
    ModulusMismatch,
    NoSuchOrder,
    OrderTooSmall,
    PreconditionViolated,
)
from .numtheory import factorize, is_prime


class Mat2(namedtuple("Mat2", "p a b c d")):
    """A matrix [[a, b], [c, d]] over F_p with determinant one."""

    __slots__ = ()

    def __new__(cls, p, a, b, c, d):
        self = super().__new__(cls, p, a % p, b % p, c % p, d % p)
        if (self.a * self.d - self.b * self.c) % p != 1:
            raise ValueError(f"determinant of {self} is not 1 mod {p}")
        return self

    def __str__(self):
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]@{self.p}"

    @property
    def trace(self) -> int:
        return (self.a + self.d) % self.p


def mat_identity(p: int) -> Mat2:
    return Mat2(p, 1, 0, 0, 1)


def mat_neg(M: Mat2) -> Mat2:
    return Mat2(M.p, -M.a, -M.b, -M.c, -M.d)


def _same_field(M: Mat2, N: Mat2):
    if M.p != N.p:
        raise ModulusMismatch(f"matrices over F_{M.p} and F_{N.p}")


def _product(p: int, X: tuple, Y: tuple) -> tuple:
    """The product of 2x2 matrices given as 4-tuples (a, b, c, d), mod p."""
    a, b, c, d = X
    e, f, g, h = Y
    return ((a * e + b * g) % p, (a * f + b * h) % p,
            (c * e + d * g) % p, (c * f + d * h) % p)


def mat_mul(M: Mat2, N: Mat2) -> Mat2:
    _same_field(M, N)
    return Mat2(M.p, *_product(M.p, M[1:], N[1:]))


def mat_inv(M: Mat2) -> Mat2:
    return Mat2(M.p, M.d, -M.b, -M.c, M.a)


def mat_pow(M: Mat2, e: int) -> Mat2:
    result, base = mat_identity(M.p), M
    while e:
        if e & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        e >>= 1
    return result


def _order(M: Mat2, units: tuple) -> int:
    """Smallest e >= 1 with M^e in units, a subgroup of the centre.

    M^e lies in the subgroup exactly when the order divides e, and M^|SL(2,p)|
    = Id, so each prime is stripped from p(p-1)(p+1) while the power stays in
    the subgroup: O(log^2 p) products.
    """
    p = M.p
    e = p * (p - 1) * (p + 1)
    for q in set(factorize(e)):
        while e % q == 0 and mat_pow(M, e // q) in units:
            e //= q
    return e


def mat_order(M: Mat2) -> int:
    """Smallest k >= 1 with M^k = Id."""
    return _order(M, (mat_identity(M.p),))


def proj_order(M: Mat2) -> int:
    """Order of the image of M in PSL(2,p): smallest k >= 1 with M^k = +-Id."""
    ident = mat_identity(M.p)
    return _order(M, (ident, mat_neg(ident)))


def commutator(A: Mat2, B: Mat2) -> Mat2:
    return mat_mul(mat_mul(A, B), mat_mul(mat_inv(A), mat_inv(B)))


def standard_b(p: int) -> Mat2:
    return Mat2(p, 0, -1, 1, 0)


def order_d_element(p: int, d: int) -> Mat2:
    """An element of order exactly d with trace != +-2.

    For d | p - 1 the smallest diagonalizable witness diag(l, 1/l) is
    returned; for d | p + 1 the companion matrix of the right trace is
    found by scanning trace values.
    """
    if not is_prime(p) or p == 2:
        raise NoSuchOrder(f"{p} is not an odd prime")
    if d < 3:
        raise NoSuchOrder(f"order {d} below 3")
    if (p - 1) % d == 0:
        primes = set(factorize(d))
        for lam in range(2, p):
            # lam has order exactly d: lam^d = 1 and no lam^(d/q) = 1 for a prime q | d
            if pow(lam, d, p) == 1 and all(pow(lam, d // q, p) != 1 for q in primes):
                return Mat2(p, lam, 0, 0, pow(lam, -1, p))
        raise InternalAssertion(f"no order-{d} unit mod {p}")  # pragma: no cover
    if (p + 1) % d == 0:
        for t in range(p):
            M = Mat2(p, t, -1, 1, 0)
            if mat_order(M) == d:
                return M
        raise InternalAssertion(f"no order-{d} companion matrix mod {p}")
    raise NoSuchOrder(f"{p} is not +-1 mod {d}")


def mw_generates(p: int, A: Mat2, B: Mat2) -> bool:
    """Trace test for generation, applicable once the commutator order is >= 6.

    Generation holds iff at least two of tr(A), tr(B), tr(AB) are nonzero
    and tr([A,B]) != 2, provided the pair does not land in an exceptional
    subgroup. Commutator orders 6 and 10 project to orders 3 and 5, which
    the exceptional groups do admit, so those two cases get an extra
    bounded closure: every exceptional subgroup has at most 120 elements,
    so a closure that passes 121 elements is not one.
    """
    if p < 13 or not is_prime(p):
        raise PreconditionViolated(f"trace test needs a prime p >= 13, got {p}")
    _same_field(A, B)
    comm = commutator(A, B)
    comm_order = mat_order(comm)
    if comm_order < 6:
        raise OrderTooSmall("commutator order below 6: use the closure oracle")
    nonzero = sum(1 for t in (A.trace, B.trace, mat_mul(A, B).trace) if t != 0)
    if not (nonzero >= 2 and comm.trace != 2):
        return False
    if comm_order in (6, 10):
        from .groups import closure

        try:
            closure((1, 0, 0, 1), (A[1:], B[1:]), partial(_product, p), budget=121)
        except BudgetExceeded:
            return True
        return False
    return True


def closure_order(p: int, A: Mat2, B: Mat2) -> int:
    """Exact order of <A, B> by orbit-stabilizer on the nonzero vectors of F_p^2.

    The orbit of e1 = (1, 0) is walked breadth-first, keeping for each vector
    v one element g_v of <A, B> with g_v e1 = v; its first column is v, so only
    the second column is stored. The stabilizer of e1 in SL(2,p) is the
    unipotent group [[1, b], [0, 1]] of prime order p, so the stabilizer in
    <A, B> has order 1 or p. By Schreier's lemma it is generated by the
    elements g_sv^-1 s g_v, one per orbit vector v and generator s, and such an
    element is nontrivial iff s g_v differs from the stored g_sv. The orbit
    has at most p^2 - 1 vectors; callers bound that before calling
    (`regori --closure-budget`).
    """
    _same_field(A, B)
    gens = (A[1:], B[1:])
    column = {(1, 0): (0, 1)}
    frontier = [((1, 0), (0, 1))]
    stabilizer = 1
    while frontier:
        new = []
        for (x, y), (z, w) in frontier:
            for a, b, c, d in gens:
                v = ((a * x + b * y) % p, (c * x + d * y) % p)
                col = ((a * z + b * w) % p, (c * z + d * w) % p)
                seen = column.get(v)
                if seen is None:
                    column[v] = col
                    new.append((v, col))
                elif seen != col:
                    stabilizer = p
        frontier = new
    return len(column) * stabilizer


def _sqrt_table(p: int) -> dict:
    """Smallest nonnegative square root for each quadratic residue mod p."""
    return {t * t % p: t for t in range(p - 1, -1, -1)}  # smaller roots written last


def _two_square_reps(p: int, a: int):
    """All (s, t) with s, t nonzero and s^2 + t^2 = a mod p, scan order."""
    roots = _sqrt_table(p)
    for s in range(1, p):
        t = roots.get((a - s * s) % p)
        if t:
            yield s, t


def build_generating_pair(p: int, d: int) -> tuple:
    """(A, B) generating SL(2,p) with ord([A, B]) = d and B of order four.

    B is the standard symplectic rotation. A is assembled so the commutator
    trace matches an order-d element: solve x^2 - 4 = (2s)^2 + t^2 with
    t != +-x, put u = (x + t)/2, split u into two-square representations,
    and take the first branch whose pair verifies outright (trace test
    plus commutator order). Scanning all representations instead of two
    matters for d in {6, 10}, where a branch can land in an exceptional
    subgroup.
    """
    if (p, d) in _SPECIAL_PAIRS:
        A, B = _SPECIAL_PAIRS[(p, d)]
        return Mat2(p, *A), Mat2(p, *B)
    if p <= 13 or not is_prime(p):
        raise PreconditionViolated(f"need a prime p > 13, got {p}")
    if d < 6:
        raise PreconditionViolated(f"need commutator order >= 6, got {d}")
    if (p - 1) % d and (p + 1) % d:
        raise PreconditionViolated(f"{p} is not +-1 mod {d}")

    x = order_d_element(p, d).trace
    B = standard_b(p)
    inv2 = pow(2, -1, p)
    for sig, tau in _two_square_reps(p, (x * x - 4) % p):
        if tau in (x % p, (-x) % p):
            continue
        s, t = sig * inv2 % p, tau
        u = (x + t) * inv2 % p
        if u == 0:
            continue
        for a, c in _two_square_reps(p, u):
            denom = pow((a * a + c * c) % p, -1, p)
            for eps in (1, p - 1):
                b = (-c + eps * a * s) * denom % p
                dd = (1 + b * c) * pow(a, -1, p) % p
                if (a + dd) % p == 0 or (b - c) % p == 0:
                    continue
                A = Mat2(p, a, b, c, dd)
                if mat_order(commutator(A, B)) != d:
                    continue
                if mw_generates(p, A, B):
                    return A, B
    raise InternalAssertion(f"no verified pair found for (p={p}, d={d})")


# explicit pairs below the general construction's reach
_SPECIAL_PAIRS = {
    (11, 12): ((1, 2, 0, 1), (0, -1, 1, 0)),
    (13, 12): ((2, 4, 0, 7), (0, -1, 1, 0)),
}


def psl_group(p: int, A: Mat2, B: Mat2):
    """PSL(2,p) generated by the images of A and B, as an indexed group.

    The full matrix closure is built first, in breadth-first order; classes
    {M, -M} are numbered in order of discovery, so the identity is 0, and
    printed as their `projective_class`. Returns (group, a, b). Callers
    bound the cost by the group order, p(p^2 - 1)/2, before calling
    (`regori --closure-budget`).
    """
    from .groups import FiniteGroup, closure

    _same_field(A, B)
    gens = (A[1:], B[1:])
    sl = closure((1, 0, 0, 1), gens, partial(_product, p))
    if len(sl) != p * (p - 1) * (p + 1):
        raise InternalAssertion(
            f"pair generates order {len(sl)}, not SL(2,{p})"
        )
    # index both matrices of a class, so a product needs no canonical form
    index = {}
    reps = []
    for mat in sl:
        if mat not in index:
            index[mat] = index[tuple(-v % p for v in mat)] = len(reps)
            reps.append(mat)

    def mul(i, j, _reps=reps, _index=index, _p=p):
        return _index[_product(_p, _reps[i], _reps[j])]

    G = FiniteGroup(len(reps), mul, label=f"PSL(2,{p})",
                    coords=lambda i: list(projective_class(p, reps[i])))
    return G, index[gens[0]], index[gens[1]]


def projective_class(p: int, mat: tuple) -> tuple:
    """The name of +-M in PSL(2,p): the smaller of the entry tuples
    (a, b, c, d) and (-a, -b, -c, -d) mod p."""
    return min(mat, tuple(-v % p for v in mat))
