"""Witness descriptors: a compact grammar for constructible groups.

Grammar (whitespace-free):
    c(N)            cyclic group of order N, generators (1, 0)
    sd(M,N,D)       Z/M twisted by Z/N with multiplier D, generators (1,0), (0,1)
    dp(DESC,c(K))   cyclic extension of DESC by Z/K through the coprime split
    klein(L)        (Z/L x Z/2 x Z/2) : Z/3 with its standard pair
    q8w(L)          (Z/L x Q8) : Z/3 with its standard pair
    psl(P,D)        PSL(2,P) from the order-D commutator pair downstairs

Descriptors are cheap to pass around; materializing one yields the group
and its generator pair, ready to be turned into an origami. Generator
coordinates and the certificate that a descriptor witnesses a stratum come
from the descriptor alone, without building the group.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm

from .errors import InternalAssertion, InvalidAction, RegoriError
from .numtheory import check_twist, factorize, split_coprime, split_residues


def _split_args(body: str) -> list:
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(body[start:i])
            start = i + 1
    parts.append(body[start:])
    return parts


# each head's argument kinds and usage: "n" an integer, "d" any descriptor,
# and a head such as "c" a descriptor with that head
_SIGNATURES = {
    "c": ("n", "c(N)"),
    "sd": ("nnn", "sd(M,N,D)"),
    "dp": ("dc", "dp(DESC,c(K))"),
    "klein": ("n", "klein(L)"),
    "q8w": ("n", "q8w(L)"),
    "psl": ("nn", "psl(P,D)"),
}


def parse_descriptor(text: str):
    """(head, args) with args parsed recursively; numbers become ints.

    Raises ValueError unless every head is known and has the arguments the
    grammar gives it, so the functions below trust a parsed node.
    """
    text = text.strip()
    i = text.find("(")
    if i < 0 or not text.endswith(")"):
        raise ValueError(f"bad descriptor {text!r}")
    head = text[:i]
    body = text[i + 1 : -1]
    args = []
    for part in _split_args(body) if body else []:
        part = part.strip()
        if part.isdigit():
            args.append(int(part))
        else:
            args.append(parse_descriptor(part))
    if head not in _SIGNATURES:
        raise ValueError(f"unknown descriptor head {head!r}")
    kinds, usage = _SIGNATURES[head]
    if len(args) != len(kinds) or not all(
        isinstance(a, int) if k == "n" else isinstance(a, tuple) and k in ("d", a[0])
        for k, a in zip(kinds, args)
    ):
        raise ValueError(f"bad descriptor {text!r}: expected {usage}")
    return head, tuple(args)


def _fmt(node) -> str:
    if isinstance(node, int):
        return str(node)
    head, args = node
    return f"{head}({','.join(_fmt(a) for a in args)})"


def materialize(desc: str):
    """Build (group, x, y) for a descriptor string."""
    return _materialize(parse_descriptor(desc))


def _materialize(node):
    from . import constructions as cons

    head, args = node
    if head == "c":
        (n,) = args
        G = cons.cyclic(n)
        return G, 1 % n, 0
    if head == "sd":
        m, n, d = args
        G = cons.semidirect_cyclic(m, n, d)
        x, y = cons.semidirect_generators(m, n)
        return G, x, y
    if head == "dp":
        from .origami import extend_by_cyclic

        base, (_, (k,)) = args
        G, x, y = _materialize(base)
        return extend_by_cyclic(G, x, y, k)
    if head == "klein":
        (lam,) = args
        return cons.klein_witness(lam)
    if head == "q8w":
        (lam,) = args
        return cons.q8_witness(lam)
    if head == "psl":
        from .sl2 import psl_group

        p, _ = args
        return psl_group(p, *_psl_pair(*args))


@lru_cache(maxsize=32)
def _psl_pair(p: int, d: int) -> tuple:
    from . import sl2

    return sl2.build_generating_pair(p, d)


def descriptor_order(desc) -> int:
    """Group order of a descriptor without materializing it."""
    node = parse_descriptor(desc) if isinstance(desc, str) else desc
    head, args = node
    if head == "c":
        return args[0]
    if head == "sd":
        return args[0] * args[1]
    if head == "dp":
        return descriptor_order(args[0]) * args[1][1][0]
    if head == "klein":
        return 12 * args[0]
    if head == "q8w":
        return 24 * args[0]
    if head == "psl":
        p = args[0]
        return p * (p - 1) * (p + 1) // 2


def descriptor_generator_orders(desc) -> tuple:
    """Orders of the canonical generator pair, computed symbolically.

    Cheap for the product families; the projective family computes two
    matrix orders. Used to test cyclic-extension slack without building
    any group.
    """
    node = parse_descriptor(desc) if isinstance(desc, str) else desc
    head, args = node
    if head == "c":
        return args[0], 1
    if head == "sd":
        return args[0], args[1]
    if head == "dp":
        ox, oy = descriptor_generator_orders(args[0])
        k = args[1][1][0]
        t, s = split_coprime(k, ox, oy)
        return lcm(ox, t), lcm(oy, s)
    if head == "klein":
        return 2 * args[0], 3
    if head == "q8w":
        return 4 * args[0], 3
    if head == "psl":
        from .sl2 import proj_order

        A, B = _psl_pair(*args)
        return proj_order(A), proj_order(B)


def extension_slack_ok(desc: str, k: int) -> bool:
    """Whether a cyclic extension of degree k is available for this witness."""
    try:
        ox, oy = descriptor_generator_orders(desc)
    except RegoriError:
        return False
    return gcd(k, gcd(ox, oy)) == 1


def extend_descriptor(desc: str, k: int) -> str:
    return f"dp({desc},c({k}))"


def _coords(node) -> tuple:
    head, args = node
    if head == "c":
        (n,) = args
        return 1 % n, 0
    if head == "sd":
        m, n, _ = args
        return [1 % m, 0], [0, 1 % n]
    if head == "dp":
        base, (_, (k,)) = args
        cx, cy = _coords(base)
        u, v = split_residues(k, *descriptor_generator_orders(base))
        return [cx, u], [cy, v]
    if head == "klein":
        (lam,) = args
        return [[1 % lam, 1, 0], 0], [[0, 0, 1], 1]
    if head == "q8w":
        (lam,) = args
        return [[1 % lam, "i"], 0], [[0, "k"], 1]
    if head == "psl":
        from .sl2 import projective_class

        return tuple(list(projective_class(args[0], M[1:])) for M in _psl_pair(*args))


def generator_coords(desc: str):
    """JSON-friendly coordinates of the canonical generators.

    The same values `materialize(desc)` gives through `G.coords`, computed
    from the descriptor: a PSL(2,p) element is its `sl2.projective_class`,
    and a cyclic extension pairs the base coordinates with the residues that
    `origami.extend_by_cyclic` picks.
    """
    return list(_coords(parse_descriptor(desc)))


def _commutator_order(node) -> int:
    head, args = node
    if head == "c":
        return 1
    if head == "sd":
        # [(1,0), (0,1)] = (1 - d, 0) in Z/m
        m, _, d = args
        return m // gcd(d - 1, m)
    if head == "dp":
        # the cyclic factor is central, so the commutator lives in the base
        return _commutator_order(args[0])
    if head == "klein":
        return 2 * args[0]
    if head == "q8w":
        return 4 * args[0]
    if head == "psl":
        from .sl2 import commutator, proj_order

        return proj_order(commutator(*_psl_pair(*args)))


def _certify_generation(node) -> None:
    """Raise InternalAssertion unless the canonical pair generates the group.

    - c(N): 1 generates Z/N.
    - sd(M,N,D): (a, b) = (1,0)^a (0,1)^b, once D^N = 1 mod M makes the
      twist an action.
    - klein(L), q8w(L): the twist needs an order-3 multiplier mod L, i.e.
      every prime factor of L is 1 mod 3, so L is odd. Then x^L is the
      Klein or quaternion part of x and its conjugates by y span that
      factor (the twist rotates it with period three); x^2, resp. x^4,
      generates Z/L; y maps onto Z/3.
    - dp(B,c(K)): with K = t*s, t prime to ord(x), s prime to ord(y) and
      gcd(t, s) = 1, the powers a^ord(x) = (1, ord(x) u) and
      b^ord(y) = (1, ord(y) v) generate 1 x Z/t and 1 x Z/s, hence 1 x Z/K,
      and the pair maps onto B's generating pair.
    - psl(P,D): Macbeath's trace test (`sl2.mw_generates`) for P >= 13; the
      one smaller field, P = 11, is closed outright (660 elements).
    """
    head, args = node
    if head == "sd":
        try:
            check_twist(*args)
        except InvalidAction as exc:
            raise InternalAssertion(f"{_fmt(node)}: {exc}") from exc
    elif head in ("klein", "q8w"):
        bad = [q for q in factorize(args[0]) if q % 3 != 1]
        if bad:
            raise InternalAssertion(f"no order-3 multiplier mod {args[0]}: factor {bad[0]}")
    elif head == "dp":
        _certify_generation(args[0])
        k = args[1][1][0]
        ox, oy = descriptor_generator_orders(args[0])
        if gcd(k, gcd(ox, oy)) != 1:
            raise InternalAssertion(
                f"{_fmt(node)}: {k} shares a factor with both generator orders {ox} and {oy}"
            )
    elif head == "psl":
        from . import sl2

        p, _ = args
        A, B = _psl_pair(*args)
        if p >= 13:
            generated = sl2.mw_generates(p, A, B)
        else:
            generated = sl2.closure_order(p, A, B) == p * (p - 1) * (p + 1)
        if not generated:
            raise InternalAssertion(f"the pair of {_fmt(node)} does not generate SL(2,{p})")


def certify(desc: str, k: int, l: int) -> tuple:
    """Re-prove that desc witnesses the stratum H(k^l), from the descriptor alone.

    A regular origami from G and a generating pair (x, y) lies in
    H(k^l) exactly when |G| = (k+1)*l and [x, y] has order k+1. Each check
    costs polylog(|G|) group operations once a PSL(2,p) pair is built (a
    scan over F_p), never |G|. Returns the names of the checks passed, in
    order; raises InternalAssertion on the first that fails.
    """
    node = parse_descriptor(desc)
    order = descriptor_order(node)
    if order != (k + 1) * l:
        raise InternalAssertion(f"{desc} has order {order}, not {(k + 1) * l} for H({k}^{l})")
    comm = _commutator_order(node)
    if comm != k + 1:
        raise InternalAssertion(f"{desc} has commutator order {comm}, not {k + 1}")
    _certify_generation(node)
    return ("order", "commutator_order", "generation")
