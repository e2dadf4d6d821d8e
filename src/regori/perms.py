"""Permutations of {0..n-1} as tuples of images.

A permutation of degree n is a tuple ``p`` with ``p[i]`` the image of ``i``.
Composition follows function notation: ``compose(p, q)`` applies ``q`` first.
"""

from __future__ import annotations

from .errors import DegreeMismatch


def identity(n: int) -> tuple:
    return tuple(range(n))


def check_perm(p) -> tuple:
    """Validate that p is a bijection of {0..n-1} and return it as a tuple."""
    p = tuple(p)
    n = len(p)
    if n < 1:
        raise ValueError("degree must be at least 1")
    seen = [False] * n
    for v in p:
        if not isinstance(v, int) or not 0 <= v < n or seen[v]:
            raise ValueError(f"not a permutation of 0..{n - 1}: {p}")
        seen[v] = True
    return p


def compose(p: tuple, q: tuple) -> tuple:
    """(p o q)(i) = p[q[i]]."""
    if len(p) != len(q):
        raise DegreeMismatch(f"degrees {len(p)} and {len(q)} differ")
    return tuple(p[v] for v in q)


def invert(p: tuple) -> tuple:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def perm_order(p: tuple) -> int:
    """Least k >= 1 with p^k = id (lcm of cycle lengths)."""
    from math import lcm

    order = 1
    for c in cycles(p):
        order = lcm(order, len(c))
    return order


def cycles(p: tuple) -> list:
    """Cycle decomposition including fixed points, each cycle starting at its minimum."""
    n = len(p)
    seen = [False] * n
    out = []
    for i in range(n):
        if seen[i]:
            continue
        c = [i]
        seen[i] = True
        j = p[i]
        while j != i:
            c.append(j)
            seen[j] = True
            j = p[j]
        out.append(c)
    return out


def cycle_type(p: tuple) -> tuple:
    """Sorted (descending) multiset of cycle lengths."""
    return tuple(sorted((len(c) for c in cycles(p)), reverse=True))


def is_transitive_pair(p: tuple, q: tuple) -> bool:
    """Whether <p, q> acts transitively on the common domain.

    On a finite set each inverse is a power, p^-1 = p^(ord p - 1), so the
    points reachable from 0 by p and q alone form the orbit of 0.
    """
    n = len(p)
    if len(q) != n:
        raise DegreeMismatch(f"degrees {n} and {len(q)} differ")
    seen = [False] * n
    seen[0] = True
    stack = [0]
    count = 1
    while stack:
        i = stack.pop()
        for f in (p, q):
            j = f[i]
            if not seen[j]:
                seen[j] = True
                count += 1
                stack.append(j)
    return count == n


def uniform_cycles(n: int, a: int) -> tuple:
    """The canonical product of n/a disjoint a-cycles: (0..a-1)(a..2a-1)..."""
    if n % a:
        raise ValueError(f"{a} does not divide {n}")
    out = []
    for base in range(0, n, a):
        for i in range(a):
            out.append(base + (i + 1) % a)
    return tuple(out)


def format_perm(p: tuple) -> str:
    return ",".join(str(v) for v in p)


def parse_perm(text: str) -> tuple:
    return check_perm(int(v) for v in text.split(","))
