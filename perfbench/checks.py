"""Answer checks computed apart from the library's code paths.

Everything here uses its own arithmetic: a descriptor-order parser, a
breadth-first closure over permutations, 2x2 matrices mod p, cycle
lengths of the commutator, and trial-division primality. Each check
raises CheckFailed with a message naming the answer it rejects.
"""

from __future__ import annotations

import json
import re


class CheckFailed(Exception):
    pass


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


# ---- numbers -------------------------------------------------------------


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def is_sophie_germain(p: int) -> bool:
    return is_prime(p) and is_prime(2 * p + 1)


# ---- witness descriptors -------------------------------------------------

_TOKEN = re.compile(r"\s*(?:([a-z0-9]+)\(|(\d+)|(\))|(,))")


def descriptor_order(text: str) -> int:
    """Group order of a descriptor, by a stack parser of its own."""
    stack = []  # [head, args] frames
    pos, done = 0, None
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise CheckFailed(f"unparsable descriptor {text!r}")
        pos = m.end()
        head, num, close = m.group(1), m.group(2), m.group(3)
        if head:
            stack.append([head, []])
        elif num:
            require(bool(stack), f"bare number in {text!r}")
            stack[-1][1].append(int(num))
        elif close:
            require(bool(stack), f"unbalanced {text!r}")
            h, args = stack.pop()
            value = _node_order(h, args, text)
            if stack:
                stack[-1][1].append((h, value))
            else:
                done = value
    require(done is not None and not stack, f"unbalanced {text!r}")
    return done


def _node_order(head: str, args: list, text: str) -> int:
    nums = [a for a in args if isinstance(a, int)]
    if head == "c" and len(nums) == 1:
        return nums[0]
    if head == "sd" and len(nums) == 3:
        return nums[0] * nums[1]
    if head == "klein" and len(nums) == 1:
        return 12 * nums[0]
    if head == "q8w" and len(nums) == 1:
        return 24 * nums[0]
    if head == "psl" and len(nums) == 2:
        p = nums[0]
        return p * (p * p - 1) // 2
    if head == "dp" and len(args) == 2 and not nums:
        (_, base), (ext_head, k) = args
        require(ext_head == "c", f"non-cyclic extension in {text!r}")
        return base * k
    raise CheckFailed(f"unknown descriptor node {head}{tuple(args)} in {text!r}")


GROUP_HEADS = ("c(", "sd(", "dp(", "klein(", "q8w(", "psl(")


def is_group_descriptor(text) -> bool:
    return isinstance(text, str) and text.startswith(GROUP_HEADS)


# ---- permutations and origamis -------------------------------------------


def parse_origami(text: str) -> tuple:
    n_text, h_text, v_text = text.split(";")
    h = tuple(int(x) for x in h_text.split(","))
    v = tuple(int(x) for x in v_text.split(","))
    n = int(n_text)
    require(len(h) == n and len(v) == n, f"origami size {n} does not match its gluings")
    require(sorted(h) == list(range(n)) and sorted(v) == list(range(n)),
            "gluings are not permutations")
    return h, v


def orbit_size(gens) -> int:
    """Size of the orbit of square 0."""
    seen = {0}
    todo = [0]
    while todo:
        i = todo.pop()
        for g in gens:
            j = g[i]
            if j not in seen:
                seen.add(j)
                todo.append(j)
    return len(seen)


def group_order(gens, limit: int) -> int:
    """|<gens>| by breadth-first closure; stops once it passes limit."""
    n = len(gens[0])
    ident = tuple(range(n))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                q = tuple([g[i] for i in e])
                if q not in seen:
                    seen.add(q)
                    if len(seen) > limit:
                        return len(seen)
                    nxt.append(q)
        frontier = nxt
    return len(seen)


def _inverse(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return out


def commutator_cycles(h, v) -> list:
    """Cycle lengths of h v h^-1 v^-1 (first v^-1, then h^-1, v, h)."""
    hi, vi = _inverse(h), _inverse(v)
    c = [h[v[hi[vi[i]]]] for i in range(len(h))]
    seen = [False] * len(c)
    lengths = []
    for i in range(len(c)):
        if not seen[i]:
            k, j = 0, i
            while not seen[j]:
                seen[j] = True
                j = c[j]
                k += 1
            lengths.append(k)
    return lengths


def zeros_of(h, v) -> tuple:
    return tuple(sorted((k - 1 for k in commutator_cycles(h, v) if k > 1), reverse=True))


def genus_of(h, v) -> int:
    """From the Euler characteristic: V - E + F = vertices - 2n + n = 2 - 2g."""
    n = len(h)
    vertices = len(commutator_cycles(h, v))
    return (n - vertices) // 2 + 1


_STRATUM_PART = re.compile(r"(\d+)(?:\^(\d+))?")


def stratum_zeros(text: str) -> tuple:
    m = re.fullmatch(r"H\((.*)\)", text.replace(" ", ""))
    require(m is not None, f"unparsable stratum {text!r}")
    zeros = []
    for part in filter(None, m.group(1).split(",")):
        pm = _STRATUM_PART.fullmatch(part)
        require(pm is not None, f"unparsable stratum {text!r}")
        zeros += [int(pm.group(1))] * int(pm.group(2) or 1)
    return tuple(sorted(zeros, reverse=True))


def check_regular_origami(text: str, n: int) -> tuple:
    """Rebuild the origami; it must be connected and its group regular of order n."""
    h, v = parse_origami(text)
    require(len(h) == n, f"origami has {len(h)} squares, expected {n}")
    require(orbit_size((h, v)) == n, "origami is not connected")
    order = group_order((h, v), limit=n)
    require(order == n, f"monodromy group has order {order}, expected {n}")
    return h, v


# ---- 2x2 matrices mod p --------------------------------------------------


def mat_mul(x, y, p):
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % p, (a * f + b * h) % p, (c * e + d * g) % p, (c * f + d * h) % p)


def mat_det(x, p):
    a, b, c, d = x
    return (a * d - b * c) % p


def mat_inv(x, p):
    a, b, c, d = x
    return (d % p, -b % p, -c % p, a % p)


def mat_order(x, p):
    ident = (1, 0, 0, 1)
    y, k = x, 1
    while y != ident:
        y = mat_mul(y, x, p)
        k += 1
        require(k <= p * (p * p - 1), "matrix order beyond |SL(2,p)|")
    return k


def commutator_order(a, b, p):
    comm = mat_mul(mat_mul(a, b, p), mat_mul(mat_inv(a, p), mat_inv(b, p), p), p)
    return mat_order(comm, p)


_MAT = re.compile(r"\[\[(\d+),(\d+)\],\[(\d+),(\d+)\]\]@(\d+)")


def parse_matrix(text: str) -> tuple:
    m = _MAT.fullmatch(text)
    require(m is not None, f"unparsable matrix {text!r}")
    *entries, p = (int(x) for x in m.groups())
    return tuple(entries), p


# ---- tg-scan -------------------------------------------------------------


def check_t_of_g(g: int, bound, expect=None) -> None:
    """bound: the library's TransBound; expect: (t, m) the paper fixes, or None."""
    lo, hi = 2 * (g - 1), 4 * (g - 1)
    require(lo <= bound.lower <= bound.upper <= hi,
            f"g={g}: [{bound.lower}, {bound.upper}] outside [{lo}, {hi}]")
    require(bound.status in ("exact", "interval"), f"g={g}: status {bound.status!r}")
    require((bound.status == "exact") == (bound.lower == bound.upper),
            f"g={g}: status {bound.status} with [{bound.lower}, {bound.upper}]")
    m = bound.m
    if m is None:
        require(bound.lower == lo, f"g={g}: m=None but lower {bound.lower} != {lo}")
    else:
        require(lo % m == 0, f"g={g}: m={m} does not divide 2(g-1)")
        require(bound.lower * m == 2 * (m + 1) * (g - 1),
                f"g={g}: lower {bound.lower} != 2(m+1)(g-1)/m for m={m}")
    if bound.status == "interval":
        mu = bound.first_unknown_m
        require(mu is not None and lo % mu == 0 and (m is None or mu < m),
                f"g={g}: bad first unknown order {mu}")
        require(bound.upper * mu == 2 * (mu + 1) * (g - 1),
                f"g={g}: upper {bound.upper} != 2(m+1)(g-1)/m for m={mu}")
    if is_group_descriptor(bound.witness):
        order = descriptor_order(bound.witness)
        require(order == bound.lower,
                f"g={g}: witness {bound.witness} has order {order}, not {bound.lower}")
    if expect is not None:
        t, em = expect
        require(bound.status == "exact" and bound.lower == t and m == em,
                f"g={g}: expected exact {t} with m={em}, got {bound.status} "
                f"{bound.lower} with m={m}")


# ---- enum-sweep ----------------------------------------------------------


def check_enumeration(n: int, found, status_of) -> None:
    """found: [(serialized origami, reported zeros)]; status_of(k, l) -> oracle status."""
    strata = set()
    for text, zeros in found:
        h, v = check_regular_origami(text, n)
        own = zeros_of(h, v)
        require(own == tuple(zeros), f"n={n}: stratum {zeros} reported, {own} recomputed")
        strata.add(own)
    for l in range(1, n + 1):
        if n % l or n // l < 2:
            continue
        k = n // l - 1
        exists = status_of(k, l) == "exists"
        require(exists == ((k,) * l in strata),
                f"n={n}: oracle says {'exists' if exists else 'no'} for H({k}^{l}), "
                f"the enumeration {'does not find' if exists else 'finds'} one")
    if n % 2 == 0 and n >= 4:
        g = n // 2
        require(((g - 1,) * 2 in strata) == (g % 2 == 1),
                f"n={n}: H({g - 1},{g - 1}) has a witness iff g={g} is odd")
    if n % 3 == 0:
        l = n // 3
        require(((2,) * l in strata) == (l % 2 == 0 or l % 9 == 0),
                f"n={n}: H(2^{l}) has a witness iff l is even or 9 | l")


# ---- cli-witness ---------------------------------------------------------


def check_cli(op: dict, rc: int, out: str) -> None:
    """op: one command of the mix with what it expects; rc, out: exit code and stdout."""
    require(rc == 0, f"{op['argv']}: exit code {rc}")
    try:
        payload = json.loads(out)
    except ValueError:
        raise CheckFailed(f"{op['argv']}: output is not JSON: {out[:80]!r}") from None
    kind = op["kind"]
    if kind == "regular-origami":
        t, k, l, g = op["t"], op["k"], op["l"], op["g"]
        require(payload["order"] == t and payload["translations"] == t,
                f"{op['argv']}: order {payload['order']}, translations "
                f"{payload['translations']}, row t {t}")
        h, v = check_regular_origami(payload["origami"], t)
        require(genus_of(h, v) == g and payload["genus"] == g,
                f"{op['argv']}: genus {payload['genus']}, Euler characteristic gives "
                f"{genus_of(h, v)}, row {g}")
        require(zeros_of(h, v) == (k,) * l and stratum_zeros(payload["stratum"]) == (k,) * l,
                f"{op['argv']}: stratum {payload['stratum']}, row H({k}^{l})")
    elif kind == "psl-pair":
        p, d = op["p"], op["d"]
        require(payload["closure_order"] == p * (p * p - 1),
                f"{op['argv']}: closure order {payload['closure_order']}")
        a, pa = parse_matrix(payload["A"])
        b, pb = parse_matrix(payload["B"])
        require(pa == pb == p and mat_det(a, p) == 1 and mat_det(b, p) == 1,
                f"{op['argv']}: generators not in SL(2,{p})")
        co = commutator_order(a, b, p)
        require(co == d and payload["commutator_order"] == d,
                f"{op['argv']}: commutator order {co} recomputed, "
                f"{payload['commutator_order']} printed, {d} asked")
    else:
        _check_stratum_answer(op, payload)


def _check_stratum_answer(op: dict, payload: dict) -> None:
    k, l, want = op["k"], op["l"], op["exists"]
    status = payload.get("status")
    require(status == ("exists" if want else "not_exists"),
            f"{op['argv']}: status {status!r}, expected {'exists' if want else 'not_exists'}")
    if not want:
        require(bool(payload.get("reason")), f"{op['argv']}: not_exists without a rule")
        return
    witness = payload["witness"]
    order = descriptor_order(witness)
    require(order == (k + 1) * l,
            f"{op['argv']}: witness {witness} has order {order}, not {(k + 1) * l}")
    gens = payload.get("generators")
    require(isinstance(gens, list) and len(gens) == 2, f"{op['argv']}: no generator pair")
    if op["kind"] == "progression":
        p, m = op["p"], k
        require(witness == f"psl({p},{2 * (m + 1)})",
                f"{op['argv']}: witness {witness}, expected psl({p},{2 * (m + 1)})")
        a, b = (tuple(x) for x in gens)
        require(mat_det(a, p) == 1 and mat_det(b, p) == 1,
                f"{op['argv']}: generator determinant is not 1 mod {p}")
        co = commutator_order(a, b, p)
        require(co == 2 * (m + 1), f"{op['argv']}: commutator order {co}, not {2 * (m + 1)}")
