import random

import pytest

from regori import perms
from regori.errors import DegreeMismatch


def test_identity_and_check():
    assert perms.identity(3) == (0, 1, 2)
    assert perms.check_perm([2, 0, 1]) == (2, 0, 1)
    with pytest.raises(ValueError):
        perms.check_perm([0, 0, 1])
    with pytest.raises(ValueError):
        perms.check_perm([])


def test_compose_function_order():
    p = (1, 2, 0)
    q = (0, 2, 1)
    # (p o q)(i) = p[q[i]]
    assert perms.compose(p, q) == (1, 0, 2)
    with pytest.raises(DegreeMismatch):
        perms.compose(p, (1, 0))


def test_invert():
    p = (2, 0, 1)
    assert perms.compose(p, perms.invert(p)) == perms.identity(3)


def test_order_and_cycles():
    p = (1, 2, 0, 4, 3)
    assert perms.perm_order(p) == 6
    assert perms.cycles(p) == [[0, 1, 2], [3, 4]]
    assert perms.cycle_type(p) == (3, 2)


def _orbit_of_0(gens) -> set:
    seen, stack = {0}, [0]
    while stack:
        i = stack.pop()
        for f in gens:
            if f[i] not in seen:
                seen.add(f[i])
                stack.append(f[i])
    return seen


def test_transitive_pair():
    assert perms.is_transitive_pair((1, 0, 2), (2, 1, 0))
    assert not perms.is_transitive_pair((1, 0, 2, 3), (0, 1, 3, 2))
    # against the orbit under p, q and their inverses; each pair keeps a
    # random split of the points invariant, so most are intransitive
    rng = random.Random(23)
    outcomes = set()
    for _ in range(400):
        n = rng.randint(1, 12)
        points = list(range(n))
        rng.shuffle(points)
        cut = rng.randint(1, n)
        blocks = (points[:cut], points[cut:])
        pair = []
        for _ in range(2):
            p = [0] * n
            for block in blocks:
                for i, j in zip(block, rng.sample(block, len(block))):
                    p[i] = j
            pair.append(tuple(p))
        p, q = pair
        expected = len(_orbit_of_0((p, q, perms.invert(p), perms.invert(q)))) == n
        assert perms.is_transitive_pair(p, q) == expected, (p, q)
        outcomes.add(expected)
    assert outcomes == {True, False}


def test_uniform_cycles():
    assert perms.uniform_cycles(6, 3) == (1, 2, 0, 4, 5, 3)
    assert perms.uniform_cycles(4, 1) == (0, 1, 2, 3)
    with pytest.raises(ValueError):
        perms.uniform_cycles(6, 4)


def test_format_parse_roundtrip():
    p = (3, 0, 2, 1)
    assert perms.parse_perm(perms.format_perm(p)) == p
