"""Matrix arithmetic over F_p and the generating-pair machinery."""

import random

import pytest

from regori import sl2
from regori.numtheory import is_prime
from regori.errors import (
    ModulusMismatch,
    NoSuchOrder,
    OrderTooSmall,
    PreconditionViolated,
)


def test_mat_basics():
    I = sl2.mat_identity(11)
    assert sl2.mat_order(I) == 1
    B = sl2.standard_b(11)
    assert sl2.mat_order(B) == 4
    M = sl2.Mat2(11, 3, 0, 0, 4)
    assert sl2.mat_order(M) == 5
    assert sl2.mat_mul(M, sl2.mat_inv(M)) == I
    with pytest.raises(ModulusMismatch):
        sl2.mat_mul(I, sl2.mat_identity(13))
    with pytest.raises(ValueError):
        sl2.Mat2(11, 1, 0, 0, 2)


def test_order_d_element_examples():
    M = sl2.order_d_element(11, 5)
    assert (M.a, M.b, M.c, M.d) == (3, 0, 0, 4)
    M = sl2.order_d_element(13, 12)
    assert (M.a, M.d) == (2, 7)
    M = sl2.order_d_element(11, 12)
    assert sl2.mat_order(M) == 12
    with pytest.raises(NoSuchOrder):
        sl2.order_d_element(11, 7)


def test_order_d_element_trace_never_pm2():
    for p in (11, 13, 17, 19, 23):
        for d in range(3, 15):
            if (p - 1) % d and (p + 1) % d:
                continue
            M = sl2.order_d_element(p, d)
            assert sl2.mat_order(M) == d
            assert M.trace not in (2, p - 2)


def test_mw_generates_explicit_pair():
    # two upper-triangular matrices commute up the diagonal: tiny commutator
    A = sl2.Mat2(17, 1, 2, 0, 1)
    U = sl2.Mat2(17, 1, 1, 0, 1)
    with pytest.raises(OrderTooSmall):
        sl2.mw_generates(17, A, U)
    A2, B2 = sl2.build_generating_pair(17, 8)
    assert sl2.mw_generates(17, A2, B2)
    with pytest.raises(OrderTooSmall):
        sl2.mw_generates(17, sl2.mat_identity(17), sl2.mat_identity(17))
    with pytest.raises(PreconditionViolated):
        sl2.mw_generates(11, A2, B2)


def test_mw_rejects_exceptional_subgroups():
    # commutator order 6 admits projective image S4 or A5: the trace test
    # alone would pass, the bounded closure must catch it
    found = None
    for a in range(17):
        for b in range(17):
            for c in range(17):
                try:
                    dd = (1 + b * c) * pow(a, -1, 17) % 17
                except ValueError:
                    continue
                A = sl2.Mat2(17, a, b, c, dd)
                B = sl2.standard_b(17)
                comm = sl2.commutator(A, B)
                if sl2.mat_order(comm) != 6:
                    continue
                size = sl2.closure_order(17, A, B)
                if size < 17 * 16 * 18:
                    found = (A, B, size)
                    break
            if found:
                break
        if found:
            break
    assert found is not None
    A, B, size = found
    assert size <= 120
    assert sl2.mw_generates(17, A, B) is False


def test_mw_rejects_the_largest_exceptional_subgroup():
    # the pair passes the trace test and generates the binary icosahedral
    # group, 120 elements: the bounded closure must admit exactly that many
    A, B = sl2.Mat2(19, 1, 1, 2, 3), sl2.standard_b(19)
    comm = sl2.commutator(A, B)
    assert sl2.mat_order(comm) == 10
    assert (A.trace, B.trace, sl2.mat_mul(A, B).trace, comm.trace) == (4, 0, 18, 15)
    assert sl2.closure_order(19, A, B) == 120
    assert sl2.mw_generates(19, A, B) is False


def _closure_order_reference(p, A, B):
    """|<A, B>| by breadth-first closure over all matrices, O(|<A, B>|)."""
    gens = [(A.a, A.b, A.c, A.d), (B.a, B.b, B.c, B.d)]
    seen = {(1, 0, 0, 1)}
    frontier = list(seen)
    while frontier:
        new = []
        for a, b, c, d in frontier:
            for e, f, g, h in gens:
                prod = ((a * e + b * g) % p, (a * f + b * h) % p,
                        (c * e + d * g) % p, (c * f + d * h) % p)
                if prod not in seen:
                    seen.add(prod)
                    new.append(prod)
        frontier = new
    return len(seen)


def _reference_pairs(p, rng):
    """Seeded pairs from the identity, diagonal, Borel, exceptional and
    generic subgroups of SL(2,p)."""
    I = sl2.mat_identity(p)
    B4 = sl2.standard_b(p)

    def unit():
        return rng.randrange(1, p)

    def diagonal():
        a = unit()
        return sl2.Mat2(p, a, 0, 0, pow(a, -1, p))

    def borel():
        a = unit()
        return sl2.Mat2(p, a, rng.randrange(p), 0, pow(a, -1, p))

    def trace_one():
        # order 6; with the order-4 B4 it generates a binary tetrahedral,
        # octahedral or icosahedral group exactly when tr(A B4) is 0, +-1,
        # a square root of 2 or a root of x^2 +- x - 1
        a, b = rng.randrange(p), unit()
        d = (1 - a) % p
        return sl2.Mat2(p, a, b, (a * d - 1) * pow(b, -1, p) % p, d)

    def generic():
        a, b, c = unit(), rng.randrange(p), rng.randrange(p)
        return sl2.Mat2(p, a, b, c, (1 + b * c) * pow(a, -1, p))

    pairs = [(I, I), (I, sl2.mat_neg(I)), (B4, B4)]
    for _ in range(4):
        pairs += [(diagonal(), diagonal()), (borel(), borel()), (borel(), I)]
    pairs += [(trace_one(), B4) for _ in range(40)]
    pairs += [(generic(), generic()) for _ in range(3)]
    return pairs


def test_closure_order_matches_reference():
    rng = random.Random(11)
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31):
        full = p * (p - 1) * (p + 1)
        sizes = []
        for A, B in _reference_pairs(p, rng):
            size = sl2.closure_order(p, A, B)
            assert size == _closure_order_reference(p, A, B), (A, B)
            sizes.append(size)
        # stabilizers of (1, 0) of order p and of order 1 both occur
        assert any(size % p == 0 for size in sizes), p
        assert any(size % p for size in sizes if size > 1), p
        # a proper binary tetrahedral, octahedral or icosahedral subgroup
        assert any(size in (24, 48, 120) and size < full for size in sizes), p
        assert full in sizes, p


def test_closure_orders():
    A, B = sl2.build_generating_pair(13, 12)
    assert sl2.closure_order(13, A, B) == 2184
    I = sl2.mat_identity(11)
    assert sl2.closure_order(11, I, I) == 1
    M = sl2.Mat2(11, 3, 0, 0, 4)
    assert sl2.closure_order(11, M, I) == 5


def test_special_pairs():
    A, B = sl2.build_generating_pair(11, 12)
    assert (A.a, A.b, A.c, A.d) == (1, 2, 0, 1)
    assert sl2.mat_order(sl2.commutator(A, B)) == 12
    assert sl2.closure_order(11, A, B) == 1320
    A, B = sl2.build_generating_pair(13, 12)
    assert (A.a, A.b, A.c, A.d) == (2, 4, 0, 7)
    assert sl2.mat_order(sl2.commutator(A, B)) == 12


def test_build_pair_example():
    A, B = sl2.build_generating_pair(23, 6)
    assert sl2.mat_order(sl2.commutator(A, B)) == 6
    assert sl2.closure_order(23, A, B) == 12144


def test_build_pair_preconditions():
    with pytest.raises(PreconditionViolated):
        sl2.build_generating_pair(17, 4)
    with pytest.raises(PreconditionViolated):
        sl2.build_generating_pair(17, 7)
    with pytest.raises(PreconditionViolated):
        sl2.build_generating_pair(15, 8)


def test_build_pair_small_sweep():
    for p in (17, 19, 23):
        for d in range(6, 15):
            if (p - 1) % d and (p + 1) % d:
                continue
            A, B = sl2.build_generating_pair(p, d)
            assert sl2.mat_order(sl2.commutator(A, B)) == d
            assert sl2.closure_order(p, A, B) == p * (p - 1) * (p + 1)


def test_mw_matches_closure_on_random_pairs():
    # a thousand random pairs across three primes, wherever the trace test
    # applies, plus all the constructed pairs
    import random

    rng = random.Random(7)

    def random_mat(p):
        while True:
            a, b, c = rng.randrange(p), rng.randrange(p), rng.randrange(p)
            if a:
                return sl2.Mat2(p, a, b, c, (1 + b * c) * pow(a, -1, p) % p)

    for p in (13, 17, 19):
        full = p * (p - 1) * (p + 1)
        applicable = 0
        for _ in range(334):
            A, B = random_mat(p), random_mat(p)
            try:
                claim = sl2.mw_generates(p, A, B)
            except OrderTooSmall:
                continue
            assert claim == (sl2.closure_order(p, A, B) == full), (A, B)
            applicable += 1
        assert applicable > 50
        for d in range(6, 15):
            if (p - 1) % d and (p + 1) % d:
                continue
            if p == 13 and d != 12:
                continue
            A, B = sl2.build_generating_pair(p, d)
            assert sl2.mw_generates(p, A, B)
            assert sl2.closure_order(p, A, B) == full


def test_psl_group_and_family():
    # PSL(2,p) and PSL(2,p) x Z/k are built only through their descriptors;
    # the pair has commutator order 12 downstairs and 6 in the quotient
    from regori.origami import genus_of, regular_origami
    from regori.witnesses import materialize

    for desc, order, genus in (("psl(11,12)", 660, 276), ("psl(13,12)", 1092, 456),
                               ("dp(psl(11,12),c(7))", 4620, 1926)):
        G, a, b = materialize(desc)
        assert G.order == order, desc
        assert G.element_order(G.commutator(a, b)) == 6, desc
        assert genus_of(regular_origami(G, a, b)) == genus, desc


def test_two_square_reps_match_brute_force():
    for p in range(17, 200):
        if not is_prime(p):
            continue
        nonzero_roots = {}  # filled downwards, so each square keeps its smallest root
        for t in range(p - 1, 0, -1):
            nonzero_roots[t * t % p] = t
        for a in range(1, p):
            expected = [(s, nonzero_roots[(a - s * s) % p]) for s in range(1, p)
                        if (a - s * s) % p in nonzero_roots]
            assert list(sl2._two_square_reps(p, a)) == expected, (p, a)


def test_psl_family_table_row_m11():
    # no group materialization needed to check the genus arithmetic
    assert 11 * 23 * 22 * 24 // (4 * 12) + 1 == 2784


def test_serialization():
    A = sl2.Mat2(11, 1, 2, 0, 1)
    assert str(A) == "[[1,2],[0,1]]@11"
    assert repr(A) == "Mat2(p=11, a=1, b=2, c=0, d=1)"
    assert sl2.Mat2(11, 12, -9, 0, 23) == A


# sha256 of the JSON list of `G.coords(i)` for every element index of
# `psl_group(p, *build_generating_pair(p, d))`: the element numbering that
# witnesses and the CLI report must not drift
PSL_NUMBERING = {
    (11, 12): "4ef931b41ea7eb7c13f4e1ba9b2d735c74fce4786b72f01f4fef3d2eeb06066b",
    (13, 12): "5a2337893ec6740dff981ae283ef8b5033361468600a6a40262ddf35bef3cbda",
    (17, 18): "627ac60f1aedb34d430c68e874986da435b572e8d89cc35ab5568a3f129dca93",
    (19, 10): "17451eb4781a487faa9d675bd3f97a24e2ffc7d93e32033ecfe2725dc5a2ff37",
    (23, 12): "1aea6a1e833da30595a3692413155a2994c3e86e3201c60f2896cd6305242d42",
}


@pytest.mark.parametrize("p, d", sorted(PSL_NUMBERING))
def test_psl_group_numbering_is_pinned(p, d):
    import hashlib
    import json

    G, a, b = sl2.psl_group(p, *sl2.build_generating_pair(p, d))
    assert (G.order, G.identity, a, b) == (p * (p * p - 1) // 2, 0, 1, 2)
    coords = json.dumps([G.coords(i) for i in range(G.order)]).encode()
    assert hashlib.sha256(coords).hexdigest() == PSL_NUMBERING[(p, d)]


def test_cli_import_leaves_numpy_unloaded():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import regori

    code = (
        "import sys\n"
        "import regori.cli\n"
        "print('numpy' in sys.modules)\n"
        "from regori import sl2\n"
        "A, B = sl2.build_generating_pair(23, 6)\n"
        "print(sl2.closure_order(23, A, B))\n"
        "print('numpy' in sys.modules)\n"
    )
    src = str(Path(regori.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out == ["False", str(23 * (23 * 23 - 1)), "False"]
