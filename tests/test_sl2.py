"""Matrix arithmetic over F_p and the generating-pair machinery."""

import pytest

from regori import sl2
from regori.errors import (
    BudgetExceeded,
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


def test_closure_orders():
    A, B = sl2.build_generating_pair(13, 12)
    assert sl2.closure_order(13, A, B) == 2184
    I = sl2.mat_identity(11)
    assert sl2.closure_order(11, I, I) == 1
    M = sl2.Mat2(11, 3, 0, 0, 4)
    assert sl2.closure_order(11, M, I) == 5
    with pytest.raises(BudgetExceeded):
        sl2.closure_order(103, sl2.mat_identity(103), sl2.mat_identity(103))


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
    G, a, b, genus = sl2.psl_family(5, 11, 1)
    assert G.order == 660
    assert genus == 276
    assert G.element_order(G.commutator(a, b)) == 6
    G, a, b, genus = sl2.psl_family(5, 13, 1)
    assert G.order == 1092
    assert genus == 456
    G, a, b, genus = sl2.psl_family(5, 11, 7)
    assert G.order == 4620
    assert genus == 7 * 275 + 1


def test_psl_family_table_row_m11():
    # no group materialization needed to check the genus arithmetic
    assert 11 * 23 * 22 * 24 // (4 * 12) + 1 == 2784


def test_serialization():
    A = sl2.Mat2(11, 1, 2, 0, 1)
    assert str(A) == "[[1,2],[0,1]]@11"


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
    )
    src = str(Path(regori.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out == ["False", str(23 * (23 * 23 - 1))]
