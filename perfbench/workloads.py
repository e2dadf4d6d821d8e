"""The three workloads: their seeded inputs, one operation each, and its check.

Every workload is a closed loop with one caller: the next operation starts
when the previous one has returned. A pass runs every operation of the
workload once, in an order fixed by the seed; a run is made of whole
passes, so each operation size keeps its share of the samples.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys

import checks
import paper

# ---- tg-scan -------------------------------------------------------------

# Genera spread log-uniformly over [2, TG_MAX_GENUS]. A few dozen large
# genera carry most of a pass's time, so the count is high enough that the
# seed moves the work of a pass by little.
TG_LOG_UNIFORM = 900
TG_FAMILY_EACH = 6  # per family: p+1, pq+1, p^2+1 (SG p or not), extended progressions
TG_MAX_GENUS = 10**6
# (g-1) mod 6 for successive log slices, from the top. t_of_g settles m = 1
# at once when g-1 is even or a multiple of 3; otherwise it goes on to
# m = 2 and builds a stratum of g-1 zeros. Fixing the class of each slice
# fixes the share of genera that build large strata, whatever the seed,
# and gives the top slice a large one.
TG_RESIDUES = (1, 5, 0, 2, 3, 4)


def _next_prime(x: int) -> int:
    x = max(x, 5)
    while not checks.is_prime(x):
        x += 1
    return x


def _near_centres(rng, lo: float, hi: float, k: int, jitter: float = 0.1) -> list:
    """k points, each within jitter of a slice width from the centre of
    one of k equal slices of [lo, hi], so that the sizes vary little by seed."""
    step = (hi - lo) / k
    return [lo + (i + 0.5 + rng.uniform(-jitter, jitter)) * step for i in range(k)]


def _pick_near_centres(rng, items: list, k: int) -> list:
    return [items[min(len(items) - 1, int(x))] for x in _near_centres(rng, 0, len(items), k)]


def tg_inputs(seed: int) -> list:
    """[(g, expect)], expect = (t, m) where the paper fixes the answer, else None."""
    rng = random.Random(f"tg-scan:{seed}")
    log_lo, log_hi = math.log(2), math.log(TG_MAX_GENUS)
    step = (log_hi - log_lo) / TG_LOG_UNIFORM
    ops = []
    for i in range(TG_LOG_UNIFORM):
        top = log_hi - i * step
        g = round(math.exp(rng.uniform(top - step, top)))
        g -= (g - 1 - TG_RESIDUES[i % len(TG_RESIDUES)]) % 6
        ops.append((max(g, 2), None))
    k = TG_FAMILY_EACH
    # g = p+1 and g = pq+1: no singularity order beats the one-cylinder bound
    for x in _near_centres(rng, math.log(5), math.log(TG_MAX_GENUS - 1), k):
        p = _next_prime(round(math.exp(x)))
        ops.append((p + 1, (2 * p, None)))
    for x in _near_centres(rng, math.log(35), math.log(TG_MAX_GENUS - 1), k):
        target = math.exp(x)
        p = _next_prime(round(rng.uniform(5, math.sqrt(target) - 1)))
        q = _next_prime(max(p + 1, round(target / p)))
        ops.append((p * q + 1, (2 * p * q, None)))
    # g = p^2+1: a Sophie Germain p >= 5 reaches (2p+1)p with m = 2p
    small = [p for p in range(5, math.isqrt(TG_MAX_GENUS) + 1) if checks.is_prime(p)]
    sg = [p for p in small if checks.is_sophie_germain(p)]
    plain = [p for p in small if not checks.is_sophie_germain(p)]
    for p in _pick_near_centres(rng, sg, k):
        ops.append((p * p + 1, ((2 * p + 1) * p, 2 * p)))
    for p in _pick_near_centres(rng, plain, k):
        ops.append((p * p + 1, (2 * p * p, None)))
    rows = paper.progression_rows()
    for m, p, g, t, _ in rows:
        ops.append((g, (t, m)))
    # g-1 = j(g0-1) for a progression genus g0 and j prime to 6: the scan
    # meets PSL(2,p) x Z/j, whose cyclic factor needs the extension test
    for x in _near_centres(rng, math.log(5 * 275), math.log(TG_MAX_GENUS - 1), k):
        g0 = rng.choice([g for _, _, g, _, _ in rows if 5 * (g - 1) <= math.exp(x)])
        j = max(5, round(math.exp(x) / (g0 - 1)))
        j -= {0: 1, 2: 1, 3: 2, 4: 3}.get(j % 6, 0)
        ops.append((j * (g0 - 1) + 1, None))
    rng.shuffle(ops)
    return ops


class TgScan:
    """regori.search.t_of_g on one genus per operation."""

    name = "tg-scan"

    def __init__(self, seed: int):
        self.ops = tg_inputs(seed)

    def prepare(self) -> None:
        from regori import search

        self._search = search
        # Peak RSS otherwise depends on the order in which the shuffled pass
        # meets the large genera (heap fragmentation: 52 to 61 MB by seed);
        # the largest genus, run once first, grows the heap to its size.
        search.t_of_g(max(g for g, _ in self.ops))

    def call(self, op):
        return self._search.t_of_g(op[0])

    def failed(self, result) -> bool:
        return False

    def check(self, op, result) -> None:
        checks.check_t_of_g(op[0], result, op[1])


# ---- enum-sweep ----------------------------------------------------------

# Composite square counts up to 32. The pair search dominates the larger
# sizes; at 32 the isomorphism dedup takes close to half of the time.
# 30 is left out: like 28 it is pair search, and its 4.5 s would stretch
# the three passes a run needs for a tail to 50 s. 4, 6 and 9 take under
# 10 ms together; left in, they put the median at the edge between 25
# (0.1 s) and 16, 18, 21, 22 (0.16 to 0.21 s), and it jumped by 50% with
# the host's speed. Without them the median falls in the middle of that
# cluster, and the p75 tail among 26 and 27 (0.45 to 0.55 s).
ENUM_SIZES = (8, 10, 12, 14, 15, 16, 18, 20, 21, 22, 24, 25, 26, 27, 28, 32)


class EnumSweep:
    """regori.enumerator.enumerate_regular(n) with its default single worker."""

    name = "enum-sweep"

    def __init__(self, seed: int):
        ops = list(ENUM_SIZES)
        random.Random(f"enum-sweep:{seed}").shuffle(ops)
        self.ops = ops

    def prepare(self) -> None:
        from regori import enumerator, oracle, strata

        self._enumerator = enumerator

        def status_of(k, l):
            return oracle.decide(strata.uniform_stratum(k, l)).status

        self._status_of = status_of

    def call(self, n):
        return self._enumerator.enumerate_regular(n)

    def failed(self, result) -> bool:
        return False

    def check(self, n, result) -> None:
        found = [(w.origami.serialize(), w.stratum.zeros) for w in result]
        checks.check_enumeration(n, found, self._status_of)


# ---- cli-witness ---------------------------------------------------------

LARGE_TEN_POWER = 20000  # H(10^L): materializing its order-11L witness dominates
# H(g-1,g-1) and H(2k^q) strata per pass. These cheap calls (start-up,
# imports and a verdict) are a third of the mix, so the median falls among
# the small witnesses, where neighbouring commands take similar times.
CLI_FAMILY_EACH = 16
# psl-pair: the closure of SL(2,p) costs about p^3 whatever d is, so the
# primes are fixed and the seed picks d. (101, 102) is the closure cap; it
# is the largest child process of the mix and sets peak_rss_mb, and its
# breadth-first layers, so its memory, depend on d.
PSL_PRIMES = (23, 47, 71)
PSL_LARGEST = (101, 102)


def cli_inputs(seed: int) -> list:
    """The command mix. Each op: argv plus what its answer must satisfy."""
    from regori.numtheory import semidirect_exists_bruteforce

    rng = random.Random(f"cli-witness:{seed}")
    ops = []
    for m, p, g, t, l in paper.progression_rows():
        ops.append({"kind": "progression", "argv": ["stratum-exists", f"H({m}^{l})"],
                    "k": m, "l": l, "p": p, "exists": True})
    # H(g-1,g-1) exists iff g is odd: half odd genera, half even
    for parity in (1, 0) * (CLI_FAMILY_EACH // 2):
        g = 2 * rng.randrange(2, 250) + parity
        ops.append({"kind": "pair-stratum", "argv": ["stratum-exists", f"H({g - 1},{g - 1})"],
                    "k": g - 1, "l": 2, "exists": g % 2 == 1})
    for _ in range(CLI_FAMILY_EACH):
        k = rng.randrange(1, 40)
        q = rng.choice((3, 5, 7, 11, 13))
        ops.append({"kind": "twist-stratum", "argv": ["stratum-exists", f"H({2 * k}^{q})"],
                    "k": 2 * k, "l": q,
                    "exists": semidirect_exists_bruteforce(2 * k + 1, q) is not None})
    L = LARGE_TEN_POWER
    ops.append({"kind": "large-stratum", "argv": ["stratum-exists", f"H(10^{L})"],
                "k": 10, "l": L, "exists": True})
    for g, desc in sorted(paper.SMALL_GENUS_WITNESS.items()):
        t, _ = paper.SMALL_GENUS[g]
        k, l = paper.small_genus_stratum(g)
        ops.append({"kind": "regular-origami", "argv": ["regular-origami", "--group", desc],
                    "t": t, "k": k, "l": l, "g": g})
    pairs = [(p, rng.choice([d for d in range(6, p + 2) if (p - 1) % d == 0 or (p + 1) % d == 0]))
             for p in PSL_PRIMES]
    for p, d in pairs + [PSL_LARGEST]:
        ops.append({"kind": "psl-pair", "argv": ["psl-pair", str(p), str(d)], "p": p, "d": d})
    rng.shuffle(ops)
    return ops


def cli_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("REGORI_WORKERS", None)  # the enumerator keeps its single worker
    return env


class CliWitness:
    """`python -m regori.cli --output json ...`, one subprocess per operation.

    The traced run calls regori.cli.main(argv) in-process instead.
    """

    name = "cli-witness"

    def __init__(self, seed: int, src: str, in_process: bool = False):
        self.ops = cli_inputs(seed)
        self._env = cli_env(src)
        self.in_process = in_process

    def prepare(self) -> None:
        if self.in_process:
            import contextlib
            import io

            from regori import cli

            self._cli, self._io, self._ctx = cli, io, contextlib

    def call(self, op):
        argv = ["--output", "json", *op["argv"]]
        if self.in_process:
            out, err = self._io.StringIO(), self._io.StringIO()
            with self._ctx.redirect_stdout(out), self._ctx.redirect_stderr(err):
                rc = self._cli.main(argv)
            return rc, out.getvalue(), err.getvalue()
        proc = subprocess.run([sys.executable, "-m", "regori.cli", *argv], env=self._env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        return proc.returncode, proc.stdout, proc.stderr

    def failed(self, result) -> bool:
        return result[0] != 0

    def check(self, op, result) -> None:
        checks.check_cli(op, result[0], result[1])


def op_label(op) -> str:
    if isinstance(op, dict):
        return " ".join(op["argv"])
    if isinstance(op, tuple):
        return f"g={op[0]}"
    return f"n={op}"


def make(name: str, seed: int, src: str, in_process: bool = False):
    if name == "tg-scan":
        return TgScan(seed)
    if name == "enum-sweep":
        return EnumSweep(seed)
    return CliWitness(seed, src, in_process)


NAMES = ("tg-scan", "enum-sweep", "cli-witness")
