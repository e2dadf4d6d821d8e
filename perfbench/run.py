"""Benchmark for regori: t(g) scan, exhaustive enumeration and CLI witnesses.

    python3 perfbench/run.py --workload tg-scan --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; regori is imported from its ``src``
directory, never from an installed copy. With ``--trace 0`` the run
measures the end-to-end metrics; with ``--trace 1`` it reports the
per-layer metrics instead. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import paper
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

MIN_OPS = 40  # a run needs this many samples before it reports a tail
# A pass holds under a thousand distinct operations, so a p99 would rest on
# the few largest inputs the seed happens to draw; the ladder stops at p95.
TAIL_LADDER = (95.0, 90.0, 75.0)
SETUP_SAMPLES = 21
IMPORT_ALL = (
    "import importlib, sys, time\n"
    "t = time.perf_counter()\n"
    "for m in sys.argv[1:]: importlib.import_module(m)\n"
    "print(time.perf_counter() - t)\n"
)
IMPORT_SPLIT = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import numpy\n"
    "t1 = time.perf_counter()\n"
    "import regori.cli\n"
    "t2 = time.perf_counter()\n"
    "print(t2 - t0, t1 - t0)\n"
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("tg-scan", "enum-sweep", "cli-witness"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def regori_modules() -> list:
    return ["regori"] + sorted(f"regori.{p.stem}" for p in (SRC / "regori").glob("*.py")
                               if p.stem != "__init__")


def child(code: str, *args, env) -> tuple:
    """Run a Python snippet in a fresh interpreter; (wall seconds, stdout)."""
    t = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                          stdout=subprocess.PIPE, text=True)
    return time.perf_counter() - t, proc.stdout


def measure_setup(workload: str, env) -> float:
    """Median time until the program is ready to answer, over fresh processes.

    tg-scan and enum-sweep: importing every regori module (sl2, and so
    numpy, included), timed inside the process. cli-witness: the wall time
    of one CLI process that imports regori.cli and exits. A first process
    fills the bytecode cache and is not counted.
    """
    mods = regori_modules()
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        if workload == "cli-witness":
            wall, _ = child("import regori.cli", env=env)
            value = wall
        else:
            _, out = child(IMPORT_ALL, *mods, env=env)
            value = float(out)
        if i:
            samples.append(value)
    return statistics.median(samples)


def tail(samples_ns: list) -> tuple:
    """(percentile, value ns, samples beyond): the highest ladder percentile
    with at least ten samples above it, by nearest rank."""
    xs = sorted(samples_ns)
    n = len(xs)
    for q in TAIL_LADDER:
        i = math.ceil(q / 100 * n) - 1
        if n - 1 - i >= 10:
            return q, xs[i], n - 1 - i
    raise ValueError(f"{n} samples are too few for a tail")


class Tally:
    """Attempted, failed and checked operations of one run."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = self.failed = 0
        self.correct = True

    def record(self, op, result) -> bool:
        """Count one result and check it; False when the operation failed."""
        self.attempted += 1
        if self.wl.failed(result):
            self.failed += 1
            print(f"failed: {self.wl.name} {workloads.op_label(op)}: "
                  f"{str(result[2]).strip()[-200:]}", file=sys.stderr)
            return False
        try:
            self.wl.check(op, result)
        except checks.CheckFailed as exc:
            self.correct = False
            print(f"check failed: {self.wl.name}: {exc}", file=sys.stderr)
        return True


def run_pass(wl, tally, tracer=None) -> tuple:
    """One pass over the workload's operations: (wall s, ns of completed ops)."""
    results, times = [], []
    t_pass = time.perf_counter()
    for i, op in enumerate(wl.ops):
        if tracer is not None:
            tracer.op_id = f"{wl.name}:{i}"
        t0 = time.perf_counter_ns()
        r = wl.call(op)
        times.append(time.perf_counter_ns() - t0)
        results.append(r)
    wall = time.perf_counter() - t_pass
    if tracer is not None:
        tracer.op_id = None
        tracer.uninstall()  # the checks below call the library untraced
    done = [t for op, r, t in zip(wl.ops, results, times) if tally.record(op, r)]
    return wall, done


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def timed_run(args, env) -> dict:
    setup_s = measure_setup(args.workload, env)
    wl = workloads.make(args.workload, args.seed, str(SRC))
    if args.workload != "cli-witness":
        for m in regori_modules():  # lazy imports (numpy through sl2) belong to set-up
            __import__(m)
    wl.prepare()
    tally = Tally(wl)
    walls, samples = [], []
    # whole passes until the next one would end more than half a pass late
    while True:
        wall, done = run_pass(wl, tally)
        walls.append(wall)
        samples += done
        if len(samples) >= MIN_OPS and sum(walls) + statistics.mean(walls) / 2 >= args.seconds:
            break
    q, tail_ns, beyond = tail(samples)
    metrics = {
        "throughput_ops_s": (len(samples) / sum(walls), "1/s"),
        "latency_p50_ms": (statistics.median(samples) / 1e6, "ms"),
        "latency_tail_ms": (tail_ns / 1e6, "ms"),
        "peak_rss_mb": (peak_rss_mb(args.workload == "cli-witness"), "MB"),
        "setup_s": (setup_s, "s"),
    }
    print(f"{args.workload}: seed {args.seed}, {len(walls)} passes of {len(wl.ops)} operations "
          f"in {sum(walls):.2f} s, one caller, closed loop")
    for name, (value, unit) in metrics.items():
        note = f"  (p{q:g} of {len(samples)} samples, {beyond} beyond it)" if name == "latency_tail_ms" else ""
        print(f"  {name:18} {value:12.4f} {unit}{note}")
    return {"correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def micro_us(fn, pairs, reps=5) -> float:
    """Median over reps of the time per call of fn(a, b) over the pairs, in us."""
    per = []
    for _ in range(reps):
        t = time.perf_counter_ns()
        for a, b in pairs:
            fn(a, b)
        per.append((time.perf_counter_ns() - t) / len(pairs) / 1e3)
    return statistics.median(per)


def kernel_costs(seed: int) -> dict:
    """Per-product cost in the mix's largest materialized group, and per
    composition of its right-regular permutations (degree 1925)."""
    from regori import perms, witnesses

    G, x, y = witnesses.materialize(max(paper.SMALL_GENUS_WITNESS.values(),
                                        key=checks.descriptor_order))
    rng = random.Random(f"kernels:{seed}")
    pairs = [(rng.randrange(G.order), rng.randrange(G.order)) for _ in range(20000)]
    regular = [G.right_translation(rng.randrange(G.order)) for _ in range(8)]
    perm_pairs = [(rng.choice(regular), rng.choice(regular)) for _ in range(400)]
    return {"groups.mul_us": (micro_us(G.mul, pairs), "us"),
            "perms.compose_us": (micro_us(perms.compose, perm_pairs), "us")}


def import_costs(env) -> dict:
    totals, numpys = [], []
    child(IMPORT_SPLIT, env=env)  # fills the bytecode cache
    for _ in range(SETUP_SAMPLES):
        _, out = child(IMPORT_SPLIT, env=env)
        total, numpy_s = (float(v) for v in out.split())
        totals.append(total)
        numpys.append(numpy_s)
    return {"cli.import_ms": (statistics.median(totals) * 1e3, "ms"),
            "cli.import_numpy_ms": (statistics.median(numpys) * 1e3, "ms")}


PER_LAYER = {
    "search.t_of_g.self_ms": "ms", "search.candidates": "count",
    "oracle.decide.calls": "count", "oracle.decide.self_ms": "ms",
    "strata.uniform_stratum.self_ms": "ms", "strata.zeros_built": "count",
    "strata.parse_stratum.self_ms": "ms",
    "numtheory.divisors.self_ms": "ms", "numtheory.semidirect_exists.self_ms": "ms",
    "witnesses.extension_slack_ok.self_ms": "ms", "witnesses.materialize.self_ms": "ms",
    "witnesses.generator_coords.self_ms": "ms", "witnesses.elements_materialized": "count",
    "sl2.build_generating_pair.self_ms": "ms", "sl2.closure_order.self_ms": "ms",
    "sl2.psl_group.self_ms": "ms", "sl2.matrices_closed": "count",
    "constructions.self_ms": "ms",
    "groups.closure_from_generators.calls": "count",
    "groups.closure_from_generators.self_ms": "ms",
    "groups.is_isomorphic.calls": "count", "groups.is_isomorphic.self_ms": "ms",
    "groups.subgroup_generated.self_ms": "ms",
    "groups.mul_us": "us", "perms.compose_us": "us",
    "origami.translations.calls": "count", "origami.translations.self_ms": "ms",
    "origami.translation_work": "count", "origami.stratum_of.self_ms": "ms",
    "enumerator.enumerate_regular.self_ms": "ms", "enumerator.witnesses": "count",
    "cli.import_ms": "ms", "cli.import_numpy_ms": "ms", "cli.main.self_ms": "ms",
    "trace.overhead_ms": "ms",
}


def run_paired(wl, tally, tracer) -> tuple:
    """Each operation once to warm up, then untraced and traced, alternating
    which goes first so that neither is favoured: (untraced s, traced s)."""
    results, spent = [], {False: 0, True: 0}
    for i, op in enumerate(wl.ops):
        wl.call(op)
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
                tracer.op_id = f"{wl.name}:{i}"
            t0 = time.perf_counter_ns()
            r = wl.call(op)
            spent[traced] += time.perf_counter_ns() - t0
            if traced:
                tracer.uninstall()
                tracer.op_id = None
            results.append((op, r))
    for op, r in results:
        tally.record(op, r)
    return spent[False] / 1e9, spent[True] / 1e9


def traced_run(args, env) -> dict:
    """The named workload's operations each run untraced and traced; each
    other workload gets one traced pass, so that every layer is measured.

    The work is fixed, not timed, so count metrics repeat exactly for a
    seed. cli-witness runs in-process here, through regori.cli.main.
    """
    import tracing

    for m in regori_modules():
        __import__(m)
    order = [args.workload] + [n for n in workloads.NAMES if n != args.workload]
    wls = {n: workloads.make(n, args.seed, str(SRC), in_process=True) for n in order}
    tallies = {n: Tally(w) for n, w in wls.items()}
    for w in wls.values():
        w.prepare()
    tracer = tracing.Tracer()
    untraced_wall, traced_wall = run_paired(wls[args.workload], tallies[args.workload], tracer)
    walls = {args.workload: traced_wall}
    for n in order[1:]:
        tracer.install()
        walls[n], _ = run_pass(wls[n], tallies[n], tracer)
    layer = tracer.layer_metrics()
    metrics = {name: (layer[name], unit) for name, unit in PER_LAYER.items() if name in layer}
    metrics.update(kernel_costs(args.seed))
    metrics.update(import_costs(env))
    metrics["trace.overhead_ms"] = ((traced_wall - untraced_wall) * 1e3, "ms")
    missing = set(PER_LAYER) - set(metrics)
    if missing:
        raise RuntimeError(f"per-layer metrics not measured: {sorted(missing)}")
    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(trace_file)
    print(f"traced: {args.workload} untraced {untraced_wall:.2f} s, traced "
          + ", ".join(f"{n} {w:.2f} s" for n, w in walls.items())
          + f"; {len(tracer.spans)} spans in {trace_file.relative_to(ROOT)}")
    for name in PER_LAYER:
        value, unit = metrics[name]
        print(f"  {name:40} {value:14.4f} {unit}")
    return {"correct": all(t.correct for t in tallies.values()),
            "attempted": sum(t.attempted for t in tallies.values()),
            "failed": sum(t.failed for t in tallies.values()),
            "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in PER_LAYER}}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "regori" / "__init__.py").is_file():
        print(f"perfbench: no regori package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("REGORI_WORKERS", None)
    env = workloads.cli_env(str(SRC))
    import regori

    if Path(regori.__file__).resolve().parent != SRC / "regori":
        print(f"perfbench: imported regori from {regori.__file__}, not {SRC}", file=sys.stderr)
        return 2
    result = traced_run(args, env) if args.trace else timed_run(args, env)
    OUT_DIR.mkdir(exist_ok=True)
    line = json.dumps(result)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
