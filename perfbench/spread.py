"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload tg-scan --seeds 1-10 --seconds 15

For every metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the quartile distance as a
share of the median, the figure each end-to-end bound is compared with.
Runs go one after another, never in parallel. The JSON line of every run
is appended to ``.perfbench_out/spread-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float,
                    default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    args = ap.parse_args(argv)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    log = out_dir / f"spread-{args.workload}.jsonl"
    results = []
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode:
            print(f"seed {seed}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(log, "a") as fh:
            fh.write(json.dumps({"seed": seed, **res}) + "\n")
        results.append(res)
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
              flush=True)
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"{args.workload}: {len(results)} runs, all correct: "
          f"{all(r['correct'] for r in results)}, failed shares: {sorted(shares)}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / med if med else float("nan")
        print(f"  {name:40} median {med:12.4f} {unit:5}  q1 {q1:12.4f}  q3 {q3:12.4f}"
              f"  iqr/median {share:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
