"""Steadiness check: do two sets of runs of one commit agree?

    python3 perfbench/steady.py --runs 10

Runs run.py --trace 0 once per seed on every workload of BENCHMARK.json, in
two sets: seeds 1 .. runs, then runs+1 .. 2*runs.  For every workload and
end-to-end metric it prints each set's median and spread (distance between
the first and third quartile, as a share of the median), and whether
  * every spread but that of setup_s stays within the metric's bound in
    BENCHMARK.json, and
  * the medians of the two sets differ by no more than the bound, and
  * the share of failed solves is the same in both sets.
Exit code 0 when all of that holds.  The full table goes to --out as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="two sets of runs, compared")
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--out", default=str(ROOT / ".bench_build" / "perfbench" / "steady.json"))
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    metrics = bench["end_to_end"]
    ok = True
    table = []
    for workload in (w["name"] for w in bench["workloads"]):
        sets = []
        for k in range(SETS):
            runs = []
            for seed in range(k * args.runs + 1, (k + 1) * args.runs + 1):
                t0 = time.monotonic()
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                     "--trace", "0"],
                    cwd=ROOT, capture_output=True, text=True, timeout=300,
                )
                if proc.returncode != 0:
                    print(proc.stderr, file=sys.stderr)
                    raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                result["wall_s"] = time.monotonic() - t0
                result["seed"] = seed
                runs.append(result)
                print(workload, seed, f"{result['wall_s']:.1f}s",
                      {m: round(v["value"], 4) for m, v in result["metrics"].items()},
                      "correct" if result["correct"] else "WRONG",
                      f"{result['failed']}/{result['attempted']} failed", flush=True)
            sets.append(runs)
        shares = {tuple(sorted({r["failed"] / r["attempted"] for r in runs})) for runs in sets}
        if len(shares) != 1 or len(next(iter(shares))) != 1 \
                or not all(r["correct"] for runs in sets for r in runs):
            ok = False
            print(f"{workload}: failed shares differ or an answer is wrong: {shares}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            values = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            drift = max(medians) / min(medians) - 1
            good = drift <= bound and (name == "setup_s" or max(spreads) <= bound)
            ok &= good
            table.append({"workload": workload, "metric": name, "bound": bound,
                          "medians": medians, "spreads": spreads, "drift": drift,
                          "ok": good, "values": values})
            print(f"{workload:9s} {name:12s} bound {bound:.2f}  medians "
                  + " ".join(f"{x:.4f}" for x in medians)
                  + "  spreads " + " ".join(f"{x:.3f}" for x in spreads)
                  + f"  drift {drift:.3f}  {'ok' if good else 'NOT STEADY'}", flush=True)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(table, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
