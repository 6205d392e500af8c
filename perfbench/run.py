"""Solver benchmark: end-to-end `sfvs solve` time per workload.

    python3 perfbench/run.py --workload interval --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the package is taken from `src/` next
to this directory, byte-compiled there, and run in fresh single-threaded
worker processes (see worker.py).  One measuring process solves whole
rounds of the workload's instances for --seconds; several more processes
only set up, so set-up time is a median.  Every answer is then checked
against an optimum computed apart from the package (reference.py).

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics`.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 they are the per-layer ones from a traced
run, plus the tracing overhead.  Spans are written under
`.bench_build/perfbench/`.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from instances import WORKLOADS, make_cases  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402

SETUP_ONLY_PROCESSES = 8  # plus the measuring process: nine set-up samples
SETUP_TIMEOUT_S = 30.0
# The measuring worker stops starting rounds at --seconds, but the round it
# is in still finishes; one round takes under 10 s at the usual speed.  The
# whole run has to end within 180 s, and the references take up to 10 s.
ROUND_MARGIN_S = 50.0
MAX_SECONDS = 100.0
# calibrate.calibrate() on the reference machine (2-core x86-64 VM, CPython
# 3.11) at its usual speed; times are reported as if it ran at that speed.
CAL_REF_S = 0.015
WORKER_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def spawn_worker(args, work: Path, out: Path, extra, timeout: float) -> dict:
    env = dict(os.environ, **WORKER_ENV)
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--dir", str(work / "inputs"),
           "--out", str(out), *extra]
    with open(work / "worker.err", "ab") as err:
        # The spawn time is taken last so set-up starts with the process.
        proc = subprocess.Popen(cmd + ["--spawned", repr(time.monotonic())],
                                stdout=subprocess.DEVNULL, stderr=err, env=env)
        try:
            rc = proc.wait(timeout=max(1.0, timeout))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError("worker ran out of time")
    if rc != 0:
        raise RuntimeError(f"worker exited with {rc}: "
                           + (work / "worker.err").read_text()[-2000:])
    return json.loads(out.read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description="sfvs solve benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 < args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be in (0, {MAX_SECONDS:g}]")

    src = ROOT / "src" / "subsetfvs"
    if not (src / "cli.py").is_file():
        print(f"error: no package source at {src}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(str(src), quiet=1):
        print("error: the package does not byte-compile", file=sys.stderr)
        return 2

    base = ROOT / ".bench_build" / "perfbench"
    work = base / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        # Set-up samples before and after the measuring process, so that
        # they span the run rather than one stretch of machine speed.
        setups = []
        for i in range(SETUP_ONLY_PROCESSES // 2):
            res = spawn_worker(args, work, work / f"setup{i}.json", ["--setup-only"],
                               SETUP_TIMEOUT_S)
            setups.append(res["setup_s"])
        spans_path = base / f"spans-{args.workload}-s{args.seed}.json"
        res = spawn_worker(args, work, work / "result.json",
                           ["--spans", str(spans_path)], args.seconds + ROUND_MARGIN_S)
        setups.append(res["setup_s"])
        for i in range(SETUP_ONLY_PROCESSES // 2, SETUP_ONLY_PROCESSES):
            extra = spawn_worker(args, work, work / f"setup{i}.json", ["--setup-only"],
                                 SETUP_TIMEOUT_S)
            setups.append(extra["setup_s"])
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    from reference import check_report, reference_optimum

    cases = make_cases(args.workload, args.seed)
    refs = [reference_optimum(c) for c in cases]
    attempted = failed = wrong = 0
    messages = set()
    verdicts = {}
    for rnd in res["rounds"]:
        for case, ref, rc, report in zip(cases, refs, rnd["rcs"], rnd["reports"]):
            attempted += 1
            if rc != 0:
                failed += 1
                messages.add(f"{case.name}: exit {rc}")
                continue
            key = (case.name, json.dumps(report, sort_keys=True))
            if key not in verdicts:
                verdicts[key] = check_report(case, report, ref)
            if verdicts[key]:
                failed += 1
                wrong += 1
                messages.add(f"{case.name}: {'; '.join(verdicts[key])}")
    for line in sorted(messages):
        print(f"FAILED {line}", file=sys.stderr)

    # The machine is shared, and other tenants slow it down by up to half for
    # stretches of seconds to minutes.  Each call's time is therefore scaled
    # by CAL_REF_S over the mean of the probe's samples taken just before and
    # just after it.  That reports it at one fixed machine speed.  The probe
    # runs in a process of its own, so the package cannot slow it down.
    cal = res["calibration_s"]
    k = len(cases)
    for i, rnd in enumerate(res["rounds"]):
        factors = [2 * CAL_REF_S / (cal[i * k + j] + cal[i * k + j + 1]) for j in range(k)]
        rnd["scaled"] = [t * f for t, f in zip(rnd["times"], factors)]
        rnd["factor"] = statistics.median(factors)

    def per_call(rounds):
        return [statistics.median(col) for col in zip(*(r["scaled"] for r in rounds))]

    plain = [r for r in res["rounds"] if not r["traced"]]
    if args.trace:
        traced = [r for r in res["rounds"] if r["traced"]]
        metrics = {}
        for name, unit in LAYER_METRICS:
            if unit == "s":
                value = statistics.median(r["layers"][name] * r["factor"] for r in traced)
            else:  # counts repeat exactly from round to round
                value = traced[0]["layers"][name]
            metrics[name] = {"value": value, "unit": unit}
        overhead = sum(per_call(traced)) - sum(per_call(plain))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        calls = per_call(plain)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "solve_s": {"value": sum(calls), "unit": "s"},
            "largest_s": {"value": calls[-1], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MiB"},
        }
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "rounds": len(res["rounds"]),
        "instances": [c.name for c in cases], "references": refs,
        "wall_s": [statistics.median(col) for col in zip(*(r["times"] for r in plain))],
        "calibration_median_s": statistics.median(cal),
    }))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
