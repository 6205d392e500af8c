"""One workload process: set up, then solve whole rounds of the workload.

Started by run.py as a fresh Python process.  Set-up runs from the moment
run.py spawned this process until the workload is ready to solve: the
interpreter start, the package import and writing the input files.  With
--setup-only the process stops there.  Otherwise it calls the CLI entry
point `subsetfvs.cli.main(["solve", ...])` once per instance, in sequence,
and repeats whole rounds while another round still fits in --seconds.
Before every call and after the last, it asks the probe process
(calibrate.py) how fast the machine runs the interpreter just then.  With
--trace 1 untraced and traced rounds alternate, so one run yields both the
tracing overhead and the per-layer spans.  Results go to the --out file as
JSON; spans go to the --spans file.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


class Probe:
    """The machine-speed probe (calibrate.py) in a process of its own."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "calibrate.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)

    def sample(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--dir", required=True, help="directory for the input files")
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    from subsetfvs import cli
    from instances import make_cases

    cases = make_cases(args.workload, args.seed)
    work = Path(args.dir)
    work.mkdir(parents=True, exist_ok=True)
    calls = []
    for i, case in enumerate(cases):
        gpath, lpath, jpath = (str(work / f"{i}.{ext}") for ext in ("gr", "layout", "json"))
        with open(gpath, "w") as fh:
            fh.write(case.graph_text())
        with open(lpath, "w") as fh:
            fh.write(case.layout_text())
        calls.append((case.argv(gpath, lpath, jpath), jpath))
    setup_s = time.monotonic() - args.spawned
    if args.setup_only:
        Path(args.out).write_text(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
    kinds = (False, True) if tracer else (False,)
    rounds = []
    calibration = []
    all_spans = []
    probe = Probe()
    try:
        started = time.perf_counter()
        while True:
            for traced in kinds:
                times, rcs, reports = [], [], []
                if traced:
                    tracer.spans = []
                    tracer.install()
                try:
                    for argv, jpath in calls:
                        if os.path.exists(jpath):
                            os.remove(jpath)
                        calibration.append(probe.sample())
                        t0 = time.perf_counter()
                        try:
                            if traced:
                                rc = tracer.span("cli.main", cli.main, argv)
                            else:
                                rc = cli.main(argv)
                        except Exception as exc:  # a traceback is a failed solve
                            rc = f"{type(exc).__name__}: {exc}"
                        times.append(time.perf_counter() - t0)
                        report = None
                        if rc == 0:
                            with open(jpath) as fh:
                                report = json.load(fh)
                            report.pop("elapsed_ms", None)
                        rcs.append(rc)
                        reports.append(report)
                finally:
                    if traced:
                        tracer.uninstall()
                entry = {"traced": traced, "times": times, "rcs": rcs, "reports": reports}
                if traced:
                    entry["layers"] = layer_metrics(tracer.spans)
                    all_spans.append(tracer.spans)
                rounds.append(entry)
            elapsed = time.perf_counter() - started
            if elapsed + elapsed / (len(rounds) // len(kinds)) > args.seconds:
                break
        calibration.append(probe.sample())  # the sample after the last call
    finally:
        probe.close()

    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(args.out).write_text(json.dumps(
        {"setup_s": setup_s, "rounds": rounds, "calibration_s": calibration,
         "peak_rss_mb": peak_kib / 1024.0}
    ))
    if args.spans and all_spans:
        Path(args.spans).write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "count"], "rounds": all_spans}
        ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
