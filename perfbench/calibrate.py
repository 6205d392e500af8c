"""Machine-speed probe, run in a process of its own.

worker.py starts this script once the workload is set up, and writes one
line to its standard input before every solve and one after the last.  For
each line the probe times `calibrate()` and answers with the seconds it
took.  It imports nothing from the package and shares no interpreter with
it, so whatever the package leaves running or changes in the worker (a
thread holding the GIL, collector or switch-interval settings) cannot slow
the probe down: that cost stays in the solve times, where it belongs.
"""

import gc
import sys
import time


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop of integer, bit and dict
    work.  Collection is off while it runs."""
    gc.disable()
    t0 = time.perf_counter()
    counts, acc, mask = {}, 0, 0
    for i in range(30000):
        k = (i * 2654435761) & 1023
        mask ^= 1 << (k & 127)
        acc += (mask & -mask).bit_length()
        counts[k] = counts.get(k, 0) + 1
    elapsed = time.perf_counter() - t0
    gc.enable()
    return elapsed


def main() -> int:
    for _ in sys.stdin:
        sys.stdout.write(f"{calibrate()!r}\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
