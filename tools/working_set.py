"""Per-pass working set of the benchmark workloads, measured in process.

For each workload this builds the inputs once with ``benchmarks/workloads.py``
(imported, not changed) at seed 1, runs one warm-up pass, then five
untraced passes and five traced ones, and prints one line per pass:

* untraced: wall seconds, minor page faults and system seconds of the
  pass, from ``resource.getrusage`` before and after it (the system time
  comes in clock ticks, so the summary gives its mean);
* traced: the peak of the Python allocations made during the pass, from
  ``tracemalloc`` (numpy reports its array buffers to it), in KB.

The two kinds run apart because tracing allocates memory of its own.  The
last line of each workload gives the medians, and the mean system time.

Usage:  python3 tools/working_set.py
"""

from __future__ import annotations

import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PASSES = 5
SEED = 1


def _usage():
    own = resource.getrusage(resource.RUSAGE_SELF)
    return own.ru_minflt, own.ru_stime


def _untraced(workload, inputs, tally):
    faults, system = _usage()
    start = time.perf_counter()
    workload.run_pass(inputs, tally)
    wall = time.perf_counter() - start
    after_faults, after_system = _usage()
    return wall, after_faults - faults, after_system - system


def _traced(workload, inputs, tally):
    tracemalloc.start()
    try:
        workload.run_pass(inputs, tally)
        return tracemalloc.get_traced_memory()[1] / 1024.0
    finally:
        tracemalloc.stop()


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    import workloads

    for name, workload in workloads.WORKLOADS.items():
        tally = workloads.Tally()
        inputs = workload.setup(SEED)
        workload.run_pass(inputs, tally)  # warm-up: imports, caches, grid tables
        runs = [_untraced(workload, inputs, tally) for _ in range(PASSES)]
        peaks = [_traced(workload, inputs, tally) for _ in range(PASSES)]
        for i, ((wall, faults, system), peak) in enumerate(zip(runs, peaks), start=1):
            print(f"{name} pass {i}: {wall * 1e3:.2f} ms, {faults} minor faults, "
                  f"{system * 1e3:.1f} ms system, traced peak {peak:.0f} KB")
        walls, faults, systems = zip(*runs)
        print(f"{name} median: {statistics.median(walls) * 1e3:.2f} ms, "
              f"{statistics.median(faults):g} minor faults, "
              f"{statistics.mean(systems) * 1e3:.2f} ms system (mean), "
              f"traced peak {statistics.median(peaks):.0f} KB, "
              f"{tally.failed} of {tally.attempted} operations failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
