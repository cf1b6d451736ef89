"""Record the benchmark of the working tree as ``BENCH_<label>.json``.

Runs ``benchmarks/run.py`` with the protocol of the baseline entry of
``benchmarks/trajectory.json``: each workload ten times, seeds 101-110,
``--seconds 30``, untraced, one run at a time (the seeds outermost, so a
slow spell of the host touches every workload alike).  Writes
``BENCH_<label>.json`` at the repository root in the entry format of that
file: the label, the commit (``+dirty`` when ``src`` or ``benchmarks``
differ from it), the date, the machine, the protocol, and for each workload
and end-to-end metric the median, q1 and q3 of the runs (quartiles by
linear interpolation, as ``numpy.percentile``).  ``failed_runs`` counts the
runs of each workload that exited non-zero or reported ``correct: false``;
their metrics are left out of the quartiles.

Usage:  python3 tools/bench_record.py LABEL   (about 20 minutes on 2 cores)
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("heat-solve", "spectrum", "oracles")
SEEDS = range(101, 111)
SECONDS = 30


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def _run(workload: str, seed: int):
    """The JSON result of one run, or None when it failed."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return result if result and result["correct"] else None


def _quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main(argv) -> int:
    if len(argv) != 1 or not argv[0] or "/" in argv[0]:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    label = argv[0]
    samples = {name: {} for name in WORKLOADS}
    units, failed = {}, dict.fromkeys(WORKLOADS, 0)
    for seed in SEEDS:
        for name in WORKLOADS:
            result = _run(name, seed)
            if result is None:
                failed[name] += 1
                print(f"{name} seed {seed}: FAILED", flush=True)
                continue
            for key, metric in result["metrics"].items():
                samples[name].setdefault(key, []).append(metric["value"])
                units[key] = metric["unit"]
            print(f"{name} seed {seed}: pass_s {result['metrics']['pass_s']['value']:.4g}",
                  flush=True)
    dirty = _git("status", "--porcelain", "--", "src", "benchmarks")
    entry = {
        "label": label,
        "package_commit": _git("rev-parse", "--short", "HEAD") + ("+dirty" if dirty else ""),
        "date": datetime.date.today().isoformat(),
        "machine": (f"{len(os.sched_getaffinity(0))} vCPU {platform.system()}, Python "
                    f"{platform.python_version()}, numpy {version('numpy')}, "
                    f"scipy {version('scipy')}"),
        "runs": f"{len(SEEDS)} runs per workload, seeds {SEEDS[0]}-{SEEDS[-1]}, "
                f"--seconds {SECONDS}",
        "failed_runs": failed,
        "end_to_end": {
            name: {key: {**_quartiles(values), "unit": units[key]}
                   for key, values in samples[name].items() if len(values) >= 2}
            for name in WORKLOADS
        },
    }
    out = ROOT / f"BENCH_{label}.json"
    out.write_text(json.dumps(entry, indent=1) + "\n")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
