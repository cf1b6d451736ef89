"""varheat benchmark: one workload, one process, one JSON result line.

    python3 benchmarks/run.py --workload {heat-solve,spectrum,oracles}
                              --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``src/``.  The
workload's set-up (import, profiles, travel times, references) is timed in
this process and in four fresh interpreters run one after another, and
``setup_s`` is the median of the five.  Passes then repeat while the next
one is expected to end within ``--seconds`` (always at least one).  Every
output is checked; a check that fails or a ``VarheatError`` counts as a
failed operation and makes ``correct`` false.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, reports the per-layer metrics of ``tracer.py``
and writes the spans to ``.bench_out/``.  Human-readable lines come first;
the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("heat-solve", "spectrum", "oracles")
SETUP_CHILDREN = 4

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "pass_s": "s", "err_max": "1"}


def cap_threads():
    """Cap BLAS/OpenMP pools at the cores this process may use."""
    cores = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or int(current) > cores:
            os.environ[var] = str(cores)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time the set-up alone and print the seconds")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def load_workloads():
    """Import the workload module (and with it numpy, scipy and varheat)."""
    if not (SRC / "varheat" / "__init__.py").is_file():
        raise SystemExit(f"varheat sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import varheat
    import workloads

    if Path(varheat.__file__).resolve().parent != SRC / "varheat":
        raise SystemExit(f"imported varheat from {varheat.__file__}, not from {SRC}")
    return workloads


def child_setup_seconds(args):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def peak_rss_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def summary(samples):
    """Median, and the highest sample with at least ten samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    text = f"median {statistics.median(ordered):.6g} s, n={n}"
    if n > 10:
        text += f", p{100.0 * (n - 10) / n:.1f} {ordered[n - 11]:.6g} s"
    else:
        text += ", no percentile with >= 10 samples above"
    return text


def finite_or_none(value):
    return value if isinstance(value, (int, float)) and math.isfinite(value) else None


def run(args):
    cap_threads()
    t0 = time.perf_counter()
    workloads = load_workloads()
    workload = workloads.WORKLOADS[args.workload]
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        with tracer.installed():
            inputs = workload.setup(args.seed)
        setup_span_count = len(tracer.spans)
    else:
        inputs = workload.setup(args.seed)
    setup_samples = [time.perf_counter() - t0]
    if args.setup_only:
        print(repr(setup_samples[0]))
        return 0
    if not args.trace:
        setup_samples += [child_setup_seconds(args) for _ in range(SETUP_CHILDREN)]

    tally = workloads.Tally()
    timings = {}   # timing name -> per-pass samples
    accuracy = {}  # accuracy name -> worst value over passes
    plain_s, traced_s = [], []

    def one_pass(traced):
        start = time.perf_counter()
        if traced:
            with tracer.installed():
                times, acc = workload.run_pass(inputs, tally)
        else:
            times, acc = workload.run_pass(inputs, tally)
        (traced_s if traced else plain_s).append(time.perf_counter() - start)
        if not traced:
            for key, value in times.items():
                timings.setdefault(key, []).append(value)
        for key, value in acc.items():
            worse = min if key == "conv_order_min" else max
            accuracy[key] = worse(accuracy.get(key, value), value)

    deadline = time.perf_counter() + args.seconds
    while True:
        one_pass(traced=False)
        if args.trace:
            one_pass(traced=True)
        expected = statistics.median(plain_s) + (statistics.median(traced_s) if traced_s else 0.0)
        if time.perf_counter() + expected > deadline:
            break

    print(f"workload {args.workload} seed {args.seed}: {len(plain_s)} passes, "
          f"{tally.attempted} operations, {tally.failed} failed")
    for reason in tally.reasons[:20]:
        print(f"  FAILED {reason}")
    print(f"failed_ratio {tally.failed / tally.attempted:.6g} (base: {tally.attempted} operations)")
    for key, samples in timings.items():
        print(f"{key} {summary(samples)}")
    for key, value in accuracy.items():
        print(f"{key} {value:.6g} (dimensionless)")

    if args.trace:
        median_traced = statistics.median(traced_s)
        metrics = tracing.layer_metrics(
            tracer.spans, setup_span_count, len(traced_s),
            median_traced, median_traced - statistics.median(plain_s))
        units = tracing.LAYER_METRICS
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed,
                      "setup_spans": setup_span_count, "traced_passes": len(traced_s)})
    else:
        pass_totals = [sum(parts) for parts in zip(*timings.values())]
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": peak_rss_mb(),
            "pass_s": statistics.median(pass_totals),
            "err_max": accuracy.get(workload.err_key, math.nan),
        }
        units = END_TO_END
        print(f"setup_s median {metrics['setup_s']:.6g} s of {len(setup_samples)} set-ups")
    for key, value in metrics.items():
        print(f"{key} = {value:.6g} {units[key]}")

    values = {key: finite_or_none(value) for key, value in metrics.items()}
    correct = tally.failed == 0 and all(v is not None for v in values.values())
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": values[key], "unit": units[key]} for key in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(run(parse_args(sys.argv[1:])))
