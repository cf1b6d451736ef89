"""Tests of the benchmark's own parts: references, seeded inputs, tracer.

Run from the repository root:  python3 -m pytest -q benchmarks
"""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from varheat import coefficients, oracles, spectrum, transform  # noqa: E402

COUNT_UNITS = ("count", "B")


@pytest.mark.parametrize("name", workloads.PROFILES)
def test_reference_matches_fd_oracle(name):
    c = workloads.make_profiles(seed=0)[name]
    ref = workloads.reference_eigenvalues(c, workloads.EIG_COUNT)
    fd = np.asarray(oracles.fd_eigenvalues(c, workloads.EIG_COUNT, workloads.FD_NX))
    assert np.all(np.diff(ref) < 0.0)
    assert np.max(np.abs(fd - ref) / np.abs(ref)) <= workloads.FD_REF_TOL


def test_seeded_inputs_repeat():
    xs = np.linspace(0.0, 1.0, 57)
    a, b = (workloads.tabulated_profile(7).sigma(xs) for _ in range(2))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, workloads.tabulated_profile(8).sigma(xs))
    first, second = workloads.random_partitions(7, 20), workloads.random_partitions(7, 20)
    for (p, k), (q, m) in zip(first, second):
        assert k == m and np.array_equal(p.nodes, q.nodes) and np.array_equal(p.sigmas, q.sigmas)


def test_tracer_rebinds_imported_names_and_restores_them():
    plain_delta = transform.delta_values
    plain_tables = transform.build_term_tables
    plain_nodes = transform.Contour.__dict__["nodes"]
    with tracing.Tracer().installed():
        assert spectrum.delta_values is transform.delta_values is not plain_delta
        assert spectrum.build_term_tables is transform.build_term_tables is not plain_tables
        assert transform.Contour.__dict__["nodes"] is not plain_nodes
    assert spectrum.delta_values is transform.delta_values is plain_delta
    assert spectrum.build_term_tables is transform.build_term_tables is plain_tables
    assert transform.Contour.__dict__["nodes"] is plain_nodes


def _traced_counts(call):
    tracer = tracing.Tracer()
    with tracer.installed():
        call()
    metrics = tracing.layer_metrics(tracer.spans, 0, 1, 1.0, 0.0)
    return {k: v for k, v in metrics.items() if tracing.LAYER_METRICS[k] in COUNT_UNITS}


def test_traced_counts_repeat_exactly():
    inputs = workloads.setup_spectrum(seed=3)
    first = _traced_counts(lambda: workloads.pass_spectrum(inputs, workloads.Tally()))
    assert first == _traced_counts(lambda: workloads.pass_spectrum(inputs, workloads.Tally()))
    assert first["simplex.build_term_tables.calls"] > 0
    assert first["simplex.eval_plain.calls"] == 0

    c = coefficients.make_conductivity("parabolic24")
    tt = coefficients.build_travel_time(c)

    def small_solve():
        transform.solve_grid(c, tt, workloads.q0_quadratic, [0.25, 0.5], [1.0],
                             workloads.SPEC)

    first = _traced_counts(small_solve)
    assert first == _traced_counts(small_solve)
    assert first["transform.contour.builds_per_solve"] == 1.0
    assert first["simplex.eval_plain.sin_evals"] > 0


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "spectrum",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
