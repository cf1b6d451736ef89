"""The benchmark workloads (benchmarks/workloads.py) must keep passing their checks.

A benchmark pass counts every output that fails its check as a failed
operation, and the benchmark then reports its result as incorrect.  One
pass of each workload at seed 1 runs here, so a change that breaks a
workload's output fails tier-1, not only the benchmark.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("varheat_benchmark_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["spectrum", "heat-solve", "oracles"])
def test_workload_pass_has_no_failed_operation(name):
    workloads = _load_workloads()
    workload = workloads.WORKLOADS[name]
    tally = workloads.Tally()
    times, accuracy = workload.run_pass(workload.setup(1), tally)
    assert tally.attempted > 0 and tally.failed == 0, tally.reasons
    assert workload.err_key in accuracy
