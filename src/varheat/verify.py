"""Benchmark verification suites behind the ``varheat verify`` command.

Each suite runs a published or independently computable check and reports
measured-vs-expected per assertion.  Every suite takes the ``verify.seed``;
only ``determinant`` draws random input from it:

* ``table1``      -- the first four eigenvalues at truncations N = 0, 1, 2;
* ``figure2``     -- the exact-solution benchmark: grid errors shrink as N
                     grows and the N = 2 error meets its bound;
* ``determinant`` -- the scaled-determinant identity of the interface model
                     against brute-force enumeration, random partitions;
* ``convergence`` -- the discrete model approaches the characteristic
                     function at first order in the cell width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import build_travel_time, make_conductivity
from .oracles import InterfacePartition, dn_det, dn_bruteforce, dn_switchform, uniform_partition
from .simplex import SeriesSpec
from .spectrum import find_eigenvalues
from .transform import delta_values, solve_grid

__all__ = ["CheckResult", "run_suite", "SUITES", "TABLE1_VALUES", "CHEBFUN_VALUES"]

# First four eigenvalues of (sigma^2 y')' = lambda y with the parabolic
# benchmark coefficient, as published for each truncation of the
# characteristic function.
TABLE1_VALUES = {
    0: (-1.0856, -4.3423, -9.7702, -17.3692),
    1: (-0.9917, -4.2474, -9.6749, -17.2737),
    2: (-1.0006, -4.2542, -9.6814, -17.2801),
}
# Reference values from a spectrally accurate eigensolver, same problem.
CHEBFUN_VALUES = (-1.0000, -4.2540, -9.6812, -17.2800)

TABLE1_TOL = 5e-4
FIGURE2_N2_BOUND = 5e-3
DET_TOL = 1e-10
CONV_ORDER_MIN = 0.9


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    expected: str

    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return f"[{flag}] {self.name}: measured {self.measured:.6g} ({self.expected})"


def verify_table1(seed: int) -> list:
    c = make_conductivity("parabolic24")
    tt = build_travel_time(c)
    out = []
    for N, refs in TABLE1_VALUES.items():
        pairs = find_eigenvalues(c, tt, SeriesSpec(truncation_N=N), len(refs))
        for pair, ref in zip(pairs, refs):
            err = abs(pair.lam - ref)
            out.append(CheckResult(
                name=f"table1 N={N} lambda_{pair.m}",
                passed=err <= TABLE1_TOL,
                measured=pair.lam,
                expected=f"{ref} +- {TABLE1_TOL}",
            ))
    return out


def verify_figure2(seed: int) -> list:
    c = make_conductivity("parabolic24")
    tt = build_travel_time(c)
    spec = SeriesSpec(truncation_N=2)
    xs = np.linspace(0.0, 1.0, 21)
    ts = [0.25, 1.0, 4.0]
    res = solve_grid(c, tt, lambda v: v * (1.0 - v), xs, ts, spec, all_orders=True)
    max_err = {n: 0.0 for n in range(3)}
    for t, per_order in res.items():
        for n, samples in per_order.items():
            for s in samples:
                exact = s.x * (1.0 - s.x) * math.exp(-t)
                max_err[n] = max(max_err[n], abs(s.value - exact))
    out = [
        CheckResult("figure2 error(N=0) > error(N=1)",
                    max_err[0] > max_err[1], max_err[0] - max_err[1], "> 0"),
        CheckResult("figure2 error(N=1) > error(N=2)",
                    max_err[1] > max_err[2], max_err[1] - max_err[2], "> 0"),
        CheckResult("figure2 error(N=2) bound",
                    max_err[2] <= FIGURE2_N2_BOUND, max_err[2],
                    f"<= {FIGURE2_N2_BOUND}"),
    ]
    return out


def verify_determinant(seed: int, cases: int = 200) -> list:
    rng = np.random.default_rng(seed)
    worst = 0.0
    tested = 0
    while tested < cases:
        n_cells = int(rng.integers(1, 11))
        cuts = np.sort(rng.uniform(0.02, 0.98, n_cells - 1))
        nodes = np.concatenate([[0.0], cuts, [1.0]])
        if np.any(np.diff(nodes) < 1e-3):
            continue
        sigmas = rng.uniform(0.25, 2.5, n_cells)
        part = InterfacePartition(nodes=nodes, sigmas=sigmas, sigma0=float(sigmas[0]))
        k = complex(rng.uniform(-6.0, 6.0), rng.uniform(-2.0, 2.0))
        if abs(k) < 0.05:
            continue
        lhs = dn_det(part, k)
        rhs = dn_bruteforce(part, k)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
        tested += 1
    return [CheckResult(f"determinant identity ({cases} random cases, N<=10)",
                        worst <= DET_TOL, worst, f"<= {DET_TOL}")]


def verify_convergence(seed: int) -> list:
    c = make_conductivity("parabolic24")
    tt = build_travel_time(c)
    spec = SeriesSpec(truncation_N=3)
    sizes = [250, 500, 1000, 2000]
    parts = {n: uniform_partition(c, n) for n in sizes}
    out = []
    for k in (0.5, 1.0, 2.0):
        ref = float(delta_values(c, tt, np.array([k]), spec)[0])
        errs = [abs(dn_switchform(parts[n], k, 3) - ref) for n in sizes]
        orders = [math.log(errs[i] / errs[i + 1]) / math.log(sizes[i + 1] / sizes[i])
                  for i in range(len(sizes) - 1)]
        order = min(orders)
        out.append(CheckResult(
            name=f"convergence order at k={k}",
            passed=order >= CONV_ORDER_MIN,
            measured=order,
            expected=f">= {CONV_ORDER_MIN}",
        ))
    return out


SUITES = {
    "table1": verify_table1,
    "figure2": verify_figure2,
    "determinant": verify_determinant,
    "convergence": verify_convergence,
}


def run_suite(name: str, seed: int = 1234) -> list:
    if name == "all":
        return [result for suite in SUITES.values() for result in suite(seed)]
    return SUITES[name](seed)
