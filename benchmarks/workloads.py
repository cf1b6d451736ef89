"""Inputs, timed passes and output checks of the three benchmark workloads.

Each workload has a ``setup(seed)`` that builds every input (profiles,
travel times, references) and a ``run_pass(inputs, tally)`` that makes the
timed calls into varheat once, checks every output and returns the pass's
timings and accuracy figures.  The package is always called through its
module attributes (``transform.solve_grid``, not a name bound here), so the
tracer in ``tracer.py`` sees every call.

* ``heat-solve`` -- the figure-2 solve.  Loads the complex-k sweeps of
  ``simplex`` and the contour of ``transform``; bypasses ``spectrum`` and
  ``oracles``.  The seed is unused: the input is fixed.
* ``spectrum``   -- 30 eigenvalues and 8 eigenfunctions on three profiles.
  Loads ``build_term_tables`` and the real-k sweeps; bypasses the complex
  sweeps, the contour and ``oracles``.  The seed draws the tabulated profile.
* ``oracles``    -- the reference models at the sizes the tests use.  Loads
  ``oracles`` and the contour (through ``interface_solution``); bypasses
  ``simplex`` and ``spectrum`` inside the timed pass.  The seed draws the
  tabulated profile and the random partitions.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import simpson
from scipy.linalg import eigh_tridiagonal

from varheat import coefficients, oracles, spectrum, transform
from varheat.errors import VarheatError
from varheat.simplex import SeriesSpec

SPEC = SeriesSpec(truncation_N=2)
FIGURE2_TIMES = (0.25, 1.0, 4.0)
PROFILES = ("parabolic24", "rational9000", "tabulated")
EIG_COUNT = 30
EIGFUN_MODES = 8
FD_NX = 1024

# Pass/fail tolerances, the same ones the repository's tests and `verify` use.
FIGURE2_N2_BOUND = 5e-3
DET_TOL = 1e-10
CONV_ORDER_MIN = 0.9
CN_TOL = 1e-5
INTERFACE_TOL = 1e-4
# fd_eigenvalues and the reference solve the same matrix by two methods.
FD_REF_TOL = 1e-8
# Simpson on 101 samples resolves the L^2 norm of modes 1-8 to ~2e-5.
NORM_TOL = 1e-3
ZERO_TOL = 1e-12


def q0_quadratic(x):
    return x * (1.0 - x)


def exact_quadratic(x, t):
    """Exact solution for parabolic24 with q0 = x(1 - x)."""
    return x * (1.0 - x) * math.exp(-t)


class Tally:
    """Operations attempted and failed; a failure keeps a one-line reason."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(what)

    def error(self, what, exc, count=1):
        """``count`` operations lost to one typed error."""
        self.attempted += count
        self.failed += count
        self.reasons.append(f"{what}: {type(exc).__name__}: {exc}")


def tabulated_profile(seed):
    """Seeded smooth positive sigma^2 on 33 nodes.

    sigma^2 = 0.1 exp(sum_j a_j sin(j pi x + phi_j)), j = 1..3, with
    |a_j| <= 0.25/j: positive for every seed and close in scale to the two
    closed-form profiles, so 30 roots sit at comparable k.
    """
    rng = np.random.default_rng((seed, 0))
    x = np.linspace(0.0, 1.0, 33)
    j = np.arange(1, 4)
    amp = rng.uniform(-0.25, 0.25, j.size) / j
    phase = rng.uniform(0.0, 2.0 * math.pi, j.size)
    log_s2 = (amp[:, None] * np.sin(j[:, None] * math.pi * x + phase[:, None])).sum(axis=0)
    return coefficients.make_conductivity("tabulated", x=x, sigma_sq=0.1 * np.exp(log_s2))


def make_profiles(seed):
    profiles = {}
    for name in PROFILES:
        if name == "tabulated":
            profiles[name] = tabulated_profile(seed)
        else:
            profiles[name] = coefficients.make_conductivity(name)
    return profiles


def _fd_top(c, count, nx):
    h = 1.0 / nx
    faces = c.sigma_sq(np.linspace(0.5 * h, 1.0 - 0.5 * h, nx))
    diag = -(faces[1:] + faces[:-1]) / h**2
    off = faces[1:-1] / h**2
    m = diag.size
    vals = eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                            select_range=(m - count, m - 1))
    return vals[::-1]


def reference_eigenvalues(c, count, nx=FD_NX):
    """Largest ``count`` eigenvalues of the conservative FD operator.

    The operator of ``oracles.fd_eigenvalues`` (sigma^2 at cell faces),
    solved by LAPACK on grids nx and 2 nx and Richardson-extrapolated, so
    the reference does not depend on the oracle's speed or code.
    """
    return (4.0 * _fd_top(c, count, 2 * nx) - _fd_top(c, count, nx)) / 3.0


def random_partitions(seed, cases=200):
    """Seeded (partition, k) pairs, drawn as `varheat verify determinant` does."""
    rng = np.random.default_rng((seed, 1))
    out = []
    while len(out) < cases:
        n_cells = int(rng.integers(1, 11))
        cuts = np.sort(rng.uniform(0.02, 0.98, n_cells - 1))
        nodes = np.concatenate([[0.0], cuts, [1.0]])
        if np.any(np.diff(nodes) < 1e-3):
            continue
        sigmas = rng.uniform(0.25, 2.5, n_cells)
        k = complex(rng.uniform(-6.0, 6.0), rng.uniform(-2.0, 2.0))
        if abs(k) < 0.05:
            continue
        part = oracles.InterfacePartition(nodes=nodes, sigmas=sigmas, sigma0=float(sigmas[0]))
        out.append((part, k))
    return out


# ---------------------------------------------------------------------------
# heat-solve
# ---------------------------------------------------------------------------


@dataclass
class HeatInputs:
    c: object
    tt: object
    xs: np.ndarray
    exact: dict


def setup_heat(seed):
    c = coefficients.make_conductivity("parabolic24")
    tt = coefficients.build_travel_time(c)
    xs = np.linspace(0.0, 1.0, 21)
    exact = {t: exact_quadratic(xs, t) for t in FIGURE2_TIMES}
    return HeatInputs(c, tt, xs, exact)


def pass_heat(inp, tally):
    start = time.perf_counter()
    try:
        res = transform.solve_grid(inp.c, inp.tt, q0_quadratic, inp.xs, FIGURE2_TIMES,
                                   SPEC, all_orders=True)
    except VarheatError as exc:
        tally.error("solve_grid", exc)
        return {"solve_pass_s": time.perf_counter() - start}, {}
    elapsed = time.perf_counter() - start
    err = [0.0] * (SPEC.truncation_N + 1)
    for t, per_order in res.items():
        for n, samples in per_order.items():
            values = np.array([s.value for s in samples])
            err[n] = max(err[n], float(np.max(np.abs(values - inp.exact[t]))))
    ok = err[0] > err[1] > err[2] and err[2] <= FIGURE2_N2_BOUND
    tally.record(ok, f"solve_grid errors by order {err}")
    return {"solve_pass_s": elapsed}, {"solve_err_max": err[2]}


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


@dataclass
class SpectrumInputs:
    profiles: dict
    travel: dict
    refs: dict
    xs: np.ndarray


def setup_spectrum(seed):
    profiles = make_profiles(seed)
    travel = {name: coefficients.build_travel_time(c) for name, c in profiles.items()}
    refs = {name: reference_eigenvalues(c, EIG_COUNT) for name, c in profiles.items()}
    return SpectrumInputs(profiles, travel, refs, np.linspace(0.0, 1.0, 101))


def _eigenfunction_ok(values, xs, m):
    """X(0) = 0, unit L^2 norm (Simpson on the 101 samples), m - 1 interior zeros."""
    norm = simpson(values**2, x=xs)
    interior = np.sign(values[1:-1])
    interior = interior[interior != 0.0]
    flips = int(np.count_nonzero(interior[:-1] * interior[1:] < 0))
    return abs(values[0]) <= ZERO_TOL and abs(norm - 1.0) <= NORM_TOL and flips == m - 1


def pass_spectrum(inp, tally):
    eigs_s = eigfun_s = 0.0
    gap = 0.0
    for name, c in inp.profiles.items():
        tt = inp.travel[name]
        start = time.perf_counter()
        try:
            pairs = spectrum.find_eigenvalues(c, tt, SPEC, EIG_COUNT)
        except VarheatError as exc:
            eigs_s += time.perf_counter() - start
            tally.error(f"{name} find_eigenvalues", exc, count=1 + EIGFUN_MODES)
            continue
        eigs_s += time.perf_counter() - start
        kappas = np.array([p.kappa for p in pairs])
        ok = kappas.size == EIG_COUNT and bool(np.all(kappas > 0.0) and np.all(np.diff(kappas) > 0.0))
        tally.record(ok, f"{name}: roots not {EIG_COUNT} positive and strictly increasing")
        if kappas.size:
            lams = np.array([p.lam for p in pairs])
            ref = inp.refs[name][: lams.size]
            gap = max(gap, float(np.max(np.abs(lams - ref) / np.abs(ref))))
        for pair in pairs[:EIGFUN_MODES]:
            start = time.perf_counter()
            try:
                values = spectrum.eigenfunction(c, tt, pair, SPEC)(inp.xs)
            except VarheatError as exc:
                eigfun_s += time.perf_counter() - start
                tally.error(f"{name} eigenfunction m={pair.m}", exc)
                continue
            eigfun_s += time.perf_counter() - start
            tally.record(_eigenfunction_ok(values, inp.xs, pair.m),
                         f"{name}: eigenfunction m={pair.m} fails X(0)/norm/zeros")
    return {"eigs_pass_s": eigs_s, "eigfun_pass_s": eigfun_s}, {"eig_gap_max": gap}


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

CONV_SIZES = (250, 500, 1000, 2000)
CONV_KS = (0.5, 1.0, 2.0)


@dataclass
class OracleInputs:
    profiles: dict
    refs: dict
    parabolic: object
    interface_part: object
    partitions: list
    conv_parts: dict
    conv_refs: np.ndarray


def setup_oracles(seed):
    profiles = make_profiles(seed)
    refs = {name: reference_eigenvalues(c, EIG_COUNT) for name, c in profiles.items()}
    parabolic = profiles["parabolic24"]
    tt = coefficients.build_travel_time(parabolic)
    conv_refs = transform.delta_values(parabolic, tt, np.array(CONV_KS),
                                       SeriesSpec(truncation_N=3))
    return OracleInputs(
        profiles=profiles,
        refs=refs,
        parabolic=parabolic,
        interface_part=oracles.uniform_partition(parabolic, 64),
        partitions=random_partitions(seed),
        conv_parts={n: oracles.uniform_partition(parabolic, n) for n in CONV_SIZES},
        conv_refs=conv_refs,
    )


def _guarded(tally, what, fn, count=1):
    try:
        return fn()
    except VarheatError as exc:
        tally.error(what, exc, count)
        return None


def pass_oracles(inp, tally):
    acc = {"fd_ref_gap_max": 0.0, "cn_err_max": 0.0, "interface_err": 0.0,
           "det_identity_max": 0.0, "conv_order_min": math.inf}
    start = time.perf_counter()

    for name, c in inp.profiles.items():
        vals = _guarded(tally, f"{name} fd_eigenvalues",
                        lambda: oracles.fd_eigenvalues(c, EIG_COUNT, FD_NX))
        if vals is not None:
            ref = inp.refs[name]
            gap = float(np.max(np.abs(np.asarray(vals) - ref) / np.abs(ref)))
            acc["fd_ref_gap_max"] = max(acc["fd_ref_gap_max"], gap)
            tally.record(len(vals) == EIG_COUNT and gap <= FD_REF_TOL,
                         f"{name}: fd_eigenvalues gap {gap:.3e}")

    for t in FIGURE2_TIMES:
        out = _guarded(tally, f"crank_nicolson t={t}",
                       lambda: oracles.crank_nicolson(inp.parabolic, q0_quadratic, t, 400, 400))
        if out is not None:
            x, q = out
            err = float(np.max(np.abs(q - exact_quadratic(x, t))))
            acc["cn_err_max"] = max(acc["cn_err_max"], err)
            tally.record(err <= CN_TOL, f"crank_nicolson t={t} error {err:.3e}")

    part = inp.interface_part
    val = _guarded(tally, "interface_solution",
                   lambda: oracles.interface_solution(part, q0_quadratic, 32, 1.0))
    if val is not None:
        err = abs(val - exact_quadratic(float(part.nodes[32]), 1.0))
        acc["interface_err"] = err
        tally.record(err <= INTERFACE_TOL, f"interface_solution error {err:.3e}")

    for i, (p, k) in enumerate(inp.partitions):
        pair = _guarded(tally, f"partition {i}",
                        lambda: (oracles.dn_det(p, k), oracles.dn_bruteforce(p, k)))
        if pair is not None:
            lhs, rhs = pair
            res = abs(lhs - rhs) / max(1.0, abs(rhs))
            acc["det_identity_max"] = max(acc["det_identity_max"], res)
            tally.record(res <= DET_TOL, f"partition {i}: identity residual {res:.3e}")

    for k, ref in zip(CONV_KS, inp.conv_refs):
        errs = _guarded(tally, f"dn_switchform k={k}",
                        lambda: [abs(oracles.dn_switchform(inp.conv_parts[n], k, 3) - ref)
                                 for n in CONV_SIZES])
        if errs is not None:
            order = min(math.log(e0 / e1) / math.log(n1 / n0)
                        for e0, e1, n0, n1 in zip(errs, errs[1:], CONV_SIZES, CONV_SIZES[1:]))
            acc["conv_order_min"] = min(acc["conv_order_min"], order)
            tally.record(order >= CONV_ORDER_MIN, f"dn_switchform k={k} order {order:.3f}")

    elapsed = time.perf_counter() - start
    # End-to-end accuracy: the two oracles that solve the figure-2 problem.
    acc["oracle_err_max"] = max(acc["cn_err_max"], acc["interface_err"])
    return {"oracle_pass_s": elapsed}, acc


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    setup: Callable
    run_pass: Callable
    err_key: str  # the accuracy figure reported as the end-to-end ``err_max``


WORKLOADS = {
    "heat-solve": Workload(setup_heat, pass_heat, "solve_err_max"),
    "spectrum": Workload(setup_spectrum, pass_spectrum, "eig_gap_max"),
    "oracles": Workload(setup_oracles, pass_oracles, "oracle_err_max"),
}
