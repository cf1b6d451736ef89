"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (visible with -v/-s or on failure).
Criterion 7's ODE-residual bound is asserted exactly as stated even though
the measured truncation defect of the order-2 series exceeds it; see the
decisions record for the analysis (the residual telescopes to a closed
form in the last two retained terms, which finite differences reproduce,
so the bound is unattainable rather than unimplemented).
"""

import math

import numpy as np
import pytest

from varheat import SeriesSpec
from varheat.oracles import (
    InterfacePartition,
    crank_nicolson,
    dn_det,
    dn_bruteforce,
    dn_switchform,
    fd_eigenvalues,
    uniform_partition,
)
from varheat.simplex import simplex_integral, term_bound
from varheat.spectrum import eigenfunction, find_eigenvalues
from varheat.transform import delta_values, solve_grid
from varheat.verify import CHEBFUN_VALUES as CHEBFUN
from varheat.verify import TABLE1_VALUES as TABLE1

from conftest import quadratic, sine


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def test_criterion_1_table1_reproduction(parabolic):
    c, tt = parabolic
    worst = 0.0
    for N, refs in TABLE1.items():
        pairs = find_eigenvalues(c, tt, SeriesSpec(truncation_N=N), 4)
        worst = max(worst, max(abs(p.lam - r) for p, r in zip(pairs, refs)))
    ok = worst <= 5e-4
    assert _report("criterion 1 (table of eigenvalues, N=0,1,2)", ok,
                   f"max |lambda - published| = {worst:.2e} <= 5e-4")


def test_criterion_2_reference_eigenvalues(parabolic):
    c, _ = parabolic
    vals = fd_eigenvalues(c, 4, 512)
    worst = max(abs(v - r) for v, r in zip(vals, CHEBFUN))
    ok = worst <= 1e-3
    assert _report("criterion 2 (extrapolated grid eigenvalues)", ok,
                   f"max |lambda - reference| = {worst:.2e} <= 1e-3")


def test_criterion_3_exact_solution_benchmark(parabolic):
    c, tt = parabolic
    xs = np.linspace(0.0, 1.0, 21)
    ts = [0.25, 1.0, 4.0]
    res = solve_grid(c, tt, quadratic, xs, ts, SeriesSpec(truncation_N=2),
                     all_orders=True)
    max_err = {n: 0.0 for n in range(3)}
    for t, per_order in res.items():
        for n, samples in per_order.items():
            for s in samples:
                exact = s.x * (1.0 - s.x) * math.exp(-t)
                max_err[n] = max(max_err[n], abs(s.value - exact))
    monotone = max_err[0] > max_err[1] > max_err[2]
    bound = max_err[2] <= 5e-3
    # cross-check the N=2 surface against the time-stepping reference
    cn_gap = 0.0
    for t in ts:
        grid_x, grid_q = crank_nicolson(c, quadratic, t, 512, 512)
        interp = np.interp(xs, grid_x, grid_q)
        vals = np.array([s.value for s in res[t][2]])
        cn_gap = max(cn_gap, float(np.max(np.abs(vals - interp))))
    cn_ok = cn_gap <= 5e-3
    ok = monotone and bound and cn_ok
    assert _report(
        "criterion 3 (benchmark errors shrink with N)", ok,
        f"max errors N=0,1,2 = {max_err[0]:.2e}, {max_err[1]:.2e}, "
        f"{max_err[2]:.2e}; vs time-stepper {cn_gap:.2e}")


def test_criterion_4_constant_coefficient_exactness(const1):
    c, tt = const1
    worst_q = 0.0
    for N in (0, 1, 2):
        res = solve_grid(c, tt, sine, [0.25, 0.5, 0.75], [0.1, 1.0],
                         SeriesSpec(truncation_N=N))
        for t, samples in res.items():
            for s in samples:
                exact = math.exp(-math.pi**2 * t) * math.sin(math.pi * s.x)
                worst_q = max(worst_q, abs(s.value - exact))
        pairs = find_eigenvalues(c, tt, SeriesSpec(truncation_N=N), 3)
        for p, m in zip(pairs, (1, 2, 3)):
            assert abs(p.lam + (m * math.pi) ** 2) <= 1e-10
    ok = worst_q <= 1e-6
    assert _report("criterion 4 (constant-sigma exactness)", ok,
                   f"max solve error {worst_q:.2e} <= 1e-6; "
                   "eigenvalues at 1e-10")


def test_criterion_5_determinant_identity_suite():
    rng = np.random.default_rng(20240809)
    worst = 0.0
    tested = 0
    while tested < 200:
        n_cells = int(rng.integers(1, 11))
        cuts = np.sort(rng.uniform(0.02, 0.98, n_cells - 1))
        nodes = np.concatenate([[0.0], cuts, [1.0]])
        if n_cells > 1 and np.min(np.diff(nodes)) < 1e-3:
            continue
        sigmas = rng.uniform(0.25, 2.5, n_cells)
        part = InterfacePartition(nodes=nodes, sigmas=sigmas,
                                  sigma0=float(sigmas[0]))
        k = complex(rng.uniform(-6, 6), rng.uniform(-2, 2))
        if abs(k) < 0.05:
            continue
        gap = abs(dn_det(part, k) - dn_bruteforce(part, k))
        worst = max(worst, gap / max(1.0, abs(dn_bruteforce(part, k))))
        tested += 1
    ok = worst <= 1e-10
    assert _report("criterion 5 (determinant identity, 200 cases)", ok,
                   f"worst relative gap {worst:.2e} <= 1e-10")


def test_criterion_6_discrete_model_convergence(parabolic):
    c, tt = parabolic
    spec3 = SeriesSpec(truncation_N=3)
    sizes = (250, 500, 1000, 2000)
    worst_order = np.inf
    for k in (0.5, 1.0, 2.0):
        ref = float(delta_values(c, tt, np.array([k]), spec3)[0])
        errs = [abs(dn_switchform(uniform_partition(c, n), k, 3) - ref)
                for n in sizes]
        for e0, e1 in zip(errs, errs[1:]):
            worst_order = min(worst_order, math.log(e0 / e1) / math.log(2.0))
    ok = worst_order >= 0.9
    assert _report("criterion 6 (discrete-model convergence)", ok,
                   f"min empirical order {worst_order:.3f} >= 0.9")


@pytest.fixture(scope="module")
def eigfun_suite(parabolic):
    c, tt = parabolic
    spec = SeriesSpec(truncation_N=2)
    pairs = find_eigenvalues(c, tt, spec, 4)
    efs = [eigenfunction(c, tt, p, spec) for p in pairs]
    return c, tt, pairs, efs


def test_criterion_7a_eigenfunction_boundaries(eigfun_suite):
    _, _, pairs, efs = eigfun_suite
    worst = max(max(abs(float(ef(np.array([0.0]))[0])),
                    abs(float(ef(np.array([1.0]))[0]))) for ef in efs)
    ok = worst <= 1e-8
    assert _report("criterion 7a (eigenfunction boundary values)", ok,
                   f"max boundary magnitude {worst:.2e} <= 1e-8")


def test_criterion_7b_eigenfunction_ode_residual(eigfun_suite):
    c, _, pairs, efs = eigfun_suite
    h = 1.0 / 200
    xs = np.linspace(0.0, 1.0, 201)
    interior = xs[2:-2]
    stencil = np.array([-2, -1, 0, 1, 2]) * h
    worst = 0.0
    for p, ef in zip(pairs, efs):
        pts = interior[:, None] + stencil[None, :]
        V = ef(pts.ravel()).reshape(pts.shape)
        X1 = (V[:, 0] - 8 * V[:, 1] + 8 * V[:, 3] - V[:, 4]) / (12 * h)
        X2 = (-V[:, 0] + 16 * V[:, 1] - 30 * V[:, 2] + 16 * V[:, 3]
              - V[:, 4]) / (12 * h * h)
        resid = (c.sigma_sq(interior) * X2
                 + 2.0 * c.sigma(interior) * c.dsigma(interior) * X1
                 - p.lam * V[:, 2])
        worst = max(worst, float(np.max(np.abs(resid))))
    ok = worst <= 1e-3
    # Known-unattainable as stated: the order-2 truncation's genuine defect
    # is ~6.1e-3 for mode 1 (see decisions record); asserted faithfully.
    assert _report("criterion 7b (eigenfunction ODE residual)", ok,
                   f"sup residual {worst:.2e} <= 1e-3")


def test_criterion_7c_eigenfunction_orthogonality(eigfun_suite):
    _, _, _, efs = eigfun_suite
    xs = np.linspace(0.0, 1.0, 2001)
    w = np.ones(xs.size)
    w[0] = w[-1] = 0.5
    w /= xs.size - 1
    vals = np.array([ef(xs) for ef in efs])
    gram = (vals * w) @ vals.T
    worst = float(np.max(np.abs(gram - np.diag(np.diag(gram)))))
    ok = worst <= 1e-3
    assert _report("criterion 7c (eigenfunction orthogonality)", ok,
                   f"max off-diagonal {worst:.2e} <= 1e-3")


def test_criterion_7d_eigenfunction_sign_changes(eigfun_suite):
    _, _, pairs, efs = eigfun_suite
    xs = np.linspace(0.0, 1.0, 2001)
    ok = True
    counts = []
    for p, ef in zip(pairs, efs):
        vals = ef(xs)[1:-1]
        changes = int(np.sum(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0))
        counts.append(changes)
        ok = ok and changes == p.m - 1
    assert _report("criterion 7d (interior sign changes)", ok,
                   f"counts {counts} == m-1")


def test_criterion_8_series_term_bound(parabolic, rational, const1):
    worst_excess = 0.0
    spec = SeriesSpec(truncation_N=3)
    ks = (0.7, 2.0, 5.0 * np.exp(1j * np.pi / 8), 3.0j, 1.0 + 2.0j)
    intervals = ((0.0, 1.0), (0.3, 0.8), (0.0, 0.5))
    for c, tt in (parabolic, rational, const1):
        for a, b in intervals:
            for k in ks:
                for n in range(4):
                    v = abs(simplex_integral(c, tt, n, a, b, k, spec))
                    bnd = term_bound(c, tt, n, a, b, k)
                    if bnd > 0:
                        worst_excess = max(worst_excess, v / bnd)
                    else:
                        assert v <= 1e-300
    ok = worst_excess <= 1.0 + 1e-12
    assert _report("criterion 8 (series term bound)", ok,
                   f"max |S_n|/bound = {worst_excess:.6f} <= 1")
