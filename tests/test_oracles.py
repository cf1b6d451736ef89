import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings

from varheat import SeriesSpec, make_conductivity, oracles
from varheat.errors import (
    DenominatorNearZero,
    DomainError,
    NoConvergence,
    SingularPartition,
    TooManyTerms,
)
from varheat.oracles import _KL, _KU, _band, _fd_operator, _switch_sums, _tridiag_eigs_top
from varheat.oracles import (
    InterfacePartition,
    crank_nicolson,
    dn_bruteforce,
    dn_det,
    dn_switchform,
    en_det,
    en_sampled,
    fd_eigenvalues,
    fd_eigenvector,
    fourier_solution,
    interface_solution,
    psi_entry,
    uniform_partition,
)
from varheat.transform import Contour, delta_values
from varheat.verify import CHEBFUN_VALUES as CHEBFUN

from conftest import exp_sine_profile, partitions, quadratic, sine, wavenumbers
from tuples import phi_fn


def _random_partition(rng, n_cells):
    while True:
        cuts = np.sort(rng.uniform(0.02, 0.98, n_cells - 1))
        nodes = np.concatenate([[0.0], cuts, [1.0]])
        if n_cells == 1 or np.min(np.diff(nodes)) > 1e-3:
            break
    sigmas = rng.uniform(0.25, 2.5, n_cells)
    return InterfacePartition(nodes=nodes, sigmas=sigmas, sigma0=float(sigmas[0]))


def test_partition_validation():
    with pytest.raises(SingularPartition):
        InterfacePartition(nodes=np.array([0.0, 0.5, 0.5, 1.0]),
                           sigmas=np.array([1.0, 1.0, 1.0]), sigma0=1.0)
    with pytest.raises(SingularPartition):
        InterfacePartition(nodes=np.array([0.0, 1.0]), sigmas=np.array([-1.0]),
                           sigma0=1.0)
    with pytest.raises(SingularPartition):
        InterfacePartition(nodes=np.array([0.1, 1.0]), sigmas=np.array([1.0]),
                           sigma0=1.0)



@pytest.mark.parametrize("nodes, sigmas", [
    ([0.0, np.nan, 1.0], [1.0, 1.0]),
    ([0.0, 0.5, 1.0], [1.0, np.nan]),
    ([0.0, 0.5, 1.0], [np.inf, 1.0]),
    ([0.0, 0.5, np.inf], [1.0, 1.0]),
])
def test_partition_rejects_non_finite(nodes, sigmas):
    with pytest.raises(SingularPartition):
        InterfacePartition(nodes=np.array(nodes), sigmas=np.array(sigmas), sigma0=1.0)


def test_lambda_factor_properties():
    part = InterfacePartition(nodes=np.array([0.0, 0.3, 0.6, 1.0]),
                              sigmas=np.array([1.0, 1.0, 2.0]), sigma0=1.0)
    assert part.rho[0] == 0.0  # equal sigmas
    assert np.all(np.abs(part.rho) < 1.0)


def test_single_domain_determinant(const1):
    part = InterfacePartition(nodes=np.array([0.0, 1.0]), sigmas=np.array([1.3]),
                              sigma0=1.3)
    k = 1.7 + 0.3j
    det = dn_det(part, k) / 0.5j  # no interior interface, so no Lambda^+ scale
    assert det == pytest.approx(-2j * np.sin(k / 1.3), abs=1e-12)
    assert dn_bruteforce(part, k) == pytest.approx(np.sin(k / 1.3), abs=1e-12)


def test_two_domain_closed_form():
    part = InterfacePartition(nodes=np.array([0.0, 0.4, 1.0]),
                              sigmas=np.array([0.8, 1.5]), sigma0=0.8)
    k = 1.7 + 0.3j
    a, b = 0.4 / 0.8, 0.6 / 1.5
    rho1 = (1.5 - 0.8) / (1.5 + 0.8)
    closed = np.sin(k * (a + b)) + rho1 * np.sin(k * (a - b))
    assert dn_det(part, k) == pytest.approx(closed, abs=1e-12)
    assert dn_bruteforce(part, k) == pytest.approx(closed, abs=1e-14)


def test_determinant_identity_random_sweep():
    rng = np.random.default_rng(42)
    for _ in range(80):
        part = _random_partition(rng, int(rng.integers(1, 11)))
        k = complex(rng.uniform(-5, 5), rng.uniform(-2, 2))
        if abs(k) < 0.1:
            continue
        lhs = dn_det(part, k)
        rhs = dn_bruteforce(part, k)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(part=partitions, k=wavenumbers)
def test_determinant_forms_agree_on_partition_family(part, k):
    brute = dn_bruteforce(part, k)
    scale = max(1.0, abs(brute))
    assert abs(dn_det(part, k) - brute) <= 1e-10 * scale
    assert abs(dn_switchform(part, k, part.n_cells - 1) - brute) <= 1e-10 * scale


def test_band_determinant_matches_switchform_up_to_40_cells():
    # the band LU, its pivots and the sign of the band reordering, at every
    # cell count from 1 to 40 (the Hypothesis family stops at 10)
    rng = np.random.default_rng(11)
    for n_cells in range(1, 41):
        part = _random_partition(rng, n_cells)
        for k in (complex(rng.uniform(-6, 6), rng.uniform(-2, 2)), rng.uniform(0.5, 6.0)):
            ref = dn_switchform(part, k, n_cells - 1)
            assert abs(dn_det(part, k) - ref) <= 1e-10 * max(1.0, abs(ref)), n_cells


def test_bruteforce_cap():
    part = uniform_partition(make_conductivity("constant", c=1.0), 30)
    with pytest.raises(TooManyTerms):
        dn_bruteforce(part, 1.0)


def test_bruteforce_memory_is_bounded_by_its_block():
    # 18 cells: 2**17 entry vectors in two blocks of 2**16, at about 320 B
    # a vector, the first released before the second is built (21.2 MiB
    # traced; 30.7 MiB while the first was kept, 42 MiB in one block of 2**20)
    part = _random_partition(np.random.default_rng(18), 18)
    k = 2.3 + 0.4j
    tracemalloc.start()
    try:
        brute = dn_bruteforce(part, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20
    assert abs(brute - dn_det(part, k)) <= 1e-10


def test_switchform_equals_bruteforce():
    rng = np.random.default_rng(3)
    for n_cells in (1, 2, 5, 10):
        part = _random_partition(rng, n_cells)
        for k in (0.8, 2.0 - 1.0j):
            full = dn_switchform(part, k, n_cells - 1)
            brute = dn_bruteforce(part, k)
            assert abs(full - brute) <= 1e-12 * max(1.0, abs(brute))


def test_switchform_zero_switches_limit(parabolic):
    c, tt = parabolic
    for n in (50, 400):
        part = uniform_partition(c, n)
        val = dn_switchform(part, 1.3, 0)
        assert val == pytest.approx(np.sin(1.3 * np.sum(part.cell_times)), abs=1e-13)
    # Riemann sum of 1/sigma approaches the full travel time
    part = uniform_partition(c, 4000)
    assert np.sum(part.cell_times) == pytest.approx(tt.total, abs=1e-6)


def test_switchform_constant_sigma():
    part = uniform_partition(make_conductivity("constant", c=1.0), 64)
    for cap in (0, 3, 63):
        assert dn_switchform(part, 2.2, cap) == pytest.approx(math.sin(2.2), abs=1e-13)


def _cells(part, lo, hi):
    """Cells lo+1..hi of ``part`` as a partition of their own: widths and
    sigmas scaled alike, so the cell times and ratios are unchanged."""
    span = part.nodes[hi] - part.nodes[lo]
    nodes = (part.nodes[lo:hi + 1] - part.nodes[lo]) / span
    nodes[-1] = 1.0
    sigmas = part.sigmas[lo:hi] / span
    return InterfacePartition(nodes=nodes, sigmas=sigmas, sigma0=float(sigmas[0]))


def test_every_prefix_and_suffix_sum_is_exact():
    # psi takes its prefix sums from one pass of the switch recursion and its
    # suffix sums from one pass on the reflected partition (times reversed,
    # ratios reversed and negated: without the negation they were 30% off);
    # each must be the brute-force sum of its own sub-partition, in the row
    # and in the public psi_entry, which is symmetric in (j, m)
    rng = np.random.default_rng(17)
    for _ in range(12):
        part = _random_partition(rng, int(rng.integers(2, 15)))
        N, s = part.n_cells, part.sigmas
        for k in (rng.uniform(0.5, 6.0), complex(rng.uniform(-6, 6), rng.uniform(0.0, 2.0))):
            prefix = [dn_bruteforce(_cells(part, 0, m), k) for m in range(1, N + 1)]
            suffix = [dn_bruteforce(_cells(part, m, N), k) for m in range(N)]
            got = _switch_sums(part.cell_times, part.rho, k, N - 1)
            assert np.allclose(got, prefix, rtol=1e-12, atol=1e-12), N
            for j in range(1, N):
                row = oracles._psi_row(part, k, j)
                for m in range(1, N):
                    lo, hi = min(j, m), max(j, m)
                    ref = (math.sqrt(s[hi - 1] / s[lo - 1])
                           * np.prod(2.0 * s[lo - 1:hi] / part.plus[lo - 1:hi])
                           * prefix[lo - 1] * suffix[hi])
                    assert abs(row[m - 1] - ref) <= 1e-12 * max(1.0, abs(ref)), (N, j, m)
                    entry = psi_entry(part, k, j, m)
                    assert abs(entry - ref) <= 1e-12 * max(1.0, abs(ref)), (N, j, m)
                    assert abs(entry - psi_entry(part, k, m, j)) <= 1e-12 * max(1.0, abs(ref))


def test_exactly_singular_band_system(parabolic, monkeypatch):
    # a zero column of A makes det A exactly 0: the band LU meets a zero
    # pivot, so dn_det returns 0 and the solves that divide by det A raise
    part = uniform_partition(parabolic[0], 6)

    def singular(part, ks):
        ab = _band(part, ks)
        ab[:, :, 5] = 0.0
        return ab

    monkeypatch.setattr(oracles, "_band", singular)
    assert dn_det(part, 1.3) == 0.0
    with pytest.raises(DenominatorNearZero, match="det A vanished"):
        en_det(part, 1.3, 2, quadratic)
    with pytest.raises(DenominatorNearZero, match="det A vanished"):
        interface_solution(part, quadratic, 2, 1.0)


def test_switchform_validation(parabolic):
    part = uniform_partition(parabolic[0], 10)
    with pytest.raises(DomainError):
        dn_switchform(part, 1.0, 10)


def test_discrete_model_converges_to_characteristic_function(parabolic, spec3):
    c, tt = parabolic
    sizes = (250, 500, 1000, 2000)
    for k in (0.5, 1.0, 2.0):
        ref = float(delta_values(c, tt, np.array([k]), spec3)[0])
        errs = [abs(dn_switchform(uniform_partition(c, n), k, 3) - ref)
                for n in sizes]
        for e0, e1 in zip(errs, errs[1:]):
            order = math.log(e0 / e1) / math.log(2.0)
            assert order >= 0.9


def test_product_asymptotics(parabolic):
    # prod Lambda_p^+/(2 sigma_p) tends to sqrt(sigma_m / sigma_l) at first
    # order in the cell width; rho_p matches sigma' dx/(2 sigma) at second.
    c, _ = parabolic
    prod_errs = []
    rho_errs = []
    sizes = (100, 200, 400, 800)
    for n in sizes:
        part = uniform_partition(c, n)
        lo, hi = n // 5, (4 * n) // 5
        prod = np.prod(part.plus[lo - 1 : hi - 1] / (2.0 * part.sigmas[lo - 1 : hi - 1]))
        target = math.sqrt(part.sigmas[hi - 1] / part.sigmas[lo - 1])
        prod_errs.append(abs(prod - target))
        p = n // 3
        xp = part.nodes[p]
        pred = float(c.dsigma(xp)) * part.widths[p - 1] / (2.0 * float(c.sigma(xp)))
        rho_errs.append(abs(part.rho[p - 1] - pred))
    for e0, e1 in zip(prod_errs, prod_errs[1:]):
        assert math.log(e0 / e1) / math.log(2.0) >= 0.9
    for e0, e1 in zip(rho_errs, rho_errs[1:]):
        assert math.log(e0 / e1) / math.log(2.0) >= 1.8


def test_characteristic_roots_are_discrete_singular_points(parabolic):
    # det A nearly vanishes at the characteristic roots once the partition
    # resolves the coefficient
    from varheat.spectrum import find_eigenvalues

    c, tt = parabolic
    kappa = find_eigenvalues(c, tt, SeriesSpec(truncation_N=3), 2)[1].kappa
    vals = [abs(dn_switchform(uniform_partition(c, n), kappa, min(n - 1, 40)))
            for n in (250, 2000)]
    assert vals[1] < vals[0]
    assert vals[1] < 5e-4


def test_en_zero_profile(parabolic):
    part = uniform_partition(parabolic[0], 10)
    val = en_det(part, 1.3, 5, lambda y: np.zeros_like(y))
    assert abs(val) == 0.0


def test_en_interface_bounds(parabolic):
    part = uniform_partition(parabolic[0], 10)
    with pytest.raises(DomainError):
        en_det(part, 1.0, 0, sine)
    with pytest.raises(DomainError):
        en_det(part, 1.0, 10, sine)


def test_en_approaches_transform_numerator(const1, spec2):
    # E_N at the midpoint interface approaches Phi(k, x_j); for constant
    # sigma the even-N interface model is exact at matched x.
    c, tt = const1
    k = 1.3
    ref = phi_fn(c, tt, k, 0.5, sine, spec2)
    gaps = []
    for n in (50, 100):
        part = uniform_partition(c, n)
        gaps.append(abs(en_det(part, k, n // 2, sine) - ref))
    assert gaps[0] < 1e-12 and gaps[1] < 1e-12
    # variable coefficient: first-order convergence toward the transform
    cp, ttp = make_conductivity("parabolic24"), None
    from varheat import build_travel_time

    ttp = build_travel_time(cp)
    ref = phi_fn(cp, ttp, k, 0.5, quadratic, SeriesSpec(truncation_N=3))
    gaps = [abs(en_det(uniform_partition(cp, n), k, n // 2, quadratic) - ref)
            for n in (50, 200)]
    assert gaps[1] < gaps[0]
    assert gaps[1] < 5e-3


def test_psi_entry_and_sampled_en(parabolic):
    # the cofactor double-sum structure reproduces the determinant value
    # to the sampling error O(width)
    c, _ = parabolic
    part = uniform_partition(c, 40)
    det_val = en_det(part, 1.0, 20, quadratic)
    sampled = en_sampled(part, 1.0, 20, quadratic)
    assert abs(det_val - sampled) <= 0.5 * part.max_width
    assert abs(det_val - sampled) < 5e-4  # measured ~2.9e-5 at this size
    with pytest.raises(DomainError):
        psi_entry(part, 1.0, 0, 3)


def test_sampled_en_converges_at_second_order(parabolic):
    # past 24 cells a side the sub-partition sums used to raise TooManyTerms;
    # measured gaps 1.146e-4, 2.856e-5, 7.113e-6, 1.774e-6 (4.01 per halving)
    c, _ = parabolic
    gaps = []
    for n in (20, 40, 80, 160):
        part = uniform_partition(c, n)
        gaps.append(abs(en_sampled(part, 1.0, n // 2, quadratic)
                        - en_det(part, 1.0, n // 2, quadratic)))
    assert gaps[0] < 2e-4
    for g0, g1 in zip(gaps, gaps[1:]):
        assert g0 / g1 == pytest.approx(4.0, abs=0.1)


@pytest.mark.parametrize("call, error", [
    (lambda c: InterfacePartition(nodes=np.linspace(0.0, 1.0, 4), sigmas=np.ones(2),
                                  sigma0=1.0), SingularPartition),
    (lambda c: uniform_partition(c, 0), SingularPartition),
    (lambda c: dn_det(uniform_partition(c, 4), 0), DomainError),
    (lambda c: interface_solution(uniform_partition(c, 4), quadratic, 0, 1.0), DomainError),
    (lambda c: interface_solution(uniform_partition(c, 4), quadratic, 2, 0.0), DomainError),
    (lambda c: fd_eigenvalues(c, 4, 32), DomainError),
    (lambda c: en_sampled(uniform_partition(c, 4), 1.0, 0, quadratic), DomainError),
    # non-integer indices and sizes used to escape as IndexError or TypeError
    (lambda c: interface_solution(uniform_partition(c, 8), quadratic, 2.5, 1.0), DomainError),
    (lambda c: en_det(uniform_partition(c, 8), 1.0, 2.5, quadratic), DomainError),
    (lambda c: psi_entry(uniform_partition(c, 8), 1.0, 2, 2.5), DomainError),
    (lambda c: en_sampled(uniform_partition(c, 8), 1.0, 2.5, quadratic), DomainError),
    (lambda c: dn_switchform(uniform_partition(c, 8), 1.0, 2.5), DomainError),
    (lambda c: uniform_partition(c, 4.5), DomainError),
    # q0 is checked as the continuum solver checks it: a wrong shape used to
    # escape as an untyped reshape or broadcast error, a complex q0 to return
    # a wrong number and a NaN q0 to return NaN
    (lambda c: interface_solution(uniform_partition(c, 8), lambda y: y[:3], 2, 1.0),
     DomainError),
    (lambda c: interface_solution(uniform_partition(c, 8), lambda y: (1 + 1j) * y, 2, 1.0),
     DomainError),
    (lambda c: interface_solution(uniform_partition(c, 8), lambda y: np.nan * y, 2, 1.0),
     DomainError),
    (lambda c: en_det(uniform_partition(c, 8), 1.0, 2, lambda y: (1 + 1j) * y), DomainError),
    (lambda c: en_det(uniform_partition(c, 8), 1.0, 2, lambda y: np.inf), DomainError),
    (lambda c: en_sampled(uniform_partition(c, 8), 1.0, 2, lambda y: y[:3]), DomainError),
    (lambda c: en_sampled(uniform_partition(c, 8), 1.0, 2, lambda y: np.nan * y), DomainError),
    (lambda c: crank_nicolson(c, lambda y: (1 + 1j) * y, 1.0, 16, 16), DomainError),
    (lambda c: crank_nicolson(c, lambda y: np.nan * y, 1.0, 16, 16), DomainError),
    (lambda c: fourier_solution(1.0, lambda y: (1 + 1j) * y, 0.5, 0.1, 5), DomainError),
    (lambda c: fourier_solution(1.0, lambda y: np.nan * y, 0.5, 0.1, 5), DomainError),
    # x outside [0, 1] used to return the odd periodic extension, and x = NaN NaN
    (lambda c: fourier_solution(1.0, quadratic, -0.5, 0.1, 5), DomainError),
    (lambda c: fourier_solution(1.0, quadratic, [0.5, np.nan], 0.1, 5), DomainError),
], ids=["lengths", "no-cells", "dn_det-k0", "interface-j0", "interface-t0", "fd-nx32",
        "en_sampled-j0", "interface-j2.5", "en_det-j2.5", "psi-m2.5", "en_sampled-j2.5",
        "switchform-2.5", "cells-4.5", "interface-q0-shape", "interface-q0-complex",
        "interface-q0-nan", "en_det-q0-complex", "en_det-q0-inf", "en_sampled-q0-shape",
        "en_sampled-q0-nan", "cn-q0-complex", "cn-q0-nan", "fourier-q0-complex",
        "fourier-q0-nan", "fourier-x-negative", "fourier-x-nan"])
def test_typed_argument_errors(parabolic, call, error):
    with pytest.raises(error):
        call(parabolic[0])


@pytest.mark.parametrize("k", [np.nan, np.inf, complex(1.0, np.nan)], ids=["nan", "inf", "nan-imag"])
@pytest.mark.parametrize("call", [
    lambda part, k: dn_det(part, k),
    lambda part, k: dn_bruteforce(part, k),
    lambda part, k: dn_switchform(part, k, 3),
    lambda part, k: en_det(part, k, 2, quadratic),
    lambda part, k: psi_entry(part, k, 2, 3),
    lambda part, k: en_sampled(part, k, 2, quadratic),
], ids=["dn_det", "dn_bruteforce", "dn_switchform", "en_det", "psi_entry", "en_sampled"])
def test_non_finite_wavenumbers_raise(parabolic, call, k):
    # these returned nan+nanj, where the simplex integrals and Delta_N raise
    with pytest.raises(DomainError, match="finite k"):
        call(uniform_partition(parabolic[0], 6), k)


def test_interface_solution_constant_exact():
    part = InterfacePartition(nodes=np.array([0.0, 0.5, 1.0]),
                              sigmas=np.array([1.0, 1.0]), sigma0=1.0)
    val = interface_solution(part, sine, 1, 0.1)
    exact = math.exp(-math.pi**2 * 0.1) * math.sin(math.pi * 0.5)
    assert val == pytest.approx(exact, abs=1e-5)


def test_reference_models_take_a_scalar_q0(parabolic):
    # a scalar broadcasts over the points, as in the continuum solver; it
    # used to raise AttributeError (interface model), IndexError
    # (Crank-Nicolson) or TypeError (Fourier series)
    c = parabolic[0]
    part = uniform_partition(c, 8)
    assert interface_solution(part, lambda y: 1.0, 2, 1.0) == interface_solution(
        part, np.ones_like, 2, 1.0)
    assert en_det(part, 1.3, 2, lambda y: 1.0) == en_det(part, 1.3, 2, np.ones_like)
    assert en_sampled(part, 1.3, 2, lambda y: 1.0) == en_sampled(part, 1.3, 2, np.ones_like)
    assert np.array_equal(crank_nicolson(c, lambda y: 1.0, 0.1, 16, 16)[1],
                          crank_nicolson(c, np.ones_like, 0.1, 16, 16)[1])
    assert fourier_solution(1.0, lambda y: 1.0, 0.5, 0.1, 5) == fourier_solution(
        1.0, np.ones_like, 0.5, 0.1, 5)


@pytest.mark.parametrize("n_cells, j, t", [(64, 32, 1.0), (10, 4, 0.3)],
                         ids=["parabolic64", "random10"])
def test_interface_solution_half_contour_equals_full_sum(parabolic, n_cells, j, t):
    # the conjugate symmetry of the terms at mirrored contour nodes: the
    # half sweep gives the sum over every node of the contour
    part = (uniform_partition(parabolic[0], n_cells) if n_cells == 64
            else _random_partition(np.random.default_rng(31), n_cells))
    ks, ws = Contour.for_times([t], oracles._CONTOUR_TOL).nodes()
    unknowns = np.array([x for *_, x in oracles._band_solve(part, ks, j, quadratic)])
    full = float((-np.sum(ws * unknowns * np.exp(-(ks**2) * t)) / math.pi).real)
    assert interface_solution(part, quadratic, j, t) == pytest.approx(full, rel=1e-15)


def test_interface_solution_parabolic_benchmark(parabolic):
    c, _ = parabolic
    part = uniform_partition(c, 64)
    val = interface_solution(part, quadratic, 32, 1.0)
    exact = 0.25 * math.exp(-1.0)
    assert abs(val - exact) <= 0.5 * part.max_width
    assert abs(val - exact) < 1e-4  # measured ~8.6e-6


def test_interface_model_converges_at_second_order(parabolic):
    # the paper's limit: the piecewise-constant model tends to the
    # variable-coefficient solution x(1-x) e^{-t}, its error falling 4x per
    # halving of the cell width (measured 8.610e-6, 2.153e-6, 5.381e-7,
    # 1.345e-7 at x = 1/2, t = 1)
    c, _ = parabolic
    exact = 0.25 * math.exp(-1.0)
    errs = [abs(interface_solution(uniform_partition(c, n), quadratic, n // 2, 1.0) - exact)
            for n in (64, 128, 256, 512)]
    assert errs[0] < 1e-5
    for e0, e1 in zip(errs, errs[1:]):
        assert e0 / e1 == pytest.approx(4.0, abs=0.05)


def test_interface_solution_memory_does_not_grow_with_the_nodes(parabolic, monkeypatch):
    # the systems are built _NODE_BLOCK contour nodes at a time: at 4096
    # cells all 53 nodes of the t = 1 contour at once peaked at 84 MB
    c, _ = parabolic
    part = uniform_partition(c, 4096)
    tracemalloc.start()
    try:
        interface_solution(part, quadratic, 2048, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6
    # and the blocks give the value of all nodes at once
    part = uniform_partition(c, 512)
    blocked = interface_solution(part, quadratic, 256, 1.0)
    monkeypatch.setattr(oracles, "_NODE_BLOCK", 1 << 20)
    assert blocked == pytest.approx(interface_solution(part, quadratic, 256, 1.0), rel=1e-15)


def test_interface_solution_matches_transform_solver(parabolic, spec2):
    from varheat.transform import solve

    c, tt = parabolic
    part = uniform_partition(c, 48)
    j = 18
    x = float(part.nodes[j])
    t = 0.8
    a = interface_solution(part, quadratic, j, t)
    b = solve(c, tt, quadratic, x, t, spec2).value
    assert abs(a - b) <= 0.5 * part.max_width + 2e-3


def _dense_numerator(part, k, j, q0):
    """A_j(k) in the band order, unpacked from the band storage with column
    ik g0[j] replaced by Y(k), as a 40-digit mpmath matrix."""
    ks = np.array([complex(k)])
    ab = _band(part, ks)[0]
    n = ab.shape[1]
    rows, cols = np.indices((n, n))
    inside = np.abs(rows - cols) <= 2
    dense = np.zeros((n, n), dtype=complex)
    dense[inside] = ab[(_KL + _KU + rows - cols)[inside], cols[inside]]
    profile = oracles._weighted_profile(part, q0)
    dense[:, 2 * j - 1] = oracles._system_rhs(part, ks, *profile)[0].T.ravel()
    return mpmath.matrix(dense.tolist())


def test_en_det_matches_a_40_digit_determinant():
    # E_N = (1/2) det A_j / prod Lambda_p^+ with the determinant of the same
    # double matrix taken in 40 digits: the Cramer product -i D_N x_j of the
    # band LU must agree to 1e-13 relative
    rng = np.random.default_rng(23)
    with mpmath.workdps(40):
        for n_cells in (2, 3, 5, 8, 12):
            part = _random_partition(rng, n_cells)
            j = int(rng.integers(1, n_cells))
            for k in (rng.uniform(0.5, 6.0), complex(rng.uniform(-6, 6), rng.uniform(-2, 2))):
                det = mpmath.det(_dense_numerator(part, k, j, quadratic))
                ref = complex(det / 2 / mpmath.fprod(mpmath.mpf(p) for p in part.plus))
                got = en_det(part, k, j, quadratic)
                assert abs(got - ref) <= 1e-13 * abs(ref), (n_cells, k)


def test_crank_nicolson_benchmarks(parabolic, const1):
    c, _ = parabolic
    x, q = crank_nicolson(c, quadratic, 1.0, 200, 200)
    exact = x * (1.0 - x) * math.exp(-1.0)
    e200 = np.max(np.abs(q - exact))
    x, q = crank_nicolson(c, quadratic, 1.0, 400, 400)
    e400 = np.max(np.abs(q - x * (1.0 - x) * math.exp(-1.0)))
    assert e200 < 1e-5
    assert e200 / e400 == pytest.approx(4.0, rel=0.15)  # second order
    c1, _ = const1
    x, q = crank_nicolson(c1, sine, 0.1, 256, 256)
    ref = math.exp(-math.pi**2 * 0.1) * np.sin(math.pi * x)
    assert np.max(np.abs(q - ref)) < 1e-5


def test_crank_nicolson_max_principle(parabolic):
    c, _ = parabolic
    x, q = crank_nicolson(c, quadratic, 0.5, 128, 128)
    assert q.min() >= 0.0 - 1e-12
    assert q.max() <= 0.25 + 1e-12


def test_crank_nicolson_equals_dense_steps(parabolic):
    c, _ = parabolic
    nx = nt = 32
    t_final = 0.7
    x, q = crank_nicolson(c, quadratic, t_final, nx, nt)
    diag, off = _fd_operator(c, nx)
    L = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    half = 0.5 * t_final / nt * L
    eye = np.eye(nx - 1)
    ref = quadratic(x[1:-1])
    for _ in range(nt):
        ref = np.linalg.solve(eye - half, (eye + half) @ ref)
    assert q[0] == q[-1] == 0.0
    assert np.max(np.abs(q[1:-1] - ref)) <= 1e-13


def test_crank_nicolson_validation(parabolic):
    bad = [
        (1.0, 4, 100),
        (1.0, 100, 4),
        (0.0, 100, 100),
        (np.nan, 100, 100),  # used to escape as an untyped scipy ValueError
        (np.inf, 100, 100),
        (1.0, 100.0, 100),  # a non-integer grid size used to raise TypeError
        (1.0, 100, 64.5),
    ]
    for t_final, nx, nt in bad:
        with pytest.raises(DomainError):
            crank_nicolson(parabolic[0], quadratic, t_final, nx, nt)


def test_fd_eigenvalues_constant(const1):
    vals = fd_eigenvalues(const1[0], 4, 256)
    for v, m in zip(vals, (1, 2, 3, 4)):
        assert v == pytest.approx(-((m * math.pi) ** 2), abs=1e-5)


def test_fd_eigenvalues_parabolic_reference(parabolic):
    vals = fd_eigenvalues(parabolic[0], 4, 512)
    for v, ref in zip(vals, CHEBFUN):
        assert v == pytest.approx(ref, abs=1e-3)


def test_fd_eigenvalues_match_lapack(parabolic):
    # same tridiagonal matrix, assembled densely, through an independent
    # LAPACK driver (reduction plus divide-and-conquer, not stebz bisection)
    c, _ = parabolic
    nx = 256
    h = 1.0 / nx
    faces = c.sigma_sq(np.linspace(0.5 * h, 1.0 - 0.5 * h, nx))
    diag = -(faces[1:] + faces[:-1]) / h**2
    off = faces[1:-1] / h**2
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    ref = np.linalg.eigvalsh(dense)[::-1][:30]
    from varheat.oracles import _tridiag_eigs_top

    mine = _tridiag_eigs_top(c, 30, nx)
    assert np.max(np.abs(np.asarray(mine) - ref)) < 1e-8


def test_fd_eigenvalues_count_limited_by_coarse_grid(parabolic):
    # the coarse grid has only nx - 1 eigenvalues
    assert len(fd_eigenvalues(parabolic[0], 63, 64)) == 63
    with pytest.raises(DomainError):
        fd_eigenvalues(parabolic[0], 66, 64)
    # non-integer sizes used to escape as an untyped TypeError
    for count, nx in ((4, 64.0), (4.0, 64)):
        with pytest.raises(DomainError, match="integer"):
            fd_eigenvalues(parabolic[0], count, nx)
    with pytest.raises(DomainError, match="integer"):
        fd_eigenvector(parabolic[0], 1, 64.0)
    # nx = 1 used to return a NaN vector after a RuntimeWarning
    for nx in (1, 63):
        with pytest.raises(DomainError, match="nx >= 64"):
            fd_eigenvector(parabolic[0], 1, nx)
    # the grid has nx - 1 modes
    for m in (0, 64, 1.0, -1):
        with pytest.raises(DomainError, match="mode 1 <= m <= nx - 1"):
            fd_eigenvector(parabolic[0], m, 64)


@pytest.mark.parametrize("name", ["parabolic24", "rational9000", "constant"])
def test_fd_eigenvector_by_mode_matches_dense_eigh(name):
    # mode m's vector from one stebz/stein call, against a dense symmetric
    # eigensolver of the same matrix under the same norm and sign; stein
    # makes the largest entry positive, which for constant sigma leaves
    # modes 2, 3, 6, 7 and 8 with a negative slope until the sign is fixed
    c = make_conductivity(name)
    nx = 256
    diag, off = _fd_operator(c, nx)
    _, dense = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    for m in range(1, 9):
        x, v = fd_eigenvector(c, m, nx)
        ref = np.concatenate([[0.0], dense[:, -m], [0.0]])
        ref /= math.sqrt(np.trapezoid(ref**2, x)) * np.sign(ref[1])
        assert v[0] == v[-1] == 0.0
        assert np.max(np.abs(v - ref)) < 1e-11
        assert abs(np.trapezoid(v**2, x) - 1.0) < 1e-12
        assert v[1] > 0.0
        assert np.array_equal(v, fd_eigenvector(c, m, nx)[1])


def _fd_profile(name):
    """A named profile, or "table33": a 33-knot exp-sine table."""
    if name == "table33":
        return exp_sine_profile(33, (0.2, -0.1, 0.05), (0.3, 1.9, 4.0))
    return make_conductivity(name)


def _count_below(diag, off, shifts):
    """Eigenvalues of the symmetric tridiagonal (diag, off) below each shift:
    the negative pivots of T - s = L D L^T (Sylvester), in long double."""
    diag, off, shifts = (np.asarray(v, dtype=np.longdouble) for v in (diag, off, shifts))
    q = diag[0] - shifts
    below = (q < 0).astype(int)
    for d, e in zip(diag[1:], off**2):
        q = (d - shifts) - e / q
        below += q < 0
    return below


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="the certificate needs extended-precision Sturm counts")
@pytest.mark.parametrize("nx", [1024, 2048])
@pytest.mark.parametrize("name", ["parabolic24", "rational9000", "table33"])
def test_fd_top_eigenvalues_certified_to_1e11(name, nx):
    # Each of the 30 Lanczos eigenvalues is within 1e-11 relative of the
    # matrix's own: the m-th largest lies between lam(1 +- 1e-11) by Sturm
    # counts.  Default stebz bisection is off by up to 7.9e-10 here, and
    # bisection run to tol=1e-300 by up to 1.5e-11.
    c = _fd_profile(name)
    vals = _tridiag_eigs_top(c, 30, nx)
    diag, off = _fd_operator(c, nx)
    m = np.arange(30)
    below = _count_below(diag, off, np.concatenate([vals * (1 + 1e-11), vals * (1 - 1e-11)]))
    assert np.all(below[:30] <= diag.size - 1 - m)
    assert np.all(below[30:] >= diag.size - m)


@pytest.mark.parametrize("count", [4, 30])
@pytest.mark.parametrize("name", ["parabolic24", "rational9000", "table33"])
def test_fd_lanczos_tolerance_keeps_the_eigenvalues(name, count):
    # Lanczos stopped at residual _LANCZOS_TOL against the same Lanczos run
    # to machine precision (measured within 2.8e-15)
    from scipy.linalg.lapack import dpttrf, dpttrs
    from scipy.sparse.linalg import LinearOperator, eigsh

    c, nx = _fd_profile(name), 1024
    diag, off = _fd_operator(c, nx)
    M = diag.size
    d, e, _ = dpttrf(-diag, -off)
    inverse = LinearOperator((M, M), matvec=lambda v: dpttrs(d, e, v)[0], dtype=float)
    mu = eigsh(inverse, k=count, tol=0, v0=np.random.default_rng(0).standard_normal(M),
               ncv=max(2 * count + 1, 20), return_eigenvectors=False)
    ref = -1.0 / np.sort(mu)[::-1]
    got = _tridiag_eigs_top(c, count, nx)
    assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-13


def test_fd_lanczos_is_deterministic(parabolic):
    a = _tridiag_eigs_top(parabolic[0], 30, 1024)
    b = _tridiag_eigs_top(parabolic[0], 30, 1024)
    assert np.array_equal(a, b)


def test_fd_lanczos_failure_is_typed(parabolic, monkeypatch):
    import scipy.sparse.linalg as sla

    def stalled(*args, **kwargs):
        raise sla.ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))

    monkeypatch.setattr(sla, "eigsh", stalled)
    with pytest.raises(NoConvergence, match="0 of 4"):
        fd_eigenvalues(parabolic[0], 4, 64)


def test_fd_eigenvalues_rational_stability(rational):
    a = fd_eigenvalues(rational[0], 3, 256)
    b = fd_eigenvalues(rational[0], 3, 512)
    assert np.max(np.abs(np.asarray(a) - b)) < 1e-4


def test_fourier_solution_basics():
    v = fourier_solution(1.0, sine, 0.5, 0.1, 5)
    assert v == pytest.approx(math.exp(-math.pi**2 * 0.1), abs=1e-12)
    # coefficient decay of x(1-x): b_m = 8/(m pi)^3 for odd m
    tail = [abs(fourier_solution(1.0, quadratic, 0.5, 0.0 + 1e-12, m)
                - fourier_solution(1.0, quadratic, 0.5, 0.0 + 1e-12, m + 2))
            for m in (1, 3, 5)]
    for m, t in zip((3, 5, 7), tail):
        assert t == pytest.approx(8.0 / (m * math.pi) ** 3, rel=1e-2)
    # recovers the profile at t -> 0
    assert fourier_solution(1.0, quadratic, 0.3, 1e-12, 400) == pytest.approx(
        0.21, abs=1e-5)
    # NaN used to come back as NaN, and t < 0 as inf with an overflow warning
    for sigma, t in ((math.nan, 0.1), (math.inf, 0.1), (0.0, 0.1),
                     (1.0, math.nan), (1.0, -1.0), (1.0, 0.0), (1.0, math.inf)):
        with pytest.raises(DomainError, match="finite and positive"):
            fourier_solution(sigma, quadratic, 0.5, t, 5)
    # modes = 5.5 used to sum 6 modes, and nan to raise a bare ValueError
    for modes in (0, 5.5, math.nan, 5.0):
        with pytest.raises(DomainError, match="integer modes"):
            fourier_solution(1.0, quadratic, 0.5, 0.1, modes)
