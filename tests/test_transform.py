import dataclasses
import math
import tracemalloc
import unittest.mock
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varheat import SeriesSpec, build_travel_time, make_conductivity, simplex, transform
from varheat.errors import (
    DenominatorNearZero,
    DomainError,
    TailTooLarge,
    ToleranceNotReached,
)
from varheat.oracles import fourier_solution
from varheat.simplex import _prefix_series, simplex_terms, term_bound
from varheat.transform import (
    Contour,
    _phi_batch,
    delta_values,
    solve,
    solve_grid,
)

from conftest import exp_sine_profile, profiles, quadratic, sine
from tuples import phi_fn, tuple_terms

FIGURE2_TS = [0.25, 1.0, 4.0]

# Frozen closed form (symbolic integration of the sine products):
# Phi(k=2, x=0.3) for sigma = 1, q0 = sin(pi y).
PHI_CONST_K2_X03 = 0.2506598472315638


def test_delta_constant_is_sine(const1, spec2):
    c, tt = const1
    ks = np.array([0.7, 2.0, 1.0 + 1.0j])
    assert np.allclose(delta_values(c, tt, ks, spec2), np.sin(ks), rtol=0.0, atol=1e-12)


def test_delta_oddness(parabolic, spec2):
    c, tt = parabolic
    d = delta_values(c, tt, np.array([1.7, -1.7]), spec2)
    assert d[1] == pytest.approx(-d[0], abs=1e-13)


def test_delta_values_vectorized(parabolic, spec2):
    c, tt = parabolic
    ks = np.array([0.3, 1.1, 2.9])
    vals = delta_values(c, tt, ks, spec2)
    assert vals.dtype == float
    for k, v in zip(ks, vals):
        assert v == pytest.approx(tuple_terms(c, tt, 0.0, 1.0, k, 2).sum().real, abs=1e-12)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(c=profiles, k=st.floats(0.0, 30.0))
def test_delta_values_odd_real_and_resolved_by_panel_rule(c, k):
    # The tuples' Gauss rules straddle the knots of a tabulated sigma and
    # are off by up to 7.4e-4 there, so every drawn profile is checked
    # against the same recursion on 8x the panels.  The summed
    # simplex_terms over (0, 1) run on the same recursion and panels.
    tt = build_travel_time(c)
    spec = SeriesSpec(truncation_N=2)
    assert abs(simplex_terms(c, tt, 0.0, 1.0, k, spec).sum()
               - delta_values(c, tt, k, spec)) <= 1e-13
    ks = np.linspace(0.5, 10.0 * math.pi / tt.total, 7)
    vals = delta_values(c, tt, ks, spec)
    assert vals.dtype == float
    assert np.max(np.abs(delta_values(c, tt, -ks, spec) + vals)) <= 1e-12
    with unittest.mock.patch.object(transform, "_panel_count",
                                    lambda k, total: 8 * simplex._panel_count(k, total)):
        ref = delta_values(c, tt, ks, spec)
    assert np.max(np.abs(vals - ref)) <= 1e-13


@pytest.mark.parametrize("profile", ["parabolic", "rational"])
def test_delta_values_match_scalar_series(profile, request):
    # on the closed-form profiles the tuples converge; q = 96 resolves them
    # at k up to 10 pi / tau(1)
    c, tt = request.getfixturevalue(profile)
    spec = SeriesSpec(truncation_N=2)
    ks = np.linspace(0.5, 10.0 * math.pi / tt.total, 7)
    ref = np.array([tuple_terms(c, tt, 0.0, 1.0, k, 2, quad_order=96).sum().real for k in ks])
    assert np.max(np.abs(delta_values(c, tt, ks, spec) - ref)) <= 1e-12


def test_delta_at_large_k_matches_high_order_tuples(parabolic):
    # at k = 25.3 the q = 32 tuples give 0.8546; the recursion and q = 96
    # agree on 0.7784
    c, tt = parabolic
    got = delta_values(c, tt, np.array([25.3]), SeriesSpec(truncation_N=2))[0]
    ref = tuple_terms(c, tt, 0.0, 1.0, 25.3, 2, quad_order=96).sum()
    assert abs(got - ref) <= 1e-12


def test_delta_values_builds_no_term_tables(parabolic, spec2, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("delta_values built term tables")

    for module in (transform, simplex):
        monkeypatch.setattr(module, "build_term_tables", refuse)
    ks = np.array([0.3, 40.0, 2.0 + 1.0j, -3.0 - 0.5j])
    assert np.all(np.isfinite(delta_values(*parabolic, ks, spec2)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(1.0, math.nan)])
def test_delta_values_rejects_non_finite_k(parabolic, spec2, bad):
    with pytest.raises(DomainError, match="finite"):
        delta_values(*parabolic, np.array([1.0, bad]), spec2)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(c=profiles)
def test_delta_values_mirror_symmetric_at_complex_k(c):
    # sigma real makes every term odd in k with real coefficients, so
    # Delta(-conj(k)) = -conj(Delta(k)): the symmetry solve_grid relies on
    tt = build_travel_time(c)
    spec = SeriesSpec(truncation_N=2)
    ks = np.linspace(-8.0, 8.0, 9) + 1j * np.linspace(0.2, 3.0, 9)
    vals = delta_values(c, tt, ks, spec)
    mirrored = delta_values(c, tt, -np.conj(ks), spec)
    assert np.max(np.abs(mirrored + np.conj(vals))) <= 1e-14 * max(1.0, np.abs(vals).max())


def test_delta_matches_interface_determinant(parabolic, spec2, spec3):
    # The 2000-cell piecewise-constant model, evaluated straight from the
    # scaled determinant, approaches the characteristic function.  k = 1.0
    # sits almost exactly on a zero of the untruncated function, so the
    # N = 2 comparison is dominated by the omitted third series term; the
    # defensible bound is that term's envelope plus the O(1/cells) of the
    # discrete model.
    from varheat.oracles import dn_det, uniform_partition

    c, tt = parabolic
    part = uniform_partition(c, 2000)
    lhs = dn_det(part, 1.0)
    gap2 = abs(lhs - delta_values(c, tt, np.array([1.0]), spec2)[0])
    assert gap2 < term_bound(c, tt, 3, 0.0, 1.0, 1.0) + 5e-4
    # at matching truncation depth the agreement is far tighter
    gap3 = abs(lhs - delta_values(c, tt, np.array([1.0]), spec3)[0])
    assert gap3 < 5e-4


def test_phi_closed_form_constant(const1, spec2):
    c, tt = const1
    v = phi_fn(c, tt, 2.0, 0.3, sine, spec2)
    assert v.real == pytest.approx(PHI_CONST_K2_X03, abs=1e-9)
    assert abs(v.imag) < 1e-14


def test_phi_vanishes_at_endpoints(parabolic, spec2):
    c, tt = parabolic
    assert phi_fn(c, tt, 1.3, 0.0, quadratic, spec2) == 0.0
    assert phi_fn(c, tt, 1.3, 1.0, quadratic, spec2) == 0.0


def test_phi_regularized_consistency(parabolic, spec2):
    c, tt = parabolic
    k = 2.0 + 1.0j
    reg = phi_fn(c, tt, k, 0.4, quadratic, spec2, regularized=True)
    plain = phi_fn(c, tt, k, 0.4, quadratic, spec2)
    assert reg == pytest.approx(np.exp(1j * k * tt.total) * plain, abs=1e-12)


def test_contour_validation():
    for bad in ({"step": 0.0, "end": 3.0}, {"step": 0.1, "end": 0.0},
                {"step": 0.1, "end": 3.0, "s": 0.0}, {"step": 0.1, "end": math.inf},
                {"step": math.inf, "end": 3.0}, {"step": 0.1, "end": 3.0, "s": math.inf}):
        with pytest.raises(DomainError):
            Contour(**bad)
    with pytest.raises(DomainError):
        Contour.for_times([0.0, 1.0])
    with pytest.raises(DomainError):
        Contour.for_times([1.0], tol=0.0)
    # the end point follows the smallest time, the scale the largest
    alone = Contour.for_times([1.0])
    assert Contour.for_times([0.05, 1.0]).end > alone.end
    assert Contour.for_times([1.0, 20.0]).s < alone.s
    assert Contour.for_times([1.0], tol=1e-12).step < alone.step


@pytest.mark.parametrize("tol", [25.0, 100.0, 1e300, math.inf])
def test_contour_for_any_tol(parabolic, spec2, tol):
    # a loose tol gives the contour of tol = 20, whose error budget is 0; a
    # non-finite one is refused with a typed error
    if not math.isfinite(tol):
        with pytest.raises(DomainError, match="finite tol"):
            Contour.for_times([1.0], tol)
        return
    for ts in ([1.0], [1e-5, 50.0]):
        assert Contour.for_times(ts, tol) == Contour.for_times(ts, 20.0)
    res = solve_grid(*parabolic, quadratic, [0.5], [1.0], spec2, tail_tol=tol)[1.0][0]
    assert math.isfinite(res.value)
    # the heat-solve batch needs one contour of well under 128 nodes
    assert 2 * Contour.for_times([0.25, 1.0, 4.0]).half_count + 1 <= 128


def test_contour_mirror_symmetry():
    cont = Contour(step=0.3, end=2.0, s=1.1)
    ks, ws = cont.nodes()
    assert cont.half_count % 2 == 0 and ks.size == 2 * cont.half_count + 1
    # u -> -u maps k -> -conj(k) and dk/du -> conj(dk/du)
    assert np.allclose(ks[::-1], -np.conj(ks), rtol=0.0, atol=1e-14)
    assert np.allclose(ws[::-1], np.conj(ws), rtol=0.0, atol=1e-14)
    # the vertex is the lowest point and keeps off the real axis
    assert ks.imag.min() == pytest.approx(cont.s * math.tan(transform._DELTA), rel=1e-14)
    assert np.all(np.diff(ks.real) > 0.0)


def test_solve_constant_sigma_exact(const1, spec2):
    c, tt = const1
    s = solve(c, tt, sine, 0.5, 0.1, spec2)
    exact = math.exp(-math.pi**2 * 0.1) * math.sin(math.pi * 0.5)
    assert s.value == pytest.approx(exact, abs=1e-6)
    assert s.imag_residual < 1e-8


def test_solve_constant_matches_fourier_all_orders(const1, const2):
    for fixture, sig in ((const1, 1.0), (const2, 2.0)):
        c, tt = fixture
        res = solve_grid(c, tt, quadratic, [0.25, 0.5, 0.8], [0.1, 1.0],
                         SeriesSpec(truncation_N=2), all_orders=True)
        for t, per_order in res.items():
            for n, samples in per_order.items():
                for s in samples:
                    ref = fourier_solution(sig, quadratic, s.x, t, 400)
                    assert s.value == pytest.approx(ref, abs=1e-8), (sig, t, n, s.x)


def test_solve_parabolic_benchmark_point(parabolic, spec2):
    c, tt = parabolic
    s = solve(c, tt, quadratic, 0.5, 1.0, spec2)
    assert s.value == pytest.approx(0.25 * math.exp(-1.0), abs=2e-3)
    assert s.imag_residual < 1e-10


def test_solve_boundary_values_are_zero(parabolic, spec2):
    c, tt = parabolic
    res = solve_grid(c, tt, quadratic, [0.0, 1.0], [0.5], spec2)
    for s in res[0.5]:
        assert s.value == 0.0
    # boundary rows beside an interior x leave its value unchanged
    batch = solve_grid(c, tt, quadratic, [0.0, 0.37, 1.0], [0.5], spec2)[0.5]
    alone = solve_grid(c, tt, quadratic, [0.37], [0.5], spec2)[0.5]
    assert abs(batch[1].value - alone[0].value) <= 1e-15
    assert batch[0].value == batch[2].value == 0.0


@pytest.mark.parametrize("q0", [
    lambda y: np.where(y > 0.5, np.nan, y * (1.0 - y)),
    lambda y: (1.0 + 0.5j) * y * (1.0 - y),
    lambda y: np.ones(3),  # used to raise a broadcast ValueError
], ids=["nan", "complex", "shape"])
def test_solve_rejects_bad_q0(parabolic, spec2, q0):
    # the mirrored half of the contour is only valid for finite real q0
    c, tt = parabolic
    with pytest.raises(DomainError, match="q0 must be"):
        solve_grid(c, tt, q0, [0.3, 0.7], [1.0], spec2)


def test_scalar_q0_broadcasts(parabolic, spec2):
    c, tt = parabolic
    scalar = solve_grid(c, tt, lambda y: 0.5, [0.3, 0.7], [1.0], spec2)[1.0]
    full = solve_grid(c, tt, lambda y: np.full_like(y, 0.5), [0.3, 0.7], [1.0], spec2)[1.0]
    assert [s.value for s in scalar] == [s.value for s in full]


def _full_contour_solve(c, tt, q0, xs, ts, spec):
    """q_N from a sweep of every contour node, with no mirror."""
    N = spec.truncation_N
    ks, ws = Contour.for_times(ts).nodes()
    phi, regD = (r[N] for r in _phi_batch(c, tt, q0, ks, xs, spec))
    weighted = np.exp(-np.multiply.outer(ks**2, np.array(ts))) * ws[:, None]
    return ((phi / regD) @ weighted / (1j * math.pi)).real  # (X, T)


@pytest.mark.parametrize("profile", ["parabolic", "rational", "exp_sine"])
def test_solve_half_sweep_matches_full_contour(profile, request, spec2):
    if profile == "exp_sine":
        c = exp_sine_profile(33, (0.2, -0.1, 0.05), (0.3, 1.0, 2.0))
        tt = build_travel_time(c)
    else:
        c, tt = request.getfixturevalue(profile)
    xs = [0.15, 0.5, 0.83]
    ref = _full_contour_solve(c, tt, quadratic, xs, FIGURE2_TS, spec2)
    res = solve_grid(c, tt, quadratic, xs, FIGURE2_TS, spec2)
    for j, t in enumerate(FIGURE2_TS):
        for i, s in enumerate(res[t]):
            assert abs(s.value - ref[i, j]) <= 1e-13, (t, s.x)


@pytest.mark.parametrize("where, error", [
    ("phi at the last node", TailTooLarge),
    ("phi at an inner node", ToleranceNotReached),
    ("regDelta", DenominatorNearZero),
])
def test_nan_transform_raises(parabolic, spec2, monkeypatch, where, error):
    # NaN fails every comparison, so each a-posteriori check of the solve is
    # written to fail on it: a NaN transform raises, never returns NaN
    def nan_batch(*args):
        phi, regD = _phi_batch(*args)
        if where == "regDelta":
            regD[:] = math.nan
        else:
            phi[..., -1 if where == "phi at the last node" else 1] = math.nan
        return phi, regD

    monkeypatch.setattr(transform, "_phi_batch", nan_batch)
    with pytest.raises(error):
        solve_grid(*parabolic, quadratic, [0.5], [1.0], spec2)


def test_solve_sweeps_half_the_contour(parabolic, spec2, monkeypatch):
    # no term tables; the prefix recursion runs once per side and panel grid,
    # and the grids together take each of the half_count + 1 nodes once
    c, tt = parabolic
    swept = []

    def refuse(*args, **kwargs):
        raise AssertionError("solve_grid built term tables")

    def counting(panels, k, N, *args):
        swept.append(np.asarray(k))
        return _prefix_series(panels, k, N, *args)

    for module in (transform, simplex):
        monkeypatch.setattr(module, "build_term_tables", refuse)
    monkeypatch.setattr(transform, "_prefix_series", counting)
    solve_grid(c, tt, quadratic, np.linspace(0.0, 1.0, 21), FIGURE2_TS, spec2,
               all_orders=True)
    cont = Contour.for_times(FIGURE2_TS)
    half = cont.nodes()[0][cont.half_count:]
    # the left series and the reflected right series of each grid
    assert len(swept) % 2 == 0 and all(np.array_equal(swept[i], swept[i + 1])
                                       for i in range(0, len(swept), 2))
    assert sorted(np.concatenate(swept[::2]), key=lambda k: k.real) == list(half)


def test_solve_working_set(parabolic, spec2):
    # the recursion yields one order at a time and the cumulative integrals
    # work in place: a warm figure-2 solve peaks at 1569 KiB of traced
    # memory, where the stacked orders peaked at 2256 KiB
    c, tt = parabolic
    xs = np.linspace(0.0, 1.0, 21)
    solve_grid(c, tt, quadratic, xs, FIGURE2_TS, spec2, all_orders=True)  # builds the grid
    tracemalloc.start()
    try:
        solve_grid(c, tt, quadratic, xs, FIGURE2_TS, spec2, all_orders=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1720 * 1024


def test_solve_realness_residual(parabolic, spec2):
    c, tt = parabolic
    res = solve_grid(c, tt, quadratic, np.linspace(0.1, 0.9, 5), [0.5], spec2)
    for s in res[0.5]:
        assert s.imag_residual <= 1e-8 * max(1.0, abs(s.value))


def test_solve_large_time_decay(parabolic, spec2):
    c, tt = parabolic
    v1 = solve(c, tt, quadratic, 0.5, 1.0, spec2).value
    v5 = solve(c, tt, quadratic, 0.5, 5.0, spec2).value
    lam1 = -1.0006
    assert abs(v5) <= math.exp(lam1 * 4.0) * abs(v1) * 1.1


@pytest.mark.parametrize("t", [1.0, 0.01])
def test_solve_batched_matches_pointwise_phi(parabolic, spec2, t):
    # cross-check of the production batched kernel against the direct
    # pointwise quadrature path; the t = 0.01 contour reaches Im k = 21.6,
    # where exp(Im k tau(1)) ~ 2e28.  At quad_order = 32 the reference
    # itself is off by 8.6e-8 there, so it runs at 64.
    c, tt = parabolic
    ks, _ = Contour.for_times([t]).nodes()
    # nine nodes spanning the whole contour, both ends included
    probe = ks[np.round(np.linspace(0, ks.size - 1, 9)).astype(int)]
    phi, _ = _phi_batch(c, tt, quadratic, probe, [0.35, 0.8], spec2)
    for i, x in enumerate((0.35, 0.8)):
        for j, k in enumerate(probe):
            direct = phi_fn(c, tt, k, x, quadratic, spec2, regularized=True, quad_order=64)
            assert abs(phi[2, i, j] - direct) < 1e-9


@pytest.mark.parametrize("t, tol", [(0.01, 1e-5), (1e-4, 1e-6), (1e-5, 1e-6)])
def test_solve_small_times_match_exact(parabolic, spec2, t, tol):
    # x(1-x) e^{-t} is exact on parabolic24.  Small times put the contour
    # end high in the upper half plane (|k| ~ 2000 at t = 1e-5), where every
    # series value must stay bounded and resolved: no overflow warning, no
    # NaN, no tail refusal.
    c, tt = parabolic
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = solve_grid(c, tt, quadratic, [0.1, 0.3, 0.5], [t], spec2)[t]
    for s in res:
        assert math.isfinite(s.value)
        assert abs(s.value - quadratic(s.x) * math.exp(-t)) <= tol, s.x


@pytest.mark.parametrize("t", [1e-4, 1e-5])
def test_small_time_errors_kept_by_panel_rule(parabolic, t, monkeypatch):
    # The contours of these times reach |k| ~ 2000.  The panel rule adds no
    # error there: the production solve agrees with 8x the panels.  And the
    # solve is exact but for its truncation: at N = 8 it is within 2e-13
    # of x(1-x) e^{-t}, so the N = 2 error of the same solve is the
    # truncation's alone.
    c, tt = parabolic
    xs, spec = [0.1, 0.3, 0.5], SeriesSpec(truncation_N=8)
    res = solve_grid(c, tt, quadratic, xs, [t], spec, tail_tol=1e-11, all_orders=True)[t]
    production = solve_grid(c, tt, quadratic, xs, [t], SeriesSpec(truncation_N=2))[t]
    rule = simplex._panel_count
    monkeypatch.setattr(transform, "_panel_count", lambda k, total: 8 * rule(k, total))
    fine = solve_grid(c, tt, quadratic, xs, [t], SeriesSpec(truncation_N=2))[t]
    assert max(abs(a.value - b.value) for a, b in zip(production, fine)) <= 1e-13
    assert max(abs(s.value - quadratic(s.x) * math.exp(-t)) for s in res[8]) <= 2e-13


@settings(max_examples=12, deadline=None, derandomize=True)
@given(c=profiles,
       ks=st.lists(st.builds(lambda r, a: r * np.exp(1j * a), st.floats(0.5, 300.0),
                             st.just(0.0) | st.floats(0.0, math.pi / 2)),
                   min_size=1, max_size=4))
def test_panel_rule_resolves_phi_and_delta(c, ks):
    # At the panel count the rule picks, Phi_4 and regDelta_4 agree with 4x
    # the panels to 1e-12 of their largest value, on the real axis and in
    # the upper half plane.  The 1e-15 floor is the roundoff of Phi's O(1)
    # factors: at real |k| = 300 Phi falls to about 5e-5, so its 3e-16 of
    # roundoff alone is 6e-12 of it.
    tt = build_travel_time(c)
    ks = np.array(ks, dtype=complex)
    spec = SeriesSpec(truncation_N=4)
    xs = [0.3, 0.71]
    got = _phi_batch(c, tt, quadratic, ks, xs, spec)
    rule = simplex._panel_count
    with unittest.mock.patch.object(transform, "_panel_count",
                                    lambda k, total: 4 * rule(k, total)):
        ref = _phi_batch(c, tt, quadratic, ks, xs, spec)
    for a, b in zip(got, ref):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)) + 1e-15


def test_table_q0_knots_make_panel_edges(parabolic, monkeypatch):
    # A rough 15-knot PCHIP q0 is only C^1 at its knots.  Merged into the
    # panel edges, they make the solve agree with 8x the panels to 1e-12;
    # left inside panels they cost about 1e-4.
    from scipy.interpolate import PchipInterpolator

    c, tt = parabolic
    rng = np.random.default_rng(7)
    knots = np.concatenate([[0.0], np.sort(rng.uniform(0.02, 0.98, 13)), [1.0]])
    q0 = PchipInterpolator(knots, np.concatenate([[0.0], rng.uniform(-1.0, 1.0, 13), [0.0]]))
    xs, ts, spec = np.linspace(0.0, 1.0, 11), [0.01, 0.25, 1.0], SeriesSpec(truncation_N=4)

    def values(q0_knots):
        res = solve_grid(c, tt, q0, xs, ts, spec, q0_knots=q0_knots)
        return np.array([[s.value for s in res[t]] for t in ts])

    merged, plain = values(knots), values(())
    rule = simplex._panel_count
    monkeypatch.setattr(transform, "_panel_count", lambda k, total: 8 * rule(k, total))
    assert np.max(np.abs(merged - values(knots))) <= 1e-12
    assert np.max(np.abs(plain - values(()))) > 1e-6
    with pytest.raises(DomainError, match="q0_knots"):
        solve_grid(c, tt, q0, xs, ts, spec, q0_knots=[0.5, math.nan])


def test_solve_high_order_matches_exact(parabolic):
    # the recursion costs linear in N, so N = 6 is cheap; its truncation
    # error is far below the N = 2 one (5.9e-5 at t = 1)
    c, tt = parabolic
    xs = np.linspace(0.05, 0.95, 19)
    res = solve_grid(c, tt, quadratic, xs, [0.05, 1.0], SeriesSpec(truncation_N=6))
    for t, samples in res.items():
        for s in samples:
            assert abs(s.value - quadratic(s.x) * math.exp(-t)) <= 1e-9, (t, s.x)


def test_solve_on_unaligned_table_matches_crank_nicolson():
    # A 40-knot PCHIP table: its knots miss the uniform panel edges and must
    # be merged into them.  Reference: Crank-Nicolson at nx = nt = 800 and
    # 1600, Richardson-extrapolated (second order in h and dt).
    from varheat.oracles import crank_nicolson

    c = exp_sine_profile(40, (0.2, -0.1, 0.05), (0.3, 1.0, 2.0))
    tt = build_travel_time(c)
    t, xs = 0.25, np.linspace(0.0, 1.0, 21)
    coarse = crank_nicolson(c, quadratic, t, 800, 800)[1][::40]
    fine = crank_nicolson(c, quadratic, t, 1600, 1600)[1][::80]
    ref = (4.0 * fine - coarse) / 3.0
    res = solve_grid(c, tt, quadratic, xs, [t], SeriesSpec(truncation_N=5))[t]
    assert np.max(np.abs([s.value for s in res] - ref)) <= 1e-8


@pytest.mark.parametrize("profile", ["parabolic", "rational"])
def test_regularized_delta_on_small_time_contour(profile, request):
    # regDelta of the solve against the scalar regularized series at
    # quad_order = 96 on the t = 0.01 contour (Im k up to 21.6)
    c, tt = request.getfixturevalue(profile)
    spec = SeriesSpec(truncation_N=2)
    cont = Contour.for_times([0.01])
    ks = cont.nodes()[0][cont.half_count:]
    regD = _phi_batch(c, tt, quadratic, ks, [0.5], spec)[1][2]
    for k, got in zip(ks, regD):
        ref = tuple_terms(c, tt, 0.0, 1.0, k, 2, quad_order=96, shift=tt.total).sum()
        assert abs(got - ref) <= 1e-12, k


@pytest.mark.parametrize("tail_tol", [math.nan, math.inf, 0.0, -1.0])
def test_solve_rejects_bad_tail_tol(parabolic, spec2, tail_tol):
    # NaN passes no comparison, so it would skip both a-posteriori checks
    c, tt = parabolic
    for contour in (None, Contour(step=0.1, end=1.0)):
        with pytest.raises(DomainError, match="tail_tol"):
            solve_grid(c, tt, quadratic, [0.5], [1.0], spec2, contour=contour,
                       tail_tol=tail_tol)


def test_solve_input_validation(parabolic, spec2):
    c, tt = parabolic
    with pytest.raises(DomainError):
        solve(c, tt, quadratic, 0.5, -1.0, spec2)
    with pytest.raises(DomainError):
        solve(c, tt, quadratic, 1.5, 1.0, spec2)


def test_solve_rejects_nan_x(parabolic, spec2):
    # NaN fails every comparison, so it must not pass as a boundary point
    c, tt = parabolic
    with pytest.raises(DomainError, match="x="):
        solve_grid(c, tt, quadratic, [0.5, math.nan], [1.0], spec2)


def test_solve_rejects_empty_grid(parabolic, spec2):
    c, tt = parabolic
    with pytest.raises(DomainError, match="at least one x"):
        solve_grid(c, tt, quadratic, [], [1.0], spec2)
    with pytest.raises(DomainError, match="at least one x"):
        solve_grid(c, tt, quadratic, [0.5], [], spec2, contour=Contour(step=0.3, end=3.0))


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_solve_rejects_non_finite_t(parabolic, spec2, t):
    c, tt = parabolic
    with pytest.raises(DomainError, match="t="):
        solve_grid(c, tt, quadratic, [0.5], [1.0, t], spec2)
    with pytest.raises(DomainError, match="finite"):
        Contour.for_times([1.0, t])


def test_denominator_floor_triggers(parabolic, spec2):
    # s tan(delta) -> 0 puts the vertex on the zero of Delta at k = 0
    c, tt = parabolic
    flat = Contour(step=0.1, end=3.0, s=1e-13)
    with pytest.raises(DenominatorNearZero):
        solve(c, tt, quadratic, 0.5, 1.0, spec2, contour=flat)


def test_tail_guard_triggers(parabolic, spec2):
    c, tt = parabolic
    short = Contour(step=0.1, end=1.0)
    with pytest.raises(TailTooLarge):
        solve(c, tt, quadratic, 0.5, 0.05, spec2, contour=short)


def test_step_guard_triggers(parabolic, spec2):
    # a step sized for small times misses the growth on the far edge of the
    # strip at t = 20; the step-halving estimate refuses it
    c, tt = parabolic
    coarse = Contour(step=7.4 / 63, end=3.7)
    with pytest.raises(ToleranceNotReached):
        solve(c, tt, quadratic, 0.3, 20.0, spec2, contour=coarse)


@pytest.mark.parametrize("profile", ["parabolic", "rational"])
def test_wide_time_batch_matches_refined_single_solves(profile, request, spec2):
    # One contour serves t from 0.05 to 20: every batched value equals the
    # same time solved alone on a contour with twice the nodes.
    c, tt = request.getfixturevalue(profile)
    xs, ts = [0.3, 0.5], [0.05, 0.5, 5.0, 20.0]
    batch = solve_grid(c, tt, quadratic, xs, ts, spec2)
    for t in ts:
        alone = Contour.for_times([t])
        fine = dataclasses.replace(alone, step=alone.step / 2.0)
        ref = solve_grid(c, tt, quadratic, xs, [t], spec2, contour=fine)[t]
        for got, want in zip(batch[t], ref):
            assert abs(got.value - want.value) <= 1e-9, (t, got.x)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(sigma=st.floats(0.5, 2.0),
       ts=st.lists(st.floats(0.02, 20.0), min_size=1, max_size=4))
def test_constant_sigma_batches_match_fourier(sigma, ts):
    c = make_conductivity("constant", c=sigma)
    tt = build_travel_time(c)
    xs = [0.2, 0.5, 0.9]
    res = solve_grid(c, tt, quadratic, xs, ts, SeriesSpec(truncation_N=1))
    for t, samples in res.items():
        ref = fourier_solution(sigma, quadratic, np.array(xs), t, 400)
        for s, want in zip(samples, ref):
            assert s.value == pytest.approx(want, abs=1e-8), (sigma, t, s.x)
