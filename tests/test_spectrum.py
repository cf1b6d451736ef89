import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from varheat import SeriesSpec, build_travel_time, make_conductivity, simplex, spectrum, transform
from varheat.errors import DomainError, NoConvergence
from varheat.oracles import fd_eigenvalues
from varheat.simplex import _grid, simplex_terms
from varheat.spectrum import eigenfunction, find_eigenvalues
from varheat.transform import delta_values
from varheat.verify import TABLE1_VALUES as TABLE

from conftest import exp_sine_profile, parabolic_exact_kappas, profiles, stacked_series


def test_constant_sigma_eigenvalues(const1):
    pairs = find_eigenvalues(*const1, SeriesSpec(truncation_N=2), 3)
    for p, m in zip(pairs, (1, 2, 3)):
        assert p.lam == pytest.approx(-((m * math.pi) ** 2), abs=1e-10)
        assert p.kappa > 0 and p.lam < 0


@pytest.mark.parametrize("N", [0, 1, 2])
def test_published_table_rows(parabolic, N):
    c, tt = parabolic
    pairs = find_eigenvalues(c, tt, SeriesSpec(truncation_N=N), 4)
    for p, ref in zip(pairs, TABLE[N]):
        assert p.lam == pytest.approx(ref, abs=5e-4)
    kappas = [p.kappa for p in pairs]
    assert all(b > a for a, b in zip(kappas, kappas[1:]))


def test_residuals_are_tiny(parabolic, spec2):
    c, tt = parabolic
    for p in find_eigenvalues(c, tt, spec2, 4):
        assert p.residual <= 1e-12


def test_find_eigenvalues_builds_no_term_tables(spec2, monkeypatch):
    # the roots come from the prefix recursion, and the profile's grid table
    # builds each panel grid once for the scan and every iteration
    def refuse(*args, **kwargs):
        raise AssertionError("find_eigenvalues built term tables")

    built = []
    plain_panels = simplex._panels

    def counting_panels(c, tt, edges):
        built.append(edges.tobytes())
        return plain_panels(c, tt, edges)

    monkeypatch.setattr(spectrum, "build_term_tables", refuse)
    monkeypatch.setattr(simplex, "build_term_tables", refuse)
    monkeypatch.setattr(transform, "build_term_tables", refuse)
    monkeypatch.setattr(simplex, "_panels", counting_panels)
    c = make_conductivity("parabolic24")
    assert len(spectrum.find_eigenvalues(c, build_travel_time(c), spec2, 30)) == 30
    assert built and len(built) == len(set(built))


def _count_delta_calls(monkeypatch, replace=None):
    """Record the wavenumbers of every ``delta_values`` call that
    ``find_eigenvalues`` makes; ``replace(n, vals)`` may alter call n's values."""
    calls = []
    plain = spectrum.delta_values

    def counting(c, tt, ks, spec):
        calls.append(ks)
        vals = plain(c, tt, ks, spec)
        return vals if replace is None else replace(len(calls), vals)

    monkeypatch.setattr(spectrum, "delta_values", counting)
    return calls


def test_find_eigenvalues_delta_budget(parabolic, spec2, monkeypatch):
    # one scan plus a few Brent steps per root
    calls = _count_delta_calls(monkeypatch)
    assert len(find_eigenvalues(*parabolic, spec2, 30)) == 30
    assert len(calls) <= 1 + 12 * 30


def test_find_eigenvalues_call_count(parabolic, spec2, monkeypatch):
    # the scan and every iteration, each one batched call over all brackets
    calls = _count_delta_calls(monkeypatch)
    assert len(find_eigenvalues(*parabolic, spec2, 30)) == 30
    assert len(calls) <= 30


def test_root_solver_failure_is_typed(parabolic, spec2, monkeypatch):
    # every Delta after the scan is NaN, so no bracket can close
    _count_delta_calls(monkeypatch, lambda n, vals: vals if n == 1 else np.full_like(vals, np.nan))
    with pytest.raises(NoConvergence, match="mode 1"):
        find_eigenvalues(*parabolic, spec2, 3)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(c=profiles)
def test_roots_increase_with_tiny_residuals(c):
    tt = build_travel_time(c)
    pairs = find_eigenvalues(c, tt, SeriesSpec(truncation_N=2), 10)
    kappas = np.array([p.kappa for p in pairs])
    assert kappas.size == 10 and kappas[0] > 0.0 and np.all(np.diff(kappas) > 0.0)
    assert max(p.residual for p in pairs) <= 1e-12


@settings(max_examples=20, deadline=None, derandomize=True)
@given(c=profiles)
def test_roots_match_brent_per_bracket(c):
    # the batched iteration stops on Brent's tolerances, so each root agrees
    # with a scalar Brent solve of the same scan bracket to a few eps
    tt = build_travel_time(c)
    spec = SeriesSpec(truncation_N=2)
    pairs = find_eigenvalues(c, tt, spec, 10)
    # the scan grid of find_eigenvalues for 10 roots
    step = math.pi / (4.0 * tt.total)
    grid = np.arange(step * 0.25, 13 * math.pi / tt.total, step)
    signs = np.sign(delta_values(c, tt, grid, spec))
    flips = np.nonzero(signs[:-1] * signs[1:] < 0)[0][:10]
    eps = np.finfo(float).eps
    for p, i in zip(pairs, flips):
        ref = brentq(lambda k: float(delta_values(c, tt, np.array([k]), spec)[0]),
                     grid[i], grid[i + 1], xtol=1e-15, rtol=4.0 * eps)
        assert abs(p.kappa - ref) <= 4.0 * eps * ref
        assert p.residual <= 1e-12


def test_parabolic_roots_at_N10_match_legendre_reference(parabolic):
    # parabolic24 is a Legendre problem with exact roots (conftest), and the
    # series has converged by N = 10, so all 30 roots agree to roundoff
    exact = parabolic_exact_kappas(30)
    assert np.all(np.diff(exact) > 0.0)
    pairs = find_eigenvalues(*parabolic, SeriesSpec(truncation_N=10), 30)
    lams = np.array([p.lam for p in pairs])
    assert np.max(np.abs(lams + exact**2) / exact**2) <= 1e-13


@pytest.mark.parametrize("profile", ["parabolic", "rational", "table33"])
def test_eigenfunctions_vanish_at_the_right_end(profile, request, spec2):
    # X_m(1) = Delta_N(kappa_m) / sqrt(sigma(1)) at every N, and the roots
    # come from the recursion that gives the eigenfunctions, also between
    # the knots of a tabulated profile
    if profile == "table33":
        c = exp_sine_profile(33, (0.25, -0.12, 0.08), (0.3, 1.9, 4.0))
        tt = build_travel_time(c)
    else:
        c, tt = request.getfixturevalue(profile)
    for pair in find_eigenvalues(c, tt, spec2, 8):
        assert abs(eigenfunction(c, tt, pair, spec2)(1.0)) <= 1e-12, pair.m


def test_count_validation(parabolic, spec2):
    for bad in (0, 2.5):
        with pytest.raises(DomainError):
            find_eigenvalues(*parabolic, spec2, bad)


def test_truncation_convergence_pattern(parabolic):
    # |lam(N=2) - ref| < |lam(N=1) - ref| < |lam(N=0) - ref| with the
    # independent finite-difference spectrum as reference
    c, tt = parabolic
    refs = fd_eigenvalues(c, 4, 512)
    errs = {}
    for N in (0, 1, 2):
        pairs = find_eigenvalues(c, tt, SeriesSpec(truncation_N=N), 4)
        errs[N] = [abs(p.lam - r) for p, r in zip(pairs, refs)]
    for m in range(4):
        assert errs[2][m] < errs[1][m] < errs[0][m]


def test_constant_eigenfunctions_are_sines(const1, spec2):
    c, tt = const1
    pairs = find_eigenvalues(c, tt, spec2, 3)
    xs = np.linspace(0.0, 1.0, 101)
    for p in pairs:
        ef = eigenfunction(c, tt, p, spec2)
        ref = math.sqrt(2.0) * np.sin(p.m * math.pi * xs)
        assert np.max(np.abs(ef(xs) - ref)) < 1e-8


@settings(max_examples=20, deadline=None, derandomize=True)
@given(sigma=st.floats(0.2, 3.0), m=st.integers(1, 6))
def test_constant_sigma_eigenfunctions_are_exact_sines(sigma, m):
    c = make_conductivity("constant", c=sigma)
    tt = build_travel_time(c)
    spec = SeriesSpec(truncation_N=2)
    pair = find_eigenvalues(c, tt, spec, m)[m - 1]
    xs = np.linspace(0.0, 1.0, 101)
    ref = math.sqrt(2.0) * np.sin(m * math.pi * xs)
    assert np.max(np.abs(eigenfunction(c, tt, pair, spec)(xs) - ref)) < 1e-8


def test_eigenfunctions_build_no_term_tables(parabolic, spec2, monkeypatch):
    from varheat import simplex, spectrum

    c, tt = parabolic
    pairs = find_eigenvalues(c, tt, spec2, 4)

    def refuse(*args, **kwargs):
        raise AssertionError("eigenfunction built term tables")

    monkeypatch.setattr(spectrum, "build_term_tables", refuse)
    monkeypatch.setattr(simplex, "build_term_tables", refuse)
    xs = np.linspace(0.0, 1.0, 101)
    for p in pairs:
        ef = eigenfunction(c, tt, p, spec2)
        assert np.all(np.isfinite(ef(xs)))
    for bad in (np.array([1.2]), -0.1, np.nan):
        with pytest.raises(DomainError):
            ef(bad)


def test_eigenfunction_panels_include_table_knots():
    # sigma'' of a PCHIP profile jumps at its 40 knots, which miss the
    # uniform panel edges; the reference on 2048 panels (knots
    # merged too) is converged to roundoff.
    c = exp_sine_profile(40, (0.2, -0.1, 0.05), (0.3, 1.9, 4.0))
    tt = build_travel_time(c)
    spec = SeriesSpec(truncation_N=2)
    xs = np.linspace(0.0, 1.0, 101)
    panels, at_x = _grid(c, tt, 2048, xs)
    for pair in find_eigenvalues(c, tt, spec, 8):
        at_nodes, at_edges = (r.sum(axis=0)[..., 0]
                              for r in stacked_series(panels, pair.kappa, 2))
        real = [(np.exp(-1j * pair.kappa * tau) * r).real
                for tau, r in ((panels.tau, at_nodes), (panels.tau_edges, at_edges))]
        raw = real[0] / np.sqrt(c.sigma(panels.pts))
        ref = real[1][at_x] / np.sqrt(c.sigma(xs) * np.sum(panels.wts * raw**2))
        vals = eigenfunction(c, tt, pair, spec)(xs)
        assert np.max(np.abs(vals - np.sign(ref @ vals) * ref)) <= 1e-10


def test_eigenfunctions_resolved_by_panel_rule(parabolic, rational, spec2, monkeypatch):
    # Modes 1-8 at 101 x on the rule's 16 panels agree with 2048 panels to
    # roundoff; tau is exact, so the panel width adds no error.
    xs = np.linspace(0.0, 1.0, 101)
    for c, tt in (parabolic, rational):
        pairs = find_eigenvalues(c, tt, spec2, 8)
        got = [eigenfunction(c, tt, pair, spec2)(xs) for pair in pairs]
        with monkeypatch.context() as patch:
            for module in (spectrum, simplex):  # the norm and the values
                patch.setattr(module, "_panel_count", lambda k, total: 2048)
            ref = [eigenfunction(c, tt, pair, spec2)(xs) for pair in pairs]
        assert np.max(np.abs(np.subtract(got, ref))) <= 1e-14, c.kind


@settings(max_examples=20, deadline=None, derandomize=True)
@given(c=profiles)
def test_eigenfunction_sign_and_norm_at_every_order(c):
    # The positive scale fixes the sign: S_0(0, x; kappa) = sin(kappa tau(x))
    # rises with slope kappa / sigma(0) and each S_n, n >= 1, is O(x^(n+1)),
    # so X is positive at least until kappa tau(x) reaches 1/2.  The argument
    # holds at any kappa > 0, so the N = 2 roots serve every N.
    tt = build_travel_time(c)
    pairs = find_eigenvalues(c, tt, SeriesSpec(truncation_N=2), 6)
    for N in (0, 2, 4):
        spec = SeriesSpec(truncation_N=N)
        for pair in pairs:
            pair = dataclasses.replace(pair, truncation_N=N)
            ef = eigenfunction(c, tt, pair, spec)
            assert ef(0.0) == 0.0
            near = min(0.25, c.sigma_min / (2.0 * pair.kappa)) * np.geomspace(1e-6, 1.0, 13)
            assert np.all(ef(near) > 0.0), (N, pair.m)
            fine = _grid(c, tt, 4 * simplex._panel_count(pair.kappa, tt.total))[0]
            assert abs(np.sum(fine.wts * ef(fine.pts) ** 2) - 1.0) <= 1e-10, (N, pair.m)


def test_eigenfunction_boundary_norm_slope(parabolic, spec2):
    c, tt = parabolic
    pairs = find_eigenvalues(c, tt, spec2, 4)
    xs = np.linspace(0.0, 1.0, 2001)
    w = np.ones(xs.size)
    w[0] = w[-1] = 0.5
    w /= xs.size - 1
    for p in pairs:
        ef = eigenfunction(c, tt, p, spec2)
        vals = ef(xs)
        assert abs(vals[0]) <= 1e-8 and abs(vals[-1]) <= 1e-8
        assert float(w @ vals**2) == pytest.approx(1.0, abs=1e-6)
        assert vals[1] > 0.0  # positive slope at the left boundary


def test_eigenfunction_orthogonality(parabolic, spec2):
    c, tt = parabolic
    pairs = find_eigenvalues(c, tt, spec2, 4)
    xs = np.linspace(0.0, 1.0, 2001)
    w = np.ones(xs.size)
    w[0] = w[-1] = 0.5
    w /= xs.size - 1
    vals = np.array([eigenfunction(c, tt, p, spec2)(xs) for p in pairs])
    gram = (vals * w) @ vals.T
    off = gram - np.diag(np.diag(gram))
    assert np.max(np.abs(off)) <= 1e-3


def test_eigenfunction_sign_changes(parabolic, spec2):
    c, tt = parabolic
    pairs = find_eigenvalues(c, tt, spec2, 4)
    xs = np.linspace(0.0, 1.0, 2001)
    for p in pairs:
        vals = eigenfunction(c, tt, p, spec2)(xs)[1:-1]
        changes = int(np.sum(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0))
        assert changes == p.m - 1


def test_eigenfunction_spec_mismatch(parabolic, spec2):
    c, tt = parabolic
    pairs = find_eigenvalues(c, tt, spec2, 1)
    with pytest.raises(DomainError):
        eigenfunction(c, tt, pairs[0], SeriesSpec(truncation_N=1))


def _ode_residual_sup(c, tt, ef, lam, grid_points=201):
    h = 1.0 / (grid_points - 1)
    xs = np.linspace(0.0, 1.0, grid_points)
    interior = xs[2:-2]
    stencil = np.array([-2, -1, 0, 1, 2]) * h
    pts = interior[:, None] + stencil[None, :]
    V = ef(pts.ravel()).reshape(pts.shape)
    X1 = (V[:, 0] - 8 * V[:, 1] + 8 * V[:, 3] - V[:, 4]) / (12 * h)
    X2 = (-V[:, 0] + 16 * V[:, 1] - 30 * V[:, 2] + 16 * V[:, 3] - V[:, 4]) / (12 * h * h)
    s2 = c.sigma_sq(interior)
    ds2 = 2.0 * c.sigma(interior) * c.dsigma(interior)
    resid = s2 * X2 + ds2 * X1 - lam * V[:, 2]
    return resid, interior


def test_ode_residual_equals_truncation_tail(parabolic, spec2):
    # Differentiating the truncated series telescopes its defect to
    #   -scale * sigma^(3/2) [ (mu' + mu^2)/2 F_N + (mu^2/4)(F_{N-1}+F_N) ]
    # with F_n the order-n integral over (0, x); the finite-difference
    # residual must match that closed form, which pins the implementation.
    c, tt = parabolic
    pair = find_eigenvalues(c, tt, spec2, 1)[0]
    ef = eigenfunction(c, tt, pair, spec2)
    resid, interior = _ode_residual_sup(c, tt, ef, pair.lam)

    sig = c.sigma(interior)
    dsig = c.dsigma(interior)
    mu = dsig / sig
    sig_pp = (-1.0 / 3.0 - 2.0 * dsig**2) / (2.0 * sig)  # (sigma^2)'' = -1/3
    mu_p = sig_pp / sig - mu**2
    _, F1, F2 = simplex_terms(c, tt, 0.0, interior, pair.kappa, spec2)
    # recover the signed normalization from one probe point
    x0 = 0.5
    _, G1, G2 = simplex_terms(c, tt, 0.0, x0, pair.kappa, spec2)
    raw = (math.sin(pair.kappa * tt.tau(x0)) + G1 + G2) / math.sqrt(c.sigma(x0))
    scale = float(ef(np.array([x0]))[0]) / raw
    tail = -scale * sig**1.5 * ((mu_p + mu**2) / 2.0 * F2 + (mu**2 / 4.0) * (F1 + F2))
    assert np.max(np.abs(resid - tail)) < 5e-5
    # the genuine truncation defect at N = 2 (see the decisions record):
    # a few 1e-3 in sup norm, far above quadrature noise
    assert np.max(np.abs(resid)) < 1e-2


def test_rational_coefficient_against_grid_oracle(rational):
    # The rational coefficient carries a larger log-derivative weight than
    # the parabolic one, so the series converges more slowly: measured
    # eigenvalue gaps vs the grid oracle are ~5e-2 at N=1 and reach the
    # few-1e-3 scale only at N=3.  Assert the monotone approach and the
    # converged tolerance at depth.
    c, tt = rational
    refs = fd_eigenvalues(c, 3, 512)
    worst = {}
    for N in (0, 1, 2, 3):
        pairs = find_eigenvalues(c, tt, SeriesSpec(truncation_N=N), 3)
        worst[N] = max(abs(p.lam - r) for p, r in zip(pairs, refs))
    assert worst[0] > worst[1] > worst[2] > worst[3]
    assert worst[1] < 6e-2
    assert worst[3] < 2e-3


def test_eigenfunction_overlays_grid_reference(parabolic, rational):
    # low truncations already track the grid eigenvector; for the rational
    # coefficient the order-1 sum is visibly closer than order-0
    from varheat.oracles import fd_eigenvector

    xs = np.linspace(0.0, 1.0, 257)

    def max_gap(c, tt, N):
        spec = SeriesSpec(truncation_N=N)
        pair = find_eigenvalues(c, tt, spec, 1)[0]
        ef = eigenfunction(c, tt, pair, spec)
        gx, gv = fd_eigenvector(c, 1, 1024)
        return float(np.max(np.abs(ef(xs) - np.interp(xs, gx, gv))))

    cp, ttp = parabolic
    assert max_gap(cp, ttp, 0) < 0.05  # order-0 already accurate
    cr, ttr = rational
    gap0 = max_gap(cr, ttr, 0)
    gap1 = max_gap(cr, ttr, 1)
    assert gap1 < gap0
    assert gap1 < 0.05


def test_bracket_iteration_cap_names_the_mode(parabolic, spec2, monkeypatch):
    monkeypatch.setattr(spectrum, "_MAX_ITER", 1)
    with pytest.raises(NoConvergence, match=r"mode \d+ did not converge in 1 iterations"):
        find_eigenvalues(*parabolic, spec2, 2)


def test_disordered_roots_raise(parabolic, spec2, monkeypatch):
    monkeypatch.setattr(spectrum, "_bracket_roots",
                        lambda *args: (np.array([2.0, 1.0]), np.zeros(2)))
    with pytest.raises(NoConvergence, match="not strictly increasing"):
        find_eigenvalues(*parabolic, spec2, 2)


def test_zero_norm_eigenfunction_raises(parabolic, spec2, monkeypatch):
    pair = find_eigenvalues(*parabolic, spec2, 1)[0]
    monkeypatch.setattr(spectrum, "_prefix_series",
                        lambda panels, k, N: ((np.zeros((*panels.wts.shape, 1)), None)
                                              for _ in range(N + 1)))
    with pytest.raises(NoConvergence, match="zero norm"):
        eigenfunction(*parabolic, pair, spec2)


def test_no_complex_roots_missed(parabolic, spec2):
    # winding-number count of characteristic zeros in a strip around the
    # real segment covering the first four roots equals four
    c, tt = parabolic
    pairs = find_eigenvalues(c, tt, spec2, 5)
    left, right = 0.2, 0.5 * (pairs[3].kappa + pairs[4].kappa)
    height = 0.5

    def delta_on(path):
        return delta_values(c, tt, path, spec2)

    n_side = 600
    bottom = np.linspace(left - 1j * height, right - 1j * height, n_side)
    rgt = np.linspace(right - 1j * height, right + 1j * height, n_side)
    top = np.linspace(right + 1j * height, left + 1j * height, n_side)
    lft = np.linspace(left + 1j * height, left - 1j * height, n_side)
    path = np.concatenate([bottom, rgt, top, lft])
    vals = delta_on(path)
    args = np.angle(vals)
    winding = np.sum(np.angle(np.exp(1j * np.diff(args, append=args[0]))))
    count = int(round(winding / (2 * math.pi)))
    assert count == 4
