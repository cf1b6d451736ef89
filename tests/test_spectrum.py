import math

import numpy as np
import pytest

from varheat import SeriesSpec
from varheat.errors import DomainError
from varheat.oracles import fd_eigenvalues
from varheat.simplex import simplex_integral
from varheat.spectrum import eigenfunction, find_eigenvalues
from varheat.transform import delta_values
from varheat.verify import TABLE1_VALUES as TABLE


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


def test_find_eigenvalues_builds_term_tables_once(parabolic, spec2, monkeypatch):
    from varheat import spectrum

    calls = []
    plain = spectrum.build_term_tables

    def counting(*args, **kwargs):
        calls.append(args)
        return plain(*args, **kwargs)

    monkeypatch.setattr(spectrum, "build_term_tables", counting)
    monkeypatch.setattr("varheat.transform.build_term_tables", counting)
    assert len(spectrum.find_eigenvalues(*parabolic, spec2, 30)) == 30
    assert len(calls) == 1


def test_count_validation(parabolic, spec2):
    with pytest.raises(DomainError):
        find_eigenvalues(*parabolic, spec2, 0)


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
    F1 = np.array([simplex_integral(c, tt, 1, 0.0, float(x), pair.kappa, spec2).real
                   for x in interior])
    F2 = np.array([simplex_integral(c, tt, 2, 0.0, float(x), pair.kappa, spec2).real
                   for x in interior])
    # recover the signed normalization from one probe point
    x0 = 0.5
    raw = (math.sin(pair.kappa * tt.tau(x0))
           + simplex_integral(c, tt, 1, 0.0, x0, pair.kappa, spec2).real
           + simplex_integral(c, tt, 2, 0.0, x0, pair.kappa, spec2).real
           ) / math.sqrt(c.sigma(x0))
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
        lam = fd_eigenvalues(c, 1, 512)[0]
        gx, gv = fd_eigenvector(c, lam, 1024)
        return float(np.max(np.abs(ef(xs) - np.interp(xs, gx, gv))))

    cp, ttp = parabolic
    assert max_gap(cp, ttp, 0) < 0.05  # order-0 already accurate
    cr, ttr = rational
    gap0 = max_gap(cr, ttr, 0)
    gap1 = max_gap(cr, ttr, 1)
    assert gap1 < gap0
    assert gap1 < 0.05


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
