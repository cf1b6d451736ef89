"""Characteristic function, transform Phi, and contour-integral solver.

The solution of q_t = (sigma^2 q_x)_x with Dirichlet data is represented as

    q(x, t) = Re[ (1/(i*pi)) * int_Gamma (Phi(k,x) / Delta(k)) e^{-k^2 t} dk ],

where Delta is the series of simplex integrals over (0, 1), Psi(k,x,y) the
product of the (0, min(x,y)) and (max(x,y), 1) series, and
Phi(k,x) = int_0^1 Psi(k,x,y) q0(y) / sqrt(sigma(x) sigma(y)) dy.

Numerically both numerator and denominator are multiplied by
exp(i k tau(1)) so that each decays in the upper half plane.  The contour
Gamma is the hyperbola

    k(u) = s (sinh u + i tan(delta) cosh u),   u real,

traversed from the upper left asymptote (argument pi - delta) to the upper
right one (argument delta), with Im k >= s tan(delta) > 0 keeping it off the
real zeros of Delta.  Under z = -k^2 it is the z-plane hyperbola of
Weideman & Trefethen, "Parabolic and hyperbolic contours for computing the
Bromwich integral", Math. Comp. 76 (2007), with alpha = pi/2 - 2 delta and
mu = s^2 / (2 cos^2 delta).  The integrand is analytic in the strip
|Im u| < min(delta, pi/4 - delta) (the real zeros of Delta lie on
Im u = -delta; exp(-k^2 t) stops decaying on Im u = pi/4 - delta), so the
trapezoid rule in u converges geometrically in 1/h (Trefethen & Weideman,
"The exponentially convergent trapezoidal rule", SIAM Rev. 56 (2014)), and
exp(-k^2 t) decays doubly exponentially in u, so the sum is truncated at
|u| <= end.  One contour serves a whole batch of times: its end point comes
from the smallest time and its step and scale s from the largest.  The
nodes are symmetric under k -> -conj(k).  With sigma and q0 real, every
simplex term is odd in k with real coefficients, so the integrand obeys
f(-conj(k)) = -conj(f(k)): :func:`solve_grid` sweeps only the Re k >= 0
half of the nodes and mirrors the rest, which is why q0 must be real.  Each
mirrored pair then sums to a purely imaginary raw integral, so
``imag_residual`` measures only roundoff in those pair sums.

Truncation of the series at n <= N gives the computable approximation; all
operations accept the truncation via :class:`~varheat.simplex.SeriesSpec`.
Delta_N is evaluated for arrays of wavenumbers by :func:`delta_values`; its
pointwise reference is :func:`~varheat.simplex.series_sum` over (0, 1).
Phi_N has the pointwise reference :func:`phi_fn` and the batched path that
:func:`solve_grid` uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import Conductivity, TravelTimeMap, _panel_gauss
from .errors import (
    DenominatorNearZero,
    DomainError,
    TailTooLarge,
    ToleranceNotReached,
)
from .simplex import SeriesSpec, build_term_tables, series_sum

__all__ = [
    "Contour",
    "SolutionSample",
    "delta_values",
    "phi_fn",
    "solve",
    "solve_grid",
]

DEFAULT_TAIL_TOL = 1e-8
# Asymptote angle; pi/8 maximizes the strip half-width min(delta, pi/4 - delta).
_DELTA = math.pi / 8.0
# Largest contour scale: the vertex sits at Im k = s tan(delta) ~ 0.5.
_S_MAX = 1.2
# Upper bound on mu * t_max, the growth exp(mu t) of the integrand on the
# far edge of the analyticity strip (Weideman & Trefethen's mu ~ 1/t scaling).
_MU_T_MAX = 2.0
# solve_grid refuses a contour on which min |regDelta_N| falls below this
# fraction of max(1, max |regDelta_N|).
_DENOMINATOR_FLOOR = 1e-12


@dataclass(frozen=True)
class Contour:
    """Hyperbola k(u) = s (sinh u + i tan(delta) cosh u), trapezoid rule in u.

    The hyperbolic contour of Weideman & Trefethen (Math. Comp. 76, 2007)
    mapped to the k-plane, sampled by the exponentially convergent trapezoid
    rule (Trefethen & Weideman, SIAM Rev. 56, 2014).  Nodes sit at
    u_j = j * step for |j| <= M, where M is the smallest even integer with
    M * step >= end; an even M makes the even-j nodes the same rule at step
    2 * step, which :func:`solve_grid` uses to estimate the discretisation
    error.  Nodes and weights are mirror symmetric under
    u -> -u, i.e. k -> -conj(k), so for real data :func:`solve_grid` sweeps
    only the nodes with j >= 0 and the solution is real up to roundoff.
    :meth:`for_times` sizes a contour for a batch of times.
    """

    step: float
    end: float
    s: float = _S_MAX
    delta: float = _DELTA

    def __post_init__(self):
        if not (self.step > 0.0 and self.end > 0.0):
            raise DomainError("contour needs step > 0 and end > 0")
        if not self.s > 0.0:
            raise DomainError("contour scale s must be positive")
        if not 0.0 < self.delta < math.pi / 4.0:
            raise DomainError("contour needs 0 < delta < pi/4")

    @property
    def half_count(self) -> int:
        """M: the nodes are u_j = j * step for j = -M..M (M even)."""
        return 2 * math.ceil(self.end / (2.0 * self.step))

    @property
    def strip(self) -> float:
        """Half-width of the strip |Im u| < d where the integrand is analytic."""
        return min(self.delta, math.pi / 4.0 - self.delta)

    def nodes(self):
        """Directed nodes and weights (k_j, w_j) with sum_j f(k_j) w_j ~ int f dk."""
        u = self.step * np.arange(-self.half_count, self.half_count + 1)
        tan_d = math.tan(self.delta)
        k = self.s * (np.sinh(u) + 1j * tan_d * np.cosh(u))
        w = self.step * self.s * (np.cosh(u) + 1j * tan_d * np.sinh(u))
        return k, w

    @classmethod
    def for_times(cls, ts, tol: float = DEFAULT_TAIL_TOL) -> "Contour":
        """Contour resolving every time in ``ts`` to about ``tol`` absolute.

        With mu = s^2 / (2 cos^2 delta) and d the strip half-width, the
        trapezoid error is about (1 + exp(mu t_max)) exp(-2 pi d / h) and the
        truncation error about exp(-t_min Re k(end)^2), where
        Re k(u)^2 = mu (cos(2 delta) cosh(2u) - 1).  The scale s shrinks as
        1/sqrt(t_max) once mu t_max would exceed a fixed bound, so the step
        stays fixed and the end point grows only as log(t_max / t_min).  The
        bounds are estimates that assume |q0| = O(1), so each is aimed a
        decade below its half of ``tol``; :func:`solve_grid` checks the
        result a posteriori.
        """
        ts = [float(t) for t in np.atleast_1d(ts)]
        if not ts or not all(math.isfinite(t) and t > 0.0 for t in ts):
            raise DomainError(f"contour sizing needs finite times t > 0, got {ts}")
        if not tol > 0.0:
            raise DomainError("contour sizing needs tol > 0")
        t_min, t_max = min(ts), max(ts)
        cos2 = math.cos(_DELTA) ** 2
        s = min(_S_MAX, math.sqrt(2.0 * cos2 * _MU_T_MAX / t_max))
        mu = s * s / (2.0 * cos2)
        log_budget = math.log(20.0 / tol)
        # the strip half-width is _DELTA itself
        step = 2.0 * math.pi * _DELTA / (
            log_budget + math.log1p(math.exp(mu * t_max)))
        end = 0.5 * math.acosh(
            (log_budget / (mu * t_min) + 1.0) / math.cos(2.0 * _DELTA))
        return cls(step=step, end=end, s=s)


@dataclass(frozen=True)
class SolutionSample:
    """One evaluation q_N(x, t) with its contour-realness diagnostic."""

    x: float
    t: float
    value: float
    truncation_N: int
    imag_residual: float


# ---------------------------------------------------------------------------
# Characteristic function
# ---------------------------------------------------------------------------


def delta_values(c: Conductivity, tt: TravelTimeMap, ks, spec: SeriesSpec) -> np.ndarray:
    """Vectorized Delta_N over an array of wavenumbers (real arrays stay real)."""
    return _delta_from_tables(build_term_tables(c, tt, 0.0, 1.0, spec), ks)


def _delta_from_tables(tables, ks) -> np.ndarray:
    """Delta_N over ``ks`` from the (0, 1) term tables of :func:`build_term_tables`."""
    ks = np.asarray(ks)
    if np.isrealobj(ks):
        total = np.zeros(ks.size, dtype=float)
        for tab in tables:
            P = tab.const[:, None] + tab.phases
            if tab.weights.any():
                total += (tab.weights[0] @ np.sin(np.multiply.outer(P[0], ks.ravel())))
        return total.reshape(ks.shape)
    vals = sum(tab.eval_plain(ks.ravel())[0] for tab in tables)
    return vals.reshape(ks.shape)


# ---------------------------------------------------------------------------
# Transform Phi
# ---------------------------------------------------------------------------


def phi_fn(c: Conductivity, tt: TravelTimeMap, k, x: float, q0, spec: SeriesSpec,
           regularized: bool = False) -> complex:
    """Phi_N(k, x) = int_0^1 Psi_N(k,x,y) q0(y) / sqrt(sigma(x) sigma(y)) dy.

    Pointwise reference path: composite Gauss-Legendre in y, split at y = x
    where the kernel has a derivative kink.  ``regularized`` multiplies by
    exp(i k tau(1)) with every exponent kept decaying, so it stays bounded
    high in the upper half plane.  The production solver uses the batched
    equivalent in :func:`solve_grid`; the two are cross-checked in tests.
    """
    if not 0.0 <= x <= 1.0:
        raise DomainError("phi_fn needs x in [0, 1]")
    kc = complex(k)
    if x in (0.0, 1.0):
        return 0j
    from .simplex import regularized_series_sum

    total = tt.total
    per_unit = max(24.0, 0.9 * abs(kc) * total)

    def one_side(lo, hi, series_a, series_b):
        # integrand factor sum S(series interval depending on y) * q0 / sqrt(sigma)
        pts, wts = _segment_weights(c, q0, lo, hi, per_unit)
        acc = 0j
        for y, wq in zip(pts, wts):
            if regularized:
                sval = regularized_series_sum(c, tt, *series_a(y), kc, spec,
                                              shift=series_b(y))
            else:
                sval = series_sum(c, tt, *series_a(y), kc, spec)
            acc += wq * sval
        return acc

    if regularized:
        # Left part: exp(ik tau(x)) S(0,y); right part: exp(ik(tau(1)-tau(x))) S(y,1).
        tau_x = float(tt.tau(x))
        left = one_side(0.0, x, lambda y: (0.0, y), lambda y: tau_x)
        right = one_side(x, 1.0, lambda y: (y, 1.0), lambda y: total - tau_x)
        right_factor = regularized_series_sum(c, tt, x, 1.0, kc, spec, shift=total - tau_x)
        left_factor = regularized_series_sum(c, tt, 0.0, x, kc, spec, shift=tau_x)
        # Each product then carries the full shift tau(1) exactly once.
        val = right_factor * left + left_factor * right
    else:
        left = one_side(0.0, x, lambda y: (0.0, y), None)
        right = one_side(x, 1.0, lambda y: (y, 1.0), None)
        right_factor = series_sum(c, tt, x, 1.0, kc, spec)
        left_factor = series_sum(c, tt, 0.0, x, kc, spec)
        val = right_factor * left + left_factor * right
    return val / math.sqrt(float(c.sigma(x)))


# ---------------------------------------------------------------------------
# Batched solve
# ---------------------------------------------------------------------------


def _cheb_lobatto(G):
    return 0.5 * (1.0 - np.cos(np.pi * np.arange(G) / (G - 1)))


def _barycentric_matrix(grid, targets):
    """Rows interpolate a function known on ``grid`` to each target point."""
    G = grid.size
    w = np.ones(G)
    w[1::2] = -1.0
    w[0] *= 0.5
    w[-1] *= 0.5
    diff = targets[:, None] - grid[None, :]
    exact = np.isclose(diff, 0.0, atol=1e-15)
    diff = np.where(exact, 1.0, diff)
    ratios = w[None, :] / diff
    B = ratios / ratios.sum(axis=1, keepdims=True)
    hit_rows = exact.any(axis=1)
    B[hit_rows] = 0.0
    B[hit_rows, exact.argmax(axis=1)[hit_rows]] = 1.0
    return B


def _segment_weights(c, q0, lo, hi, per_unit):
    """Gauss nodes and q0/sqrt(sigma)-weighted quadrature weights on [lo, hi].

    Raises :class:`DomainError` unless q0 is finite and real at the nodes.
    """
    if hi - lo <= 1e-14:
        return np.empty(0), np.empty(0)
    n_panels = max(2, math.ceil((hi - lo) * per_unit / 12.0))
    pts, wts = _panel_gauss(np.linspace(lo, hi, n_panels + 1), 12)
    pts, wts = pts.ravel(), wts.ravel()
    q = np.asarray(q0(pts))
    if np.iscomplexobj(q):
        if np.any(q.imag != 0.0):
            raise DomainError("q0 must be real: it returned complex values")
        q = q.real
    if not np.all(np.isfinite(q)):
        raise DomainError("q0 must be finite: it returned NaN or inf")
    return pts, wts * q / np.sqrt(c.sigma(pts))


def _phi_batch(c, tt, q0, ks, xs, spec, kmax):
    """Regularized Phi_n(k, x) for all orders n <= N, contour nodes, and xs.

    Returns an array of shape (N+1, X, K) holding exp(ik tau(1)) Phi with the
    series *cumulative* in n (entry n is the truncation-N=n value).

    The y-integral is evaluated through a Chebyshev-Lobatto grid in y: the
    simplex series over (0, y) and (y, 1) are smooth in y, so their values on
    the grid interpolate to any quadrature node, which turns the whole double
    sweep into small matrix products reused by every x.  ``kmax``, the
    largest |k| on the contour, sizes the y-grid and the y-quadrature.
    """
    total = tt.total
    X = len(xs)
    K = ks.size
    N = spec.truncation_N
    G = min(220, max(48, int(0.75 * kmax * total) + 16))
    ygrid = _cheb_lobatto(G)

    left_tabs = build_term_tables(c, tt, 0.0, ygrid, spec)
    right_tabs = build_term_tables(c, tt, ygrid, 1.0, spec)
    SL = np.stack([tab.eval_plain(ks) for tab in left_tabs])    # (N+1, G, K)
    SR = np.stack([tab.eval_plain(ks) for tab in right_tabs])
    np.cumsum(SL, axis=0, out=SL)
    np.cumsum(SR, axis=0, out=SR)

    xs_arr = np.asarray(xs, dtype=float)
    tau_x = tt.tau(xs_arr)
    # Endpoint factors, regularized with their own travel-time span.
    fac_left_tabs = build_term_tables(c, tt, 0.0, xs_arr, spec)
    fac_right_tabs = build_term_tables(c, tt, xs_arr, 1.0, spec)
    FL = np.stack([tab.eval_regularized(ks, tau_x[:, None]) for tab in fac_left_tabs])
    FR = np.stack([tab.eval_regularized(ks, (total - tau_x)[:, None]) for tab in fac_right_tabs])
    np.cumsum(FL, axis=0, out=FL)
    np.cumsum(FR, axis=0, out=FR)

    per_unit = max(24.0, 0.9 * kmax * total)
    CL = np.zeros((X, G))
    CR = np.zeros((X, G))
    for i, x in enumerate(xs_arr):
        pts, wq = _segment_weights(c, q0, 0.0, float(x), per_unit)
        if pts.size:
            CL[i] = wq @ _barycentric_matrix(ygrid, pts)
        pts, wq = _segment_weights(c, q0, float(x), 1.0, per_unit)
        if pts.size:
            CR[i] = wq @ _barycentric_matrix(ygrid, pts)

    # P(n, x, k) = int_0^x S_sum(0,y) q0/sqrt(sigma) dy, likewise R on (x, 1).
    P = np.einsum("xg,ngk->nxk", CL, SL)
    R = np.einsum("xg,ngk->nxk", CR, SR)
    phase_left = np.exp(1j * np.multiply.outer(tau_x, ks))          # (X, K)
    phase_right = np.exp(1j * np.multiply.outer(total - tau_x, ks))
    phi = FR * (phase_left[None] * P) + FL * (phase_right[None] * R)
    phi /= np.sqrt(c.sigma(xs_arr))[None, :, None]
    return phi


def _check_quadrature(cont, integrand, weighted, ts, tol):
    """Raise unless the truncation and trapezoid error estimates meet ``tol``.

    ``integrand`` is Phi/Delta at the nodes, shape (X, K); ``weighted``
    holds w_j exp(-k_j^2 t), shape (K, T).  Truncation: past the last node
    |u| = U, Re k(u)^2 grows at least at the rate
    s^2 (1 - tan^2 delta) sinh(2U), so the omitted part of each end is at
    most |f(U)| / (t * rate) in u.
    Discretisation: the even-index nodes are the same rule at step 2h, and
    halving the step squares the error factor exp(-2 pi d / h) (d the strip
    half-width), so |q_h - q_2h| exp(-pi d / h) estimates the error of q_h.
    """
    ends = [0, -1]
    f_end = np.abs(integrand[:, ends, None] * weighted[ends][None]).sum(axis=1) / cont.step
    end_u = cont.half_count * cont.step
    rate = cont.s**2 * (1.0 - math.tan(cont.delta) ** 2) * math.sinh(2.0 * end_u)
    tail = f_end.max(axis=0) / (math.pi * ts * rate)
    worst = int(np.argmax(tail))
    if tail[worst] > tol:
        raise TailTooLarge(
            f"truncation bound {tail[worst]:.2e} at t={ts[worst]:g} exceeds "
            f"{tol:.2e}; extend the contour end (or loosen tail_tol)"
        )
    halved = integrand[:, ::2] @ (2.0 * weighted[::2])
    gap = np.abs(integrand @ weighted - halved).max(axis=0) / math.pi
    disc = gap * math.exp(-math.pi * cont.strip / cont.step)
    worst = int(np.argmax(disc))
    if disc[worst] > tol:
        raise ToleranceNotReached(
            f"trapezoid error estimate {disc[worst]:.2e} at t={ts[worst]:g} "
            f"exceeds {tol:.2e}; refine the contour step (or loosen tail_tol)"
        )


def solve_grid(c: Conductivity, tt: TravelTimeMap, q0, xs, ts, spec: SeriesSpec,
               contour: Contour | None = None, tail_tol: float = DEFAULT_TAIL_TOL,
               all_orders: bool = False):
    """Evaluate q_N on a grid of x values for a batch of times; {t: [samples]}.

    One contour serves the whole batch: unless ``contour`` is given,
    :meth:`Contour.for_times` sizes it from the smallest and largest t and
    ``tail_tol``.  The characteristic function, the Phi batch over the
    interior x and the denominator check are computed once, on the vertex
    and the Re k > 0 nodes only; the integrand at the other half follows
    from f(-conj(k)) = -conj(f(k)), which holds because sigma is real and
    ``q0`` must be real (a complex, NaN or infinite q0 raises
    :class:`DomainError`).  All times come out of one (X, K) @ (K, T)
    product, and x = 0 and x = 1 give exactly 0.  With ``all_orders=True``
    the result is {t: {n: [samples]}} for every truncation n <= N at no
    extra cost (the series is summed cumulatively).  Raises
    :class:`DenominatorNearZero` if the contour passes too close to a zero
    of the regularized characteristic function, :class:`TailTooLarge` if the
    truncation bound at the last node exceeds ``tail_tol`` at some t, and
    :class:`ToleranceNotReached` if the trapezoid error estimate does.
    """
    xs = [float(x) for x in np.atleast_1d(xs)]
    ts = [float(t) for t in np.atleast_1d(ts)]
    for t in ts:
        if not (math.isfinite(t) and t > 0.0):
            raise DomainError(f"solve requires finite t > 0, got t={t!r}")
    for x in xs:
        if not 0.0 <= x <= 1.0:
            raise DomainError(f"solve requires x in [0, 1], got x={x!r}")
    N = spec.truncation_N
    cont = contour if contour is not None else Contour.for_times(ts, tail_tol)
    ks, ws = cont.nodes()
    # The vertex and the Re k > 0 nodes; node j mirrors node 2M - j.
    half = ks[cont.half_count:]
    delta_tabs = build_term_tables(c, tt, 0.0, 1.0, spec)
    regD = np.cumsum(
        np.stack([tab.eval_regularized(half, tt.total)[0] for tab in delta_tabs]),
        axis=0,
    )  # (N+1, M+1)
    # |regDelta| is mirror invariant, so the half decides the check.
    dscale = np.abs(regD[N])
    floor = _DENOMINATOR_FLOOR * max(1.0, float(dscale.max()))
    if float(dscale.min()) < floor:
        raise DenominatorNearZero(
            "contour passes within the floor of a characteristic zero; "
            "raise its vertex s tan(delta)"
        )
    orders = range(N + 1) if all_orders else (N,)
    inside = np.array([0.0 < x < 1.0 for x in xs])
    vals = np.zeros((N + 1, len(xs), len(ts)), dtype=complex)
    if inside.any():
        interior = [x for x, keep in zip(xs, inside) if keep]
        phi = _phi_batch(c, tt, q0, half, interior, spec,
                         float(np.abs(ks).max()))  # (N+1, X, M+1)
        right = phi / regD[:, None, :]
        integrand = np.concatenate([-np.conj(right[..., :0:-1]), right], axis=-1)
        t_arr = np.array(ts)
        weighted = np.exp(-np.multiply.outer(ks**2, t_arr)) * ws[:, None]  # (K, T)
        _check_quadrature(cont, integrand[N], weighted, t_arr, tail_tol)
        for n in orders:
            vals[n, inside] = integrand[n] @ weighted / (1j * math.pi)  # (X, T)

    out = {t: {} for t in ts}
    for n in orders:
        for j, t in enumerate(ts):
            out[t][n] = [
                SolutionSample(x, t, float(v.real), n, float(abs(v.imag)))
                for x, v in zip(xs, vals[n, :, j])
            ]
    return out if all_orders else {t: per_order[N] for t, per_order in out.items()}


def solve(c: Conductivity, tt: TravelTimeMap, q0, x: float, t: float,
          spec: SeriesSpec, contour: Contour | None = None,
          tail_tol: float = DEFAULT_TAIL_TOL) -> SolutionSample:
    """Evaluate the truncated solution q_N at one point (x, t)."""
    res = solve_grid(c, tt, q0, [x], [t], spec, contour=contour, tail_tol=tail_tol)
    return res[float(t)][0]
