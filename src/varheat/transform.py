"""Characteristic function, transform Phi, and contour-integral solver.

The solution of q_t = (sigma^2 q_x)_x with Dirichlet data is represented as

    q(x, t) = Re[ (1/(i*pi)) * int_Gamma (Phi(k,x) / Delta(k)) e^{-k^2 t} dk ],

where Delta is the series of simplex integrals over (0, 1), Psi(k,x,y) the
product of the (0, min(x,y)) and (max(x,y), 1) series, and
Phi(k,x) = int_0^1 Psi(k,x,y) q0(y) / sqrt(sigma(x) sigma(y)) dy.

Numerically both numerator and denominator are multiplied by
exp(i k tau(1)) so that each stays bounded in the upper half plane.  The
solver evaluates both on the prefix recursion of :mod:`varheat.simplex`:
e^{ik tau(y)} S(0, y) on composite Gauss panels with every requested x as
an edge (the x, the table knots, 0 and 1 are breakpoints, and each gap
between them is cut into equal panels), and e^{ik (tau(1) - tau(y))} S(y, 1)
on the reflected panels.
The y-integrals of Phi are one more cumulative integral each, whose kernel
exp(ik |tau(x) - tau(y)|) has modulus <= 1, and regDelta is the y = 1 edge
of the left series.  No intermediate grows with Im k, and the panels
follow |k|, so small times, whose contours reach far up, stay finite and
accurate.
The contour Gamma is the hyperbola

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
Delta_N is evaluated for arrays of wavenumbers by :func:`delta_values`, on
the same recursion: e^{-ik tau(1)} times the y = 1 edge of the left series,
the value whose regularized form :func:`solve_grid` divides by.  Its
pointwise form is the sum of :func:`~varheat.simplex.simplex_terms` over
(0, 1), on the same recursion and panels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import Conductivity, TravelTimeMap
from .errors import (
    DenominatorNearZero,
    DomainError,
    TailTooLarge,
    ToleranceNotReached,
)
from .simplex import SeriesSpec, _Cumulative, _grid_groups, _panel_count, _prefix_series
# build_term_tables is not called here; it stays bound as
# transform.build_term_tables, a name the benchmark tracer rebinds and
# benchmarks/test_benchmark.py checks.
from .simplex import build_term_tables  # noqa: F401

__all__ = [
    "Contour",
    "SolutionSample",
    "delta_values",
    "solve",
    "solve_grid",
]

DEFAULT_TAIL_TOL = 1e-8
# Asymptote angle delta of every contour; pi/8 maximizes the strip
# half-width min(delta, pi/4 - delta), which is then delta itself.
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
    """Hyperbola k(u) = s (sinh u + i tan(delta) cosh u), trapezoid rule in u,
    with delta = _DELTA = pi/8.

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

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0.0 for v in (self.step, self.end, self.s)):
            raise DomainError(f"contour needs finite step, end and s > 0, got {self}")

    @property
    def half_count(self) -> int:
        """M: the nodes are u_j = j * step for j = -M..M (M even)."""
        return 2 * math.ceil(self.end / (2.0 * self.step))

    def nodes(self):
        """Directed nodes and weights (k_j, w_j) with sum_j f(k_j) w_j ~ int f dk."""
        u = self.step * np.arange(-self.half_count, self.half_count + 1)
        tan_d = math.tan(_DELTA)
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
        if not (math.isfinite(tol) and tol > 0.0):
            raise DomainError(f"contour sizing needs a finite tol > 0, got {tol!r}")
        t_min, t_max = min(ts), max(ts)
        cos2 = math.cos(_DELTA) ** 2
        s = min(_S_MAX, math.sqrt(2.0 * cos2 * _MU_T_MAX / t_max))
        mu = s * s / (2.0 * cos2)
        # A tol above 20 asks for no more than the contour of budget 0 gives;
        # a negative budget would leave the domain of acosh below.
        log_budget = math.log(20.0 / min(tol, 20.0))
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
    """Vectorized Delta_N over an array of wavenumbers (real arrays stay real).

    Delta_N(k) = e^{-ik tau(1)} sum_{n<=N} R_n(1; k), the y = 1 edge of the
    left series of :func:`_phi_batch`, from the edges-only form of
    ``simplex._prefix_series``; real k takes the real part.  Wavenumbers are
    grouped by the panel grid their ``simplex._panel_count`` makes
    (``simplex._grid_groups``), one recursion call per grid, and the grids
    come from the profile's table ``tt.grids``, so the three calls of
    ``find_eigenvalues`` share them.  k with Im k < 0 goes through
    Delta(k) = -Delta(-k).  Any finite complex k is accepted; a NaN or
    infinite k raises :class:`DomainError`.
    """
    ks = np.asarray(ks)
    k = ks.astype(complex).ravel()
    if not np.all(np.isfinite(k)):
        raise DomainError("Delta_N needs finite wavenumbers")
    lower = k.imag < 0.0
    k[lower] *= -1.0
    vals = np.empty(k.shape, dtype=complex)
    for panels, _, group in _grid_groups(c, tt, _panel_count(k, tt.total)):
        edge = sum(e[-1] for _, e in _prefix_series(panels, k[group], spec.truncation_N,
                                                     nodes=False))
        vals[group] = np.exp(-1j * k[group] * tt.total) * edge
    vals[lower] *= -1.0
    return (vals if np.iscomplexobj(ks) else vals.real).reshape(ks.shape)


# ---------------------------------------------------------------------------
# Batched solve
# ---------------------------------------------------------------------------


def _q0_values(q0, pts):
    """q0 at ``pts``, real; raises :class:`DomainError` unless q0 is finite
    and real there and gives a scalar or one value per point."""
    q = np.asarray(q0(pts))
    if q.ndim and q.shape != pts.shape:
        raise DomainError(f"q0 must be a scalar or one value per point: it returned "
                          f"shape {q.shape} for {pts.shape} points")
    if np.iscomplexobj(q) and np.any(q.imag != 0.0):
        raise DomainError("q0 must be real: it returned complex values")
    if not np.all(np.isfinite(q)):
        raise DomainError("q0 must be finite: it returned NaN or inf")
    return q.real


def _series_and_integral(panels, k, N, weight):
    """R(y) = e^{ik tau(y)} S(0, y), cumulative in n, and its y-integral
    int_0^x e^{ik (tau(x) - tau(y))} R(y) weight(y) dy, both at the edges,
    shape (N + 1, P + 1, K).

    The orders come one at a time: each is added to the running sum of R at
    the nodes, and that sum is integrated at once, so only edge values are
    kept.
    """
    integral = _Cumulative(panels, k)  # its blocks also serve the recursion at 2k
    at_edges, integrals, total = [], [], 0.0
    for nodes, edges in _prefix_series(panels, k, N, integral.squared()):
        total = np.add(nodes, total, out=nodes)  # the node sum of R up to order n
        at_edges.append(edges)
        integrals.append(integral(total * weight, nodes=False)[1])
    return np.cumsum(at_edges, axis=0), np.array(integrals)


def _phi_batch(c, tt, q0, ks, xs, spec, q0_knots=()):
    """Regularized Phi_n(k, x) and Delta_n(k) for all orders n <= N.

    Returns (phi, regD) of shapes (N+1, X, K) and (N+1, K): exp(ik tau(1))
    times Phi and Delta, with the series *cumulative* in n (entry n is the
    truncation-N=n value).

    Wavenumbers are grouped by the panel grid their ``simplex._panel_count``
    makes (at least 16 panels, at most 6 rad of kernel phase in each; see
    ``simplex._grid_groups``).  Every x, the knots of a tabulated sigma and
    ``q0_knots``, where q0 is not smooth, are breakpoints of the grid, and
    each gap g between breakpoints is cut into ceil(g count) equal panels:
    the figure-2 x make 20 panels of the 16-panel count.  The grids come
    from the profile's table ``tt.grids``, so a later solve at the same x
    reuses them, and sigma is read off them.  On each grid the
    prefix recursion gives R(y) = e^{ik tau(y)} S(0, y), and on the
    reflected grid R~(y) = e^{ik (tau(1) - tau(y))} S(y, 1).  Each
    y-integral is one more cumulative integral, with omega = k:

        L(x) = int_0^x e^{ik (tau(x) - tau(y))} R(y) q0(y) / sqrt(sigma(y)) dy,

    and L~(x) the same over (x, 1) on the reflected grid, so that
    exp(ik tau(1)) Phi(x) = [R~(x) L(x) + R(x) L~(x)] / sqrt(sigma(x)), read
    at edges with no interpolation, and regDelta = R(1).  Every factor is
    bounded for Im k >= 0.  At x = 0 and x = 1 both products vanish, so Phi
    is exactly 0 there.
    """
    N = spec.truncation_N
    xs = np.asarray(xs, dtype=float)
    phi = np.empty((N + 1, xs.size, ks.size), dtype=complex)
    regD = np.empty((N + 1, ks.size), dtype=complex)
    points = np.concatenate([xs, q0_knots])
    for panels, at_x, group in _grid_groups(c, tt, _panel_count(ks, tt.total), points):
        at_x = at_x[:xs.size]
        weight = (_q0_values(q0, panels.pts) / np.sqrt(panels.sigma))[..., None]
        (R, L), (R_, L_) = (_series_and_integral(side, ks[group], N, w) for side, w in (
            (panels, weight), (panels.reflected(), weight[::-1, ::-1])))
        phi[..., group] = ((R_[:, -1 - at_x] * L[:, at_x] + R[:, at_x] * L_[:, -1 - at_x])
                           / np.sqrt(panels.sigma_edges[at_x])[:, None])
        regD[:, group] = R[:, -1]
    return phi, regD


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
    rate = cont.s**2 * (1.0 - math.tan(_DELTA) ** 2) * math.sinh(2.0 * end_u)
    tail = f_end.max(axis=0) / (math.pi * ts * rate)
    worst = int(np.argmax(tail))
    if not tail[worst] <= tol:  # NaN too
        raise TailTooLarge(
            f"truncation bound {tail[worst]:.2e} at t={ts[worst]:g} exceeds "
            f"{tol:.2e}; extend the contour end (or loosen tail_tol)"
        )
    halved = integrand[:, ::2] @ (2.0 * weighted[::2])
    gap = np.abs(integrand @ weighted - halved).max(axis=0) / math.pi
    disc = gap * math.exp(-math.pi * _DELTA / cont.step)
    worst = int(np.argmax(disc))
    if not disc[worst] <= tol:
        raise ToleranceNotReached(
            f"trapezoid error estimate {disc[worst]:.2e} at t={ts[worst]:g} "
            f"exceeds {tol:.2e}; refine the contour step (or loosen tail_tol)"
        )


def solve_grid(c: Conductivity, tt: TravelTimeMap, q0, xs, ts, spec: SeriesSpec,
               contour: Contour | None = None, tail_tol: float = DEFAULT_TAIL_TOL,
               all_orders: bool = False, q0_knots=()):
    """Evaluate q_N on a grid of x values for a batch of times; {t: [samples]}.
    Neither may be empty (else :class:`DomainError`).

    One contour serves the whole batch: unless ``contour`` is given,
    :meth:`Contour.for_times` sizes it from the smallest and largest t and
    ``tail_tol``, which must be finite and positive (else
    :class:`DomainError`, also when a contour is given).  Phi and regDelta
    come from one :func:`_phi_batch` of the prefix recursion, computed once,
    on the vertex and the Re k > 0 nodes only, and every value in it is
    bounded; the integrand at the other half follows from
    f(-conj(k)) = -conj(f(k)), which holds because sigma is real and ``q0``
    must be real (a complex, NaN or infinite q0 raises
    :class:`DomainError`).  All times come out of one (X, K) @ (K, T)
    product, and x = 0 and x = 1 give exactly 0.  With ``all_orders=True``
    the result is {t: {n: [samples]}} for every truncation n <= N at no
    extra cost (the series is summed cumulatively).  Raises
    :class:`DenominatorNearZero` if the contour passes too close to a zero
    of the regularized characteristic function, :class:`TailTooLarge` if the
    truncation bound at the last node exceeds ``tail_tol`` at some t, and
    :class:`ToleranceNotReached` if the trapezoid error estimate does.
    ``q0_knots`` lists the points of [0, 1] where q0 is not smooth, such as
    the abscissae of a tabulated q0 (else :class:`DomainError`); they become
    panel edges, as the x values do.

    On ``parabolic24`` with q0 = x(1 - x) and N = 2 the error against the
    exact x(1 - x) exp(-t) is about 1.6e-6 at t = 0.01 (truncation: 5.8e-8
    at N = 3); the panels follow |k|, so t = 1e-4 and 1e-5, whose contours
    reach |k| ~ 2000, stay as accurate.
    """
    xs = [float(x) for x in np.atleast_1d(xs)]
    ts = [float(t) for t in np.atleast_1d(ts)]
    if not (xs and ts):
        raise DomainError(f"solve requires at least one x and one t, got xs={xs}, ts={ts}")
    for t in ts:
        if not (math.isfinite(t) and t > 0.0):
            raise DomainError(f"solve requires finite t > 0, got t={t!r}")
    for x in xs:
        if not 0.0 <= x <= 1.0:
            raise DomainError(f"solve requires x in [0, 1], got x={x!r}")
    if not (math.isfinite(tail_tol) and tail_tol > 0.0):
        raise DomainError(f"tail_tol must be finite and positive, got {tail_tol!r}")
    q0_knots = np.asarray(q0_knots, dtype=float).ravel()
    if not np.all((q0_knots >= 0.0) & (q0_knots <= 1.0)):
        raise DomainError("q0_knots must lie in [0, 1]")
    N = spec.truncation_N
    cont = contour if contour is not None else Contour.for_times(ts, tail_tol)
    ks, ws = cont.nodes()
    # The vertex and the Re k > 0 nodes; node j mirrors node 2M - j.
    phi, regD = _phi_batch(c, tt, q0, ks[cont.half_count:], xs, spec, q0_knots)
    # |regDelta| is mirror invariant, so the half decides the check.
    dscale = np.abs(regD[N])
    floor = _DENOMINATOR_FLOOR * max(1.0, float(dscale.max()))
    if not dscale.min() >= floor:  # NaN too
        raise DenominatorNearZero(
            "contour passes within the floor of a characteristic zero; "
            "raise its vertex s tan(delta)"
        )
    right = phi / regD[:, None, :]
    integrand = np.concatenate([-np.conj(right[..., :0:-1]), right], axis=-1)
    t_arr = np.array(ts)
    weighted = np.exp(-np.multiply.outer(ks**2, t_arr)) * ws[:, None]  # (K, T)
    _check_quadrature(cont, integrand[N], weighted, t_arr, tail_tol)
    vals = integrand @ weighted / (1j * math.pi)  # (N+1, X, T)

    real, imag = (part.transpose(2, 0, 1).tolist() for part in (vals.real, np.abs(vals.imag)))
    out = {t: {n: [SolutionSample(x, t, v, n, e) for x, v, e in zip(xs, real[j][n], imag[j][n])]
               for n in (range(N + 1) if all_orders else (N,))}
           for j, t in enumerate(ts)}
    return out if all_orders else {t: per_order[N] for t, per_order in out.items()}


def solve(c: Conductivity, tt: TravelTimeMap, q0, x: float, t: float,
          spec: SeriesSpec, contour: Contour | None = None,
          tail_tol: float = DEFAULT_TAIL_TOL) -> SolutionSample:
    """Evaluate the truncated solution q_N at one point (x, t)."""
    res = solve_grid(c, tt, q0, [x], [t], spec, contour=contour, tail_tol=tail_tol)
    return res[float(t)][0]
