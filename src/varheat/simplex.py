"""Ordered-simplex integrals of the log-derivative weight.

The building block of the whole solver is the n-fold integral

    S_n(a, b; k) = 2**-n * int_{a<=y1<=...<=yn<=b}
                   prod_p mu(y_p) * sin(k * A(y)) dy1..dyn,

where mu = sigma'/sigma and the phase A(y) alternates travel-time gaps:

    A(y) = sum_{p=0..n} (-1)**p (tau(y_{p+1}) - tau(y_p)),
    y_0 = a, y_{n+1} = b.

Two evaluators compute it.

The prefix recursion (``_prefix_series``) is the one production engine.  It
gives every term S_n(0, y; k) for all upper limits y at once, for any k with
Im k >= 0, in n cumulative integrations on composite 12-node Gauss panels,
at a cost linear in n.  It returns e^{ik tau(y)} S_n, which stays bounded in
the upper half plane, because e^{ik tau(y)} sin(kA) splits into two
exponentials of twice the even and twice the odd gaps, each of modulus
<= 1.  The suffix terms S_n(y, 1; k) are the same recursion on the
reflected profile sigma(1 - x).  The solver and Delta_N
(``transform``), the roots and the eigenfunctions (``spectrum``) all use
it, on the panels of ``_grid``, whose count follows the rule of
``_panel_count``: max(16, ceil(2 |k| tau(1) / 6)) panels, rounded up to a
power of two, so that each panel carries at most 6 rad of the kernel phase
2|k| tau.  The knots of a tabulated sigma are panel edges.

The quadrature tuples are the independent reference.  Since tau enters
linearly, A(y) = c + sum_p 2*(-1)**(p+1) tau(y_p) with the constant
c = -tau(a) + (-1)**n tau(b), so a quadrature rule for the simplex reduces
to a list of (weight, phase) pairs that are *independent of k*:
:func:`build_term_tables` expands nested Gauss-Legendre nodes once
(innermost limits shrink with the outer variable), and any number of k
values are then swept as dot products against the tuple arrays.  The
scalar references (``simplex_integral`` and its siblings) are one-interval
tables.  Their Gauss rules do not split at the knots of a tabulated sigma,
so they converge only algebraically there: they are references for smooth
sigma only.

One function, ``_tuple_sum``, evaluates every tuple sum
sum_j W_j exp(ik*shift) sin(k*(c + T_j)).  Without a shift (the plain
series, fine for real and moderately complex k) a real k takes the real
sine; every other sum takes the two-exponential form

    exp(ik*shift) sin(kP) = (exp(ik(shift + P)) - exp(ik(shift - P))) / 2i.

The regularized form takes shift >= tau(b)-tau(a) >= |c+T|, so for Im k >= 0
both exponents have real part <= 0 and no intermediate exceeds magnitude 1
per sample (up to the mu product); it stays bounded high in the upper half
plane, where the plain sine overflows.

Tuple cost grows as quad_order**n; a table of more than _TABLE_LIMIT tuples
per interval is refused before any expansion.
"""

from __future__ import annotations

import copy
import math
import operator
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .coefficients import Conductivity, TravelTimeMap, _panel_gauss, _unit_gauss, log_derivative
from .errors import DomainError, OrderTooHigh, ShiftTooSmall

__all__ = [
    "SeriesSpec",
    "simplex_integral",
    "regularized_simplex_integral",
    "series_sum",
    "regularized_series_sum",
    "term_bound",
    "abs_log_derivative_integral",
]

# The wavenumbers of a tuple sum are taken in chunks of at most this many
# (tuple, wavenumber) pairs.
_CHUNK_LIMIT = 1 << 22
# Term tables refuse orders whose per-interval tuple count exceeds this.
_TABLE_LIMIT = 1 << 24


@dataclass(frozen=True)
class SeriesSpec:
    """Truncation and quadrature configuration for the series evaluators.

    truncation_N: series cut at n <= N (N >= 0).
    quad_order:   Gauss-Legendre nodes per simplex dimension (>= 2) of the
                  quadrature tuples, which only the references use
                  (:func:`build_term_tables`, the scalar evaluators and
                  ``transform.phi_fn``).  The solve, Delta_N, the roots and
                  the eigenfunctions use the prefix recursion, whose panels
                  follow |k| instead.
    tol:          target absolute accuracy per term (used by audits).
    """

    truncation_N: int = 2
    quad_order: int = 32
    tol: float = 1e-10

    def __post_init__(self):
        for name in ("truncation_N", "quad_order"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise DomainError(f"{name} must be an integer, got {value!r}") from None
        if self.truncation_N < 0:
            raise DomainError("truncation_N must be >= 0")
        if self.quad_order < 2:
            raise DomainError("quad_order must be >= 2")
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise DomainError(f"tol must be finite and positive, got {self.tol!r}")


# Gauss nodes per panel of the prefix recursion.
_PREFIX_ORDER = 12
# Kernel phase that one panel of the prefix recursion resolves, in radians,
# and the fewest panels (see _panel_count).
_PANEL_PHASE = 6.0
_MIN_PANELS = 16
# Largest growth Im(omega) (tau(s) - tau_ref) of a phase factor inside one
# block of a cumulative integral (twice that for the squared factors of the
# recursion at 2k; e^64 ~ 6e27 is far from overflow).
_GROWTH = 32.0
# Composite Gauss rule of abs_log_derivative_integral: panels x nodes.
_ABS_MU_PANELS = 64
_ABS_MU_ORDER = 12


@lru_cache(maxsize=8)
def _unit_cumulative(order):
    """Spectral integration on [0, 1] at the Gauss nodes, cached per order.

    For i < order, (Q @ f)[i] is the integral from 0 to x_i of the degree
    order-1 polynomial that interpolates f at the nodes x_j; the last row,
    the Gauss weights, integrates it over [0, 1].
    """
    x01, w01 = _unit_gauss(order)
    t = 2.0 * x01 - 1.0
    legendre = np.polynomial.legendre
    # antider[i, j] = int_{-1}^{t_i} P_j; vander[i, j] = P_j(t_i).
    antider = legendre.legval(t, legendre.legint(np.eye(order), lbnd=-1.0)).T
    vander = legendre.legvander(t, order - 1)
    return np.vstack([0.5 * np.linalg.solve(vander.T, antider.T).T, w01])


def _panel_count(k, total):
    """Panels of the prefix recursion at wavenumbers k: max(16, ceil(2 |k| tau(1) / 6))
    rounded up to a power of two, so that nearby wavenumbers share a grid.

    The kernels e^{2ik (tau(y) - tau(s))} turn through 2 |k| tau(1) radians
    over [0, 1], and one 12-node Gauss panel resolves _PANEL_PHASE = 6 of
    them.  Against 8x the panels, at 32, 256 and 2048 panels (|k| from 10
    to 4000), real k and arg k = pi/8, with tau integrated exactly, the
    worst relative error of regDelta_4 on parabolic24, rational9000 and two
    exp-sine tables is 1e-14 at 4 rad per panel, 4e-13 at 6, 1e-11 at 7,
    2e-10 at 8 and 7e-7 at 12; rational9000, whose uniform-x panels share
    the phase least evenly, is the worst.  The floor _MIN_PANELS = 16 is set
    by mu, the table knots and q0, not by k: on 4 panels rational9000's
    regDelta_4 at k <= 3 is off by up to 1e-9 and a single-x solve (x = 0.5,
    t from 0.01 to 4) by 4e-12; on 8 panels those solves are within 7e-13
    on every profile, and 16 keeps one halving of margin.
    """
    wanted = np.maximum(_MIN_PANELS, np.ceil(2.0 * np.abs(k) * total / _PANEL_PHASE))
    return 2 ** np.ceil(np.log2(wanted)).astype(int)


class _Panels(NamedTuple):
    """Composite Gauss panels: nodes and weights, mu and tau at the nodes, all
    shaped (P, _PREFIX_ORDER), and tau at the P + 1 edges."""

    pts: np.ndarray
    wts: np.ndarray
    mu: np.ndarray
    tau: np.ndarray
    tau_edges: np.ndarray

    def reflected(self):
        """The panels of x -> 1 - x, on which sigma(1 - x) has mu -> -mu and
        tau -> tau(1) - tau, so S_n(y, 1; sigma) = S_n(0, 1 - y; sigma(1 - .)).
        tau(1) is the last edge's."""
        total = self.tau_edges[-1]
        pts, wts, mu, tau = (a[::-1, ::-1] for a in self[:4])
        return _Panels(1.0 - pts, wts, -mu, total - tau, total - self.tau_edges[::-1])


def _grid(c, tt, count, points=()):
    """``count`` uniform panels on [0, 1], split at the knots of a tabulated
    profile (the quadrature is smooth only between them) and at ``points``.

    Returns the :class:`_Panels` and, for each point, the index of its edge.
    Raises :class:`DomainError` unless every point lies in [0, 1].
    """
    points = np.asarray(points, dtype=float).ravel()
    edges = np.unique(np.concatenate([np.linspace(0.0, 1.0, count + 1),
                                      c.params.get("knots", ()), points]))
    if not (edges[0] == 0.0 and edges[-1] <= 1.0):
        raise DomainError(f"series points must lie in [0, 1], got {edges[0]:g}..{edges[-1]:g}")
    pts, wts = _panel_gauss(edges, _PREFIX_ORDER)
    panels = _Panels(pts, wts, log_derivative(c, pts), tt.tau(pts), tt.tau(edges))
    return panels, edges.searchsorted(points)


class _Cumulative:
    """C(y) = int_0^y e^{i omega (tau(y) - tau(s))} f(s) ds on a panel grid.

    For Im omega >= 0 the kernel has modulus <= 1, but its two factors about
    a reference tau_ref do not.  The panels are therefore cut into blocks at
    the edges where Im(omega) tau crosses a multiple of _GROWTH; each block's
    first edge is its reference, so neither factor leaves
    [e^-(_GROWTH + one panel), e^(_GROWTH + one panel)].  Inside a panel the
    spectral matrix of :func:`_unit_cumulative` integrates
    e^{i omega (tau_ref - tau(s))} f(s); a cumulative sum of the panel
    integrals runs inside each block, and its end value times
    e^{i omega (tau(end) - tau_ref)}, of modulus <= 1, carries into the next
    block.  Real omega needs one block.  ``omega`` holds K values.
    """

    def __init__(self, panels, omega):
        tau_edges = panels.tau_edges
        level = np.floor(max(0.0, omega.imag.max()) / _GROWTH * tau_edges[:-1])
        first = level.searchsorted(level)  # the first panel of each panel's block
        self.starts = (first == np.arange(first.size)).nonzero()[0].tolist()
        self.stops = self.starts[1:] + [first.size]
        self.ref = tau_edges[first]
        self.width = panels.wts.sum(axis=1)[:, None, None]
        self.out_nodes = np.exp(np.multiply.outer(panels.tau - self.ref[:, None], 1j * omega))
        # for real omega |out_nodes| = 1
        self.in_nodes = 1.0 / self.out_nodes if omega.imag.any() else self.out_nodes.conj()
        self.out_edges = np.exp(np.multiply.outer(tau_edges[1:] - self.ref, 1j * omega))

    def squared(self):
        """The integral for 2 omega on the same blocks: every factor squared
        (inside a block the growth then reaches twice _GROWTH)."""
        twice = copy.copy(self)
        for name in ("out_nodes", "in_nodes", "out_edges"):
            setattr(twice, name, getattr(self, name) ** 2)
        return twice

    def __call__(self, f, phased=..., nodes=True):
        """C for complex f of shape (..., P, q, K) at the nodes (..., P, q, K)
        and at the edges (..., P + 1, K); with ``nodes`` false, the edges only.

        Only the entries ``f[phased]`` take the kernel; the others are plain
        cumulative integrals (omega = 0).  f, a C-contiguous complex array, is
        overwritten.
        """
        f[phased] *= self.in_nodes
        rows = _unit_cumulative(_PREFIX_ORDER)[None if nodes else -1:]
        part = self.width * (rows @ f.view(float)).view(complex)  # real products
        whole = part[..., -1, :]
        at_edges = np.empty(whole.shape[:-2] + (whole.shape[-2] + 1, whole.shape[-1]),
                            dtype=complex)
        at_edges[..., 0, :] = 0.0
        run = at_edges[..., 1:, :]  # the panel ends, in each block's frame until phased
        for lo, hi in zip(self.starts, self.stops):
            whole[..., lo:hi, :].cumsum(axis=-2, out=run[..., lo:hi, :])
            if lo:
                run[..., lo:hi, :] += carry
            if hi < whole.shape[-2]:
                carry = run[..., hi - 1 : hi, :].copy()
                carry[phased] *= self.out_edges[hi - 1 : hi]
        if nodes:
            at_nodes = (run - whole)[..., None, :] + part[..., :-1, :]
            at_nodes[phased] *= self.out_nodes
        run[phased] *= self.out_edges
        return (at_nodes, at_edges) if nodes else at_edges


def _prefix_series(panels, k, N, cumulative=None, nodes=True):
    """R_n(0, y; k) = e^{ik tau(y)} S_n(0, y; k), n <= N, by prefix recursion.

    With A the alternating sum of travel-time gaps (module docstring),
    tau(y) + A and tau(y) - A are twice the sums of the even and of the odd
    gaps, so

        e^{ik tau(y)} sin(kA) = (e^{2ik sum even gaps} - e^{2ik sum odd gaps}) / 2i.

    Each branch factors over the simplex variables.  With G_0 = e^{i w_0 tau(y)},

        G_p(y) = int_0^y e^{i w_p (tau(y) - tau(s))} mu(s) G_{p-1}(s) ds,

    where w_p = 2k on the branch's own gaps (p even in the first branch, p
    odd in the second) and 0 on the others; R_n = 2**-n (G_n - G'_n) / 2i.
    For Im k >= 0 no factor exceeds modulus 1, so each order costs one
    :class:`_Cumulative` integral of both branches, stacked on a leading
    axis (for real k the second branch is e^{2ik tau} times the conjugate of
    the first, so only the first runs).  S_n(y, 1; k) is the same recursion
    on ``panels.reflected()``.

    ``k`` holds K wavenumbers with Im k >= 0 (else :class:`DomainError`);
    ``cumulative``, if given, is the :class:`_Cumulative` for omega = 2k on
    these panels.  Returns complex arrays of shapes (N + 1, P, q, K) at the
    panel nodes and (N + 1, P + 1, K) at the edges; real k gives
    S_n = Re(e^{-ik tau} R_n).  With ``nodes`` false it returns the edge
    array alone and never forms the node values of order N, which no edge
    needs.
    """
    k = np.array(k, dtype=complex, ndmin=1)
    if k.imag.min() < -1e-12:
        raise DomainError("the prefix recursion requires Im k >= 0")
    cumulative = cumulative or _Cumulative(panels, 2.0 * k)
    # G_0 = e^{2ik tau}: e^{2ik tau_ref} times the kernel's outer factor at the
    # nodes, which is that factor alone where every reference is tau(0) = 0
    first = (np.exp(2j * np.multiply.outer(cumulative.ref, k))[:, None] * cumulative.out_nodes
             if cumulative.ref.any() else cumulative.out_nodes,
             np.exp(2j * np.multiply.outer(panels.tau_edges, k)))
    real = not k.imag.any()
    G = [g[None] if real else np.array([g, np.ones_like(g)]) for g in first]
    half_mu = 0.5 * panels.mu[..., None]  # one factor of the 2**-n per order
    kept = slice(None) if nodes else slice(1, None)  # nodes and edges, or edges
    out = tuple(np.empty((N + 1,) + g.shape, dtype=complex) for g in first[kept])
    for n in range(N + 1):
        if n:
            at_nodes = nodes or n < N
            G = cumulative(half_mu * G[0], phased=slice(n % 2, n % 2 + 1), nodes=at_nodes)
            G = G if at_nodes else (None, G)
        for o, g, e in zip(out, G[kept], first[kept]):
            np.subtract(g[0], e * g[0].conj() if real else g[1], out=o[n])
    for o in out:
        o *= -0.5j  # 1 / 2i
    return out if nodes else out[0]


def _phase_const(tt, a, b, n):
    return -tt.tau(a) + (-1.0) ** n * tt.tau(b)


def _check_interval(a, b):
    if not (0.0 <= a <= b <= 1.0) :
        if a > b:
            raise DomainError(f"interval must satisfy a <= b, got ({a}, {b})")
        raise DomainError(f"interval must lie in [0, 1], got ({a}, {b})")


def _check_regularized(k, shift, span):
    """Raise unless exp(ik*shift) S stays bounded: Im k >= 0, finite shift >= span."""
    if np.any(np.imag(k) < -1e-12):
        raise DomainError("regularized evaluation requires Im k >= 0")
    if not np.all(np.isfinite(shift)):
        raise DomainError("regularized evaluation needs a finite shift")
    if np.any(shift < span - 1e-12):
        raise ShiftTooSmall(
            f"shift falls {float(np.max(span - shift)):.3g} below the travel-time "
            "span; the combined exponents would grow"
        )


def _expand_level(lo, up, W, T, sign, c, tt, x01, w01):
    """Add one inner simplex variable; upper limits shrink to current nodes."""
    span = up - lo
    y = lo[:, None] + span[:, None] * x01[None, :]
    jac = span[:, None] * w01[None, :]
    yf = y.ravel()
    Wf = (W[:, None] * jac).ravel() * log_derivative(c, yf)
    Tf = T[:, None].repeat(x01.size, axis=1).ravel() + (2.0 * sign) * tt.tau(yf)
    lof = lo[:, None].repeat(x01.size, axis=1).ravel()
    return lof, yf, Wf, Tf


def _tuple_sum(W, P, k, shift=None):
    """sum_j W[..., j] e^{ik shift} sin(k P[..., j]) for every k, shape (..., K).

    ``W`` and ``P`` share the shape (..., J); ``k`` holds K wavenumbers and
    ``shift`` is None (the plain sum) or one value per row.  Real k without
    a shift gives the real sine and a real result; otherwise the terms take
    the two-exponential form of the module docstring.
    """
    k = np.ravel(k)
    real = shift is None and not np.iscomplexobj(k)
    shift = 0.0 if shift is None else np.asarray(shift, dtype=float)[..., None]
    rows = W[..., None, :] if real else W[..., None, :] / 2j
    out = np.empty(W.shape[:-1] + k.shape, dtype=rows.dtype)
    width = max(1, _CHUNK_LIMIT // P.size)
    for s in range(0, k.size, width):
        cols = slice(s, s + width)
        if real:
            terms = np.sin(np.multiply.outer(P, k[cols]))
        else:
            terms = (np.exp(1j * np.multiply.outer(shift + P, k[cols]))
                     - np.exp(1j * np.multiply.outer(shift - P, k[cols])))
        out[..., cols] = (rows @ terms)[..., 0, :]
    return out


def _one_interval(c, tt, a, b, k, spec, orders, shift=None):
    """Sum over ``orders`` (a slice of 0..N) of the (a, b) term tables at one k."""
    _check_interval(a, b)
    tables = build_term_tables(c, tt, a, b, spec)[orders]
    return complex(sum((tab.eval_plain(k) if shift is None else tab.eval_regularized(k, shift))
                       [0, 0] for tab in tables))


def simplex_integral(c: Conductivity, tt: TravelTimeMap, n: int, a: float, b: float,
                     k, spec: SeriesSpec) -> complex:
    """Evaluate S_n(a, b; k) by nested Gauss-Legendre quadrature.

    Odd in k, real for real k, and bounded by :func:`term_bound`.  For
    large Im k prefer :func:`regularized_simplex_integral`.
    """
    spec = replace(spec, truncation_N=n)
    return _one_interval(c, tt, a, b, k, spec, slice(n, None))


def regularized_simplex_integral(c: Conductivity, tt: TravelTimeMap, n: int, a: float,
                                 b: float, k, spec: SeriesSpec, shift: float) -> complex:
    """Evaluate exp(ik*shift) * S_n(a, b; k) in overflow-safe form.

    Requires Im k >= 0 and a finite shift >= tau(b) - tau(a); every
    combined exponent then decays in the upper half k-plane.
    """
    spec = replace(spec, truncation_N=n)
    return _one_interval(c, tt, a, b, k, spec, slice(n, None), shift)


def series_sum(c: Conductivity, tt: TravelTimeMap, a: float, b: float, k,
               spec: SeriesSpec) -> complex:
    """Partial sum over n <= truncation_N of the simplex integrals."""
    return _one_interval(c, tt, a, b, k, spec, slice(None))


def regularized_series_sum(c: Conductivity, tt: TravelTimeMap, a: float, b: float, k,
                           spec: SeriesSpec, shift: float) -> complex:
    """Regularized counterpart of :func:`series_sum` (same shift every term)."""
    return _one_interval(c, tt, a, b, k, spec, slice(None), shift)


def abs_log_derivative_integral(c: Conductivity, a: float, b: float) -> float:
    """int_a^b |sigma'/sigma| by composite Gauss-Legendre quadrature."""
    _check_interval(a, b)
    if b == a:
        return 0.0
    pts, wts = _panel_gauss(np.linspace(a, b, _ABS_MU_PANELS + 1), _ABS_MU_ORDER)
    vals = np.abs(log_derivative(c, pts.ravel())).reshape(pts.shape)
    return float(np.sum(wts * vals))


def term_bound(c: Conductivity, tt: TravelTimeMap, n: int, a: float, b: float, k) -> float:
    """|S_n(a,b;k)| <= cosh(|Im k| (tau(b)-tau(a))) * (int|mu|)^n / (2^n n!).

    Follows from |sin(x+iy)| <= cosh(y) and the 1/n! simplex volume.
    """
    span = float(tt.tau(b) - tt.tau(a))
    integral = abs_log_derivative_integral(c, a, b)
    kc = complex(k)
    return math.cosh(abs(kc.imag) * span) * integral**n / (2.0**n * math.factorial(n))


# ---------------------------------------------------------------------------
# Batched term tables: tuples for many intervals at once, reused across k.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TermTable:
    """Quadrature tuples of S_n for a batch of intervals, shared across k.

    ``weights``/``phases`` have shape (M, quad_order**n); ``const`` is the
    per-interval phase constant.  ``eval_plain`` and ``eval_regularized``
    return (M, K) arrays for a vector of K wavenumbers, both by the one
    tuple sum of the module docstring (real for real k in ``eval_plain``).
    The regularized values stay bounded when Im k >= 0 and each row's shift
    reaches its travel-time ``span``; both conditions are checked.
    """

    n: int
    weights: np.ndarray
    phases: np.ndarray
    const: np.ndarray
    span: np.ndarray  # tau(b) - tau(a), for shift validation

    def eval_plain(self, k):
        """S_n(a_m, b_m; k) for every interval m and wavenumber k: (M, K)."""
        return _tuple_sum(self.weights, self.const[:, None] + self.phases, k)

    def eval_regularized(self, k, shift):
        """exp(ik*shift) S_n(a_m, b_m; k), shape (M, K), bounded for Im k >= 0.

        ``shift`` is a scalar or one value per interval, must be finite
        (else :class:`DomainError`) and must reach the interval's
        travel-time span (else :class:`ShiftTooSmall`); every k needs
        Im k >= 0 (else :class:`DomainError`).
        """
        shift = np.broadcast_to(np.asarray(shift, dtype=float).reshape(-1),
                                self.span.shape)
        _check_regularized(k, shift, self.span)
        return _tuple_sum(self.weights, self.const[:, None] + self.phases, k, shift)


def build_term_tables(c: Conductivity, tt: TravelTimeMap, a, b,
                      spec: SeriesSpec) -> list[TermTable]:
    """Precompute tuples of S_0..S_N over a batch of intervals.

    ``a`` and ``b`` broadcast to a common length M; returns one
    :class:`TermTable` per order.  Memory is M * quad_order**n tuples per
    order, so an order N with more than _TABLE_LIMIT tuples per interval
    raises :class:`OrderTooHigh` before anything is expanded.  This is the
    one tuple expander: the scalar references are its one-interval tables.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    a, b = np.broadcast_arrays(a, b)
    a = a.ravel().copy()
    b = b.ravel().copy()
    if np.any(a < 0.0) or np.any(b > 1.0) or np.any(a > b):
        raise DomainError("batched intervals must satisfy 0 <= a <= b <= 1")
    M = a.size
    x01, w01 = _unit_gauss(spec.quad_order)
    span = tt.tau(b) - tt.tau(a)

    # quad_order**n grows with n, so the top order decides before any expansion.
    N = spec.truncation_N
    if spec.quad_order**N > _TABLE_LIMIT:
        raise OrderTooHigh(
            f"order {N} at quad_order {spec.quad_order} needs {spec.quad_order**N} "
            f"tuples per interval, more than {_TABLE_LIMIT}; lower quad_order"
        )
    tables = []
    for n in range(N + 1):
        lo = a.copy()
        up = b.copy()
        W = np.full(M, 0.5**n)
        T = np.zeros(M)
        for level in range(n, 0, -1):
            sign = (-1.0) ** (level + 1)
            lo, up, W, T = _expand_level(lo, up, W, T, sign, c, tt, x01, w01)
        J = spec.quad_order**n
        tables.append(TermTable(n, W.reshape(M, J), T.reshape(M, J),
                                _phase_const(tt, a, b, n), span))
    return tables
