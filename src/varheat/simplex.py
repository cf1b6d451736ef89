"""Ordered-simplex integrals of the log-derivative weight.

The building block of the whole solver is the n-fold integral

    S_n(a, b; k) = 2**-n * int_{a<=y1<=...<=yn<=b}
                   prod_p mu(y_p) * sin(k * A(y)) dy1..dyn,

where mu = sigma'/sigma and the phase A(y) alternates travel-time gaps:

    A(y) = sum_{p=0..n} (-1)**p (tau(y_{p+1}) - tau(y_p)),
    y_0 = a, y_{n+1} = b.

Since tau enters linearly, A(y) = c + sum_p 2*(-1)**(p+1) tau(y_p) with the
constant c = -tau(a) + (-1)**n tau(b), so a quadrature rule for the simplex
reduces to a list of (weight, phase) pairs that are *independent of k*.  All
evaluators below exploit that: nested Gauss-Legendre nodes are expanded once
(innermost limits shrink with the outer variable) and then any number of k
values can be swept as dot products against the tuple arrays.

Every evaluator sums W * exp(ik*shift) * sin(k*(c+T)) over the tuples:
shift = 0 is the plain series, fine for real and moderately complex k.  The
regularized form takes shift >= tau(b)-tau(a) >= |c+T|, so for Im k >= 0
every exponent's real part is at most 0 and no intermediate exceeds
magnitude 1 per sample (up to the mu product); it stays bounded high in the
upper half plane, where the plain sine overflows.  The scalar references
(``simplex_integral`` and its siblings) evaluate complex sin and exp on
each chunk of tuples.  Batched :class:`TermTable` sweeps use one kernel in
real arithmetic: with k = a + ib and P = c + T,

    exp(ik*shift) sin(kP) = exp(ia*shift) [sin(aP)(E- + E+)
                                           + i cos(aP)(E- - E+)] / 2,
    E- = exp(b(P - shift)),  E+ = exp(-b(P + shift)),

so the regularized condition (b >= 0, shift >= |P|) is exactly E-, E+ <= 1.

Cost grows as quad_order**n; orders above ORDER_CAP are refused.

For real k and the lower limit 0, ``_prefix_series`` gives every term
S_n(0, y; k) for all upper limits y at once, in n cumulative integrations on
composite Gauss panels, at a cost linear in n (the eigenfunction path).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .coefficients import (
    Conductivity,
    TravelTimeMap,
    _panel_gauss,
    _unit_gauss,
    log_derivative,
)
from .errors import DomainError, OrderTooHigh, ShiftTooSmall

__all__ = [
    "ORDER_CAP",
    "SeriesSpec",
    "simplex_integral",
    "regularized_simplex_integral",
    "series_sum",
    "regularized_series_sum",
    "term_bound",
    "abs_log_derivative_integral",
]

ORDER_CAP = 6

# State arrays larger than this are split before expanding the next level.
_CHUNK_LIMIT = 1 << 22
# Stored term tables refuse orders whose per-interval tuple count exceeds this.
_TABLE_LIMIT = 1 << 24
# Elements per block of the term-table sweep (a few float64 temporaries of
# this size fit in a core's L2 cache).
_SWEEP_BLOCK = 1 << 16


@dataclass(frozen=True)
class SeriesSpec:
    """Truncation and quadrature configuration for the series evaluators.

    truncation_N: series cut at n <= N (N >= 0).
    quad_order:   Gauss-Legendre nodes per simplex dimension (>= 2).
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
# Composite Gauss rule of abs_log_derivative_integral: panels x nodes.
_ABS_MU_PANELS = 64
_ABS_MU_ORDER = 12


@lru_cache(maxsize=8)
def _unit_cumulative(order):
    """Spectral integration on [0, 1] at the Gauss nodes, cached per order.

    (Q @ f)[i] is the integral from 0 to x_i of the degree order-1
    polynomial that interpolates f at the nodes x_j.
    """
    x01, _ = _unit_gauss(order)
    t = 2.0 * x01 - 1.0
    legendre = np.polynomial.legendre
    # antider[i, j] = int_{-1}^{t_i} P_j; vander[i, j] = P_j(t_i).
    antider = legendre.legval(t, legendre.legint(np.eye(order), lbnd=-1.0)).T
    vander = legendre.legvander(t, order - 1)
    return 0.5 * np.linalg.solve(vander.T, antider.T).T


def _prefix_series(c, tt, edges, k, N):
    """Terms S_0..S_N(0, y; k) for real k by prefix recursion on Gauss panels.

    With A linear in tau(y_p), sin(kA) = Im e^{ikA} factors over the
    simplex variables:

        S_n(0, y; k) = 2**-n Im[e^{ik(-1)**n tau(y)} F_n(y)],   F_0 = 1,
        F_p(y) = int_0^y mu(s) e^{2ik(-1)**(p+1) tau(s)} F_{p-1}(s) ds,

    so each order costs one cumulative integration.  On each panel between
    consecutive ``edges`` (increasing, from 0 to at most 1) F_p comes from
    the spectral integration matrix at the Gauss nodes; a cumulative sum of
    the panel integrals carries it across panels, so values at the edges
    carry no interpolation error.

    Returns (pts, wts, at_nodes, at_edges): the panel nodes and weights,
    shape (P, _PREFIX_ORDER), and the terms, shapes (N + 1, P, _PREFIX_ORDER)
    and (N + 1, P + 1).
    """
    edges = np.asarray(edges, dtype=float)
    if not (edges[0] == 0.0 and edges[-1] <= 1.0):
        raise DomainError(
            f"series points must lie in [0, 1], got [{edges[0]:g}, {edges[-1]:g}]"
        )
    k = float(k)
    pts, wts = _panel_gauss(edges, _PREFIX_ORDER)
    cumulative = _unit_cumulative(_PREFIX_ORDER)
    width = np.diff(edges)[:, None]
    tau_pts = tt.tau(pts)
    tau_edges = tt.tau(edges)
    up = log_derivative(c, pts) * np.exp(2j * k * tau_pts)
    F_pts = np.ones(pts.shape, dtype=complex)
    F_edges = np.ones(edges.shape, dtype=complex)
    at_nodes = np.empty((N + 1,) + pts.shape)
    at_edges = np.empty((N + 1,) + edges.shape)
    for n in range(N + 1):
        if n > 0:
            g = (up if n % 2 else up.conj()) * F_pts
            F_edges = np.concatenate(([0.0], np.cumsum(np.sum(wts * g, axis=1))))
            F_pts = F_edges[:-1, None] + width * (g @ cumulative.T)
        sign = (-1.0) ** n
        at_nodes[n] = 0.5**n * (np.exp(1j * sign * k * tau_pts) * F_pts).imag
        at_edges[n] = 0.5**n * (np.exp(1j * sign * k * tau_edges) * F_edges).imag
    return pts, wts, at_nodes, at_edges


def _phase_const(tt, a, b, n):
    return -tt.tau(a) + (-1.0) ** n * tt.tau(b)


def _check_interval(a, b):
    if not (0.0 <= a <= b <= 1.0) :
        if a > b:
            raise DomainError(f"interval must satisfy a <= b, got ({a}, {b})")
        raise DomainError(f"interval must lie in [0, 1], got ({a}, {b})")


def _check_order(n, quad_order):
    if n < 0:
        raise DomainError("order n must be >= 0")
    if n > ORDER_CAP:
        raise OrderTooHigh(
            f"order n={n} exceeds cap {ORDER_CAP} (cost grows as quad_order**n)"
        )
    return quad_order**n


def _expand_level(lo, up, W, T, sign, mu_vals_fn, tau_vals_fn, x01, w01):
    """Add one inner simplex variable; upper limits shrink to current nodes."""
    span = up - lo
    y = lo[:, None] + span[:, None] * x01[None, :]
    jac = span[:, None] * w01[None, :]
    yf = y.ravel()
    Wf = (W[:, None] * jac).ravel() * mu_vals_fn(yf)
    Tf = T[:, None].repeat(x01.size, axis=1).ravel() + (2.0 * sign) * tau_vals_fn(yf)
    lof = lo[:, None].repeat(x01.size, axis=1).ravel()
    return lof, yf, Wf, Tf


def _fold_simplex(c, tt, n, a, b, quad_order, kernel):
    """Apply ``kernel(W, c + T)`` over all quadrature tuples of S_n, chunked."""
    count = _check_order(n, quad_order)
    const = _phase_const(tt, a, b, n)
    if n == 0:
        return kernel(np.array([1.0]), np.array([const]))
    x01, w01 = _unit_gauss(quad_order)
    mu = lambda y: np.asarray(log_derivative(c, y))
    tau = lambda y: np.asarray(tt.tau(y))
    scale = 0.5**n

    def recurse(lo, up, W, T, level):
        # level = index p of the variable being added next (n down to 1)
        if level == 0:
            return np.sum(kernel(W * scale, T + const))
        if up.size * quad_order > _CHUNK_LIMIT and up.size > 1:
            half = up.size // 2
            return recurse(lo[:half], up[:half], W[:half], T[:half], level) + recurse(
                lo[half:], up[half:], W[half:], T[half:], level
            )
        sign = (-1.0) ** (level + 1)
        lof, yf, Wf, Tf = _expand_level(lo, up, W, T, sign, mu, tau, x01, w01)
        return recurse(lof, yf, Wf, Tf, level - 1)

    lo0 = np.array([a], dtype=float)
    up0 = np.array([b], dtype=float)
    return recurse(lo0, up0, np.array([1.0]), np.array([0.0]), n)


def _kernel_plain(k):
    kc = complex(k)
    if kc.imag == 0.0:
        kr = kc.real

        def kern(W, P):
            return complex(W @ np.sin(kr * P))

    else:

        def kern(W, P):
            return complex(W @ np.sin(kc * P))

    return kern


def _kernel_regularized(k, shift):
    kc = complex(k)

    def kern(W, P):
        up = np.exp(1j * kc * (shift + P))
        dn = np.exp(1j * kc * (shift - P))
        return complex(W @ (up - dn)) / 2j

    return kern


def simplex_integral(c: Conductivity, tt: TravelTimeMap, n: int, a: float, b: float,
                     k, spec: SeriesSpec) -> complex:
    """Evaluate S_n(a, b; k) by nested Gauss-Legendre quadrature.

    Odd in k, real for real k, and bounded by :func:`term_bound`.  For
    large Im k prefer :func:`regularized_simplex_integral`.
    """
    _check_interval(a, b)
    return _fold_simplex(c, tt, n, a, b, spec.quad_order, _kernel_plain(k))


def regularized_simplex_integral(c: Conductivity, tt: TravelTimeMap, n: int, a: float,
                                 b: float, k, spec: SeriesSpec, shift: float) -> complex:
    """Evaluate exp(ik*shift) * S_n(a, b; k) in overflow-safe form.

    Requires Im k >= 0 and shift >= tau(b) - tau(a); every combined
    exponent then decays in the upper half k-plane.
    """
    _check_interval(a, b)
    kc = complex(k)
    if kc.imag < -1e-12:
        raise DomainError("regularized evaluation requires Im k >= 0")
    span = tt.tau(b) - tt.tau(a)
    if shift < span - 1e-12:
        raise ShiftTooSmall(
            f"shift={shift:g} is below the travel-time span {span:g}; "
            "the combined exponents would grow"
        )
    return _fold_simplex(c, tt, n, a, b, spec.quad_order, _kernel_regularized(kc, shift))


def series_sum(c: Conductivity, tt: TravelTimeMap, a: float, b: float, k,
               spec: SeriesSpec) -> complex:
    """Partial sum over n <= truncation_N of the simplex integrals."""
    _check_interval(a, b)
    kern = _kernel_plain(k)
    return complex(
        sum(_fold_simplex(c, tt, n, a, b, spec.quad_order, kern)
            for n in range(spec.truncation_N + 1))
    )


def regularized_series_sum(c: Conductivity, tt: TravelTimeMap, a: float, b: float, k,
                           spec: SeriesSpec, shift: float) -> complex:
    """Regularized counterpart of :func:`series_sum` (same shift every term)."""
    _check_interval(a, b)
    kc = complex(k)
    if kc.imag < -1e-12:
        raise DomainError("regularized evaluation requires Im k >= 0")
    span = tt.tau(b) - tt.tau(a)
    if shift < span - 1e-12:
        raise ShiftTooSmall(f"shift={shift:g} below travel-time span {span:g}")
    kern = _kernel_regularized(kc, shift)
    return complex(
        sum(_fold_simplex(c, tt, n, a, b, spec.quad_order, kern)
            for n in range(spec.truncation_N + 1))
    )


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
    return (M, K) arrays for a vector of K wavenumbers, both from one
    real-arithmetic sweep (see the module docstring) that takes rows and
    wavenumbers in cache-sized blocks.  The regularized values stay bounded
    when Im k >= 0 and each row's shift reaches its travel-time ``span``;
    both conditions are checked.
    """

    n: int
    weights: np.ndarray
    phases: np.ndarray
    const: np.ndarray
    span: np.ndarray  # tau(b) - tau(a), for shift validation

    def _sweep(self, k, shift):
        """(M, K) sums over j of W e^{ik shift} sin(kP), one shift per row.

        Evaluates the real form of the module docstring, with
        sin(aP) = 2 t d and cos(aP) = 2 d - 1 from t = tan(aP/2),
        d = 1 / (1 + t^2): one real transcendental for both (absolute error
        a few 1e-16).  Rows and wavenumbers are taken in blocks of about
        _SWEEP_BLOCK elements, so the real temporaries of a block stay in
        cache, and each block reduces over j by two real matrix products.
        """
        k = np.atleast_1d(np.asarray(k)).ravel()
        M, J = self.phases.shape
        out = np.zeros((M, k.size), dtype=complex)
        if not self.weights.any():
            return out
        half_a, b = 0.5 * k.real, k.imag
        P = self.const[:, None] + self.phases
        width = max(1, min(k.size, _SWEEP_BLOCK // J))
        rows = max(1, _SWEEP_BLOCK // (J * width))
        for r in range(0, M, rows):
            p = P[r : r + rows, :, None]
            sh = shift[r : r + rows, None, None]
            w = self.weights[r : r + rows, None, :]
            for s in range(0, k.size, width):
                cols = slice(s, s + width)
                t = np.tan(p * half_a[cols])
                d = 1.0 / (1.0 + t * t)
                dn = np.exp(b[cols] * (p - sh))
                up = np.exp(-b[cols] * (p + sh))
                out.real[r : r + rows, cols] = (w @ (t * d * (dn + up)))[:, 0]
                out.imag[r : r + rows, cols] = (w @ ((d - 0.5) * (dn - up)))[:, 0]
        return out * np.exp(1j * np.multiply.outer(shift, k.real))

    def eval_plain(self, k):
        """S_n(a_m, b_m; k) for every interval m and wavenumber k: (M, K)."""
        return self._sweep(k, np.zeros(self.phases.shape[0]))

    def eval_regularized(self, k, shift):
        """exp(ik*shift) S_n(a_m, b_m; k), shape (M, K), bounded for Im k >= 0.

        ``shift`` is a scalar or one value per interval and must reach the
        interval's travel-time span (else :class:`ShiftTooSmall`); every k
        needs Im k >= 0 (else :class:`DomainError`).
        """
        shift = np.broadcast_to(np.asarray(shift, dtype=float).reshape(-1),
                                self.span.shape)
        if np.any(shift < self.span - 1e-12):
            raise ShiftTooSmall("shift below travel-time span of a batched interval")
        if np.any(np.imag(k) < -1e-12):
            raise DomainError("regularized evaluation requires Im k >= 0")
        return self._sweep(k, shift)


def build_term_tables(c: Conductivity, tt: TravelTimeMap, a, b, spec: SeriesSpec,
                      max_order: int | None = None) -> list[TermTable]:
    """Precompute tuples of S_0..S_N over a batch of intervals.

    ``a`` and ``b`` broadcast to a common length M; returns one
    :class:`TermTable` per order.  Memory is M * quad_order**n tuples per
    order, so high orders are refused here (use the scalar evaluators).
    """
    N = spec.truncation_N if max_order is None else max_order
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    a, b = np.broadcast_arrays(a, b)
    a = a.ravel().copy()
    b = b.ravel().copy()
    if np.any(a < 0.0) or np.any(b > 1.0) or np.any(a > b):
        raise DomainError("batched intervals must satisfy 0 <= a <= b <= 1")
    M = a.size
    x01, w01 = _unit_gauss(spec.quad_order)
    mu = lambda y: np.asarray(log_derivative(c, y))
    tau = lambda y: np.asarray(tt.tau(y))
    span = tau(b) - tau(a)

    tables = []
    for n in range(N + 1):
        count = _check_order(n, spec.quad_order)
        if count > _TABLE_LIMIT:
            raise OrderTooHigh(
                f"order {n} at quad_order {spec.quad_order} needs {count} stored "
                "tuples per interval; lower quad_order or use the scalar path"
            )
        const = -tau(a) + (-1.0) ** n * tau(b)
        if n == 0:
            tables.append(
                TermTable(0, np.ones((M, 1)), np.zeros((M, 1)), const, span)
            )
            continue
        lo = a.copy()
        up = b.copy()
        W = np.full(M, 0.5**n)
        T = np.zeros(M)
        for level in range(n, 0, -1):
            sign = (-1.0) ** (level + 1)
            lo, up, W, T = _expand_level(lo, up, W, T, sign, mu, tau, x01, w01)
        J = count
        tables.append(
            TermTable(n, W.reshape(M, J), T.reshape(M, J), const, span)
        )
    return tables
