"""Thermal conductivity profiles and the travel-time map.

The PDE under study is ``q_t = (sigma^2(x) q_x)_x`` on x in [0, 1], so the
primitive object is the coefficient ``sigma(x)`` (units length/sqrt(time);
``sigma**2`` is a diffusivity).  Everything downstream consumes sigma through
two derived quantities:

* the logarithmic derivative ``mu = sigma'/sigma``, the weight of the
  ordered-simplex integrals, and
* the travel time ``tau(x) = int_0^x dxi / sigma(xi)``, the natural spectral
  length scale (for constant sigma the characteristic function is
  ``sin(k*tau(1))``).

``tau`` is expensive to recompute inside every sine argument, so
:func:`build_travel_time` caches it once as a C^1 monotone spline built from
panelwise Gauss-Legendre quadrature on a dyadically refined grid.

The catalog holds two closed-form benchmark coefficients (``parabolic24``
with sigma^2 = (3 - (2x-1)^2)/24, and the rational ``rational9000`` profile),
plus constant and CSV-tabulated variants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.interpolate import CubicHermiteSpline, PchipInterpolator

from .errors import (
    DomainError,
    MalformedTable,
    NonPositiveConductivity,
    ToleranceNotReached,
)

__all__ = [
    "Conductivity",
    "TravelTimeMap",
    "make_conductivity",
    "log_derivative",
    "build_travel_time",
    "load_sigma_table",
]

KINDS = ("constant", "parabolic24", "rational9000", "tabulated")

# Number of samples used for positivity / exactness audits at build time.
_VALIDATION_SAMPLES = 2001

_SQRT111 = math.sqrt(111.0)
# The rational profile's numerator and denominator share the root
# (21 - sqrt(111))/30, which lies inside [0, 1].  Evaluating the raw
# quotient there is a 0/0 cancellation, so the evaluator uses the deflated
# cubic/linear form below; the raw quartic/quadratic form is kept only for
# cross-checks.
_X_COMMON = (21.0 - _SQRT111) / 30.0
_X_OTHER = (21.0 + _SQRT111) / 30.0
_RAT_CONST = 6337.0 - 252.0 * _SQRT111


def _rational9000_raw_sq(x):
    """sigma^2 for the rational profile, straight from the closed form."""
    num = _RAT_CONST - 4500.0 * x**2 * (11.0 + x * (-14.0 + 5.0 * x))
    den = 9000.0 * (11.0 + 6.0 * x * (-7.0 + 5.0 * x))
    return num / den


def _rational9000_deflated_coeffs():
    # N(x) = -22500 * (x^4 - 2.8 x^3 + 2.2 x^2 - C/22500); synthetic division
    # by (x - x_common) leaves a cubic with remainder 0 (exactly, by algebra).
    b3 = 1.0
    b2 = _X_COMMON - 2.8
    b1 = 2.2 + _X_COMMON * b2
    b0 = _X_COMMON * b1
    return np.array([b3, b2, b1, b0])


_RAT_CUBIC = _rational9000_deflated_coeffs()


def _rational9000_sq(x):
    """Deflated sigma^2: cubic / linear, stable across the removable root."""
    cubic = np.polyval(_RAT_CUBIC, x)
    return -cubic / (12.0 * (x - _X_OTHER))


def _rational9000_dsq(x):
    """d(sigma^2)/dx via the quotient rule on the deflated form."""
    cubic = np.polyval(_RAT_CUBIC, x)
    dcubic = np.polyval(np.polyder(_RAT_CUBIC), x)
    lin = x - _X_OTHER
    return -(dcubic * lin - cubic) / (12.0 * lin**2)


@dataclass(frozen=True)
class Conductivity:
    """A validated conductivity profile on [0, 1].

    ``sigma`` and ``dsigma`` are vectorized evaluators (accept floats or
    ndarrays); ``sigma_min`` is a positive lower bound observed on a fine
    sample of [0, 1].  Instances are immutable and safe to share.
    """

    kind: str
    sigma: Callable[[np.ndarray], np.ndarray]
    dsigma: Callable[[np.ndarray], np.ndarray]
    sigma_min: float
    params: dict = field(default_factory=dict)

    def sigma_sq(self, x):
        s = self.sigma(x)
        return s * s


@dataclass(frozen=True)
class TravelTimeMap:
    """Cached antiderivative tau(x) = int_0^x dxi/sigma(xi).

    ``tau`` is a strictly increasing C^1 evaluator with tau(0) = 0 and
    tau(1) = ``total``; ``resolution`` is the node count of the underlying
    spline.
    """

    tau: Callable[[np.ndarray], np.ndarray]
    total: float
    resolution: int
    tol: float


def _check_domain(x, name="x"):
    x = np.asarray(x, dtype=float)
    if np.any(x < -1e-12) or np.any(x > 1.0 + 1e-12):
        raise DomainError(f"{name} must lie in [0, 1]")
    return np.clip(x, 0.0, 1.0)


def _validate_positive(sigma_fn, kind):
    xs = np.linspace(0.0, 1.0, _VALIDATION_SAMPLES)
    vals = np.asarray(sigma_fn(xs), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise NonPositiveConductivity(f"{kind}: sigma is not finite on [0, 1]")
    smin = float(vals.min())
    if smin <= 0.0:
        raise NonPositiveConductivity(
            f"{kind}: sigma <= 0 at x = {xs[int(vals.argmin())]:.6f}"
        )
    return smin


def _check_table(x, s2, where):
    """Validate (x, sigma^2) samples of a ``tabulated`` profile."""
    if x.shape != s2.shape or x.ndim != 1 or x.size < 4:
        raise MalformedTable(f"{where}: need >= 4 (x, sigma^2) samples of equal length")
    if np.any(np.diff(x) <= 0.0):
        raise MalformedTable(f"{where}: abscissae not strictly increasing")
    if abs(x[0]) > 1e-12 or abs(x[-1] - 1.0) > 1e-12:
        raise MalformedTable(f"{where}: x must cover [0, 1] (got [{x[0]}, {x[-1]}])")
    if np.any(s2 <= 0.0):
        raise NonPositiveConductivity(f"{where}: sigma^2 <= 0 in table")


def load_sigma_table(path):
    """Read a two-column CSV of (x, sigma^2) samples.

    The abscissae must be strictly increasing and cover [0, 1] exactly;
    all sigma^2 values must be positive.
    """
    try:
        data = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise MalformedTable(f"{path}: {exc}") from exc
    if data.shape[1] != 2:
        raise MalformedTable(f"{path}: need two columns 'x,sigma^2'")
    x, s2 = data[:, 0], data[:, 1]
    _check_table(x, s2, path)
    return x, s2


def make_conductivity(kind, **params) -> Conductivity:
    """Construct a validated :class:`Conductivity` of the given kind.

    Kinds
    -----
    constant
        ``c`` (default 1.0): sigma(x) = c.
    parabolic24
        sigma^2(x) = (3 - (2x-1)^2) / 24; the benchmark whose exact
        solution for q0 = x(1-x) is x(1-x) e^{-t}.
    rational9000
        The rational benchmark profile; evaluated in deflated form because
        its numerator and denominator share a root inside [0, 1].
    tabulated
        ``table`` = path to a CSV of (x, sigma^2), or ``x``/``sigma_sq``
        arrays directly.  Interpolated with a shape-preserving (PCHIP)
        cubic; sigma' is the analytic derivative of the interpolant.
        ``params["knots"]`` holds the abscissae, where sigma'' jumps.
    """
    if kind == "constant":
        c = float(params.pop("c", 1.0))
        if params:
            raise DomainError(f"constant: unknown params {sorted(params)}")
        if c <= 0.0:
            raise NonPositiveConductivity("constant: c must be positive")

        def sigma(x, c=c):
            return np.full_like(np.asarray(x, dtype=float), c)

        def dsigma(x):
            return np.zeros_like(np.asarray(x, dtype=float))

        return Conductivity("constant", sigma, dsigma, c, {"c": c})

    if kind == "parabolic24":
        if params:
            raise DomainError(f"parabolic24: unknown params {sorted(params)}")

        def sigma(x):
            x = np.asarray(x, dtype=float)
            return np.sqrt((3.0 - (2.0 * x - 1.0) ** 2) / 24.0)

        def dsigma(x):
            x = np.asarray(x, dtype=float)
            # (sigma^2)' = -(2x-1)/6, then sigma' = (sigma^2)'/(2 sigma)
            return -(2.0 * x - 1.0) / 6.0 / (2.0 * sigma(x))

        smin = _validate_positive(sigma, kind)
        return Conductivity("parabolic24", sigma, dsigma, smin, {})

    if kind == "rational9000":
        if params:
            raise DomainError(f"rational9000: unknown params {sorted(params)}")

        def sigma(x):
            x = np.asarray(x, dtype=float)
            return np.sqrt(_rational9000_sq(x))

        def dsigma(x):
            x = np.asarray(x, dtype=float)
            return _rational9000_dsq(x) / (2.0 * sigma(x))

        smin = _validate_positive(sigma, kind)
        return Conductivity("rational9000", sigma, dsigma, smin, {})

    if kind == "tabulated":
        if "table" in params:
            x, s2 = load_sigma_table(params.pop("table"))
        else:
            missing = [p for p in ("x", "sigma_sq") if p not in params]
            if missing:
                raise DomainError(
                    f"tabulated: needs `table` or both `x` and `sigma_sq` "
                    f"(missing {', '.join(missing)})"
                )
            x = np.asarray(params.pop("x"), dtype=float)
            s2 = np.asarray(params.pop("sigma_sq"), dtype=float)
            _check_table(x, s2, "tabulated")
        if params:
            raise DomainError(f"tabulated: unknown params {sorted(params)}")
        interp = PchipInterpolator(x, s2, extrapolate=False)
        dinterp = interp.derivative()

        def sigma(xq, interp=interp):
            xq = _check_domain(xq)
            return np.sqrt(interp(xq))

        def dsigma(xq, interp=interp, dinterp=dinterp):
            xq = _check_domain(xq)
            return dinterp(xq) / (2.0 * np.sqrt(interp(xq)))

        smin = _validate_positive(sigma, kind)
        knots = np.array(x)
        knots.flags.writeable = False
        return Conductivity("tabulated", sigma, dsigma, smin, {"knots": knots})

    raise DomainError(f"unknown conductivity kind {kind!r}; expected one of {KINDS}")


def log_derivative(c: Conductivity, x):
    """mu(x) = sigma'(x)/sigma(x), the simplex-integral weight."""
    x = _check_domain(x)
    return c.dsigma(x) / c.sigma(x)


@lru_cache(maxsize=32)
def _unit_gauss(order):
    """Gauss-Legendre nodes/weights mapped to [0, 1], cached per order."""
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w


def _panel_gauss(edges, order):
    """Composite Gauss-Legendre: ``order`` nodes on each panel between edges.

    Returns (points, weights), each of shape (len(edges) - 1, order).
    """
    x01, w01 = _unit_gauss(order)
    width = np.diff(edges)
    pts = edges[:-1, None] + width[:, None] * x01[None, :]
    return pts, width[:, None] * w01[None, :]


def _panel_integrals(c, edges):
    """10-node Gauss-Legendre integral of 1/sigma over each panel between edges."""
    pts, wts = _panel_gauss(edges, 10)
    return np.sum(wts / c.sigma(pts), axis=1)


def build_travel_time(c: Conductivity, tol: float = 1e-10, max_level: int = 14) -> TravelTimeMap:
    """Build the cached travel-time map tau for a conductivity.

    Panels are refined dyadically until two successive levels agree to
    ``tol`` at all shared nodes (raises :class:`ToleranceNotReached` at the
    cap).  The result interpolates panel-boundary values with a cubic
    Hermite spline whose slopes are the exact derivative 1/sigma, so tau is
    C^1 and strictly increasing.
    """
    if tol <= 0.0:
        raise DomainError("tol must be positive")
    level = 6
    edges = np.linspace(0.0, 1.0, 2**level + 1)
    cum = np.concatenate(([0.0], np.cumsum(_panel_integrals(c, edges))))
    while True:
        if level >= max_level:
            raise ToleranceNotReached(
                f"travel-time cache did not reach tol={tol:g} by level {max_level}"
            )
        level += 1
        fine_edges = np.linspace(0.0, 1.0, 2**level + 1)
        fine_cum = np.concatenate(([0.0], np.cumsum(_panel_integrals(c, fine_edges))))
        # Quadrature agreement at shared nodes plus the coarse spline's
        # interpolation error at the new nodes; both must sit below tol.
        err_nodes = float(np.max(np.abs(fine_cum[::2] - cum)))
        coarse_spline = CubicHermiteSpline(edges, cum, 1.0 / c.sigma(edges))
        err_interp = float(np.max(np.abs(coarse_spline(fine_edges) - fine_cum)))
        edges, cum = fine_edges, fine_cum
        if max(err_nodes, err_interp) <= tol:
            break

    spline = CubicHermiteSpline(edges, cum, 1.0 / c.sigma(edges))
    # Positive slope at every node does not by itself force monotonicity of
    # a Hermite cubic; audit on a fine grid.
    probe = np.linspace(0.0, 1.0, 4 * edges.size)
    if np.any(np.diff(spline(probe)) <= 0.0):
        raise ToleranceNotReached("travel-time spline is not monotone; refine the table")

    def tau(x, spline=spline):
        x = _check_domain(x)
        return spline(x)

    return TravelTimeMap(tau=tau, total=float(cum[-1]), resolution=int(edges.size), tol=tol)
