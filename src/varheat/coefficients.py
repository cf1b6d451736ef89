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

``tau`` is needed at every quadrature node of the series, so
:func:`build_travel_time` tabulates it once, exact to roundoff, as the
piecewise-polynomial antiderivative of a composite Gauss-Legendre
interpolant of 1/sigma.

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
from scipy.interpolate import PchipInterpolator, PPoly

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

# The travel-time table: Gauss panels, nodes per panel, the check rule's
# nodes and its tolerance relative to tau(1) (see build_travel_time).
_TAU_PANELS = 64
_TAU_ORDER = 16
_TAU_CHECK_ORDER = 12
_TAU_RTOL = 1e-13

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


# The closed-form profiles as (sigma^2, (sigma^2)') evaluators.
_CLOSED_FORMS = {
    "parabolic24": (lambda x: (3.0 - (2.0 * x - 1.0) ** 2) / 24.0,
                    lambda x: -(2.0 * x - 1.0) / 6.0),
    "rational9000": (_rational9000_sq, _rational9000_dsq),
}


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

    ``tau`` is a vectorized evaluator on [0, 1] (else :class:`DomainError`)
    with tau(0) = 0 and tau(1) = ``total``, exact to roundoff (see
    :func:`build_travel_time`).

    ``c`` is the profile the map was built for: every series call with
    another profile on this map raises :class:`DomainError`.

    ``grids`` is the profile's table of series panel grids, filled and read
    by ``simplex._grid`` only: built on first use, shared by every Delta_N,
    root, eigenfunction and solve on this map, and dropped with it.  Keyed
    by panel count, it holds one plain grid per count and the latest grid
    with points beside each; counts whose edges coincide share one grid.
    """

    tau: Callable[[np.ndarray], np.ndarray]
    total: float
    c: Conductivity | None = field(default=None, init=False, repr=False, compare=False)
    grids: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def _check_domain(x, name="x"):
    x = np.asarray(x, dtype=float)
    if not np.all((x >= -1e-12) & (x <= 1.0 + 1e-12)):  # NaN fails too
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


def _check_xy(x, y, where, y_name):
    """Validate (x, y) samples on [0, 1]: finite, x increasing from 0 to 1 in
    steps of at least 1e-12 (a narrower table panel underflows the travel-time
    polynomial of :func:`build_travel_time` to NaN)."""
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise MalformedTable(f"{where}: x and {y_name} must be finite")
    if np.any(np.diff(x) < 1e-12):
        raise MalformedTable(f"{where}: abscissae must increase in steps of at least 1e-12")
    if abs(x[0]) > 1e-12 or abs(x[-1] - 1.0) > 1e-12:
        raise MalformedTable(f"{where}: x must cover [0, 1] (got [{x[0]}, {x[-1]}])")


def _check_table(x, s2, where):
    """Validate (x, sigma^2) samples of a ``tabulated`` profile."""
    if x.shape != s2.shape or x.ndim != 1 or x.size < 4:
        raise MalformedTable(f"{where}: need >= 4 (x, sigma^2) samples of equal length")
    _check_xy(x, s2, where, "sigma^2")
    if np.any(s2 <= 0.0):
        raise NonPositiveConductivity(f"{where}: sigma^2 <= 0 in table")


def _read_table(path, y_name):
    """Read a CSV of 'x,y' rows, checked by :func:`_check_xy`: the one
    reader of sigma^2 and initial-profile tables."""
    try:
        data = np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise MalformedTable(f"{path}: {exc}") from exc
    if data.shape[0] < 2 or data.shape[1] != 2:
        raise MalformedTable(f"{path}: need two or more rows 'x,{y_name}'")
    _check_xy(data[:, 0], data[:, 1], path, y_name)
    return data[:, 0], data[:, 1]


def load_sigma_table(path):
    """Read a two-column CSV of (x, sigma^2) samples.

    The abscissae must increase in steps of at least 1e-12 and cover
    [0, 1] exactly; all sigma^2 values must be positive.
    """
    x, s2 = _read_table(path, "sigma^2")
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
        if not (np.isfinite(c) and c > 0.0):
            raise NonPositiveConductivity(f"constant: c must be finite and positive, got {c!r}")

        def sigma(x, c=c):
            return np.full_like(np.asarray(x, dtype=float), c)

        def dsigma(x):
            return np.zeros_like(np.asarray(x, dtype=float))

        return Conductivity("constant", sigma, dsigma, c, {"c": c})

    if kind in _CLOSED_FORMS:
        if params:
            raise DomainError(f"{kind}: unknown params {sorted(params)}")
        sq, dsq = _CLOSED_FORMS[kind]

        def sigma(x):
            return np.sqrt(sq(np.asarray(x, dtype=float)))

        def dsigma(x):
            x = np.asarray(x, dtype=float)
            # sigma' = (sigma^2)' / (2 sigma)
            return dsq(x) / (2.0 * sigma(x))

        return Conductivity(kind, sigma, dsigma, _validate_positive(sigma, kind), {})

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
        knots = np.clip(x, 0.0, 1.0)  # the ends may miss 0 and 1 by 1e-12
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


def build_travel_time(c: Conductivity) -> TravelTimeMap:
    """The travel-time map tau for a conductivity, exact to roundoff.

    On each of _TAU_PANELS uniform panels, split at the knots of a tabulated
    profile (where sigma is smooth only piecewise), 1/sigma is interpolated
    at _TAU_ORDER Gauss nodes; tau is the antiderivative of that piecewise
    polynomial, so its value at each edge is the composite Gauss sum of
    1/sigma.  Raises :class:`ToleranceNotReached` when a panel's integral
    by _TAU_CHECK_ORDER nodes differs from it by more than
    _TAU_RTOL * tau(1), i.e. when 1/sigma is not resolved.
    """
    edges = np.union1d(np.linspace(0.0, 1.0, _TAU_PANELS + 1), c.params.get("knots", ()))
    pts, wts = _panel_gauss(edges, _TAU_ORDER)
    inv = 1.0 / c.sigma(pts)
    check_pts, check_wts = _panel_gauss(edges, _TAU_CHECK_ORDER)
    integrals = np.sum(wts * inv, axis=1)
    gap = np.max(np.abs(integrals - np.sum(check_wts / c.sigma(check_pts), axis=1)))
    if not gap <= _TAU_RTOL * integrals.sum():
        raise ToleranceNotReached(
            f"travel time: panel integrals of 1/sigma by {_TAU_ORDER} and {_TAU_CHECK_ORDER} "
            f"Gauss nodes differ by {gap:.3g}; sigma is not resolved"
        )
    width = np.diff(edges)[:, None]
    # The interpolant in powers of t = (x - edge) / width, by a solve: LU is
    # backward stable, so it meets 1/sigma at the nodes to roundoff, and
    # Gauss nodes keep it as close between them.  A precomputed inverse
    # loses up to 2e-7, a discrete Legendre transform 3.6e-15 of tau.
    powers = np.linalg.solve(np.vander(_unit_gauss(_TAU_ORDER)[0], increasing=True), inv.T).T
    # tau on a panel: the cumulative Gauss sum at its left edge, then the
    # integral (PPoly.antiderivative chains the edge values less exactly).
    tau_t = np.hstack([np.cumsum(integrals)[:, None] - integrals[:, None],
                       width * powers / np.arange(1, _TAU_ORDER + 1)])
    # PPoly wants the highest power first, in powers of x - edge.
    antiderivative = PPoly((tau_t / width ** np.arange(_TAU_ORDER + 1)).T[::-1], edges)

    def tau(x, antiderivative=antiderivative):
        return antiderivative(_check_domain(x))

    tt = TravelTimeMap(tau=tau, total=float(antiderivative(1.0)))
    object.__setattr__(tt, "c", c)
    return tt
