"""Sturm-Liouville spectrum from the characteristic function.

The eigenvalue problem (sigma^2 y')' = lambda y, y(0) = y(1) = 0 has
eigenvalues lambda_m = -kappa_m^2 where the kappa_m are the positive real
zeros of the characteristic function Delta (restricted to its truncation
Delta_N here).  Delta_N is odd and oscillates with quasi-period
pi / tau(1), so a bracketing scan with step <= pi/(4 tau(1)) cannot skip a
zero; each bracket is then solved to machine precision by Brent's method
(``scipy.optimize.brentq``).

Eigenfunctions are evaluated from the explicit series

    X_m(x) = sigma(x)^(-1/2) * sum_{n<=N} S_n(0, x; kappa_m),

normalized to unit L^2 norm with positive slope at x = 0.  Every term of
the series is evaluated at the mode's own root kappa_m, for all x at once by
the prefix recursion ``simplex._prefix_series`` that the solver also uses,
on its panel rule: max(32, ceil(kappa_m tau(1))) composite 12-node Gauss
panels rounded up to a power of two, with the knots of a tabulated profile
and the requested x merged into the panel edges.  Eigenfunction accuracy is
set by that panel grid, not by ``quad_order``, which only the root finder
uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import brentq

from .coefficients import Conductivity, TravelTimeMap
from .errors import DomainError, NoConvergence, RootMissed
from .simplex import (SeriesSpec, _panel_count, _panel_edges, _panels, _prefix_series,
                      build_term_tables)
# delta_values is not called here; it stays bound as spectrum.delta_values,
# a name the benchmark tracer rebinds and its tests check.
from .transform import _delta_from_tables, delta_values  # noqa: F401

__all__ = ["EigenPair", "Eigenfunction", "find_eigenvalues", "eigenfunction"]


@dataclass(frozen=True)
class EigenPair:
    """Mode index m >= 1, root kappa > 0, eigenvalue lam = -kappa**2."""

    m: int
    kappa: float
    lam: float
    truncation_N: int
    residual: float


@dataclass(frozen=True)
class Eigenfunction:
    """Normalized eigenfunction evaluator (unit L^2 norm, X'(0) > 0)."""

    pair: EigenPair
    evaluator: Callable[[np.ndarray], np.ndarray]
    normalization: float

    def __call__(self, x):
        return self.evaluator(x)


def _series(c, tt, edges, kappa, N):
    """Panels between ``edges`` and sum_{n<=N} e^{i kappa tau} S_n(0, y; kappa)
    at their nodes and edges; S_n = Re(e^{-i kappa tau} ...) for real kappa."""
    panels = _panels(c, tt, edges)
    return (panels,) + tuple(r.sum(axis=0)[..., 0] for r in _prefix_series(panels, kappa, N))


def find_eigenvalues(c: Conductivity, tt: TravelTimeMap, spec: SeriesSpec,
                     count: int) -> list[EigenPair]:
    """First ``count`` positive roots of Delta_N: sign-change scan, then brentq.

    The scan step cannot skip roots: consecutive zeros of Delta_N are about
    pi/tau(1) apart while the scan step is a quarter of that.  Raises
    :class:`RootMissed` if the ceiling is reached with too few sign changes.
    """
    if count < 1:
        raise DomainError("count must be >= 1")
    total = tt.total
    step = math.pi / (4.0 * total)
    # Generous ceiling: roots sit near m*pi/tau(1).
    ceiling = (count + 3) * math.pi / total
    grid = np.arange(step * 0.25, ceiling, step)
    # One table build serves the scan and every brentq step.
    tables = build_term_tables(c, tt, 0.0, 1.0, spec)

    def delta(k):
        return float(_delta_from_tables(tables, np.array([k]))[0])

    vals = _delta_from_tables(tables, grid)

    signs = np.sign(vals)
    flips = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    if flips.size < count:
        raise RootMissed(
            f"found {flips.size} sign changes below k={ceiling:.3f}, need {count}"
        )

    pairs = []
    for m, idx in enumerate(flips[:count], start=1):
        try:
            kappa = brentq(delta, grid[idx], grid[idx + 1], xtol=1e-15,
                           rtol=4.0 * np.finfo(float).eps)
        except RuntimeError as exc:
            raise NoConvergence(f"root of mode {m} did not converge: {exc}") from exc
        pairs.append(EigenPair(m=m, kappa=kappa, lam=-kappa * kappa,
                               truncation_N=spec.truncation_N,
                               residual=abs(delta(kappa))))

    kappas = [p.kappa for p in pairs]
    if any(b <= a for a, b in zip(kappas, kappas[1:])):
        raise NoConvergence("roots are not strictly increasing")
    return pairs


def eigenfunction(c: Conductivity, tt: TravelTimeMap, pair: EigenPair,
                  spec: SeriesSpec) -> Eigenfunction:
    """Normalized eigenfunction for a root produced with the same spec.

    X(0) = 0 exactly by construction.  X(1) equals Delta_N(kappa_m) /
    sqrt(sigma(1)) evaluated accurately, so it vanishes only up to the error
    of the root, which ``find_eigenvalues`` takes from the quad_order
    quadrature (|X(1)| up to 6.7e-4 for modes 1-8 of a 33-node tabulated
    profile at quad_order = 32).  Unit L^2 norm, sign fixed by a positive
    slope at the left boundary.  The series comes from the prefix recursion
    on the solver's panel rule, max(32, ceil(kappa tau(1))) panels rounded
    up to a power of two (32 for the first ten modes), with the table knots
    and every evaluated x merged into the edges; on ``parabolic24`` and
    ``rational9000`` its values for modes 1-8 agree with 2048 panels to
    about 1e-14.  The evaluator raises :class:`DomainError` for x outside
    [0, 1].
    """
    if pair.truncation_N != spec.truncation_N:
        raise DomainError("pair was produced with a different truncation")
    kappa = pair.kappa
    N = spec.truncation_N
    grid = _panel_edges(c, _panel_count(kappa, tt.total))

    # Positive slope at 0: probe inside the first quarter oscillation.
    probe = min(0.25, 0.5 * c.sigma_min / kappa)
    edges = np.union1d(grid, [probe])
    panels, at_nodes, at_edges = _series(c, tt, edges, kappa, N)
    # |e^{i kappa tau} S| = |S| for real kappa
    norm_sq = float(np.sum(panels.wts * np.abs(at_nodes) ** 2 / c.sigma(panels.pts)))
    if norm_sq <= 0.0:
        raise NoConvergence("eigenfunction has zero norm")
    at = np.searchsorted(edges, probe)
    slope = (np.exp(-1j * kappa * panels.tau_edges[at]) * at_edges[at]).real
    scale = math.copysign(1.0 / math.sqrt(norm_sq), slope)

    def evaluator(x, _scale=scale):
        x = np.asarray(x, dtype=float)
        flat = x.ravel()
        edges = np.union1d(grid, flat)
        panels, _, at_edges = _series(c, tt, edges, kappa, N)
        at = np.searchsorted(edges, flat)
        series = (np.exp(-1j * kappa * panels.tau_edges[at]) * at_edges[at]).real
        vals = _scale * series / np.sqrt(c.sigma(flat))
        return float(vals[0]) if x.ndim == 0 else vals.reshape(x.shape)

    return Eigenfunction(pair=pair, evaluator=evaluator, normalization=abs(scale))
