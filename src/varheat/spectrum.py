"""Sturm-Liouville spectrum from the characteristic function.

The eigenvalue problem (sigma^2 y')' = lambda y, y(0) = y(1) = 0 has
eigenvalues lambda_m = -kappa_m^2 where the kappa_m are the positive real
zeros of the characteristic function Delta (restricted to its truncation
Delta_N here).  Delta_N is odd and oscillates with quasi-period
pi / tau(1), so a bracketing scan with step <= pi/(4 tau(1)) cannot skip a
zero.  All brackets are then solved together to machine precision by
Illinois regula falsi (Dowell & Jarratt, BIT 11 (1971)), one batched
Delta_N evaluation per iteration, stopping on the tolerances scipy's Brent
solver was run with (1e-15 absolute, 4 eps relative).  Delta_N comes from
the solver's prefix recursion (``transform.delta_values``), so the
roots are those of the function whose series gives the solution, at any N.
The scan runs one panel grid at a time and stops at the last sign change
it needs.

Eigenfunctions are evaluated from the explicit series

    X_m(x) = sigma(x)^(-1/2) * sum_{n<=N} S_n(0, x; kappa_m),

normalized to unit L^2 norm.  The sign needs no choice: the n = 0 term
S_0(0, x; kappa) = sin(kappa tau(x)) has slope kappa / sigma(0) > 0 at
x = 0, and every S_n with n >= 1 is O(x^(n+1)) there, so X_m'(0) > 0 at
every N.  The evaluator is ``simplex.simplex_terms`` at a = 0 and the
mode's own root kappa_m, summed over n, with sigma(x) taken from the
profile: every term for all x at once, by the prefix recursion
``simplex._prefix_series`` that the solver also uses, on the panels of
``simplex._grid`` with the solver's rule ``simplex._panel_count``:
max(16, ceil(2 kappa_m tau(1) / 6)) composite 12-node Gauss panels rounded
up to a power of two.  The knots of a tabulated profile and the requested x
are breakpoints of the grid, and each gap g between them is cut into
ceil(g count) equal panels, so the values are read at edges and no panel
is wider than the rule's.  Eigenfunction accuracy is set by that panel
grid alone.

Every panel grid is built once per profile and kept in the table of its
travel-time map (``TravelTimeMap.grids``): the roots, the norm of every
mode with the same panel count and the values of every mode at the same x
share it, and sharing changes no bit of any result.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coefficients import Conductivity, TravelTimeMap
from .errors import DomainError, NoConvergence, RootMissed
from .simplex import SeriesSpec, _grid, _grid_groups, _panel_count, _prefix_series, simplex_terms
# build_term_tables is not called here; it stays bound as
# spectrum.build_term_tables for benchmarks/test_benchmark.py, which checks
# that the tracer rebinds it.
from .transform import build_term_tables, delta_values  # noqa: F401

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


# scipy's default iteration cap for Brent's method, per bracket
_MAX_ITER = 100


def _bracket_roots(delta, a, b, fa, fb):
    """Roots of ``delta`` in the brackets [a_i, b_i], fa_i and fb_i of opposite sign.

    Illinois regula falsi on every bracket at once: each iteration makes one
    ``delta`` call over the brackets still open.  ``b`` is the newest iterate;
    the retained end ``a`` has its weight halved each time it is kept.  A step
    shorter than half the tolerance is lengthened to it, as Brent's method
    does, so the bracket collapses once the iterate sits on the root.  A
    bracket closes on Brent's test |b - a| <= 1e-15 + 4 eps |b|, or on
    delta exactly 0; its root is the end with the smaller |delta|, returned
    with that |delta|.
    Bracket i is mode i + 1 in a :class:`NoConvergence` message.
    """
    a, b, fa, fb = (np.array(v, dtype=float) for v in (a, b, fa, fb))
    wa = fa.copy()
    live = np.arange(a.size)
    for it in range(_MAX_ITER + 1):
        tol = 1e-15 + 4.0 * np.finfo(float).eps * np.abs(b[live])
        open_ = (np.abs(b[live] - a[live]) > tol) & (fb[live] != 0.0)
        live, tol = live[open_], tol[open_]
        if not live.size:
            break
        if it == _MAX_ITER:
            raise NoConvergence(
                f"root of mode {live[0] + 1} did not converge in {_MAX_ITER} iterations")
        la, lb, lfb, lwa = a[live], b[live], fb[live], wa[live]
        c = lb - lfb * (lb - la) / (lfb - lwa)
        c = np.where(np.abs(c - lb) < 0.5 * tol, lb + np.copysign(0.5 * tol, la - lb), c)
        fc = delta(c)
        bad = ~np.isfinite(fc)
        if bad.any():
            raise NoConvergence(
                f"root of mode {live[bad][0] + 1} did not converge: Delta_N is not finite")
        flip = np.signbit(fc) != np.signbit(lfb)
        a[live] = np.where(flip, lb, la)
        fa[live] = np.where(flip, lfb, fa[live])
        wa[live] = np.where(flip, lfb, 0.5 * lwa)
        b[live], fb[live] = c, fc
    first = np.abs(fa) < np.abs(fb)
    return np.where(first, a, b), np.where(first, np.abs(fa), np.abs(fb))


def find_eigenvalues(c: Conductivity, tt: TravelTimeMap, spec: SeriesSpec,
                     count: int) -> list[EigenPair]:
    """First ``count`` positive roots of Delta_N: sign-change scan, then one
    batched Illinois iteration over all brackets (:func:`_bracket_roots`).

    The scan step cannot skip roots: consecutive zeros of Delta_N are about
    pi/tau(1) apart while the scan step is a quarter of that.  Raises
    :class:`RootMissed` if the ceiling is reached with too few sign changes,
    and :class:`NoConvergence` if a bracket does not close.
    """
    if not isinstance(count, (int, np.integer)) or count < 1:
        raise DomainError("count must be an integer >= 1")
    total = tt.total
    step = math.pi / (4.0 * total)
    # Generous ceiling: roots sit near m*pi/tau(1).
    ceiling = (count + 3) * math.pi / total
    grid = np.arange(step * 0.25, ceiling, step)
    delta = functools.partial(delta_values, c, tt, spec=spec)
    # One panel grid at a time, in ascending k, until count sign changes are in.
    vals = np.empty(0)
    for _, _, group in _grid_groups(c, tt, _panel_count(grid, total)):
        vals = np.concatenate([vals, delta(grid[group])])
        signs = np.sign(vals)
        flips = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
        if flips.size >= count:
            break
    else:
        raise RootMissed(
            f"found {flips.size} sign changes below k={ceiling:.3f}, need {count}"
        )

    flips = flips[:count]
    kappas, residuals = _bracket_roots(delta, grid[flips], grid[flips + 1],
                                       vals[flips], vals[flips + 1])
    if np.any(np.diff(kappas) <= 0.0):
        raise NoConvergence("roots are not strictly increasing")
    return [EigenPair(m=m, kappa=kappa, lam=-kappa * kappa,
                      truncation_N=spec.truncation_N, residual=res)
            for m, (kappa, res) in enumerate(zip(kappas.tolist(), residuals.tolist()), start=1)]


def eigenfunction(c: Conductivity, tt: TravelTimeMap, pair: EigenPair,
                  spec: SeriesSpec) -> Eigenfunction:
    """Normalized eigenfunction for a root produced with the same spec.

    X(0) = 0 exactly by construction.  X(1) equals Delta_N(kappa_m) /
    sqrt(sigma(1)), and ``find_eigenvalues`` takes kappa_m from the same
    recursion, so X(1) vanishes to the precision of the root: below 5e-15
    for modes 1-8 of ``parabolic24``, ``rational9000`` and a 33-knot
    tabulated profile.  Unit L^2 norm, taken on the panel grid
    without the evaluated x, which the roots and every mode with the same
    panel count share through ``tt.grids``.  The evaluator is
    scale * sum_n ``simplex_terms(c, tt, 0, x, kappa, spec)`` /
    sqrt(sigma(x)); its grid, which the x cut, is shared by every mode
    evaluated at the same x.  The scale is positive and fixes the sign:
    S_0(0, x; kappa) = sin(kappa tau(x)) has slope kappa / sigma(0) > 0 at
    x = 0 and each S_n with n >= 1 is O(x^(n+1)) there, so X'(0) > 0 at
    every N.  The series
    comes from the prefix recursion on the solver's panel rule,
    max(16, ceil(2 kappa tau(1) / 6)) panels rounded up to a power of two
    (16 for the first 15 modes of ``parabolic24`` and ``rational9000``),
    with the table knots and every evaluated x as breakpoints; at 101 x,
    which cut the 16 panels into 100, its values for modes 1-8 agree with
    2048 panels to 6.7e-16 on ``parabolic24`` and on ``rational9000``.
    The evaluator raises :class:`DomainError` for x outside [0, 1].
    """
    if pair.truncation_N != spec.truncation_N:
        raise DomainError("pair was produced with a different truncation")
    kappa = pair.kappa
    panels = _grid(c, tt, _panel_count(kappa, tt.total))[0]
    # R = e^{i kappa tau} sum_{n<=N} S_n(0, .; kappa) at the nodes; |R| = |S| for real kappa
    nodes = sum(r[..., 0] for r, _ in _prefix_series(panels, kappa, spec.truncation_N))
    norm_sq = float(np.sum(panels.wts * np.abs(nodes) ** 2 / panels.sigma))
    if norm_sq <= 0.0:
        raise NoConvergence("eigenfunction has zero norm")
    scale = 1.0 / math.sqrt(norm_sq)

    def evaluator(x):
        x = np.asarray(x, dtype=float)
        vals = scale * simplex_terms(c, tt, 0.0, x, kappa, spec).sum(axis=0) / np.sqrt(c.sigma(x))
        return float(vals) if x.ndim == 0 else vals

    return Eigenfunction(pair=pair, evaluator=evaluator, normalization=scale)
