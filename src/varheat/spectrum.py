"""Sturm-Liouville spectrum from the characteristic function.

The eigenvalue problem (sigma^2 y')' = lambda y, y(0) = y(1) = 0 has
eigenvalues lambda_m = -kappa_m^2 where the kappa_m are the positive real
zeros of the characteristic function Delta (restricted to its truncation
Delta_N here).  Delta_N is odd and entire of exponential type tau(1): it
oscillates with quasi-period pi / tau(1), so on a piece of up to 16
quasi-periods a Chebyshev interpolant of fixed degree resolves it to
roundoff, and the roots of the interpolants, from their colleague matrices
(``numpy.polynomial.chebyshev.chebroots``), are all the roots at once:
Boyd's Chebyshev-proxy rootfinder (J. P. Boyd, SIAM J. Numer. Anal. 40
(2002) 1666-1682; Battles & Trefethen, SIAM J. Sci. Comput. 25 (2004)).
One Newton step polishes them, and the sign of Delta_N between them
certifies a root in each gap.  Delta_N comes from the solver's prefix
recursion (``transform.delta_values``), so the roots are those of the
function whose series gives the solution, at any N.

Eigenfunctions are evaluated from the explicit series

    X_m(x) = sigma(x)^(-1/2) * sum_{n<=N} S_n(0, x; kappa_m),

normalized to unit L^2 norm.  The sign needs no choice: the n = 0 term
S_0(0, x; kappa) = sin(kappa tau(x)) has slope kappa / sigma(0) > 0 at
x = 0, and every S_n with n >= 1 is O(x^(n+1)) there, so X_m'(0) > 0 at
every N.  One evaluation is one call of the prefix recursion
``simplex._prefix_series`` that the solver also uses, at the mode's own
root kappa_m, on the panels of ``simplex._grid`` with the solver's rule
``simplex._panel_count``: max(16, ceil(2 kappa_m tau(1) / 6)) composite
12-node Gauss panels rounded up to a power of two.  The knots of a
tabulated profile and the requested x are breakpoints of the grid, and
each gap g between them is cut into ceil(g count) equal panels, so no
panel is wider than the rule's.  The recursion's node values give the
norm on that grid and its edge values the series at the x, so
eigenfunction accuracy is set by that panel grid alone.

Every panel grid is built once per profile and kept in the table of its
travel-time map (``TravelTimeMap.grids``): the roots share it, and so do
the modes evaluated at the same x with the same panel count, and sharing
changes no bit of any result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import chebder, chebinterpolate, chebroots, chebval

from .coefficients import Conductivity, TravelTimeMap
from .errors import DomainError, NoConvergence, RootMissed
from .simplex import SeriesSpec, _grid, _panel_count, _prefix_series
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
    """Normalized eigenfunction X of ``pair`` (unit L^2 norm, X'(0) > 0) on
    the profile ``c`` and its travel-time map ``tt``; see :func:`eigenfunction`."""

    pair: EigenPair
    c: Conductivity
    tt: TravelTimeMap

    def __call__(self, x):
        """X at ``x`` (a float for a scalar), from one prefix recursion on
        the panel grid that the x cut.

        The recursion gives R = e^{i kappa tau} sum_{n<=N} S_n(0, .; kappa)
        at the nodes, where |R| = |S| for real kappa gives the norm, and at
        the edges, where the x lie.  Raises :class:`DomainError` for x
        outside [0, 1] or a map built for another profile, and
        :class:`NoConvergence` if the norm is zero.
        """
        x = np.asarray(x, dtype=float)
        kappa = self.pair.kappa
        panels, at = _grid(self.c, self.tt, _panel_count(kappa, self.tt.total), x)
        nodes = edges = 0.0
        for r, e in _prefix_series(panels, kappa, self.pair.truncation_N):
            nodes, edges = nodes + r[..., 0], edges + e[at, 0]
        norm_sq = float(np.sum(panels.wts * np.abs(nodes) ** 2 / panels.sigma))
        if norm_sq <= 0.0:
            raise NoConvergence("eigenfunction has zero norm")
        vals = ((np.exp(-1j * kappa * panels.tau_edges[at]) * edges).real
                / np.sqrt(norm_sq * panels.sigma_edges[at]))
        return float(vals[0]) if x.ndim == 0 else vals.reshape(x.shape)


# A piece of the proxy spans at most _ROOTS_PER_PIECE quasi-periods pi / tau(1),
# so on [-1, 1] Delta_N has exponential type 16 pi / 2, and its Chebyshev
# coefficients fall like Bessel J_n(16 pi / 2): below roundoff 40 orders past
# n = 16 pi / 2, hence the degree floor(16 pi / 2) + 40 = 65.
_ROOTS_PER_PIECE = 16
_DEGREE = 65
_TAIL = 8  # trailing coefficients, which must lie below the noise floor
# Samples of Delta_N carry rounding of about 1e-14 of the largest value, and
# more as the phase k tau(1) grows (2e-13 at k tau(1) = 3000), so the floor
# is _RESOLVED (1 + k tau(1) / 100) of the largest coefficient, k at the
# right end of the piece.
_RESOLVED = 1e-13
_SAME = 1e-8  # in half-widths of a piece: imaginary parts, edge slack, repeated roots


def _proxy_roots(coef, floor):
    """Roots of a Chebyshev series without its trailing coefficients below
    ``floor``: they move no root beyond what the Newton step removes, and
    the colleague matrix's eigenvalues cost the cube of its size."""
    return chebroots(coef[:np.flatnonzero(np.abs(coef) >= floor)[-1] + 1])


def find_eigenvalues(c: Conductivity, tt: TravelTimeMap, spec: SeriesSpec,
                     count: int) -> list[EigenPair]:
    """First ``count`` positive roots of Delta_N, from its Chebyshev proxy,
    in three ``delta_values`` calls.

    [0, (count + 1.5) pi / tau(1)] is cut into ceil((count + 1.5) / 16)
    equal pieces, and the first call samples Delta_N at the 66 first-kind
    Chebyshev points of every piece.  The real roots of each piece's
    interpolant (``chebroots``), without k = 0 and without a root repeated
    at a piece edge, are the proxy roots.  The second call gives Delta_N at
    them, for one Newton step with the interpolant's slope, and at the
    midpoints between 0, the roots and the next root (or the end of the
    range), where Delta_N must alternate in sign: that proves a root between
    each two midpoints, though not that it is the only one.  The third call
    gives the residual |Delta_N| at the polished roots.

    Raises :class:`NoConvergence` unless the last 8 coefficients of every
    piece lie below its noise floor, 1e-13 (1 + k tau(1) / 100) of its
    largest coefficient (NaN or infinite samples fail too), and
    :class:`RootMissed` if fewer than ``count`` roots are found or the signs
    at the midpoints do not alternate.
    """
    if not isinstance(count, (int, np.integer)) or count < 1:
        raise DomainError("count must be an integer >= 1")
    top = (count + 1.5) * math.pi / tt.total
    pieces = math.ceil((count + 1.5) / _ROOTS_PER_PIECE)
    half = 0.5 * top / pieces
    centres = half * np.arange(1, 2 * pieces, 2)
    coefs = chebinterpolate(lambda t: delta_values(c, tt, centres + half * t[:, None], spec),
                            _DEGREE)
    floors = _RESOLVED * (1.0 + (centres + half) * tt.total / 100.0) * np.abs(coefs).max(axis=0)
    if not np.all(np.abs(coefs[-_TAIL:]) < floors):
        raise NoConvergence("the Chebyshev proxy of Delta_N is not resolved: its trailing "
                            "coefficients are not below the noise floor")
    real = [r.real[(np.abs(r.imag) <= _SAME) & (np.abs(r.real) <= 1.0 + _SAME)]
            for r in map(_proxy_roots, coefs.T, floors)]
    piece = np.repeat(np.arange(pieces), [r.size for r in real])
    t = np.concatenate(real)
    roots = centres[piece] + half * t
    keep = np.diff(roots, prepend=0.0) > _SAME * half  # drops k = 0 and a root seen twice
    if np.count_nonzero(keep) < count:
        raise RootMissed(f"found {np.count_nonzero(keep)} roots below k={top:.3f}, need {count}")
    piece, t, roots = piece[keep][:count], t[keep][:count], roots[keep]
    ends = np.concatenate([[0.0], roots, [top]])[:count + 2]
    vals = delta_values(c, tt, np.concatenate([roots[:count], 0.5 * (ends[:-1] + ends[1:])]), spec)
    if not np.all(vals[count:-1] * vals[count + 1:] < 0.0):
        raise RootMissed("Delta_N does not alternate in sign between its roots")
    slope = chebval(t, chebder(coefs)[:, piece], tensor=False) / half
    kappas = roots[:count] - vals[:count] / slope
    residuals = np.abs(delta_values(c, tt, kappas, spec))
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
    tabulated profile.  Nothing is computed here: each call of the
    returned :class:`Eigenfunction` runs one prefix recursion on the grid
    that its x cut, and takes from it both the unit L^2 norm (on the
    nodes) and the values scale * sum_n S_n(0, x; kappa) / sqrt(sigma(x))
    (at the edges), so every mode evaluated at the same x with the same
    panel count shares one grid through ``tt.grids``.  The scale is
    positive and fixes the sign: S_0(0, x; kappa) = sin(kappa tau(x)) has
    slope kappa / sigma(0) > 0 at x = 0 and each S_n with n >= 1 is
    O(x^(n+1)) there, so X'(0) > 0 at every N.  The panel rule is the
    solver's, max(16, ceil(2 kappa tau(1) / 6)) panels rounded up to a
    power of two (16 for the first 15 modes of ``parabolic24`` and
    ``rational9000``), with the table knots and every evaluated x as
    breakpoints; at 101 x, which cut the 16 panels into 100, the values of
    modes 1-8 agree with 2048 panels to 4.4e-16 on ``parabolic24`` and
    8.9e-16 on ``rational9000``.

    Raises :class:`DomainError` here if ``pair`` was found at another
    truncation; the evaluation raises the errors of
    :meth:`Eigenfunction.__call__`.
    """
    if pair.truncation_N != spec.truncation_N:
        raise DomainError("pair was produced with a different truncation")
    return Eigenfunction(pair, c, tt)
