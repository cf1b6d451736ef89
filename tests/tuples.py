"""The nested-Gauss quadrature tuples as an independent reference.

The package evaluates every simplex integral on the prefix recursion.  The
tests check it against the tuples of ``simplex.build_term_tables``: the
simplex integrals of one interval (:func:`tuple_terms`) and the transform
Phi_N at one point (:func:`phi_fn`).  The tuples' Gauss rules do not split
at the knots of a tabulated sigma, so they are references for smooth sigma
only.
"""

import math

import numpy as np

from varheat import SeriesSpec
from varheat.coefficients import _panel_gauss
from varheat.errors import DomainError
from varheat.simplex import build_term_tables
from varheat.transform import _q0_weights


def tuple_terms(c, tt, a, b, k, N, quad_order=32, shift=None):
    """S_n(a, b; k) for n <= N, or exp(ik*shift) S_n with a ``shift``, from
    the one-interval tuples at ``quad_order``: a complex array of shape (N + 1,)."""
    tables = build_term_tables(c, tt, a, b, SeriesSpec(truncation_N=N), quad_order)
    return np.array([(tab.eval_plain(k) if shift is None else tab.eval_regularized(k, shift))
                     [0, 0] for tab in tables], dtype=complex)


def phi_fn(c, tt, k, x, q0, spec, regularized=False, quad_order=32):
    """Phi_N(k, x) = int_0^1 Psi_N(k,x,y) q0(y) / sqrt(sigma(x) sigma(y)) dy.

    Composite Gauss-Legendre in y, split at y = x where the kernel has a
    derivative kink, and the series of each side from one term table over
    all its y nodes and x.  ``regularized`` multiplies by exp(i k tau(1))
    with every exponent kept decaying, so it stays bounded high in the upper
    half plane.
    """
    if not 0.0 <= x <= 1.0:
        raise DomainError("phi_fn needs x in [0, 1]")
    kc = complex(k)
    if x in (0.0, 1.0):
        return 0j
    # Left side: S(0, y) at the y nodes of (0, x), then the factor S(0, x);
    # right side: S(y, 1) at the y nodes of (x, 1), then the factor S(x, 1).
    per_unit = max(24.0, 0.9 * abs(kc) * tt.total)
    tau_x = float(tt.tau(x))
    sums = []
    for lo, hi, shift in ((0.0, x, tau_x), (x, 1.0, tt.total - tau_x)):
        pts, wts = _segment_weights(c, q0, lo, hi, per_unit)
        ends = np.append(pts, x)
        a, b = (0.0, ends) if lo == 0.0 else (ends, 1.0)
        tables = build_term_tables(c, tt, a, b, spec, quad_order)
        rows = sum(tab.eval_regularized(kc, shift) if regularized else tab.eval_plain(kc)
                   for tab in tables)[:, 0]
        sums.append((wts @ rows[:-1], rows[-1]))
    (left, left_factor), (right, right_factor) = sums
    # Regularized, each product carries the full shift tau(1) exactly once.
    val = right_factor * left + left_factor * right
    return val / math.sqrt(float(c.sigma(x)))


def _segment_weights(c, q0, lo, hi, per_unit):
    """Gauss nodes and q0/sqrt(sigma)-weighted quadrature weights on [lo, hi]."""
    if hi - lo <= 1e-14:
        return np.empty(0), np.empty(0)
    n_panels = max(2, math.ceil((hi - lo) * per_unit / 12.0))
    pts, wts = _panel_gauss(np.linspace(lo, hi, n_panels + 1), 12)
    pts, wts = pts.ravel(), wts.ravel()
    return pts, wts * _q0_weights(q0, pts, c.sigma(pts))
