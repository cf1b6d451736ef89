"""Ordered-simplex integrals of the log-derivative weight.

The building block of the whole solver is the n-fold integral

    S_n(a, b; k) = 2**-n * int_{a<=y1<=...<=yn<=b}
                   prod_p mu(y_p) * sin(k * A(y)) dy1..dyn,

where mu = sigma'/sigma and the phase A(y) alternates travel-time gaps:

    A(y) = sum_{p=0..n} (-1)**p (tau(y_{p+1}) - tau(y_p)),
    y_0 = a, y_{n+1} = b.

One engine computes it, the prefix recursion (``_prefix_series``).  It
gives every term S_n(0, y; k) for all upper limits y at once, for any k with
Im k >= 0, in n cumulative integrations on composite 12-node Gauss panels,
at a cost linear in n.  It is a generator: it yields e^{ik tau(y)} S_n one
order at a time, at the nodes and the edges, and holds no stack of the
orders, so each caller sums or stacks only what it needs.  That product
stays bounded in the upper half plane, because e^{ik tau(y)} sin(kA)
splits into two exponentials of twice the even and twice the odd gaps,
each of modulus <= 1.  The suffix terms S_n(y, 1; k) are the same recursion on the
reflected profile sigma(1 - x), and S_n(a, b; k) the same recursion on the
panels from a on, with tau measured from a, read at every upper limit b.
The solver and Delta_N (``transform``), the roots and the eigenfunctions
(``spectrum``) and the one public evaluator here, ``simplex_terms``, all
use it, on the panels of ``_grid``, whose count follows
the rule of ``_panel_count``: max(16, ceil(2 |k| tau(1) / 6)) panels,
rounded up to a power of two, so that each panel carries at most 6 rad of
the kernel phase 2|k| tau, and no more than 2^16.  One rule cuts every grid: its
breakpoints are 0, 1, the knots of a tabulated sigma and the requested
points, and each gap g between them is cut into ceil(g count) equal
panels, none wider than 1/count.  A grid depends only on the profile, the
count and the points, so each is built once and kept in the profile's
table ``TravelTimeMap.grids``, keyed by count; wavenumbers are grouped by
grid (``_grid_groups``), not by count.

The quadrature tuples of :func:`build_term_tables` are kept for the tests
as an independent reference; no function of the package evaluates them.
Since tau enters linearly, A(y) = c + sum_p 2*(-1)**(p+1) tau(y_p) with the
constant c = -tau(a) + (-1)**n tau(b), so a quadrature rule for the simplex
reduces to a list of (weight, phase) pairs that are *independent of k*:
:func:`build_term_tables` expands nested Gauss-Legendre nodes once
(innermost limits shrink with the outer variable), and any number of k
values are then swept as dot products against the tuple arrays.  Their
Gauss rules do not split at the knots of a tabulated sigma, so they
converge only algebraically there: they are references for smooth sigma
only.

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
import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .coefficients import Conductivity, TravelTimeMap, _panel_gauss, _unit_gauss, log_derivative
from .errors import DomainError, OrderTooHigh, ShiftTooSmall

__all__ = [
    "SeriesSpec",
    "simplex_terms",
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
    """Truncation configuration for the series evaluators.

    truncation_N: series cut at n <= N (N >= 0).

    Every evaluator runs on the prefix recursion, whose panels follow |k|,
    so no quadrature order is configured.
    """

    truncation_N: int = 2

    def __post_init__(self):
        try:
            object.__setattr__(self, "truncation_N", operator.index(self.truncation_N))
        except TypeError:
            raise DomainError(
                f"truncation_N must be an integer, got {self.truncation_N!r}") from None
        if self.truncation_N < 0:
            raise DomainError("truncation_N must be >= 0")


# Gauss nodes per panel of the prefix recursion.
_PREFIX_ORDER = 12
# Kernel phase that one panel of the prefix recursion resolves, in radians,
# and the fewest panels (see _panel_count).
_PANEL_PHASE = 6.0
_MIN_PANELS = 16
# Most panels a grid may have: the contour of t = 1e-5 needs 2048.
_MAX_PANELS = 1 << 16
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
    on every profile, and 16 keeps one halving of margin.  A count above
    _MAX_PANELS raises :class:`DomainError` before any grid is built.
    """
    wanted = np.maximum(_MIN_PANELS, np.ceil(2.0 * np.abs(k) * total / _PANEL_PHASE))
    over = np.ravel(~(wanted <= _MAX_PANELS))  # NaN too
    if over.any():
        i = over.argmax()
        raise DomainError(f"k = {np.ravel(k)[i]:.6g} needs {np.ravel(wanted)[i]:.6g} panels, "
                          f"more than {_MAX_PANELS}")
    return 2 ** np.ceil(np.log2(wanted)).astype(int)


class _Panels(NamedTuple):
    """Composite Gauss panels: nodes and weights, mu, tau and sigma at the
    nodes, all shaped (P, _PREFIX_ORDER), and tau and sigma at the P + 1 edges."""

    pts: np.ndarray
    wts: np.ndarray
    mu: np.ndarray
    tau: np.ndarray
    tau_edges: np.ndarray
    sigma: np.ndarray
    sigma_edges: np.ndarray

    def reflected(self):
        """The panels of x -> 1 - x, on which sigma(1 - x) has mu -> -mu and
        tau -> tau(1) - tau, so S_n(y, 1; sigma) = S_n(0, 1 - y; sigma(1 - .)).
        tau(1) is the last edge's."""
        total = self.tau_edges[-1]
        pts, wts, mu, tau, sigma = (a[::-1, ::-1] for a in
                                    (self.pts, self.wts, self.mu, self.tau, self.sigma))
        return _Panels(1.0 - pts, wts, -mu, total - tau, total - self.tau_edges[::-1],
                       sigma, self.sigma_edges[::-1])

    def between(self, i, j):
        """The panels from edge i to edge j, with tau measured from edge i, on
        which the recursion gives S_n(x_i, y; k) for y up to edge j."""
        start, cut, edges = self.tau_edges[i], slice(i, j), slice(i, j + 1)
        return _Panels(self.pts[cut], self.wts[cut], self.mu[cut], self.tau[cut] - start,
                       self.tau_edges[edges] - start, self.sigma[cut], self.sigma_edges[edges])


def _edges(breaks, cuts):
    """Edges that cut gap i of the sorted ``breaks`` into ``cuts[i]`` equal
    panels: on each gap, bitwise the edges of ``np.linspace``."""
    gap = np.repeat(np.arange(cuts.size), cuts)
    j = np.arange(gap.size) - (np.cumsum(cuts) - cuts)[gap]
    return np.append(breaks[gap] + j * (np.diff(breaks) / cuts)[gap], breaks[-1])


class _Grid(NamedTuple):
    """An entry of ``TravelTimeMap.grids``: the grid of ``count`` panels and
    the points whose bytes are ``points``, with the gaps between its
    breakpoints, the panels in each gap and the edge index of each point."""

    points: bytes
    gaps: np.ndarray
    cuts: np.ndarray
    panels: _Panels
    at: np.ndarray


def _grid(c, tt, count, points=()):
    """The panel grid on [0, 1] for ``count`` panels, with ``points`` as edges.

    The breakpoints are 0, 1, the knots of a tabulated profile (the
    quadrature is smooth only between them) and ``points``; each gap g
    between them is cut into ceil(g count) equal panels.  No panel is then
    wider than 1/count, the width the rule of :func:`_panel_count` is
    calibrated on, and every point and knot is an edge.  Without points and
    knots the edges are those of ``np.linspace(0, 1, count + 1)``.

    Returns the :class:`_Panels` and, for each point, the index of its edge.
    Raises :class:`DomainError` unless every point lies in [0, 1] and ``tt``
    was built for ``c``.

    A grid depends only on the profile, the count and the points, so it is
    built once and kept in the profile's table ``tt.grids``, keyed by the
    count and whether there are points: the plain grid, and beside it the
    latest grid with points, which the next call with the same points
    reuses.  A hit is a dict lookup and a comparison of the points' bytes.
    Counts whose edges coincide (16 and 32 panels on a 33-knot table) share
    one :class:`_Panels`.
    """
    held = _held(c, tt, int(count), np.asarray(points, dtype=float).ravel())
    return held.panels, held.at


def _grid_groups(c, tt, counts, points=()):
    """Wavenumbers grouped by panel grid, in ascending order of the grids.

    ``counts`` holds the panel count of each wavenumber; for each grid this
    yields the :class:`_Panels` of :func:`_grid` with ``points``, the edge
    index of each point and the mask of ``counts`` on the grid.  A larger
    count shares the grid of a smaller one while no gap needs more panels,
    which the gaps decide without building its edges, so a grid is taken
    from the table only when the iteration reaches it.
    """
    points = np.asarray(points, dtype=float).ravel()
    todo = np.unique(counts).tolist()
    while todo:
        held = _held(c, tt, todo[0], points)
        shared = todo[:1] + list(itertools.takewhile(
            lambda count: np.all(held.gaps * count <= held.cuts), todo[1:]))
        yield held.panels, held.at, (counts >= shared[0]) & (counts <= shared[-1])
        del todo[:len(shared)]


def _held(c, tt, count, points):
    """The :class:`_Grid` of :func:`_grid` from the table ``tt.grids``,
    built on a miss; a grid with the same panels in every gap is shared."""
    if tt.c is not c:
        raise DomainError("the travel-time map was built for another profile")
    key, tag = (count, bool(points.size)), points.tobytes()
    held = tt.grids.get(key)
    if held is not None and held.points == tag:
        return held
    if not np.all((points >= 0.0) & (points <= 1.0)):  # NaN fails too
        raise DomainError(
            f"series points must lie in [0, 1], got {points.min():g}..{points.max():g}")
    breaks = np.unique(np.concatenate([(0.0, 1.0), c.params.get("knots", ()), points]))
    gaps = np.diff(breaks)
    cuts = np.ceil(gaps * count).astype(int)
    for other in tt.grids.values():
        if other.points == tag and np.array_equal(other.cuts, cuts):
            held = other
            break
    else:
        edges = _edges(breaks, cuts)
        at = edges.searchsorted(points)
        at.flags.writeable = False
        held = _Grid(tag, gaps, cuts, _panels(c, tt, edges), at)
    tt.grids[key] = held
    return held


def _panels(c, tt, edges):
    """The :class:`_Panels` on ``edges``: sigma once at every node and edge,
    and mu = sigma' / sigma from it."""
    pts, wts = _panel_gauss(edges, _PREFIX_ORDER)
    at = np.concatenate([pts.ravel(), edges])
    sigma, tau = c.sigma(at), tt.tau(at)
    nodes = slice(pts.size)
    mu = (c.dsigma(pts.ravel()) / sigma[nodes]).reshape(pts.shape)
    return _Panels(pts, wts, mu, tau[nodes].reshape(pts.shape), tau[pts.size:],
                   sigma[nodes].reshape(pts.shape), sigma[pts.size:])


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
        """C for complex f of shape (..., P, q, K): the pair of its values at
        the nodes, (..., P, q, K), and at the edges, (..., P + 1, K); with
        ``nodes`` false the node entry is None.

        Only the entries ``f[phased]`` take the kernel; the others are plain
        cumulative integrals (omega = 0).  f, a C-contiguous complex array, is
        spent: the node values come back in its buffer (the returned node
        array is f), and with ``nodes`` false it holds nothing of use.
        """
        f[phased] *= self.in_nodes
        rows = _unit_cumulative(_PREFIX_ORDER)[None if nodes else -1:]
        part = (rows @ f.view(float)).view(complex)  # real products
        part *= self.width
        whole = part[..., -1, :]
        at_edges = np.zeros(f.shape[:-3] + (f.shape[-3] + 1, f.shape[-1]), dtype=complex)
        run = at_edges[..., 1:, :]  # the panel ends, in each block's frame until phased
        for lo, hi in zip(self.starts, self.stops):
            whole[..., lo:hi, :].cumsum(axis=-2, out=run[..., lo:hi, :])
            if lo:
                run[..., lo:hi, :] += carry
            if hi < whole.shape[-2]:
                carry = run[..., hi - 1 : hi, :].copy()
                carry[phased] *= self.out_edges[hi - 1 : hi]
        if nodes:
            np.add((run - whole)[..., None, :], part[..., :-1, :], out=f)
            f[phased] *= self.out_nodes
        run[phased] *= self.out_edges
        return (f if nodes else None), at_edges


def _prefix_series(panels, k, N, cumulative=None, nodes=True):
    """R_n(0, y; k) = e^{ik tau(y)} S_n(0, y; k), n <= N, by prefix recursion,
    yielded one order at a time.

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
    the first, so only the first runs).  The branches live in one node
    buffer: it starts as mu G_0 / 2, each integral leaves G_n in it, and
    mu G_n / 2 goes back into it for the next order.  S_n(y, 1; k) is the
    same recursion on ``panels.reflected()``.

    ``k`` holds K wavenumbers with Im k >= 0 (else :class:`DomainError`,
    raised when the first order is drawn); ``cumulative``, if given, is the
    :class:`_Cumulative` for omega = 2k on these panels.  Yields, for
    n = 0, ..., N in turn, the pair (nodes, edges) of R_n: new complex
    arrays of shapes (P, q, K) at the panel nodes and (P + 1, K) at the
    edges, which the caller may keep or overwrite; real k gives
    S_n = Re(e^{-ik tau} R_n).  No stack of the orders is formed: a caller
    sums or stacks what it needs.  With ``nodes`` false every nodes entry is
    None, and the node values of order N, which no edge needs, are never
    formed.
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
    half_mu = 0.5 * panels.mu[..., None]  # one factor of the 2**-n per order
    # mu G_0 / 2 on both branches; the second, 1 at n = 0, only for complex k
    f = np.empty((1 if real else 2,) + first[0].shape, dtype=complex)
    np.multiply(half_mu, first[0], out=f[0])
    f[1:] = half_mu
    kept = slice(None) if nodes else slice(1, None)  # nodes and edges, or edges
    for n in range(N + 1):
        if n:
            if n > 1:
                f *= half_mu
            G = cumulative(f, phased=slice(n % 2, n % 2 + 1), nodes=nodes or n < N)
            R = [g[0] - (e * g[0].conj() if real else g[1]) for g, e in zip(G[kept], first[kept])]
        else:
            R = [e - (e * e.conj() if real else 1.0) for e in first[kept]]
        for r in R:
            r *= -0.5j  # 1 / 2i
        yield (R[0] if nodes else None), R[-1]


def _phase_const(tt, a, b, n):
    return -tt.tau(a) + (-1.0) ** n * tt.tau(b)


def _check_interval(a, b):
    """Raise :class:`DomainError` unless 0 <= a <= b <= 1 for every b in ``b``."""
    ends = np.ravel(b)
    bad = ends[~((0.0 <= a) & (a <= ends) & (ends <= 1.0))]  # NaN fails too
    if bad.size:
        if a > bad[0]:
            raise DomainError(f"interval must satisfy a <= b, got ({a}, {bad[0]})")
        raise DomainError(f"interval must lie in [0, 1], got ({a}, {bad[0]})")


def _check_wavenumber(k) -> complex:
    """k as a complex number; raises :class:`DomainError` if it is NaN or infinite."""
    k = complex(k)
    if not np.isfinite(k):
        raise DomainError(f"the simplex integrals need a finite wavenumber, got {k}")
    return k


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


def simplex_terms(c: Conductivity, tt: TravelTimeMap, a: float, b, k, spec: SeriesSpec,
                  shift: float | None = None) -> np.ndarray:
    """S_n(a, b; k) for n <= truncation_N, or exp(ik*shift) S_n with a ``shift``.

    ``b`` is one upper limit, giving shape (N + 1,), or an array of them,
    giving shape (N + 1,) + b.shape; every limit needs 0 <= a <= b <= 1
    (else :class:`DomainError`).  All of them come from one prefix recursion
    on the panels of :func:`_grid` for k with a and every b as points,
    taken from a's edge to the last b edge and read at each b edge, where it
    holds e^{ik (tau(b) - tau(a))} S_n.  S_n is odd in k and bounded by
    :func:`term_bound`: the plain form takes Im k < 0 through
    S(-k) = -S(k), and is real for real k.  For large Im k pass a shift:
    it needs Im k >= 0 and a finite shift >= tau(b) - tau(a) for every b
    (:func:`_check_regularized`), and every factor then stays bounded.  A
    NaN or infinite k raises :class:`DomainError`.
    """
    b = np.asarray(b, dtype=float)
    _check_interval(a, b)
    k, sign = _check_wavenumber(k), 1.0
    if shift is None and k.imag < 0.0:
        k, sign = -k, -1.0
    grid, at = _grid(c, tt, _panel_count(k, tt.total), np.append(a, b))
    i, ends = at[0], at[1:]
    span = grid.tau_edges[ends] - grid.tau_edges[i]
    if shift is not None:
        _check_regularized(k, shift, span)
    edges = np.array([e[ends - i, 0] for _, e in _prefix_series(
        grid.between(i, ends.max(initial=i)), k, spec.truncation_N, nodes=False)])
    terms = sign * np.exp(1j * k * ((0.0 if shift is None else shift) - span)) * edges
    terms = terms.real if shift is None and k.imag == 0.0 else terms
    return terms.reshape(terms.shape[:1] + b.shape)


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

    Follows from |sin(x+iy)| <= cosh(y) and the 1/n! simplex volume.  The
    order n must be an integer >= 0 and k finite (else :class:`DomainError`).
    """
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise DomainError(f"the order n must be an integer >= 0, got {n!r}")
    kc = _check_wavenumber(k)
    span = float(tt.tau(b) - tt.tau(a))
    integral = abs_log_derivative_integral(c, a, b)
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


def build_term_tables(c: Conductivity, tt: TravelTimeMap, a, b, spec: SeriesSpec,
                      quad_order: int = 32) -> list[TermTable]:
    """Precompute tuples of S_0..S_N over a batch of intervals.

    ``a`` and ``b`` broadcast to a common length M; returns one
    :class:`TermTable` per order, from ``quad_order`` Gauss-Legendre nodes
    per simplex variable (an integer >= 2, else :class:`DomainError`).
    Memory is M * quad_order**n tuples per order, so an order N with more
    than _TABLE_LIMIT tuples per interval raises :class:`OrderTooHigh`
    before anything is expanded.  This is the one tuple expander.
    """
    if not isinstance(quad_order, (int, np.integer)) or quad_order < 2:
        raise DomainError(f"quad_order must be an integer >= 2, got {quad_order!r}")
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    a, b = np.broadcast_arrays(a, b)
    a = a.ravel().copy()
    b = b.ravel().copy()
    if np.any(a < 0.0) or np.any(b > 1.0) or np.any(a > b):
        raise DomainError("batched intervals must satisfy 0 <= a <= b <= 1")
    M = a.size
    x01, w01 = _unit_gauss(quad_order)
    span = tt.tau(b) - tt.tau(a)

    # quad_order**n grows with n, so the top order decides before any expansion.
    N = spec.truncation_N
    if quad_order**N > _TABLE_LIMIT:
        raise OrderTooHigh(
            f"order {N} at quad_order {quad_order} needs {quad_order**N} "
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
        J = quad_order**n
        tables.append(TermTable(n, W.reshape(M, J), T.reshape(M, J),
                                _phase_const(tt, a, b, n), span))
    return tables
