"""Independent reference models used to verify the contour solver.

Four families, none of which share code with the production path:

* the piecewise-constant interface model: the conductivity is frozen on N
  cells, transforms of the cell problems yield a 2N x 2N linear system
  A(k) X = Y, and the interface unknowns are the ratios det A_j / det A
  (Cramer's rule).  Ordered by interface, A(k) is banded with two bands
  either side of the diagonal, and it is only ever held in that form: one
  LAPACK band LU gives det A, one band solve per contour node gives the
  unknown, each in O(N), so the model runs at thousands of cells.  The
  terms at mirrored contour nodes are conjugate, so the solution takes
  band solves at the vertex and the Re k > 0 half of the contour only.
  The numerator E_N is det A times that unknown (Cramer's rule read
  backwards), both from one band LU.
  Scaled determinants D_N = (i/2) det A / prod(Lambda_p^+) admit an exact
  binary-vector sum and an equivalent switch-location sum whose truncation
  costs only O(N * max_switches), which is what makes the large-N
  convergence studies feasible.  One pass of the switch recursion gives
  that sum for every prefix of the cells at once, and the same pass on the
  reflected partition every suffix: the sub-partition sums of the kernel
  Psi and of the sampled numerator E_N.  The binary-vector sum is kept only
  as the reference :func:`dn_bruteforce`;
* a conservative Crank-Nicolson discretization of the PDE itself;
* a symmetric tridiagonal eigensolver for the spectrum: shift-invert
  Lanczos (ARPACK) for the eigenvalues, stopped at residual tolerance 1e-7
  (which leaves them within about 1e-13, see _LANCZOS_TOL), with
  Richardson extrapolation across two grids, and mode m's grid eigenvector
  by its index from one LAPACK ``stebz`` bisection and ``stein`` inverse
  iteration;
* the classical Fourier sine series for constant conductivity.

Every model checks q0 as the continuum solver does
(``transform._q0_values``): a scalar broadcasts, and complex, non-finite
or wrongly shaped values raise :class:`DomainError`, and so does a NaN or
infinite wavenumber, as in the simplex integrals.

Interface quantities: cells j = 1..N carry sigma_j (sampled at midpoints),
nu_j = k / sigma_j, and the jump factors Lambda_p^{+-} = sigma_{p+1} +-
sigma_p at interior interfaces p = 1..N-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .coefficients import Conductivity, _panel_gauss
from .errors import (
    DenominatorNearZero,
    DomainError,
    NoConvergence,
    SingularPartition,
    TooManyTerms,
)
from .transform import Contour, _q0_values

__all__ = [
    "InterfacePartition",
    "uniform_partition",
    "dn_det",
    "dn_bruteforce",
    "dn_switchform",
    "en_det",
    "psi_entry",
    "en_sampled",
    "interface_solution",
    "crank_nicolson",
    "fd_eigenvalues",
    "fourier_solution",
]

_BRUTE_CAP = 24
# A reference resolves its contour integral well below the solver's default
# tolerance, so its own quadrature error never shows in a comparison.
_CONTOUR_TOL = 1e-10
# _band_solve builds the systems of this many contour nodes at a time:
# its peak at 4096 cells is 22 MB, where all 53 nodes of the t = 1 contour at
# once took 84 MB.
_NODE_BLOCK = 8
# ARPACK stops once every Ritz estimate is <= tol * |theta|.  A Ritz value
# of a symmetric operator lies within |r|^2 / delta of an eigenvalue, delta
# its distance to the rest of the spectrum (Parlett, The Symmetric
# Eigenvalue Problem, SIAM 1998, ch. 11), so the relative error is at most
# tol^2 * theta / delta.  For mode 30, theta / delta = lam_31 / (lam_31 -
# lam_30) is 15.8 on parabolic24 and on rational9000 at nx = 2048: 1.6e-13,
# inside the 1e-11 Sturm certificate, at 62 matrix-vector products, not the
# 78 of tol = 0.
_LANCZOS_TOL = 1e-7


@dataclass(frozen=True)
class InterfacePartition:
    """Cells (x_{j-1}, x_j) with constant sigma_j, covering [0, 1].

    ``sigma0`` is stored for callers that record it (conventionally sigma_1);
    no computation reads it.
    """

    nodes: np.ndarray   # shape (N+1,), 0 = x_0 < ... < x_N = 1
    sigmas: np.ndarray  # shape (N,), sigma_j on cell j
    sigma0: float

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        sigmas = np.asarray(self.sigmas, dtype=float)
        if nodes.ndim != 1 or sigmas.ndim != 1 or nodes.size != sigmas.size + 1:
            raise SingularPartition("need N+1 nodes and N sigmas")
        if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(sigmas))):
            raise SingularPartition("nodes and sigmas must be finite")
        if abs(nodes[0]) > 1e-14 or abs(nodes[-1] - 1.0) > 1e-14:
            raise SingularPartition("partition must span [0, 1]")
        if np.any(np.diff(nodes) <= 0.0):
            raise SingularPartition("nodes must be strictly increasing")
        if np.any(sigmas <= 0.0):
            raise SingularPartition("all sigma_j must be positive")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "sigmas", sigmas)

    @property
    def n_cells(self) -> int:
        return self.sigmas.size

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.nodes)

    @property
    def max_width(self) -> float:
        return float(self.widths.max())

    @property
    def cell_times(self) -> np.ndarray:
        """Delta x_j / sigma_j, the discrete travel times."""
        return self.widths / self.sigmas

    @property
    def plus(self) -> np.ndarray:
        """Lambda_p^+ = sigma_{p+1} + sigma_p at interfaces p = 1..N-1."""
        s = self.sigmas
        return s[1:] + s[:-1]

    @property
    def rho(self) -> np.ndarray:
        """The reflection ratios Lambda_p^- / Lambda_p^+ at p = 1..N-1."""
        s = self.sigmas
        return (s[1:] - s[:-1]) / self.plus


def _integers(*values):
    return all(isinstance(n, (int, np.integer)) for n in values)


def _check_interfaces(part: InterfacePartition, *indices):
    """Raise :class:`DomainError` unless every index is an integer in 1..N-1."""
    if not _integers(*indices) or not all(1 <= i <= part.n_cells - 1 for i in indices):
        raise DomainError(f"interface indices must be integers in 1..N-1 = "
                          f"1..{part.n_cells - 1}, got {indices}")


def uniform_partition(c: Conductivity, n_cells: int) -> InterfacePartition:
    """Uniform cells with sigma sampled at midpoints (O(L^2) per cell)."""
    if not _integers(n_cells):
        raise DomainError(f"the number of cells must be an integer, got {n_cells!r}")
    if n_cells < 1:
        raise SingularPartition("need at least one cell")
    nodes = np.linspace(0.0, 1.0, n_cells + 1)
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    sigmas = np.asarray(c.sigma(mids), dtype=float)
    return InterfacePartition(nodes=nodes, sigmas=sigmas, sigma0=float(sigmas[0]))


# The cell relations at +k, then their mirror at -k.
_SIGNS = np.array([[1.0], [-1.0]])
# Band form of A(k): the rows interleave each cell's +k and -k relations and
# the unknowns run by interface, g1[0], (g0[p], g1[p]) for p = 1..N-1, g1[N],
# so no entry lies more than two places off the diagonal.  A(k) itself takes
# the rows at +k, then at -k, and the unknowns ik g0 at interfaces 1..N-1,
# then sigma^2 g1 at 0..N; both reorderings have N(N-1)/2 inversions, so
# the band form has the same determinant.
_KL = _KU = 2
# The four entries of a cell's row: the flux unknowns at its left and right
# interfaces, then the value unknowns at the same two.
_ENDS = np.array([0, 1, 0, 1])
_FLUX = np.array([True, True, False, False])
_RIGHT_NEGATIVE = np.array([1.0, -1.0, 1.0, -1.0])


class _Layout(NamedTuple):
    """Flat places of the structural entries of :func:`_entries`."""

    entries: np.ndarray  # the 4N - 2 per sign block, within the (2, N, 4) array
    band: np.ndarray     # their places in the (2 KL + KU + 1, 2N) band storage


@lru_cache(maxsize=16)
def _layout(N: int) -> _Layout:
    a, r, e = np.meshgrid(np.arange(2), np.arange(N), np.arange(4), indexing="ij")
    p, flux = r + _ENDS[e], _FLUX[e]  # entry e of cell r: its interface and kind
    mask = flux | ((p >= 1) & (p <= N - 1))  # ik g0 is zero at x = 0 and 1
    row, col = 2 * r + a, np.where(flux, np.minimum(2 * p, 2 * N - 1), 2 * p - 1)
    # LAPACK band storage keeps A[i, j] at row KL + KU + i - j, column j
    band = (_KL + _KU + row - col) * 2 * N + col
    return _Layout(np.flatnonzero(mask), band[mask])


def _entries(part: InterfacePartition, ks: np.ndarray) -> np.ndarray:
    """The entries of A(k) for each k in ``ks``, shape (K, 2, N, 4).

    Cell j = r + 1 at +-k couples, in this order, the flux unknowns
    sigma^2 g1 at interfaces r and r + 1 and the value unknowns ik g0 at
    the same two.  The value unknowns at the outer boundaries are zero
    (Dirichlet), so their two entries are structural zeros.
    """
    if not np.all(np.isfinite(ks) & (ks != 0)):
        raise DomainError("the interface system requires finite k != 0")
    s = part.sigmas
    x = part.nodes[np.arange(s.size)[:, None] + _ENDS]
    # the mirrored relation flips the sign of ik g0
    scale = np.where(_FLUX, 1.0, _SIGNS[:, :, None] * s[:, None]) * _RIGHT_NEGATIVE
    nu = ks[:, None, None, None] / s[:, None]
    E = -1j * _SIGNS[:, :, None] * nu * x
    np.exp(E, out=E)  # e^{-+i nu_j x}
    E *= scale
    return E


def _band(part: InterfacePartition, ks: np.ndarray) -> np.ndarray:
    """A(k) for each k in LAPACK band storage, shape (K, 2 KL + KU + 1, 2N)."""
    lay = _layout(part.n_cells)
    entries = _entries(part, ks).reshape(ks.size, -1)[:, lay.entries]
    ab = np.zeros((ks.size, (2 * _KL + _KU + 1) * 2 * part.n_cells), dtype=complex)
    ab[:, lay.band] = entries
    return ab.reshape(ks.size, 2 * _KL + _KU + 1, -1)


def _weighted_profile(part: InterfacePartition, q0):
    """16-node Gauss points per cell and the weights times q0 there."""
    pts, wts = _panel_gauss(part.nodes, 16)
    return pts, wts * _q0_values(q0, pts)


def _system_rhs(part: InterfacePartition, ks: np.ndarray, pts, wq) -> np.ndarray:
    """Y(k) for each k in ``ks``, shape (K, 2, N): the q0 half-transforms
    int_{cell_j} e^{-+i nu_j y} q0(y) dy at +-k."""
    nu = ks[:, None, None] / part.sigmas[:, None]
    Y = np.empty((ks.size, 2, part.n_cells), dtype=complex)
    phase = np.empty((ks.size,) + pts.shape, dtype=complex)  # one (K, N, 16) buffer
    for row, sign in enumerate(_SIGNS[:, 0]):
        np.exp(np.multiply(-1j * sign * nu, pts, out=phase), out=phase)
        Y[:, row] = np.einsum("kjq,jq->kj", phase, wq)
    return Y


def _log_scale(part: InterfacePartition) -> float:
    """log prod_p Lambda_p^+, which is positive since every sigma_j is."""
    return float(np.log(part.plus).sum())


def _band_solve(part: InterfacePartition, ks: np.ndarray, j: int, q0):
    """For each k in ``ks`` in turn, the band LU (lu, piv) of A(k) and the
    unknown ik g0[j] of A(k) X = Y(k).

    A(k) and Y(k) are built for _NODE_BLOCK wavenumbers at a time, A in
    band form, and each k costs one LAPACK ``zgbtrf`` band LU and one
    ``zgbtrs`` solve with it: O(N) work per k, and memory that does not
    grow with the number of wavenumbers.  Raises
    :class:`DenominatorNearZero` where det A(k) is exactly zero.
    """
    from scipy.linalg.lapack import zgbtrf, zgbtrs

    N = part.n_cells
    profile = _weighted_profile(part, q0)
    for lo in range(0, ks.size, _NODE_BLOCK):
        block = ks[lo:lo + _NODE_BLOCK]
        bands = _band(part, block)  # first: it checks the wavenumbers
        # Y in the band row order, cell by cell with +k before -k
        rhs = _system_rhs(part, block, *profile).transpose(0, 2, 1)
        rhs = rhs.reshape(block.size, 2 * N, 1)
        for k, ab, y in zip(block, bands, rhs):
            lu, piv, info = zgbtrf(ab, _KL, _KU)
            if info > 0:
                raise DenominatorNearZero(f"det A vanished at k = {k:.6g}")
            x, _ = zgbtrs(lu, _KL, _KU, y, piv)
            yield lu, piv, x[2 * j - 1, 0]  # ik g0[j] in the band order


def _scaled_det(part: InterfacePartition, lu, piv) -> complex:
    """(i/2) det A * prod_p 1/Lambda_p^+ from the band LU (lu, piv) of A.

    log det A is the sum of the complex logs of the diagonal of U, with the
    parity of the row interchanges; the band reordering leaves det A
    unchanged.
    """
    swaps = np.count_nonzero(piv != np.arange(piv.size))
    return 0.5j * (-1) ** swaps * np.exp(np.log(lu[_KL + _KU]).sum() - _log_scale(part))


def dn_det(part: InterfacePartition, k) -> complex:
    """(i/2) det A(k) * prod_p 1/Lambda_p^+ from a band LU of A(k)
    (:func:`_scaled_det`)."""
    from scipy.linalg.lapack import zgbtrf

    lu, piv, info = zgbtrf(_band(part, np.array([complex(k)]))[0], _KL, _KU)
    if info > 0:
        return 0j  # an exactly zero pivot: det A = 0
    return _scaled_det(part, lu, piv)


def _dn_sum(cell_times, rhos, k):
    """Binary-vector sum over entry vectors, first entry pinned to 0."""
    N = cell_times.size
    if N > _BRUTE_CAP:
        raise TooManyTerms(f"2**{N - 1} terms exceeds the brute-force cap")
    kc = complex(k)
    if not np.isfinite(kc):
        raise DomainError(f"the entry-vector sum needs a finite k, got {kc}")
    total = 0.0 + 0.0j
    n_vectors = 1 << (N - 1)
    # blocks of 2**16 vectors, each released before the next: the traced
    # peak reads 20 MiB at 17 cells, 21 MiB at 18 and 28 MiB at the cap of 24
    block = 1 << 16
    for start in range(0, n_vectors, block):
        idx = np.arange(start, min(start + block, n_vectors), dtype=np.uint64)
        # bits for entries 2..N; entry 1 is fixed at 0
        ell = np.zeros((idx.size, N), dtype=np.int8)
        ell[:, 1:] = (idx[:, None] >> np.arange(N - 1, dtype=np.uint64)) & np.uint64(1)
        signs = 1.0 - 2.0 * ell
        phases = signs @ cell_times
        switch = ell[:, :-1] != ell[:, 1:]  # empty for one cell: every factor is 1
        factors = np.where(switch, rhos[None, :], 1.0).prod(axis=1)
        total += np.sum(factors * np.sin(kc * phases))
        del idx, ell, signs, phases, switch, factors  # before the next block is built
    return complex(total)


def dn_bruteforce(part: InterfacePartition, k) -> complex:
    """D_N(k) by exact enumeration of the 2**(N-1) entry vectors."""
    return _dn_sum(part.cell_times, part.rho, k)


def _switch_sums(cell_times, rho, k, max_switches: int) -> np.ndarray:
    """The entry-vector sums of the cells 1..m for every m, truncated at
    max_switches, shape (N,).

    ``rho`` holds the ratios at the N - 1 interior interfaces.  The sums of
    the suffixes m..N are the same call on the reflected partition: cell
    times reversed and ``rho`` reversed and negated.  An entry is exact once
    max_switches >= m - 1.
    """
    kc = complex(k)
    if not np.isfinite(kc):
        raise DomainError(f"the switch recursion needs a finite k, got {kc}")
    times = np.cumsum(cell_times)  # the travel time of each prefix
    # The sine is two exponentials, the rows of every array here: e^{+-i k t}
    # at the prefix ends, and e^{+-2i k t} at the interior interfaces, the
    # phase of a switch there, whose sign alternates with its place.
    ends = np.exp(_SIGNS * 1j * kc * times)
    turn = np.exp(_SIGNS * 2j * kc * times[:-1])
    # chain[s] = sum over ordered tuples of p switches ending at s of the
    # factor product; its running sum before s seeds the next p, and its
    # running sum up to m - 1 is the prefix m's share.
    branch = ends.copy()  # n = 0 term
    prefix = 1.0
    for p in range(1, max_switches + 1):
        odd = p % 2 == 1
        chain = rho * (turn if odd else turn[::-1]) * prefix
        upto = np.concatenate((np.zeros((2, 1)), np.cumsum(chain, axis=1)), axis=1)
        branch += (ends[::-1] if odd else ends) * upto
        prefix = upto[:, :-1]
    return (branch[0] - branch[1]) / 2j


def dn_switchform(part: InterfacePartition, k, max_switches: int) -> complex:
    """D_N(k) summed by the number of entry-switch locations.

    A vector with n switches at positions s_1 < ... < s_n contributes
    prod_p rho(s_p) times a sine whose phase alternates the cumulative
    travel times between switches.  Writing the sine as two exponentials
    factorizes each contribution over the switch positions, so the ordered
    sum telescopes into a prefix recursion: O(N * max_switches) work
    instead of binomial enumeration, with identical value.  Truncating at
    max_switches = N-1 reproduces :func:`dn_bruteforce` exactly.
    """
    N = part.n_cells
    if not _integers(max_switches) or not 0 <= max_switches <= max(0, N - 1):
        raise DomainError("need an integer 0 <= max_switches <= N-1")
    return complex(_switch_sums(part.cell_times, part.rho, k, max_switches)[-1])


def en_det(part: InterfacePartition, k, j: int, q0) -> complex:
    """(1/2) det A_j(k) * prod 1/Lambda_p^+, with column j replaced by Y.

    By Cramer's rule det A_j = det A * ik g0[j], so E_N is -i D_N times
    the unknown of one band solve (:func:`_band_solve`), D_N taken from the
    LU of that solve; no matrix is formed densely.
    """
    _check_interfaces(part, j)
    (lu, piv, unknown), = _band_solve(part, np.array([complex(k)]), j, q0)
    return -1j * _scaled_det(part, lu, piv) * unknown


def _psi_row(part: InterfacePartition, k, j: int) -> np.ndarray:
    """psi_entry(part, k, j, m) for m = 1..N-1, from one prefix and one
    suffix pass of the switch recursion."""
    N = part.n_cells
    s, ct, rho = part.sigmas, part.cell_times, part.rho
    prefix = _switch_sums(ct, rho, k, N - 1)  # cells 1..m at m - 1
    suffix = _switch_sums(ct[::-1], -rho[::-1], k, N - 1)[::-1]  # cells m+1..N at m
    ms = np.arange(1, N)
    lo, hi = np.minimum(ms, j), np.maximum(ms, j)
    # prod_{p=lo..hi} 2 sigma_p / Lambda_p^+, multiplied outward from j
    ratio = 2.0 * s[:-1] / part.plus
    prod = np.concatenate((np.cumprod(ratio[:j][::-1])[::-1], np.cumprod(ratio[j - 1:])[1:]))
    return np.sqrt(s[hi - 1] / s[lo - 1]) * prod * prefix[lo - 1] * suffix[hi]


def psi_entry(part: InterfacePartition, k, j: int, m: int) -> complex:
    """Discrete kernel entry: product of sub-partition sums across (m, j).

    For m <= j this is sqrt(sigma_j/sigma_m) * prod_{p=m..j} 2 sigma_p /
    Lambda_p^+ times the entry-vector sums of the prefix cells 1..m and the
    suffix cells j+1..N, each exact by the switch recursion; the entry is
    symmetric, so for m > j the interface and sample roles swap.  Its
    N -> infinity limit is the symmetric continuum kernel.
    """
    _check_interfaces(part, j, m)
    return complex(_psi_row(part, k, j)[m - 1])


def en_sampled(part: InterfacePartition, k, j: int, q0) -> complex:
    """E_N approximated by interface-sampled profile values and psi entries.

    sum_m q0(x_m) psi_entry(k, j, m) / sqrt(sigma_j sigma_m) * width_m, so
    its sub-partition sums, like those of D_N, come from the switch
    recursion: one prefix and one suffix pass give the whole row, in
    O(N^2).  The exact transforms in Y collapse, to O(width^2) per cell,
    onto q0(x_m) * width_m; the boundary sample m = N is omitted (the
    Dirichlet end carries no weight for admissible profiles).
    """
    _check_interfaces(part, j)
    s = part.sigmas
    q = _q0_values(q0, part.nodes[1:-1])
    return complex(np.sum(q * _psi_row(part, k, j) / np.sqrt(s[j - 1] * s[:-1])
                          * part.widths[:-1]))


def interface_solution(part: InterfacePartition, q0, j: int, t: float,
                       contour: Contour | None = None) -> float:
    """Solution at interface x_j from the determinant ratio.

    q(x_j, t) = Re[-(1/pi) int det(A_j)/det(A) e^{-k^2 t} dk] over the same
    hyperbolic contour the continuum solver uses (sized for t unless
    ``contour`` is given).  By Cramer's rule the ratio is the unknown
    ik g0[j] of A X = Y, so the overall transform scale cancels exactly;
    :func:`_band_solve` gives it at each contour node in O(N).  For real
    sigma and q0, A(-conj k) = conj A(k) and Y(-conj k) = conj Y(k), and
    the contour's nodes and weights are mirror symmetric (k -> -conj k,
    w -> conj w), so the terms at mirrored nodes are conjugate.  As in
    ``transform.solve_grid``, only the vertex and the Re k > 0 nodes are
    solved, and the sum is Re t_0 + 2 sum_{j>0} Re t_j.
    """
    _check_interfaces(part, j)
    if t <= 0.0:
        raise DomainError("t must be positive")
    cont = contour if contour is not None else Contour.for_times([t], _CONTOUR_TOL)
    ks, ws = (v[cont.half_count:] for v in cont.nodes())
    unknowns = np.array([x for *_, x in _band_solve(part, ks, j, q0)])
    terms = (ws * unknowns * np.exp(-(ks**2) * t)).real
    return float(-(terms[0] + 2.0 * terms[1:].sum()) / math.pi)


def _fd_operator(c: Conductivity, nx: int):
    """Conservative second-order (sigma^2 q_x)_x on the nx - 1 interior nodes.

    sigma^2 is sampled at the cell faces x_{i+1/2}; the Dirichlet rows are
    removed.  Returns the (diag, off) bands of the symmetric tridiagonal
    matrix, off holding the equal upper and lower bands.
    """
    h = 1.0 / nx
    faces = c.sigma_sq(np.linspace(0.0, 1.0, nx + 1)[:-1] + 0.5 * h)
    diag = -(faces[1:] + faces[:-1]) / h**2
    off = faces[1:-1] / h**2
    return diag, off


def crank_nicolson(c: Conductivity, q0, t_final: float, nx: int, nt: int):
    """Conservative Crank-Nicolson solution of q_t = (sigma^2 q_x)_x.

    sigma^2 is sampled at cell faces; Dirichlet rows are pinned to zero.
    Returns (x_grid, q_at_t_final).  Unconditionally stable; accuracy is
    O(nx^-2 + nt^-2).  B = I - (dt/2) L is symmetric positive definite and
    tridiagonal, so it is factored once (LAPACK ``pttrf``) and each step is
    q <- B^-1 (I + (dt/2) L) q = 2 B^-1 q - q.
    """
    if not _integers(nx, nt) or nx < 8 or nt < 8:
        raise DomainError("need integer nx, nt >= 8")
    if not (math.isfinite(t_final) and t_final > 0.0):
        raise DomainError("t_final must be positive and finite")
    from scipy.linalg.lapack import dpttrf, dpttrs

    dt = t_final / nt
    x = np.linspace(0.0, 1.0, nx + 1)
    q = np.broadcast_to(_q0_values(q0, x), x.shape).astype(float)
    q[0] = q[-1] = 0.0
    diag, off = _fd_operator(c, nx)
    d, e, info = dpttrf(1.0 - 0.5 * dt * diag, -0.5 * dt * off)
    if info != 0:
        raise DomainError(f"Crank-Nicolson matrix is not positive definite (info={info})")
    for _ in range(nt):
        y, info = dpttrs(d, e, q[1:-1])
        if info != 0:
            raise DomainError(f"Crank-Nicolson step failed (info={info})")
        q[1:-1] = 2.0 * y - q[1:-1]
    return x, q


def _tridiag_eigs_top(c: Conductivity, count: int, nx: int) -> np.ndarray:
    """Largest `count` eigenvalues of the FD operator T on an nx grid, largest first.

    -T is symmetric positive definite and tridiagonal, so it is factored
    once (LAPACK ``pttrf``) and ARPACK's implicitly restarted Lanczos runs
    on v -> (-T)^{-1} v, shift-invert about 0 (Lehoucq, Sorensen & Yang,
    ARPACK Users' Guide, SIAM 1998): the eigenvalues of T nearest 0 are the
    largest of the inverse, and the work is linear in M.  Lanczos stops at
    residual _LANCZOS_TOL relative to each Ritz value, which bounds the
    eigenvalue error by the residual squared over the spectral gap, about
    1e-13 relative for 30 modes.  The fixed start vector makes the result
    deterministic.  ARPACK cannot return all M eigenvalues, so count = M
    takes one ``stebz`` bisection over the whole spectrum.
    """
    from scipy.linalg import eigh_tridiagonal
    from scipy.linalg.lapack import dpttrf, dpttrs
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    diag, off = _fd_operator(c, nx)
    M = diag.size
    if count == M:
        return eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                                select_range=(0, M - 1))[::-1]
    d, e, info = dpttrf(-diag, -off)
    if info != 0:
        raise DomainError(f"the FD operator is not negative definite (info={info})")
    inverse = LinearOperator((M, M), matvec=lambda v: dpttrs(d, e, v)[0], dtype=float)
    try:
        mu = eigsh(inverse, k=count, tol=_LANCZOS_TOL,
                   v0=np.random.default_rng(0).standard_normal(M),
                   ncv=min(M, max(2 * count + 1, 20)), return_eigenvectors=False)
    except ArpackNoConvergence as exc:
        raise NoConvergence(f"Lanczos found {len(exc.eigenvalues)} of {count} "
                            f"FD eigenvalues on the nx = {nx} grid") from exc
    return -1.0 / np.sort(mu)[::-1]


def fd_eigenvalues(c: Conductivity, count: int, nx: int) -> list:
    """Reference eigenvalues of the FD operator, Richardson-extrapolated.

    Each grid's eigenvalues come from shift-invert Lanczos on its tridiagonal
    matrix (:func:`_tridiag_eigs_top`), in work linear in nx.  The
    symmetric second-order discretization carries an O(h^2) eigenvalue
    error; combining grids nx and 2 nx cancels the leading term.  The coarse
    grid has only nx - 1 eigenvalues, so ``count`` may not exceed that.
    """
    if not _integers(nx, count):
        raise DomainError("need integer nx and count")
    if nx < 64:
        raise DomainError("need nx >= 64")
    if not 1 <= count <= nx - 1:
        raise DomainError("need 1 <= count <= nx - 1")
    coarse = _tridiag_eigs_top(c, count, nx)
    fine = _tridiag_eigs_top(c, count, 2 * nx)
    return ((4.0 * fine - coarse) / 3.0).tolist()


def fd_eigenvector(c: Conductivity, m: int, nx: int):
    """Mode m's grid eigenvector of the FD operator on an nx grid.

    Mode m is the m-th largest eigenvalue of the tridiagonal matrix, so one
    ``eigh_tridiagonal`` call selects it by index: LAPACK ``stebz``
    bisection for the eigenvalue, then ``stein`` inverse iteration for the
    vector, from LAPACK's fixed start, so the result repeats exactly.
    Returns (x, X) on the nx + 1 grid nodes with the zero ends, X of unit
    L^2 norm (trapezoid rule) and with positive slope at x = 0.
    """
    from scipy.linalg import eigh_tridiagonal

    if not _integers(nx) or nx < 64:
        raise DomainError("need integer nx >= 64")
    if not _integers(m) or not 1 <= m <= nx - 1:
        raise DomainError(f"need an integer mode 1 <= m <= nx - 1, got {m!r}")
    diag, off = _fd_operator(c, nx)
    _, v = eigh_tridiagonal(diag, off, select="i", select_range=(nx - 1 - m, nx - 1 - m))
    x = np.linspace(0.0, 1.0, nx + 1)
    full = np.concatenate([[0.0], v[:, 0], [0.0]])
    full /= math.sqrt(np.trapezoid(full**2, x))
    if full[1] < 0.0:
        full = -full
    return x, full


def fourier_solution(sigma_const: float, q0, x, t: float, modes: int):
    """Constant-sigma solution by the classical sine series at x in [0, 1]
    (else :class:`DomainError`)."""
    xarr = np.asarray(x, dtype=float)
    if not np.all((xarr >= 0.0) & (xarr <= 1.0)):  # NaN fails too
        raise DomainError("the sine series needs every x in [0, 1]")
    if not _integers(modes) or modes < 1:
        raise DomainError("need integer modes >= 1")
    if not (math.isfinite(sigma_const) and sigma_const > 0.0):
        raise DomainError(f"sigma_const must be finite and positive, got {sigma_const!r}")
    if not (math.isfinite(t) and t > 0.0):
        raise DomainError(f"t must be finite and positive, got {t!r}")
    pts, wts = _panel_gauss(np.linspace(0.0, 1.0, max(16, modes) + 1), 12)
    pts, wts = pts.ravel(), wts.ravel()
    ms = np.arange(1, modes + 1)
    coeffs = 2.0 * np.sum(
        (wts * _q0_values(q0, pts))[None, :] * np.sin(math.pi * ms[:, None] * pts[None, :]),
        axis=1,
    )
    decay = np.exp(-((ms * math.pi * sigma_const) ** 2) * t)
    scalar = xarr.ndim == 0
    xarr = np.atleast_1d(xarr)
    vals = np.sum(
        coeffs[:, None] * decay[:, None] * np.sin(math.pi * ms[:, None] * xarr[None, :]),
        axis=0,
    )
    return float(vals[0]) if scalar else vals
