"""Independent reference models used to verify the contour solver.

Four families, none of which share code with the production path:

* the piecewise-constant interface model: the conductivity is frozen on N
  cells, transforms of the cell problems yield a 2N x 2N linear system
  A(k) X = Y, and one LU solve per contour node gives the interface
  unknowns, which by Cramer's rule are the ratios det A_j / det A.
  Scaled determinants D_N = (i/2) det A / prod(Lambda_p^+) admit an exact
  binary-vector sum and an equivalent switch-location sum whose truncation
  costs only O(N * max_switches), which is what makes the large-N
  convergence studies feasible;
* a conservative Crank-Nicolson discretization of the PDE itself;
* a symmetric tridiagonal eigensolver (LAPACK ``stebz`` bisection with
  Richardson extrapolation across two grids) for the spectrum;
* the classical Fourier sine series for constant conductivity.

Interface quantities: cells j = 1..N carry sigma_j (sampled at midpoints),
nu_j = k / sigma_j, and the jump factors Lambda_p^{+-} = sigma_{p+1} +-
sigma_p at interior interfaces p = 1..N-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import Conductivity, _panel_gauss
from .errors import (
    DenominatorNearZero,
    DomainError,
    SingularPartition,
    TooManyTerms,
)
from .transform import Contour

__all__ = [
    "InterfacePartition",
    "GlobalRelationSystem",
    "LambdaFactors",
    "uniform_partition",
    "lambda_factors",
    "assemble_system",
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


@dataclass(frozen=True)
class InterfacePartition:
    """Cells (x_{j-1}, x_j) with constant sigma_j, covering [0, 1].

    ``sigma0`` scales the left flux unknown; the scaling cancels in every
    determinant ratio and defaults to sigma_1.
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


@dataclass(frozen=True)
class LambdaFactors:
    """Interface combinations Lambda_p^+- = sigma_{p+1} +- sigma_p (p=1..N-1)."""

    plus: np.ndarray
    minus: np.ndarray

    @property
    def rho(self) -> np.ndarray:
        return self.minus / self.plus


@dataclass(frozen=True)
class GlobalRelationSystem:
    """The 2N x 2N system A(k) X = Y of cellwise transform identities.

    Unknown ordering (columns): ik*g0 at interior interfaces 1..N-1, then
    the flux transforms sigma_j^2 g1 at interfaces 0..N.  Rows 1..N hold the
    cell relations at +k, rows N+1..2N the same at -k.
    """

    k: complex
    matrix: np.ndarray
    rhs: np.ndarray
    labels: tuple


def uniform_partition(c: Conductivity, n_cells: int) -> InterfacePartition:
    """Uniform cells with sigma sampled at midpoints (O(L^2) per cell)."""
    if n_cells < 1:
        raise SingularPartition("need at least one cell")
    nodes = np.linspace(0.0, 1.0, n_cells + 1)
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    sigmas = np.asarray(c.sigma(mids), dtype=float)
    return InterfacePartition(nodes=nodes, sigmas=sigmas, sigma0=float(sigmas[0]))


def lambda_factors(part: InterfacePartition) -> LambdaFactors:
    s = part.sigmas
    return LambdaFactors(plus=s[1:] + s[:-1], minus=s[1:] - s[:-1])


# Row blocks of A(k): the cell relations at +k, then the mirror at -k.
_SIGNS = np.array([[1.0], [-1.0]])


def _system_matrix(part: InterfacePartition, kc: complex) -> np.ndarray:
    """A(k) alone; its columns are ordered as in :class:`GlobalRelationSystem`."""
    if kc == 0:
        raise DomainError("the interface system requires k != 0")
    N = part.n_cells
    s = part.sigmas
    nu = kc / s
    left = np.exp(-1j * _SIGNS * nu * part.nodes[:-1])  # e^{-+i nu_j x_{j-1}}
    right = np.exp(-1j * _SIGNS * nu * part.nodes[1:])  # e^{-+i nu_j x_j}
    r = np.arange(N)
    A = np.zeros((2, N, 2 * N), dtype=complex)
    # flux sigma^2 g1 at interfaces j-1 and j, columns N-1+p for p = 0..N
    A[:, r, N - 1 + r] = left
    A[:, r, N + r] = -right
    # value ik g0 at interior interfaces, columns p-1 for p = 1..N-1; the
    # mirrored relation flips the sign of ik g0
    A[:, r[1:], r[:-1]] = _SIGNS * s[1:] * left[:, 1:]
    A[:, r[:-1], r[:-1]] = -_SIGNS * s[:-1] * right[:, :-1]
    return A.reshape(2 * N, 2 * N)


def _weighted_profile(part: InterfacePartition, q0):
    """16-node Gauss points per cell and the weights times q0 there."""
    pts, wts = _panel_gauss(part.nodes, 16)
    return pts, wts * q0(pts.ravel()).reshape(pts.shape)


def _system_rhs(part: InterfacePartition, kc: complex, pts, wq) -> np.ndarray:
    """Y(k): q0 half-transforms int_{cell_j} e^{-+i nu_j y} q0(y) dy at +-k."""
    nu = kc / part.sigmas
    phase = np.exp(-1j * _SIGNS[:, :, None] * nu[:, None] * pts)
    return np.sum(wq * phase, axis=-1).ravel()


def assemble_system(part: InterfacePartition, k, q0) -> GlobalRelationSystem:
    """Build A(k) and Y(k) for the interface model.

    Cell j contributes, at +-k, the identity coupling its initial-profile
    transform with the boundary unknowns of its two interfaces; the value
    unknowns at the outer boundaries are zero (Dirichlet) and drop out.
    """
    kc = complex(k)
    A = _system_matrix(part, kc)
    N = part.n_cells
    labels = tuple(
        [f"ik*g0[{p}]" for p in range(1, N)] + [f"s2*g1[{p}]" for p in range(N + 1)]
    )
    Y = _system_rhs(part, kc, *_weighted_profile(part, q0))
    return GlobalRelationSystem(k=kc, matrix=A, rhs=Y, labels=labels)


def dn_det(part: InterfacePartition, k, q0=None) -> complex:
    """(i/2) det A(k) * prod_p 1/Lambda_p^+ straight from the matrix.

    A(k) does not depend on the initial profile, so ``q0`` is ignored.
    """
    sign, logdet = np.linalg.slogdet(_system_matrix(part, complex(k)))
    lam = lambda_factors(part)
    logscale = float(np.sum(np.log(np.abs(lam.plus)))) if lam.plus.size else 0.0
    sgnscale = float(np.prod(np.sign(lam.plus))) if lam.plus.size else 1.0
    return 0.5j * sign * np.exp(logdet - logscale) / sgnscale


def _dn_sum(cell_times, rhos, k):
    """Binary-vector sum over entry vectors, first entry pinned to 0."""
    N = cell_times.size
    if N == 0:
        return 0j  # empty span: sin(k * 0)
    if N > _BRUTE_CAP:
        raise TooManyTerms(f"2**{N - 1} terms exceeds the brute-force cap")
    kc = complex(k)
    total = 0.0 + 0.0j
    n_vectors = 1 << (N - 1)
    block = 1 << 20
    for start in range(0, n_vectors, block):
        idx = np.arange(start, min(start + block, n_vectors), dtype=np.uint64)
        # bits for entries 2..N; entry 1 is fixed at 0
        ell = np.zeros((idx.size, N), dtype=np.int8)
        for p in range(1, N):
            ell[:, p] = (idx >> np.uint64(p - 1)) & np.uint64(1)
        signs = 1.0 - 2.0 * ell
        phases = signs @ cell_times
        if N > 1:
            switch = ell[:, :-1] != ell[:, 1:]
            factors = np.where(switch, rhos[None, :], 1.0).prod(axis=1)
        else:
            factors = np.ones(idx.size)
        total += np.sum(factors * np.sin(kc * phases))
    return complex(total)


def dn_bruteforce(part: InterfacePartition, k) -> complex:
    """D_N(k) by exact enumeration of the 2**(N-1) entry vectors."""
    return _dn_sum(part.cell_times, lambda_factors(part).rho, k)


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
    if not 0 <= max_switches <= max(0, N - 1):
        raise DomainError("need 0 <= max_switches <= N-1")
    kc = complex(k)
    ctimes = part.cell_times
    c_total = float(ctimes.sum())
    if N == 1 or max_switches == 0:
        return complex(np.sin(kc * c_total))
    rho = lambda_factors(part).rho
    # cumulative times at interior interfaces s = 1..N-1
    csum = np.cumsum(ctimes)[:-1]

    total = 0j
    for eps in (+1.0, -1.0):
        # chain[s] = sum over ordered switch tuples ending at s of the
        # factor product; parity of the next switch flips the exponent sign.
        base = rho * np.exp(eps * 2j * kc * csum)
        chain = base.copy()
        T = [np.sum(chain)]
        for p in range(2, max_switches + 1):
            prefix = np.concatenate(([0.0 + 0.0j], np.cumsum(chain)[:-1]))
            sign = 1.0 if p % 2 == 1 else -1.0
            chain = rho * np.exp(sign * eps * 2j * kc * csum) * prefix
            T.append(np.sum(chain))
        branch = np.exp(eps * 1j * kc * c_total)  # n = 0 term
        for n, Tn in enumerate(T, start=1):
            branch += np.exp(eps * 1j * kc * ((-1.0) ** n) * c_total) * Tn
        total += eps * branch
    return complex(total / 2j)


def en_det(part: InterfacePartition, k, j: int, q0) -> complex:
    """(1/2) det A_j(k) * prod 1/Lambda_p^+, with column j replaced by Y."""
    N = part.n_cells
    if not 1 <= j <= N - 1:
        raise DomainError("interface index j must satisfy 1 <= j <= N-1")
    system = assemble_system(part, k, q0)
    Aj = system.matrix.copy()
    Aj[:, j - 1] = system.rhs
    sign, logdet = np.linalg.slogdet(Aj)
    lam = lambda_factors(part)
    logscale = float(np.sum(np.log(np.abs(lam.plus))))
    sgnscale = float(np.prod(np.sign(lam.plus)))
    return 0.5 * sign * np.exp(logdet - logscale) / sgnscale


def psi_entry(part: InterfacePartition, k, j: int, m: int) -> complex:
    """Discrete kernel entry: product of sub-partition sums across (m, j).

    For m <= j this is sqrt(sigma_j/sigma_m) * prod_{p=m..j} 2 sigma_p /
    Lambda_p^+ times the entry-vector sums of the prefix cells 1..m and the
    suffix cells j+1..N; for m > j the interface and sample roles swap.
    Its N -> infinity limit is the symmetric continuum kernel.
    """
    N = part.n_cells
    if not (1 <= j <= N - 1 and 1 <= m <= N - 1):
        raise DomainError("need 1 <= j <= N-1 and 1 <= m <= N-1")
    if m > j:
        return _psi_core(part, k, m, j)
    return _psi_core(part, k, j, m)


def _psi_core(part, k, j, m):
    # m <= j assumed; prefix cells 1..m, suffix cells j+1..N
    s = part.sigmas
    lam = lambda_factors(part)
    ct = part.cell_times
    rho = lam.rho
    prefix = _dn_sum(ct[:m], rho[: m - 1], k)
    suffix = _dn_sum(ct[j:], rho[j:], k)
    hi = min(j, s.size - 1)  # Lambda_p defined for p <= N-1
    prod = float(np.prod(2.0 * s[m - 1 : hi] / lam.plus[m - 1 : hi]))
    return math.sqrt(s[j - 1] / s[m - 1]) * prod * prefix * suffix


def en_sampled(part: InterfacePartition, k, j: int, q0) -> complex:
    """E_N approximated by interface-sampled profile values and psi entries.

    The exact transforms in Y collapse, to O(width^2) per cell, onto
    q0(x_m) * width_m; the boundary sample m = N is omitted (the Dirichlet
    end carries no weight for admissible profiles).  The factor common to
    one side of the interface is computed once and reused across samples.
    """
    N = part.n_cells
    if not 1 <= j <= N - 1:
        raise DomainError("interface index j must satisfy 1 <= j <= N-1")
    s = part.sigmas
    lam = lambda_factors(part)
    rho = lam.rho
    ct = part.cell_times
    suffix_j = _dn_sum(ct[j:], rho[j:], k)   # shared by every m <= j
    prefix_j = _dn_sum(ct[:j], rho[: j - 1], k)  # shared by every m > j
    total = 0j
    for m in range(1, N):
        val = float(q0(np.array([part.nodes[m]]))[0])
        if m <= j:
            prod = float(np.prod(2.0 * s[m - 1 : j] / lam.plus[m - 1 : j]))
            psi = math.sqrt(s[j - 1] / s[m - 1]) * prod * _dn_sum(
                ct[:m], rho[: m - 1], k) * suffix_j
        else:
            prod = float(np.prod(2.0 * s[j - 1 : m] / lam.plus[j - 1 : m]))
            psi = math.sqrt(s[m - 1] / s[j - 1]) * prod * prefix_j * _dn_sum(
                ct[m:], rho[m:], k)
        total += val * psi / math.sqrt(s[j - 1] * s[m - 1]) * part.widths[m - 1]
    return total


def interface_solution(part: InterfacePartition, q0, j: int, t: float,
                       contour: Contour | None = None) -> float:
    """Solution at interface x_j from the determinant ratio.

    q(x_j, t) = Re[-(1/pi) int det(A_j)/det(A) e^{-k^2 t} dk] over the same
    hyperbolic contour the continuum solver uses (sized for t unless
    ``contour`` is given).  By Cramer's rule the ratio is the unknown
    X_{j-1} of A X = Y, so each node costs one LU solve and the overall
    transform scale cancels exactly.
    """
    N = part.n_cells
    if not 1 <= j <= N - 1:
        raise DomainError("interface index j must satisfy 1 <= j <= N-1")
    if t <= 0.0:
        raise DomainError("t must be positive")
    cont = contour if contour is not None else Contour.for_times([t], _CONTOUR_TOL)
    ks, ws = cont.nodes()
    pts, wq = _weighted_profile(part, q0)
    acc = 0j
    for kc, wc in zip(ks, ws):
        try:
            ratio = np.linalg.solve(_system_matrix(part, kc),
                                    _system_rhs(part, kc, pts, wq))[j - 1]
        except np.linalg.LinAlgError as exc:
            raise DenominatorNearZero("det A vanished on the contour") from exc
        acc += wc * ratio * np.exp(-(kc**2) * t)
    return float((-acc / math.pi).real)


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
    if not all(isinstance(n, (int, np.integer)) for n in (nx, nt)) or nx < 8 or nt < 8:
        raise DomainError("need integer nx, nt >= 8")
    if not (math.isfinite(t_final) and t_final > 0.0):
        raise DomainError("t_final must be positive and finite")
    from scipy.linalg.lapack import dpttrf, dpttrs

    dt = t_final / nt
    x = np.linspace(0.0, 1.0, nx + 1)
    q = np.asarray(q0(x), dtype=float).copy()
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
    """Largest `count` eigenvalues of the FD operator on an nx grid, largest first."""
    from scipy.linalg import eigh_tridiagonal

    diag, off = _fd_operator(c, nx)
    M = diag.size
    vals = eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                            select_range=(M - count, M - 1))
    return vals[::-1]


def fd_eigenvalues(c: Conductivity, count: int, nx: int) -> list:
    """Reference eigenvalues by LAPACK ``stebz`` bisection, Richardson-extrapolated.

    The symmetric second-order discretization carries an O(h^2) eigenvalue
    error; combining grids nx and 2 nx cancels the leading term.  The coarse
    grid has only nx - 1 eigenvalues, so ``count`` may not exceed that.
    """
    if nx < 64:
        raise DomainError("need nx >= 64")
    if not 1 <= count <= nx - 1:
        raise DomainError("need 1 <= count <= nx - 1")
    coarse = _tridiag_eigs_top(c, count, nx)
    fine = _tridiag_eigs_top(c, count, 2 * nx)
    return ((4.0 * fine - coarse) / 3.0).tolist()


def fd_eigenvector(c: Conductivity, lam: float, nx: int):
    """Grid eigenvector for an eigenvalue estimate, by inverse iteration."""
    from scipy.linalg import solve_banded

    diag, off = _fd_operator(c, nx)
    shift = lam * (1.0 + 1e-8) + 1e-10
    ab = np.zeros((3, nx - 1))
    ab[0, 1:] = off
    ab[1, :] = diag - shift
    ab[2, :-1] = off
    rng = np.random.default_rng(12345)
    v = rng.standard_normal(nx - 1)
    for _ in range(4):
        v = solve_banded((1, 1), ab, v)
        v /= np.linalg.norm(v)
    x = np.linspace(0.0, 1.0, nx + 1)
    full = np.concatenate([[0.0], v, [0.0]])
    # unit L^2 norm on the grid, positive slope at the left end
    full /= math.sqrt(np.trapezoid(full**2, x))
    if full[1] < 0.0:
        full = -full
    return x, full


def fourier_solution(sigma_const: float, q0, x, t: float, modes: int):
    """Constant-sigma solution by the classical sine series."""
    if modes < 1:
        raise DomainError("modes must be >= 1")
    if sigma_const <= 0.0:
        raise DomainError("sigma_const must be positive")
    pts, wts = _panel_gauss(np.linspace(0.0, 1.0, max(16, modes) + 1), 12)
    pts, wts = pts.ravel(), wts.ravel()
    q_vals = q0(pts)
    ms = np.arange(1, modes + 1)
    coeffs = 2.0 * np.sum(
        wts[None, :] * q_vals[None, :] * np.sin(math.pi * ms[:, None] * pts[None, :]),
        axis=1,
    )
    decay = np.exp(-((ms * math.pi * sigma_const) ** 2) * t)
    xarr = np.asarray(x, dtype=float)
    scalar = xarr.ndim == 0
    xarr = np.atleast_1d(xarr)
    vals = np.sum(
        coeffs[:, None] * decay[:, None] * np.sin(math.pi * ms[:, None] * xarr[None, :]),
        axis=0,
    )
    return float(vals[0]) if scalar else vals
