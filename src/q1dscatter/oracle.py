"""Brute-force validation: exact diagonalization of the full lattice
problem, with the scattering length read off the eigenvectors.

No channel expansion is used anywhere here.  A single particle lives on
a finite strip ``x in [-Lx, Lx]`` (open ends) with the trap in
``y``; a particle pair at conserved total quasi-momentum ``K`` reduces
to relative coordinates ``(x = x1 - x2, y1, y2)`` with collective
hopping ``J_K = 2 J cos(K/2)`` and bosonic exchange symmetry
``(x, y1, y2) -> (-x, y2, y1)``.

Even entrance-dominated scattering eigenstates behave asymptotically as
``cos(k|x| + delta) psi_0(y)`` (entrance channel only), so the
scattering length follows from a two-parameter cosine fit in a window
away from both the impurity and the boundary:

    tan(delta) = -B2/B1  from  w(x) ~ B1 cos(kx) + B2 sin(kx),
    a(k) = 1 / (sin(k) tan(delta)),       k from the eigenvalue.

Only states even under ``x -> -x`` (and, for a pair, symmetric under
``y1 <-> y2``) can be entrance-dominated scattering states, and both
symmetries commute with the Hamiltonian for any trap.  Each strip is
therefore solved in that sector: a sparse isometry ``P`` with columns
``(|x> + |-x>)/sqrt 2`` (times ``(|y1 y2> + |y2 y1>)/sqrt 2`` for a pair)
gives ``H_s = P^T H P``, whose shift-invert Lanczos eigenpairs reuse one
LU factorization of ``H_s - sigma`` per strip (ARPACK mode 3; Lehoucq,
Sorensen & Yang, *ARPACK Users' Guide*, SIAM 1998).  ``H_s`` is
symmetric, so SuperLU orders it by minimum degree on ``A + A^T``
(``MMD_AT_PLUS_A``), which fills the factors about half as much as the
default column ordering.  The sector is also
what makes the shift well-posed: ``sigma = e_free - 2 J_eff cos(pi/(Lx+1))``
is exactly the energy of an x-odd free level, which has a node at the
impurity and never shifts, so ``H - sigma`` is numerically singular in the
full space (its Lanczos residuals came out at 1e-9 to 1e-6, leaking into
``a`` amplified by 1/k^2), while ``H_s - sigma`` is not.  Ritz vectors are
mapped back with ``P``, so the entrance projection and the fit act on
full-space vectors, and every accepted state must have a sector residual
``|H_s phi - rho phi| <= 1e-10``.  Several states per strip size are
extracted and ``a(k)`` is extrapolated to ``k = 0`` with a least-squares
polynomial in ``k^2`` pooled over two strip sizes (the finite-momentum
error of ``a(k)`` is even in ``k``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, eigsh, splu

from .errors import (ConfigError, ContaminatedChannel, FitWindowTooSmall,
                     NoConvergence)
from .traps import (J, DeltaWell, Harmonic, TrapSpec, alpha_closed,
                    potential_on_grid, solve_transverse)
from .two_body import pair_hopping

_N_EIGENPAIRS = 18
_MAX_ACCEPTED = 9
_K_MAX_FIT = 0.15  # beyond this the quartic k**2 model degrades
_ENTRANCE_WEIGHT_MIN = 0.9
_EIGEN_RESIDUAL_MAX = 1e-10
_FIT_RESIDUAL_MAX = 1e-6
_ORDERING = "MMD_AT_PLUS_A"  # H_s is symmetric; see the module docstring
_MIN_WINDOW_POINTS = 8
_CONTAMINATION_MAX = 1e-8
_DIVERGENCE_TAN = 1e-10


@dataclass(frozen=True)
class StripProblem:
    """A finite 2D lattice problem for brute-force diagonalization.

    ``lx`` is the half-extent of the free direction (sites ``-lx..lx``);
    ``y_max`` overrides the transverse half-width for traps on an
    auto-sized grid (``None`` keeps the trap's own sizing).
    """

    trap: TrapSpec
    u: float
    lx: int
    y_max: int | None = None

    def __post_init__(self):
        if isinstance(self.trap, DeltaWell):
            raise ConfigError(
                "the exact-diagonalization oracle does not take the delta "
                "well: its closed channels form a transverse continuum; "
                "use the continuum module")
        if self.lx < 16:
            raise ConfigError(f"strip half-extent must be >= 16, got {self.lx}")


@dataclass(frozen=True)
class OracleResult:
    """Scattering length extracted from exact diagonalization.

    ``a`` is the ``k -> 0`` extrapolation pooled over both strip sizes;
    ``a_coarse``/``a_fine`` are the per-size extrapolations and
    ``k_coarse``/``k_fine`` the smallest momenta entering each.
    ``diverged`` marks an ``|a| -> infinity`` reading (e.g. ``U = 0``).
    The quality fields report the worst value over all states used;
    ``eigen_residual`` is the largest sector residual
    ``|H_s phi - rho phi|`` among them and ``unknowns`` the sector size
    of the finer strip.
    """

    a: float
    diverged: bool
    a_coarse: float
    a_fine: float
    k_coarse: float
    k_fine: float
    entrance_weight: float
    fit_residual: float
    contamination: float
    eigen_residual: float
    unknowns: int


def _effective_trap(problem: StripProblem) -> TrapSpec:
    if problem.y_max is None:
        return problem.trap
    if isinstance(problem.trap, Harmonic):
        return replace(problem.trap, y_max=problem.y_max)
    raise ConfigError(
        "y_max override applies only to traps on an auto-sized grid")


def _transverse_ground(problem: StripProblem):
    """Transverse grid, potential, and ground state used by the strip."""
    trap = _effective_trap(problem)
    spectrum = solve_transverse(trap, n_states=1) \
        if isinstance(trap, Harmonic) else solve_transverse(trap)
    grid = spectrum.grid
    _, v = potential_on_grid(trap, int(grid[-1]))
    return grid, v, spectrum.wavefunctions[0], float(spectrum.energies[0])


def _hop_matrix(n: int, amplitude: float) -> sp.csr_matrix:
    rows = np.arange(n - 1)
    cols = rows + 1
    values = np.full(2 * rows.size, -amplitude)
    return sp.csr_matrix((values, (np.concatenate([rows, cols]),
                                   np.concatenate([cols, rows]))),
                         shape=(n, n))


def _impurity(n: int, sites: np.ndarray, u: float) -> sp.csr_matrix:
    """Diagonal contact term ``u`` on the given state indices."""
    return sp.csr_matrix((np.full(sites.size, u), (sites, sites)),
                         shape=(n, n))


def strip_hamiltonian(problem: StripProblem) -> tuple[sp.csr_matrix,
                                                      np.ndarray, np.ndarray]:
    """Sparse single-particle Hamiltonian of the strip; returns
    ``(H, x_grid, y_grid)`` with state index ``ix * len(y_grid) + iy``."""
    y_grid, v, _, _ = _transverse_ground(problem)
    nx = 2 * problem.lx + 1
    ny = len(y_grid)
    tx = _hop_matrix(nx, J)
    hy = sp.diags([v, -J * np.ones(ny - 1), -J * np.ones(ny - 1)],
                  [0, -1, 1], format="csr")
    h = sp.kron(tx, sp.identity(ny)) + sp.kron(sp.identity(nx), hy)
    site = problem.lx * ny + np.searchsorted(y_grid, 0)
    h = h + _impurity(nx * ny, np.array([site]), problem.u)
    x_grid = np.arange(-problem.lx, problem.lx + 1)
    return h.tocsr(), x_grid, y_grid


def pair_hamiltonian(problem: StripProblem, total_momentum: float = 0.0
                     ) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
    """Sparse relative-coordinate pair Hamiltonian at total
    quasi-momentum ``K``; state index ``(ix * ny + iy1) * ny + iy2``."""
    y_grid, v, _, _ = _transverse_ground(problem)
    j_k = pair_hopping(total_momentum)
    nx = 2 * problem.lx + 1
    ny = len(y_grid)
    tx = _hop_matrix(nx, j_k)
    hy = sp.diags([v, -J * np.ones(ny - 1), -J * np.ones(ny - 1)],
                  [0, -1, 1], format="csr")
    h = (sp.kron(tx, sp.identity(ny * ny))
         + sp.kron(sp.identity(nx),
                   sp.kron(hy, sp.identity(ny))
                   + sp.kron(sp.identity(ny), hy)))
    sites = (problem.lx * ny + np.arange(ny)) * ny + np.arange(ny)
    h = h + _impurity(nx * ny * ny, sites, problem.u)
    x_grid = np.arange(-problem.lx, problem.lx + 1)
    return h.tocsr(), x_grid, y_grid


def _orbits(image: np.ndarray) -> sp.csr_matrix:
    """Orbit indicators of the index involution `image`: one 0/1 column
    per orbit ``{i, image[i]}``, in the order of ``i <= image[i]``."""
    first = np.flatnonzero(np.arange(image.size) <= image)
    partner = image[first]
    paired = partner != first
    cols = np.arange(first.size)
    rows = np.concatenate([first, partner[paired]])
    return sp.csr_matrix(
        (np.ones(rows.size), (rows, np.concatenate([cols, cols[paired]]))),
        shape=(image.size, first.size))


def _x_orbits(lx: int) -> sp.csr_matrix:
    """Orbits of ``x -> -x`` on the sites ``x = -lx..lx``."""
    return _orbits(np.arange(2 * lx + 1)[::-1])


def _strip_orbits(lx: int, ny: int) -> sp.csr_matrix:
    """Orbits spanning the x-even sector of the single-particle strip."""
    return sp.kron(_x_orbits(lx), sp.identity(ny), format="csr")


def _pair_orbits(lx: int, ny: int) -> sp.csr_matrix:
    """Orbits spanning the x-even, ``y1 <-> y2`` symmetric sector of the
    pair strip."""
    exchange = np.arange(ny * ny).reshape(ny, ny).T.reshape(-1)
    return sp.kron(_x_orbits(lx), _orbits(exchange), format="csr")


def _sector_problem(h: sp.csr_matrix, orbits: sp.csr_matrix
                    ) -> tuple[sp.csc_matrix, sp.csr_matrix]:
    """The sector Hamiltonian ``H_s = P^T H P`` and the isometry ``P``
    whose columns are the normalized `orbits`.

    ``H_s`` is summed over the unit orbit vectors and then scaled by
    ``1/sqrt(|orbit_i| |orbit_j|)``, so a rounded ``1/sqrt 2`` never
    enters twice: ``(1/sqrt 2)**2`` rounds to ``0.5 (1 + 2**-52)``, which
    would scale the sector energies by ``1 + 2**-52``.
    """
    size = np.asarray(orbits.sum(axis=0)).ravel()
    h_s = (orbits.T @ h @ orbits).tocoo()
    h_s.data /= np.sqrt(size[h_s.row] * size[h_s.col])
    return h_s.tocsc(), orbits @ sp.diags(1.0 / np.sqrt(size))


def _check_correlation_length(problem: StripProblem, gap: float,
                              j_eff: float) -> None:
    """The slowest closed channel must decay well inside the strip."""
    alpha = alpha_closed(gap + 2.0 * j_eff, 0.0, j_eff=j_eff).alpha
    if problem.lx * (1.0 - alpha) <= 10.0:
        raise ConfigError(
            f"strip too short: slowest closed channel decays as "
            f"{alpha:.6f}**|x| over half-extent {problem.lx} "
            f"(need lx*(1-alpha) > 10)")


def _first_coupled_gap(problem: StripProblem) -> float:
    trap = _effective_trap(problem)
    spectrum = solve_transverse(trap, n_states=3) \
        if isinstance(trap, Harmonic) else solve_transverse(trap)
    if spectrum.n_states < 2:
        return math.inf
    n = 2 if (spectrum.symmetric and spectrum.n_states > 2) else 1
    return float(spectrum.energies[n] - spectrum.energies[0])


@dataclass(frozen=True)
class _Extraction:
    a: float
    k: float
    tan_delta: float
    entrance_weight: float
    fit_residual: float
    contamination: float
    eigen_residual: float
    diverged: bool


def _sector_eigenpairs(h: sp.csr_matrix, orbits: sp.csr_matrix,
                       sigma: float
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shift-invert Lanczos eigenpairs of the sector Hamiltonian ``H_s``
    of `orbits` nearest `sigma`, from one LU factorization of
    ``H_s - sigma``.

    Returns the sector Rayleigh quotients ``rho`` in ascending order, the
    full-space vectors ``P phi`` (unit columns) and the sector residuals
    ``|H_s phi - rho phi|``.  ``rho`` is evaluated as the Ritz value
    plus ``phi.r / phi.phi`` with ``r = H_s phi - theta phi``: summing
    ``phi.H_s phi`` directly loses ~sqrt(n) ulps, and ``k`` follows from
    ``rho`` with a ``1/k^2`` amplification.
    """
    h_s, sector = _sector_problem(h, orbits)
    n = h_s.shape[0]
    eye = sp.identity(n, format="csc")
    try:
        lu = splu(h_s - sigma * eye, permc_spec=_ORDERING)
    except RuntimeError:  # exactly singular: step off the level
        sigma += 1e-9 * (1.0 + abs(sigma))
        lu = splu(h_s - sigma * eye, permc_spec=_ORDERING)
    solve = LinearOperator((n, n), matvec=lu.solve, dtype=float)
    theta, phi = eigsh(h_s, k=min(_N_EIGENPAIRS, n - 2), sigma=sigma,
                       OPinv=solve, v0=np.ones(n))
    h_phi = h_s @ phi
    rho = theta + (np.einsum("ij,ij->j", phi, h_phi - phi * theta)
                   / np.einsum("ij,ij->j", phi, phi))
    residual = np.linalg.norm(h_phi - phi * rho, axis=0)
    order = np.argsort(rho)
    return rho[order], sector @ phi[:, order], residual[order]


def _extract_states(h: sp.csr_matrix, orbits: sp.csr_matrix,
                    x_grid: np.ndarray, project, e_free: float,
                    j_eff: float, lx: int) -> list[_Extraction]:
    """Collect entrance-dominated scattering states of ``h`` in the
    symmetry sector spanned by `orbits`, with their fitted asymptotic
    cosines, lowest momenta first."""
    lo = (lx + 3) // 4
    hi = lx // 2
    window = np.arange(lo, hi + 1)
    if len(window) < _MIN_WINDOW_POINTS:
        raise FitWindowTooSmall(
            f"fit window [{lo}, {hi}] holds {len(window)} points "
            f"(< {_MIN_WINDOW_POINTS}); increase the strip extent")
    win_idx = lx + window  # positive-x side of the symmetric grid

    k_target = math.pi / (lx + 1)
    sigma = e_free - 2.0 * j_eff * math.cos(k_target)
    energies, vectors, residuals = _sector_eigenpairs(h, orbits, sigma)

    accepted: list[_Extraction] = []
    best_reject = None
    for rho, psi, eigen_residual in zip(energies, vectors.T, residuals):
        if len(accepted) >= _MAX_ACCEPTED:
            break
        cos_k = (e_free - float(rho)) / (2.0 * j_eff)
        if not -1.0 + 1e-12 < cos_k < 1.0 - 1e-12:
            continue  # outside the entrance band (e.g. impurity bound state)
        k = math.acos(cos_k)
        if k > _K_MAX_FIT:
            break  # states are energy-ordered; the rest sit higher still
        w = project(psi)
        weight = float(w @ w) / float(psi @ psi)
        if weight < _ENTRANCE_WEIGHT_MIN:
            continue
        if eigen_residual > _EIGEN_RESIDUAL_MAX:
            best_reject = (f"eigenpair residual {eigen_residual:.3g} "
                           f"at k={k:.4g}")
            continue
        w_win = w[win_idx]
        design = np.column_stack([np.cos(k * window), np.sin(k * window)])
        coeff, *_ = np.linalg.lstsq(design, w_win, rcond=None)
        norm = float(np.linalg.norm(w_win))
        resid = float(np.linalg.norm(design @ coeff - w_win)) / norm \
            if norm > 0.0 else math.inf
        full = psi.reshape(len(x_grid), -1)
        win_total = float(np.sum(full[win_idx] ** 2))
        contamination = max(0.0, win_total - float(w_win @ w_win)) / win_total \
            if win_total > 0.0 else math.inf
        if contamination > _CONTAMINATION_MAX:
            best_reject = (f"closed-channel weight {contamination:.3g} in "
                           f"the fit window at k={k:.4g}")
            continue
        if resid > _FIT_RESIDUAL_MAX:
            best_reject = (f"cosine fit residual {resid:.3g} at k={k:.4g}")
            continue
        b1, b2 = float(coeff[0]), float(coeff[1])
        tan_delta = -b2 / b1 if b1 != 0.0 else math.inf
        diverged = abs(tan_delta) < _DIVERGENCE_TAN
        a = math.inf if diverged else 1.0 / (math.sin(k) * tan_delta)
        accepted.append(_Extraction(
            a=a, k=k, tan_delta=tan_delta, entrance_weight=weight,
            fit_residual=resid, contamination=contamination,
            eigen_residual=float(eigen_residual), diverged=diverged))

    if accepted:
        accepted.sort(key=lambda e: e.k)
        return accepted
    if best_reject is not None:
        raise ContaminatedChannel(
            f"no clean scattering eigenstate found; last rejection: "
            f"{best_reject}")
    raise NoConvergence(
        "no even entrance-dominated eigenstate in the scattering window")


def _zero_momentum_fit(states: list[_Extraction]) -> float:
    """Least-squares polynomial-in-``k^2`` intercept of ``a(k)``.

    Cubic when enough points support it (the ``k^6`` term of ``a(k)``
    is what limits the extrapolation otherwise), lower degree for
    sparse data."""
    s = np.array([e.k ** 2 for e in states])
    a = np.array([e.a for e in states])
    n = len(states)
    degree = 0 if n == 1 else min(3, max(1, n - 2))
    design = np.vander(s / s.max(), degree + 1, increasing=True)
    coeff, *_ = np.linalg.lstsq(design, a, rcond=None)
    return float(coeff[0])


def _extrapolate(coarse: list[_Extraction], fine: list[_Extraction],
                 unknowns: int) -> OracleResult:
    """Pool the per-size extractions into the ``k -> 0`` limit."""
    live_coarse = [e for e in coarse if not e.diverged]
    live_fine = [e for e in fine if not e.diverged]
    used = (live_coarse + live_fine) or (coarse + fine)
    diverged = not (live_coarse or live_fine)
    if diverged:
        a = a_coarse = a_fine = math.inf
    else:
        a = _zero_momentum_fit(live_coarse + live_fine)
        a_coarse = _zero_momentum_fit(live_coarse) if live_coarse else math.inf
        a_fine = _zero_momentum_fit(live_fine) if live_fine else math.inf
    return OracleResult(
        a=a, diverged=diverged, a_coarse=a_coarse, a_fine=a_fine,
        k_coarse=coarse[0].k, k_fine=fine[0].k,
        entrance_weight=min(e.entrance_weight for e in used),
        fit_residual=max(e.fit_residual for e in used),
        contamination=max(e.contamination for e in used),
        eigen_residual=max(e.eigen_residual for e in used),
        unknowns=unknowns)


def strip_scattering_length(problem: StripProblem) -> OracleResult:
    """Single-particle scattering length from exact diagonalization.

    Solves the strip at half-extents ``lx//2`` and ``lx`` and
    extrapolates the pooled ``a(k)`` readings to ``k = 0``.

    Raises
    ------
    FitWindowTooSmall, ContaminatedChannel, NoConvergence
        When no clean asymptotic window exists.
    """
    _check_correlation_length(problem, _first_coupled_gap(problem), J)

    results = []
    for lx in (problem.lx // 2, problem.lx):
        p = replace(problem, lx=lx)
        h, x_grid, y_grid = strip_hamiltonian(p)
        _, _, psi0, e0 = _transverse_ground(p)
        ny = len(y_grid)
        orbits = _strip_orbits(lx, ny)

        def project(psi, ny=ny, psi0=psi0):
            return psi.reshape(-1, ny) @ psi0

        results.append(_extract_states(h, orbits, x_grid, project,
                                       e_free=e0, j_eff=J, lx=lx))
    return _extrapolate(*results, unknowns=orbits.shape[1])


def pair_scattering_length(problem: StripProblem,
                           total_momentum: float = 0.0) -> OracleResult:
    """Two-particle scattering length from exact diagonalization in
    relative coordinates at total quasi-momentum ``K``.

    The same cosine extraction as the single-particle case, with
    collective hopping ``J_K`` and the entrance projector
    ``psi_0(y1) psi_0(y2)``.
    """
    j_k = pair_hopping(total_momentum)
    _check_correlation_length(problem, _first_coupled_gap(problem), j_k)

    results = []
    for lx in (problem.lx // 2, problem.lx):
        p = replace(problem, lx=lx)
        h, x_grid, y_grid = pair_hamiltonian(p, total_momentum)
        _, _, psi0, e0 = _transverse_ground(p)
        ny = len(y_grid)
        orbits = _pair_orbits(lx, ny)
        pair_projector = np.outer(psi0, psi0).reshape(-1)

        def project(psi, ny=ny, proj=pair_projector):
            return psi.reshape(-1, ny * ny) @ proj

        results.append(_extract_states(h, orbits, x_grid, project,
                                       e_free=2.0 * e0, j_eff=j_k, lx=lx))
    return _extrapolate(*results, unknowns=orbits.shape[1])
