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
symmetries commute with the Hamiltonian for any trap.  When the
transverse grid and potential are mirror images bit for bit, so does
the mirror ``y -> -y`` (pair: ``(y1, y2) -> (-y1, -y2)``): the contact
at ``y = 0`` (pair: on ``y1 = y2``) maps onto itself and the entrance
state ``psi_0`` (pair: ``psi_0 psi_0``) is even, so the
entrance-dominated states are mirror-even as well.  Each strip is
therefore solved in the x-even, mirror-even (symmetric trap) and
swap-symmetric (pair) sector, spanned by the normalized orbit sums of
these commuting involutions, such as ``(|x> + |-x>)/sqrt 2``; on one
slice an orbit holds 1, 2 or 4 states.  There it factors as

    H_s = T_x (x) I + I (x) h_Y + |x=0><x=0| (x) C,

``T_x`` the x-even chain, ``h_Y`` the ``m x m`` slice Hamiltonian and
``C`` the diagonal contact term.  On an asymmetric grid of ``ny`` sites
``m = ny`` for one particle and ``ny (ny + 1)/2`` for the pair; on a
mirror-symmetric (odd) grid ``m = (ny + 1)/2`` and ``((ny + 1)/2)**2``.
The factors are built straight from the lattice, never from the
full-space ``H``.  In the eigenbasis of the
slice, ``h_Y = R E R^T`` (dense ``eigh``), ``H_s`` becomes

    H_rot = T_x (x) I + I (x) E + |x=0><x=0| (x) R^T C R:

``m`` independent tridiagonal x-chains joined only by one dense
``m x m`` contact block at ``x = 0``, assembled in one sparse
construction from index arrays.  Its shift-invert Lanczos
eigenpairs (ARPACK mode 3; Lehoucq, Sorensen & Yang, *ARPACK Users'
Guide*, SIAM 1998) reuse one LU factorization of ``H_rot - sigma`` per
strip.  ``H_rot`` is symmetric, so SuperLU orders it by minimum degree
on ``A + A^T`` (``MMD_AT_PLUS_A``); the chains then factor without
fill and the factors hold about ``4 n + m^2`` entries for ``n``
unknowns, against 40-90 per unknown for ``H_s`` itself.  The dense
block costs ``O(m^3)`` to factor, which is what keeps a pair on a wide
grid out of reach (``omega = 0.1``, ``ny = 81``: ``m = 1681``).  The
sector is also what makes the shift well-posed:
``sigma = e_free - 2 J_eff cos(pi/(Lx+1))`` is exactly the energy of an
x-odd free level, which has a node at the impurity and never shifts, so
``H - sigma`` is numerically singular in the full space (its Lanczos
residuals came out at 1e-9 to 1e-6, leaking into ``a`` amplified by
1/k^2), while ``H_s - sigma`` is not.  Ritz vectors are rotated back
with ``R`` and mapped to the full space, so the entrance projection and
the fit act on full-space vectors.  The Rayleigh quotients and the
acceptance check ``|H_s phi - rho phi| <= 1e-10`` use the real-space
``H_s``, applied factor by factor, not ``H_rot``: the check then tests
the eigen-equation of the lattice problem itself, and a wrong rotation
or a mis-ordered factor fails it (by ~1) instead of passing unseen.

Lanczos is asked only for the eigenpairs the fit can use.  A strip of
half-extent ``Lx`` holds ``n_free = floor(k_max (Lx + 1)/pi + 1/2)``
x-even free levels ``k_j = (j - 1/2) pi/(Lx + 1)`` up to the fit limit
``k_max = 0.15``, and at most 9 states are accepted, so the first
request is ``min(n_free, 9) + 2`` pairs (7 at ``Lx = 100``, 11 at
``Lx = 200``).  Shift-invert Lanczos returns exactly the eigenvalues
nearest ``sigma``, and the in-band states below ``sigma`` lie within
``2 J_eff (1 - cos(pi/(Lx + 1)))`` of it, closer than any state past
the first free level.  The energy-ordered scan over the returned pairs
is therefore complete whenever it stops on a returned state: one with
``k > k_max``, or the 9th accepted state.  When it runs off the end
instead (closed-channel states crowd the window, as near a resonance),
the same LU factorization serves a request for twice as many pairs, up
to ``n - 2`` for ``n`` unknowns, and the scan starts again.
The accepted states of the one strip give ``a(0)`` from a rational
least-squares fit ``a(s) = P_L(s)/(1 + s Q_{M-1}(s))`` in ``s = k^2``
(the finite-momentum error of ``a(k)`` is even in ``k``), one ``lstsq``
of ``P_L(s) - a s Q_{M-1}(s) = a`` (Baker & Graves-Morris, *Pade
Approximants*, CUP 1996).  Next to a narrow resonance ``a(k)`` has a
pole or a zero near ``k = 0`` that no polynomial follows; a fitted pole
inside the fitted range is genuine and kept.  The order is the highest
of [1/0], [1/1], [2/1], [2/2], [3/2] that the states determine, checked
against the order below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, eigsh, splu

from .errors import ConfigError, ContaminatedChannel, NoConvergence
from .traps import (J, Harmonic, TransverseSpectrum, TrapSpec,
                    alpha_closed, mirror_symmetric, potential_on_grid,
                    solve_transverse)
from .two_body import pair_hopping

_MAX_ACCEPTED = 9
_K_MAX_FIT = 0.15  # fitted momenta k <= 0.15: up to 9 states at lx = 200
_ENTRANCE_WEIGHT_MIN = 0.9
_EIGEN_RESIDUAL_MAX = 1e-10
_FIT_RESIDUAL_MAX = 1e-6
_ORDERING = "MMD_AT_PLUS_A"  # H_s is symmetric; see the module docstring
_CONTAMINATION_MAX = 1e-8
_DIVERGENCE_TAN = 1e-10
_ORDERS = ((1, 0), (1, 1), (2, 1), (2, 2), (3, 2))  # [L/M], L + M + 1 unknowns
_MIN_STATES = 3  # the two lowest orders need 2 and 3 states
_SPREAD_MAX = 1e-5  # |a_hi - a_lo| relative to max(1, |a|)
_MIN_LX = 52  # the first lx with _MIN_STATES x-even free k <= _K_MAX_FIT


@dataclass(frozen=True)
class StripProblem:
    """A finite 2D lattice problem for brute-force diagonalization.

    ``lx`` is the half-extent of the free direction (sites ``-lx..lx``);
    the transverse grid is the trap's own (a trap's ``y_max``, where it
    has one, sets its half-width).
    """

    trap: TrapSpec
    u: float
    lx: int

    def __post_init__(self):
        if self.lx < 16:
            raise ConfigError(f"strip half-extent must be >= 16, got {self.lx}")


@dataclass(frozen=True)
class OracleResult:
    """Scattering length extracted from exact diagonalization.

    ``a`` is the ``k -> 0`` limit of the rational fit in ``k^2`` of the
    highest order the accepted states determine (see the module
    docstring), and ``k_min`` the smallest accepted momentum.
    ``diverged`` marks an ``|a| -> infinity`` reading (e.g. ``U = 0``).
    The quality fields report the worst value over all states used;
    ``eigen_residual`` is the largest sector residual
    ``|H_s phi - rho phi|`` among them and ``unknowns`` the sector size,
    ``(lx + 1) m`` for ``m`` transverse orbits (see the module
    docstring; ``m`` halves or better on a mirror-symmetric trap).
    ``spread`` is ``|a_hi - a_lo|`` between that order and the one below
    it (0 for a diverged reading) and ``states`` the ``(k, tan delta)``
    of every accepted state, ordered by ``k``.  ``eigenpairs`` is the
    number of Lanczos eigenpairs finally requested.
    """

    a: float
    diverged: bool
    k_min: float
    entrance_weight: float
    fit_residual: float
    contamination: float
    eigen_residual: float
    unknowns: int
    spread: float
    states: tuple[tuple[float, float], ...]
    eigenpairs: int


def _transverse(problem: StripProblem
                ) -> tuple[np.ndarray, np.ndarray, TransverseSpectrum]:
    """Transverse grid, potential and spectrum of the strip, from one
    solve (for a harmonic trap the three states `_first_coupled_gap`
    reads)."""
    trap = problem.trap
    spectrum = solve_transverse(trap, n_states=3) \
        if isinstance(trap, Harmonic) else solve_transverse(trap)
    _, v = potential_on_grid(trap, int(spectrum.grid[-1]))
    return spectrum.grid, v, spectrum


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


def _slice_hamiltonian(v: np.ndarray) -> sp.csr_matrix:
    """Transverse Hamiltonian of one particle on one x-slice."""
    off = -J * np.ones(v.size - 1)
    return sp.diags([v, off, off], [0, -1, 1], format="csr")


def _pair_slice_hamiltonian(v: np.ndarray) -> sp.csr_matrix:
    """Transverse Hamiltonian of a pair on one x-slice, index
    ``iy1 * ny + iy2``."""
    hy, eye = _slice_hamiltonian(v), sp.identity(v.size)
    return sp.kron(hy, eye, format="csr") + sp.kron(eye, hy, format="csr")


def strip_hamiltonian(problem: StripProblem) -> tuple[sp.csr_matrix,
                                                      np.ndarray, np.ndarray]:
    """Sparse single-particle Hamiltonian of the strip; returns
    ``(H, x_grid, y_grid)`` with state index ``ix * len(y_grid) + iy``."""
    y_grid, v, _ = _transverse(problem)
    nx = 2 * problem.lx + 1
    ny = len(y_grid)
    h = (sp.kron(_hop_matrix(nx, J), sp.identity(ny))
         + sp.kron(sp.identity(nx), _slice_hamiltonian(v)))
    site = problem.lx * ny + np.searchsorted(y_grid, 0)
    h = h + _impurity(nx * ny, np.array([site]), problem.u)
    x_grid = np.arange(-problem.lx, problem.lx + 1)
    return h.tocsr(), x_grid, y_grid


def pair_hamiltonian(problem: StripProblem, total_momentum: float = 0.0
                     ) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
    """Sparse relative-coordinate pair Hamiltonian at total
    quasi-momentum ``K``; state index ``(ix * ny + iy1) * ny + iy2``."""
    y_grid, v, _ = _transverse(problem)
    j_k = pair_hopping(total_momentum)
    nx = 2 * problem.lx + 1
    ny = len(y_grid)
    h = (sp.kron(_hop_matrix(nx, j_k), sp.identity(ny * ny))
         + sp.kron(sp.identity(nx), _pair_slice_hamiltonian(v)))
    sites = (problem.lx * ny + np.arange(ny)) * ny + np.arange(ny)
    h = h + _impurity(nx * ny * ny, sites, problem.u)
    x_grid = np.arange(-problem.lx, problem.lx + 1)
    return h.tocsr(), x_grid, y_grid


def _orbits(n: int, *involutions: np.ndarray) -> sp.csr_matrix:
    """Orbit indicators of the group generated by the commuting index
    `involutions` of ``range(n)``: one 0/1 column per orbit (of size 1, 2,
    4, ...), in the order of the orbits' smallest indices."""
    images = np.arange(n)[None]
    for image in involutions:
        images = np.concatenate([images, image[images]])
    _, column = np.unique(images.min(axis=0), return_inverse=True)
    return sp.csr_matrix((np.ones(n), (np.arange(n), column)),
                         shape=(n, column.max() + 1))


def _sector_problem(h: sp.csr_matrix, orbits: sp.csr_matrix
                    ) -> sp.csc_matrix:
    """The sector Hamiltonian ``H_s = P^T H P`` of the isometry ``P``
    whose columns are the normalized `orbits` (`_isometry`), for an `h`
    that commutes with the orbits' symmetry group.

    Every row of an orbit ``I`` then has the same sum over an orbit
    ``J``, so ``H_s[I, J] = |I| S_IJ / sqrt(|I| |J|)`` with ``S_IJ``
    summed over ``J`` in the row of ``I``'s smallest index alone.  Orbit
    sizes are powers of two, so ``|I| S_IJ`` is exact and each entry is
    rounded once: a rounded ``1/sqrt 2`` never enters twice
    (``(1/sqrt 2)**2`` rounds to ``0.5 (1 + 2**-52)``, which would scale
    the sector energies by ``1 + 2**-52``), and no entry depends on the
    order in which the equal entries of an orbit of four or more are
    summed.
    """
    by_orbit = orbits.tocsc()  # rows sorted within each column
    size = np.diff(by_orbit.indptr)
    h_s = (h[by_orbit.indices[by_orbit.indptr[:-1]]] @ orbits).tocoo()
    h_s.data *= size[h_s.row]
    h_s.data /= np.sqrt(size[h_s.row] * size[h_s.col])
    return h_s.tocsc()


def _isometry(orbits: sp.csr_matrix) -> sp.csr_matrix:
    """``P``: the `orbits` columns, each scaled to unit norm."""
    size = np.asarray(orbits.sum(axis=0)).ravel()
    return orbits @ sp.diags(1.0 / np.sqrt(size))


class _Sector(NamedTuple):
    """The x-even, mirror-even (on an exactly mirror-symmetric trap) and,
    for a pair, ``y1 <-> y2`` symmetric sector of one strip in factored
    form, ``H_s = T_x (x) I + I (x) h_Y + |x=0><x=0| (x) C``.

    ``t_x`` acts on the orbits of ``x -> -x`` (``x = 0`` last), ``h_y``
    and the diagonal ``contact`` on the ``m`` transverse orbits;
    ``orbits`` are the 0/1 orbit columns of the full space, x-major.
    """

    t_x: sp.csc_matrix
    h_y: sp.csc_matrix
    contact: sp.csc_matrix
    orbits: sp.csr_matrix


def _sector(problem: StripProblem, y_grid: np.ndarray, v: np.ndarray,
            total_momentum: float | None) -> _Sector:
    """The sector factors of the single-particle strip
    (``total_momentum=None``) or of the pair strip at total
    quasi-momentum ``K``, each the sector of its own factor of the
    full-space Hamiltonian, on the transverse grid `y_grid` with
    potential `v`.

    The transverse mirror ``y -> -y`` (pair: ``(y1, y2) -> (-y1, -y2)``)
    joins the group only when the grid and potential are mirror images
    bit for bit (:func:`~q1dscatter.traps.mirror_symmetric`)."""
    ny = len(y_grid)
    if total_momentum is None:
        j_eff, h_y = J, _slice_hamiltonian(v)
        sites = np.searchsorted(y_grid, [0])
        index = np.arange(ny)
        involutions = []
    else:
        j_eff, h_y = pair_hopping(total_momentum), _pair_slice_hamiltonian(v)
        sites = np.arange(ny) * (ny + 1)  # y1 = y2
        index = np.arange(ny * ny)
        involutions = [index.reshape(ny, ny).T.reshape(-1)]
    if mirror_symmetric(y_grid, v):
        involutions.append(index[::-1])
    y_orbits = _orbits(index.size, *involutions)
    nx = 2 * problem.lx + 1
    x_orbits = _orbits(nx, np.arange(nx)[::-1])
    t_x = _sector_problem(_hop_matrix(nx, j_eff), x_orbits)
    h_y = _sector_problem(h_y, y_orbits)
    contact = _sector_problem(_impurity(index.size, sites, problem.u),
                              y_orbits)
    return _Sector(t_x, h_y, contact,
                   sp.kron(x_orbits, y_orbits, format="csr"))


def _rotated(sector: _Sector) -> tuple[sp.csc_matrix, np.ndarray]:
    """``H_rot = T_x (x) I + I (x) E + |x=0><x=0| (x) R^T C R`` and the
    slice eigenbasis ``R`` (``h_Y = R E R^T``), so that
    ``H_s (I (x) R) = (I (x) R) H_rot``; x-major, with ``x = 0`` the
    last x-orbit.  Assembled in one construction from index arrays;
    ``T_x`` has no diagonal, so only the diagonal of the ``x = 0`` block
    sums two terms, ``E + R^T C R``, and every entry is rounded exactly
    as in the sum of the three Kronecker products."""
    energies, rotation = np.linalg.eigh(sector.h_y.toarray())
    block = rotation.T @ (sector.contact @ rotation)
    nx, m = sector.t_x.shape[0], energies.size
    chain = sector.t_x.tocoo()
    slices = np.arange(m)
    diagonal = np.arange(nx * m)
    b_row, b_col = np.nonzero(block)
    at_impurity = (nx - 1) * m
    rows = np.concatenate([(chain.row[:, None] * m + slices).ravel(),
                           diagonal, at_impurity + b_row])
    cols = np.concatenate([(chain.col[:, None] * m + slices).ravel(),
                           diagonal, at_impurity + b_col])
    data = np.concatenate([np.repeat(chain.data, m), np.tile(energies, nx),
                           block[b_row, b_col]])
    return sp.csc_matrix((data, (rows, cols)), shape=(nx * m, nx * m)), \
        rotation


def _sector_product(sector: _Sector, phi: np.ndarray) -> np.ndarray:
    """``H_s phi`` for x-major columns `phi`, applied factor by factor:
    ``T_x`` along x, ``h_Y`` on every slice and ``C`` on the ``x = 0``
    slice (the last), without assembling ``H_s``."""
    nx, m = sector.t_x.shape[0], sector.h_y.shape[0]
    v = phi.reshape(nx, m, -1)
    h_v = (sector.t_x @ v.reshape(nx, -1)).reshape(v.shape)
    h_v += (sector.h_y @ v.transpose(1, 0, 2).reshape(m, -1)) \
        .reshape(m, nx, -1).transpose(1, 0, 2)
    h_v[-1] += sector.contact @ v[-1]
    return h_v.reshape(phi.shape)


def _check_correlation_length(problem: StripProblem, gap: float,
                              j_eff: float) -> None:
    """The slowest closed channel must decay well inside the strip."""
    alpha = alpha_closed(gap + 2.0 * j_eff, 0.0, j_eff=j_eff).alpha
    if problem.lx * (1.0 - alpha) <= 10.0:
        raise ConfigError(
            f"strip too short: slowest closed channel decays as "
            f"{alpha:.6f}**|x| over half-extent {problem.lx} "
            f"(need lx*(1-alpha) > 10)")


def _first_coupled_gap(spectrum: TransverseSpectrum, pair: bool) -> float:
    """Gap from the entrance to the lowest closed channel the contact
    couples to: ``E2 - E0`` on a symmetric trap, else ``E1 - E0``; a pair
    on a symmetric trap also couples to ``(1, 1)`` at ``2 (E1 - E0)``."""
    if spectrum.n_states < 2:
        return math.inf
    gaps = spectrum.energies - spectrum.energies[0]
    n = 2 if (spectrum.symmetric and spectrum.n_states > 2) else 1
    if pair and spectrum.symmetric:
        return min(float(gaps[n]), 2.0 * float(gaps[1]))
    return float(gaps[n])


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


def _sector_eigenpairs(sector: _Sector, sigma: float
                       ) -> Callable[[int], tuple[np.ndarray, np.ndarray,
                                                  np.ndarray]]:
    """Shift-invert Lanczos on the sector Hamiltonian ``H_s`` near
    `sigma`, solved as ``H_rot`` in the slice eigenbasis from one LU
    factorization of ``H_rot - sigma`` (see the module docstring).

    Returns ``eigenpairs(count)``: the `count` eigenpairs nearest
    `sigma`, each call a fresh Lanczos run on the same factorization,
    as the Rayleigh quotients ``rho`` of ``H_s`` in ascending order, the
    full-space vectors ``P phi`` (unit columns) and the real-space sector
    residuals ``|H_s phi - rho phi|``.  ``rho`` is evaluated as the Ritz
    value plus ``phi.r / phi.phi`` with ``r = H_s phi - theta phi``:
    summing ``phi.H_s phi`` directly loses ~sqrt(n) ulps, and ``k``
    follows from ``rho`` with a ``1/k^2`` amplification.
    """
    nx, m = sector.t_x.shape[0], sector.h_y.shape[0]
    n = nx * m
    h_rot, rotation = _rotated(sector)
    eye = sp.identity(n, format="csc")
    try:
        lu = splu(h_rot - sigma * eye, permc_spec=_ORDERING)
    except RuntimeError:  # exactly singular: step off the level
        sigma += 1e-9 * (1.0 + abs(sigma))
        lu = splu(h_rot - sigma * eye, permc_spec=_ORDERING)
    solve = LinearOperator((n, n), matvec=lu.solve, dtype=float)
    isometry = _isometry(sector.orbits)

    def eigenpairs(count: int):
        theta, phi = eigsh(h_rot, k=count, sigma=sigma, OPinv=solve,
                           v0=np.ones(n))
        phi = (rotation @ phi.reshape(nx, m, -1)).reshape(n, -1)
        h_phi = _sector_product(sector, phi)
        rho = theta + (np.einsum("ij,ij->j", phi, h_phi - phi * theta)
                       / np.einsum("ij,ij->j", phi, phi))
        residual = np.linalg.norm(h_phi - phi * rho, axis=0)
        order = np.argsort(rho)
        return rho[order], isometry @ phi[:, order], residual[order]

    return eigenpairs


def _fit_window(lx: int) -> np.ndarray:
    """Sites ``x > 0`` of the cosine fit on a strip of half-extent `lx`,
    clear of the impurity's closed channels and of the open end."""
    return np.arange((lx + 3) // 4, lx // 2 + 1)


def _pairs_requested(lx: int) -> int:
    """The first Lanczos request on a strip of half-extent `lx`: the
    x-even free levels ``k_j = (j - 1/2) pi/(lx + 1) <= _K_MAX_FIT`` the
    fit can use, at most ``_MAX_ACCEPTED``, plus two, so that the scan
    normally stops on a returned state (see the module docstring)."""
    n_free = math.floor(_K_MAX_FIT * (lx + 1) / math.pi + 0.5)
    return min(n_free, _MAX_ACCEPTED) + 2


def _scan(energies: np.ndarray, vectors: np.ndarray, residuals: np.ndarray,
          entrance: np.ndarray, e_free: float, j_eff: float, lx: int
          ) -> tuple[list[_Extraction], str | None, bool]:
    """Fit the entrance-dominated scattering states among a strip's
    eigenpairs, in ascending energy.  Returns the accepted states,
    the last rejection, and whether the scan stopped on a returned state
    (past the fit range, or at ``_MAX_ACCEPTED`` states), which makes it
    complete (see the module docstring)."""
    window = _fit_window(lx)
    win_idx = lx + window  # positive-x side of the symmetric grid
    accepted: list[_Extraction] = []
    best_reject = None
    for rho, psi, eigen_residual in zip(energies, vectors.T, residuals):
        if len(accepted) >= _MAX_ACCEPTED:
            return accepted, best_reject, True
        cos_k = (e_free - float(rho)) / (2.0 * j_eff)
        if not -1.0 + 1e-12 < cos_k < 1.0 - 1e-12:
            continue  # outside the entrance band (e.g. impurity bound state)
        k = math.acos(cos_k)
        if k > _K_MAX_FIT:
            return accepted, best_reject, True  # the rest sit higher still
        w = psi.reshape(-1, entrance.size) @ entrance
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
        full = psi.reshape(2 * lx + 1, -1)
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
    return accepted, best_reject, len(accepted) >= _MAX_ACCEPTED


def _extract_states(sector: _Sector, entrance: np.ndarray, e_free: float,
                    j_eff: float, lx: int
                    ) -> tuple[list[_Extraction], int]:
    """Collect entrance-dominated scattering states of the strip's
    symmetry `sector`, with their fitted asymptotic cosines, lowest
    momenta first, and the number of eigenpairs finally requested.
    `entrance` is the transverse entrance state on one x-slice of the
    full space."""
    k_target = math.pi / (lx + 1)
    sigma = e_free - 2.0 * j_eff * math.cos(k_target)
    eigenpairs = _sector_eigenpairs(sector, sigma)
    cap = sector.orbits.shape[1] - 2
    count = min(_pairs_requested(lx), cap)
    while True:
        accepted, best_reject, complete = _scan(
            *eigenpairs(count), entrance, e_free, j_eff, lx)
        if complete or count == cap:
            break
        count = min(2 * count, cap)  # ran off the end: ask for more

    if accepted:
        accepted.sort(key=lambda e: e.k)
        return accepted, count
    if best_reject is not None:
        raise ContaminatedChannel(
            f"no clean scattering eigenstate found; last rejection: "
            f"{best_reject}")
    raise NoConvergence(
        "no even entrance-dominated eigenstate in the scattering window")


def _rational_intercept(x: np.ndarray, a: np.ndarray,
                        order: tuple[int, int]) -> float:
    """``P_L(0)`` of the least-squares ``a = P_L(x)/(1 + x Q_{M-1}(x))``
    of ``order = (L, M)``, solved as ``P_L(x) - a x Q_{M-1}(x) = a``."""
    l, m = order
    powers = np.vander(x, max(l, m) + 1, increasing=True)
    design = np.column_stack([powers[:, :l + 1],
                              -a[:, None] * powers[:, 1:m + 1]])
    coeff, *_ = np.linalg.lstsq(design, a, rcond=None)
    return float(coeff[0])


def _zero_momentum_limit(s: np.ndarray, a: np.ndarray) -> tuple[float, float]:
    """``a(0)`` from the readings ``a(s)``, ``s = k^2``, by the highest
    order in ``_ORDERS`` they determine, and the spread ``|a_hi - a_lo|``
    from the order below; `NoConvergence` when there are fewer than
    ``_MIN_STATES`` or the spread exceeds ``_SPREAD_MAX max(1, |a|)``."""
    if s.size < _MIN_STATES:
        raise NoConvergence(
            f"{s.size} scattering states in the fit range, need "
            f"{_MIN_STATES} to extrapolate a(k) to k = 0")
    lo, hi = [order for order in _ORDERS if sum(order) < s.size][-2:]
    x = s / s.max()
    a_hi, a_lo = _rational_intercept(x, a, hi), _rational_intercept(x, a, lo)
    spread = abs(a_hi - a_lo)
    if not spread <= _SPREAD_MAX * max(1.0, abs(a_hi)):
        raise NoConvergence(
            f"k -> 0 extrapolation not settled: [{hi[0]}/{hi[1]}] gives "
            f"a = {a_hi:.10g}, [{lo[0]}/{lo[1]}] gives {a_lo:.10g} "
            f"(spread {spread:.3g})")
    return a_hi, spread


def _extrapolate(states: list[_Extraction], unknowns: int, eigenpairs: int
                 ) -> OracleResult:
    """The ``k -> 0`` limit of the strip's accepted states."""
    live = [e for e in states if not e.diverged]
    if live:
        a, spread = _zero_momentum_limit(np.array([e.k ** 2 for e in live]),
                                         np.array([e.a for e in live]))
    else:
        a, spread = math.inf, 0.0
    used = live or states
    return OracleResult(
        a=a, diverged=not live, k_min=states[0].k,
        entrance_weight=min(e.entrance_weight for e in used),
        fit_residual=max(e.fit_residual for e in used),
        contamination=max(e.contamination for e in used),
        eigen_residual=max(e.eigen_residual for e in used),
        unknowns=unknowns, spread=spread,
        states=tuple((e.k, e.tan_delta) for e in states),
        eigenpairs=eigenpairs)


def _scattering_length(problem: StripProblem,
                       total_momentum: float | None) -> OracleResult:
    """Solve the strip and extrapolate its ``a(k)`` readings to
    ``k = 0``; a single particle for ``total_momentum=None``, else a
    pair at ``K``."""
    j_eff = J if total_momentum is None else pair_hopping(total_momentum)
    y_grid, v, spectrum = _transverse(problem)
    _check_correlation_length(
        problem, _first_coupled_gap(spectrum, total_momentum is not None),
        j_eff)
    if problem.lx < _MIN_LX:  # at lx = 52 the fit window holds 14 points
        raise ConfigError(
            f"strip too short: the fit range k <= {_K_MAX_FIT} of "
            f"half-extent {problem.lx} holds fewer than {_MIN_STATES} "
            f"x-even free levels; the shortest strip that holds them has "
            f"lx = {_MIN_LX}")
    psi0, e0 = spectrum.wavefunctions[0], float(spectrum.energies[0])
    if total_momentum is None:
        entrance, e_free = psi0, e0
    else:
        entrance, e_free = np.outer(psi0, psi0).reshape(-1), 2.0 * e0
    sector = _sector(problem, y_grid, v, total_momentum)
    states, count = _extract_states(sector, entrance, e_free=e_free,
                                    j_eff=j_eff, lx=problem.lx)
    return _extrapolate(states, unknowns=sector.orbits.shape[1],
                        eigenpairs=count)


def strip_scattering_length(problem: StripProblem) -> OracleResult:
    """Single-particle scattering length from exact diagonalization.

    Solves the strip at half-extent ``lx`` and extrapolates its
    ``a(k)`` readings to ``k = 0`` with a rational fit in ``k^2``.

    Raises
    ------
    ConfigError
        When the strip is too short for the slowest closed channel to
        decay, or shorter than ``lx = 52``, the first to hold three
        x-even free levels in the fit range.
    ContaminatedChannel, NoConvergence
        When no clean asymptotic window exists; `NoConvergence` also
        when fewer than three states can be fitted or the two highest
        orders of the fit differ by more than ``1e-5 max(1, |a|)``.
    """
    return _scattering_length(problem, None)


def pair_scattering_length(problem: StripProblem,
                           total_momentum: float = 0.0) -> OracleResult:
    """Two-particle scattering length from exact diagonalization in
    relative coordinates at total quasi-momentum ``K``.

    The same cosine extraction as the single-particle case, with
    collective hopping ``J_K`` and the entrance projector
    ``psi_0(y1) psi_0(y2)``.
    """
    return _scattering_length(problem, total_momentum)
