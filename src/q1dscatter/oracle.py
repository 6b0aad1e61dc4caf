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
The factors are small numpy arrays (the chain's bonds, the dense
``h_Y``, the diagonal of ``C`` and the transverse orbit labels), built
straight from the lattice, never from the full-space ``H``.  In the
eigenbasis of the slice, ``h_Y = R E R^T`` (dense ``eigh``), ``H_s``
becomes

    H_rot = T_x (x) I + I (x) E + |x=0><x=0| (x) R^T C R:

``m`` independent tridiagonal x-chains joined only by one dense
``m x m`` contact block at ``x = 0``.  A chain ``c`` closed at the top
of the fit range, ``E_top = e_free - 2 J_eff cos(k_max)``, carries any
state the scan can accept as ``alpha_c**|x|`` away from the contact
(:func:`~q1dscatter.traps.closed_channels`; ``alpha_c`` is largest at
``E_top``), so the solve keeps only its ``L_c`` x-orbits nearest
``x = 0``, with ``alpha_c**L_c <= 1e-17``, below an ulp of a unit
vector's entries; a chain open at ``E_top``, the entrance among them,
keeps all ``lx + 1``.  ``H_rot - sigma`` on the kept sites, a
principal submatrix, is assembled in one sparse construction from
index arrays, and its shift-invert Lanczos eigenpairs (ARPACK mode 3;
Lehoucq, Sorensen & Yang, *ARPACK Users' Guide*, SIAM 1998) reuse one
LU factorization of it per strip.  The Ritz vectors are zero-padded
back to the whole sector, where every check below runs, so a cut too
short fails the residual gate instead of passing unseen.  ``H_rot`` is
symmetric, so SuperLU orders it by minimum degree on ``A + A^T``
(``MMD_AT_PLUS_A``); the chains then factor without fill and the
factors hold about ``4 n + m^2`` entries for the ``n`` kept sites,
against 40-90 per unknown for ``H_s`` itself.  Only the open chains
grow with the strip, ``n = (lx + 1) n_open + sum_c min(L_c, lx + 1)``
over the closed chains: at ``lx = 200``, 733 of the 8241 sector
unknowns of one particle at ``omega = 0.1`` (one open chain, 40 closed
ones cut at 8 to 38 orbits) and 1431 of the 9849 of a pair in the
13-site table ``V = 0.1 y^2`` at ``K = pi/3``.  The dense block costs
``O(m^3)`` to factor, which is what keeps a pair on a wide grid out
of reach (``omega = 0.1``, ``ny = 81``: ``m = 1681``).  The sector is
also what makes the shift well-posed:
``sigma = e_free - 2 J_eff cos(pi/(Lx+1))`` is exactly the energy of an
x-odd free level, which has a node at the impurity and never shifts, so
``H - sigma`` is numerically singular in the full space (its Lanczos
residuals came out at 1e-9 to 1e-6, leaking into ``a`` amplified by
1/k^2), while ``H_s - sigma`` is not.  Ritz vectors are rotated back
with ``R`` but never mapped to the full space: the entrance amplitude
``w(x)``, the entrance weight and the fit window's closed-channel
share are read in the sector, where a full-space state ``P phi``
carries ``phi`` weighted by ``1/sqrt 2`` on each of ``x`` and ``-x``
(``x != 0``) and by ``1/sqrt |I|`` on each site of a transverse orbit
``I``; they are the full-space numbers up to rounding.  The Rayleigh
quotients and the acceptance check ``|H_s phi - rho phi| <= 1e-10``
use the real-space ``H_s``, applied factor by factor, not ``H_rot``:
the check then tests the eigen-equation of the lattice problem itself,
and a wrong rotation or a mis-ordered factor fails it (by ~1) instead
of passing unseen.

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
to ``n - 2`` for the ``n`` kept sites, and the scan starts again.
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
                    alpha_closed, closed_channels, mirror_symmetric,
                    potential_on_grid, solve_transverse)
from .two_body import pair_hopping

_MAX_ACCEPTED = 9
_K_MAX_FIT = 0.15  # fitted momenta k <= 0.15: up to 9 states at lx = 200
_ENTRANCE_WEIGHT_MIN = 0.9
_EIGEN_RESIDUAL_MAX = 1e-10
_CHAIN_CUT = 1e-17  # closed chains end where alpha**L drops below an ulp
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
        if not math.isfinite(self.u):
            raise ConfigError(f"coupling u must be finite, got {self.u}")


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
    ``factored`` is the size of the matrix the solve factors, the sector
    less the sites cut off its closed transverse chains, and
    ``cut_bound`` the largest amplitude ``alpha**L`` at which a chain is
    cut (0 when none is).
    ``spread`` is ``|a_hi - a_lo|`` between that order and the one below
    it (0 for a diverged reading) and ``states`` the ``(k, tan delta)``
    of every accepted state, ordered by ``k``.  ``eigenpairs`` is the
    number of Lanczos eigenpairs finally requested and ``sigma`` the
    shift they were found around.
    """

    a: float
    diverged: bool
    k_min: float
    entrance_weight: float
    fit_residual: float
    contamination: float
    eigen_residual: float
    unknowns: int
    factored: int
    cut_bound: float
    spread: float
    states: tuple[tuple[float, float], ...]
    eigenpairs: int
    sigma: float


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


def _orbits(n: int, *involutions: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orbits of the group generated by the commuting index `involutions`
    of ``range(n)``, in the order of their smallest indices: those
    smallest indices, each index's orbit label and the orbit sizes (1, 2,
    4, ...)."""
    images = np.arange(n)[None]
    for image in involutions:
        images = np.concatenate([images, image[images]])
    return np.unique(images.min(axis=0), return_inverse=True,
                     return_counts=True)


class _Sector(NamedTuple):
    """The x-even, mirror-even (on an exactly mirror-symmetric trap) and,
    for a pair, ``y1 <-> y2`` symmetric sector of one strip in factored
    form, ``H_s = T_x (x) I + I (x) h_Y + |x=0><x=0| (x) C``.

    ``T_x`` acts on the ``lx + 1`` orbits of ``x -> -x``, ``|x| = lx - j``
    for orbit ``j`` (``x = 0`` last); it has no diagonal, and ``chain[j]``
    joins orbits ``j`` and ``j + 1``.  The dense ``h_y`` and the diagonal
    ``contact`` act on the ``m`` transverse orbits; ``labels`` gives the
    orbit of each slice state (index ``iy``, pair ``iy1 * ny + iy2``) and
    ``sizes`` the number of states in each orbit.  ``energies`` and
    ``rotation`` are the slice eigenbasis ``h_Y = R E R^T``, ``E``
    ascending, whose columns are the chains of ``H_rot``; ``depths[c]``
    is the number of x-orbits nearest ``x = 0`` the solve keeps on chain
    ``c`` and ``cut_bound`` the largest ``alpha_c**depths[c]`` among the
    chains cut short, 0 when none is (:func:`_chain_depths`).
    """

    chain: np.ndarray
    h_y: np.ndarray
    contact: np.ndarray
    labels: np.ndarray
    sizes: np.ndarray
    energies: np.ndarray
    rotation: np.ndarray
    depths: np.ndarray
    cut_bound: float

    @property
    def dims(self) -> tuple[int, int]:
        """``(lx + 1, m)``: the x-orbits and the transverse orbits."""
        return self.chain.size + 1, self.sizes.size

    @property
    def kept(self) -> np.ndarray:
        """The ``(lx + 1, m)`` mask of the sites the solve keeps: on chain
        ``c`` its last ``depths[c]`` x-orbits."""
        nx = self.chain.size + 1
        return np.arange(nx)[:, None] >= nx - self.depths

    @property
    def factored(self) -> int:
        """The size of the matrix the solve factors."""
        return int(self.depths.sum())


def _chain_depths(energies: np.ndarray, j_eff: float, nx: int
                  ) -> tuple[np.ndarray, float]:
    """The x-orbits the solve keeps on each chain of ``H_rot`` with slice
    energies `energies` (ascending, the entrance channel first) on a
    strip of `nx` x-orbits, and the largest ``alpha**L`` at which a chain
    is cut short (0 when none is).

    A chain closed at the top of the fit range,
    ``E_top = E_0 - 2 J_eff cos(_K_MAX_FIT)``, carries any state the scan
    can accept as ``alpha_c**|x|`` away from the contact, and decays
    slowest at ``E_top``; it keeps the ``L_c`` x-orbits nearest ``x = 0``,
    the fewest with ``alpha_c**L_c <= _CHAIN_CUT``, at most all ``nx``.
    A chain open at ``E_top``, the entrance among them, keeps all
    ``nx``."""
    top = energies[0] - 2.0 * j_eff * math.cos(_K_MAX_FIT)
    depths = np.full(energies.size, nx)
    closed = np.flatnonzero((energies - top) / j_eff > 2.0)
    alpha = closed_channels(energies[closed], top, j_eff)[0]
    with np.errstate(divide="ignore"):  # a zero cut keeps every chain whole
        reach = np.minimum(np.ceil(np.log(_CHAIN_CUT) / np.log(alpha)), nx)
    depths[closed] = reach
    cut = reach < nx
    return depths, float(np.max(alpha[cut] ** reach[cut], initial=0.0))


def _sector(problem: StripProblem, y_grid: np.ndarray, v: np.ndarray,
            total_momentum: float | None) -> _Sector:
    """The sector factors of the single-particle strip
    (``total_momentum=None``) or of the pair strip at total
    quasi-momentum ``K``, each the sector of its own factor of the
    full-space Hamiltonian, on the transverse grid `y_grid` with
    potential `v`.

    The transverse mirror ``y -> -y`` (pair: ``(y1, y2) -> (-y1, -y2)``)
    joins the group only when the grid and potential are mirror images
    bit for bit (:func:`~q1dscatter.traps.mirror_symmetric`).

    An entry between orbits ``I`` and ``J`` of a factor ``H`` that
    commutes with the group is ``|I| S_IJ / sqrt(|I| |J|)``, with
    ``S_IJ`` the sum of ``H`` over ``J`` in the row of ``I``'s smallest
    index alone.  Orbit sizes are powers of two, so ``|I| S_IJ`` is exact
    and each entry is rounded once: a rounded ``1/sqrt 2`` never enters
    twice (``(1/sqrt 2)**2`` rounds to ``0.5 (1 + 2**-52)``, which would
    scale the sector energies by ``1 + 2**-52``), and the equal hoppings
    summed into one entry give the same sum in any order.  The chain's
    bonds are ``-J_eff``, except the one into ``x = 0``,
    ``-2 J_eff/sqrt 2``, and the contact is ``|I| U/|I| = U`` on the
    orbits of contact states.  The slice eigenbasis and the x-orbits
    kept on each of its chains (:func:`_chain_depths`) complete it."""
    ny = len(y_grid)
    if total_momentum is None:
        j_eff, shape = J, (ny,)
        sites = np.searchsorted(y_grid, [0])
        index = np.arange(ny)
        involutions = []
    else:
        j_eff, shape = pair_hopping(total_momentum), (ny, ny)
        sites = np.arange(ny) * (ny + 1)  # y1 = y2
        index = np.arange(ny * ny)
        involutions = [index.reshape(ny, ny).T.reshape(-1)]
    if mirror_symmetric(y_grid, v):
        involutions.append(index[::-1])
    first, labels, sizes = _orbits(index.size, *involutions)
    m = sizes.size
    # S over the rows of the orbits' first states: the slice is the sum
    # over coordinates of one chain with potential v and hopping -J
    coords = np.unravel_index(first, shape)
    strides = (ny, 1)[-len(shape):]
    s = np.zeros((m, m))
    s[np.arange(m), np.arange(m)] = sum(v[c] for c in coords)
    for c, stride in zip(coords, strides):
        for step in (-1, 1):
            inside = np.nonzero((c + step >= 0) & (c + step < ny))[0]
            np.add.at(s, (inside, labels[first[inside] + step * stride]), -J)
    h_y = s * sizes[:, None] / np.sqrt(sizes[:, None] * sizes)
    chain = np.full(problem.lx, -j_eff)
    chain[-1] = -2.0 * j_eff / math.sqrt(2.0)
    contact = np.zeros(m)
    contact[labels[sites]] = problem.u
    energies, rotation = np.linalg.eigh(h_y)
    return _Sector(chain, h_y, contact, labels, sizes, energies, rotation,
                   *_chain_depths(energies, j_eff, problem.lx + 1))


def _rotated(sector: _Sector, sigma: float) -> sp.csc_matrix:
    """``H_rot - sigma`` on the sector's kept sites, where
    ``H_rot = T_x (x) I + I (x) E + |x=0><x=0| (x) R^T C R`` in the slice
    eigenbasis ``R`` (``h_Y = R E R^T``), so that
    ``H_s (I (x) R) = (I (x) R) H_rot``: the principal submatrix of the
    kept sites, x-major, with ``x = 0`` the last x-orbit.  Its CSC
    arrays are filled in column order, rows ascending: a column of
    x-orbit ``j`` on chain ``c`` holds the bond to orbit ``j - 1`` (none
    on the chain's first kept orbit), then the diagonal and the bond to
    ``j + 1``, or on ``x = 0`` the bond and then the column of the block.
    ``T_x`` has no diagonal, so only the diagonal of the ``x = 0`` block
    sums two terms, ``E + R^T C R``, before the shift, and every entry is
    rounded exactly as in the sum of the three Kronecker products less
    ``sigma I``, whose zeros it drops as well."""
    energies, rotation = sector.energies, sector.rotation
    block = rotation.T @ (sector.contact[:, None] * rotation)
    nx, m = sector.dims
    kept = sector.kept
    index = np.cumsum(kept, dtype=np.int32).reshape(nx, m) - 1
    first = nx - sector.depths  # the first kept x-orbit of each chain
    # a kept site (j, c) with j < nx - 1: rows of orbits j - 1, j, j + 1
    j, c = np.nonzero(kept[:-1])
    free = np.empty((j.size, 3))
    free[:, 0] = np.where(j > first[c], sector.chain[j - 1], 0.0)
    free[:, 1] = energies[c] - sigma
    free[:, 2] = sector.chain[j]
    free_rows = np.stack((index[j - 1, c], index[j, c], index[j + 1, c]),
                         axis=1)
    # a column on x = 0: the bond from x-orbit nx - 2, then the block's
    impurity = np.empty((m, m + 1))
    impurity[:, 0] = np.where(kept[-2], sector.chain[-1], 0.0)
    impurity[:, 1:] = block.T
    impurity[:, 1:][np.diag_indices(m)] = (energies + np.diag(block)) - sigma
    impurity_rows = np.empty((m, m + 1), dtype=np.int32)
    impurity_rows[:, 0] = index[-2]
    impurity_rows[:, 1:] = index[-1]
    keep_free, keep_impurity = free != 0.0, impurity != 0.0
    per_slot = keep_free.view(np.int8)  # three adds beat .sum(axis=1)
    counts = np.concatenate((per_slot[:, 0] + per_slot[:, 1] + per_slot[:, 2],
                             np.count_nonzero(keep_impurity, axis=1)))
    n = counts.size
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    return sp.csc_matrix((np.concatenate((free[keep_free],
                                          impurity[keep_impurity])),
                          np.concatenate((free_rows[keep_free],
                                          impurity_rows[keep_impurity])),
                          indptr), shape=(n, n))


def _sector_product(sector: _Sector, phi: np.ndarray) -> np.ndarray:
    """``H_s phi`` for x-major columns `phi`, applied factor by factor:
    ``h_Y`` on every slice, ``T_x`` along x and ``C`` on the ``x = 0``
    slice (the last), without assembling ``H_s``."""
    nx, m = sector.dims
    v = phi.reshape(nx, m, -1)
    bonds = sector.chain[:, None, None]
    h_v = sector.h_y @ v
    h_v[:-1] += bonds * v[1:]
    h_v[1:] += bonds * v[:-1]
    h_v[-1] += sector.contact[:, None] * v[-1]
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
                       ) -> tuple[float, Callable[[int], tuple[
                           np.ndarray, np.ndarray, np.ndarray]]]:
    """Shift-invert Lanczos on the sector Hamiltonian ``H_s`` near
    `sigma`, solved as ``H_rot`` in the slice eigenbasis from one LU
    factorization of ``H_rot - sigma`` on the kept sites, its vectors
    zero-padded back to the whole sector (see the module docstring).

    Returns the shift factored (`sigma`, or a step off it where
    ``H_rot - sigma`` is exactly singular) and ``eigenpairs(count)``:
    the `count` eigenpairs nearest it, each call a fresh Lanczos run on
    the same factorization, as the Rayleigh quotients ``rho`` of ``H_s``
    in ascending order, the sector vectors ``phi`` (unit columns) and
    the real-space sector residuals ``|H_s phi - rho phi|``.  ``rho`` is
    evaluated as the Ritz value plus ``phi.r / phi.phi`` with
    ``r = H_s phi - theta phi``: summing ``phi.H_s phi`` directly loses
    ~sqrt(n) ulps, and ``k`` follows from ``rho`` with a ``1/k^2``
    amplification.
    """
    nx, m = sector.dims
    kept, n = sector.kept.reshape(-1), sector.factored
    shifted = _rotated(sector, sigma)
    try:
        lu = splu(shifted, permc_spec=_ORDERING)
    except RuntimeError:  # exactly singular: step off the level
        sigma += 1e-9 * (1.0 + abs(sigma))
        shifted = _rotated(sector, sigma)
        lu = splu(shifted, permc_spec=_ORDERING)
    solve = LinearOperator((n, n), matvec=lu.solve, dtype=float)
    # ARPACK's mode 3 applies only OPinv; H_rot gives eigsh its shape
    h_rot = LinearOperator((n, n), matvec=lambda x: shifted @ x + sigma * x,
                           dtype=float)

    def eigenpairs(count: int):
        theta, psi = eigsh(h_rot, k=count, sigma=sigma, OPinv=solve,
                           v0=np.ones(n))
        phi = np.zeros((kept.size, count))
        phi[kept] = psi  # zero on the sites cut off each closed chain
        phi = (sector.rotation @ phi.reshape(nx, m, -1)).reshape(kept.size,
                                                                 -1)
        h_phi = _sector_product(sector, phi)
        rho = theta + (np.einsum("ij,ij->j", phi, h_phi - phi * theta)
                       / np.einsum("ij,ij->j", phi, phi))
        residual = np.linalg.norm(h_phi - phi * rho, axis=0)
        order = np.argsort(rho)
        return rho[order], phi[:, order], residual[order]

    return sigma, eigenpairs


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


def _readout(sector: _Sector, vectors: np.ndarray, entrance: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read the full-space states ``P phi`` of the sector columns
    `vectors` in the sector.  Returns the entrance amplitude
    ``w(x) = sum_y psi(x, y) entrance(y)`` on x-orbit ``j`` (row ``j``,
    ``|x| = lx - j``), the entrance weight ``sum_x w(x)^2 / psi.psi`` and
    the closed-channel share of the fit window's weight, one column per
    state.  ``P`` spreads a sector amplitude evenly over its orbits'
    sites: it weighs it by ``1/sqrt 2`` on ``x != 0`` and by
    ``1/sqrt |I|`` on a y-orbit ``I``."""
    nx, m = sector.dims
    x_sizes = np.full(nx, 2.0)
    x_sizes[-1] = 1.0  # x and -x; x = 0 alone
    y_entrance = np.bincount(sector.labels, weights=entrance, minlength=m) \
        / np.sqrt(sector.sizes)
    v = vectors.reshape(nx, m, -1)
    w = (y_entrance @ v) / np.sqrt(x_sizes)[:, None]
    weight = (x_sizes @ (w * w)) / np.sum(vectors * vectors, axis=0)
    rows = nx - 1 - _fit_window(nx - 1)  # the window's x > 0, ascending
    win_total = np.sum(v[rows] ** 2 / x_sizes[rows, None, None], axis=(0, 1))
    w_win = w[rows]
    with np.errstate(divide="ignore", invalid="ignore"):
        contamination = np.where(
            win_total > 0.0, np.maximum(
                0.0, win_total - np.sum(w_win * w_win, axis=0)) / win_total,
            math.inf)
    return w, weight, contamination


def _scan(energies: np.ndarray, vectors: np.ndarray, residuals: np.ndarray,
          sector: _Sector, entrance: np.ndarray, e_free: float, j_eff: float
          ) -> tuple[list[_Extraction], str | None, bool]:
    """Fit the entrance-dominated scattering states among a strip's
    eigenpairs, in ascending energy.  Returns the accepted states,
    the last rejection, and whether the scan stopped on a returned state
    (past the fit range, or at ``_MAX_ACCEPTED`` states), which makes it
    complete (see the module docstring)."""
    lx = sector.dims[0] - 1
    window = _fit_window(lx)
    rows = lx - window
    w, weights, contaminations = _readout(sector, vectors, entrance)
    accepted: list[_Extraction] = []
    best_reject = None
    for rho, w_x, weight, contamination, eigen_residual in zip(
            energies, w.T, weights, contaminations, residuals):
        if len(accepted) >= _MAX_ACCEPTED:
            return accepted, best_reject, True
        cos_k = (e_free - float(rho)) / (2.0 * j_eff)
        if not -1.0 + 1e-12 < cos_k < 1.0 - 1e-12:
            continue  # outside the entrance band (e.g. impurity bound state)
        k = math.acos(cos_k)
        if k > _K_MAX_FIT:
            return accepted, best_reject, True  # the rest sit higher still
        if weight < _ENTRANCE_WEIGHT_MIN:
            continue
        if eigen_residual > _EIGEN_RESIDUAL_MAX:
            best_reject = (f"eigenpair residual {eigen_residual:.3g} "
                           f"at k={k:.4g}")
            continue
        w_win = w_x[rows]
        design = np.column_stack([np.cos(k * window), np.sin(k * window)])
        coeff, *_ = np.linalg.lstsq(design, w_win, rcond=None)
        norm = float(np.linalg.norm(w_win))
        resid = float(np.linalg.norm(design @ coeff - w_win)) / norm \
            if norm > 0.0 else math.inf
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
            a=a, k=k, tan_delta=tan_delta, entrance_weight=float(weight),
            fit_residual=resid, contamination=float(contamination),
            eigen_residual=float(eigen_residual), diverged=diverged))
    return accepted, best_reject, len(accepted) >= _MAX_ACCEPTED


def _extract_states(sector: _Sector, entrance: np.ndarray, e_free: float,
                    j_eff: float) -> tuple[list[_Extraction], int, float]:
    """Collect entrance-dominated scattering states of the strip's
    symmetry `sector`, with their fitted asymptotic cosines, lowest
    momenta first, the number of eigenpairs finally requested and the
    Lanczos shift.  `entrance` is the transverse entrance state on one
    x-slice of the full space."""
    nx = sector.dims[0]
    k_target = math.pi / nx
    sigma, eigenpairs = _sector_eigenpairs(
        sector, e_free - 2.0 * j_eff * math.cos(k_target))
    cap = sector.factored - 2
    count = min(_pairs_requested(nx - 1), cap)
    while True:
        accepted, best_reject, complete = _scan(
            *eigenpairs(count), sector, entrance, e_free, j_eff)
        if complete or count == cap:
            break
        count = min(2 * count, cap)  # ran off the end: ask for more

    if accepted:
        accepted.sort(key=lambda e: e.k)
        return accepted, count, sigma
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


def _extrapolate(states: list[_Extraction], unknowns: int, factored: int,
                 cut_bound: float, eigenpairs: int, sigma: float
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
        unknowns=unknowns, factored=factored, cut_bound=cut_bound,
        spread=spread,
        states=tuple((e.k, e.tan_delta) for e in states),
        eigenpairs=eigenpairs, sigma=sigma)


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
    states, count, sigma = _extract_states(sector, entrance, e_free=e_free,
                                           j_eff=j_eff)
    nx, m = sector.dims
    return _extrapolate(states, unknowns=nx * m, factored=sector.factored,
                        cut_bound=sector.cut_bound, eigenpairs=count,
                        sigma=sigma)


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
