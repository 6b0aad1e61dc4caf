"""Transverse trap spectra and closed-channel decay factors.

A particle hops on a 2D lattice with hopping ``J`` (the global energy
unit, ``J = 1`` internally); the transverse direction ``y`` carries a
trapping potential ``V(y)``.  This module diagonalizes the transverse
Hamiltonian

    (H_y psi)(y) = -J [psi(y+1) + psi(y-1)] + V(y) psi(y)

on a finite grid and computes the decay factor ``alpha`` of an
energetically closed channel together with the Green's-function
denominator every scattering module divides by.

Every grid is diagonalized one symmetry sector at a time and refined.
A reflection-symmetric grid (bit for bit: :func:`mirror_symmetric`) has
an even sector on sites ``0..Y`` (the ``y = 0 <-> 1`` bond scaled by
``sqrt(2)``) and an odd sector on sites ``1..Y``, so odd states vanish
at the origin exactly, which does not depend on how the eigensolver
mixes the near-degenerate doublets high in the trap.  The odd-sector
matrix is the even one with its ``y = 0`` row and column removed, so
Cauchy interlacing fixes the level order ``e0 < o0 < e1 < o1 < ...``;
the sectors are merged by interleaving, so state ``n`` has the parity of
``n``.  Any other grid is one sector.  One Rayleigh-quotient step per
eigenpair, with the residual accumulated error-free, makes every energy
correctly rounded, so the merged list is nondecreasing even where a
doublet's splitting is below one ulp.

A truncated grid (harmonic traps, continuum wells) lets in only the
leading run of states, in energy order, whose amplitude on the end
sites is below ``DEFAULT_EDGE_TOL``; too few on the last grid a trap
may use is an :class:`EdgeLeak`.  A continuum well is any trap
with an ``asymptote`` (a table with one, or the delta well, which is
the one-site table ``{0: 0}`` at asymptote ``v0``): it is solved in a
box and lets in only its bound states below the band bottom
``asymptote - 2 J`` (no eigenpair above it is computed), by default
every one of them.

Lengths are lattice spacings; energies are in units of ``J``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterator, Mapping, Union

import numpy as np
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

from .errors import (ConfigError, EdgeLeak, OpenChannel, UnorderedSpectrum,
                     require_finite)

J = 1.0

DEFAULT_EDGE_TOL = 1e-10
_DEFAULT_N_STATES = 40
#: Auto grid caps: a harmonic grid keeps every eigenvector, 0.94 GB at
#: 5,121 sites; a continuum box keeps only the states below the band.
_MAX_AUTO_Y, _MAX_BOX_Y = 2_560, 40_960


# --------------------------------------------------------------------------
# trap declarations
# --------------------------------------------------------------------------

def _check_half_width(y_max: float | None) -> None:
    """The grid ``-y_max..y_max`` must hold the site ``y = 0``."""
    if y_max is not None and not (1 <= y_max < math.inf
                                  and y_max == int(y_max)):
        raise ConfigError(f"y_max must be a positive integer, got {y_max}")


@dataclass(frozen=True)
class Harmonic:
    """Harmonic confinement ``V(y) = omega * y**2``.

    Parameters
    ----------
    omega : float
        Curvature in units of J per site^2; must be positive.
    y_max : int, optional
        Grid half-width.  ``None`` (default) selects the smallest
        half-width on which the requested states decay at the edges.
    """

    omega: float
    y_max: int | None = None

    def __post_init__(self):
        require_finite("omega", self.omega)
        if not self.omega > 0.0:
            raise ConfigError(f"harmonic trap needs omega > 0, got {self.omega}")
        _check_half_width(self.y_max)


class _SiteTable:
    """A potential given per site on a contiguous integer range, as the
    sorted ``(y, V(y))`` pairs ``values``, hard-walled unless it has an
    ``asymptote``."""

    values: tuple[tuple[int, float], ...]
    asymptote = None

    @property
    def grid(self) -> np.ndarray:
        return np.array([y for y, _ in self.values], dtype=int)

    @property
    def potential(self) -> np.ndarray:
        return np.array([v for _, v in self.values], dtype=float)

    def is_symmetric(self) -> bool:
        """:func:`mirror_symmetric` of the table, bit for bit, read off
        its pairs (no arrays: a continuum sweep asks once per point)."""
        return self.values == tuple((-y, v) for y, v in self.values[::-1])


@dataclass(frozen=True)
class DeltaWell(_SiteTable):
    """Zero-range well ``V(y) = v0`` off-site, ``V(0) = 0``: the one-site
    table ``{0: 0}`` with asymptote ``v0``, and solved as that table.

    The potential approaches the constant ``v0 > 0`` away from the
    origin, so the trap supports exactly one bound state plus a
    transverse continuum (handled in :mod:`q1dscatter.continuum`).

    Parameters
    ----------
    v0 : float
        Off-site potential, the asymptote; must be positive.
    y_max : int, optional
        Box half-width.  ``None`` (default) doubles the box from
        half-width 40 until the bound state decays at its edges.
    """

    v0: float
    y_max: int | None = None
    values = ((0, 0.0),)

    def __post_init__(self):
        require_finite("v0", self.v0)
        if not self.v0 > 0.0:
            raise ConfigError(
                f"delta well needs v0 > 0 (v0 = 0 is free space, where the "
                f"quasi-1D reduction breaks down); got {self.v0}"
            )
        _check_half_width(self.y_max)

    @property
    def asymptote(self) -> float:
        return self.v0

    @property
    def bound_energy(self) -> float:
        """Energy of the single bound state, ``-sqrt(v0^2 + 4 J^2) + v0``,
        in closed form."""
        return -math.hypot(self.v0, 2.0 * J) + self.v0


@dataclass(frozen=True)
class TwoSite(_SiteTable):
    """Two-site step trap: the hard-walled table ``{0: 0, 1: 2 v}``, and
    solved as that table.  The transverse Hamiltonian is the 2x2 matrix
    ``[[0, -J], [-J, 2 v]]``."""

    v: float

    def __post_init__(self):
        require_finite("v", self.v)

    @property
    def values(self) -> tuple[tuple[int, float], ...]:
        return (0, 0.0), (1, 2.0 * self.v)


@dataclass(frozen=True)
class Tabulated(_SiteTable):
    """Potential tabulated per site on a contiguous integer range.

    Parameters
    ----------
    values : tuple of (y, V(y)) pairs
        Sorted, contiguous integer sites.  Use :meth:`from_mapping` to
        build from a dict.
    asymptote : float, optional
        If set, ``V(y) = asymptote`` outside the tabulated range and the
        trap supports a transverse continuum; the tabulated range is the
        scattering range ``R``.  If ``None`` the tabulated grid is the
        whole (hard-walled) transverse space.
    """

    values: tuple[tuple[int, float], ...]
    asymptote: float | None = None

    @staticmethod
    def from_mapping(values: Mapping[int, float],
                     asymptote: float | None = None) -> "Tabulated":
        items = tuple(sorted((int(y), float(v)) for y, v in values.items()))
        return Tabulated(items, asymptote)

    def __post_init__(self):
        if not self.values:
            raise ConfigError("tabulated potential needs at least one site")
        ys = [y for y, _ in self.values]
        if ys != list(range(ys[0], ys[-1] + 1)):
            raise ConfigError("tabulated sites must form a contiguous integer range")
        require_finite("values", [v for _, v in self.values])
        if self.asymptote is not None:
            require_finite("asymptote", self.asymptote)


TrapSpec = Union[Harmonic, DeltaWell, TwoSite, Tabulated]


def mirror_symmetric(grid: np.ndarray, v: np.ndarray) -> bool:
    """Whether the grid and the potential on it are their own mirror
    images under ``y -> -y``, bit for bit: a tolerance would treat a trap
    one ulp off a mirror as symmetric and drop its real, if tiny,
    couplings between even and odd states."""
    return bool(np.array_equal(grid, -grid[::-1])
                and np.array_equal(v, v[::-1]))


def potential_on_grid(spec: TrapSpec, y_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(grid, V)`` for `spec` on the grid ``[-y_max, y_max]``
    (or the table's own grid for a hard-walled table: :class:`TwoSite`
    or :class:`Tabulated` without an asymptote)."""
    if isinstance(spec, _SiteTable) and spec.asymptote is None:
        return spec.grid, spec.potential
    grid = np.arange(-int(y_max), int(y_max) + 1)
    if isinstance(spec, Harmonic):
        return grid, spec.omega * grid.astype(float) ** 2
    if isinstance(spec, _SiteTable):  # a table with an asymptote
        v = np.full(grid.shape, spec.asymptote, dtype=float)
        ys = spec.grid
        if ys[0] < -y_max or ys[-1] > y_max:
            raise ConfigError("tabulated range exceeds the requested grid")
        lo = int(ys[0] + y_max)
        v[lo:lo + len(ys)] = spec.potential
        return grid, v
    raise ConfigError(f"unknown trap spec {type(spec).__name__}")


# --------------------------------------------------------------------------
# spectra
# --------------------------------------------------------------------------

# ndarray fields: compared by identity, hashed by id
@dataclass(frozen=True, eq=False)
class TransverseSpectrum:
    """Bound eigenpairs of the transverse Hamiltonian.

    Attributes
    ----------
    energies : ndarray, shape (n,)
        Nondecreasing eigenvalues in units of J.
    wavefunctions : ndarray, shape (n, n_sites)
        Orthonormal real eigenvectors, one per row.
    grid : ndarray of int
        Transverse site coordinates.
    symmetric : bool
        Whether grid and V(y) are their own mirror images, bit for bit
        (:func:`mirror_symmetric`).

    Derived: ``parities``, fixed by the index (module docstring).
    """

    energies: np.ndarray
    wavefunctions: np.ndarray
    grid: np.ndarray
    symmetric: bool

    @property
    def n_states(self) -> int:
        return len(self.energies)

    @cached_property
    def parities(self) -> tuple[str, ...]:
        """Per state: 'even' / 'odd' on a symmetric trap, the parity of
        the index (interlacing, module docstring), else 'none'."""
        labels = ("even", "odd") if self.symmetric else ("none", "none")
        return tuple(labels[n % 2] for n in range(self.n_states))

    @property
    def complete(self) -> bool:
        """Whether the states span the grid's whole Hilbert space (one
        per site): a sum over them is then exact, not truncated."""
        return self.n_states == len(self.grid)

    @property
    def origin_amplitudes(self) -> np.ndarray:
        """Amplitudes ``psi_n(0)`` at the impurity row.

        Odd states of a symmetric trap are built from the odd sector
        with ``psi(0) = 0``, so their amplitude here is exactly zero.
        """
        return self.wavefunctions[:, self.origin_index].copy()

    @property
    def origin_index(self) -> int:
        i0 = int(np.searchsorted(self.grid, 0))
        if i0 >= len(self.grid) or self.grid[i0] != 0:
            raise ConfigError("transverse grid does not contain y = 0")
        return i0


def _fix_gauge(vectors: np.ndarray) -> np.ndarray:
    """Deterministic sign convention, one state per row: the
    largest-magnitude component is positive (on a tie the first site
    wins, so an odd state is positive on its ``y < 0`` lobe)."""
    peak = vectors[np.arange(len(vectors)), np.argmax(np.abs(vectors), axis=1)]
    # adding 0.0 turns the -0.0 of a flipped exact node back into 0.0
    return np.where(peak < 0.0, -1.0, 1.0)[:, None] * vectors + 0.0


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a + b = s + err`` exactly (Knuth)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp split of `a` into two 26-bit halves, ``a = hi + lo``."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a * b = p + err`` exactly (Dekker)."""
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, al * bl - (((p - ah * bh) - al * bh) - ah * bl)


_ROOT2 = math.sqrt(2.0)
_ROOT2_LO = -9.667293313452913e-17  # sqrt(2) - _ROOT2, rounded


def _rayleigh_refine(diag: np.ndarray, off: np.ndarray, off_lo: np.ndarray,
                     energies: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """One Rayleigh-quotient step for each column of `vectors`.

    The Jacobi matrix has diagonal `diag` and off-diagonal
    ``off + off_lo`` (a double-double, so a ``sqrt(2)`` bond is exact to
    working precision squared).  The residual ``r = (T - E) u`` is summed
    from error-free products and sums, so the step ``u.r / u.u`` is
    accurate although ``r`` is pure cancellation; with O(1) gaps the
    refined energy is correctly rounded.
    """
    def neighbours(x):
        """``(x[i-1], x[i+1])`` per row, zero beyond the ends."""
        padded = np.concatenate((np.zeros_like(x[:1]), x, np.zeros_like(x[:1])))
        return padded[:-2], padded[2:]

    def bonds(b):
        """The bond above and below each row, as columns."""
        padded = np.concatenate(([0.0], b, [0.0]))[:, None]
        return padded[:-1], padded[1:]

    u = vectors
    below, above = neighbours(u)
    off_below, off_above = bonds(off)
    lo_below, lo_above = bonds(off_lo)
    total, comp = _two_product(diag[:, None], u)
    for a, b in ((-energies[None, :], u), (off_below, below),
                 (off_above, above)):
        p, p_err = _two_product(a, b)
        total, s_err = _two_sum(total, p)
        comp = comp + (s_err + p_err)
    residual = total + (comp + lo_below * below + lo_above * above)
    return energies + (np.einsum("ik,ik->k", u, residual)
                       / np.einsum("ik,ik->k", u, u))


def _sectors(v: np.ndarray, symmetric: bool) -> tuple[tuple, ...]:
    """The Jacobi matrices ``(diag, off, off_lo, embed)`` into which
    ``H_y`` splits on a grid with potential `v` (module docstring);
    ``embed`` maps a sector's eigenvectors (columns) to full-grid
    wavefunctions (rows), a wing value ``u / sqrt(2)`` on ``y`` and
    ``-y``."""
    if not symmetric:
        off = -J * np.ones(len(v) - 1)
        return ((v, off, np.zeros_like(off), np.transpose),)
    y = (len(v) - 1) // 2
    off = -J * np.ones(y)
    off[:1] *= _ROOT2
    off_lo = np.zeros(y)
    off_lo[:1] = -J * _ROOT2_LO

    def even(u):
        return np.vstack((u[:0:-1] / _ROOT2, u[:1], u[1:] / _ROOT2)).T

    def odd(u):
        return np.vstack((u[::-1] / -_ROOT2, np.zeros((1, u.shape[1])),
                          u / _ROOT2)).T

    return ((v[y:], off, off_lo, even), (v[y + 1:], off[1:], off_lo[1:], odd))


def _sector_solve(diag: np.ndarray, off: np.ndarray, ceiling: float
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The eigenpairs of one Jacobi matrix below `ceiling`, vectors as
    columns; below a finite ceiling LAPACK computes no others."""
    if len(diag) == 0:
        return np.empty(0), np.empty((0, 0))
    if ceiling == math.inf:
        return eigh_tridiagonal(diag, off)
    return eigh_tridiagonal(diag, off, select="v",
                            select_range=(-np.inf, ceiling))


def _grid_eigenpairs(grid: np.ndarray, v: np.ndarray, ceiling: float
                     ) -> tuple[bool, tuple[tuple, ...], list]:
    """``(symmetric, sectors, solved)``: the Jacobi matrices of ``H_y``
    on `grid` (:func:`_sectors`) and the eigenpairs of each below
    `ceiling`, from which :func:`_leading_run` and :func:`_refined` cut
    a spectrum of any size."""
    symmetric = mirror_symmetric(grid, v)
    sectors = _sectors(v, symmetric)
    solved = [_sector_solve(diag, off, ceiling) for diag, off, *_ in sectors]
    return symmetric, sectors, solved


def _leading_run(eigenpairs: tuple, n_sites: int, n_states: int | None,
                 edge_tol: float | None) -> tuple[int, np.ndarray]:
    """``(n_keep, vectors)``: the lowest `n_states` wavefunctions of
    `eigenpairs` (all of them for ``None``), merged from the sectors as
    rows, and how many of them lead the spectrum with an edge amplitude
    below `edge_tol` (every one for ``None``)."""
    _, sectors, solved = eigenpairs
    # sector s holds states s, s + n_sec, ... of the merged spectrum
    # (interlacing), which ends where a sector runs out
    n_sec = len(sectors)
    n_keep = min(n_sec * len(e) + s for s, (e, _) in enumerate(solved))
    if n_states is not None:
        n_keep = min(n_states, n_keep)
    vectors = np.empty((n_keep, n_sites))
    for s, ((*_, embed), (_, u)) in enumerate(zip(sectors, solved)):
        vectors[s::n_sec] = embed(u[:, :len(range(s, n_keep, n_sec))])
    if edge_tol is not None:  # the leading run that decays at the edges
        leaks = np.flatnonzero(np.abs(vectors[:, [0, -1]]).max(axis=1)
                               >= edge_tol)
        n_keep = int(leaks[0]) if len(leaks) else n_keep
    return n_keep, vectors


def _refined(eigenpairs: tuple, grid: np.ndarray, vectors: np.ndarray
             ) -> TransverseSpectrum:
    """The spectrum of the leading `vectors` of `eigenpairs`, each
    energy refined by :func:`_rayleigh_refine`."""
    symmetric, sectors, solved = eigenpairs
    n_sec, n_keep = len(sectors), len(vectors)
    energies = np.empty(n_keep)
    for s, ((diag, off, off_lo, _), (e, u)) in enumerate(zip(sectors,
                                                             solved)):
        n = len(range(s, n_keep, n_sec))
        energies[s::n_sec] = _rayleigh_refine(diag, off, off_lo, e[:n],
                                              u[:, :n])
    drops = np.flatnonzero(np.diff(energies) < 0.0)
    if len(drops):
        n = int(drops[0])
        raise UnorderedSpectrum(
            f"transverse energy {n + 1} ({energies[n + 1]!r}) lies below "
            f"energy {n} ({energies[n]!r})")
    return TransverseSpectrum(energies=energies,
                              wavefunctions=_fix_gauge(vectors), grid=grid,
                              symmetric=symmetric)


def _complete_spectrum(grid: np.ndarray, v: np.ndarray) -> TransverseSpectrum:
    """Every eigenpair of the potential `v` on `grid`, refined: the
    grid's whole Hilbert space, with no edge check."""
    eigenpairs = _grid_eigenpairs(grid, v, math.inf)
    _, vectors = _leading_run(eigenpairs, len(grid), None, None)
    return _refined(eigenpairs, grid, vectors)


def _leading_states(spectrum: TransverseSpectrum, n_states: int
                    ) -> TransverseSpectrum:
    """The lowest `n_states` states of `spectrum` (all of them if it
    holds fewer), on the same grid."""
    if n_states >= spectrum.n_states:
        return spectrum
    return replace(spectrum, energies=spectrum.energies[:n_states],
                   wavefunctions=spectrum.wavefunctions[:n_states])


def _grids(spec: TrapSpec) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The grids ``(grid, V)`` on which `spec` is solved, smallest first.

    A hard-walled table is its own grid, and a set ``y_max`` gives one
    grid.  Otherwise the half-width doubles: from 40 to 2,560 for a
    harmonic trap, and for a continuum well (a table with an asymptote,
    or the delta well) from 20 sites beyond its range, and at least 40,
    to 40,960.  So a caller whose grids run out after more than one has
    exhausted an auto-sized ladder.
    """
    if isinstance(spec, _SiteTable) and spec.asymptote is None:
        yield spec.grid, spec.potential
        return
    y_max = getattr(spec, "y_max", None)
    if y_max is not None:
        yield potential_on_grid(spec, y_max)
        return
    if isinstance(spec, Harmonic):
        y_max, cap = 40, _MAX_AUTO_Y
    elif isinstance(spec, _SiteTable):  # a table with an asymptote
        range_max = int(max(abs(spec.grid[0]), abs(spec.grid[-1])))
        y_max, cap = max(range_max + 20, 40), _MAX_BOX_Y
    else:
        raise ConfigError(f"unknown trap spec {type(spec).__name__}")
    while y_max <= cap:
        yield potential_on_grid(spec, y_max)
        y_max *= 2


def solve_transverse(spec: TrapSpec, n_states: int | None = None
                     ) -> TransverseSpectrum:
    """Diagonalize the transverse trap Hamiltonian.

    One loop tries the trap's grids (an auto-sized one grows until the
    states fit), a continuum well's box capping its bound states first,
    and diagonalizes each once; each failure is raised where it is
    found.  On one grid the spectrum of ``n`` states
    is bit for bit the lowest ``n`` of any larger one, so a caller that
    needs several sizes solves the complete basis once and cuts it.

    Parameters
    ----------
    spec : TrapSpec
        The trap.  For a continuum well (a :class:`Tabulated` well with
        an asymptote, or the :class:`DeltaWell`, whose single bound state
        this is) only its states below the band bottom are returned
        (continuum states, and bound states above the band, are left to
        :mod:`q1dscatter.continuum`).
    n_states : int, optional
        Number of bound states to return.  On a truncated grid only the
        leading run of states whose edge amplitude is below
        ``DEFAULT_EDGE_TOL`` counts, and an auto-sized half-width grows
        until this many do.  ``None`` returns every state of a finite
        trap, 40 of a harmonic trap, and every bound state of a
        continuum well.

    Returns
    -------
    TransverseSpectrum
        Every grid solved by symmetry sectors and refined to correctly
        rounded energies; ``symmetric`` is :func:`mirror_symmetric` of
        the solved grid.

    Raises
    ------
    ConfigError
        If a finite trap holds fewer than `n_states` states, or an
        auto-sized harmonic grid cannot hold them by half-width 2,560.
    EdgeLeak
        If an explicit grid cannot hold the requested states, or a
        continuum well binds fewer than requested, or its states do not
        decay by half-width 40,960.
    """
    if isinstance(spec, Harmonic) and n_states is None:
        n_states = _DEFAULT_N_STATES
    asymptote = getattr(spec, "asymptote", None)
    # a continuum well keeps the states below the band; a hard-walled
    # table's grid is its whole space, every state exact, no edge check
    ceiling = math.inf if asymptote is None else asymptote - 2.0 * J - 1e-12
    edge_tol = (None if isinstance(spec, _SiteTable) and asymptote is None
                else DEFAULT_EDGE_TOL)
    for grid, v in _grids(spec):
        n_wanted = n_states
        if asymptote is not None:
            # cutting the end bonds and lowering the end sites by J bounds
            # H from below by a box whose count below the band caps the
            # bound states (the cut-off half-chains start at it)
            n_max = len(eigvalsh_tridiagonal(
                v - J * (np.abs(grid) == grid[-1]), -J * np.ones(len(v) - 1),
                select="v", select_range=(-np.inf, ceiling)))
            n_wanted = n_max if n_states is None else n_states
            if n_max < max(n_wanted, 1):
                break
        eigenpairs = _grid_eigenpairs(grid, v, ceiling)
        n_keep, vectors = _leading_run(eigenpairs, len(grid), n_wanted,
                                       edge_tol)
        if n_keep >= max(n_keep if n_wanted is None else n_wanted, 1):
            return _refined(eigenpairs, grid, vectors)
        if edge_tol is None:
            raise ConfigError(f"trap holds only {n_keep} states")
        if getattr(spec, "y_max", None) is not None:  # its one grid
            raise EdgeLeak(
                f"only {n_keep} states decay at the grid edge; {n_wanted} "
                f"requested (half-width {int(grid[-1])} too small)")
    if asymptote is None:
        raise ConfigError(f"auto grid sizing exceeded half-width "
                          f"{_MAX_AUTO_Y} for {n_states} states")
    raise EdgeLeak(
        f"{max(n_wanted, 1)} bound states requested below the transverse "
        f"band bottom; the well holds at most {n_max}, and fewer decay "
        f"at the edges up to half-width {int(grid[-1])}")


# --------------------------------------------------------------------------
# closed-channel decay factors
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class AlphaValue:
    """Decay factor of one closed channel.

    Attributes
    ----------
    alpha : float
        Decay factor in (0, 1): the closed-channel amplitude falls off
        as ``alpha ** |x|`` along the free direction.
    denominator : float
        The Green's-function denominator
        ``E + 2 J_eff alpha - E_channel``, algebraically equal to
        ``J_eff (alpha^2 - 1)/alpha`` and therefore strictly negative.
    """

    alpha: float
    denominator: float


def alpha_closed(channel_energy: float, target_energy: float,
                 j_eff: float = J) -> AlphaValue:
    """Decay factor of one closed channel at the scattering energy: the
    one entry of :func:`closed_channels`.

    Raises
    ------
    OpenChannel
        If the channel is open (or marginal) at the target energy.
    """
    alpha, denominator = closed_channels(np.float64(channel_energy),
                                         np.float64(target_energy), j_eff)
    return AlphaValue(alpha=float(alpha), denominator=float(denominator))


def closed_channels(channel_energies, energy, j_eff: float = J
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Decay factors and Green's-function denominators of many closed
    channels in one pass.

    Each entry solves ``alpha**2 - g*alpha + 1 = 0`` with
    ``g = (channel_energy - energy)/j_eff`` on the ``|alpha| < 1``
    branch, ``alpha = (g - sqrt(g^2 - 4))/2``, and its denominator is
    ``energy + 2 j_eff alpha - channel_energy``.  `channel_energies` and
    `energy` (arrays or numpy scalars) broadcast against each other; a
    column of energies against a row of channels gives one row per
    energy.

    Raises
    ------
    OpenChannel
        For the first entry, in row-major order, with ``g <= 2``: the
        channel is open (or marginal) at its energy and the quasi-1D
        ansatz breaks down.
    """
    if not j_eff > 0.0:
        raise ConfigError(f"j_eff must be positive, got {j_eff}")
    g = (channel_energies - energy) / j_eff
    open_ = np.flatnonzero(~(g > 2.0))
    if open_.size:
        first = np.unravel_index(open_[0], g.shape)
        channel, target = (np.broadcast_to(x, g.shape)[first]
                           for x in (channel_energies, energy))
        raise OpenChannel(
            f"channel at energy {channel:.6g} is open at target energy "
            f"{target:.6g}: gap ratio g = {g[first]:.6g} <= 2")
    alphas = 2.0 / (g + np.sqrt(g * g - 4.0))
    return alphas, energy + 2.0 * j_eff * alphas - channel_energies
