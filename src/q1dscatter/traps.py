"""Transverse trap spectra and closed-channel decay factors.

A particle hops on a 2D lattice with hopping ``J`` (the global energy
unit, ``J = 1`` internally); the transverse direction ``y`` carries a
trapping potential ``V(y)``.  This module diagonalizes the transverse
Hamiltonian

    (H_y psi)(y) = -J [psi(y+1) + psi(y-1)] + V(y) psi(y)

on a finite grid and computes the decay factor ``alpha`` of an
energetically closed channel together with the Green's-function
denominator every scattering module divides by.

A reflection-symmetric grid (bit for bit: :func:`mirror_symmetric`) is
diagonalized one parity sector at a time: the even sector on sites
``0..Y`` (the ``y = 0 <-> 1`` bond scaled by ``sqrt(2)``) and the odd
sector on sites ``1..Y``.  Parity labels are
therefore exact, odd states vanish at the origin exactly, and neither
depends on how the eigensolver mixes the near-degenerate doublets high
in the trap.  The odd-sector matrix is the even one with its ``y = 0``
row and column removed, so Cauchy interlacing fixes the level order
``e0 < o0 < e1 < o1 < ...``; the sectors are merged by interleaving.
One Rayleigh-quotient step per eigenpair, with the residual accumulated
error-free, makes every energy correctly rounded, so the merged list is
nondecreasing even where a doublet's splitting is below one ulp.

Lengths are lattice spacings; energies are in units of ``J``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Union

import numpy as np
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

from .errors import ConfigError, EdgeLeak, OpenChannel, UnorderedSpectrum

J = 1.0

DEFAULT_EDGE_TOL = 1e-10
_DEFAULT_N_STATES = 40
_MAX_AUTO_Y = 40_960


# --------------------------------------------------------------------------
# trap declarations
# --------------------------------------------------------------------------

def _check_half_width(y_max: float | None) -> None:
    """The grid ``-y_max..y_max`` must hold the site ``y = 0``."""
    if y_max is not None and not (y_max >= 1 and y_max == int(y_max)):
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
        if not self.omega > 0.0:
            raise ConfigError(f"harmonic trap needs omega > 0, got {self.omega}")
        _check_half_width(self.y_max)


@dataclass(frozen=True)
class DeltaWell:
    """Zero-range well ``V(y) = v0`` off-site, ``V(0) = 0``.

    The potential approaches the constant ``v0 > 0`` away from the
    origin, so the trap supports exactly one bound state plus a
    transverse continuum (handled in :mod:`q1dscatter.continuum`).
    """

    v0: float
    y_max: int | None = None

    def __post_init__(self):
        if not self.v0 > 0.0:
            raise ConfigError(
                f"delta well needs v0 > 0 (v0 = 0 is free space, where the "
                f"quasi-1D reduction breaks down); got {self.v0}"
            )
        _check_half_width(self.y_max)

    @property
    def bound_energy(self) -> float:
        """Energy of the single bound state, ``-sqrt(v0^2 + 4 J^2) + v0``."""
        return -math.hypot(self.v0, 2.0 * J) + self.v0

    @property
    def decay(self) -> float:
        """Bound-state decay factor ``beta`` in ``psi(y) ~ beta**|y|``."""
        return (math.hypot(self.v0, 2.0 * J) - self.v0) / (2.0 * J)


@dataclass(frozen=True)
class TwoSite:
    """Two-site step trap on the grid {0, 1}: ``V(0) = 0``, ``V(1) = 2 v``,
    open boundaries.  The transverse Hamiltonian is the 2x2 matrix
    ``[[0, -J], [-J, 2 v]]``."""

    v: float


@dataclass(frozen=True)
class Tabulated:
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

    @property
    def grid(self) -> np.ndarray:
        return np.array([y for y, _ in self.values], dtype=int)

    @property
    def potential(self) -> np.ndarray:
        return np.array([v for _, v in self.values], dtype=float)

    def is_symmetric(self) -> bool:
        return mirror_symmetric(self.grid, self.potential)


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
    (or the trap's own finite grid for :class:`TwoSite` / hard-walled
    :class:`Tabulated`)."""
    if isinstance(spec, TwoSite):
        return np.array([0, 1]), np.array([0.0, 2.0 * spec.v])
    if isinstance(spec, Tabulated) and spec.asymptote is None:
        return spec.grid, spec.potential
    grid = np.arange(-int(y_max), int(y_max) + 1)
    if isinstance(spec, Harmonic):
        return grid, spec.omega * grid.astype(float) ** 2
    if isinstance(spec, DeltaWell):
        return grid, np.where(grid == 0, 0.0, spec.v0)
    if isinstance(spec, Tabulated):
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

@dataclass(frozen=True)
class TransverseSpectrum:
    """Bound eigenpairs of the transverse Hamiltonian.

    Attributes
    ----------
    energies : ndarray, shape (n,)
        Nondecreasing eigenvalues in units of J.
    wavefunctions : ndarray, shape (n, n_sites)
        Orthonormal real eigenvectors, one per row.
    parities : tuple of str
        'even' / 'odd' for symmetric traps, 'none' otherwise.  Exact:
        each state comes from the even or the odd sector solve, and the
        two alternate in energy order, starting with 'even'.
    grid : ndarray of int
        Transverse site coordinates.
    symmetric : bool
        Whether grid and V(y) are their own mirror images, bit for bit
        (:func:`mirror_symmetric`).
    """

    energies: np.ndarray
    wavefunctions: np.ndarray
    parities: tuple[str, ...]
    grid: np.ndarray
    symmetric: bool

    @property
    def n_states(self) -> int:
        return len(self.energies)

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


def _decaying_run(edge: np.ndarray, edge_tol: float) -> int:
    """Number of leading states whose edge amplitude is below `edge_tol`."""
    leaks = np.flatnonzero(edge >= edge_tol)
    return int(leaks[0]) if len(leaks) else len(edge)


def _sector_solve(diag: np.ndarray, off: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """All eigenpairs of one Jacobi matrix, vectors as columns."""
    if len(diag) == 0:
        return np.empty(0), np.empty((0, 0))
    return eigh_tridiagonal(diag, off)


def _symmetric_eigensolve(v: np.ndarray, keep: int | None,
                          edge_tol: float | None
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Parity-sector eigensolve of a symmetric grid ``-Y..Y``.

    Returns the interleaved energies and full-grid wavefunctions (rows)
    of the leading states that decay at the edges, at most `keep`.
    """
    y = (len(v) - 1) // 2
    half = v[y:]                          # V(0), V(1), ..., V(Y)
    even_off = -J * np.ones(y)
    even_off[:1] *= _ROOT2
    even_lo = np.zeros(y)
    even_lo[:1] = -J * _ROOT2_LO
    odd_off = -J * np.ones(max(y - 1, 0))
    odd_lo = np.zeros_like(odd_off)
    e_even, u_even = _sector_solve(half, even_off)
    e_odd, u_odd = _sector_solve(half[1:], odd_off)

    # interlacing: e0 < o0 < e1 < o1 < ...; keep the leading run of
    # states that decay at the edges (edge amplitude |u_Y| / sqrt 2)
    n_total = len(e_even) + len(e_odd)
    n_keep = n_total if keep is None else min(keep, n_total)
    if edge_tol is not None:
        edge = np.empty(n_total)
        edge[0::2] = np.abs(u_even[-1]) / _ROOT2
        edge[1::2] = np.abs(u_odd[-1]) / _ROOT2
        n_keep = _decaying_run(edge[:n_keep], edge_tol)
    n_even, n_odd = (n_keep + 1) // 2, n_keep // 2

    u_even, u_odd = u_even[:, :n_even], u_odd[:, :n_odd]
    energies = np.empty(n_keep)
    energies[0::2] = _rayleigh_refine(half, even_off, even_lo,
                                      e_even[:n_even], u_even)
    energies[1::2] = _rayleigh_refine(half[1:], odd_off, odd_lo,
                                      e_odd[:n_odd], u_odd)

    vectors = np.zeros((n_keep, len(v)))
    wing = u_even[1:].T / _ROOT2
    vectors[0::2, y] = u_even[0]
    vectors[0::2, y + 1:] = wing
    vectors[0::2, :y] = wing[:, ::-1]
    wing = u_odd.T / _ROOT2
    vectors[1::2, y + 1:] = wing
    vectors[1::2, :y] = -wing[:, ::-1]
    return energies, vectors


def _grid_eigensolve(grid: np.ndarray, v: np.ndarray, n_states: int | None,
                     edge_tol: float | None, ceiling: float = math.inf
                     ) -> TransverseSpectrum:
    """The lowest `n_states` eigenpairs of ``H_y`` on `grid` below
    `ceiling` (all of them for ``None``).  On a truncated grid only the
    leading run whose edge amplitude is below `edge_tol` counts; too few
    (or none) is an :class:`EdgeLeak`.  ``edge_tol=None`` declares the
    grid the trap's whole space: every eigenpair is exact, and too few
    is a :class:`ConfigError`."""
    symmetric = mirror_symmetric(grid, v)
    if symmetric:
        energies, vectors = _symmetric_eigensolve(v, n_states, edge_tol)
        parities = tuple("even" if n % 2 == 0 else "odd"
                         for n in range(len(energies)))
    else:
        energies, vectors = eigh_tridiagonal(v, -J * np.ones(len(grid) - 1))
        vectors = vectors.T
        if edge_tol is not None:
            edge = np.maximum(np.abs(vectors[:, 0]), np.abs(vectors[:, -1]))
            n_ok = _decaying_run(edge, edge_tol)
            energies, vectors = energies[:n_ok], vectors[:n_ok]
        parities = ("none",) * len(energies)
    n_held = int(np.count_nonzero(energies < ceiling))
    n_keep = n_held if n_states is None else n_states
    if n_held < max(n_keep, 1):
        if edge_tol is None:
            raise ConfigError(f"trap holds only {n_held} states")
        raise EdgeLeak(
            f"only {n_held} states decay at the grid edge; "
            f"{n_keep} requested (half-width {int(grid[-1])} too small)"
        )
    energies, vectors = energies[:n_keep], vectors[:n_keep]
    drops = np.flatnonzero(np.diff(energies) < 0.0)
    if len(drops):
        n = int(drops[0])
        raise UnorderedSpectrum(
            f"transverse energy {n + 1} ({energies[n + 1]!r}) lies below "
            f"energy {n} ({energies[n]!r})")
    return TransverseSpectrum(energies=energies, wavefunctions=_fix_gauge(vectors),
                              parities=parities[:n_keep], grid=grid,
                              symmetric=symmetric)


def _grid_problems(spec: TrapSpec, n_states: int | None
                   ) -> Iterator[tuple[np.ndarray, np.ndarray, float | None,
                                       float]]:
    """The arguments ``(grid, V, edge_tol, ceiling)`` of
    :func:`_grid_eigensolve` for `spec`, smallest grid first.

    A finite trap is its own whole grid; a harmonic trap with a set
    half-width has one grid.  An auto-sized harmonic grid doubles its
    half-width from 40.  A continuum well doubles it from 20 sites
    beyond its range, keeps the states below the band, and skips the
    boxes too small to hold `n_states` (at least one) of them.  Running
    out of grids raises.
    """
    if isinstance(spec, TwoSite) or (isinstance(spec, Tabulated)
                                     and spec.asymptote is None):
        yield *potential_on_grid(spec, 0), None, math.inf
    elif isinstance(spec, Harmonic) and spec.y_max is not None:
        yield *potential_on_grid(spec, spec.y_max), DEFAULT_EDGE_TOL, math.inf
    elif isinstance(spec, Harmonic):
        y_max = 40
        while y_max <= _MAX_AUTO_Y:
            yield *potential_on_grid(spec, y_max), DEFAULT_EDGE_TOL, math.inf
            y_max *= 2
        raise ConfigError(
            f"auto grid sizing exceeded half-width {_MAX_AUTO_Y} "
            f"for {n_states} states"
        )
    elif isinstance(spec, Tabulated):
        ceiling = spec.asymptote - 2.0 * J - 1e-12  # just below the band
        range_max = int(max(abs(spec.grid[0]), abs(spec.grid[-1])))
        y_max = max(range_max + 20, 40)
        n_wanted = n_max = n_states if n_states is not None else 1
        while n_max >= n_wanted and y_max <= _MAX_AUTO_Y:
            grid, v = potential_on_grid(spec, y_max)
            # levels below the band of the hard-wall box bound the well's
            # from above; cutting the end bonds and lowering the end sites
            # by J bounds H from below by a box whose count below the band
            # caps the bound states (the cut-off half-chains start at it)
            n_box, n_max = (len(eigvalsh_tridiagonal(
                d, -J * np.ones(len(v) - 1), select="v",
                select_range=(-np.inf, ceiling)))
                for d in (v, v - J * (np.abs(grid) == y_max)))
            if n_box >= n_wanted:
                yield grid, v, DEFAULT_EDGE_TOL, ceiling
            y_max *= 2
        raise EdgeLeak(
            f"{n_wanted} bound states requested below the transverse band "
            f"bottom; the well holds at most {n_max}, and fewer decay at "
            f"the edges up to half-width {y_max // 2}")
    else:
        raise ConfigError(f"unknown trap spec {type(spec).__name__}")


def solve_transverse(spec: TrapSpec, n_states: int | None = None
                     ) -> TransverseSpectrum:
    """Diagonalize the transverse trap Hamiltonian.

    Parameters
    ----------
    spec : TrapSpec
        The trap.  For :class:`DeltaWell` only the single bound state is
        returned, and for a :class:`Tabulated` well with an asymptote
        only its states below the band bottom (continuum states are
        handled in :mod:`q1dscatter.continuum`).
    n_states : int, optional
        Number of bound states to return.  For traps on an auto-sized
        grid the half-width grows until this many states decay at the
        edges (edge amplitude below ``DEFAULT_EDGE_TOL``).  ``None``
        keeps a trap-dependent default (everything for finite traps).

    Returns
    -------
    TransverseSpectrum
        ``symmetric`` is :func:`mirror_symmetric` of the solved grid.

    Raises
    ------
    ConfigError
        If a finite trap holds fewer than `n_states` states.
    EdgeLeak
        If an explicit grid cannot hold the requested states, or a
        continuum-supporting well binds fewer than requested.
    """
    if isinstance(spec, DeltaWell):
        if n_states is not None and n_states != 1:
            raise ConfigError(
                "the delta well has a single bound state; its continuum is "
                "handled by the continuum module"
            )
        beta = spec.decay
        y_max = spec.y_max
        if y_max is None:
            y_max = max(4, math.ceil(math.log(DEFAULT_EDGE_TOL)
                                     / math.log(beta)))
            while beta ** y_max >= DEFAULT_EDGE_TOL:
                y_max += 1
        if beta ** y_max >= DEFAULT_EDGE_TOL:
            raise EdgeLeak(
                f"bound state decays as {beta:.4g}**|y|; half-width {y_max} "
                f"leaves edge weight above {DEFAULT_EDGE_TOL:g}"
            )
        grid = np.arange(-y_max, y_max + 1)
        psi = beta ** np.abs(grid).astype(float)
        psi /= math.sqrt(float(psi @ psi))
        return TransverseSpectrum(energies=np.array([spec.bound_energy]),
                                  wavefunctions=psi[None, :],
                                  parities=("even",), grid=grid, symmetric=True)

    if isinstance(spec, Harmonic) and n_states is None:
        n_states = _DEFAULT_N_STATES
    leak = None
    for grid, v, edge_tol, ceiling in _grid_problems(spec, n_states):
        try:
            return _grid_eigensolve(grid, v, n_states, edge_tol, ceiling)
        except EdgeLeak as err:
            # the next, larger grid may hold the states.  Kept without its
            # traceback: that would hold this frame, and through it every
            # caller's locals, in a cycle until the cyclic collector runs
            leak = err.with_traceback(None)
    raise leak  # a single fixed grid; auto grids raise on running out


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
    """Decay factor of a closed channel at the scattering energy.

    Solves ``alpha**2 - g*alpha + 1 = 0`` with
    ``g = (channel_energy - target_energy)/j_eff`` on the ``|alpha| < 1``
    branch, ``alpha = (g - sqrt(g^2 - 4))/2``.

    Raises
    ------
    OpenChannel
        If ``g <= 2``: the channel is open (or marginal) at the target
        energy and the quasi-1D ansatz breaks down.
    """
    _check_hopping(j_eff)
    g = (channel_energy - target_energy) / j_eff
    if g <= 2.0:
        raise _open_channel(channel_energy, target_energy, g)
    alpha = 2.0 / (g + math.sqrt(g * g - 4.0))
    denominator = target_energy + 2.0 * j_eff * alpha - channel_energy
    return AlphaValue(alpha=alpha, denominator=denominator)


def closed_channels(channel_energies, energy, j_eff: float = J
                    ) -> tuple[np.ndarray, np.ndarray]:
    """:func:`alpha_closed` over arrays: the decay factors and
    denominators of many closed channels in one pass, elementwise
    bit-identical to the scalar form.

    `channel_energies` and `energy` broadcast against each other; a
    column of energies against a row of channels gives one row per
    energy.

    Raises
    ------
    OpenChannel
        For the first open (or marginal) entry in row-major order, with
        the message :func:`alpha_closed` gives for that entry.
    """
    _check_hopping(j_eff)
    g = (channel_energies - energy) / j_eff
    open_ = np.flatnonzero(~(g > 2.0))
    if open_.size:
        first = np.unravel_index(open_[0], g.shape)
        raise _open_channel(np.broadcast_to(channel_energies, g.shape)[first],
                            np.broadcast_to(energy, g.shape)[first], g[first])
    alphas = 2.0 / (g + np.sqrt(g * g - 4.0))
    return alphas, energy + 2.0 * j_eff * alphas - channel_energies


def _check_hopping(j_eff: float) -> None:
    if not j_eff > 0.0:
        raise ConfigError(f"j_eff must be positive, got {j_eff}")


def _open_channel(channel_energy: float, target_energy: float,
                  g: float) -> OpenChannel:
    return OpenChannel(
        f"channel at energy {channel_energy:.6g} is open at target "
        f"energy {target_energy:.6g}: gap ratio g = {g:.6g} <= 2")
