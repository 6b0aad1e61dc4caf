"""Genuine two-particle quasi-1D scattering.

Two particles with an on-site contact coupling ``U`` move on the 2D
lattice; the transverse trap makes center-of-mass and relative motion
non-separable, so scattering couples the entrance channel (both
particles in the transverse ground state) to every closed *pair* of
transverse excitations.  At total longitudinal quasi-momentum ``K`` the
pair hops collectively with rate ``J_K = 2 J cos(K/2)`` and the closed
pair channel ``(n1, n2)`` decays along the relative coordinate with
factor ``alpha_{n1,n2}`` fixed by the channel gap.

The contact coupling acts only on the collision diagonal
``y1 = y2 = y``.  Channel ``b`` enters through its symmetrized pair
function on that diagonal, the row ``S[b, y]`` (``psi_n(y)^2`` for
equal indices, ``sqrt(2) psi_{n1} psi_{n2}`` for distinct ones — the
orthonormal two-boson convention).  In channel space the amplitudes
solve

    I = v + U M I,      M[a, b] = R[a, b] / D_b,      R = S S^T,

with ``v = S psi_0^2`` the entrance column and
``D_b = E + 2 J_K alpha_b - E_b < 0`` the closed-channel denominators,
and the entrance amplitude is

    I00(U) = R(00;00) + U sum_b (v_b / D_b) I_b.

``R`` has rank at most ``n_y``, the number of collision sites, while
the channel count grows as ``n_states^2 / 4``.  In a mirror-symmetric
trap the contact conserves the pair's transverse parity: only even
pairs couple to the entrance, every row ``S[b, y]`` is even in ``y``,
and the rows are kept on the sites ``y >= 0`` alone, with weight
``sqrt(2)`` on ``y > 0``.  That fold keeps every inner product over
``y``, so ``n_y = (Y + 1) / 2`` of a ``Y``-site mirror grid; any other
grid keeps all ``Y`` sites with weight 1.  Every channel vector in the
system lies in the range of ``S``, ``I = S phi``, which turns it into
the ``n_y``-sized problem

    (1 + U H) phi = psi_0^2,     H = S^T |D|^{-1} S,

with ``H`` the closed-channel pair Green's function on the collision
diagonal (symmetric positive semi-definite).  Writing
``phi = psi_0^2 + U g`` with ``(1 + U H) g = -H psi_0^2`` gives

    I00(U) = R(00;00) + U psi_0^2 . g,      I = S (psi_0^2 + U g),

and the Born series has terms ``U^m psi_0^2 . (-H)^m psi_0^2``.  The
effective 1D coupling is ``U1D = U * I00`` and the scattering length
``a = -2 J_K / U1D``.  A kernel stores the channels, ``psi_0^2``, the
``D_b`` and ``H``, but not ``S`` (``8 n_channels n_y`` bytes): ``S`` is
formed a fixed block of channels at a time, and each block is added
into ``H`` (or multiplied into ``I``) before the next is formed.  The
channel-space ``R`` (``8 n_channels^2`` bytes) is never formed either.
Because ``U`` enters linearly, ``I00`` is a
rational function of ``U`` with poles at the confinement-induced
resonances.  One eigendecomposition ``H = V diag(mu) V^T`` per kernel
(whose nonzero spectrum equals that of the channel form
``|D|^{-1/2} R |D|^{-1/2}``) serves every solve at every coupling:
with ``p = V^T psi_0^2``,

    g = -V (mu p / (1 + U mu)),
    I00(U) = R(00;00) - U sum_j c_j^2 / (1 + U mu_j),   c_j^2 = mu_j p_j^2,

so resonances sit at ``U_j = -1/mu_j`` with ``U1D`` residue
``U_j^3 c_j^2``; the dimensionless strength ``c_j^2 |U_j| / R(00;00)``
is 1 for an ideal isolated pole and is used to separate physically
visible resonances from the dense background of negligible ones.

Zero crossings are eigenvalues too.  In ``v = -1/U`` the entrance
amplitude reads ``I00 = R(00;00) + sum_j c_j^2 / (v - mu_j)``, a
rank-one secular equation (Golub, SIAM Rev. 15, 318 (1973)) whose roots
are the eigenvalues ``lambda`` of ``Q H Q``, with ``Q = 1 - w w^T``,
``w = psi_0^2 / sqrt(R(00;00))``, projecting out the entrance row:
``U1D`` changes sign at ``U = -1/lambda``, at most once between
consecutive poles.  With ``h = H w``, ``Q H Q`` is the rank-two update
``H - w h^T - h w^T + (w^T h) w w^T`` of ``H``.  An eigenvector of
``H`` that does not overlap the entrance row (``p_j = 0``) is left
unchanged by ``Q`` and puts a zero on its own pole, where the two
cancel; such a zero, within ``_ZERO_POLE_CANCELLATION`` of a pole, is
not reported.  Each pole cancels at most one zero, closest pairs first,
so a genuine sign change next to a zero-weight pole is kept.

At relative quasi-momentum ``k`` the pair scatters at
``E_k = -2 J_K cos k + 2 E_0`` and the entrance term carries the factor
``sqrt(1 - (U x / s)^2)``, ``s = 2 J_K sin k``: the entrance amplitude
``x`` solves ``x = sqrt(1 - (U x / s)^2) I00(E_k)`` with ``I00(E_k)``
the linear amplitude above, evaluated at ``E_k``.  In ``t = U x / s``
this reads ``t = t0 sqrt(1 - t^2)``, ``t0 = U I00(E_k) / s``, whose one
root ``t = t0 / sqrt(1 + t0^2)`` gives

    U1D = U I00(E_k),   tan(delta_k) = -U1D / s,   x = cos(delta_k) I00(E_k),

with ``|sin(delta_k)| = |t| < 1`` always.  A finite-``k`` sweep is thus
the same partial-fraction pass as a zero-momentum one, on the kernel
that the one constructor, :func:`build_kernel`, assembles at ``(K, k)``.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import (ConfigError, Diverging, SignConventionViolation,
                     SingularSystem, require_finite)
from .single_particle import phase_shift, scattering_length, u_cir_complete
from .traps import (J, TransverseSpectrum, TrapSpec, _leading_states,
                    closed_channels)

#: Resonances with normalized pole strength (``width``) at or below this
#: are reported as invisible.  The floor is absolute, not a physical
#: scale: the sharp family of a harmonic trap narrows as omega falls and
#: crosses it between omega = 1e-4 and 3e-5, below which one visible CIR
#: is left.
VISIBILITY_FLOOR = 1e-5
#: Normalized pole strength separating broad from sharp resonances.
BROAD_THRESHOLD = 0.05

_SINGULAR_PROXIMITY = 1e-12
#: A zero of ``I00`` within ``_ZERO_POLE_CANCELLATION * max(1, |U_j|)`` of
#: a pole ``U_j`` in the window cancels against it and is not reported
#: (one zero per pole): an eigenvector of ``H`` with no entrance overlap
#: keeps its eigenvalue in ``Q H Q`` up to round-off (``eps max(mu) /
#: mu_j`` relative).
_ZERO_POLE_CANCELLATION = 1e-9
_LADDER_STEP, _LADDER_REL_TOL = 20, 1e-6
#: Channels per block of pair rows: a 1,024 x 161 block is 1.3 MB, so
#: each block stays in cache between its forming and its product.
_BLOCK_CHANNELS = 1024


def pair_hopping(total_momentum: float = 0.0) -> float:
    """Collective hopping rate ``J_K = 2 J cos(K/2)`` of the pair.

    Positive for ``|K| < pi``; the channel reduction needs ``J_K > 0``.
    """
    if not abs(total_momentum) < math.pi:
        raise ConfigError(
            f"total quasi-momentum must satisfy |K| < pi (J_K -> 0 "
            f"freezes the collective motion), got K={total_momentum}")
    return 2.0 * J * math.cos(0.5 * total_momentum)


# ndarray fields: compared by identity, hashed by id
@dataclass(frozen=True, eq=False)
class OverlapKernel:
    """The two-body problem at one ``(K, k)`` point, at the pair
    scattering energy ``energy = E_k``, held on the collision diagonal.

    Stored: ``pairs[b] = (n1, n2)`` of each kept channel (``n1 <= n2``;
    row-major, or row-major per added shell of states in a kernel the
    resonance ladder grew) and its energy ``channel_energies[b]``, the
    entrance row ``psi_0(y)^2``, the closed-channel denominators
    ``denominators`` at `energy`, the ``n_y x n_y`` pair Green's
    function ``green = H = S^T |D|^{-1} S`` (exactly symmetric; set on
    construction, in a grown kernel as the previous ``H`` plus the new
    shells' terms) and ``r_entrance = R(0,0; 0,0) = sum_y psi_0(y)^4``.
    The pair rows ``S[b, y]`` are not stored: they follow from
    `spectrum` and `pairs`, and are formed a block of channels at a
    time where ``H`` or the channel amplitudes need them.  Rows hold
    the ``n_y`` collision sites (module docstring): on a mirror grid the
    sites ``y >= 0``, where ``S`` and `entrance_row` carry the weight
    ``sqrt(2)`` on ``y > 0``; on any other grid every site.

    Derived lazily: the spectral form of ``H``, on which every solver
    runs.
    """

    pairs: np.ndarray
    channel_energies: np.ndarray
    entrance_row: np.ndarray
    denominators: np.ndarray
    green: np.ndarray
    r_entrance: float
    j_k: float
    total_momentum: float
    energy: float
    spectrum: TransverseSpectrum

    @property
    def n_channels(self) -> int:
        return len(self.pairs)

    @property
    def collision_sites(self) -> int:
        """``n_y``: the size of every matrix the solvers factor, the
        ``(Y + 1) / 2`` sites ``y >= 0`` of a ``Y``-site mirror grid and
        every site of any other."""
        return len(self.entrance_row)

    @cached_property
    def _spectral(self) -> tuple[np.ndarray, ...]:
        """Eigenvalues ``mu_j`` of :attr:`green`, pole weights ``c_j^2``,
        eigenvectors ``V`` and entrance projections ``p = V^T psi_0^2``
        (see module docstring)."""
        mu, v = np.linalg.eigh(self.green)
        proj = v.T @ self.entrance_row
        return mu, mu * proj * proj, v, proj

    @property
    def numerical_rank(self) -> int:
        """Eigenvalues of :attr:`green` above ``n_y eps max(mu)``, with
        ``n_y`` the :attr:`collision_sites`."""
        mu = self._spectral[0]
        tol = mu.max(initial=0.0) * mu.size * np.finfo(float).eps
        return int(np.count_nonzero(mu > tol))

    @property
    def min_abs_denominator(self) -> float:
        """Smallest ``|D_b|``: the closest any channel comes to opening."""
        return float(-self.denominators.max(initial=-math.inf))

    def entrance_amplitude(self, u) -> np.ndarray | float:
        """``I00(U) = R(00;00) - U sum_j c_j^2 / (1 + U mu_j)``, the
        partial-fraction form; vectorized in `u`; infinities mark
        resonances."""
        mu, c2 = self._spectral[:2]
        u_arr = np.asarray(u, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.multiply.outer(u_arr, mu)  # in place: one temporary
            terms += 1.0
            np.divide(c2, terms, out=terms)
            i00 = self.r_entrance - u_arr * terms.sum(axis=-1)
        return i00 if u_arr.shape else float(i00)

    def poles(self, u_window: tuple[float, float]
              ) -> tuple[np.ndarray, np.ndarray]:
        """The resonance couplings ``U_j = -1/mu_j`` inside the closed
        `u_window`, ascending (ties in eigenvalue order), and each
        pole's weight ``c_j^2``."""
        u_lo, u_hi = u_window
        if not u_lo < u_hi:
            raise ConfigError(f"empty coupling window {u_window}")
        mu, c2 = self._spectral[:2]
        with np.errstate(divide="ignore"):
            u_poles = -1.0 / mu
        inside = np.flatnonzero((mu != 0.0) & (u_lo <= u_poles)
                                & (u_poles <= u_hi))
        inside = inside[np.argsort(u_poles[inside], kind="stable")]
        return u_poles[inside], c2[inside]

    def pole_proximity(self, u_values) -> float:
        """Smallest ``|1 + U mu_j|`` over the couplings `u_values` (a
        scalar or a sequence): how close they come to a pole, 0 on one.

        Raises
        ------
        SingularSystem
            At the first coupling that sits numerically on a pole.
        """
        u_arr = np.atleast_1d(np.asarray(u_values, dtype=float))
        prox = np.abs(1.0 + np.multiply.outer(u_arr, self._spectral[0])
                      ).min(axis=-1)
        bad = np.flatnonzero(prox < _SINGULAR_PROXIMITY)
        if bad.size:
            raise SingularSystem(
                f"coupling U={u_arr[bad[0]]:g} sits on a confinement-"
                f"induced resonance pole (|1 + U mu| = {prox[bad[0]]:.3g})")
        return float(prox.min())

    def at_relative_momentum(self, k: float) -> "OverlapKernel":
        """The kernel of the same spectrum and ``K`` at relative
        quasi-momentum `k` in ``(0, pi)`` (:func:`build_kernel`); a
        kernel already at its energy is returned as is, with its ``H``
        and spectral form."""
        if not 0.0 < k < math.pi:
            raise ConfigError(f"quasi-momentum must lie in (0, pi), got {k}")
        if _pair_energy(self.spectrum, self.j_k, k) == self.energy:
            return self
        return build_kernel(self.spectrum, self.total_momentum, k)


# ndarray fields: compared by identity, hashed by id
@dataclass(frozen=True, eq=False)
class TwoBodyResult:
    """Scattering output at one coupling.

    ``a`` is set for zero-momentum solves, ``delta_k`` for finite-``k``
    ones; ``i_vector`` holds the closed-channel amplitudes in kernel
    channel order.  At zero momentum the entrance amplitude satisfies
    ``i00 = U1D / U`` and ``a = -2 J_K / U1D``; at finite ``k`` it
    carries the amplitude factor, ``i00 = cos(delta_k) U1D / U``.
    """

    u: float
    k: float | None
    u1d: float
    a: float | None
    delta_k: float | None
    i00: float
    i_vector: np.ndarray


@dataclass(frozen=True)
class BornResult:
    """Born-series evaluation of the entrance amplitude.

    ``partial_sums[m]`` is ``I00`` truncated at order ``m + 1``;
    ``converged`` reports the ratio test at the final order.
    """

    u: float
    order: int
    i00: float
    u1d: float
    a: float
    partial_sums: tuple[float, ...]
    converged: bool


@dataclass(frozen=True)
class Resonance:
    """One pole of the effective coupling.

    ``width`` is the dimensionless pole strength
    ``c^2 |U_pole| / R(00;00)`` (1 for an ideal isolated pole);
    ``residue`` is the residue of ``U1D(U)`` at the pole.
    """

    u: float
    width: float
    residue: float
    kind: str
    visible: bool


@dataclass(frozen=True)
class ResonanceReport:
    """All resonances and zero crossings in a coupling window.

    ``collision_sites``, ``numerical_rank`` and ``min_abs_denominator``
    describe the kernel the report was computed from (see
    :class:`OverlapKernel`).  ``rungs`` is set by
    :func:`converged_resonances`: the basis size of each rung it
    solved.
    """

    resonances: tuple[Resonance, ...]
    zero_crossings: tuple[float, ...]
    window: tuple[float, float]
    n_states: int
    n_channels: int
    collision_sites: int
    numerical_rank: int
    min_abs_denominator: float
    converged: bool | None = None
    rungs: tuple[int, ...] = ()

    @property
    def visible_resonances(self) -> tuple[Resonance, ...]:
        return tuple(r for r in self.resonances if r.visible)


def _closed_channels(pairs: np.ndarray, channel_energies: np.ndarray,
                     energy: float, j_k: float) -> np.ndarray:
    """Denominators of all pair channels at `energy`
    (:func:`~q1dscatter.traps.closed_channels`).

    Raises
    ------
    OpenChannel
        If a channel is open (or marginal) at `energy`.
    SignConventionViolation
        If a closed-channel denominator fails to be negative.
    """
    denominators = closed_channels(channel_energies, energy, j_k)[1]
    bad = np.flatnonzero(~(denominators < 0.0))
    if bad.size:
        b = bad[0]
        n1, n2 = pairs[b]
        raise SignConventionViolation(
            f"closed-channel denominator of ({n1},{n2}) is "
            f"{denominators[b]:.6g} >= 0; the channel reduction is only "
            f"valid with negative denominators")
    return denominators


def _pair_energy(spectrum: TransverseSpectrum, j_k: float, k: float) -> float:
    """The pair scattering energy ``E_k = -2 J_K cos k + 2 E_0``."""
    return -2.0 * j_k * math.cos(k) + 2.0 * float(spectrum.energies[0])


def _pair_channels(spectrum: TransverseSpectrum, n_lo: int, n_cut: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The pair channels ``(n1, n2)``, ``n1 <= n2``, whose upper state
    ``n2`` lies in ``[n_lo, n_cut)``, row-major; ``n_lo >= 1`` leaves
    out the entrance ``(0, 0)``, and odd pairs of a symmetric trap are
    left out too.  Returns the pairs and their energies."""
    # the triangle n1 <= n2 cut to the columns n2 = n_lo .. n_cut - 1,
    # never masked whole: the new shells of a ladder rung are a few % of it
    n1, n2 = np.triu_indices(n_cut, -n_lo, n_cut - n_lo)
    n2 += n_lo
    if spectrum.symmetric:
        # odd pairs are exactly decoupled from the entrance
        keep = n1 % 2 == n2 % 2
        n1, n2 = n1[keep], n2[keep]
    pairs = np.column_stack((n1, n2))
    channel_energies = (spectrum.energies[pairs[:, 0]]
                        + spectrum.energies[pairs[:, 1]])
    return pairs, channel_energies


def _collision_sector(spectrum: TransverseSpectrum
                      ) -> tuple[np.ndarray, np.ndarray]:
    """The sites of the collision diagonal that every kept pair row
    lives on, as the wavefunction columns there and the weight each
    site's row entry carries.  On a mirror grid every kept row is even
    in ``y``: the sites ``y >= 0`` hold it, with weight ``sqrt(2)`` on
    ``y > 0`` (the fold of the even transverse sector), which keeps
    every inner product over ``y``.  Any other grid is one sector of
    weight 1."""
    psi = spectrum.wavefunctions
    if not spectrum.symmetric:
        return psi, np.ones(psi.shape[1])
    origin = spectrum.origin_index
    weight = np.full(psi.shape[1] - origin, math.sqrt(2.0))
    weight[0] = 1.0
    return psi[:, origin:], weight


def _pair_row_blocks(spectrum: TransverseSpectrum, pairs: np.ndarray
                     ) -> Iterator[tuple[slice, np.ndarray]]:
    """The pair rows ``S[b, y]`` of `pairs` on the collision sector
    (:func:`_collision_sector`), ``_BLOCK_CHANNELS`` channels at a time:
    yields each block's channel slice and its rows.  The only place
    ``S`` is formed.  Every block is written into the same buffer, so a
    caller uses (or scales in place) each block before it asks for the
    next, and never holds more than one block of ``S``."""
    psi, weight = _collision_sector(spectrum)
    psi = np.ascontiguousarray(psi)
    buffers = np.empty((2, min(len(pairs), _BLOCK_CHANNELS), psi.shape[1]))
    for lo in range(0, len(pairs), _BLOCK_CHANNELS):
        n1, n2 = pairs[lo:lo + _BLOCK_CHANNELS].T
        rows, other = buffers[:, :len(n1)]
        # mode="clip" writes straight into `out`; "raise" would buffer
        np.take(psi, n1, axis=0, out=rows, mode="clip")
        np.take(psi, n2, axis=0, out=other, mode="clip")
        rows *= other
        rows *= np.where(n1 != n2, math.sqrt(2.0), 1.0)[:, None]
        rows *= weight
        yield slice(lo, lo + len(n1)), rows


def _add_green(green: np.ndarray, spectrum: TransverseSpectrum,
               pairs: np.ndarray, denominators: np.ndarray) -> np.ndarray:
    """`green` plus ``S^T |D|^{-1} S`` over the channels `pairs`, added
    in place one block of rows at a time; each block's term is exactly
    symmetric, so a symmetric `green` stays so."""
    for block, rows in _pair_row_blocks(spectrum, pairs):
        rows *= (1.0 / np.sqrt(-denominators[block]))[:, None]
        green += rows.T @ rows
    return green


def build_kernel(spectrum: TransverseSpectrum, total_momentum: float = 0.0,
                 k: float = 0.0) -> OverlapKernel:
    """Assemble the two-body kernel on the collision diagonal, at the
    pair scattering energy ``E_k = -2 J_K cos k + 2 E_0``; the one
    constructor of a kernel at any ``(K, k)``.

    Parameters
    ----------
    spectrum : TransverseSpectrum
        Single-particle transverse states; every state builds the pair
        channels, so the basis size is ``spectrum.n_states``.
    total_momentum : float
        Conserved total quasi-momentum ``K``, ``|K| < pi``.
    k : float
        Relative quasi-momentum in ``[0, pi)``; 0 (the default) is the
        scattering threshold ``-2 J_K + 2 E_0``.

    Raises
    ------
    ConfigError
        If `k` or `total_momentum` is out of its range.
    OpenChannel
        If any retained pair channel is open at that energy.
    SignConventionViolation
        If a closed-channel denominator fails to be negative.
    """
    if not 0.0 <= k < math.pi:
        raise ConfigError(
            f"relative quasi-momentum must lie in [0, pi), got {k}")
    j_k = pair_hopping(total_momentum)
    energy = _pair_energy(spectrum, j_k, k)

    pairs, channel_energies = _pair_channels(spectrum, 1, spectrum.n_states)
    denominators = _closed_channels(pairs, channel_energies, energy, j_k)
    # the entrance pair (0, 0) is one block of one row
    (_, entrance), = _pair_row_blocks(spectrum, np.zeros((1, 2), dtype=int))
    entrance_row = entrance[0]
    n_y = len(entrance_row)
    return OverlapKernel(
        pairs=pairs, channel_energies=channel_energies,
        entrance_row=entrance_row, denominators=denominators,
        green=_add_green(np.zeros((n_y, n_y)), spectrum, pairs,
                         denominators),
        r_entrance=float(entrance_row @ entrance_row), j_k=j_k,
        total_momentum=total_momentum, energy=energy, spectrum=spectrum)


def _grow(kernel: OverlapKernel, spectrum: TransverseSpectrum
          ) -> OverlapKernel:
    """`kernel` with the channels of the states ``kernel.spectrum.n_states``
    to ``spectrum.n_states - 1`` appended, at the same ``(K, E)``:
    ``H = H_prev + S_new^T |D_new|^{-1} S_new``.  ``kernel.spectrum``
    must be the leading states of `spectrum`, as the rungs of one
    basis are (:func:`converged_resonances`)."""
    pairs, channel_energies = _pair_channels(
        spectrum, kernel.spectrum.n_states, spectrum.n_states)
    denominators = _closed_channels(pairs, channel_energies, kernel.energy,
                                    kernel.j_k)
    green = _add_green(kernel.green.copy(), spectrum, pairs, denominators)
    return replace(
        kernel, pairs=np.concatenate((kernel.pairs, pairs)),
        channel_energies=np.concatenate((kernel.channel_energies,
                                         channel_energies)),
        denominators=np.concatenate((kernel.denominators, denominators)),
        green=green, spectrum=spectrum)


def solve_scattering_length(kernel: OverlapKernel, u: float) -> TwoBodyResult:
    """Zero-momentum two-body scattering at coupling `u`.

    Evaluates the kernel's eigendecomposition of ``H`` at `u`:
    ``I = S (psi_0^2 + U g)`` with ``g = -V (mu p / (1 + U mu))``,
    ``I00`` from the partial-fraction form, ``U1D = U * I00`` and
    ``a = -2 J_K / U1D``.

    Raises
    ------
    ConfigError
        If `u` is NaN or infinite.
    SingularSystem
        If `u` sits numerically on a resonance pole.
    """
    require_finite("u", u)
    kernel.pole_proximity(u)
    mu, _, v, proj = kernel._spectral
    g = -(v @ (mu * proj / (1.0 + u * mu)))
    phi = kernel.entrance_row + u * g
    i_vec = np.empty(kernel.n_channels)
    for block, rows in _pair_row_blocks(kernel.spectrum, kernel.pairs):
        i_vec[block] = rows @ phi
    i00 = kernel.entrance_amplitude(u)
    u1d = u * i00
    a = scattering_length(u1d, kernel.j_k)
    return TwoBodyResult(u=u, k=None, u1d=u1d, a=a, delta_k=None,
                         i00=i00, i_vector=i_vec)


def u1d_curve(kernel: OverlapKernel, u_values) -> np.ndarray:
    """Effective coupling ``U1D(U)`` on an array of couplings.

    Uses the partial-fraction form (one eigendecomposition, then O(n)
    per coupling), as :func:`solve_scattering_length` does.
    """
    u_arr = np.asarray(u_values, dtype=float)
    require_finite("u_values", u_arr)
    return u_arr * kernel.entrance_amplitude(u_arr)


def born_series(kernel: OverlapKernel, u: float, order: int) -> BornResult:
    """Born series of the entrance amplitude, truncated at `order`.

    Order 1 is the bare overlap ``R(00;00)``; order ``m + 1`` adds the
    term ``U^m psi_0^2 . (-H)^m psi_0^2 = sum_j p_j^2 (-U mu_j)^m``
    (``m`` channel round trips) from the kernel's spectral form.  Both
    the sum and the radius run over the eigenvectors the entrance row
    reaches, ``p_j^2 > eps R(00;00)``: a weight below that is the
    round-off of an exact zero (a sector of ``H`` the contact never
    couples to the entrance, such as the odd pairs of a shifted mirror
    table), and its pole is not a pole of ``I00``.

    Raises
    ------
    Diverging
        If ``|U| max mu >= 1`` over those eigenvalues: the coupling lies
        on or beyond the convergence radius set by the nearest pole
        ``-1/max mu``.
    """
    if order < 1:
        raise ConfigError(f"Born order must be >= 1, got {order}")
    require_finite("u", u)
    mu, _, _, proj = kernel._spectral
    weight = proj * proj
    reached = weight > np.finfo(float).eps * kernel.r_entrance
    mu, weight = mu[reached], weight[reached]
    ratio = abs(u) * mu.max(initial=0.0)
    if ratio >= 1.0:
        raise Diverging(f"|U| max mu = {ratio:.6g} >= 1 at U={u:g}: |U| "
                        f"reaches the first resonance coupling")
    powers = np.cumprod(np.broadcast_to(-u * mu, (order - 1, mu.size)),
                        axis=0)
    partials = np.cumsum(np.concatenate(([kernel.r_entrance],
                                         powers @ weight))).tolist()
    converged = True
    if len(partials) >= 2:
        last = abs(partials[-1] - partials[-2])
        before = abs(partials[-2] - partials[-3]) if len(partials) >= 3 \
            else math.inf
        converged = last < before or last == 0.0
    i00 = partials[-1]
    u1d = u * i00
    a = scattering_length(u1d, kernel.j_k)
    return BornResult(u=u, order=order, i00=i00, u1d=u1d, a=a,
                      partial_sums=tuple(partials), converged=converged)


def solve_finite_k(kernel: OverlapKernel, u: float, k: float) -> TwoBodyResult:
    """Finite-momentum two-body scattering at relative quasi-momentum
    `k`, in closed form (see the module docstring):

        U1D = U I00(E_k),    delta_k = atan(-U1D / (2 J_K sin k)),
        i00 = cos(delta_k) I00(E_k),    I = cos(delta_k) I_lin,

    with ``I00(E_k)`` and ``I_lin`` the linear solution of
    ``kernel.at_relative_momentum(k)``.  A sweep over couplings at one
    `k` should pass ``build_kernel(spectrum, K, k)``, which that call
    returns as is, so that every point reuses one ``H`` and its
    eigendecomposition.

    Raises
    ------
    SingularSystem
        If `u` sits numerically on a resonance pole at ``E_k``.
    """
    linear = solve_scattering_length(kernel.at_relative_momentum(k), u)
    delta = phase_shift(linear.u1d, k, kernel.j_k)
    factor = math.cos(delta)
    return TwoBodyResult(u=u, k=k, u1d=linear.u1d, a=None, delta_k=delta,
                         i00=factor * linear.i00,
                         i_vector=factor * linear.i_vector)


def _resonances(kernel: OverlapKernel, u_window: tuple[float, float]
                ) -> tuple[Resonance, ...]:
    """The poles of ``U1D(U)`` in `u_window`, ascending, each with its
    residue, strength and class (see :func:`locate_resonances`)."""
    poles, weights = kernel.poles(u_window)
    resonances = []
    for u_pole, c2_j in zip(poles.tolist(), weights.tolist()):
        width = c2_j * abs(u_pole) / kernel.r_entrance
        kind = "broad" if width >= BROAD_THRESHOLD else "sharp"
        resonances.append(Resonance(u=u_pole, width=width,
                                    residue=u_pole ** 3 * c2_j, kind=kind,
                                    visible=width > VISIBILITY_FLOOR))
    return tuple(resonances)


def locate_resonances(kernel: OverlapKernel,
                      u_window: tuple[float, float] = (-30.0, 0.0)
                      ) -> ResonanceReport:
    """All poles and zero crossings of ``U1D(U)`` in a coupling window.

    Poles are exact reciprocal eigenvalues of the pair Green's function (no
    scanning); each carries its ``U1D`` residue and normalized strength,
    classified broad/sharp against :data:`BROAD_THRESHOLD` and flagged
    visible above :data:`VISIBILITY_FLOOR`.  Zero crossings of ``U1D``
    (the effective interaction changing sign between poles) are the
    couplings ``-1/lambda`` for the positive eigenvalues ``lambda`` of
    ``Q H Q``, ``Q = 1 - w w^T`` projecting out the unit entrance row
    ``w``; ``Q H Q`` is formed as a rank-two update of ``H`` in
    ``O(n_y^2)`` (see the module docstring).  A zero within
    ``1e-9 max(1, |U_j|)`` of a pole ``U_j`` in the window cancels
    against it and is not reported; each pole cancels at most one zero,
    closest pairs first.
    """
    resonances = _resonances(kernel, u_window)
    poles = np.array([r.u for r in resonances])
    u_lo, u_hi = u_window

    w = kernel.entrance_row / math.sqrt(kernel.r_entrance)
    h = kernel.green @ w
    # Q H Q = H - (w v^T + v w^T) with v = h - (w.h) w / 2; an outer
    # product plus its transpose keeps the update exactly symmetric
    v = h - 0.5 * float(w @ h) * w
    update = np.outer(w, v)
    lam = np.linalg.eigvalsh(kernel.green - (update + update.T))
    zeros = -1.0 / lam[lam > 0.0]
    zeros = zeros[(u_lo <= zeros) & (zeros <= u_hi)]
    crossings = np.sort(_uncancelled(zeros, poles))

    return ResonanceReport(
        resonances=resonances, zero_crossings=tuple(crossings.tolist()),
        window=(u_lo, u_hi), n_states=kernel.spectrum.n_states,
        n_channels=kernel.n_channels,
        collision_sites=kernel.collision_sites,
        numerical_rank=kernel.numerical_rank,
        min_abs_denominator=kernel.min_abs_denominator, converged=None)


def _uncancelled(zeros: np.ndarray, poles: np.ndarray) -> np.ndarray:
    """`zeros` without those that cancel against a pole: a zero within
    ``_ZERO_POLE_CANCELLATION * max(1, |U_j|)`` of a pole ``U_j``, each
    pole cancelling at most one zero, closest pairs first."""
    gap = np.abs(np.subtract.outer(zeros, poles))
    near_z, near_p = np.nonzero(
        gap <= _ZERO_POLE_CANCELLATION * np.maximum(1.0, np.abs(poles)))
    keep = np.ones(len(zeros), dtype=bool)
    free = np.ones(len(poles), dtype=bool)
    for i in np.argsort(gap[near_z, near_p], kind="stable"):
        z, p = near_z[i], near_p[i]
        if keep[z] and free[p]:
            keep[z] = free[p] = False
    return zeros[keep]


def converged_resonances(trap: TrapSpec, n_start: int,
                         total_momentum: float = 0.0,
                         u_window: tuple[float, float] = (-30.0, 0.0)
                         ) -> ResonanceReport:
    """Resonance report with the channel cutoff raised until the visible
    pole positions stabilize.

    The basis is the trap's complete grid basis, the one
    :func:`~q1dscatter.single_particle.u_cir_complete` sums: every state
    of a finite trap or of a harmonic trap's grid (a set half-width, or
    the auto-sized grid on which ``1/U_CIR`` settles).  Each rung is the
    lowest ``nc`` states of that basis, from `n_start` up by 20: the
    first rung builds its kernel, and each later rung grows the one
    before it by its new channels (:func:`_grow`).  The ladder stops
    where two consecutive rungs agree in visible-resonance count and
    positions (relative 1e-6), or at the first rung that holds the whole
    basis, which is exact.  Intermediate rungs compute poles only; the
    zero crossings are computed for the returned rung.  ``rungs`` in the
    report lists each rung's size.

    Raises
    ------
    ConfigError
        For a trap with a transverse continuum, which no grid basis
        completes.
    NoConvergence
        If an auto-sized grid does not settle (:func:`u_cir_complete`).
    """
    if n_start < 1:
        raise ConfigError(f"n_start must be positive, got {n_start}")
    basis = u_cir_complete(trap)[-1][0]
    kernel = None
    prev: tuple[Resonance, ...] | None = None
    rungs: list[int] = []
    for nc in itertools.count(n_start, _LADDER_STEP):
        spectrum = _leading_states(basis, nc)
        kernel = build_kernel(spectrum, total_momentum) if kernel is None \
            else _grow(kernel, spectrum)
        rungs.append(spectrum.n_states)
        found = _resonances(kernel, u_window)
        if spectrum.complete or (
                prev is not None and _positions_match(prev, found)):
            return replace(locate_resonances(kernel, u_window),
                           converged=True, rungs=tuple(rungs))
        prev = found


def _positions_match(a: tuple[Resonance, ...], b: tuple[Resonance, ...]
                     ) -> bool:
    ra = [r for r in a if r.visible]
    rb = [r for r in b if r.visible]
    if len(ra) != len(rb):
        return False
    return all(abs(x.u - y.u) <= _LADDER_REL_TOL * max(abs(x.u), abs(y.u))
               for x, y in zip(ra, rb))
