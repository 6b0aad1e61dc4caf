"""Single-particle scattering on a zero-range impurity in a trapped strip.

The particle moves on a 2D lattice, tightly trapped along ``y`` and free
along ``x`` except for a contact coupling ``U`` at the origin.  Virtual
excitation of closed transverse channels renormalizes the contact
coupling into an effective 1D strength ``U1D`` which diverges at the
confinement-induced resonance (CIR) coupling ``U_CIR``:

    1/U_CIR(k) = sum_{n >= 1} |psi_n(0)|^2 / (2 J alpha_n + E(k) - E_n)
    U1D(k)     = U |psi_0(0)|^2 / (1 - U / U_CIR(k))

with ``E(k) = -2 J cos k + E_0`` the entrance energy.  At ``k = 0`` the
scattering length follows from ``a = -2 J / U1D``; at finite ``k`` the
phase shift from ``tan(delta_k) = -U1D(k) / (2 J sin k)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AtResonance, ConfigError, TailTooLarge
from .traps import J, TransverseSpectrum, closed_channels

#: relative size below which the next even-parity channel term counts as spent
CHANNEL_REL_TOL = 1e-12
#: bound on the estimated (relative) channel-sum truncation error
DEFAULT_TAIL_TOL = 1e-10


def entrance_energy(spectrum: TransverseSpectrum, k: float = 0.0) -> float:
    """Scattering energy ``E(k) = -2 J cos k + E_0`` of the entrance channel."""
    return -2.0 * J * math.cos(k) + float(spectrum.energies[0])


@dataclass(frozen=True)
class CirValue:
    """Position of the confinement-induced resonance at quasi-momentum `k`.

    ``u_cir`` may be infinite when no transverse state couples to the
    impurity site (empty channel sum); ``inverse`` is always finite.
    """

    u_cir: float
    inverse: float
    k: float
    n_used: int
    tail_bound: float


# ndarray fields: compared by identity, hashed by id
@dataclass(frozen=True, eq=False)
class ScatteringResult:
    """Effective 1D scattering data at one coupling and quasi-momentum.

    ``a`` is set for zero-momentum runs, ``delta_k`` for finite ``k``;
    ``channel_amplitudes[n-1]`` is the closed-channel amplitude ``b_n``.
    """

    k: float
    u1d: float
    a: float | None
    delta_k: float | None
    channel_amplitudes: np.ndarray
    u_cir: CirValue


def scattering_length(u1d: float, j: float = J) -> float:
    """``a = -2 j / U1D``: ``+inf`` at ``U1D = 0``, and the signed
    infinity, with no numpy overflow warning, where the quotient overflows."""
    return math.inf if u1d == 0.0 else -2.0 * float(j) / float(u1d)


def phase_shift(u1d: float, k: float, j: float = J) -> float:
    """``delta_k = atan(-U1D / (2 j sin k))``, ``+0.0`` (not ``-0.0``)
    at ``U1D = 0``."""
    return math.atan(-u1d / (2.0 * j * math.sin(k))) + 0.0


def _closed_denominators(spectrum: TransverseSpectrum, energy: float,
                         limit: int) -> np.ndarray:
    """Green's-function denominators of channels 1..limit at `energy`."""
    return closed_channels(spectrum.energies[1:limit + 1], energy)[1]


def _geometric_tail(last: float, prev: float) -> float:
    """Geometric extrapolation bound on the dropped part of a channel sum.

    Uses the last two nonzero term magnitudes, `prev` then `last` (0
    where the sum has fewer); returns ``inf`` when the sequence is not
    (yet) decaying.
    """
    if prev == 0.0:
        return math.inf
    ratio = last / prev
    if ratio >= 1.0:
        return math.inf
    return last * ratio / (1.0 - ratio)


def u_cir(spectrum: TransverseSpectrum, k: float = 0.0) -> CirValue:
    """Confinement-induced resonance coupling ``U_CIR(k)``.

    The sum runs over the channels of `spectrum` and stops once the next
    coupling-carrying channel contributes below ``1e-12`` relative *and*
    the geometric tail bound drops below ``DEFAULT_TAIL_TOL`` (``1e-10``)
    relative.  A spectrum that holds the trap's whole grid makes an
    exhausted sum exact.

    Parameters
    ----------
    spectrum : TransverseSpectrum
        Transverse bound states; channel ``n >= 1`` enters with weight
        ``|psi_n(0)|^2``.  Every channel the sum reaches must be closed
        at ``E(k)``.
    k : float
        Entrance quasi-momentum in ``[0, pi)``.

    Raises
    ------
    OpenChannel
        If a channel of `spectrum` is open at ``E(k)``.
    TailTooLarge
        If the truncation-error estimate exceeds ``DEFAULT_TAIL_TOL``
        relative: `spectrum` holds too few states.
    """
    if not 0.0 <= k < math.pi:
        raise ConfigError(f"quasi-momentum must lie in [0, pi), got {k}")
    n_avail = spectrum.n_states - 1
    energy = entrance_energy(spectrum, k)
    psi0_sq = spectrum.origin_amplitudes ** 2
    denoms = _closed_denominators(spectrum, energy, n_avail)

    total = 0.0
    last = prev = 0.0  # magnitudes of the last two nonzero terms
    n_used = 0
    for n in range(1, n_avail + 1):
        term = float(psi0_sq[n]) / float(denoms[n - 1])
        total += term
        n_used = n
        if term != 0.0:
            prev, last = last, abs(term)
            if prev != 0.0:
                scale = max(abs(total), 1e-300)
                tail = _geometric_tail(last, prev)
                if abs(term) < CHANNEL_REL_TOL * scale \
                        and tail < DEFAULT_TAIL_TOL * scale:
                    break

    tail_bound = _geometric_tail(last, prev)
    if spectrum.complete and n_used == n_avail:
        # the whole Hilbert space of the grid: an exhausted sum is exact
        tail_bound = 0.0
    if last == 0.0:
        # no channel couples to the impurity within this spectrum: the
        # bound-state sum is exactly zero
        tail_bound = 0.0
    scale = max(abs(total), 1e-300)
    rel_tail = tail_bound / scale
    if rel_tail >= DEFAULT_TAIL_TOL:
        raise TailTooLarge(
            f"channel-sum truncation error estimate {rel_tail:.3g} (relative) "
            f"exceeds {DEFAULT_TAIL_TOL:g} after {n_used} channels"
        )
    value = math.inf if total == 0.0 else 1.0 / total
    return CirValue(u_cir=value, inverse=total, k=k,
                    n_used=n_used, tail_bound=tail_bound)


def u1d_values(spectrum: TransverseSpectrum, us, cir: CirValue
               ) -> np.ndarray:
    """Effective 1D coupling ``U1D`` at every coupling of `us`, in one
    array pass; `cir` is ``u_cir`` at the entrance momentum.

    Raises
    ------
    AtResonance
        For the first coupling of `us` with ``|1 - U/U_CIR| < 1e-12``.
    """
    us = np.asarray(us, dtype=float)
    pole_factor = 1.0 - us * cir.inverse
    near = np.flatnonzero(np.abs(pole_factor) < 1e-12)
    if near.size:
        raise AtResonance(
            f"coupling U = {us[near[0]]:.12g} sits on the "
            f"confinement-induced resonance U_CIR({cir.k:g}) = "
            f"{cir.u_cir:.12g}")
    psi0 = float(spectrum.origin_amplitudes[0])
    return us * psi0 ** 2 / pole_factor


def effective_u1d(spectrum: TransverseSpectrum, u: float, k: float = 0.0
                  ) -> ScatteringResult:
    """Effective 1D coupling, scattering length, and phase shift.

    Parameters
    ----------
    spectrum : TransverseSpectrum
    u : float
        Contact coupling in units of J, any sign.
    k : float
        Entrance quasi-momentum; ``0`` selects the zero-energy limit
        where the scattering length is defined.  ``U_CIR(k)`` is
        ``u_cir(spectrum, k)``; a sweep over couplings calls
        :func:`u1d_values` with it once instead.

    Returns
    -------
    ScatteringResult

    Raises
    ------
    AtResonance
        If ``|1 - U/U_CIR(k)| < 1e-12``: the pole is reported as such,
        never as an infinite float.
    """
    cir = u_cir(spectrum, k=k)
    u1d = float(u1d_values(spectrum, [u], cir)[0])
    psi0 = float(spectrum.origin_amplitudes[0])

    a = None
    delta_k = None
    if k == 0.0:
        a = scattering_length(u1d)
    else:
        delta_k = phase_shift(u1d, k)

    energy = entrance_energy(spectrum, k)
    if u == 0.0:
        amplitudes = np.zeros(cir.n_used)
    else:
        denoms = _closed_denominators(spectrum, energy, cir.n_used)
        origin = spectrum.origin_amplitudes
        # b_n = U psi_n(0) Psi(0,0) / D_n with Psi(0,0) = 2J/(U psi_0(0))
        amplitudes = 2.0 * J * origin[1:cir.n_used + 1] / (psi0 * denoms)
    return ScatteringResult(k=k, u1d=u1d, a=a, delta_k=delta_k,
                            channel_amplitudes=amplitudes, u_cir=cir)
