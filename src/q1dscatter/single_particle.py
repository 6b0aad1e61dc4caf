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

The sum runs over every channel of the spectrum it is given, with no
cutoff.  :func:`u_cir_complete` gives it the trap's complete grid basis,
on which the sum is exact for that grid, and doubles an auto-sized
harmonic grid until the value settles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AtResonance, ConfigError, NoConvergence, require_finite
from .traps import (J, TransverseSpectrum, TrapSpec, _complete_spectrum,
                    _grids, closed_channels)

#: relative agreement of two grid rungs at which `u_cir_complete` stops
GRID_REL_TOL = 1e-12


def entrance_energy(spectrum: TransverseSpectrum, k: float = 0.0) -> float:
    """Scattering energy ``E(k) = -2 J cos k + E_0`` of the entrance channel."""
    return -2.0 * J * math.cos(k) + float(spectrum.energies[0])


@dataclass(frozen=True)
class CirValue:
    """Position of the confinement-induced resonance at quasi-momentum `k`.

    ``u_cir`` may be infinite when no transverse state couples to the
    impurity site (empty channel sum); ``inverse`` is always finite.
    ``n_used`` counts the channels summed, every excited state.
    """

    u_cir: float
    inverse: float
    k: float
    n_used: int


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


def _closed_denominators(spectrum: TransverseSpectrum, energy: float
                         ) -> np.ndarray:
    """Green's-function denominators of every excited channel at `energy`."""
    return closed_channels(spectrum.energies[1:], energy)[1]


def u_cir(spectrum: TransverseSpectrum, k: float = 0.0) -> CirValue:
    """Confinement-induced resonance coupling ``U_CIR(k)``.

    The sum runs over every channel of `spectrum`, with no cutoff: a
    spectrum that holds the trap's whole grid makes it exact for that
    grid (:func:`u_cir_complete`), and a truncated one is summed as
    given.

    Parameters
    ----------
    spectrum : TransverseSpectrum
        Transverse bound states; channel ``n >= 1`` enters with weight
        ``|psi_n(0)|^2``.  Every channel must be closed at ``E(k)``.
    k : float
        Entrance quasi-momentum in ``[0, pi)``.

    Raises
    ------
    OpenChannel
        If a channel of `spectrum` is open at ``E(k)``.
    """
    if not 0.0 <= k < math.pi:
        raise ConfigError(f"quasi-momentum must lie in [0, pi), got {k}")
    denoms = _closed_denominators(spectrum, entrance_energy(spectrum, k))
    total = float(np.sum(spectrum.origin_amplitudes[1:] ** 2 / denoms))
    value = math.inf if total == 0.0 else 1.0 / total
    return CirValue(u_cir=value, inverse=total, k=k,
                    n_used=spectrum.n_states - 1)


def u_cir_complete(trap: TrapSpec, k: float = 0.0
                   ) -> list[tuple[TransverseSpectrum, CirValue]]:
    """``U_CIR(k)`` summed over the trap's complete grid basis.

    Every state of each grid the trap is solved on (``traps._grids``)
    enters the sum.  A finite trap (two-site, hard-walled table) and a
    harmonic trap with a set half-width have one grid.  An auto-sized
    harmonic grid doubles its half-width from 40 until two consecutive
    grids agree on ``1/U_CIR`` to ``GRID_REL_TOL`` relative.

    Returns
    -------
    list of (TransverseSpectrum, CirValue)
        One rung per grid solved, smallest first; the last is the
        result.

    Raises
    ------
    ConfigError
        For a trap with a transverse continuum (use
        :func:`~q1dscatter.continuum.u_cir_with_continuum`).
    NoConvergence
        If an auto-sized grid has not settled by half-width 2,560.
    """
    if getattr(trap, "asymptote", None) is not None:
        raise ConfigError("the trap has a transverse continuum, which no "
                          "grid basis completes")
    rungs, half_widths = [], []
    for grid, v in _grids(trap):
        spectrum = _complete_spectrum(grid, v)
        cir = u_cir(spectrum, k)
        settled = bool(rungs) and abs(cir.inverse - rungs[-1][1].inverse) \
            <= GRID_REL_TOL * abs(cir.inverse)
        rungs.append((spectrum, cir))
        half_widths.append(int(grid[-1]))
        if settled:
            return rungs
    if len(rungs) == 1:  # the trap's one grid
        return rungs
    raise NoConvergence(
        f"1/U_CIR did not settle to {GRID_REL_TOL:g} relative between grid "
        f"half-widths {half_widths[-2]} and {half_widths[-1]}")


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
    require_finite("us", us)
    return _u1d_values(spectrum, us, cir)


def _u1d_values(spectrum: TransverseSpectrum, us: np.ndarray, cir: CirValue
                ) -> np.ndarray:
    """:func:`u1d_values` of the finite couplings `us`."""
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
    require_finite("u", u)
    cir = u_cir(spectrum, k=k)
    u1d = float(_u1d_values(spectrum, np.array([float(u)]), cir)[0])
    psi0 = float(spectrum.origin_amplitudes[0])

    a = None
    delta_k = None
    if k == 0.0:
        a = scattering_length(u1d)
    else:
        delta_k = phase_shift(u1d, k)

    if u == 0.0:
        amplitudes = np.zeros(cir.n_used)
    else:
        denoms = _closed_denominators(spectrum, entrance_energy(spectrum, k))
        # b_n = U psi_n(0) Psi(0,0) / D_n with Psi(0,0) = 2J/(U psi_0(0))
        amplitudes = 2.0 * J * spectrum.origin_amplitudes[1:] / (psi0 * denoms)
    return ScatteringResult(k=k, u1d=u1d, a=a, delta_k=delta_k,
                            channel_amplitudes=amplitudes, u_cir=cir)
