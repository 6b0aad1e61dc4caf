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
#: default bound on the estimated (relative) channel-sum truncation error
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


@dataclass(frozen=True)
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


def _closed_denominators(spectrum: TransverseSpectrum, energy: float,
                         limit: int) -> np.ndarray:
    """Green's-function denominators of channels 1..limit at `energy`."""
    return closed_channels(spectrum.energies[1:limit + 1], energy)[1]


def _geometric_tail(terms: list[float]) -> float:
    """Geometric extrapolation bound on the dropped part of a channel sum.

    Uses the last two nonzero term magnitudes; returns ``inf`` when the
    sequence is not (yet) decaying.
    """
    mags = [abs(t) for t in terms if t != 0.0]
    if len(mags) < 2:
        return math.inf
    last, prev = mags[-1], mags[-2]
    ratio = last / prev
    if ratio >= 1.0:
        return math.inf
    return last * ratio / (1.0 - ratio)


def u_cir(spectrum: TransverseSpectrum, k: float = 0.0,
          n_cut: int | None = None,
          tail_tol: float = DEFAULT_TAIL_TOL) -> CirValue:
    """Confinement-induced resonance coupling ``U_CIR(k)``.

    Parameters
    ----------
    spectrum : TransverseSpectrum
        Transverse bound states; channel ``n >= 1`` enters with weight
        ``|psi_n(0)|^2``.  Every channel up to the cutoff must be closed
        at ``E(k)``.
    k : float
        Entrance quasi-momentum in ``[0, pi)``.
    n_cut : int, optional
        Explicit channel cutoff.  ``None`` sums until the next
        coupling-carrying channel contributes below ``1e-12`` relative
        *and* the geometric tail bound drops below `tail_tol`.
    tail_tol : float
        Bound (relative to the accumulated sum) demanded of the
        estimated truncation error.

    Raises
    ------
    OpenChannel
        If a channel within the cutoff is open at ``E(k)``.
    TailTooLarge
        If the truncation-error estimate exceeds `tail_tol`.
    """
    if not 0.0 <= k < math.pi:
        raise ConfigError(f"quasi-momentum must lie in [0, pi), got {k}")
    n_avail = spectrum.n_states - 1
    if n_cut is not None and n_cut > n_avail:
        raise ConfigError(f"n_cut = {n_cut} exceeds the {n_avail} available channels")
    energy = entrance_energy(spectrum, k)
    psi0_sq = spectrum.origin_amplitudes ** 2
    # the trap's full Hilbert space is the grid: an exhausted sum is exact
    complete = spectrum.n_states == len(spectrum.grid)

    limit = n_cut if n_cut is not None else n_avail
    denoms = _closed_denominators(spectrum, energy, limit)

    total = 0.0
    terms: list[float] = []
    n_used = 0
    for n in range(1, limit + 1):
        term = float(psi0_sq[n]) / float(denoms[n - 1])
        total += term
        terms.append(term)
        n_used = n
        if n_cut is None and term != 0.0 and len([t for t in terms if t]) >= 2:
            scale = max(abs(total), 1e-300)
            tail = _geometric_tail(terms)
            if abs(term) < CHANNEL_REL_TOL * scale and tail < tail_tol * scale:
                break

    tail_bound = _geometric_tail(terms)
    if complete and n_used == n_avail:
        tail_bound = 0.0
    if not any(t != 0.0 for t in terms):
        # no channel couples to the impurity within this spectrum: the
        # bound-state sum is exactly zero
        tail_bound = 0.0
    scale = max(abs(total), 1e-300)
    rel_tail = tail_bound / scale
    if rel_tail >= tail_tol:
        raise TailTooLarge(
            f"channel-sum truncation error estimate {rel_tail:.3g} (relative) "
            f"exceeds {tail_tol:g} after {n_used} channels"
        )
    value = math.inf if total == 0.0 else 1.0 / total
    return CirValue(u_cir=value, inverse=total, k=k,
                    n_used=n_used, tail_bound=tail_bound)


def effective_u1d(spectrum: TransverseSpectrum, u: float, k: float = 0.0,
                  n_cut: int | None = None,
                  tail_tol: float = DEFAULT_TAIL_TOL,
                  cir: CirValue | None = None) -> ScatteringResult:
    """Effective 1D coupling, scattering length, and phase shift.

    Parameters
    ----------
    spectrum : TransverseSpectrum
    u : float
        Contact coupling in units of J, any sign.
    k : float
        Entrance quasi-momentum; ``0`` selects the zero-energy limit
        where the scattering length is defined.
    n_cut, tail_tol :
        Channel-sum controls, forwarded to :func:`u_cir`.
    cir : CirValue, optional
        ``u_cir(spectrum, k, n_cut, tail_tol)``, which does not depend
        on `u`: a sweep over couplings computes it once and passes it
        to every point (`n_cut` and `tail_tol` are then unused).

    Returns
    -------
    ScatteringResult

    Raises
    ------
    AtResonance
        If ``|1 - U/U_CIR(k)| < 1e-12``: the pole is reported as such,
        never as an infinite float.
    """
    if cir is None:
        cir = u_cir(spectrum, k=k, n_cut=n_cut, tail_tol=tail_tol)
    elif cir.k != k:
        raise ConfigError(f"u_cir was evaluated at k={cir.k}, not k={k}")
    pole_factor = 1.0 - u * cir.inverse
    if abs(pole_factor) < 1e-12:
        raise AtResonance(
            f"coupling U = {u:.12g} sits on the confinement-induced "
            f"resonance U_CIR({k:g}) = {cir.u_cir:.12g}"
        )
    psi0 = float(spectrum.origin_amplitudes[0])
    u1d = u * psi0 ** 2 / pole_factor

    a = None
    delta_k = None
    if k == 0.0:
        a = scattering_length(u1d)
    else:
        delta_k = math.atan(-u1d / (2.0 * J * math.sin(k)))

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
