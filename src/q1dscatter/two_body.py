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

``R`` has rank at most ``n_y``, the number of transverse sites, while
the channel count grows as ``n_cut^2 / 4``.  Every channel vector in
the system lies in the range of ``S``, ``I = S phi``, which turns it
into the ``n_y``-sized problem

    (1 + U H) phi = psi_0^2,     H = S^T |D|^{-1} S,

with ``H`` the closed-channel pair Green's function on the collision
diagonal (symmetric positive semi-definite).  All algebra runs on
``H``: the direct solve writes ``phi = psi_0^2 + U g`` with
``(1 + U H) g = -H psi_0^2``, so that

    I00(U) = R(00;00) + U psi_0^2 . g,      I = S (psi_0^2 + U g),

and the Born series has terms ``U^m psi_0^2 . (-H)^m psi_0^2``.  The
effective 1D coupling is ``U1D = U * I00`` and the scattering length
``a = -2 J_K / U1D``.  Because ``U`` enters linearly, ``I00`` is a
rational function of ``U`` with poles at the confinement-induced
resonances: the eigenpairs ``mu_j, v_j`` of ``H`` (whose nonzero
spectrum equals that of the channel form ``|D|^{-1/2} R |D|^{-1/2}``)
give the exact partial-fraction form

    I00(U) = R(00;00) - U sum_j c_j^2 / (1 + U mu_j),
    c_j^2 = mu_j (v_j . psi_0^2)^2,

so resonances sit at ``U_j = -1/mu_j`` with ``U1D`` residue
``U_j^3 c_j^2``; the dimensionless strength ``c_j^2 |U_j| / R(00;00)``
is 1 for an ideal isolated pole and is used to separate physically
visible resonances from the dense background of negligible ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.optimize import brentq

from .errors import (ConfigError, Diverging, NoConvergence,
                     SignConventionViolation, SingularSystem,
                     UnphysicalAmplitude)
from .single_particle import scattering_length
from .traps import (J, TransverseSpectrum, TrapSpec, closed_channels,
                    solve_transverse)

#: Resonances with normalized pole strength below this are reported as
#: invisible (they do not register at any realistic plot resolution).
VISIBILITY_FLOOR = 1e-5
#: Normalized pole strength separating broad from sharp resonances.
BROAD_THRESHOLD = 0.05

_SINGULAR_PROXIMITY = 1e-12
_FIXED_POINT_DAMPING = 0.5
_NEWTON_AFTER = 50
_MAX_ITERATIONS = 10_000
_FIXED_POINT_TOL = 1e-10
_PARITY_SIGN = {"even": 1, "odd": -1, "none": 0}


def pair_hopping(total_momentum: float = 0.0) -> float:
    """Collective hopping rate ``J_K = 2 J cos(K/2)`` of the pair.

    Positive for ``|K| < pi``; the channel reduction needs ``J_K > 0``.
    """
    if not abs(total_momentum) < math.pi:
        raise ConfigError(
            f"total quasi-momentum must satisfy |K| < pi (J_K -> 0 "
            f"freezes the collective motion), got K={total_momentum}")
    return 2.0 * J * math.cos(0.5 * total_momentum)


@dataclass(frozen=True)
class PairChannel:
    """One closed two-particle transverse channel ``(n1, n2)``,
    ``n1 <= n2``, never ``(0, 0)``.

    ``parity_weight`` is +1 / -1 for even / odd combined transverse
    parity (0 when the trap defines no parity); odd channels decouple
    from the entrance channel of a symmetric trap.
    """

    n1: int
    n2: int
    energy: float
    alpha: float
    denominator: float
    parity_weight: int


@dataclass(frozen=True)
class OverlapKernel:
    """The two-body problem at one ``(K, E)`` point, held on the
    collision diagonal.

    Stored: ``pairs[b] = (n1, n2)`` of each kept channel (row-major,
    ``n1 <= n2``) and its energy ``channel_energies[b]``, the pair rows
    ``pair_rows[b, y] = S[b, y]``, the entrance row ``psi_0(y)^2``, and
    the per-channel decay factors ``alphas`` and denominators
    ``denominators`` at `energy`;
    ``r_entrance = R(0,0; 0,0) = sum_y psi_0(y)^4``.

    Derived lazily: the ``n_y x n_y`` pair Green's function
    :attr:`green` ``H = S^T |D|^{-1} S`` and its spectral form, on which
    every solver runs; and the channel-space views :attr:`channels`,
    :attr:`r_matrix` ``R = S S^T`` and :attr:`entrance_column`
    ``R(b; 0,0)``, which no solver needs (``R`` alone is
    ``8 n_channels^2`` bytes).
    """

    pairs: np.ndarray
    channel_energies: np.ndarray
    pair_rows: np.ndarray
    entrance_row: np.ndarray
    alphas: np.ndarray
    denominators: np.ndarray
    r_entrance: float
    j_k: float
    total_momentum: float
    energy: float
    spectrum: TransverseSpectrum
    n_cut: int

    @property
    def n_channels(self) -> int:
        return len(self.pairs)

    @property
    def collision_sites(self) -> int:
        """``n_y``: the size of every matrix the solvers factor."""
        return len(self.entrance_row)

    @cached_property
    def channels(self) -> tuple[PairChannel, ...]:
        sign = [_PARITY_SIGN[p] for p in self.spectrum.parities]
        return tuple(
            PairChannel(n1=int(n1), n2=int(n2), energy=float(e),
                        alpha=float(a), denominator=float(d),
                        parity_weight=sign[n1] * sign[n2])
            for (n1, n2), e, a, d in zip(self.pairs, self.channel_energies,
                                         self.alphas, self.denominators))

    @cached_property
    def r_matrix(self) -> np.ndarray:
        return self.pair_rows @ self.pair_rows.T

    @cached_property
    def entrance_column(self) -> np.ndarray:
        return self.pair_rows @ self.entrance_row

    @cached_property
    def green(self) -> np.ndarray:
        """``H = S^T |D|^{-1} S``, exactly symmetric."""
        scaled = self.pair_rows * (1.0 / np.sqrt(-self.denominators))[:, None]
        return scaled.T @ scaled

    @cached_property
    def _spectral(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues ``mu_j`` of :attr:`green` and pole weights
        ``c_j^2`` (see module docstring)."""
        mu, v = np.linalg.eigh(self.green)
        proj = v.T @ self.entrance_row
        return mu, mu * proj * proj

    @property
    def numerical_rank(self) -> int:
        """Eigenvalues of :attr:`green` above ``n_y eps max(mu)``."""
        mu, _ = self._spectral
        tol = mu.max(initial=0.0) * mu.size * np.finfo(float).eps
        return int(np.count_nonzero(mu > tol))

    @property
    def min_abs_denominator(self) -> float:
        """Smallest ``|D_b|``: the closest any channel comes to opening."""
        return float(-self.denominators.max(initial=-math.inf))

    def entrance_amplitude(self, u) -> np.ndarray | float:
        """``I00(U)`` from the partial-fraction form; vectorized in `u`.

        Algebraically identical to the direct linear solve of
        :func:`solve_scattering_length`; infinities mark resonances.
        """
        return _partial_fractions(u, *self._spectral, self.r_entrance)

    def at_energy(self, energy: float) -> "OverlapKernel":
        """Same channel set and pair rows, re-evaluated at a different
        scattering energy (new decay factors and denominators)."""
        if energy == self.energy:
            return self
        alphas, denominators = _closed_channels(
            self.pairs, self.channel_energies, energy, self.j_k)
        return replace(self, alphas=alphas, denominators=denominators,
                       energy=energy)

    def at_relative_momentum(self, k: float) -> "OverlapKernel":
        """:meth:`at_energy` at the pair scattering energy
        ``-2 J_K cos k + 2 E_0`` of relative quasi-momentum `k` in
        ``(0, pi)``; a kernel already there is returned as is, with its
        cached ``H``."""
        if not 0.0 < k < math.pi:
            raise ConfigError(f"quasi-momentum must lie in (0, pi), got {k}")
        e0 = float(self.spectrum.energies[0])
        return self.at_energy(-2.0 * self.j_k * math.cos(k) + 2.0 * e0)


def _partial_fractions(u, mu: np.ndarray, c2: np.ndarray,
                       r_entrance: float) -> np.ndarray | float:
    """``I00(U) = R(00;00) - U sum_j c_j^2 / (1 + U mu_j)``."""
    u_arr = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        shifted = 1.0 + np.multiply.outer(u_arr, mu)
        i00 = r_entrance - u_arr * (c2 / shifted).sum(axis=-1)
    return i00 if u_arr.shape else float(i00)


@dataclass(frozen=True)
class TwoBodyResult:
    """Scattering output at one coupling.

    ``a`` is set for zero-momentum solves, ``delta_k`` for finite-``k``
    ones; ``i_vector`` holds the closed-channel amplitudes in kernel
    channel order.  The entrance amplitude satisfies
    ``i00 = U1D / U`` and, at zero momentum, ``a = -2 J_K / U1D``.
    """

    u: float
    k: float | None
    u1d: float
    a: float | None
    delta_k: float | None
    i00: float
    i_vector: np.ndarray
    method: str


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
    :class:`OverlapKernel`).
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

    @property
    def visible_resonances(self) -> tuple[Resonance, ...]:
        return tuple(r for r in self.resonances if r.visible)


def _closed_channels(pairs: np.ndarray, channel_energies: np.ndarray,
                     energy: float, j_k: float
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Decay factors and denominators of all pair channels at `energy`
    (:func:`~q1dscatter.traps.closed_channels`).

    Raises
    ------
    OpenChannel
        If a channel is open (or marginal) at `energy`.
    SignConventionViolation
        If a closed-channel denominator fails to be negative.
    """
    alphas, denominators = closed_channels(channel_energies, energy, j_k)
    bad = np.flatnonzero(~(denominators < 0.0))
    if bad.size:
        b = bad[0]
        n1, n2 = pairs[b]
        raise SignConventionViolation(
            f"closed-channel denominator of ({n1},{n2}) is "
            f"{denominators[b]:.6g} >= 0; the channel reduction is only "
            f"valid with negative denominators")
    return alphas, denominators


def build_kernel(spectrum: TransverseSpectrum, total_momentum: float = 0.0,
                 energy: float | None = None,
                 n_cut: int | None = None) -> OverlapKernel:
    """Assemble the two-body kernel on the collision diagonal.

    Parameters
    ----------
    spectrum : TransverseSpectrum
        Single-particle transverse states; the first `n_cut` build the
        pair channels.
    total_momentum : float
        Conserved total quasi-momentum ``K``, ``|K| < pi``.
    energy : float, optional
        Scattering energy.  Default: the lowest pair scattering energy
        ``-2 J_K + 2 E_0`` (zero relative momentum).
    n_cut : int, optional
        Single-particle state cutoff; default: all states in `spectrum`.

    Raises
    ------
    OpenChannel
        If any retained pair channel is open at `energy`.
    SignConventionViolation
        If a closed-channel denominator fails to be negative.
    """
    j_k = pair_hopping(total_momentum)
    if n_cut is None:
        n_cut = spectrum.n_states
    if not 1 <= n_cut <= spectrum.n_states:
        raise ConfigError(
            f"n_cut={n_cut} outside 1..{spectrum.n_states} (states held "
            f"by the spectrum)")
    e0 = float(spectrum.energies[0])
    if energy is None:
        energy = -2.0 * j_k + 2.0 * e0

    n1, n2 = np.triu_indices(n_cut)
    keep = n2 > 0  # every pair but the entrance (0, 0)
    if spectrum.symmetric:
        # odd pairs are exactly decoupled from the entrance
        sign = np.array([_PARITY_SIGN[p]
                         for p in spectrum.parities[:n_cut]])
        keep &= sign[n1] * sign[n2] != -1
    pairs = np.column_stack((n1[keep], n2[keep]))
    channel_energies = (spectrum.energies[pairs[:, 0]]
                        + spectrum.energies[pairs[:, 1]])
    alphas, denominators = _closed_channels(pairs, channel_energies, energy,
                                            j_k)

    psi = spectrum.wavefunctions
    pair_rows = psi[pairs[:, 0]] * psi[pairs[:, 1]]
    pair_rows[pairs[:, 0] != pairs[:, 1]] *= math.sqrt(2.0)
    entrance_row = psi[0] * psi[0]
    return OverlapKernel(
        pairs=pairs, channel_energies=channel_energies,
        pair_rows=pair_rows, entrance_row=entrance_row,
        alphas=alphas, denominators=denominators,
        r_entrance=float(entrance_row @ entrance_row), j_k=j_k,
        total_momentum=total_momentum, energy=energy, spectrum=spectrum,
        n_cut=n_cut)


def _check_not_singular(kernel: OverlapKernel, u: float) -> None:
    mu, _ = kernel._spectral
    if mu.size and u != 0.0:
        prox = float(np.min(np.abs(1.0 + u * mu)))
        if prox < _SINGULAR_PROXIMITY:
            raise SingularSystem(
                f"coupling U={u:g} sits on a confinement-induced "
                f"resonance pole (|1 + U mu| = {prox:.3g})")


def _solve_linear(kernel: OverlapKernel, u: float) -> tuple[np.ndarray, float]:
    """Direct solve of ``(1 + U H) g = -H psi_0^2`` on the collision
    diagonal; returns the channel amplitudes and ``I00``."""
    _check_not_singular(kernel, u)
    h = kernel.green
    psi0_sq = kernel.entrance_row
    try:
        g = np.linalg.solve(np.eye(len(h)) + u * h, -(h @ psi0_sq))
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(
            f"linear system singular at U={u:g} (resonance pole)") from exc
    i00 = kernel.r_entrance + u * float(psi0_sq @ g)
    return kernel.pair_rows @ (psi0_sq + u * g), i00


def solve_scattering_length(kernel: OverlapKernel, u: float) -> TwoBodyResult:
    """Zero-momentum two-body scattering at coupling `u`.

    Solves the ``n_y``-sized collision-diagonal system directly and
    returns ``U1D = U * I00`` and ``a = -2 J_K / U1D``.

    Raises
    ------
    SingularSystem
        If `u` sits numerically on a resonance pole.
    """
    i_vec, i00 = _solve_linear(kernel, u)
    u1d = u * i00
    a = scattering_length(u1d, kernel.j_k)
    return TwoBodyResult(u=u, k=None, u1d=u1d, a=a, delta_k=None,
                         i00=i00, i_vector=i_vec, method="direct-solve")


def u1d_curve(kernel: OverlapKernel, u_values) -> np.ndarray:
    """Effective coupling ``U1D(U)`` on an array of couplings.

    Uses the partial-fraction form (one eigendecomposition, then O(n)
    per coupling); identical to :func:`solve_scattering_length` values.
    """
    u_arr = np.asarray(u_values, dtype=float)
    return u_arr * kernel.entrance_amplitude(u_arr)


def born_series(kernel: OverlapKernel, u: float, order: int) -> BornResult:
    """Born series of the entrance amplitude, truncated at `order`.

    Order 1 is the bare overlap ``R(00;00)``; order ``m + 1`` adds the
    term ``U^m psi_0^2 . (-H)^m psi_0^2`` (``m`` channel round trips).

    Raises
    ------
    Diverging
        If term magnitudes grow for 5 consecutive orders (coupling
        beyond the convergence radius set by the nearest resonance).
    """
    if order < 1:
        raise ConfigError(f"Born order must be >= 1, got {order}")
    h = kernel.green
    psi0_sq = kernel.entrance_row
    y = psi0_sq
    total = kernel.r_entrance
    partials = [total]
    prev_mag = None
    growing = 0
    u_pow = 1.0
    for _ in range(1, order):
        u_pow *= u
        y = -(h @ y)
        term = u_pow * float(psi0_sq @ y)
        total += term
        partials.append(total)
        mag = abs(term)
        if prev_mag is not None:
            if mag > prev_mag:
                growing += 1
                if growing >= 5:
                    raise Diverging(
                        f"Born terms grew for {growing} consecutive "
                        f"orders at U={u:g}: |U| exceeds the first "
                        f"resonance coupling")
            else:
                growing = 0
        prev_mag = mag
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
    """Finite-momentum two-body scattering: phase shift at relative
    quasi-momentum `k`.

    The entrance term of the channel system carries the amplitude
    factor ``X = sqrt(1 - (U I00 / (2 J_K sin k))^2)``, making the
    system nonlinear; it is solved by a damped scalar fixed point
    seeded from the linear solution, with a safeguarded Newton fallback.
    The phase shift follows from ``sin(delta) = -U I00 / (2 J_K sin k)``
    (continuously 0 at ``U = 0``).  A sweep over couplings at one `k`
    should pass ``kernel.at_relative_momentum(k)``, so that every point
    reuses one ``H`` and its eigendecomposition.

    Raises
    ------
    NoConvergence
        If the iteration cannot reach the residual tolerance.
    UnphysicalAmplitude
        If the converged amplitude violates the sine bound.
    """
    kernel_k = kernel.at_relative_momentum(k)
    i_lin, i00_lin = _solve_linear(kernel_k, u)
    s = 2.0 * kernel.j_k * math.sin(k)

    if u == 0.0:
        return TwoBodyResult(u=u, k=k, u1d=0.0, a=None, delta_k=0.0,
                             i00=i00_lin, i_vector=i_lin,
                             method="fixed-point")

    def amplitude_factor(i00: float) -> float:
        arg = 1.0 - (u * i00 / s) ** 2
        return math.sqrt(arg) if arg > 0.0 else 0.0

    scale = max(1.0, abs(i00_lin))
    x = i00_lin
    solved = False
    for it in range(_MAX_ITERATIONS):
        target = amplitude_factor(x) * i00_lin
        if abs(x - target) <= _FIXED_POINT_TOL * scale:
            solved = True
            break
        if it < _NEWTON_AFTER:
            x = (1.0 - _FIXED_POINT_DAMPING) * x \
                + _FIXED_POINT_DAMPING * target
        else:
            # safeguarded Newton on the bounded variable t = U I00 / s
            t_goal = u * i00_lin / s

            def mismatch(t: float) -> float:
                return t - t_goal * math.sqrt(max(0.0, 1.0 - t * t))

            t = float(brentq(mismatch, -1.0, 1.0, xtol=1e-16,
                             rtol=8.9e-16))
            x = t * s / u
            solved = abs(x - amplitude_factor(x) * i00_lin) \
                <= _FIXED_POINT_TOL * scale
            break
    if not solved:
        raise NoConvergence(
            f"finite-k fixed point stalled at U={u:g}, k={k:g} "
            f"(residual {abs(x - amplitude_factor(x) * i00_lin):.3g})")

    sine = -u * x / s
    if abs(sine) > 1.0 + 1e-12:
        raise UnphysicalAmplitude(
            f"converged amplitude violates |U I00| <= |2 J_K sin k| "
            f"(ratio {abs(sine):.6g})")
    delta = math.asin(max(-1.0, min(1.0, sine)))
    factor = amplitude_factor(x)
    u1d = -s * math.tan(delta)
    return TwoBodyResult(u=u, k=k, u1d=u1d, a=None, delta_k=delta,
                         i00=x, i_vector=factor * i_lin,
                         method="fixed-point")


def locate_resonances(kernel: OverlapKernel,
                      u_window: tuple[float, float] = (-30.0, 0.0)
                      ) -> ResonanceReport:
    """All poles and zero crossings of ``U1D(U)`` in a coupling window.

    Poles are exact reciprocal eigenvalues of the pair Green's function (no
    scanning); each carries its ``U1D`` residue and normalized strength,
    classified broad/sharp against :data:`BROAD_THRESHOLD` and flagged
    visible above :data:`VISIBILITY_FLOOR`.  Zero crossings of ``U1D``
    (the effective interaction changing sign between poles) are located
    by bracketed root finding on the partial-fraction form.
    """
    u_lo, u_hi = u_window
    if not u_lo < u_hi:
        raise ConfigError(f"empty coupling window {u_window}")
    mu, c2 = kernel._spectral
    resonances = []
    boundaries = [u_lo, u_hi]
    for mu_j, c2_j in zip(mu, c2):
        if mu_j == 0.0:
            continue
        u_pole = -1.0 / float(mu_j)
        if not u_lo <= u_pole <= u_hi:
            continue
        boundaries.append(u_pole)
        width = float(c2_j) * abs(u_pole) / kernel.r_entrance
        residue = u_pole ** 3 * float(c2_j)
        kind = "broad" if width >= BROAD_THRESHOLD else "sharp"
        resonances.append(Resonance(u=u_pole, width=width, residue=residue,
                                    kind=kind,
                                    visible=width > VISIBILITY_FLOOR))
    resonances.sort(key=lambda r: r.u)

    crossings: list[float] = []
    bounds = sorted(set(boundaries))
    pad = 1e-9
    for lo, hi in zip(bounds, bounds[1:]):
        span = hi - lo
        if span <= 4 * pad * max(1.0, abs(lo), abs(hi)):
            continue
        a = lo + pad * max(1.0, abs(lo)) if lo != u_lo else lo
        b = hi - pad * max(1.0, abs(hi)) if hi != u_hi else hi
        if a == 0.0:
            a += pad
        if b == 0.0:
            b -= pad
        if not a < b:
            continue
        us = np.linspace(a, b, 512)
        vals = np.asarray(kernel.entrance_amplitude(us))
        finite = np.isfinite(vals)
        for i in range(len(us) - 1):
            if not (finite[i] and finite[i + 1]):
                continue
            v1, v2 = float(vals[i]), float(vals[i + 1])
            if v1 == 0.0:
                crossings.append(float(us[i]))
            elif v1 * v2 < 0.0:
                # the callback must not hold the kernel: scipy keeps it
                # in a reference cycle until the cyclic collector runs
                crossings.append(float(brentq(
                    _partial_fractions, float(us[i]), float(us[i + 1]),
                    args=(mu, c2, kernel.r_entrance),
                    xtol=1e-14, rtol=8.9e-16)))
    crossings = sorted(set(c for c in crossings if c != 0.0))

    return ResonanceReport(
        resonances=tuple(resonances), zero_crossings=tuple(crossings),
        window=(u_lo, u_hi), n_states=kernel.n_cut,
        n_channels=kernel.n_channels,
        collision_sites=kernel.collision_sites,
        numerical_rank=kernel.numerical_rank,
        min_abs_denominator=kernel.min_abs_denominator, converged=None)


def _complete_basis(spectrum: TransverseSpectrum) -> bool:
    return spectrum.n_states == len(spectrum.grid)


def converged_resonances(trap: TrapSpec, n_start: int,
                         total_momentum: float = 0.0,
                         u_window: tuple[float, float] = (-30.0, 0.0),
                         rel_tol: float = 1e-6, n_step: int = 20,
                         n_limit: int = 161) -> ResonanceReport:
    """Resonance report with the channel cutoff raised until the visible
    pole positions stabilize.

    Starts from `n_start` single-particle states and adds `n_step` per
    rung; two consecutive rungs must agree in visible-resonance count
    and positions (relative `rel_tol`).  A trap whose grid supports no
    further states (complete finite basis) is exact and returns
    immediately.

    Raises
    ------
    NoConvergence
        If `n_limit` is reached without two agreeing rungs.
    """
    if n_start < 1:
        raise ConfigError(f"n_start must be positive, got {n_start}")
    prev: ResonanceReport | None = None
    nc = n_start
    while nc <= n_limit:
        try:
            spectrum = solve_transverse(trap, n_states=nc)
        except ConfigError:
            if prev is not None:
                # the trap ran out of states: the previous rung used the
                # complete basis and is exact
                return replace(prev, converged=True)
            spectrum = solve_transverse(trap)
        kernel = build_kernel(spectrum, total_momentum=total_momentum)
        report = locate_resonances(kernel, u_window)
        if _complete_basis(spectrum):
            return replace(report, converged=True)
        if prev is not None and _reports_match(prev, report, rel_tol):
            return replace(report, converged=True)
        prev = report
        nc += n_step
    raise NoConvergence(
        f"visible resonance positions did not stabilize to {rel_tol:g} "
        f"by {n_limit} transverse states")


def _reports_match(a: ResonanceReport, b: ResonanceReport,
                   rel_tol: float) -> bool:
    ra, rb = a.visible_resonances, b.visible_resonances
    if len(ra) != len(rb):
        return False
    return all(abs(x.u - y.u) <= rel_tol * max(abs(x.u), abs(y.u))
               for x, y in zip(ra, rb))
