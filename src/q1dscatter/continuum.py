"""Traps with a transverse continuum: scattering states, density of
states, and the continuum channel integral.

A well that flattens to a constant ``V -> v_inf`` at large ``|y|``
supports finitely many transverse bound states plus a band of
scattering states

    phi_q(y) ~ cos(q |y| + theta_q)    for |y| beyond the well range,

with transverse energy ``eps(q) = v_inf - 2 J cos q``.  In a box of
``2 L + 1`` sites the symmetric-state density is
``g(q) = L/pi + (1/pi) d(theta_q)/dq``.  The closed-channel sum over the
continuum becomes the integral

    S(k) = (1/2 pi) Int_{-pi}^{pi} dq
           |phi_q(0)|^2 / (E(k) - E(q) + (E_0 - v_inf) + 2 J alpha_q)

with ``E(q) = -2 J cos q + E_0`` and ``alpha_q`` the decay factor of the
continuum channel; the denominator is smooth and bounded away from zero
(it never exceeds ``-v_inf`` for the zero-range well), so ``S(k)`` is
finite for every positive well depth.  ``S(k)`` is this one quadrature
of one integrand, with no separate term for a quasi-bound transverse
state: the adaptive panels must find its peak in ``phi_q(0)^2``.  The
resonance position follows from ``1/U_CIR(k) = sum_bound + S(k)``, the
bound sum :func:`~q1dscatter.single_particle.u_cir` over the bound
sector that :func:`~q1dscatter.traps.solve_transverse` gives.  The
zero-range well is the one-site table ``{0: 0}`` at asymptote ``v0``
and is solved as one; only its phase shift, ``d(theta)/dq`` and bound
energy are taken here in closed form, so its bound sum is empty,
``1/U_CIR = S(k)`` exactly, and a sweep over ``v0`` solves no
spectrum.  The tests check ``1/U_CIR`` against an independent witness,
the channel sum over every excited state of the well in a finite
hard-wall box, which converges to the same value.  There, walls of one
site up to height 128 (peak half-width down to 1e-5 in ``q``) matched
to 1e-13; narrower peaks can fall between the Kronrod nodes, and walls
of 147 to 2048 either matched to 2e-12 or raised ``QuadratureFail``.

The bound sum holds only the well's states below the band bottom
``v_inf - 2 J``.  A well with a site above ``v_inf + 2 J`` can also
bind states above the band; those are omitted, and ``1/U_CIR`` misses
their (small, negative) contribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, QuadratureFail
from .single_particle import CirValue, u_cir
from .traps import (DeltaWell, J, Tabulated, TransverseSpectrum, alpha_closed,
                    solve_transverse)

DEFAULT_QUAD_TOL = 1e-10
_FD_STEP = 1e-6


def quad(*args, **kwargs):
    """``scipy.integrate.quad``, imported on first call: the import costs
    ~0.4 s and only the continuum path needs it."""
    from scipy.integrate import quad
    return quad(*args, **kwargs)


@dataclass(frozen=True)
class ContinuumState:
    """One symmetric transverse scattering state.

    Attributes
    ----------
    q : float
        Transverse quasi-momentum in ``(-pi, pi)``, nonzero.
    theta : float
        Scattering phase shift of the well.
    phi0 : float
        Inner amplitude ``phi_q(0)`` relative to unit outer amplitude.
    dtheta_dq : float
        Phase-shift derivative (enters the density of states).
    """

    q: float
    theta: float
    phi0: float
    dtheta_dq: float


@dataclass(frozen=True)
class ContinuumSum:
    """The continuum channel integral ``S(k)``; ``quadrature_error`` is
    the integration error estimate."""

    value: float
    quadrature_error: float


ContinuumSpec = DeltaWell | Tabulated


def _check_continuum_spec(spec: ContinuumSpec) -> float:
    """Validate and return the asymptotic potential value ``v_inf``."""
    if getattr(spec, "asymptote", None) is None:
        raise ConfigError(f"{type(spec).__name__} trap has no transverse "
                          f"continuum (no asymptote declared)")
    if not spec.is_symmetric():
        raise ConfigError("continuum treatment needs a symmetric well")
    return float(spec.asymptote)


def scattering_state(spec: ContinuumSpec, q: float) -> ContinuumState:
    """Symmetric transverse scattering state at quasi-momentum `q`.

    For the zero-range well the phase shift is analytic,
    ``tan(theta_q) = v0 / (2 J sin q)`` with
    ``|phi_q(0)|^2 = cos^2(theta_q)``; tabulated wells are matched by an
    outward site recursion onto ``cos(q|y| + theta)`` beyond the well
    range, with the derivative taken by centered finite differences
    whose points stay inside ``(0, pi)``.
    """
    v_inf = _check_continuum_spec(spec)
    if not 0.0 < abs(q) < math.pi:
        raise ConfigError(f"transverse quasi-momentum must lie in (0, pi), got {q}")
    s = abs(q)
    theta, phi0 = _phase(spec, s)

    if isinstance(spec, DeltaWell):
        sq = 2.0 * J * math.sin(s)
        dtheta = -2.0 * J * v_inf * math.cos(s) / (sq * sq + v_inf * v_inf)
    else:
        step = min(_FD_STEP, s / 2.0, (math.pi - s) / 2.0)
        tp = _phase(spec, s + step)[0]
        tm = _phase(spec, s - step)[0]
        # unwrap the mod-pi branch across the difference
        dp = (tp - theta + math.pi / 2) % math.pi - math.pi / 2
        dm = (theta - tm + math.pi / 2) % math.pi - math.pi / 2
        dtheta = (dp + dm) / (2.0 * step)
    return ContinuumState(q=q, theta=theta, phi0=phi0, dtheta_dq=dtheta)


def _phase(spec: ContinuumSpec, q: float) -> tuple[float, float]:
    """``(theta_q, phi_q(0))`` of the symmetric state at ``0 < q < pi``,
    ``phi_q(0)`` relative to unit outer amplitude.

    Tabulated wells: outward recursion through the well, matched to
    ``cos(q y + theta)`` at the well edge.
    """
    if isinstance(spec, DeltaWell):
        theta = math.atan2(spec.v0, 2.0 * J * math.sin(q))
        return theta, math.cos(theta)
    v_inf = float(spec.asymptote)
    grid = spec.grid
    r = int(grid[-1])
    v_of = dict(zip(grid.tolist(), spec.potential.tolist()))
    energy = v_inf - 2.0 * J * math.cos(q)

    psi = {0: 1.0, 1: (v_of[0] - energy) / (2.0 * J)}
    for y in range(1, r + 1):
        psi[y + 1] = (v_of.get(y, v_inf) - energy) / J * psi[y] - psi[y - 1]
    # match psi(r), psi(r+1) onto C cos(q y + theta)
    if abs(psi[r]) < 1e-300:
        u = math.pi / 2.0
    else:
        rho = psi[r + 1] / psi[r]
        u = math.atan2(math.cos(q) - rho, math.sin(q))
    theta = math.remainder(u - q * r, math.pi)
    # divide at whichever matching site lies farther from a node
    cos_r, cos_r1 = math.cos(q * r + theta), math.cos(q * (r + 1) + theta)
    c_outer = psi[r] / cos_r if abs(cos_r) >= abs(cos_r1) else psi[r + 1] / cos_r1
    phi0 = psi[0] / c_outer
    return theta, phi0


def density_of_states(state: ContinuumState, box_half_width: float) -> float:
    """Symmetric-state density ``g(q) = L/pi + (1/pi) d(theta)/dq`` in a
    box of half-width ``L`` sites.  Only the ``L``-independent part
    survives in ``S(k)`` after normalization."""
    return box_half_width / math.pi + state.dtheta_dq / math.pi


def _bound_reference(spec: ContinuumSpec,
                     spectrum: TransverseSpectrum | None = None
                     ) -> tuple[float, TransverseSpectrum | None]:
    """Ground (entrance-channel) energy of the well's bound sector, and
    that sector (`spectrum` if given, solved otherwise; None for the
    zero-range well)."""
    if spectrum is None:
        if isinstance(spec, DeltaWell):
            return spec.bound_energy, None
        spectrum = solve_transverse(spec)
    return float(spectrum.energies[0]), spectrum


def continuum_sum(spec: ContinuumSpec, k: float = 0.0,
                  spectrum: TransverseSpectrum | None = None
                  ) -> ContinuumSum:
    """Continuum channel integral ``S(k)``, by adaptive Gauss-Kronrod
    panels to an absolute error of ``DEFAULT_QUAD_TOL`` (``1e-10``).

    Parameters
    ----------
    spec : DeltaWell or Tabulated (with asymptote)
    k : float
        Longitudinal quasi-momentum; ``S`` is even in `k`.
    spectrum : TransverseSpectrum, optional
        A previously solved bound sector of `spec` to reuse; its ground
        energy sets the entrance energy.

    Raises
    ------
    QuadratureFail
        If the error estimate exceeds ``10 * DEFAULT_QUAD_TOL``.
    """
    v_inf = _check_continuum_spec(spec)
    e_k = -2.0 * J * math.cos(k) + _bound_reference(spec, spectrum)[0]

    def integrand(q: float) -> float:
        if not 0.0 < q < math.pi:
            return 0.0  # phi_q(0) vanishes at the band edges
        den = alpha_closed(v_inf - 2.0 * J * math.cos(q), e_k).denominator
        return _phase(spec, q)[1] ** 2 / den

    val, err = quad(integrand, 0.0, math.pi,
                    epsabs=DEFAULT_QUAD_TOL, epsrel=0.0, limit=400)
    if err > DEFAULT_QUAD_TOL * 10.0:
        raise QuadratureFail(
            f"adaptive quadrature error estimate {err:.3g} exceeds "
            f"{DEFAULT_QUAD_TOL * 10.0:g}")
    return ContinuumSum(value=val / math.pi, quadrature_error=err / math.pi)


def u_cir_with_continuum(spec: ContinuumSpec, k: float = 0.0,
                         spectrum: TransverseSpectrum | None = None
                         ) -> CirValue:
    """Resonance coupling of a continuum-supporting well,
    ``1/U_CIR(k) = sum over excited bound channels + S(k)``.

    The bound sum is :func:`~q1dscatter.single_particle.u_cir` over
    `spectrum`, a previously solved bound sector of `spec` to reuse,
    summed as given; by default every bound state, solved here.  For
    the zero-range well with no `spectrum` the bound sum is empty and
    ``1/U_CIR = S(k)`` exactly.
    """
    _, spectrum = _bound_reference(spec, spectrum)
    s = continuum_sum(spec, k=k, spectrum=spectrum)
    bound = CirValue(u_cir=math.inf, inverse=0.0, k=k, n_used=0) \
        if spectrum is None else u_cir(spectrum, k)
    inverse = bound.inverse + s.value
    value = math.inf if inverse == 0.0 else 1.0 / inverse
    return CirValue(u_cir=value, inverse=inverse, k=k, n_used=bound.n_used)
