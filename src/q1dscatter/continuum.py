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
finite for every positive well depth.  The resonance position follows
from ``1/U_CIR(k) = sum_bound + S(k)``; for the zero-range well the
bound sum is empty and ``1/U_CIR = S(0)`` exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import curve_fit

from .errors import (ConfigError, QuadratureFail, SharpResonanceUnresolved)
from .single_particle import CirValue
from .traps import (DeltaWell, J, Tabulated, TransverseSpectrum, alpha_closed,
                    closed_channels, solve_transverse)

#: |d(theta)/dq| above which a sharp transverse resonance is suspected
SHARP_DERIVATIVE_THRESHOLD = 1e3
DEFAULT_QUAD_TOL = 1e-10
_FD_STEP = 1e-6


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
    """The continuum channel integral ``S(k)``.

    ``sharp_resonance_part`` holds the separately-added contribution of a
    quasi-bound transverse state (zero when none is detected);
    ``quadrature_error`` is the integration error estimate and ``k`` the
    longitudinal quasi-momentum it was evaluated at.
    """

    value: float
    sharp_resonance_part: float
    quadrature_error: float
    k: float


ContinuumSpec = DeltaWell | Tabulated


def _check_continuum_spec(spec: ContinuumSpec) -> float:
    """Validate and return the asymptotic potential value ``v_inf``."""
    if isinstance(spec, DeltaWell):
        return spec.v0
    if isinstance(spec, Tabulated):
        if spec.asymptote is None:
            raise ConfigError("tabulated trap has no transverse continuum "
                              "(no asymptote declared)")
        if not spec.is_symmetric():
            raise ConfigError("continuum treatment needs a symmetric well")
        return float(spec.asymptote)
    raise ConfigError(f"{type(spec).__name__} supports no transverse continuum")


def scattering_state(spec: ContinuumSpec, q: float) -> ContinuumState:
    """Symmetric transverse scattering state at quasi-momentum `q`.

    For the zero-range well the phase shift is analytic,
    ``tan(theta_q) = v0 / (2 J sin q)`` with
    ``|phi_q(0)|^2 = cos^2(theta_q)``; tabulated wells are matched by an
    outward site recursion onto ``cos(q|y| + theta)`` beyond the well
    range, with the derivative taken by centered finite differences.
    """
    v_inf = _check_continuum_spec(spec)
    if not 0.0 < abs(q) < math.pi:
        raise ConfigError(f"transverse quasi-momentum must lie in (0, pi), got {q}")
    s = abs(q)

    if isinstance(spec, DeltaWell):
        sq = 2.0 * J * math.sin(s)
        theta = math.atan2(v_inf, sq)
        phi0 = math.cos(theta)
        dtheta = -2.0 * J * v_inf * math.cos(s) / (sq * sq + v_inf * v_inf)
        return ContinuumState(q=q, theta=theta, phi0=phi0, dtheta_dq=dtheta)

    theta, phi0 = _matched_phase(spec, s)
    tp = _matched_phase(spec, s + _FD_STEP)[0]
    tm = _matched_phase(spec, s - _FD_STEP)[0]
    # unwrap the mod-pi branch across the difference
    dp = (tp - theta + math.pi / 2) % math.pi - math.pi / 2
    dm = (theta - tm + math.pi / 2) % math.pi - math.pi / 2
    dtheta = (dp + dm) / (2.0 * _FD_STEP)
    return ContinuumState(q=q, theta=theta, phi0=phi0, dtheta_dq=dtheta)


def _matched_phase(spec: Tabulated, q: float) -> tuple[float, float]:
    """Outward recursion through the tabulated well, matched to
    ``cos(q y + theta)`` at the well edge; returns ``(theta, phi_q(0))``."""
    v_inf = float(spec.asymptote)
    grid = spec.grid
    r = int(grid[-1])
    v_of = dict(zip(grid.tolist(), spec.potential.tolist()))
    energy = v_inf - 2.0 * J * math.cos(q)

    psi = {0: 1.0}
    psi[1] = (v_of.get(0, v_inf) - energy) / (2.0 * J) if r >= 0 else 0.0
    for y in range(1, r + 1):
        psi[y + 1] = (v_of.get(y, v_inf) - energy) / J * psi[y] - psi[y - 1]
    # match psi(r), psi(r+1) onto C cos(q y + theta)
    if abs(psi[r]) < 1e-300:
        u = math.pi / 2.0
    else:
        rho = psi[r + 1] / psi[r]
        u = math.atan2(math.cos(q) - rho, math.sin(q))
    theta = math.remainder(u - q * r, math.pi)
    c_outer = psi[r] / math.cos(q * r + theta) if abs(math.cos(q * r + theta)) > 1e-300 else psi[r + 1] / math.cos(q * (r + 1) + theta)
    phi0 = psi[0] / c_outer
    return theta, phi0


def density_of_states(state: ContinuumState, box_half_width: float) -> float:
    """Symmetric-state density ``g(q) = L/pi + (1/pi) d(theta)/dq`` in a
    box of half-width ``L`` sites.  Only the ``L``-independent part
    survives in ``S(k)`` after normalization."""
    return box_half_width / math.pi + state.dtheta_dq / math.pi


def _bound_reference(spec: ContinuumSpec) -> tuple[float, TransverseSpectrum | None]:
    """Ground (entrance-channel) energy of the well's bound sector."""
    if isinstance(spec, DeltaWell):
        return spec.bound_energy, None
    spectrum = solve_transverse(spec)
    return float(spectrum.energies[0]), spectrum


def _integrand_factory(spec: ContinuumSpec, k: float, e0: float):
    v_inf = _check_continuum_spec(spec)
    e_k = -2.0 * J * math.cos(k) + e0

    def integrand(q: float) -> float:
        if q == 0.0 or abs(q) >= math.pi:
            return _integrand_limit(spec, q, e_k, v_inf)
        st = scattering_state(spec, q)
        channel = v_inf - 2.0 * J * math.cos(q)
        den = alpha_closed(channel, e_k).denominator
        return st.phi0 ** 2 / den

    return integrand


def _integrand_limit(spec: ContinuumSpec, q: float, e_k: float,
                     v_inf: float) -> float:
    """Band-edge values of the integrand (finite one-sided limits)."""
    channel = v_inf - 2.0 * J * math.cos(q)
    den = alpha_closed(channel, e_k).denominator
    if isinstance(spec, DeltaWell):
        return 0.0 if q == 0.0 else (2.0 * J * math.sin(q)) ** 2 / (
            (2.0 * J * math.sin(q)) ** 2 + v_inf ** 2) / den
    return 0.0  # tabulated wells: cos^2 matching vanishes at band edges


def _sharp_scan(spec: ContinuumSpec, n_scan: int = 2001):
    """Scan |d(theta)/dq| for quasi-bound transverse states.

    Returns ``None`` or the fitted ``(q0, width, weight)`` of the peak.
    """
    if isinstance(spec, DeltaWell):
        return None  # d(theta)/dq is bounded by 2J/v0: no sharp structure
    qs = np.linspace(1e-6, math.pi - 1e-6, n_scan)
    der = np.array([scattering_state(spec, float(q)).dtheta_dq for q in qs])
    peak = int(np.argmax(np.abs(der)))
    if abs(der[peak]) < SHARP_DERIVATIVE_THRESHOLD:
        return None
    if peak in (0, len(qs) - 1):
        raise SharpResonanceUnresolved(
            "phase-derivative peak sits at the scan boundary")
    # Lorentzian d(theta)/dq = w0*(G/2)/((q-q0)^2+(G/2)^2): area pi*w0
    half = max(3, int(round(0.02 * n_scan)))
    lo, hi = max(0, peak - half), min(len(qs), peak + half + 1)

    def lorentz(q, q0, gamma, amp):
        return amp * (gamma / 2.0) ** 2 / ((q - q0) ** 2 + (gamma / 2.0) ** 2)

    try:
        width0 = max(qs[1] - qs[0], 1.0 / abs(der[peak]))
        popt, _ = curve_fit(lorentz, qs[lo:hi], der[lo:hi],
                            p0=(qs[peak], width0, der[peak]), maxfev=10_000)
    except Exception as exc:  # fit failure surfaces as a domain error
        raise SharpResonanceUnresolved(f"Lorentzian fit failed: {exc}") from exc
    q0, gamma, amp = float(popt[0]), abs(float(popt[1])), float(popt[2])
    if not (qs[lo] < q0 < qs[hi - 1]) or not math.isfinite(amp):
        raise SharpResonanceUnresolved("Lorentzian fit left the scan window")
    model = lorentz(qs[lo:hi], *popt)
    rel = float(np.max(np.abs(model - der[lo:hi]))) / abs(der[peak])
    if rel > 0.2:
        raise SharpResonanceUnresolved(
            f"phase-derivative peak is not Lorentzian (misfit {rel:.2f})")
    weight = amp * gamma / 2.0  # area / pi
    return q0, gamma, weight


def continuum_sum(spec: ContinuumSpec, k: float = 0.0,
                  quad_tol: float = DEFAULT_QUAD_TOL,
                  method: str = "adaptive",
                  grid_points: int = 10_000) -> ContinuumSum:
    """Continuum channel integral ``S(k)``.

    Parameters
    ----------
    spec : DeltaWell or Tabulated (with asymptote)
    k : float
        Longitudinal quasi-momentum; ``S`` is even in `k`.
    quad_tol : float
        Absolute error demanded of the adaptive quadrature; an error
        estimate up to ``10 * quad_tol`` is accepted.
    method : {'adaptive', 'grid'}
        'adaptive' uses adaptive Gauss-Kronrod panels; 'grid' a fixed
        composite trapezoid with `grid_points` points (the two paths
        cross-validate each other).
    grid_points : int
        Node count for ``method='grid'``.

    Raises
    ------
    QuadratureFail
        If the adaptive error estimate exceeds ``10 * quad_tol``.
    SharpResonanceUnresolved
        If a quasi-bound state is detected but cannot be fitted.
    """
    e0, _ = _bound_reference(spec)
    integrand = _integrand_factory(spec, k, e0)

    sharp = _sharp_scan(spec)
    sharp_part = 0.0
    if sharp is not None:
        q0, _gamma, weight = sharp
        v_inf = _check_continuum_spec(spec)
        e_k = -2.0 * J * math.cos(k) + e0
        channel = v_inf - 2.0 * J * math.cos(q0)
        den = alpha_closed(channel, e_k).denominator
        phi0 = scattering_state(spec, q0).phi0
        sharp_part = weight * phi0 ** 2 / den

    if method == "adaptive":
        val, err = quad(integrand, 0.0, math.pi,
                        epsabs=quad_tol, epsrel=0.0, limit=400)
        if err > quad_tol * 10.0:
            raise QuadratureFail(
                f"adaptive quadrature error estimate {err:.3g} exceeds "
                f"10 x quad_tol = {quad_tol * 10.0:g}")
        return ContinuumSum(value=val / math.pi + sharp_part,
                            sharp_resonance_part=sharp_part,
                            quadrature_error=err / math.pi, k=k)
    if method == "grid":
        if grid_points < 16:
            raise ConfigError("grid quadrature needs at least 16 points")
        qs = np.linspace(0.0, math.pi, grid_points)
        vals = np.array([integrand(float(q)) for q in qs])
        val = float(np.trapezoid(vals, qs))
        coarse = float(np.trapezoid(vals[::2], qs[::2]))
        err = abs(val - coarse) / 3.0
        return ContinuumSum(value=val / math.pi + sharp_part,
                            sharp_resonance_part=sharp_part,
                            quadrature_error=err / math.pi, k=k)
    raise ConfigError(f"unknown quadrature method {method!r}")


def u_cir_with_continuum(spec: ContinuumSpec, k: float = 0.0,
                         spectrum: TransverseSpectrum | None = None,
                         quad_tol: float = DEFAULT_QUAD_TOL,
                         method: str = "adaptive",
                         continuum: ContinuumSum | None = None) -> CirValue:
    """Resonance coupling of a continuum-supporting well,
    ``1/U_CIR(k) = sum over excited bound channels + S(k)``.

    For the zero-range well the bound sum is empty and
    ``1/U_CIR = S(0)`` holds exactly.  Pass `spectrum` to reuse a
    previously solved bound sector, and `continuum` to reuse
    ``continuum_sum(spec, k, quad_tol, method)`` already computed for
    this well (`quad_tol` and `method` are then unused).

    Raises
    ------
    ConfigError
        If `continuum` was evaluated at another ``k``.
    """
    if continuum is None:
        continuum = continuum_sum(spec, k=k, quad_tol=quad_tol,
                                  method=method)
    elif continuum.k != k:
        raise ConfigError(f"continuum_sum was evaluated at "
                          f"k={continuum.k}, not k={k}")
    if spectrum is None:
        e0, spectrum = _bound_reference(spec)
    else:
        e0 = float(spectrum.energies[0])
    e_k = -2.0 * J * math.cos(k) + e0
    bound_part = 0.0
    n_bound = 1
    if spectrum is not None:
        n_bound = spectrum.n_states
        den = closed_channels(spectrum.energies[1:], e_k)[1]
        bound_part = float(np.sum(spectrum.origin_amplitudes[1:] ** 2 / den))
    inverse = bound_part + continuum.value
    value = math.inf if inverse == 0.0 else 1.0 / inverse
    return CirValue(u_cir=value, inverse=inverse, k=k,
                    n_used=n_bound - 1, tail_bound=continuum.quadrature_error)
