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
state: the adaptive panels must find its peak in ``phi_q(0)^2``.
:func:`continuum_sums` integrates many wells in one batched
Gauss-Kronrod pass, :func:`quad`, which evaluates the integrand on the
nodes of every live panel of every well at once.  The
resonance position follows from ``1/U_CIR(k) = sum_bound + S(k)``, the
bound sum :func:`~q1dscatter.single_particle.u_cir` over the bound
sector that :func:`~q1dscatter.traps.solve_transverse` gives.  The
zero-range well is the one-site table ``{0: 0}`` at asymptote ``v0``
and is solved as one; only its phase shift, ``d(theta)/dq`` and bound
energy are taken here in closed form, so its bound sum is empty,
``1/U_CIR = S(k)`` exactly, and a sweep over ``v0`` solves no
spectrum.  The tests check ``1/U_CIR`` against an independent witness,
the channel sum over every excited state of the well in a finite
hard-wall box, which converges to the same value.  There, a cavity
walled by single sites of height 64 to 512 (narrowest peak half-width
2e-5 to 3e-7 in ``q``) matched to 1e-12, and walls up to 4096 (5e-9)
to 1e-10.  Walls of 8192 (1.2e-9) use up the 400 panels the quadrature
allows one well and raise ``QuadratureFail``.

The bound sum holds only the well's states below the band bottom
``v_inf - 2 J``.  A well with a site above ``v_inf + 2 J`` can also
bind states above the band; those are omitted, and ``1/U_CIR`` misses
their (small, negative) contribution.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, QuadratureFail
from .single_particle import CirValue, u_cir
from .traps import (DeltaWell, J, Tabulated, TransverseSpectrum,
                    closed_channels, solve_transverse)

DEFAULT_QUAD_TOL = 1e-10
_PANEL_LIMIT = 400
_FD_STEP = 1e-6

# QUADPACK's qk21 rule (Piessens et al., QUADPACK, Springer 1983): the
# Kronrod nodes on [0, 1] from the outermost in, their weights, and the
# weights of the embedded 10-point Gauss rule, zero on the Kronrod-only
# nodes
_HALF_NODES = (0.995657163025808080735527280689003,
               0.973906528517171720077964012084452,
               0.930157491355708226001207180059508,
               0.865063366688984510732096688423493,
               0.780817726586416897063717578345042,
               0.679409568299024406234327365114874,
               0.562757134668604683339000099272694,
               0.433395394129247190799265943165784,
               0.294392862701460198131126603103866,
               0.148874338981631210884826001129720,
               0.0)
_HALF_KRONROD = (0.011694638867371874278064396062192,
                 0.032558162307964727478818972459390,
                 0.054755896574351996031381300244580,
                 0.075039674810919952767043140916190,
                 0.093125454583697605535065465083366,
                 0.109387158802297641899210590325805,
                 0.123491976262065851077208980222114,
                 0.134709217311473325928054001771707,
                 0.142775938577060080797094273138717,
                 0.147739104901338491374841515972068,
                 0.149445554002916905664936468389821)
_HALF_GAUSS = (0.0, 0.066671344308688137593568809893332,
               0.0, 0.149451349150580593145776339657697,
               0.0, 0.219086362515982043995534934228163,
               0.0, 0.269266719309996355091226921569469,
               0.0, 0.295524224714752870173892994651338, 0.0)
# the 21 nodes on [-1, 1] in ascending order, and both rules' weights
_NODES = np.concatenate((-np.array(_HALF_NODES[:-1]), _HALF_NODES[::-1]))
_KRONROD = np.concatenate((_HALF_KRONROD[:-1], _HALF_KRONROD[::-1]))
_GAUSS = np.concatenate((_HALF_GAUSS[:-1], _HALF_GAUSS[::-1]))
_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny


def quad(integrand, wells: int, a: float, b: float
         ) -> tuple[np.ndarray, np.ndarray]:
    """Integrals over ``[a, b]`` of `wells` integrands at once, by
    adaptive Gauss-Kronrod (G10/K21) panels: ``(values, errors)``, one
    entry per well.

    ``integrand(w, x)`` takes a column ``w`` of well indices, one per
    panel, and the panels' nodes ``x``, one row per panel, and returns
    the integrand values at ``x``.  Every pass evaluates the new panels
    of every well together.  A well whose error estimates sum past
    ``DEFAULT_QUAD_TOL`` bisects each panel whose estimate exceeds its
    share of that tolerance (the panel's share of ``b - a``), the worst
    first, up to ``_PANEL_LIMIT`` panels.  A well's panels, and the
    order of its sums, do not depend on the other wells.
    """
    owner = np.arange(wells)
    lo, hi = np.full(wells, float(a)), np.full(wells, float(b))
    value, error = _kronrod(integrand, owner, lo, hi)
    while True:
        live = np.bincount(owner, error, wells) > DEFAULT_QUAD_TOL
        split = live[owner] & (error > DEFAULT_QUAD_TOL * (hi - lo) / (b - a))
        # past the cap, only the worst panels of a well are bisected
        worst = np.flatnonzero(split)
        worst = worst[np.lexsort((-error[worst], owner[worst]))]
        rank = np.arange(worst.size) - np.searchsorted(owner[worst],
                                                       owner[worst])
        room = _PANEL_LIMIT - np.bincount(owner, minlength=wells)
        split[worst[rank >= room[owner[worst]]]] = False
        if not split.any():
            return (np.bincount(owner, value, wells),
                    np.bincount(owner, error, wells))
        # each bisected panel becomes its two halves, in place
        slot = np.repeat(np.arange(owner.size), split + 1)
        right = np.zeros(slot.size, dtype=bool)
        right[1:] = slot[1:] == slot[:-1]
        fresh = split[slot]
        mid = 0.5 * (lo + hi)
        lo = np.where(right, mid[slot], lo[slot])
        hi = np.where(fresh & ~right, mid[slot], hi[slot])
        owner, value, error = owner[slot], value[slot], error[slot]
        value[fresh], error[fresh] = _kronrod(integrand, owner[fresh],
                                              lo[fresh], hi[fresh])


def _kronrod(integrand, owner, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """QUADPACK's qk21 on each panel ``[lo, hi]`` of well `owner`: the
    Kronrod estimate and its error estimate."""
    centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    f = integrand(owner[:, None], centre[:, None] + half[:, None] * _NODES)
    # fixed-order row sums: a matrix product may sum a row differently
    # with the number of rows, and so with the other wells of a batch
    resk = (f * _KRONROD).sum(axis=1)
    resg = (f * _GAUSS).sum(axis=1)
    resabs = (np.abs(f) * _KRONROD).sum(axis=1) * half
    resasc = (np.abs(f - 0.5 * resk[:, None])
              * _KRONROD).sum(axis=1) * half
    error = np.abs((resk - resg) * half)
    scaled = resasc > 0.0
    error[scaled] = resasc[scaled] * np.minimum(
        1.0, (200.0 * error[scaled] / resasc[scaled]) ** 1.5)
    floor = resabs > _TINY / (50.0 * _EPS)
    error[floor] = np.maximum(50.0 * _EPS * resabs[floor], error[floor])
    return resk * half, error


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
    step = min(_FD_STEP, s / 2.0, (math.pi - s) / 2.0)
    (theta, tp, tm), (phi0, _, _) = _phase(spec, np.array([s, s + step,
                                                           s - step]))
    if isinstance(spec, DeltaWell):
        sq = 2.0 * J * math.sin(s)
        dtheta = -2.0 * J * v_inf * math.cos(s) / (sq * sq + v_inf * v_inf)
    else:
        # unwrap the mod-pi branch across the difference
        dp = (tp - theta + math.pi / 2) % math.pi - math.pi / 2
        dm = (theta - tm + math.pi / 2) % math.pi - math.pi / 2
        dtheta = (dp + dm) / (2.0 * step)
    return ContinuumState(q=q, theta=float(theta), phi0=float(phi0),
                          dtheta_dq=float(dtheta))


def _phase(spec: ContinuumSpec, q: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray]:
    """``(theta_q, phi_q(0))`` of the symmetric state at each
    ``0 < q < pi`` of the array `q`, ``phi_q(0)`` relative to unit outer
    amplitude.

    Tabulated wells: outward recursion through the well, matched to
    ``cos(q y + theta)`` at the well edge.
    """
    if isinstance(spec, DeltaWell):
        return _delta_phase(spec.v0, q)
    v_inf = float(spec.asymptote)
    grid = spec.grid
    r = int(grid[-1])
    v_of = dict(zip(grid.tolist(), spec.potential.tolist()))
    energy = v_inf - 2.0 * J * np.cos(q)

    # (psi(y), psi(y + 1)) from y = 0, where psi(0) = 1, up to y = r
    psi_r, psi_r1 = np.ones_like(q), (v_of[0] - energy) / (2.0 * J)
    for y in range(1, r + 1):
        psi_r, psi_r1 = psi_r1, (v_of.get(y, v_inf) - energy) / J * psi_r1 \
            - psi_r
    # match psi(r), psi(r+1) onto C cos(q y + theta)
    node = np.abs(psi_r) < 1e-300
    rho = psi_r1 / np.where(node, 1.0, psi_r)
    u = np.where(node, math.pi / 2.0, np.arctan2(np.cos(q) - rho, np.sin(q)))
    # math.remainder(u - q r, pi), exactly: u <= pi/2 and q r >= 0, so
    # fmod (exact) lands in (-pi, pi/2], and the one shift by pi (exact)
    # that brings it into [-pi/2, pi/2] is upward
    theta = np.fmod(u - q * r, math.pi)
    theta = np.where(theta < -math.pi / 2, theta + math.pi, theta)
    # divide at whichever matching site lies farther from a node
    cos_r, cos_r1 = np.cos(q * r + theta), np.cos(q * (r + 1) + theta)
    far = np.abs(cos_r) >= np.abs(cos_r1)
    c_outer = np.where(far, psi_r, psi_r1) / np.where(far, cos_r, cos_r1)
    return theta, 1.0 / c_outer


def _delta_phase(v0, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_phase` of the zero-range well of height `v0` in closed
    form; `v0` broadcasts against `q`."""
    theta = np.arctan2(v0, 2.0 * J * np.sin(q))
    return theta, np.cos(theta)


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
    """Continuum channel integral ``S(k)`` of one well: the one-well
    case of :func:`continuum_sums`, with its value and error estimate.

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
    return continuum_sums([spec], k=k, spectra=[spectrum])[0]


def continuum_sums(specs: Sequence[ContinuumSpec], k: float = 0.0,
                   spectra: Sequence[TransverseSpectrum | None] | None = None
                   ) -> list[ContinuumSum]:
    """Continuum channel integrals ``S(k)`` of many wells in one
    adaptive Gauss-Kronrod pass (:func:`quad`), each to an absolute
    error of ``DEFAULT_QUAD_TOL`` (``1e-10``) in the integral over
    ``(0, pi)``.  Each well's value is bit-identical to its value
    alone.

    `spectra`, if given, holds a previously solved bound sector (or
    None) for each well, as in :func:`continuum_sum`.

    Raises
    ------
    QuadratureFail
        If a well's error estimate exceeds ``10 * DEFAULT_QUAD_TOL``
        (with the 400-panel cap reached).
    """
    v_inf = np.array([_check_continuum_spec(spec) for spec in specs])
    e_k = -2.0 * J * math.cos(k) + np.array(
        [_bound_reference(spec, spectrum)[0] for spec, spectrum
         in zip(specs, spectra or [None] * len(specs))])
    delta = np.array([isinstance(spec, DeltaWell) for spec in specs])
    tables = np.flatnonzero(~delta)

    def integrand(wells: np.ndarray, q: np.ndarray) -> np.ndarray:
        # the Kronrod nodes lie inside (0, pi), where phi_q(0) is finite
        phi0 = np.empty_like(q)
        rows = delta[wells[:, 0]]
        phi0[rows] = _delta_phase(v_inf[wells[rows]], q[rows])[1]
        for well in tables:
            rows = wells[:, 0] == well
            phi0[rows] = _phase(specs[well], q[rows])[1]
        den = closed_channels(v_inf[wells] - 2.0 * J * np.cos(q),
                              e_k[wells])[1]
        return phi0 ** 2 / den

    values, errors = quad(integrand, len(specs), 0.0, math.pi)
    for spec, err in zip(specs, errors.tolist()):
        if err > DEFAULT_QUAD_TOL * 10.0:
            raise QuadratureFail(
                f"adaptive quadrature error estimate {err:.3g} exceeds "
                f"{DEFAULT_QUAD_TOL * 10.0:g} for {spec}")
    return [ContinuumSum(value=val / math.pi, quadrature_error=err / math.pi)
            for val, err in zip(values.tolist(), errors.tolist())]


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
