"""Single-particle effective 1D coupling, scattering length, phase
shift, and the confinement-induced resonance position."""

import math

import numpy as np
import pytest

import q1dscatter as q
from q1dscatter import single_particle

SQRT2 = math.sqrt(2.0)


def two_site_cir_analytic() -> float:
    """Closed form for the two-site trap: one closed channel.

    1/U_cir = |psi_1(0)|^2 / D_1 with D_1 = J (alpha^2 - 1)/alpha and
    alpha from the gap ratio g = (E_1 - E)/J at k = 0.
    """
    e0, e1 = 1.0 - SQRT2, 1.0 + SQRT2
    g = (e1 - (-2.0 + e0)) / 1.0
    alpha = 2.0 / (g + math.sqrt(g * g - 4.0))
    d1 = (alpha * alpha - 1.0) / alpha
    psi1_sq = (2.0 - SQRT2) / 4.0
    return d1 / psi1_sq


def test_two_site_cir_matches_closed_form(two_site_spectrum):
    cir = q.u_cir(two_site_spectrum)
    assert cir.u_cir == pytest.approx(two_site_cir_analytic(), rel=1e-13)
    assert cir.u_cir == pytest.approx(-30.009137607725254, rel=1e-12)
    assert cir.n_used == 1
    assert cir.tail_bound == 0.0


def test_zero_coupling_is_transparent(two_site_spectrum):
    r = q.effective_u1d(two_site_spectrum, 0.0)
    assert r.u1d == 0.0
    assert math.isinf(r.a)
    assert r.delta_k is None


def test_hard_core_limit(two_site_spectrum, harm_mod_spectrum):
    # U -> +-infinity: U1D -> -U_cir |psi_0(0)|^2, within 1e-4 at |U|=1e6
    for spec in (two_site_spectrum, harm_mod_spectrum):
        cir = q.u_cir(spec)
        psi0_sq = float(spec.origin_amplitudes[0]) ** 2
        target = -cir.u_cir * psi0_sq
        for u in (1e6, -1e6):
            r = q.effective_u1d(spec, u)
            assert abs(r.u1d - target) / abs(target) < 1e-4


def test_single_pole_in_coupling_scan(harm_mod_spectrum):
    cir = q.u_cir(harm_mod_spectrum)
    grid = np.linspace(-30.0, 30.0, 601)
    vals = np.array([q.effective_u1d(harm_mod_spectrum, float(u)).u1d
                     for u in grid])
    zero = int(np.argmin(np.abs(grid)))
    assert vals[zero] == 0.0
    flips = [(float(grid[i]), float(grid[i + 1]))
             for i in range(len(vals) - 1)
             if vals[i] * vals[i + 1] < 0.0]
    # the grid hits U = 0 exactly, where the curve is exactly zero, so
    # that sign change never shows as a strict flip; the only strict
    # flip is the pole
    assert len(flips) == 1
    assert flips[0][0] <= cir.u_cir <= flips[0][1]
    assert vals[zero - 1] < 0.0 < vals[zero + 1]


def test_scattering_length_linkage(harm_mod_spectrum):
    r = q.effective_u1d(harm_mod_spectrum, -2.0)
    assert r.a == pytest.approx(-2.0 / r.u1d, rel=1e-14)


def test_phase_shift_identity(harm_mod_spectrum):
    k = 0.3
    r = q.effective_u1d(harm_mod_spectrum, -2.0, k=k)
    assert math.tan(r.delta_k) == pytest.approx(
        -r.u1d / (2.0 * math.sin(k)), rel=1e-12)


def test_momentum_continuity(two_site_spectrum):
    r0 = q.effective_u1d(two_site_spectrum, -5.0, k=0.0)
    rk = q.effective_u1d(two_site_spectrum, -5.0, k=1e-4)
    assert abs(rk.u1d - r0.u1d) / abs(r0.u1d) < 1e-6


def test_cot_delta_over_k_tends_to_scattering_length(harm_mod_spectrum):
    a0 = q.effective_u1d(harm_mod_spectrum, -2.0).a
    for k, tol in ((1e-3, 1e-4), (1e-2, 1e-2)):
        r = q.effective_u1d(harm_mod_spectrum, -2.0, k=k)
        a_eff = 1.0 / (math.tan(r.delta_k) * k)
        assert abs(a_eff - a0) / abs(a0) < tol


def test_odd_channels_carry_nothing(harm_mod_spectrum):
    # slot i holds excited state i+1, so odd states fill the even slots
    r = q.effective_u1d(harm_mod_spectrum, -2.0)
    amps = np.asarray(r.channel_amplitudes)
    assert np.all(amps[0::2] == 0.0)
    assert np.any(amps[1::2] != 0.0)


def test_channel_cutoff_consistency(harm_soft_spectrum):
    full = q.u_cir(harm_soft_spectrum)
    # the first 12 channels miss the rest of the sum by no more than the
    # geometric bound on their last two nonzero terms
    energy = q.entrance_energy(harm_soft_spectrum)
    _, denoms = q.closed_channels(harm_soft_spectrum.energies[1:13], energy)
    terms = (harm_soft_spectrum.origin_amplitudes[1:13] ** 2
             / denoms).tolist()
    prev, last = [abs(t) for t in terms if t != 0.0][-2:]
    assert abs(sum(terms) - full.inverse) \
        <= single_particle._geometric_tail(last, prev)
    # 13 states on the same grid hold those 12 channels: too few for
    # the 1e-10 tail bound
    short = q.solve_transverse(
        q.Harmonic(omega=1e-2, y_max=float(harm_soft_spectrum.grid[-1])),
        n_states=13)
    with pytest.raises(q.TailTooLarge):
        q.u_cir(short)


def test_empty_channel_sum_means_no_resonance():
    # two harmonic states: the only excited state is odd, so the
    # closed-channel sum is empty and no finite-U resonance exists
    spec = q.solve_transverse(q.Harmonic(omega=1e-1), n_states=2)
    cir = q.u_cir(spec)
    assert cir.inverse == 0.0
    assert math.isinf(cir.u_cir)
    r = q.effective_u1d(spec, -3.0)
    psi0_sq = float(spec.origin_amplitudes[0]) ** 2
    assert r.u1d == pytest.approx(-3.0 * psi0_sq, rel=1e-14)


def test_near_continuum_cir_negative(micro_spectrum):
    cir = q.u_cir(micro_spectrum)
    assert cir.u_cir < 0.0
    assert cir.u_cir == pytest.approx(-2.762302199601078, rel=1e-12)


def test_near_continuum_curve_regression(micro_spectrum):
    # frozen values from the validated build (cross-checked against the
    # strip exact-diagonalization oracle at matching parameters)
    frozen = {
        -10.0: 0.3838630031132719,
        -1.0: -0.15765085091060752,
        10.0: 0.21769461103767748,
    }
    for u, want in frozen.items():
        got = q.effective_u1d(micro_spectrum, u).u1d
        assert got == pytest.approx(want, rel=1e-6)


def test_u1d_values_is_effective_u1d_per_coupling(harm_mod_spectrum):
    # one array pass over a sweep gives each point's scalar U1D exactly
    for k in (0.0, 0.3):
        cir = q.u_cir(harm_mod_spectrum, k=k)
        grid = np.linspace(-30.0, 30.0, 61)
        got = q.u1d_values(harm_mod_spectrum, grid, cir)
        want = [q.effective_u1d(harm_mod_spectrum, float(u), k=k).u1d
                for u in grid]
        assert got.tolist() == want


def test_u1d_values_reports_the_resonant_coupling(harm_mod_spectrum):
    cir = q.u_cir(harm_mod_spectrum)
    with pytest.raises(q.AtResonance) as swept:
        q.u1d_values(harm_mod_spectrum, [1.0, cir.u_cir, -1.0], cir)
    with pytest.raises(q.AtResonance) as alone:
        q.effective_u1d(harm_mod_spectrum, cir.u_cir)
    assert str(swept.value) == str(alone.value)
    assert f"U = {cir.u_cir:.12g} sits" in str(swept.value)
