"""Single-particle effective 1D coupling, scattering length, phase
shift, and the confinement-induced resonance position."""

import math

import numpy as np
import pytest

import q1dscatter as q

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


def test_pinned_basis_matches_the_complete_basis(micro_spectrum):
    # fig1's 121 states on the 321-site grid against every state of the
    # auto-sized grids: the channels beyond 121 are spent to 1 ulp
    rungs = q.u_cir_complete(q.Harmonic(omega=1e-3))
    complete = rungs[-1][1]
    assert [len(s.grid) for s, _ in rungs] == [81, 161]
    assert complete.n_used == 160
    pinned = q.u_cir(micro_spectrum)
    assert pinned.n_used == 120
    assert abs(pinned.u_cir - complete.u_cir) <= 1e-15 * abs(complete.u_cir)
    # the array sum against a correctly rounded one: no term is
    # positive, so pairwise summation is off by at most log2(120) ulps
    _, denoms = q.closed_channels(micro_spectrum.energies[1:],
                                  q.entrance_energy(micro_spectrum))
    exact = math.fsum(micro_spectrum.origin_amplitudes[1:] ** 2 / denoms)
    assert abs(pinned.inverse - exact) <= 7 * np.finfo(float).eps \
        * abs(exact)


def test_complete_basis_of_a_fixed_grid():
    # a finite trap and a set half-width each have one grid, summed whole
    (spec, cir), = q.u_cir_complete(q.TwoSite(v=1.0))
    assert spec.complete and cir.u_cir == q.u_cir(spec).u_cir
    assert cir.u_cir == pytest.approx(two_site_cir_analytic(), rel=1e-13)
    (spec, cir), = q.u_cir_complete(q.Harmonic(omega=1e-1, y_max=40))
    assert spec.complete and spec.n_states == 81 and cir.n_used == 80
    with pytest.raises(q.ConfigError):
        q.u_cir_complete(q.DeltaWell(v0=1.0))


def test_auto_grid_stops_at_half_width_2560(monkeypatch):
    """Every state of a grid keeps its eigenvector, about 36 B x sites^2:
    the auto grid stops at half-width 2,560 (5,121 sites, 0.94 GB), not
    at 40,960 (240 GB at 81,921 sites).  A stand-in basis whose 1/U_CIR
    never settles records the half-widths asked for."""
    half_widths = []

    def never_settles(grid, v):
        half_widths.append(int(grid[-1]))
        return q.solve_transverse(q.TwoSite(v=float(grid[-1])))

    monkeypatch.setattr(q.single_particle, "_complete_spectrum",
                        never_settles)
    with pytest.raises(q.NoConvergence, match="1280 and 2560"):
        q.u_cir_complete(q.Harmonic(omega=1e-12))
    assert half_widths == [40 << i for i in range(7)]


def test_complete_basis_grids_agree_to_1e_12():
    # at omega = 3e-4 the 81- and 161-site grids differ by 4.9e-12
    rungs = q.u_cir_complete(q.Harmonic(omega=3e-4))
    assert [len(s.grid) for s, _ in rungs] == [81, 161, 321]
    last, before = rungs[-1][1].inverse, rungs[-2][1].inverse
    assert abs(last - before) <= 1e-12 * abs(last)


def test_continuum_limit_slope(waveguide_match):
    """As omega -> 0 the lattice approaches the continuum waveguide, where
    1/|U_CIR| rises by ln 10 / (8 pi J) per decade of omega; the lattice
    correction shrinks with omega, so the local slopes rise toward it
    from below (measured 0.09120, then 0.09136: 0.29% low).

    The intercept too: the closed form (README, "The continuum limit")
    is ``1/|U_CIR| = -ln(omega)/(8 pi J) + C1`` with
    ``C1 = (ln sqrt(32) + gamma/2 + A/2 - 2 ln 2) / (2 pi J)
    = 0.0857772441436``.  The gaps above it (measured 5.54e-4, 3.36e-4,
    2.11e-4) are positive and shrink, and the model
    ``c + sqrt(omega) (a ln(1/omega) + b)`` through them leaves
    ``c = -1.87e-9``: no offset beyond that lattice correction."""
    omegas = (1e-4, 3e-5, 1e-5)
    rungs = [q.u_cir_complete(q.Harmonic(omega=w)) for w in omegas]
    # at 1e-5 the 161- and 321-site grids still differ by 9.3e-9
    assert [len(s.grid) for s, _ in rungs[-1]] == [81, 161, 321, 641]
    inverse = [-r[-1][1].inverse for r in rungs]
    slopes = [(b - a) / math.log10(wa / wb) for a, b, wa, wb in
              zip(inverse, inverse[1:], omegas, omegas[1:])]
    closed_form = math.log(10.0) / (8.0 * math.pi * q.J)
    assert slopes[0] < slopes[1] < closed_form
    assert slopes[1] >= (1.0 - 5e-3) * closed_form

    c1 = (0.5 * math.log(32.0) + waveguide_match) / (2.0 * math.pi * q.J)
    assert c1 == pytest.approx(0.0857772441436, abs=1e-12)
    gaps = [i + math.log(w) / (8.0 * math.pi * q.J) - c1
            for i, w in zip(inverse, omegas)]
    assert 0.0 < gaps[2] < gaps[1] < gaps[0]
    model = [[1.0, math.sqrt(w) * math.log(1.0 / w), math.sqrt(w)]
             for w in omegas]
    assert abs(np.linalg.solve(model, gaps)[0]) <= 1e-8


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


@pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf])
def test_non_finite_coupling_refused(two_site_spectrum, u):
    # effective_u1d and u1d_values refuse a non-finite coupling by name
    # instead of returning U1D = a = NaN
    with pytest.raises(q.ConfigError, match=f"^u must be finite, got {u}$"):
        q.effective_u1d(two_site_spectrum, u)
    cir = q.u_cir(two_site_spectrum)
    with pytest.raises(q.ConfigError,
                       match=f"^us must be finite, got {u}$"):
        q.u1d_values(two_site_spectrum, [-1.0, u], cir)
