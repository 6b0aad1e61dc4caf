"""Traps with a scattering continuum (finite-range wells): phase
shifts, density of states, and the continuum-integrated channel sum."""

import math

import numpy as np
import pytest

import q1dscatter as q
from q1dscatter import continuum


def test_delta_well_phase_identity():
    # tan(theta_q) = V0 / (2 J sin q) for the single-defect well
    for v0 in (0.5, 1.0, 3.0):
        for qq in (0.3, math.pi / 4, 1.5, 2.8):
            st = q.scattering_state(q.DeltaWell(v0=v0), qq)
            assert math.tan(st.theta) == pytest.approx(
                v0 / (2.0 * math.sin(qq)), rel=1e-12)


def test_origin_weight_is_cos_squared_theta():
    for qq in (0.2, 0.9, 2.0):
        st = q.scattering_state(q.DeltaWell(v0=1.0), qq)
        assert st.phi0 ** 2 == pytest.approx(math.cos(st.theta) ** 2,
                                             rel=1e-12)


def test_phase_derivative_matches_finite_difference():
    spec = q.DeltaWell(v0=1.0)
    q0 = math.pi / 4
    h = 1e-6
    fd = (q.scattering_state(spec, q0 + h).theta
          - q.scattering_state(spec, q0 - h).theta) / (2.0 * h)
    st = q.scattering_state(spec, q0)
    assert st.dtheta_dq == pytest.approx(fd, abs=1e-8)


def test_density_of_states_excess():
    # g(q) - L/pi equals theta'(q)/pi
    spec = q.DeltaWell(v0=1.0)
    st = q.scattering_state(spec, math.pi / 4)
    box = 5000.0
    excess = q.density_of_states(st, box) - box / math.pi
    assert excess == pytest.approx(st.dtheta_dq / math.pi, rel=1e-12)


def test_quadrature_methods_agree(box_channel_sum):
    # the adaptive quadrature against the box sum of the same one-site
    # well; at k = 0.3 the continuum channel of a well of depth 0.5 or
    # less is open
    for v0, ks in ((0.1, (0.0,)), (0.5, (0.0,)), (1.0, (0.0, 0.3)),
                   (5.0, (0.0, 0.3)), (10.0, (0.0, 0.3))):
        for k in ks:
            inverse = q.u_cir_with_continuum(q.DeltaWell(v0=v0), k=k).inverse
            box = box_channel_sum(q.Tabulated.from_mapping({0: 0.0}, v0), k)
            assert abs(inverse - box) <= 1e-12 * abs(box)
    assert q.continuum_sum(q.DeltaWell(v0=1.0)).quadrature_error < 1e-8


def test_channel_sum_finite_and_negative_for_all_depths():
    for v0 in np.geomspace(0.1, 10.0, 12):
        s = q.continuum_sum(q.DeltaWell(v0=float(v0)))
        assert math.isfinite(s.value)
        assert s.value < 0.0
        cir = q.u_cir_with_continuum(q.DeltaWell(v0=float(v0)))
        assert math.isfinite(cir.u_cir)
        assert cir.u_cir < 0.0


def test_cir_decreases_with_well_depth():
    v0s = np.geomspace(0.1, 10.0, 12)
    cirs = [q.u_cir_with_continuum(q.DeltaWell(v0=float(v))).u_cir
            for v in v0s]
    assert all(b < a for a, b in zip(cirs, cirs[1:]))


def test_presolved_spectrum_is_reused(monkeypatch):
    # a bound sector passed in is summed as given, and solved no more;
    # the delta well's box solve matches its closed-form entrance energy
    well = _cavity(16.0)
    spectrum = q.solve_transverse(well)
    fresh = [q.u_cir_with_continuum(well, k=k) for k in (0.0, 0.3)]
    delta = q.DeltaWell(v0=1.0)
    delta_spectrum = q.solve_transverse(delta)

    def solved_again(*args, **kwargs):
        raise AssertionError("bound sector solved again")

    monkeypatch.setattr(continuum, "solve_transverse", solved_again)
    assert [q.u_cir_with_continuum(well, k=k, spectrum=spectrum)
            for k in (0.0, 0.3)] == fresh
    boxed = q.u_cir_with_continuum(delta, spectrum=delta_spectrum)
    assert boxed.n_used == 0
    assert boxed.inverse == pytest.approx(
        q.u_cir_with_continuum(delta).inverse, abs=1e-14)


def test_cir_frozen_value():
    cir = q.u_cir_with_continuum(q.DeltaWell(v0=1.0))
    assert cir.u_cir == pytest.approx(-5.45116707558226, rel=1e-10)


def test_tabulated_asymptote_reproduces_delta_well():
    # a single-site defect described as a tabulated potential with a
    # constant asymptote is the same physics as the closed-form well
    tab = q.Tabulated.from_mapping({0: 0.0}, 1.0)
    for qq in (0.4, 1.1, 2.3):
        st_t = q.scattering_state(tab, qq)
        st_d = q.scattering_state(q.DeltaWell(v0=1.0), qq)
        assert st_t.theta == pytest.approx(st_d.theta, abs=1e-10)
        assert st_t.phi0 == pytest.approx(st_d.phi0, abs=1e-10)
    s_t = q.continuum_sum(tab)
    s_d = q.continuum_sum(q.DeltaWell(v0=1.0))
    assert s_t.value == pytest.approx(s_d.value, rel=1e-8)


def _cavity(barrier):
    """A dip inside a cavity walled by two sites of height `barrier`."""
    inner = {-3: 0.8, -2: 0.8, -1: 0.8, 0: -1.5, 1: 0.8, 2: 0.8, 3: 0.8}
    return q.Tabulated.from_mapping({-4: barrier, **inner, 4: barrier}, 1.0)


@pytest.mark.parametrize("k", [0.0, 0.3])
@pytest.mark.parametrize("well", [
    q.Tabulated.from_mapping({0: 0.0}, 1.0),
    q.Tabulated.from_mapping({-1: 0.5, 0: -0.9, 1: 0.5}, 1.0),
    _cavity(16.0),
    _cavity(64.0),
], ids=["zero-range", "dip", "cavity", "narrow-cavity"])
def test_continuum_matches_finite_box_channel_sum(well, k, box_channel_sum):
    # bound sum plus S(k) is the box sum in the infinite-box limit; the
    # cavity's two bound states above the band add -2.5e-11 to the box,
    # and walls of 64 narrow its quasi-bound peak to a half-width of
    # 2.3e-5 in q, which the adaptive panels must still find
    inverse = q.u_cir_with_continuum(well, k=k).inverse
    assert abs(inverse - box_channel_sum(well, k)) < 1e-9


@pytest.mark.parametrize("depth", [3.05, 3.2])
def test_default_solve_holds_every_bound_state(depth, box_channel_sum):
    # the width-3 well binds a third state at E = -1.013 (depth 3.05) or
    # -1.103 (3.2), just below the band bottom -1.0; the first box holds
    # only two, and leaving the third out of the bound sum moves 1/U_CIR
    # by 0.067 or 0.105
    well = q.Tabulated.from_mapping({y: 1.0 - depth for y in (-1, 0, 1)},
                                    1.0)
    assert q.solve_transverse(well).n_states == 3
    inverse = q.u_cir_with_continuum(well).inverse
    assert abs(inverse - box_channel_sum(well, 0.0)) < 1e-9


def test_tabulated_well_is_solved_once(monkeypatch):
    well = _cavity(16.0)
    # the bound sector solved outside and passed in
    two_solves = q.u_cir_with_continuum(well,
                                        spectrum=q.solve_transverse(well))
    solve = continuum.solve_transverse
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(continuum, "solve_transverse", counted)
    cir = q.u_cir_with_continuum(well)
    assert len(calls) == 1
    assert cir.u_cir == two_solves.u_cir == -17.91064853518658
    assert cir.inverse == two_solves.inverse


@pytest.mark.xfail(strict=True, reason="bound states above the band (here "
                   "two at E = 4.59) are left out of the bound sum")
def test_bound_states_above_the_band_enter_the_channel_sum(box_channel_sum):
    well = _cavity(4.0)
    inverse = q.u_cir_with_continuum(well).inverse
    assert abs(inverse - box_channel_sum(well, 0.0)) < 1e-9


@pytest.mark.parametrize("qq", [1e-6, 1e-9])
def test_scattering_state_next_to_the_band_bottom(qq):
    # the zero-energy solution beyond this well is 1 - |y|, with a node
    # on the matching site y = 1: theta_q = pi/2 - q + O(q^3), and
    # psi(2) = -1 = -sin(q) / phi_q(0)
    well = q.Tabulated.from_mapping({-1: 0.5, 0: -1.0, 1: 0.5}, 1.0)
    st = q.scattering_state(well, qq)
    assert st.dtheta_dq == pytest.approx(-1.0, abs=1e-6)
    assert st.phi0 == pytest.approx(math.sin(qq), rel=1e-6)
    assert math.isfinite(q.continuum_sum(well).value)
