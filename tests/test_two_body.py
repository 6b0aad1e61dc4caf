"""Two-particle scattering with a non-separable interaction: overlap
kernel, effective coupling, Born series, resonance report."""

import math
import warnings

import numpy as np
import pytest

import q1dscatter as q
from q1dscatter.single_particle import scattering_length


# ------------------------------------------------------------------- kernel


def test_two_site_entrance_weight_exact(two_site_kernel):
    # sum of the fourth powers of the two-site ground state: 3/4
    assert two_site_kernel.r_entrance == pytest.approx(0.75, abs=1e-12)


def test_two_site_channels_and_denominators(two_site_kernel):
    ker = two_site_kernel
    assert [(c.n1, c.n2) for c in ker.channels] == [(0, 1), (1, 1)]
    den = [float(d) for d in ker.denominators]
    assert den[0] == pytest.approx(-5.534204278662789, rel=1e-12)
    assert den[1] == pytest.approx(-8.789472907742478, rel=1e-12)


def test_kernel_symmetric(two_site_kernel, harm_mod_kernel):
    for ker in (two_site_kernel, harm_mod_kernel):
        r = np.asarray(ker.r_matrix)
        assert np.max(np.abs(r - r.T)) < 1e-12


def test_channel_selection_rules(harm_mod_kernel):
    chans = harm_mod_kernel.channels
    assert all(c.n1 <= c.n2 for c in chans)
    assert (0, 0) not in [(c.n1, c.n2) for c in chans]
    # symmetric trap: only even-parity pair states couple
    assert all((c.n1 + c.n2) % 2 == 0 for c in chans)
    for c in chans:
        assert 0.0 < c.alpha < 1.0
        assert c.denominator < 0.0


ASYMMETRIC_TABLE = q.Tabulated.from_mapping(
    {-2: 0.0, -1: 0.3, 0: 0.0, 1: 0.9, 2: 0.1}, None)


def test_asymmetric_trap_keeps_all_pairs():
    ker = q.build_kernel(q.solve_transverse(ASYMMETRIC_TABLE))
    assert any((c.n1 + c.n2) % 2 == 1 for c in ker.channels)
    r = np.asarray(ker.r_matrix)
    assert np.max(np.abs(r - r.T)) < 1e-12


def test_pair_hopping():
    assert q.pair_hopping(0.0) == pytest.approx(2.0, abs=1e-15)
    assert q.pair_hopping(math.pi / 2) == pytest.approx(math.sqrt(2.0),
                                                        rel=1e-14)
    ker = q.build_kernel(q.solve_transverse(q.TwoSite(v=1.0)),
                         total_momentum=math.pi / 2)
    assert ker.j_k == pytest.approx(math.sqrt(2.0), rel=1e-14)


# ------------------------------------------------------------ direct solver


def test_effective_coupling_frozen_values(two_site_kernel):
    for u, want in ((-5.0, -4.792003581547491),
                    (-10.0, -11.144249929553995),
                    (5.0, 3.1399611961396867)):
        r = q.solve_scattering_length(two_site_kernel, u)
        assert r.u1d == pytest.approx(want, rel=1e-10)
        assert r.a == pytest.approx(-2.0 * two_site_kernel.j_k / r.u1d,
                                    rel=1e-13)
        assert r.i00 == pytest.approx(r.u1d / u, rel=1e-13)


def test_entrance_amplitude_matches_direct_solve(two_site_kernel):
    direct = q.solve_scattering_length(two_site_kernel, -5.0)
    assert two_site_kernel.entrance_amplitude(-5.0) == pytest.approx(
        direct.i00, abs=1e-12)


def test_curve_helper_matches_pointwise(two_site_kernel):
    grid = np.linspace(-20.0, -12.0, 7)
    curve = q.u1d_curve(two_site_kernel, grid)
    for u, val in zip(grid, curve):
        r = q.solve_scattering_length(two_site_kernel, float(u))
        assert val == pytest.approx(r.u1d, rel=1e-13)


# ------------------------------------------------------------------- born


def test_born_series_converges_inside_radius(two_site_kernel):
    direct = q.solve_scattering_length(two_site_kernel, -3.0)
    born = q.born_series(two_site_kernel, -3.0, 100)
    assert born.converged
    assert abs(born.i00 - direct.i00) / abs(direct.i00) < 1e-8
    assert len(born.partial_sums) == 100


def test_born_series_flags_divergence(two_site_kernel):
    # beyond the smallest-|U| resonance (-7.215) the series diverges
    with pytest.raises(q.Diverging):
        q.born_series(two_site_kernel, -8.0, 100)


# ---------------------------------------------------------------- finite k


def test_finite_momentum_continuity(two_site_kernel):
    zero = q.solve_scattering_length(two_site_kernel, -5.0)
    fk = q.solve_finite_k(two_site_kernel, -5.0, 1e-3)
    assert abs(fk.u1d - zero.u1d) / abs(zero.u1d) < 1e-6
    assert fk.a is None  # scattering length is a zero-momentum object


def test_finite_momentum_phase_linkage(two_site_kernel):
    zero = q.solve_scattering_length(two_site_kernel, -5.0)
    for k, tol in ((1e-3, 1e-5), (1e-2, 1e-3)):
        fk = q.solve_finite_k(two_site_kernel, -5.0, k)
        a_eff = 1.0 / (math.tan(fk.delta_k) * k)
        assert abs(a_eff - zero.a) / abs(zero.a) < tol


# -------------------------------------------------------------- resonances


def test_two_site_resonance_report(two_site_report):
    rep = two_site_report
    vis = rep.visible_resonances
    assert len(vis) == 2
    assert vis[0].u == pytest.approx(-26.966192414218135, rel=1e-11)
    assert vis[0].kind == "broad"
    assert vis[0].width == pytest.approx(0.9752406748416874, rel=1e-9)
    assert vis[1].u == pytest.approx(-7.215366237255181, rel=1e-11)
    assert vis[1].kind == "sharp"
    assert vis[1].width == pytest.approx(0.02475932515831245, rel=1e-9)
    assert [pytest.approx(-7.348629609677104, rel=1e-11)] == \
        list(rep.zero_crossings)


def test_visible_subset_consistent(harm_mod_kernel):
    rep = q.locate_resonances(harm_mod_kernel, (-30.0, 0.0))
    assert list(rep.visible_resonances) == [
        r for r in rep.resonances if r.visible]
    assert all(r.width > 1e-5 for r in rep.visible_resonances)
    assert all(rep.window[0] <= r.u <= rep.window[1] for r in rep.resonances)


def test_moderate_trap_frozen_report(harm_mod_kernel):
    rep = q.locate_resonances(harm_mod_kernel, (-30.0, 0.0))
    vis = rep.visible_resonances
    want = [(-8.286470998861734, "broad"), (-7.602654642028646, "sharp"),
            (-6.431842205219642, "sharp"), (-5.602084019308686, "sharp")]
    assert len(vis) == len(want)
    for r, (u, kind) in zip(vis, want):
        assert r.u == pytest.approx(u, rel=1e-10)
        assert r.kind == kind
    # 30-digit witness: tests/reference/moderate_trap_mp.py
    crossings = [-11.3110692208491288, -9.27740103631851064,
                 -7.60331900759184753, -6.43348743654498989,
                 -5.61101670060977664]
    assert np.allclose(rep.zero_crossings, crossings, rtol=1e-10)


def test_convergence_ladder_moderate_trap(harm_mod_kernel):
    rep = q.converged_resonances(q.Harmonic(omega=1e-1), 21)
    assert rep.converged
    assert rep.n_states == 41
    base = q.locate_resonances(harm_mod_kernel, (-30.0, 0.0))
    assert len(rep.visible_resonances) == len(base.visible_resonances)
    for a, b in zip(rep.visible_resonances, base.visible_resonances):
        assert a.u == pytest.approx(b.u, rel=1e-6)


# --------------------------------------------- channel-space witness


def _dense_channel_solve(ker, u):
    """The channel-space solve the collision-diagonal form replaced:
    ``(1 - U R D^-1) I = v`` at size ``n_channels``."""
    d, v = ker.denominators, ker.entrance_column
    lhs = np.eye(ker.n_channels) - u * ker.r_matrix / d[None, :]
    i_vec = np.linalg.solve(lhs, v)
    return i_vec, ker.r_entrance + u * float((v / d) @ i_vec)


def _dense_visible_poles(ker, window):
    """Visible poles from ``eigh`` of ``|D|^-1/2 R |D|^-1/2``."""
    scale = 1.0 / np.sqrt(-ker.denominators)
    mu, w = np.linalg.eigh(ker.r_matrix * np.outer(scale, scale))
    c2 = (w.T @ (scale * ker.entrance_column)) ** 2
    poles = -1.0 / mu[mu != 0.0]
    width = c2[mu != 0.0] * np.abs(poles) / ker.r_entrance
    keep = ((window[0] <= poles) & (poles <= window[1])
            & (width > q.two_body.VISIBILITY_FLOOR))
    return np.sort(poles[keep])


_WITNESS_KERNELS = {
    "two-site": lambda fixture: fixture("two_site_kernel"),
    "harmonic-0.1": lambda fixture: fixture("harm_mod_kernel"),
    "asymmetric-table": lambda fixture: q.build_kernel(
        q.solve_transverse(ASYMMETRIC_TABLE)),
    "table-9-site-K-pi/3": lambda fixture: q.build_kernel(
        q.solve_transverse(q.Tabulated.from_mapping(
            {y: 0.1 * y * y for y in range(-4, 5)}, None)),
        total_momentum=math.pi / 3),
    "harmonic-1e-3-n41": lambda fixture: q.build_kernel(
        fixture("micro_spectrum"), n_cut=41),
}


@pytest.mark.parametrize("name", list(_WITNESS_KERNELS))
def test_collision_diagonal_matches_channel_space(name, request):
    ker = _WITNESS_KERNELS[name](request.getfixturevalue)
    for u in (-2.5, -1.0, 0.5, 4.0):
        i_dense, i00_dense = _dense_channel_solve(ker, u)
        r = q.solve_scattering_length(ker, u)
        assert abs(r.i00 - i00_dense) <= 1e-12 * abs(i00_dense)
        assert np.max(np.abs(r.i_vector - i_dense)) \
            <= 1e-12 * np.max(np.abs(i_dense))
    window = (-30.0, 0.0)
    poles = [res.u for res in
             q.locate_resonances(ker, window).visible_resonances]
    dense = _dense_visible_poles(ker, window)
    assert len(poles) == len(dense) > 0
    assert np.all(np.abs(np.array(poles) - dense) <= 1e-12 * np.abs(dense))


@pytest.mark.parametrize("u", [np.float64(5e-324), np.float64(-1e-322)])
def test_subnormal_coupling_gives_infinite_a_quietly(u, two_site_kernel,
                                                     two_site_spectrum):
    """a = -2J/U1D overflows for a subnormal U1D: every site returns the
    signed infinity (+inf at U1D = 0) and no numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = [q.solve_scattering_length(two_site_kernel, u),
                   q.born_series(two_site_kernel, u, 3),
                   q.effective_u1d(two_site_spectrum, u)]
        assert scattering_length(-2.0) == q.J
        assert scattering_length(0.0) == math.inf
    for r in results:
        expected = math.inf if r.u1d == 0.0 \
            else -math.copysign(math.inf, r.u1d)
        assert r.a == expected
    assert any(r.u1d != 0.0 for r in results)
