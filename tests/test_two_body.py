"""Two-particle scattering with a non-separable interaction: overlap
kernel, effective coupling, Born series, resonance report."""

import dataclasses
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import q1dscatter as q
from q1dscatter import traps
from q1dscatter.single_particle import scattering_length


# ------------------------------------------------------------------- kernel


def test_two_site_entrance_weight_exact(two_site_kernel):
    # sum of the fourth powers of the two-site ground state: 3/4
    assert two_site_kernel.r_entrance == pytest.approx(0.75, abs=1e-12)


def test_two_site_channels_and_denominators(two_site_kernel):
    ker = two_site_kernel
    assert ker.pairs.tolist() == [[0, 1], [1, 1]]
    den = [float(d) for d in ker.denominators]
    assert den[0] == pytest.approx(-5.534204278662789, rel=1e-12)
    assert den[1] == pytest.approx(-8.789472907742478, rel=1e-12)


ASYMMETRIC_TABLE = q.Tabulated.from_mapping(
    {-2: 0.0, -1: 0.3, 0: 0.0, 1: 0.9, 2: 0.1}, None)


def test_kernel_symmetric(two_site_kernel, harm_mod_kernel):
    """``H`` is exactly symmetric however the kernel was made: built on
    a mirror or an asymmetric trap, grown, or moved in energy."""
    asymmetric = q.build_kernel(q.solve_transverse(ASYMMETRIC_TABLE))
    trap = q.Harmonic(omega=1e-3, y_max=160)
    base = q.build_kernel(q.solve_transverse(trap, n_states=41))
    grown = q.two_body._grow(base, q.solve_transverse(trap, n_states=61))
    for ker in (two_site_kernel, harm_mod_kernel, asymmetric, grown,
                harm_mod_kernel.at_relative_momentum(0.01),
                asymmetric.at_relative_momentum(0.3)):
        assert np.array_equal(ker.green, ker.green.T)


def test_channel_selection_rules(harm_mod_kernel):
    ker = harm_mod_kernel
    n1, n2 = ker.pairs.T
    assert np.all(n1 <= n2)
    assert not np.any((n1 == 0) & (n2 == 0))
    # symmetric trap: only even-parity pair states couple
    assert np.all((n1 + n2) % 2 == 0)
    alphas, denominators = q.closed_channels(ker.channel_energies,
                                             ker.energy, ker.j_k)
    assert np.all((0.0 < alphas) & (alphas < 1.0))
    assert np.array_equal(denominators, ker.denominators)
    assert np.all(ker.denominators < 0.0)


def test_asymmetric_trap_keeps_all_pairs():
    ker = q.build_kernel(q.solve_transverse(ASYMMETRIC_TABLE))
    assert np.any(ker.pairs.sum(axis=1) % 2 == 1)
    n = ker.spectrum.n_states
    assert ker.n_channels == n * (n + 1) // 2 - 1
    assert np.array_equal(ker.green, ker.green.T)


def test_array_results_compare_by_identity(two_site_spectrum,
                                           two_site_kernel, two_site_report):
    """Results with ndarray fields compare and hash by identity: a copy
    is unequal without raising, and ``replace`` still copies.  The
    report and the trap specs keep value equality."""
    results = [two_site_spectrum, two_site_kernel,
               q.solve_scattering_length(two_site_kernel, -2.0),
               q.effective_u1d(two_site_spectrum, -2.0)]
    for result in results:
        copy = dataclasses.replace(result)
        assert result == result
        assert not result == copy
        assert result != copy
        assert hash(result) == hash(result)
        assert len({result, copy}) == 2
    assert two_site_report == replace(two_site_report)
    assert q.Harmonic(omega=0.1) == q.Harmonic(omega=0.1)
    assert hash(q.TwoSite(v=1.0)) == hash(q.TwoSite(v=1.0))


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


def test_entrance_amplitude_matches_direct_solve(two_site_kernel,
                                                 dense_collision_solve):
    _, i00 = dense_collision_solve(two_site_kernel, -5.0)
    assert two_site_kernel.entrance_amplitude(-5.0) == pytest.approx(
        i00, abs=1e-12)


def test_curve_helper_matches_pointwise(two_site_kernel,
                                        dense_collision_solve):
    grid = np.linspace(-20.0, -12.0, 7)
    curve = q.u1d_curve(two_site_kernel, grid)
    for u, val in zip(grid, curve):
        _, i00 = dense_collision_solve(two_site_kernel, float(u))
        assert val == pytest.approx(float(u) * i00, rel=1e-13)


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


@pytest.mark.parametrize("shift", [1, 3])
def test_born_radius_ignores_decoupled_poles(shift):
    """The 13-site table V = 0.1 y^2 shifted off its mirror keeps the
    odd pairs, whose top eigenvalue of H (0.2136) the entrance row never
    reaches; the radius is that of the weighted poles (max mu 0.1785),
    so the shifted series at U = -5 is the mirror table's."""
    def kernel(s):
        return q.build_kernel(q.solve_transverse(q.Tabulated.from_mapping(
            {y + s: 0.1 * y * y for y in range(-6, 7)}, None)))

    mirror, shifted = kernel(0), kernel(shift)
    want = np.array(q.born_series(mirror, -5.0, 40).partial_sums)
    got = np.array(q.born_series(shifted, -5.0, 40).partial_sums)
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
    with pytest.raises(q.Diverging):
        q.born_series(shifted, -5.7, 40)


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


def test_kernel_at_k_is_the_dense_green_function_at_e_k(harm_mod_spectrum,
                                                        collision_rows):
    """``build_kernel(spectrum, K, k)`` holds ``H = S^T |D|^{-1} S`` at
    ``E_k = -2 J_K cos k + 2 E_0``, formed densely here with
    ``D_b = E_k + 2 J_K alpha_b - E_b`` and ``alpha_b`` the small root of
    ``alpha^2 - g alpha + 1``, ``g = (E_b - E_k) / J_K``.  Moving a
    threshold kernel to ``k`` gives the same ``H`` bit for bit, a kernel
    already at ``E_k`` is returned as is, and ``k`` outside ``[0, pi)``
    is refused."""
    asymmetric = q.solve_transverse(ASYMMETRIC_TABLE)
    for spectrum, total_momentum, k in ((harm_mod_spectrum, 0.0, 0.05),
                                        (harm_mod_spectrum, 1.0, 0.3),
                                        (asymmetric, 0.5, 0.3)):
        ker = q.build_kernel(spectrum, total_momentum, k)
        j_k = 2.0 * q.J * math.cos(0.5 * total_momentum)
        e_k = -2.0 * j_k * math.cos(k) + 2.0 * float(spectrum.energies[0])
        assert ker.energy == e_k
        g = (ker.channel_energies - e_k) / j_k
        alpha = 0.5 * (g - np.sqrt(g * g - 4.0))
        rows = collision_rows(ker) / np.sqrt(
            ker.channel_energies - e_k - 2.0 * j_k * alpha)[:, None]
        assert np.allclose(ker.green, rows.T @ rows, rtol=0.0,
                           atol=1e-12 * np.abs(ker.green).max())
        moved = q.build_kernel(spectrum, total_momentum)
        assert np.array_equal(moved.at_relative_momentum(k).green, ker.green)
        assert ker.at_relative_momentum(k) is ker
    for bad in (math.pi, -0.1, math.nan):
        with pytest.raises(q.ConfigError, match="relative quasi-momentum"):
            q.build_kernel(harm_mod_spectrum, 0.0, bad)


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


@pytest.mark.parametrize("y_max", [120, 160])
def test_visibility_floor_separates_the_small_omega_poles(y_max):
    """At omega = 3e-4 the complete hard-wall basis holds a sharp pole
    of width 5.87e-5, visible, next to the broad one, and another of
    width 1.36e-6 beside it, invisible: the widths bracket
    ``VISIBILITY_FLOOR`` within a decade on each side.  y_max = 120
    (241 states) and 160 (321 states) agree to 9 digits, the second
    being the first's witness."""
    (spectrum, _), = q.u_cir_complete(q.Harmonic(omega=3e-4, y_max=y_max))
    assert spectrum.n_states == 2 * y_max + 1
    rep = q.locate_resonances(q.build_kernel(spectrum))
    broad, sharp, faint = (min(rep.resonances, key=lambda r: abs(r.u - u))
                           for u in (-4.304010263, -3.539852434,
                                     -4.308858268))
    assert broad.u == pytest.approx(-4.304010263, rel=1e-9)
    assert (broad.kind, broad.visible) == ("broad", True)
    assert sharp.u == pytest.approx(-3.539852434, rel=1e-9)
    assert sharp.width == pytest.approx(5.87e-5, rel=1e-3)
    assert (sharp.kind, sharp.visible) == ("sharp", True)
    assert faint.u == pytest.approx(-4.308858268, rel=1e-9)
    assert faint.width == pytest.approx(1.36e-6, rel=1e-2)
    assert not faint.visible


def test_convergence_ladder_moderate_trap(harm_mod_kernel):
    rep = q.converged_resonances(q.Harmonic(omega=1e-1), 21)
    assert rep.converged
    assert rep.n_states == 41
    base = q.locate_resonances(harm_mod_kernel, (-30.0, 0.0))
    assert len(rep.visible_resonances) == len(base.visible_resonances)
    for a, b in zip(rep.visible_resonances, base.visible_resonances):
        assert a.u == pytest.approx(b.u, rel=1e-6)


NINE_SITE_TABLE = q.Tabulated.from_mapping(
    {y: 0.1 * y * y for y in range(-4, 5)}, None)


def _ladder_spectra(monkeypatch, trap, n_start):
    """The report of the ladder on `trap` from `n_start`, and the
    spectrum of every rung, in order, as its kernel was built or
    grown."""
    spectra = []
    build, grow = q.two_body.build_kernel, q.two_body._grow

    def built(spectrum, *args):
        spectra.append(spectrum)
        return build(spectrum, *args)

    def grown(kernel, spectrum):
        spectra.append(spectrum)
        return grow(kernel, spectrum)

    monkeypatch.setattr(q.two_body, "build_kernel", built)
    monkeypatch.setattr(q.two_body, "_grow", grown)
    rep = q.converged_resonances(trap, n_start)
    monkeypatch.undo()
    assert tuple(s.n_states for s in spectra) == rep.rungs
    return rep, spectra


def _assert_same_states(got, want):
    for field in ("energies", "wavefunctions", "grid"):
        assert np.array_equal(getattr(got, field), getattr(want, field))
    assert (got.parities, got.symmetric) == (want.parities, want.symmetric)


def test_grown_kernel_matches_fresh_build(collision_rows):
    """A kernel grown shell by shell holds the channels of a fresh
    build, the same pair rows and denominators, and H to the rounding
    of a sum whose order the blocks of rows set."""
    trap = q.Harmonic(omega=1e-3, y_max=160)
    kernel = q.build_kernel(q.solve_transverse(trap, n_states=41))
    for nc in (61, 81, 101, 121):
        spectrum = q.solve_transverse(trap, n_states=nc)
        kernel = q.two_body._grow(kernel, spectrum)
        fresh = q.build_kernel(spectrum)
        assert kernel.spectrum.n_states == nc
        # fresh channels are row-major; grown ones come shell by shell
        order = np.lexsort((kernel.pairs[:, 1], kernel.pairs[:, 0]))
        assert np.array_equal(kernel.pairs[order], fresh.pairs)
        assert np.array_equal(kernel.denominators[order], fresh.denominators)
        assert np.array_equal(collision_rows(kernel)[order],
                              collision_rows(fresh))
        scale = np.max(np.abs(fresh.green))
        assert np.max(np.abs(kernel.green - fresh.green)) <= 1e-14 * scale
    assert q.converged_resonances(trap, 41).rungs == (41, 61, 81, 101, 121)


def test_kernel_holds_no_pair_rows(micro_spectrum):
    """fig4's 121-state rung has 3,720 channels on 161 collision sites,
    so its pair rows S would take 4.8 MB, and a scaled copy as much
    again.  The kernel forms S a block of channels at a time and keeps
    none of it: building it peaks under 6 MB, and no array it holds has
    as many entries as S."""
    tracemalloc.start()
    try:
        ker = q.build_kernel(micro_spectrum)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (ker.n_channels, ker.collision_sites) == (3720, 161)
    assert peak <= 6e6
    s_size = ker.n_channels * ker.collision_sites
    for field in dataclasses.fields(ker):
        value = getattr(ker, field.name)
        if isinstance(value, np.ndarray):
            assert value.size < s_size, field.name


def _triangle_pair_channels(spectrum, n_lo, n_cut):
    """The pair channels as first enumerated: the whole upper triangle
    of ``n_cut`` states, masked down to the shells ``n2 >= n_lo``."""
    n1, n2 = np.triu_indices(n_cut)
    keep = n2 >= n_lo
    if spectrum.symmetric:
        odd = np.array([p == "odd" for p in spectrum.parities[:n_cut]])
        keep &= odd[n1] == odd[n2]
    return np.column_stack((n1[keep], n2[keep]))


_ASYMMETRIC_TABLE = q.Tabulated.from_mapping(
    {-3: 0.9, -2: 0.4, -1: 0.1, 0: 0.0, 1: 0.2, 2: 0.7})


@pytest.mark.parametrize("shells", [(1, 121), (1, 41), (41, 61), (61, 81),
                                    (81, 101), (101, 121)])
def test_pair_channels_keep_their_order_on_fig4_rungs(micro_spectrum,
                                                      shells):
    pairs, energies = q.two_body._pair_channels(micro_spectrum, *shells)
    assert np.array_equal(pairs,
                          _triangle_pair_channels(micro_spectrum, *shells))
    assert np.array_equal(energies, micro_spectrum.energies[pairs[:, 0]]
                          + micro_spectrum.energies[pairs[:, 1]])


def test_pair_channels_keep_their_order_on_an_asymmetric_table():
    spectrum = q.solve_transverse(_ASYMMETRIC_TABLE)
    assert not spectrum.symmetric and spectrum.n_states == 6
    for shells in [(0, 6), (1, 6), (2, 4), (3, 6), (5, 6), (6, 6)]:
        pairs, _ = q.two_body._pair_channels(spectrum, *shells)
        assert np.array_equal(pairs,
                              _triangle_pair_channels(spectrum, *shells))


def test_pair_channels_enumerate_only_the_new_shells():
    """The last 20 shells of 321 states hold 3,120 channels, 6% of the
    triangle: enumerating them peaks under 4 times the arrays returned
    (measured 2.7; masking the whole triangle took 13.8)."""
    (spectrum, _), = q.u_cir_complete(q.Harmonic(omega=1e-4, y_max=160))
    assert spectrum.n_states == 321
    tracemalloc.start()
    try:
        pairs, energies = q.two_body._pair_channels(spectrum, 301, 321)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(pairs) == 3120
    assert peak <= 4 * (pairs.nbytes + energies.nbytes)


def test_ladder_rungs_are_leading_cuts_of_one_basis(monkeypatch):
    """omega = 0.03 on an auto grid: a fresh solve puts 21 and 41 states
    on 81 sites and 61 on 161, but the ladder solves the trap once, on
    the 161-site grid where 1/U_CIR settles, and every rung holds the
    leading states of the last one, bit for bit."""
    trap = q.Harmonic(omega=0.03)
    assert [len(q.solve_transverse(trap, n_states=n).grid)
            for n in (21, 41, 61)] == [81, 81, 161]
    rep, spectra = _ladder_spectra(monkeypatch, trap, 21)
    assert rep.rungs == (21, 41, 61)
    assert [len(spectrum.grid) for spectrum in spectra] == [161] * 3
    for spectrum in spectra:
        _assert_same_states(spectrum, q.traps._leading_states(
            spectra[-1], spectrum.n_states))


@pytest.mark.parametrize("trap, n_start", [(NINE_SITE_TABLE, 3),
                                           (q.TwoSite(v=1.0), 1)],
                         ids=["table-9-site", "two-site"])
def test_ladder_past_a_finite_basis_uses_all_of_it(trap, n_start):
    """A rung asking for more states than the trap holds solves the
    complete basis, which is exact; the truncated rung before it is not
    converged (9-site table: it held 2 poles at -19.9 and -11.9 instead
    of 4; two-site: none instead of 2)."""
    rep = q.converged_resonances(trap, n_start)
    exact = q.locate_resonances(q.build_kernel(q.solve_transverse(trap)))
    assert rep.converged
    assert rep.rungs == (n_start, exact.n_states)
    assert (rep.n_states, rep.n_channels) == (exact.n_states,
                                              exact.n_channels)
    assert [(r.kind, r.visible) for r in rep.resonances] == [
        (r.kind, r.visible) for r in exact.resonances]
    assert len(exact.visible_resonances) >= 2
    assert np.allclose([r.u for r in rep.resonances],
                       [r.u for r in exact.resonances], rtol=1e-12, atol=0)
    assert np.allclose(rep.zero_crossings, exact.zero_crossings, rtol=1e-12,
                       atol=0)


def test_ladder_solves_each_grid_once(monkeypatch):
    """The ladder from 41 states at omega = 1e-3 solves the trap once,
    doubling the auto grid from 81 to 161 sites until 1/U_CIR settles,
    and diagonalizes each grid's two parity sectors once (a fresh solve
    per rung made 26 sector calls)."""
    sectors = []
    solve = traps.eigh_tridiagonal

    def counted(diag, off, **kwargs):
        sectors.append(len(diag))
        return solve(diag, off, **kwargs)

    monkeypatch.setattr(traps, "eigh_tridiagonal", counted)
    rep = q.converged_resonances(q.Harmonic(omega=1e-3), 41)
    assert sectors == [41, 40, 81, 80]
    assert rep.rungs == (41, 61, 81, 101, 121)


@pytest.mark.parametrize("trap, n_start", [
    (q.Harmonic(omega=1e-3), 41), (q.Harmonic(omega=0.03), 21),
    (q.Harmonic(omega=1e-3, y_max=160), 41), (NINE_SITE_TABLE, 3)],
    ids=["auto-grid", "auto-grid-grows", "fixed-grid", "table-9-site"])
def test_ladder_rungs_equal_fresh_solves(monkeypatch, trap, n_start):
    """On a grid the trap fixes (a set half-width, a table) every rung's
    spectrum is bit for bit a fresh ``solve_transverse`` of its size; on
    an auto grid it is the leading cut of the complete basis that
    ``u_cir_complete`` sums."""
    rep, spectra = _ladder_spectra(monkeypatch, trap, n_start)
    auto = isinstance(trap, q.Harmonic) and trap.y_max is None
    basis = q.u_cir_complete(trap)[-1][0] if auto else None
    for spectrum in spectra:
        n = spectrum.n_states
        _assert_same_states(spectrum,
                            q.traps._leading_states(basis, n) if auto
                            else q.solve_transverse(trap, n_states=n))


def test_ladder_stops_where_no_complete_basis_exists():
    """A delta well or a table with an asymptote leaves its higher
    states to the transverse continuum, which no grid basis completes:
    the ladder refuses it before its first rung, instead of calling a
    truncated bound-state rung converged."""
    for trap in (q.DeltaWell(v0=2.0),
                 q.Tabulated.from_mapping({0: 0.0}, asymptote=1.0)):
        with pytest.raises(q.ConfigError, match="transverse continuum"):
            q.converged_resonances(trap, 1)


def test_fixed_grid_ladder_runs_on_the_complete_basis():
    """A harmonic trap with a set half-width fixes its grid, and the
    ladder cuts its rungs from every state of it, as ``u_cir_complete``
    sums them: it runs on past the grid's edge-decaying states, which a
    fresh solve refuses, and ends at the complete basis at the latest.
    At omega = 0.03 on 81 sites it settles at 61 states, on the poles of
    the auto grid's 321 sites to 1e-14."""
    trap = q.Harmonic(omega=0.03, y_max=40)
    with pytest.raises(q.EdgeLeak, match="only 59 states decay"):
        q.solve_transverse(trap, n_states=61)
    rep = q.converged_resonances(trap, 21)
    assert rep.converged and rep.rungs == (21, 41, 61)
    auto = q.converged_resonances(q.Harmonic(omega=0.03), 21)
    assert [(r.kind, r.visible) for r in rep.resonances] == [
        (r.kind, r.visible) for r in auto.resonances]
    assert len(rep.visible_resonances) == 5
    assert np.allclose([r.u for r in rep.visible_resonances],
                       [r.u for r in auto.visible_resonances], rtol=1e-14,
                       atol=0)
    small = q.converged_resonances(q.Harmonic(omega=0.1, y_max=20), 11)
    assert small.converged and small.rungs == (11, 31, 41)
    assert small.n_states == 41 and small.collision_sites == 21


def test_fixed_grid_ladder_runs_past_161_states():
    """A fixed grid's ladder has no state cap: on 401 sites at omega =
    1e-3 it starts at 181 states and settles at 201 on fig4's three
    visible poles, and on 321 sites at omega = 3e-4 it climbs from 41 to
    181 states.  (A cap of 161 states refused both.)"""
    fig4 = q.converged_resonances(q.Harmonic(omega=1e-3), 41)
    rep = q.converged_resonances(q.Harmonic(omega=1e-3, y_max=200), 181)
    assert rep.converged and rep.rungs == (181, 201)
    assert len(rep.visible_resonances) == 3
    assert np.allclose(_field(rep, "u", True), _field(fig4, "u", True),
                       rtol=1e-12, atol=0)
    rep = q.converged_resonances(q.Harmonic(omega=3e-4, y_max=160), 41)
    assert rep.converged and rep.rungs[-1] == 181


def test_ladder_starting_past_the_basis_takes_all_of_it():
    """An `n_start` above the basis size gives one rung, the complete
    basis: at omega = 0.3 its 161 states on the 161-site auto grid."""
    rep = q.converged_resonances(q.Harmonic(omega=0.3), 200)
    assert rep.converged and rep.rungs == (161,)
    assert rep.n_states == 161 and rep.collision_sites == 81


@pytest.mark.parametrize("omega, n_states, poles", [
    (3e-4, 181, (-4.304010263, -3.539852434)),
    (1e-4, 281, (-3.936765184, -3.288323961))])
def test_small_omega_ladder_converges_on_the_complete_basis(omega, n_states,
                                                            poles):
    """At omega = 3e-4 and 1e-4 the auto-grid ladder runs past 161
    states (to 181 and 281) and gives the visible poles of the complete
    bases with y_max = 120 and 160 that pin the visibility floor at
    3e-4, and of y_max = 160 to 320 at 1e-4."""
    rep = q.converged_resonances(q.Harmonic(omega=omega), 41)
    assert rep.converged and rep.n_states == n_states
    assert np.allclose(_field(rep, "u", True), poles, rtol=1e-9, atol=0)


def test_pair_continuum_limit_slope(waveguide_match):
    """As omega -> 0 the pair's relative motion (hopping 2J) approaches
    the continuum waveguide, where 1/|U_CIR| of the broad pole rises by
    ln 10 / (16 pi J) per decade of omega; the lattice correction
    shrinks with omega, so the local slopes rise toward it from below
    (measured 0.045569, then 0.045660: 0.32% low).

    The intercept too (README, "The continuum limit"): at K = 0 the
    relative motion hops by ``J_x = J_y = 2 J`` in the trap omega/2, so
    ``1/|U| = -ln(omega)/(16 pi J) + C(0)`` with
    ``C(0) = (ln(4)/4 + ln(Lambda_0 / J_y)/2 + gamma/2 + A/2 - 2 ln 2)
    / (4 pi J) = 0.0704680721`` and ``Lambda_0 = 32 J_y = 64 J``.  The
    gaps above it (measured 3.14e-4, 1.88e-4, 1.17e-4) are positive and
    shrink, and the model ``c + sqrt(omega) (a ln(1/omega) + b)``
    through them leaves ``c = -6.4e-8``."""
    omegas = (1e-4, 3e-5, 1e-5)
    reports = [q.converged_resonances(q.Harmonic(omega=w), 41)
               for w in omegas]
    broad = [[r for r in rep.visible_resonances if r.kind == "broad"]
             for rep in reports]
    assert [len(b) for b in broad] == [1, 1, 1]
    assert np.allclose([b[0].u for b in broad],
                       (-3.9367651837, -3.5991607893, -3.3374736649),
                       rtol=1e-9, atol=0)
    inverse = [-1.0 / b[0].u for b in broad]
    slopes = [(b - a) / math.log10(wa / wb) for a, b, wa, wb in
              zip(inverse, inverse[1:], omegas, omegas[1:])]
    closed_form = math.log(10.0) / (16.0 * math.pi * q.J)
    assert slopes[0] < slopes[1] < closed_form
    assert slopes[1] >= (1.0 - 5e-3) * closed_form

    c0 = (0.25 * math.log(4.0) + 0.5 * math.log(32.0) + waveguide_match) \
        / (4.0 * math.pi * q.J)
    assert c0 == pytest.approx(0.0704680721, abs=1e-10)
    gaps = [i + math.log(w) / (16.0 * math.pi * q.J) - c0
            for i, w in zip(inverse, omegas)]
    assert 0.0 < gaps[2] < gaps[1] < gaps[0]
    model = [[1.0, math.sqrt(w) * math.log(1.0 / w), math.sqrt(w)]
             for w in omegas]
    assert abs(np.linalg.solve(model, gaps)[0]) <= 2e-7


def _log_lattice_cutoff(total_momentum, split):
    """``ln Lambda_K`` of the anisotropic lattice (README, "The continuum
    limit"), with ``J_x = 2 J cos(K/2)``, ``J_y = 2 J`` and
    ``F(t) = exp(-2 (J_x + J_y) t) I0(2 J_x t) I0(2 J_y t)``:
    ``4 pi sqrt(J_x J_y) [int_0^1 F + int_1^inf (F - 1/(4 pi sqrt(J_x J_y)
    t))] - gamma``, by mpmath Gauss-Legendre quadrature with the
    integrals split at `split` instead of 1 and the tail taken in
    ``s = 1/t``."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(25):
        jx, jy = 2 * q.J * mpmath.cos(mpmath.mpf(total_momentum) / 2), 2 * q.J
        scale = 4 * mpmath.pi * mpmath.sqrt(jx * jy)

        def f(t):
            return (mpmath.exp(-2 * (jx + jy) * t)
                    * mpmath.besseli(0, 2 * jx * t)
                    * mpmath.besseli(0, 2 * jy * t))

        head = mpmath.quad(f, [0, split], method="gauss-legendre")
        tail = mpmath.quad(lambda s: (f(1 / s) - s / scale) / s ** 2,
                           [0, mpmath.mpf(1) / split],
                           method="gauss-legendre")
        return float(scale * (head + tail) - mpmath.log(split)
                     - mpmath.euler)


def test_pair_continuum_limit_intercept_at_k1(waveguide_match):
    """At ``K = 1`` the relative motion hops by ``J_x = 2 J cos(1/2)``
    and ``J_y = 2 J``, and the broad pole approaches
    ``1/|U| = -ln(omega)/(8 pi sqrt(J_x J_y)) + C(1)``, with
    ``C(1) = (ln(4)/4 + ln(Lambda_1 / J_y)/2 + gamma/2 + A/2 - 2 ln 2)
    / (2 pi sqrt(J_x J_y)) = 0.0723589683`` (README, "The continuum
    limit").  ``ln Lambda_K`` is the Bessel integral of
    :func:`_log_lattice_cutoff`: ``ln 64`` at ``K = 0``, where the
    lattice is isotropic, and 4.09146094541 at ``K = 1``.  The local
    slopes rise toward ``ln 10 / (8 pi sqrt(J_x J_y)) = 0.048899``
    from below (measured 0.048629, then 0.048732), the gaps above the
    closed form (measured 3.52e-4, 2.11e-4, 1.31e-4) are positive and
    shrink, and the model ``c + sqrt(omega) (a ln(1/omega) + b)``
    through them leaves ``c = -6.6e-8``."""
    assert _log_lattice_cutoff(0.0, 1) == pytest.approx(math.log(64.0),
                                                       abs=1e-12)
    log_cutoff = _log_lattice_cutoff(1.0, 1)
    assert log_cutoff == pytest.approx(_log_lattice_cutoff(1.0, 4),
                                       abs=1e-12)
    assert log_cutoff == pytest.approx(4.09146094541, abs=1e-11)
    jx, jy = 2.0 * q.J * math.cos(0.5), 2.0 * q.J
    scale = 2.0 * math.pi * math.sqrt(jx * jy)
    c1 = (0.25 * math.log(4.0) + 0.5 * (log_cutoff - math.log(jy))
          + waveguide_match) / scale
    assert c1 == pytest.approx(0.0723589683, abs=1e-10)

    omegas = (1e-4, 3e-5, 1e-5)
    reports = [q.converged_resonances(q.Harmonic(omega=w), 41,
                                      total_momentum=1.0) for w in omegas]
    broad = [[r for r in rep.visible_resonances if r.kind == "broad"]
             for rep in reports]
    assert [len(b) for b in broad] == [1, 1, 1]
    assert np.allclose([b[0].u for b in broad],
                       (-3.7270614738, -3.4044267016, -3.1547090419),
                       rtol=1e-9, atol=0)
    inverse = [-1.0 / b[0].u for b in broad]
    slopes = [(b - a) / math.log10(wa / wb) for a, b, wa, wb in
              zip(inverse, inverse[1:], omegas, omegas[1:])]
    closed_form = math.log(10.0) / (4.0 * scale)
    assert slopes[0] < slopes[1] < closed_form
    assert slopes[1] >= (1.0 - 5e-3) * closed_form

    gaps = [i + math.log(w) / (4.0 * scale) - c1
            for i, w in zip(inverse, omegas)]
    assert 0.0 < gaps[2] < gaps[1] < gaps[0]
    model = [[1.0, math.sqrt(w) * math.log(1.0 / w), math.sqrt(w)]
             for w in omegas]
    assert abs(np.linalg.solve(model, gaps)[0]) <= 2e-7


def test_fig4_ladder_is_the_fresh_kernel_to_rounding():
    """fig4's ladder (omega = 1e-3 from 41 states) grows one kernel on
    the complete basis of the 161-site grid to 121 states.  Its report
    is a fresh kernel's on the leading 121 states of that basis, up to
    the order of H's sum: poles and zero crossings to 1e-12 relative,
    every width to 1e-12 absolute, and the visible widths to 1e-9
    relative."""
    trap = q.Harmonic(omega=1e-3)
    rep = q.converged_resonances(trap, 41)
    basis = q.u_cir_complete(trap)[-1][0]
    assert len(basis.grid) == 161
    fresh = q.locate_resonances(q.build_kernel(
        q.traps._leading_states(basis, 121)))
    assert rep.converged and rep.rungs == (41, 61, 81, 101, 121)
    assert (rep.n_states, rep.n_channels) == (121, fresh.n_channels)
    assert [(r.kind, r.visible) for r in rep.resonances] == [
        (r.kind, r.visible) for r in fresh.resonances]
    assert len(rep.visible_resonances) == 3

    assert np.allclose(_field(rep, "u"), _field(fresh, "u"), rtol=1e-12,
                       atol=0)
    assert np.allclose(rep.zero_crossings, fresh.zero_crossings, rtol=1e-12,
                       atol=0)
    for name in ("width", "residue"):
        assert np.allclose(_field(rep, name), _field(fresh, name), rtol=0,
                           atol=1e-12)
        assert np.allclose(_field(rep, name, True),
                           _field(fresh, name, True), rtol=1e-9, atol=0)


def _field(report, name, only_visible=False):
    rows = report.visible_resonances if only_visible else report.resonances
    return np.array([getattr(r, name) for r in rows])


def test_fig4_ladder_matches_the_wider_grid():
    """The 121 states fig4's ladder cuts from its 161-site basis are the
    states ``solve_transverse(trap, 121)`` puts on 321 sites, to the
    edge decay of both grids.  The two reports agree to 1e-14 relative
    on the visible poles, the zero crossings and every row whose width
    is above round-off (1e-28); the rows below it are eigenvectors of
    H at the grid edge, with an entrance weight of round-off, and move
    with the grid (up to 6e-5 relative in ``u``)."""
    trap = q.Harmonic(omega=1e-3)
    rep = q.converged_resonances(trap, 41)
    wide = q.locate_resonances(q.build_kernel(
        q.solve_transverse(trap, n_states=121)))
    assert (rep.collision_sites, wide.collision_sites) == (81, 161)
    assert rep.n_channels == wide.n_channels == 3720
    assert [(r.kind, r.visible) for r in rep.resonances] == [
        (r.kind, r.visible) for r in wide.resonances]
    assert len(rep.resonances) == 57
    above = _field(wide, "width") >= 1e-28
    assert np.array_equal(_field(rep, "width") >= 1e-28, above)
    assert 3 <= above.sum() < len(above)
    assert np.allclose(_field(rep, "u", True), _field(wide, "u", True),
                       rtol=1e-14, atol=0)
    assert np.allclose(_field(rep, "u")[above], _field(wide, "u")[above],
                       rtol=1e-14, atol=0)
    assert np.allclose(rep.zero_crossings, wide.zero_crossings, rtol=1e-14,
                       atol=0)


# --------------------------------------------- channel-space witness


def _channel_space(ker, full_grid_green):
    """``R = S S^T``, the entrance column ``v = S psi_0^2`` and
    ``R(00;00)`` from the full-grid rows of :func:`_full_grid_green`."""
    _, psi0_sq, rows = full_grid_green(ker)
    return rows @ rows.T, rows @ psi0_sq, float(psi0_sq @ psi0_sq)


def _dense_channel_solve(channel_space, d, u):
    """The channel-space solve the collision-diagonal form replaced:
    ``(1 - U R D^-1) I = v`` at size ``n_channels``."""
    r, v, r00 = channel_space
    lhs = np.eye(len(d)) - u * r / d[None, :]
    i_vec = np.linalg.solve(lhs, v)
    return i_vec, r00 + u * float((v / d) @ i_vec)


def _dense_visible_poles(channel_space, denominators, window):
    """Visible poles from ``eigh`` of ``|D|^-1/2 R |D|^-1/2``."""
    r, v, r00 = channel_space
    scale = 1.0 / np.sqrt(-denominators)
    mu, w = np.linalg.eigh(r * np.outer(scale, scale))
    c2 = (w.T @ (scale * v)) ** 2
    poles = -1.0 / mu[mu != 0.0]
    width = c2[mu != 0.0] * np.abs(poles) / r00
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
        q.solve_transverse(q.Harmonic(omega=1e-3, y_max=160), n_states=41)),
}


@pytest.mark.parametrize("name", list(_WITNESS_KERNELS))
def test_collision_diagonal_matches_channel_space(name, request,
                                                  full_grid_green):
    ker = _WITNESS_KERNELS[name](request.getfixturevalue)
    channel_space = _channel_space(ker, full_grid_green)
    for u in (-2.5, -1.0, 0.5, 4.0):
        i_dense, i00_dense = _dense_channel_solve(channel_space,
                                                  ker.denominators, u)
        r = q.solve_scattering_length(ker, u)
        assert abs(r.i00 - i00_dense) <= 1e-12 * abs(i00_dense)
        assert np.max(np.abs(r.i_vector - i_dense)) \
            <= 1e-12 * np.max(np.abs(i_dense))
    window = (-30.0, 0.0)
    poles = [res.u for res in
             q.locate_resonances(ker, window).visible_resonances]
    dense = _dense_visible_poles(channel_space, ker.denominators, window)
    assert len(poles) == len(dense) > 0
    assert np.all(np.abs(np.array(poles) - dense) <= 1e-12 * np.abs(dense))


@pytest.mark.parametrize("total_momentum", [0.0, 0.7])
@pytest.mark.parametrize("spectrum", ["micro_spectrum", "harm_mod_spectrum"])
def test_folded_kernel_matches_the_full_grid(spectrum, total_momentum,
                                             request, check_full_grid):
    """A mirror trap's kernel holds the even half of the collision
    diagonal; the full-grid H built without the fold has the same
    nonzero spectrum, entrance amplitude and visible poles."""
    spectrum = request.getfixturevalue(spectrum)
    ker = q.build_kernel(spectrum, total_momentum)
    assert ker.collision_sites == (len(spectrum.grid) + 1) // 2
    check_full_grid(ker, (-2.5, -1.0, 0.5, 4.0))


def _dense_zero_crossings(ker, window, poles, projected_zeros):
    """Zero crossings from ``eigvalsh`` of ``Q H Q`` with the dense
    projector ``Q = 1 - psi_0^2 psi_0^2^T / R(00;00)``, less the zeros
    that cancel against a pole within ``1e-9 max(1, |U_j|)``: the
    closest (zero, pole) pair cancels first, and each pole and each zero
    cancels once."""
    zeros = list(projected_zeros(ker, window))
    poles = list(poles)
    while True:
        near = [(abs(z - p), z, p) for z in zeros for p in poles
                if abs(z - p) <= 1e-9 * max(1.0, abs(p))]
        if not near:
            return np.array(zeros)
        _, z, p = min(near)
        zeros.remove(z)
        poles.remove(p)


@pytest.mark.parametrize("name", list(_WITNESS_KERNELS))
def test_rank_two_projection_matches_dense(name, request, projected_zeros):
    ker = _WITNESS_KERNELS[name](request.getfixturevalue)
    window = (-30.0, 0.0)
    rep = q.locate_resonances(ker, window)
    dense = _dense_zero_crossings(ker, window, [r.u for r in rep.resonances],
                                  projected_zeros)
    assert len(rep.zero_crossings) == len(dense) > 0
    assert np.all(np.abs(np.array(rep.zero_crossings) - dense)
                  <= 1e-12 * np.abs(dense))


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


@pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf])
def test_non_finite_coupling_refused(two_site_kernel, u):
    # every coupling entry point refuses a non-finite coupling by name,
    # instead of returning a result of NaN with a RuntimeWarning
    calls = {"u": [lambda: q.solve_scattering_length(two_site_kernel, u),
                   lambda: q.solve_finite_k(two_site_kernel, u, 0.1),
                   lambda: q.born_series(two_site_kernel, u, 3)],
             "u_values": [lambda: q.u1d_curve(two_site_kernel, [-1.0, u])]}
    for name, funcs in calls.items():
        for call in funcs:
            with pytest.raises(q.ConfigError,
                               match=f"^{name} must be finite, got {u}$"):
                call()


def test_a_pole_cancels_its_nearest_zero():
    """Of two zeros of Q H Q within the cancellation distance of one
    pole (1e-8 at U = -10), the pole cancels the nearer, whatever their
    order, and the farther is reported; a zero out of reach stays."""
    pole = np.array([-10.0])
    zeros = np.array([-10.0 - 8e-9, -10.0 + 2e-9, -3.0])
    kept = q.two_body._uncancelled(zeros, pole)
    assert kept.tolist() == [zeros[0], zeros[2]]
    kept = q.two_body._uncancelled(zeros[[1, 0, 2]], pole)
    assert kept.tolist() == [zeros[0], zeros[2]]
