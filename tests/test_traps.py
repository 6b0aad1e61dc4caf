"""Transverse trap solver: exact small systems, orthonormality, parity
labels, grid auto-sizing, and the closed-channel decay factor."""

import dataclasses
import functools
import gc
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import q1dscatter as q
import q1dscatter.traps as traps

SQRT2 = math.sqrt(2.0)


def _reference_module():
    """``tests/reference/moderate_trap_mp.py``: the mpmath witness."""
    path = Path(__file__).parent / "reference" / "moderate_trap_mp.py"
    spec = importlib.util.spec_from_file_location("moderate_trap_mp", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------- exact traps


def test_two_site_exact_eigensystem(two_site_spectrum):
    s = two_site_spectrum
    assert s.energies[0] == pytest.approx(1.0 - SQRT2, abs=1e-14)
    assert s.energies[1] == pytest.approx(1.0 + SQRT2, abs=1e-14)
    assert float(s.origin_amplitudes[0]) ** 2 == pytest.approx(
        (2.0 + SQRT2) / 4.0, abs=1e-14)
    # two sites, no reflection symmetry: no parity labels
    assert not s.symmetric
    assert s.parities == ("none", "none")


def test_two_site_potential_grid():
    grid, values = q.potential_on_grid(q.TwoSite(v=1.0), None)
    assert list(grid) == [0, 1]
    assert list(values) == [0.0, 2.0]


def test_delta_well_bound_energy():
    # the box solve against the closed forms E0 = -sqrt(V0^2 + 4 J^2) + V0
    # and psi0(0)^2 = (1 - b^2) / (1 + b^2), psi0(y) ~ b**|y|
    for v0 in (0.01, 0.1, 0.5, 1.0, 1.5, 4.0, 10.0):
        spec = q.solve_transverse(q.DeltaWell(v0=v0))
        assert spec.n_states == 1
        want = -math.sqrt(v0 * v0 + 4.0) + v0
        assert float(spec.energies[0]) == pytest.approx(want, abs=2e-15)
        b = (math.sqrt(v0 * v0 + 4.0) - v0) / 2.0
        assert float(spec.origin_amplitudes[0]) == pytest.approx(
            math.sqrt((1.0 - b * b) / (1.0 + b * b)), abs=1e-13)
    # the V0 = 1.5 J case is exactly -J
    spec = q.solve_transverse(q.DeltaWell(v0=1.5, y_max=400))
    assert float(spec.energies[0]) == pytest.approx(-1.0, abs=1e-15)


@pytest.mark.parametrize("v0", [0.1, 1.0, 10.0])
@pytest.mark.parametrize("n_states", [None, 1])
def test_delta_well_is_the_one_site_table(v0, n_states):
    # the same box problem, bit for bit
    delta = q.solve_transverse(q.DeltaWell(v0=v0), n_states=n_states)
    table = q.solve_transverse(q.Tabulated.from_mapping({0: 0.0}, v0),
                               n_states=n_states)
    for field in ("energies", "wavefunctions", "grid"):
        assert np.array_equal(getattr(delta, field), getattr(table, field))
    assert (delta.parities, delta.symmetric) == (table.parities,
                                                 table.symmetric)
    # it binds one state, and a set half-width is the one box solved,
    # too small for the state's 0.951**|y| decay at V0 = 0.1
    with pytest.raises(q.EdgeLeak):
        q.solve_transverse(q.DeltaWell(v0=v0), n_states=2)
    fixed = q.DeltaWell(v0=v0, y_max=60)
    if v0 < 1.0:
        # the one box is solved, and its edge leak reported as such
        with pytest.raises(q.EdgeLeak, match=r"^only 0 states decay at the "
                           r"grid edge; 1 requested \(half-width 60 too "
                           r"small\)$"):
            q.solve_transverse(fixed)
    else:
        assert len(q.solve_transverse(fixed).grid) == 121


@pytest.mark.parametrize("v", [-3.0, -0.25, 0.0, 1.0, 1.7, 40.0])
def test_two_site_is_the_two_site_table(v):
    # the hard-walled table {0: 0, 1: 2v}, solved as that table bit for bit
    two = q.solve_transverse(q.TwoSite(v=v))
    table = q.solve_transverse(q.Tabulated.from_mapping({0: 0.0, 1: 2 * v}))
    for field in ("energies", "wavefunctions", "grid"):
        assert np.array_equal(getattr(two, field), getattr(table, field))
        assert getattr(two, field).dtype == getattr(table, field).dtype
    assert (two.parities, two.symmetric) == (table.parities, table.symmetric)
    assert [f.name for f in dataclasses.fields(q.TwoSite)] == ["v"]


def test_tabulated_matches_two_site():
    # hard-wall table {0: 0, 1: 2V} is the same 2x2 problem
    tab = q.solve_transverse(q.Tabulated.from_mapping({0: 0.0, 1: 2.0}, None))
    two = q.solve_transverse(q.TwoSite(v=1.0))
    assert np.allclose(tab.energies, two.energies, atol=1e-13)


def test_tabulated_pair_form_round_trip():
    pairs = ((-1, 0.3), (0, 0.0), (1, 0.3))
    t1 = q.Tabulated(values=pairs)
    t2 = q.Tabulated.from_mapping({-1: 0.3, 0: 0.0, 1: 0.3}, None)
    s1 = q.solve_transverse(t1)
    s2 = q.solve_transverse(t2)
    assert np.array_equal(s1.energies, s2.energies)
    assert s1.symmetric and s2.symmetric


# ------------------------------------------------------------ harmonic traps


def test_harmonic_orthonormal_and_ordered(harm_mod_spectrum):
    s = harm_mod_spectrum
    overlaps = s.wavefunctions @ s.wavefunctions.T
    assert np.max(np.abs(overlaps - np.eye(s.n_states))) < 1e-12
    # nondecreasing, not strictly increasing: states 19 (odd) and 20
    # (even) are split by 1.3e-15, below one ulp, and round to the same
    # double
    assert np.all(np.diff(s.energies) >= 0)
    # every energy within 1 ulp of a 40-digit sector solve
    mp = pytest.importorskip("mpmath")
    ref = _reference_module().harmonic_energies(
        omega=0.1, y_max=int(s.grid[-1]), n_states=s.n_states, dps=40)
    for e, want in zip(s.energies, ref):
        assert abs(mp.mpf(float(e)) - want) <= np.spacing(abs(float(e)))


@pytest.mark.parametrize("offset", [0.25, 0.5, 1.0])
def test_off_centre_trap_energies_correctly_rounded(offset):
    # V = 0.1 (y - s)^2 on -8..8 is no mirror image: one sector, refined
    # like the parity sectors, every energy within 1 ulp of a 40-digit
    # solve of the same table
    mp = pytest.importorskip("mpmath")
    trap = q.Tabulated.from_mapping(
        {y: 0.1 * (y - offset) ** 2 for y in range(-8, 9)}, None)
    s = q.solve_transverse(trap)
    assert not s.symmetric
    with mp.workdps(40):
        ref = _reference_module().eigenvalues(
            [mp.mpf(v) for _, v in trap.values], [mp.mpf(-1)] * 16, 17)
    for e, want in zip(s.energies, ref, strict=True):
        assert abs(mp.mpf(float(e)) - want) <= np.spacing(abs(float(e)))


def test_harmonic_parity_labels(harm_mod_spectrum):
    s = harm_mod_spectrum
    assert s.symmetric
    assert s.parities == tuple(
        "even" if n % 2 == 0 else "odd" for n in range(s.n_states))
    # odd states vanish at the origin, and the stored amplitudes are
    # exactly zero there (parity selection)
    for n in range(1, s.n_states, 2):
        # raw eigenvector entries are only numerically zero at the
        # origin (near-degenerate high states mix at ~1e-9); the
        # published amplitudes are snapped to exact zero
        assert abs(s.wavefunctions[n][s.origin_index]) < 1e-8
        assert float(s.origin_amplitudes[n]) == 0.0


@pytest.mark.parametrize("driver", ["stemr", "stev", "stebz"])
def test_spectrum_independent_of_lapack_driver(
        driver, monkeypatch, harm_mod_spectrum, harm_mod_kernel,
        micro_spectrum, micro_kernel, full_grid_green):
    # each LAPACK driver mixes the near-degenerate doublets above the
    # band differently; the parity-sector solve must not see it
    monkeypatch.setattr(traps, "eigh_tridiagonal", functools.partial(
        scipy.linalg.eigh_tridiagonal, lapack_driver=driver))
    cases = ((q.Harmonic(omega=1e-1), 21, harm_mod_spectrum, harm_mod_kernel),
             (q.Harmonic(omega=1e-3, y_max=160.0), 121, micro_spectrum,
              micro_kernel))
    for trap, n_states, ref, ref_kernel in cases:
        s = q.solve_transverse(trap, n_states=n_states)
        assert np.array_equal(s.energies, ref.energies)
        assert s.parities == ref.parities
        assert np.all(s.wavefunctions[1::2, s.origin_index] == 0.0)
        ker = q.build_kernel(s)
        assert np.array_equal(ker.pairs, ref_kernel.pairs)
        # R = S S^T from the full-grid rows, a block of channels at a time
        rows, ref_rows = (full_grid_green(k)[2] for k in (ker, ref_kernel))
        for lo in range(0, len(rows), 512):
            block = slice(lo, lo + 512)
            assert np.max(np.abs(rows[block] @ rows.T
                                 - ref_rows[block] @ ref_rows.T)) < 1e-14


def test_decreasing_merge_is_an_error(monkeypatch):
    # a sector solve that lost the interlacing order must not pass
    # silently: reverse the even sector's energies
    monkeypatch.setattr(traps, "_rayleigh_refine",
                        lambda diag, off, off_lo, energies, vectors:
                        energies[::-1])
    trap = q.Tabulated.from_mapping({-2: 1.0, -1: 0.3, 0: 0.0, 1: 0.3,
                                     2: 1.0}, None)
    with pytest.raises(q.UnorderedSpectrum):
        q.solve_transverse(trap)


def test_harmonic_ground_energy_monotone_in_curvature():
    omegas = [1e-4, 1e-3, 1e-2, 1e-1, 1.0]
    e0 = [float(q.solve_transverse(q.Harmonic(omega=w), n_states=4)
               .energies[0]) for w in omegas]
    assert all(b > a for a, b in zip(e0, e0[1:]))
    # flat-trap limit: zero-point energy above the -2J band bottom is
    # half the oscillator quantum, sqrt(J * curvature)
    assert e0[0] + 2.0 == pytest.approx(math.sqrt(1e-4), rel=1e-2)


def test_harmonic_grid_auto_doubles_to_hold_request():
    spec = q.solve_transverse(q.Harmonic(omega=1e-3), n_states=121)
    # classical turning point of the highest kept state must fit
    e_top = float(spec.energies[-1]) + 2.0
    turning = math.sqrt(e_top / 1e-3)
    assert spec.grid[-1] >= turning
    # all kept states decay at the edge
    assert np.max(np.abs(spec.wavefunctions[:, 0])) < 1e-10
    assert np.max(np.abs(spec.wavefunctions[:, -1])) < 1e-10


def test_grid_growth_leaves_no_reference_cycle(monkeypatch):
    # a grid too small leaves an EdgeLeak for the next grid to clear;
    # keeping that error with a traceback would tie the solve's frame,
    # and through it every caller's arrays, into a cycle that only
    # gc.collect frees
    grids = []
    solve = traps._grid_eigenpairs

    def counted(grid, *args):
        grids.append(len(grid))
        return solve(grid, *args)

    monkeypatch.setattr(traps, "_grid_eigenpairs", counted)
    gc.collect()
    gc.disable()
    try:
        q.solve_transverse(q.Harmonic(omega=1e-3), n_states=121)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert grids == [81, 161, 321]


def test_grid_ladders():
    """The grids each trap is solved on, smallest first: a hard-walled
    table's own, the one a set ``y_max`` gives, an auto harmonic grid
    from half-width 40 to 2,560, and a continuum box from 20 sites beyond
    the well's range, and at least 40, to 40,960."""
    def half_widths(trap):
        return [int(grid[-1]) for grid, _ in traps._grids(trap)]

    assert half_widths(q.TwoSite(v=1.0)) == [1]
    assert half_widths(q.Tabulated.from_mapping({-2: 0.0, 2: 0.0, -1: 0.0,
                                                 0: 0.0, 1: 0.0})) == [2]
    assert half_widths(q.Harmonic(omega=0.1, y_max=7)) == [7]
    assert half_widths(q.DeltaWell(v0=1.0, y_max=9)) == [9]
    assert half_widths(q.Harmonic(omega=0.1)) == [40 << i for i in range(7)]
    assert half_widths(q.DeltaWell(v0=1.0)) == [40 << i for i in range(11)]
    wide = q.Tabulated.from_mapping({y: -0.5 for y in range(-30, 31)}, 1.0)
    assert half_widths(wide) == [50 << i for i in range(10)]


def test_auto_harmonic_grid_stops_at_half_width_2560(monkeypatch):
    """An auto-sized harmonic grid solves for every eigenvector, so it
    doubles from half-width 40 to 2,560 (5,121 sites) and no further;
    a continuum well's box, which keeps only the states below the band,
    goes on to 40,960.  Each grid's eigensolve is a stub that records
    the half-width and finds no eigenpair, so no grid is diagonalized."""
    half_widths = []

    def no_eigenpairs(grid, v, ceiling):
        half_widths.append(int(grid[-1]))
        # one sector, with its embedding, holding no eigenpair
        return False, ((v, None, None, np.transpose),), \
            [(np.empty(0), np.empty((len(grid), 0)))]

    monkeypatch.setattr(traps, "_grid_eigenpairs", no_eigenpairs)
    with pytest.raises(q.ConfigError, match="exceeded half-width 2560"):
        q.solve_transverse(q.Harmonic(omega=1e-12), 10)
    assert half_widths == [40 << i for i in range(7)]


def test_fixed_grid_refuses_past_its_edge_decaying_run():
    """At omega = 1e-3 the 161-site grid holds 70 states that decay at
    its edges: 70 are served, and 71 are refused with that count."""
    trap = q.Harmonic(omega=1e-3, y_max=80)
    assert q.solve_transverse(trap, 70).n_states == 70
    with pytest.raises(q.EdgeLeak, match="only 70 states decay"):
        q.solve_transverse(trap, 71)


def test_harmonic_explicit_width_stable_under_doubling():
    a = q.solve_transverse(q.Harmonic(omega=1e-3, y_max=200.0), n_states=121)
    b = q.solve_transverse(q.Harmonic(omega=1e-3, y_max=400.0), n_states=121)
    assert np.max(np.abs(np.asarray(a.energies)
                         - np.asarray(b.energies))) < 1e-10


def test_edge_leak_guard():
    with pytest.raises(q.EdgeLeak):
        q.solve_transverse(q.Harmonic(omega=1e-3, y_max=10.0), n_states=40)


@pytest.mark.parametrize("values, n_states", [
    ({0: 0.0}, 2),                    # one bound state, two requested
    ({-1: 1.5, 0: 1.2, 1: 1.5}, None),  # barrier: no bound state at all
    ({-1: -1.99, 0: -1.99, 1: -1.99}, 3),  # third state just short of binding
])
def test_continuum_well_short_of_bound_states_fails_fast(
        monkeypatch, values, n_states):
    # the box with its end sites lowered by J caps the well's bound
    # states, so the auto-sized grid stops before computing eigenvectors
    solves = []
    solve = traps._grid_eigenpairs

    def counted(*args):
        solves.append(args)
        return solve(*args)

    monkeypatch.setattr(traps, "_grid_eigenpairs", counted)
    with pytest.raises(q.EdgeLeak):
        q.solve_transverse(q.Tabulated.from_mapping(values, 1.0),
                           n_states=n_states)
    assert not solves


@pytest.mark.parametrize("depth", [0.1, 0.02])
def test_continuum_well_grid_grows_to_hold_a_shallow_state(depth):
    # V = 1 - depth at the origin under asymptote 1.0 is the zero-range
    # well of that depth; its bound state decays as 0.951**|y| (depth
    # 0.1) or 0.990**|y| (depth 0.02, above the band bottom in hard-wall
    # boxes of half-width 40 and 80), so the grid must grow to hundreds
    # or thousands of sites to clear the edge tolerance
    spec = q.solve_transverse(q.Tabulated.from_mapping({0: 1.0 - depth}, 1.0))
    assert spec.n_states == 1
    assert spec.energies[0] == pytest.approx(
        1.0 - depth + q.DeltaWell(v0=depth).bound_energy, abs=1e-12)


def test_weak_bound_state_computes_no_eigenpair_above_the_band(
        monkeypatch):
    # the third state of the width-3 well at depth 3 + 1e-4 lies 9e-8
    # below the band and decays only on the box of half-width 40,960,
    # whose full eigenvector matrix would take 13 GB
    solve = traps.eigh_tridiagonal

    def below_the_band(diag, off, **kwargs):
        assert kwargs.get("select") == "v", "every eigenpair requested"
        return solve(diag, off, **kwargs)

    monkeypatch.setattr(traps, "eigh_tridiagonal", below_the_band)
    well = q.Tabulated.from_mapping({y: -2.0 - 1e-4 for y in (-1, 0, 1)},
                                    1.0)
    spec = q.solve_transverse(well, n_states=3)
    assert spec.n_states == 3
    assert int(spec.grid[-1]) == 40_960
    assert spec.energies[2] < -1.0


def test_half_width_must_be_integral():
    # the grid -y_max..y_max must hold the impurity row y = 0
    for y_max in (0, 10.5):
        with pytest.raises(q.ConfigError):
            q.Harmonic(omega=1e-3, y_max=y_max)
        with pytest.raises(q.ConfigError):
            q.DeltaWell(v0=1.0, y_max=y_max)


def test_determinism():
    a = q.solve_transverse(q.Harmonic(omega=1e-1), n_states=12)
    b = q.solve_transverse(q.Harmonic(omega=1e-1), n_states=12)
    assert np.array_equal(a.energies, b.energies)
    assert np.array_equal(a.wavefunctions, b.wavefunctions)


@pytest.mark.parametrize("values", [
    {-1: 0.0, 0: 0.0, 1: 0.9},
    # one ulp off a mirror image: its even-odd couplings are real
    {-2: 1.2, -1: 0.3, 0: 0.0, 1: float(np.nextafter(0.3, 1.0)), 2: 1.2},
], ids=["asymmetric", "near-mirror"])
def test_asymmetric_trap_keeps_every_pair_channel(values):
    trap = q.Tabulated.from_mapping(values, None)
    spec = q.solve_transverse(trap)
    assert spec.symmetric is False
    assert trap.is_symmetric() is False
    assert spec.parities == ("none",) * len(values)
    # no pair is dropped as odd: all n (n + 1) / 2 but the entrance
    n = len(values)
    assert q.build_kernel(spec).n_channels == n * (n + 1) // 2 - 1


# ------------------------------------------------- closed-channel decay factor


def test_alpha_closed_exact_point():
    # gap ratio g = 2.5 solves alpha + 1/alpha = 2.5 at alpha = 0.5
    val = q.alpha_closed(0.5, -2.0)  # E_chan - E = 2.5 J
    assert val.alpha == pytest.approx(0.5, abs=1e-14)
    assert val.denominator == pytest.approx(1.0 * (0.25 - 1.0) / 0.5,
                                            abs=1e-14)


def test_alpha_closed_rejects_open_channels():
    with pytest.raises(q.OpenChannel):
        q.alpha_closed(0.0, -2.0)  # g = 2 exactly: band edge
    with pytest.raises(q.OpenChannel):
        q.alpha_closed(-1.0, -2.0)  # g = 1 < 2: open


def test_alpha_closed_satisfies_lattice_dispersion(harm_mod_spectrum):
    # substituting alpha back: -J (1 + alpha^2)/alpha + E_chan = E
    s = harm_mod_spectrum
    energy = q.entrance_energy(s, k=0.0)
    for n in (2, 4, 6):
        chan = float(s.energies[n])
        val = q.alpha_closed(chan, energy)
        lhs = -(1.0 + val.alpha ** 2) / val.alpha + chan
        assert lhs == pytest.approx(energy, abs=1e-12)
        assert 0.0 < val.alpha < 1.0
        assert val.denominator < 0.0


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("build, message", [
    (lambda: q.TwoSite(v=NAN), "v must be finite, got nan"),
    (lambda: q.Harmonic(omega=INF), "omega must be finite, got inf"),
    (lambda: q.Harmonic(omega=NAN), "omega must be finite, got nan"),
    (lambda: q.Harmonic(omega=0.1, y_max=INF),
     "y_max must be a positive integer, got inf"),
    (lambda: q.DeltaWell(v0=INF), "v0 must be finite, got inf"),
    (lambda: q.Tabulated.from_mapping({0: NAN}),
     "values must be finite, got nan"),
    (lambda: q.Tabulated.from_mapping({-1: 1.0, 0: 0.0, 1: -INF}),
     "values must be finite, got -inf"),
    (lambda: q.Tabulated.from_mapping({0: 0.0}, asymptote=INF),
     "asymptote must be finite, got inf"),
], ids=["two-site-v-nan", "harmonic-omega-inf", "harmonic-omega-nan",
        "harmonic-y-max-inf", "delta-well-v0-inf", "table-value-nan",
        "table-value-minus-inf", "table-asymptote-inf"])
def test_non_finite_trap_parameters_refused(build, message):
    # a NaN or infinite parameter is refused where the trap is built,
    # naming the parameter, instead of giving a spectrum of NaN
    with pytest.raises(q.ConfigError) as err:
        build()
    assert str(err.value) == message


@pytest.mark.parametrize("trap", [
    q.Harmonic(omega=0.1), q.TwoSite(v=1.0),
    q.Tabulated.from_mapping({y: 0.1 * y * y for y in range(-4, 5)})],
    ids=["harmonic", "two-site", "table"])
def test_gauge_makes_the_first_largest_component_positive(trap):
    """Each state's largest-magnitude component is positive, the first
    one on a tie: the two peaks of an odd state of a mirror trap are
    exact negatives of each other, and the one on y < 0 is positive."""
    spectrum = q.solve_transverse(trap)
    psi = spectrum.wavefunctions
    first_peak = np.argmax(np.abs(psi), axis=1)
    assert np.all(psi[np.arange(len(psi)), first_peak] > 0.0)
    odd = [n for n, parity in enumerate(spectrum.parities) if parity == "odd"]
    assert bool(odd) == spectrum.symmetric
    for n in odd:
        peak = first_peak[n]
        assert spectrum.grid[peak] < 0
        assert psi[n, -1 - peak] == -psi[n, peak]
