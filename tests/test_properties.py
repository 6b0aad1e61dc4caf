"""Structural invariants of the collision-diagonal two-body form, of
the ring sums and of the oracle's symmetry sectors on random
hard-walled tabulated traps, the ring's lane-wise Brent solver against
scipy's brentq, one transverse solver's spectra against fresh solves,
and the batched continuum quadrature against one well at a time
(property tests)."""

import math
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import brentq

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, strategies as st  # noqa: E402

import q1dscatter as q  # noqa: E402
from q1dscatter import oracle, ring, traps, two_body  # noqa: E402


_DEPTH = st.floats(0.0, 3.0)


def _mirrored(side):
    """The hard-walled trap V(y) = side[|y|]: an exact mirror image."""
    half = len(side) - 1
    return q.Tabulated.from_mapping(
        {y: side[abs(y)] for y in range(-half, half + 1)}, None)


def mirrored_tables(min_sites=5, max_sites=15):
    """Random half-tables mirrored about y = 0, `min_sites`-`max_sites`
    sites (odd)."""
    return st.integers(min_sites // 2, max_sites // 2).flatmap(
        lambda half: st.lists(_DEPTH, min_size=half + 1,
                              max_size=half + 1)).map(_mirrored)


def _shifted(table, shift):
    """`table` relabelled y -> y + `shift`."""
    return q.Tabulated(tuple((y + shift, v) for y, v in table.values), None)


def shifted_mirror_tables():
    """Random mirror tables relabelled by an integer shift s != 0: the
    grid is no mirror image, so the odd pairs stay in the kernel and put
    poles of zero weight on zeros of Q H Q."""
    return mirrored_tables().flatmap(
        lambda table: st.integers(-int(table.grid[-1]), int(table.grid[-1]))
        .filter(bool).map(lambda shift: _shifted(table, shift)))


@st.composite
def tabulated_traps(draw, min_sites=5, max_sites=15):
    """Symmetric or asymmetric hard-walled traps of
    `min_sites`-`max_sites` sites."""
    n_sites = draw(st.integers(min_sites, max_sites))
    if draw(st.booleans()):
        half = n_sites // 2
        return _mirrored(
            draw(st.lists(_DEPTH, min_size=half + 1, max_size=half + 1)))
    first = -draw(st.integers(0, n_sites - 1))
    values = draw(st.lists(_DEPTH, min_size=n_sites, max_size=n_sites))
    return q.Tabulated.from_mapping(
        {first + i: v for i, v in enumerate(values)}, None)


@given(trap=tabulated_traps(), u=st.floats(-20.0, 20.0),
       radius_fraction=st.floats(-0.8, 0.8))
def test_collision_diagonal_invariants(trap, u, radius_fraction,
                                      dense_collision_solve, full_grid_green):
    ker = q.build_kernel(q.solve_transverse(trap))
    n_y = ker.collision_sites

    # the channel kernel R = S S^T, from the full-grid rows, has rank at
    # most n_y ...
    rows = full_grid_green(ker)[2]
    r_matrix = rows @ rows.T
    assert np.linalg.matrix_rank(r_matrix) <= n_y
    assert ker.numerical_rank <= min(n_y, ker.n_channels)
    # ... and its nonzero spectrum is that of H
    scale = 1.0 / np.sqrt(-ker.denominators)
    channel_mu = np.linalg.eigvalsh(r_matrix * np.outer(scale, scale))
    mu = np.linalg.eigvalsh(ker.green)
    tol = 1e-12 * channel_mu[-1]
    shared = min(n_y, ker.n_channels)
    assert np.allclose(mu[-shared:], channel_mu[-shared:], rtol=0.0,
                       atol=tol)
    assert np.all(np.abs(mu[:-shared]) <= tol)
    assert np.all(np.abs(channel_mu[:-shared]) <= tol)

    # partial fractions agree with the direct solve away from poles
    assume(np.min(np.abs(1.0 + u * mu)) > 1e-3)
    _, i00 = dense_collision_solve(ker, u)
    assert ker.entrance_amplitude(u) == pytest.approx(
        i00, rel=1e-9, abs=1e-9 * ker.r_entrance)

    # the Born series converges to the direct solve inside |U| < 1/max mu
    u_born = radius_fraction / mu[-1]
    born = q.born_series(ker, u_born, 200)
    assert born.converged
    assert born.i00 == pytest.approx(
        dense_collision_solve(ker, u_born)[1], rel=1e-10)


@given(trap=mirrored_tables(), total_momentum=st.floats(0.0, 2.0),
       u=st.floats(-20.0, 20.0))
def test_folded_kernel_matches_the_full_grid(trap, total_momentum, u,
                                            check_full_grid):
    """A mirror table's kernel on the even half of the collision
    diagonal against H built on every site without the fold."""
    ker = q.build_kernel(q.solve_transverse(trap), total_momentum)
    assert ker.collision_sites == (len(trap.grid) + 1) // 2
    assume(np.min(np.abs(1.0 + u * np.linalg.eigvalsh(ker.green))) > 1e-3)
    check_full_grid(ker, (u,))


@given(trap=st.one_of(tabulated_traps(), shifted_mirror_tables()),
       total_momentum=st.floats(0.0, 2.0))
# a genuine crossing (-10.4456) within the cancellation distance of a
# zero-weight odd-pair pole, which cancels only its own zero
@example(trap=_shifted(_mirrored([0.9, 0.8, 2.6, 2.6, 1.5, 1.0, 3.0]), 5),
         total_momentum=0.4)
def test_zero_crossings_are_sign_changes_between_poles(trap,
                                                       total_momentum,
                                                       projected_zeros):
    """Each reported zero crossing is a sign change of I00, at most one
    lies between consecutive poles of the window, and the zeros of
    Q H Q cancel one to one against poles: no more go unreported than
    there are poles within the cancellation distance of them, and a
    crossing within that distance of a pole has a second zero there,
    the one the pole cancelled."""
    ker = q.build_kernel(q.solve_transverse(trap),
                         total_momentum=total_momentum)
    window = (-1e3, 0.0)
    rep = q.locate_resonances(ker, window)
    poles = np.array([r.u for r in rep.resonances])
    crossings = np.array(rep.zero_crossings)
    assert np.all(np.diff(crossings) > 0.0)
    assert np.all(np.diff(np.searchsorted(poles, crossings)) > 0)
    reach = q.two_body._ZERO_POLE_CANCELLATION * np.maximum(1.0,
                                                            np.abs(poles))
    zeros = projected_zeros(ker, window)
    near = np.abs(np.subtract.outer(zeros, poles)) <= reach
    assert len(zeros) - len(crossings) <= np.count_nonzero(near.any(axis=0))
    for hits in np.abs(np.subtract.outer(crossings, poles)) <= reach:
        assert np.all(near[:, hits].sum(axis=0) >= 2)
    # I00 is monotone between poles: step half way to the nearest one
    every_pole = ker.poles((-np.inf, 0.0))[0]
    for c in crossings:
        h = 0.5 * np.min(np.abs(every_pole - c), initial=abs(c))
        assert ker.entrance_amplitude(c - h) * ker.entrance_amplitude(c + h) \
            < 0.0


@given(trap=tabulated_traps(), total_momentum=st.floats(0.0, 2.0),
       data=st.data())
def test_grown_kernel_is_the_fresh_kernel(trap, total_momentum, data,
                                         collision_rows):
    """A kernel on the first n_lo states grown to the whole spectrum
    holds the fresh kernel's channels, pair rows and denominators, and
    its H to the round-off of one sum over the channels (the blocks of
    rows, and so the order of that sum, differ between the two)."""
    spectrum = q.solve_transverse(trap)
    n_lo = data.draw(st.integers(1, spectrum.n_states))
    grown = q.two_body._grow(q.build_kernel(
        q.solve_transverse(trap, n_states=n_lo), total_momentum), spectrum)
    fresh = q.build_kernel(spectrum, total_momentum)
    order = np.lexsort((grown.pairs[:, 1], grown.pairs[:, 0]))
    assert np.array_equal(grown.pairs[order], fresh.pairs)
    assert np.array_equal(collision_rows(grown)[order],
                          collision_rows(fresh))
    assert np.array_equal(grown.denominators[order], fresh.denominators)
    bound = fresh.n_channels * np.finfo(float).eps \
        * np.max(np.abs(fresh.green))
    assert np.max(np.abs(grown.green - fresh.green)) <= bound


@pytest.mark.parametrize("block", [1, 3, two_body._BLOCK_CHANNELS])
@given(trap=tabulated_traps(), total_momentum=st.floats(0.0, 2.0),
       u=st.floats(-20.0, 20.0))
def test_block_assembled_kernel_is_the_single_product(
        block, trap, total_momentum, u, collision_rows,
        dense_collision_solve):
    """H summed a block of `block` channels at a time (block edges cut
    through the channels of one upper state) against S^T |D|^-1 S from
    every row in one product, and the blockwise channel amplitudes
    against the dense S (psi_0^2 + U g)."""
    with mock.patch.object(two_body, "_BLOCK_CHANNELS", block):
        ker = q.build_kernel(q.solve_transverse(trap), total_momentum)
    rows = collision_rows(ker)
    scaled = rows / np.sqrt(-ker.denominators)[:, None]
    witness = scaled.T @ scaled
    assert np.array_equal(ker.green, ker.green.T)
    assert np.max(np.abs(ker.green - witness)) \
        <= 1e-14 * np.max(np.abs(witness))

    assume(np.min(np.abs(1.0 + u * np.linalg.eigvalsh(ker.green))) > 1e-3)
    with mock.patch.object(two_body, "_BLOCK_CHANNELS", block):
        i_vector = q.solve_scattering_length(ker, u).i_vector
    i_dense = dense_collision_solve(ker, u)[0]
    assert np.max(np.abs(i_vector - i_dense)) \
        <= 1e-9 * np.max(np.abs(i_dense))


@given(trap=tabulated_traps(), u=st.floats(-20.0, 20.0),
       k=st.floats(1e-3, 1.0))
def test_finite_k_closed_form_solves_the_entrance_equation(trap, u, k):
    """The closed finite-k solution satisfies
    x = sqrt(1 - (U x / s)^2) I00(E_k) and sin(delta_k) = -U x / s,
    s = 2 J_K sin k, to round-off.  Where |U x / s| nears 1, cos(delta_k)
    carries a relative error eps / cos(delta_k), which the residuals
    amplify: by 1 / cos(delta_k) for the sine and by 1 / cos^2(delta_k)
    for the square root of 1 - (U x / s)^2 = cos^2(delta_k)."""
    ker = q.build_kernel(q.solve_transverse(trap))
    try:
        at_k = ker.at_relative_momentum(k)
    except q.OpenChannel:
        assume(False)  # the trap's gap is too small for this k
    assume(at_k.pole_proximity(u) > 1e-3)
    fk = q.solve_finite_k(ker, u, k)
    i00_lin = at_k.entrance_amplitude(u)
    s = 2.0 * ker.j_k * np.sin(k)
    x, cos_delta = fk.i00, np.cos(fk.delta_k)
    eps = np.finfo(float).eps
    assert abs(x - np.sqrt(1.0 - (u * x / s) ** 2) * i00_lin) <= \
        16 * eps * abs(i00_lin) / cos_delta ** 2
    assert abs(np.sin(fk.delta_k) + u * x / s) <= 16 * eps / cos_delta
    assert fk.u1d == u * i00_lin
    assert np.allclose(fk.i_vector,
                       cos_delta * q.solve_scattering_length(at_k, u).i_vector,
                       rtol=0.0, atol=0.0)


@given(channels=st.lists(st.floats(2.0, 40.0), min_size=1, max_size=20),
       energies=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=4),
       j_eff=st.floats(0.05, 2.0))
def test_closed_channels_match_scalar(channels, energies, j_eff):
    """The array helper, and alpha_closed on each entry, are the scalar
    root ``alpha = 2 / (g + sqrt(g^2 - 4))`` of
    ``alpha^2 - g alpha + 1 = 0`` entry by entry, bit for bit, and name
    the first open (energy, channel) pair in row-major order."""
    def closed(e_n, e):
        g = (e_n - e) / j_eff
        if g <= 2.0:
            raise q.OpenChannel(
                f"channel at energy {e_n:.6g} is open at target energy "
                f"{e:.6g}: gap ratio g = {g:.6g} <= 2")
        alpha = 2.0 / (g + math.sqrt(g * g - 4.0))
        return alpha, e + 2.0 * j_eff * alpha - e_n

    try:
        scalar = [[closed(e_n, e) for e_n in channels] for e in energies]
    except q.OpenChannel as exc:
        with pytest.raises(q.OpenChannel) as vec:
            q.closed_channels(np.array(channels),
                              np.array(energies)[:, None], j_eff)
        assert str(vec.value) == str(exc)
        return
    alphas, denominators = q.closed_channels(
        np.array(channels), np.array(energies)[:, None], j_eff)
    one_by_one = [[q.alpha_closed(e_n, e, j_eff) for e_n in channels]
                  for e in energies]
    for got, each, want in (
            (alphas, [[v.alpha for v in row] for row in one_by_one],
             [[a for a, _ in row] for row in scalar]),
            (denominators, [[v.denominator for v in row] for row in one_by_one],
             [[d for _, d in row] for row in scalar])):
        want = np.array(want).view(np.int64)
        assert np.array_equal(got.view(np.int64), want)
        assert np.array_equal(np.array(each).view(np.int64), want)


@given(v0s=st.lists(st.floats(0.1, 10.0), min_size=1, max_size=40),
       closed=st.floats(0.0, 0.99))
@example(v0s=np.linspace(0.1, 10.0, 200).tolist(), closed=0.0)  # fig2
def test_a_batch_integrates_each_well_as_alone(v0s, closed):
    """Each delta well's S(k) and error estimate are bit-identical in a
    batch and alone: its panels, and the order of its sums, do not
    depend on the other wells."""
    # the continuum channel is closed while cos k > 2 - sqrt(v0^2 + 4)/2
    k = closed * math.acos(max(2.0 - math.hypot(min(v0s), 2.0) / 2.0, -1.0))
    wells = [q.DeltaWell(v0=v0) for v0 in v0s]
    for well, got in zip(wells, q.continuum_sums(wells, k=k)):
        alone = q.continuum_sum(well, k=k)
        assert (got.value.hex(), got.quadrature_error.hex()) == \
            (alone.value.hex(), alone.quadrature_error.hex()), well


@given(trap=mirrored_tables(), L=st.integers(4, 5000))
def test_ring_sums_skip_only_negligible_powers(trap, L,
                                               plain_power_ring_sums):
    """Leaving alpha^L and alpha^(L-1) at zero where they cannot move
    1 + alpha^L or alpha + alpha^(L-1) keeps Sigma_L bit for bit."""
    spectrum = q.solve_transverse(trap)
    assume(spectrum.origin_amplitudes[1:].any())
    ks, want = plain_power_ring_sums(spectrum, L, points=64)
    assert ring._ring_sums(spectrum, ks, L).tobytes() == want.tobytes()


@given(trap=tabulated_traps(), L=st.integers(10, 40),
       u=st.floats(-8.0, 8.0).filter(lambda u: abs(u) >= 0.1))
def test_ring_energy_is_a_strip_eigenvalue(trap, L, u,
                                           ring_strip_eigenvalue):
    """E_0 plus the lowest ring energy of branch 1 is an eigenvalue of
    the periodic strip with the contact at (0, 0), on symmetric and
    asymmetric tables alike."""
    spectrum = q.solve_transverse(trap)
    try:
        sol = q.ring_momentum(spectrum, u, L, 1)
    except (q.OpenChannel, q.NoRootInBranch):
        assume(False)
    energy = float(spectrum.energies[0]) + sol.energy
    grid, v = q.potential_on_grid(trap, 0)
    assert abs(ring_strip_eigenvalue(grid, v, L, u, energy) - energy) \
        <= 1e-12 * max(1.0, abs(energy))


def _report(trap):
    return q.locate_resonances(q.build_kernel(q.solve_transverse(trap)),
                               (-30.0, 0.0))


@given(table=mirrored_tables(), data=st.data())
def test_integer_relabelling_keeps_poles_and_zero_crossings(table, data):
    """The contact acts on the whole collision diagonal, so relabelling a
    hard-wall table y -> y + s (integer s != 0) leaves the pair problem
    as it is.  The mirror table is solved on the even half of the
    collision diagonal, its shifted copy on every site; both give the
    same visible poles and zero crossings to 1e-12 max(1, |U|).  The
    copy's odd pairs add poles of zero weight, each of which cancels
    only the zero it puts on itself."""
    half = int(table.grid[-1])
    shift = data.draw(st.integers(-half, half).filter(bool))
    moved = _shifted(table, shift)
    assert not moved.is_symmetric()
    mirror, copy = _report(table), _report(moved)
    for want, got in (
            ([r.u for r in mirror.visible_resonances],
             [r.u for r in copy.visible_resonances]),
            (mirror.zero_crossings, copy.zero_crossings)):
        want, got = np.array(want), np.array(got)
        assert len(want) == len(got)
        assert np.all(np.abs(got - want)
                      <= 1e-12 * np.maximum(1.0, np.abs(want)))


def _smooth(c, r, m, w, q_, x):
    """``c (x - r) ((x - m)^2 + w) / (1 + q x^2)``: for w, q >= 0 it
    changes sign only at r (and touches zero at m if w = 0)."""
    return c * (x - r) * ((x - m) * (x - m) + w) / (1.0 + q_ * x * x)


_UNIT = st.floats(0.0, 1.0)
_LANE = st.tuples(st.floats(-10.0, 10.0), st.floats(1e-9, 20.0),
                  st.one_of(st.just(0.0), st.just(1.0), _UNIT),
                  st.floats(-1e3, 1e3), _UNIT, st.floats(0.0, 2.0),
                  st.floats(0.0, 5.0))


@given(lanes=st.lists(_LANE, min_size=1, max_size=8),
       xtol=st.sampled_from([1e-15, 2e-12, 1e-6]))
@example(lanes=[(0.5, 1.0, 0.0, 1.0, 0.5, 0.0, 1.0),
                (0.5, 1.0, 1.0, -2.0, 0.3, 1.0, 0.0)], xtol=1e-15)
def test_brent_lanes_are_brentq_bit_for_bit(lanes, xtol):
    """Every lane ends where scipy's brentq ends on its bracket, with
    the same convergence flag, including a root at either end."""
    a = np.array([lane[0] for lane in lanes])
    b = a + np.array([lane[1] for lane in lanes])
    # the root at a, at b, or inside; the touching point anywhere
    r = np.array([a_i if lane[2] == 0.0 else b_i if lane[2] == 1.0
                  else a_i + lane[2] * (b_i - a_i)
                  for a_i, b_i, lane in zip(a, b, lanes)])
    m = a + np.array([lane[4] for lane in lanes]) * (b - a)
    c, w, q_ = (np.array([lane[i] for lane in lanes]) for i in (3, 5, 6))

    def f(idx, x):
        fx = _smooth(c[idx], r[idx], m[idx], w[idx], q_[idx], x)
        return fx, fx

    root, aux, converged, _ = ring.brentq(f, a, b, xtol, 8.9e-16, 100)
    for i in range(len(lanes)):
        args = tuple(float(v[i]) for v in (c, r, m, w, q_))
        want, info = brentq(lambda x: _smooth(*args, x), float(a[i]),
                            float(b[i]), xtol=xtol, rtol=8.9e-16,
                            full_output=True, disp=False)
        assert (float(root[i]).hex(), bool(converged[i])) \
            == (float(want).hex(), info.converged), i
        assert float(aux[i]) == _smooth(*args, want)


_ORACLE_TRAPS = st.one_of(mirrored_tables(3, 7), tabulated_traps(3, 7))


def _orbit_sum(h, p):
    """``P^T H P`` entry for entry as the oracle rounds its sector
    factors, for an `h` that commutes with the symmetry group of the
    isometry `p`: ``|I| S_IJ / sqrt(|I| |J|)`` with ``S_IJ`` summed over
    the sites of orbit ``J`` in the row of the first site of ``I``."""
    orbits = (p != 0).astype(float)
    by_orbit = orbits.tocsc()  # rows sorted within each column
    size = np.diff(by_orbit.indptr)
    h_s = (h[by_orbit.indices[by_orbit.indptr[:-1]]] @ orbits).tocoo()
    h_s.data *= size[h_s.row]
    h_s.data /= np.sqrt(size[h_s.row] * size[h_s.col])
    return h_s.toarray()


def _oracle_strips(trap, lx, u, momentum):
    """The single-particle and the pair strip of `trap`: each one's
    full-space ``H``, sector, entrance state on one x-slice and array
    shape ``(2 lx + 1, ny)`` or ``(2 lx + 1, ny, ny)``."""
    problem = q.StripProblem(trap=trap, u=u, lx=lx)
    y_grid, v, spectrum = oracle._transverse(problem)
    psi0 = spectrum.wavefunctions[0]
    nx, ny = 2 * lx + 1, len(y_grid)
    return ((q.strip_hamiltonian(problem)[0],
             oracle._sector(problem, y_grid, v, None), psi0, (nx, ny)),
            (q.pair_hamiltonian(problem, momentum)[0],
             oracle._sector(problem, y_grid, v, momentum),
             np.outer(psi0, psi0).reshape(-1), (nx, ny, ny)))


@given(trap=_ORACLE_TRAPS, lx=st.integers(16, 20),
       u=st.floats(-5.0, 5.0), momentum=st.floats(0.0, 2.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_oracle_sectors_are_invariant_isometries(trap, lx, u, momentum,
                                                 seed, sector_isometry):
    """P^T P = I, H P = P H_s, and every sector vector P phi is exactly
    even in x, (for a pair) symmetric in y1 <-> y2 and, on a trap that is
    an exact mirror image, even under y -> -y.  The sector holds
    (lx + 1) m unknowns for m transverse orbits."""
    ny = len(q.solve_transverse(trap).grid)
    mirror = np.array_equal(trap.grid, -trap.grid[::-1]) \
        and np.array_equal(trap.potential, trap.potential[::-1])
    half = (ny + 1) // 2
    rng = np.random.default_rng(seed)
    for (h, sector, _, shape), m in zip(
            _oracle_strips(trap, lx, u, momentum),
            (half if mirror else ny,
             half * half if mirror else ny * (ny + 1) // 2)):
        p = sector_isometry(sector)
        n = p.shape[1]
        assert n == (lx + 1) * m
        h_s = oracle._sector_product(sector, np.identity(n))
        assert np.max(np.abs((p.T @ p - np.identity(n)))) <= 1e-15
        assert abs(h @ p - p @ h_s).max() <= 1e-14
        psi = (p @ rng.standard_normal(n)).reshape(shape)
        assert np.array_equal(psi[::-1], psi)
        if len(shape) == 3:
            assert np.array_equal(psi.transpose(0, 2, 1), psi)
        if mirror:
            assert np.array_equal(np.flip(psi, axis=tuple(range(1, psi.ndim))),
                                  psi)


@given(trap=_ORACLE_TRAPS, lx=st.integers(16, 20),
       u=st.floats(-5.0, 5.0), momentum=st.floats(0.0, 2.0),
       sigma=st.floats(-5.0, 5.0))
@example(trap=q.Tabulated.from_mapping({-1: 1.9233, 0: 0.0, 1: 1.9233}),
         lx=16, u=-5.0, momentum=0.0, sigma=-1.5)
# walls steep enough that the cut shortens the top chains to 15 orbits
@example(trap=q.Tabulated.from_mapping(
    {-2: 12.0, -1: 6.0, 0: 0.0, 1: 6.0, 2: 12.0}),
         lx=16, u=-5.0, momentum=0.0, sigma=0.5)
def test_oracle_sector_factors(trap, lx, u, momentum, sigma,
                               sector_isometry):
    """H_s applied factor by factor (x-chain, slice and contact) is
    P^T H P of the full-space H entry for entry, also where an orbit of
    four or eight states sums equal diagonal entries; the directly
    assembled H_rot - sigma is the sum of its three Kronecker products
    less sigma I entry for entry, and on the sites the cut of closed
    chains keeps its principal submatrix; and the slice eigenbasis R
    carries H_s into H_rot: H_s (I (x) R) = (I (x) R) H_rot."""
    for h, cut, _, _ in _oracle_strips(trap, lx, u, momentum):
        nx, m = cut.dims
        sector = cut._replace(depths=np.full(m, nx))  # every chain whole
        kept = np.flatnonzero(cut.kept)
        h_s = oracle._sector_product(sector, np.identity(nx * m))
        reference = _orbit_sum(h, sector_isometry(sector))
        diff = np.max(np.abs(h_s - reference))
        assert diff == 0.0, f"max |H_s - P^T H P| = {diff:.3g}"
        energies, basis = np.linalg.eigh(sector.h_y)
        t_x = sp.diags([sector.chain, sector.chain], [-1, 1])
        at_impurity = sp.csr_matrix(([1.0], ([nx - 1], [nx - 1])),
                                    shape=(nx, nx))
        kron_sum = (sp.kron(t_x, sp.identity(m))
                    + sp.kron(sp.identity(nx), sp.diags(energies))
                    + sp.kron(at_impurity, sp.csr_matrix(
                        basis.T @ (np.diag(sector.contact) @ basis))))
        assert np.array_equal(sector.rotation, basis)
        for shift in (0.0, sigma):
            h_rot = oracle._rotated(sector, shift)
            want = kron_sum - shift * sp.identity(nx * m)
            assert h_rot.shape == want.shape
            assert (h_rot != want).nnz == 0
            h_cut = oracle._rotated(cut, shift)
            assert (h_cut != want.tocsr()[kept][:, kept]).nnz == 0
        h_rot = oracle._rotated(sector, 0.0)
        lift = np.kron(np.identity(nx), basis)
        assert np.linalg.norm(h_s @ lift - lift @ h_rot.toarray()) \
            <= 1e-13 * np.linalg.norm(h_s)


@given(trap=_ORACLE_TRAPS, lx=st.integers(16, 20),
       u=st.floats(-5.0, 5.0), momentum=st.floats(0.0, 2.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_oracle_sector_readout_is_the_full_space_readout(
        trap, lx, u, momentum, seed, sector_isometry):
    """The entrance amplitude w(x), the entrance weight and the fit
    window's closed-channel share read in the sector equal those read
    from the full-space states P phi, for random unit sector vectors
    phi: to 1e-14, with every sector amplitude spread over the sites of
    its x- and y-orbits."""
    rng = np.random.default_rng(seed)
    window = lx + oracle._fit_window(lx)  # x > 0 of the fit window
    for _, sector, entrance, _ in _oracle_strips(trap, lx, u, momentum):
        p = sector_isometry(sector)
        phi = rng.standard_normal((p.shape[1], 3))
        phi /= np.linalg.norm(phi, axis=0)
        w, weight, contamination = oracle._readout(sector, phi, entrance)
        for j, psi in enumerate((p @ phi).T):
            full = psi.reshape(2 * lx + 1, -1)
            w_full = full @ entrance
            x_orbit = np.minimum(np.arange(2 * lx + 1),
                                 np.arange(2 * lx, -1, -1))
            assert np.max(np.abs(w[x_orbit, j] - w_full)) <= 1e-14
            assert abs(weight[j] - (w_full @ w_full) / (psi @ psi)) <= 1e-14
            win_total = float(np.sum(full[window] ** 2))
            w_win = w_full[window]
            assert abs(contamination[j] - max(
                0.0, win_total - w_win @ w_win) / win_total) <= 1e-14


@st.composite
def own_grid_requests(draw):
    """A trap that fixes its own grid (a harmonic trap with a set
    half-width, or a hard-walled table) and the state counts to ask it
    for."""
    if draw(st.booleans()):
        trap = q.Harmonic(omega=10.0 ** draw(st.floats(-3.0, 0.0)),
                          y_max=draw(st.sampled_from([8, 40])))
        top = 130
    else:
        trap = draw(tabulated_traps())
        top = 20
    return trap, sorted(draw(st.sets(st.integers(1, top), min_size=1,
                                     max_size=5)))


def _outcome(solve, n_states):
    """The spectrum `solve` returns for `n_states`, or its refusal as
    ``(type, message)``."""
    try:
        return solve(n_states)
    except q.Q1DError as err:
        return type(err), str(err)


@given(request=own_grid_requests())
def test_leading_states_of_one_solve_are_a_fresh_solve(request):
    """The resonance ladder cuts every rung from one solve of the
    trap's grid.  The lowest n states of that complete basis equal a
    fresh ``solve_transverse(trap, n)`` bit for bit, and where the fresh
    solve refuses, the basis shows why: a table holds fewer states, or
    state m of a harmonic grid is the first to reach its edges."""
    trap, sizes = request
    basis = traps._complete_spectrum(*next(traps._grids(trap)))
    assert basis.complete
    leaks = np.abs(basis.wavefunctions[:, [0, -1]]).max(axis=1) \
        >= traps.DEFAULT_EDGE_TOL
    for n_states in sizes:
        want = _outcome(lambda n: q.solve_transverse(trap, n), n_states)
        if isinstance(trap, q.Tabulated) and n_states > basis.n_states:
            assert want == (q.ConfigError,
                            f"trap holds only {basis.n_states} states")
            continue
        if isinstance(trap, q.Harmonic) and leaks[:n_states].any():
            m = int(np.argmax(leaks))
            assert want == (q.EdgeLeak, (
                f"only {m} states decay at the grid edge; {n_states} "
                f"requested (half-width {trap.y_max} too small)"))
            continue
        assert isinstance(want, q.TransverseSpectrum)
        got = traps._leading_states(basis, n_states)
        assert got.n_states == n_states
        for field in ("energies", "wavefunctions", "grid"):
            assert np.array_equal(getattr(got, field), getattr(want, field))
        assert (got.parities, got.symmetric) == (want.parities,
                                                 want.symmetric)
