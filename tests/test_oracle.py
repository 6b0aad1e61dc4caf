"""Brute-force strip exact diagonalization as an independent check of
the channel-expansion results."""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh, splu

import q1dscatter as q
from q1dscatter import oracle


def test_zero_coupling_flagged_divergent():
    res = q.strip_scattering_length(
        q.StripProblem(trap=q.TwoSite(v=1.0), u=0.0, lx=100))
    assert res.diverged
    resp = q.pair_scattering_length(
        q.StripProblem(trap=q.TwoSite(v=1.0), u=0.0, lx=100))
    assert resp.diverged


@pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf])
def test_non_finite_coupling_refused(u):
    with pytest.raises(q.ConfigError, match="coupling u must be finite"):
        q.StripProblem(trap=q.Harmonic(omega=0.1), u=u, lx=100)


def test_two_site_single_particle_agreement(two_site_spectrum):
    theory = q.effective_u1d(two_site_spectrum, -2.0).a
    for lx, tol in ((100, 1e-6), (200, 1e-6), (400, 1e-8)):
        res = q.strip_scattering_length(
            q.StripProblem(trap=q.TwoSite(v=1.0), u=-2.0, lx=lx))
        assert not res.diverged
        assert abs(res.a - theory) < tol
        assert res.entrance_weight > 0.9
        assert res.fit_residual < 1e-6
        assert res.contamination < 1e-8


def test_extracted_momenta_shrink_with_strip_size():
    res_small = q.strip_scattering_length(
        q.StripProblem(trap=q.TwoSite(v=1.0), u=-2.0, lx=100))
    res_large = q.strip_scattering_length(
        q.StripProblem(trap=q.TwoSite(v=1.0), u=-2.0, lx=400))
    assert res_large.k_min < res_small.k_min


def test_two_site_pair_agreement(two_site_kernel):
    theory = q.solve_scattering_length(two_site_kernel, -5.0).a
    res = q.pair_scattering_length(
        q.StripProblem(trap=q.TwoSite(v=1.0), u=-5.0, lx=200))
    assert abs(res.a - theory) < 1e-6


def test_repulsive_pair_agreement(two_site_kernel):
    theory = q.solve_scattering_length(two_site_kernel, 5.0).a
    res = q.pair_scattering_length(
        q.StripProblem(trap=q.TwoSite(v=1.0), u=5.0, lx=200))
    assert abs(res.a - theory) < 1e-6


def test_strip_size_validation():
    with pytest.raises(q.ConfigError):
        q.StripProblem(trap=q.TwoSite(v=1.0), u=-2.0, lx=8)
    # lx = 16 is allowed to construct, but holds too few free levels in
    # the fit range (lx >= 52 needed)
    with pytest.raises(q.ConfigError):
        q.strip_scattering_length(
            q.StripProblem(trap=q.TwoSite(v=1.0), u=-2.0, lx=16))


@pytest.mark.parametrize("u", [-1.0, 2.0])
@pytest.mark.parametrize("trap", [
    q.DeltaWell(v0=1.0),
    q.DeltaWell(v0=3.0),
    q.Tabulated.from_mapping({-1: 0.5, 0: -0.9, 1: 0.5}, 1.0),
    q.Tabulated.from_mapping({0: 0.0}, 1.0),
], ids=["delta-1", "delta-3", "dip", "one-site"])
def test_continuum_well_matches_the_continuum_theory(trap, u):
    # the strip's transverse box holds the well's continuum as a dense
    # set of closed channels: a = -2 J / U1D with the bound sum plus the
    # continuum integral S(0) in 1/U_CIR (measured <= 9.9e-12)
    cir = q.u_cir_with_continuum(trap)
    psi0 = float(q.solve_transverse(trap).origin_amplitudes[0])
    theory = -2.0 * q.J * (1.0 - u * cir.inverse) / (u * psi0 ** 2)
    res = q.strip_scattering_length(q.StripProblem(trap=trap, u=u, lx=200))
    assert abs(res.a - theory) <= 1e-9 * abs(theory)


# ------------------------------------------- sparse assembly and sectors


def _lil_hamiltonian(problem, total_momentum=None):
    """The strip (``total_momentum=None``) or pair Hamiltonian built the
    way it was first written: through LIL updates of the impurity."""
    y_grid, v, _ = oracle._transverse(problem)
    nx, ny = 2 * problem.lx + 1, len(y_grid)
    amplitude = q.J if total_momentum is None \
        else q.pair_hopping(total_momentum)
    off = -amplitude * np.ones(nx - 1)
    tx = sp.diags([off, off], [-1, 1], format="csr")
    hy = sp.diags([v, -q.J * np.ones(ny - 1), -q.J * np.ones(ny - 1)],
                  [0, -1, 1], format="csr")
    if total_momentum is None:
        h = (sp.kron(tx, sp.identity(ny))
             + sp.kron(sp.identity(nx), hy)).tolil()
        iy0 = int(np.searchsorted(y_grid, 0))
        h[problem.lx * ny + iy0, problem.lx * ny + iy0] += problem.u
        return h.tocsr()
    h = (sp.kron(tx, sp.identity(ny * ny))
         + sp.kron(sp.identity(nx), sp.kron(hy, sp.identity(ny))
                   + sp.kron(sp.identity(ny), hy))).tolil()
    for iy in range(ny):
        idx = (problem.lx * ny + iy) * ny + iy
        h[idx, idx] += problem.u
    return h.tocsr()


ASYMMETRIC_TABLE = q.Tabulated.from_mapping(
    {-2: 0.7, -1: 0.2, 0: 0.0, 1: 0.4, 2: 1.3, 3: 2.1}, None)


@pytest.mark.parametrize("trap", [q.TwoSite(v=1.0), q.Harmonic(omega=0.1),
                                  ASYMMETRIC_TABLE],
                         ids=["two-site", "harmonic", "asymmetric"])
def test_hamiltonians_match_lil_assembly(trap):
    for u in (-2.5, 0.0):
        problem = q.StripProblem(trap=trap, u=u, lx=16)
        h, _, _ = q.strip_hamiltonian(problem)
        ref = _lil_hamiltonian(problem)
        assert h.shape == ref.shape and (h != ref).nnz == 0
        if isinstance(trap, q.Harmonic):
            continue  # 81**2 transverse pair states: the table covers it
        h, _, _ = q.pair_hamiltonian(problem, math.pi / 3)
        ref = _lil_hamiltonian(problem, math.pi / 3)
        assert h.shape == ref.shape and (h != ref).nnz == 0


def _full_space_eigenpairs(problem, momentum, reflect, e_free, j_eff,
                           calls, isometry):
    """The full-space solve the sector solve replaced, for comparison:
    ``H`` from `strip_hamiltonian` (``momentum=None``) or
    `pair_hamiltonian`, shift-invert Lanczos on all of it for 18
    eigenpairs, whatever the count asked for, and for each even
    candidate in the fitted momentum range two inverse-iteration steps
    at its Rayleigh quotient, each with its own LU factorization; the
    first candidate past that range ends the list unrefined, so the
    oracle's scan stops on it.  A candidate outside the sector (such as
    a mirror-odd state) is skipped, and the vectors are returned in the
    sector, projected with ``P^T`` (`isometry`).  Every strip is
    recorded in `calls`."""
    def solve(sector, sigma):
        calls.append(sigma)
        strip = replace(problem, lx=sector.dims[0] - 1)
        h = (q.strip_hamiltonian(strip) if momentum is None
             else q.pair_hamiltonian(strip, momentum))[0]
        p = isometry(sector)
        vals, vecs = eigsh(h, k=18, sigma=sigma, v0=np.ones(h.shape[0]))
        h_csc = h.tocsc()
        eye = sp.identity(h.shape[0], format="csc")
        energies, vectors, residuals = [], [], []
        for idx in np.argsort(vals):
            cos_k = (e_free - float(vals[idx])) / (2.0 * j_eff)
            if not -1.0 + 1e-12 < cos_k < 1.0 - 1e-12:
                continue
            psi = vecs[:, idx]
            if math.acos(cos_k) > oracle._K_MAX_FIT:
                energies.append(float(vals[idx]))
                vectors.append(psi)
                residuals.append(math.inf)
                break
            if float(psi @ reflect(psi)) < 0.5:
                continue
            if float(np.linalg.norm(p.T @ psi)) < 0.5:
                continue
            rho = float(vals[idx])
            for _ in range(2):
                step = splu((h_csc - rho * eye).tocsc()).solve(psi)
                psi = step / np.linalg.norm(step)
                rho = float(psi @ (h_csc @ psi))
            if any(abs(rho - e) < 1e-10 * (1.0 + abs(rho))
                   for e in energies):
                continue  # collapsed onto an earlier candidate
            energies.append(rho)
            vectors.append(psi)
            residuals.append(float(np.linalg.norm(h_csc @ psi - rho * psi)))
        pairs = (np.array(energies), p.T @ np.column_stack(vectors),
                 np.array(residuals))
        return sigma, lambda count: pairs
    return solve


_TABLE9 = q.Tabulated.from_mapping({y: 0.1 * y * y for y in range(-4, 5)},
                                   None)
# (trap, u, K or None for one particle, m transverse orbits): ny = 81
# mirror orbits 41; two-site pair, no mirror: 2 * 3 / 2; 9-site mirror
# pair: 5**2
_SECTOR_CASES = {
    "single-harmonic": (q.Harmonic(omega=0.1), -2.0, None, 41),
    "pair-two-site": (q.TwoSite(v=1.0), -5.0, 0.0, 3),
    "pair-table-moving": (_TABLE9, -5.0, math.pi / 3, 25),
}


@pytest.mark.parametrize("name", list(_SECTOR_CASES))
def test_sector_solve_matches_full_space(name, monkeypatch,
                                         sector_isometry):
    trap, u, momentum, m = _SECTOR_CASES[name]
    problem = q.StripProblem(trap=trap, u=u, lx=100)
    y_grid, _, spectrum = oracle._transverse(problem)
    ny, e0 = len(y_grid), spectrum.energies[0]
    if momentum is None:
        def run():
            return q.strip_scattering_length(problem)

        def reflect(psi):
            return psi.reshape(-1, ny)[::-1].reshape(-1)
        e_free, j_eff = e0, q.J
    else:
        def run():
            return q.pair_scattering_length(problem, momentum)

        def reflect(psi):
            nx = psi.size // (ny * ny)
            return psi.reshape(nx, ny, ny)[::-1].transpose(0, 2, 1) \
                .reshape(-1)
        e_free, j_eff = 2.0 * e0, q.pair_hopping(momentum)

    extrapolate = oracle._extrapolate
    extracted = []

    def spy(states, **sizes):
        extracted.append(states)
        return extrapolate(states, **sizes)

    monkeypatch.setattr(oracle, "_extrapolate", spy)
    sector = run()
    calls = []
    monkeypatch.setattr(oracle, "_sector_eigenpairs", _full_space_eigenpairs(
        problem, momentum, reflect, e_free, j_eff, calls, sector_isometry))
    full = run()
    assert len(calls) == 1  # the reference, not the sector solve, ran

    # the same states, with energies E = e_free - 2 J_eff cos k to 1e-12;
    # k = acos(...) amplifies an ulp of E by 1/k^2, and the reference's
    # own dot products move it by up to ~2e-12 relative
    ours, theirs = extracted
    assert len(ours) == len(theirs) > 0
    k = np.array([e.k for e in ours])
    k_ref = np.array([e.k for e in theirs])
    assert np.all(np.abs(k - k_ref) <= 1e-11 * k_ref)
    assert np.all(2.0 * j_eff * np.abs(np.cos(k) - np.cos(k_ref)) <= 1e-12)
    assert max(e.eigen_residual for e in ours) <= 1e-10
    assert abs(sector.a - full.a) <= 1e-9
    assert sector.unknowns == 101 * m


_TABLE13 = q.Tabulated.from_mapping(
    {y: 0.1 * y * y for y in range(-6, 7)}, None)

# U = pole +- 0.05 at the four visible poles of the 13-site table at
# K = 0 (-8.2865, -7.6027, -6.4318, -5.6021) and K = pi/3 (-7.8816,
# -7.2664, -6.1239, -5.3137), with the measured number of accepted states
_POLE_SIDES = [(0.0, -8.3365, 9), (0.0, -8.2365, 9), (0.0, -7.6527, 9),
               (0.0, -6.4818, 9), (0.0, -6.3818, 8), (0.0, -5.6521, 9),
               (0.0, -5.5521, 9), (math.pi / 3, -7.9316, 9),
               (math.pi / 3, -7.8316, 9), (math.pi / 3, -7.3164, 9),
               (math.pi / 3, -7.2164, 9), (math.pi / 3, -6.1739, 9),
               (math.pi / 3, -5.3637, 9), (math.pi / 3, -5.2637, 8)]


@pytest.mark.parametrize(
    "momentum, u, n_states",
    [(0.0, -7.5527, 9), (0.0, -8.0, 9), (math.pi / 3, -6.0739, 9)]
    + _POLE_SIDES,
    ids=["K0-pole-side", "K0", "K-pi/3-pole-side"]
    + [f"K{'0' if m == 0.0 else '-pi/3'}-U{u}" for m, u, _ in _POLE_SIDES])
def test_every_accepted_state_matches_finite_k(momentum, u, n_states):
    """Each state the oracle accepts, on either side of every visible
    pole or away from one, carries the phase shift of the closed-form
    finite-k channel solve at its own k, and the rational k**2 fit
    through them gives the channel solver's scattering length."""
    res = q.pair_scattering_length(
        q.StripProblem(trap=_TABLE13, u=u, lx=200), momentum)
    kernel = q.build_kernel(q.solve_transverse(_TABLE13), momentum)
    assert len(res.states) == n_states
    for k, tan_delta in res.states:
        delta = q.solve_finite_k(kernel, u, k).delta_k
        gap = (math.atan(tan_delta) - delta + math.pi / 2) % math.pi \
            - math.pi / 2
        assert abs(gap) <= 1e-10, (k, gap)
    assert abs(res.a - q.solve_scattering_length(kernel, u).a) <= 1e-8


def test_rational_fit_follows_a_pole_inside_the_window():
    """Readings of a known [2/2] in s = k**2 at the nine lowest free
    levels of lx = 200, with a pole at k = 0.1 between the sixth and the
    seventh: [3/2] recovers a(0) and is not refused.  Readings the two
    highest orders disagree on, or fewer than three, are refused."""
    k = (np.arange(1, 10) - 0.5) * math.pi / 201
    s = k ** 2
    a = (0.7 - 30.0 * s + 900.0 * s ** 2) / ((1.0 - s / 0.01)
                                             * (1.0 + s / 0.05))
    assert a[5] > 0.0 > a[6]  # the pole lies inside the fitted range
    a0, spread = oracle._zero_momentum_limit(s, a)
    assert abs(a0 - 0.7) <= 1e-10
    assert spread <= 1e-10
    with pytest.raises(q.NoConvergence, match=r"\[3/2\] .* \[2/2\]"):
        oracle._zero_momentum_limit(s, 1.0 + 0.1 * (-1.0) ** np.arange(9))
    with pytest.raises(q.NoConvergence, match="need 3"):
        oracle._zero_momentum_limit(s[:2], a[:2])


# one ulp off a mirror image: no mirror reduction, and `symmetric` is False
_NEAR_MIRROR_TABLE = q.Tabulated.from_mapping(
    {-2: 1.2, -1: 0.3, 0: 0.0, 1: np.nextafter(0.3, 1.0), 2: 1.2}, None)


@pytest.mark.parametrize("trap, u, momentum, mirrored", [
    (q.Harmonic(omega=0.1), -2.0, None, True),
    (_TABLE9, -5.0, math.pi / 3, True),
    (_TABLE13, -7.5527, 0.0, True),
    (ASYMMETRIC_TABLE, -2.0, None, False),
    (ASYMMETRIC_TABLE, -5.0, 0.0, False),
    (_NEAR_MIRROR_TABLE, -5.0, 0.0, False),
], ids=["single-harmonic", "pair-table9", "pair-table13",
        "single-asymmetric", "pair-asymmetric", "pair-near-mirror"])
def test_mirror_reduction_matches_unreduced_sector(trap, u, momentum,
                                                   mirrored, monkeypatch):
    """The mirror-even sector accepts the states the unreduced sector
    accepts, at the same k and delta; a trap that is not an exact mirror
    image keeps the unreduced sector and its (lx + 1) m unknowns."""
    problem = q.StripProblem(trap=trap, u=u, lx=200)

    def run():
        return q.strip_scattering_length(problem) if momentum is None \
            else q.pair_scattering_length(problem, momentum)

    reduced = run()
    # the sector without the transverse mirror: x-even and, for a pair,
    # y1 <-> y2 symmetric only
    monkeypatch.setattr(oracle, "mirror_symmetric", lambda y_grid, v: False)
    full = run()
    ny = len(oracle._transverse(problem)[0])
    m = ny if momentum is None else ny * (ny + 1) // 2
    assert full.unknowns == 201 * m
    if not mirrored:
        assert reduced == full
        return
    assert reduced.unknowns < full.unknowns
    assert len(reduced.states) == len(full.states) > 0
    for (k, tan_delta), (k_ref, tan_ref) in zip(reduced.states, full.states):
        assert abs(k - k_ref) <= 1e-11 * k_ref
        gap = (math.atan(tan_delta) - math.atan(tan_ref) + math.pi / 2) \
            % math.pi - math.pi / 2
        assert abs(gap) <= 1e-10, (k, gap)


def _factored_size(problem, momentum):
    """The x-orbits the cut keeps, counted chain by chain in the slice
    eigenbasis: ``lx + 1`` on a chain open at the top of the fit range
    ``E_top = e_free - 2 J_eff cos(0.15)``, and on a closed one the
    ``L_c`` nearest ``x = 0`` with ``alpha_c**L_c <= 1e-17``, at most
    ``lx + 1``.  Also returns the number of open chains."""
    y_grid, v, spectrum = oracle._transverse(problem)
    sector = oracle._sector(problem, y_grid, v, momentum)
    j_eff = q.J if momentum is None else q.pair_hopping(momentum)
    e_free = spectrum.energies[0] * (1 if momentum is None else 2)
    top = e_free - 2.0 * j_eff * math.cos(0.15)
    nx = problem.lx + 1
    size = n_open = 0
    for energy in np.linalg.eigvalsh(sector.h_y):
        if (energy - top) / j_eff <= 2.0:
            size += nx
            n_open += 1
            continue
        alpha = q.alpha_closed(energy, top, j_eff=j_eff).alpha
        depth = 1
        while depth < nx and alpha ** depth > 1e-17:
            depth += 1
        size += depth
    return size, n_open


@pytest.mark.parametrize("trap, u, momentum, m", [
    (q.Harmonic(omega=0.1), -2.0, None, 41),
    (q.TwoSite(v=1.0), -5.0, 0.0, 3),
    (_TABLE9, -5.0, math.pi / 3, 25),
    (_TABLE13, -5.0, math.pi / 3, 49),
], ids=["single-harmonic", "pair-two-site", "pair-table9", "pair-table13"])
def test_sector_factor_fill(trap, u, momentum, m, monkeypatch):
    """The solve factors only the sites the cut keeps of the 201 m
    sector unknowns, with about 4 entries per factored unknown plus the
    dense m x m contact block at x = 0; m counts the transverse orbits
    (mirror-even on the symmetric traps)."""
    problem = q.StripProblem(trap=trap, u=u, lx=200)
    factorize = oracle.splu
    fills = []

    def spy(matrix, **kwargs):
        lu = factorize(matrix, **kwargs)
        fills.append((matrix.shape[0], lu.L.nnz + lu.U.nnz))
        return lu

    monkeypatch.setattr(oracle, "splu", spy)
    if momentum is None:
        res = q.strip_scattering_length(problem)
    else:
        res = q.pair_scattering_length(problem, momentum)
    factored, _ = _factored_size(problem, momentum)
    assert [n for n, _ in fills] == [factored] == [res.factored]
    assert res.unknowns == 201 * m > factored
    for n, fill in fills:
        assert fill <= 5 * n + m * m, (n, fill)


def test_pair_strip_checks_the_lowest_coupled_pair_channel():
    """On a flat 15-site box the pair channel (1, 1) at 2 (E1 - E0) lies
    below E2 - E0 and needs lx > 35.1 at K = 0; lx = 34 is refused up
    front instead of failing later in the fit."""
    box = q.Tabulated.from_mapping({y: 0.0 for y in range(-7, 8)}, None)
    with pytest.raises(q.ConfigError, match="strip too short"):
        q.pair_scattering_length(q.StripProblem(trap=box, u=-5.0, lx=34))


@pytest.mark.parametrize("lx", [36, 51])
def test_short_strip_refused_up_front(lx, monkeypatch):
    """On the flat 15-site box at K = 0, lx = 36 and 51 pass the
    correlation check (lx > 35.1), but their fit range k <= 0.15 holds
    2 x-even free levels, too few for a rational fit.  Both are
    refused as configuration errors before any sector is assembled,
    naming lx = 52, the first with 3."""
    box = q.Tabulated.from_mapping({y: 0.0 for y in range(-7, 8)}, None)

    def no_sector(*args):
        raise AssertionError("sector assembled")

    monkeypatch.setattr(oracle, "_sector", no_sector)
    with pytest.raises(q.ConfigError,
                       match=r"^strip too short: .* lx = 52$"):
        q.pair_scattering_length(q.StripProblem(trap=box, u=-5.0, lx=lx))


_BENCHMARK_PROBLEMS = {
    "single-harmonic": (q.Harmonic(omega=0.1), -2.0, None),
    "pair-two-site": (q.TwoSite(v=1.0), -5.0, 0.0),
    "pair-table9-moving": (_TABLE9, -5.0, math.pi / 3),
}


@pytest.mark.parametrize("first", [1, 2])
@pytest.mark.parametrize("name", list(_BENCHMARK_PROBLEMS))
def test_short_first_request_doubles_on_one_factorization(name, first,
                                                          monkeypatch):
    """A first Lanczos request too short for the scan to stop on a
    returned state doubles until it does, on the problem's one LU
    factorization, and accepts the states of the default request."""
    trap, u, momentum = _BENCHMARK_PROBLEMS[name]
    problem = q.StripProblem(trap=trap, u=u, lx=200)

    def run():
        return q.strip_scattering_length(problem) if momentum is None \
            else q.pair_scattering_length(problem, momentum)

    plain = run()
    factorize, lanczos = oracle.splu, oracle.eigsh
    factored, requests = [], []

    def spy(matrix, **kwargs):
        factored.append(matrix.shape[0])
        return factorize(matrix, **kwargs)

    def counted(matrix, k, **kwargs):
        requests.append(k)
        return lanczos(matrix, k=k, **kwargs)

    monkeypatch.setattr(oracle, "splu", spy)
    monkeypatch.setattr(oracle, "eigsh", counted)
    monkeypatch.setattr(oracle, "_pairs_requested", lambda lx: first)
    doubled = run()
    assert len(factored) == 1
    assert plain.eigenpairs == 11  # min(n_free, 9) + 2, no doubling
    assert doubled.eigenpairs > first
    expected = [first]
    while expected[-1] < doubled.eigenpairs:
        expected.append(2 * expected[-1])
    assert requests == expected
    assert len(doubled.states) == len(plain.states) > 0
    for (k, _), (k_ref, _) in zip(doubled.states, plain.states):
        assert abs(k - k_ref) <= 1e-11 * k_ref
    assert abs(doubled.a - plain.a) <= 1e-10 * abs(plain.a)


def _rotated_by_coo(sector, sigma):
    """``H_rot - sigma`` on the sector's kept sites as ``oracle._rotated``
    assembled it before it filled the CSC arrays in column order: every
    entry of the whole sector as a COO triplet, exact zeros dropped,
    the triplets whose row or column is cut dropped as well and the
    rest renumbered over the kept sites, and scipy's COO -> CSC
    conversion sorting them."""
    energies, rotation = np.linalg.eigh(sector.h_y)
    block = rotation.T @ (sector.contact[:, None] * rotation)
    nx, m = sector.dims
    diagonal = np.tile(energies, nx)
    diagonal[-m:] += np.diag(block)
    b_row, b_col = np.nonzero(block)
    off = b_row != b_col
    at_impurity = (nx - 1) * m
    upper = np.arange((nx - 1) * m)
    bonds = np.repeat(sector.chain, m)
    rows = np.concatenate([upper, upper + m, np.arange(nx * m),
                           at_impurity + b_row[off]])
    cols = np.concatenate([upper + m, upper, np.arange(nx * m),
                           at_impurity + b_col[off]])
    data = np.concatenate([bonds, bonds, diagonal - sigma,
                           block[b_row[off], b_col[off]]])
    kept_site = sector.kept.reshape(-1)
    position = np.cumsum(kept_site) - 1
    kept = (data != 0.0) & kept_site[rows] & kept_site[cols]
    n = int(kept_site.sum())
    return sp.csc_matrix((data[kept], (position[rows[kept]],
                                       position[cols[kept]])),
                         shape=(n, n))


@pytest.mark.parametrize("name", list(_BENCHMARK_PROBLEMS))
def test_rotated_csc_arrays_match_the_coo_assembly(name):
    """The CSC arrays SuperLU factors (data, row indices and column
    pointers, values and dtypes) are bit for bit those of the COO
    assembly, on the kept sites and on the whole sector, at zero shift,
    at the oracle's shift and at the lowest slice energy, where every
    x-orbit but x = 0 has an exact zero on its diagonal that both
    drop."""
    trap, u, momentum = _BENCHMARK_PROBLEMS[name]
    problem = q.StripProblem(trap=trap, u=u, lx=200)
    y_grid, v, spectrum = oracle._transverse(problem)
    cut = oracle._sector(problem, y_grid, v, momentum)
    nx, m = cut.dims
    whole = cut._replace(depths=np.full(m, nx))
    j_eff = q.J if momentum is None else q.pair_hopping(momentum)
    e_free = spectrum.energies[0] * (1 if momentum is None else 2)
    lowest = np.linalg.eigh(cut.h_y)[0][0]
    for sector in (cut, whole):
        nnz = []
        for sigma in (0.0, e_free - 2.0 * j_eff * math.cos(math.pi / 201),
                      lowest):
            got = oracle._rotated(sector, sigma)
            want = _rotated_by_coo(sector, sigma)
            assert got.format == "csc" and got.shape == want.shape
            assert got.shape[0] == sector.factored
            for attr in ("data", "indices", "indptr"):
                a, b = getattr(got, attr), getattr(want, attr)
                assert a.dtype == b.dtype and np.array_equal(a, b), attr
            nnz.append(got.nnz)
        assert nnz[0] - nnz[2] >= nx - 1
    assert cut.factored < whole.factored == nx * m


@pytest.mark.parametrize("name", list(_BENCHMARK_PROBLEMS))
def test_factored_size_grows_only_on_open_chains(name):
    """Doubling the strip from lx = 200 to 400 adds 200 x-orbits to each
    transverse chain open at the top of the fit range and none to a
    closed one: on these traps every closed chain is cut within 201
    orbits of x = 0, at an amplitude alpha**L <= 1e-17."""
    trap, u, momentum = _BENCHMARK_PROBLEMS[name]
    factored = []
    for lx in (200, 400):
        problem = q.StripProblem(trap=trap, u=u, lx=lx)
        res = q.strip_scattering_length(problem) if momentum is None \
            else q.pair_scattering_length(problem, momentum)
        assert 0.0 < res.cut_bound <= 1e-17
        factored.append(res.factored)
    _, n_open = _factored_size(problem, momentum)
    assert n_open >= 1  # the entrance chain
    assert factored[1] - factored[0] == 200 * n_open


@pytest.mark.parametrize("trap, u, momentum", [
    *_BENCHMARK_PROBLEMS.values(), (_TABLE13, -7.5527, 0.0)],
    ids=[*_BENCHMARK_PROBLEMS, "pair-table13-pole-side"])
def test_cut_chains_accept_the_states_of_whole_chains(trap, u, momentum,
                                                      monkeypatch):
    """With the cut turned off (every transverse chain kept whole, the
    solve factoring all 201 m sector unknowns) the oracle accepts the
    same states as with it, at the same k, and reads the same a."""
    problem = q.StripProblem(trap=trap, u=u, lx=200)

    def run():
        return q.strip_scattering_length(problem) if momentum is None \
            else q.pair_scattering_length(problem, momentum)

    cut = run()
    monkeypatch.setattr(oracle, "_CHAIN_CUT", 0.0)
    whole = run()
    assert whole.factored == whole.unknowns == cut.unknowns > cut.factored
    assert whole.cut_bound == 0.0 < cut.cut_bound <= 1e-17
    assert len(cut.states) == len(whole.states) > 0
    for (k, _), (k_ref, _) in zip(cut.states, whole.states):
        assert abs(k - k_ref) <= 1e-11 * k_ref
    assert abs(cut.a - whole.a) <= 1e-10 * abs(whole.a)


@pytest.mark.parametrize("name", list(_BENCHMARK_PROBLEMS))
def test_one_transverse_solve_and_one_factorization(name, monkeypatch):
    """Each problem solves its transverse spectrum once and factors its
    one strip sector once."""
    trap, u, momentum = _BENCHMARK_PROBLEMS[name]
    problem = q.StripProblem(trap=trap, u=u, lx=200)
    calls = {"solve_transverse": 0, "splu": 0}

    def counted(attr):
        function = getattr(oracle, attr)

        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return function(*args, **kwargs)
        return wrapper

    for attr in calls:
        monkeypatch.setattr(oracle, attr, counted(attr))
    if momentum is None:
        q.strip_scattering_length(problem)
    else:
        q.pair_scattering_length(problem, momentum)
    assert calls == {"solve_transverse": 1, "splu": 1}


def test_singular_shift_retried_once(monkeypatch):
    problem = q.StripProblem(trap=q.TwoSite(v=1.0), u=-2.0, lx=100)
    plain = q.strip_scattering_length(problem)
    factorize = oracle.splu
    shifts = []

    def first_attempt_singular(matrix, **kwargs):
        shifts.append(matrix.diagonal()[0])
        if len(shifts) % 2:
            raise RuntimeError("Factor is exactly singular")
        return factorize(matrix, **kwargs)

    monkeypatch.setattr(oracle, "splu", first_attempt_singular)
    retried = q.strip_scattering_length(problem)
    failed, good = shifts  # one failed and one good factorization
    e0 = oracle._transverse(problem)[2].energies[0]
    sigma = e0 - 2.0 * q.J * math.cos(math.pi / (problem.lx + 1))
    assert failed - good == pytest.approx(1e-9 * (1.0 + abs(sigma)), rel=1e-6)
    assert abs(retried.a - plain.a) <= 1e-9
    assert retried.k_min == pytest.approx(plain.k_min, rel=1e-12)
    assert retried.eigen_residual <= 1e-10


def test_eigenpair_residual_gate_rejects_a_planted_bad_pair(monkeypatch):
    """The measured eigenpair residuals are near 1e-14, so no real solve
    reaches the ``_EIGEN_RESIDUAL_MAX`` gate.  Raising every residual by
    1e-8 plants a bad pair in each state: the gate rejects them all, and
    the run names it rather than fitting them (a gate at 1e-6 would
    have returned a = 1.94)."""
    solve = oracle._sector_eigenpairs

    def planted(sector, sigma):
        sigma, eigenpairs = solve(sector, sigma)

        def worse(count):
            rho, vectors, residuals = eigenpairs(count)
            return rho, vectors, residuals + 1e-8

        return sigma, worse

    monkeypatch.setattr(oracle, "_sector_eigenpairs", planted)
    problem = q.StripProblem(trap=q.Harmonic(omega=0.1), u=-2.0, lx=100)
    with pytest.raises(q.ContaminatedChannel, match="eigenpair residual"):
        q.strip_scattering_length(problem)
