"""Finite periodic systems: allowed momenta, fermionized-level
crossings, and the approach to the infinite-system limit."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

import q1dscatter as q
from q1dscatter import ring


def test_free_momenta_exact(harm_mod_spectrum):
    for L, branch in ((10, 1), (50, 2), (1000, 3)):
        sol = q.ring_momentum(harm_mod_spectrum, 0.0, L, branch=branch)
        assert sol.k == 2.0 * math.pi * branch / L
        assert sol.residual == 0.0


def test_free_zero_branch_has_no_momentum(harm_mod_spectrum):
    with pytest.raises(q.NoRootInBranch):
        q.ring_momentum(harm_mod_spectrum, 0.0, 50, branch=0)


def test_roots_stay_inside_their_branch(harm_mod_spectrum):
    L = 50
    for u, branch in ((-5.0, 1), (3.0, 1), (10.0, 2), (-20.0, 2)):
        sol = q.ring_momentum(harm_mod_spectrum, u, L, branch=branch)
        lo = (2 * branch - 1) * math.pi / L
        hi = (2 * branch + 1) * math.pi / L
        assert lo < sol.k < hi
        assert sol.residual <= 1e-10
        assert sol.energy == pytest.approx(-2.0 * math.cos(sol.k), rel=1e-14)


def test_weak_attraction_empties_the_lowest_branch(harm_mod_spectrum):
    # for u_cir < U < 0 the zero branch holds no scattering momentum
    with pytest.raises(q.NoRootInBranch):
        q.ring_momentum(harm_mod_spectrum, -1.0, 50, branch=0)
    # beyond the resonance the zero-branch root reappears
    sol = q.ring_momentum(harm_mod_spectrum, -10.0, 50, branch=0)
    assert 0.0 < sol.k < math.pi / 50


def test_crossings_attractive_and_consistent(harm_mod_spectrum):
    crossings = q.ring_cir_crossings(harm_mod_spectrum, 50)
    assert len(crossings) == 9
    assert all(c.u < 0.0 for c in crossings)
    assert crossings[0].u == pytest.approx(-5.43793215672732, rel=1e-12)
    for c in crossings:
        assert c.k == (2 * c.level + 1) * math.pi / 50
        sigma = q.ring_channel_sum(harm_mod_spectrum, c.k, 50)
        assert c.u == pytest.approx(-1.0 / sigma, rel=1e-13)


def test_lowest_crossing_approaches_infinite_system_cir(micro_spectrum):
    crossings = q.ring_cir_crossings(micro_spectrum, 1000)
    cir = q.u_cir(micro_spectrum)
    assert crossings[0].u == pytest.approx(cir.u_cir, abs=1e-3)
    assert all(c.u < 0.0 for c in crossings)


def test_large_ring_matches_infinite_system(harm_mod_spectrum):
    for u in (-5.0, 4.0, -25.0):
        sol = q.ring_momentum(harm_mod_spectrum, u, 1000, branch=1)
        ref = q.asymptotic_momentum(harm_mod_spectrum, u, 1000, branch=1)
        assert abs(sol.energy - ref.energy) < 1e-12


def test_finite_size_correction_is_tiny_at_moderate_length(harm_mod_spectrum):
    sol = q.ring_momentum(harm_mod_spectrum, -5.0, 20, branch=1)
    ref = q.asymptotic_momentum(harm_mod_spectrum, -5.0, 20, branch=1)
    assert abs(sol.energy - ref.energy) < 1e-9


@pytest.mark.parametrize("u, L, branch", [(-5.0, 1000, 1), (4.0, 1000, 3),
                                           (-25.0, 50, 1), (2.0, 50, 2)])
def test_asymptotic_momentum_is_brentq_bit_for_bit(harm_mod_spectrum, u, L,
                                                   branch):
    """``asymptotic_momentum`` polishes its bracket as one lane of
    ``ring.brentq``: its k is scipy's brentq root of the quantization
    rule, to the last bit, and its residual the rule at that root."""
    lo, hi = ring._branch_interval(L, branch)

    def quantization(k):
        delta = q.effective_u1d(harm_mod_spectrum, u, k=k).delta_k
        return k * L + 2.0 * delta - 2.0 * math.pi * branch

    want = brentq(quantization, lo, hi, xtol=1e-15, rtol=8.9e-16)
    got = q.asymptotic_momentum(harm_mod_spectrum, u, L, branch)
    assert got.k.hex() == want.hex()
    assert got.residual == abs(quantization(want))


def test_open_channel_guards(harm_mod_spectrum):
    with pytest.raises(q.OpenChannel):
        q.ring_channel_sum(harm_mod_spectrum, 2.5, 50)
    # branch 1 of a 10-site ring reaches momenta where an excited
    # transverse channel opens: the quasi-1D description fails there
    with pytest.raises(q.OpenChannel):
        q.asymptotic_momentum(harm_mod_spectrum, -5.0, 10, branch=1)


def test_length_validation(harm_mod_spectrum):
    with pytest.raises(q.ConfigError):
        q.ring_channel_sum(harm_mod_spectrum, 0.3, 3)
    with pytest.raises(q.ConfigError):
        q.ring_momentum(harm_mod_spectrum, 1.0, 50, branch=-1)


# ------------------------------------------ witness: the per-k scalar scan


def _scalar_channel_sum(spectrum, k, L):
    """Sigma_L(k) one state at a time through the scalar alpha_closed."""
    energy = q.entrance_energy(spectrum, k)
    total = 0.0
    for n in range(1, spectrum.n_states):
        amp2 = float(spectrum.origin_amplitudes[n]) ** 2
        if amp2 == 0.0:
            continue
        e_n = float(spectrum.energies[n])
        a = q.alpha_closed(e_n, energy).alpha
        a_l = a ** L
        total += amp2 * (1.0 + a_l) / (
            (e_n - energy) * (1.0 + a_l) - 2.0 * q.J * (a + a ** (L - 1)))
    return total


def _scalar_branch_roots(spectrum, u, L, branch):
    """The branch scan evaluated point by point: 400 momenta between the
    tan poles, each bracketed sign change polished by brentq."""
    pad = 2e-8 / L
    lo = max((2 * branch - 1) * math.pi / L, 0.0) + pad
    hi = min((2 * branch + 1) * math.pi / L, math.pi) - pad
    psi0 = float(spectrum.origin_amplitudes[0])

    def g(k):
        half = 0.5 * k * L
        return (2.0 * q.J * math.sin(k) * math.sin(half)
                * (1.0 + u * _scalar_channel_sum(spectrum, k, L))
                - u * psi0 * psi0 * math.cos(half))

    ks = np.linspace(lo, hi, 400)
    vals = [g(float(k)) for k in ks]
    roots = {float(k) for k, v in zip(ks, vals) if v == 0.0}
    for i in range(len(ks) - 1):
        if vals[i] * vals[i + 1] < 0.0:
            roots.add(brentq(g, float(ks[i]), float(ks[i + 1]), xtol=1e-15,
                             rtol=8.9e-16))
    if not roots:
        raise q.NoRootInBranch(f"branch {branch} empty at U={u}")
    return sorted(roots)


def _scalar_crossings(spectrum, L):
    out = []
    for n in range((L - 1) // 2 + 1):
        k_n = (2 * n + 1) * math.pi / L
        if not k_n < math.pi:
            break
        try:
            sig = _scalar_channel_sum(spectrum, k_n, L)
        except q.OpenChannel:
            break
        if sig > 0.0:
            out.append((n, k_n, -1.0 / sig))
    return out


def _outcome(solve):
    try:
        return solve()
    except (q.NoRootInBranch, q.OpenChannel) as exc:
        return exc


@pytest.mark.parametrize("L", [10, 50, 1000])
def test_branch_scan_matches_scalar_scan(harm_mod_spectrum, micro_spectrum,
                                         L):
    # couplings on both sides of the CIR (omega=0.1: -5.4; 1e-3: -2.8)
    cases = [(harm_mod_spectrum, u) for u in (-20.0, -6.0, -5.0, -1.0, 3.0)]
    cases += [(micro_spectrum, u) for u in (-10.0, -2.0, 4.0)]
    errors = set()
    for spectrum, u in cases:
        for branch in range(3):
            new = _outcome(lambda: [s.k for s in q.ring_branch_roots(
                spectrum, u, L, branch)])
            ref = _outcome(lambda: _scalar_branch_roots(spectrum, u, L,
                                                        branch))
            assert type(new) is type(ref), (u, branch, new, ref)
            if isinstance(ref, q.OpenChannel):
                # the same first open (k, n) as the scalar loop
                assert str(new) == str(ref)
            if isinstance(ref, Exception):
                errors.add(type(ref))
                continue
            assert new == pytest.approx(ref, rel=1e-14, abs=0.0)
    assert errors == ({q.NoRootInBranch, q.OpenChannel} if L == 10
                      else {q.NoRootInBranch})

    for spectrum in (harm_mod_spectrum, micro_spectrum):
        new = q.ring_cir_crossings(spectrum, L)
        ref = _scalar_crossings(spectrum, L)
        assert [(c.level, c.k) for c in new] == [(n, k) for n, k, _ in ref]
        assert [c.u for c in new] == pytest.approx([u for *_, u in ref],
                                                   rel=1e-14, abs=0.0)


# ------------------------- witness: the per-root brentq polish of a sweep


def _brentq_polish(spectrum, u, L, branch):
    """The per-root polish the lane solver replaced: each bracketed sign
    change of the branch's scan grid polished by scipy's brentq on the
    scalar momentum equation, the residual from one more scalar
    evaluation."""
    psi0 = float(spectrum.origin_amplitudes[0])

    def sides(k):
        half = 0.5 * k * L
        sig = q.ring_channel_sum(spectrum, k, L)
        return (2.0 * q.J * math.sin(k) * math.sin(half) * (1.0 + u * sig),
                u * psi0 * psi0 * math.cos(half))

    def g(k):
        lhs, rhs = sides(k)
        return lhs - rhs

    ks = np.linspace(*ring._branch_interval(L, branch), ring._SCAN_POINTS)
    lhs, rhs = ring._sides(spectrum, np.array([[u]]), L, ks)
    vals = (lhs - rhs)[0]
    found = set(ks[vals == 0.0].tolist())
    for i in np.flatnonzero(vals[:-1] * vals[1:] < 0.0):
        found.add(float(brentq(g, float(ks[i]), float(ks[i + 1]),
                               xtol=1e-15, rtol=8.9e-16)))
    out = []
    for k in sorted(found):
        lhs, rhs = sides(k)
        scale = max(abs(lhs), abs(rhs), 2.0 * q.J * abs(math.sin(k)))
        out.append((k, -2.0 * q.J * math.cos(k), abs(lhs - rhs) / scale))
    return out or None


def _bits(rows):
    return None if rows is None else [tuple(x.hex() for x in row)
                                      for row in rows]


@pytest.mark.parametrize("L", [10, 50, 1000])
def test_sweep_polish_matches_brentq_bitwise(micro_spectrum,
                                             harm_mod_spectrum, L):
    # the fig3 sweep (600 couplings, branch 0), then branches 1-2 of
    # the moderate trap on a coarser grid
    cases = [(micro_spectrum, np.linspace(-30.0, 30.0, 600).tolist(), 0)]
    cases += [(harm_mod_spectrum, np.linspace(-30.0, 30.0, 50).tolist(), b)
              for b in (1, 2)]
    for spectrum, grid, branch in cases:
        try:
            sweep = q.ring_sweep_roots(spectrum, grid, L, branch)
        except q.OpenChannel:
            assert (L, branch) == (10, 2)
            continue
        assert sweep.polished == sum(len(r) for r in sweep.roots if r)
        for u, sols in zip(grid, sweep.roots):
            got = None if sols is None else [(s.k, s.energy, s.residual)
                                             for s in sols]
            assert _bits(got) == _bits(
                _brentq_polish(spectrum, u, L, branch)), (u, branch)


def test_sweep_reports_first_unconverged_coupling(harm_mod_spectrum,
                                                  monkeypatch):
    # with one iteration allowed no lane converges: the error names the
    # first coupling of the sweep, as a coupling-by-coupling loop would
    monkeypatch.setattr(ring, "_MAXITER", 1)
    with pytest.raises(q.NoConvergence, match=r"at U=3, L=50 not converged"):
        q.ring_sweep_roots(harm_mod_spectrum, [0.0, 3.0, -5.0], 50, 1)
    assert q.ring_sweep_roots(harm_mod_spectrum, [0.0], 50, 1).passes == 0


def test_brent_lanes_refuse_a_bracket_without_sign_change():
    def f(lanes, x):
        return x * x + 1.0, x

    with pytest.raises(ValueError, match="different signs"):
        ring.brentq(f, np.array([-1.0, 0.0]), np.array([1.0, 2.0]), 1e-15,
                    8.9e-16, 100)


# ------------------------------- Sigma_L without the negligible powers


@pytest.mark.parametrize("L", [4, 5, 10, 50, 1000, 4096])
def test_ring_sums_skip_only_negligible_powers(harm_mod_spectrum,
                                               micro_spectrum, L,
                                               plain_power_ring_sums):
    for spectrum in (harm_mod_spectrum, micro_spectrum):
        ks, want = plain_power_ring_sums(spectrum, L)
        assert ring._ring_sums(spectrum, ks, L).tobytes() == want.tobytes()


# ----------------------------------- exact-diagonalization witness


@pytest.mark.parametrize("trap, n_states", [
    (q.TwoSite(v=1.0), None),
    # 21 of the grid's 41 states enter the ring sum; the strip holds all
    (q.Harmonic(omega=0.1, y_max=20), 21),
], ids=["two-site", "harmonic-0.1"])
@pytest.mark.parametrize("L", [10, 50])
def test_ring_energy_is_a_strip_eigenvalue(trap, n_states, L,
                                           ring_strip_eigenvalue):
    # the ring equation is exact at every L: E_0 plus the ring energy is
    # an eigenvalue of the periodic strip with the contact at (0, 0)
    spectrum = q.solve_transverse(trap, n_states=n_states)
    grid, v = q.potential_on_grid(trap, int(spectrum.grid[-1]))
    e0 = float(spectrum.energies[0])
    for u in (-3.0, -5.0, 2.0):
        for branch in (1, 2):
            if (L, branch, n_states) == (10, 2, 21):
                # k ~ 2 pi * 2 / 10 opens the first excited channel
                with pytest.raises(q.OpenChannel):
                    q.ring_momentum(spectrum, u, L, branch)
                continue
            energy = e0 + q.ring_momentum(spectrum, u, L, branch).energy
            assert abs(ring_strip_eigenvalue(grid, v, L, u, energy)
                       - energy) <= 1e-12
