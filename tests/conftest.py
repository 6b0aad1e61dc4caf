"""Shared fixtures: the transverse spectra and two-body kernels that
several test modules reuse.  All are deterministic, so session scope is
safe and keeps the expensive diagonalizations to one run each.
"""

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

import q1dscatter as q
from q1dscatter import oracle, ring

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # the same examples on every run, no example database on disk, and
    # no per-example deadline (a fresh spectrum takes a variable time)
    settings.register_profile("q1dscatter", derandomize=True,
                              database=None, deadline=None)
    settings.load_profile("q1dscatter")


@pytest.fixture(scope="session")
def waveguide_match():
    """The constant ``gamma/2 + A/2 - 2 ln 2`` that matches the harmonic
    waveguide's closed-channel sum to the lattice Green's function at
    threshold (README, "The continuum limit"), with
    ``A = sum_{m>=1} [Gamma(m + 1/2) / (Gamma(m + 1) sqrt(m)) - 1/m]``
    summed by mpmath."""
    mpmath = pytest.importorskip("mpmath")
    a = mpmath.nsum(lambda m: mpmath.gamma(m + 0.5)
                    / (mpmath.gamma(m + 1) * mpmath.sqrt(m)) - 1 / m,
                    [1, mpmath.inf])
    assert abs(a - mpmath.mpf("-0.192454205274636")) < 1e-14
    return float(mpmath.euler / 2 + a / 2 - 2 * mpmath.log(2))


@pytest.fixture(scope="session")
def two_site_spectrum():
    return q.solve_transverse(q.TwoSite(v=1.0))


@pytest.fixture(scope="session")
def two_site_kernel(two_site_spectrum):
    return q.build_kernel(two_site_spectrum)


@pytest.fixture(scope="session")
def two_site_report(two_site_kernel):
    return q.locate_resonances(two_site_kernel, (-40.0, 0.0))


@pytest.fixture(scope="session")
def harm_mod_spectrum():
    """Moderate harmonic confinement: omega = 0.1, 21 states."""
    return q.solve_transverse(q.Harmonic(omega=1e-1), n_states=21)


@pytest.fixture(scope="session")
def harm_mod_kernel(harm_mod_spectrum):
    return q.build_kernel(harm_mod_spectrum)


@pytest.fixture(scope="session")
def harm_soft_spectrum():
    """Soft harmonic confinement: omega = 1e-2, 80 states."""
    return q.solve_transverse(q.Harmonic(omega=1e-2), n_states=80)


@pytest.fixture(scope="session")
def micro_spectrum():
    """Near-continuum confinement omega = 1e-3, converged 121-state basis."""
    return q.solve_transverse(q.Harmonic(omega=1e-3, y_max=160.0),
                              n_states=121)


@pytest.fixture(scope="session")
def micro_kernel(micro_spectrum):
    return q.build_kernel(micro_spectrum)


def _dense_collision_solve(ker, u):
    """Reference for the spectral two-body solve: the direct
    ``n_y``-sized solve of ``(1 + U H) g = -H psi_0^2``.  Returns the
    channel amplitudes ``S (psi_0^2 + U g)``, with ``S`` from
    :func:`_collision_rows` in one array, and
    ``I00 = R(00;00) + U psi_0^2 . g``."""
    h, psi0_sq = ker.green, ker.entrance_row
    g = np.linalg.solve(np.eye(len(h)) + u * h, -(h @ psi0_sq))
    return (_collision_rows(ker) @ (psi0_sq + u * g),
            ker.r_entrance + u * float(psi0_sq @ g))


@pytest.fixture(scope="session")
def dense_collision_solve():
    return _dense_collision_solve


def _projected_zeros(ker, window):
    """Every zero of ``I00`` in `window`, ascending, from ``eigvalsh`` of
    ``Q H Q`` with the dense projector
    ``Q = 1 - psi_0^2 psi_0^2^T / R(00;00)``; none is cancelled."""
    psi0_sq = ker.entrance_row
    proj = np.identity(ker.collision_sites) \
        - np.outer(psi0_sq, psi0_sq) / ker.r_entrance
    lam = np.linalg.eigvalsh(proj @ ker.green @ proj)
    zeros = -1.0 / lam[lam > 0.0]
    return np.sort(zeros[(window[0] <= zeros) & (zeros <= window[1])])


@pytest.fixture(scope="session")
def projected_zeros():
    return _projected_zeros


def _full_grid_green(ker):
    """Independent witness of the kernel's collision sector: ``H``, the
    entrance row ``psi_0^2`` and the pair rows ``S`` over every site of
    the transverse grid, with ``S`` built straight from the spectrum's
    wavefunctions and the kernel's pairs and denominators (no fold, no
    weights).  The channel-space ``R = S S^T`` and entrance column
    ``S psi_0^2`` follow from the rows."""
    psi = ker.spectrum.wavefunctions
    n1, n2 = ker.pairs.T
    rows = psi[n1] * psi[n2] * np.where(n1 == n2, 1.0, math.sqrt(2.0))[:, None]
    scaled = rows / np.sqrt(-ker.denominators)[:, None]
    return scaled.T @ scaled, psi[0] * psi[0], rows


@pytest.fixture(scope="session")
def full_grid_green():
    return _full_grid_green


def _collision_rows(ker):
    """The pair rows ``S`` of `ker`'s channels on its collision sites,
    all in one array: the rows of :func:`_full_grid_green` on every
    site, or on a mirror grid their sites ``y >= 0`` with weight
    ``sqrt(2)`` on ``y > 0`` (the fold that keeps every inner product
    over ``y``)."""
    rows = _full_grid_green(ker)[2]
    if not ker.spectrum.symmetric:
        return rows
    rows = rows[:, ker.spectrum.origin_index:]
    rows[:, 1:] *= math.sqrt(2.0)
    return rows


@pytest.fixture(scope="session")
def collision_rows():
    return _collision_rows


def _check_full_grid(ker, couplings, window=(-30.0, 0.0)):
    """Check `ker` against :func:`_full_grid_green`: the nonzero spectrum
    of ``H`` to 1e-12 max mu, ``I00(U)`` at `couplings` from a dense
    full-grid solve to 1e-10 relative, and the visible poles in `window`
    to 1e-12 relative."""
    h, psi0_sq, _ = _full_grid_green(ker)
    r00 = float(psi0_sq @ psi0_sq)
    mu_full, vectors = np.linalg.eigh(h)
    mu = np.linalg.eigvalsh(ker.green)
    tol = 1e-12 * mu_full[-1]
    assert np.all(np.abs(mu_full[-mu.size:] - mu) <= tol)
    assert np.all(np.abs(mu_full[:-mu.size]) <= tol)

    for u in couplings:
        g = np.linalg.solve(np.eye(len(h)) + u * h, -(h @ psi0_sq))
        i00 = r00 + u * float(psi0_sq @ g)
        assert abs(ker.entrance_amplitude(u) - i00) <= 1e-10 * abs(i00)

    with np.errstate(divide="ignore"):
        poles = -1.0 / mu_full
    width = mu_full * (vectors.T @ psi0_sq) ** 2 * np.abs(poles) / r00
    keep = ((window[0] <= poles) & (poles <= window[1])
            & (width > q.two_body.VISIBILITY_FLOOR))
    want = np.sort(poles[keep])
    got = np.array([r.u for r in
                    q.locate_resonances(ker, window).visible_resonances])
    assert len(got) == len(want)
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


@pytest.fixture(scope="session")
def check_full_grid():
    return _check_full_grid


def _ring_strip_eigenvalue(grid, v, length, u, energy):
    """Exact-diagonalization witness of the ring quantization: the
    eigenvalue nearest `energy` of one particle on the periodic strip of
    `length` x-sites by the transverse `grid` with potential `v`, contact
    `u` at (0, 0), from shift-invert ``eigsh`` at `energy`."""
    wrap = sp.csr_matrix(([-q.J, -q.J], ([0, length - 1], [length - 1, 0])),
                         shape=(length, length))
    h = (sp.kron(oracle._hop_matrix(length, q.J) + wrap,
                 sp.identity(len(grid)))
         + sp.kron(sp.identity(length), oracle._slice_hamiltonian(v)))
    origin = int(np.searchsorted(grid, 0))
    h = h + sp.csr_matrix(([u], ([origin], [origin])), shape=h.shape)
    return float(eigsh(h.tocsc(), k=1, sigma=energy,
                       return_eigenvectors=False)[0])


@pytest.fixture(scope="session")
def ring_strip_eigenvalue():
    return _ring_strip_eigenvalue


def _box_channel_sum(well, k, half_width=1000):
    """Independent witness of ``1/U_CIR``: the closed-channel sum over
    every excited state of the well on a hard-wall box of
    ``2 half_width + 1`` sites, ``sum_n psi_n(0)^2 / D_n`` with the
    closed form ``D_n = -sqrt((E_n - E)^2 - 4 J^2)``."""
    v = np.full(2 * half_width + 1, well.asymptote)
    for y, value in well.values:
        v[y + half_width] = value
    energies, vectors = scipy.linalg.eigh_tridiagonal(
        v, -np.ones(2 * half_width))
    gaps = energies[1:] - (energies[0] - 2.0 * math.cos(k))
    assert np.all(gaps > 2.0)  # every channel closed
    return float(np.sum(vectors[half_width, 1:] ** 2
                        / -np.sqrt(gaps ** 2 - 4.0)))


@pytest.fixture(scope="session")
def box_channel_sum():
    return _box_channel_sum


def _plain_power_ring_sums(spectrum, L, points=400):
    """Reference for ``ring._ring_sums``: ``Sigma_L`` with every power
    ``alpha^L``, ``alpha^(L-1)`` taken, on `points` momenta in [0, pi)
    at which every coupled channel is closed.  Returns the momenta and
    the sums."""
    amp2, channels = ring._coupled_channels(spectrum)
    gap = (channels.min() - float(spectrum.energies[0])) / q.J
    ks = np.linspace(0.0, math.acos(max(1.0 - 0.5 * gap, -1.0)),
                     points + 1)[:-1]
    energy = ring._entrance_energies(spectrum, ks)[:, None]
    alpha, _ = q.closed_channels(channels, energy)
    a_l = alpha ** L
    num = amp2 * (1.0 + a_l)
    den = (channels - energy) * (1.0 + a_l) \
        - 2.0 * q.J * (alpha + alpha ** (L - 1))
    return ks, (num / den).sum(axis=-1)


@pytest.fixture(scope="session")
def plain_power_ring_sums():
    return _plain_power_ring_sums


def _sector_isometry(sector):
    """The full-space isometry ``P`` of an oracle symmetry sector, built
    from its orbit labels: column ``j m + I`` (x-major, as the sector)
    is the normalized indicator of the sites ``(x, y)`` with
    ``|x| = lx - j`` and ``y`` in transverse orbit ``I``, each orbit's
    size counted from the labels themselves."""
    nx, m = sector.dims
    x = np.arange(2 * nx - 1)
    column = (np.minimum(x, x[::-1])[:, None] * m + sector.labels).ravel()
    size = np.bincount(column, minlength=nx * m)
    return sp.csr_matrix((1.0 / np.sqrt(size[column]),
                          (np.arange(column.size), column)),
                         shape=(column.size, nx * m))


@pytest.fixture(scope="session")
def sector_isometry():
    return _sector_isometry
