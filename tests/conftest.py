"""Shared fixtures: the transverse spectra and two-body kernels that
several test modules reuse.  All are deterministic, so session scope is
safe and keeps the expensive diagonalizations to one run each.
"""

import pytest

import q1dscatter as q

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
    """omega = 1e-2 with enough states for a 1e-10 channel tail."""
    return q.solve_transverse(q.Harmonic(omega=1e-2), n_states=80)


@pytest.fixture(scope="session")
def micro_spectrum():
    """Near-continuum confinement omega = 1e-3, converged 121-state basis."""
    return q.solve_transverse(q.Harmonic(omega=1e-3, y_max=160.0),
                              n_states=121)


@pytest.fixture(scope="session")
def micro_kernel(micro_spectrum):
    return q.build_kernel(micro_spectrum)
