"""Structural invariants of the collision-diagonal two-body form on
random hard-walled tabulated traps (property tests)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, strategies as st  # noqa: E402

import q1dscatter as q  # noqa: E402


@st.composite
def tabulated_traps(draw):
    """Symmetric or asymmetric hard-walled traps of 5-15 sites."""
    n_sites = draw(st.integers(5, 15))
    depth = st.floats(0.0, 3.0)
    if draw(st.booleans()):
        half = n_sites // 2
        side = draw(st.lists(depth, min_size=half + 1, max_size=half + 1))
        mapping = {y: side[abs(y)] for y in range(-half, half + 1)}
    else:
        first = -draw(st.integers(0, n_sites - 1))
        values = draw(st.lists(depth, min_size=n_sites, max_size=n_sites))
        mapping = {first + i: v for i, v in enumerate(values)}
    return q.Tabulated.from_mapping(mapping, None)


@given(trap=tabulated_traps(), u=st.floats(-20.0, 20.0),
       radius_fraction=st.floats(-0.8, 0.8))
def test_collision_diagonal_invariants(trap, u, radius_fraction):
    ker = q.build_kernel(q.solve_transverse(trap))
    n_y = ker.collision_sites

    # the channel kernel has rank at most n_y ...
    assert np.linalg.matrix_rank(ker.r_matrix) <= n_y
    assert ker.numerical_rank <= min(n_y, ker.n_channels)
    # ... and its nonzero spectrum is that of H
    scale = 1.0 / np.sqrt(-ker.denominators)
    channel_mu = np.linalg.eigvalsh(ker.r_matrix * np.outer(scale, scale))
    mu = np.linalg.eigvalsh(ker.green)
    tol = 1e-12 * channel_mu[-1]
    shared = min(n_y, ker.n_channels)
    assert np.allclose(mu[-shared:], channel_mu[-shared:], rtol=0.0,
                       atol=tol)
    assert np.all(np.abs(mu[:-shared]) <= tol)
    assert np.all(np.abs(channel_mu[:-shared]) <= tol)

    # partial fractions agree with the direct solve away from poles
    assume(np.min(np.abs(1.0 + u * mu)) > 1e-3)
    direct = q.solve_scattering_length(ker, u)
    assert ker.entrance_amplitude(u) == pytest.approx(
        direct.i00, rel=1e-9, abs=1e-9 * ker.r_entrance)

    # the Born series converges to the direct solve inside |U| < 1/max mu
    u_born = radius_fraction / mu[-1]
    born = q.born_series(ker, u_born, 200)
    assert born.converged
    assert born.i00 == pytest.approx(
        q.solve_scattering_length(ker, u_born).i00, rel=1e-10)
