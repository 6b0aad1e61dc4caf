"""Single-pole-approximation fits of strong-coupling curves."""

import numpy as np
import pytest

import q1dscatter as q

WINDOW = np.linspace(-1000.0, -900.0, 50)


def test_exact_rational_data_recovered():
    # data generated from the fit model itself comes back exactly
    c1, c2 = 3.5, -120.0
    curve = [(float(u), c1 + c2 / float(u)) for u in WINDOW]
    fit = q.spa_fit(curve, r_entrance=0.75)
    assert fit.c1 == pytest.approx(c1, abs=1e-10)
    assert fit.c2 == pytest.approx(c2, abs=1e-8)
    assert fit.relative_residual < 1e-12
    assert fit.n_points == 50
    assert fit.window == (-1000.0, -900.0)


def test_synthetic_pole_recovered_within_window_truncation():
    r_ent = 0.75
    pole = -20.0
    curve = list(zip(WINDOW.tolist(),
                     q.spa_curve(WINDOW, r_ent, pole).tolist()))
    fit = q.spa_fit(curve, r_ent)
    # the far window truncates the pole expansion: small bias remains
    assert fit.estimate_c1 == pytest.approx(pole, abs=0.05)
    assert fit.estimate_c2 == pytest.approx(pole, abs=0.5)
    assert fit.spread < 0.5
    assert fit.midpoint == (fit.estimate_c1 + fit.estimate_c2) / 2.0
    assert fit.relative_residual < 1e-5


def test_pole_in_window_guard():
    curve = [(float(u), 1.0 + 5.0 / float(u)) for u in WINDOW]
    with pytest.raises(q.PoleInWindow):
        q.spa_fit(curve, r_entrance=0.75, known_resonances=[-950.0])
    # resonances outside the window do not trip the guard
    q.spa_fit(curve, r_entrance=0.75, known_resonances=[-20.0, -1500.0])


def _strong_coupling_fit(kernel):
    curve = list(zip(WINDOW.tolist(),
                     q.u1d_curve(kernel, WINDOW).tolist()))
    known = [r.u for r in q.locate_resonances(kernel, (-1e6, 0.0)).resonances]
    return q.spa_fit(curve, kernel.r_entrance, known_resonances=known)


def test_two_site_fit_frozen(two_site_kernel):
    fit = _strong_coupling_fit(two_site_kernel)
    assert fit.c1 == pytest.approx(19.840981597921584, rel=1e-10)
    assert fit.c2 == pytest.approx(-564.4619277548985, rel=1e-10)
    assert fit.estimate_c1 == pytest.approx(-26.45464213056211, rel=1e-10)
    assert fit.estimate_c2 == pytest.approx(-27.433845951182235, rel=1e-10)
    assert fit.spread == pytest.approx(0.9792038206201248, rel=1e-8)
    assert fit.relative_residual < 1e-5


def test_two_site_estimates_bracket_broad_resonance(two_site_kernel,
                                                    two_site_report):
    fit = _strong_coupling_fit(two_site_kernel)
    broad = [r for r in two_site_report.visible_resonances
             if r.kind == "broad"][0]
    lo, hi = sorted((fit.estimate_c1, fit.estimate_c2))
    assert lo <= broad.u <= hi
    assert abs(fit.midpoint - broad.u) < 0.5


def test_moderate_trap_fit_frozen(harm_mod_kernel):
    fit = _strong_coupling_fit(harm_mod_kernel)
    assert fit.c1 == pytest.approx(1.8997675749239005, rel=1e-9)
    assert fit.c2 == pytest.approx(-16.000483974769818, rel=1e-9)
    assert fit.estimate_c1 == pytest.approx(-8.26980698507843, rel=1e-9)
    assert fit.estimate_c2 == pytest.approx(-8.34572385946275, rel=1e-9)
    assert fit.midpoint == pytest.approx(-8.30776542227059, rel=1e-9)
    assert fit.relative_residual < 1e-6


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_curve_refused(bad):
    # a NaN or infinite sample is refused, not fitted into NaN coefficients
    curve = [(float(u), 3.5 - 120.0 / float(u)) for u in WINDOW]
    curve[7] = (curve[7][0], bad)
    with pytest.raises(q.ConfigError,
                       match=f"^curve must be finite, got {bad}$"):
        q.spa_fit(curve, r_entrance=0.75)
