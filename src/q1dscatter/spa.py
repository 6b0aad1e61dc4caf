"""Single-pole approximation (SPA) for the effective coupling.

Near an isolated broad resonance the effective 1D coupling is well
approximated by the one-pole form

    U1D(U)  ~  U * R00 / (1 - U / U_pole),

with ``R00`` the entrance-channel self-overlap.  Expanding at strong
coupling gives the straight-line-in-1/U tail

    U1D(U)  ~  c1 + c2 / U,
    c1 = -R00 * U_pole,      c2 = -R00 * U_pole**2,

so an ordinary least-squares fit of a computed strong-coupling tail
returns two independent estimates of the pole position,

    U_pole  ~  -c1 / R00      and      U_pole  ~  -sqrt(-c2 / R00).

Their disagreement measures how far the true amplitude is from a single
pole; it is reported, never hidden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, PoleInWindow, require_finite

_POLE_PROXIMITY = 1e-6


@dataclass(frozen=True)
class SpaFit:
    """Least-squares fit ``U1D ~ c1 + c2/U`` of a strong-coupling tail.

    ``estimate_c1`` and ``estimate_c2`` are the two pole-position
    estimates; ``estimate_c2`` is ``None`` when ``-c2/R00 <= 0`` (no
    real square root).  ``spread`` is their absolute difference — the
    qualitative error bar of the approximation; ``midpoint`` averages
    the available estimates.  ``relative_residual`` is the worst fit
    residual relative to ``|c1|``.
    """

    c1: float
    c2: float
    window: tuple[float, float]
    n_points: int
    r_entrance: float
    estimate_c1: float
    estimate_c2: float | None
    spread: float | None
    relative_residual: float

    @property
    def midpoint(self) -> float:
        if self.estimate_c2 is None:
            return self.estimate_c1
        return 0.5 * (self.estimate_c1 + self.estimate_c2)


def spa_fit(curve: Sequence[tuple[float, float]], r_entrance: float,
            known_resonances: Iterable[float] = ()) -> SpaFit:
    """Fit the one-pole tail to a computed ``(U, U1D)`` curve.

    Parameters
    ----------
    curve : sequence of (U, U1D)
        Strong-coupling tail samples; all couplings must be nonzero and
        beyond every resonance in magnitude.
    r_entrance : float
        Entrance-channel self-overlap ``R00`` (``sum_y psi_0(y)^4`` for
        one particle in the two-body convention).
    known_resonances : iterable of float
        Resonance couplings to guard against; a fit window containing
        or touching one (relative proximity 1e-6) is rejected.

    Raises
    ------
    PoleInWindow
        If a known resonance lies inside the fit window.
    """
    pts = [(float(u), float(y)) for u, y in curve]
    if len(pts) < 3:
        raise ConfigError(f"SPA fit needs at least 3 points, got {len(pts)}")
    require_finite("curve", pts)
    us = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    if np.any(us == 0.0):
        raise ConfigError("SPA fit window cannot contain U = 0")
    if not r_entrance > 0.0:
        raise ConfigError(f"entrance overlap must be positive, got {r_entrance}")
    u_lo, u_hi = float(us.min()), float(us.max())
    for pole in known_resonances:
        if u_lo <= pole <= u_hi:
            raise PoleInWindow(
                f"resonance at U={pole:g} lies inside the fit window "
                f"[{u_lo:g}, {u_hi:g}]")
        if np.any(np.abs(1.0 - us / pole) < _POLE_PROXIMITY):
            raise PoleInWindow(
                f"fit point within relative {_POLE_PROXIMITY:g} of the "
                f"resonance at U={pole:g}")

    design = np.column_stack([np.ones_like(us), 1.0 / us])
    coeff, *_ = np.linalg.lstsq(design, ys, rcond=None)
    c1, c2 = float(coeff[0]), float(coeff[1])
    resid = float(np.max(np.abs(design @ coeff - ys)))
    rel_resid = resid / abs(c1) if c1 != 0.0 else math.inf

    est1 = -c1 / r_entrance
    arg = -c2 / r_entrance
    est2 = -math.sqrt(arg) if arg > 0.0 else None
    spread = abs(est1 - est2) if est2 is not None else None
    return SpaFit(c1=c1, c2=c2, window=(u_lo, u_hi), n_points=len(pts),
                  r_entrance=r_entrance, estimate_c1=est1, estimate_c2=est2,
                  spread=spread, relative_residual=rel_resid)


def spa_curve(u_grid, r_entrance: float, u_pole: float) -> np.ndarray:
    """One-pole model curve ``U1D = U R00 / (1 - U/U_pole)`` for overlay
    against exact results (infinite exactly at the pole)."""
    if u_pole == 0.0:
        raise ConfigError("pole position must be nonzero")
    u = np.asarray(u_grid, dtype=float)
    with np.errstate(divide="ignore"):
        return u * r_entrance / (1.0 - u / u_pole)
