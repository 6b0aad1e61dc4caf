"""Quasi-1D scattering on a 2D lattice with one confined direction.

A particle (or an interacting pair) hops on a square lattice; the
transverse direction carries an arbitrary trapping potential and the
free direction carries the scattering.  The package computes effective
1D couplings, scattering lengths, phase shifts, and
confinement-induced resonances for:

- a single particle against a zero-range impurity
  (:mod:`~q1dscatter.single_particle`),
- traps supporting a transverse continuum (:mod:`~q1dscatter.continuum`),
- finite rings with periodic boundary conditions (:mod:`~q1dscatter.ring`),
- genuine two-particle scattering with non-separable center-of-mass
  and relative motion (:mod:`~q1dscatter.two_body`),
- the single-pole approximation of the broad resonance
  (:mod:`~q1dscatter.spa`),
- and a brute-force exact-diagonalization validator
  (:mod:`~q1dscatter.oracle`).

Energies are in units of the hopping ``J``; lengths in lattice sites.
"""

from .continuum import (ContinuumState, ContinuumSum, continuum_sum,
                        density_of_states, scattering_state,
                        u_cir_with_continuum)
from .errors import (AtResonance, BranchCollision, ConfigError,
                     ContaminatedChannel, Diverging, EdgeLeak,
                     NoConvergence, NoRootInBranch, OpenChannel,
                     PoleInWindow, Q1DError, QuadratureFail,
                     SignConventionViolation, SingularSystem, UnknownFigure,
                     UnorderedSpectrum)
from .oracle import (OracleResult, StripProblem, pair_hamiltonian,
                     pair_scattering_length, strip_hamiltonian,
                     strip_scattering_length)
from .ring import (BranchSweep, RingCrossing, RingSolution,
                   asymptotic_momentum, ring_branch_roots, ring_channel_sum,
                   ring_cir_crossings, ring_momentum, ring_sweep_roots)
from .single_particle import (CirValue, ScatteringResult, effective_u1d,
                              entrance_energy, u1d_values, u_cir,
                              u_cir_complete)
from .spa import SpaFit, spa_curve, spa_fit
from .traps import (AlphaValue, DeltaWell, Harmonic, Tabulated,
                    TransverseSpectrum, TrapSpec, TwoSite, alpha_closed,
                    closed_channels, potential_on_grid, solve_transverse, J)
from .two_body import (BornResult, OverlapKernel, Resonance,
                       ResonanceReport, TwoBodyResult, born_series,
                       build_kernel, converged_resonances, locate_resonances,
                       pair_hopping, solve_finite_k, solve_scattering_length,
                       u1d_curve)

__version__ = "1.0.0"

__all__ = [
    "J", "__version__",
    # traps
    "Harmonic", "DeltaWell", "TwoSite", "Tabulated", "TrapSpec",
    "TransverseSpectrum", "AlphaValue", "solve_transverse", "alpha_closed",
    "closed_channels", "potential_on_grid",
    # single particle
    "CirValue", "ScatteringResult", "entrance_energy", "u_cir",
    "u_cir_complete", "effective_u1d", "u1d_values",
    # continuum
    "ContinuumState", "ContinuumSum", "scattering_state",
    "density_of_states", "continuum_sum", "u_cir_with_continuum",
    # ring
    "RingSolution", "RingCrossing", "BranchSweep",
    "ring_momentum", "ring_branch_roots", "ring_sweep_roots",
    "ring_channel_sum", "ring_cir_crossings", "asymptotic_momentum",
    # two body
    "OverlapKernel", "TwoBodyResult", "BornResult",
    "Resonance", "ResonanceReport", "pair_hopping", "build_kernel",
    "solve_scattering_length", "u1d_curve", "born_series", "solve_finite_k",
    "locate_resonances", "converged_resonances",
    # spa
    "SpaFit", "spa_fit", "spa_curve",
    # oracle
    "StripProblem", "OracleResult", "strip_hamiltonian", "pair_hamiltonian",
    "strip_scattering_length", "pair_scattering_length",
    # errors
    "Q1DError", "ConfigError", "UnknownFigure", "PoleInWindow",
    "UnorderedSpectrum", "EdgeLeak",
    "QuadratureFail", "NoRootInBranch", "BranchCollision",
    "NoConvergence", "Diverging", "ContaminatedChannel",
    "OpenChannel", "AtResonance", "SingularSystem", "SignConventionViolation",
]
