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

A module loads when one of its public names is first read, so a run
that never touches the oracle never imports ``scipy.sparse``.
"""

from importlib import import_module

__version__ = "1.0.0"

#: The public names, by the module that defines them.
_EXPORTS = {
    "traps": ("J", "Harmonic", "DeltaWell", "TwoSite", "Tabulated",
              "TrapSpec", "TransverseSpectrum", "AlphaValue",
              "solve_transverse", "alpha_closed", "closed_channels",
              "potential_on_grid"),
    "single_particle": ("CirValue", "ScatteringResult", "entrance_energy",
                        "u_cir", "u_cir_complete", "effective_u1d",
                        "u1d_values"),
    "continuum": ("ContinuumState", "ContinuumSum", "scattering_state",
                  "density_of_states", "continuum_sum", "continuum_sums",
                  "u_cir_with_continuum"),
    "ring": ("RingSolution", "RingCrossing", "BranchSweep", "ring_momentum",
             "ring_branch_roots", "ring_sweep_roots", "ring_channel_sum",
             "ring_cir_crossings", "asymptotic_momentum"),
    "two_body": ("OverlapKernel", "TwoBodyResult", "BornResult", "Resonance",
                 "ResonanceReport", "pair_hopping", "build_kernel",
                 "solve_scattering_length", "u1d_curve", "born_series",
                 "solve_finite_k", "locate_resonances",
                 "converged_resonances"),
    "spa": ("SpaFit", "spa_fit", "spa_curve"),
    "oracle": ("StripProblem", "OracleResult", "strip_hamiltonian",
               "pair_hamiltonian", "strip_scattering_length",
               "pair_scattering_length"),
    "errors": ("Q1DError", "ConfigError", "UnknownFigure", "PoleInWindow",
               "UnorderedSpectrum", "EdgeLeak", "QuadratureFail",
               "NoRootInBranch", "BranchCollision", "NoConvergence",
               "Diverging", "ContaminatedChannel", "OpenChannel",
               "AtResonance", "SingularSystem", "SignConventionViolation"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    """A public name, read from its module on each access, or a module."""
    if name in _MODULE_OF:
        return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    if name in _EXPORTS or name == "cli":
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
