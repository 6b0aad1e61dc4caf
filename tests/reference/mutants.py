"""Planted-defect audit: does Tier-1 catch each one-line mutant?

Each entry of ``MUTANTS`` changes one line of the package (a numerical
constant, a sign or an operation) by a text replacement that must match
exactly once.  For each, in turn, the script copies the repository
(without ``.git`` and caches) to a temporary directory, applies the
replacement there and runs tests on the copy: first the row's known
killer from ``KILLERS`` (the test it failed first on when it ran the
whole suite), alone, and only if that passes (or the row has none)
the whole Tier-1 suite with ``-x``.  It records whether a test failed (the mutant
is killed) or the suite passed (it survived).  An unmutated copy runs
the whole suite first as the control: it must pass, or every kill would
be meaningless.  The working tree is never modified.

Run it from the repository root; a row killed by its known test takes
a few seconds, and a survivor or a row that falls back to the suite
takes up to a minute on two cores, as the control does:

    python tests/reference/mutants.py            # every mutant
    python tests/reference/mutants.py edge-tol   # the named ones

It prints one row per mutant (killed or survived, the first failing
test, whether the known killer or the whole suite ran, and the seconds
taken) and the audit's total wall time.  It is not collected by pytest.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: name -> (file, text, replacement)
MUTANTS = {
    "ring-far-cutoff": ("src/q1dscatter/ring.py",
                        "far = alpha > 2.0 ** (-64.0 / (L - 2))",
                        "far = alpha > 2.0 ** (-16.0 / (L - 2))"),
    "zero-pole-cancellation": ("src/q1dscatter/two_body.py",
                               "_ZERO_POLE_CANCELLATION = 1e-9",
                               "_ZERO_POLE_CANCELLATION = 1e-6"),
    "edge-tol": ("src/q1dscatter/traps.py",
                 "DEFAULT_EDGE_TOL = 1e-10", "DEFAULT_EDGE_TOL = 1e-7"),
    "visibility-floor-up": ("src/q1dscatter/two_body.py",
                            "VISIBILITY_FLOOR = 1e-5",
                            "VISIBILITY_FLOOR = 1e-4"),
    "visibility-floor-down": ("src/q1dscatter/two_body.py",
                              "VISIBILITY_FLOOR = 1e-5",
                              "VISIBILITY_FLOOR = 1e-6"),
    "eigen-residual-max": ("src/q1dscatter/oracle.py",
                           "_EIGEN_RESIDUAL_MAX = 1e-10",
                           "_EIGEN_RESIDUAL_MAX = 1e-6"),
    "eigen-residual-max-1e-7": ("src/q1dscatter/oracle.py",
                                "_EIGEN_RESIDUAL_MAX = 1e-10",
                                "_EIGEN_RESIDUAL_MAX = 1e-7"),
    "ladder-rel-tol": ("src/q1dscatter/two_body.py",
                       "_LADDER_STEP, _LADDER_REL_TOL = 20, 1e-6",
                       "_LADDER_STEP, _LADDER_REL_TOL = 20, 1e-3"),
    "ladder-step": ("src/q1dscatter/two_body.py",
                    "_LADDER_STEP, _LADDER_REL_TOL = 20, 1e-6",
                    "_LADDER_STEP, _LADDER_REL_TOL = 40, 1e-6"),
    "grid-rel-tol": ("src/q1dscatter/single_particle.py",
                     "GRID_REL_TOL = 1e-12", "GRID_REL_TOL = 1e-9"),
    "auto-grid-cap": ("src/q1dscatter/traps.py",
                      "_MAX_AUTO_Y, _MAX_BOX_Y = 2_560, 40_960",
                      "_MAX_AUTO_Y, _MAX_BOX_Y = 40_960, 40_960"),
    "delta-bound-energy-sign": ("src/q1dscatter/traps.py",
                                "return -math.hypot(self.v0, 2.0 * J) "
                                "+ self.v0",
                                "return -math.hypot(self.v0, 2.0 * J) "
                                "- self.v0"),
    "box-ceiling": ("src/q1dscatter/traps.py",
                    "else asymptote - 2.0 * J - 1e-12",
                    "else asymptote - 2.0 * J + 1e-2"),
    "box-first-half-width": ("src/q1dscatter/traps.py",
                             "max(range_max + 20, 40), _MAX_BOX_Y",
                             "max(range_max + 20, 20), _MAX_BOX_Y"),
    "box-margin": ("src/q1dscatter/traps.py",
                   "max(range_max + 20, 40), _MAX_BOX_Y",
                   "max(range_max + 10, 40), _MAX_BOX_Y"),
    # a set y_max's one grid no longer reports its own edge leak
    "box-fixed-half-width": ("src/q1dscatter/traps.py",
                             'if getattr(spec, "y_max", None) is not None:',
                             "if False:"),
    "auto-first-half-width": ("src/q1dscatter/traps.py",
                              "y_max, cap = 40, _MAX_AUTO_Y",
                              "y_max, cap = 80, _MAX_AUTO_Y"),
    "grid-doubling": ("src/q1dscatter/traps.py",
                      "        y_max *= 2", "        y_max *= 4"),
    "asymptotic-lane-xtol": ("src/q1dscatter/ring.py",
                             "np.array([hi]), _XTOL, _RTOL,",
                             "np.array([hi]), 1e-12, _RTOL,"),
    "quad-tol-share": ("src/q1dscatter/continuum.py",
                       "DEFAULT_QUAD_TOL * (hi - lo) / (b - a)",
                       "DEFAULT_QUAD_TOL * 10.0 * (hi - lo) / (b - a)"),
    "quad-kronrod-weight": ("src/q1dscatter/continuum.py",
                            "0.147739104901338491374841515972068",
                            "0.147739104901"),
    "quad-panel-cap": ("src/q1dscatter/continuum.py",
                       "_PANEL_LIMIT = 400", "_PANEL_LIMIT = 800"),
    "quad-error-scaling": ("src/q1dscatter/continuum.py",
                           "(200.0 * error[scaled]",
                           "(20.0 * error[scaled]"),
    "quad-gemv-row-sum": ("src/q1dscatter/continuum.py",
                          "resk = (f * _KRONROD).sum(axis=1)",
                          "resk = f @ _KRONROD"),
    "phase-fold": ("src/q1dscatter/continuum.py",
                   "np.where(theta < -math.pi / 2, theta + math.pi, theta)",
                   "np.where(theta < -math.pi, theta + math.pi, theta)"),
    "readout-x-orbit-norm": ("src/q1dscatter/oracle.py",
                             "w = (y_entrance @ v) / np.sqrt(x_sizes)",
                             "w = (y_entrance @ v) / x_sizes"),
    "readout-y-orbit-norm": ("src/q1dscatter/oracle.py",
                             "/ np.sqrt(sector.sizes)", "/ sector.sizes"),
    "chain-bond-norm": ("src/q1dscatter/oracle.py",
                        "chain[-1] = -2.0 * j_eff / math.sqrt(2.0)",
                        "chain[-1] = -2.0 * j_eff / 2.0"),
    # closed_channels moves to a module that imports it: every name
    # still resolves, to the same object, but not from its definer
    "export-wrong-module": ("src/q1dscatter/__init__.py",
                            '"closed_channels",\n              '
                            '"potential_on_grid"),\n    '
                            '"single_particle": (',
                            '\n              "potential_on_grid"),\n    '
                            '"single_particle": ("closed_channels", '),
    "fold-weight": ("src/q1dscatter/two_body.py",
                    "weight = np.full(psi.shape[1] - origin, math.sqrt(2.0))",
                    "weight = np.full(psi.shape[1] - origin, 2.0)"),
    "fold-origin-weight": ("src/q1dscatter/two_body.py",
                           "    weight[0] = 1.0",
                           "    weight[0] = math.sqrt(2.0)"),
    "pair-distinct-weight": ("src/q1dscatter/two_body.py",
                             "np.where(n1 != n2, math.sqrt(2.0), 1.0)",
                             "np.where(n1 != n2, 2.0, 1.0)"),
    "rayleigh-step-sign": ("src/q1dscatter/traps.py",
                           "return energies + (np.einsum",
                           "return energies - (np.einsum"),
    "rayleigh-step-dropped": ("src/q1dscatter/traps.py",
                              "return energies + (np.einsum",
                              "return energies + 0.0 * (np.einsum"),
    "rayleigh-compensation": ("src/q1dscatter/traps.py",
                              "comp = comp + (s_err + p_err)",
                              "comp = comp + s_err"),
    "gauge-tie-last-site": ("src/q1dscatter/traps.py",
                            "np.argmax(np.abs(vectors), axis=1)]",
                            "-1 - np.argmax(np.abs(vectors[:, ::-1]), "
                            "axis=1)]"),
    "interlacing-end": ("src/q1dscatter/traps.py",
                        "min(n_sec * len(e) + s for",
                        "min(n_sec * len(e) for"),
    "cancellation-order": ("src/q1dscatter/two_body.py",
                           'for i in np.argsort(gap[near_z, near_p], '
                           'kind="stable"):',
                           "for i in range(len(near_z)):"),
    "parity-label-shift": ("src/q1dscatter/traps.py",
                           "labels[n % 2] for n in",
                           "labels[(n + 1) % 2] for n in"),
    "pair-parity-keep": ("src/q1dscatter/two_body.py",
                         "keep = n1 % 2 == n2 % 2", "keep = n1 % 2 <= n2 % 2"),
    "pair-energy-cos": ("src/q1dscatter/two_body.py",
                        "-2.0 * j_k * math.cos(k)",
                        "-2.0 * j_k * math.cos(2 * k)"),
    # at_relative_momentum rebuilds a kernel already at its energy
    "relative-momentum-reuse": ("src/q1dscatter/two_body.py",
                                "== self.energy:\n            return self",
                                "== math.nan:\n            return self"),
}

#: test (under tests/) -> the rows it failed first on when they ran the
#: whole suite; each runs alone on its rows' copies before the suite
KILLERS = {
    "test_acceptance.py::test_near_continuum_resonances_converged": (
        "visibility-floor-down", "ladder-step", "fold-weight",
        "fold-origin-weight", "rayleigh-step-sign", "rayleigh-step-dropped",
        "rayleigh-compensation", "pair-parity-keep"),
    "test_acceptance.py::test_continuum_well_channel_sum": (
        "delta-bound-energy-sign",),
    "test_acceptance.py::test_exact_diagonalization_single_particle": (
        "readout-x-orbit-norm", "readout-y-orbit-norm", "chain-bond-norm"),
    "test_acceptance.py::test_two_site_resonance_count_and_crossing": (
        "pair-distinct-weight",),
    ("test_acceptance.py::"
     "test_pair_hopping_sign_selected_by_exact_diagonalization"): (
        "interlacing-end",),
    "test_cli.py::test_ladder_rungs_in_manifest_only": ("ladder-rel-tol",),
    "test_cli.py::test_oracle_delta_well_takes_its_half_width": (
        "box-ceiling",),
    "test_cli.py::test_single_grid_rungs_in_manifest": (
        "auto-first-half-width", "grid-doubling"),
    "test_cli.py::test_finite_k_manifest_describes_the_solved_kernel": (
        "pair-energy-cos",),
    "test_continuum.py::test_quadrature_methods_agree": ("quad-tol-share",),
    "test_continuum.py::test_kronrod_rule_is_exact_to_degree_31": (
        "quad-kronrod-weight",),
    "test_continuum.py::test_a_peak_past_the_panel_cap_raises": (
        "quad-panel-cap", "quad-error-scaling"),
    "test_continuum.py::test_tabulated_asymptote_reproduces_delta_well": (
        "phase-fold",),
    ("test_hygiene.py::"
     "test_package_exports_resolve_from_their_defining_module"): (
        "export-wrong-module",),
    ("test_oracle.py::"
     "test_eigenpair_residual_gate_rejects_a_planted_bad_pair"): (
        "eigen-residual-max", "eigen-residual-max-1e-7"),
    "test_properties.py::test_ring_sums_skip_only_negligible_powers": (
        "ring-far-cutoff",),
    "test_properties.py::test_a_batch_integrates_each_well_as_alone": (
        "quad-gemv-row-sum",),
    "test_properties.py::test_leading_states_of_one_solve_are_a_fresh_solve": (
        "box-fixed-half-width",),
    "test_ring.py::test_asymptotic_momentum_is_brentq_bit_for_bit": (
        "asymptotic-lane-xtol",),
    "test_single_particle.py::test_complete_basis_grids_agree_to_1e_12": (
        "grid-rel-tol",),
    "test_single_particle.py::test_auto_grid_stops_at_half_width_2560": (
        "auto-grid-cap",),
    "test_traps.py::test_delta_well_bound_energy": ("edge-tol",),
    "test_traps.py::test_grid_ladders": ("box-first-half-width",
                                         "box-margin"),
    "test_traps.py::test_gauge_makes_the_first_largest_component_positive": (
        "gauge-tie-last-site",),
    "test_traps.py::test_harmonic_parity_labels": ("parity-label-shift",),
    "test_two_body.py::test_moderate_trap_frozen_report": (
        "zero-pole-cancellation",),
    ("test_two_body.py::"
     "test_visibility_floor_separates_the_small_omega_poles"): (
        "visibility-floor-up",),
    "test_two_body.py::test_a_pole_cancels_its_nearest_zero": (
        "cancellation-order",),
    "test_two_body.py::test_kernel_at_k_is_the_dense_green_function_at_e_k": (
        "relative-momentum-reuse",),
}

_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                 ".hypothesis", ".perfbench_work")
_PYTEST = [sys.executable, "-m", "pytest", "-q", "-x", "-p",
           "no:cacheprovider"]
_TIER1 = _PYTEST + ["--continue-on-collection-errors"]


def run(mutant: tuple[str, str, str] | None, killer: str | None = None
        ) -> tuple[bool, str, float, str]:
    """Tests on a mutated copy: ``(passed, first failure, seconds, what
    ran)``, the known `killer` alone first and the whole Tier-1 suite
    only if it passes (or there is none)."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_IGNORE)
        if mutant is not None:
            path, text, replacement = mutant
            source = (copy / path).read_text()
            count = source.count(text)
            if count != 1:
                raise SystemExit(f"{path}: {text!r} matches {count} times")
            (copy / path).write_text(source.replace(text, replacement))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        start = time.perf_counter()
        ran = "known"
        done = None
        if killer is not None:
            done = subprocess.run(_PYTEST + ["tests/" + killer], cwd=copy,
                                  env=env, text=True, capture_output=True)
            if done.returncode not in (0, 1):  # 1: a test failed
                raise SystemExit(f"{killer} did not run:\n{done.stdout}")
        if done is None or done.returncode == 0:
            ran = "suite"
            done = subprocess.run(_TIER1, cwd=copy, env=env, text=True,
                                  capture_output=True)
        seconds = time.perf_counter() - start
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.M)
    return (done.returncode == 0, failed.group(1) if failed else "",
            seconds, ran)


def main(names: list[str]) -> int:
    killer = {name: test for test, rows in KILLERS.items() for name in rows}
    unknown = (set(names) | set(killer)) - set(MUTANTS)
    if unknown:
        raise SystemExit(f"unknown mutants: {sorted(unknown)}")
    start = time.perf_counter()
    passed, failure, seconds, _ = run(None)
    print(f"{'control':26} {'passed' if passed else 'FAILED':9} "
          f"{failure} ({seconds:.0f} s)", flush=True)
    if not passed:
        return 1
    survivors = 0
    for name in names or MUTANTS:
        passed, failure, seconds, ran = run(MUTANTS[name], killer.get(name))
        survivors += passed
        print(f"{name:26} {'SURVIVED' if passed else 'killed':9} "
              f"{failure} ({ran}, {seconds:.0f} s)", flush=True)
    print(f"audit wall time {time.perf_counter() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
