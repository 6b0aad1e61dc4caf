"""Planted-defect audit: does Tier-1 catch each one-line mutant?

Each entry of ``MUTANTS`` changes one line of the package (a numerical
constant, a sign or an operation) by a text replacement that must match
exactly once.  For each, in turn, the script copies the repository
(without ``.git`` and caches) to a temporary directory, applies the
replacement there, runs the Tier-1 suite on the copy with ``-x`` and
records whether it failed (the mutant is killed) or passed (it
survived).  An unmutated copy runs first as the control: it must pass,
or every kill would be meaningless.  The working tree is never modified.

Run it from the repository root; a killed mutant stops at its first
failing test, a survivor and the control take the whole suite (about a
minute each on two cores):

    python tests/reference/mutants.py            # every mutant
    python tests/reference/mutants.py edge-tol   # the named ones

It prints one row per mutant: killed or survived, the first failing
test, and the seconds taken.  It is not collected by pytest.
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
                    "ceiling = spec.asymptote - 2.0 * J - 1e-12",
                    "ceiling = spec.asymptote - 2.0 * J + 1e-2"),
    "box-first-half-width": ("src/q1dscatter/traps.py",
                             "y_max = fixed or max(range_max + 20, 40)",
                             "y_max = fixed or max(range_max + 20, 20)"),
    "box-fixed-half-width": ("src/q1dscatter/traps.py",
                             "if fixed:\n                return",
                             "if False:\n                return"),
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
}

_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                 ".hypothesis", ".perfbench_work")
_TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p",
          "no:cacheprovider", "--continue-on-collection-errors"]


def run(mutant: tuple[str, str, str] | None) -> tuple[bool, str, float]:
    """Tier-1 on a mutated copy: ``(passed, first failure, seconds)``."""
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
        done = subprocess.run(_TIER1, cwd=copy, env=env, text=True,
                              capture_output=True)
        seconds = time.perf_counter() - start
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.M)
    return done.returncode == 0, failed.group(1) if failed else "", seconds


def main(names: list[str]) -> int:
    unknown = set(names) - set(MUTANTS)
    if unknown:
        raise SystemExit(f"unknown mutants: {sorted(unknown)}")
    passed, failure, seconds = run(None)
    print(f"{'control':26} {'passed' if passed else 'FAILED':9} "
          f"{failure} ({seconds:.0f} s)", flush=True)
    if not passed:
        return 1
    survivors = 0
    for name in names or MUTANTS:
        passed, failure, seconds = run(MUTANTS[name])
        survivors += passed
        print(f"{name:26} {'SURVIVED' if passed else 'killed':9} "
              f"{failure} ({seconds:.0f} s)", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
