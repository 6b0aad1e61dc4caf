"""The benchmark's workloads: seeded CLI invocation lists and the
witness check that decides whether each invocation succeeded.

An operation is one ``q1dscatter.cli.main(argv)`` call.  It fails when
it exits nonzero or when its check returns a complaint.  Checks compare
the CSVs against an independent witness: a closed form, the
exact-diagonalization oracle, or a published value quoted in README.md
or the tests, never with a tolerance looser than that source.  The
sweep checks on ``a`` and ``atan_u1d``, and the whole ``finite_k``
check, redo the program's own arithmetic on its outputs: they are
self-consistency checks, not witnesses, and ``finite_k`` has no
independent witness.

The seed moves sweep-grid offsets and couplings only inside windows
that hold no resonance pole; trap, basis size, ring lengths and point
counts never change, so every seed does the same amount of work.
"""

from __future__ import annotations

import csv
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# hopping unit of the package (q1dscatter.traps.J); the closed forms
# below are written in it
J = 1.0


@dataclass(frozen=True)
class Op:
    """One CLI invocation; ``{out}`` in `argv` is the pass directory."""

    name: str
    argv: tuple[str, ...]
    check: Callable[[Path], list[str]]


# Known defects at the parent commit, pinned to their exact complaints:
# the operation still counts as failed, but a failure whose complaints
# match these patterns one for one does not make the run incorrect.
# Any other complaint does.
KNOWN_DEFECTS = {
    # locate_resonances reports a pole at U=-944.495 inside the
    # near-continuum strong-coupling window
    "spa_near": (
        r'exit 2: \{"error": "PoleInWindow", "message": "resonance at '
        r'U=-944\.495 lies inside the fit window \[-[0-9.]+, -[0-9.]+\]", '
        r'"exit_code": 2\}',),
    # states 18 and 19 of omega=0.1 both come out even, so 19 and 20
    # carry swapped labels (ROADMAP item 1)
    "transverse": (
        re.escape("parity of state 19 is even, expected odd"),
        re.escape("parity of state 20 is odd, expected even")),
}


def is_known_defect(name: str, failures: list[str]) -> bool:
    """True when `failures` are exactly the known defect of operation
    `name`."""
    patterns = KNOWN_DEFECTS.get(name, ())
    return bool(failures) and len(failures) == len(patterns) and all(
        re.fullmatch(pat, f) for pat, f in zip(patterns, failures))


def read_csv(path: Path) -> tuple[dict[str, str], list[dict[str, str]]]:
    """Split a q1dscatter CSV into its ``# key: value`` block and rows."""
    meta: dict[str, str] = {}
    body: list[str] = []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        else:
            body.append(line)
    return meta, list(csv.DictReader(body))


def _within(label: str, value: float, lo: float, hi: float) -> list[str]:
    return [] if lo <= value <= hi else [f"{label} {value!r} outside "
                                         f"[{lo}, {hi}]"]


def _near(label: str, got: float, want: float, tol: float,
          relative: bool = False) -> list[str]:
    if got == want:
        return []
    err = abs(got - want) / (abs(want) if relative else 1.0)
    if err <= tol:
        return []
    kind = "relative" if relative else "absolute"
    return [f"{label} {got!r} vs {want!r}: {kind} error {err:.3g} > {tol:g}"]


# --------------------------------------------------------------------
# checks


def _scattering_length_form(path: Path, j_eff_key: str | None) -> list[str]:
    """Self-consistency of every sweep row: ``a = -2 J_eff / U1D`` (rel
    1e-14, test_single_particle) and ``atan_u1d = atan(U1D)`` (abs
    1e-15, test_cli), the same arithmetic the program does."""
    meta, rows = read_csv(path)
    j_eff = J if j_eff_key is None else float(meta[j_eff_key])
    out: list[str] = []
    for row in rows:
        u1d = float(row["u1d"])
        out += _near(f"{path.name} a at U={row['u']}", float(row["a"]),
                     -2.0 * j_eff / u1d, 1e-14, relative=True)
        out += _near(f"{path.name} atan_u1d at U={row['u']}",
                     float(row["atan_u1d"]), math.atan(u1d), 1e-15)
    return out


def _resonance_report(path: Path, visible: int, broad_u: float) -> list[str]:
    """Visible count and the single broad resonance at ``broad_u``
    +- 0.005 (README validation status)."""
    _, rows = read_csv(path)
    shown = [r for r in rows if r["visible"] == "True"]
    broad = [float(r["u"]) for r in shown if r["kind"] == "broad"]
    out = [] if len(shown) == visible else [
        f"{len(shown)} visible resonances, expected {visible}"]
    if len(broad) != 1:
        return out + [f"{len(broad)} visible broad resonances, expected 1"]
    return out + _near("broad resonance", broad[0], broad_u, 0.005)


def _spa_window(path: Path, lo: float, hi: float) -> list[str]:
    """Both single-pole estimates and their midpoint inside the
    published window (README; test_acceptance)."""
    _, (row,) = read_csv(path)
    out: list[str] = []
    for key in ("estimate_c1", "estimate_c2", "midpoint"):
        out += _within(key, float(row[key]), lo, hi)
    return out


def check_fig1(out: Path) -> list[str]:
    return _scattering_length_form(out / "fig1.csv", None)


def check_fig2(out: Path) -> list[str]:
    """Zero-range well: no bound channel, so ``1/U_CIR = S(0)`` exactly;
    ``U_CIR`` falls as the well deepens (test_continuum)."""
    _, rows = read_csv(out / "fig2.csv")
    bad = [r["v0"] for r in rows if r["inverse_u_cir"] != r["s_k"]]
    cirs = [float(r["u_cir"]) for r in rows]
    found = [f"inverse_u_cir != s_k at v0={v}" for v in bad]
    if not all(b < a for a, b in zip(cirs, cirs[1:])):
        found.append("u_cir does not decrease with well depth")
    return found


def check_ring(out: Path) -> list[str]:
    """L=1000 energies against the infinite-system phase-shift
    quantization (1e-6, test_acceptance), and the lowest L=1000 crossing
    against fig1's infinite-system ``u-cir`` (1e-3, test_ring)."""
    # imported here: run.py puts the checkout's src/ on sys.path first
    from q1dscatter import Harmonic, asymptotic_momentum, solve_transverse
    spectrum = solve_transverse(Harmonic(omega=1e-3, y_max=160),
                                n_states=121)
    _, rows = read_csv(out / "ring.csv")
    large = [r for r in rows if r["length"] == "1000"]
    found = [] if large else ["no L=1000 roots"]
    for r in large:
        ref = asymptotic_momentum(spectrum, float(r["u"]), 1000,
                                  int(r["branch"]))
        found += _near(f"L=1000 energy at U={r['u']}", float(r["energy"]),
                       ref.energy, 1e-6)
    _, crossings = read_csv(out / "ring_crossings.csv")
    levels = [c for c in crossings if c["length"] == "1000"]
    if not levels:
        return found + ["no L=1000 crossings"]
    lowest = min(levels, key=lambda c: int(c["level"]))
    fig1_meta, _ = read_csv(out / "fig1.csv")
    return found + _near("lowest L=1000 crossing", float(lowest["u"]),
                         float(fig1_meta["u-cir"]), 1e-3)


def check_fig4(out: Path) -> list[str]:
    meta, _ = read_csv(out / "fig4_resonances.csv")
    found = [] if meta["converged"] == "True" else ["ladder not converged"]
    if meta["n-states"] != "121":
        found.append(f"converged at {meta['n-states']} states, expected 121")
    return (found + _resonance_report(out / "fig4_resonances.csv", 3, -4.792)
            + _scattering_length_form(out / "fig4.csv", "j-k"))


def check_fig5(out: Path) -> list[str]:
    return (_resonance_report(out / "fig5_resonances.csv", 4, -8.286)
            + _scattering_length_form(out / "fig5.csv", "j-k"))


def check_finite_k(out: Path) -> list[str]:
    """Self-consistency only, with no independent witness:
    ``U1D = -2 J_K sin k tan(delta_k)`` (rel 1e-12, the single-particle
    phase-shift test) and ``atan_u1d = atan(U1D)`` (abs 1e-15), the same
    arithmetic the program does."""
    meta, rows = read_csv(out / "finite_k.csv")
    s = 2.0 * float(meta["j-k"]) * math.sin(FINITE_K)
    found: list[str] = []
    for row in rows:
        u1d = float(row["u1d"])
        found += _near(f"u1d at U={row['u']}", u1d,
                       -s * math.tan(float(row["delta_k"])), 1e-12,
                       relative=True)
        found += _near(f"atan_u1d at U={row['u']}", float(row["atan_u1d"]),
                       math.atan(u1d), 1e-15)
    return found


def check_transverse(out: Path) -> list[str]:
    """A symmetric trap's levels alternate even/odd in energy order."""
    _, rows = read_csv(out / "transverse.csv")
    found = []
    for n, row in enumerate(rows):
        want = "even" if n % 2 == 0 else "odd"
        if row["parity"] != want:
            found.append(f"parity of state {n} is {row['parity']}, "
                         f"expected {want}")
    energies = [float(r["energy"]) for r in rows]
    if energies != sorted(energies):
        found.append("energies out of order")
    return found


def check_spa_moderate(out: Path) -> list[str]:
    return _spa_window(out / "spa_moderate.csv", -8.4, -8.2)


def check_spa_near(out: Path) -> list[str]:
    return _spa_window(out / "spa_near.csv", -4.9, -4.7)


def check_oracle(name: str) -> Callable[[Path], list[str]]:
    def check(out: Path) -> list[str]:
        _, (row,) = read_csv(out / f"{name}.csv")
        return [] if row["diverged"] == "False" else ["oracle diverged"]
    return check


def check_witness(name: str, tol: float, relative: bool
                  ) -> Callable[[Path], list[str]]:
    """The channel solver's scattering length against the oracle's:
    pairs to 1e-6 absolute (test_oracle), a single particle to 4e-9
    relative (README validation status)."""
    def check(out: Path) -> list[str]:
        _, (oracle,) = read_csv(out / f"{name}.csv")
        _, (witness,) = read_csv(out / f"{name}_witness.csv")
        return _near("scattering length", float(witness["a"]),
                     float(oracle["a"]), tol, relative)
    return check


# --------------------------------------------------------------------
# workloads

FINITE_K = 0.05
_NEAR = ("--trap", "harmonic", "--omega", "1e-3", "--y-max", "160",
         "--n-states", "121")
_MODERATE_TRAP = ("--trap", "harmonic", "--omega", "0.1")
_MODERATE = (*_MODERATE_TRAP, "--n-states", "21")
_TWO_SITE = ("--trap", "two-site", "--v", "1")
# hard-wall 9-site table V = 0.1 y^2 holding a pair at K = pi/3
_TABLE = ("--trap", "tabulated",
          "--values=" + ",".join(f"{y}:{0.1 * y * y!r}" for y in range(-4, 5)),
          "--total-momentum", repr(math.pi / 3))


def _grid(rng: random.Random, lo: float, hi: float, points: int,
          shift: float) -> tuple[str, ...]:
    """``--u-from/--u-to/--points`` with both ends moved by one draw
    from ``[-shift, shift)``."""
    d = rng.uniform(-shift, shift)
    return ("--u-from", repr(lo + d), "--u-to", repr(hi + d),
            "--points", str(points))


def _step(lo: float, hi: float, points: int) -> float:
    return (hi - lo) / (points - 1)


def _oracle_pair(name: str, mode: str, trap: tuple[str, ...], u: float,
                 tol: float, relative: bool) -> list[Op]:
    """An oracle problem followed by the matching channel-solver
    invocation as its witness."""
    oracle = Op(name, ("oracle", "--validate", "--mode", mode, *trap,
                       "--u", repr(u), "--lx", "200",
                       "--output", f"{{out}}/{name}.csv"),
                check_oracle(name))
    witness = Op(f"{name}_witness",
                 ("single" if mode == "single" else "twobody", *trap,
                  "--u-from", repr(u), "--u-to", repr(u), "--points", "1",
                  "--output", f"{{out}}/{name}_witness.csv"),
                 check_witness(name, tol, relative))
    return [oracle, witness]


def pair_large_basis(rng: random.Random) -> list[Op]:
    # the near-continuum pole at U=-944.495 stays inside the shifted
    # window for every seed, so the known defect always shows
    return [
        Op("fig4", ("figure", "fig4", "--output-dir", "{out}"), check_fig4),
        Op("spa_near", ("spa-fit", *_NEAR, *_grid(rng, -1000.0, -900.0, 50,
                                                    20.0),
                        "--output", "{out}/spa_near.csv"), check_spa_near),
    ]


def sweeps_small_basis(rng: random.Random) -> list[Op]:
    # pole-free windows: omega=0.1 poles lie at U <= -5.59 and near
    # -142.9 and -1637.4; the ring sweep skips empty branches itself
    return [
        Op("fig1", ("figure", "fig1", "--output-dir", "{out}"), check_fig1),
        Op("fig2", ("figure", "fig2", "--output-dir", "{out}"), check_fig2),
        Op("ring", ("ring", *_NEAR, "--length", "10", "--length", "50",
                    "--length", "1000", "--crossings",
                    *_grid(rng, -30.0, 30.0, 50,
                           0.5 * _step(-30.0, 30.0, 50)),
                    "--output", "{out}/ring.csv"), check_ring),
        Op("fig5", ("figure", "fig5", "--output-dir", "{out}"), check_fig5),
        Op("finite_k", ("twobody", *_MODERATE, "--k", repr(FINITE_K),
                        *_grid(rng, -4.0, 4.0, 200,
                               0.5 * _step(-4.0, 4.0, 200)),
                        "--output", "{out}/finite_k.csv"), check_finite_k),
        Op("transverse", ("transverse", *_MODERATE,
                          "--output", "{out}/transverse.csv"),
           check_transverse),
        Op("spa_moderate", ("spa-fit", *_MODERATE,
                            *_grid(rng, -1000.0, -900.0, 50, 20.0),
                            "--output", "{out}/spa_moderate.csv"),
           check_spa_moderate),
    ]


def oracle_validation(rng: random.Random) -> list[Op]:
    # couplings stay between the default and zero, below the first
    # resonance (single -5.45, two-site pair -7.22, table pair -5.31)
    return [
        *_oracle_pair("oracle_single", "single", _MODERATE_TRAP,
                      -2.0 + rng.uniform(0.0, 0.1), 4e-9, True),
        *_oracle_pair("oracle_two_site", "pair", _TWO_SITE,
                      -5.0 + rng.uniform(0.0, 0.1), 1e-6, False),
        *_oracle_pair("oracle_table", "pair", _TABLE,
                      -5.0 + rng.uniform(0.0, 0.1), 1e-6, False),
    ]


WORKLOADS = {
    "pair_large_basis": pair_large_basis,
    "sweeps_small_basis": sweeps_small_basis,
    "oracle_validation": oracle_validation,
}


def build(workload: str, seed: int) -> list[Op]:
    """The workload's operations for `seed`, each pinned to one worker."""
    ops = WORKLOADS[workload](random.Random(seed))
    return [Op(op.name, (*op.argv, "--threads", "1"), op.check) for op in ops]
