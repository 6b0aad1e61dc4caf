"""Command-line front end: validated run configurations, sweep
execution, CSV emission, run manifests, and figure recipes.

Precedence of settings: built-in defaults < config file < command-line
flags.  The config file is flat ``key = value`` text (keys are the long
flag names with underscores); a manifest JSON from a previous run is
also accepted, which makes reruns reproduce the CSV byte for byte.

Every CSV starts with a ``#`` metadata block carrying the tool version
and a hash of the resolved physics configuration (output paths and
thread counts are excluded from the hash, so they never change the
data bytes).  Failures print a machine-readable JSON error record to
stderr and exit with the class-specific code (2 config, 3 solver
non-convergence, 4 physical-regime violation).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from collections import namedtuple
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import get_args, get_origin

import numpy
import scipy

from . import __version__
from .errors import ConfigError, Q1DError, UnknownFigure
from .continuum import continuum_sums, u_cir_with_continuum
from .oracle import StripProblem, pair_scattering_length, \
    strip_scattering_length
from .ring import ring_cir_crossings, ring_sweep_roots
from .single_particle import J, phase_shift, scattering_length, u1d_values, \
    u_cir, u_cir_complete
from .spa import spa_fit
from .traps import DeltaWell, Harmonic, Tabulated, TwoSite, solve_transverse
from .two_body import build_kernel, converged_resonances, locate_resonances, \
    u1d_curve

SUBCOMMANDS = {
    "transverse": "transverse trap spectrum",
    "single": "single-particle effective 1D coupling sweep",
    "continuum": "zero-range well with transverse continuum",
    "ring": "finite-ring allowed momenta",
    "twobody": "two-particle effective coupling sweep",
    "spa-fit": "single-pole fit of a strong-coupling window",
    "resonances": "two-body resonance report",
    "oracle": "exact-diagonalization validation harness",
    "figure": "run a canned figure recipe",
}

# Keys that steer execution but not the physics; they are excluded from
# the config hash so the CSV bytes do not depend on them.
_HASH_EXCLUDE = {"threads", "output", "output_dir", "config"}

# Each trap's parameter; the keys are the --trap choices.
_TRAP_PARAMETER = {"harmonic": "omega", "delta-well": "v0", "two-site": "v",
                   "tabulated": "values"}

_RUNS = tuple(SUBCOMMANDS)[:-1]  # every subcommand but figure
_TRAPPED = tuple(s for s in _RUNS if s != "continuum")
_U_RANGE = ("single", "ring", "twobody", "spa-fit", "resonances")

# The option table: the only place an option's key, type, default and
# help are written; DEFAULTS, the flags and config-file parsing follow
# it.  `kind` is the value type (``bool`` makes a switch, ``list[int]``
# a repeatable flag, comma-separated in files) or a tuple of allowed
# strings.  `default` is one value, or a mapping from subcommand to
# value (``None`` for a subcommand the mapping leaves out).
_Option = namedtuple("_Option", "key kind default subcommands help")
_OPTIONS = {row[0]: _Option(*row) for row in (
    ("trap", tuple(_TRAP_PARAMETER), None, _TRAPPED, "transverse trap"),
    ("omega", float, None, _TRAPPED, "harmonic curvature"),
    ("v0", float, None, _TRAPPED, "off-center well height"),
    ("v", float, None, _TRAPPED, "two-site offset"),
    ("values", str, None, _TRAPPED, "tabulated potential as y:V,y:V,..."),
    ("asymptote", float, None, _TRAPPED,
     "tabulated potential value outside the table"),
    ("y_max", int, None, _TRAPPED, "transverse half-width"),
    ("n_states", int, None, _TRAPPED, "transverse states kept"),
    ("u_from", float, {"resonances": -30.0}, _U_RANGE, "first coupling U"),
    ("u_to", float, {"resonances": 0.0}, _U_RANGE, "last coupling U"),
    ("points", int, None, ("single", "continuum", "ring", "twobody",
                           "spa-fit"), "sweep points"),
    ("k", float, 0.0, ("single", "continuum", "twobody"),
     "longitudinal momentum (twobody: relative momentum)"),
    ("v0_from", float, None, ("continuum",), "first well height"),
    ("v0_to", float, None, ("continuum",), "last well height"),
    ("length", list[int], None, ("ring",), "ring length (repeatable)"),
    ("branches", int, 1, ("ring",), "momentum branches per length"),
    ("crossings", bool, False, ("ring",),
     "also list fermionized-level crossings"),
    ("total_momentum", float, 0.0, ("twobody", "spa-fit", "resonances",
                                    "oracle"), "pair momentum K"),
    ("resonances", bool, False, ("twobody",), "emit the resonance report"),
    ("converge", bool, False, ("twobody", "resonances"),
     "enlarge the channel basis until the report is cutoff-stable"),
    ("n_start", int, None, ("twobody", "resonances"), "first basis size"),
    ("validate", bool, False, ("oracle",), "required: acknowledge this is "
     "the slow brute-force validator"),
    ("mode", ("single", "pair"), "single", ("oracle",),
     "one particle or a pair"),
    ("u", float, None, ("oracle",), "coupling U"),
    ("lx", int, 400, ("oracle",), "strip length"),
    ("name", str, None, ("figure",), "figure to run (fig1..fig5)"),
    ("output", str, {s: f"{s.replace('-', '_')}.csv" for s in _RUNS},
     _RUNS, "CSV output path"),
    ("output_dir", str, ".", ("figure",), "directory for the figure CSVs"),
    ("threads", int, 0, tuple(SUBCOMMANDS), "accepted for old configs and "
     "manifests; has no effect (every sweep runs in one process)"),
)}

DEFAULTS: dict[str, dict[str, object]] = {
    sub: {opt.key: opt.default.get(sub) if isinstance(opt.default, dict)
          else opt.default
          for opt in _OPTIONS.values() if sub in opt.subcommands}
    for sub in SUBCOMMANDS}


@dataclass(frozen=True)
class RunConfig:
    """A fully resolved, validated run: subcommand plus flat options."""

    subcommand: str
    options: dict[str, object]

    def get(self, key: str):
        return self.options[key]

    def config_hash(self) -> str:
        physics = {k: v for k, v in self.options.items()
                   if k not in _HASH_EXCLUDE}
        blob = json.dumps({"subcommand": self.subcommand, **physics},
                          sort_keys=True, default=repr)
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad flags as ConfigError (exit code 2)."""

    def error(self, message):  # noqa: A003 - argparse API
        raise ConfigError(message)


def _argparse_spec(opt: _Option) -> tuple[list[str], dict[str, object]]:
    """The argparse flags and keywords of one option row."""
    if opt.key == "name":  # figure's positional
        return [opt.key], {"nargs": "?"}
    flags = ["--" + opt.key.replace("_", "-")]
    if opt.kind is bool:
        return flags, {"action": "store_true"}
    if isinstance(opt.kind, tuple):
        return flags, {"choices": opt.kind}
    if get_origin(opt.kind) is list:
        return flags, {"type": get_args(opt.kind)[0], "action": "append"}
    return flags, {"type": opt.kind}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process: parsing leaves it as
    it was, so every :func:`main` call shares it."""
    parser = _Parser(prog="q1dscatter",
                     description="Quasi-1D lattice scattering toolkit")
    parser.add_argument("--version", action="version",
                        version=f"q1dscatter {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for sub, help_text in SUBCOMMANDS.items():
        # no abbreviations: figure's --output-dir would take --output
        p = subs.add_parser(sub, help=help_text, allow_abbrev=False,
                            argument_default=argparse.SUPPRESS)
        p.add_argument("--config", type=str, help="flat key=value config "
                       "file or a manifest JSON from a previous run")
        for opt in _OPTIONS.values():
            if sub in opt.subcommands:
                flags, spec = _argparse_spec(opt)
                p.add_argument(*flags, help=opt.help, **spec)
    return parser


# --------------------------------------------------------------------
# configuration resolution


def _coerce(key: str, raw: str):
    """Parse a config-file string as the option's declared type."""
    kind = _OPTIONS[key].kind
    text = raw.strip()
    if kind is bool:
        if text.lower() in ("true", "1", "yes", "on"):
            return True
        if text.lower() in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"config key {key}: expected a boolean, "
                          f"got {raw!r}")
    if isinstance(kind, tuple):
        return text  # resolve checks it against the choices
    try:
        if get_origin(kind) is list:  # comma-separated in files
            return [get_args(kind)[0](part) for part in text.split(",")]
        return kind(text)
    except ValueError as exc:
        raise ConfigError(f"config key {key}: {exc}") from None


def _has_type(value, kind) -> bool:
    """Whether `value` is one of an option's choices or of its declared
    type (an int passes for a float)."""
    if isinstance(kind, tuple):
        return value in kind
    if get_origin(kind) is list:
        return isinstance(value, list) and all(
            _has_type(item, get_args(kind)[0]) for item in value)
    allowed = {bool: bool, int: int, float: (int, float)}.get(kind, str)
    return isinstance(value, allowed) and (
        kind is bool or not isinstance(value, bool))


def load_config_file(path: str, subcommand: str) -> dict[str, object]:
    """Read a flat ``key = value`` file or a previous run's manifest
    (`resolve` checks the manifest's keys and values)."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    text = p.read_text()
    if p.suffix == ".json" or text.lstrip().startswith("{"):
        payload = json.loads(text)
        if "subcommand" in payload and payload["subcommand"] != subcommand:
            raise ConfigError(
                f"manifest is for subcommand {payload['subcommand']!r}, "
                f"not {subcommand!r}")
        stored = dict(payload.get("config", payload))
        stored.pop("subcommand", None)
        return stored

    out = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"config line {lineno}: expected key=value, "
                              f"got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip().replace("-", "_")
        if key not in DEFAULTS[subcommand]:
            raise ConfigError(f"unknown config key {key!r} for {subcommand}")
        out[key] = _coerce(key, value)
    return out


def resolve(subcommand: str, cli_options: dict[str, object]) -> RunConfig:
    """Merge defaults, config file, and CLI flags into a RunConfig."""
    if subcommand not in DEFAULTS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    options = dict(DEFAULTS[subcommand])
    config_path = cli_options.pop("config", None)
    given = {} if config_path is None else \
        load_config_file(str(config_path), subcommand)
    for key, value in [*given.items(), *cli_options.items()]:
        if key not in options:
            raise ConfigError(f"unknown option {key!r} for {subcommand}")
        # checked, not converted, so a manifest replays to its own hash
        kind = _OPTIONS[key].kind
        if not (_has_type(value, kind) or value is None
                and DEFAULTS[subcommand][key] is None):
            expected = "one of " + ", ".join(kind) if isinstance(kind, tuple) \
                else f"of type {getattr(kind, '__name__', kind)}"
            raise ConfigError(f"{key} must be {expected}, got {value!r}")
        options[key] = value
    if options["threads"] < 0:
        raise ConfigError(f"threads must be a non-negative integer, "
                          f"got {options['threads']!r}")
    return RunConfig(subcommand=subcommand, options=options)


def build_trap(config: RunConfig):
    """Construct the trap named by the config, validating parameters."""
    opts = config.options
    name = opts.get("trap")
    if name is None:
        raise ConfigError("no trap selected (--trap)")
    need = _TRAP_PARAMETER[name]
    if opts.get(need) is None:
        raise ConfigError(f"trap {name} needs --{need}")
    allowed = {need, "asymptote"} if name == "tabulated" else {need}
    if name in ("harmonic", "delta-well"):
        allowed.add("y_max")  # the traps whose grid has a half-width knob
    extra = sorted(k.replace("_", "-")
                   for k in (*_TRAP_PARAMETER.values(), "asymptote", "y_max")
                   if opts.get(k) is not None and k not in allowed)
    if extra:
        raise ConfigError(f"trap {name} does not take --{'/--'.join(extra)}")
    if config.subcommand in ("ring", "twobody", "spa-fit", "resonances") and (
            name == "delta-well" or opts.get("asymptote") is not None):
        # the ring and pair sweeps sum over the solved bound states only:
        # the continuum channels would be dropped without a word
        raise ConfigError(
            f"{config.subcommand} sums over bound transverse channels only; "
            f"trap {name} has a transverse continuum: use single (or "
            f"q1dscatter.u_cir_with_continuum)")
    size = {} if opts.get("y_max") is None else {"y_max": opts["y_max"]}
    if name == "harmonic":
        return Harmonic(omega=float(opts["omega"]), **size)
    if name == "delta-well":
        return DeltaWell(v0=float(opts["v0"]), **size)
    if name == "two-site":
        return TwoSite(v=float(opts["v"]))
    table = {}
    for pair in opts["values"].split(","):
        site, _, value = pair.partition(":")
        try:
            y, v = int(site), float(value)
        except ValueError:
            raise ConfigError(
                f"bad tabulated entry {pair!r}; expected y:V") from None
        if y in table:
            raise ConfigError(f"tabulated site y={y} given twice in values")
        table[y] = v
    asymptote = opts.get("asymptote")
    return Tabulated.from_mapping(
        table, None if asymptote is None else float(asymptote))


def _solve_spectrum(config: RunConfig):
    trap = build_trap(config)
    return solve_transverse(trap, n_states=config.options.get("n_states"))


def _sweep_grid(config: RunConfig, prefix: str = "u") -> list[float]:
    lo = config.options.get(f"{prefix}_from")
    hi = config.options.get(f"{prefix}_to")
    points = config.options.get("points")
    if lo is None or hi is None or points is None:
        raise ConfigError(f"sweep needs --{prefix}-from, --{prefix}-to "
                          f"and --points")
    if points < 1:
        raise ConfigError(f"sweep needs at least one point, got {points}")
    if points == 1:
        return [float(lo)]
    step = (float(hi) - float(lo)) / (points - 1)
    return [float(lo) + step * i for i in range(points)]


# --------------------------------------------------------------------
# output plumbing


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def write_csv(path: Path, config: RunConfig, header: list[str],
              rows: list[tuple], meta: dict[str, object]) -> None:
    with path.open("w", newline="") as fh:
        fh.write(f"# q1dscatter {__version__}\n")
        fh.write(f"# subcommand: {config.subcommand}\n")
        fh.write(f"# config-hash: {config.config_hash()}\n")
        for key, value in meta.items():
            fh.write(f"# {key}: {_fmt(value)}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])


def _environment() -> dict[str, object]:
    """Interpreter, library and CPU facts of this run: manifest only,
    never the CSV or the config hash."""
    def blas(package) -> dict[str, object]:
        info = package.show_config(mode="dicts").get(
            "Build Dependencies", {}).get("blas", {})
        return {"name": info.get("name"), "version": info.get("version")}

    return {
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": blas(numpy), "scipy": blas(scipy)},
        # CPUs this process may run on (affinity is Linux-only)
        "cpus": (len(os.sched_getaffinity(0))
                 if hasattr(os, "sched_getaffinity") else os.cpu_count()),
    }


def write_manifest(path: Path, config: RunConfig, outputs: list[Path],
                   diagnostics: dict[str, object]) -> None:
    payload = {
        "tool": "q1dscatter",
        "version": __version__,
        "subcommand": config.subcommand,
        "config": config.options,
        "config_hash": config.config_hash(),
        "outputs": [str(p) for p in outputs],
        "diagnostics": diagnostics,
        "environment": _environment(),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True,
                               default=repr) + "\n")


# --------------------------------------------------------------------
# subcommand runners


def run_transverse(config: RunConfig, out: Path):
    spectrum = _solve_spectrum(config)
    amps = spectrum.origin_amplitudes
    rows = [(n, float(spectrum.energies[n]), float(amps[n]),
             spectrum.parities[n]) for n in range(spectrum.n_states)]
    write_csv(out, config, ["n", "energy", "origin_amplitude", "parity"],
              rows, {"n-states": spectrum.n_states,
                     "symmetric": spectrum.symmetric})
    return [out], {"n_states": spectrum.n_states,
                   "symmetric": spectrum.symmetric}


def run_single(config: RunConfig, out: Path):
    k = float(config.get("k"))
    trap = build_trap(config)
    n_states = config.options.get("n_states")
    continuum = getattr(trap, "asymptote", None) is not None
    if n_states is None and not continuum:  # the complete grid basis
        rungs = u_cir_complete(trap, k=k)
    else:  # the bound sector, plus S(k) for a continuum well
        spectrum = solve_transverse(trap, n_states=n_states)
        rungs = [(spectrum, u_cir_with_continuum(trap, k=k, spectrum=spectrum)
                  if continuum else u_cir(spectrum, k=k))]
    spectrum, cir = rungs[-1]
    grid = _sweep_grid(config, "u")
    rows = []
    for u, u1d in zip(grid, u1d_values(spectrum, grid, cir).tolist()):
        a, delta = ((scattering_length(u1d), None) if k == 0.0
                    else (None, phase_shift(u1d, k)))
        rows.append((u, u1d, a, delta, math.atan(u1d / J)))
    write_csv(out, config, ["u", "u1d", "a", "delta_k", "atan_u1d"], rows,
              {"u-cir": cir.u_cir, "n-used": cir.n_used, "k": k,
               "n-states": spectrum.n_states})
    return [out], {"u_cir": cir.u_cir, "n_used": cir.n_used,
                   "n_states": spectrum.n_states,
                   "complete": spectrum.complete,
                   "rungs": [{"grid_sites": len(s.grid),
                              "inverse_u_cir": c.inverse} for s, c in rungs]}


def run_continuum(config: RunConfig, out: Path):
    grid = _sweep_grid(config, "v0")
    k = float(config.get("k"))
    # one bound state: no bound sum, and 1/U_CIR is S(k) itself
    sums = continuum_sums([DeltaWell(v0=v0) for v0 in grid], k=k)
    rows = [(v0, s.value, s.value, 1.0 / s.value)
            for v0, s in zip(grid, sums)]
    write_csv(out, config, ["v0", "s_k", "inverse_u_cir", "u_cir"], rows,
              {"k": k})
    return [out], {"points": len(rows)}


def run_ring(config: RunConfig, out: Path):
    spectrum = _solve_spectrum(config)
    lengths = config.options.get("length")
    if not lengths:
        raise ConfigError("ring needs at least one --length")
    branches = config.get("branches")
    if branches < 1:
        raise ConfigError("--branches must be >= 1")
    grid = _sweep_grid(config, "u")
    keys = [(length, branch) for length in lengths
            for branch in range(branches)]
    sweeps = [ring_sweep_roots(spectrum, grid, length, branch)
              for length, branch in keys]
    rows = [(length, u, branch, sol.k, sol.energy, sol.residual)
            for i, u in enumerate(grid)
            for (length, branch), sweep in zip(keys, sweeps)
            for sol in sweep.roots[i] or ()]
    skipped = sum(sweep.roots.count(None) for sweep in sweeps)
    write_csv(out, config,
              ["length", "u", "branch", "k", "energy", "residual"], rows,
              {"empty-branch-points": skipped})
    outputs = [out]
    diagnostics: dict[str, object] = {
        "rows": len(rows), "empty_branch_points": skipped,
        "polish": [{"length": length, "branch": branch,
                    "passes": sweep.passes, "roots": sweep.polished}
                   for (length, branch), sweep in zip(keys, sweeps)],
        "polished_roots": sum(sweep.polished for sweep in sweeps),
        "max_residual": max((row[-1] for row in rows), default=0.0)}
    if config.get("crossings"):
        cross_rows = []
        for length in lengths:
            for c in ring_cir_crossings(spectrum, length):
                cross_rows.append((length, c.level, c.k, c.u))
        cross_path = out.with_name(out.stem + "_crossings.csv")
        write_csv(cross_path, config, ["length", "level", "k", "u"],
                  cross_rows, {})
        outputs.append(cross_path)
        diagnostics["crossings"] = len(cross_rows)
    return outputs, diagnostics


def _resonance_window(config: RunConfig, clamp: bool) -> tuple[float, float]:
    window = DEFAULTS["resonances"]  # twobody leaves the ends unset
    lo, hi = (float(window[key] if config.options[key] is None
                    else config.options[key]) for key in ("u_from", "u_to"))
    if clamp:
        hi = min(hi, 0.0)  # resonances live on the attractive side
    return (lo, hi)


def _resonance_report(config: RunConfig, window: tuple[float, float]):
    """The resonance report of `config`, from a kernel of its own (with
    ``--converge``, a ladder of its own)."""
    momentum = float(config.get("total_momentum"))
    if config.get("converge"):
        n_start = config.options.get("n_start")
        if n_start is None:
            raise ConfigError("--converge needs --n-start")
        return converged_resonances(build_trap(config), n_start,
                                    total_momentum=momentum, u_window=window)
    return locate_resonances(
        build_kernel(_solve_spectrum(config), total_momentum=momentum),
        window)


def _write_resonances(config: RunConfig, out: Path, report) -> None:
    rows = [(r.u, r.width, r.residue, r.kind, r.visible)
            for r in report.resonances]
    write_csv(out, config, ["u", "width", "residue", "kind", "visible"],
              rows,
              {"zero-crossings": ";".join(repr(c) for c in
                                          report.zero_crossings),
               "window": f"{report.window[0]} {report.window[1]}",
               "n-states": report.n_states,
               "n-channels": report.n_channels,
               "converged": report.converged})


def _kernel_diagnostics(source, prefix: str = "") -> dict[str, object]:
    """Solver internals of a two-body kernel (or of the report computed
    from one): manifest only, never the CSV or the config hash."""
    return {prefix + key: getattr(source, key)
            for key in ("collision_sites", "numerical_rank",
                        "min_abs_denominator")}


def _ladder_diagnostics(report) -> dict[str, object]:
    """The basis size of each rung of a converged ladder (manifest
    only)."""
    return {"ladder": list(report.rungs)} if report.rungs else {}


def _twobody_row(u: float, i00: float, j_k: float, k: float) -> tuple:
    """One sweep row from the linear amplitude ``I00`` at ``E(k)``: the
    scattering length at ``k = 0``, else the closed finite-k form of
    :func:`~q1dscatter.two_body.solve_finite_k`."""
    u1d = u * i00
    if k == 0.0:
        a, delta = scattering_length(u1d, j_k), None
    else:
        a, delta = None, phase_shift(u1d, k, j_k)
        i00 *= math.cos(delta)
    return (u, u1d, a, i00, delta, math.atan(u1d / J))


def run_twobody(config: RunConfig, out: Path):
    want_report = config.get("resonances") or config.get("converge")
    has_sweep = config.options.get("points") is not None
    if not (want_report or has_sweep):
        raise ConfigError("twobody needs a sweep grid (--u-from/--u-to/"
                          "--points) or --resonances")
    outputs: list[Path] = []
    diagnostics: dict[str, object] = {}
    if has_sweep:
        spectrum = _solve_spectrum(config)
        kernel = build_kernel(
            spectrum, total_momentum=float(config.get("total_momentum")))
        grid = _sweep_grid(config, "u")
        k = float(config.get("k"))
        # a finite-k sweep evaluates the kernel at E(k) once: one H
        sweep_kernel = kernel if k == 0.0 else kernel.at_relative_momentum(k)
        proximity = sweep_kernel.pole_proximity(grid)
        # partial fractions over the grid, as Python floats
        rows = [_twobody_row(u, i00, kernel.j_k, k) for u, i00 in zip(
            grid, sweep_kernel.entrance_amplitude(grid).tolist())]
        write_csv(out, config,
                  ["u", "u1d", "a", "i00", "delta_k", "atan_u1d"], rows,
                  {"total-momentum": kernel.total_momentum,
                   "j-k": kernel.j_k, "n-channels": kernel.n_channels,
                   "r-entrance": kernel.r_entrance})
        outputs.append(out)
        diagnostics.update({"n_channels": kernel.n_channels,
                            "r_entrance": kernel.r_entrance,
                            "min_pole_proximity": proximity,
                            **_kernel_diagnostics(kernel)})
    if want_report:
        report = _resonance_report(config,
                                   _resonance_window(config, clamp=True))
        report_path = out.with_name(out.stem + "_resonances.csv") \
            if has_sweep else out
        _write_resonances(config, report_path, report)
        outputs.append(report_path)
        diagnostics.update({
            "resonances": len(report.resonances),
            "visible": len(report.visible_resonances),
            "zero_crossings": list(report.zero_crossings),
            "report_n_states": report.n_states,
            "converged": report.converged,
            **_ladder_diagnostics(report),
            **_kernel_diagnostics(report, prefix="report_")})
    return outputs, diagnostics


def run_spa_fit(config: RunConfig, out: Path):
    spectrum = _solve_spectrum(config)
    kernel = build_kernel(spectrum,
                          total_momentum=float(config.get("total_momentum")))
    grid = _sweep_grid(config, "u")
    values = u1d_curve(kernel, grid)
    fit = spa_fit(list(zip(grid, values)), kernel.r_entrance,
                  known_resonances=kernel.poles((-1e6, 0.0))[0].tolist())
    row = (fit.c1, fit.c2, fit.estimate_c1, fit.estimate_c2, fit.midpoint,
           fit.spread, fit.relative_residual, fit.r_entrance, fit.n_points,
           fit.window[0], fit.window[1])
    write_csv(out, config,
              ["c1", "c2", "estimate_c1", "estimate_c2", "midpoint",
               "spread", "relative_residual", "r_entrance", "n_points",
               "u_from", "u_to"], [row], {})
    return [out], {"estimate_c1": fit.estimate_c1,
                   "estimate_c2": fit.estimate_c2,
                   **_kernel_diagnostics(kernel)}


def run_resonances(config: RunConfig, out: Path):
    report = _resonance_report(config, _resonance_window(config,
                                                         clamp=False))
    _write_resonances(config, out, report)
    return [out], {"resonances": len(report.resonances),
                   "visible": len(report.visible_resonances),
                   "zero_crossings": list(report.zero_crossings),
                   "n_states": report.n_states,
                   "converged": report.converged,
                   **_ladder_diagnostics(report),
                   **_kernel_diagnostics(report)}


def run_oracle(config: RunConfig, out: Path):
    if not config.get("validate"):
        raise ConfigError("the oracle is a validation harness; "
                          "pass --validate to run it")
    if config.options.get("u") is None:
        raise ConfigError("oracle needs --u")
    problem = StripProblem(trap=build_trap(config), u=float(config.get("u")),
                           lx=config.get("lx"))
    mode = config.get("mode")
    if mode == "single":
        res = strip_scattering_length(problem)
    else:
        res = pair_scattering_length(
            problem, total_momentum=float(config.get("total_momentum")))
    row = (mode, problem.u, problem.lx, res.a, res.diverged, res.k_min,
           res.entrance_weight, res.fit_residual, res.contamination)
    write_csv(out, config,
              ["mode", "u", "lx", "a", "diverged", "k_min", "entrance_weight",
               "fit_residual", "contamination"], [row], {})
    return [out], {"a": res.a, "diverged": res.diverged,
                   "eigen_residual": res.eigen_residual,
                   "unknowns": res.unknowns, "spread": res.spread,
                   "eigenpairs": res.eigenpairs}


# --------------------------------------------------------------------
# figure recipes

_FIG1 = {
    "trap": "harmonic", "omega": 1e-3, "n_states": 121, "y_max": 160,
    "u_from": -30.0, "u_to": 30.0, "points": 600, "k": 0.0,
}
_FIG2 = {"v0_from": 0.1, "v0_to": 10.0, "points": 200, "k": 0.0}
_FIG3 = {
    "trap": "harmonic", "omega": 1e-3, "n_states": 121, "y_max": 160,
    "length": [10, 50, 1000], "branches": 1, "crossings": True,
    "u_from": -30.0, "u_to": 30.0, "points": 600,
}
_FIG4 = {
    "trap": "harmonic", "omega": 1e-3, "n_states": 41, "total_momentum": 0.0,
    "u_from": -30.0, "u_to": 30.0, "points": 600, "resonances": True,
    # the published resonance set needs a converged channel basis; the
    # ladder grows it from the sweep's 41 states until positions settle
    "converge": True, "n_start": 41,
}
_FIG5 = {
    "trap": "harmonic", "omega": 1e-1, "n_states": 21, "total_momentum": 0.0,
    "u_from": -30.0, "u_to": 30.0, "points": 600, "resonances": True,
}

_FIGURES: dict[str, tuple[str, dict[str, object]]] = {
    "fig1": ("single", _FIG1),
    "fig2": ("continuum", _FIG2),
    "fig3": ("ring", _FIG3),
    "fig4": ("twobody", _FIG4),
    "fig5": ("twobody", _FIG5),
}


def figure_recipe(name: str) -> RunConfig:
    """The canned configuration reproducing one published data set."""
    if name not in _FIGURES:
        raise UnknownFigure(
            f"unknown figure {name!r}; choose from "
            f"{', '.join(sorted(_FIGURES))}")
    subcommand, overrides = _FIGURES[name]
    options = dict(DEFAULTS[subcommand])
    options.update(overrides)
    options["output"] = f"{name}.csv"
    return RunConfig(subcommand=subcommand, options=options)


def run_figure(config: RunConfig, out_dir: Path):
    name = config.options.get("name")
    if not name:
        raise ConfigError("figure needs a name (fig1..fig5)")
    recipe = figure_recipe(str(name))
    options = dict(recipe.options)
    options["threads"] = config.get("threads")
    options["output"] = str(out_dir / str(options["output"]))
    return run(RunConfig(subcommand=recipe.subcommand, options=options))


_RUNNERS = {
    "transverse": run_transverse,
    "single": run_single,
    "continuum": run_continuum,
    "ring": run_ring,
    "twobody": run_twobody,
    "spa-fit": run_spa_fit,
    "resonances": run_resonances,
    "oracle": run_oracle,
}


def run(config: RunConfig) -> list[Path]:
    """Execute a resolved run; returns all artifact paths written."""
    if config.subcommand == "figure":
        out_dir = Path(str(config.get("output_dir")))
        out_dir.mkdir(parents=True, exist_ok=True)
        return run_figure(config, out_dir)
    out = Path(str(config.get("output")))
    if out.parent != Path("."):
        out.parent.mkdir(parents=True, exist_ok=True)
    outputs, diagnostics = _RUNNERS[config.subcommand](config, out)
    manifest = out.with_suffix(out.suffix + ".manifest.json")
    write_manifest(manifest, config, outputs, diagnostics)
    return outputs + [manifest]


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        namespace = parser.parse_args(argv)
        cli_options = {k: v for k, v in vars(namespace).items()
                       if k != "subcommand"}
        config = resolve(namespace.subcommand, cli_options)
        artifacts = run(config)
    except Q1DError as exc:
        record = {"error": type(exc).__name__, "message": str(exc),
                  "exit_code": exc.exit_code}
        print(json.dumps(record), file=sys.stderr)
        return exc.exit_code
    for path in artifacts:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
