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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from . import __version__
from .errors import ConfigError, NoRootInBranch, Q1DError, TailTooLarge, \
    UnknownFigure
from .continuum import continuum_sum, u_cir_with_continuum
from .oracle import StripProblem, pair_scattering_length, \
    strip_scattering_length
from .ring import ring_branch_roots, ring_cir_crossings
from .single_particle import J, effective_u1d, u_cir
from .spa import spa_fit
from .traps import DeltaWell, Harmonic, Tabulated, TwoSite, solve_transverse
from .two_body import build_kernel, converged_resonances, locate_resonances, \
    solve_finite_k, solve_scattering_length

SUBCOMMANDS = ("transverse", "single", "continuum", "ring", "twobody",
               "spa-fit", "resonances", "oracle", "figure")

# Keys that steer execution but not the physics; they are excluded from
# the config hash so the CSV bytes do not depend on them.
_HASH_EXCLUDE = {"threads", "output", "output_dir", "config"}

_TRAP_KEYS = ("trap", "omega", "v0", "v", "values", "asymptote",
              "y_max", "n_states")

DEFAULTS: dict[str, dict[str, object]] = {
    "transverse": {
        "trap": None, "omega": None, "v0": None, "v": None, "values": None,
        "asymptote": None, "y_max": None, "n_states": None,
        "output": "transverse.csv", "threads": 0,
    },
    "single": {
        "trap": None, "omega": None, "v0": None, "v": None, "values": None,
        "asymptote": None, "y_max": None, "n_states": None,
        "u_from": None, "u_to": None, "points": None, "k": 0.0,
        "n_cut": None, "tail_tol": 1e-10,
        "output": "single.csv", "threads": 0,
    },
    "continuum": {
        "v0_from": None, "v0_to": None, "points": None, "k": 0.0,
        "quad_tol": 1e-10, "method": "adaptive",
        "output": "continuum.csv", "threads": 0,
    },
    "ring": {
        "trap": None, "omega": None, "v0": None, "v": None, "values": None,
        "asymptote": None, "y_max": None, "n_states": None,
        "length": None, "branches": 1, "crossings": False,
        "u_from": None, "u_to": None, "points": None,
        "output": "ring.csv", "threads": 0,
    },
    "twobody": {
        "trap": None, "omega": None, "v0": None, "v": None, "values": None,
        "asymptote": None, "y_max": None, "n_states": None,
        "total_momentum": 0.0, "k": 0.0,
        "u_from": None, "u_to": None, "points": None,
        "resonances": False, "converge": False, "n_start": None,
        "n_cut": None,
        "output": "twobody.csv", "threads": 0,
    },
    "spa-fit": {
        "trap": None, "omega": None, "v0": None, "v": None, "values": None,
        "asymptote": None, "y_max": None, "n_states": None,
        "total_momentum": 0.0,
        "u_from": None, "u_to": None, "points": None,
        "output": "spa_fit.csv", "threads": 0,
    },
    "resonances": {
        "trap": None, "omega": None, "v0": None, "v": None, "values": None,
        "asymptote": None, "y_max": None, "n_states": None,
        "total_momentum": 0.0,
        "u_from": -30.0, "u_to": 0.0,
        "converge": False, "n_start": None,
        "output": "resonances.csv", "threads": 0,
    },
    "oracle": {
        "trap": None, "omega": None, "v0": None, "v": None, "values": None,
        "asymptote": None, "y_max": None, "n_states": None,
        "validate": False, "mode": "single", "u": None, "lx": 400,
        "total_momentum": 0.0,
        "output": "oracle.csv", "threads": 0,
    },
    "figure": {
        "name": None, "output_dir": ".", "threads": 0,
    },
}


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


def _add_trap_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trap", choices=["harmonic", "delta-well", "two-site",
                                      "tabulated"])
    p.add_argument("--omega", type=float, help="harmonic curvature")
    p.add_argument("--v0", type=float, help="off-center well height")
    p.add_argument("--v", type=float, help="two-site offset")
    p.add_argument("--values", type=str,
                   help="tabulated potential as y:V,y:V,...")
    p.add_argument("--asymptote", type=float,
                   help="tabulated potential value outside the table")
    p.add_argument("--y-max", type=int, help="transverse half-width")
    p.add_argument("--n-states", type=int, help="transverse states kept")


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=str, help="flat key=value config file "
                   "or a manifest JSON from a previous run")
    p.add_argument("--output", type=str, help="CSV output path")
    p.add_argument("--threads", type=int,
                   help="parallel workers for sweep points (default 1; "
                   "0 means all cores); ordering is deterministic")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="q1dscatter",
                     description="Quasi-1D lattice scattering toolkit")
    parser.add_argument("--version", action="version",
                        version=f"q1dscatter {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    def sub(name: str, **kw) -> argparse.ArgumentParser:
        p = subs.add_parser(name, argument_default=argparse.SUPPRESS, **kw)
        _add_common_flags(p)
        return p

    p = sub("transverse", help="transverse trap spectrum")
    _add_trap_flags(p)

    p = sub("single", help="single-particle effective 1D coupling sweep")
    _add_trap_flags(p)
    p.add_argument("--u-from", type=float)
    p.add_argument("--u-to", type=float)
    p.add_argument("--points", type=int)
    p.add_argument("--k", type=float, help="longitudinal momentum")
    p.add_argument("--n-cut", type=int, help="closed-channel cutoff")
    p.add_argument("--tail-tol", type=float)

    p = sub("continuum", help="zero-range well with transverse continuum")
    p.add_argument("--v0-from", type=float)
    p.add_argument("--v0-to", type=float)
    p.add_argument("--points", type=int)
    p.add_argument("--k", type=float)
    p.add_argument("--quad-tol", type=float)
    p.add_argument("--method", choices=["adaptive", "grid"])

    p = sub("ring", help="finite-ring allowed momenta")
    _add_trap_flags(p)
    p.add_argument("--length", type=int, action="append",
                   help="ring length (repeatable)")
    p.add_argument("--branches", type=int)
    p.add_argument("--crossings", action="store_true",
                   help="also list fermionized-level crossings")
    p.add_argument("--u-from", type=float)
    p.add_argument("--u-to", type=float)
    p.add_argument("--points", type=int)

    p = sub("twobody", help="two-particle effective coupling sweep")
    _add_trap_flags(p)
    p.add_argument("--total-momentum", type=float, help="pair momentum K")
    p.add_argument("--k", type=float, help="relative momentum")
    p.add_argument("--u-from", type=float)
    p.add_argument("--u-to", type=float)
    p.add_argument("--points", type=int)
    p.add_argument("--resonances", action="store_true",
                   help="emit the resonance report")
    p.add_argument("--converge", action="store_true",
                   help="enlarge the channel basis until the report is "
                   "cutoff-stable")
    p.add_argument("--n-start", type=int)
    p.add_argument("--n-cut", type=int)

    p = sub("spa-fit", help="single-pole fit of a strong-coupling window")
    _add_trap_flags(p)
    p.add_argument("--total-momentum", type=float)
    p.add_argument("--u-from", type=float)
    p.add_argument("--u-to", type=float)
    p.add_argument("--points", type=int)

    p = sub("resonances", help="two-body resonance report")
    _add_trap_flags(p)
    p.add_argument("--total-momentum", type=float)
    p.add_argument("--u-from", type=float)
    p.add_argument("--u-to", type=float)
    p.add_argument("--converge", action="store_true")
    p.add_argument("--n-start", type=int)

    p = sub("oracle", help="exact-diagonalization validation harness")
    _add_trap_flags(p)
    validate = p.add_argument_group("validation (required)")
    validate.add_argument("--validate", action="store_true",
                          help="acknowledge this is the slow brute-force "
                          "validator")
    p.add_argument("--mode", choices=["single", "pair"])
    p.add_argument("--u", type=float)
    p.add_argument("--lx", type=int)
    p.add_argument("--total-momentum", type=float)

    p = sub("figure", help="run a canned figure recipe")
    p.add_argument("name", nargs="?")
    p.add_argument("--output-dir", type=str)

    return parser


# --------------------------------------------------------------------
# configuration resolution


def _coerce(key: str, raw: str, template: object):
    """Parse a config-file string against the type of the default."""
    text = raw.strip()
    if isinstance(template, bool):
        if text.lower() in ("true", "1", "yes", "on"):
            return True
        if text.lower() in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"config key {key}: expected a boolean, "
                          f"got {raw!r}")
    try:
        if key == "length":  # repeatable flag: comma-separated in files
            return [int(part) for part in text.split(",")]
        if isinstance(template, int) and not isinstance(template, bool):
            return int(text)
        if isinstance(template, float):
            return float(text)
    except ValueError as exc:
        raise ConfigError(f"config key {key}: {exc}") from None
    if template is None:
        # untyped default: best-effort numeric, else string
        for cast in (int, float):
            try:
                return cast(text)
            except ValueError:
                pass
        if text.lower() in ("true", "false"):
            return text.lower() == "true"
    return text


def load_config_file(path: str, subcommand: str) -> dict[str, object]:
    """Read a flat ``key = value`` file or a previous run's manifest."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    text = p.read_text()
    defaults = DEFAULTS[subcommand]
    if p.suffix == ".json" or text.lstrip().startswith("{"):
        payload = json.loads(text)
        stored = payload.get("config", payload)
        if "subcommand" in payload and payload["subcommand"] != subcommand:
            raise ConfigError(
                f"manifest is for subcommand {payload['subcommand']!r}, "
                f"not {subcommand!r}")
        out = {}
        for key, value in stored.items():
            if key == "subcommand":
                continue
            if key not in defaults:
                raise ConfigError(f"unknown config key {key!r} for "
                                  f"{subcommand}")
            out[key] = value
        return out

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
        if key not in defaults:
            raise ConfigError(f"unknown config key {key!r} for {subcommand}")
        out[key] = _coerce(key, value, defaults[key])
    return out


def resolve(subcommand: str, cli_options: dict[str, object]) -> RunConfig:
    """Merge defaults, config file, and CLI flags into a RunConfig."""
    if subcommand not in DEFAULTS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    options = dict(DEFAULTS[subcommand])
    config_path = cli_options.pop("config", None)
    if config_path is not None:
        options.update(load_config_file(str(config_path), subcommand))
    for key, value in cli_options.items():
        if key not in options:
            raise ConfigError(f"unknown option {key!r} for {subcommand}")
        options[key] = value
    threads = options.get("threads") or 0
    if threads == 0:
        options["threads"] = os.cpu_count() or 1
    elif not isinstance(threads, int) or threads < 0:
        raise ConfigError(f"threads must be a non-negative integer, "
                          f"got {threads!r}")
    return RunConfig(subcommand=subcommand, options=options)


def build_trap(config: RunConfig):
    """Construct the trap named by the config, validating parameters."""
    opts = config.options
    name = opts.get("trap")
    if name is None:
        raise ConfigError("no trap selected (--trap)")
    given = {k for k in ("omega", "v0", "v", "values", "asymptote")
             if opts.get(k) is not None}
    need = {"harmonic": {"omega"}, "delta-well": {"v0"},
            "two-site": {"v"}, "tabulated": {"values"}}[name]
    allowed = need | ({"asymptote"} if name == "tabulated" else set())
    if not need <= given:
        raise ConfigError(f"trap {name} needs --{'/--'.join(sorted(need))}")
    extra = given - allowed
    if extra:
        raise ConfigError(f"trap {name} does not take "
                          f"--{'/--'.join(sorted(extra))}")
    if name == "harmonic":
        if opts.get("y_max") is not None:
            return Harmonic(omega=float(opts["omega"]),
                            y_max=int(opts["y_max"]))
        return Harmonic(omega=float(opts["omega"]))
    if name == "delta-well":
        if opts.get("y_max") is not None:
            return DeltaWell(v0=float(opts["v0"]), y_max=int(opts["y_max"]))
        return DeltaWell(v0=float(opts["v0"]))
    if name == "two-site":
        return TwoSite(v=float(opts["v"]))
    table = {}
    for pair in str(opts["values"]).split(","):
        site, _, value = pair.partition(":")
        try:
            table[int(site)] = float(value)
        except ValueError:
            raise ConfigError(
                f"bad tabulated entry {pair!r}; expected y:V") from None
    asymptote = opts.get("asymptote")
    return Tabulated.from_mapping(
        table, None if asymptote is None else float(asymptote))


def _solve_spectrum(config: RunConfig):
    trap = build_trap(config)
    n_states = config.options.get("n_states")
    return solve_transverse(trap, n_states=None if n_states is None
                            else int(n_states))


def _sweep_grid(config: RunConfig, prefix: str = "u") -> list[float]:
    lo = config.options.get(f"{prefix}_from")
    hi = config.options.get(f"{prefix}_to")
    points = config.options.get("points")
    if lo is None or hi is None or points is None:
        raise ConfigError(f"sweep needs --{prefix}-from, --{prefix}-to "
                          f"and --points")
    points = int(points)
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
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True,
                               default=repr) + "\n")


def _map_points(func, payload, items: list, threads: int) -> list:
    """Apply ``func(payload, item)`` over items, preserving order."""
    workers = min(threads, len(items))
    if workers <= 1:
        return [func(payload, item) for item in items]
    chunk = max(1, len(items) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(partial(func, payload), items,
                             chunksize=chunk))


# --------------------------------------------------------------------
# sweep point workers (module level so process pools can pickle them)


def _single_point(payload, u: float):
    spectrum, k, n_cut, tail_tol = payload
    r = effective_u1d(spectrum, u, k=k, n_cut=n_cut, tail_tol=tail_tol)
    return (u, r.u1d, r.a, r.delta_k, math.atan(r.u1d / J))


def _continuum_point(payload, v0: float):
    k, quad_tol, method = payload
    spec = DeltaWell(v0=v0)
    s = continuum_sum(spec, k=k, quad_tol=quad_tol, method=method)
    cir = u_cir_with_continuum(spec, k=k, quad_tol=quad_tol, method=method)
    return (v0, s.value, cir.inverse, cir.u_cir)


def _ring_point(payload, u: float):
    spectrum, lengths, branches = payload
    rows, skipped = [], 0
    for length in lengths:
        for branch in range(branches):
            try:
                solutions = ring_branch_roots(spectrum, u, length, branch)
            except NoRootInBranch:
                skipped += 1  # empty branch at this coupling: not an error
                continue
            for sol in solutions:
                rows.append((length, u, branch, sol.k, sol.energy,
                             sol.residual))
    return rows, skipped


def _twobody_point(payload, u: float):
    kernel, k = payload
    if k == 0.0:
        r = solve_scattering_length(kernel, u)
    else:
        r = solve_finite_k(kernel, u, k)
    return (u, r.u1d, r.a, r.i00, r.delta_k, math.atan(r.u1d / J))


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


_MAX_AUTO_STATES = 1280


def run_single(config: RunConfig, out: Path):
    spectrum = _solve_spectrum(config)
    k = float(config.get("k"))
    n_cut = config.options.get("n_cut")
    n_cut = None if n_cut is None else int(n_cut)
    tail_tol = float(config.get("tail_tol"))
    pinned = config.options.get("n_states") is not None
    while True:
        try:
            cir = u_cir(spectrum, k=k, n_cut=n_cut, tail_tol=tail_tol)
            break
        except TailTooLarge:
            # With no explicit state count, grow the basis until the
            # channel-sum tail passes the tolerance.
            if pinned or spectrum.n_states >= _MAX_AUTO_STATES:
                raise
            spectrum = solve_transverse(
                build_trap(config),
                n_states=min(2 * spectrum.n_states, _MAX_AUTO_STATES))
    grid = _sweep_grid(config, "u")
    rows = _map_points(_single_point, (spectrum, k, n_cut, tail_tol),
                       grid, int(config.get("threads")))
    write_csv(out, config, ["u", "u1d", "a", "delta_k", "atan_u1d"], rows,
              {"u-cir": cir.u_cir, "n-used": cir.n_used,
               "tail-bound": cir.tail_bound, "k": k,
               "n-states": spectrum.n_states})
    return [out], {"u_cir": cir.u_cir, "n_used": cir.n_used,
                   "tail_bound": cir.tail_bound,
                   "n_states": spectrum.n_states}


def run_continuum(config: RunConfig, out: Path):
    grid = _sweep_grid(config, "v0")
    payload = (float(config.get("k")), float(config.get("quad_tol")),
               str(config.get("method")))
    rows = _map_points(_continuum_point, payload, grid,
                       int(config.get("threads")))
    write_csv(out, config, ["v0", "s_k", "inverse_u_cir", "u_cir"], rows,
              {"k": payload[0], "method": payload[2]})
    return [out], {"points": len(rows)}


def run_ring(config: RunConfig, out: Path):
    spectrum = _solve_spectrum(config)
    lengths = config.options.get("length")
    if not lengths:
        raise ConfigError("ring needs at least one --length")
    lengths = [int(x) for x in lengths]
    branches = int(config.get("branches"))
    if branches < 1:
        raise ConfigError("--branches must be >= 1")
    grid = _sweep_grid(config, "u")
    results = _map_points(_ring_point, (spectrum, lengths, branches), grid,
                          int(config.get("threads")))
    rows = [row for point_rows, _ in results for row in point_rows]
    skipped = sum(s for _, s in results)
    write_csv(out, config,
              ["length", "u", "branch", "k", "energy", "residual"], rows,
              {"empty-branch-points": skipped})
    outputs = [out]
    diagnostics: dict[str, object] = {"rows": len(rows),
                                      "empty_branch_points": skipped}
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
    lo = config.options.get("u_from")
    hi = config.options.get("u_to")
    lo = -30.0 if lo is None else float(lo)
    hi = 0.0 if hi is None else float(hi)
    if clamp:
        hi = min(hi, 0.0)  # resonances live on the attractive side
    return (lo, hi)


def _resonance_report(config: RunConfig, window: tuple[float, float]):
    momentum = float(config.get("total_momentum"))
    if config.get("converge"):
        n_start = config.options.get("n_start")
        if n_start is None:
            raise ConfigError("--converge needs --n-start")
        trap = build_trap(config)
        return converged_resonances(trap, int(n_start),
                                    total_momentum=momentum,
                                    u_window=window)
    spectrum = _solve_spectrum(config)
    kernel = build_kernel(spectrum, total_momentum=momentum)
    return locate_resonances(kernel, window)


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


def run_twobody(config: RunConfig, out: Path):
    want_report = bool(config.get("resonances")) or bool(
        config.get("converge"))
    has_sweep = config.options.get("points") is not None
    if not (want_report or has_sweep):
        raise ConfigError("twobody needs a sweep grid (--u-from/--u-to/"
                          "--points) or --resonances")
    outputs: list[Path] = []
    diagnostics: dict[str, object] = {}
    if has_sweep:
        spectrum = _solve_spectrum(config)
        kernel = build_kernel(
            spectrum, total_momentum=float(config.get("total_momentum")),
            n_cut=None if config.options.get("n_cut") is None
            else int(config.options["n_cut"]))
        grid = _sweep_grid(config, "u")
        rows = _map_points(_twobody_point, (kernel, float(config.get("k"))),
                           grid, int(config.get("threads")))
        write_csv(out, config,
                  ["u", "u1d", "a", "i00", "delta_k", "atan_u1d"], rows,
                  {"total-momentum": kernel.total_momentum,
                   "j-k": kernel.j_k, "n-channels": kernel.n_channels,
                   "r-entrance": kernel.r_entrance})
        outputs.append(out)
        diagnostics.update({"n_channels": kernel.n_channels,
                            "r_entrance": kernel.r_entrance,
                            **_kernel_diagnostics(kernel)})
    if want_report:
        report = _resonance_report(config, _resonance_window(config,
                                                             clamp=True))
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
            **_kernel_diagnostics(report, prefix="report_")})
    return outputs, diagnostics


def run_spa_fit(config: RunConfig, out: Path):
    from .two_body import u1d_curve
    spectrum = _solve_spectrum(config)
    kernel = build_kernel(spectrum,
                          total_momentum=float(config.get("total_momentum")))
    grid = _sweep_grid(config, "u")
    values = u1d_curve(kernel, grid)
    known = [r.u for r in
             locate_resonances(kernel, (-1e6, 0.0)).resonances]
    fit = spa_fit(list(zip(grid, values)), kernel.r_entrance,
                  known_resonances=known)
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
                   **_kernel_diagnostics(report)}


def run_oracle(config: RunConfig, out: Path):
    if not config.get("validate"):
        raise ConfigError("the oracle is a slow validation harness; "
                          "pass --validate to run it")
    if config.options.get("u") is None:
        raise ConfigError("oracle needs --u")
    problem = StripProblem(
        trap=build_trap(config), u=float(config.get("u")),
        lx=int(config.get("lx")),
        y_max=None if config.options.get("y_max") is None
        else int(config.options["y_max"]))
    mode = str(config.get("mode"))
    if mode == "single":
        res = strip_scattering_length(problem)
    else:
        res = pair_scattering_length(
            problem, total_momentum=float(config.get("total_momentum")))
    row = (mode, problem.u, problem.lx, res.a, res.diverged, res.a_coarse,
           res.a_fine, res.k_coarse, res.k_fine, res.entrance_weight,
           res.fit_residual, res.contamination)
    write_csv(out, config,
              ["mode", "u", "lx", "a", "diverged", "a_coarse", "a_fine",
               "k_coarse", "k_fine", "entrance_weight", "fit_residual",
               "contamination"], [row], {})
    return [out], {"a": res.a, "diverged": res.diverged}


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
