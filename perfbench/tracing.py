"""Span tracer for the traced benchmark pass.

The tracer wraps, from outside the program, the public functions of
each q1dscatter module and the numpy/scipy solver entry points those
modules call, by replacing every reference a q1dscatter module holds
to the original function object ("wrapped where the package looks it
up").  numpy.linalg.eigh and numpy.linalg.solve are looked up through
the numpy.linalg module, so they are replaced there and traced only
when called from q1dscatter code.

A span records name, start, end, parent span and invocation id; spans
stay in memory until the run writes them out.  Self time is a span's
duration minus that of its direct children.  Hot helpers get
count-only wrappers without a span, so their time stays in the caller
(for brentq and quad that includes the Python callbacks they evaluate).
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("traps", "single_particle", "continuum", "ring", "two_body",
          "spa", "oracle", "linalg", "cli")

# metrics derived from array and file sizes rather than timed
COMPUTED = {"two_body.r_matrix_mb.max", "linalg.eigh.max_n",
            "oracle.unknowns.max", "oracle.nnz.max", "cli.write_csv.bytes"}


def _n_used(tracer, result, args):
    tracer.values["single_particle.channels_used"].append(result.n_used)


def _roots(tracer, result, args):
    tracer.values["ring.roots_found"].append(len(result))


def _kernel(tracer, result, args):
    tracer.values["two_body.channels"].append(result.n_channels)
    if tracer.inside("two_body.converged_resonances"):
        tracer.values["two_body.ladder_rungs"].append(1)


def _sparse(tracer, result, args):
    h = result[0]
    tracer.values["oracle.unknowns"].append(h.shape[0])
    tracer.values["oracle.nnz"].append(h.nnz)


def _eigh(tracer, result, args):
    tracer.values["linalg.eigh.n"].append(args[0].shape[0])


def _csv_bytes(tracer, result, args):
    tracer.values["cli.write_csv.bytes"].append(Path(args[0]).stat().st_size)


# (q1dscatter module, function, hook on the result)
SPANNED = (
    ("traps", "solve_transverse", None),
    ("single_particle", "effective_u1d", None),
    ("single_particle", "u_cir", _n_used),
    ("continuum", "u_cir_with_continuum", None),
    ("continuum", "continuum_sum", None),
    ("ring", "ring_branch_roots", _roots),
    ("ring", "ring_cir_crossings", None),
    ("two_body", "build_kernel", _kernel),
    ("two_body", "converged_resonances", None),
    ("two_body", "locate_resonances", None),
    ("two_body", "u1d_curve", None),
    ("two_body", "solve_scattering_length", None),
    ("two_body", "solve_finite_k", None),
    ("spa", "spa_fit", None),
    ("oracle", "strip_hamiltonian", _sparse),
    ("oracle", "pair_hamiltonian", _sparse),
    ("oracle", "strip_scattering_length", None),
    ("oracle", "pair_scattering_length", None),
    ("cli", "main", None),
    ("cli", "write_csv", _csv_bytes),
    ("cli", "write_manifest", None),
)
COUNTED = (("traps", "alpha_closed"), ("ring", "ring_channel_sum"),
           ("continuum", "scattering_state"))
# third-party entry points, found where a q1dscatter module imported them
SOLVERS = (("traps", "eigh_tridiagonal"), ("oracle", "splu"),
           ("oracle", "eigsh"), ("ring", "brentq"), ("continuum", "quad"))
NUMPY_LINALG = (("eigh", _eigh), ("solve", None))


class Tracer:
    """Collects spans and counts while installed; restores on uninstall."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, invocation]
        self.errors: Counter = Counter()  # (span name, exception class)
        self.counts: Counter = Counter()
        self.values: defaultdict[str, list] = defaultdict(list)
        self.invocation = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def _spanned(self, name, func, hook, package_only=False):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if package_only and not sys._getframe(1).f_globals.get(
                    "__name__", "").startswith("q1dscatter"):
                return func(*args, **kwargs)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1,
                      self.invocation]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = func(*args, **kwargs)
            except Exception as exc:
                self.errors[name, type(exc).__name__] += 1
                raise
            finally:
                record[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, result, args)
            return result
        return wrapper

    def _counted(self, name, func):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)
        return wrapper

    def _patch(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        targets = ([(m, a, f"{m}.{a}", h, True) for m, a, h in SPANNED]
                   + [(m, a, f"{m}.{a}", None, False) for m, a in COUNTED]
                   + [(m, a, f"linalg.{a}", None, True) for m, a in SOLVERS])
        wrappers = {}  # id(original) -> (original, wrapper)
        for mod, attr, name, hook, timed in targets:
            func = getattr(importlib.import_module(f"q1dscatter.{mod}"), attr)
            wrappers[id(func)] = (func, self._spanned(name, func, hook)
                                  if timed else self._counted(name, func))
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "q1dscatter":
                continue
            for attr, value in list(vars(module).items()):
                original, wrapper = wrappers.get(id(value), (None, None))
                if original is value:
                    self._patch(module, attr, wrapper)
        linalg = importlib.import_module("numpy.linalg")
        for attr, hook in NUMPY_LINALG:
            self._patch(linalg, attr, self._spanned(
                f"linalg.{attr}", getattr(linalg, attr), hook,
                package_only=True))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _self_times(self) -> tuple[Counter, defaultdict[str, float]]:
        """Calls and summed self time per span name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: defaultdict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
        return calls, self_s

    def metrics(self) -> dict[str, float]:
        """Every per-layer value this tracer can give, by metric name."""
        calls, self_s = self._self_times()
        out: dict[str, float] = {}
        for name in ([f"{m}.{a}" for m, a, _ in SPANNED]
                     + [f"linalg.{a}" for _, a in SOLVERS]
                     + [f"linalg.{a}" for a, _ in NUMPY_LINALG]):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for mod, attr in COUNTED:
            out[f"{mod}.{attr}.calls"] = self.counts[f"{mod}.{attr}"]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                t for name, t in self_s.items()
                if name.split(".", 1)[0] == layer)
        v = self.values
        used = v["single_particle.channels_used"]
        channels = max(v["two_body.channels"], default=0)
        roots = sum(v["ring.roots_found"])
        sums = self.counts["ring.ring_channel_sum"]
        out.update({
            "single_particle.channels_used.mean":
                sum(used) / len(used) if used else 0.0,
            "ring.roots_found": roots,
            "ring.empty_branches":
                self.errors["ring.ring_branch_roots", "NoRootInBranch"],
            "ring.roots_per_channel_sum": roots / sums if sums else 0.0,
            "two_body.channels.max": channels,
            "two_body.r_matrix_mb.max": 8.0 * channels ** 2 / 1e6,
            "two_body.ladder_rungs": len(v["two_body.ladder_rungs"]),
            "oracle.unknowns.max": max(v["oracle.unknowns"], default=0),
            "oracle.nnz.max": max(v["oracle.nnz"], default=0),
            "linalg.eigh.max_n": max(v["linalg.eigh.n"], default=0),
            "cli.write_csv.bytes": sum(v["cli.write_csv.bytes"]),
        })
        return out

    def dump_spans(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p,
                 "invocation": i} for n, s, e, p, i in self.spans]
