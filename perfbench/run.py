"""q1dscatter benchmark: one workload, one seed, in one fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the package from ``src/``
and writes its scratch files under ``.perfbench_work/``.  The workload's
CLI invocations run in-process through ``q1dscatter.cli.main(argv)``,
one pinned worker each, with every BLAS library held to one thread.

``--trace 0`` repeats passes over the invocation list while another
pass still fits in ``--seconds`` (at least one) and reports the
end-to-end metrics named in BENCHMARK.json.  ``--trace 1`` runs one
untraced pass, then one traced pass, and reports the per-layer metrics;
the two passes' CSVs must be byte-identical.  Either way every
invocation's output is checked (see workloads.py), and the last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import workloads
from tracing import COMPUTED, Tracer

ROOT = Path.cwd()
SRC = ROOT / "src"
SETUP_SPAWNS = 9
# one BLAS thread for every workload, set before numpy loads
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}


def fingerprint() -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {pkg.__name__: _blas(pkg) for pkg in (numpy, scipy)},
        "nproc": len(os.sched_getaffinity(0)),
        "blas_thread_setting": BLAS_THREADS,
    }


def _blas(pkg) -> dict:
    info = pkg.show_config(mode="dicts").get("Build Dependencies", {}).get(
        "blas", {})
    return {"vendor": info.get("name"), "version": info.get("version"),
            "threads": _openblas_threads(pkg)}


def _openblas_threads(pkg) -> int | None:
    """Thread count the package's bundled OpenBLAS will use, if any."""
    libs = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return func()
    return None


def measure_setup() -> list[float]:
    """Seconds from interpreter start until ``q1dscatter.cli`` is
    imported, one fresh interpreter per sample."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_SPAWNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import q1dscatter.cli"],
                       env=env, cwd=ROOT, check=True)
        samples.append(time.perf_counter() - start)
    return samples


def run_pass(cli, ops: list[workloads.Op], out: Path,
             tracer: Tracer | None = None) -> dict:
    """Run every invocation once, timing the whole pass."""
    out.mkdir(parents=True)
    records = []
    cpu0, wall0 = time.process_time(), time.perf_counter()
    for op in ops:
        argv = [arg.replace("{out}", str(out)) for arg in op.argv]
        if tracer is not None:
            tracer.invocation += 1
        err = io.StringIO()
        cpu, start = time.process_time(), time.perf_counter()
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = cli.main(argv)
        except Exception:  # an escaped exception fails this operation only
            code = -1
            err.write(traceback.format_exc())
        records.append({"op": op.name, "exit": code,
                        "wall_s": time.perf_counter() - start,
                        "cpu_s": time.process_time() - cpu,
                        "stderr": err.getvalue().strip()})
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return {"wall_s": wall, "cpu_s": cpu, "ops": records}


def check_pass(ops: list[workloads.Op], out: Path, result: dict) -> None:
    """Record each operation's failures; run with the tracer removed."""
    for op, rec in zip(ops, result["ops"]):
        if rec["exit"] != 0:
            failures = [f"exit {rec['exit']}: {rec['stderr']}"]
        else:
            try:
                failures = op.check(out)
            except Exception as exc:  # unreadable or malformed output
                failures = [f"check raised {exc!r}"]
        rec["failures"] = failures
        rec["known_defect"] = workloads.is_known_defect(op.name, failures)


def fastest(passes: list[dict], key: str) -> float:
    """Sum over invocations of each one's fastest pass, so that a burst
    of contention on the shared cores costs only the passes it hit."""
    per_op = zip(*(p["ops"] for p in passes))
    return sum(min(rec[key] for rec in recs) for recs in per_op)


def same_csvs(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.glob("*.csv"))
    return names == sorted(p.name for p in b.glob("*.csv")) and all(
        (a / n).read_bytes() == (b / n).read_bytes() for n in names)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = SRC / "q1dscatter"
    if not (package / "cli.py").is_file():
        print(f"error: no q1dscatter sources at {package}; run from the "
              f"repository root", file=sys.stderr)
        return 2
    os.environ.update(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    from q1dscatter import cli
    if Path(cli.__file__).resolve().parent != package.resolve():
        print(f"error: imported {cli.__file__}, not the checkout's package",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    ops = workloads.build(args.workload, args.seed)
    work = ROOT / ".perfbench_work" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    passes: list[dict] = []
    setup: list[float] = []
    faithful = True
    if args.trace:
        passes.append(run_pass(cli, ops, work / "pass0"))
        tracer = Tracer()
        tracer.install()
        try:
            passes.append(run_pass(cli, ops, work / "pass1", tracer))
        finally:
            tracer.uninstall()
        for i, result in enumerate(passes):
            check_pass(ops, work / f"pass{i}", result)
        faithful = same_csvs(work / "pass0", work / "pass1")
        values = tracer.metrics()
        values["trace.overhead_s"] = passes[1]["wall_s"] - passes[0]["wall_s"]
        (work / "spans.json").write_text(json.dumps(tracer.dump_spans()))
        wanted = spec["per_layer"]
    else:
        setup = measure_setup()
        start = time.perf_counter()
        while True:
            out = work / f"pass{len(passes)}"
            passes.append(run_pass(cli, ops, out))
            check_pass(ops, out, passes[-1])
            slowest = max(p["wall_s"] for p in passes)
            if time.perf_counter() - start + slowest > args.seconds:
                break
        values = {
            "wall_s": fastest(passes, "wall_s"),
            "cpu_s": fastest(passes, "cpu_s"),
            "setup_s": statistics.median(setup),
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        wanted = spec["end_to_end"]
    for i in range(len(passes)):
        shutil.rmtree(work / f"pass{i}")

    records = [rec for p in passes for rec in p["ops"]]
    failed = [rec for rec in records if rec["failures"]]
    correct = faithful and all(rec["known_defect"] for rec in failed)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    env = fingerprint()
    (work / "result.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "fingerprint": env,
        "setup_samples_s": setup, "passes": passes,
        "csvs_identical": faithful if args.trace else None,
        "metrics": metrics}, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  ops/pass {len(ops)}")
    print(f"fingerprint {json.dumps(env)}")
    for rec in failed:
        tag = "known defect" if rec["known_defect"] else "FAILED"
        print(f"{tag}: {rec['op']}: {'; '.join(rec['failures'])[:300]}")
    if not faithful:
        print("FAILED: traced CSVs differ from the untraced pass")
    print(f"failed_fraction {len(failed) / len(records):.4g} "
          f"({len(failed)} of {len(records)} operations)")
    for name, m in metrics.items():
        label = " (computed)" if name in COMPUTED else ""
        print(f"{name} {m['value']:.6g} {m['unit']}{label}")
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
