"""Run the benchmark's workloads and print every metric by name.

    python3 perfbench/report.py [--runs N] [--seed S]

Run it from the repository root.  For each workload in BENCHMARK.json
it starts N fresh ``perfbench/run.py`` processes on seeds S, S+1, ...
with tracing off, then one traced run on seed S.  Each end-to-end
metric is printed with its unit, run count, median, and the spread
between its quartiles as a share of the median, next to the bound
BENCHMARK.json fixes.  ``failed_fraction`` is failed over
attempted operations, summed over the runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from tracing import COMPUTED, LAYERS

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n"
                 f"{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def report(workload: str, seeds: list[int]) -> None:
    results = [run(workload, seed, 0) for seed in seeds]
    print(f"== {workload}: {len(results)} untraced runs, seeds "
          f"{seeds[0]}..{seeds[-1]}")
    for metric in SPEC["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        print(f"{metric['name']:<12} median {statistics.median(values):.6g} "
              f"{metric['unit']:<3} spread {spread(values):.4f} "
              f"(bound {metric['bound']})  runs {len(values)}")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = sum(r["correct"] for r in results)
    print(f"{'failed_fraction':<12} {failed / attempted:.4g} ({failed} of "
          f"{attempted} operations); correct in {correct} of "
          f"{len(results)} runs")
    traced = run(workload, seeds[0], 1)
    print(f"-- traced run, seed {seeds[0]} (correct: {traced['correct']})")
    for name, m in traced["metrics"].items():
        label = " (computed)" if name in COMPUTED else ""
        print(f"{name:<42} {m['value']:.6g} {m['unit']}{label}")
    layers = sorted(LAYERS, key=lambda layer:
                    -traced["metrics"][f"{layer}.self_s"]["value"])
    print("layers by self time: " + ", ".join(
        f"{layer} {traced['metrics'][f'{layer}.self_s']['value']:.3g} s"
        for layer in layers))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    seeds = list(range(args.seed, args.seed + args.runs))
    for workload in SPEC["workloads"]:
        report(workload["name"], seeds)


if __name__ == "__main__":
    main()
