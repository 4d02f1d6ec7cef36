"""Pin digests, check the benchmark's spread, and record its baseline.

Run from the root of a checkout::

    python3 perfbench/record.py --runs 1       # every workload once
    python3 perfbench/record.py --runs 10      # spread report only
    python3 perfbench/record.py --runs 10 --write   # ...and baseline.json
    python3 perfbench/record.py --pin          # rewrite digests.json

``--pin`` simulates every pinned workload seed once with the current code
and writes what each operation must reproduce to ``digests.json``; do it
only when a change is meant to alter simulated results.

Without ``--pin`` it runs ``run.py`` ``--runs`` times per workload, each
with another ``--seed`` (1, 2, ...), plus one traced run per workload;
it prints every run's end-to-end metrics with units and operation
counts, then each metric's median, quartiles and quartile spread
(q3 - q1 as a share of the median) next to the metric's bound.  A run
that is not correct stops it.  Nothing tracked
is written unless ``--write`` is given, which records the result in
``baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import suite
from run import quartiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def pin() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    digests = {}
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as scratch:
        for name in suite.WORKLOADS:
            seeds = [None]
            if name.startswith("fig1-"):
                workload = name.split("-")[1]
                seeds = list(suite.Fig1.POOL[workload]) + [
                    suite.Fig1.HELD_OUT]
            for seed in seeds:
                bench = suite.make(name, seed or 0, None)
                state = bench.setup(scratch)
                try:
                    outcome = bench.execute(state)
                finally:
                    bench.close(state)
                if seed is None:
                    digests[name] = outcome.observed
                else:
                    digests.setdefault(name, {})[str(seed)] = outcome.observed
                print(f"{name} seed {seed}: {outcome.sim_cycles} cycles, "
                      f"{outcome.wall_s:.2f} s", flush=True)
    suite.DIGESTS.write_text(json.dumps(digests, indent=1,
                                        sort_keys=True) + "\n")


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited "
                         f"{done.returncode}: {done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed} incorrect:\n{done.stdout}")
    return result


def summarise(runs: int, workloads, write: bool) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    baseline = {"run_seconds": seconds, "runs": runs, "workloads": {}}
    for workload in workloads:
        values = {name: [] for name in bounds}
        attempted = 0
        for seed in range(1, runs + 1):
            result = run(workload, seed, seconds, 0)
            attempted += result["attempted"]
            metrics = result["metrics"]
            for name in bounds:
                values[name].append(metrics[name]["value"])
            print(f"{workload} --seed {seed}: {result['attempted']} "
                  f"attempted, {result['failed']} failed; " + ", ".join(
                      f"{name} {metrics[name]['value']:.6g} "
                      f"{metrics[name]['unit']}" for name in bounds),
                  flush=True)
        entry = {"attempted": attempted, "failed": 0, "end_to_end": {}}
        for name, series in values.items():
            q1, median, q3 = quartiles(series)
            spread = (q3 - q1) / median
            entry["end_to_end"][name] = {
                "median": median, "q1": q1, "q3": q3,
                "spread": spread, "bound": bounds[name], "values": series}
            print(f"  {name:<18} median {median:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:6.1%} "
                  f"(bound {bounds[name]:.0%})", flush=True)
        traced = run(workload, 1, seconds, 1)
        entry["per_layer"] = {name: metric["value"]
                              for name, metric in traced["metrics"].items()}
        baseline["workloads"][workload] = entry
    if write:
        (HERE / "baseline.json").write_text(
            json.dumps(baseline, indent=1) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pin", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        choices=suite.WORKLOADS)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    if args.pin:
        pin()
    else:
        summarise(args.runs, args.workload or suite.WORKLOADS, args.write)


if __name__ == "__main__":
    main()
