"""Repository benchmark: four paper-shaped workloads through the public API.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig1-bfs --seed 1 --seconds 20 --trace 0

``--trace 0`` repeats the workload's pass until ``--seconds`` have passed
(the last pass runs to completion), times ``import repro`` plus set-up in
fresh processes, and reports the end-to-end metrics named in
``BENCHMARK.json``: medians over the passes at the reference host speed
(``hostclock.py``), with quartiles in the table.  ``--trace 1`` runs the
pass once untraced and once with the layer wrappers of ``tracing.py``
installed, and reports the per-layer metrics; ``--seconds`` does not
apply to it.  Either way every pass's simulated output must match the
digests pinned in ``digests.json``.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Writes only under ``perfbench/out/``: scratch stores, which are removed,
and the traced run's span file.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from hostclock import HostClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Fresh-process set-up samples per run; ``setup_s`` is their median.
SETUP_PROBES = 5

FIT_CAVEAT = ("table1_max_err_pct is a calibration fit residual, not "
              "held-out validation: the Table I targets are the data "
              "core/calibrate.py fits the configurations to.")
NO_REFERENCE = ("The repo holds no reference numbers for this workload, so "
                "the model is unvalidated here and no error figure is given.")


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def quartiles(values: List[float]):
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def probe_setup(workload: str, seed: int, scratch: str) -> List[float]:
    """Set-up seconds in a fresh interpreter: [host, reference speed]."""
    done = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), "--workload", workload,
         "--seed", str(seed), "--scratch", scratch],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return [float(v) for v in done.stdout.strip().splitlines()[-1].split()]


def execute(bench, state, jobs=None):
    """One timed pass; an exception counts every operation as failed."""
    import suite

    try:
        if jobs is None:
            return bench.execute(state)
        return bench.execute(state, jobs=jobs)
    except Exception as exc:  # a failing operation must not stop the run
        return suite.Outcome(wall_s=float("nan"), sim_cycles=0,
                             attempted=bench.ops, failed=bench.ops,
                             observed={}, errors=[f"{type(exc).__name__}: "
                                                f"{exc}"])


def run_once(bench, scratch, jobs=None, clock=None):
    """Set up and execute one pass; with ``clock``, sample host speed."""
    state = bench.setup(scratch)
    try:
        if clock is None:
            return execute(bench, state, jobs)
        with clock.sampling() as window:
            outcome = execute(bench, state, jobs)
        outcome.reference_wall_s = window.reference_s(outcome.wall_s)
        outcome.host_scale = window.scale()
        return outcome
    finally:
        bench.close(state)


def measure(bench, args, scratch, units) -> Dict[str, Any]:
    """The untraced run: end-to-end metrics."""
    clock = HostClock()
    outcomes = []
    start = time.perf_counter()
    # At least one pass per input of the seed's walk, so every run covers
    # the same inputs; then passes until ``--seconds`` have elapsed.
    while (len(outcomes) < max(1, len(bench.seeds))
           or time.perf_counter() - start < args.seconds):
        outcomes.append(run_once(bench, scratch, clock=clock))
        # Free the pass's cyclic simulator state now, so the next pass
        # does not start on top of it and peak memory is one pass's.
        gc.collect()
    elapsed = time.perf_counter() - start
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    setups = [probe_setup(args.workload, args.seed, scratch)
              for _ in range(SETUP_PROBES)]
    timed = [o for o in outcomes if not o.failed] or outcomes
    samples = {
        "wall_s": [o.reference_wall_s for o in timed],
        "setup_s": [reference for _host, reference in setups],
        "sim_cycles_per_s": [o.sim_cycles / o.reference_wall_s
                             for o in timed],
    }
    host = {
        "wall_s": [o.wall_s for o in timed],
        "setup_s": [host for host, _reference in setups],
        "sim_cycles_per_s": [o.sim_cycles / o.wall_s for o in timed],
    }
    seeds = [bench.seeds[i % len(bench.seeds)]
             for i in range(len(outcomes))] if bench.seeds else []
    print(f"{bench.name}: {len(outcomes)} pass(es) in {elapsed:.1f} s, "
          f"--seed {args.seed}" + (f", workload seeds {seeds}" if seeds
                                   else ""))
    print("Times are at the reference host speed (hostclock.py); the last "
          "column is as measured on this host.")
    print(f"{'metric':<18} {'unit':<8} {'median':>11} {'q1':>11} "
          f"{'q3':>11} {'n':>3} {'host median':>12}")
    metrics = {}
    for name, values in samples.items():
        q1, median, q3 = quartiles(values)
        metrics[name] = median
        print(f"{name:<18} {units[name]:<8} {median:>11.6g} {q1:>11.6g} "
              f"{q3:>11.6g} {len(values):>3} "
              f"{quartiles(host[name])[1]:>12.6g}")
    metrics["peak_rss_mb"] = rss_kb / 1024.0
    print(f"{'peak_rss_mb':<18} {units['peak_rss_mb']:<8} "
          f"{metrics['peak_rss_mb']:>11.6g}")
    errors = [o.table1_max_err_pct for o in outcomes
              if o.table1_max_err_pct is not None]
    if errors:
        print(f"{'table1_max_err_pct':<18} {'%':<8} {max(errors):>11.6g}")
        print(FIT_CAVEAT)
    else:
        print(NO_REFERENCE)
    report_failures(outcomes)
    return {"outcomes": outcomes, "metrics": metrics}


def report_failures(outcomes) -> None:
    for outcome in outcomes:
        for error in outcome.errors:
            print(f"FAILED: {error}")


def traced(bench, args, scratch) -> Dict[str, Any]:
    """The traced run: per-layer metrics, measured from outside."""
    import tracing

    problems: List[str] = []
    outcomes = []
    metrics: Dict[str, float] = {
        "experiments.fanout.first_result_s": 0.0,
        "experiments.fanout.speedup": 0.0,
    }
    # The untraced passes sample the host speed; the traced pass is not
    # sampled (the samples would land in random layers' self time), so
    # its times are scaled by the untraced pass's speed.
    clock = HostClock()
    if bench.name == "atlas-ilp-dram":
        # Forked workers would inherit the wrappers but never report their
        # counts, so fan-out is measured untraced and the layer split at
        # jobs=1.
        parallel = run_once(bench, scratch, jobs=2, clock=clock)
        untraced = run_once(bench, scratch, jobs=1, clock=clock)
        outcomes += [parallel, untraced]
        metrics["experiments.fanout.first_result_s"] = (
            (parallel.first_result_s or 0.0) * parallel.host_scale)
        metrics["experiments.fanout.speedup"] = (
            untraced.wall_s / parallel.wall_s)
    else:
        untraced = run_once(bench, scratch, clock=clock)
        outcomes.append(untraced)
    tracer = tracing.Tracer()
    traced_outcome = None
    try:
        tracer.install()
    except (AttributeError, ImportError) as exc:
        problems.append(f"cannot install a wrapper: {exc}")
    else:
        state = bench.setup(scratch)
        try:
            traced_outcome = execute(bench, state, jobs=1)
            outcomes.append(traced_outcome)
            if bench.name == "atlas-ilp-dram":
                outcomes.append(execute(bench, bench.warm(state), jobs=1))
        finally:
            bench.close(state)
    finally:
        tracer.remove()
    problems += [f"wrapper left installed: {name}"
                 for name in tracer.leftovers()]
    problems += [f"layer never called: {name}"
                 for name in tracer.unfired(bench.name)]
    if any(o.observed != outcomes[0].observed for o in outcomes):
        problems.append("traced and untraced passes simulated different "
                        "results")
    wall = traced_outcome.wall_s if traced_outcome else float("nan")
    metrics.update({name: value * untraced.host_scale
                    if name.endswith("self_s") else value
                    for name, value in layer_metrics(tracer).items()})
    metrics["trace.overhead_ratio"] = wall / untraced.wall_s
    print_layers(bench, tracer, wall)
    write_spans(bench, args, tracer)
    report_failures(outcomes)
    for problem in problems:
        print(f"SELF-TEST FAILED: {problem}")
    return {"outcomes": outcomes, "metrics": metrics, "problems": problems}


def layer_metrics(tracer) -> Dict[str, float]:
    stats = tracer.stats
    metrics: Dict[str, float] = {}
    for layer, stat in stats.items():
        metrics[f"{layer}.calls"] = float(stat.calls)
        metrics[f"{layer}.self_s"] = stat.self_s

    def share(count: int, layer: str) -> float:
        calls = stats[layer].calls
        return count / calls if calls else 0.0

    metrics["simt.sm_cycle.issue_ratio"] = share(
        stats["simt.sm_cycle"].hits, "simt.sm_cycle")
    metrics["memory.partition_cycle.busy_ratio"] = share(
        stats["memory.partition_cycle"].hits, "memory.partition_cycle")
    metrics["memory.system_cycle.body_ratio"] = share(
        stats["memory.system_cycle"].with_children, "memory.system_cycle")
    metrics["store.hit_ratio"] = share(stats["store.get"].hits, "store.get")
    metrics.update(model_metrics(tracer.results))
    return metrics


def model_metrics(results) -> Dict[str, float]:
    """Simulated statistics summed over every launch of the traced pass."""
    totals: Dict[str, float] = {}
    suffixes = (".l1d.hits", ".l1d.misses", ".row_hits",
                ".issue_idle_cycles")
    for result in results:
        for key, value in result.stats.items():
            for suffix in suffixes:
                if key.endswith(suffix):
                    totals[suffix] = totals.get(suffix, 0) + value
            parts = key.split(".")
            if (parts[-1] == "requests" and parts[-2].startswith("dram")
                    and parts[-2][4:].isdigit()):
                totals["dram.requests"] = (totals.get("dram.requests", 0)
                                           + value)
    cycles = sum(result.cycles for result in results)
    instructions = sum(result.instructions for result in results)
    l1 = totals.get(".l1d.hits", 0) + totals.get(".l1d.misses", 0)
    slots = totals.get(".issue_idle_cycles", 0) + instructions

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    return {
        "model.cycles": float(cycles),
        "model.ipc": ratio(instructions, cycles),
        "model.l1_miss_ratio": ratio(totals.get(".l1d.misses", 0), l1),
        "model.dram_row_hit_ratio": ratio(totals.get(".row_hits", 0),
                                          totals.get("dram.requests", 0)),
        "model.issue_idle_ratio": ratio(
            totals.get(".issue_idle_cycles", 0), slots),
    }


def print_layers(bench, tracer, wall: float) -> None:
    print(f"{bench.name}: traced pass {wall:.3f} s; self time per layer in "
          f"host seconds (the JSON gives them at the reference speed)")
    print(f"{'layer':<28} {'calls':>10} {'self_s':>10} {'share':>7}")
    for layer, stat in tracer.stats.items():
        print(f"{layer:<28} {stat.calls:>10} {stat.self_s:>10.4f} "
              f"{stat.self_s / wall if wall else 0:>7.1%}")


def write_spans(bench, args, tracer) -> None:
    path = OUT / f"trace-{bench.name}-seed{args.seed}.json"
    payload = {
        "run_id": f"{bench.name}-seed{args.seed}-{os.getpid()}",
        "workload": bench.name,
        "seed": args.seed,
        "spans": tracer.spans,
        "layers": {layer: {"calls": stat.calls, "self_s": stat.self_s}
                   for layer, stat in tracer.stats.items()},
    }
    path.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"spans: {path.relative_to(ROOT)} ({len(tracer.spans)} spans)")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        return fail(f"no repro package under {SRC}; run from the root of "
                    f"a checkout")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return fail(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        return fail(f"unknown workload {args.workload!r}")
    sys.path.insert(0, str(SRC))
    import suite

    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in group}
    bench = suite.make(args.workload, args.seed, suite.load_digests(),
                       rotate=not args.trace)
    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="scratch-", dir=OUT)
    try:
        if args.trace:
            result = traced(bench, args, scratch)
        else:
            result = measure(bench, args, scratch, units)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    outcomes = result["outcomes"]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    missing = [name for name in units if name not in result["metrics"]]
    if missing:
        return fail(f"metrics not computed: {missing}")
    print(f"operations: {attempted} attempted, {failed} failed")
    # A pass that raised has no time; report 0 so the line stays JSON.
    values = {name: result["metrics"][name] for name in units}
    values = {name: value if math.isfinite(value) else 0.0
              for name, value in values.items()}
    print(json.dumps({
        "correct": failed == 0 and not result.get("problems"),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
