#!/usr/bin/env python
"""Gate CI on benchmark regressions against a committed baseline.

Compares a ``pytest-benchmark --benchmark-json`` result file against the
committed ``benchmarks/baseline.json`` and exits non-zero when any
benchmark's mean time regressed by more than the allowed fraction
(default 25%).

Benchmark machines differ (the committed baseline comes from a developer
container; CI runners have different CPUs), so raw means are not directly
comparable.  The checker therefore corrects for uniform machine-speed
drift first: every benchmark's current/baseline mean ratio is divided by
the **median** ratio across all shared benchmarks before the threshold is
applied.  A uniformly slower runner shifts every ratio equally and passes;
one hot loop regressing relative to the rest still fails.  (With fewer
than three shared benchmarks the correction is skipped and raw ratios are
used.)

When ``$GITHUB_STEP_SUMMARY`` is set (as it is inside GitHub Actions),
the comparison is additionally appended there as a markdown table —
per-benchmark baseline vs current mean, the drift-corrected ratio, and
the signed delta-vs-baseline percentage — so speedups and regressions
are visible on the run's summary page without downloading artifacts.

Usage::

    python benchmarks/check_regression.py \
        --baseline benchmarks/baseline.json \
        --current bench-results.json \
        [--max-regression 0.25]

Exit codes: 0 = within threshold, 1 = regression (or a baseline benchmark
disappeared), 2 = bad input files.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List, Optional


def load_means(path: str) -> Dict[str, float]:
    """Map of benchmark fullname -> mean seconds from a benchmark JSON."""
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read benchmark JSON {path!r}: {exc}",
              file=sys.stderr)
        raise SystemExit(2) from exc
    means: Dict[str, float] = {}
    for bench in data.get("benchmarks", []):
        means[bench["fullname"]] = bench["stats"]["mean"]
    if not means:
        print(f"error: {path!r} contains no benchmarks", file=sys.stderr)
        raise SystemExit(2)
    return means


def format_markdown_summary(
    baseline: Dict[str, float],
    current: Dict[str, float],
    shared: List[str],
    added: List[str],
    drift: float,
    threshold: float,
    failures: List[str],
    speedup: float = 1.0,
) -> str:
    """Markdown comparison table for the GitHub Actions step summary."""
    lines = [
        "## Benchmark comparison",
        "",
        f"Machine-speed drift (median current/baseline ratio): "
        f"**{drift:.3f}** — geometric-mean raw speedup vs baseline: "
        f"**{speedup:.2f}x** — allowed drift-corrected slowdown: "
        f"**{threshold:.2f}x**",
        "",
        "| benchmark | baseline (s) | current (s) | corrected ratio "
        "| delta vs baseline | status |",
        "|---|---:|---:|---:|---:|---|",
    ]
    for name in shared:
        corrected = (current[name] / baseline[name]) / drift
        delta = (corrected - 1.0) * 100.0
        if name in failures:
            status = ":x: regression"
        elif corrected < 1.0:
            status = ":zap: faster"
        else:
            status = ":white_check_mark: ok"
        lines.append(
            f"| `{name}` | {baseline[name]:.4f} | {current[name]:.4f} "
            f"| {corrected:.2f}x | {delta:+.1f}% | {status} |"
        )
    for name in added:
        lines.append(
            f"| `{name}` | - | {current[name]:.4f} | - | - "
            f"| :new: not gated |"
        )
    if failures:
        lines += ["", f"**{len(failures)} benchmark(s) regressed beyond "
                      f"the threshold.**"]
    else:
        lines += ["", f"All {len(shared)} gated benchmark(s) within "
                      f"threshold."]
    return "\n".join(lines) + "\n"


def write_step_summary(text: str, path: Optional[str] = None) -> bool:
    """Append ``text`` to ``$GITHUB_STEP_SUMMARY`` (no-op outside CI)."""
    path = path or os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return False
    try:
        with open(path, "a") as handle:
            handle.write(text)
    except OSError as exc:  # pragma: no cover - summary is best-effort
        print(f"warning: cannot write step summary: {exc}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail when benchmarks regressed beyond the threshold")
    parser.add_argument("--baseline", required=True,
                        help="committed baseline benchmark JSON")
    parser.add_argument("--current", required=True,
                        help="benchmark JSON from this run")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        metavar="FRACTION",
                        help="allowed drift-corrected slowdown per "
                             "benchmark (default: 0.25 = 25%%)")
    args = parser.parse_args(argv)

    baseline = load_means(args.baseline)
    current = load_means(args.current)

    shared = sorted(set(baseline) & set(current))
    missing = sorted(set(baseline) - set(current))
    added = sorted(set(current) - set(baseline))
    if missing:
        print("error: benchmarks in the baseline did not run:",
              file=sys.stderr)
        for name in missing:
            print(f"  - {name}", file=sys.stderr)
        return 1
    if added:
        print("note: new benchmarks without a baseline (not gated):")
        for name in added:
            print(f"  - {name}")
    if not shared:
        print("error: no shared benchmarks to compare", file=sys.stderr)
        return 2

    ratios = {name: current[name] / baseline[name] for name in shared}
    if len(shared) >= 3:
        drift = statistics.median(ratios.values())
    else:
        drift = 1.0
    threshold = 1.0 + args.max_regression
    speedup = 1.0 / statistics.geometric_mean(ratios.values())

    print(f"machine-speed drift (median current/baseline ratio): "
          f"{drift:.3f}")
    print(f"geometric-mean speedup vs baseline (raw): {speedup:.2f}x")
    print(f"allowed drift-corrected slowdown: {threshold:.2f}x\n")
    header = (f"{'benchmark':60s} {'baseline':>10s} {'current':>10s} "
              f"{'corrected':>10s}")
    print(header)
    print("-" * len(header))
    failures = []
    for name in shared:
        corrected = ratios[name] / drift
        flag = ""
        if corrected > threshold:
            failures.append(name)
            flag = "  << REGRESSION"
        short = name if len(name) <= 60 else "..." + name[-57:]
        print(f"{short:60s} {baseline[name]:10.4f} {current[name]:10.4f} "
              f"{corrected:9.2f}x{flag}")

    write_step_summary(format_markdown_summary(
        baseline, current, shared, added, drift, threshold, failures,
        speedup=speedup))

    if failures:
        print(f"\n{len(failures)} benchmark(s) regressed more than "
              f"{args.max_regression:.0%} (drift-corrected):",
              file=sys.stderr)
        for name in failures:
            print(f"  - {name}", file=sys.stderr)
        return 1
    print(f"\nall {len(shared)} benchmark(s) within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
