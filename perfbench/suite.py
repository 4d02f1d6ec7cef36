"""The four benchmark workloads, driven through the public ``repro`` API.

Each workload splits into ``setup`` (what a user pays before the first
submit: config resolution and ``Session``/store/spec construction) and
``execute`` (submit to verified result, the timed pass).  Every pass's
simulated output is reduced to digests and compared with the values
pinned in ``digests.json`` for the workload and seed, so a change that
alters any simulated result fails the benchmark.

This module imports nothing from ``repro`` at import time, so the set-up
probe can time ``import repro`` itself.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"

CONFIG = "gf106"


def digest_of(data: Any) -> str:
    """sha256 of the canonical JSON form of ``data``."""
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def record_digest(record) -> str:
    """Digest of one simulated run: total cycles and per-launch stats."""
    return digest_of({"total_cycles": record.total_cycles,
                      "launches": record.launches})


def load_digests() -> Dict[str, Any]:
    with open(DIGESTS) as handle:
        return json.load(handle)


@dataclass
class Outcome:
    """One timed pass and its correctness verdict."""

    wall_s: float
    sim_cycles: int
    attempted: int
    failed: int
    #: What ``digests.json`` pins for this pass; equal across traced and
    #: untraced passes when tracing changes no result.
    observed: Dict[str, Any]
    errors: List[str] = field(default_factory=list)
    #: Seconds from starting the atlas to the first finished cell.
    first_result_s: Optional[float] = None
    table1_max_err_pct: Optional[float] = None
    #: ``wall_s`` at the reference host speed, and reference seconds per
    #: host second, when the host was sampled (``hostclock.py``).
    reference_wall_s: Optional[float] = None
    host_scale: Optional[float] = None


def _check(observed: Dict[str, Any], pinned: Optional[Dict[str, Any]],
           what: str) -> List[str]:
    if pinned is None:
        return [f"{what}: no digest pinned"]
    if observed != pinned:
        return [f"{what}: {observed} differs from pinned {pinned}"]
    return []


class Fig1:
    """``Experiment.dynamic`` on gf106 at the workload's default size."""

    #: Operations (experiments) in one ``execute``.
    ops = 1

    #: Seeds with pinned digests, the workload's default seed first.
    POOL = {"bfs": (13, 14, 15, 16), "matmul": (23, 24, 25, 26)}
    #: Pinned but outside the pool: for re-checking a claim on a seed not
    #: used while the claim was written (``--seed 97``).
    HELD_OUT = 97

    def __init__(self, name: str, workload: str, seed: int,
                 digests: Optional[Dict[str, Any]], rotate: bool) -> None:
        self.name = name
        self.workload = workload
        self.pinned = (digests or {}).get(name, {})
        pool = self.POOL[workload]
        if seed in pool + (self.HELD_OUT,):
            self.seeds = [seed]
        else:
            # Passes walk the pool from entry ``seed mod 4``, so a run's
            # median covers every graph (or matrix pair), not one.
            start = seed % len(pool)
            self.seeds = list(pool[start:] + pool[:start])
            if not rotate:
                self.seeds = self.seeds[:1]
        self._passes = 0

    def setup(self, scratch: str):
        from repro import Experiment, Session

        seed = self.seeds[self._passes % len(self.seeds)]
        self._passes += 1
        session = Session()
        session.resolve_config(CONFIG)
        return session, Experiment.dynamic(CONFIG, self.workload,
                                           seed=seed), seed

    def execute(self, state, jobs: int = 1) -> Outcome:
        session, experiment, seed = state
        start = time.perf_counter()
        record = session.run(experiment)
        wall = time.perf_counter() - start
        observed = {"cycles": record.total_cycles,
                    "digest": record_digest(record)}
        errors = _check(observed, self.pinned.get(str(seed)),
                        f"seed {seed}")
        if record.payload.get("verified") is not True:
            errors.append(f"seed {seed}: workload verification did not run")
        return Outcome(wall_s=wall, sim_cycles=record.total_cycles,
                       attempted=1, failed=1 if errors else 0,
                       observed=observed, errors=errors)

    def close(self, state) -> None:
        pass


class Table1:
    """``Experiment.static()``: Table I over the four generations."""

    name = "table1-static"
    ops = 1

    def __init__(self, digests: Optional[Dict[str, Any]]) -> None:
        # The pointer chase has no random input; the seed changes nothing.
        self.seeds: List[int] = []
        self.pinned = (digests or {}).get(self.name)

    def setup(self, scratch: str):
        from repro import Experiment, Session
        from repro.gpu import table_i_generations

        session = Session()
        for config in table_i_generations():
            session.resolve_config(config)
        return session, Experiment.static()

    def execute(self, state, jobs: int = 1) -> Outcome:
        session, experiment = state
        start = time.perf_counter()
        record = session.run(experiment)
        wall = time.perf_counter() - start
        table = record.table
        measurements = [m for generation in table.generations
                        for m in generation.measurements]
        observed = {"digest": digest_of({
            "table": record.payload,
            "cycles": [[m.baseline_cycles, m.measured_cycles]
                       for m in measurements],
        })}
        errors = _check(observed, self.pinned, "Table I")
        relative = [generation.relative_error(level)
                    for generation in table.generations
                    for level in generation.measured]
        return Outcome(
            wall_s=wall,
            # The API reports the two timed launches of each chase point
            # (baseline and measured), not the warm-up launch.
            sim_cycles=sum(m.baseline_cycles + m.measured_cycles
                           for m in measurements),
            attempted=1, failed=1 if errors else 0, observed=observed,
            errors=errors,
            table1_max_err_pct=100.0 * max(
                error for error in relative if error is not None),
        )

    def close(self, state) -> None:
        pass


class Atlas:
    """``LatencyToleranceAtlas``: ilp x scale_dram_latency into sqlite."""

    name = "atlas-ilp-dram"
    #: One operation per atlas cell: 4 ilp values x 4 DRAM scales.
    ops = 16

    def __init__(self, digests: Optional[Dict[str, Any]]) -> None:
        # The microbench has no random input; the seed changes nothing.
        self.seeds: List[int] = []
        self.pinned = (digests or {}).get(self.name)
        self._stores = 0

    def setup(self, scratch: str):
        from repro import Session, open_store
        from repro.sensitivity import LatencyToleranceAtlas

        self._stores += 1
        path = os.path.join(scratch, f"atlas-{os.getpid()}-"
                                     f"{self._stores}.sqlite")
        store = open_store(f"sqlite:{path}")
        session = Session(store=store)
        session.resolve_config(CONFIG)
        atlas = LatencyToleranceAtlas(
            config=CONFIG, axis="ilp", values=(1, 2, 4, 8),
            transform="scale_dram_latency", scales=(1, 2, 4, 8),
            params={"iters": 32})
        return session, atlas, store

    def warm(self, state):
        """A fresh session over the same store: every cell is a store hit."""
        from repro import Session

        _session, atlas, store = state
        return Session(store=store), atlas, store

    def execute(self, state, jobs: int = 2) -> Outcome:
        from repro import Experiment

        session, atlas, _store = state
        records = []
        first: List[float] = []

        def progress(done, total, record, source):
            if not first:
                first.append(time.perf_counter() - start)
            records.append(record)

        start = time.perf_counter()
        result = atlas.run(session=session, jobs=jobs, progress=progress)
        wall = time.perf_counter() - start
        observed = {
            "cells": {Experiment.from_dict(record.experiment).spec_hash():
                      record_digest(record) for record in records
                      if record.payload.get("verified") is True},
            "result": digest_of(result.to_dict()),
        }
        if self.pinned is None:
            errors = ["atlas: no digest pinned"]
            failed = self.ops
        else:
            cells = self.pinned["cells"]
            wrong = [spec_hash for spec_hash in sorted(cells)
                     if observed["cells"].get(spec_hash) != cells[spec_hash]]
            failed = len(wrong)
            errors = [f"cell {spec_hash[:12]} unverified, missing or not as "
                      f"pinned" for spec_hash in wrong]
            if observed["result"] != self.pinned["result"]:
                # A wrong fit makes every cell of the pass wrong.
                errors.append("atlas result differs from pinned")
                failed = self.ops
        return Outcome(
            wall_s=wall,
            sim_cycles=sum(record.total_cycles for record in records),
            attempted=self.ops, failed=failed, observed=observed,
            errors=errors, first_result_s=first[0] if first else None,
        )

    def close(self, state) -> None:
        state[2].close()


WORKLOADS = ("fig1-bfs", "fig1-matmul", "table1-static", "atlas-ilp-dram")


def make(name: str, seed: int, digests: Optional[Dict[str, Any]],
         rotate: bool = True):
    """The benchmark workload ``name`` with inputs from ``seed``.

    ``digests`` is what ``digests.json`` pins (``None`` checks nothing).
    With ``rotate`` false, every pass of a seeded workload uses the same
    input, as the traced run's passes must.
    """
    if name == "fig1-bfs":
        return Fig1(name, "bfs", seed, digests, rotate)
    if name == "fig1-matmul":
        return Fig1(name, "matmul", seed, digests, rotate)
    if name == "table1-static":
        return Table1(digests)
    if name == "atlas-ilp-dram":
        return Atlas(digests)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
