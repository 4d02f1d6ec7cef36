"""Timing wrappers installed around each layer's methods from outside.

The traced run measures the simulator layer by layer without editing it:
:class:`Tracer` replaces methods and module-level functions with thin
wrappers *where callers look the names up* (the class a bound method
resolves on, or the module binding a caller reads), before any ``GPU`` is
built, and puts every original back afterwards.

Each wrapper counts calls and accumulates *self time*: its own duration
minus the time covered by nested wrapped calls.  Per-cycle methods are
only aggregated; coarse boundaries (session runs, workload runs, launches,
analyses, store operations) are also kept as spans, held in memory and
written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

FIG1 = ("fig1-bfs", "fig1-matmul")
ALL = FIG1 + ("table1-static", "atlas-ilp-dram")
DYNAMIC = FIG1 + ("atlas-ilp-dram",)

#: One row per traced layer: (layer name, span?, workloads that must fire
#: it, install targets).  A target is ``("class", "module:Class", method)``
#: -- wrapped on that class and on every loaded subclass that overrides
#: it -- or ``("func", "module", name)`` for a module binding.
LAYERS: Tuple[Tuple[str, bool, Sequence[str], Sequence[Tuple[str, str, str]]],
              ...] = (
    ("simt.sm_cycle", False, ALL,
     (("class", "repro.simt.core:StreamingMultiprocessor", "cycle"),)),
    ("isa.compute", False, ALL,
     (("func", "repro.isa.semantics", "compute"),)),
    ("simt.ldst_cycle", False, ALL,
     (("class", "repro.simt.ldst:LoadStoreUnit", "cycle"),)),
    ("simt.ldst_issue", False, ALL,
     (("class", "repro.simt.ldst:LoadStoreUnit", "issue"),)),
    ("simt.next_event_time", False, ALL,
     (("class", "repro.simt.core:StreamingMultiprocessor",
       "next_event_time"),)),
    ("memory.system_cycle", False, ALL,
     (("class", "repro.memory.subsystem:MemorySystem", "cycle"),)),
    ("memory.partition_cycle", False, ALL,
     (("class", "repro.memory.partition:MemoryPartition", "cycle"),)),
    ("memory.icnt_cycle", False, ALL,
     (("class", "repro.memory.interconnect:Interconnect", "cycle"),)),
    ("memory.l2_cycle", False, ALL,
     (("class", "repro.memory.l2cache:L2Slice", "cycle"),)),
    ("memory.dram_cycle", False, ALL,
     (("class", "repro.memory.dram:DramChannel", "cycle"),)),
    ("memory.next_event_time", False, ALL,
     (("class", "repro.memory.subsystem:MemorySystem",
       "next_event_time"),)),
    # GPU.launch is the blocking form of the same drive loop
    # (submit + drive), so both count as the drive loop.
    ("gpu.run_until_idle", True, ALL,
     (("class", "repro.gpu.gpu:GPU", "run_until_idle"),
      ("class", "repro.gpu.gpu:GPU", "launch"))),
    ("gpu.collect_stats", False, ALL,
     (("class", "repro.gpu.gpu:GPU", "collect_stats"),)),
    ("core.tracker.record_event", False, ALL,
     (("class", "repro.core.tracker:LatencyTracker", "record_event"),)),
    ("core.breakdown", True, DYNAMIC,
     (("func", "repro.experiments.session", "breakdown_from_tracker"),)),
    ("core.exposure", True, DYNAMIC,
     (("func", "repro.experiments.session", "compute_exposure"),)),
    ("core.static", True, ("table1-static",),
     (("func", "repro.experiments.session", "measure_generation"),)),
    ("workloads.build_program", True, DYNAMIC,
     (("class", "repro.workloads.base:Workload", "build_program"),)),
    ("workloads.prepare", True, DYNAMIC,
     (("class", "repro.workloads.base:Workload", "prepare"),)),
    ("workloads.verify", True, DYNAMIC,
     (("class", "repro.workloads.base:Workload", "verify"),)),
    ("workloads.run", True, DYNAMIC,
     (("class", "repro.workloads.base:Workload", "run"),)),
    ("experiments.session_run", True, ALL,
     (("class", "repro.experiments.session:Session", "run"),
      ("class", "repro.experiments.session:Session", "run_all"))),
    ("sensitivity.assemble", True, ("atlas-ilp-dram",),
     (("class", "repro.sensitivity.study:SensitivityStudy", "assemble"),)),
    ("store.put", True, ("atlas-ilp-dram",),
     (("class", "repro.store.base:ResultStore", "put"),)),
    ("store.get", True, ("atlas-ilp-dram",),
     (("class", "repro.store.base:ResultStore", "get"),)),
)


class LayerStat:
    """Aggregate of one layer: calls, self time and outcome counts."""

    __slots__ = ("calls", "self_s", "hits", "with_children")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        #: Calls whose outcome hook said yes (issued, busy, store hit).
        self.hits = 0
        #: Calls that made at least one nested wrapped call.
        self.with_children = 0


def _subclasses(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        for item in _subclasses(sub):
            if item not in found:
                found.append(item)
    return found


class Tracer:
    """Installs, runs and removes the layer wrappers of one traced run."""

    def __init__(self) -> None:
        self.stats: Dict[str, LayerStat] = {name: LayerStat()
                                            for name, *_ in LAYERS}
        self.spans: List[Dict[str, Any]] = []
        self.results: List[Any] = []
        # One frame per active wrapped call: [child seconds, child calls].
        self._frames: List[List[float]] = []
        self._span_stack: List[int] = []
        self._patched: List[Tuple[Any, str, Any, bool]] = []
        self._wrappers: List[Callable] = []
        self._origin = time.perf_counter()

    # -- outcome hooks ------------------------------------------------------
    def _before(self, layer: str) -> Optional[Callable]:
        if layer == "memory.partition_cycle":
            return lambda args: args[0].in_flight() > 0
        return None

    def _after(self, layer: str) -> Optional[Callable]:
        if layer == "simt.sm_cycle":
            return lambda result: bool(result)
        if layer == "store.get":
            return lambda result: result is not None
        if layer == "gpu.run_until_idle":
            def keep(result):
                self.results.extend(
                    result if isinstance(result, list) else [result])
                return False
            return keep
        return None

    def _wrap(self, layer: str, span: bool, original: Callable) -> Callable:
        stat = self.stats[layer]
        frames = self._frames
        span_stack = self._span_stack
        spans = self.spans
        clock = time.perf_counter
        before = self._before(layer)
        after = self._after(layer)

        def wrapper(*args, **kwargs):
            hit = False
            if before is not None:
                # The hook is benchmark work: keep it out of every
                # layer's self time, including the caller's.
                hook_start = clock()
                hit = before(args)
                if frames:
                    frames[-1][0] += clock() - hook_start
            if span:
                span_id = len(spans)
                spans.append({"id": span_id, "name": layer,
                              "parent": span_stack[-1] if span_stack
                              else None})
                span_stack.append(span_id)
            frame = [0.0, 0]
            frames.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                frames.pop()
                stat.calls += 1
                stat.self_s += elapsed - frame[0]
                if frame[1]:
                    stat.with_children += 1
                if frames:
                    parent = frames[-1]
                    parent[0] += elapsed
                    parent[1] += 1
                if span:
                    span_stack.pop()
                    record = spans[span_id]
                    record["start_s"] = start - self._origin
                    record["end_s"] = start + elapsed - self._origin
            if after is not None:
                hit = after(result) or hit
            if hit:
                stat.hits += 1
            return result

        self._wrappers.append(wrapper)
        return functools.update_wrapper(wrapper, original)

    # -- install / remove ---------------------------------------------------
    def _set(self, owner: Any, name: str, value: Any) -> None:
        had_own = name in vars(owner)
        self._patched.append((owner, name, vars(owner).get(name), had_own))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap every target of :data:`LAYERS`; raise if one is missing."""
        for layer, span, _uses, targets in LAYERS:
            for kind, where, name in targets:
                if kind == "func":
                    module = importlib.import_module(where)
                    self._set(module, name,
                              self._wrap(layer, span, getattr(module, name)))
                    continue
                module_name, class_name = where.split(":")
                base = getattr(importlib.import_module(module_name),
                               class_name)
                getattr(base, name)  # AttributeError names a missing target
                for cls in _subclasses(base):
                    if name in vars(cls):
                        self._set(cls, name, self._wrap(
                            layer, span, vars(cls)[name]))

    def remove(self) -> None:
        """Put every original back, in reverse order of installation."""
        while self._patched:
            owner, name, original, had_own = self._patched.pop()
            if had_own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    def leftovers(self) -> List[str]:
        """Targets that still hold a wrapper (empty after :meth:`remove`)."""
        left = []
        for layer, _span, _uses, targets in LAYERS:
            for kind, where, name in targets:
                if kind == "func":
                    owners = [importlib.import_module(where)]
                else:
                    module_name, class_name = where.split(":")
                    owners = _subclasses(getattr(
                        importlib.import_module(module_name), class_name))
                for owner in owners:
                    if any(vars(owner).get(name) is wrapper
                           for wrapper in self._wrappers):
                        left.append(f"{layer}: {owner.__name__}.{name}")
        return left

    def unfired(self, workload: str) -> List[str]:
        """Layers this workload must exercise that recorded no call."""
        return [layer for layer, _span, uses, _targets in LAYERS
                if workload in uses and self.stats[layer].calls == 0]
