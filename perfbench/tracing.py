"""Layer tracer: spans around calls into each simulator layer.

The tracer wraps public functions and methods of ``src/repro`` from the
benchmark's side; nothing inside the program is instrumented.  Each wrapped
call is a span.  Spans nest per thread, and a span's *self time* is its
duration minus the time its child spans cover.  A call that nests directly
inside a span of the same layer (e.g. ``MemoryPartition.read`` inside
``DmaEngine.transfer``) is part of that span and is neither timed nor
counted on its own.

Spans and counts stay in per-thread memory until :meth:`LayerTracer.totals`
merges them after the run.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Tuple


class _ThreadState:
    __slots__ = ("stack", "self_s", "span_s", "calls", "counts")

    def __init__(self) -> None:
        self.stack: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.span_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()


class Totals:
    """Merged per-bucket self time, span time, call counts and counters."""

    def __init__(self, states: List[_ThreadState]) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.span_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        for state in states:
            for key, value in state.self_s.items():
                self.self_s[key] += value
            for key, value in state.span_s.items():
                self.span_s[key] += value
            self.calls.update(state.calls)
            self.counts.update(state.counts)

    def layer_self_s(self, layer: str) -> float:
        """Self time of every bucket named ``layer`` or ``layer.<x>``."""
        return sum(
            value
            for bucket, value in self.self_s.items()
            if bucket == layer or bucket.startswith(layer + ".")
        )


class LayerTracer:
    """Installs span wrappers; :meth:`uninstall` restores the originals."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._undo: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def count(self, name: str, amount: int = 1) -> None:
        """Add to a named counter of the calling thread."""
        self._state().counts[name] += amount

    def totals(self) -> Totals:
        with self._lock:
            return Totals(list(self._states))

    def wrap(self, fn: Callable, layer: str, bucket: str) -> Callable:
        """``fn`` recorded as a span of ``layer`` accounted under ``bucket``."""
        perf = time.perf_counter
        state_of = self._state

        def traced(*args, **kwargs):
            state = state_of()
            stack = state.stack
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                state.self_s[bucket] += elapsed - frame[1]
                state.span_s[bucket] += elapsed
                state.calls[bucket] += 1

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def patch_method(self, cls: type, name: str, layer: str, bucket: str) -> None:
        original = cls.__dict__[name]
        self._undo.append((cls, name, original))
        setattr(cls, name, self.wrap(original, layer, bucket))

    def patch_function(self, fn: Callable, layer: str, bucket: str) -> None:
        """Replace ``fn`` in every loaded ``repro`` module that binds it."""
        traced = self.wrap(fn, layer, bucket)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._undo.append((module, attr, fn))
                    setattr(module, attr, traced)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def install_layer_spans(tracer: LayerTracer) -> None:
    """Wrap the entry points of every simulator layer the benchmark drives.

    Counters that the spans alone cannot give are added by thin wrappers
    applied first, so they run inside their span: ``sim.events`` (from
    ``Simulator.events_processed``), ``training.chunks`` (the issued
    handle's ``num_chunks``) and the cache's hits and misses.
    """
    from repro.collectives import planner
    from repro.compute.npu import NpuComputeEngine
    from repro.core.engine import AceEngine
    from repro.endpoint.ace import AceEndpoint
    from repro.endpoint.baseline import BaselineEndpoint
    from repro.endpoint.ideal import IdealEndpoint
    from repro.memory.bus import Bus
    from repro.memory.dma import DmaEngine
    from repro.memory.hbm import MemoryPartition
    from repro.network.detailed import DetailedBackend
    from repro.network.hybrid import HybridBackend
    from repro.network.symmetric import SymmetricFabric
    from repro.runner.cache import ResultCache
    from repro.runner.job import SimJob
    from repro.service.server import SweepService
    from repro.sim.engine import Simulator
    from repro.traces import find_trace, lower_trace
    from repro.training.comm import CollectiveExecutor
    from repro.training.loop import TrainingLoop
    from repro.workloads.registry import build_workload

    run = Simulator.__dict__["run"]

    def run_counting_events(sim, *args, **kwargs):
        before = sim.events_processed
        try:
            return run(sim, *args, **kwargs)
        finally:
            tracer.count("sim.events", sim.events_processed - before)

    issue = CollectiveExecutor.__dict__["issue"]

    def issue_counting_chunks(executor, *args, **kwargs):
        handle = issue(executor, *args, **kwargs)
        tracer.count("training.chunks", handle.num_chunks)
        return handle

    lookup = ResultCache.__dict__["lookup"]

    def lookup_counting_hits(cache, *args, **kwargs):
        payload = lookup(cache, *args, **kwargs)
        tracer.count("runner.cache_hits" if payload is not None else "runner.cache_misses")
        return payload

    Simulator.run = run_counting_events
    CollectiveExecutor.issue = issue_counting_chunks
    ResultCache.lookup = lookup_counting_hits
    tracer._undo += [
        (Simulator, "run", run),
        (CollectiveExecutor, "issue", issue),
        (ResultCache, "lookup", lookup),
    ]

    methods = [
        (Simulator, "run", "sim", "sim.run"),
        (TrainingLoop, "__init__", "training", "training.init"),
        (TrainingLoop, "run", "training", "training.loop"),
        (CollectiveExecutor, "issue", "training", "training.issue"),
        (AceEngine, "process_phase", "core", "core.phase"),
        (AceEngine, "ingress", "core", "core.chunk"),
        (AceEngine, "egress", "core", "core.chunk"),
        (DmaEngine, "transfer", "memory", "memory.dma"),
        (MemoryPartition, "read", "memory", "memory.hbm"),
        (MemoryPartition, "write", "memory", "memory.hbm"),
        (Bus, "transfer", "memory", "memory.bus"),
        (SymmetricFabric, "reserve", "network", "network.reserve"),
        (DetailedBackend, "transfer", "network", "network.transfer"),
        (HybridBackend, "transfer", "network", "network.transfer"),
        (NpuComputeEngine, "execute", "compute", "compute.kernel"),
        (SimJob, "execute", "runner", "runner.execute"),
        (SimJob, "build_system", "config", "config.build"),
        (SimJob, "build_topology", "config", "config.build"),
        (ResultCache, "lookup", "runner.cache", "runner.lookup"),
        (ResultCache, "store", "runner.cache", "runner.store"),
        (SweepService, "run_jobs", "service", "service.run_jobs"),
    ]
    for endpoint in (AceEndpoint, BaselineEndpoint, IdealEndpoint):
        methods += [
            (endpoint, "process_phase", "endpoint", "endpoint.phase"),
            (endpoint, "ingress", "endpoint", "endpoint.chunk"),
            (endpoint, "egress", "endpoint", "endpoint.chunk"),
        ]
    for cls, name, layer, bucket in methods:
        tracer.patch_method(cls, name, layer, bucket)

    for fn, layer, bucket in (
        (planner.plan_collective, "collectives", "collectives.plan"),
        (find_trace, "traces", "traces.load"),
        (lower_trace, "traces", "traces.lower"),
        (build_workload, "workloads", "workloads.build"),
    ):
        tracer.patch_function(fn, layer, bucket)
