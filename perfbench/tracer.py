"""In-memory span recorder wrapped around the public calls of each layer.

The benchmark's traced runs install a :class:`Tracer` before driving the
program.  :func:`install` replaces the public functions and methods
listed in :data:`WRAPPED` with wrappers that record one span per call:
name, layer, start, end, the enclosing span (per thread) and the request
id (one per search, experiment or service job).  Nothing in the program
itself is changed; spans stay in memory until :meth:`Tracer.dump_chrome`
writes them as one Chrome-trace file that Perfetto loads.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

# (module, attribute path, span name, layer).  An attribute path with a
# dot is a method of a class in that module; otherwise a module-level
# function, re-bound in every ``repro`` module (and dict) that imported it.
WRAPPED: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.cli", "main", "cli.main", "cli"),
    ("repro.mapper.mapper", "TileFlowMapper.explore", "mapper.explore",
     "mapper"),
    ("repro.mapper.genetic", "GeneticExplorer.run", "mapper.ga", "mapper"),
    ("repro.mapper.mcts", "MCTSTuner.search", "mapper.mcts", "mapper"),
    ("repro.mapper.encoding", "build_genome_tree", "mapper.tree_build",
     "mapper"),
    ("repro.engine.core", "EvaluationEngine.tune_population",
     "engine.tune_population", "engine"),
    ("repro.engine.core", "EvaluationEngine.tune_genome",
     "engine.tune_genome", "engine"),
    ("repro.engine.core", "EvaluationEngine.evaluate_genome",
     "engine.evaluate", "engine"),
    ("repro.engine.core", "EvaluationEngine.evaluate_template",
     "engine.evaluate", "engine"),
    ("repro.engine.core", "EvaluationEngine.evaluate_tree",
     "engine.evaluate", "engine"),
    ("repro.engine.prescreen", "prescreen", "engine.prescreen", "engine"),
    ("repro.analysis.model", "TileFlowModel.evaluate", "analysis.model",
     "analysis"),
    ("repro.analysis.pipeline", "ValidatePass.run", "analysis.validate",
     "analysis"),
    ("repro.analysis.pipeline", "SlicesPass.run", "analysis.slices",
     "analysis"),
    ("repro.analysis.pipeline", "DataMovementPass.run",
     "analysis.datamovement", "analysis"),
    ("repro.analysis.pipeline", "ResourceBoundsPass.run",
     "analysis.resources", "analysis"),
    ("repro.analysis.pipeline", "ResourcesPass.run", "analysis.resources",
     "analysis"),
    ("repro.analysis.pipeline", "LatencyPass.run", "analysis.latency",
     "analysis"),
    ("repro.analysis.pipeline", "EnergyPass.run", "analysis.energy",
     "analysis"),
    ("repro.analysis.batched.sweep", "CohortEvaluator.mcts_hook",
     "batched.sweep", "analysis.batched"),
    ("repro.engine.cache.l3", "DiskArtifactStore.load", "cache.l3.load",
     "engine.cache"),
    ("repro.engine.cache.l3", "DiskArtifactStore.flush", "cache.l3.flush",
     "engine.cache"),
    ("repro.serve.service", "EvaluationService.engine_for",
     "serve.engine_for", "serve"),
    ("repro.baselines.polyhedron", "PolyhedronModel.evaluate",
     "baselines.polyhedron", "baselines"),
    ("repro.baselines.graphbased", "GraphBasedModel.evaluate",
     "baselines.graphbased", "baselines"),
    ("repro.sim.accelerator", "SimulatedAccelerator.run", "sim.accelerator",
     "sim"),
    ("repro.dataflows", "dataflow_for", "dataflows.build", "dataflows"),
    ("repro.dataflows.attention_dataflows", "attention_dataflow",
     "dataflows.build", "dataflows"),
    ("repro.dataflows.conv_dataflows", "conv_dataflow", "dataflows.build",
     "dataflows"),
)

# Builders reached through name -> function registries rather than by
# attribute; each entry of these dicts is wrapped as a dataflow build.
REGISTRIES = (("repro.dataflows.attention_dataflows", "ATTENTION_DATAFLOWS"),
              ("repro.dataflows.conv_dataflows", "CONV_DATAFLOWS"))


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "request", "tid")

    def __init__(self, name, layer, start, parent, request, tid):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.tid = tid


class TimedLock:
    """A lock proxy that records the time spent acquiring it."""

    def __init__(self, lock, tracer: "Tracer"):
        self._lock = lock
        self._tracer = tracer

    def __enter__(self):
        start = time.perf_counter()
        self._lock.acquire()
        self._tracer.lock_wait_s += time.perf_counter() - start
        return self

    def __exit__(self, *exc):
        self._lock.release()


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self.lock_wait_s = 0.0
        self.mcts_samples = 0
        self._local = threading.local()

    # -- recording -------------------------------------------------------
    def set_request(self, request: Optional[str]) -> None:
        """Tag spans opened later on this thread with ``request``."""
        self._local.request = request

    def _open(self, name: str, layer: str) -> Span:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        span = Span(name, layer, time.perf_counter(),
                    stack[-1] if stack else None,
                    getattr(local, "request", None), threading.get_ident())
        self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._local.stack.pop()

    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(span)

        return traced

    # -- analysis --------------------------------------------------------
    def self_times(self) -> Dict[Span, float]:
        """Each span's duration minus the time its child spans cover."""
        child = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        return {span: (span.end - span.start) - child[span]
                for span in self.spans}

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, inclusive and self seconds."""
        selfs = self.self_times()
        out: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            row = out.setdefault(span.name, {"layer": span.layer, "calls": 0,
                                             "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += span.end - span.start
            row["self_s"] += selfs[span]
        return out

    def layer_table(self) -> Dict[str, float]:
        """Self seconds per layer."""
        out: Dict[str, float] = defaultdict(float)
        for span, s in self.self_times().items():
            out[span.layer] += s
        return dict(out)

    def dump_chrome(self, path: str, meta: Dict[str, Any]) -> None:
        """Write every span as a Chrome-trace ``X`` event (Perfetto)."""
        ids = {span: i for i, span in enumerate(self.spans)}
        tids: Dict[int, int] = {}
        t0 = min((s.start for s in self.spans), default=0.0)
        pid = os.getpid()
        events = []
        for span in self.spans:
            tid = tids.setdefault(span.tid, len(tids) + 1)
            events.append({
                "name": span.name, "cat": span.layer, "ph": "X",
                "ts": round((span.start - t0) * 1e6, 3),
                "dur": round((span.end - span.start) * 1e6, 3),
                "pid": pid, "tid": tid,
                "args": {"id": ids[span],
                         "parent": (ids[span.parent]
                                    if span.parent is not None else None),
                         "request": span.request}})
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": meta}, fh)


def _rebind(original: Callable, replacement: Callable) -> None:
    """Point every ``repro`` module global and registry entry that holds
    ``original`` at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro"
                                  or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every entry of :data:`WRAPPED` and :data:`REGISTRIES`."""
    for module_name, path, name, layer in WRAPPED:
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, meth = path.split(".")
            cls = getattr(module, cls_name)
            original = vars(cls)[meth]
            if meth == "engine_for":
                setattr(cls, meth, _timed_engine_for(tracer, original))
            elif meth == "search":
                setattr(cls, meth, _counted_search(
                    tracer, tracer.wrap(original, name, layer)))
            else:
                setattr(cls, meth, tracer.wrap(original, name, layer))
        else:
            original = getattr(module, path)
            _rebind(original, tracer.wrap(original, name, layer))
    for module_name, attr in REGISTRIES:
        registry = getattr(importlib.import_module(module_name), attr)
        for key, fn in list(registry.items()):
            registry[key] = tracer.wrap(fn, "dataflows.build", "dataflows")
    from repro.serve.jobs import JobQueue
    claim = JobQueue.claim

    def traced_claim(self, *args, **kwargs):
        job = claim(self, *args, **kwargs)
        tracer.set_request(job.id if job is not None else None)
        return job

    JobQueue.claim = traced_claim


def _timed_engine_for(tracer: Tracer, original: Callable) -> Callable:
    """``engine_for`` whose returned per-engine lock records its wait."""
    wrapped = tracer.wrap(original, "serve.engine_for", "serve")

    @functools.wraps(original)
    def engine_for(self, workload_name, arch_name):
        engine, lock = wrapped(self, workload_name, arch_name)
        return engine, TimedLock(lock, tracer)

    return engine_for


def _counted_search(tracer: Tracer, wrapped: Callable) -> Callable:
    """``MCTSTuner.search`` that adds its sample budget to the tally."""

    @functools.wraps(wrapped)
    def search(self, samples):
        tracer.mcts_samples += samples
        return wrapped(self, samples)

    return search


def install_capture(sink: List[Any]) -> None:
    """Record every :class:`EvaluationEngine` built and every search
    result, so counters and champions can be read after a CLI call.
    Used by traced and untraced runs alike (one append per call)."""
    from repro.engine.core import EvaluationEngine
    from repro.mapper.mapper import TileFlowMapper

    init = EvaluationEngine.__init__
    explore = TileFlowMapper.explore

    @functools.wraps(init)
    def capture_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        sink.append(("engine", self))

    @functools.wraps(explore)
    def capture_explore(self, *args, **kwargs):
        result = explore(self, *args, **kwargs)
        sink.append(("search", self, result))
        return result

    EvaluationEngine.__init__ = capture_init
    TileFlowMapper.explore = capture_explore
