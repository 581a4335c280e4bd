"""Per-layer metrics of a traced run, computed from spans and counters.

Times come from the benchmark's own spans (see ``tracer.py``); counts
and ratios come from the engines' merged :class:`EngineStats`, which
include the pool workers' counters of the deep search.  Spans inside
pool workers are not collected, so GA/MCTS/analysis times of that
search cover the parent process only.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from tracer import Tracer

EXPERIMENTS = ("fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
               "tab6", "tab7", "tab8", "ablation")

PASSES = ("validate", "slices", "datamovement", "resources", "latency",
          "energy")

#: name -> unit, in report order.  Every traced run reports all of them;
#: a layer a workload does not reach reads 0.
PER_LAYER: Dict[str, str] = {
    "mapper.ga_self_s": "s",
    "mapper.mcts_self_s": "s",
    "mapper.tree_build_s": "s",
    "mapper.samples": "count",
    "engine.memo_hit_ratio": "ratio",
    "engine.prescreen_s": "s",
    "engine.prescreen_reject_ratio": "ratio",
    "engine.evaluations": "count",
    "engine.pool_wait_s": "s",
    "engine.parallel_tasks": "count",
    **{f"analysis.{p}_s": "s" for p in PASSES},
    "analysis.pass_runs": "count",
    "batched.evaluations": "count",
    "batched.yield": "ratio",
    "batched.fallbacks": "count",
    "batched.sweep_s": "s",
    "cache.l1.hit_ratio": "ratio",
    "cache.l1.evictions": "count",
    "cache.l2.hits": "count",
    "cache.l3.hits": "count",
    "cache.l3.load_s": "s",
    "cache.l3.flush_s": "s",
    "serve.queue_wait_ms": "ms",
    "serve.lock_wait_ms": "ms",
    "serve.exec_ms": "ms",
    "serve.http_ms": "ms",
    "serve.warm_job_ratio": "ratio",
    **{f"experiments.{e}_s": "s" for e in EXPERIMENTS},
    "baselines.polyhedron_s": "s",
    "baselines.graphbased_s": "s",
    "sim.accelerator_s": "s",
    "dataflows.build_s": "s",
    "trace_overhead_pct": "%",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def merged_stats(engines: Iterable) -> Dict[str, int]:
    total: Dict[str, int] = {}
    for engine in engines:
        for name, n in engine.stats.to_dict().items():
            total[name] = total.get(name, 0) + n
    return total


def layer_metrics(tracer: Tracer, engines: List) -> Dict[str, float]:
    """Every per-layer metric this process can see (serve.* and
    experiments.* are filled in by the caller)."""
    selfs = tracer.self_times()
    self_by: Dict[str, float] = {}
    total_by: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    l3_load = 0.0
    for span, own in selfs.items():
        dur = span.end - span.start
        self_by[span.name] = self_by.get(span.name, 0.0) + own
        total_by[span.name] = total_by.get(span.name, 0.0) + dur
        calls[span.name] = calls.get(span.name, 0) + 1
        if span.name == "cache.l3.load" and not (
                span.parent is not None
                and span.parent.name == "cache.l3.flush"):
            l3_load += dur
    stats = merged_stats(engines)
    s = stats.get
    out = {name: 0.0 for name in PER_LAYER}
    out.update({
        "mapper.ga_self_s": self_by.get("mapper.ga", 0.0),
        "mapper.mcts_self_s": self_by.get("mapper.mcts", 0.0),
        "mapper.tree_build_s": self_by.get("mapper.tree_build", 0.0),
        "mapper.samples": tracer.mcts_samples,
        "engine.memo_hit_ratio": _ratio(
            s("cache_hits", 0), s("cache_hits", 0) + s("cache_misses", 0)),
        "engine.prescreen_s": total_by.get("engine.prescreen", 0.0),
        "engine.prescreen_reject_ratio": _ratio(
            s("prescreen_rejects", 0),
            s("prescreen_rejects", 0) + s("evaluations", 0)),
        "engine.evaluations": s("evaluations", 0),
        # A parallel tune_population's own time is the wait on the pool;
        # a serial one's children (tune_genome) take all of its time.
        "engine.pool_wait_s": self_by.get("engine.tune_population", 0.0),
        "engine.parallel_tasks": s("parallel_tasks", 0),
        "analysis.pass_runs": sum(calls.get(f"analysis.{p}", 0)
                                  for p in PASSES),
        "batched.evaluations": s("batched_evaluations", 0),
        "batched.yield": _ratio(s("batched_evaluations", 0),
                                s("batch_fill", 0)),
        "batched.fallbacks": s("batch_fallbacks", 0),
        "batched.sweep_s": total_by.get("batched.sweep", 0.0),
        "cache.l1.hit_ratio": _ratio(
            s("subtree_hits", 0), s("subtree_hits", 0) + s("subtree_misses", 0)),
        "cache.l1.evictions": s("subtree_evictions", 0),
        "cache.l2.hits": s("subtree_l2_hits", 0),
        "cache.l3.hits": s("subtree_l3_hits", 0),
        "cache.l3.load_s": l3_load,
        "cache.l3.flush_s": total_by.get("cache.l3.flush", 0.0),
        "baselines.polyhedron_s": self_by.get("baselines.polyhedron", 0.0),
        "baselines.graphbased_s": self_by.get("baselines.graphbased", 0.0),
        "sim.accelerator_s": self_by.get("sim.accelerator", 0.0),
        "dataflows.build_s": self_by.get("dataflows.build", 0.0),
    })
    for p in PASSES:
        out[f"analysis.{p}_s"] = self_by.get(f"analysis.{p}", 0.0)
    return out


def format_self_table(tracer: Tracer) -> str:
    """Per-layer and per-span self time, largest first."""
    rows = sorted(tracer.totals().items(), key=lambda kv: -kv[1]["self_s"])
    lines = ["layer self time (s): " + ", ".join(
        f"{layer}={sec:.3f}" for layer, sec in sorted(
            tracer.layer_table().items(), key=lambda kv: -kv[1]))]
    lines.append(f"{'span':28s} {'layer':16s} {'calls':>8s} "
                 f"{'total_s':>9s} {'self_s':>9s}")
    for name, row in rows:
        lines.append(f"{name:28s} {row['layer']:16s} {row['calls']:8d} "
                     f"{row['total_s']:9.3f} {row['self_s']:9.3f}")
    return "\n".join(lines)
