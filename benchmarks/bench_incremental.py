#!/usr/bin/env python
"""Incremental-analysis benchmark: the persistent subtree cache.

Measures what the incremental evaluation layer (the
``SubtreeArtifactCache`` shared across ``EvaluationEngine`` calls) buys
during search, and proves it changes nothing but the wall clock:

* **MCTS factor search** — the headline number.  Three random genomes
  are each tuned with the engine's MCTS tuner (``--samples`` samples,
  default 400) with the subtree cache on and off, interleaved over
  ``--repeats`` rounds after a discarded warm-up, compared on min-time.
  Deep UCT descents revisit per-group tile configurations constantly,
  which is exactly what the group-flows cache layer serves.  The cache
  buys 1.23-1.73x here on a 2-vCPU host (docs/PERFORMANCE.md).
* **GA+MCTS mapper search** — end-to-end ``TileFlowMapper.explore`` with
  the cache on and off; the search trajectory (champion, factors, and
  the per-generation cost trace) must be identical in both configs.
* **Frozen-oracle identity** — every entry of
  ``tests/data/analysis_oracle.json`` (58 ``EvaluationResult.to_dict()``
  payloads frozen from the pre-refactor monolith) is recomputed through
  a *single shared* ``SubtreeArtifactCache``, so later entries are
  served from artifacts cached by earlier ones.  The serialized output
  must reproduce the frozen file byte-for-byte.

Champions are compared byte-exactly (``==`` on the full result tuples),
not approximately: the incremental layer only caches integer recursion
results and replays float contributions in their original accumulation
order, so cached and uncached runs are bit-identical by construction.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_incremental.py

Emits ``BENCH_incremental.json``.  Exits non-zero if the speedup floor
(``--min-speedup``, default 1.3) is missed or any identity check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from typing import Dict, List, Tuple

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import arch as arch_mod  # noqa: E402
from repro import workloads  # noqa: E402
from repro.engine import EvaluationEngine  # noqa: E402
from repro.engine.cache import SubtreeArtifactCache  # noqa: E402
from repro.mapper import Genome, TileFlowMapper  # noqa: E402

ORACLE_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tests",
                           "data", "analysis_oracle.json")


def mcts_run(args: argparse.Namespace, incremental: bool
             ) -> Tuple[float, List, Dict]:
    """One timed round: tune three fixed random genomes with MCTS."""
    workload = workloads.self_attention(args.heads, args.seq, args.hidden,
                                        expand_softmax=True)
    engine = EvaluationEngine(workload, arch_mod.edge(),
                              incremental=incremental)
    rng = random.Random(args.seed)
    genomes = [Genome.random(workload, rng) for _ in range(3)]
    start = time.perf_counter()
    champions = [engine.tune_genome(g, seed=100 + i, samples=args.samples)
                 for i, g in enumerate(genomes)]
    seconds = time.perf_counter() - start
    stats = {"engine": engine.stats.to_dict()}
    if engine.subtree_cache is not None:
        stats["subtree_cache"] = engine.subtree_cache.stats()
    engine.shutdown()
    return seconds, champions, stats


def mapper_run(args: argparse.Namespace, incremental: bool
               ) -> Tuple[float, Tuple]:
    """One timed round: full GA+MCTS exploration."""
    workload = workloads.self_attention(args.heads, args.seq, args.hidden,
                                        expand_softmax=True)
    mapper = TileFlowMapper(workload, arch_mod.edge(), seed=args.seed,
                            incremental=incremental)
    start = time.perf_counter()
    result = mapper.explore(generations=args.generations,
                            population=args.population,
                            mcts_samples=args.mapper_samples)
    seconds = time.perf_counter() - start
    trajectory = (result.best_cost, result.best_factors, tuple(result.trace))
    return seconds, trajectory


def oracle_through_shared_cache() -> Dict[str, object]:
    """Recompute the frozen oracle with one persistent subtree cache.

    Same entry recipe as ``tests/property/test_prop_pipeline.py``
    (inlined — the bench jobs run without the test dependencies), but
    every evaluation's context carries the *same*
    ``SubtreeArtifactCache``, so entries are incrementally served from
    each other's artifacts.  The serialized output must still match the
    frozen pre-refactor file byte-for-byte.
    """
    from repro.analysis import TileFlowModel
    from repro.dataflows import (ATTENTION_DATAFLOWS, CONV_DATAFLOWS,
                                 attention_dataflow, conv_dataflow)
    from repro.mapper import build_genome_tree, genome_factor_space
    from repro.workloads import (ATTENTION_SHAPES, CONV_CHAIN_SHAPES,
                                 attention_from_shape, conv_chain_from_shape,
                                 self_attention)

    cache = SubtreeArtifactCache()

    def evaluate(model, tree):
        ctx = model.context(tree, artifact_cache=cache)
        return model.evaluate(tree, context=ctx)

    out = {}
    for shape in ("Bert-S", "ViT/16-B"):
        wl = attention_from_shape(ATTENTION_SHAPES[shape])
        for aname, spec in (("edge", arch_mod.edge()),
                            ("cloud", arch_mod.cloud())):
            model = TileFlowModel(spec)
            for df in ATTENTION_DATAFLOWS:
                r = evaluate(model, attention_dataflow(df, wl, spec))
                out[f"attn/{shape}/{aname}/{df}"] = r.to_dict()
    wl = conv_chain_from_shape(CONV_CHAIN_SHAPES["CC1"])
    spec = arch_mod.edge()
    model = TileFlowModel(spec)
    for df in CONV_DATAFLOWS:
        r = evaluate(model, conv_dataflow(df, wl, spec))
        out[f"conv/CC1/edge/{df}"] = r.to_dict()
    wl = self_attention(2, 32, 64, expand_softmax=False)
    model = TileFlowModel(spec)
    rng = random.Random(1234)
    for i in range(30):
        genome = Genome.random(wl, rng)
        factors = genome_factor_space(wl, genome).random_point(rng)
        tree = build_genome_tree(wl, spec, genome, factors)
        out[f"genome/{i}"] = evaluate(model, tree).to_dict()

    current = json.dumps(out, sort_keys=True, indent=1)
    with open(ORACLE_PATH) as handle:
        frozen = handle.read()
    return {
        "entries": len(out),
        "byte_identical": current == frozen,
        "cache_stats": cache.stats(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=400,
                        help="MCTS samples per genome in the timed section")
    parser.add_argument("--repeats", type=int, default=2,
                        help="interleaved timed rounds per config")
    parser.add_argument("--generations", type=int, default=6)
    parser.add_argument("--population", type=int, default=10)
    parser.add_argument("--mapper-samples", type=int, default=40,
                        help="MCTS samples per genome in the mapper section")
    parser.add_argument("--heads", type=int, default=2)
    parser.add_argument("--seq", type=int, default=32)
    parser.add_argument("--hidden", type=int, default=64)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--min-speedup", type=float, default=1.3,
                        help="required MCTS speedup (incremental over not)")
    parser.add_argument("--out", default="BENCH_incremental.json")
    args = parser.parse_args(argv)

    # -- MCTS factor search (the headline) ---------------------------------
    print("[bench] warm-up round (discarded) ...", flush=True)
    mcts_run(args, incremental=False)
    mcts_run(args, incremental=True)

    times: Dict[str, List[float]] = {"off": [], "on": []}
    champions: Dict[str, List] = {}
    stats: Dict[str, Dict] = {}
    for round_no in range(args.repeats):
        for name, incremental in (("off", False), ("on", True)):
            seconds, champs, st = mcts_run(args, incremental)
            times[name].append(seconds)
            champions[name] = champs
            stats[name] = st
            print(f"[bench] round {round_no + 1}/{args.repeats} "
                  f"incremental={name}: {seconds:.3f}s", flush=True)
    mcts_off, mcts_on = min(times["off"]), min(times["on"])
    mcts_speedup = mcts_off / mcts_on
    mcts_identical = champions["off"] == champions["on"]
    print(f"[bench] MCTS: off {mcts_off:.3f}s on {mcts_on:.3f}s "
          f"-> {mcts_speedup:.2f}x, champions identical: {mcts_identical}",
          flush=True)

    # -- full mapper search ------------------------------------------------
    mapper_run(args, incremental=False)  # warm-up, discarded
    mapper_run(args, incremental=True)
    m_off, traj_off = mapper_run(args, incremental=False)
    m_on, traj_on = mapper_run(args, incremental=True)
    mapper_speedup = m_off / m_on
    mapper_identical = traj_off == traj_on
    print(f"[bench] mapper: off {m_off:.3f}s on {m_on:.3f}s "
          f"-> {mapper_speedup:.2f}x, trajectories identical: "
          f"{mapper_identical}", flush=True)

    # -- oracle byte-identity through the shared cache ---------------------
    print("[bench] frozen oracle through one shared cache ...", flush=True)
    oracle = oracle_through_shared_cache()
    print(f"[bench] oracle byte-identical: {oracle['byte_identical']}",
          flush=True)

    report = {
        "benchmark": "incremental_analysis",
        "params": {
            "samples": args.samples, "repeats": args.repeats,
            "generations": args.generations, "population": args.population,
            "mapper_samples": args.mapper_samples,
            "workload": f"attention(h={args.heads}, s={args.seq}, "
                        f"d={args.hidden}, expand_softmax=True)",
            "seed": args.seed, "min_speedup": args.min_speedup,
        },
        "cpu_count": os.cpu_count(),
        "mcts_search": {
            "seconds_off": times["off"], "seconds_on": times["on"],
            "min_seconds_off": mcts_off, "min_seconds_on": mcts_on,
            "speedup": mcts_speedup,
            "champions_identical": mcts_identical,
            "engine_stats_on": stats["on"]["engine"],
            "subtree_cache_stats": stats["on"].get("subtree_cache"),
        },
        "mapper_search": {
            "seconds_off": m_off, "seconds_on": m_on,
            "speedup": mapper_speedup,
            "trajectories_identical": mapper_identical,
        },
        "oracle": oracle,
    }
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"[bench] wrote {args.out}")

    failures = []
    if mcts_speedup < args.min_speedup:
        failures.append(f"MCTS speedup {mcts_speedup:.2f}x < "
                        f"{args.min_speedup:.2f}x floor")
    if not mcts_identical:
        failures.append("MCTS champions differ with incremental on")
    if not mapper_identical:
        failures.append("mapper trajectories differ with incremental on")
    if not oracle["byte_identical"]:
        failures.append("oracle output differs through the shared cache")
    for failure in failures:
        print(f"[bench] ERROR: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
