#!/usr/bin/env python
"""Tiered artifact store benchmark: L3 warm-start and segmented eviction.

Measures what the cache tiers buy on top of the in-process (L1) subtree
artifact cache, and proves the tiers change nothing but the wall clock:

* **L3 warm-start** — the headline number.  A fixed MCTS factor search
  (two random genomes, ``--samples`` samples each) runs against a fresh
  ``--cache-dir`` (cold: empty disk, pays the flush on shutdown) and
  then repeats with a brand-new engine against the now-populated
  directory (warm: every tiered artifact kind is served from disk
  instead of recomputed).  Cold and warm rounds interleave over
  ``--repeats`` rounds and are compared on min-time.  The PR's
  acceptance bar is a >= 1.5x cold/warm speedup, with byte-identical
  champions and a nonzero ``subtree_l3_hits`` count in the warm arm.
* **Segmented eviction at the 8,192 bound** — a cyclic re-evaluation
  sweep (``--sweep-trees`` random mappings evaluated for
  ``--sweep-rounds`` rounds, the evaluation-service sweep/rerun access
  shape) whose artifact working set overflows the default L1 bound.
  Insertion-order eviction degenerates to full per-round turnover;
  segmented (probationary/protected) eviction promotes re-hit entries
  and redirects churn onto one-shot probationary ones.  The gate:
  protected-kind (``groupflows``) evictions strictly
  reduced vs the insertion-order baseline at the same bound, with
  byte-identical evaluation results.
* **Frozen-oracle identity through cold L1 + warm L3** — every entry of
  ``tests/data/analysis_oracle.json`` is computed once through an
  L3-backed cache (seeding the disk tier), then recomputed through a
  *fresh* L1 fronting the same disk store.  The second pass must
  reproduce the frozen file byte-for-byte while actually serving
  artifacts from disk (nonzero L3 hits).

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_cache.py

Emits ``BENCH_cache.json``.  Exits non-zero if the warm-start floor
(``--min-speedup``, default 1.5) is missed, protected-kind evictions
are not reduced, or any identity check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import sys
import tempfile
import time
from typing import Dict, List, Tuple

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import arch as arch_mod  # noqa: E402
from repro.engine import EvaluationEngine  # noqa: E402
from repro.engine.cache import (DiskArtifactStore,  # noqa: E402
                                SubtreeArtifactCache)
from repro.mapper import (Genome, build_genome_tree,  # noqa: E402
                          genome_factor_space)
from repro.workloads import (ATTENTION_SHAPES,  # noqa: E402
                             attention_from_shape)

ORACLE_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tests",
                           "data", "analysis_oracle.json")

#: The kinds the segmented policy exists to protect (high re-use,
#: expensive to recompute) — the eviction gate counts these.
PROTECTED_KINDS = ("groupflows",)


def _workload(args: argparse.Namespace):
    return attention_from_shape(ATTENTION_SHAPES[args.workload])


# ---------------------------------------------------------------------------
# Arm 1: L3 warm-start on a repeated search.

def search_run(args: argparse.Namespace, cache_dir: str
               ) -> Tuple[float, List, Dict]:
    """One timed repeated-search unit: build an engine against
    ``cache_dir``, tune two fixed random genomes, shut down (flushing
    the disk tier).  Timing covers the whole rerun including the flush —
    the honest cost of ``repro search --cache-dir`` end to end."""
    workload = _workload(args)
    rng = random.Random(args.seed)
    genomes = [Genome.random(workload, rng) for _ in range(2)]
    start = time.perf_counter()
    engine = EvaluationEngine(workload, arch_mod.edge(),
                              subtree_cache_size=args.warm_bound,
                              cache_dir=cache_dir)
    champions = [engine.tune_genome(g, seed=100 + i, samples=args.samples)
                 for i, g in enumerate(genomes)]
    engine.shutdown()
    seconds = time.perf_counter() - start
    stats = {"engine": engine.stats.to_dict(),
             "subtree_cache": engine.subtree_cache.stats()}
    return seconds, champions, stats


def warm_start_arm(args: argparse.Namespace) -> Dict[str, object]:
    scratch = tempfile.mkdtemp(prefix="bench-cache-")
    try:
        # Discarded warm-up (interpreter/page-cache effects).
        search_run(args, os.path.join(scratch, "warmup"))

        seed_dir = os.path.join(scratch, "seed")
        times: Dict[str, List[float]] = {"cold": [], "warm": []}
        champions: Dict[str, List] = {}
        stats: Dict[str, Dict] = {}
        for round_no in range(args.repeats):
            # Cold: a directory this run has never seen.  Round 0's cold
            # run doubles as the seeding run for every warm round.
            cold_dir = (seed_dir if round_no == 0
                        else os.path.join(scratch, f"cold{round_no}"))
            for name, cache_dir in (("cold", cold_dir), ("warm", seed_dir)):
                seconds, champs, st = search_run(args, cache_dir)
                times[name].append(seconds)
                champions[name] = champs
                stats[name] = st
                print(f"[bench] round {round_no + 1}/{args.repeats} "
                      f"{name}: {seconds:.3f}s", flush=True)
        cold, warm = min(times["cold"]), min(times["warm"])
        speedup = cold / warm
        identical = champions["cold"] == champions["warm"]
        l3_hits = stats["warm"]["engine"]["subtree_l3_hits"]
        print(f"[bench] warm-start: cold {cold:.3f}s warm {warm:.3f}s "
              f"-> {speedup:.2f}x, champions identical: {identical}, "
              f"warm L3 hits: {l3_hits}", flush=True)
        return {
            "seconds_cold": times["cold"], "seconds_warm": times["warm"],
            "min_seconds_cold": cold, "min_seconds_warm": warm,
            "speedup": speedup,
            "champions_identical": identical,
            "warm_l3_hits": l3_hits,
            "warm_engine_stats": stats["warm"]["engine"],
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


# ---------------------------------------------------------------------------
# Arm 2: segmented vs insertion-order eviction at the default bound.

def _sweep_trees(args: argparse.Namespace) -> List:
    workload = _workload(args)
    spec = arch_mod.edge()
    rng = random.Random(args.seed + 31)
    out = []
    for _ in range(args.sweep_trees):
        genome = Genome.random(workload, rng)
        factors = genome_factor_space(workload, genome).random_point(rng)
        out.append(build_genome_tree(workload, spec, genome, factors))
    return out


def sweep_run(args: argparse.Namespace, trees: List, policy: str
              ) -> Dict[str, object]:
    """Cyclic sweep: every tree evaluated ``--sweep-rounds`` times
    through one bounded cache under ``policy``."""
    cache = SubtreeArtifactCache(args.bound, policy=policy)
    engine = EvaluationEngine(_workload(args), arch_mod.edge(),
                              subtree_cache=cache)
    results = []
    start = time.perf_counter()
    for _ in range(args.sweep_rounds):
        for tree in trees:
            results.append(engine.evaluate_tree(tree).to_dict())
    seconds = time.perf_counter() - start
    engine.shutdown()
    by_kind = cache.counts_by_kind()
    evictions = cache.evictions_by_kind()
    return {
        "policy": policy,
        "seconds": seconds,
        "results": results,
        "evictions_by_kind": evictions,
        "protected_evictions": sum(evictions.get(k, 0)
                                   for k in PROTECTED_KINDS),
        "hit_rates": {kind: h / (h + m)
                      for kind, (h, m, _e) in sorted(by_kind.items())
                      if h + m},
        "protected_hit_rate": (
            lambda h, m: h / (h + m) if h + m else 0.0)(
                sum(by_kind.get(k, (0, 0, 0))[0] for k in PROTECTED_KINDS),
                sum(by_kind.get(k, (0, 0, 0))[1] for k in PROTECTED_KINDS)),
    }


def eviction_arm(args: argparse.Namespace) -> Dict[str, object]:
    trees = _sweep_trees(args)
    arms = {}
    for policy in ("insertion", "segmented"):
        arms[policy] = sweep_run(args, trees, policy)
        print(f"[bench] sweep policy={policy}: "
              f"{arms[policy]['seconds']:.3f}s, protected evictions "
              f"{arms[policy]['protected_evictions']}", flush=True)
    identical = arms["insertion"].pop("results") == \
        arms["segmented"].pop("results")
    reduced = (arms["segmented"]["protected_evictions"]
               < arms["insertion"]["protected_evictions"])
    print(f"[bench] eviction: protected-kind evictions "
          f"{arms['insertion']['protected_evictions']} (insertion) -> "
          f"{arms['segmented']['protected_evictions']} (segmented), "
          f"reduced: {reduced}, results identical: {identical}",
          flush=True)
    return {
        "bound": args.bound,
        "sweep_trees": args.sweep_trees,
        "sweep_rounds": args.sweep_rounds,
        "insertion": arms["insertion"],
        "segmented": arms["segmented"],
        "protected_evictions_reduced": reduced,
        "results_identical": identical,
    }


# ---------------------------------------------------------------------------
# Arm 3: frozen oracle through cold L1 + warm L3.

def _oracle_payload(cache: SubtreeArtifactCache) -> Dict[str, object]:
    """The frozen-oracle entry recipe (same as
    ``tests/property/test_prop_pipeline.py`` and
    ``benchmarks/bench_incremental.py``), every evaluation carrying
    ``cache``."""
    from repro.analysis import TileFlowModel
    from repro.dataflows import (ATTENTION_DATAFLOWS, CONV_DATAFLOWS,
                                 attention_dataflow, conv_dataflow)
    from repro.workloads import (CONV_CHAIN_SHAPES, conv_chain_from_shape,
                                 self_attention)

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
    return out


def oracle_through_tiers() -> Dict[str, object]:
    """Seed an L3 store from one oracle pass, then reproduce the frozen
    file through a fresh (cold) L1 backed by that (warm) L3."""
    with open(ORACLE_PATH) as handle:
        frozen = handle.read()
    scratch = tempfile.mkdtemp(prefix="bench-cache-oracle-")
    try:
        store = DiskArtifactStore(os.path.join(scratch, "l3"))

        seed_cache = SubtreeArtifactCache()
        seed_cache.attach_l3(store)
        seed_out = _oracle_payload(seed_cache)
        seed_cache.flush_l3()
        seed_identical = json.dumps(seed_out, sort_keys=True,
                                    indent=1) == frozen

        warm_cache = SubtreeArtifactCache()  # cold L1 ...
        warm_cache.attach_l3(store)          # ... warm L3
        warm_out = _oracle_payload(warm_cache)
        warm_identical = json.dumps(warm_out, sort_keys=True,
                                    indent=1) == frozen
        _l2, l3_hits = warm_cache.tier_counts()
        return {
            "entries": len(warm_out),
            "seed_byte_identical": seed_identical,
            "warm_byte_identical": warm_identical,
            "warm_l3_hits": l3_hits,
            "disk_entries": store.stats()["total_entries"],
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="Bert-S",
                        choices=sorted(ATTENTION_SHAPES),
                        help="attention shape driving both timed arms")
    parser.add_argument("--samples", type=int, default=120,
                        help="MCTS samples per genome in the warm-start arm")
    parser.add_argument("--repeats", type=int, default=2,
                        help="interleaved cold/warm rounds")
    parser.add_argument("--warm-bound", type=int, default=32768,
                        help="L1 bound in the warm-start arm (large enough "
                             "that eviction does not bleed the flush)")
    parser.add_argument("--bound", type=int, default=8192,
                        help="L1 bound in the eviction arm (the default "
                             "production bound)")
    parser.add_argument("--sweep-trees", type=int, default=300,
                        help="distinct mappings in the cyclic sweep")
    parser.add_argument("--sweep-rounds", type=int, default=4,
                        help="times each mapping is re-evaluated")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--min-speedup", type=float, default=1.5,
                        help="required cold/warm L3 warm-start speedup")
    parser.add_argument("--out", default="BENCH_cache.json")
    args = parser.parse_args(argv)

    print("[bench] L3 warm-start on a repeated search ...", flush=True)
    warm_start = warm_start_arm(args)

    print("[bench] eviction policies under the cyclic sweep ...", flush=True)
    eviction = eviction_arm(args)

    print("[bench] frozen oracle through cold L1 + warm L3 ...", flush=True)
    oracle = oracle_through_tiers()
    print(f"[bench] oracle: seed identical "
          f"{oracle['seed_byte_identical']}, warm identical "
          f"{oracle['warm_byte_identical']}, warm L3 hits "
          f"{oracle['warm_l3_hits']}", flush=True)

    report = {
        "benchmark": "tiered_artifact_store",
        "params": {
            "workload": args.workload, "samples": args.samples,
            "repeats": args.repeats, "warm_bound": args.warm_bound,
            "bound": args.bound, "sweep_trees": args.sweep_trees,
            "sweep_rounds": args.sweep_rounds, "seed": args.seed,
            "min_speedup": args.min_speedup,
        },
        "cpu_count": os.cpu_count(),
        "warm_start": warm_start,
        "eviction_policy": eviction,
        "oracle": oracle,
    }
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"[bench] wrote {args.out}")

    failures = []
    if warm_start["speedup"] < args.min_speedup:
        failures.append(f"L3 warm-start speedup {warm_start['speedup']:.2f}x "
                        f"< {args.min_speedup:.2f}x floor")
    if not warm_start["champions_identical"]:
        failures.append("champions differ between cold and L3-warm runs")
    if not warm_start["warm_l3_hits"]:
        failures.append("warm search never hit the L3 tier")
    if not eviction["protected_evictions_reduced"]:
        failures.append(
            f"protected-kind evictions not reduced: insertion "
            f"{eviction['insertion']['protected_evictions']} vs segmented "
            f"{eviction['segmented']['protected_evictions']}")
    if not eviction["results_identical"]:
        failures.append("sweep results differ between eviction policies")
    if not (oracle["seed_byte_identical"] and oracle["warm_byte_identical"]):
        failures.append("oracle output differs through the cache tiers")
    if not oracle["warm_l3_hits"]:
        failures.append("oracle warm pass never hit the L3 tier")
    for failure in failures:
        print(f"[bench] ERROR: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
