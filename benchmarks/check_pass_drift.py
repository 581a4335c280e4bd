#!/usr/bin/env python
"""CI guard: fail when a pipeline pass's self-time share drifts.

Compares the ``pass_self_times`` section of a freshly generated
``BENCH_pipeline.json`` against the checked-in baseline.  Shares (each
pass's fraction of total ``model.pass.*`` self time) are machine-scale
free: a uniformly slower runner leaves them unchanged, but a hot-path
regression in one analysis shows up as that pass's share growing.

A pass fails the check when its share moved by more than ``--max-drift``
(default 1.5x) in either direction *and* at least one side is above
``--min-share`` (default 3%) — tiny passes (validate, resource) jitter
by multiples of their microsecond self-times without meaning anything.

Two batched-layer guards ride along:

* ``--recompute`` drops the ``current`` argument and measures the
  shares in-process instead, *after* running a batched MCTS tune in the
  same process — the batched sweeps must not perturb the scalar
  pipeline's per-pass profile (they price candidates outside it);
* ``--spot-check N`` prices a seeded random factor cohort of one fused
  genome through the batched ``CohortEvaluator`` and re-evaluates every
  priced member on a scalar-only engine: costs must match exactly.

Usage::

    python benchmarks/check_pass_drift.py BENCH_pipeline.json \
        BENCH_pipeline_current.json
    python benchmarks/check_pass_drift.py BENCH_pipeline.json \
        --recompute --spot-check 24

Exits 0 when every pass is within bounds and every spot check matched,
1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from typing import Dict, List


def load_shares(path: str) -> dict:
    with open(path) as handle:
        report = json.load(handle)
    section = report.get("pass_self_times")
    if not section or "passes" not in section:
        raise SystemExit(f"{path}: no pass_self_times section — regenerate "
                         f"with benchmarks/bench_pipeline.py")
    return {name: entry["share"]
            for name, entry in section["passes"].items()}


def recompute_shares_batched() -> dict:
    """Per-pass self-time shares measured with batching exercised.

    Runs a real batched MCTS tune first (enough samples to clear
    ``BATCH_MIN_SAMPLES``, so sweeps actually dispatch), then profiles
    the scalar pipeline with ``bench_pipeline.pass_self_times`` in the
    same process.  The batched layer lives entirely outside the
    ``model.pass.*`` spans, so the shares must match the checked-in
    scalar baseline within normal drift.
    """
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from bench_pipeline import pass_self_times

    from repro import arch as arch_mod
    from repro import workloads
    from repro.analysis.batched.sweep import BATCH_MIN_SAMPLES
    from repro.engine import EvaluationEngine
    from repro.mapper import Genome

    workload = workloads.self_attention(2, 32, 64, expand_softmax=True)
    engine = EvaluationEngine(workload, arch_mod.edge(), batched=True)
    rng = random.Random(11)
    swept = 0
    for _ in range(10):  # not every random genome is batchable
        engine.tune_genome(Genome.random(workload, rng), seed=0,
                           samples=BATCH_MIN_SAMPLES)
        swept = engine.stats.to_dict().get("batch_fill", 0)
        if swept:
            break
    engine.shutdown()
    print(f"[drift] recompute: batched tune swept {swept} candidates "
          f"before profiling")
    section = pass_self_times()
    return {name: entry["share"]
            for name, entry in section["passes"].items()}


def spot_check(samples: int, seed: int) -> List[str]:
    """Scalar-vs-batched equality over one random cohort (see module
    docstring).  Returns a list of failure descriptions (empty = pass).
    """
    from repro import arch as arch_mod
    from repro import workloads
    from repro.analysis.batched.kernels import BatchedError
    from repro.analysis.batched.sweep import CohortEvaluator
    from repro.engine import EvaluationEngine
    from repro.mapper import Genome
    from repro.mapper.encoding import genome_factor_space

    workload = workloads.self_attention(2, 32, 64, expand_softmax=True)
    arch = arch_mod.edge()
    rng = random.Random(seed)
    batched_engine = EvaluationEngine(workload, arch, batched=True)
    scalar_engine = EvaluationEngine(workload, arch, batched=False)
    evaluator = None
    while evaluator is None:
        genome = Genome.random(workload, rng)
        try:
            evaluator = CohortEvaluator(
                batched_engine, genome,
                genome_factor_space(workload, genome))
        except BatchedError:
            continue
    choices = evaluator.planner.choices
    members = {tuple(rng.randrange(len(c)) for c in choices)
               for _ in range(samples)}
    costs = evaluator.costs_for(sorted(members))

    failures: List[str] = []
    checked = fallbacks = 0
    for member, cost in sorted(costs.items()):
        if cost is None:
            fallbacks += 1
            continue
        point = evaluator.planner.point_at(member)
        scalar = scalar_engine.cost_of(
            scalar_engine.evaluate_genome(genome, point))
        checked += 1
        if float(cost) != float(scalar):
            failures.append(f"cohort member {member}: batched cost {cost!r} "
                            f"!= scalar {scalar!r}")
    print(f"[drift] spot-check: {checked} members cost-compared, "
          f"{fallbacks} scalar fallbacks, {len(failures)} mismatches")

    if checked == 0:
        failures.append("spot check priced no members (all fell back)")
    batched_engine.shutdown()
    scalar_engine.shutdown()
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="checked-in BENCH_pipeline.json")
    parser.add_argument("current", nargs="?",
                        help="freshly generated report (omit with "
                             "--recompute)")
    parser.add_argument("--max-drift", type=float, default=1.5,
                        help="allowed share ratio in either direction")
    parser.add_argument("--min-share", type=float, default=0.03,
                        help="ignore passes below this share on both sides")
    parser.add_argument("--recompute", action="store_true",
                        help="measure current shares in-process with the "
                             "batched layer exercised first")
    parser.add_argument("--spot-check", type=int, default=0, metavar="N",
                        help="also cost/artifact-compare a random N-member "
                             "cohort between the batched and scalar paths")
    parser.add_argument("--spot-seed", type=int, default=20260808,
                        help="random seed of the spot-check cohort")
    args = parser.parse_args(argv)
    if bool(args.current) == bool(args.recompute):
        parser.error("pass exactly one of: a current report, --recompute")

    base = load_shares(args.baseline)
    curr = (recompute_shares_batched() if args.recompute
            else load_shares(args.current))
    failures = []
    for name in sorted(set(base) | set(curr)):
        b, c = base.get(name, 0.0), curr.get(name, 0.0)
        if max(b, c) < args.min_share:
            print(f"[drift] {name}: {b:.1%} -> {c:.1%} (below "
                  f"{args.min_share:.0%} floor, ignored)")
            continue
        if b <= 0.0 or c <= 0.0:
            failures.append((name, b, c, float("inf")))
            continue
        ratio = max(b / c, c / b)
        status = "FAIL" if ratio > args.max_drift else "ok"
        print(f"[drift] {name}: {b:.1%} -> {c:.1%} ({ratio:.2f}x, {status})")
        if ratio > args.max_drift:
            failures.append((name, b, c, ratio))

    spot_failures: List[str] = []
    if args.spot_check > 0:
        spot_failures = spot_check(args.spot_check, args.spot_seed)

    if failures or spot_failures:
        for name, b, c, ratio in failures:
            print(f"[drift] ERROR: pass {name!r} share drifted "
                  f"{b:.1%} -> {c:.1%} (>{args.max_drift:.2f}x)",
                  file=sys.stderr)
        for line in spot_failures:
            print(f"[drift] ERROR: {line}", file=sys.stderr)
        return 1
    print(f"[drift] all passes within {args.max_drift:.2f}x of baseline"
          + (", spot check clean" if args.spot_check else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
