"""Unit tests for the batched analysis layer.

Covers the checked int64 kernels (dtype gates, exact overflow
detection with adversarially large loop bounds), the cohort planner's
per-group structure keys, the engine integration (sample-budget gate,
hook exception-disable, stats attribution), the obs/report surfaces,
and the L3 purge budgets that ride along in this change.
"""

import random
import time

import numpy as np
import pytest

from repro import arch
from repro.analysis.batched.kernels import (BatchedError,
                                            BatchedOverflowError, I8,
                                            abs64, add64, as_i8, box64,
                                            cdiv64, movement64, mul64,
                                            sub64)
from repro.analysis.batched.sweep import (BATCH_MIN_SAMPLES,
                                          CohortEvaluator)
from repro.engine import EvaluationEngine
from repro.mapper import Genome, genome_factor_space
from repro.workloads import self_attention

WL = self_attention(2, 32, 64, expand_softmax=True)
SPEC = arch.edge()


def _batchable(seed=11):
    """First batchable (engine, genome, evaluator) of the seeded stream."""
    rng = random.Random(seed)
    engine = EvaluationEngine(WL, SPEC, batched=True)
    while True:
        genome = Genome.random(WL, rng)
        try:
            return engine, genome, CohortEvaluator(
                engine, genome, genome_factor_space(WL, genome))
        except BatchedError:
            continue


# -- checked kernels -----------------------------------------------------

class TestKernels:
    def test_dtype_gate_rejects_non_int64(self):
        with pytest.raises(BatchedError, match="int64"):
            as_i8(np.arange(4, dtype=np.int32))
        with pytest.raises(BatchedError, match="int64"):
            mul64(np.arange(4, dtype=np.float64), np.int64(2))
        with pytest.raises(BatchedError, match="int64"):
            add64(np.arange(4, dtype=I8), np.arange(4, dtype=np.uint64))

    def test_python_int_operand_too_large_raises(self):
        with pytest.raises(BatchedOverflowError):
            mul64(np.ones(2, dtype=I8), 2 ** 63)

    def test_mul64_overflow_raises_not_wraps(self):
        # Adversarially large loop bounds: a tile recursion with counts
        # near 2^32 squares straight past 2^63.
        big = np.full(3, 2 ** 32, dtype=I8)
        with pytest.raises(BatchedOverflowError):
            mul64(big, big)
        # The check is exact — the largest representable products pass.
        assert mul64(np.int64(2 ** 62), np.int64(1)) == 2 ** 62
        ok = mul64(np.full(3, 2 ** 31, dtype=I8),
                   np.full(3, 2 ** 31, dtype=I8))
        assert (ok == 2 ** 62).all()

    def test_add_sub_overflow(self):
        top = np.array([2 ** 63 - 1], dtype=I8)
        with pytest.raises(BatchedOverflowError):
            add64(top, np.int64(1))
        with pytest.raises(BatchedOverflowError):
            sub64(np.array([-(2 ** 63)], dtype=I8), np.int64(1))
        assert add64(top, np.int64(0)) == 2 ** 63 - 1
        assert sub64(top, top)[0] == 0

    def test_abs64_int64_min(self):
        with pytest.raises(BatchedOverflowError):
            abs64(np.array([-(2 ** 63)], dtype=I8))
        assert (abs64(np.array([-5, 5], dtype=I8)) == 5).all()

    def test_cdiv64_matches_python_ceil(self):
        a = np.array([0, 1, 7, 8, 9], dtype=I8)
        assert list(cdiv64(a, np.int64(4))) == [0, 1, 2, 2, 3]

    def test_box64_clamps_negative_extents(self):
        vol = box64([np.array([3, -1], dtype=I8),
                     np.array([4, 7], dtype=I8)], 2)
        assert list(vol) == [12, 0]

    def test_movement64_matches_scalar_recursion(self):
        # One lane, two levels: s = (c-1)*(d+s)+s, innermost first.
        volume = np.array([10], dtype=I8)
        counts = [np.array([3], dtype=I8), np.array([2], dtype=I8)]
        deltas = [np.array([4], dtype=I8), np.array([5], dtype=I8)]
        s = 0
        for c, d in ((2, 5), (3, 4)):  # innermost (last) first
            s = (c - 1) * (d + s) + s
        assert movement64(volume, counts, deltas)[0] == 10 + s

    def test_movement64_overflow_on_huge_bounds(self):
        volume = np.array([1], dtype=I8)
        counts = [np.full(1, 2 ** 31, dtype=I8)] * 3
        deltas = [np.full(1, 2 ** 31, dtype=I8)] * 3
        with pytest.raises(BatchedOverflowError):
            movement64(volume, counts, deltas)


# -- cohort planner ------------------------------------------------------

class TestPlanner:
    def test_group_keys_partition_members(self):
        _, _, evaluator = _batchable()
        planner = evaluator.planner
        rng = random.Random(3)
        members = sorted({tuple(rng.randrange(len(c))
                                for c in planner.choices)
                          for _ in range(12)})
        plan = planner.plan(members)
        ngroups = len(planner.group_plans)
        assert len(plan.group_keys) == ngroups
        for gi in range(ngroups):
            keys = plan.group_keys[gi]
            assert len(keys) == len(members)
            # classes() positions must tile the member list exactly.
            seen = sorted(p for poss in plan.group_classes(gi).values()
                          for p in poss)
            assert seen == list(range(len(members)))
        # Same members -> byte-identical keys (pure function of factors).
        again = planner.plan(members)
        assert again.group_keys == plan.group_keys


# -- engine integration --------------------------------------------------

class TestEngineIntegration:
    def test_sample_budget_gate(self):
        engine, genome, _ = _batchable()
        space = genome_factor_space(WL, genome)
        assert engine._cohort_hook(genome, space,
                                   BATCH_MIN_SAMPLES - 1) is None
        assert engine._cohort_hook(genome, space,
                                   BATCH_MIN_SAMPLES) is not None
        off = EvaluationEngine(WL, SPEC, batched=False)
        assert off._cohort_hook(genome, space, BATCH_MIN_SAMPLES) is None

    def test_small_tunes_never_sweep(self):
        engine = EvaluationEngine(WL, SPEC, batched=True)
        genome = Genome.random(WL, random.Random(5))
        engine.tune_genome(genome, seed=1, samples=16)
        stats = engine.stats.to_dict()
        assert stats["batch_fill"] == 0
        assert stats["batched_evaluations"] == 0

    def test_stats_carry_batched_attribution(self):
        engine, genome, evaluator = _batchable()
        rng = random.Random(7)
        members = sorted({tuple(rng.randrange(len(c))
                                for c in evaluator.planner.choices)
                          for _ in range(8)})
        costs = evaluator.costs_for(members)
        stats = engine.stats.to_dict()
        committed = sum(1 for c in costs.values() if c is not None)
        assert stats["batch_fill"] >= len(members)
        assert stats["batched_evaluations"] >= committed > 0

    def test_tuner_disables_hook_on_exception(self):
        from repro.mapper.mcts import MCTSTuner
        genome = Genome.random(WL, random.Random(5))
        space = genome_factor_space(WL, genome)
        scalar = EvaluationEngine(WL, SPEC, batched=False)

        calls = {"n": 0}

        def exploding_hook(indices):
            calls["n"] += 1
            raise RuntimeError("boom")

        def run(batch):
            tuner = MCTSTuner(
                space, lambda p: scalar.cost_of(
                    scalar.evaluate_genome(genome, p)),
                seed=3, batch=batch)
            return tuner.search(40)

        assert run(exploding_hook) == run(None)
        assert calls["n"] == 1  # disabled permanently after first raise


# -- obs/report surfaces -------------------------------------------------

class TestReporting:
    def test_incremental_effectiveness_batched_keys(self):
        from repro.obs.report import incremental_effectiveness
        metrics = {
            "engine.subtree_hits": {"kind": "counter", "value": 10},
            "engine.subtree_misses": {"kind": "counter", "value": 10},
            "engine.batched_evaluations": {"kind": "counter", "value": 60},
            "engine.batch_fill": {"kind": "counter", "value": 80},
            "engine.batch_fallbacks": {"kind": "counter", "value": 4},
        }
        inc = incremental_effectiveness(metrics)
        assert inc["batched_evaluations"] == 60
        assert inc["batch_fill"] == 80
        assert inc["batch_fallbacks"] == 4
        assert inc["batch_yield"] == pytest.approx(0.75)
        # Batched counters alone keep the section alive...
        only = incremental_effectiveness(
            {"engine.batch_fill": {"kind": "counter", "value": 5}})
        assert only is not None and only["batch_fill"] == 5
        # ...but a run with no incremental and no batched activity is None.
        assert incremental_effectiveness({}) is None

    def test_render_profile_batched_line(self):
        from repro.obs.report import render_profile
        metrics = {
            "engine.subtree_hits": {"kind": "counter", "value": 1},
            "engine.subtree_misses": {"kind": "counter", "value": 1},
            "engine.batched_evaluations": {"kind": "counter", "value": 6},
            "engine.batch_fill": {"kind": "counter", "value": 8},
            "engine.batch_fallbacks": {"kind": "counter", "value": 2},
        }
        text = render_profile([], metrics)
        assert "batched candidate pricing" in text
        assert "6 of 8 swept candidates committed" in text

    def test_serve_stats_batched_block(self):
        from repro.serve.service import EvaluationService
        service = EvaluationService(workers=1)
        try:
            stats = service.stats()
            assert stats["batched"] == {"batched_evaluations": 0,
                                        "batch_fill": 0,
                                        "batch_fallbacks": 0}
        finally:
            service.stop()


# -- L3 purge budgets ----------------------------------------------------

class TestPurgeBudget:
    def _store(self, tmp_path):
        from repro.engine.cache import DiskArtifactStore
        store = DiskArtifactStore(str(tmp_path))
        for i in range(3):
            store.flush(f"ns{i}", "cov",
                        {f"k{j}": j for j in range(50 * (i + 1))})
        return store

    def test_max_age_drops_stale_shards(self, tmp_path):
        store = self._store(tmp_path)
        old = time.time() - 7200
        for pkl in store._shard_dir("ns0").glob("*.pkl"):
            import os
            os.utime(pkl, (old, old))
        removed = store.purge_budget(max_age_s=3600)
        assert removed == ["ns0"]
        assert len(store._shards()) == 2

    def test_max_bytes_trims_oldest_first(self, tmp_path):
        store = self._store(tmp_path)
        sizes = {}
        now = time.time()
        for i in range(3):
            import os
            for pkl in store._shard_dir(f"ns{i}").glob("*.pkl"):
                # Stamp ns0 oldest, ns2 newest.
                os.utime(pkl, (now - (3 - i) * 100, now - (3 - i) * 100))
                sizes[f"ns{i}"] = pkl.stat().st_size
        budget = sizes["ns1"] + sizes["ns2"]
        removed = store.purge_budget(max_bytes=budget)
        assert removed == ["ns0"]
        assert store.purge_budget(max_bytes=0) == ["ns1", "ns2"]
        assert store._shards() == []

    def test_no_budget_removes_nothing(self, tmp_path):
        store = self._store(tmp_path)
        assert store.purge_budget() == []
        assert len(store._shards()) == 3
