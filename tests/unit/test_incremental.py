"""Unit tests for the incremental evaluation layer.

Covers the contracts the perf work leans on:

* ``AnalysisContext.invalidate`` re-arms a context after an in-place
  tree mutation — re-analysis is byte-identical to a fresh context, and
  untouched sibling subtrees are served from the surviving
  fingerprint-keyed memos.
* Foreign-node queries raise :class:`ForeignNodeError` (never stale
  geometry), with a message that points at ``invalidate()``.
* :class:`SubtreeArtifactCache` / :class:`KindStore` semantics: the
  global entry bound, insertion-order eviction, the ``None`` miss
  sentinel, and per-kind stats.
* Engine plumbing: ``subtree_hits``/``subtree_misses`` move only when
  incremental evaluation is on; the EDP partial path counts skipped
  energy passes; the obs profile renders the incremental section.
"""

import random

import pytest

from repro import arch as arch_mod
from repro import obs
from repro.analysis import AnalysisContext, TileFlowModel
from repro.engine import EvaluationEngine
from repro.engine.cache import SubtreeArtifactCache
from repro.errors import ForeignNodeError
from repro.mapper import Genome, build_genome_tree, genome_factor_space
from repro.workloads import self_attention

WL = self_attention(2, 32, 64, expand_softmax=False)
SPEC = arch_mod.edge()


def _loops_repr(node):
    return tuple(repr(lp) for lp in node.loops)


def _genome_trees(seed=7):
    """Two structurally identical trees at different factor points."""
    rng = random.Random(seed)
    genome = Genome.random(WL, rng)
    space = genome_factor_space(WL, genome)
    a = space.random_point(rng)
    b = space.random_point(rng)
    while b == a:
        b = space.random_point(rng)
    return (build_genome_tree(WL, SPEC, genome, a),
            build_genome_tree(WL, SPEC, genome, b))


# ----------------------------------------------------------------------
# invalidate() semantics
# ----------------------------------------------------------------------
def test_invalidate_reanalysis_matches_fresh_context():
    """Mutate loops in place, invalidate, re-run: equals a fresh eval."""
    tree1, tree2 = _genome_trees()
    model = TileFlowModel(SPEC)
    ctx = model.context(tree1)
    before = model.evaluate(tree1, context=ctx).to_dict()

    # Graft tree2's loop configuration onto tree1's nodes in place —
    # exactly what a mapper move on a live tree does.
    for n1, n2 in zip(tree1.root.walk(), tree2.root.walk()):
        n1.loops = n2.loops
    ctx.invalidate()
    after = model.evaluate(tree1, context=ctx).to_dict()

    fresh = model.evaluate(tree2).to_dict()
    after["tree"] = fresh["tree"] = None  # names differ, nothing else may
    before["tree"] = None
    assert after == fresh
    assert after != before


def test_invalidate_keeps_untouched_sibling_memos():
    """Only the mutated path recomputes; siblings reuse their slices."""
    tree1, tree2 = _genome_trees()
    model = TileFlowModel(SPEC)
    ctx = model.context(tree1)
    model.evaluate(tree1, context=ctx)

    groups = tree1.root.children_nodes()
    others = tree2.root.children_nodes()
    assert len(groups) >= 2, "attention genome trees have several groups"
    # Pick a group whose loop configuration actually differs between the
    # two factor points, and any other group as the untouched sibling.
    idx = next(i for i, (g, o) in enumerate(zip(groups, others))
               if any(_loops_repr(n) != _loops_repr(m)
                      for n, m in zip(g.walk(), o.walk())))
    mutated = groups[idx]
    untouched = groups[(idx + 1) % len(groups)]
    sibling_slices = ctx.node_slices(untouched)
    mutated_slices = ctx.node_slices(mutated)

    for n1, n2 in zip(mutated.walk(), others[idx].walk()):
        n1.loops = n2.loops
    ctx.invalidate(mutated)
    model.evaluate(tree1, context=ctx)

    # Same fingerprint -> same memo entry (object identity, not just
    # equality); the mutated group got fresh geometry.
    assert ctx.node_slices(untouched) is sibling_slices
    assert ctx.node_slices(mutated) is not mutated_slices


def test_invalidate_rejects_foreign_subtree():
    tree1, tree2 = _genome_trees()
    ctx = AnalysisContext(tree1, SPEC)
    with pytest.raises(ForeignNodeError):
        ctx.invalidate(tree2.root.children_nodes()[0])


def test_loops_setter_refreshes_split_memos():
    """The cached temporal/spatial split must follow in-place moves."""
    tree1, tree2 = _genome_trees()
    node, other = next(
        (n, m) for n, m in zip(tree1.root.walk(), tree2.root.walk())
        if _loops_repr(n) != _loops_repr(m))
    node.trip_count  # populate the split memo with the old loops
    node.loops = other.loops
    assert _loops_repr(node) == _loops_repr(other)
    assert [repr(lp) for lp in node.temporal_loops] == [
        repr(lp) for lp in other.temporal_loops]
    assert (node.temporal_trip_count, node.spatial_trip_count) == (
        other.temporal_trip_count, other.spatial_trip_count)


# ----------------------------------------------------------------------
# Foreign-node queries
# ----------------------------------------------------------------------
def test_foreign_node_query_raises():
    tree1, tree2 = _genome_trees()
    ctx = AnalysisContext(tree1, SPEC)
    foreign = tree2.root.children_nodes()[0]
    with pytest.raises(ForeignNodeError) as err:
        ctx.node_slices(foreign)
    assert "invalidate()" in str(err.value)
    with pytest.raises(ForeignNodeError):
        ctx.fingerprint(foreign)


# ----------------------------------------------------------------------
# SubtreeArtifactCache / KindStore
# ----------------------------------------------------------------------
def test_kind_store_basic_roundtrip_and_stats():
    cache = SubtreeArtifactCache(maxsize=10)
    store = cache.store("ns", "slices")
    assert store is cache.store("ns", "slices")
    assert cache.store("ns", "cov") is not store

    store.put("a", 1)
    assert store.data.get("a") == 1
    assert len(cache) == 1
    store.put("a", 2)  # overwrite, no new entry
    assert len(cache) == 1

    store.put("none", None)  # the miss sentinel is not storable
    assert "none" not in store.data

    stats = cache.stats()
    assert stats["entries"] == 1
    assert set(stats["hits_by_kind"]) == {"slices", "cov"}

    cache.clear()
    assert len(cache) == 0
    assert store.data == {}


def test_cache_bound_is_global_and_evicts_oldest():
    cache = SubtreeArtifactCache(maxsize=3)
    a = cache.store("ns", "a")
    b = cache.store("ns", "b")
    a.put("a1", 1)
    a.put("a2", 2)
    b.put("b1", 3)
    assert len(cache) == 3
    a.put("a3", 4)  # over the bound: evict the oldest entry of store a
    assert len(cache) == 3
    assert "a1" not in a.data and "a3" in a.data
    assert cache.evictions == 1

    # A fresh kind inserted into a full cache steals from the largest.
    c = cache.store("ns", "c")
    c.put("c1", 5)
    assert len(cache) == 3
    assert "c1" in c.data


def test_zero_size_cache_stores_nothing():
    cache = SubtreeArtifactCache(maxsize=0)
    store = cache.store("ns", "x")
    store.put("k", 1)
    assert store.data == {} and len(cache) == 0


def test_shared_memos_survive_across_contexts():
    """A second context over an identical tree hits the shared store."""
    tree1, _ = _genome_trees()
    cache = SubtreeArtifactCache()
    model = TileFlowModel(SPEC)
    r1 = model.evaluate(tree1,
                        context=model.context(tree1, artifact_cache=cache))
    assert cache.misses > 0 and len(cache) > 0

    tree1b, _ = _genome_trees()  # same seed -> structurally identical
    misses_before = cache.misses
    r2 = model.evaluate(tree1b,
                        context=model.context(tree1b, artifact_cache=cache))
    assert cache.hits > 0
    assert cache.misses == misses_before  # nothing recomputed
    assert r1.to_dict() == r2.to_dict()


# ----------------------------------------------------------------------
# Engine counters + obs profile
# ----------------------------------------------------------------------
def test_engine_subtree_counters_track_the_cache():
    rng = random.Random(3)
    genome = Genome.random(WL, rng)
    space = genome_factor_space(WL, genome)
    points = [space.random_point(rng) for _ in range(4)]

    engine = EvaluationEngine(WL, SPEC, incremental=True)
    for point in points:
        engine.evaluate_genome(genome, point)
    assert engine.subtree_cache is not None
    assert engine.stats.subtree_misses > 0
    assert engine.stats.subtree_hits > 0  # points share subtree configs
    assert engine.stats.subtree_hits + engine.stats.subtree_misses == sum(
        engine.subtree_cache.counts())

    plain = EvaluationEngine(WL, SPEC, incremental=False)
    for point in points:
        plain.evaluate_genome(genome, point)
    assert plain.subtree_cache is None
    assert plain.stats.subtree_hits == plain.stats.subtree_misses == 0


def test_edp_partial_path_counts_skipped_energy():
    cramped = SPEC.with_level("L1", capacity_bytes=256)
    engine = EvaluationEngine(WL, cramped, objective="edp",
                              prescreen=False)
    rng = random.Random(0)
    skipped = 0
    for _ in range(8):
        genome = Genome.random(WL, rng)
        factors = genome_factor_space(WL, genome).random_point(rng)
        engine.evaluate_genome(genome, factors)
        skipped = engine.stats.edp_energy_skipped
        if skipped:
            break
    assert skipped > 0


def test_profile_renders_incremental_section():
    obs.enable()
    try:
        engine = EvaluationEngine(WL, SPEC, incremental=True)
        rng = random.Random(5)
        genome = Genome.random(WL, rng)
        factors = genome_factor_space(WL, genome).random_point(rng)
        engine.evaluate_genome(genome, factors)
        engine.evaluate_genome(genome, factors)
        metrics = obs.metrics_snapshot()
    finally:
        tracer = obs.disable()
    text = obs.render_profile(tracer.spans, metrics)
    assert "== incremental analysis ==" in text
    assert "subtree artifact hit rate" in text
