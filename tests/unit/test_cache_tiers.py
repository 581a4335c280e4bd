"""Unit tests for the tiered subtree artifact store.

Covers the contracts the tiering leans on:

* **L1 segmented eviction** — promotion on re-hit protects high-reuse
  entries; probationary churn is evicted first; under a reuse-heavy
  workload the segmented policy keeps protected-kind hit rates above
  (and protected-kind evictions below) the old insertion-order policy.
* **Counter lifecycle** — ``clear()`` drops entries but keeps lifetime
  counters (documented semantics); ``reset_counters()`` zeroes them;
  multi-threaded hammering leaves every per-tier counter exact.
* **L2** (cross-process mmap log) — round trip, first-writer-wins
  dedup, full-log refusal, attach-by-path, exact value round trips.
* **L3** (disk shards) — flush/load/merge, schema/namespace-mismatch
  and corrupt-file invalidation reading as a cold cache, purge
  selectors.
* **Engine integration** — a cold L1 backed by a warm L3 serves tier
  hits and reproduces results byte-identically; `tune_population`
  workers share artifacts through L2 without changing champions.
"""

import json
import pickle
import random
import threading

import pytest

from repro import arch as arch_mod
from repro.analysis import TileFlowModel
from repro.engine import EvaluationEngine
from repro.engine.cache import (DiskArtifactStore, SharedArtifactStore,
                                SubtreeArtifactCache, TIERED_KINDS)
from repro.engine.cache.l3 import L3_SCHEMA
from repro.mapper import Genome, build_genome_tree, genome_factor_space
from repro.workloads import self_attention

WL = self_attention(2, 32, 64, expand_softmax=False)
SPEC = arch_mod.edge()
NS = "testns|Edge#2|e1r1"


# ----------------------------------------------------------------------
# L1: segmented eviction
# ----------------------------------------------------------------------
def test_promotion_protects_entries_from_churn():
    cache = SubtreeArtifactCache(4)
    hot = cache.store(NS, "cov")
    hot.put("h1", 1)
    hot.touch("h1")  # re-hit -> protected
    churn = cache.store(NS, "slices")
    for i in range(20):
        churn.put(f"s{i}", i)
    assert "h1" in hot.data
    assert cache.total == 4
    assert hot.evictions == 0
    assert cache.evictions_by_kind() == {"slices": 17}


def test_probation_evicted_before_protected_within_store():
    cache = SubtreeArtifactCache(3)
    s = cache.store(NS, "cov")
    s.put("a", 1)
    s.put("b", 2)
    s.put("c", 3)
    s.touch("a")  # protect the oldest
    s.put("d", 4)  # bound hit: a probationary entry must go, not "a"
    assert "a" in s.data
    assert "b" not in s.data
    assert set(s.data) == {"a", "c", "d"}


def test_insertion_policy_is_the_old_behaviour():
    cache = SubtreeArtifactCache(3, policy="insertion")
    s = cache.store(NS, "cov")
    s.put("a", 1)
    s.put("b", 2)
    s.put("c", 3)
    s.touch("a")  # no promotion under the insertion policy
    s.put("d", 4)
    assert "a" not in s.data  # oldest went, promotion or not
    assert set(s.data) == {"b", "c", "d"}


def test_unknown_policy_rejected():
    with pytest.raises(ValueError):
        SubtreeArtifactCache(8, policy="lru")


def _churn_workload(cache, reuse_keys=8, churn_keys=400, rounds=2, passes=2):
    """A reuse-heavy working set under one-shot churn in the same store.

    Each round re-probes a small hot set ``passes`` times (the access
    shape of cov/groupflows on shared subtrees: probed repeatedly
    within and across evaluations), then inserts a burst of distinct
    one-shot fingerprints.  Returns the store's (hits, misses,
    evictions) — under insertion-order eviction the churn expels the
    hot set (it is oldest) every round; segmented promotion keeps it.
    """
    store = cache.store(NS, "cov")
    serial = 0
    for _ in range(rounds + 1):
        for _probe_pass in range(passes):
            for k in range(reuse_keys):
                key = f"hot{k}"
                if store.data.get(key) is None:
                    store.miss()
                    store.put(key, k)
                else:
                    store.touch(key)
        for _ in range(churn_keys):
            store.put(f"c{serial}", serial)
            serial += 1
    return store.hits, store.misses, store.evictions


def test_segmented_beats_insertion_under_pressure():
    """The satellite stress test: protected-kind hit rate above, and
    protected-kind evictions below, the insertion-order policy at the
    same small bound."""
    seg = SubtreeArtifactCache(64, policy="segmented")
    ins = SubtreeArtifactCache(64, policy="insertion")
    seg_h, seg_m, seg_e = _churn_workload(seg)
    ins_h, ins_m, ins_e = _churn_workload(ins)
    seg_rate = seg_h / (seg_h + seg_m)
    ins_rate = ins_h / (ins_h + ins_m)
    assert seg_e < ins_e, (seg_e, ins_e)
    assert seg_rate > ins_rate, (seg_rate, ins_rate)
    # Once promoted (the second probe pass of round one), the hot set
    # survives every later burst: it misses exactly once, ever.
    assert seg_m == 8
    # The insertion-order arm re-misses the whole hot set every round.
    assert ins_m == 24


# ----------------------------------------------------------------------
# counter lifecycle (the satellite bug fix)
# ----------------------------------------------------------------------
def test_clear_keeps_counters_reset_counters_zeroes_them():
    cache = SubtreeArtifactCache(4)
    s = cache.store(NS, "cov")
    s.put("a", 1)
    s.touch("a")
    s.miss()
    for i in range(9):
        s.put(f"x{i}", i)  # force evictions
    assert cache.eviction_count > 0
    ev_before = cache.eviction_count

    cache.clear()
    # clear() empties entries but documents that lifetime counters
    # survive (snapshot/diff attribution must not move backwards).
    assert cache.total == 0 and len(s.data) == 0 and not s.probation
    assert s.hits == 1 and s.misses == 1
    assert cache.eviction_count == ev_before
    assert s.evictions == ev_before

    cache.reset_counters()
    assert (s.hits, s.misses, s.evictions) == (0, 0, 0)
    assert (s.l2_hits, s.l3_hits) == (0, 0)
    assert cache.eviction_count == 0
    # entries (none here) would have survived: reset is counters-only.
    assert cache.counts() == (0, 0)
    assert cache.tier_counts() == (0, 0)


def test_multithread_hammer_keeps_tier_counters_exact(tmp_path):
    """The satellite hammer: concurrent touch/miss_through/put from many
    threads leaves hits + misses exactly equal to the probe count and
    l3_hits exactly equal to the number of tier-served misses."""
    l3 = DiskArtifactStore(str(tmp_path))
    persisted = {("k", i): i for i in range(64)}
    l3.flush(NS, "cov", persisted)

    cache = SubtreeArtifactCache(100_000)
    cache.attach_l3(l3)
    store = cache.store(NS, "cov")
    threads, per_thread = 8, 600
    tier_served = [0] * threads

    def hammer(tid):
        rng = random.Random(tid)
        for n in range(per_thread):
            key = ("k", rng.randrange(128))
            value = store.data.get(key)
            if value is None:
                value = store.miss_through(key)
                if value is not None:
                    tier_served[tid] += 1
                else:
                    store.put(key, key[1])
            else:
                store.touch(key)

    workers = [threading.Thread(target=hammer, args=(i,))
               for i in range(threads)]
    for t in workers:
        t.start()
    for t in workers:
        t.join()

    assert store.hits + store.misses == threads * per_thread
    assert store.l3_hits == sum(tier_served)
    assert store.l2_hits == 0
    assert 0 < store.l3_hits <= store.misses
    assert cache.tier_counts(NS) == (0, store.l3_hits)


# ----------------------------------------------------------------------
# L2: cross-process shared log
# ----------------------------------------------------------------------
def test_l2_roundtrip_dedup_and_attach(tmp_path):
    l2 = SharedArtifactStore.create(size=1 << 18, dir=str(tmp_path))
    key = ("sig", (4, 4), "walk")
    assert l2.put(NS, "cov", key, 123456789)
    assert not l2.put(NS, "cov", key, 0), "duplicate keys must dedup"
    assert l2.get(NS, "cov", key) == 123456789
    assert l2.get(NS, "cov", "absent") is None
    assert l2.get("other-ns", "cov", key) is None

    peer = SharedArtifactStore.attach(l2.path)
    assert peer.get(NS, "cov", key) == 123456789
    assert not peer.put(NS, "cov", key, 0)
    assert peer.put(NS, "groupflows", "k2", (1.5, 2.5))
    # The creator sees the peer's append through the shared mapping.
    assert l2.get(NS, "groupflows", "k2") == (1.5, 2.5)
    assert len(l2) == 2
    peer.close()
    l2.unlink()


def test_l2_values_roundtrip_exactly(tmp_path):
    l2 = SharedArtifactStore.create(size=1 << 18, dir=str(tmp_path))
    exact_int = 3**200  # far beyond float precision
    floats = (0.1 + 0.2, 1e-300, -0.0)
    l2.put(NS, "cov", "i", exact_int)
    l2.put(NS, "groupflows", "f", floats)
    assert l2.get(NS, "cov", "i") == exact_int
    got = l2.get(NS, "groupflows", "f")
    assert [f.hex() for f in got] == [f.hex() for f in floats]
    l2.unlink()


def test_l2_full_log_refuses_appends(tmp_path):
    l2 = SharedArtifactStore.create(size=256, dir=str(tmp_path))
    wrote = 0
    for i in range(64):
        if l2.put(NS, "cov", ("pad", i), i):
            wrote += 1
    assert 0 < wrote < 64
    assert l2.full
    assert l2.dropped > 0
    # Existing entries stay readable after the log fills.
    assert l2.get(NS, "cov", ("pad", 0)) == 0
    l2.unlink()


def test_l2_attach_rejects_non_stores(tmp_path):
    bogus = tmp_path / "not-a-store.bin"
    bogus.write_bytes(b"\x00" * 64)
    with pytest.raises(ValueError):
        SharedArtifactStore.attach(str(bogus))


# ----------------------------------------------------------------------
# L3: disk shards
# ----------------------------------------------------------------------
def test_l3_flush_load_merge(tmp_path):
    l3 = DiskArtifactStore(str(tmp_path))
    assert l3.load(NS, "cov") == {}
    assert l3.flush(NS, "cov", {"a": 1, "b": 2}) == 2
    assert l3.flush(NS, "cov", {"c": 3}) == 3, "flushes must merge"
    assert l3.load(NS, "cov") == {"a": 1, "b": 2, "c": 3}
    # Other kinds and namespaces are independent shards.
    l3.flush(NS, "groupflows", {"k": {"x": 1}})
    l3.flush("other|ns", "cov", {"z": 9})
    stats = l3.stats()
    assert stats["total_entries"] == 5
    assert len(stats["namespaces"]) == 2


def test_l3_schema_and_namespace_mismatch_read_cold(tmp_path):
    l3 = DiskArtifactStore(str(tmp_path))
    l3.flush(NS, "cov", {"a": 1})
    shard = next(p for p in l3.root.iterdir() if p.is_dir())
    path = shard / "cov.pkl"
    good = path.read_bytes()

    # Hash-prefix collision guard: the payload's recorded namespace must
    # match the probing namespace exactly, not just the dir hash.
    payload = pickle.loads(good)
    payload["namespace"] = "someone|else|entirely"
    path.write_bytes(pickle.dumps(payload))
    assert l3.load(NS, "cov") == {}
    assert l3.invalid == 1

    # Schema drift: a bumped payload schema reads as cold.
    payload = pickle.loads(good)
    payload["schema"] = L3_SCHEMA + 1
    path.write_bytes(pickle.dumps(payload))
    assert l3.load(NS, "cov") == {}
    assert l3.invalid == 2

    # Corruption reads as cold, never raises.
    path.write_bytes(b"garbage not pickle")
    assert l3.load(NS, "cov") == {}

    # The intact payload still loads (the store itself is fine).
    path.write_bytes(good)
    assert l3.load(NS, "cov") == {"a": 1}


def test_l3_purge_selectors(tmp_path):
    l3 = DiskArtifactStore(str(tmp_path))
    l3.flush("wlA|edge", "cov", {"a": 1})
    l3.flush("wlB|edge", "cov", {"b": 2})
    assert l3.purge("wlA") == ["wlA|edge"]
    assert l3.load("wlA|edge", "cov") == {}
    assert l3.load("wlB|edge", "cov") == {"b": 2}
    # Dir-hash prefixes select too (what `cache stats` prints).
    dir_name = next(p.name for p in l3.root.iterdir() if p.is_dir())
    assert l3.purge(dir_name[:8]) == ["wlB|edge"]
    assert l3.stats()["namespaces"] == []
    assert l3.clear() == 0


def test_l3_purge_spares_foreign_directories(tmp_path):
    l3 = DiskArtifactStore(str(tmp_path))
    l3.flush(NS, "cov", {"a": 1})
    foreign = l3.root / "not-a-shard"
    foreign.mkdir()
    (foreign / "precious.txt").write_text("do not delete")
    assert l3.clear() == 1
    assert (foreign / "precious.txt").exists()


# ----------------------------------------------------------------------
# engine integration: byte-identity through the tiers
# ----------------------------------------------------------------------
def _trees(n=6, seed=3):
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        genome = Genome.random(WL, rng)
        factors = genome_factor_space(WL, genome).random_point(rng)
        out.append(build_genome_tree(WL, SPEC, genome, factors))
    return out


def test_cold_l1_warm_l3_is_byte_identical(tmp_path):
    trees = _trees()
    # Reference: plain evaluations, no cache anywhere.
    model = TileFlowModel(SPEC)
    reference = [json.dumps(model.evaluate(t).to_dict(), sort_keys=True)
                 for t in _trees()]

    # Cold run with an L3-backed engine; shutdown flushes the tiers.
    cache_dir = str(tmp_path / "cache")
    with EvaluationEngine(WL, SPEC, cache_dir=cache_dir) as cold:
        cold_out = [json.dumps(cold.evaluate_tree(t).to_dict(),
                               sort_keys=True) for t in trees]
    assert cold.stats.subtree_l3_hits == 0

    # Fresh process-equivalent: new engine, empty L1, same cache dir.
    with EvaluationEngine(WL, SPEC, cache_dir=cache_dir) as warm:
        warm_out = [json.dumps(warm.evaluate_tree(t).to_dict(),
                               sort_keys=True) for t in _trees()]
    assert warm.stats.subtree_l3_hits > 0, "L3 never consulted"
    assert cold_out == reference
    assert warm_out == reference


def test_cache_persist_off_leaves_disk_untouched(tmp_path):
    cache_dir = str(tmp_path / "cache")
    trees = _trees(n=2)
    with EvaluationEngine(WL, SPEC, cache_dir=cache_dir,
                          cache_persist=False) as engine:
        for t in trees:
            engine.evaluate_tree(t)
    assert DiskArtifactStore(cache_dir).stats()["namespaces"] == []


def test_workers_share_l2_and_champions_match():
    rng = random.Random(5)
    genomes = [Genome.random(WL, rng) for _ in range(4)]
    seeds = [100 + i for i in range(len(genomes))]

    with EvaluationEngine(WL, SPEC, workers=1) as serial:
        expected = serial.tune_population(genomes, seeds, samples=6)

    with EvaluationEngine(WL, SPEC, workers=2) as parallel:
        got = parallel.tune_population(genomes, seeds, samples=6)
        l2 = parallel._l2
        if parallel.stats.parallel_tasks:  # pool actually stood up
            assert l2 is not None
            assert l2.stats()["entries"] > 0, \
                "workers never published artifacts to L2"
    assert got == expected


def test_only_tiered_kinds_reach_l2(tmp_path):
    l2 = SharedArtifactStore.create(size=1 << 18, dir=str(tmp_path))
    cache = SubtreeArtifactCache(1024)
    cache.attach_l2(l2)
    cache.store(NS, "slices").put("fp", object())  # unpicklable, L1-only
    cache.store(NS, "cov").put("k", 7)
    assert l2.get(NS, "cov", "k") == 7
    assert l2.get(NS, "slices", "fp") is None
    assert len(l2) == 1
    assert "slices" not in TIERED_KINDS
    l2.unlink()
