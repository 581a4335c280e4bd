"""Cohort sweep driver: the batched layer's engine-facing surface.

One :class:`CohortEvaluator` serves one ``(engine, genome)`` pair.  It
owns the :class:`~repro.analysis.batched.cohort.CohortPlanner`, the
per-``(group, group key)``
:class:`~repro.analysis.batched.template.GroupTemplate` registry, and a
persistent cost table that outlives individual MCTS tuners — a GA
re-tuning the same genome next generation starts with every previously
swept sibling already priced.

A sweep prices a cohort per *group*: members are classed by each
group's structure key, every class runs one array evaluation (behind
the group template's whole-result memo), and the per-group aggregates
are composed at the root exactly as the scalar passes compose them
(:func:`~repro.analysis.batched.template.compose_costs`).  Because the
sibling cohort's prefix factors are constant, the prefix groups form
one full-width class each, and their templates — keyed by group, not by
the whole-tree skeleton — survive from sweep to sweep.

The MCTS hook contract (``mcts_hook``): called with the candidate's
factor-index tuple on every tuner-cache miss, it may return a dict of
``indices -> cost`` entries to prefill the tuner cache (always including
the requested point when it was covered), or ``None`` to let the scalar
evaluator run.  Sweeps are *adaptive*: a sibling cohort is only swept
once the tuner has missed ``min_misses`` times inside the same prefix,
so one-off random rollouts early in the search do not pay for 100+
evaluations nobody will ask about, while UCT-concentrated regions are
batch-filled wholesale.

Safety valves, in increasing order of scope:

* no member's cost is committed before every fresh template it touched
  has passed a composed cross-check against one real scalar evaluation;
  memo rows are buffered per class and dropped with their sweep on a
  mismatch (a wrong template must not leave rows behind);
* :class:`~repro.analysis.batched.kernels.BatchedError` (overflow, plan
  mismatch) breaks the class; its members fall back to the scalar path
  and are remembered in ``_scalar_only``;
* any other exception escapes to the tuner, which permanently disables
  the hook for that search (batching is strictly a performance layer).

Counter parity: the hook bumps ``mapper.evaluations`` (and
``mapper.infeasible``) exactly when it covers the requested point —
i.e. exactly where the scalar path would have called
``engine.genome_cost`` — so mapper-level counters are identical between
scalar and batched runs.  Engine ``cache_misses``/``evaluations``
legitimately drop (covered points never reach the engine memo); the
new ``batched_evaluations``/``batch_fill``/``batch_fallbacks`` stats
carry the attribution.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ... import obs
from .cohort import CohortPlanner
from .kernels import BatchedError
from .template import (MEMO_LIMIT, GroupResult, GroupTemplate,
                       RepStructure, compose_costs)

_UNSET = object()

#: Largest sibling-cohort cross product enumerated per sweep.
DEFAULT_LIMIT = 128
#: Factor spaces at most this large may be swept whole — one dispatch
#: then prices every point and the array work finally has enough lanes
#: to amortize the per-sweep Python overhead.  Fused genomes (the
#: paper's subject) share few tileable dims, so their spaces are small
#: and land below this routinely.
FULL_SWEEP_LIMIT = 8192
#: Cohort-limit growth per dispatched sweep (progressive widening): the
#: first sweep stays at ``DEFAULT_LIMIT`` so short tunes (a GA pricing
#: a generation with a few dozen samples each) never pay for a large
#: sweep nobody will revisit, while long searches escalate to the full
#: space within two or three sweeps.
WIDEN_FACTOR = 8
#: Tuner-cache misses inside one prefix before that cohort is swept.
DEFAULT_MIN_MISSES = 2
#: Smallest MCTS sample budget worth batching.  A sweep prices a whole
#: sibling cohort up front (including per-class template builds and a
#: scalar cross-check), so it only pays once the tuner revisits enough
#: of the priced space; measured on the GA fitness path, sub-1k-sample
#: tunes of fresh genomes lose time to probe sweeps while 1k+ budgets
#: break even or win.  Below this budget the engine leaves the search
#: purely scalar.
BATCH_MIN_SAMPLES = 1024
#: Sweep credit: an evaluator starts with this many free sweeps; each
#: covered request earns ``CREDIT_PER_HIT`` more.  Searches whose
#: requests never revisit swept cohorts (rollouts scattering over a
#: huge prefix space) drain the balance and stop sweeping — batching
#: self-throttles to where it demonstrably pays.
INITIAL_CREDIT = 2.0
CREDIT_PER_HIT = 0.25


class CohortEvaluator:
    """Batched cohort pricing for one genome on one engine."""

    def __init__(self, engine, genome, space, *,
                 limit: int = DEFAULT_LIMIT,
                 min_misses: int = DEFAULT_MIN_MISSES):
        self.engine = engine
        self.genome = genome
        arch = engine.arch
        if arch.level(arch.dram_index).capacity_bytes is not None:
            # The root wrapper's own staged bytes would enter the
            # capacity check, and those are not per-group composable.
            raise BatchedError("capacity-bounded DRAM is not batchable")
        self.planner = CohortPlanner(engine.workload, arch, genome, space)
        self.limit = int(limit)
        total = 1
        for c in self.planner.choices:
            total *= len(c)
        #: Whole-space sweep target for progressive widening (0 when
        #: the space is too large to ever sweep whole).
        self._full = total if 2 <= total <= FULL_SWEEP_LIMIT else 0
        self.min_misses = max(1, int(min_misses))
        #: (gi, group key) -> GroupTemplate (None = proven unsafe).
        self._templates: Dict[Tuple[int, bytes],
                              Optional[GroupTemplate]] = {}
        #: (gi, group key) pairs validated by a composed cross-check.
        self._checked: Set[Tuple[int, bytes]] = set()
        #: Whether the genome tree has the DRAM Seq wrapper (set when
        #: the first representative structure is built).
        self._wrapped: Optional[bool] = None
        #: indices tuple -> cost; persists across tuners/generations.
        self._costs: Dict[Tuple[int, ...], float] = {}
        #: Members that must go through the scalar path.
        self._scalar_only: set = set()
        #: prefix tuple -> tuner-miss count (the adaptive trigger).
        self._prefix_misses: Dict[Tuple[int, ...], int] = {}
        #: Sweep budget (see INITIAL_CREDIT); deterministic per run.
        self._credit = float(INITIAL_CREDIT)

    # -- MCTS integration ------------------------------------------------
    def mcts_hook(self, indices: Sequence[int]
                  ) -> Optional[Dict[Tuple[int, ...], float]]:
        """Tuner-cache-miss hook; see the module docstring contract."""
        indices = tuple(int(i) for i in indices)
        if indices not in self._costs:
            if (indices not in self._scalar_only
                    and self._credit > 0.0):
                prefix = indices[:self._prefix_len()]
                n = self._prefix_misses.get(prefix, 0) + 1
                self._prefix_misses[prefix] = n
                if n >= self.min_misses:
                    cohort = self.planner.sibling_cohort(indices,
                                                         self.limit)
                    if cohort is not None:
                        swept = self._sweep(cohort)
                        self._credit -= swept / float(self.limit)
                        if swept and self._full > self.limit:
                            # The search keeps missing: widen the next
                            # sweep toward the whole factor space.
                            self.limit = min(self._full,
                                             self.limit * WIDEN_FACTOR)
        cost = self._costs.get(indices)
        if cost is None:
            return None
        # Return only the requested point (not the whole cohort): every
        # later first touch of a swept sibling then flows through this
        # hook too, which keeps the credit signal honest and bumps the
        # mapper counters exactly where the scalar path's genome_cost
        # would (a tuner cache miss) — counter parity between modes.
        self._credit += CREDIT_PER_HIT
        obs.count("mapper.evaluations")
        if cost == float("inf"):
            obs.count("mapper.infeasible")
        return {indices: cost}

    def _prefix_len(self) -> int:
        sizes = [len(c) for c in self.planner.choices]
        k, total = 0, 1
        for j in range(len(sizes) - 1, -1, -1):
            if total * sizes[j] > self.limit:
                break
            total *= sizes[j]
            k += 1
        if k == 0 or total < 2:
            return len(sizes)
        return len(sizes) - k

    # -- explicit cohorts (tests, spot checks) ---------------------------
    def costs_for(self, members: Sequence[Sequence[int]]
                  ) -> Dict[Tuple[int, ...], Optional[float]]:
        """Batched costs of an explicit cohort (``None`` where the
        member fell back to the scalar path or is not yet priced)."""
        members = [tuple(int(i) for i in m) for m in members]
        todo = [m for m in members
                if m not in self._costs and m not in self._scalar_only]
        if todo:
            self._dispatch(todo)
        return {m: self._costs.get(m) for m in members}

    # -- sweep core ------------------------------------------------------
    def _sweep(self, cohort: List[Tuple[int, ...]]) -> int:
        todo = [m for m in cohort
                if m not in self._costs and m not in self._scalar_only]
        if len(todo) >= 2:
            self._dispatch(todo)
            return len(todo)
        return 0

    def _dispatch(self, todo: List[Tuple[int, ...]]) -> None:
        engine = self.engine
        engine._bump("batch_fill", len(todo))
        try:
            plan = self.planner.plan(todo)
        except BatchedError:
            self._fallback(todo)
            return
        n = len(todo)
        ngroups = len(self.planner.group_plans)
        ok = np.ones(n, dtype=bool)
        structures: Dict[int, RepStructure] = {}

        def structure_for(p: int) -> RepStructure:
            struct = structures.get(p)
            if struct is None:
                struct = RepStructure(
                    self.planner, todo[p],
                    model_eviction=engine.model.model_eviction,
                    model_rmw=engine.model.model_rmw)
                structures[p] = struct
                if self._wrapped is None:
                    self._wrapped = struct.wrapped
            return struct

        # Per-class evaluation.  Memo insertions are buffered per class
        # so an invalidated sweep commits nothing.
        records: List[Tuple[Tuple[int, bytes], List[int], list]] = []
        fresh: Set[Tuple[int, bytes]] = set()
        per_group: List[Optional[Dict[str, object]]] = []
        for gi in range(ngroups):
            agg: Optional[Dict[str, object]] = None
            for gkey, poss in plan.group_classes(gi).items():
                tkey = (gi, gkey)
                template = self._templates.get(tkey, _UNSET)
                if template is _UNSET:
                    try:
                        template = GroupTemplate(structure_for(poss[0]),
                                                 gi)
                    except BatchedError:
                        template = None
                    self._templates[tkey] = template
                    if template is not None:
                        fresh.add(tkey)
                if template is None:
                    ok[poss] = False
                    self._fallback([todo[p] for p in poss])
                    continue
                pend: list = []
                try:
                    res = template.evaluate_cached(plan, poss, pending=pend)
                except BatchedError:
                    self._templates[tkey] = None
                    fresh.discard(tkey)
                    ok[poss] = False
                    self._fallback([todo[p] for p in poss])
                    continue
                records.append((tkey, poss, pend))
                if agg is None:
                    agg = {"lat": np.zeros(n, dtype=np.float64),
                           "mac": np.zeros(n, dtype=np.int64),
                           "vec": np.zeros(n, dtype=np.int64),
                           "fp": {}, "inst": {}}
                idx = np.asarray(poss, dtype=np.intp)
                agg["lat"][idx] = res.latency
                agg["mac"][idx] = res.mac
                agg["vec"][idx] = res.vec
                for store_key, values in (("fp", res.footprint),
                                          ("inst", res.instances)):
                    dest: Dict[int, np.ndarray] = agg[store_key]
                    for level, arr in values.items():
                        full = dest.get(level)
                        if full is None:
                            full = np.zeros(
                                n, dtype=np.float64
                                if store_key == "fp" else np.int64)
                            dest[level] = full
                        full[idx] = arr
            per_group.append(agg)

        if not bool(ok.any()) or any(agg is None for agg in per_group):
            self._fallback([m for m, good in zip(todo, ok) if not good])
            return
        results = [GroupResult(latency=agg["lat"], mac=agg["mac"],
                               vec=agg["vec"], footprint=agg["fp"],
                               instances=agg["inst"])
                   for agg in per_group]
        costs = compose_costs(engine.arch, bool(self._wrapped), results, n)

        if not self._cross_check(plan, todo, costs, ok, fresh):
            self._fallback(todo)
            return

        # Members whose templates are all validated get committed;
        # classes that could not be cross-checked this sweep (all their
        # members failed in another group) stay uncommitted — their
        # members fall through to the scalar path on request and the
        # class is retried next sweep.
        for tkey, poss, _pend in records:
            if tkey not in self._checked:
                ok[poss] = False
        committed = 0
        for tkey, poss, pend in records:
            if tkey not in self._checked:
                continue
            for memo, row, value in pend:
                if len(memo) < MEMO_LIMIT:
                    memo[row] = value
        for pos in np.nonzero(ok)[0]:
            self._costs[todo[pos]] = float(costs[pos])
            committed += 1
        if committed:
            engine._bump("batched_evaluations", committed)

    def _cross_check(self, plan, todo, costs, ok, fresh) -> bool:
        """Validate every checkable fresh template via composed members.

        Greedy cover: one scalar evaluation validates all fresh
        templates its member touches.  Returns False on any mismatch
        (the member's fresh templates are marked unsafe and the whole
        sweep is dropped).
        """
        engine = self.engine
        ngroups = len(self.planner.group_plans)
        need = {t for t in fresh if t not in self._checked}
        while need:
            pick: Optional[int] = None
            for gi, gkey in need:
                gkeys = plan.group_keys[gi]
                for pos in range(len(todo)):
                    if ok[pos] and gkeys[pos] == gkey:
                        pick = pos
                        break
                if pick is not None:
                    break
            if pick is None:
                # Remaining fresh classes have no composable member this
                # sweep; leave them unchecked (commit gating skips them).
                return True
            member = todo[pick]
            scalar = engine.cost_of(
                engine.evaluate_genome(self.genome,
                                       self.planner.point_at(member)))
            if float(costs[pick]) != float(scalar):
                for gi in range(ngroups):
                    tkey = (gi, plan.group_keys[gi][pick])
                    if tkey in fresh:
                        self._templates[tkey] = None
                return False
            for gi in range(ngroups):
                tkey = (gi, plan.group_keys[gi][pick])
                self._checked.add(tkey)
                need.discard(tkey)
        return True

    def _fallback(self, members: List[Tuple[int, ...]]) -> None:
        new = [m for m in members if m not in self._scalar_only]
        if not new:
            return
        self._scalar_only.update(new)
        self.engine._bump("batch_fallbacks", len(new))
