"""Structure templates: the scalar analysis, re-executed on arrays.

The batched layer exploits that fused groups are *independent analysis
cones*: the root of every genome tree is either a single group node or a
loop-free DRAM Seq wrapper, so slice coverage, truncated ancestor walks,
NumPE/footprint/instance recursions and the latency composition of one
group never read another group's loops (eviction verdicts at the root
depend only on which operators use a tensor — genome structure, not
factor values).  The analysis therefore factorizes:

* a :class:`GroupTemplate` re-executes one group subtree for every
  cohort member sharing that group's *skeleton* (its per-group structure
  key from :mod:`repro.analysis.batched.cohort`) with ``(K,)``
  int64/float64 arrays in place of scalars, and
* :func:`compose_costs` combines per-group aggregates exactly the way
  the scalar passes combine them at the root wrapper — Seq shares
  compute in time (NumPE max, latency sum) and buffers across time
  (footprint max-merge).

Factorizing per group is what makes batching pay: members that differ
only in *another* group's factors share this group's template, so the
prefix groups of a sibling cohort collapse into one full-width class,
and a template (keyed by ``(gi, group key)``) survives cohort after
cohort instead of being rebuilt whenever an unrelated factor changes
the whole-tree skeleton.

A template is built from one *representative* member's real tree
(:class:`RepStructure`).  Everything structural — slice (leaf, access)
pairs, crossing predicates, Seq-eviction verdicts, tensor homes, the
truncated ancestor walks — is resolved once on the representative; the
per-group key proves every member takes identical control flow.  All
integer math uses the checked kernels (overflow raises, the class falls
back to the scalar path); float composition replays the scalar
accumulation order operation for operation, so results are
bit-identical, not just close.  The composed search cost of a member is
``inf`` iff its resource violations are non-empty, else its latency —
exactly ``latency_cost`` of a scalar ``evaluate(until="latency",
stop_on_violation=True)`` run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...tile.bindings import Binding
from ...tile.tree import FusionNode, OpTile, TileNode
from ..context import AnalysisContext
from ..datamovement import DataMovementAnalysis
from .cohort import CohortPlan, CohortPlanner
from .kernels import (F8, I8, BatchedPlanError, add64, box64, movement64,
                      mul64, sub64, abs64)

#: Rows kept per node memo (a runaway-space backstop, not a tuning knob).
MEMO_LIMIT = 65536


@dataclass
class _WalkPlan:
    """One (node, tensor, direction) truncated ancestor walk."""

    walked: List  # Loop objects, outer -> inner
    mult: List    # Loop objects, scalar append order
    #: Writer walks only: reduction dims + the ideal (reduction-free)
    #: walk loops for the §5.1.2 RMW correction.
    red: frozenset = frozenset()
    ideal_loops: List = field(default_factory=list)
    #: ``(L, D)`` int64 access coefficients — ``coeff[l, d]`` is the
    #: walked loop ``l``'s coefficient in access expression ``d``.
    #: Structural, so resolved once; the stacked walk recursion reads
    #: them instead of calling ``expr.coeff`` per loop per member.
    coeff: Optional[np.ndarray] = None
    ideal_coeff: Optional[np.ndarray] = None


def _coeff_matrix(access, loops) -> np.ndarray:
    """``(L, D)`` int64 matrix of ``access.exprs[d].coeff(loops[l].dim)``."""
    mat = np.zeros((len(loops), len(access.exprs)), dtype=I8)
    for li, lp in enumerate(loops):
        for di, expr in enumerate(access.exprs):
            mat[li, di] = int(expr.coeff(lp.dim))
    return mat


@dataclass
class _TensorPlan:
    name: str
    word_bytes: float
    crossing: bool
    #: (leaf, access) pairs in readers+writers order (extent merging).
    pairs: List
    reader: Optional[_WalkPlan]
    writer: Optional[_WalkPlan]


@dataclass
class _NodePlan:
    node: TileNode
    #: Unit-step spatial loops of the node (slice-coverage lanes).
    lanes: List
    tensors: List[_TensorPlan]
    #: Slot-backed loops (ids) whose count/step feed this node's flows —
    #: the memo key columns.  Constant loops never vary, so they are
    #: excluded; a node whose flows touch no slot-backed loop has one
    #: memo row shared by every member of every cohort.
    dep_loops: List[int] = field(default_factory=list)
    #: Flow-name sets are structural (maximal insertion makes ``fills``
    #: membership value-independent), so memo rows store plain floats.
    fill_names: Tuple[str, ...] = ()
    update_names: Tuple[str, ...] = ()
    staged_names: Tuple[str, ...] = ()
    #: row bytes -> ({fills}, {updates}, {staged}) per-member floats.
    memo: Dict[bytes, Tuple] = field(default_factory=dict)


@dataclass
class GroupResult:
    """Per-member aggregates of one group subtree — everything the root
    composition needs, nothing node-local."""

    latency: np.ndarray           # float64 (K,)
    mac: np.ndarray               # int64 (K,)
    vec: np.ndarray               # int64 (K,)
    footprint: Dict[int, np.ndarray]   # level -> float64 bytes (K,)
    instances: Dict[int, np.ndarray]   # level -> int64 (K,)


class RepStructure:
    """One representative member's real tree plus analysis context.

    Built once per representative; the :class:`GroupTemplate` objects
    harvested from it (one per group) share its tree, context, movement
    analysis and loop-to-slot resolution.  Construction raises
    :class:`BatchedPlanError` when the tree does not match the planner's
    slot layout (a planner bug, never a data condition).
    """

    def __init__(self, planner: CohortPlanner, rep_member: Sequence[int],
                 *, model_eviction: bool = True, model_rmw: bool = True):
        from ...mapper.encoding import build_genome_tree

        self.planner = planner
        self.arch = planner.arch
        self.workload = planner.workload
        rep_point = planner.point_at(rep_member)
        self.tree = build_genome_tree(planner.workload, planner.arch,
                                      planner.genome, rep_point)
        self.ctx = AnalysisContext(self.tree, self.arch,
                                   model_eviction=model_eviction,
                                   model_rmw=model_rmw)
        self.dm = DataMovementAnalysis(self.tree, self.arch,
                                       context=self.ctx)
        self.model_rmw = self.ctx.model_rmw
        root = self.tree.root
        self.wrapped = root.level == self.arch.dram_index
        if self.wrapped:
            # The DRAM Seq wrapper (loop-free by construction).
            if root.loops:
                raise BatchedPlanError("root wrapper carries loops")
            self.group_nodes: List[TileNode] = list(root.children_nodes())
        else:
            self.group_nodes = [root]
        #: id(loop) -> planner slot (factor-dependent) or None (constant).
        self.slot_of: Dict[int, Optional[Tuple]] = {}
        self._resolve_slots()

    def _resolve_slots(self) -> None:
        if len(self.group_nodes) != len(self.planner.group_plans):
            raise BatchedPlanError("group count mismatch")
        for gp, gnode in zip(self.planner.group_plans, self.group_nodes):
            for lp in gnode.loops:
                slot = ("gs" if lp.spatial else "gt", gp.gi, lp.dim)
                if slot not in self.planner.slot_ids:
                    raise BatchedPlanError(f"unknown group loop {lp!r}")
                self.slot_of[id(lp)] = slot
            if isinstance(gnode, FusionNode):
                chains = list(gnode.children)
            elif isinstance(gnode, OpTile) and gnode.child is not None:
                chains = [gnode.child]
            else:
                raise BatchedPlanError("group node without chain")
            if len(chains) != len(gp.ops):
                raise BatchedPlanError("chain count mismatch")
            for chain, (op, _ext) in zip(chains, gp.ops):
                if not isinstance(chain, OpTile) or chain.op is not op:
                    raise BatchedPlanError("chain/op order mismatch")
                for lp in chain.loops:
                    if lp.dim in gp.dim_set:
                        slot = ("mid", gp.gi, op.name, lp.dim)
                        if slot not in self.planner.slot_ids:
                            raise BatchedPlanError(
                                f"unknown mid loop {lp!r}")
                        self.slot_of[id(lp)] = slot
                    else:
                        self.slot_of[id(lp)] = None
                leaf = chain.child
                if leaf is None or not leaf.is_leaf():
                    raise BatchedPlanError("chain without leaf")
                for lp in leaf.loops:
                    self.slot_of[id(lp)] = None
        for node in self.tree.root.walk():
            for lp in node.loops:
                if id(lp) not in self.slot_of:
                    raise BatchedPlanError(f"unresolved loop {lp!r}")


class GroupTemplate:
    """Array-polymorphic re-execution of one group subtree."""

    def __init__(self, structure: RepStructure, gi: int):
        self.structure = structure
        self.gi = gi
        self.planner = structure.planner
        self.arch = structure.arch
        self.workload = structure.workload
        self.ctx = structure.ctx
        self._dm = structure.dm
        self.model_rmw = structure.model_rmw
        self.gnode: TileNode = structure.group_nodes[gi]
        self.nodes: List[TileNode] = list(self.gnode.walk())
        self._slot_of = structure.slot_of
        self._node_plans: List[_NodePlan] = [self._plan_node(n)
                                             for n in self.nodes]
        #: Slot-backed loops anywhere in the subtree, in walk order —
        #: the whole-result memo key columns (a member's aggregates are
        #: a pure function of these counts/steps).
        self._dep_slots: List[Tuple] = []
        for node in self.nodes:
            for lp in node.loops:
                slot = self._slot_of[id(lp)]
                if slot is not None:
                    self._dep_slots.append(slot)
        #: subtree row bytes -> flat aggregate floats/ints.
        self.result_memo: Dict[bytes, Tuple] = {}
        #: Footprint/instance level orders (structural; fixed after the
        #: first evaluation) for exact memo reassembly.
        self._fp_levels: Optional[Tuple[int, ...]] = None
        self._inst_levels: Optional[Tuple[int, ...]] = None

    def _plan_node(self, node: TileNode) -> _NodePlan:
        slices = self.ctx.node_slices(node)
        lanes = [lp for lp in node.spatial_loops if lp.step == 1]
        tensors: List[_TensorPlan] = []
        for name in slices.tensors:
            crossing = self.ctx.tensor_crossing(node, name)
            pairs = (slices.readers.get(name, [])
                     + slices.writers.get(name, []))
            reader = writer = None
            if crossing:
                home = self.ctx.home(name)
                reader_pairs = slices.readers.get(name, [])
                writer_pairs = slices.writers.get(name, [])
                if reader_pairs:
                    _leaf, access = reader_pairs[0]
                    walked, mult = self._mirror_walk(node, name, access,
                                                     home)
                    reader = _WalkPlan(walked, mult,
                                       coeff=_coeff_matrix(access, walked))
                if writer_pairs:
                    leaf, access = writer_pairs[0]
                    walked, mult = self._mirror_walk(node, name, access,
                                                     home)
                    red = leaf.op.reduction_dims
                    ideal = [lp for lp in walked if lp.dim not in red]
                    writer = _WalkPlan(walked, mult,
                                       red=frozenset(red),
                                       ideal_loops=ideal,
                                       coeff=_coeff_matrix(access, walked),
                                       ideal_coeff=_coeff_matrix(access,
                                                                 ideal))
            tensors.append(_TensorPlan(
                name=name,
                word_bytes=float(self.workload.tensor(name).word_bytes),
                crossing=crossing, pairs=pairs,
                reader=reader, writer=writer))
        nplan = _NodePlan(node=node, lanes=lanes, tensors=tensors)
        nplan.dep_loops = self._flow_deps(nplan)
        nplan.staged_names = tuple(t.name for t in tensors)
        nplan.fill_names = tuple(
            t.name for t in tensors
            if t.crossing and (t.reader is not None
                               or (t.writer is not None and self.model_rmw)))
        nplan.update_names = tuple(t.name for t in tensors
                                   if t.crossing and t.writer is not None)
        return nplan

    def _flow_deps(self, nplan: _NodePlan) -> List[int]:
        """Slot-backed loops read anywhere in ``_node_flows`` for this
        node (coverage paths, lanes, walk/multiplier loops) in a fixed
        order — the memo key columns."""
        seen: Dict[int, None] = {}

        def add(loops) -> None:
            for lp in loops:
                if self._slot_of.get(id(lp)) is not None:
                    seen.setdefault(id(lp), None)

        for tplan in nplan.tensors:
            for leaf, _access in tplan.pairs:
                current = leaf
                while current is not nplan.node:
                    add(current.loops)
                    current = current.parent
            add(nplan.lanes)
            for wp in (tplan.reader, tplan.writer):
                if wp is not None:
                    add(wp.walked)
                    add(wp.mult)
        return list(seen)

    def _mirror_walk(self, node: TileNode, tensor_name: str, access,
                     home) -> Tuple[List, List]:
        """``DataMovementAnalysis._build_walk`` collecting Loop objects.

        The branch structure (Seq eviction, unit-step skip, displacement,
        LCA truncation) is evaluated on the representative via the real
        analysis predicates; the group key guarantees every member takes
        the same branches (the walk may climb into the loop-free root
        wrapper, whose eviction verdicts are genome structure, not factor
        values).  ``mult`` preserves the scalar append order — the float
        multiplier product replays it element for element.
        """
        dm = self._dm
        walked: List = []
        mult: List = []
        stopped = False
        if dm._self_evicts(node, tensor_name):
            for lp in node.temporal_loops:
                mult.append(lp)
        else:
            walked.extend(reversed(node.temporal_loops))
        for lp in node.spatial_loops:
            if lp.step == 1:
                continue
            if dm._loop_displaces(access, lp):
                mult.append(lp)
        current: TileNode = node
        while current.parent is not None:
            parent = current.parent
            for lp in parent.spatial_loops:
                if dm._loop_displaces(access, lp):
                    mult.append(lp)
            if (not stopped and self.ctx.model_eviction
                    and dm._evicted_at(parent, current, tensor_name)):
                stopped = True
            if stopped:
                for lp in parent.temporal_loops:
                    mult.append(lp)
            else:
                walked.extend(reversed(parent.temporal_loops))
            if parent is home:
                stopped = True
            current = parent
        walked.reverse()
        return walked, mult

    # -- evaluation -----------------------------------------------------
    def evaluate(self, plan: CohortPlan, positions: Sequence[int],
                 pending: Optional[list] = None) -> GroupResult:
        """Aggregates of the group's members at ``positions`` of ``plan``.

        ``pending``, when given, collects ``(memo, row, value)`` flow-memo insertions for
        the caller to commit once the sweep is validated (a wrong
        template must not leave rows behind); without it insertions are
        immediate.
        """
        pos = np.asarray(positions, dtype=np.intp)
        k = int(pos.shape[0])
        lv = self._loop_values(plan, pos, k)

        t_trip: Dict[int, np.ndarray] = {}
        s_trip: Dict[int, np.ndarray] = {}
        execs: Dict[int, np.ndarray] = {}
        for node in self.nodes:
            t = np.ones(k, dtype=I8)
            for lp in node.temporal_loops:
                t = mul64(t, lv[id(lp)][0], "temporal trip")
            s = np.ones(k, dtype=I8)
            for lp in node.spatial_loops:
                s = mul64(s, lv[id(lp)][0], "spatial trip")
            t_trip[id(node)] = t
            s_trip[id(node)] = s
            if node is self.gnode:
                # Group executions are 1: the parent is either absent or
                # the loop-free root wrapper (trip 1 x 1).
                execs[id(node)] = np.ones(k, dtype=I8)
            else:
                parent = node.parent
                trip = mul64(t_trip[id(parent)], s_trip[id(parent)],
                             "trip count")
                execs[id(node)] = mul64(execs[id(parent)], trip,
                                        "executions")

        flows: Dict[int, Tuple[Dict[str, np.ndarray],
                               Dict[str, np.ndarray],
                               Dict[str, np.ndarray]]] = {}
        for nplan in self._node_plans:
            flows[id(nplan.node)] = self._node_flows_cached(
                nplan, lv, k, pending)

        mac, vec = self._num_pe(self.gnode, s_trip, k)
        footprint = self._footprint(self.gnode, flows, s_trip, k)
        instances = self._instances(self.gnode, s_trip, k)
        latency = self._latency(self.gnode, np.ones(k, dtype=F8), flows,
                                t_trip, s_trip, execs, lv, k)
        return GroupResult(latency=latency, mac=mac, vec=vec,
                           footprint=footprint, instances=instances)

    def evaluate_cached(self, plan: CohortPlan, positions: Sequence[int],
                        pending: Optional[list] = None) -> GroupResult:
        """:meth:`evaluate` behind a whole-result memo.

        A member's aggregates are a pure function of the subtree's
        slot-backed ``(count, step)`` values, so recurring rows — the
        suffix factors of a sibling cohort repeat verbatim sweep after
        sweep — are served as stored floats/ints and reassembled
        exactly (``float``/``int`` round-trip their numpy scalars).
        """
        pos = np.asarray(positions, dtype=np.intp)
        k = int(pos.shape[0])
        if self._dep_slots:
            cols = []
            for slot in self._dep_slots:
                counts, steps, _emitted = plan.slots[slot]
                cols.append(counts[pos])
                cols.append(steps[pos])
            mat = np.stack(cols, axis=1)
            rows = [mat[i].tobytes() for i in range(k)]
        else:
            rows = [b""] * k
        memo = self.result_memo
        missing: Dict[bytes, int] = {}
        for i, r in enumerate(rows):
            if r not in memo and r not in missing:
                missing[r] = i
        fresh: Dict[bytes, Tuple] = {}
        if missing:
            # Evaluate one representative per distinct missing row — a
            # sibling cohort's prefix groups collapse to a single row,
            # so their whole class costs one lane of array work.
            sub = list(missing.values())
            res = self.evaluate(plan, [positions[i] for i in sub],
                                pending=pending)
            if self._fp_levels is None:
                self._fp_levels = tuple(res.footprint)
                self._inst_levels = tuple(res.instances)
            for j, r in enumerate(missing):
                fresh[r] = (
                    float(res.latency[j]),
                    int(res.mac[j]), int(res.vec[j]),
                    tuple(float(res.footprint[lev][j])
                          for lev in self._fp_levels),
                    tuple(int(res.instances[lev][j])
                          for lev in self._inst_levels))
            if len(memo) < MEMO_LIMIT:
                if pending is None:
                    memo.update(fresh)
                else:
                    pending.extend((memo, r, v)
                                   for r, v in fresh.items())
        hit = [memo.get(r) or fresh[r] for r in rows]
        footprint = {lev: np.array([h[3][j] for h in hit], dtype=F8)
                     for j, lev in enumerate(self._fp_levels)}
        instances = {lev: np.array([h[4][j] for h in hit], dtype=I8)
                     for j, lev in enumerate(self._inst_levels)}
        return GroupResult(
            latency=np.array([h[0] for h in hit], dtype=F8),
            mac=np.array([h[1] for h in hit], dtype=I8),
            vec=np.array([h[2] for h in hit], dtype=I8),
            footprint=footprint, instances=instances)

    def _loop_values(self, plan: CohortPlan, pos: np.ndarray, k: int
                     ) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
        lv: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        for node in self.nodes:
            for lp in node.loops:
                slot = self._slot_of[id(lp)]
                if slot is None:
                    count = np.full(k, int(lp.count), dtype=I8)
                    step = np.full(k, int(lp.step), dtype=I8)
                else:
                    counts, steps, emitted = plan.slots[slot]
                    if not bool(np.all(emitted[pos])):
                        raise BatchedPlanError(
                            f"slot {slot} not emitted class-wide")
                    count = counts[pos]
                    step = steps[pos]
                    # The rep's unit-step verdict (slice lane vs block
                    # distributor) must hold class-wide; the s_step1 key
                    # bit guarantees it, this guards planner bugs.
                    if lp.spatial:
                        unit = bool(np.all(step == 1))
                        if unit != (lp.step == 1):
                            raise BatchedPlanError(
                                f"slot {slot} lane/block mismatch")
                lv[id(lp)] = (count, step)
        return lv

    # -- slices ---------------------------------------------------------
    def _merged_extents(self, nplan: _NodePlan, tplan: _TensorPlan,
                        lv, k: int) -> List[np.ndarray]:
        node = nplan.node
        merged: List[np.ndarray] = []
        for leaf, access in tplan.pairs:
            op_dims = leaf.op.dims
            cov: Dict[str, np.ndarray] = {
                d: np.ones(k, dtype=I8) for d in op_dims}
            current = leaf
            while current is not node:
                self._apply_loops(cov, current.loops, op_dims, lv)
                current = current.parent
            self._apply_loops(cov, nplan.lanes, op_dims, lv)
            extents = []
            for expr in access.exprs:
                span = np.ones(k, dtype=I8)
                for d, c in expr.terms.items():
                    n = np.maximum(np.int64(1),
                                   cov.get(d, np.ones(k, dtype=I8)))
                    span = add64(span, mul64(np.int64(abs(int(c))),
                                             sub64(n, np.int64(1),
                                                   "extent"),
                                             "extent"), "extent")
                extents.append(span)
            if not merged:
                merged = extents
            else:
                merged = [np.maximum(a, b)
                          for a, b in zip(merged, extents)]
        return merged

    def _apply_loops(self, cov, loops, op_dims, lv) -> None:
        for lp in reversed(list(loops)):
            if lp.dim not in op_dims:
                continue
            count, step = lv[id(lp)]
            inner = cov[lp.dim]
            cov[lp.dim] = add64(
                mul64(step, sub64(count, np.int64(1), "coverage"),
                      "coverage"), inner, "coverage")

    # -- data movement --------------------------------------------------
    def _node_flows_cached(self, nplan: _NodePlan, lv, k: int,
                           pending: Optional[list]):
        """Per-node flows with a value-row memo.

        A node's flows depend only on the counts/steps of its
        ``dep_loops``; rows that recur — across sweeps of different
        cohorts, and for every member at once on nodes whose loops are
        cohort-constant — are served from the memo as plain floats and
        reassembled.  Reassembly is exact (``float`` round-trips
        float64), so downstream composition is bit-identical either
        way.
        """
        memo = nplan.memo
        if nplan.dep_loops:
            cols = []
            for lid in nplan.dep_loops:
                count, step = lv[lid]
                cols.append(count)
                cols.append(step)
            mat = np.stack(cols, axis=1)
            rows = [mat[i].tobytes() for i in range(k)]
        else:
            rows = [b""] * k
        if any(r not in memo for r in rows):
            fills, updates, staged = self._node_flows(nplan, lv, k)
            if len(memo) < MEMO_LIMIT:
                fresh: Dict[bytes, Tuple] = {}
                for i, r in enumerate(rows):
                    if r not in memo and r not in fresh:
                        fresh[r] = (
                            tuple(float(fills[t][i])
                                  for t in nplan.fill_names),
                            tuple(float(updates[t][i])
                                  for t in nplan.update_names),
                            tuple(float(staged[t][i])
                                  for t in nplan.staged_names))
                if pending is None:
                    memo.update(fresh)
                else:
                    pending.extend((memo, r, v) for r, v in fresh.items())
            return fills, updates, staged
        hit = [memo[r] for r in rows]
        fills = {t: np.array([h[0][j] for h in hit], dtype=F8)
                 for j, t in enumerate(nplan.fill_names)}
        updates = {t: np.array([h[1][j] for h in hit], dtype=F8)
                   for j, t in enumerate(nplan.update_names)}
        staged = {t: np.array([h[2][j] for h in hit], dtype=F8)
                  for j, t in enumerate(nplan.staged_names)}
        return fills, updates, staged

    def _node_flows(self, nplan: _NodePlan, lv, k: int):
        fills: Dict[str, np.ndarray] = {}
        updates: Dict[str, np.ndarray] = {}
        staged: Dict[str, np.ndarray] = {}
        # Collect every walk of the node first, run the boundary
        # recursion for all of them in one stacked pass, then assemble
        # fills/updates in the scalar's per-tensor order.
        requests: List[Tuple[_WalkPlan, List, List, np.ndarray]] = []
        for tplan in nplan.tensors:
            extents = self._merged_extents(nplan, tplan, lv, k)
            staged[tplan.name] = box64(extents, k).astype(F8)
            if not tplan.crossing:
                continue
            if tplan.reader is not None:
                rp = tplan.reader
                requests.append((rp, extents, rp.walked, rp.coeff))
            if tplan.writer is not None:
                wp = tplan.writer
                requests.append((wp, extents, wp.walked, wp.coeff))
                if self.model_rmw:
                    requests.append((wp, extents, wp.ideal_loops,
                                     wp.ideal_coeff))
        moved = self._stacked_walks(requests, lv, k)
        wi = 0
        for tplan in nplan.tensors:
            if not tplan.crossing:
                continue
            if tplan.reader is not None:
                rp = tplan.reader
                words = self._walk_words(moved[wi], rp, lv, k)
                wi += 1
                fills[tplan.name] = fills.get(tplan.name, 0.0) + words
            if tplan.writer is not None:
                wp = tplan.writer
                words = self._walk_words(moved[wi], wp, lv, k)
                wi += 1
                updates[tplan.name] = (updates.get(tplan.name, 0.0)
                                       + words)
                if self.model_rmw:
                    # Ideal (reduction-free) volume: the scalar divides
                    # the multiplier by the reduction-loop product in
                    # its append order before multiplying.
                    mult_red = np.ones(k, dtype=F8)
                    for lp in wp.mult:
                        if lp.dim in wp.red:
                            mult_red = mult_red * lv[id(lp)][0].astype(F8)
                    ideal = self._walk_words(
                        moved[wi], wp, lv, k,
                        mult_div=np.maximum(1.0, mult_red))
                    wi += 1
                    # Maximal-insertion mirror of the scalar's
                    # ``if rmw > 0`` guard: adding the +0.0 of rmw-free
                    # members is bitwise neutral, and every membership
                    # test downstream is covered by ``updates``.
                    rmw = np.maximum(0.0, words - ideal)
                    fills[tplan.name] = fills.get(tplan.name, 0.0) + rmw
        return fills, updates, staged

    def _walk_words(self, moved: np.ndarray, wp: _WalkPlan, lv, k: int,
                    mult_div: Optional[np.ndarray] = None) -> np.ndarray:
        multiplier = np.ones(k, dtype=F8)
        for lp in wp.mult:
            multiplier = multiplier * lv[id(lp)][0].astype(F8)
        if mult_div is not None:
            multiplier = multiplier / mult_div
        return moved.astype(F8) * multiplier

    def _stacked_walks(self, requests, lv, k: int) -> np.ndarray:
        """All of a node's boundary recursions in one padded pass.

        Walks are stacked into ``(W, L, D, K)`` arrays (walk, walk
        level, access expression, member).  Padding is exactly neutral:
        a padded level has ``count = 1``/``step = 0`` (the recursion's
        ``s = (count-1)*(delta+s)+s`` leaves ``s`` untouched and its
        wrap term is 0), a padded expression has ``extent = 1``/
        ``coeff = 0`` (its overlap factor is ``max(0, 1-|0|) = 1``).
        All arithmetic stays exact int64 through the checked kernels,
        so stacking changes the *grouping* of operations, never a
        value; an overflow anywhere still aborts the whole node exactly
        like the per-walk ordering did.
        """
        zero = np.int64(0)
        n_levels = max((len(loops) for _w, _e, loops, _c in requests),
                       default=0)
        n_dims = max((len(ext) for _w, ext, _l, _c in requests),
                     default=0)
        shape = (len(requests), max(n_levels, 1), max(n_dims, 1))
        counts = np.ones(shape[:2] + (k,), dtype=I8)
        steps = np.zeros(shape[:2] + (k,), dtype=I8)
        coeffs = np.zeros(shape, dtype=I8)
        exts = np.ones((shape[0], shape[2], k), dtype=I8)
        for w, (_wp, extents, loops, coeff) in enumerate(requests):
            for li, lp in enumerate(loops):
                cnt, stp = lv[id(lp)]
                counts[w, li] = cnt
                steps[w, li] = stp
            if len(loops) and len(extents):
                coeffs[w, :len(loops), :len(extents)] = coeff
            for di, ext in enumerate(extents):
                exts[w, di] = ext
        volumes = np.ones((shape[0], k), dtype=I8)
        for di in range(shape[2]):
            volumes = mul64(volumes, np.maximum(zero, exts[:, di, :]),
                            "walk volume")
        # wrap[w, l, d] = coeff * (count - 1) * step; the back term of
        # level l is the wrap sum over inner levels l' > l.
        spans = mul64(sub64(counts, np.int64(1), "wrap"), steps, "wrap")
        wrap = mul64(coeffs[:, :, :, None], spans[:, :, None, :], "wrap")
        back = np.zeros_like(wrap)
        for li in range(n_levels - 2, -1, -1):
            back[:, li] = add64(back[:, li + 1], wrap[:, li + 1], "wrap")
        forward = mul64(coeffs[:, :, :, None], steps[:, :, None, :],
                        "displacement")
        disp = sub64(forward, back, "displacement")
        gap = sub64(exts[:, None, :, :], abs64(disp, "displacement"),
                    "overlap")
        term = np.maximum(zero, gap)
        overlap = np.ones(shape[:2] + (k,), dtype=I8)
        for di in range(shape[2]):
            overlap = mul64(overlap, term[:, :, di, :], "overlap")
        deltas = sub64(volumes[:, None, :], overlap, "delta volume")
        return movement64(volumes,
                          [counts[:, li] for li in range(n_levels)],
                          [deltas[:, li] for li in range(n_levels)])

    # -- resources ------------------------------------------------------
    def _num_pe(self, node: TileNode, s_trip, k: int):
        if node.is_leaf():
            used = s_trip[id(node)]
            zero = np.zeros(k, dtype=I8)
            return ((used, zero) if node.op.kind == "mac"
                    else (zero, used))
        sp = s_trip[id(node)]
        if isinstance(node, OpTile):
            mac, vec = self._num_pe(node.child, s_trip, k)
            return (mul64(sp, mac, "num_pe"), mul64(sp, vec, "num_pe"))
        demands = [self._num_pe(c, s_trip, k) for c in node.children]
        if node.binding.shares_compute_in_time:
            mac = demands[0][0]
            vec = demands[0][1]
            for d in demands[1:]:
                mac = np.maximum(mac, d[0])
                vec = np.maximum(vec, d[1])
        else:
            mac = demands[0][0]
            vec = demands[0][1]
            for d in demands[1:]:
                mac = add64(mac, d[0], "num_pe")
                vec = add64(vec, d[1], "num_pe")
        return mul64(sp, mac, "num_pe"), mul64(sp, vec, "num_pe")

    def _staged_bytes(self, node: TileNode, flows, k: int) -> np.ndarray:
        fills, updates, staged = flows[id(node)]
        total = np.zeros(k, dtype=F8)
        for name, words in staged.items():
            wb = self.workload.tensor(name).word_bytes
            crossing = name in fills or name in updates
            factor = 2.0 if crossing else 1.0
            total = total + words * wb * factor
        return total

    def _footprint(self, node: TileNode, flows, s_trip, k: int):
        if node.is_leaf():
            return {node.level: self._staged_bytes(node, flows, k)}
        if isinstance(node, OpTile):
            usage = dict(self._footprint(node.child, flows, s_trip, k))
        else:
            child_maps = [self._footprint(c, flows, s_trip, k)
                          for c in node.children]
            usage = {}
            for cmap in child_maps:
                for level, used in cmap.items():
                    if node.binding is Binding.SEQ:
                        usage[level] = np.maximum(
                            usage.get(level, 0.0), used)
                    else:
                        usage[level] = usage.get(level, 0.0) + used
        own = self._staged_bytes(node, flows, k)
        usage[node.level] = usage.get(node.level, 0.0) + own
        return usage

    def _instances(self, node: TileNode, s_trip, k: int):
        if node.is_leaf():
            return {node.level: np.ones(k, dtype=I8)}
        if isinstance(node, OpTile):
            usage = dict(self._instances(node.child, s_trip, k))
        else:
            usage = {}
            for child in node.children:
                for level, n in self._instances(child, s_trip,
                                                k).items():
                    usage[level] = np.maximum(
                        usage.get(level, np.zeros(k, dtype=I8)), n)
        one = np.ones(k, dtype=I8)
        usage[node.level] = np.maximum(usage.get(node.level,
                                                 np.zeros(k, dtype=I8)),
                                       one)
        sp = s_trip[id(node)]
        return {level: mul64(n, sp, "instances")
                for level, n in usage.items()}

    # -- latency --------------------------------------------------------
    def _bytes(self, words_by_tensor: Dict[str, np.ndarray],
               k: int) -> np.ndarray:
        total = np.zeros(k, dtype=F8)
        for name, words in words_by_tensor.items():
            total = total + words * self.workload.tensor(name).word_bytes
        return total

    def _shared_bandwidth(self, level_idx: int,
                          concurrency: np.ndarray) -> np.ndarray:
        level = self.arch.level(level_idx)
        aggregate = level.bytes_per_cycle(self.arch.frequency_ghz)
        aggregate *= level.fanout
        return np.maximum(1e-9, aggregate / np.maximum(1.0, concurrency))

    def _latency(self, node: TileNode, concurrency: np.ndarray, flows,
                 t_trip, s_trip, execs, lv, k: int) -> np.ndarray:
        fills, updates, _staged = flows[id(node)]
        executions = np.maximum(1.0, execs[id(node)].astype(F8))
        source_level = (node.parent.level if node.parent is not None
                        else self.arch.dram_index)
        io_cycles = np.zeros(k, dtype=F8)
        if node.level < source_level:
            load_bytes = self._bytes(fills, k) / executions
            store_bytes = self._bytes(updates, k) / executions
            bw = self._shared_bandwidth(source_level, concurrency)
            io_cycles = (load_bytes + store_bytes) / bw

        t_f8 = t_trip[id(node)].astype(F8)
        s_f8 = s_trip[id(node)].astype(F8)
        if node.is_leaf():
            pool = self.arch.compute_units(node.op.kind)
            waves = np.maximum(1.0, s_f8 / float(pool))
            inner = t_f8 * waves * float(node.op.ops_per_point)
        elif isinstance(node, OpTile):
            inner = t_f8 * self._latency(node.child, concurrency * s_f8,
                                         flows, t_trip, s_trip, execs,
                                         lv, k)
        else:
            child_conc = concurrency * s_f8
            lats = [self._latency(c, child_conc, flows, t_trip, s_trip,
                                  execs, lv, k) for c in node.children]
            if node.binding.shares_compute_in_time:
                acc = np.zeros(k, dtype=F8)
                for lat in lats:
                    acc = acc + lat
                inner = t_f8 * acc
            else:
                io_sum = np.zeros(k, dtype=F8)
                for c in node.children:
                    io_sum = io_sum + self._child_io(c, child_conc,
                                                     flows, execs, k)
                peak = lats[0]
                for lat in lats[1:]:
                    peak = np.maximum(peak, lat)
                inner = t_f8 * np.maximum(peak, io_sum)
        return np.maximum(io_cycles, inner)

    def _child_io(self, child: TileNode, concurrency: np.ndarray, flows,
                  execs, k: int) -> np.ndarray:
        if child.parent is None or child.level >= child.parent.level:
            return np.zeros(k, dtype=F8)
        fills, updates, _staged = flows[id(child)]
        executions = np.maximum(1.0, execs[id(child)].astype(F8))
        total_bytes = (self._bytes(fills, k)
                       + self._bytes(updates, k)) / executions
        bw = self._shared_bandwidth(child.parent.level, concurrency)
        return total_bytes / bw


def compose_costs(arch, wrapped: bool, results: Sequence[GroupResult],
                  k: int) -> np.ndarray:
    """Root-wrapper composition of per-group aggregates.

    Mirrors the scalar passes over a Seq root exactly: NumPE is the max
    over groups (Seq shares compute in time), footprint is a per-level
    max-merge, instances a per-level max with at least one root-level
    instance, latency the sum of group latencies in group order (the
    wrapper itself is loop-free and sits at the DRAM level, so its trip
    counts are 1 and its own IO cycles are 0).  With a single unwrapped
    group the aggregates pass through untouched.  Requires the DRAM
    level to be capacity-free — :class:`repro.analysis.batched.sweep`
    refuses to batch otherwise, because the wrapper's own staged bytes
    would then enter the capacity check.
    """
    bad = np.zeros(k, dtype=bool)

    mac = results[0].mac
    vec = results[0].vec
    for res in results[1:]:
        mac = np.maximum(mac, res.mac)
        vec = np.maximum(vec, res.vec)
    bad |= mac > arch.pe_count
    bad |= vec > arch.vector_pe_count

    footprint: Dict[int, np.ndarray] = dict(results[0].footprint)
    for res in results[1:]:
        for level, used in res.footprint.items():
            prev = footprint.get(level)
            footprint[level] = (used if prev is None
                                else np.maximum(prev, used))
    for level_idx, used in footprint.items():
        cap = arch.level(level_idx).capacity_bytes
        if cap is not None:
            bad |= used > cap

    instances: Dict[int, np.ndarray] = dict(results[0].instances)
    for res in results[1:]:
        for level, n in res.instances.items():
            prev = instances.get(level)
            instances[level] = (n if prev is None
                                else np.maximum(prev, n))
    if wrapped:
        dram = arch.dram_index
        one = np.ones(k, dtype=I8)
        prev = instances.get(dram)
        instances[dram] = one if prev is None else np.maximum(prev, one)
    for level_idx, n in instances.items():
        bad |= n > arch.level(level_idx).fanout

    latency = results[0].latency
    if wrapped:
        acc = np.zeros(k, dtype=F8)
        for res in results:
            acc = acc + res.latency
        latency = acc
    return np.where(~bad, latency, np.float64("inf"))
