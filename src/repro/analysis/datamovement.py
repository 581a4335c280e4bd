"""Tree-based data-movement analysis (§5.1).

For every node of the analysis tree and every tensor whose data crosses
into that node's buffer, the engine computes the words moved over the whole
execution by the boundary recursion of §5.1.1, extended with the paper's
inter-tile rules (§5.1.2):

* **Reuse walk** — the temporal loops driving a node's refills are its own
  temporal loops plus those of its ancestors (inner to outer), because a
  slice persists in the node's buffer exactly as long as no walked loop
  displaces it.  Wrap-around of inner loops is part of each boundary's
  displacement, reproducing Fig. 5.
* **Seq eviction** — ascending through a ``Seq`` fusion node stops the walk
  for tensors the *following* sibling tile does not use: their slices are
  evicted, so every remaining outer iteration refills from scratch
  (multiplicative).
* **Fusion saving / LCA routing** — an intermediate tensor lives at its
  least-common-ancestor node; it never crosses above that node's memory
  level, and loops above the LCA (which re-produce the tensor) contribute
  multiplicatively, never as reuse.
* **Spatial loops** — a node's own spatial loops enlarge its slice (the
  level's instances co-reside); ancestors' spatial loops multiply traffic
  when they displace the slice and broadcast (x1) when they do not.

The result records per-level fill/read/update word counts (the paper's
Fig. 10d breakdown) and per-node load/store totals for the latency model.

When the context carries a shared artifact cache, one layer caches the
expensive arithmetic across evaluations:

* **Group flows** — a child of the tree root has exactly one ancestor,
  so the complete data-movement output of its subtree (per-node fills,
  updates, and ordered traffic contributions) is pinned by one cheap
  key: the subtree's structural fingerprint plus the root's level,
  loops, and per-tensor eviction/home bits
  (:meth:`DataMovementAnalysis._group_key`).  Search moves that leave a
  whole top-level group's configuration unchanged — the common case in
  MCTS factor tuning, where samples revisit per-group configurations far
  more often than whole-tree ones — replay the group's flows without
  touching a single walk.  Replay preserves the pre-order float
  accumulation order, keeping cached and uncached runs byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..arch import Architecture
from ..ir import Operator, TensorAccess
from ..tile.bindings import Binding
from ..tile.loops import Loop
from ..tile.tree import AnalysisTree, FusionNode, OpTile, TileNode
from .context import AnalysisContext
from .metrics import LevelTraffic
from .slices import walk_movement


@dataclass
class NodeFlows:
    """Traffic and residency of one tree node."""

    node: TileNode
    #: Words filled into this node's buffer per tensor, whole execution.
    fills: Dict[str, float] = field(default_factory=dict)
    #: Words written back from this node's buffer to its parent's.
    updates: Dict[str, float] = field(default_factory=dict)
    #: Words resident per tensor for one time step (capacity analysis).
    staged_words: Dict[str, float] = field(default_factory=dict)

    @property
    def load_words(self) -> float:
        return sum(self.fills.values())

    @property
    def store_words(self) -> float:
        return sum(self.updates.values())


@dataclass
class DataMovementResult:
    """Output of the data-movement analysis."""

    traffic: Dict[int, LevelTraffic]
    node_flows: Dict[int, NodeFlows]  # keyed by id(node)

    def flows(self, node: TileNode) -> NodeFlows:
        return self.node_flows[id(node)]


class _Walk:
    """The truncated ancestor loop walk for one (node, tensor) pair."""

    __slots__ = ("loops", "multiplier", "multiplied")

    def __init__(self, loops: List[Loop], multiplier: float,
                 multiplied: List[Tuple[str, int]]):
        self.loops = loops  # outer -> inner
        self.multiplier = multiplier
        #: (dim, count) of loops folded into the multiplier.
        self.multiplied = multiplied

    @property
    def multiplied_dims(self) -> List[str]:
        return [d for d, _ in self.multiplied]


class DataMovementAnalysis:
    """Runs the §5.1 analysis over a validated tree.

    The two refinement rules can be ablated (``model_eviction`` switches
    off the §5.1.2 Seq eviction, ``model_rmw`` switches off partial-sum
    read-modify-write accounting); the ablation benches quantify what
    each rule contributes to the model's predictions.

    Slice geometry, tensor homes, and loop products come from a shared
    :class:`~repro.analysis.context.AnalysisContext`; pass one to reuse
    intermediates across pipeline passes, or omit it for a standalone
    run (a private context is created, and the ablation flags above
    apply).  When a context is given, *its* flags win.
    """

    def __init__(self, tree: AnalysisTree, arch: Architecture,
                 model_eviction: bool = True, model_rmw: bool = True,
                 context: Optional[AnalysisContext] = None):
        self.tree = tree
        self.arch = arch
        self.ctx = context if context is not None else AnalysisContext(
            tree, arch, model_eviction=model_eviction, model_rmw=model_rmw)
        self.model_eviction = self.ctx.model_eviction
        self.model_rmw = self.ctx.model_rmw
        #: Per-run memo: (id(parent), id(child), tensor) -> Seq-evicted?
        self._evictions: Dict[Tuple[int, int, str], bool] = {}

    # ------------------------------------------------------------------
    def run(self) -> DataMovementResult:
        traffic: Dict[int, LevelTraffic] = {
            i: LevelTraffic() for i in range(self.arch.num_levels)}
        node_flows: Dict[int, NodeFlows] = {}

        def apply(node: TileNode, flows: NodeFlows, contribs) -> None:
            # Apply the node's per-level contributions in their original
            # (pre-order) position: float accumulation order is part of
            # the byte-identity contract between cached and uncached runs.
            for level, direction, tensor_name, words in contribs:
                traffic[level].add(direction, tensor_name, words)
            node_flows[id(node)] = flows

        root = self.tree.root
        flows, contribs = self._analyze_node(root)
        apply(root, flows, contribs)
        store = (self.ctx.shared_store("groupflows")
                 if self.ctx.artifact_cache is not None else None)
        for group in root.children_nodes():
            key = None if store is None else self._group_key(group)
            entry = None if store is None else store.data.get(key)
            if entry is not None:
                store.touch(key)
            elif store is not None:
                entry = store.miss_through(key)
            if entry is None:
                fresh = []
                for node in group.walk():
                    flows, contribs = self._analyze_node(node)
                    apply(node, flows, contribs)
                    fresh.append((flows.fills, flows.updates, contribs))
                if store is not None:
                    store.put(key, tuple(fresh))
            else:
                for node, (fills, updates, contribs) in zip(group.walk(),
                                                            entry):
                    # Cached dicts are shared read-only across runs (all
                    # NodeFlows consumers only read); residency always
                    # equals the node's (fingerprint-cached) slices.
                    flows = NodeFlows(
                        node=node, fills=fills, updates=updates,
                        staged_words=self.ctx.node_slices(node).staged_words)
                    apply(node, flows, contribs)
        self._add_compute_accesses(traffic)
        return DataMovementResult(traffic=traffic, node_flows=node_flows)

    def _group_key(self, group: TileNode) -> Tuple:
        """Cache key for the flows of one whole child-of-root subtree.

        A child of the root has exactly one ancestor, so everything its
        subtree's walks can see outside the subtree itself is: the fill
        source level, the root's loops (walked, or folded into spatial
        multipliers), and — per tensor the subtree stages — whether the
        root Seq-evicts it between iterations and whether the root is
        its home (LCA truncation).  The subtree fingerprint pins the
        rest.  One tuple per *group* per evaluation keeps the key cost
        negligible, unlike a per-node environment fingerprint.
        """
        root = self.tree.root
        bits: List[str] = []
        for tensor_name in self.ctx.node_slices(group).tensors:
            evicted = (self.model_eviction
                       and self._evicted_at(root, group, tensor_name))
            home_is_root = self.ctx.home(tensor_name) is root
            bits.append(tensor_name + ("e" if evicted else ".")
                        + ("h" if home_is_root else "."))
        return (self.ctx.fingerprint(group), root.level,
                ",".join(repr(lp) for lp in root.loops), ";".join(bits))

    def _analyze_node(self, node: TileNode
                      ) -> Tuple[NodeFlows, List[Tuple[int, str, str, float]]]:
        """One node's flows plus its ordered per-level traffic adds."""
        flows = NodeFlows(node=node)
        contribs: List[Tuple[int, str, str, float]] = []
        source_level = (node.parent.level if node.parent is not None
                        else self.arch.dram_index)
        slices = self.ctx.node_slices(node)
        # Residency equals the slice geometry verbatim; the dict is
        # shared read-only (NodeSlices instances may be cache entries).
        flows.staged_words = slices.staged_words
        for tensor_name in slices.tensors:
            # Fills/updates exist only for tensors whose slices cross
            # into this node's buffer from a higher level (§5.1).
            if not self.ctx.tensor_crossing(node, tensor_name):
                continue
            reader_pairs = slices.readers.get(tensor_name, [])
            writer_pairs = slices.writers.get(tensor_name, [])
            # A slice is one buffer instance's residency: loops below the
            # node plus its unit-step (PE-lane) spatial loops.  Block-
            # distributing spatial loops multiply traffic in the walk.
            extents = slices.extents[tensor_name]
            home = self.ctx.home(tensor_name)

            if reader_pairs:
                leaf, access = reader_pairs[0]
                walk = self._build_walk(node, tensor_name, access, home)
                words = self._walk_volume(extents, access, walk)
                flows.fills[tensor_name] = (
                    flows.fills.get(tensor_name, 0.0) + words)
                contribs.append((node.level, "fill", tensor_name, words))
                contribs.append((source_level, "read", tensor_name, words))
            if writer_pairs:
                leaf, access = writer_pairs[0]
                walk = self._build_walk(node, tensor_name, access, home)
                words = self._walk_volume(extents, access, walk)
                flows.updates[tensor_name] = (
                    flows.updates.get(tensor_name, 0.0) + words)
                contribs.append((source_level, "update", tensor_name, words))
                # Read-modify-write: any update traffic beyond the
                # reduction-free ideal is a partial sum written back early
                # (an outer reduction loop displaced the slice), and each
                # such writeback is refetched before accumulation resumes.
                red = leaf.op.reduction_dims
                ideal = self._ideal_update_volume(extents, access, walk, red)
                rmw = max(0.0, words - ideal) if self.model_rmw else 0.0
                if rmw > 0:
                    flows.fills[tensor_name] = (
                        flows.fills.get(tensor_name, 0.0) + rmw)
                    contribs.append((node.level, "fill", tensor_name, rmw))
                    contribs.append((source_level, "read", tensor_name, rmw))
        return flows, contribs

    def _ideal_update_volume(self, extents, access, walk: "_Walk",
                             reduction_dims) -> float:
        """Update volume if no reduction loop ever displaced the slice."""
        loops = [lp for lp in walk.loops if lp.dim not in reduction_dims]
        mult_red = 1.0
        for dim, count in walk.multiplied:
            if dim in reduction_dims:
                mult_red *= count
        ideal_walk = _Walk(loops, walk.multiplier / max(1.0, mult_red), [])
        return self._walk_volume(extents, access, ideal_walk)

    # ------------------------------------------------------------------
    def _build_walk(self, node: TileNode, tensor_name: str,
                    access: TensorAccess,
                    home: Optional[TileNode]) -> _Walk:
        """Ancestor loop walk with Seq-eviction and LCA truncation."""
        walk_inner_to_outer: List[Loop] = []
        multiplier = 1.0
        multiplied: List[Tuple[str, int]] = []
        stopped = False
        # A Seq fusion node evicts a tensor between its own iterations when
        # the sibling following the tensor's last user does not need it, so
        # the node's own temporal loops refill rather than reuse.
        if self._self_evicts(node, tensor_name):
            for lp in node.temporal_loops:
                multiplier *= lp.count
                multiplied.append((lp.dim, lp.count))
        else:
            walk_inner_to_outer.extend(reversed(node.temporal_loops))
        # The node's own block-distributing spatial loops (step > 1)
        # spread slices over separate buffer instances.
        for lp in node.spatial_loops:
            if lp.step == 1:
                continue
            if self._loop_displaces(access, lp):
                multiplier *= lp.count
                multiplied.append((lp.dim, lp.count))
        current: TileNode = node
        while current.parent is not None:
            parent = current.parent
            for lp in parent.spatial_loops:
                if self._loop_displaces(access, lp):
                    multiplier *= lp.count
                    multiplied.append((lp.dim, lp.count))
            if (not stopped and self.model_eviction
                    and self._evicted_at(parent, current, tensor_name)):
                stopped = True
            if stopped:
                for lp in parent.temporal_loops:
                    multiplier *= lp.count
                    multiplied.append((lp.dim, lp.count))
            else:
                walk_inner_to_outer.extend(reversed(parent.temporal_loops))
            if parent is home:
                stopped = True
            current = parent
        walk_inner_to_outer.reverse()
        return _Walk(walk_inner_to_outer, multiplier, multiplied)

    @staticmethod
    def _loop_displaces(access: TensorAccess, lp: Loop) -> bool:
        """Whether one step of ``lp`` moves the access's slice.

        Steps are positive and compiled columns hold only referenced
        dims (each with a non-zero coefficient somewhere), so a loop
        displaces exactly when the access reads its dim.
        """
        return lp.dim in access.columns

    def _self_evicts(self, node: TileNode, tensor_name: str) -> bool:
        """Seq eviction applied to the node's own iterations (§5.1.2)."""
        if not self.model_eviction:
            return False
        if not isinstance(node, FusionNode):
            return False
        if node.binding is not Binding.SEQ or len(node.children) < 2:
            return False
        users = [i for i, c in enumerate(node.children)
                 if self.ctx.subtree_uses(c, tensor_name)]
        if not users:
            return False
        following = node.children[(users[-1] + 1) % len(node.children)]
        return not self.ctx.subtree_uses(following, tensor_name)

    def _evicted_at(self, parent: TileNode, child: TileNode,
                    tensor_name: str) -> bool:
        """§5.1.2: Seq evicts slices the following sibling does not need.

        Memoized per run — the environment fingerprints and the walks of
        a node's whole subtree ask about the same (parent, child, tensor)
        triples.
        """
        if not isinstance(parent, FusionNode):
            return False
        if parent.binding is not Binding.SEQ or len(parent.children) < 2:
            return False
        key = (id(parent), id(child), tensor_name)
        hit = self._evictions.get(key)
        if hit is None:
            idx = next(i for i, c in enumerate(parent.children) if c is child)
            following = parent.children[(idx + 1) % len(parent.children)]
            hit = (following is not child
                   and not self.ctx.subtree_uses(following, tensor_name))
            self._evictions[key] = hit
        return hit

    @staticmethod
    def _walk_volume(extents: Sequence[int], access: TensorAccess,
                     walk: _Walk) -> float:
        """Moved words for one (tensor, walk): the boundary recursion."""
        return walk_movement(extents, access, walk.loops) * walk.multiplier

    # ------------------------------------------------------------------
    def _add_compute_accesses(self, traffic: Dict[int, LevelTraffic]) -> None:
        """Operand/accumulator accesses at the innermost level.

        Each iteration point reads its input operands from and writes its
        accumulator to the leaf-level buffer (registers); these are the
        "Reg" accesses of the paper's energy breakdown (Fig. 13).
        """
        for leaf in self.tree.root.leaves():
            points = leaf.trip_count * self.ctx.executions(leaf)
            level = traffic[leaf.level]
            for access in leaf.op.inputs:
                level.add("read", access.tensor.name, float(points))
            level.add("update", leaf.op.output.tensor.name, float(points))
