"""Shared per-evaluation analysis state.

:class:`AnalysisContext` is the blackboard one pipeline run
(:mod:`repro.analysis.pipeline`) writes its artifacts into, plus a memo
layer for the per-node intermediates several analyses need:

* **slice geometry** (:class:`NodeSlices`) — the (leaf, access) pairs
  below a node grouped by tensor, their merged slice extents, and the
  per-tensor staged word counts.  Data movement (§5.1), the resource
  footprint (§5.2), and the feasibility bounds all consume these; the
  context computes them once per node.
* **loop products** — ``executions(node)`` (how many times a node's
  subtree runs over the whole execution) and the ``NumPE`` compute
  demand recursion of §5.2, both exact integer arithmetic.
* **tensor residency** — the LCA home node of each tensor and the
  "does this subtree use tensor X" predicate driving Seq eviction.

A context is valid for exactly one ``(tree, arch)`` pair.  Memos are
keyed by the *structural subtree fingerprint*
(:mod:`repro.analysis.fingerprint`) rather than ``id(node)``, so

* entries for subtree-local intermediates (slices, NumPE) stay valid
  across trees and can be served from a shared
  :class:`~repro.engine.cache.SubtreeArtifactCache` (``artifact_cache``)
  that persists across evaluations — the incremental-evaluation layer;
* querying the context with a node from a *different* tree raises
  :class:`~repro.errors.ForeignNodeError` instead of silently returning
  stale geometry keyed by a recycled ``id()``;
* after mutating the context's own tree in place,
  :meth:`AnalysisContext.invalidate` re-arms it: tree-global state
  (artifacts, completed passes, executions, tensor homes, fingerprints)
  is dropped, while fingerprint-keyed subtree memos survive — untouched
  sibling subtrees are served from memo, only the mutated path
  recomputes.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..arch import Architecture
from ..errors import ForeignNodeError
from ..ir import TensorAccess
from ..tile.tree import AnalysisTree, FusionNode, OpTile, TileNode
from .fingerprint import cache_namespace, node_fingerprints
from .slices import box_volume, merged_extents, slice_coverage

AccessPairs = List[Tuple[OpTile, TensorAccess]]


class NodeSlices:
    """Slice geometry of one tree node, grouped by tensor.

    ``tensors`` is sorted so every float accumulation over it is
    deterministic; ``extents[t]`` merges the slice bounding boxes of all
    reads and writes of ``t`` below the node, and ``staged_words[t]`` is
    that box's volume (one buffer instance's residency per time step).

    Instances may be shared across structurally identical subtrees of
    different trees (the engine's subtree artifact cache does exactly
    that), so consumers must never mutate them; the ``(leaf, access)``
    pairs are only read for the shared :class:`~repro.ir.Operator` /
    :class:`~repro.ir.TensorAccess` objects, which are identical for
    equal-fingerprint subtrees of one workload.
    """

    __slots__ = ("readers", "writers", "tensors", "extents", "staged_words")

    def __init__(self, node: TileNode):
        self.readers: Dict[str, AccessPairs] = {}
        self.writers: Dict[str, AccessPairs] = {}
        # One slice coverage per leaf, shared by all of its accesses.
        boxes: Dict[str, List[Tuple[int, ...]]] = {}
        for leaf in node.leaves():
            cov = slice_coverage(node, leaf)
            for access in leaf.op.inputs:
                self.readers.setdefault(access.tensor.name, []).append(
                    (leaf, access))
                boxes.setdefault(access.tensor.name, []).append(
                    access.extents_over(cov))
            out = leaf.op.output
            self.writers.setdefault(out.tensor.name, []).append((leaf, out))
            boxes.setdefault(out.tensor.name, []).append(
                out.extents_over(cov))
        self.tensors: Tuple[str, ...] = tuple(sorted(boxes))
        self.extents: Dict[str, Tuple[int, ...]] = {}
        self.staged_words: Dict[str, float] = {}
        for name in self.tensors:
            extents = merged_extents(boxes[name])
            self.extents[name] = extents
            self.staged_words[name] = float(box_volume(extents))


def num_pe_demand(node: TileNode) -> Tuple[int, int]:
    """(MAC PEs, vector PEs) used concurrently by the subtree (§5.2).

    The single home of the paper's ``NumPE`` recursion: concurrent
    siblings (``Para``/``Pipe``) add their demands, time-shared siblings
    (``Seq``/``Shar``) take the max, spatial loops multiply.  Purely
    structural — needs no data-movement information — so the feasibility
    bounds and the resource analysis share it.
    """
    if node.is_leaf():
        assert isinstance(node, OpTile)
        used = node.spatial_trip_count
        return (used, 0) if node.op.kind == "mac" else (0, used)
    sp = node.spatial_trip_count
    if isinstance(node, OpTile):
        mac, vec = num_pe_demand(node.child)
        return sp * mac, sp * vec
    assert isinstance(node, FusionNode)
    demands = [num_pe_demand(c) for c in node.children]
    if node.binding.shares_compute_in_time:
        mac = max(d[0] for d in demands)
        vec = max(d[1] for d in demands)
    else:
        mac = sum(d[0] for d in demands)
        vec = sum(d[1] for d in demands)
    return sp * mac, sp * vec


class AnalysisContext:
    """Blackboard + memo store for one evaluation of one tree.

    Passes communicate exclusively through :meth:`put`/:meth:`get`
    artifacts (declared in their ``reads``/``writes``); the memoized
    accessors below are shared computation, not artifacts, and may be
    called by any pass.

    ``artifact_cache`` (duck-typed: ``store(namespace, kind)`` returning
    a dict-backed store, see
    :class:`~repro.engine.cache.SubtreeArtifactCache`) plugs in a
    persistent cross-evaluation store for subtree-local memos; stores
    are namespaced by
    :func:`~repro.analysis.fingerprint.cache_namespace` so one cache
    can serve many workloads/architectures.
    """

    def __init__(self, tree: AnalysisTree, arch: Architecture, *,
                 model_eviction: bool = True, model_rmw: bool = True,
                 check_memory: bool = True, artifact_cache: Any = None):
        self.tree = tree
        self.arch = arch
        self.model_eviction = model_eviction
        self.model_rmw = model_rmw
        #: Whether the resource-bounds pass checks buffer capacities
        #: (mappers with ``respect_memory=False`` switch it off).
        self.check_memory = check_memory
        #: Optional persistent cross-evaluation artifact store.
        self.artifact_cache = artifact_cache
        #: Names of passes that have finished, in execution order.
        self.completed: List[str] = []
        #: True when a run stopped at the first violation-producing pass.
        self.early_exit = False
        self._artifacts: Dict[str, Any] = {}
        #: ``id(node) -> fingerprint`` for the current tree shape; built
        #: lazily, dropped by :meth:`invalidate`.
        self._fps: Optional[Dict[int, str]] = None
        self._ns: Optional[str] = None
        #: kind -> bound KindStore of ``artifact_cache`` (lazy).
        self._kind_stores: Dict[str, Any] = {}
        #: Context-local memo hits (slices/NumPE served from this
        #: evaluation's own dicts, as opposed to the shared store or a
        #: fresh compute) — ``repro explain`` provenance attribution.
        self.memo_hits = 0
        self._slices: Dict[str, NodeSlices] = {}
        self._num_pe: Dict[str, Tuple[int, int]] = {}
        self._executions: Dict[str, int] = {}
        self._homes: Dict[str, Optional[TileNode]] = {}
        self._homes_built = False
        #: (id(node), tensor) -> crossing? — id-keyed like homes, so
        #: :meth:`invalidate` must clear it (levels/homes may shift).
        self._crossing: Dict[Tuple[int, str], bool] = {}

    # -- artifacts -------------------------------------------------------
    def put(self, name: str, value: Any) -> None:
        self._artifacts[name] = value

    def get(self, name: str, default: Any = None) -> Any:
        return self._artifacts.get(name, default)

    def has(self, name: str) -> bool:
        return name in self._artifacts

    def mark_completed(self, pass_name: str) -> None:
        """Record a pass as done without running it (resume / skip)."""
        if pass_name not in self.completed:
            self.completed.append(pass_name)

    # -- fingerprints / shared cache -------------------------------------
    def fingerprint(self, node: TileNode) -> str:
        """The node's structural subtree fingerprint (memo key).

        Raises :class:`ForeignNodeError` for nodes outside this
        context's tree — including nodes spliced in by an in-place
        mutation the context has not been told about via
        :meth:`invalidate`.
        """
        if self._fps is None:
            self._fps = node_fingerprints(self.tree.root)
        try:
            return self._fps[id(node)]
        except KeyError:
            raise ForeignNodeError(
                f"node {node.label()!r} is not part of tree "
                f"{self.tree.name!r}; an AnalysisContext serves exactly one "
                f"tree — build a fresh context for other trees, or call "
                f"invalidate() after mutating this context's tree in place"
            ) from None

    def _namespace(self) -> str:
        if self._ns is None:
            self._ns = cache_namespace(self.tree.workload, self.arch,
                                       self.model_eviction, self.model_rmw)
        return self._ns

    def shared_store(self, kind: str) -> Any:
        """The bound per-kind store of the artifact cache (None without).

        The returned :class:`~repro.engine.cache.KindStore` is already
        namespaced to this context's workload/arch/flags; hot loops may
        probe its ``data`` dict directly (recording outcomes via
        ``store.touch(key)``/``store.miss_through(key)`` — the latter
        also consults the shared/disk tiers for tiered kinds) instead
        of paying :meth:`shared_get` dispatch per lookup.
        """
        if self.artifact_cache is None:
            return None
        store = self._kind_stores.get(kind)
        if store is None:
            store = self.artifact_cache.store(self._namespace(), kind)
            self._kind_stores[kind] = store
        return store

    def shared_get(self, kind: str, key: Any) -> Any:
        """Look ``key`` up in the cross-evaluation artifact cache."""
        store = self.shared_store(kind)
        if store is None:
            return None
        value = store.data.get(key)
        if value is None:
            # Counts the L1 miss, then falls through to the L2/L3 tiers
            # for tiered kinds (tier hits re-enter L1 and return here).
            return store.miss_through(key)
        store.touch(key)
        return value

    def shared_put(self, kind: str, key: Any, value: Any) -> None:
        store = self.shared_store(kind)
        if store is not None:
            store.put(key, value)

    def invalidate(self, subtree: Optional[TileNode] = None) -> None:
        """Re-arm the context after an in-place mutation of its tree.

        Drops everything whose validity spans the whole tree: pipeline
        artifacts and completed-pass bookkeeping, the fingerprint map,
        execution counts (they depend on *ancestor* loops, which an
        unchanged fingerprint cannot vouch for), and tensor homes.
        Fingerprint-keyed subtree memos (slices, NumPE) are kept:
        subtrees the mutation did not touch keep their fingerprints and
        are served from memo (or the shared artifact cache), so only the
        mutated path to the root recomputes.

        ``subtree`` optionally names the mutated subtree; it must belong
        to this context's tree (checked via parent pointers — the
        fingerprint map is stale by definition here).  The mutation must
        preserve the tree's operator->leaf structure (loop/factor
        changes, binding flips); splicing different *operators* in needs
        a new ``AnalysisTree`` and a new context.
        """
        if subtree is not None:
            top = subtree
            while top.parent is not None:
                top = top.parent
            if top is not self.tree.root:
                raise ForeignNodeError(
                    f"subtree {subtree.label()!r} does not belong to tree "
                    f"{self.tree.name!r}; invalidate() only covers this "
                    f"context's own tree")
        self._artifacts.clear()
        self.completed.clear()
        self.early_exit = False
        self._fps = None
        self._executions.clear()
        self._homes = {}
        self._homes_built = False
        self._crossing.clear()

    # -- memoized per-node intermediates ---------------------------------
    def node_slices(self, node: TileNode) -> NodeSlices:
        fp = self.fingerprint(node)
        cached = self._slices.get(fp)
        if cached is None:
            cached = self.shared_get("slices", fp)
            if cached is None:
                cached = NodeSlices(node)
                self.shared_put("slices", fp, cached)
            self._slices[fp] = cached
        else:
            self.memo_hits += 1
        return cached

    def num_pe(self, node: TileNode) -> Tuple[int, int]:
        fp = self.fingerprint(node)
        cached = self._num_pe.get(fp)
        if cached is None:
            cached = self.shared_get("num_pe", fp)
            if cached is None:
                cached = self._num_pe_recurse(node)
                self.shared_put("num_pe", fp, cached)
            self._num_pe[fp] = cached
        else:
            self.memo_hits += 1
        return cached

    def _num_pe_recurse(self, node: TileNode) -> Tuple[int, int]:
        """§5.2 ``NumPE`` with per-child memo lookups.

        Mirrors :func:`num_pe_demand` exactly (same integer arithmetic)
        but recurses through :meth:`num_pe`, so a fresh root combines
        cached per-subtree demands instead of re-walking whole groups.
        """
        if node.is_leaf():
            assert isinstance(node, OpTile)
            used = node.spatial_trip_count
            return (used, 0) if node.op.kind == "mac" else (0, used)
        sp = node.spatial_trip_count
        if isinstance(node, OpTile):
            mac, vec = self.num_pe(node.child)
            return sp * mac, sp * vec
        assert isinstance(node, FusionNode)
        demands = [self.num_pe(c) for c in node.children]
        if node.binding.shares_compute_in_time:
            mac = max(d[0] for d in demands)
            vec = max(d[1] for d in demands)
        else:
            mac = sum(d[0] for d in demands)
            vec = sum(d[1] for d in demands)
        return sp * mac, sp * vec

    def executions(self, node: TileNode) -> int:
        """How many times the node's subtree runs over the execution.

        The exact integer product of all ancestors' trip counts (the
        node's own loops are *inside* one execution).  Context-local
        only — the value depends on the node's ancestors, so an
        unchanged subtree fingerprint is no licence to reuse it across
        trees; :meth:`invalidate` clears it wholesale.
        """
        key = self.fingerprint(node)
        cached = self._executions.get(key)
        if cached is None:
            parent = node.parent
            cached = (1 if parent is None
                      else self.executions(parent) * parent.trip_count)
            self._executions[key] = cached
        return cached

    def subtree_uses(self, node: TileNode, tensor_name: str) -> bool:
        """Whether any leaf below ``node`` reads or writes the tensor.

        Equivalent to membership in the node's slice tensors (every
        access is an input or the output of some leaf op), so it rides
        the slices memo instead of re-walking leaves.
        """
        return tensor_name in self.node_slices(node).tensors

    def home(self, tensor_name: str) -> Optional[TileNode]:
        """The tensor's LCA home node (None for workload inputs/outputs)."""
        if not self._homes_built:
            self._homes = {t.name: self.tree.tensor_home(t.name)
                           for t in self.tree.workload.tensors()}
            self._homes_built = True
        return self._homes.get(tensor_name)

    def tensor_crossing(self, node: TileNode, tensor_name: str) -> bool:
        """Whether the tensor's slice crosses into ``node``'s buffer.

        True iff the tensor lives above the node (external, or homed at
        a strict ancestor) *and* the node's level is below its fill
        source — exactly the condition under which the data-movement
        analysis records fills/updates for it at this node, and hence
        the resource analysis double-buffers it.
        """
        key = (id(node), tensor_name)
        hit = self._crossing.get(key)
        if hit is None:
            home = self.home(tensor_name)
            above = node.parent
            if home is not None:  # look for home among the ancestors
                while above is not None and above is not home:
                    above = above.parent
            if home is not None and above is None:  # homed at/below node
                hit = False
            else:
                source_level = (node.parent.level if node.parent is not None
                                else self.arch.dram_index)
                hit = node.level < source_level
            self._crossing[key] = hit
        return hit

    def staged_bytes_lower_bound(self, node: TileNode) -> float:
        """Byte floor of one buffer instance of ``node``.

        Crossing tensors are double-buffered by the resource analysis;
        with the :meth:`tensor_crossing` predicate this sum equals the
        full model's own-node staged bytes exactly, and the full
        footprint only *adds* child contributions on top — so the bound
        is sound for the feasibility screen while catching mappings
        that only violate capacity through double-buffered crossing
        tensors.
        """
        slices = self.node_slices(node)
        total = 0.0
        for tensor_name in slices.tensors:
            factor = 2.0 if self.tensor_crossing(node, tensor_name) else 1.0
            total += (factor * slices.staged_words[tensor_name]
                      * self.tree.workload.tensor(tensor_name).word_bytes)
        return total
