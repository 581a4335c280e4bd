"""Structural validation of analysis trees.

Checks (all from §4 of the paper):

1. **Level monotonicity** — memory levels never increase from root to leaf.
2. **Chain shape** — an :class:`OpTile`'s child must be an OpTile of the
   same operator (fusion happens only at :class:`FusionNode`s).
3. **Coverage** — the tree covers the full iteration space of every
   operator (over-coverage is legal: it is the halo/recompute of fused
   convolutions).
4. **Fusion loop dims** — a loop at a FusionNode must iterate a dim of at
   least one operator in its subtree.
5. **Reduction-loop rule** (§4.1) — when a producer is fused, its
   reduction dims must not appear as loops of any fusion node containing
   both the producer and a consumer of its output; otherwise the consumer
   could not start until the producer finished, breaking the pipeline.
6. **Sibling order** — within a FusionNode, producers execute before
   consumers of their tensors; ``Para`` siblings must be independent.

:func:`validate_tree` raises :class:`TreeValidationError` on the first
violation; :func:`check_tree` returns the list of all violation messages.

:func:`validate_tree_cached` is the incremental variant: given an
analysis context with a shared artifact cache it validates per subtree
fingerprint — every rule except root coverage is local to a subtree
(given the workload, which the cache namespace pins), and coverage
composes bottom-up per operator — so re-validating a tree that shares
subtrees with previously validated ones only inspects the fresh ones.
A tree found invalid falls back to :func:`check_tree` so the error
message lists problems in the canonical (per-rule) order.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..errors import TreeValidationError
from .coverage import apply_loops, op_coverage_below
from .bindings import Binding
from .tree import AnalysisTree, FusionNode, OpTile, TileNode


def check_tree(tree: AnalysisTree) -> List[str]:
    """Return a list of structural-rule violations (empty when valid)."""
    problems: List[str] = []
    _check_levels(tree.root, problems)
    _check_chains(tree.root, problems)
    _check_coverage(tree, problems)
    _check_fusion_loops(tree, problems)
    _check_reduction_rule(tree, problems)
    _check_sibling_order(tree, problems)
    return problems


def validate_tree(tree: AnalysisTree) -> None:
    """Raise :class:`TreeValidationError` if the tree is malformed."""
    problems = check_tree(tree)
    if problems:
        raise TreeValidationError(
            f"tree {tree.name!r} is invalid:\n  - " + "\n  - ".join(problems))


def validate_tree_cached(ctx) -> None:
    """Validate ``ctx.tree`` with per-subtree memoization.

    ``ctx`` is an :class:`~repro.analysis.context.AnalysisContext` (duck
    typed: ``tree``, ``fingerprint``, ``shared_get``/``shared_put``).
    Subtree verdicts are cached under kind ``"valid"`` and per-operator
    coverage under ``"cov"``; both are functions of the subtree shape
    plus the workload, which the cache namespace pins.  The happy path
    (valid tree) touches only fingerprints and fresh subtrees; any
    problem re-runs :func:`check_tree` so the raised message is
    byte-identical to the uncached path.
    """
    tree = ctx.tree
    if _subtree_problems(ctx, tree.root) or _coverage_problems(ctx):
        validate_tree(tree)  # canonical problem order; raises
        raise TreeValidationError(  # pragma: no cover - cache/full skew
            f"tree {tree.name!r} is invalid (cached validation found "
            f"problems the full check did not — cache corruption?)")


def _subtree_problems(ctx, node: TileNode) -> Tuple[str, ...]:
    """Structural problems (all rules but coverage) within one subtree."""
    fp = ctx.fingerprint(node)
    cached = ctx.shared_get("valid", fp)
    if cached is None:
        problems: List[str] = []
        _node_problems(node, ctx.tree.workload, problems)
        for child in node.children_nodes():
            problems.extend(_subtree_problems(ctx, child))
        cached = tuple(problems)
        ctx.shared_put("valid", fp, cached)
    return cached


def _node_problems(node: TileNode, workload, problems: List[str]) -> None:
    """The node-local slice of every structural rule but coverage."""
    for child in node.children_nodes():
        if child.level > node.level:
            problems.append(
                f"level increases from {node.label()} (L{node.level}) "
                f"to child {child.label()} (L{child.level})")
    if isinstance(node, OpTile) and node.child is not None:
        child = node.child
        if not isinstance(child, OpTile):
            problems.append(
                f"OpTile {node.label()} has non-OpTile child "
                f"{child.label()}; fusion requires a FusionNode")
        elif child.op.name != node.op.name:
            problems.append(
                f"OpTile chain switches operator: {node.label()} -> "
                f"{child.label()}")
    if not isinstance(node, FusionNode):
        return
    ops_here = {op.name: op for op in node.subtree_ops()}
    dims = set()
    for op in ops_here.values():
        dims.update(op.dims)
    for lp in node.loops:
        if lp.dim not in dims:
            problems.append(
                f"fusion node {node.label()}: loop dim {lp.dim!r} "
                f"belongs to no operator in its subtree")
    for op in ops_here.values():
        if op.kind in ASSOCIATIVE_KINDS:
            continue
        out = op.output.tensor.name
        consumed_inside = any(c.name in ops_here
                              for c in workload.consumers(out))
        if not consumed_inside:
            continue
        for lp in node.loops:
            if lp.dim in op.reduction_dims:
                problems.append(
                    f"fusion node {node.label()}: loop over {lp.dim!r} "
                    f"is a reduction dim of fused producer {op.name!r} "
                    f"(§4.1 forbids producer reduction loops above the "
                    f"fusion point)")
    position: Dict[str, int] = {}
    for idx, child in enumerate(node.children):
        for op in child.subtree_ops():
            position[op.name] = idx
    for producer, tensor, consumer in workload.dependency_chain():
        if producer in position and consumer in position:
            if position[producer] > position[consumer]:
                problems.append(
                    f"fusion node {node.label()}: child with consumer "
                    f"{consumer!r} precedes child with producer "
                    f"{producer!r} of tensor {tensor!r}")
            elif (position[producer] != position[consumer]
                  and node.binding is Binding.PARA):
                problems.append(
                    f"fusion node {node.label()}: Para siblings must be "
                    f"independent but {consumer!r} depends on "
                    f"{producer!r} via {tensor!r}")


def _coverage_problems(ctx) -> List[str]:
    """Root-coverage check with per-(subtree, operator) memoization."""
    tree = ctx.tree
    problems: List[str] = []
    for op in tree.workload.operators:
        cov = _coverage_at(ctx, tree.op_path(op.name), 0, op)
        for d, size in op.dims.items():
            if cov.get(d, 1) < size:
                problems.append(
                    f"operator {op.name!r}: dim {d!r} covered {cov.get(d, 1)}"
                    f" < {size}")
    return problems


def _coverage_at(ctx, path, idx: int, op) -> Dict[str, int]:
    """Coverage of ``op`` below ``path[idx]``, descending lazily.

    Descending from the root means a warm cache answers with a *single*
    lookup at the outermost cached level instead of one per path node.
    The root itself is never cached: its fingerprint is fresh on every
    mapper move (something below changed), so a root entry would only
    churn the cache.
    """
    node = path[idx]
    at_root = idx == 0
    key = None if at_root else (ctx.fingerprint(node), op.name)
    cached = None if at_root else ctx.shared_get("cov", key)
    if cached is None:
        if idx + 1 < len(path):
            inner = _coverage_at(ctx, path, idx + 1, op)
        else:
            inner = {d: 1 for d in op.dims}
        cached = apply_loops(inner, node.loops, op.dims)
        if not at_root:
            ctx.shared_put("cov", key, cached)
    return cached


# ----------------------------------------------------------------------
def _check_levels(root: TileNode, problems: List[str]) -> None:
    for node in root.walk():
        for child in node.children_nodes():
            if child.level > node.level:
                problems.append(
                    f"level increases from {node.label()} (L{node.level}) "
                    f"to child {child.label()} (L{child.level})")


def _check_chains(root: TileNode, problems: List[str]) -> None:
    for node in root.walk():
        if isinstance(node, OpTile) and node.child is not None:
            child = node.child
            if not isinstance(child, OpTile):
                problems.append(
                    f"OpTile {node.label()} has non-OpTile child "
                    f"{child.label()}; fusion requires a FusionNode")
            elif child.op.name != node.op.name:
                problems.append(
                    f"OpTile chain switches operator: {node.label()} -> "
                    f"{child.label()}")


def _check_coverage(tree: AnalysisTree, problems: List[str]) -> None:
    # AnalysisTree construction guarantees every operator has a leaf.
    for op in tree.workload.operators:
        cov = op_coverage_below(tree.root, op, tree.leaf(op.name))
        for d, size in op.dims.items():
            if cov.get(d, 1) < size:
                problems.append(
                    f"operator {op.name!r}: dim {d!r} covered {cov.get(d, 1)}"
                    f" < {size}")


def _check_fusion_loops(tree: AnalysisTree, problems: List[str]) -> None:
    for node in tree.nodes():
        if not isinstance(node, FusionNode):
            continue
        dims = set()
        for op in node.subtree_ops():
            dims.update(op.dims)
        for lp in node.loops:
            if lp.dim not in dims:
                problems.append(
                    f"fusion node {node.label()}: loop dim {lp.dim!r} "
                    f"belongs to no operator in its subtree")


#: Operator kinds whose reductions are associative and can be computed
#: online (running max / running sum), so tiling their reduction dim above
#: the fusion point is legal — the FlashAttention-style relaxation that
#: enables the paper's winning self-attention dataflow, which tiles the
#: column dimension of S/L/A (§7.5, Table 7 discussion).
ASSOCIATIVE_KINDS = frozenset({"max", "sum"})


def _check_reduction_rule(tree: AnalysisTree, problems: List[str]) -> None:
    workload = tree.workload
    for node in tree.nodes():
        if not isinstance(node, FusionNode):
            continue
        ops_here = {op.name: op for op in node.subtree_ops()}
        for op in ops_here.values():
            if op.kind in ASSOCIATIVE_KINDS:
                continue
            out = op.output.tensor.name
            consumed_inside = any(c.name in ops_here
                                  for c in workload.consumers(out))
            if not consumed_inside:
                continue
            for lp in node.loops:
                if lp.dim in op.reduction_dims:
                    problems.append(
                        f"fusion node {node.label()}: loop over {lp.dim!r} "
                        f"is a reduction dim of fused producer {op.name!r} "
                        f"(§4.1 forbids producer reduction loops above the "
                        f"fusion point)")


def _check_sibling_order(tree: AnalysisTree, problems: List[str]) -> None:
    workload = tree.workload
    for node in tree.nodes():
        if not isinstance(node, FusionNode):
            continue
        position = {}
        for idx, child in enumerate(node.children):
            for op in child.subtree_ops():
                position[op.name] = idx
        for producer, tensor, consumer in workload.dependency_chain():
            if producer in position and consumer in position:
                if position[producer] > position[consumer]:
                    problems.append(
                        f"fusion node {node.label()}: child with consumer "
                        f"{consumer!r} precedes child with producer "
                        f"{producer!r} of tensor {tensor!r}")
                elif (position[producer] != position[consumer]
                      and node.binding is Binding.PARA):
                    problems.append(
                        f"fusion node {node.label()}: Para siblings must be "
                        f"independent but {consumer!r} depends on "
                        f"{producer!r} via {tensor!r}")
