"""Dimension-coverage computation over analysis trees.

The *coverage* of an operator dimension at a node is the number of
contiguous index values the subtree below (and including) that node spans
for the dimension — the quantity both the structural validation (does the
root cover the whole iteration space?) and the slice analysis (what are the
tile extents at each level?) need.

Coverage composes bottom-up: a leaf covers ``1`` per dim before its own
loops are applied, and each loop over dim ``d`` with ``count`` iterations
of ``step`` extends the coverage to ``step * (count - 1) + inner``.
Because fused producers may cover more than the shared loop's step (halo),
coverage at the root may legitimately exceed the operator's dimension size.
"""

from __future__ import annotations

from typing import Container, Dict, Optional, Sequence

from ..ir import Operator
from .loops import Loop
from .tree import OpTile, TileNode


def apply_loops(coverage: Dict[str, int], loops: Sequence[Loop],
                dims: Optional[Container[str]] = None) -> Dict[str, int]:
    """Extend per-dim coverage by a node's loops (processed inner→outer).

    ``dims`` filters the loops applied (any container: an operator's
    ``dims`` mapping is used as is, without copying it into a set).
    """
    cov = dict(coverage)
    for lp in reversed(loops):
        if dims is not None and lp.dim not in dims:
            continue
        cov[lp.dim] = lp.step * (lp.count - 1) + cov.get(lp.dim, 1)
    return cov


def op_coverage_below(node: TileNode, op: Operator,
                      leaf: Optional[OpTile] = None) -> Dict[str, int]:
    """Coverage of ``op``'s dims by the subtree rooted at ``node``.

    ``node`` must contain the op's leaf; loops at ``node`` itself are
    included.  Dims of the op not touched by any loop get coverage 1.
    Pass ``leaf`` when it is already known (``AnalysisTree.leaf``) to
    skip searching the subtree for it.
    """
    if leaf is None:
        leaf = _find_leaf(node, op)
    cov: Dict[str, int] = {d: 1 for d in op.dims}
    current: Optional[TileNode] = leaf
    while current is not None:
        cov = apply_loops(cov, current.loops, op.dims)
        if current is node:
            break
        current = current.parent
    else:  # pragma: no cover - guarded by _find_leaf
        raise ValueError(f"{node.label()} does not contain {op.name}")
    return cov


def _find_leaf(node: TileNode, op: Operator) -> OpTile:
    for leaf in node.leaves():
        if leaf.op.name == op.name:
            return leaf
    raise ValueError(
        f"subtree {node.label()!r} has no leaf for operator {op.name!r}")
