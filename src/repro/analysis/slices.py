"""Slice (box) arithmetic for the data-movement analysis (§5.1).

A *slice* of a tensor is the hyper-rectangle of elements one tile iteration
touches.  Because tile loops advance by fixed steps, a slice's extents are
constant over time and only its position moves — so the set difference
between the slices of two adjacent time steps is a pair of equal-extent
boxes displaced by a constant vector, whose difference volume is

    |new - old| = volume - prod_k max(0, extent_k - |delta_k|)

This module provides that arithmetic plus the helpers that derive extents
and displacements from operator accesses and tree coverage.  The worked
example of Fig. 5 (batched 1D convolution, total movement 168 elements) is
reproduced in the unit tests.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..ir import Operator, TensorAccess
from ..tile.coverage import apply_loops
from ..tile.loops import Loop
from ..tile.tree import OpTile, TileNode


def box_volume(extents: Sequence[int]) -> int:
    """Number of elements in a box with the given per-axis extents."""
    v = 1
    for e in extents:
        v *= max(0, int(e))
    return v


def overlap_volume(extents: Sequence[int],
                   displacement: Sequence[int]) -> int:
    """Intersection volume of a box and a displaced copy of itself."""
    v = 1
    for e, d in zip(extents, displacement):
        v *= max(0, int(e) - abs(int(d)))
    return v


def delta_volume(extents: Sequence[int], displacement: Sequence[int]) -> int:
    """``|new_slice - old_slice|`` for a displaced equal-extent box.

    This is the per-boundary data-movement volume of §5.1.1: the elements
    required by the new time step that were not resident in the previous
    one.
    """
    return box_volume(extents) - overlap_volume(extents, displacement)


def movement_recursion(volume: int, loop_counts: Sequence[int],
                       loop_deltas: Sequence[int]) -> int:
    """Total data movement of a temporal loop nest (§5.1.1).

    ``loop_counts``/``loop_deltas`` are ordered outer to inner; ``volume``
    is the compulsory first fill (one slice).  Implements the paper's
    boundary recursion

        S_n = (N_n - 1) * d_n
        S_i = (N_i - 1) * (d_i + S_{i+1}) + S_{i+1}
        DM  = volume + S_1

    which for Fig. 5's example (volume 24, counts (3, 3), deltas (24, 16))
    yields 168.
    """
    if len(loop_counts) != len(loop_deltas):
        raise ValueError("counts and deltas must have equal length")
    s = 0
    for count, delta in zip(reversed(loop_counts), reversed(loop_deltas)):
        s = (count - 1) * (delta + s) + s
    return volume + s


def walk_movement(extents: Sequence[int], access: TensorAccess,
                  loops: Sequence[Loop]) -> int:
    """The boundary recursion of one slice over a loop walk, in one pass.

    ``loops`` are ordered outer to inner.  Equals

        movement_recursion(box_volume(extents), [lp.count ...],
            [delta_volume(extents, loop_displacement(access, lp,
                                                     loops[i + 1:])) ...])

    in exact integer arithmetic, but walks inner to outer once: the
    inner loops' wrap-around (``back``) is carried as a running suffix
    sum over the access's compiled ``columns``, so each boundary's
    displacement ``column * step - back`` costs O(rank) instead of
    re-deriving every inner loop's span (O(L^2 * rank) per walk).
    """
    columns = access.columns
    unreferenced = (0,) * len(extents)
    volume = box_volume(extents)
    back = [0] * len(extents)
    s = 0
    for lp in reversed(loops):
        if lp.count == 1:  # never advances, never wraps
            continue
        column = columns.get(lp.dim, unreferenced)
        step = lp.step
        overlap = 1
        for e, c, b in zip(extents, column, back):
            kept = e - abs(c * step - b)
            if kept <= 0:  # the boundary moves the slice clear of itself
                overlap = 0
                break
            overlap *= kept
        if column is not unreferenced:
            span = (lp.count - 1) * step
            back = [b + c * span for c, b in zip(column, back)]
        s = (lp.count - 1) * (volume - overlap + s) + s
    return volume + s


# ----------------------------------------------------------------------
# Tree-aware helpers
# ----------------------------------------------------------------------
def slice_coverage(node: TileNode, leaf: OpTile) -> Dict[str, int]:
    """Per-dim coverage of one *time step* of ``node`` for ``leaf``'s op.

    Includes every loop strictly below ``node`` on the leaf's path plus
    ``node``'s own unit-step spatial loops — PE lanes whose footprints
    pack into one resident slice (Fig. 5's spatial loops).  Spatial loops
    with larger steps distribute *blocks* over separate buffer instances;
    they are excluded here and handled multiplicatively by the traffic
    walk, like ancestors' spatial loops.  ``node``'s temporal loops are
    the time steps themselves, never part of the slice.
    """
    op = leaf.op
    cov: Dict[str, int] = {d: 1 for d in op.dims}
    current: Optional[TileNode] = leaf
    while current is not None and current is not node:
        cov = apply_loops(cov, current.loops, op.dims)
        current = current.parent
    if current is not node:
        raise ValueError(
            f"{node.label()} is not an ancestor of leaf {leaf.label()}")
    lanes = [lp for lp in node.spatial_loops if lp.step == 1]
    cov = apply_loops(cov, lanes, op.dims)
    return cov


def slice_extents(node: TileNode, leaf: OpTile,
                  access: TensorAccess) -> Tuple[int, ...]:
    """Extents of the tensor slice one time step of ``node`` touches."""
    return access.extents_over(slice_coverage(node, leaf))


def merged_extents(extents_list: Iterable[Sequence[int]]) -> Tuple[int, ...]:
    """Element-wise max of several extent tuples (union approximation).

    Used when several operators below a fusion node access the same tensor
    with aligned slices (e.g. the softmax chain re-reading ``S``): the
    staged slice is the union, approximated by the bounding box.
    """
    merged: List[int] = []
    for extents in extents_list:
        if not merged:
            merged = list(extents)
            continue
        if len(extents) != len(merged):
            raise ValueError("cannot merge extents of different ranks")
        merged = [max(a, b) for a, b in zip(merged, extents)]
    if not merged:
        raise ValueError("merged_extents needs at least one extents tuple")
    return tuple(merged)


def loop_displacement(access: TensorAccess, loop: Loop,
                      inner_loops: Sequence[Loop]) -> Tuple[int, ...]:
    """Net slice displacement when ``loop`` advances one step.

    When a temporal loop increments, every loop *inside* it (``inner_loops``,
    the walk loops nested within) wraps from its last value back to its
    first, so the net displacement is the loop's own step minus the inner
    loops' full spans — exactly the boundary analysis of Fig. 5.  This is
    the reference form of one boundary of :func:`walk_movement`.
    """
    forward = access.displacement({loop.dim: loop.step})
    back = [0] * len(forward)
    for inner in inner_loops:
        wrap = access.displacement({inner.dim: (inner.count - 1) * inner.step})
        back = [b + w for b, w in zip(back, wrap)]
    return tuple(f - b for f, b in zip(forward, back))
