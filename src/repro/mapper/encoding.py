"""Genome encoding and generic tree construction for the mapper (Fig. 7b).

The paper encodes an ordering tree plus binding primitives as a table with
one column per operator (which operator to fuse into, at which memory
level, with which binding).  For the linear operator chains this
reproduction targets (attention stages, convolution chains), that table is
equivalent to:

* one *fusion bit* per edge between consecutive operators (fused edges
  merge the operators into one fusion group — the compute-ordering
  dimension), and
* one *binding* per edge (the group's binding is taken from its first
  fused edge — the resource-binding dimension).

Loop tiling (the third dimension) is the genome's :class:`FactorSpace`:
one tiling factor per shared dimension of each fusion group, assigned by
the MCTS stage.  :func:`build_genome_tree` turns a genome plus factors
into an analysis tree using generic (workload-agnostic) chain
construction with imperfect tiling.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..arch import Architecture
from ..errors import MappingError
from ..ir import Operator, Workload
from ..tile.bindings import Binding
from ..tile.loops import Loop, spatial, temporal
from ..tile.tree import AnalysisTree, FusionNode, OpTile, TileNode
from ..tile.validate import ASSOCIATIVE_KINDS
from .factors import FactorSpace

#: Bindings the GA may assign to a fused edge.
EDGE_BINDINGS: Tuple[Binding, ...] = (Binding.SEQ, Binding.SHAR,
                                      Binding.PIPE)


def _ceil(a: int, b: int) -> int:
    return -(-a // b)


def _ladder(size: int) -> List[int]:
    out, v = [], 1
    while v < size:
        out.append(v)
        v *= 2
    out.append(size)
    return out


@dataclass(frozen=True)
class Genome:
    """One point in the (ordering x binding) plane of the 3D space."""

    fuse_edges: Tuple[bool, ...]
    bindings: Tuple[Binding, ...]

    def __post_init__(self):
        if len(self.fuse_edges) != len(self.bindings):
            raise MappingError("genome edge/binding length mismatch")

    # ------------------------------------------------------------------
    def groups(self, workload: Workload) -> List[List[Operator]]:
        """Fusion groups: maximal runs of operators joined by fused edges."""
        ops = list(workload.operators)
        groups: List[List[Operator]] = [[ops[0]]]
        for edge, op in enumerate(ops[1:]):
            if self.fuse_edges[edge]:
                groups[-1].append(op)
            else:
                groups.append([op])
        return groups

    def group_binding(self, workload: Workload,
                      group_index: int) -> Binding:
        """Binding of a group: its first fused edge's binding."""
        ops = list(workload.operators)
        start = 0
        for g in range(group_index):
            start += len(self.groups(workload)[g])
        # Edge indices inside the group start at `start`.
        groups = self.groups(workload)
        if len(groups[group_index]) == 1:
            return Binding.SEQ
        return self.bindings[start]

    @staticmethod
    def random(workload: Workload, rng: random.Random) -> "Genome":
        n = max(0, len(workload.operators) - 1)
        return Genome(
            fuse_edges=tuple(rng.random() < 0.5 for _ in range(n)),
            bindings=tuple(rng.choice(EDGE_BINDINGS) for _ in range(n)))

    @staticmethod
    def unfused(workload: Workload) -> "Genome":
        n = max(0, len(workload.operators) - 1)
        return Genome((False,) * n, (Binding.SEQ,) * n)

    @staticmethod
    def fully_fused(workload: Workload,
                    binding: Binding = Binding.SHAR) -> "Genome":
        n = max(0, len(workload.operators) - 1)
        return Genome((True,) * n, (binding,) * n)

    # ------------------------------------------------------------------
    def crossover(self, other: "Genome", rng: random.Random) -> "Genome":
        """Single-point crossover over the edge tables."""
        n = len(self.fuse_edges)
        if n == 0:
            return self
        cut = rng.randrange(n + 1)
        return Genome(self.fuse_edges[:cut] + other.fuse_edges[cut:],
                      self.bindings[:cut] + other.bindings[cut:])

    def mutate(self, rng: random.Random, rate: float = 0.25) -> "Genome":
        """Flip fusion bits / re-draw bindings with probability ``rate``."""
        edges = list(self.fuse_edges)
        bindings = list(self.bindings)
        for i in range(len(edges)):
            if rng.random() < rate:
                edges[i] = not edges[i]
            if rng.random() < rate:
                bindings[i] = rng.choice(EDGE_BINDINGS)
        return Genome(tuple(edges), tuple(bindings))

    # ------------------------------------------------------------------
    def encode(self) -> Dict[str, list]:
        """JSON-safe encoding — ledger manifests carry this so a
        recorded champion can be rebuilt into a tree later
        (``repro explain --run``)."""
        return {"fuse_edges": [bool(e) for e in self.fuse_edges],
                "bindings": [b.value for b in self.bindings]}

    @staticmethod
    def from_encoding(data: Mapping[str, Sequence]) -> "Genome":
        """Inverse of :meth:`encode`; raises :class:`MappingError` on a
        malformed payload."""
        try:
            return Genome(
                fuse_edges=tuple(bool(e) for e in data["fuse_edges"]),
                bindings=tuple(Binding(b) for b in data["bindings"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise MappingError(f"bad genome encoding {data!r}: {exc}")

    def describe(self, workload: Workload) -> str:
        parts = []
        for group_idx, group in enumerate(self.groups(workload)):
            names = "+".join(op.name for op in group)
            if len(group) > 1:
                names = (f"{self.group_binding(workload, group_idx).value}"
                         f"({names})")
            parts.append(names)
        return " ; ".join(parts)


# ----------------------------------------------------------------------
# Generic tree construction
# ----------------------------------------------------------------------
def shared_tileable_dims(workload: Workload,
                         group: Sequence[Operator]) -> List[str]:
    """Dims a fusion group may legally tile at its fusion node.

    A dim qualifies when every operator in the group declares it and the
    §4.1 reduction rule allows it: it must not be a reduction dim of a
    non-associative producer whose output is consumed inside the group.
    """
    if not group:
        return []
    common = set(group[0].dims)
    for op in group[1:]:
        common &= set(op.dims)
    names_in_group = {op.name for op in group}
    for op in group:
        if op.kind in ASSOCIATIVE_KINDS:
            continue
        consumed_inside = any(
            c.name in names_in_group
            for c in workload.consumers(op.output.tensor.name))
        if consumed_inside:
            common -= op.reduction_dims
    sizes = group[-1].dims
    # Tie-break equal-sized dims by name: ``common`` is a set, so sorting
    # by size alone would leave ties in hash order, making tree
    # construction depend on PYTHONHASHSEED across processes.
    return sorted((d for d in common if sizes.get(d, 1) > 1),
                  key=lambda d: (-sizes[d], d))


def genome_factor_space(workload: Workload, genome: Genome,
                        max_dims_per_group: int = 3) -> FactorSpace:
    """The tiling-factor space the MCTS explores for one genome."""
    choices: Dict[str, List[int]] = {}
    for gi, group in enumerate(genome.groups(workload)):
        dims = shared_tileable_dims(workload, group)[:max_dims_per_group]
        sizes = group[-1].dims
        for d in dims:
            choices[f"g{gi}_{d}"] = _ladder(sizes[d])
    return FactorSpace(choices)


def _generic_leaf(op: Operator, budget: int) -> Tuple[Dict[str, int],
                                                      Dict[str, int]]:
    """Heuristic PE tile: spread the two largest output dims spatially."""
    out_dims = [d for d in op.dims if d not in op.reduction_dims]
    out_dims.sort(key=lambda d: -op.dims[d])
    sp: Dict[str, int] = {}
    remaining = budget
    for d in out_dims[:2]:
        ext = min(op.dims[d], max(1, int(math.sqrt(remaining))
                                  if not sp else remaining))
        if ext > 1:
            sp[d] = ext
            remaining = max(1, remaining // ext)
    # Sorted, not frozenset order: leaf loop order must not depend on
    # the process's string-hash seed.
    tp = {d: op.dims[d] for d in sorted(op.reduction_dims)
          if op.dims[d] > 1}
    return sp, tp


def _generic_chain(op: Operator, tile: Mapping[str, int], budget: int,
                   level: int) -> OpTile:
    sp, tp = _generic_leaf(op, budget)
    leaf_loops: List[Loop] = []
    for d, n in tp.items():
        leaf_loops.append(temporal(d, n, 1))
    for d, n in sp.items():
        leaf_loops.append(spatial(d, n, 1))
    leaf = OpTile(op, leaf_loops, level=0)
    mid: List[Loop] = []
    for d, size in op.dims.items():
        want = min(size, tile.get(d, size))
        ext = sp.get(d, 1) * tp.get(d, 1)
        count = _ceil(want, ext)
        if count > 1:
            mid.append(temporal(d, count, ext))
    return OpTile(op, mid, level=level, child=leaf)


def build_genome_tree(workload: Workload, arch: Architecture,
                      genome: Genome,
                      factors: Mapping[str, int]) -> AnalysisTree:
    """Construct the analysis tree for a genome plus tiling factors.

    Fusion groups become fusion nodes at the outermost on-chip level with
    loops over their shared tileable dims (factor ``g{i}_{dim}``);
    singleton groups become plain operator chains.  Groups are children
    of a Seq root at the DRAM level.  All tiling is imperfect (ceil), so
    any factor assignment yields a structurally valid tree.
    """
    top_level = arch.num_levels - 2
    units = arch.level(1).fanout
    budget = max(4, arch.pe_count // units)
    vector_budget = max(2, arch.vector_pe_count // units)
    group_nodes: List[TileNode] = []
    for gi, group in enumerate(genome.groups(workload)):
        binding = genome.group_binding(workload, gi)
        dims = shared_tileable_dims(workload, group)[:3]
        sizes = group[-1].dims
        tile: Dict[str, int] = {}
        loops: List[Loop] = []
        spatial_budget = units
        for d in dims:
            size = sizes[d]
            step = min(size, int(factors.get(f"g{gi}_{d}", size)))
            tile[d] = step
            blocks = _ceil(size, step)
            if spatial_budget > 1 and blocks > 1:
                split = min(spatial_budget, blocks)
                per = _ceil(blocks, split)
                loops.append(spatial(d, split, per * step))
                blocks = per
                spatial_budget = max(1, spatial_budget // split)
            if blocks > 1:
                loops.append(temporal(d, blocks, step))
        pipe = binding is Binding.PIPE and len(group) > 1
        mac_chains = sum(1 for op in group if op.kind == "mac") or 1
        vec_chains = sum(1 for op in group if op.kind != "mac") or 1

        def chain_budget(op):
            if op.kind == "mac":
                return max(4, budget // (mac_chains if pipe else 1))
            return max(2, vector_budget // (vec_chains if pipe else 1))

        if len(group) == 1:
            op = group[0]
            chain = _generic_chain(op, tile, chain_budget(op), level=1)
            top_loops = [lp for lp in loops if lp.dim in op.dims]
            group_nodes.append(OpTile(op, top_loops, level=top_level,
                                      child=chain))
        else:
            children = [_generic_chain(op, tile, chain_budget(op), level=1)
                        for op in group]
            group_nodes.append(FusionNode(loops, level=top_level,
                                          children=children,
                                          binding=binding,
                                          name=f"group{gi}"))
    if len(group_nodes) == 1 and isinstance(group_nodes[0], FusionNode):
        root: TileNode = group_nodes[0]
    else:
        root = FusionNode([], level=arch.dram_index, children=group_nodes,
                          binding=Binding.SEQ, name="root")
    return AnalysisTree(workload, root,
                        name=f"genome[{genome.describe(workload)}]")
