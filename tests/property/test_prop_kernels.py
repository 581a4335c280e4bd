"""Property tests: the fast §5.1.1 kernels against their reference forms.

* :func:`~repro.analysis.slices.walk_movement` (one inner-to-outer pass
  over compiled access columns) must equal the textbook recursion built
  from per-boundary :func:`~repro.analysis.slices.loop_displacement`
  calls, for random affine accesses, loop walks and slice extents;
* :class:`~repro.analysis.context.NodeSlices` (one slice coverage per
  leaf) must equal the merged per-(leaf, access) ``slice_extents``.
"""

import random

from hypothesis import given, settings, strategies as st

from repro import arch
from repro.analysis import (DataMovementAnalysis, box_volume, delta_volume,
                            loop_displacement, merged_extents,
                            movement_recursion, slice_extents,
                            walk_movement)
from repro.analysis.context import NodeSlices
from repro.ir import AffineExpr, Tensor, TensorAccess
from repro.mapper import Genome, build_genome_tree, genome_factor_space
from repro.tile.loops import Loop
from repro.workloads import conv_chain, self_attention

DIMS = ("h", "w", "r", "s", "c")
#: Dims a walk may loop over that no access references.
UNREFERENCED = ("u", "v")


@st.composite
def affine_exprs(draw):
    # Empty terms give broadcast axes; one term with coefficient 2 a
    # strided access; several terms windowed (h + r) or multi-term ones.
    terms = draw(st.dictionaries(st.sampled_from(DIMS),
                                 st.integers(1, 3), max_size=3))
    return AffineExpr(terms, draw(st.integers(0, 2)))


@st.composite
def accesses(draw):
    exprs = draw(st.lists(affine_exprs(), min_size=1, max_size=3))
    tensor = Tensor("T", tuple(10 ** 6 for _ in exprs))
    return TensorAccess(tensor, exprs)


loops = st.builds(Loop, st.sampled_from(DIMS + UNREFERENCED),
                  st.integers(1, 5), st.integers(1, 8))


def _reference_movement(extents, access, walk):
    deltas = [delta_volume(extents, loop_displacement(access, lp,
                                                      walk[i + 1:]))
              for i, lp in enumerate(walk)]
    return movement_recursion(box_volume(extents),
                              [lp.count for lp in walk], deltas)


@given(accesses(), st.lists(loops, max_size=7), st.data())
@settings(max_examples=300, deadline=None)
def test_walk_movement_equals_reference_recursion(access, walk, data):
    extents = data.draw(st.tuples(*(st.integers(1, 16)
                                    for _ in access.exprs)))
    assert (walk_movement(extents, access, walk)
            == _reference_movement(extents, access, walk))


@given(accesses(), loops)
@settings(max_examples=200, deadline=None)
def test_columns_match_displacement(access, lp):
    moved = access.displacement({lp.dim: lp.step})
    assert (DataMovementAnalysis._loop_displaces(access, lp)
            == any(d != 0 for d in moved))
    column = access.columns.get(lp.dim, (0,) * len(access.exprs))
    assert tuple(c * lp.step for c in column) == moved


WORKLOADS = (self_attention(2, 32, 64, expand_softmax=True),
             conv_chain(8, 14, 14, 16, 16))


@given(st.sampled_from(WORKLOADS), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_node_slices_equal_per_pair_extents(workload, seed):
    rng = random.Random(seed)
    genome = Genome.random(workload, rng)
    factors = genome_factor_space(workload, genome).random_point(rng)
    tree = build_genome_tree(workload, arch.edge(), genome, factors)
    for node in tree.root.walk():
        slices = NodeSlices(node)
        for name in slices.tensors:
            pairs = slices.readers.get(name, []) + slices.writers.get(name,
                                                                      [])
            expected = merged_extents(
                [slice_extents(node, leaf, access) for leaf, access in pairs])
            assert slices.extents[name] == expected
            assert slices.staged_words[name] == float(box_volume(expected))
