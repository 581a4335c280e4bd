"""Tree-based analysis: data movement, resources, latency, energy (§5).

The analyses compose as an explicit pass pipeline
(:mod:`repro.analysis.pipeline`) over a shared per-evaluation
:class:`~repro.analysis.context.AnalysisContext`; see
``docs/ARCHITECTURE.md``.
"""

from .context import AnalysisContext, NodeSlices, num_pe_demand
from .datamovement import (DataMovementAnalysis, DataMovementResult,
                           NodeFlows)
from .fingerprint import (cache_namespace, node_fingerprints,
                          subtree_fingerprint, workload_digest)
from .energy import compute_energy
from .latency import LatencyAnalysis
from .metrics import EvaluationResult, LevelTraffic, ResourceUsage
from .model import TileFlowModel
from .pipeline import (DEFAULT_PIPELINE, PRESCREEN_PIPELINE, AnalysisPass,
                       DataMovementPass, EnergyPass, LatencyPass, Pipeline,
                       PipelineError, ResourceBoundsPass, ResourcesPass,
                       SlicesPass, ValidatePass, default_passes,
                       prescreen_passes)
from .resources import ResourceAnalysis
from .slices import (box_volume, delta_volume, loop_displacement,
                     merged_extents, movement_recursion, overlap_volume,
                     slice_coverage, slice_extents, walk_movement)

__all__ = [
    "TileFlowModel",
    "AnalysisContext", "NodeSlices", "num_pe_demand",
    "AnalysisPass", "Pipeline", "PipelineError",
    "DEFAULT_PIPELINE", "PRESCREEN_PIPELINE",
    "ValidatePass", "SlicesPass", "DataMovementPass", "ResourcesPass",
    "ResourceBoundsPass", "LatencyPass", "EnergyPass",
    "default_passes", "prescreen_passes",
    "DataMovementAnalysis", "DataMovementResult", "NodeFlows",
    "node_fingerprints", "subtree_fingerprint", "workload_digest",
    "cache_namespace",
    "ResourceAnalysis", "LatencyAnalysis", "compute_energy",
    "EvaluationResult", "LevelTraffic", "ResourceUsage",
    "box_volume", "delta_volume", "overlap_volume", "movement_recursion",
    "loop_displacement", "merged_extents", "slice_coverage", "slice_extents",
    "walk_movement",
]
