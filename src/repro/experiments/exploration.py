"""Mapper exploration experiments (Fig. 9).

* :func:`factor_tuning_trace` — Fig. 9a: MCTS tiling-factor tuning traces
  for each named self-attention dataflow on one shape (Bert-S in the
  paper), showing convergence of normalized performance per round.
* :func:`space_exploration_trace` — Fig. 9b/9c: full 3D-space GA+MCTS
  exploration traces per workload shape.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .. import obs
from ..arch import Architecture, edge
from ..dataflows import (ATTENTION_DATAFLOWS, attention_factor_space)
from ..engine import EvaluationEngine
from ..ir import Workload
from ..mapper import TileFlowMapper, tune_template
from ..workloads import (ATTENTION_SHAPES, CONV_CHAIN_SHAPES,
                         attention_from_shape, conv_chain_from_shape)
from .report import format_table


@dataclass
class ExplorationTraces:
    """Normalized best-so-far performance traces per series."""

    series: Dict[str, List[float]] = field(default_factory=dict)

    def final_costs(self) -> Dict[str, float]:
        return {name: trace[-1] for name, trace in self.series.items()
                if trace}


@obs.traced()
def factor_tuning_trace(shape_name: str = "Bert-S",
                        arch: Optional[Architecture] = None,
                        samples: int = 50,
                        dataflows: Optional[Sequence[str]] = None
                        ) -> ExplorationTraces:
    """Fig. 9a: per-dataflow tiling-factor convergence on one shape."""
    arch = arch or edge()
    workload = attention_from_shape(ATTENTION_SHAPES[shape_name])
    traces = ExplorationTraces()
    # One engine for the whole sweep: the signature scheme keeps the
    # templates' cache entries apart while sharing one memo budget.
    engine = EvaluationEngine(workload, arch, respect_memory=False)
    for name in dataflows or ("layerwise", "unipipe", "flat_hgran",
                              "flat_rgran", "chimera", "tileflow"):
        res = tune_template(ATTENTION_DATAFLOWS[name],
                            attention_factor_space(name, workload),
                            workload, arch, samples=samples,
                            respect_memory=False, engine=engine)
        traces.series[name] = res.normalized_trace()
    return traces


@obs.traced()
def space_exploration_trace(workloads: Dict[str, Workload],
                            arch: Optional[Architecture] = None,
                            generations: int = 8, population: int = 10,
                            mcts_samples: int = 15,
                            workers: int = 1) -> ExplorationTraces:
    """Fig. 9b/9c: 3D-space exploration traces (one series per shape)."""
    arch = arch or edge()
    traces = ExplorationTraces()
    for name, workload in workloads.items():
        # A stable digest, not hash(): str hashes are salted per process.
        mapper = TileFlowMapper(workload, arch, respect_memory=False,
                                seed=zlib.crc32(name.encode()) & 0xFFFF,
                                workers=workers)
        result = mapper.explore(generations=generations,
                                population=population,
                                mcts_samples=mcts_samples)
        traces.series[name] = result.normalized_trace()
    return traces


def attention_space_workloads(names: Optional[Sequence[str]] = None
                              ) -> Dict[str, Workload]:
    """Shapes used by Fig. 9b."""
    names = names or ("Bert-S", "Bert-B", "Bert-L", "ViT/14-B", "ViT/14-L",
                      "ViT/14-H")
    return {n: attention_from_shape(ATTENTION_SHAPES[n]) for n in names}


def conv_space_workloads(names: Optional[Sequence[str]] = None
                         ) -> Dict[str, Workload]:
    """Shapes used by Fig. 9c."""
    names = names or tuple(CONV_CHAIN_SHAPES)
    return {n: conv_chain_from_shape(CONV_CHAIN_SHAPES[n]) for n in names}


def format_traces(traces: ExplorationTraces, title: str,
                  points: int = 10) -> str:
    """Down-sampled normalized-performance series (the Fig. 9 curves)."""
    rows = []
    for name, trace in traces.series.items():
        if not trace:
            rows.append([name, "-"])
            continue
        step = max(1, len(trace) // points)
        sampled = trace[::step][:points]
        rows.append([name] + [f"{v:.3f}" for v in sampled])
    header = ["series"] + [f"t{i}" for i in range(points)]
    width = max(len(r) for r in rows)
    rows = [r + [""] * (width - len(r)) for r in rows]
    return format_table(title, header[:width], rows)
