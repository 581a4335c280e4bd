"""Output oracles: each compares one program output with an independent
reference and records a failure in a :class:`Tally`.  No timing here.

* search: the champion's ``best_result`` as printed by
  ``repro search --json`` equals a cold ``TileFlowModel(arch).evaluate``
  of the champion's tree, rebuilt from its genome and factors.
* serve: every job result equals the library result for the same spec.
* paper: each experiment's text equals the text captured at the commit
  that defined the benchmark (``golden/<id>.txt``).
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "golden")


class Tally:
    """Attempted and failed operations, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def record(self, label: str, error: Optional[str]) -> bool:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{label}: {error}")
        return error is None

    def merge(self, other: Dict[str, Any]) -> None:
        self.attempted += other["attempted"]
        self.failed += other["failed"]
        self.errors.extend(other["errors"][:max(0, 20 - len(self.errors))])

    def to_dict(self) -> Dict[str, Any]:
        return {"attempted": self.attempted, "failed": self.failed,
                "errors": self.errors}


def canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, allow_nan=False,
                      separators=(",", ":"))


def _diff(got: Any, want: Any) -> Optional[str]:
    a, b = canonical(got), canonical(want)
    if a == b:
        return None
    at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
              min(len(a), len(b)))
    return f"differs at char {at}: {a[at:at + 40]!r} vs {b[at:at + 40]!r}"


# -- search -------------------------------------------------------------------
def cold_champion(workload, arch, genome, factors) -> Dict[str, Any]:
    """The champion's result from a fresh model and a rebuilt tree."""
    from repro.analysis import TileFlowModel
    from repro.mapper.encoding import build_genome_tree

    tree = build_genome_tree(workload, arch, genome, dict(factors))
    return json.loads(canonical(TileFlowModel(arch).evaluate(tree).to_dict()))


def check_search(printed: Dict[str, Any],
                 cold: Dict[str, Any]) -> Optional[str]:
    return _diff(printed.get("result"), cold)


# -- paper --------------------------------------------------------------------
def golden_text(eid: str) -> str:
    with open(os.path.join(GOLDEN_DIR, f"{eid}.txt")) as fh:
        return fh.read()


def check_paper(eid: str, text: str, golden: str) -> Optional[str]:
    if text == golden:
        return None
    at = next((i for i, (x, y) in enumerate(zip(text, golden)) if x != y),
              min(len(text), len(golden)))
    return (f"output differs from golden at char {at}: "
            f"{text[at:at + 40]!r} vs {golden[at:at + 40]!r}")


# -- serve --------------------------------------------------------------------
def serve_reference(kind: str, spec: Dict[str, Any]) -> Dict[str, Any]:
    """The library's answer to one job spec, in the job result's shape."""
    from repro import arch as arch_mod
    from repro import workloads
    from repro.analysis import TileFlowModel
    from repro.dataflows import dataflow_for, dataflow_names
    from repro.engine import EvaluationEngine
    from repro.mapper import TileFlowMapper
    from repro.mapper.cost import latency_cost
    from repro.obs.events import jsonable_cost

    workload = workloads.by_name(spec["workload"])
    arch = arch_mod.by_name(spec.get("arch", "edge"))
    model = TileFlowModel(arch)

    def evaluated(name):
        r = model.evaluate(dataflow_for(workload, name, arch))
        return {"latency_cycles": jsonable_cost(r.latency_cycles),
                "energy_pj": jsonable_cost(r.energy_pj),
                "cost": jsonable_cost(latency_cost(r, True)),
                "feasible": bool(r.feasible)}

    if kind == "evaluate":
        return evaluated(spec["dataflow"])
    if kind == "sweep":
        rows = []
        for name in spec.get("dataflows") or dataflow_names(workload):
            row = evaluated(name)
            rows.append({"dataflow": name,
                         "latency_cycles": row["latency_cycles"],
                         "cost": row["cost"], "feasible": row["feasible"]})
        feasible = [r for r in rows if r["cost"] is not None]
        best = (min(feasible, key=lambda r: r["cost"])["dataflow"]
                if feasible else None)
        return {"rows": rows, "best": best}
    with EvaluationEngine(workload, arch) as engine:
        result = TileFlowMapper(workload, arch, seed=spec["seed"],
                                engine=engine).explore(
            generations=spec["generations"], population=spec["population"],
            mcts_samples=spec["samples"])
        champion = {
            "cost": jsonable_cost(result.best_cost),
            "signature": engine.mapping_digest(result.best_genome,
                                               result.best_factors),
            "genome": result.best_genome.describe(workload),
            "factors": dict(result.best_factors)}
    return {"champion": champion,
            "trace": [jsonable_cost(c) for c in result.trace]}


def check_job(status: Dict[str, Any],
              reference: Dict[str, Any]) -> Optional[str]:
    if status.get("state") != "done":
        return (f"job ended {status.get('state')!r}: "
                f"{status.get('error', '')}")
    result = status.get("result") or {}
    return _diff({k: result.get(k) for k in reference}, reference)


def job_cycles(kind: str, reference: Dict[str, Any]) -> Optional[float]:
    """The simulated latency a job reports to its user: the evaluated
    mapping's, the sweep winner's, or the search champion's."""
    if kind == "evaluate":
        return reference["latency_cycles"]
    if kind == "sweep":
        return next((r["latency_cycles"] for r in reference["rows"]
                     if r["dataflow"] == reference["best"]), None)
    return reference["champion"]["cost"]
