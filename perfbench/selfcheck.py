"""Show that every oracle records a failure when fed a perturbed result.

``python3 perfbench/selfcheck.py`` from the root of a checkout.  For each
oracle, the correct output must be accepted and each perturbation must
be counted as a failure in a :class:`oracles.Tally`; exits 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)
import oracles  # noqa: E402


def search_cases():
    from repro import arch as arch_mod
    from repro import workloads
    from repro.mapper import TileFlowMapper

    workload = workloads.by_name("Bert-S")
    arch = arch_mod.by_name("edge")
    result = TileFlowMapper(workload, arch, seed=0).explore(
        generations=1, population=4, mcts_samples=4)
    printed = json.loads(json.dumps(result.to_dict(), allow_nan=False))
    cold = oracles.cold_champion(workload, arch, result.best_genome,
                                 result.best_factors)
    slower = copy.deepcopy(printed)
    slower["result"]["latency_cycles"] *= 1 + 1e-12
    dropped = copy.deepcopy(printed)
    dropped["result"].popitem()
    yield "search", True, oracles.check_search(printed, cold)
    yield "search latency +1e-12", False, oracles.check_search(slower, cold)
    yield "search field dropped", False, oracles.check_search(dropped, cold)


def serve_cases():
    spec = {"workload": "CC1", "dataflow": "fused_layer", "arch": "edge"}
    reference = oracles.serve_reference("evaluate", spec)
    done = {"state": "done", "result": dict(reference, wall_s=0.1)}
    energy = copy.deepcopy(done)
    energy["result"]["energy_pj"] *= 2
    failed = {"state": "failed", "error": "boom"}
    yield "serve evaluate", True, oracles.check_job(done, reference)
    yield "serve energy x2", False, oracles.check_job(energy, reference)
    yield "serve job failed", False, oracles.check_job(failed, reference)
    sweep = {"workload": "CC1", "arch": "edge"}
    reference = oracles.serve_reference("sweep", sweep)
    done = {"state": "done", "result": copy.deepcopy(reference)}
    reordered = copy.deepcopy(done)
    reordered["result"]["rows"].reverse()
    yield "serve sweep", True, oracles.check_job(done, reference)
    yield "serve sweep rows reordered", False, oracles.check_job(reordered,
                                                                 reference)


def paper_cases():
    golden = oracles.golden_text("fig8")
    changed = golden.replace("%", "% ", 1)
    yield "paper fig8", True, oracles.check_paper("fig8", golden, golden)
    yield "paper fig8 one char", False, oracles.check_paper("fig8", changed,
                                                            golden)


def main() -> int:
    bad = 0
    for cases in (search_cases, serve_cases, paper_cases):
        for label, should_pass, error in cases():
            tally = oracles.Tally()
            tally.record(label, error)
            ok = tally.failed == (0 if should_pass else 1)
            bad += not ok
            print(f"{'ok ' if ok else 'BAD'} {label:30s} "
                  f"failed={tally.failed}/{tally.attempted}"
                  + (f"  ({error[:60]})" if error else ""))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
