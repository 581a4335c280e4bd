"""One repetition of a benchmark workload, in a fresh interpreter.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  Drives ``repro.cli.main`` exactly as a user's command line
would (``search ... --json`` / ``experiment ID --json``), times each
call, checks every output with its oracle outside the timed region, and
prints one JSON object as its last stdout line.  With ``--trace FILE``
it also wraps each layer's public calls, writes the spans as a
Chrome-trace file and reports the per-layer metrics.

``--probe`` instead runs the Fig. 8 validation sweeps once and reports
the model's cycle error against the polyhedron baseline and the
simulated accelerator.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
import traceback

import hostspeed
import layers
import oracles
import tracer as tracer_mod


def _capture_validation(sink):
    """Keep the Fig. 8 sweeps' structured results as the CLI runs them."""
    from repro.experiments import validation

    for name in ("validate_against_polyhedron",
                 "validate_against_accelerator"):
        original = getattr(validation, name)

        def captured(*args, _original=original, _name=name, **kwargs):
            result = _original(*args, **kwargs)
            sink[_name] = result
            return result

        setattr(validation, name, captured)


def _fig8(sink):
    poly = sink["validate_against_polyhedron"]
    accel = sink["validate_against_accelerator"]
    return {"fig8a_err_pct": 100.0 * poly.cycle_error(),
            "fig8c_err_pct": 100.0 * accel.cycle_error(),
            "fig8c_model_cycles": list(accel.model_cycles)}


def probe() -> dict:
    from repro.experiments.validation import (validate_against_accelerator,
                                              validate_against_polyhedron)
    sink = {"validate_against_polyhedron": validate_against_polyhedron(),
            "validate_against_accelerator": validate_against_accelerator()}
    return _fig8(sink)


def run_ops(plan, tracer, captured):
    """Time each ``repro.cli.main`` call of ``plan``; returns op records,
    each with the search (mapper, result) the call ran, if any, and the
    host slowdown around it (see ``hostspeed.py``)."""
    from repro import cli

    ops = []
    for label, argv in plan:
        if tracer is not None:
            tracer.set_request(label)
        first = len(captured)
        buf = io.StringIO()
        probe, cores = hostspeed.probe_for(argv)
        before = probe()
        stolen = hostspeed.steal_seconds()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
            error = None if rc == 0 else f"exit code {rc}"
        except Exception:  # noqa: BLE001 - counted, reported, run goes on
            error = traceback.format_exc(limit=3)
        wall = time.perf_counter() - start
        stolen = hostspeed.steal_seconds() - stolen
        slowdown = hostspeed.slowdown(before, probe(), stolen, wall, cores)
        searches = [e[1:] for e in captured[first:] if e[0] == "search"]
        ops.append({"label": label, "wall_s": wall, "slowdown": slowdown,
                    "error": error, "stdout": buf.getvalue(),
                    "search": searches[-1] if searches else None})
    if tracer is not None:
        tracer.set_request(None)
    return ops


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=("search", "paper"))
    ap.add_argument("--plan", default="[]",
                    help="JSON list of [label, argv] pairs")
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace", default=None)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()

    import repro.cli  # noqa: F401 - imports are part of set-up
    if args.workload == "paper" or args.probe:
        import repro.experiments  # noqa: F401
    if args.probe:
        print(json.dumps(probe()))
        return 0

    captured = []
    tracer_mod.install_capture(captured)
    fig8_sink = {}
    if args.workload == "paper":
        _capture_validation(fig8_sink)
    tracer = None
    if args.trace:
        tracer = tracer_mod.Tracer()
        tracer_mod.install(tracer)
    setup_s = time.time() - args.spawned_at
    setup_probe = hostspeed.burst()

    tally = oracles.Tally()
    ops = run_ops(json.loads(args.plan), tracer, captured)

    # -- oracles (outside the timed region) ------------------------------
    out = {"setup_s": setup_s,
           "setup_slowdown": hostspeed.slowdown(setup_probe, setup_probe),
           "ops": [], "cycles": []}
    for op in ops:
        error = op["error"]
        if error is None and args.workload == "search":
            try:
                mapper, result = op["search"]
                printed = json.loads(op["stdout"])
                cold = oracles.cold_champion(mapper.workload, mapper.arch,
                                             result.best_genome,
                                             result.best_factors)
                error = oracles.check_search(printed, cold)
                out["cycles"].append(printed["result"]["latency_cycles"])
            except Exception:  # noqa: BLE001 - an oracle crash is a failure
                error = traceback.format_exc(limit=3)
        elif error is None:
            try:
                text = json.loads(op["stdout"])["output"]
                error = oracles.check_paper(op["label"], text,
                                            oracles.golden_text(op["label"]))
            except Exception:  # noqa: BLE001
                error = traceback.format_exc(limit=3)
        tally.record(op["label"], error)
        out["ops"].append({"label": op["label"], "wall_s": op["wall_s"],
                           "slowdown": op["slowdown"], "ok": error is None})
    if args.workload == "paper" and len(fig8_sink) == 2:
        out.update(_fig8(fig8_sink))
    out["tally"] = tally.to_dict()

    if tracer is not None:
        engines = [entry[1] for entry in captured if entry[0] == "engine"]
        metrics = layers.layer_metrics(tracer, engines)
        if args.workload == "paper":
            for op in out["ops"]:
                metrics[f"experiments.{op['label']}_s"] = op["wall_s"]
        out["layers"] = metrics
        out["self_table"] = layers.format_self_table(tracer)
        tracer.dump_chrome(args.trace, {"workload": args.workload,
                                        "plan": json.loads(args.plan)})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
