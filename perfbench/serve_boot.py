"""Traced server bootstrap: ``serve_boot.py PREFIX serve ARGS...``.

Installs the benchmark's span recorder in the server process, then runs
``repro.cli.main(["serve", ...])``.  After the graceful SIGTERM drain it
writes the spans to ``PREFIX.json`` (Chrome trace) and the server-side
per-layer metrics to ``PREFIX.layers.json``.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import layers  # noqa: E402
import tracer as tracer_mod  # noqa: E402


def main() -> int:
    prefix, argv = sys.argv[1], sys.argv[2:]
    from repro import cli

    captured = []
    tracer_mod.install_capture(captured)
    tracer = tracer_mod.Tracer()
    tracer_mod.install(tracer)
    rc = cli.main(argv)
    engines = [entry[1] for entry in captured if entry[0] == "engine"]
    tracer.dump_chrome(prefix + ".json", {"workload": "serve"})
    with open(prefix + ".layers.json", "w") as fh:
        json.dump({"layers": layers.layer_metrics(tracer, engines),
                   "lock_wait_s": tracer.lock_wait_s,
                   "self_table": layers.format_self_table(tracer)}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
