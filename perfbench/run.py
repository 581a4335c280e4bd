"""The repository benchmark: ``python3 perfbench/run.py --workload W``.

Workloads (see perfbench/README.md for why each was chosen):

* ``search`` -- ``repro search Bert-S --generations 2 --population 4
  --samples 1024 --workers 2`` (batched layer, process pool, L2), then
  ``repro search`` at CLI defaults on Bert-S and CC1-CC5.
* ``serve``  -- 1 closed-loop client against ``repro serve`` booted over
  an L3 snapshot from an earlier lifetime.
* ``paper``  -- all 11 ``repro experiment`` ids.

Every repetition runs in a fresh interpreter and repeats the same
operations: ``--seed`` fixes the mapper seeds and the job mix.
Repetitions continue until ``--seconds`` have been measured (at least
``MIN_REPS``).  Host times are scaled to a reference host speed
(``hostspeed.py``) and averaged over repetitions (``host_times``).  The
last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and the end-to-end metrics (``--trace 0``) or the per-layer
metrics of traced repetitions (``--trace 1``).  Run from the root of a
checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

sys.path.insert(0, HERE)
import hostspeed  # noqa: E402
import layers  # noqa: E402
import oracles  # noqa: E402

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

#: CLI-default searches of ``search``: (shape, mapper seeds).  A conv
#: chain search takes about 0.2 s against about 3 s for Bert-S, so each
#: runs with three seeds to give the latency percentiles more samples.
SEARCH_SHAPES = (("Bert-S", 1), ("CC1", 3), ("CC2", 3), ("CC3", 3),
                 ("CC4", 3), ("CC5", 3))
#: The deep search, the first operation of ``search`` (so its pool forks
#: from a fresh interpreter, as on the command line): the only setting a
#: user can reach in which the batched layer, the pool and L2 engage.
DEEP_ARGS = ("--generations", "2", "--population", "4", "--samples", "1024",
             "--workers", "2")
#: Repetitions every run makes whatever ``--seconds`` says; quality
#: metrics (``best_cycles``) use exactly these, so a pure speed change
#: leaves them identical.  (Repetitions differ only where the program
#: depends on the hash seed; see README.)
MIN_REPS = {"search": 2, "serve": 4, "paper": 4}
#: Traced runs pair every traced rep with an untraced one of the same
#: seed and report no quality metric, so fewer pairs suffice.
MIN_TRACED_PAIRS = 1
#: ``setup_s`` is a median over at least this many set-ups; search and
#: paper top up with children that only start (an empty plan).
MIN_SETUPS = 5

#: Serve jobs between two host speed probes.
PROBE_EVERY = 50
#: Jobs per rep by kind (300 in all), each kind spread evenly over its
#: shapes; the seed draws dataflows, search seeds and the order, the
#: same in every rep.
#: Searches stay under 5% so p95 falls inside the evaluate/sweep tail.
SERVE_MIX = (("evaluate", 186), ("sweep", 108), ("search", 6))
SERVE_SHAPES = ("Bert-S", "Bert-B", "T5", "CC1", "CC2", "CC3")
#: Conv-chain genome trees depend on PYTHONHASHSEED (see README), so a
#: library reference computed in another process would not match.
SERVE_SEARCH_SHAPES = ("Bert-S", "Bert-B", "T5")
SERVE_SEARCH = {"generations": 2, "population": 4, "samples": 6}

CHILD_TIMEOUT_S = 150.0

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "best_cycles": "cycles",
    "jobs_per_s": "1/s", "job_p50_ms": "ms", "job_p95_ms": "ms",
    "peak_rss_mb": "MB", "success_pct": "%", "fig8a_err_pct": "%",
    "fig8c_err_pct": "%",
}


class BenchError(Exception):
    """A run that cannot produce a result (no metrics are printed)."""


# -- helpers -----------------------------------------------------------------
def mapper_seed(seed: int, workload: str, key: str = "") -> int:
    """A mapper seed derived from the workload seed; independent of
    PYTHONHASHSEED."""
    return random.Random(f"perfbench:{workload}:{seed}:{key}"
                         ).randrange(1 << 30)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def geomean(values: List[float]) -> float:
    values = [v for v in values if v]
    if not values:
        raise BenchError("no cycle counts to average")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # Hash randomisation stays on: outputs must not depend on it.
    env.pop("PYTHONHASHSEED", None)
    # Temp files (the engine's L2 log) stay inside the checkout.
    env["TMPDIR"] = os.path.join(WORK, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def kill_group(proc: subprocess.Popen) -> None:
    """SIGKILL ``proc`` and its pool workers (its own session)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def wait_child(proc: subprocess.Popen, deadline: float
               ) -> Tuple[int, float]:
    """Reap ``proc`` (killing it past ``deadline``); returns its exit
    code and the peak RSS in MB of it and its reaped descendants."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage.ru_maxrss / 1024.0
        if time.monotonic() > deadline:
            kill_group(proc)
            deadline = float("inf")
        time.sleep(0.005)


def fingerprint() -> Dict[str, Any]:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        from importlib.metadata import version
        numpy_version = version("numpy")
    except Exception:  # noqa: BLE001 - not installed as a distribution
        numpy_version = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy_version,
            "platform": platform.platform(), "commit": commit}


def fig8_errors() -> Dict[str, Any]:
    """The Fig. 8 probe's result (model cycle errors), cached per program
    source: it does not depend on the seed and takes about 2 s."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    cache = os.path.join(WORK, f"fig8-{digest.hexdigest()[:24]}.json")
    try:
        with open(cache) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        pass
    fig8, _ = run_child(["--probe"])
    with open(cache + ".tmp", "w") as fh:
        json.dump(fig8, fh)
    os.replace(cache + ".tmp", cache)
    return fig8


# -- search / paper: one fresh child per rep -----------------------------------
def plan_for(workload: str, seed: int) -> List[Tuple[str, List[str]]]:
    if workload == "search":
        deep = ("Bert-S-deep", ["search", "Bert-S", *DEEP_ARGS, "--seed",
                                str(mapper_seed(seed, "deep")),
                                "--json", "--quiet"])
        return [deep] + [(f"{shape}/{k}", ["search", shape, "--seed",
                                           str(mapper_seed(seed, workload,
                                                           f"{shape}/{k}")),
                                           "--json", "--quiet"])
                         for shape, seeds in SEARCH_SHAPES
                         for k in range(seeds)]
    return [(eid, ["experiment", eid, "--json", "--quiet"])
            for eid in layers.EXPERIMENTS]


def run_child(args: List[str]) -> Tuple[Dict[str, Any], float]:
    spawned = time.time()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"),
         "--spawned-at", repr(spawned), *args],
        stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, env=child_env(),
        cwd=ROOT, start_new_session=True)
    out: List[bytes] = []
    reader = threading.Thread(target=lambda: out.append(proc.stdout.read()))
    reader.start()
    try:
        code, rss = wait_child(proc, time.monotonic() + CHILD_TIMEOUT_S)
    finally:
        if proc.returncode is None:  # interrupted: stop and reap the child
            kill_group(proc)
            wait_child(proc, float("inf"))
    reader.join()
    proc.stdout.close()
    lines = b"".join(out).decode().strip().splitlines()
    if code != 0 or not lines:
        raise BenchError(f"child {args[:2]} exited {code}")
    return json.loads(lines[-1]), rss


def child_rep(workload: str, seed: int,
              trace_path: Optional[str]) -> Dict[str, Any]:
    plan = plan_for(workload, seed)
    args = ["--workload", workload, "--plan", json.dumps(plan)]
    if trace_path:
        args += ["--trace", trace_path]
    data, rss = run_child(args)
    # Host times at the reference host speed (see hostspeed.py).
    op_s = [op["wall_s"] / op["slowdown"] for op in data["ops"]]
    measured = sum(op["wall_s"] for op in data["ops"])
    return {
        "setup_s": data["setup_s"] / data["setup_slowdown"],
        "wall_s": sum(op_s), "measured_wall_s": measured,
        "slowdown": measured / sum(op_s) if op_s else 1.0,
        "op_ms": [1000.0 * s for s in op_s],
        "ops": len(data["ops"]), "rss_mb": rss, "tally": data["tally"],
        "cycles": data["cycles"], "layers": data.get("layers"),
        "self_table": data.get("self_table"),
        "fig8": {k: data[k] for k in ("fig8a_err_pct", "fig8c_err_pct",
                                      "fig8c_model_cycles")
                 if k in data},
    }


# -- serve ---------------------------------------------------------------------
def serve_draw(seed: Any) -> List[Tuple[str, Dict[str, Any]]]:
    """A rep's job list: fixed kind counts, seeded specs and order."""
    from repro import workloads
    from repro.dataflows import dataflow_names

    rng = random.Random(f"perfbench:serve:{seed}")
    jobs = []
    for kind, count in SERVE_MIX:
        shapes = SERVE_SEARCH_SHAPES if kind == "search" else SERVE_SHAPES
        for i in range(count):
            spec = {"workload": shapes[i % len(shapes)]}
            if kind == "search":
                spec.update(seed=rng.randrange(4), **SERVE_SEARCH)
            elif kind == "evaluate":
                names = dataflow_names(workloads.by_name(spec["workload"]))
                spec["dataflow"] = rng.choice(sorted(names))
            spec["arch"] = "edge"
            jobs.append((kind, spec))
    rng.shuffle(jobs)
    return jobs


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """``repro serve`` in its own process, optionally traced."""

    def __init__(self, cache_dir: str, trace_prefix: Optional[str] = None):
        self.port = free_port()
        self.url = f"http://127.0.0.1:{self.port}"
        serve_args = ["serve", "--host", "127.0.0.1", "--port",
                      str(self.port), "--workers", "2", "--cache-dir",
                      cache_dir, "--quiet"]
        self.trace_prefix = trace_prefix
        if trace_prefix:
            cmd = [sys.executable, os.path.join(HERE, "serve_boot.py"),
                   trace_prefix, *serve_args]
        else:
            cmd = [sys.executable, "-m", "repro", *serve_args]
        # The service's default run ledger (runs/) lands in its cwd.
        cwd = os.path.join(os.path.dirname(cache_dir), "cwd")
        os.makedirs(cwd, exist_ok=True)
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL, cwd=cwd,
                                     env=child_env(), start_new_session=True)
        try:
            self._wait_ready()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _wait_ready(self) -> None:
        deadline = time.monotonic() + 60
        while True:
            try:
                with urllib.request.urlopen(self.url + "/healthz",
                                            timeout=2) as resp:
                    if resp.status == 200:
                        return
            except (urllib.error.URLError, ConnectionError, OSError):
                pass
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise BenchError("server did not come up")
            time.sleep(0.005)

    def stop(self) -> float:
        """SIGTERM (graceful drain + L3 flush); returns peak RSS in MB."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
        _, rss = wait_child(self.proc, time.monotonic() + 60)
        return rss


def closed_loop(url: str, jobs: List[Tuple[str, Dict[str, Any]]],
                before: float) -> List[Dict[str, Any]]:
    """Run ``jobs`` from one client, each sent only after the previous
    result arrived.  While no job is in flight, the host speed probe
    runs after every ``PROBE_EVERY`` jobs; each job's record carries the
    slowdown from the probes around its stretch (``before`` is the
    probe taken before the first job's stretch; see hostspeed.py)."""
    from repro.serve.client import ServiceClient, ServiceError

    api = ServiceClient(url, timeout=60)
    records: List[Dict[str, Any]] = []
    stretch, stolen = 0, hostspeed.steal_seconds()
    for index, (kind, spec) in enumerate(jobs):
        start = time.perf_counter()
        try:
            job_id = api.submit(kind, spec)["id"]
            for _ in api.watch(job_id):
                pass
            status = api.status(job_id)
        except (ServiceError, OSError, ValueError) as exc:
            status = {"state": "error", "error": repr(exc)}
        records.append({"rt_s": time.perf_counter() - start,
                        "status": status})
        if index + 1 - stretch == PROBE_EVERY or index + 1 == len(jobs):
            # The client and the server take turns: one busy core.
            stolen = hostspeed.steal_seconds() - stolen
            after = hostspeed.burst_all_cores()
            slowdown = hostspeed.slowdown(
                before, after, stolen,
                sum(r["rt_s"] for r in records[stretch:]))
            for record in records[stretch:]:
                record["slowdown"] = slowdown
            before, stretch = after, index + 1
            stolen = hostspeed.steal_seconds()
    return records


def serve_snapshot(seed: int) -> str:
    """An L3 directory left by an earlier service lifetime that ran a
    different seed's draw (untimed)."""
    base = os.path.join(WORK, "serve", "l3-prior")
    shutil.rmtree(base, ignore_errors=True)
    server = Server(base)
    try:
        prior = [job for job in serve_draw(f"prior-{seed}")
                 if job[0] != "search"]
        closed_loop(server.url, prior[:150], hostspeed.burst_all_cores())
    finally:
        server.stop()
    return base


def serve_rep(seed: int, rep: int, snapshot: str,
              trace_prefix: Optional[str]) -> Dict[str, Any]:
    cache_dir = os.path.join(WORK, "serve", f"l3-rep{rep}"
                             + ("-traced" if trace_prefix else ""))
    shutil.rmtree(cache_dir, ignore_errors=True)
    shutil.copytree(snapshot, cache_dir)
    jobs = serve_draw(seed)
    # The server and the client share the cores, so the probe runs on
    # each of them: before the boot, then between jobs.
    before = hostspeed.burst_all_cores()
    server = Server(cache_dir, trace_prefix)
    try:
        records = closed_loop(server.url, jobs, before)
    finally:
        rss = server.stop()
    shutil.rmtree(cache_dir, ignore_errors=True)
    # One client: a rep's wall time is the sum of its round trips.
    op_s = [r["rt_s"] / r["slowdown"] for r in records]
    measured = sum(r["rt_s"] for r in records)
    out = {"setup_s": server.setup_s / hostspeed.slowdown(before, before),
           "wall_s": sum(op_s), "measured_wall_s": measured,
           "slowdown": measured / sum(op_s),
           "op_ms": [1000.0 * s for s in op_s],
           "ops": len(records), "rss_mb": rss, "jobs": jobs,
           "records": records}
    if trace_prefix:
        with open(trace_prefix + ".layers.json") as fh:
            server_side = json.load(fh)
        out["layers"] = server_side["layers"]
        out["self_table"] = server_side["self_table"]
        out["layers"].update(serve_job_metrics(
            records, server_side["lock_wait_s"]))
    return out


def serve_job_metrics(records: List[Dict[str, Any]],
                      lock_wait_s: float) -> Dict[str, float]:
    """Mean per-job queue wait, lock wait, execution and HTTP time (ms)
    from the job timestamps, plus the share of jobs computing nothing
    fresh (every subtree artifact served from L1, L2 or L3)."""
    done = [r for r in records if r["status"].get("state") == "done"]
    if not done:
        return {}
    queue = exe = http = 0.0
    warm = 0
    for r in done:
        st = r["status"]
        queue += st["started"] - st["created"]
        exe += st["finished"] - st["started"]
        http += r["rt_s"] - (st["finished"] - st["created"])
        c = st["result"]["counters"]
        fresh = (c.get("subtree_misses", 0) - c.get("subtree_l2_hits", 0)
                 - c.get("subtree_l3_hits", 0))
        warm += fresh == 0
    n = len(done)
    return {"serve.queue_wait_ms": 1000.0 * queue / n,
            "serve.lock_wait_ms": 1000.0 * lock_wait_s / n,
            "serve.exec_ms": 1000.0 * exe / n,
            "serve.http_ms": 1000.0 * http / n,
            "serve.warm_job_ratio": warm / n}


def check_serve(reps: List[Dict[str, Any]], tally: oracles.Tally
                ) -> Dict[int, List[float]]:
    """Oracle every job against the library (untimed; one reference per
    distinct spec).  Returns the reported cycles per rep."""
    references: Dict[str, Dict[str, Any]] = {}
    cycles: Dict[int, List[float]] = {}
    for rep in reps:
        for (kind, spec), record in zip(rep["jobs"], rep["records"]):
            key = oracles.canonical([kind, spec])
            if key not in references:
                references[key] = oracles.serve_reference(kind, spec)
            reference = references[key]
            ok = tally.record(f"rep {rep['rep']} {kind} {key}",
                              oracles.check_job(record["status"], reference))
            value = oracles.job_cycles(kind, reference)
            if ok and value:
                cycles.setdefault(rep["rep"], []).append(value)
    return cycles


# -- the run -----------------------------------------------------------------
def host_times(workload: str, reps: List[Dict[str, Any]]
               ) -> Dict[str, float]:
    """Host-time metrics as means over reps, which repeat the same
    operations.  Means follow the share of a run spent in the host's
    fast and slow phases; the median or the minimum of a handful of
    reps flips between them (README, "Noise").  search and paper time
    each operation alone, so each operation's latency is its mean over
    reps; serve jobs follow each other, so their latencies are pooled.
    """
    wall = statistics.mean(r["wall_s"] for r in reps)
    if workload == "serve":
        latencies = [ms for r in reps for ms in r["op_ms"]]
    else:
        latencies = [statistics.mean(ms)
                     for ms in zip(*(r["op_ms"] for r in reps))]
    return {"wall_s": wall, "jobs_per_s": reps[0]["ops"] / wall,
            "job_p50_ms": percentile(latencies, 50),
            "job_p95_ms": percentile(latencies, 95)}


def run(workload: str, seed: int, seconds: float, trace: bool
        ) -> Dict[str, Any]:
    traces = os.path.join(WORK, "traces")
    os.makedirs(traces, exist_ok=True)
    for name in os.listdir(traces):
        if name.startswith(f"{workload}-seed{seed}-"):
            os.remove(os.path.join(traces, name))
    tally = oracles.Tally()
    fig8 = None
    if workload != "paper":
        fig8 = fig8_errors()
    snapshot = serve_snapshot(seed) if workload == "serve" else None

    untraced: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    start = time.monotonic()
    rep = 0
    min_reps = MIN_TRACED_PAIRS if trace else MIN_REPS[workload]
    while True:
        elapsed = time.monotonic() - start
        if rep >= min_reps:
            per_rep = elapsed / rep
            if elapsed + per_rep > seconds:
                break
        # Traced and untraced reps of one seed alternate which goes first.
        order = [False, True] if trace else [False]
        if trace and rep % 2:
            order.reverse()
        for traced_rep in order:
            prefix = (os.path.join(traces, f"{workload}-seed{seed}-rep{rep}")
                      if traced_rep else None)
            began, stolen = time.monotonic(), hostspeed.steal_seconds()
            if workload == "serve":
                result = serve_rep(seed, rep, snapshot, prefix)
            else:
                result = child_rep(workload, seed,
                                   prefix + ".json" if prefix else None)
                tally.merge(result["tally"])
            result["rep"] = rep
            result["steal"] = (hostspeed.steal_seconds() - stolen) / (
                (time.monotonic() - began) * (os.cpu_count() or 1))
            (traced if traced_rep else untraced).append(result)
        rep += 1

    if workload == "serve":
        shutil.rmtree(os.path.join(WORK, "serve"), ignore_errors=True)
        cycles_by_rep = check_serve(untraced + traced, tally)
        quality = [c for r in range(MIN_REPS[workload])
                   for c in cycles_by_rep.get(r, [])]
    elif workload == "paper":
        fig8 = next((r["fig8"] for r in untraced if r["fig8"]), None)
        if fig8 is None:  # every fig8 run failed its oracle
            fig8 = fig8_errors()
        quality = fig8["fig8c_model_cycles"]
    else:
        quality = [c for r in untraced[:MIN_REPS[workload]]
                   for c in r["cycles"]]

    setups = [r["setup_s"] for r in untraced]
    while workload != "serve" and len(setups) < MIN_SETUPS:
        setups.append(run_child(["--workload", workload])[0]["setup_s"])
    e2e = {
        "setup_s": statistics.median(setups),
        **host_times(workload, untraced),
        "best_cycles": geomean(quality),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in untraced),
        "success_pct": 100.0 * (tally.attempted - tally.failed)
        / max(1, tally.attempted),
        "fig8a_err_pct": fig8["fig8a_err_pct"],
        "fig8c_err_pct": fig8["fig8c_err_pct"],
    }
    out = {"e2e": e2e, "tally": tally, "untraced": untraced,
           "traced": traced}
    if trace:
        per_layer = {}
        for name in layers.PER_LAYER:
            values = [r["layers"].get(name, 0.0) for r in traced]
            per_layer[name] = statistics.median(values)
        traced_wall = host_times(workload, traced)["wall_s"]
        per_layer["trace_overhead_pct"] = 100.0 * (
            traced_wall - e2e["wall_s"]) / e2e["wall_s"]
        out["per_layer"] = per_layer
    return out


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("search", "serve", "paper"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"workload seed (default {DEFAULT_SEED}; "
                         f"held-out seed {HELD_OUT_SEED})")
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="measurement time; at least MIN_REPS reps run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources at {SRC}; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # SIGTERM unwinds like an error, so every child is stopped and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    finger = fingerprint()
    print("fingerprint " + json.dumps(finger, sort_keys=True))
    try:
        res = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    tally = res["tally"]
    for kind in ("untraced", "traced"):
        for r in res[kind]:
            print(f"rep {r['rep']} {kind}: setup {r['setup_s']:.3f}s wall "
                  f"{r['wall_s']:.3f}s (measured {r['measured_wall_s']:.3f}s,"
                  f" host slowdown {r['slowdown']:.3f}) ops {r['ops']} "
                  f"rss {r['rss_mb']:.1f}MB steal {100 * r['steal']:.1f}%")
    for table in (r.get("self_table") for r in res["traced"][:1]):
        print(table)
    for error in tally.errors:
        print(f"FAILED {error}")
    if args.trace:
        metrics = {name: {"value": res["per_layer"][name], "unit": unit}
                   for name, unit in layers.PER_LAYER.items()}
    else:
        metrics = {name: {"value": res["e2e"][name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "fingerprint": finger, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics,
              "reps_measured": [
                  {"wall_s": r["wall_s"], "measured_wall_s":
                   r["measured_wall_s"], "slowdown": r["slowdown"]}
                  for r in res["untraced"]],
              "reps": len(res["untraced"]),
              "job_samples": sum(r["ops"] for r in res["untraced"])}
    os.makedirs(os.path.join(WORK, "records"), exist_ok=True)
    with open(os.path.join(WORK, "records",
                           f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(f"samples: {record['reps']} reps, {record['job_samples']} jobs; "
          f"traces in {os.path.join(WORK, 'traces')}" if args.trace else
          f"samples: {record['reps']} reps, {record['job_samples']} jobs")
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
