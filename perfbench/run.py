#!/usr/bin/env python3
"""Paper-workload benchmark of the cost-sensitive protocol simulator.

Usage, from the repository root::

    python3 perfbench/run.py --workload gamma_w_spt --seed 1 --seconds 35 --trace 0

Workloads: ``gamma_w_spt``, ``chaos_sweep``, ``graph_params``
(see ``perfbench/README.md``).  ``--trace 0`` measures the end-to-end
metrics with nothing wrapped; ``--trace 1`` runs untraced and traced
batches and reports the per-layer split.  Every output is checked against
networkx after timing.  Human-readable lines go first; the last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  A fuller record, stamped with the environment, is written
to ``.perfbench_out/``.  Exit status is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# setup_s is the fastest of this many fresh interpreters, spread evenly
# through the timed window, so one slow moment on the shared host shifts
# only the probes it overlaps.
SETUP_PROBES = 12
MIN_BATCHES = 3
# wall_s is this quantile of a run's batch walls.  On a shared host the
# CPU's speed drifts over tens of seconds; the median follows
# the drift, the slow end of the distribution holds still (across ten
# seeds its spread was 0.04-0.11 against 0.14-0.25 for the median).
WALL_QUANTILE = 0.9


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _setup(name: str, seed: int):
    from workloads import make

    workload = make(name, seed)
    workload.warm()
    return workload


def setup_probe(args) -> int:
    """Child side of ``setup_s``: set up, say so, tear down."""
    workload = _setup(args.workload, args.seed)
    print("ready", flush=True)
    workload.close()
    return 0


def compile_bytecode() -> None:
    """Compile the library and the benchmark to ``__pycache__`` up front.

    An installed package imports from compiled bytecode, so set-up is
    timed that way even where the environment keeps Python from writing
    ``.pyc`` files on import (``PYTHONDONTWRITEBYTECODE``).
    """
    for tree in (SRC, HERE):
        compileall.compile_dir(tree, quiet=1)


def setup_probe_s(args) -> float:
    """One fresh interpreter, from launch until inputs exist and warm-up is done."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    finally:
        proc.stdout.close()
        if proc.poll() is None:  # left early: stop the probe and its pool
            proc.terminate()
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code})")
    return elapsed


def git_rev() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True,
                              timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)"


def environment(workload) -> dict:
    import numpy

    from repro.graphs import backend_info

    return {
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": backend_info(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        **workload.plan(),
    }


def timed_batches(workload, seconds: float, min_batches: int, probe=None):
    """Plain batches back to back until ``seconds`` have passed.

    With ``probe``, ``SETUP_PROBES`` set-up probes are taken between
    batches, one at the start of each equal slice of the window; their
    time counts towards ``seconds``.  Returns the first batch whole (its
    outputs go to the oracle), every batch with its outputs dropped, so
    peak memory does not grow with the number of batches that fit, and
    the probe samples.
    """
    from tracing import live_patches

    probes = SETUP_PROBES if probe is not None else 0
    first, batches, setup = None, [], []
    t_start = time.perf_counter()
    t_end = t_start + seconds
    while len(batches) < min_batches or time.perf_counter() < t_end:
        if (len(setup) < probes and time.perf_counter()
                >= t_start + len(setup) * seconds / probes):
            setup.append(probe())
            continue
        if live_patches():
            raise RuntimeError("a wrapper is live during a timed batch")
        b = workload.batch("plain")
        if first is None:
            first = b
        else:
            b.outputs = None
        batches.append(b)
    while len(setup) < probes:
        setup.append(probe())
    return first, batches, setup


def peak_rss_mb(batches) -> float:
    """This process's peak RSS plus each pool worker's peak, in MB."""
    workers: dict[int, int] = {}
    for b in batches:
        for pid, kb in b.worker_rss_kb.items():
            workers[pid] = max(workers.get(pid, 0), kb)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + sum(workers.values())) / 1024.0


def _quantile(values: list[float], q: float) -> float:
    xs = sorted(values)
    return xs[min(len(xs) - 1, int(q * len(xs)))]


def consistency_problems(reference, others: list, label: str) -> list[str]:
    """Counts of every batch in ``others`` must equal ``reference``'s."""
    out = []
    for b in others:
        for name, a, c in zip(reference.names, reference.counts, b.counts,
                              strict=True):
            if a != c:
                out.append(f"{label}: {name} counts {c} != {a}")
                break
    return out


def fired_problems(reference, other, label: str) -> list[str]:
    return [f"{label}: {name} fired {b} != {a}"
            for name, a, b in zip(reference.names, reference.fired, other.fired,
                                  strict=True) if a != b]


def layer_metrics(fold: dict) -> dict:
    """Per-layer metrics of one folded traced batch."""
    root = fold["root_s"] or 1.0
    share = {layer: s / root for layer, s in fold["self_s"].items()}
    calls = fold["calls"]

    def count(prefix: str) -> int:
        return sum(c for key, c in calls.items() if key.startswith(prefix))

    scheduled = fold["scheduled"]
    lookups = fold["cache_hits"] + fold["cache_misses"]
    return {
        "events.self_share": share["events"],
        "events.same_time_share": (1.0 - fold["distinct_when"] / scheduled
                                   if scheduled else 0.0),
        "network.run_loop_share": share["network.run"],
        "network.init_share": share["network.init"],
        "network.sends": count("network.send:"),
        "network.send_self_share": share["network.send"],
        "delays.calls": count("delays:"),
        "delays.self_share": share["delays"],
        "metrics.self_share": share["metrics"],
        "faults.fate_calls": count("faults:fate"),
        "faults.self_share": share["faults"],
        "handlers.calls": count("handlers:"),
        "handlers.self_share": share["handlers"],
        "graphs.self_share": share["graphs"],
        "graphs.cache_hit_ratio": (fold["cache_hits"] / lookups
                                   if lookups else 0.0),
        "graphs.snapshot_builds": fold["snapshot_builds"],
        "covers.self_share": share["covers"],
        "other.self_share": share["instance"],
    }


def pool_metrics(workload, batches) -> dict:
    """Cells, busy seconds and efficiency of the pool, from untraced batches."""
    pooled = [b for b in batches if b.cell_s]
    if not pooled:
        return {"pool.cells": 0, "pool.busy_s": 0.0, "pool.efficiency": 0.0}
    plan = workload.plan()
    workers = plan["jobs"] if plan["parallel_plan"] == "pool" else 1
    return {
        "pool.cells": len(pooled[0].cell_s),
        "pool.busy_s": statistics.median(sum(b.cell_s) for b in pooled),
        "pool.efficiency": statistics.median(
            sum(b.cell_s) / (workers * b.wall_s) for b in pooled),
    }


def measure(args, workload) -> dict:
    """Timed batches, the count pass, traced batches (``--trace 1``), oracle.

    Everything a report needs, plus ``problems``: every failed oracle
    check and every count that differed between batches or modes.
    """
    from tracing import merge_folds

    problems: list[str] = []
    seconds = args.seconds / 2 if args.trace else args.seconds
    if args.trace:
        first, timed, setup = timed_batches(workload, seconds, 2)
    else:
        first, timed, setup = timed_batches(workload, seconds, MIN_BATCHES,
                                            probe=lambda: setup_probe_s(args))
    rss_mb = peak_rss_mb(timed)
    problems += consistency_problems(first, timed[1:], "repeat")
    counted = workload.batch("count")
    problems += consistency_problems(first, [counted], "count pass")
    traced = []
    if args.trace:
        t_end = time.perf_counter() + args.seconds / 2
        while len(traced) < 2 or time.perf_counter() < t_end:
            b = workload.batch("trace")
            problems += consistency_problems(first, [b], "traced")
            problems += fired_problems(counted, b, "traced")
            traced.append((b.wall_s, merge_folds(b.folds)))
    checks = workload.check(first.outputs)
    for name, c in zip(first.names, checks, strict=True):
        if c is not None:
            problems.append(f"oracle: {name}: {c}")
    return {"first": first, "timed": timed, "setup": setup, "rss_mb": rss_mb,
            "fired": sum(f or 0 for f in counted.fired), "traced": traced,
            "failed_instances": sum(c is not None for c in checks),
            "problems": problems}


def end_to_end(workload, m: dict) -> dict:
    """Every end-to-end metric this workload has, as ``name: (value, unit)``."""
    timed = m["timed"]
    attempted = len(m["first"].names) * len(timed)
    wall_s = _quantile([b.wall_s for b in timed], WALL_QUANTILE)
    out = {
        "wall_s": (wall_s, "s"),
        "peak_rss_mb": (m["rss_mb"], "MB"),
        "failed_share": (m["failed_instances"] * len(timed) / attempted, "share"),
    }
    if m["setup"]:
        out["setup_s"] = (min(m["setup"]), "s")
    if workload.simulator:  # a seed's batches all send the same messages
        out["msgs_per_s"] = (timed[0].messages / wall_s, "1/s")
    cell_s = [c for b in timed for c in b.cell_s]
    if cell_s:
        out["cell_ms_p50"] = (1000 * _quantile(cell_s, 0.5), "ms")
        out["cell_ms_p90"] = (1000 * _quantile(cell_s, 0.9), "ms")
    return out


def per_layer(workload, m: dict) -> tuple[dict, dict]:
    """Per-layer metrics of the traced batches, and layer self seconds."""
    folds = [fold for _, fold in m["traced"]]
    rows = [layer_metrics(f) for f in folds]
    out = {key: (statistics.median(row[key] for row in rows)
                 if isinstance(rows[0][key], float) else rows[0][key])
           for key in rows[0]}
    out["events.fired"] = m["fired"]
    chaos_rows = m["first"].outputs if workload.name == "chaos_sweep" else []
    sent = sum(r["messages"] or 0 for r in chaos_rows)
    out["faults.retry_share"] = (sum(r["retry_count"] for r in chaos_rows) / sent
                                 if sent else 0.0)
    pool = pool_metrics(workload, m["timed"])
    out["pool.cells"] = pool["pool.cells"]
    out["pool.efficiency"] = pool["pool.efficiency"]
    out["trace.overhead_ratio"] = (
        statistics.median(w for w, _ in m["traced"])
        / statistics.median(b.wall_s for b in m["timed"]))
    self_s = {layer: statistics.median(f["self_s"][layer] for f in folds)
              for layer in folds[0]["self_s"]}
    return out, {"pool_busy_s": pool["pool.busy_s"], "layer_self_s": self_s}


def run(args) -> int:
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {WORKLOADS}",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = _setup(args.workload, args.seed)
    try:
        env = environment(workload)
        m = measure(args, workload)
    finally:
        workload.close()

    reported = end_to_end(workload, m)
    timed = m["timed"]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "fired": m["fired"],
        "problems": m["problems"],
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
        "samples": {"batches": len(timed),
                    "batch_wall_s": [b.wall_s for b in timed],
                    "setup_s": m["setup"],
                    "cells": sum(len(b.cell_s) for b in timed),
                    "instances_per_batch": len(m["first"].names)},
    }
    if args.trace:
        layers, extra = per_layer(workload, m)
        report.update(extra, per_layer=layers,
                      traced_wall_s=[w for w, _ in m["traced"]])
        metrics = {d["name"]: {"value": layers[d["name"]], "unit": d["unit"]}
                   for d in declared["per_layer"]}
    else:
        metrics = {d["name"]: {"value": reported[d["name"]][0], "unit": d["unit"]}
                   for d in declared["end_to_end"]}

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"rev={env['git_rev']} python={env['python']} numpy={env['numpy']} "
          f"backend={env['kernel_backend']['resolved']} cpus={env['cpu_count']}"
          + (f" jobs={env['jobs']} plan={env['parallel_plan']}"
             if "jobs" in env else ""))
    samples = report["samples"]
    print(f"  batches={samples['batches']} "
          f"instances/batch={samples['instances_per_batch']} fired={m['fired']}"
          + (f" cell samples={samples['cells']}" if samples["cells"] else ""))
    for key, (value, unit) in reported.items():
        print(f"  {key:<26} {value:.6g} {unit}")
    units = {d["name"]: d["unit"] for d in declared["per_layer"]}
    for key, value in sorted(report.get("per_layer", {}).items()):
        print(f"  {key:<26} {value:.6g} {units[key]}")
    for p in m["problems"][:20]:
        print(f"  PROBLEM {p}")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True, default=str))
    correct = not m["problems"]
    attempted = len(m["first"].names) * len(timed)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": m["failed_instances"] * len(timed),
                      "metrics": metrics}))
    return 0 if correct else 1


def _terminate(signum, _frame):
    raise SystemExit(128 + signum)


def stop_children() -> None:
    """Stop the worker pool and the resource tracker, if either was started.

    Both run on every way out of :func:`main`, an exception or SIGTERM
    included.  The pool is normally closed with its workload already.
    The resource tracker is a child process that creating a shared-memory
    segment starts; it would otherwise outlive the interpreter.
    """
    parallel = sys.modules.get("repro.experiments.parallel")
    if parallel is not None:
        parallel.shutdown_pool()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no library sources under {SRC}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an exception, so every cleanup below still runs.
    signal.signal(signal.SIGTERM, _terminate)
    sys.path[:0] = [str(HERE), str(SRC)]
    try:
        if args.setup_probe:
            return setup_probe(args)
        compile_bytecode()
        return run(args)
    finally:
        stop_children()


if __name__ == "__main__":
    sys.exit(main())
