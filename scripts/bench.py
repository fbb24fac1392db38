#!/usr/bin/env python
"""Perf-regression bench harness: pinned suite, JSON trajectory.

Runs six pinned measurements (seven with ``--big``) of the current code
and writes ``BENCH_<rev>.json`` so every revision leaves a comparable
perf record:

1. **EventQueue micro-bench** — four event-scheduling shapes modeled on
   the simulator's real workloads (broadcast waves, serial token walks,
   synchronizer pulses, transmit fan-out bursts), each seeded into a
   :class:`repro.sim.events.EventQueue` and drained by :meth:`run`.
   Reported as events/sec per shape.
2. **Graph-kernel micro-bench** — the paper's parameter computations
   (all-sources eccentricities/diameter, max neighbor distance, Prim and
   Kruskal MSTs) through the snapshot kernels (:mod:`repro.graphs.csr`,
   snapshot build included) on pinned graph shapes.
3. **NumPy kernels** — the same workload on dense graphs, the scan on
   the path the graph selects (Floyd–Warshall there) vs the Python
   loop, asserted value-identical.
4. **Network throughput** — a flooding broadcast on a pinned random
   graph, reported as messages/sec end to end.
5. **Chaos sweep** — the chaos matrix through the sweep engine: serial
   reference, the engine's own plan at ``--jobs N``, and the forced
   persistent pool (cold and warm) — asserting all row lists are
   identical and reporting every wall time.
6. **Tracing overhead** — the same flood as the network bench run three
   ways: no recorder at all, a disabled :class:`repro.obs.NullRecorder`
   (the "tracing compiled out" path — must stay within 2% of untraced),
   and a full :class:`repro.obs.TraceRecorder` capturing every event.
7. **Big tier** (``--big``) — the paper's graph families streamed
   directly into flat buffers at n = 10^5..10^6 (10^4 with ``--quick``),
   published once into shared memory and swept zero-copy through the
   pool: stripe and per-source sweeps with serial == pool identity,
   one-build-per-sweep counters, aggregates-only tracing (recorder
   ``limit=0``), and an explicit peak-RSS budget the whole tier must
   fit (exits non-zero otherwise, as it does on leaked segments).

Usage::

    python scripts/bench.py                 # full pinned suite
    python scripts/bench.py --quick         # CI smoke (seconds, tiny sizes)
    python scripts/bench.py --big           # add the shared-memory big tier
    python scripts/bench.py --jobs 4        # parallel sweep worker count
    python scripts/bench.py --out out.json  # explicit output path
    python scripts/bench.py --compare BENCH_base.json   # regression gate

``--compare`` diffs the fresh run against a report of the parent commit
measured on the same machine with the same flags (CI runs the parent's
own ``scripts/bench.py`` in the same job).  It takes the ratio of every
higher-is-better metric both reports carry — raw rates such as
events/sec, kernel runs/sec, messages/sec and big-tier cells/sec, plus
the self-normalized numpy, sweep and tracing ratios — and exits non-zero
when their geomean falls more than ``--tolerance`` (default 10%) below
the baseline.  Metrics only one side has (e.g. a new bench section) are
skipped; a compare with no shared metric, or of a ``--quick`` run
against a full-size one, fails.

The micro-benches repeat ``--reps`` times and keep the minimum, which is
robust against the noisy shared machines CI runs on.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.experiments.parallel import (  # noqa: E402
    chaos_cells,
    pool_shm_stats,
    run_chaos_cell,
    run_parallel,
    shutdown_pool,
    snapshot_rows,
)
from repro.graphs import (  # noqa: E402
    complete_graph,
    grid_graph,
    random_connected_graph,
)
from repro.graphs.csr import (  # noqa: E402
    FlatGraph,
    _fw_applicable,
    _python_scan,
    csr_kruskal_mst,
    csr_prim_mst,
    source_scan,
)
from repro.obs import NullRecorder, TraceRecorder  # noqa: E402
from repro.obs.exporters import jsonable  # noqa: E402
from repro.protocols.broadcast import FloodProcess  # noqa: E402
from repro.sim.events import EventQueue  # noqa: E402
from repro.sim.network import Network  # noqa: E402


# --------------------------------------------------------------------- #
# EventQueue workload shapes
#
# Each shape seeds a queue and returns the expected event count.
# --------------------------------------------------------------------- #

WAVE_NODES = 256
WAVE_WEIGHTS = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)
PULSE_NODES = 64
BURST_FANOUT = 2
BURST_WEIGHTS = (1.0, 2.0, 3.0)


def seed_wave(q, rounds):
    """Broadcast waves: each node re-delivers at a fixed weight from an
    8-value set, so nodes sharing a weight land on the same timestamps
    (heavy collision, like same-weight flooding fronts)."""

    def deliver(node, left):
        if left > 0:
            q.schedule_call(WAVE_WEIGHTS[node & 7], deliver, node, left - 1)

    for node in range(WAVE_NODES):
        q.schedule_call(WAVE_WEIGHTS[node & 7], deliver, node, rounds - 1)
    return WAVE_NODES * rounds


def seed_chain(q, steps):
    """Serial token walk: one live event, every timestamp distinct (the
    bucketing worst case — DFS-like traffic)."""
    state = {"left": steps - 1}

    def hop():
        if state["left"] > 0:
            state["left"] -= 1
            q.schedule_call(1.0 + (state["left"] & 3) * 0.25, hop)

    q.schedule_call(1.0, hop)
    return steps


def seed_pulse(q, pulses):
    """Synchronizer pulses: all nodes fire at every integer time."""
    def fire(node, pulse):
        if pulse > 1:
            q.schedule_call_at(q.now + 1.0, fire, node, pulse - 1)

    for node in range(PULSE_NODES):
        q.schedule_call_at(1.0, fire, node, pulses)
    return PULSE_NODES * pulses


def seed_burst(q, budget):
    """Transmit fan-out: each delivery forwards to 2 neighbors over edges
    with 3 distinct weights (flooding/GHS-like mixed collision traffic)."""
    state = {"budget": budget - 1}

    def deliver(node):
        for i in range(BURST_FANOUT):
            if state["budget"] <= 0:
                return
            state["budget"] -= 1
            q.schedule_call(BURST_WEIGHTS[(node + i) % 3], deliver,
                            node * BURST_FANOUT + i + 1)

    q.schedule_call(1.0, deliver, 0)
    return budget


SHAPES = {
    # name -> (seeder, full size, quick size)
    "wave": (seed_wave, 240, 12),
    "chain": (seed_chain, 60_000, 3_000),
    "pulse": (seed_pulse, 900, 45),
    "fifo_burst": (seed_burst, 60_000, 3_000),
}


def bench_event_queue(reps: int, quick: bool) -> dict:
    shapes = {}
    total_events = 0
    total_s = 0.0
    for name, (seed, full, small) in SHAPES.items():
        size = small if quick else full
        best = float("inf")
        events = 0
        for _ in range(reps):
            q = EventQueue()
            events = seed(q, size)
            t0 = time.perf_counter()
            _, ran = q.run(check_halt=False)
            best = min(best, time.perf_counter() - t0)
            assert ran == events, (name, ran, events)
        shapes[name] = {
            "events": events,
            "current_s": best,
            "current_events_per_s": events / best,
        }
        total_events += events
        total_s += best
    return {
        "shapes": shapes,
        "aggregate": {"total_events": total_events, "current_s": total_s},
    }


# --------------------------------------------------------------------- #
# Graph-kernel micro-benches
# --------------------------------------------------------------------- #


def _kernel_graphs(quick: bool) -> dict:
    """Pinned shapes: integer random weights, and two unit-weight
    (maximally tie-heavy) topologies that stress tie-breaking."""
    if quick:
        return {
            "random_sparse": random_connected_graph(48, 96, seed=13),
            "grid": grid_graph(7, 7),
            "random_dense": random_connected_graph(24, 120, seed=17),
        }
    return {
        "random_sparse": random_connected_graph(192, 384, seed=13),
        "grid": grid_graph(14, 14),
        "random_dense": random_connected_graph(96, 2000, seed=17),
    }


def bench_graph_kernels(reps: int, quick: bool) -> dict:
    shapes = {}
    for name, graph in _kernel_graphs(quick).items():
        best = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            flat = FlatGraph.from_graph(graph)  # build is part of the cost
            source_scan(flat)
            csr_prim_mst(flat)
            csr_kruskal_mst(flat)
            best = min(best, time.perf_counter() - t0)
        shapes[name] = {
            "n": graph.num_vertices,
            "m": graph.num_edges,
            "csr_s": best,
        }
    return {"shapes": shapes}


def _np_kernel_graphs(quick: bool) -> dict:
    """Shapes for the selected-path vs Python-loop comparison.

    Dense, exact-integer graphs: the regime where the scan selects a
    cache-resident int32 Floyd–Warshall (work per source is O(n^2) for
    both paths, but numpy streams it at SIMD speed).  Sparse
    high-hop-diameter shapes select the Python loop themselves, so there
    is nothing to compare; docs/PERF.md records that boundary.
    """
    if quick:
        return {
            "complete": complete_graph(64),
            "random_dense": random_connected_graph(96, 3000, seed=17),
            "random_mid": random_connected_graph(128, 3200, seed=13),
        }
    return {
        "complete": complete_graph(384),
        "random_dense": random_connected_graph(512, 32000, seed=17),
        "random_mid": random_connected_graph(768, 32000, seed=13),
    }


def bench_npkernels(reps: int, quick: bool) -> dict:
    """The scan path the graph selects vs the Python loop (build + scan + MSTs).

    Every rep runs the full parameter workload — snapshot build,
    all-sources scan, Prim, Kruskal — once with the scan forced onto the
    Python loop and once through :func:`source_scan`, and asserts the
    scans are value-identical before timing is trusted.
    """
    shapes = {}
    for name, graph in _np_kernel_graphs(quick).items():
        best_py = best_sel = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            flat = FlatGraph.from_graph(graph)  # build is part of the cost
            scan = _python_scan(flat, 0, flat.n)
            csr_prim_mst(flat)
            csr_kruskal_mst(flat)
            best_py = min(best_py, time.perf_counter() - t0)

            t0 = time.perf_counter()
            flat = FlatGraph.from_graph(graph)
            selected = source_scan(flat)
            csr_prim_mst(flat)
            csr_kruskal_mst(flat)
            best_sel = min(best_sel, time.perf_counter() - t0)

        assert selected == scan, (name, "scan differs")
        shapes[name] = {
            "n": graph.num_vertices,
            "m": graph.num_edges,
            "path": "floyd-warshall" if _fw_applicable(flat) else "python",
            "python_s": best_py,
            "selected_s": best_sel,
            "speedup": best_py / best_sel,
        }
    speedups = [s["speedup"] for s in shapes.values()]
    geomean = 1.0
    for s in speedups:
        geomean *= s
    geomean **= 1.0 / len(speedups)
    return {"shapes": shapes, "aggregate": {"geomean_speedup": geomean}}


# --------------------------------------------------------------------- #
# Network + sweep benches
# --------------------------------------------------------------------- #


def bench_network(reps: int, quick: bool) -> dict:
    n = 24 if quick else 96
    extra = 2 * n
    graph = random_connected_graph(n, extra, seed=11)
    root = graph.vertices[0]
    best = float("inf")
    messages = 0
    for _ in range(reps):
        net = Network(graph, lambda v: FloodProcess(v == root, "bench"))
        t0 = time.perf_counter()
        result = net.run()
        best = min(best, time.perf_counter() - t0)
        messages = result.message_count
    return {
        "graph": {"n": n, "m": graph.num_edges},
        "messages": messages,
        "wall_s": best,
        "messages_per_s": messages / best,
    }


def bench_tracing(reps: int, quick: bool) -> dict:
    """The flood bench run untraced, with a disabled recorder, and with a
    full recorder — the observability subsystem's overhead contract."""
    n = 24 if quick else 96
    graph = random_connected_graph(n, 2 * n, seed=11)
    root = graph.vertices[0]

    def once(recorder):
        net = Network(graph, lambda v: FloodProcess(v == root, "bench"),
                      recorder=recorder)
        t0 = time.perf_counter()
        result = net.run()
        return time.perf_counter() - t0, result

    best = {"untraced": float("inf"), "disabled": float("inf"),
            "recording": float("inf")}
    messages = {}
    events = 0
    # Interleave all three sides per rep; keep minima (noise-robust).
    # Each run is ~1ms, so extra reps are cheap and the percentages noisy
    # without them.
    for _ in range(max(reps, 15)):
        wall, res = once(None)
        best["untraced"] = min(best["untraced"], wall)
        messages["untraced"] = res.message_count

        wall, res = once(NullRecorder())
        best["disabled"] = min(best["disabled"], wall)
        messages["disabled"] = res.message_count

        rec = TraceRecorder()
        wall, res = once(rec)
        best["recording"] = min(best["recording"], wall)
        messages["recording"] = res.message_count
        events = rec.n_emitted

    assert len(set(messages.values())) == 1, ("runs diverged", messages)
    assert events > 0
    return {
        "graph": {"n": n, "m": graph.num_edges},
        "messages": messages["untraced"],
        "trace_events": events,
        "untraced_s": best["untraced"],
        "disabled_s": best["disabled"],
        "recording_s": best["recording"],
        "disabled_overhead_pct":
            (best["disabled"] / best["untraced"] - 1.0) * 100.0,
        "recording_overhead_pct":
            (best["recording"] / best["untraced"] - 1.0) * 100.0,
        # Higher-is-better form for the --compare gate (~1.0 when the
        # disabled path costs nothing).
        "disabled_ratio": best["untraced"] / best["disabled"],
    }


def bench_chaos_sweep(jobs: int, quick: bool) -> dict:
    if quick:
        per_seed = dict(n=10, extra_edges=12, drop_rates=(0.0, 0.2))
        graph_seeds = (4,)
    else:
        per_seed = dict(n=14, extra_edges=20, drop_rates=(0.0, 0.05, 0.2))
        graph_seeds = (2, 3, 5)
    cells = []
    for gs in graph_seeds:
        cells += chaos_cells(graph_seed=gs, **per_seed)
    warm = tuple((per_seed["n"], per_seed["extra_edges"], gs, None)
                 for gs in graph_seeds)

    run_parallel(run_chaos_cell, cells, jobs=1)  # warm in-process memos
    t0 = time.perf_counter()
    serial = run_parallel(run_chaos_cell, cells, force="serial")
    serial_s = time.perf_counter() - t0

    # The engine's own plan (may legitimately choose serial on small
    # hosts — that fallback is the optimization under test there).
    t0 = time.perf_counter()
    engine = run_parallel(run_chaos_cell, cells, jobs=jobs, warm=warm)
    engine_s = time.perf_counter() - t0

    # The real pool path, forced: cold (spin-up + warm init included),
    # then reusing the persistent workers.
    shutdown_pool()
    t0 = time.perf_counter()
    pool_cold = run_parallel(run_chaos_cell, cells, jobs=jobs, warm=warm,
                             force="pool")
    pool_cold_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    pool_warm = run_parallel(run_chaos_cell, cells, jobs=jobs, warm=warm,
                             force="pool")
    pool_warm_s = time.perf_counter() - t0
    shutdown_pool()

    return {
        "rows": len(serial),
        "graph_seeds": list(graph_seeds),
        "jobs": jobs,
        "serial_s": serial_s,
        "engine_s": engine_s,
        "pool_cold_s": pool_cold_s,
        "pool_warm_s": pool_warm_s,
        "speedup": serial_s / engine_s if engine_s else float("inf"),
        "identical": serial == engine == pool_cold == pool_warm,
    }


# --------------------------------------------------------------------- #
# Big tier: zero-copy shared-memory sweeps at n = 10^5..10^6
# --------------------------------------------------------------------- #

# Peak-RSS ceiling for the big tier (self + children, as getrusage
# reports it).  The n=10^6 lower-bound graph is ~56 MB flat; the budget
# is the aggregates-only discipline made enforceable — a regression that
# starts materializing per-vertex structures (dict graphs, distance
# matrices, per-cell rows that aren't O(1)) blows through it immediately.
BIG_BUDGET_MB = 1024
BIG_BUDGET_QUICK_MB = 512


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus its (reaped) children, MB.

    ``ru_maxrss`` is KB on Linux; children report the *max* across
    workers, so the sum is a conservative upper estimate of concurrent
    residency — exactly the right direction for a budget assertion.
    """
    import resource

    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + child_kb) / 1024.0


def _fold_stripe_rows(rows: list[dict]) -> dict:
    """Aggregate a stripe sweep to O(1) (rows never enter the report)."""
    digest = None
    wmax = 0.0
    wsum = 0.0
    edges = 0
    for row in rows:
        digest = row["digest"]  # last cell's digest anchors identity
        edges += row["edges"]
        wsum += row["wsum"]
        if row["wmax"] > wmax:
            wmax = row["wmax"]
    return {"cells": len(rows), "edges": edges, "wmax": wmax,
            "wsum": wsum, "last_digest": digest}


def _big_family(name: str, builder, *, jobs: int, cells_target: int,
                sources: int) -> dict:
    """Build one graph family, publish it once, and sweep it twice.

    The returned record carries the acceptance counters: ``graph_builds``
    (publisher-side ``shm_creates`` delta — must be exactly 1 for the
    whole sweep), per-worker attach/rebuild counts, and the serial vs
    pool identity verdict over both the stripe and the sources sweep.
    """
    from repro.graphs import shm

    before = shm.stats()
    t0 = time.perf_counter()
    flat = builder()
    build_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    handle = shm.publish(flat, key=f"big-{name}")
    publish_s = time.perf_counter() - t0
    creates = shm.stats()["shm_creates"] - before["shm_creates"]

    cell_size = max(1, flat.n // cells_target)
    t0 = time.perf_counter()
    serial_rows = snapshot_rows(handle, kind="stripe", cell_size=cell_size,
                                force="serial")
    serial_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    pool_rows = snapshot_rows(handle, kind="stripe", cell_size=cell_size,
                              force="pool", jobs=jobs, batch=64)
    pool_s = time.perf_counter() - t0
    stripe_identical = serial_rows == pool_rows

    t0 = time.perf_counter()
    src_pool = snapshot_rows(handle, kind="sources", limit=sources,
                             cell_size=1, force="pool",
                             jobs=jobs)
    sources_pool_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    src_serial = snapshot_rows(handle, kind="sources", limit=sources,
                               cell_size=1, force="serial")
    sources_serial_s = time.perf_counter() - t0
    sources_identical = src_pool == src_serial

    workers = pool_shm_stats(jobs, snapshots=(handle,))
    record = {
        "n": flat.n,
        "m": flat.m,
        "nbytes": flat.nbytes,
        "fingerprint": flat.fingerprint,
        "segment": handle.segment,
        "build_s": build_s,
        "publish_s": publish_s,
        "graph_builds": creates,
        "cell_size": cell_size,
        "stripe": _fold_stripe_rows(serial_rows),
        "stripe_serial_s": serial_s,
        "stripe_pool_s": pool_s,
        "serial_cells_per_s": len(serial_rows) / serial_s,
        "pool_cells_per_s": len(pool_rows) / pool_s,
        "sources": sources,
        "sources_pool_s": sources_pool_s,
        "sources_serial_s": sources_serial_s,
        "reach_min": min(r["reach_min"] for r in src_serial),
        "ecc_max": max(r["ecc_max"] for r in src_serial),
        "sources_digest": src_serial[-1]["digest"],
        "identical": stripe_identical and sources_identical,
        "worker_creates": sum(w["shm_creates"] for w in workers),
        "worker_attaches": sum(w["shm_attaches"] for w in workers),
        "worker_rebuilds": sum(w["shm_rebuilds"] for w in workers),
        "workers_probed": len(workers),
    }
    # One build per sweep, zero per-worker rebuilds: the tentpole's
    # acceptance counters, asserted where the numbers are produced.
    assert record["identical"], (name, "serial != pool rows")
    assert creates <= 1, (name, "published more than one segment")
    assert record["worker_rebuilds"] == 0, (name, "worker rebuilt the graph")
    assert record["worker_creates"] == 0, (name, "worker created a segment")
    return record


def _big_traced_flood(quick: bool) -> dict:
    """A flood run under aggregates-only tracing (``TraceRecorder(limit=0)``).

    The recorder keeps per-span aggregates and drops every event payload,
    so observability rides along at O(1) memory — the only tracing mode
    the big tier permits under its budget.
    """
    n = 96 if quick else 256
    graph = random_connected_graph(n, 2 * n, seed=11)
    root = graph.vertices[0]
    rec = TraceRecorder(limit=0)
    net = Network(graph, lambda v: FloodProcess(v == root, "big"),
                  recorder=rec)
    t0 = time.perf_counter()
    result = net.run()
    wall = time.perf_counter() - t0
    assert rec.n_recorded == 0, "limit=0 must keep no event payloads"
    return {
        "n": n,
        "messages": result.message_count,
        "emitted": rec.n_emitted,
        "recorded": rec.n_recorded,
        "dropped": rec.dropped,
        "comm_cost": rec.total_cost,
        "wall_s": wall,
    }


def bench_big(jobs: int, quick: bool) -> dict:
    """The n = 10^5..10^6 tier: streamed builds, one publish, shm sweeps.

    ``quick`` scales every family to n = 10^4 (the CI big-smoke shape);
    the full tier runs the paper's lower-bound family at n = 10^6.  All
    rows are aggregates (O(1) per cell) and the whole tier must fit the
    explicit peak-RSS budget.
    """
    from repro.graphs import lower_bound_flat, lower_bound_split_flat, \
        random_connected_flat
    from repro.graphs import shm

    budget_mb = BIG_BUDGET_QUICK_MB if quick else BIG_BUDGET_MB
    if quick:
        families = {
            "lower_bound": (lambda: lower_bound_flat(10_000), 4),
            "split": (lambda: lower_bound_split_flat(10_000, 100), 4),
            "random": (lambda: random_connected_flat(10_000, 20_000, seed=29),
                       8),
        }
        cells_target = 1_000
    else:
        families = {
            "lower_bound": (lambda: lower_bound_flat(1_000_000), 2),
            "split": (lambda: lower_bound_split_flat(100_000, 1_000), 4),
            "random": (lambda: random_connected_flat(100_000, 200_000,
                                                     seed=29), 8),
        }
        cells_target = 10_000

    shutdown_pool()  # fresh workers; also unlinks any earlier segments
    out: dict = {"budget_mb": budget_mb, "cells_target": cells_target}
    for name, (builder, sources) in families.items():
        out[name] = _big_family(name, builder, jobs=jobs,
                                cells_target=cells_target, sources=sources)
    out["traced_flood"] = _big_traced_flood(quick)
    out["shm"] = {k: v for k, v in shm.stats().items()
                  if k.startswith("shm_")}
    shutdown_pool()
    out["segments_after_shutdown"] = sum(
        1 for f in os.listdir("/dev/shm")
        if f.startswith("rshm-")
    ) if os.path.isdir("/dev/shm") else 0
    out["peak_rss_mb"] = _peak_rss_mb()
    out["within_budget"] = out["peak_rss_mb"] <= budget_mb
    return out


# --------------------------------------------------------------------- #
# Regression compare
# --------------------------------------------------------------------- #


def comparable_metrics(report: dict) -> dict:
    """Flatten a bench report to the higher-is-better metrics worth
    diffing across revisions: raw rates of the current code plus the
    self-normalized numpy, sweep and tracing ratios.  Raw rates only
    compare between reports measured on the same machine, as in CI."""
    m = {}
    for name, s in report.get("event_queue", {}).get("shapes", {}).items():
        m[f"event_queue/{name}/events_per_s"] = s["current_events_per_s"]
    for name, s in report.get("graph_kernels", {}).get("shapes", {}).items():
        m[f"graph_kernels/{name}/runs_per_s"] = 1.0 / s["csr_s"]
    nk = report.get("npkernels", {})
    for name, s in nk.get("shapes", {}).items():
        m[f"npkernels/{name}/speedup"] = s["speedup"]
    if "aggregate" in nk:
        m["npkernels/geomean_speedup"] = nk["aggregate"]["geomean_speedup"]
    net = report.get("network", {})
    if "messages_per_s" in net:
        m["network/messages_per_s"] = net["messages_per_s"]
    cs = report.get("chaos_sweep", {})
    if "speedup" in cs:
        m["chaos_sweep/speedup"] = cs["speedup"]
    tr = report.get("tracing", {})
    if "disabled_ratio" in tr:
        m["tracing/disabled_ratio"] = tr["disabled_ratio"]
    rand = report.get("big_tier", {}).get("random", {})
    # Only the random family's stripe throughput gates: its per-cell cost
    # (cell_size x avg degree) is size-independent between the quick and
    # full shapes, unlike the absolute build times.
    if "serial_cells_per_s" in rand:
        m["big_tier/random/serial_cells_per_s"] = rand["serial_cells_per_s"]
    if "pool_cells_per_s" in rand:
        m["big_tier/random/pool_cells_per_s"] = rand["pool_cells_per_s"]
    return m


def compare_reports(current: dict, baseline: dict,
                    tolerance: float = 0.10) -> tuple[bool, float, dict]:
    """Diff two reports; return ``(ok, geomean_ratio, per_metric_ratios)``.

    Only metrics present in *both* reports count (new bench sections
    don't trip the gate); the gate fails when the geomean of
    current/baseline ratios drops below ``1 - tolerance``, and when the
    reports share no metric at all (nothing was compared).
    """
    cur = comparable_metrics(current)
    base = comparable_metrics(baseline)
    ratios = {}
    for key, value in cur.items():
        prior = base.get(key)
        if prior and prior > 0 and value > 0:
            ratios[key] = value / prior
    if not ratios:
        return False, 0.0, {}
    geomean = 1.0
    for r in ratios.values():
        geomean *= r
    geomean **= 1.0 / len(ratios)
    return geomean >= 1.0 - tolerance, geomean, ratios


def run_compare(report: dict, baseline_path: Path, tolerance: float) -> bool:
    baseline = json.loads(baseline_path.read_text())
    if bool(report.get("quick")) != bool(baseline.get("quick")):
        print(f"FAIL: cannot compare a quick={bool(report.get('quick'))} run "
              f"against a quick={bool(baseline.get('quick'))} baseline "
              f"({baseline_path.name}); sizes differ", file=sys.stderr)
        return False
    ok, geomean, ratios = compare_reports(report, baseline, tolerance)
    if not ratios:
        print(f"FAIL: {baseline_path.name} shares no metric with this run; "
              f"nothing was compared", file=sys.stderr)
        return False
    print(f"compare vs {baseline_path.name} "
          f"(rev {baseline.get('rev', '?')}, tolerance {tolerance:.0%}):")
    for key in sorted(ratios):
        flag = "" if ratios[key] >= 1.0 - tolerance else "  <-- regression"
        print(f"  {key:40s} x{ratios[key]:.3f}{flag}")
    print(f"  {'geomean':40s} x{geomean:.3f}  "
          f"{'OK' if ok else 'REGRESSION'}")
    return ok


# --------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------- #


def git_rev() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=REPO,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except Exception:
        return "unknown"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="tiny pinned sizes for CI smoke runs")
    ap.add_argument("--big", action="store_true",
                    help="add the shared-memory big tier (n=10^5..10^6 "
                         "full, n=10^4 with --quick) under its RSS budget")
    ap.add_argument("--jobs", type=int, default=4,
                    help="worker count for the parallel sweep bench")
    ap.add_argument("--reps", type=int, default=None,
                    help="repetitions per measurement (min is kept)")
    ap.add_argument("--out", type=Path, default=None,
                    help="output path (default BENCH_<rev>.json in repo root)")
    ap.add_argument("--compare", type=Path, default=None,
                    help="BENCH_*.json of the parent commit, measured on this "
                         "machine with the same flags; exits non-zero on "
                         "geomean regression beyond --tolerance")
    ap.add_argument("--tolerance", type=float, default=0.10,
                    help="allowed geomean regression for --compare "
                         "(default 0.10 = 10%%)")
    args = ap.parse_args(argv)

    reps = args.reps if args.reps is not None else (3 if args.quick else 7)
    rev = git_rev()
    report = {
        "rev": rev,
        "unix_time": int(time.time()),
        "python": sys.version.split()[0],
        "cpus": os.cpu_count(),
        "quick": args.quick,
        "reps": reps,
        "event_queue": bench_event_queue(reps, args.quick),
        "graph_kernels": bench_graph_kernels(reps, args.quick),
        "npkernels": bench_npkernels(reps, args.quick),
        "network": bench_network(reps, args.quick),
        "chaos_sweep": bench_chaos_sweep(args.jobs, args.quick),
        "tracing": bench_tracing(reps, args.quick),
    }
    if args.big:
        report["big_tier"] = bench_big(args.jobs, args.quick)

    out = args.out or REPO / f"BENCH_{rev}.json"
    # jsonable: the big tier's eccentricity aggregates can be inf, which
    # strict JSON (and some loaders) reject.
    out.write_text(json.dumps(jsonable(report), indent=2) + "\n")

    eq = report["event_queue"]
    for name, s in eq["shapes"].items():
        print(f"{name:12s} {s['events']:>8d} ev  "
              f"{s['current_events_per_s']:>12,.0f} ev/s")
    agg = eq["aggregate"]
    print(f"{'aggregate':12s} {agg['total_events']:>8d} ev  "
          f"{agg['current_s'] * 1e3:.2f}ms")
    for name, s in report["graph_kernels"]["shapes"].items():
        print(f"kernel {name:14s} n={s['n']:<4d} m={s['m']:<5d} "
              f"csr {s['csr_s'] * 1e3:>8.2f}ms")
    nk = report["npkernels"]
    for name, s in nk["shapes"].items():
        print(f"npkern {name:14s} n={s['n']:<4d} m={s['m']:<5d} "
              f"python {s['python_s'] * 1e3:>8.2f}ms  "
              f"{s['path']} {s['selected_s'] * 1e3:>8.2f}ms  "
              f"x{s['speedup']:.2f}")
    print(f"npkern geomean x{nk['aggregate']['geomean_speedup']:.2f}")
    net = report["network"]
    print(f"network flood: {net['messages']} msgs, "
          f"{net['messages_per_s']:,.0f} msgs/s")
    cs = report["chaos_sweep"]
    print(f"chaos sweep: {cs['rows']} rows, serial {cs['serial_s']:.2f}s, "
          f"engine jobs={cs['jobs']} {cs['engine_s']:.2f}s (x{cs['speedup']:.2f}), "
          f"pool cold {cs['pool_cold_s']:.2f}s / warm {cs['pool_warm_s']:.2f}s, "
          f"identical={cs['identical']}")
    tr = report["tracing"]
    print(f"tracing: untraced {tr['untraced_s'] * 1e3:.2f}ms, "
          f"disabled {tr['disabled_s'] * 1e3:.2f}ms "
          f"({tr['disabled_overhead_pct']:+.2f}%), "
          f"recording {tr['recording_s'] * 1e3:.2f}ms "
          f"({tr['recording_overhead_pct']:+.2f}%, "
          f"{tr['trace_events']} events)")
    if args.big:
        big = report["big_tier"]
        for fam in ("lower_bound", "split", "random"):
            f = big[fam]
            print(f"big {fam:12s} n={f['n']:<8d} m={f['m']:<8d} "
                  f"build {f['build_s']:.2f}s  publish {f['publish_s'] * 1e3:.0f}ms  "
                  f"builds={f['graph_builds']}  "
                  f"stripe {f['stripe']['cells']} cells "
                  f"serial {f['serial_cells_per_s']:,.0f}/s "
                  f"pool {f['pool_cells_per_s']:,.0f}/s  "
                  f"sources {f['sources_pool_s']:.2f}s  "
                  f"attaches={f['worker_attaches']} "
                  f"rebuilds={f['worker_rebuilds']}  "
                  f"identical={f['identical']}")
        tf = big["traced_flood"]
        print(f"big traced flood: n={tf['n']}, {tf['messages']} msgs, "
              f"{tf['emitted']} events emitted / {tf['recorded']} kept "
              f"(limit=0), {tf['wall_s'] * 1e3:.1f}ms")
        print(f"big tier: peak rss {big['peak_rss_mb']:.0f} MB "
              f"(budget {big['budget_mb']} MB, "
              f"within={big['within_budget']}), "
              f"segments after shutdown: {big['segments_after_shutdown']}")
    print(f"wrote {out}")

    if not cs["identical"]:
        print("FATAL: parallel sweep rows differ from serial", file=sys.stderr)
        return 1
    if args.big:
        big = report["big_tier"]
        if not big["within_budget"]:
            print(f"FATAL: big tier peak RSS {big['peak_rss_mb']:.0f} MB "
                  f"exceeds the {big['budget_mb']} MB budget",
                  file=sys.stderr)
            return 1
        if big["segments_after_shutdown"]:
            print("FATAL: big tier leaked shared-memory segments",
                  file=sys.stderr)
            return 1
    if args.compare is not None and not run_compare(report, args.compare,
                                                    args.tolerance):
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
