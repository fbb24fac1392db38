"""The paper workloads: seeded inputs, batch execution, counts.

Every workload turns ``--seed`` into its inputs up front (the library only
ever sees the generated graphs), then runs a *batch*: a fixed list of
instances executed back to back in one closed loop.  A batch runs in one
of three modes:

* ``plain`` — nothing is wrapped; this is the timed mode;
* ``count`` — only :class:`~tracing.QueueCapture` is live, to read
  ``EventQueue.fired`` of every run;
* ``trace`` — a :class:`~tracing.TraceSession` records spans.

Each instance yields a ``counts`` tuple that must be identical across
repeated batches and across modes (the determinism and no-perturbation
checks), and an output the oracles check after timing.
"""

from __future__ import annotations

import os
import random
import resource
import time
from dataclasses import dataclass, field

from tracing import QueueCapture, TraceSession

from repro.core import slt
from repro.covers import tree_cover
from repro.experiments.parallel import (
    chaos_cells,
    parallel_plan,
    run_chaos_cell,
    run_parallel,
)
from repro.graphs import lower_bound_graph, params, random_connected_graph
from repro.protocols.spt_synch import run_spt_synch

WORKLOADS = ("gamma_w_spt", "chaos_sweep", "graph_params")


@dataclass
class Batch:
    """One executed batch: wall time, per-instance records, outputs."""

    wall_s: float
    names: list[str]
    counts: list[tuple]
    fired: list[int | None]
    outputs: list
    messages: int = 0
    cell_s: list[float] = field(default_factory=list)
    worker_rss_kb: dict[int, int] = field(default_factory=dict)
    folds: list[dict] = field(default_factory=list)


@dataclass(frozen=True)
class Raised:
    """Stands in for the output of an instance that raised."""

    reason: str


def _seeds(seed: int, tag: str, k: int) -> list[int]:
    rng = random.Random(f"{tag}:{seed}")
    return [rng.getrandbits(32) for _ in range(k)]


class _InProcess:
    """A workload whose instances run in the benchmark process."""

    name = ""
    simulator = True

    def instances(self) -> list[tuple[str, object, tuple]]:
        """Fresh ``(name, fn, args)`` per batch (graphs copied: cold caches)."""
        raise NotImplementedError

    def summarize(self, out) -> tuple[tuple, object, int]:
        """``(counts, output kept for the oracle, simulated messages)``."""
        raise NotImplementedError

    def check_one(self, i: int, output) -> str | None:
        """Why output ``i`` of a batch is wrong, or ``None``."""
        raise NotImplementedError

    def check(self, outputs: list) -> list[str | None]:
        return [f"raised {o.reason}" if isinstance(o, Raised)
                else self.check_one(i, o) for i, o in enumerate(outputs)]

    def warm(self) -> None:
        """Run one tiny instance of each kind (lazy imports, first calls)."""
        raise NotImplementedError

    def plan(self) -> dict:
        return {}

    def batch(self, mode: str = "plain") -> Batch:
        todo = self.instances()
        results = []
        fired: list[int | None] = []
        session = None
        t0 = time.perf_counter()
        if mode == "plain":
            for _, fn, args in todo:
                results.append(_attempt(fn, *args))
                fired.append(None)
        elif mode == "count":
            for _, fn, args in todo:
                with QueueCapture() as cap:
                    results.append(_attempt(fn, *args))
                fired.append(cap.fired())
        else:
            with TraceSession() as session:
                for name, fn, args in todo:
                    results.append(session.instance(name, _attempt, fn, *args))
        wall = time.perf_counter() - t0
        folds = []
        if session is not None:
            folds = [session.fold()]  # the raw spans go with the session
            fired = folds[0]["fired_by_instance"]
        counts, outputs, messages = [], [], 0
        for out in results:
            if isinstance(out, Raised):
                counts.append(("raised", out.reason))
                outputs.append(out)
                continue
            c, o, m = self.summarize(out)
            counts.append(c)
            outputs.append(o)
            messages += m
        return Batch(wall, [n for n, _, _ in todo], counts, fired, outputs,
                     messages, folds=folds)

    def close(self) -> None:
        pass


def _attempt(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # counted as a failed instance, not a crash
        return Raised(f"{type(exc).__name__}: {exc}")


class GammaWSpt(_InProcess):
    """SPT_synch: Bellman-Ford hosted by gamma_w under maximal delay."""

    name = "gamma_w_spt"
    N, EXTRA, GRAPHS = 32, 128, 16  # dense enough that D, hence the pulse count, varies little

    def __init__(self, seed: int) -> None:
        self.graphs = [random_connected_graph(self.N, self.EXTRA, seed=s)
                       for s in _seeds(seed, self.name, self.GRAPHS)]

    def instances(self):
        return [(f"spt[{i}]", _spt, (g.copy(),))
                for i, g in enumerate(self.graphs)]

    def summarize(self, out):
        result, _tree = out
        m = result.net_result.metrics
        dist = {v: d for v, (d, _p) in result.results().items()}
        parent = {v: p for v, (_d, p) in result.results().items()}
        return ((m.comm_cost, m.message_count), (dist, parent),
                m.message_count)

    def check_one(self, i: int, output) -> str | None:
        from oracle import spt_problem

        g = self.graphs[i]
        dist, parent = output
        return spt_problem(g, g.vertices[0], dist, parent)

    def warm(self) -> None:
        _spt(random_connected_graph(8, 8, seed=1))


def _spt(graph):
    return run_spt_synch(graph, graph.vertices[0])


class GraphParams(_InProcess):
    """network_params, the tree edge-cover and the SLT on cold caches."""

    name = "graph_params"
    simulator = False
    SPARSE_N, DENSE_N, DENSE_EXTRA, GN_N, COVER_N = 700, 300, 12000, 300, 160

    def __init__(self, seed: int) -> None:
        s = _seeds(seed, self.name, 3)
        self.sparse = random_connected_graph(self.SPARSE_N, self.SPARSE_N, seed=s[0])
        self.dense = random_connected_graph(self.DENSE_N, self.DENSE_EXTRA, seed=s[1])
        self.cover_graph = random_connected_graph(self.COVER_N, self.COVER_N,
                                                  seed=s[2])
        self.lower_bound = lower_bound_graph(self.GN_N)

    def instances(self):
        return [
            ("params:sparse", _params, (self.sparse.copy(),)),
            ("params:lower_bound", _params, (self.lower_bound.copy(),)),
            ("params:dense", _params, (self.dense.copy(),)),
            ("tree_edge_cover", _cover, (self.cover_graph.copy(),)),
            ("slt", _slt, (self.sparse.copy(),)),
        ]

    def check_one(self, i: int, output) -> str | None:
        from oracle import cover_problem, params_problem, slt_problem

        graph = (self.sparse, self.lower_bound, self.dense, self.cover_graph,
                 self.sparse)[i]
        kind, value = output
        check = {"params": params_problem, "cover": cover_problem,
                 "slt": slt_problem}[kind]
        return check(graph, value)

    def summarize(self, out):
        kind, value = out
        if kind == "params":
            counts = (value.n, value.m, value.E, value.V, value.D, value.W, value.d)
        elif kind == "cover":
            counts = (len(value.trees), value.max_edge_load, value.max_depth)
        else:
            counts = (value.weight, value.depth(), len(value.breakpoints))
        return counts, out, 0

    def warm(self) -> None:
        for g in (random_connected_graph(10, 10, seed=1), lower_bound_graph(8)):
            params.network_params(g)
        _cover(random_connected_graph(10, 10, seed=1))
        _slt(random_connected_graph(10, 10, seed=1))


# The library is called through its modules, so a trace session's
# wrappers (installed on those module attributes) see these calls.


def _params(graph):
    return "params", params.network_params(graph)


def _cover(graph):
    return "cover", tree_cover.build_tree_edge_cover(graph)


def _slt(graph):
    return "slt", slt.shallow_light_tree(graph, graph.vertices[0], 2.0)


# --------------------------------------------------------------------- #
# chaos_sweep: cells go through the library's pool
# --------------------------------------------------------------------- #


def bench_cell(item: tuple) -> dict:
    """Run one chaos cell in a pool worker (or in-process when serial).

    Times ``run_chaos_cell`` and reports this process's peak RSS; in
    ``count`` and ``trace`` mode it installs the capture or a trace
    session for this cell only, so nothing stays wrapped in the worker.
    """
    cell, mode = item
    out: dict = {"pid": os.getpid()}
    if mode == "plain":
        t0 = time.perf_counter()
        out["row"] = run_chaos_cell(cell)
        out["cell_s"] = time.perf_counter() - t0
    elif mode == "count":
        with QueueCapture() as cap:
            out["row"] = run_chaos_cell(cell)
        out["fired"] = cap.fired()
    else:
        with TraceSession() as session:
            out["row"] = session.instance("cell", run_chaos_cell, cell)
        out["fold"] = session.fold()
        out["fired"] = out["fold"]["fired"]
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return out


class ChaosSweep:
    """The chaos matrix over several seeded graphs, through ``run_parallel``."""

    name = "chaos_sweep"
    simulator = True
    N, EXTRA, GRAPHS = 40, 80, 8  # <= 8 graphs: the worker memo holds 8 suites

    def __init__(self, seed: int) -> None:
        self.graph_seeds = [s % 1_000_000 for s in _seeds(seed, self.name, self.GRAPHS)]
        fault_seed = _seeds(seed, self.name + ":faults", 1)[0] % 1_000_000
        self.cells = []
        for gs in self.graph_seeds:
            self.cells += chaos_cells(n=self.N, extra_edges=self.EXTRA,
                                      graph_seed=gs, fault_seed=fault_seed)
        self.warm_specs = tuple((self.N, self.EXTRA, gs, None)
                                for gs in self.graph_seeds)
        self.jobs = min(2, os.cpu_count() or 1)
        self.decision = parallel_plan(len(self.cells), self.jobs)

    def plan(self) -> dict:
        mode, chunksize = self.decision
        return {"jobs": self.jobs, "parallel_plan": mode,
                "chunksize": chunksize, "cells": len(self.cells)}

    def warm(self) -> None:
        """Spin the pool up and let every worker run its warm initializer.

        The fault-free cell of each (graph, protocol) goes through the
        pool; in a serial plan the same calls fill the in-process memos.
        """
        firsts = [c for c in self.cells if c.drop == 0.0]
        run_parallel(bench_cell, [(c, "plain") for c in firsts],
                     jobs=self.jobs, warm=self.warm_specs)

    def batch(self, mode: str = "plain") -> Batch:
        t0 = time.perf_counter()
        got = run_parallel(bench_cell, [(c, mode) for c in self.cells],
                           jobs=self.jobs, warm=self.warm_specs)
        wall = time.perf_counter() - t0
        rows = [g["row"] for g in got]
        rss: dict[int, int] = {}
        for g in got:
            rss[g["pid"]] = max(rss.get(g["pid"], 0), g["rss_kb"])
        return Batch(
            wall_s=wall,
            names=[f"{c.graph_seed}/{c.protocol}/{c.drop}/"
                   f"{'rel' if c.reliable else 'raw'}" for c in self.cells],
            counts=[(r["comm_cost"], r["messages"], r["status"],
                     r["answer_digest"]) for r in rows],
            fired=[g.get("fired") for g in got],
            outputs=rows,
            messages=sum(r["messages"] or 0 for r in rows),
            cell_s=[g["cell_s"] for g in got if "cell_s" in g],
            worker_rss_kb={pid: kb for pid, kb in rss.items() if pid != os.getpid()},
            folds=[g["fold"] for g in got if "fold" in g],
        )

    def check(self, outputs: list) -> list[str | None]:
        """Each row against the fault-free answer, itself checked by networkx."""
        from oracle import chaos_answer_problem, chaos_row_problem, digest

        from repro.experiments.chaos import make_cases
        from repro.faults import run_chaos

        expected: dict[tuple, str] = {}
        wrong_reference: dict[tuple, str] = {}
        for gs in self.graph_seeds:
            for case in make_cases(self.N, self.EXTRA, gs):
                ref = run_chaos(case.graph, case.factory, plan=None,
                                reliable=False, answer=case.answer)
                problem = (f"fault-free run ended {ref.status!r}"
                           if ref.status != "ok"
                           else chaos_answer_problem(case, ref.answer))
                if problem:
                    wrong_reference[(gs, case.name)] = problem
                expected[(gs, case.name)] = digest(ref.answer)
        out = []
        for cell, row in zip(self.cells, outputs, strict=True):
            key = (cell.graph_seed, cell.protocol)
            out.append(wrong_reference.get(key)
                       or chaos_row_problem(row, expected[key]))
        return out

    def close(self) -> None:
        from repro.experiments.parallel import shutdown_pool

        shutdown_pool()


def make(name: str, seed: int):
    """The workload ``name`` with its inputs generated from ``seed``."""
    classes = {"gamma_w_spt": GammaWSpt, "chaos_sweep": ChaosSweep,
               "graph_params": GraphParams}
    if name not in classes:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    return classes[name](seed)
