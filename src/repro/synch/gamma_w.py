"""Synchronizer gamma_w — weighted network synchronization (Section 4).

Simulates a *weighted synchronous* network (delay on edge e exactly w(e))
on a *weighted asynchronous* network (delays adversarial in [0, w(e)]).
The construction follows Section 4.2:

* the network is normalized (weights rounded to powers of two) and the
  hosted protocol transformed to be in synch with it
  (:mod:`repro.synch.normalize`, Lemma 4.5);
* edges are stratified by weight: level ``i`` holds the edges of weight
  exactly ``2^i``.  A message sent on a level-i edge leaves at a pulse
  divisible by ``2^i`` and must arrive ``2^i`` pulses later — i.e. by the
  *next super-pulse* of level i — so one synchronizer-gamma instance per
  level (on the subgraph ``G_i``) is exactly what is needed: gamma_i
  treats pulse ``P * 2^i`` as its super-pulse ``P`` and guarantees
  super-pulse P is executed only after all level-i messages of super-pulse
  P-1 arrived;
* a vertex executes pulse ``p`` once, for every level i with ``2^i | p``
  in which it has edges, gamma_i has issued GO for super-pulse ``p / 2^i``
  (the paper's example: pulse 24 = 3 * 2^3 waits for gamma_0..gamma_3 to
  carry their pulses 24, 12, 6 and 3).

Safety detection uses acknowledgments: every protocol message is acked on
arrival, and a vertex is *safe* w.r.t. super-pulse P of level i once it
has executed pulse ``P * 2^i`` and all its level-i messages from that
pulse are acked (Definition 4.1 specialized to the stratification).

Costs (Lemma 4.8): per pulse, amortized over the 2^i-pulse spacing of each
level, communication ``O(k n log W)`` and time ``O(log_k n log W)``; with
``W = poly(n)`` these are ``O(k n log n)`` and ``O(log_k n log n)``.
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Callable
from functools import partial
from operator import attrgetter
from typing import Any

from ..graphs.weighted_graph import Vertex, WeightedGraph
from ..sim.delays import DelayModel
from ..sim.network import Network
from ..sim.process import Process
from ..sim.sync_runner import SynchronousProtocol, SynchronousRunner
from .gamma import GammaNode
from .host_base import HostSyncShim
from .normalize import InSynchWrapper, normalize_graph
from .partition import ClusterPartition, build_partition

__all__ = ["GammaWConfig", "GammaWHost", "GammaWResult", "run_gamma_w",
           "run_synchronous_baseline"]


class GammaWConfig:
    """Preprocessed structures shared by every host process.

    Holds the normalized graph, the per-level subgraphs ``G_i`` and their
    cluster partitions.  All of this is static preprocessing, computed once
    (the paper amortizes preprocessing away; we do not charge it to the
    per-pulse overheads either, but the benchmarks report it separately).
    """

    def __init__(self, graph: WeightedGraph, k: int = 2) -> None:
        self.original = graph
        self.normalized = normalize_graph(graph)
        self.k = k
        # Stratify edges by level: weight exactly 2^i in the normalized net.
        levels: dict[int, list] = defaultdict(list)
        for u, v, w in self.normalized.edges():
            i = int(round(math.log2(w)))
            levels[i].append((u, v, w))
        self.levels: dict[int, WeightedGraph] = {}
        self.partitions: dict[int, ClusterPartition] = {}
        self.participants: dict[int, frozenset] = {}
        for i, edges in sorted(levels.items()):
            sub = WeightedGraph(edges=edges)
            self.levels[i] = sub
            self.partitions[i] = build_partition(sub, k)
            self.participants[i] = frozenset(sub.vertices)

    def levels_of(self, v: Vertex) -> list[int]:
        return [i for i, parts in self.participants.items() if v in parts]


class GammaWHost(Process):
    """One node of the gamma_w synchronizer hosting one wrapped protocol."""

    def __init__(
        self,
        node_id: Vertex,
        config: GammaWConfig,
        inner_factory: Callable[[Vertex], SynchronousProtocol],
        max_pulse: int,
    ) -> None:
        self._node = node_id
        self.config = config
        self.max_pulse = max_pulse
        inner = inner_factory(node_id)
        self.wrapper = InSynchWrapper(
            inner, config.original.neighbor_weights(node_id)
        )
        self.my_levels = config.levels_of(node_id)
        self.gammas: dict[int, GammaNode] = {}
        self.go_level: dict[int, int] = {i: 0 for i in self.my_levels}
        self.pending_acks: dict[int, dict[int, int]] = {
            i: defaultdict(int) for i in self.my_levels
        }
        self.next_pulse = 0
        self.pulses_executed = 0
        self._inbox: dict[int, list] = defaultdict(list)
        self._advancing = False
        self._traced = False

    # -------------------------------------------------------------- #
    # Wiring
    # -------------------------------------------------------------- #

    def on_start(self) -> None:
        self.wrapper.sync = HostSyncShim(self)
        # Decided once per host: an untraced run sends its control
        # traffic without opening the (no-op) trace spans around it.
        self._traced = self.ctx.traced
        send = self._send_gamma_traced if self._traced else self._send_gamma
        for i in self.my_levels:
            self.gammas[i] = GammaNode(
                self._node,
                self.config.partitions[i],
                send=partial(send, i),
                on_go=partial(self._on_go, i),
            )
        self._advance()

    def _send_gamma(self, i: int, to: Vertex, msg: Any) -> None:
        self.send(to, ("gamma", i, msg), tag="sync-gamma")

    def _send_gamma_traced(self, i: int, to: Vertex, msg: Any) -> None:
        with self.trace_span("sync-gamma", detail=i):
            self.send(to, ("gamma", i, msg), tag="sync-gamma")

    def on_message(self, frm: Vertex, payload: Any) -> None:
        # No arrival calls _advance(): _may_execute reads only go_level
        # and next_pulse, and every change to those (a GO, delivered
        # through _on_go) advances on its own.
        kind = payload[0]
        if kind == "proto":
            _, wire, send_pulse = payload
            arrive_pulse = send_pulse + int(self.edge_weight(frm))
            self._inbox[arrive_pulse].append((frm, wire))
            if self._traced:
                with self.trace_span("sync-ack"):
                    self.send(frm, ("ack", send_pulse), tag="sync-ack")
            else:
                self.send(frm, ("ack", send_pulse), tag="sync-ack")
        elif kind == "ack":
            _, send_pulse = payload
            i = self._level_of_edge(frm)
            big_p = send_pulse >> i
            self.pending_acks[i][big_p] -= 1
            self._check_safety(i, big_p)
        elif kind == "gamma":
            _, i, msg = payload
            self.gammas[i].handle(frm, msg)
        else:  # pragma: no cover
            raise AssertionError(f"unknown gamma_w message {kind!r}")

    def _level_of_edge(self, nbr: Vertex) -> int:
        return int(round(math.log2(self.edge_weight(nbr))))

    # -------------------------------------------------------------- #
    # Protocol sends and safety
    # -------------------------------------------------------------- #

    def protocol_send(self, to: Vertex, wire: Any) -> None:
        """Transmit a wrapped-protocol message at the current local pulse."""
        pulse = self.next_pulse  # the pulse currently executing
        i = self._level_of_edge(to)
        if pulse % (1 << i) != 0:  # pragma: no cover - wrapper is in synch
            raise AssertionError(
                f"in-synch violation: pulse {pulse} on level-{i} edge"
            )
        self.pending_acks[i][pulse >> i] += 1
        self.send(to, ("proto", wire, pulse), tag="proto")

    def _check_safety(self, i: int, big_p: int) -> None:
        """Declare (i, P) safe if pulse P*2^i executed and all acks in."""
        if self.pending_acks[i][big_p] == 0 and self.next_pulse > (big_p << i):
            self.gammas[i].node_safe(big_p)

    def _on_go(self, i: int, big_p: int) -> None:
        self.go_level[i] = max(self.go_level[i], big_p)
        self._advance()

    def wrapper_finished(self, result: Any) -> None:
        self.finish(result)

    # -------------------------------------------------------------- #
    # Pulse engine
    # -------------------------------------------------------------- #

    def _may_execute(self, pulse: int) -> bool:
        if pulse > self.max_pulse:
            return False
        for i in self.my_levels:
            if pulse % (1 << i) == 0 and self.go_level[i] < (pulse >> i):
                return False
        return True

    def _advance(self) -> None:
        if self._advancing:  # guard against reentrancy via synchronous GOs
            return
        self._advancing = True
        try:
            while self._may_execute(self.next_pulse):
                pulse = self.next_pulse
                # Rolls this node's "pulse" trace span: protocol sends of
                # the pulse (and nested ack/gamma traffic until the next
                # pulse) are attributed under it (no-op untraced).
                self.trace_pulse(pulse)
                self.wrapper.on_pulse(pulse, self._inbox.pop(pulse, []))
                self.next_pulse = pulse + 1
                self.pulses_executed += 1
                for i in self.my_levels:
                    if pulse % (1 << i) == 0:
                        self._check_safety(i, pulse >> i)
        finally:
            self._advancing = False


class GammaWResult:
    """Outcome of a gamma_w run, with overhead accounting."""

    def __init__(self, net_result, config: GammaWConfig, max_pulse: int,
                 completed: bool = True) -> None:
        self.net_result = net_result
        self.config = config
        self.max_pulse = max_pulse
        self.completed = completed
        m = net_result.metrics
        self.proto_cost = m.cost_by_tag.get("proto", 0.0)
        self.ack_cost = m.cost_by_tag.get("sync-ack", 0.0)
        self.gamma_cost = m.cost_by_tag.get("sync-gamma", 0.0)
        self.overhead_cost = self.ack_cost + self.gamma_cost
        self.comm_cost = m.comm_cost
        self.time = m.completion_time
        self.pulses = max(
            p.pulses_executed for p in net_result.processes.values()
        )

    def result_of(self, v: Vertex) -> Any:
        return self.net_result.processes[v].wrapper.inner_result

    def results(self) -> dict:
        return {v: self.result_of(v) for v in self.net_result.processes}

    @property
    def comm_overhead_per_pulse(self) -> float:
        """The paper's C(gamma_w): synchronization cost amortized per pulse."""
        return self.overhead_cost / max(1, self.pulses)

    @property
    def time_per_pulse(self) -> float:
        """The paper's T(gamma_w): physical time amortized per pulse."""
        return self.time / max(1, self.pulses)


def run_gamma_w(
    graph: WeightedGraph,
    inner_factory: Callable[[Vertex], SynchronousProtocol],
    *,
    k: int = 2,
    max_pulse: int,
    delay: DelayModel | None = None,
    seed: int = 0,
    config: GammaWConfig | None = None,
    budget: float | None = None,
    recorder: Any | None = None,
) -> GammaWResult:
    """Run a synchronous protocol on an asynchronous network via gamma_w.

    ``max_pulse`` caps the outer (x4-slowed, normalized) pulse counter; it
    must be at least ``4 * (inner completion pulse + 1)``.  The run stops as
    soon as every node's hosted protocol has finished, or — when ``budget``
    is given — as soon as the communication cost reaches the budget (the
    result's ``completed`` flag is then False).

    ``recorder`` attaches structured tracing (``repro.obs``): each node's
    pulses roll a ``pulse`` span, with ``sync-ack``/``sync-gamma``
    sub-spans for the synchronizer's control traffic, so the per-span
    cost breakdown of the trace refines this function's tag accounting.
    """
    cfg = config if config is not None else GammaWConfig(graph, k)
    net = Network(
        cfg.normalized,
        lambda v: GammaWHost(v, cfg, inner_factory, max_pulse),
        delay=delay,
        seed=seed,
        comm_budget=budget,
        recorder=recorder,
    )
    net_result = net.run(stop_when=attrgetter("all_finished"))
    if not net.all_finished:
        if budget is not None:
            return GammaWResult(net_result, cfg, max_pulse, completed=False)
        unfinished = [
            v for v, p in net_result.processes.items() if not p.ctx.is_finished
        ]
        raise RuntimeError(
            f"gamma_w stalled: {len(unfinished)} nodes unfinished "
            f"(max_pulse={max_pulse} too small?)"
        )
    return GammaWResult(net_result, cfg, max_pulse)


def run_synchronous_baseline(
    graph: WeightedGraph,
    inner_factory: Callable[[Vertex], SynchronousProtocol],
    max_pulses: int = 1_000_000,
):
    """Reference run of the same protocol on the weighted synchronous net.

    Returns the :class:`~repro.sim.sync_runner.SyncRunResult`; used to
    measure ``c_pi`` / ``t_pi`` and to check output equivalence.
    """
    runner = SynchronousRunner(graph, inner_factory)
    return runner.run(max_pulses)
