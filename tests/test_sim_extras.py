"""Tests for simulator extras: budgets, tracing, delay adversaries under
serialization, and CostReport measures."""

import pytest

from repro.core.measures import report
from repro.graphs import WeightedGraph, network_params, path_graph, ring_graph
from repro.obs import TraceRecorder
from repro.sim import Network, PerEdgeDelay, Process


class Chain(Process):
    """Forward a token down a path; each hop costs the edge weight."""

    def on_start(self):
        if self.node_id == 0:
            self.send(1, "tok")

    def on_message(self, frm, payload):
        nxt = self.node_id + 1
        if nxt in self.ctx.weights:
            self.send(nxt, payload)
        else:
            self.finish("end")


# --------------------------------------------------------------------- #
# Communication budgets (the hybrid enforcement mechanism)
# --------------------------------------------------------------------- #


def test_budget_suppresses_overspending_send():
    g = path_graph(6, weight=10.0)
    # Budget allows exactly 3 hops (cost 30); the 4th send is suppressed.
    net = Network(g, lambda v: Chain(), comm_budget=30.0)
    result = net.run()
    assert net.budget_exhausted
    assert result.comm_cost == 30.0
    assert not net.all_finished


def test_budget_never_exceeded_even_by_one_heavy_send():
    g = WeightedGraph([(0, 1, 5.0), (1, 2, 1000.0)])

    class Hop(Process):
        def on_start(self):
            if self.node_id == 0:
                self.send(1, "x")

        def on_message(self, frm, payload):
            if self.node_id == 1:
                self.send(2, payload)

    net = Network(g, lambda v: Hop(), comm_budget=100.0)
    result = net.run()
    # The 1000-cost send is refused *before* transmission.
    assert result.comm_cost == 5.0
    assert net.budget_exhausted


def test_budget_exactly_sufficient_run_completes():
    g = path_graph(4, weight=2.0)
    net = Network(g, lambda v: Chain(), comm_budget=6.0)
    result = net.run()
    assert not net.budget_exhausted
    assert result.result_of(3) == "end"


# --------------------------------------------------------------------- #
# Trace hook
# --------------------------------------------------------------------- #


def _sends(rec):
    return [(e.t, e.node, e.peer, e.tag, e.cost) for e in rec.events
            if e.kind == "send"]


def test_trace_records_every_transmission():
    rec = TraceRecorder()
    g = path_graph(4, weight=3.0)
    net = Network(g, lambda v: Chain(), recorder=rec)
    net.run()
    events = _sends(rec)
    assert len(events) == 3
    assert events[0] == (0.0, 0, 1, "msg", 3.0)
    assert events[1][0] == 3.0 and events[1][1:3] == (1, 2)
    times = [e[0] for e in events]
    assert times == sorted(times)


def test_trace_not_called_for_suppressed_sends():
    rec = TraceRecorder()
    g = path_graph(5, weight=10.0)
    net = Network(g, lambda v: Chain(), comm_budget=20.0, recorder=rec)
    net.run()
    assert len(_sends(rec)) == 2  # the third hop was refused


# --------------------------------------------------------------------- #
# Adversarial delays (PerEdgeDelay) and serialized channels
# --------------------------------------------------------------------- #


class Burst(Process):
    """Node 0 sends two back-to-back messages to node 1, which logs
    (arrival time, payload)."""

    def __init__(self):
        self.log = []

    def on_start(self):
        if self.node_id == 0:
            self.send(1, "a")
            self.send(1, "b")

    def on_message(self, frm, payload):
        self.log.append((self.now, payload))


def _burst_log(**net_kwargs):
    g = WeightedGraph([(0, 1, 4.0)])
    net = Network(g, lambda v: Burst(), **net_kwargs)
    net.run()
    return net.processes[1].log


def test_per_edge_delay_fifo_clamp_when_pipelined():
    # Adversary: first transmission takes the full w(e)=4, second takes 1.
    # Pipelined channels are still FIFO per directed edge, so the fast
    # second message is clamped to the first's arrival — no overtaking.
    delays = iter([4.0, 1.0])
    log = _burst_log(delay=PerEdgeDelay(lambda u, v, w: next(delays)))
    assert log == [(4.0, "a"), (4.0, "b")]


def test_per_edge_delay_serialized_store_and_forward():
    # Same adversary, serialize=True: the channel transmits one message at
    # a time, so the second transmission *starts* only when the first is
    # done (t=4) and arrives a further 1 later.
    delays = iter([4.0, 1.0])
    log = _burst_log(delay=PerEdgeDelay(lambda u, v, w: next(delays)),
                     serialize=True)
    assert log == [(4.0, "a"), (5.0, "b")]


def test_serialized_channel_occupancy_accumulates():
    # Zero-ish adversary under serialization: each transmission still
    # occupies the channel for its own delay, sequentially.
    delays = iter([1.0, 1.0])
    log = _burst_log(delay=PerEdgeDelay(lambda u, v, w: next(delays)),
                     serialize=True)
    assert log == [(1.0, "a"), (2.0, "b")]


def test_per_edge_delay_schedule_keyed_by_edge_and_count():
    # The documented use: a stateful schedule keyed by (edge, transmission
    # index) realizing a specific adversary along a path.
    counts = {}

    def schedule(u, v, w):
        k = counts[(u, v)] = counts.get((u, v), 0) + 1
        return w / k

    g = path_graph(3, weight=2.0)
    net = Network(g, lambda v: Chain(),
                  delay=PerEdgeDelay(schedule), serialize=True)
    result = net.run()
    # One transmission per edge, each at full weight on first use.
    assert result.time == 4.0
    assert counts == {(0, 1): 1, (1, 2): 1}


def test_per_edge_delay_rejects_out_of_range():
    g = WeightedGraph([(0, 1, 4.0)])
    net = Network(g, lambda v: Burst(),
                  delay=PerEdgeDelay(lambda u, v, w: w + 1.0))
    with pytest.raises(ValueError):
        net.run()


def test_serialized_channels_are_directional():
    # Opposite directions of an edge are distinct channels: simultaneous
    # sends both ways do not serialize against each other.
    class Pair(Process):
        def __init__(self):
            self.log = []

        def on_start(self):
            self.send(1 - self.node_id, "x")

        def on_message(self, frm, payload):
            self.log.append(self.now)

    g = WeightedGraph([(0, 1, 3.0)])
    net = Network(g, lambda v: Pair(), serialize=True)
    net.run()
    assert net.processes[0].log == [3.0]
    assert net.processes[1].log == [3.0]


# --------------------------------------------------------------------- #
# CostReport
# --------------------------------------------------------------------- #


def test_cost_report_ratios():
    g = ring_graph(6, weight=2.0)
    rep = report("demo", g, comm_cost=24.0, time=6.0, message_count=12)
    assert rep.comm_ratio(12.0) == pytest.approx(2.0)
    assert rep.time_ratio(3.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        rep.comm_ratio(0.0)
    with pytest.raises(ValueError):
        rep.time_ratio(-1.0)
    assert "demo" in str(rep)


def test_cost_report_reuses_params():
    g = ring_graph(5)
    p = network_params(g)
    rep = report("x", g, 1.0, 1.0, 1, params=p)
    assert rep.params is p
    rep2 = report("y", g, 1.0, 1.0, 1)
    assert rep2.params.n == p.n
