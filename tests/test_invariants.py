"""Simulator invariants: FIFO channels, the time deadline, cost conservation.

Three properties every run must satisfy regardless of protocol, delay
model, or fault plan:

* **Per-edge FIFO** — messages on one directed channel are delivered in
  send order and never overtake (the FIFO clamp of the send path), even
  under randomized per-message delays;
* **Deadline** — nothing is delivered after ``max_time``; events exactly
  at the deadline still fire, later ones stay queued;
* **Ledger conservation** — the sum of per-edge charges (the recorder's
  ``send`` events, recorded at transmit time) equals ``Metrics.comm_cost``,
  which in turn equals the sum over tags of ``cost_by_tag`` — including
  the reliable transport's ``rel-ack``/``rel-retry`` components under
  message loss.
"""

import random

from repro.faults import FaultPlan
from repro.faults.transport import reliable_factory
from repro.graphs import WeightedGraph, random_connected_graph
from repro.obs import TraceRecorder
from repro.protocols.broadcast import FloodProcess
from repro.sim.delays import UniformDelay
from repro.sim.network import Network
from repro.sim.process import Process


class BurstSender(Process):
    """Sends a numbered burst of messages to every neighbor at start."""

    def __init__(self, n_msgs: int):
        self.n_msgs = n_msgs

    def on_start(self):
        for seq in range(self.n_msgs):
            for v in self.neighbors():
                self.send(v, (self.node_id, seq))
        self.finish()


class Recorder(Process):
    """Records every arrival as (sender, seq, time)."""

    def __init__(self, log: list):
        self.log = log

    def on_message(self, frm, payload):
        self.log.append((frm, payload[1], self.now))

    def on_start(self):
        self.finish()


def test_per_edge_fifo_order_preserved_under_random_delays():
    g = random_connected_graph(12, 16, seed=9)
    sender = g.vertices[0]
    logs = {v: [] for v in g.vertices}

    def factory(v):
        return BurstSender(8) if v == sender else Recorder(logs[v])

    # Randomized sub-maximal delays are exactly the regime where a later
    # message could overtake an earlier one absent the FIFO clamp.
    net = Network(g, factory, delay=UniformDelay(0.1, 1.0), seed=5)
    net.run()

    for v, log in logs.items():
        arrivals = [(seq, t) for frm, seq, t in log if frm == sender]
        if not arrivals:
            continue
        seqs = [seq for seq, _ in arrivals]
        times = [t for _, t in arrivals]
        assert seqs == sorted(seqs), f"channel ({sender}->{v}) reordered: {seqs}"
        assert all(a <= b for a, b in zip(times, times[1:])), (
            f"channel ({sender}->{v}) delivery times not monotone: {times}"
        )


def test_fifo_holds_on_every_directed_channel_all_to_all():
    g = random_connected_graph(8, 10, seed=3)
    logs = {v: [] for v in g.vertices}

    class SendAndRecord(BurstSender):
        def __init__(self, v):
            super().__init__(6)
            self.v = v

        def on_message(self, frm, payload):
            logs[self.v].append((frm, payload[1], self.now))

    net = Network(g, lambda v: SendAndRecord(v), delay=UniformDelay(0.0, 1.0),
                  seed=17)
    net.run()
    for v, log in logs.items():
        per_sender = {}
        for frm, seq, t in log:
            per_sender.setdefault(frm, []).append(seq)
        for frm, seqs in per_sender.items():
            assert seqs == sorted(seqs), (
                f"channel ({frm}->{v}) reordered: {seqs}"
            )


def test_no_delivery_after_max_time():
    g = random_connected_graph(16, 24, seed=7)
    root = g.vertices[0]
    deadline = 3.0
    net = Network(g, lambda v: FloodProcess(v == root, "x"))
    result = net.run(max_time=deadline)
    assert result.status == "max_time"
    assert result.metrics.completion_time <= deadline
    # The over-deadline events were not consumed, merely left pending.
    assert len(net.queue) > 0
    assert net.queue.peek_time() > deadline


def test_events_exactly_at_deadline_still_fire():
    g = WeightedGraph([(0, 1, 2.0), (1, 2, 2.0)])
    net = Network(g, lambda v: FloodProcess(v == 0, "x"))
    # Flood over uniform weight-2 edges delivers at t=2 and t=4.
    result = net.run(max_time=4.0)
    assert result.metrics.completion_time == 4.0
    assert result.status in ("quiescent", "max_time")
    assert all(p.payload == "x" for p in net.processes.values())


def _ledger(net_factory):
    """Run a network while accumulating trace charges per directed edge."""
    rec = TraceRecorder()
    net = net_factory(rec)
    result = net.run()
    per_edge = {}
    for e in rec.events:
        if e.kind == "send":
            per_edge[(e.node, e.peer)] = per_edge.get((e.node, e.peer),
                                                      0.0) + e.cost
    return per_edge, result.metrics


def test_cost_ledger_conservation_fault_free():
    g = random_connected_graph(10, 14, seed=2)
    root = g.vertices[0]
    per_edge, metrics = _ledger(
        lambda rec: Network(g, lambda v: FloodProcess(v == root, "x"),
                            recorder=rec)
    )
    total = sum(per_edge.values())
    assert abs(total - metrics.comm_cost) < 1e-9
    assert abs(sum(metrics.cost_by_tag.values()) - metrics.comm_cost) < 1e-9
    # Every charge is per-transmission w(e) * size with size=1 here.
    for (u, v), cost in per_edge.items():
        w = g.weight(u, v)
        assert cost / w == round(cost / w), "charge not a multiple of w(e)"


def test_cost_ledger_conservation_with_reliable_transport_under_loss():
    g = random_connected_graph(10, 14, seed=2)
    root = g.vertices[0]
    plan = FaultPlan.message_loss(0.2, seed=11)
    factory = reliable_factory(lambda v: FloodProcess(v == root, "x"))
    per_edge, metrics = _ledger(
        lambda rec: Network(g, factory, faults=plan, recorder=rec)
    )
    # The lossy run actually exercised the retransmission machinery.
    assert metrics.cost_by_tag["rel-ack"] > 0
    assert metrics.cost_by_tag["rel-retry"] > 0
    # Conservation: per-edge charges == comm_cost == sum of tag buckets
    # (payload + rel-ack + rel-retry), to float tolerance.
    total = sum(per_edge.values())
    assert abs(total - metrics.comm_cost) < 1e-9
    assert abs(sum(metrics.cost_by_tag.values()) - metrics.comm_cost) < 1e-9
    # Dropped messages were still charged: the adversary recorded drops,
    # and each drop cost its w(e) at transmit time (already in the ledger).
    assert metrics.fault_counts["drop"] > 0


def test_message_counts_by_tag_sum_to_total():
    g = random_connected_graph(9, 9, seed=6)
    root = g.vertices[0]
    plan = FaultPlan.message_loss(0.1, seed=4)
    factory = reliable_factory(lambda v: FloodProcess(v == root, "x"))
    net = Network(g, factory, faults=plan)
    result = net.run()
    m = result.metrics
    assert sum(m.count_by_tag.values()) == m.message_count


def test_ledger_conservation_under_random_delays_and_seeds():
    rng = random.Random(0)
    for _ in range(3):
        seed = rng.randrange(1 << 20)
        g = random_connected_graph(8, 8, seed=seed % 100)
        root = g.vertices[0]
        per_edge, metrics = _ledger(
            lambda rec: Network(g, lambda v: FloodProcess(v == root, "x"),
                                delay=UniformDelay(0.0, 1.0), seed=seed,
                                recorder=rec)
        )
        assert abs(sum(per_edge.values()) - metrics.comm_cost) < 1e-9
        assert abs(sum(metrics.cost_by_tag.values()) - metrics.comm_cost) < 1e-9
