"""Every layering host gives its inner process the full Process surface.

One probe protocol runs inside each host that installs a
:class:`~repro.sim.process.HostedContext`, untraced and under a
:class:`~repro.obs.recorder.TraceRecorder`.  The probe is a diffusing
computation (only the initiator acts spontaneously; receivers finish), so
the Dijkstra-Scholten detector and the controller accept it too.  The
initiator exercises every context call a protocol may make: a trace
pulse, a trace span, ``now``, ``traced``, ``neighbors()``,
``edge_weight()``, a timer and one send per neighbor inside the span.
"""

import pytest

from repro.control import ControlledHost
from repro.core.id_flow import IdAuditedProcess
from repro.faults import ReliableProcess
from repro.graphs import random_connected_graph
from repro.obs import TraceRecorder
from repro.protocols.termination import DSHost
from repro.sim import Network, Process

GRAPH = random_connected_graph(6, 4, seed=1)
INITIATOR = max(GRAPH.vertices, key=lambda v: (len(GRAPH.neighbors(v)), v))
TIMER_DELAY = 0.25
UNIVERSE = frozenset(GRAPH.vertices)


class Probe(Process):
    def __init__(self, initiator: bool) -> None:
        self.initiator = initiator
        self.seen = None
        self.ticked_at = None

    def on_start(self) -> None:
        if not self.initiator:
            return
        self.trace_pulse(0)
        with self.trace_span("probe"):
            nbrs = self.neighbors()
            self.seen = {
                "now": self.now,
                "traced": self.ctx.traced,
                "node_id": self.node_id,
                "neighbors": list(nbrs),
                "weights": {v: self.edge_weight(v) for v in nbrs},
            }
            self.set_timer(TIMER_DELAY, self._tick)
            for v in nbrs:
                self.send(v, ("probe", self.node_id), tag="probe")
        self.finish("sent")

    def _tick(self) -> None:
        self.ticked_at = self.now

    def on_message(self, frm, payload) -> None:
        self.finish(("got", frm))


HOSTS = {
    "reliable": lambda v: ReliableProcess(Probe(v == INITIATOR)),
    "controller": lambda v: ControlledHost(
        Probe(v == INITIATOR), v == INITIATOR, threshold=1e9),
    "termination": lambda v: DSHost(Probe(v == INITIATOR), v == INITIATOR),
    "id_audit": lambda v: IdAuditedProcess(Probe(v == INITIATOR), UNIVERSE),
}


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("host", sorted(HOSTS))
def test_hosted_probe_runs_under_every_host(host, traced):
    rec = TraceRecorder() if traced else None
    net = Network(GRAPH, HOSTS[host], recorder=rec)
    result = net.run()
    assert result.status == "quiescent"

    nbrs = list(GRAPH.neighbors(INITIATOR))
    inner = {v: p.inner for v, p in result.processes.items()}
    probe = inner[INITIATOR]
    assert probe.seen == {
        "now": 0.0,
        "traced": traced,
        "node_id": INITIATOR,
        "neighbors": nbrs,
        "weights": {v: GRAPH.weight(INITIATOR, v) for v in nbrs},
    }
    assert probe.ticked_at == TIMER_DELAY
    assert probe.finished and probe.ctx.result == "sent"
    for v in nbrs:
        assert inner[v].finished and inner[v].ctx.result == ("got", INITIATOR)
    for v in set(GRAPH.vertices) - set(nbrs) - {INITIATOR}:
        assert not inner[v].finished
    if host == "termination":
        # The detector finishes every node once quiescence is certified.
        assert net.all_finished
    else:
        # The other hosts finish exactly when their inner process does.
        assert {v for v, p in result.processes.items() if p.finished} == {
            INITIATOR, *nbrs}

    if not traced:
        return
    events = rec.events
    pulses = [e for e in events if e.kind == "pulse"]
    assert [(e.node, e.detail) for e in pulses] == [(INITIATOR, 0)]
    opens = [e for e in events
             if e.kind == "span_open" and e.span.endswith("probe")]
    closes = [e for e in events
              if e.kind == "span_close" and e.span.endswith("probe")]
    assert len(opens) == len(closes) == 1
    assert opens[0].node == closes[0].node == INITIATOR
    inside = [e for e in events
              if opens[0].seq < e.seq < closes[0].seq and e.kind == "send"]
    assert sorted(e.peer for e in inside) == sorted(nbrs)
    assert all(e.node == INITIATOR for e in inside)
    assert all(e.span.split("/")[-1] == "probe" for e in inside)
    probe_sends = [e for e in events if e.kind == "send"
                   and e.span.split("/")[-1] == "probe"]
    assert probe_sends == inside
