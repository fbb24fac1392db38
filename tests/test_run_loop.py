"""The fused run loop and the lean send path against their references.

``Network.run`` has one loop: ``EventQueue.run`` probes the budget, then
the ``stop_when`` predicate, after every event.  The reference below is
the ``step()``/``peek_time()`` driver the predicate path used to run
through; every case compares status, events fired, the metrics and the
per-node results of the two drivers on identical networks.

The send path is fixed per network: a plain run gets the lean context,
any armed hook the general one.  Arming an observe-only hook (a recorder
that keeps no records, an infinite budget) must not change a run.
"""

import random

import pytest

from repro.faults import FaultPlan
from repro.faults.transport import reliable_factory
from repro.graphs import WeightedGraph, diameter, random_connected_graph
from repro.obs import TraceRecorder
from repro.protocols.broadcast import FloodProcess
from repro.protocols.spt_synch import SyncBellmanFord
from repro.sim import MaximalDelay, Network, Process, UniformDelay
from repro.sim.network import _ArmedContext, _NodeContext
from repro.synch.gamma_w import GammaWConfig, GammaWHost

INF = float("inf")


def reference_run(net, *, max_time=INF, max_events=50_000_000,
                  stop_when=None):
    """The step()/peek_time() driver; returns ``(status, events)``."""
    for proc in net.processes.values():
        proc.on_start()
    status = "quiescent"
    events = 0
    queue = net.queue
    while queue:
        if net.budget_exhausted:
            break
        if stop_when is not None and stop_when(net):
            status = "stopped"
            break
        if queue.peek_time() > max_time:
            status = "max_time"
            break
        queue.step()
        events += 1
        if events >= max_events:
            raise RuntimeError(f"exceeded {max_events} events")
    if net.budget_exhausted:
        status = "budget_exhausted"
    return status, events


def _snapshot(net, status, fired):
    return (status, fired, net.queue.fired, net.queue.now,
            net.metrics.as_dict(),
            {v: p.ctx.result for v, p in net.processes.items()})


def _fused(make, **kw):
    net = make()
    result = net.run(**kw)
    return _snapshot(net, result.status, net.queue.fired)


def _reference(make, **kw):
    net = make()
    status, events = reference_run(net, **kw)
    return _snapshot(net, status, events)


def _probed(stop_when, log):
    """``stop_when`` logging the message count at every probe."""
    def probe(nw):
        log.append(nw.metrics.message_count)
        return stop_when(nw)
    return probe


def _same(make, stop_when=None, **kw):
    """Run both drivers; they must agree, down to when the predicate is
    probed (so the order of the budget and predicate probes shows)."""
    if stop_when is None:
        fused = _fused(make, **kw)
        assert fused == _reference(make, **kw)
        return fused
    fused_log, ref_log = [], []
    fused = _fused(make, stop_when=_probed(stop_when, fused_log), **kw)
    ref = _reference(make, stop_when=_probed(stop_when, ref_log), **kw)
    assert fused == ref
    assert fused_log == ref_log
    return fused


# --------------------------------------------------------------------- #
# Networks
# --------------------------------------------------------------------- #


class Echo(Process):
    """Node 0 sends a light then a heavy message; every receiver echoes."""

    def on_start(self):
        if self.node_id == 0:
            self.send(1, "light")
            self.send(2, "heavy")

    def on_message(self, frm, payload):
        if self.node_id != 0:
            self.send(frm, payload)
        self.finish(payload)


def _flood(seed, *, delay=None, **kw):
    g = random_connected_graph(9, 8, seed=seed)
    root = g.vertices[0]
    return lambda: Network(g, lambda v: FloodProcess(v == root, "x"),
                           delay=delay, seed=seed, **kw)


def _gamma_w(graph_seed, **kw):
    g = random_connected_graph(7, 5, seed=graph_seed)
    cfg = GammaWConfig(g)
    src = g.vertices[0]
    # The pulse bounds run_spt_synch derives for the same graph.
    stop = int(diameter(g)) + 1
    max_pulse = 4 * (stop + 1) + 4 * int(max(w for _, _, w in g.edges())) + 8

    def factory(v):
        return GammaWHost(v, cfg, lambda u: SyncBellmanFord(u == src, stop),
                          max_pulse)

    return lambda: Network(cfg.normalized, factory, **kw)


SHAPES = {
    "flood_max": lambda: _flood(1),
    "flood_uniform": lambda: _flood(2, delay=UniformDelay(0.0, 1.0)),
    "gamma_w": lambda: _gamma_w(3),
}


# --------------------------------------------------------------------- #
# Predicates
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_message_count_predicate_for_every_k(shape):
    make = SHAPES[shape]()
    total = _fused(make)[4]["message_count"]
    # Every k on the floods; a stride on gamma_w's ~550 messages.
    step = max(1, total // 40)
    for k in [*range(0, total + 2, step), total, total + 1]:
        _same(make, stop_when=lambda nw, k=k: nw.metrics.message_count >= k)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_all_finished_predicate(shape):
    make = SHAPES[shape]()
    out = _same(make, stop_when=lambda nw: nw.all_finished)
    assert out[0] in ("stopped", "quiescent")


def test_predicate_true_before_first_event():
    out = _same(SHAPES["flood_max"](), stop_when=lambda nw: True)
    assert out[0] == "stopped" and out[1] == 0


def test_predicate_turning_true_as_the_queue_empties_is_quiescent():
    # Random delays: the last delivery is alone at its instant, so the
    # predicate turns true exactly when the queue runs dry.
    make = SHAPES["flood_uniform"]()
    _, total, _, end, *_ = _fused(make)
    out = _same(make, stop_when=lambda nw: nw.metrics.completion_time >= end)
    assert out[0] == "quiescent" and out[1] == total


@pytest.mark.parametrize("shape", ["flood_max", "flood_uniform"])
def test_budget_and_predicate_on_the_same_event(shape):
    total = _fused(SHAPES[shape]())[4]["comm_cost"]
    g_seed = {"flood_max": 1, "flood_uniform": 2}[shape]
    delay = None if shape == "flood_max" else UniformDelay(0.0, 1.0)
    for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
        make = _flood(g_seed, delay=delay, comm_budget=frac * total)
        # The budget is probed before the predicate: same event, budget wins.
        out = _same(make, stop_when=lambda nw: nw.budget_exhausted)
        assert out[0] == "budget_exhausted"
        assert _same(make) == out


def test_budget_sweep_with_and_without_predicate():
    make_plain = SHAPES["flood_uniform"]()
    total = _fused(make_plain)[4]["message_count"]
    for budget in range(0, 40):
        make = _flood(2, delay=UniformDelay(0.0, 1.0), comm_budget=budget / 4)
        _same(make)
        for k in (1, total // 3, total // 2):
            _same(make, stop_when=lambda nw, k=k: nw.metrics.message_count >= k)


# --------------------------------------------------------------------- #
# Deadlines and the event limit
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("shape", ["flood_max", "flood_uniform"])
def test_max_time_boundary(shape):
    make = SHAPES[shape]()
    net = make()
    net.run()
    end = net.queue.now
    rng = random.Random(0)
    times = sorted({0.0, end, end + 1.0,
                    *(rng.uniform(0.0, end) for _ in range(10))})
    for t in times:
        for limit in (t, t - 1e-9, t + 1e-9):
            _same(make, max_time=limit)
            _same(make, max_time=limit,
                  stop_when=lambda nw: nw.metrics.message_count >= 20)


def test_max_time_at_event_times():
    # Integer weights under maximal delay: deadlines exactly at event times.
    make = SHAPES["flood_max"]()
    for t in range(0, 30):
        out = _same(make, max_time=float(t))
        assert out[3] <= t


@pytest.mark.parametrize("shape", ["flood_max", "gamma_w"])
def test_max_events_raises_after_the_same_events(shape):
    make = SHAPES[shape]()
    fired = _fused(make)[1]
    for limit in (1, 2, fired // 2, fired - 1, fired):
        for stop in (None, lambda nw: False):
            fused_net, ref_net = make(), make()
            with pytest.raises(RuntimeError, match="exceeded"):
                fused_net.run(max_events=limit, stop_when=stop)
            with pytest.raises(RuntimeError, match="exceeded"):
                reference_run(ref_net, max_events=limit, stop_when=stop)
            assert fused_net.queue.fired == ref_net.queue.fired == limit
            assert fused_net.metrics.as_dict() == ref_net.metrics.as_dict()


# --------------------------------------------------------------------- #
# A budget exhausted in on_start
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("stop_when", [None, lambda nw: nw.all_finished],
                         ids=["no_predicate", "predicate"])
def test_budget_exhausted_in_on_start_aborts_before_any_event(stop_when):
    g = WeightedGraph(edges=[(0, 1, 1), (0, 2, 10)])
    net = Network(g, lambda v: Echo(), comm_budget=5)
    result = net.run(stop_when=stop_when)
    assert result.status == "budget_exhausted" and result.aborted
    assert result.message_count == 1  # "light" went out, "heavy" was refused
    assert net.queue.fired == 0
    assert result.results() == {0: None, 1: None, 2: None}


# --------------------------------------------------------------------- #
# Send path: plain vs armed
# --------------------------------------------------------------------- #


def _arm_observers(make_kw):
    """The same network with observe-only hooks armed."""
    return dict(make_kw, recorder=TraceRecorder(limit=0), comm_budget=INF)


SEND_CASES = {
    "flood_max": (_flood, (1,), {}),
    "flood_uniform": (_flood, (2,), {"delay": UniformDelay(0.0, 1.0)}),
    "flood_uniform_seed": (_flood, (5,), {"delay": UniformDelay(0.2, 0.9)}),
    "gamma_w": (_gamma_w, (3,), {}),
    "gamma_w_uniform": (_gamma_w, (4,), {"delay": UniformDelay(0.0, 1.0),
                                         "seed": 9}),
}


@pytest.mark.parametrize("case", sorted(SEND_CASES))
@pytest.mark.parametrize("stop", [None, lambda nw: nw.all_finished],
                         ids=["drain", "all_finished"])
def test_armed_observers_do_not_change_the_run(case, stop):
    build, args, kw = SEND_CASES[case]
    make_plain = build(*args, **kw)
    make_armed = build(*args, **_arm_observers(kw))
    plain, armed = make_plain(), make_armed()
    assert all(type(p.ctx) is _NodeContext for p in plain.processes.values())
    assert all(type(p.ctx) is _ArmedContext for p in armed.processes.values())
    assert _fused(make_plain, stop_when=stop) == _fused(make_armed,
                                                        stop_when=stop)


def test_armed_hook_selects_the_general_path():
    g = random_connected_graph(6, 4, seed=0)
    hooks = [{"comm_budget": 1e9}, {"recorder": TraceRecorder()},
             {"faults": FaultPlan.message_loss(0.0, seed=1)},
             {"serialize": True}, {"race_detect": "record"}]
    for kw in hooks:
        net = Network(g, lambda v: FloodProcess(v == 0, "x"), **kw)
        assert all(type(p.ctx) is _ArmedContext
                   for p in net.processes.values()), kw
    net = Network(g, lambda v: FloodProcess(v == 0, "x"),
                  delay=MaximalDelay())
    assert not any(p.ctx.traced for p in net.processes.values())


def test_plain_send_rejects_non_neighbors():
    class Stray(Process):
        def on_start(self):
            if self.node_id == 0:
                self.send(2, "x")

    g = WeightedGraph(edges=[(0, 1, 1), (1, 2, 1)])
    with pytest.raises(ValueError, match="no edge"):
        Network(g, lambda v: Stray()).run()


def test_reliable_transport_traced_flag_reaches_the_inner_protocol():
    g = random_connected_graph(6, 4, seed=0)
    factory = reliable_factory(lambda v: FloodProcess(v == 0, "x"))
    for rec, traced in ((None, False), (TraceRecorder(limit=0), True)):
        net = Network(g, factory, recorder=rec)
        net.run()
        assert all(p.inner.ctx.traced is traced
                   for p in net.processes.values())
