"""Tests for ``repro.obs``: recorder, spans, exporters, profiler, wiring."""

import json
import pickle

import pytest

from repro.experiments.parallel import chaos_rows, shutdown_pool
from repro.faults import (
    ACK_TAG,
    RETRY_TAG,
    CrashWindow,
    FaultPlan,
    run_chaos,
)
from repro.graphs import (
    diameter,
    path_graph,
    random_connected_graph,
    ring_graph,
)
from repro.obs import (
    EVENT_KINDS,
    NullRecorder,
    Profiler,
    TraceRecorder,
    TraceSummary,
    current_session,
    default_recorder,
    render_timeline,
    to_chrome_trace,
    to_jsonl,
    tracing,
    validate_jsonl,
)
from repro.protocols.broadcast import FloodProcess
from repro.protocols.spt_synch import SyncBellmanFord
from repro.sim import Network
from repro.sim.events import EventQueue
from repro.synch import run_alpha_w, run_beta_w, run_gamma_w


def flood_run(graph, recorder=None, **kw):
    root = graph.vertices[0]
    net = Network(graph, lambda v: FloodProcess(v == root, "x"),
                  recorder=recorder, **kw)
    return net, net.run()


# --------------------------------------------------------------------- #
# Recorder basics
# --------------------------------------------------------------------- #


def test_recorder_captures_the_run():
    rec = TraceRecorder()
    net, result = flood_run(path_graph(5, weight=2.0), recorder=rec)
    assert net.recorder is rec and net._rec is rec

    events = rec.events
    assert events, "no events recorded"
    assert [e.seq for e in events] == list(range(len(events)))
    assert all(e.kind in EVENT_KINDS for e in events)
    kinds = {e.kind for e in events}
    assert {"send", "deliver", "finish"} <= kinds
    # Aggregates agree with the retained log (nothing was evicted).
    assert rec.n_emitted == rec.n_recorded == len(events)
    assert not rec.truncated
    assert rec.counts["send"] == result.message_count
    assert rec.total_cost == result.comm_cost
    # attach() + finalize() stamped the run metadata.
    assert rec.meta["n"] == 5 and rec.meta["m"] == 4
    assert rec.meta["status"] == "quiescent"
    assert rec.meta["end_time"] == result.time
    assert rec.meta["events_fired"] > 0


def test_deliver_refs_name_their_send():
    rec = TraceRecorder()
    flood_run(path_graph(4), recorder=rec)
    by_seq = {e.seq: e for e in rec.events}
    delivers = [e for e in rec.events if e.kind == "deliver"]
    assert delivers
    for d in delivers:
        send = by_seq[d.ref]
        assert send.kind == "send"
        assert (send.node, send.peer) == (d.peer, d.node)
        assert send.t <= d.t


def test_null_recorder_is_normalized_away():
    rec = NullRecorder()
    net, result = flood_run(path_graph(4), recorder=rec)
    assert net.recorder is rec
    assert net._rec is None  # the hot path never sees it
    assert result.status == "quiescent"
    assert rec.events == [] and rec.total_cost == 0.0
    with rec.span("anything"):
        assert rec.span_of(0) == ""
    assert rec.record_send(0.0, 0, 1, "x", 1.0) == -1


def test_trace_callback_and_recorder_compose():
    # The recorder's send events are the per-transmission callback: one
    # per accepted send, in send order, each answered by the delivery
    # that names it, and together they reproduce the run's metrics.
    rec = TraceRecorder()
    _, result = flood_run(ring_graph(6, weight=1.0), recorder=rec)
    sends = [e for e in rec.events if e.kind == "send"]
    assert len(sends) == result.message_count == rec.counts["send"]
    assert [e.t for e in sends] == sorted(e.t for e in sends)
    assert sum(e.cost for e in sends) == result.comm_cost
    delivered = {e.ref: (e.peer, e.node) for e in rec.events
                 if e.kind == "deliver"}
    assert {e.seq: (e.node, e.peer) for e in sends} == delivered


# --------------------------------------------------------------------- #
# Spans
# --------------------------------------------------------------------- #


def test_span_paths_nest_and_close():
    rec = TraceRecorder()
    with rec.span("outer"):
        assert rec.span_of("a") == "outer"  # global span catches everyone
        path = rec.open_span("inner", node="a")
        assert path == "outer/inner"
        assert rec.span_of("a") == "outer/inner"
        assert rec.span_of("b") == "outer"
        rec.close_span(node="a")
    assert rec.span_of("a") == ""
    assert rec.counts["span_open"] == rec.counts["span_close"] == 2
    with pytest.raises(RuntimeError):
        rec.close_span(node="a")


def test_span_costs_sum_exactly_to_comm_cost_under_faults():
    g = random_connected_graph(12, 18, seed=3)
    rec = TraceRecorder()
    out = run_chaos(g, lambda v: FloodProcess(v == g.vertices[0], "x"),
                    plan=FaultPlan.message_loss(0.15, seed=5),
                    reliable=True, watchdog_time=1e6, recorder=rec)
    assert out.status == "ok"
    cost = out.result.metrics.cost_by_tag
    # Exact, not approximate: same additions in the same order as Metrics.
    assert sum(rec.cost_by_span.values()) == out.result.comm_cost
    assert rec.cost_by_span["rel-ack"] == cost[ACK_TAG]
    assert rec.cost_by_span.get("rel-retry", 0.0) == cost.get(RETRY_TAG, 0.0)
    assert rec.cost_by_span.get("rel-retry", 0.0) > 0  # loss forced retries
    assert sum(rec.count_by_span.values()) == out.result.message_count


def _gamma_setup(n=10, extra=14, seed=4):
    g = random_connected_graph(n, extra, seed=seed)
    stop = int(diameter(g)) + 1
    w_max = int(max(w for _, _, w in g.edges()))
    factory = lambda v: SyncBellmanFord(v == g.vertices[0], stop)
    return g, factory, 4 * (stop + 1) + 4 * w_max + 8


def test_gamma_w_span_breakdown_is_exact():
    g, factory, max_pulse = _gamma_setup()
    rec = TraceRecorder()
    res = run_gamma_w(g, factory, max_pulse=max_pulse, recorder=rec)
    assert sum(rec.cost_by_span.values()) == res.comm_cost
    # The span tree refines the flat tag split exactly: payload sends
    # happen inside the pulse window, control traffic nests deeper.
    assert rec.cost_by_span["pulse"] == res.proto_cost
    assert rec.cost_by_span["pulse/sync-ack"] == res.ack_cost
    assert rec.cost_by_span["pulse/sync-gamma"] == res.gamma_cost
    assert rec.counts["pulse"] > 0
    assert rec.time_by_span["pulse"] > 0


@pytest.mark.parametrize("runner", [run_alpha_w, run_beta_w])
def test_simple_synchronizers_mark_pulse_spans(runner):
    g, factory, max_pulse = _gamma_setup(n=8, extra=10, seed=6)
    with tracing() as session:
        runner(g, factory, max_pulse=max_pulse)
    assert len(session.recorders) == 1
    rec = session.recorders[0][1]
    assert rec.counts["pulse"] > 0
    assert sum(rec.cost_by_span.values()) == rec.total_cost
    control = [s for s in rec.cost_by_span if s.startswith("pulse/")]
    assert control, rec.cost_by_span


# --------------------------------------------------------------------- #
# Ring buffer
# --------------------------------------------------------------------- #


def test_ring_buffer_truncates_log_but_not_aggregates():
    g = random_connected_graph(10, 15, seed=2)
    full, ringed = TraceRecorder(), TraceRecorder(limit=16)
    flood_run(g, recorder=full)
    flood_run(g, recorder=ringed)
    assert ringed.truncated and ringed.dropped > 0
    assert ringed.n_recorded == 16
    assert ringed.n_emitted == full.n_emitted > 16
    # The retained window is the most recent records, seq still monotonic.
    tail = ringed.events
    assert [e.seq for e in tail] == \
        list(range(full.n_emitted - 16, full.n_emitted))
    # Eviction never touches the incremental aggregates.
    assert ringed.cost_by_span == full.cost_by_span
    assert ringed.counts == full.counts
    assert ringed.total_cost == full.total_cost


def test_limit_zero_keeps_only_aggregates():
    rec = TraceRecorder(limit=0)
    _, result = flood_run(path_graph(6), recorder=rec)
    assert rec.n_recorded == 0 and rec.events == []
    assert rec.truncated
    assert rec.total_cost == result.comm_cost
    assert rec.counts["send"] == result.message_count


def test_negative_limit_rejected():
    with pytest.raises(ValueError):
        TraceRecorder(limit=-1)


# --------------------------------------------------------------------- #
# Exporters
# --------------------------------------------------------------------- #


def test_jsonl_is_byte_identical_across_identical_runs():
    def dump():
        rec = TraceRecorder()
        flood_run(random_connected_graph(9, 14, seed=8), recorder=rec,
                  seed=1)
        return to_jsonl(rec)

    a, b = dump(), dump()
    assert a == b
    assert validate_jsonl(a) == []


def test_validate_jsonl_flags_broken_dumps():
    rec = TraceRecorder()
    flood_run(path_graph(4), recorder=rec)
    lines = to_jsonl(rec).splitlines()

    assert validate_jsonl("not json\n")
    assert validate_jsonl("\n".join(lines[1:]))  # missing meta header
    bad_kind = dict(json.loads(lines[1]), kind="teleport")
    assert validate_jsonl("\n".join([lines[0], json.dumps(bad_kind)]))
    send = next(json.loads(ln) for ln in lines[1:]
                if json.loads(ln)["kind"] == "send")
    del send["cost"]
    assert validate_jsonl("\n".join([lines[0], json.dumps(send)]))
    # seq must be strictly increasing.
    assert validate_jsonl("\n".join([lines[0], lines[2], lines[1]]))


def test_chrome_trace_schema_and_exact_totals():
    g, factory, max_pulse = _gamma_setup()
    rec = TraceRecorder()
    res = run_gamma_w(g, factory, max_pulse=max_pulse, recorder=rec)
    doc = json.loads(json.dumps(to_chrome_trace(rec, name="t")))
    evs = doc["traceEvents"]
    assert evs
    for ev in evs:
        assert ev["ph"] in ("M", "X", "i", "C")
        if ev["ph"] != "M":
            assert ev["ts"] >= 0
        if ev["ph"] == "X":
            assert ev["dur"] >= 0
    assert {"M", "X", "i", "C"} <= {ev["ph"] for ev in evs}
    other = doc["otherData"]
    assert other["comm_cost"] == res.comm_cost
    assert sum(other["cost_by_span"].values()) == res.comm_cost
    # Channel slices: every send renders exactly once — as a delivered
    # slice, or as an "in flight" slice if the stop condition fired with
    # the message still on the wire.
    slices = [ev for ev in evs if ev.get("cat") == "message"]
    in_flight = [ev for ev in slices if "in flight" in ev["name"]]
    assert len(slices) == rec.counts["send"]
    assert len(slices) - len(in_flight) == rec.counts["deliver"]


def test_render_timeline_draws_the_flood():
    rec = TraceRecorder()
    _, result = flood_run(path_graph(5, weight=2.0), recorder=rec)
    text = render_timeline(rec, time_step=2.0)
    assert ">" in text and "*" in text
    assert f"{result.comm_cost:g}" in text
    assert "TRUNCATED" not in text


# --------------------------------------------------------------------- #
# Fault events
# --------------------------------------------------------------------- #


def test_crash_recover_drop_and_timer_events_are_recorded():
    g = path_graph(3)
    rec = TraceRecorder()
    plan = FaultPlan(crashes=[CrashWindow(1, 0.0, 100.0)])
    out = run_chaos(g, lambda v: FloodProcess(v == 0, "x"), plan=plan,
                    reliable=True, watchdog_time=1e6, recorder=rec)
    assert out.status == "ok"
    assert rec.counts["crash"] == 1 and rec.counts["recover"] == 1
    assert rec.counts["drop"] >= 1  # deliveries into the crash window
    assert rec.counts["timer"] >= 1  # retransmit timers
    fates = {e.detail for e in rec.events if e.kind == "drop"}
    assert "lost_in_crash" in fates


# --------------------------------------------------------------------- #
# Profiler + sessions
# --------------------------------------------------------------------- #


def test_trace_summary_pickles_and_round_trips():
    rec = TraceRecorder(limit=0)
    flood_run(path_graph(5), recorder=rec)
    s = rec.summary()
    assert isinstance(s, TraceSummary)
    assert s.comm_cost == rec.total_cost
    assert pickle.loads(pickle.dumps(s)) == s
    assert TraceSummary.from_dict(json.loads(json.dumps(s.as_dict()))) == s


def test_run_chaos_returns_trace_on_every_path():
    g = path_graph(4)
    rec = TraceRecorder()
    out = run_chaos(g, lambda v: FloodProcess(v == 0, "x"),
                    reliable=False, recorder=rec)
    assert out.status == "ok"
    assert out.trace is not None
    assert out.trace.comm_cost == out.result.comm_cost
    assert out.trace.meta["chaos_status"] == "ok"
    # An un-traced run carries no summary.
    out2 = run_chaos(g, lambda v: FloodProcess(v == 0, "x"), reliable=False)
    assert out2.trace is None


def test_run_chaos_trace_survives_stall():
    g = path_graph(4)
    rec = TraceRecorder()
    out = run_chaos(g, lambda v: FloodProcess(v == 0, "x"),
                    plan=FaultPlan.message_loss(1.0, seed=1),
                    reliable=False, recorder=rec)
    assert out.status == "stalled"
    assert out.trace is not None
    assert out.trace.meta["chaos_status"] == "stalled"


def test_tracing_session_is_ambient_and_restored():
    assert current_session() is None and default_recorder() is None
    with tracing(limit=0) as session:
        assert current_session() is session
        flood_run(path_graph(4))
        flood_run(ring_graph(5))
    assert current_session() is None and default_recorder() is None
    assert len(session.recorders) == 2
    labels = [label for label, _ in session.recorders]
    assert len(set(labels)) == 2
    agg = session.profiler().aggregate()
    assert agg["runs"] == 2
    assert agg["comm_cost"] == sum(
        rec.total_cost for _, rec in session.recorders)


def test_explicit_recorder_wins_over_ambient_session():
    mine = TraceRecorder()
    with tracing() as session:
        net, _ = flood_run(path_graph(3), recorder=mine)
    assert net.recorder is mine
    assert session.recorders == []


def test_profiler_report_lists_spans():
    g, factory, max_pulse = _gamma_setup()
    prof = Profiler()
    recs = []
    for i in range(2):
        rec = TraceRecorder(limit=0)
        run_gamma_w(g, factory, max_pulse=max_pulse, recorder=rec)
        prof.add_recorder(f"run-{i}", rec)
        recs.append(rec)
    text = prof.report()
    assert "2 run(s)" in text
    assert "pulse/sync-gamma" in text
    agg = prof.aggregate()
    # Identical runs: the aggregate is exactly twice one run's costs.
    assert agg["cost_by_span"]["pulse"] == 2 * recs[0].cost_by_span["pulse"]
    assert agg["comm_cost"] == 2 * recs[0].total_cost


# --------------------------------------------------------------------- #
# Sweep integration
# --------------------------------------------------------------------- #

SWEEP = dict(n=10, extra_edges=12, graph_seed=4, drop_rates=(0.0, 0.2))


def test_traced_sweep_rows_identical_serial_vs_pool():
    try:
        serial = chaos_rows(jobs=1, trace=True, **SWEEP)
        pooled = chaos_rows(jobs=2, force="pool", trace=True, **SWEEP)
    finally:
        shutdown_pool()
    assert serial == pooled
    assert all("trace" in row for row in serial)
    for row in serial:
        trace = row["trace"]
        assert trace["recorded"] == 0  # aggregates-only in workers
        assert sum(trace["cost_by_span"].values()) == trace["comm_cost"]
    prof = Profiler()
    assert prof.from_rows(serial) == len(serial)
    assert prof.aggregate()["runs"] == len(serial)


def test_untraced_sweep_rows_carry_no_trace_key():
    rows = chaos_rows(jobs=1, **SWEEP)
    assert all("trace" not in row for row in rows)


# --------------------------------------------------------------------- #
# CLI plumbing + misc
# --------------------------------------------------------------------- #


def test_pop_trace_out_parses_both_forms():
    from repro.experiments.__main__ import _pop_trace_out

    args = ["chaos", "--trace-out", "d1", "--markdown"]
    assert _pop_trace_out(args) == "d1"
    assert args == ["chaos", "--markdown"]
    args = ["--trace-out=d2"]
    assert _pop_trace_out(args) == "d2"
    assert args == []
    assert _pop_trace_out(["chaos"]) is None
    with pytest.raises(SystemExit):
        _pop_trace_out(["--trace-out"])


def test_event_queue_counts_fired_events():
    q = EventQueue()
    fired = []
    for i in range(5):
        q.schedule_call(float(i + 1), fired.append, i)
    _, events = q.run()
    assert events == 5
    assert q.fired == 5
    q.schedule_call(1.0, fired.append, 99)
    q.run()
    assert q.fired == 6  # cumulative across run() calls


def test_metrics_as_dict_is_plain_json():
    _, result = flood_run(random_connected_graph(8, 12, seed=9))
    d = result.metrics.as_dict()
    assert d["comm_cost"] == result.comm_cost
    assert d["message_count"] == result.message_count
    assert d["cost_by_tag"] == result.metrics.cost_by_tag
    assert json.loads(json.dumps(d)) == d
    assert list(d["cost_by_tag"]) == sorted(d["cost_by_tag"])
