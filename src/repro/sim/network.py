"""The asynchronous network simulator.

Implements the paper's model (Section 1.2-1.3): a static weighted graph
where transmitting a message over edge ``e`` costs ``w(e)`` and takes some
delay in ``[0, w(e)]`` chosen by a :class:`~repro.sim.delays.DelayModel`.
Channels are FIFO per directed edge.  An optional *serialized* mode makes
each directed channel transmit one message at a time (store-and-forward),
which is the regime where the congestion effects discussed in Section 3
become visible; the default is the classical model (unbounded pipelining,
every message independently delayed).

An optional *fault adversary* (``repro.faults.FaultPlan``, duck-typed here
to avoid an import cycle) may intercept every transmission — dropping,
duplicating, corrupting, or reordering it within a bound — and crash /
recover nodes on a schedule.  All adversarial choices are driven by a
dedicated RNG seeded from the plan, so runs remain fully deterministic.

The simulator is single-threaded and deterministic for a fixed seed.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from contextlib import nullcontext
from functools import partial
from typing import Any

from ..graphs.weighted_graph import Vertex, WeightedGraph
from ..obs.runtime import default_recorder as _default_recorder
from .delays import DelayModel, MaximalDelay
from .events import EventQueue
from .metrics import Metrics
from .process import Process

__all__ = ["Network", "RunResult"]

# Shared no-op span for untraced runs (nullcontext is reusable/reentrant).
_NULL_SPAN = nullcontext()


class _NodeContext:
    """Injected into each process; mediates all interaction with the network.

    This class carries the plain send path: no budget, recorder, race
    detector, fault plan or serialized channels.  A network with any of
    those armed builds :class:`_ArmedContext` instead, so the choice is
    made once at construction and a plain send pays for none of them.
    """

    __slots__ = ("_network", "node_id", "neighbors", "weights", "is_finished",
                 "result", "traced", "_queue", "_metrics", "_delay", "_rng",
                 "_clear", "_deliver", "_default_tag")

    def __init__(self, network: Network, node_id: Vertex) -> None:
        self._network = network
        self.node_id = node_id
        self.neighbors = network.graph.neighbors(node_id)
        self.weights = network.graph.neighbor_weights(node_id)
        self.is_finished = False
        self.result: Any = None
        #: True when a recorder is attached; layered hosts read it once to
        #: skip their no-op trace spans on untraced runs.
        self.traced = network._rec is not None
        self._queue = network.queue
        self._metrics = network.metrics
        self._delay = network.delay_model
        self._rng = network.rng
        # Channel-clear time of each outgoing channel, keyed by receiver.
        self._clear: dict[Vertex, float] = {}
        self._deliver = network._deliver
        self._default_tag = network.default_tag

    @property
    def now(self) -> float:
        return self._queue.now

    def send(self, to: Vertex, payload: Any, size: float, tag: str | None) -> None:
        try:
            weight = self.weights[to]
        except KeyError:
            raise ValueError(f"{self.node_id!r} has no edge to {to!r}") from None
        frm = self.node_id
        self._metrics.record_message(weight, size, tag or self._default_tag)
        queue = self._queue
        arrive = queue.now + self._delay.delay(frm, to, weight, self._rng)
        # FIFO per directed channel even with pipelining: a message may
        # not overtake an earlier one on the same channel.
        clear = self._clear.get(to, 0.0)
        if arrive < clear:
            arrive = clear
        self._clear[to] = arrive
        # schedule_call_at stores (fn, args) in the event's slots: no
        # capturing closure is allocated per message, and same-time
        # deliveries batch into one heap entry (see sim.events).
        queue.schedule_call_at(arrive, self._deliver, frm, to, payload)

    def set_timer(self, delay: float, callback: Callable[[], None]) -> None:
        self._network._set_node_timer(self.node_id, delay, callback)

    def finish(self, result: Any) -> None:
        if not self.is_finished:
            self.is_finished = True
            self.result = result
            self._network._node_finished(self.node_id)

    def span(self, name: str, detail: Any = None):
        """Open a named trace span attributed to this node (no-op untraced)."""
        rec = self._network._rec
        if rec is None:
            return _NULL_SPAN
        return rec.span(name, node=self.node_id, detail=detail)

    def trace_pulse(self, pulse: int) -> None:
        """Record a synchronizer pulse for this node (no-op untraced)."""
        net = self._network
        if net._rec is not None:
            net._rec.record_pulse(net.queue.now, self.node_id, pulse)


class _ArmedContext(_NodeContext):
    """The general send path: budget, recorder, race detector, faults and
    serialized channels, each consulted only when armed."""

    __slots__ = ()

    def send(self, to: Vertex, payload: Any, size: float, tag: str | None) -> None:
        try:
            weight = self.weights[to]
        except KeyError:
            raise ValueError(f"{self.node_id!r} has no edge to {to!r}") from None
        net = self._network
        frm = self.node_id
        if frm in net._down:
            return  # a crashed node cannot transmit
        metrics = self._metrics
        queue = self._queue
        if net.comm_budget is not None and (
            metrics.comm_cost + weight * size > net.comm_budget
        ):
            net.budget_exhausted = True
            # Also halt the event queue's drain loop (run() probes this
            # flag after every event when a budget is configured).
            queue.halted = True
            return
        tag = tag or self._default_tag
        metrics.record_message(weight, size, tag)
        now = queue.now
        rec = net._rec
        if rec is not None:
            msg_id = rec.record_send(now, frm, to, tag, weight * size, size)
        delay = self._delay.delay(frm, to, weight, self._rng)
        clear = self._clear.get(to, 0.0)
        if net.serialize:
            arrive = max(now, clear) + delay
        else:
            arrive = max(now + delay, clear)
        # The channel timing of a transmission is independent of its fate:
        # a dropped message still occupied the channel (it was transmitted,
        # then lost) and still cost w(e) * size above — the sender pays per
        # transmission, which is what makes retransmission overhead a
        # meaningful cost-sensitive quantity.
        self._clear[to] = arrive
        race = net._race
        # The deliver methods are looked up per send: the race detector
        # swaps in wrapped ones after the contexts are built.
        if net.faults is None:
            if rec is None:
                queue.schedule_call_at(arrive, net._deliver, frm, to, payload)
            else:
                queue.schedule_call_at(arrive, net._deliver_traced,
                                       frm, to, payload, msg_id)
            if race is not None:
                race.note_scheduled(payload)
            return
        fate, deliveries = net.faults.fate(frm, to, weight, payload,
                                           net.fault_rng)
        if fate != "deliver":
            metrics.record_fault(fate)
            if rec is not None:
                rec.record_drop(now, frm, to, fate, ref=msg_id)
        for extra, out_payload in deliveries:
            # Extra adversarial delay (duplicates, reorders) bypasses the
            # FIFO clamp on purpose: later messages may overtake.
            if rec is None:
                queue.schedule_call_at(arrive + extra, net._deliver,
                                       frm, to, out_payload)
            else:
                queue.schedule_call_at(arrive + extra, net._deliver_traced,
                                       frm, to, out_payload, msg_id)
            if race is not None:
                race.note_scheduled(out_payload)


class RunResult:
    """Outcome of a simulation run: metrics, per-node results, and status.

    ``status`` says *why* the run stopped:

    * ``"quiescent"`` — the event queue drained (normal completion);
    * ``"stopped"`` — the caller's ``stop_when`` predicate fired while
      events were still queued;
    * ``"max_time"`` — the watchdog deadline was reached with events still
      pending (no event beyond the deadline is executed);
    * ``"budget_exhausted"`` — a send was suppressed by the communication
      budget and the run aborted.

    ``aborted`` is True for the last two — the run did *not* end of its
    own accord, and per-node results may be partial.
    """

    def __init__(self, metrics: Metrics, processes: dict,
                 status: str = "quiescent") -> None:
        self.metrics = metrics
        self.processes = processes
        self.status = status

    @property
    def aborted(self) -> bool:
        return self.status in ("max_time", "budget_exhausted")

    @property
    def comm_cost(self) -> float:
        return self.metrics.comm_cost

    @property
    def message_count(self) -> int:
        return self.metrics.message_count

    @property
    def time(self) -> float:
        return self.metrics.completion_time

    @property
    def finish_time(self) -> float:
        """Time the last process called finish() (protocol completion)."""
        return self.metrics.last_finish_time

    def result_of(self, node: Vertex) -> Any:
        return self.processes[node].ctx.result

    def results(self) -> dict:
        return {v: p.ctx.result for v, p in self.processes.items()}


class Network:
    """Discrete-event simulation of one protocol over one weighted graph.

    Parameters
    ----------
    graph:
        The communication graph ``G = (V, E, w)``.
    factory:
        ``factory(node_id) -> Process`` building each node's protocol
        instance.  Closures over shared configuration (roots, full graph
        knowledge, precomputed structures) model the paper's preprocessing
        assumptions.
    delay:
        The delay adversary (default: every message takes the full w(e)).
    seed:
        Seed for any randomness the delay model consumes.
    serialize:
        If True, each directed channel transmits one message at a time.
    default_tag:
        Metrics tag for untagged sends.
    faults:
        Optional fault adversary (``repro.faults.FaultPlan``; any object
        with the same ``seed`` / ``crashes`` / ``fate`` surface works).
        Decides the fate of every transmission and supplies crash windows.
    recorder:
        Optional :class:`~repro.obs.recorder.TraceRecorder` receiving a
        structured record of every send/deliver/drop/timer/crash/recover/
        pulse/finish.  Defaults to the ambient
        :func:`repro.obs.runtime.tracing` session's recorder when one is
        active, else no tracing.  A recorder with ``enabled = False``
        (e.g. :class:`~repro.obs.recorder.NullRecorder`) is normalized
        away at construction so the hot path pays a single ``is None``
        check.
    race_detect:
        Arm the :class:`~repro.analysis.race.RaceDetector`: ``True``
        raises :class:`~repro.analysis.race.SharedStateViolation` on the
        first cross-process attribute write or post-send payload
        mutation; ``"record"`` collects violations on
        ``race_detector.violations`` (and emits ``violation`` trace
        events when a recorder is attached) without aborting.  Never
        perturbs the run itself: the detector only observes, so results
        and metrics are byte-identical with and without it.
    """

    def __init__(
        self,
        graph: WeightedGraph,
        factory: Callable[[Vertex], Process],
        *,
        delay: DelayModel | None = None,
        seed: int = 0,
        serialize: bool = False,
        default_tag: str = "msg",
        comm_budget: float | None = None,
        faults: Any | None = None,
        recorder: Any | None = None,
        race_detect: Any = False,
    ) -> None:
        self.graph = graph
        self.queue = EventQueue()
        self.metrics = Metrics()
        self.delay_model = delay if delay is not None else MaximalDelay()
        self.rng = random.Random(seed)
        self.serialize = serialize
        self.default_tag = default_tag
        # Hard communication budget: a send that would exceed it is
        # suppressed and the run aborts (models the root-aware suspension
        # the paper's hybrid/controlled algorithms perform *before*
        # overspending; see Sections 5, 7.2, 8.2).
        self.comm_budget = comm_budget
        self.budget_exhausted = False
        # Structured recorder (repro.obs).  `_rec` is the normalized hot-
        # path handle: None unless a recorder is present *and* enabled, so
        # the untraced fast path is one identity check per event.
        if recorder is None:
            recorder = _default_recorder()
        self.recorder = recorder
        self._rec = (
            recorder
            if recorder is not None and getattr(recorder, "enabled", True)
            else None
        )
        if self._rec is not None:
            self._rec.attach(self)
        # Fault adversary.  Its randomness comes from a *separate* RNG so
        # that adding faults never perturbs the delay-model stream, and
        # identical (graph, protocol, plan, seed) runs replay exactly.
        self.faults = faults
        self.fault_rng = (
            random.Random(getattr(faults, "seed", 0))
            if faults is not None else None
        )
        self._down: set[Vertex] = set()
        self._deferred_timers: dict[Vertex, list[Callable[[], None]]] = {}
        self._finished_count = 0
        # The send path is fixed here, once: any armed hook selects the
        # general context, a plain run gets the lean one.
        armed = (comm_budget is not None or self._rec is not None
                 or faults is not None or serialize or bool(race_detect))
        context = _ArmedContext if armed else _NodeContext
        self.processes: dict[Vertex, Process] = {}
        for v in graph.vertices:
            proc = factory(v)
            proc.ctx = context(self, v)
            self.processes[v] = proc
        # Shared-state race detector (repro.analysis.race).  `_race` is the
        # normalized handle: None unless armed, so the send path pays one
        # identity check and the delivery path none at all (the detector
        # swaps in wrapped delivery methods as instance attributes).
        self.race_detector = None
        self._race = None
        if race_detect:
            from ..analysis.race import RaceDetector

            mode = race_detect if isinstance(race_detect, str) else "raise"
            self.race_detector = RaceDetector(mode)
            self._race = self.race_detector
            self.race_detector.attach(self)

    # ------------------------------------------------------------------ #
    # Internal plumbing
    # ------------------------------------------------------------------ #

    def _deliver(self, frm: Vertex, to: Vertex, payload: Any) -> None:
        if to in self._down:
            # In-flight messages addressed to a crashed node are lost.
            self.metrics.record_fault("lost_in_crash")
            return
        self.metrics.completion_time = self.queue.now
        self.processes[to].on_message(frm, payload)

    def _deliver_traced(self, frm: Vertex, to: Vertex, payload: Any,
                        ref: int) -> None:
        """Traced twin of :meth:`_deliver`; ``ref`` is the send's seq.

        A separate method (selected at schedule time) so the untraced
        delivery path carries no recorder check at all.
        """
        if to in self._down:
            self.metrics.record_fault("lost_in_crash")
            self._rec.record_drop(self.queue.now, frm, to, "lost_in_crash",
                                  ref=ref)
            return
        self._rec.record_deliver(self.queue.now, frm, to, ref=ref)
        self.metrics.completion_time = self.queue.now
        self.processes[to].on_message(frm, payload)

    def _set_node_timer(self, node: Vertex, delay: float,
                        callback: Callable[[], None]) -> None:
        self.queue.schedule_call(delay, self._timer_fire, node, callback)

    def _timer_fire(self, node: Vertex, callback: Callable[[], None]) -> None:
        if node in self._down:
            # Defer, don't drop: local clocks survive a crash, so timers
            # that expired during the outage fire at recovery time (this is
            # what keeps retransmission loops alive across crashes).
            if self._rec is not None:
                self._rec.record_timer(self.queue.now, node, deferred=True)
            self._deferred_timers.setdefault(node, []).append(callback)
        else:
            if self._rec is not None:
                self._rec.record_timer(self.queue.now, node)
            callback()

    def _crash(self, node: Vertex) -> None:
        if node not in self._down:
            self._down.add(node)
            self.metrics.record_fault("crash")
            if self._rec is not None:
                self._rec.record_crash(self.queue.now, node)

    def _recover(self, node: Vertex) -> None:
        if node not in self._down:
            return
        self._down.discard(node)
        self.metrics.record_fault("recover")
        if self._rec is not None:
            self._rec.record_recover(self.queue.now, node)
        race = self._race
        for cb in self._deferred_timers.pop(node, []):
            # Deferred timers re-enter the queue directly (not through
            # _timer_fire), so ownership attribution needs a wrapper.
            self.queue.schedule(
                0.0, cb if race is None else race.owned_callback(node, cb))
        if race is None:
            self.processes[node].on_recover()
        else:
            with race.run_as(node):
                self.processes[node].on_recover()

    def node_is_up(self, node: Vertex) -> bool:
        return node not in self._down

    def _node_finished(self, node: Vertex) -> None:
        self._finished_count += 1
        self.metrics.completion_time = self.queue.now
        self.metrics.last_finish_time = self.queue.now
        if self._rec is not None:
            self._rec.record_finish(self.queue.now, node)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    @property
    def all_finished(self) -> bool:
        return self._finished_count == len(self.processes)

    def run(
        self,
        *,
        max_time: float = float("inf"),
        max_events: int = 50_000_000,
        stop_when: Callable[["Network"], bool] | None = None,
    ) -> RunResult:
        """Start every process and run events until quiescence or a stop.

        Stops when the event queue is empty, ``stop_when(self)`` becomes
        true, the next event lies beyond ``max_time`` (events exactly *at*
        the deadline still run; none past it does), or ``max_events``
        events have fired (a runaway-protocol backstop that raises
        ``RuntimeError``).  The reason is reported as ``RunResult.status``.

        One loop serves every run: ``stop_when`` is probed by
        :meth:`EventQueue.run` before the first event and after each one,
        and only while events are still queued (a run that drains is
        ``"quiescent"``).  At each probe the communication budget comes
        first, then ``stop_when``, then ``max_time``.  A budget exhausted
        in ``on_start`` aborts the run before its first event.
        """
        if self.faults is not None:
            reset = getattr(self.faults, "reset", None)
            if reset is not None:
                reset()  # clear per-run bookkeeping so plans replay exactly
            for node, start, end in getattr(self.faults, "crashes", ()):
                if node not in self.processes:
                    raise ValueError(f"crash window for unknown node {node!r}")
                self.queue.schedule_call_at(start, self._crash, node)
                if end is not None and end != float("inf"):
                    self.queue.schedule_call_at(end, self._recover, node)
        if self._race is None:
            for proc in self.processes.values():
                proc.on_start()
        else:
            for node, proc in self.processes.items():
                with self._race.run_as(node):
                    proc.on_start()
        if self.budget_exhausted:
            # A send in on_start was already refused: abort before the
            # first event, as the budget probe would after any event.
            reason, fired = "halted", 0
        else:
            # The halt probe is only needed when a budget can suppress
            # sends mid-run (the only thing that halts the queue).
            reason, fired = self.queue.run(
                max_time=max_time,
                max_events=max_events,
                check_halt=self.comm_budget is not None,
                stop_when=None if stop_when is None else partial(stop_when,
                                                                 self),
            )
        if reason == "max_events":
            raise RuntimeError(
                f"exceeded {max_events} events; runaway protocol?")
        # "halted" is always a budget abort, stamped below.
        status = reason if reason in ("max_time", "stopped") else "quiescent"
        if self.budget_exhausted:
            status = "budget_exhausted"
        if self._rec is not None:
            # Close any spans still open, stamp the outcome, and record
            # the EventQueue's view of the same run for cross-checking.
            self._rec.finalize(self.queue.now, status=status,
                               events_fired=fired)
        # Note: quiescing without meeting stop_when is not an error at this
        # level; callers (runners) decide how to interpret an unfinished run.
        return RunResult(self.metrics, self.processes, status=status)
