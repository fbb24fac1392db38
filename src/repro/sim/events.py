"""A minimal deterministic discrete-event queue.

The heap holds one entry per *distinct pending timestamp*.  An entry is a
single flat list ``[time, seq, cursor, fn0, args0, fn1, args1, ...]`` —
the heap key ``(time, seq)`` and the FIFO batch of every event scheduled
at that instant share one allocation.  ``seq`` is unique, so heap
comparisons never reach the payload slots; ``cursor`` marks the next
un-fired pair (it starts at 3 and only moves when a drain is interrupted
mid-batch).  Scheduling an event at a timestamp that is already pending
is therefore an O(1) list append instead of an O(log n) heap push — the
dominant cost on the simulator's hot path, where synchronous pulses and
same-weight broadcast waves make most events share their timestamp
("batched FIFO delivery").

Ordering semantics are identical to a classical one-entry-per-event heap
with a monotone tie-breaking sequence number: simultaneous events fire in
scheduling order — across *all* entry points (`schedule`, `schedule_at`,
`schedule_call`, `schedule_call_at`), even when the heap drained in
between — so runs are fully deterministic for a fixed seed.  An event
scheduled *at the current instant* from inside a callback fires in the
same drain, after everything already queued at that time, exactly as
before.  (:meth:`run` retires a batch *before* dispatching it, so such
events land in a fresh same-time batch that the drain loop picks up
next; :meth:`step` keeps the batch live and appends.  Observable firing
order is the same either way.)

Three design points matter for throughput (see docs/PERF.md and
``scripts/bench.py``):

* ``schedule_call`` / ``schedule_call_at`` store the callable and its
  argument tuple directly in the event's slots instead of forcing callers
  to allocate a capturing closure per event;
* :meth:`run` drains the queue in a single tight loop with the heap and
  ``heappop`` bound to locals, retires each batch up front (one heap pop
  plus one dict delete per *batch*, not per event), and takes a separate
  fast path for single-event batches — the all-distinct-timestamps shape
  (serial token walks) that used to pay full bucket bookkeeping per
  event;
* one list per distinct timestamp is the only per-schedule allocation:
  the former separate ``(time, seq, bucket)`` heap tuple is gone.

The scheduling methods repeat the small push body instead of sharing a
helper: one extra method call per scheduled event is measurable at the
rates ``scripts/bench.py`` tracks.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from itertools import count

__all__ = ["EventQueue"]

_NO_ARGS: tuple = ()
_heappush = heapq.heappush

# First payload slot of an entry: [time, seq, cursor, fn0, args0, ...].
_HEAD = 3


class EventQueue:
    """Time-ordered callback queue."""

    def __init__(self) -> None:
        # One entry per distinct pending time:
        # [time, seq, cursor, fn0, args0, fn1, args1, ...].  seq is
        # unique, so heap (list) comparisons stop at slot 1 and never
        # reach cursor or payload.  cursor advances by 2 and is non-zero
        # only while a batch is partially dispatched (interrupted run()
        # or step()-driven draining).
        self._heap: list[list] = []
        # Live (still appendable) entries by timestamp.  An entry created
        # while the heap was empty is deliberately *not* registered here:
        # nothing can batch ahead of it, and a later same-time schedule
        # simply opens a registered entry with a later seq — same firing
        # order, but the empty-queue singleton path (serial token walks)
        # skips the dict insert/delete entirely.
        self._buckets: dict[float, list] = {}
        self._seq = count()
        # Pre-bound lookups shaving ~100ns off every singleton schedule
        # (the dict and the counter are never replaced, only mutated).
        self._bucket_get = self._buckets.get
        self._next_seq = self._seq.__next__
        self._size = 0
        self.now: float = 0.0
        #: Cooperative halt flag checked once per event by :meth:`run`.
        #: A callback may set it to stop the drain loop after it returns.
        self.halted: bool = False
        #: Cumulative count of events dispatched over this queue's
        #: lifetime (all drains and steps).  Observability surfaces
        #: (``repro.obs``) cross-check a run's trace against it; updated
        #: per drain, not per event, so the hot loop is unaffected.
        self.fired: int = 0

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to fire ``delay`` time units from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        when = self.now + delay
        entry = self._bucket_get(when) if self._buckets else None
        if entry is None:
            entry = [when, self._next_seq(), _HEAD, callback, _NO_ARGS]
            heap = self._heap
            if heap:
                self._buckets[when] = entry
                _heappush(heap, entry)
            else:
                heap.append(entry)
        else:
            entry.append(callback)
            entry.append(_NO_ARGS)
        self._size += 1

    def schedule_at(self, when: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at absolute time ``when`` (>= now).

        ``when == now`` is allowed: the event fires after every event
        already scheduled at the current instant (scheduling order is
        total across all entry points, even when the heap was fully
        drained in between).
        """
        if when < self.now:
            raise ValueError(f"cannot schedule in the past: {when} < {self.now}")
        entry = self._bucket_get(when) if self._buckets else None
        if entry is None:
            entry = [when, self._next_seq(), _HEAD, callback, _NO_ARGS]
            heap = self._heap
            if heap:
                self._buckets[when] = entry
                _heappush(heap, entry)
            else:
                heap.append(entry)
        else:
            entry.append(callback)
            entry.append(_NO_ARGS)
        self._size += 1

    def schedule_call(self, delay: float, fn: Callable, *args) -> None:
        """Like :meth:`schedule`, but stores ``fn`` and ``args`` directly.

        Avoids allocating a capturing closure per event — the entry itself
        carries the argument slots.  This is the hot-path API.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        when = self.now + delay
        entry = self._bucket_get(when) if self._buckets else None
        if entry is None:
            entry = [when, self._next_seq(), _HEAD, fn, args]
            heap = self._heap
            if heap:
                self._buckets[when] = entry
                _heappush(heap, entry)
            else:
                heap.append(entry)
        else:
            entry.append(fn)
            entry.append(args)
        self._size += 1

    def schedule_call_at(self, when: float, fn: Callable, *args) -> None:
        """Like :meth:`schedule_at`, but stores ``fn`` and ``args`` directly."""
        if when < self.now:
            raise ValueError(f"cannot schedule in the past: {when} < {self.now}")
        entry = self._bucket_get(when) if self._buckets else None
        if entry is None:
            entry = [when, self._next_seq(), _HEAD, fn, args]
            heap = self._heap
            if heap:
                self._buckets[when] = entry
                _heappush(heap, entry)
            else:
                heap.append(entry)
        else:
            entry.append(fn)
            entry.append(args)
        self._size += 1

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #

    def peek_time(self) -> float | None:
        """Timestamp of the earliest pending event, or None if empty."""
        return self._heap[0][0] if self._heap else None

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def step(self) -> bool:
        """Pop and run the earliest event; return False if the queue is empty.

        Unlike :meth:`run`, ``step`` keeps the batch registered while it
        drains it, so a callback scheduling at the current instant appends
        to the live batch (same observable order as ``run``'s
        fresh-batch handling).
        """
        if not self._size:
            return False
        heap = self._heap
        buckets = self._buckets
        while True:
            entry = heap[0]
            i = entry[2]
            if i < len(entry):
                break
            # A fully dispatched batch can sit at the front only if a
            # callback raised out of a drain; drop it and look again.
            heapq.heappop(heap)
            if buckets.get(entry[0]) is entry:
                del buckets[entry[0]]
        when = entry[0]
        self.now = when
        fn = entry[i]
        args = entry[i + 1]
        entry[2] = i + 2
        self._size -= 1
        self.fired += 1
        fn(*args)
        # Retire only after the callback ran: it may have appended new
        # same-time events to this very batch.
        if entry[2] == len(entry):
            heapq.heappop(heap)  # entry is the front by the heap invariant
            if buckets.get(when) is entry:
                del buckets[when]
        return True

    def run(
        self,
        *,
        max_time: float = float("inf"),
        max_events: int | None = None,
        check_halt: bool = True,
        stop_when: Callable[[], bool] | None = None,
    ) -> tuple[str, int]:
        """Drain the queue in one tight loop; return ``(reason, n_events)``.

        Fires events in (time, scheduling) order until one of:

        * ``"empty"``      — the queue drained (quiescence);
        * ``"max_time"``   — the next event lies strictly beyond
          ``max_time`` (events exactly *at* the deadline still fire; the
          over-deadline event stays queued);
        * ``"max_events"`` — ``max_events`` events fired;
        * ``"halted"``     — a callback set :attr:`halted` (cleared on
          entry, probed after every event unless ``check_halt`` is False —
          callers that know no callback halts may skip the probe);
        * ``"stopped"``    — ``stop_when()`` returned True while events
          were still queued.  It is probed before the first event and
          after every event, right after the halt probe, so a run stops
          on the first event boundary where it holds.  A queue that
          drains is ``"empty"`` whatever the predicate says.

        After an event, the ``max_events`` limit is checked first, then
        the halt flag, then the predicate; the next event's ``max_time``
        check comes last.

        Semantically identical to ``while self.step(): ...`` with the same
        guards, but substantially faster: the heap and pop are locals,
        each batch is retired with a single heap pop + dict delete
        *before* dispatch (same-time events scheduled by callbacks open a
        fresh batch, which preserves the firing order), and single-event
        batches take a dedicated fast path with no cursor bookkeeping.
        An interrupted batch is re-queued under its original seq, so a
        later drain resumes it in order.

        If a callback raises, the exception propagates and the queue must
        be treated as spent: the remainder of the batch being drained may
        be dropped, and same-instant events that already fired may be
        replayed by a subsequent drain.  (Every harness in this repo
        abandons the network after a callback exception.)
        """
        heap = self._heap
        buckets = self._buckets
        buckets_get = self._bucket_get
        pop = heapq.heappop
        self.halted = False
        events = 0
        limit = max_events if max_events is not None else -1
        if limit == 0:
            return ("max_events", 0)
        if stop_when is not None and heap and stop_when():
            return ("stopped", 0)
        # One flag for the post-event probes: a plain drain pays a single
        # local test per event.
        probe = check_halt or stop_when is not None
        try:
            while heap:
                entry = heap[0]
                when = entry[0]
                if when > max_time:
                    return ("max_time", events)
                # Retire up front: one pop + one dict delete per batch.
                # Callbacks scheduling at `when` then open a fresh batch
                # with a later seq, which fires right after this one —
                # the same order appending would have produced.
                pop(heap)
                if buckets and buckets_get(when) is entry:
                    del buckets[when]
                self.now = when
                i = entry[2]
                n = len(entry)
                if i + 2 == n:
                    # Singleton batch (all-distinct-timestamps traffic).
                    fn = entry[i]
                    args = entry[i + 1]
                    fn(*args)
                    events += 1
                    if events == limit or probe:
                        if events == limit:
                            return ("max_events", events)
                        if check_halt and self.halted:
                            return ("halted", events)
                        if stop_when is not None and heap and stop_when():
                            return ("stopped", events)
                    continue
                while i < n:
                    fn = entry[i]
                    args = entry[i + 1]
                    i += 2
                    fn(*args)
                    events += 1
                    if events == limit or probe:
                        if events == limit:
                            reason = "max_events"
                        elif check_halt and self.halted:
                            reason = "halted"
                        elif (stop_when is not None and (i < n or heap)
                              and stop_when()):
                            reason = "stopped"
                        else:
                            continue
                        if i < n:
                            # Re-queue the remainder under its original
                            # seq so it still fires before any same-time
                            # batch opened meanwhile.
                            entry[2] = i
                            _heappush(heap, entry)
                        return (reason, events)
            return ("empty", events)
        finally:
            # One batched update instead of a per-event decrement; the
            # finally keeps the counts consistent even when a callback
            # raises out of the loop.
            self._size -= events
            self.fired += events
