"""A cost-accounted reliable transport over lossy weighted channels.

:class:`ReliableProcess` wraps any :class:`~repro.sim.process.Process`
without modifying protocol code (the inner protocol runs on a
:class:`~repro.sim.process.HostedContext`): every send of the inner
protocol is framed with a per-destination sequence number, acknowledged
by the receiver, and retransmitted on timeout until acknowledged; the
receiver suppresses duplicates and releases frames to the inner protocol
*in sequence order*, restoring the FIFO-channel abstraction the protocols
were written against even when the adversary drops, duplicates, corrupts
or reorders transmissions.

Timeouts follow the cost model: a full data+ack round trip over edge
``e`` takes at most ``2 w(e)`` (each hop's delay is bounded by ``w(e)``),
so the retransmission timeout is seeded at ``timeout_factor * w(e)``
(default 3, leaving one ``w(e)`` of slack for queueing) and doubles on
every retry — bounded exponential backoff, capped at
``2**max_backoff_doublings`` times the seed — up to ``max_retries``
attempts, after which the transport gives up (``gave_up`` is set and the
stalled run is caught by the chaos harness's watchdog: failures are
detectable, never silent).

Cost accounting: first transmissions keep the inner protocol's metric
tag, so the base cost breakdown is unchanged; acknowledgments are tagged
``rel-ack`` and retransmissions ``rel-retry``.  The full price of
reliability on a run is therefore ``cost_by_tag["rel-ack"] +
cost_by_tag["rel-retry"]``, in the paper's cost-sensitive units — each
retry on ``e`` costs another ``w(e) * size``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from ..graphs.weighted_graph import Vertex
from ..sim.process import HostedContext, Process
from .plan import CorruptedPayload

__all__ = ["ACK_TAG", "RETRY_TAG", "ReliableProcess", "reliable_factory",
           "reliability_overhead"]

ACK_TAG = "rel-ack"
RETRY_TAG = "rel-retry"

_DATA = "rel-data"
_ACK = "rel-ack"


class ReliableProcess(Process):
    """Per-edge ack + timeout + retransmit transport around ``inner``.

    Parameters
    ----------
    inner:
        The protocol instance to make reliable.  Its sends/receives are
        transparently framed; it needs no code changes.  Attribute access
        on the wrapper falls through to ``inner``, so result extractors
        written against the raw process (``proc.parent`` etc.) still work.
    timeout_factor:
        Initial retransmission timeout, as a multiple of ``w(e)``.  Must
        exceed 2 (the ack round-trip bound) or every frame would be
        retransmitted spuriously under the maximal-delay adversary.
    max_retries:
        Give-up bound on retransmissions per frame.
    max_backoff_doublings:
        Cap on the exponential backoff (timeout never exceeds
        ``timeout_factor * w(e) * 2**max_backoff_doublings``).
    ack_size:
        Size in words of an acknowledgment frame (cost ``w(e) * ack_size``).
    """

    def __init__(
        self,
        inner: Process,
        *,
        timeout_factor: float = 3.0,
        max_retries: int = 30,
        max_backoff_doublings: int = 4,
        ack_size: float = 1.0,
    ) -> None:
        if timeout_factor <= 2.0:
            raise ValueError(
                "timeout_factor must exceed 2 (the data+ack round trip "
                f"over e takes up to 2 w(e)); got {timeout_factor!r}"
            )
        if max_retries < 1:
            raise ValueError("max_retries must be >= 1")
        self.inner = inner
        self.timeout_factor = timeout_factor
        self.max_retries = max_retries
        self.max_backoff_doublings = max_backoff_doublings
        self.ack_size = ack_size
        self.gave_up = False
        # (to, seq) -> [frame, size, tag, retries, timeout]
        self._outstanding: dict[tuple[Vertex, int], list] = {}
        self._next_seq: dict[Vertex, int] = {}
        self._deliver_next: dict[Vertex, int] = {}
        self._reorder_buf: dict[Vertex, dict[int, Any]] = {}

    def __getattr__(self, name: str):
        inner = self.__dict__.get("inner")
        if inner is None:
            raise AttributeError(name)
        return getattr(inner, name)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def on_start(self) -> None:
        self.inner.ctx = HostedContext(self)
        self.inner.on_start()

    def on_recover(self) -> None:
        # Deferred retransmission timers flushed by the network at the
        # recovery instant re-arm the outstanding frames; nothing to do at
        # the transport level beyond waking the inner protocol.
        self.inner.on_recover()

    # ------------------------------------------------------------------ #
    # Sender side
    # ------------------------------------------------------------------ #

    def hosted_send(self, to: Vertex, payload: Any, size: float,
                    tag: str | None) -> None:
        seq = self._next_seq.get(to, 0)
        self._next_seq[to] = seq + 1
        frame = (_DATA, seq, payload)
        timeout = self.timeout_factor * self.edge_weight(to)
        self._outstanding[(to, seq)] = [frame, size, tag, 0, timeout]
        # First copy keeps the protocol's own tag: the fault-free cost
        # breakdown is identical with and without the transport.
        self.send(to, frame, size=size, tag=tag)
        self.set_timer(timeout, lambda: self._check_ack(to, seq))

    def hosted_finish(self, result: Any) -> None:
        self.finish(result)

    def _check_ack(self, to: Vertex, seq: int) -> None:
        entry = self._outstanding.get((to, seq))
        if entry is None:
            return  # acknowledged; nothing to do
        frame, size, _tag, retries, timeout = entry
        if retries >= self.max_retries:
            self.gave_up = True  # detectable: the run stalls, watchdog fires
            return
        entry[3] = retries + 1
        if retries < self.max_backoff_doublings:
            entry[4] = timeout * 2.0
        with self.trace_span(RETRY_TAG):
            self.send(to, frame, size=size, tag=RETRY_TAG)
        self.set_timer(entry[4], lambda: self._check_ack(to, seq))

    # ------------------------------------------------------------------ #
    # Receiver side
    # ------------------------------------------------------------------ #

    def on_message(self, frm: Vertex, payload: Any) -> None:
        if isinstance(payload, CorruptedPayload):
            return  # failed checksum: discard; the sender will retransmit
        kind = payload[0]
        if kind == _ACK:
            self._outstanding.pop((frm, payload[1]), None)
            return
        if kind != _DATA:  # pragma: no cover - misuse guard
            raise AssertionError(
                f"unframed message through ReliableProcess: {payload!r}"
            )
        _, seq, inner_payload = payload
        with self.trace_span(ACK_TAG):
            self.send(frm, (_ACK, seq), size=self.ack_size, tag=ACK_TAG)
        expected = self._deliver_next.get(frm, 0)
        if seq < expected:
            return  # duplicate of an already-released frame
        buf = self._reorder_buf.setdefault(frm, {})
        if seq in buf:
            return  # duplicate of a buffered frame
        buf[seq] = inner_payload
        # Release in sequence order: reliable *and* FIFO, as the protocols
        # assume of their channels.
        while expected in buf:
            released = buf.pop(expected)
            expected += 1
            self._deliver_next[frm] = expected
            self.inner.on_message(frm, released)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def unacked_frames(self) -> int:
        return len(self._outstanding)


def reliable_factory(
    factory: Callable[[Vertex], Process],
    **transport_options: Any,
) -> Callable[[Vertex], ReliableProcess]:
    """Lift a process factory to a reliable-transport factory."""
    return lambda v: ReliableProcess(factory(v), **transport_options)


def reliability_overhead(metrics) -> dict[str, float]:
    """Cost-sensitive reliability overhead of a run, by component."""
    ack = metrics.cost_by_tag.get(ACK_TAG, 0.0)
    retry = metrics.cost_by_tag.get(RETRY_TAG, 0.0)
    return {
        "ack_cost": ack,
        "retry_cost": retry,
        "retry_count": metrics.count_by_tag.get(RETRY_TAG, 0),
        "total_overhead": ack + retry,
    }
