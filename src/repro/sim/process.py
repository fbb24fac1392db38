"""The per-node protocol API.

A distributed protocol is a subclass of :class:`Process`; the network
instantiates one process per vertex.  Processes react to two kinds of
events — protocol start and message arrival — and may set local timers.
All knowledge a process has must arrive through these channels or be given
at construction time (the paper's "full information" algorithms are modeled
by handing the factory the whole graph).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from ..graphs.weighted_graph import Vertex

__all__ = ["HostedContext", "Process"]


class Process:
    """Base class for one node's protocol instance.

    Subclasses override :meth:`on_start` and :meth:`on_message`.  The
    hosting :class:`~repro.sim.network.Network` injects ``self.ctx`` before
    calling ``on_start``; the helpers below all delegate to it.  A process
    layered inside another one gets a :class:`HostedContext` instead.
    """

    # Injected _NodeContext (or HostedContext when layered inside a host);
    # typed Any to avoid the import cycle.
    ctx: Any

    # ------------------------------------------------------------------ #
    # Framework surface (subclasses override these)
    # ------------------------------------------------------------------ #

    def on_start(self) -> None:
        """Called once at time 0 (before any message delivery)."""

    def on_message(self, frm: Vertex, payload: Any) -> None:
        """Called on every message arrival."""

    def on_recover(self) -> None:
        """Called when this node comes back up after a crash window.

        The process keeps its state across the outage (crash-recover with
        durable memory); messages and timer firings that targeted the node
        while it was down are lost or deferred by the network — see
        ``docs/MODEL.md`` ("Fault model").  Default: no-op.
        """

    # ------------------------------------------------------------------ #
    # Helpers available to subclasses
    # ------------------------------------------------------------------ #

    @property
    def node_id(self) -> Vertex:
        return self.ctx.node_id

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self.ctx.now

    def neighbors(self) -> list[Vertex]:
        """This node's neighbors in the communication graph."""
        return self.ctx.neighbors

    def edge_weight(self, neighbor: Vertex) -> float:
        """``w(self, neighbor)``."""
        return self.ctx.weights[neighbor]

    def send(self, to: Vertex, payload: Any, *, size: float = 1.0,
             tag: str | None = None) -> None:
        """Transmit a message to a *neighbor*; costs ``w(e) * size``."""
        self.ctx.send(to, payload, size, tag)

    def set_timer(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule a zero-cost local callback ``delay`` time units from now."""
        self.ctx.set_timer(delay, callback)

    def finish(self, result: Any = None) -> None:
        """Mark this node's protocol as locally complete with a result."""
        self.ctx.finish(result)

    def trace_span(self, name: str, detail: Any = None):
        """Context manager opening a named trace span for this node.

        Sends issued inside the ``with`` body are attributed to the span
        (see ``repro.obs``).  A shared no-op when the run is untraced, so
        layered protocols may wrap their control traffic unconditionally.
        """
        return self.ctx.span(name, detail)

    def trace_pulse(self, pulse: int) -> None:
        """Record a synchronizer pulse for this node (no-op untraced)."""
        self.ctx.trace_pulse(pulse)

    @property
    def finished(self) -> bool:
        return self.ctx.is_finished


class HostedContext:
    """The context a layering host hands to the process it wraps.

    A host (reliable transport, controller, termination detector, id
    auditor) installs ``self.inner.ctx = HostedContext(self)`` in its own
    ``on_start``.  The inner process then sees the ordinary
    :class:`Process` surface: ``node_id``, ``neighbors``, ``weights`` and
    ``traced`` are copied from the host's context (they are fixed for the
    life of a network); ``now``, ``set_timer``, ``span`` and
    ``trace_pulse`` forward to it.  Exactly two calls are routed to the
    host itself: every ``send`` goes to ``host.hosted_send(to, payload,
    size, tag)`` and the first ``finish`` to ``host.hosted_finish(result)``,
    after this context records ``is_finished``/``result``.
    """

    __slots__ = ("_host", "_ctx", "node_id", "neighbors", "weights",
                 "traced", "is_finished", "result")

    def __init__(self, host: Process) -> None:
        ctx = host.ctx
        self._host = host
        self._ctx = ctx
        self.node_id = ctx.node_id
        self.neighbors = ctx.neighbors
        self.weights = ctx.weights
        self.traced = ctx.traced
        self.is_finished = False
        self.result: Any = None

    @property
    def now(self) -> float:
        return self._ctx.now

    def send(self, to: Vertex, payload: Any, size: float,
             tag: str | None) -> None:
        self._host.hosted_send(to, payload, size, tag)

    def set_timer(self, delay: float, callback: Callable[[], None]) -> None:
        self._ctx.set_timer(delay, callback)

    def finish(self, result: Any) -> None:
        if not self.is_finished:
            self.is_finished = True
            self.result = result
            self._host.hosted_finish(result)

    def span(self, name: str, detail: Any = None):
        return self._ctx.span(name, detail)

    def trace_pulse(self, pulse: int) -> None:
        self._ctx.trace_pulse(pulse)
