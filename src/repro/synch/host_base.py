"""Shared machinery for network-synchronizer hosts (Section 4).

A *synchronizer host* is the per-node asynchronous process that executes a
wrapped synchronous protocol pulse by pulse.  All hosts share the same
data plane:

* the hosted protocol is an :class:`~repro.synch.normalize.InSynchWrapper`
  (Lemma 4.5's transformed protocol) running against the node's original
  weights;
* protocol messages travel tagged with their send pulse; the receiver
  buffers them into the inbox of pulse ``send + w_hat(e)`` and returns an
  acknowledgment (Definition 4.1's safety detection);
* a pulse executes as soon as the subclass's admission rule
  :meth:`_may_execute` allows it, up to ``max_pulse``.

Subclasses differ only in their *control plane* — how safety information
is disseminated and what the admission rule is: alpha_w floods per-pulse
safety to neighbors, beta_w convergecasts it over a spanning tree, gamma_w
(in :mod:`repro.synch.gamma_w`) runs one synchronizer-gamma instance per
weight level.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable
from typing import Any

from ..graphs.weighted_graph import Vertex, WeightedGraph
from ..sim.process import Process
from ..sim.sync_runner import SynchronousProtocol
from .normalize import InSynchWrapper

__all__ = ["HostSyncShim", "SynchronizerHostBase"]


class HostSyncShim:
    """SyncContext look-alike handed to the hosted InSynchWrapper.

    Shared by every synchronizer host, gamma_w's included: the host only
    needs ``node_id``, ``ctx``, ``protocol_send`` and ``wrapper_finished``.
    """

    def __init__(self, host: Any) -> None:
        self._host = host
        self.node_id = host.node_id
        self.neighbors = host.ctx.neighbors
        self.weights = host.ctx.weights  # normalized weights
        self.finished = False
        self.result: Any = None

    def send(self, to: Vertex, payload: Any) -> None:
        self._host.protocol_send(to, payload)

    def finish(self, result: Any = None) -> None:
        if not self.finished:
            self.finished = True
            self.result = result
            self._host.wrapper_finished(result)


class SynchronizerHostBase(Process):
    """Common pulse engine for synchronizer hosts.

    Parameters
    ----------
    node_id: this vertex.
    original: the original (pre-normalization) graph, for the wrapper.
    inner_factory: builds the hosted synchronous protocol per node.
    max_pulse: hard cap on the outer pulse counter.
    """

    def __init__(
        self,
        node_id: Vertex,
        original: WeightedGraph,
        inner_factory: Callable[[Vertex], SynchronousProtocol],
        max_pulse: int,
    ) -> None:
        self._node = node_id
        self.max_pulse = max_pulse
        self.wrapper = InSynchWrapper(
            inner_factory(node_id), original.neighbor_weights(node_id)
        )
        self.next_pulse = 0
        self.pulses_executed = 0
        self._inbox: dict[int, list] = defaultdict(list)
        self._advancing = False

    # ---------------- subclass surface ---------------- #

    def _may_execute(self, pulse: int) -> bool:
        """Admission rule: may this node run ``pulse`` now?"""
        raise NotImplementedError

    def _after_pulse(self, pulse: int) -> None:
        """Hook invoked right after executing ``pulse`` (safety checks)."""

    def _on_protocol_send(self, to: Vertex, pulse: int) -> None:
        """Hook invoked for every outgoing protocol message."""

    def _on_ack(self, frm: Vertex, send_pulse: int) -> None:
        """Hook invoked for every incoming acknowledgment."""

    def handle_control(self, frm: Vertex, payload: Any) -> None:
        """Hook for subclass-specific control messages."""
        raise AssertionError(f"unexpected control message {payload!r}")

    # ---------------- common data plane ---------------- #

    def on_start(self) -> None:
        self.wrapper.sync = HostSyncShim(self)
        self._start_control_plane()
        self._advance()

    def _start_control_plane(self) -> None:
        """Subclass hook run before the first pulse."""

    def on_message(self, frm: Vertex, payload: Any) -> None:
        kind = payload[0]
        if kind == "proto":
            _, wire, send_pulse = payload
            arrive_pulse = send_pulse + int(self.edge_weight(frm))
            self._inbox[arrive_pulse].append((frm, wire))
            # No _advance(): the admission rules never read the inbox, so
            # a protocol arrival cannot admit a pulse.
            with self.trace_span("sync-ack"):
                self.send(frm, ("ack", send_pulse), tag="sync-ack")
        elif kind == "ack":
            self._on_ack(frm, payload[1])
        else:
            self.handle_control(frm, payload)

    def protocol_send(self, to: Vertex, wire: Any) -> None:
        pulse = self.next_pulse  # the pulse currently executing
        self._on_protocol_send(to, pulse)
        self.send(to, ("proto", wire, pulse), tag="proto")

    def wrapper_finished(self, result: Any) -> None:
        self.finish(result)

    # ---------------- pulse engine ---------------- #

    def _advance(self) -> None:
        if self._advancing:  # guard against reentrancy via synchronous GOs
            return
        self._advancing = True
        try:
            while self.next_pulse <= self.max_pulse and self._may_execute(
                self.next_pulse
            ):
                pulse = self.next_pulse
                # Rolls this node's "pulse" trace span (no-op untraced);
                # control traffic until the next pulse nests under it.
                self.trace_pulse(pulse)
                self.wrapper.on_pulse(pulse, self._inbox.pop(pulse, []))
                self.next_pulse = pulse + 1
                self.pulses_executed += 1
                self._after_pulse(pulse)
        finally:
            self._advancing = False
