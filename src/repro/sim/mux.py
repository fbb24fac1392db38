"""Protocol multiplexing: run several protocols on one simulated network.

The hybrid algorithms of Sections 7.2, 8.2 and 9.3 run *two* algorithms
"in parallel" on the same network, with the shared root suspending the
currently more expensive one.  :class:`MuxProcess` hosts one sub-process
per named part at each node and routes messages by part key; each part
sees an ordinary :class:`~repro.sim.process.Process` API whose sends are
wrapped as ``(part_key, payload)``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from ..graphs.weighted_graph import Vertex
from .process import Process

__all__ = ["MuxProcess"]


class _PartContext:
    """A shim context giving a hosted part the normal Process surface."""

    __slots__ = ("_outer", "_key", "is_finished", "result")

    def __init__(self, outer: MuxProcess, key: str) -> None:
        self._outer = outer
        self._key = key
        self.is_finished = False
        self.result: Any = None

    @property
    def node_id(self) -> Vertex:
        return self._outer.ctx.node_id

    @property
    def neighbors(self) -> list:
        return self._outer.ctx.neighbors

    @property
    def weights(self) -> dict:
        return self._outer.ctx.weights

    @property
    def now(self) -> float:
        return self._outer.ctx.now

    @property
    def traced(self) -> bool:
        return self._outer.ctx.traced

    def send(self, to: Vertex, payload: Any, size: float, tag: str | None) -> None:
        # Namespace the metrics tag by part key so hybrids can split costs.
        full_tag = self._key if tag is None else f"{self._key}.{tag}"
        self._outer.ctx.send(to, (self._key, payload), size, full_tag)

    def set_timer(self, delay: float, callback: Callable[[], None]) -> None:
        self._outer.ctx.set_timer(delay, callback)

    def finish(self, result: Any) -> None:
        if not self.is_finished:
            self.is_finished = True
            self.result = result
            self._outer.part_finished(self._key, result)


class MuxProcess(Process):
    """Hosts several sub-protocols at one node.

    Parameters
    ----------
    parts:
        Mapping ``key -> Process`` of the hosted protocol instances.
    finish_when:
        Optional predicate over the set of finished part keys; when it first
        becomes true this node finishes (result: that set).  Default: finish
        when *all* parts have finished.
    """

    def __init__(
        self,
        parts: dict[str, Process],
        finish_when: Callable[[set], bool] | None = None,
    ) -> None:
        self.parts = parts
        self._finished_parts: set[str] = set()
        self._finish_when = finish_when

    def on_start(self) -> None:
        for key, part in self.parts.items():
            part.ctx = _PartContext(self, key)
        for part in self.parts.values():
            part.on_start()

    def on_message(self, frm: Vertex, payload: Any) -> None:
        key, inner = payload
        self.parts[key].on_message(frm, inner)

    def part_finished(self, key: str, result: Any) -> None:
        self._finished_parts.add(key)
        done = (
            self._finish_when(self._finished_parts)
            if self._finish_when is not None
            else len(self._finished_parts) == len(self.parts)
        )
        if done:
            self.finish(frozenset(self._finished_parts))

    def part(self, key: str) -> Process:
        return self.parts[key]
