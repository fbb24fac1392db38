"""Knowledge-flow auditing: the observable side of Lemmas 7.1/7.2.

The Omega(nV) lower bound (Section 7.1) is an argument about *information
flow*: in a correct comparison-based run on ``G_n``, for every bypass pair
``(i, n+1-i)`` the two sides' identities must come together somewhere
(Lemma 7.1 — otherwise the run cannot be distinguished from one on the
split graph ``G_n^i`` of Figure 8), and transporting those identifiers
along the light path costs ``X * (n+1-2i)`` each (Lemma 7.2).

This module makes that information flow *observable* on real runs:

* :class:`IdAuditedProcess` wraps any protocol and records, per vertex,
  the set of vertex ids it has learned — a priori (its own id and its
  neighbors' ids, the paper's "registers") plus every id appearing in a
  received payload (including inside GHS fragment names, which embed
  endpoint reprs);
* :func:`meeting_points` lists where two ids came together;
* :func:`id_crossings` counts, per id, how many edge crossings carried
  it — the quantity Lemma 7.2 sums.

Scope note: on ``G_n`` itself the bypass endpoints are *adjacent*, so
the meeting condition restricted to register knowledge is satisfied a
priori at the endpoints; the lower bound's real force is about learning
the *binding* between an id and a remote register, which only a fully
comparison-based execution model can capture.  What the auditor measures
faithfully is the transport side: which ids actually moved, and how far.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any

from ..graphs.weighted_graph import Vertex, WeightedGraph
from ..sim.network import Network, RunResult
from ..sim.process import HostedContext, Process

__all__ = [
    "extract_ids",
    "IdAuditedProcess",
    "run_audited",
    "meeting_points",
    "id_crossings",
    "lemma_7_1_meetings",
]


def extract_ids(payload: Any, universe: frozenset) -> set:
    """All vertex ids of ``universe`` appearing (recursively) in a payload.

    Strings matching an id's ``repr`` count too, so ids embedded in GHS
    fragment-name keys are detected.
    """
    found: set = set()
    _scan(payload, universe, found)
    return found


def _scan(obj: Any, universe: frozenset, found: set) -> None:
    try:
        if obj in universe:
            found.add(obj)
            return
    except TypeError:
        pass
    if isinstance(obj, dict):
        for k, v in obj.items():
            _scan(k, universe, found)
            _scan(v, universe, found)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for item in obj:
            _scan(item, universe, found)
    elif isinstance(obj, str):
        for v in sorted(universe, key=repr):  # normalized frozenset order
            if repr(v) == obj:
                found.add(v)


class IdAuditedProcess(Process):
    """Wraps a protocol instance, recording the ids it learns and ships."""

    def __init__(self, inner: Process, universe: frozenset) -> None:
        self.inner = inner
        self.universe = universe
        self.known: set = set()
        self.sent_crossings: dict = defaultdict(int)  # id -> #sends carrying it

    def on_start(self) -> None:
        # A priori knowledge: own id and the neighbor registers.
        self.known.add(self.node_id)
        self.known.update(self.neighbors())
        self.inner.ctx = HostedContext(self)
        self.inner.on_start()

    def hosted_send(self, to: Vertex, payload: Any, size: float,
                    tag: str | None) -> None:
        for vid in extract_ids(payload, self.universe):
            self.sent_crossings[vid] += 1
        self.ctx.send(to, payload, size, tag)

    def hosted_finish(self, result: Any) -> None:
        self.finish(result)

    def on_message(self, frm: Vertex, payload: Any) -> None:
        self.known |= extract_ids(payload, self.universe)
        self.inner.on_message(frm, payload)


def run_audited(
    graph: WeightedGraph,
    inner_factory,
    *,
    delay=None,
    seed: int = 0,
    stop_when=None,
    max_events: int = 20_000_000,
) -> RunResult:
    """Run a protocol with id auditing on every vertex."""
    universe = frozenset(graph.vertices)
    net = Network(
        graph,
        lambda v: IdAuditedProcess(inner_factory(v), universe),
        delay=delay,
        seed=seed,
    )
    return net.run(stop_when=stop_when, max_events=max_events)


def meeting_points(result: RunResult, a: Vertex, b: Vertex) -> list:
    """Vertices that (came to) know both ids ``a`` and ``b``."""
    return [
        v for v, proc in result.processes.items()
        if a in proc.known and b in proc.known
    ]


def id_crossings(result: RunResult) -> dict:
    """Total edge crossings per id across the whole run (Lemma 7.2's sum)."""
    totals: dict = defaultdict(int)
    for proc in result.processes.values():
        for vid, count in proc.sent_crossings.items():
            totals[vid] += count
    return dict(totals)


def lemma_7_1_meetings(result: RunResult, n: int) -> dict:
    """Where each bypass pair of ``G_n`` met: ``{i: meeting_vertices}``.

    On G_n the pair endpoints meet a priori (they are adjacent); the
    interesting output is the *other* meeting vertices — the ones created
    by actual id transport.
    """
    return {
        i: meeting_points(result, i, n + 1 - i)
        for i in range(1, (n + 1) // 2)
        if (n + 1 - i) not in (i, i + 1)
    }
