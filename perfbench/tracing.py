"""Benchmark-side span tracing of the library's layer boundaries.

The library carries no timing hooks of its own, so the traced run wraps
the public entry points of each layer from here: class methods and
module-level functions are replaced by thin wrappers that record one span
per call, and restored when the session ends.  A span is
``(layer, start, end, parent, instance)``; spans live in flat arrays in
memory and are folded into per-layer self times afterwards.  A span's
self time is its duration minus the durations of its direct children, so
the layer self times of one instance add up to the instance's root span.

Wrappers are installed only inside :class:`TraceSession` (and the much
lighter :class:`QueueCapture`); ``live_patches()`` lets the harness prove
that nothing is installed while a timed batch runs.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# Layers, in report order.  "instance" is the benchmark's own root span
# around one instance; its self time is glue outside every listed layer.
LAYERS = (
    "instance",
    "events",
    "network.init",
    "network.run",
    "network.send",
    "delays",
    "metrics",
    "faults",
    "handlers",
    "graphs",
    "covers",
)
_LAYER_ID = {name: i for i, name in enumerate(LAYERS)}

_live: list = []  # (owner, attribute, original) of every installed patch


def live_patches() -> int:
    """Number of library attributes currently replaced by a wrapper."""
    return len(_live)


def _original(owner, name: str):
    return owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)


def _patch(owner, name: str, wrapper) -> None:
    _live.append((owner, name, _original(owner, name)))
    setattr(owner, name, wrapper)


def _unpatch_all() -> None:
    while _live:
        owner, name, original = _live.pop()
        setattr(owner, name, original)


def _subclasses(cls) -> list:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def _bound_everywhere(fn) -> list:
    """Every ``(module, name)`` of the library that binds ``fn``.

    ``from x import f`` copies the reference, so a module-level function
    is replaced in each namespace that imported it.
    """
    hits = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not modname.startswith("repro"):
            continue
        for name, value in list(vars(mod).items()):
            if value is fn:
                hits.append((mod, name))
    return hits


@functools.cache
def boundaries() -> tuple[tuple[object, str, str], ...]:
    """``(owner, attribute, layer)`` for every wrapped entry point.

    Imports the modules the workloads use first, so every concrete
    protocol class is visible to the subclass walk.  Computed once per
    process: a pool worker opens a session per chaos cell.
    """
    import repro.core.slt as slt
    import repro.covers.tree_cover as tree_cover
    import repro.experiments.chaos  # noqa: F401  (registers protocol classes)
    import repro.graphs.cache as cache
    import repro.graphs.mst as mst
    import repro.graphs.params as params
    import repro.graphs.paths as paths
    import repro.protocols.spt_synch  # noqa: F401
    import repro.synch.gamma_w as gamma_w
    import repro.synch.partition as partition
    from repro.faults.plan import FaultPlan
    from repro.faults.transport import ReliableProcess
    from repro.sim.delays import DelayModel
    from repro.sim.events import EventQueue
    from repro.sim.metrics import Metrics
    from repro.sim.network import Network
    from repro.sim.process import Process
    from repro.sim.sync_runner import SynchronousProtocol

    out: list[tuple[object, str, str]] = [
        (EventQueue, name, "events")
        for name in ("run", "step", "schedule", "schedule_at",
                     "schedule_call", "schedule_call_at")
    ]
    out += [
        (Network, "__init__", "network.init"),
        (Network, "run", "network.run"),
        (Process, "send", "network.send"),
        (Metrics, "record_message", "metrics"),
        (Metrics, "record_fault", "metrics"),
        (FaultPlan, "fate", "faults"),
        (gamma_w.GammaWConfig, "__init__", "covers"),
    ]
    out += [(cls, "delay", "delays") for cls in _subclasses(DelayModel)
            if "delay" in cls.__dict__ and cls is not DelayModel]
    for cls in _subclasses(Process):
        layer = "faults" if issubclass(cls, ReliableProcess) else "handlers"
        names = ("on_start", "on_message", "on_recover")
        if layer == "faults":
            names += ("_check_ack",)  # retransmission timers
        out += [(cls, name, layer) for name in names
                if name in cls.__dict__ and cls is not Process]
    out += [(cls, "on_pulse", "handlers")
            for cls in _subclasses(SynchronousProtocol)
            if "on_pulse" in cls.__dict__ and cls is not SynchronousProtocol]
    out += [(cache.GraphParamCache, name, "graphs")
            for name in ("csr", "npg", "flat", "publish", "sssp",
                         "eccentricities", "eccentricity", "diameter",
                         "max_neighbor_distance", "mst", "mst_weight",
                         "is_connected", "network_params", "stats")]
    functions = [
        (params.network_params, "graphs"),
        (paths.dijkstra, "graphs"),
        (paths.shortest_path, "graphs"),
        (mst.prim_mst, "graphs"),
        (mst.kruskal_mst, "graphs"),
        (tree_cover.build_tree_edge_cover, "covers"),
        (partition.build_partition, "covers"),
        (slt.shallow_light_tree, "covers"),
    ]
    for fn, layer in functions:
        out += [(mod, name, layer) for mod, name in _bound_everywhere(fn)]
    return tuple(out)


class TraceSession:
    """Records spans at every layer boundary while installed.

    Use as a context manager around traced work; call :meth:`instance`
    around each benchmark instance so its spans share an instance id and
    hang under one root span.  Besides spans it counts what the per-layer
    metrics need: the distinct timestamps each event queue was asked to
    schedule, and every :class:`GraphParamCache` the instance touched.
    """

    def __init__(self) -> None:
        # One entry per span; ``kind`` indexes ``kinds``, the wrapped
        # boundaries as (layer, attribute) pairs.
        self.kind = array("h")
        self.parent = array("l")
        self.inst = array("l")
        self.start = array("d")
        self.end = array("d")
        self.kinds: list[tuple[str, str]] = [("instance", "instance")]
        self.instance_names: list[str] = []
        self.scheduled = 0
        self._whens: dict[int, set] = {}
        self.queues: list = []
        self.caches: dict[int, object] = {}
        self._stack = [-1]
        self._inst = -1

    # -- installation ----------------------------------------------------- #

    def __enter__(self) -> TraceSession:
        if _live:
            raise RuntimeError("another trace session is installed")
        try:
            for owner, name, layer in boundaries():
                _patch(owner, name,
                       self._wrap(_original(owner, name), owner, layer, name))
        except BaseException:
            _unpatch_all()
            raise
        return self

    def __exit__(self, *exc) -> None:
        _unpatch_all()

    def _wrap(self, fn, owner, layer: str, name: str):
        kid = len(self.kinds)
        self.kinds.append((layer, name))
        stack = self._stack
        kind_a, parent_a, inst_a = self.kind, self.parent, self.inst
        start_a, end_a = self.start, self.end
        session = self
        extra = None
        if layer == "events" and name.startswith("schedule"):
            extra = self._note_schedule(name)
        elif layer == "graphs" and isinstance(owner, type):
            caches = self.caches

            def extra(args):
                caches[id(args[0])] = args[0]  # the GraphParamCache itself

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if extra is not None:
                extra(args)
            idx = len(start_a)
            kind_a.append(kid)
            parent_a.append(stack[-1])
            inst_a.append(session._inst)
            end_a.append(0.0)
            stack.append(idx)
            start_a.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end_a[idx] = perf_counter()
                stack.pop()

        return wrapper

    def _note_schedule(self, name: str):
        whens = self._whens
        queues = self.queues
        session = self
        relative = name in ("schedule", "schedule_call")

        def note(args):
            q = args[0]
            when = q.now + args[1] if relative else args[1]
            session.scheduled += 1
            s = whens.get(id(q))
            if s is None:
                # The queue stays referenced, so its id is never reused.
                s = whens[id(q)] = set()
                queues.append((session._inst, q))
            s.add(when)

        return note

    # -- instances -------------------------------------------------------- #

    def instance(self, name: str, fn, *args):
        """Run ``fn(*args)`` as one instance under a root span."""
        self._inst = len(self.instance_names)
        self.instance_names.append(name)
        idx = len(self.start)
        self.kind.append(0)
        self.parent.append(-1)
        self.inst.append(self._inst)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        try:
            return fn(*args)
        finally:
            self.end[idx] = perf_counter()
            self._stack.pop()
            self._inst = -1

    # -- folding ---------------------------------------------------------- #

    def fold(self) -> dict:
        """Per-layer self seconds, root seconds and counters of the session.

        A ``network.send`` span directly under another one is not counted
        as a call: the reliable transport frames a protocol's send and
        sends the frame through ``Process.send`` again, and that is one
        transmission.  Its time still counts towards the layer.
        """
        n = len(self.start)
        parent = self.parent
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        layer_of = [_LAYER_ID[layer] for layer, _ in self.kinds]
        self_s = [0.0] * len(LAYERS)
        calls = [0] * len(self.kinds)
        kind = self.kind
        root_s = 0.0
        send = _LAYER_ID["network.send"]
        for i in range(n):
            k = kind[i]
            p = parent[i]
            if not (layer_of[k] == send and p >= 0
                    and layer_of[kind[p]] == send):
                calls[k] += 1
            self_s[layer_of[k]] += dur[i] - child[i]
            if parent[i] < 0:
                root_s += dur[i]
        distinct = sum(len(s) for s in self._whens.values())
        fired = [0] * len(self.instance_names)
        for inst, q in self.queues:
            if inst >= 0:
                fired[inst] += q.fired
        # The counters are read as attributes: ``stats()`` also reports the
        # shared-memory transport, and its availability probe creates a
        # segment, which starts a resource-tracker process that outlives
        # the benchmark.
        hits = misses = builds = 0
        for c in self.caches.values():
            hits += c.hits
            misses += c.misses
            builds += c.csr_builds + c.flat_builds + c.np_builds
        by_kind: dict[str, int] = defaultdict(int)
        for (layer, name), c in zip(self.kinds, calls, strict=True):
            by_kind[f"{layer}:{name}"] += c
        return {
            "spans": n,
            "root_s": root_s,
            "self_s": dict(zip(LAYERS, self_s, strict=True)),
            "calls": dict(by_kind),
            "scheduled": self.scheduled,
            "distinct_when": distinct,
            "fired": sum(fired),
            "fired_by_instance": fired,
            "cache_hits": hits,
            "cache_misses": misses,
            "snapshot_builds": builds,
        }


def merge_folds(folds: list[dict]) -> dict:
    """Sum folded sessions (e.g. one per pool cell)."""
    out: dict = {"spans": 0, "root_s": 0.0, "self_s": dict.fromkeys(LAYERS, 0.0),
                 "calls": defaultdict(int), "scheduled": 0, "distinct_when": 0,
                 "fired": 0, "fired_by_instance": [], "cache_hits": 0,
                 "cache_misses": 0, "snapshot_builds": 0}
    for f in folds:
        for key in ("spans", "root_s", "scheduled", "distinct_when", "fired",
                    "cache_hits", "cache_misses", "snapshot_builds"):
            out[key] += f[key]
        out["fired_by_instance"] += f["fired_by_instance"]
        for name, s in f["self_s"].items():
            out["self_s"][name] += s
        for name, c in f["calls"].items():
            out["calls"][name] += c
    out["calls"] = dict(out["calls"])
    return out


class QueueCapture:
    """Collects every :class:`EventQueue` built while installed.

    The untimed count pass uses it to read ``EventQueue.fired`` of runs
    whose queue the library does not hand back (chaos cells).  It wraps
    only the constructor, never a per-event path.
    """

    def __init__(self) -> None:
        self.queues: list = []

    def __enter__(self) -> QueueCapture:
        from repro.sim.events import EventQueue

        if _live:
            raise RuntimeError("another trace session is installed")
        original = EventQueue.__dict__["__init__"]
        queues = self.queues

        @functools.wraps(original)
        def init(q, *args, **kwargs):
            original(q, *args, **kwargs)
            queues.append(q)

        _patch(EventQueue, "__init__", init)
        return self

    def __exit__(self, *exc) -> None:
        _unpatch_all()

    def fired(self) -> int:
        return sum(q.fired for q in self.queues)
