"""Memoized per-graph network parameters with mutation invalidation.

The paper (Sections 1-2) treats script-V ``w(MST(G))``, script-D
``Diam(G)``, and the shortest-path structure of ``G`` as *fixed per-graph
quantities*, yet every protocol construction and experiment sweep used to
recompute them from scratch on each call — an O(n * m log n) tax per run
that dominated sweep wall time.  :class:`GraphParamCache` memoizes them
per :class:`~repro.graphs.weighted_graph.WeightedGraph` instance and
invalidates automatically when the graph mutates.

The cache owns the graph's one snapshot
(:class:`~repro.graphs.csr.FlatGraph`, built once per graph version) and
computes every parameter through its kernels: per-source shortest paths
via :func:`~repro.graphs.csr.sssp_maps`, eccentricities/diameter/max
neighbor distance via one :func:`~repro.graphs.csr.source_scan` (which
picks Floyd–Warshall or the Python loop from the graph itself), and the
MST via :func:`~repro.graphs.csr.csr_prim_mst`.  Every answer — including
dict insertion order, MST edge order, and float rounding — is
byte-identical to what the dict algorithms return
(``tests/test_csr_kernels.py`` pins this).

Invalidation contract (see docs/PERF.md):

* every mutating ``WeightedGraph`` operation (``add_vertex``,
  ``add_edge``, ``remove_edge``) bumps the graph's ``version`` counter;
* every cache accessor compares the stored version against the graph's
  before answering and wipes all memoized state — including the
  snapshot — on mismatch; a stale answer is therefore impossible as long
  as mutations go through the ``WeightedGraph`` API (mutating ``_adj``
  directly is out of contract);
* cached aggregate values (floats, :class:`NetworkParams`) are immutable
  and safe to share; cached *structures* (the MST tree, shortest-path
  dicts, the snapshot) are shared read-only views — callers must copy
  before mutating.

Counters: each call of a parameter accessor (``sssp``, ``eccentricities``,
``eccentricity``, ``diameter``, ``max_neighbor_distance``, ``mst``,
``mst_weight``, ``is_connected``, ``network_params``) counts exactly one
``miss`` when it has to run a kernel and one ``hit`` when the answer is
already memoized; accessors never count the lookups they make for each
other.

The cache attaches lazily to the graph instance (``param_cache(g)``), so
its lifetime — and memory — is tied to the graph it describes.  Per-source
shortest-path tables are cached only for the sources actually queried;
the whole-graph scan keeps one O(n) result row, never the O(n^2)
distance matrix.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .csr import (
    FlatArrays,
    FlatGraph,
    SourceScan,
    csr_prim_mst,
    source_scan,
    sssp_maps,
)
from .weighted_graph import Vertex, WeightedGraph

if TYPE_CHECKING:  # runtime import is deferred: params imports this module
    from .params import NetworkParams
    from .shm import SnapshotHandle

__all__ = ["GraphParamCache", "param_cache"]


class GraphParamCache:
    """Version-checked memo of one graph's weighted parameters."""

    __slots__ = (
        "graph", "_version", "_flat", "_sssp", "_scan", "_ecc", "_mst",
        "_mst_weight", "_params", "_connected", "hits", "misses",
        "invalidations", "flat_builds",
    )

    # One snapshot per version, counted in ``flat_builds``: the CSR layout
    # and the numpy view are that snapshot, not separate builds.  Both
    # names stay readable (at zero) so a reader summing all three counts
    # every build exactly once.
    csr_builds = 0
    np_builds = 0

    def __init__(self, graph: WeightedGraph) -> None:
        self.graph = graph
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.flat_builds = 0
        self._wipe()
        self._version = graph.version

    # ------------------------------------------------------------------ #
    # Invalidation plumbing
    # ------------------------------------------------------------------ #

    def _wipe(self) -> None:
        self._flat: FlatGraph | None = None
        self._sssp: dict[Vertex, tuple[dict, dict]] = {}
        self._scan: SourceScan | None = None
        self._ecc: dict[Vertex, float] | None = None
        self._mst: WeightedGraph | None = None
        self._mst_weight: float | None = None
        self._params: NetworkParams | None = None
        self._connected: bool | None = None

    def _sync(self) -> None:
        if self._version != self.graph.version:
            self._wipe()
            self._version = self.graph.version
            self.invalidations += 1

    def _count(self, memoized: bool) -> None:
        """Count one accessor call as one hit or one miss (after ``_sync``)."""
        if memoized:
            self.hits += 1
        else:
            self.misses += 1

    # ------------------------------------------------------------------ #
    # The snapshot
    # ------------------------------------------------------------------ #

    def flat(self) -> FlatGraph:
        """The graph's snapshot at its current version.

        Built once per version and shared by every kernel below; treat it
        as read-only (it is immutable by construction).  It is also what
        :meth:`publish` ships into a shared-memory segment: a published
        handle for a mutated graph can never alias stale bytes, because
        re-publishing bumps ``version`` and unlinks the old segment.
        """
        self._sync()
        if self._flat is None:
            self._flat = FlatGraph.from_graph(self.graph)
            self.flat_builds += 1
        return self._flat

    csr = flat  # the snapshot *is* the CSR layout

    def npg(self) -> FlatArrays:
        """Numpy views of the snapshot's buffers (memoized on the snapshot)."""
        return self.flat().arrays()

    def publish(self, key: str | None = None) -> SnapshotHandle:
        """Publish the snapshot for zero-copy pool attachment."""
        from . import shm  # deferred: keep shared-memory optional at import

        return shm.publish(self.flat(), key=key)

    # ------------------------------------------------------------------ #
    # Kernel results (uncounted; shared by the accessors)
    # ------------------------------------------------------------------ #

    def _full_scan(self) -> SourceScan:
        if self._scan is None:
            self._scan = source_scan(self.flat())
        return self._scan

    def _tree(self) -> WeightedGraph:
        if self._mst is None:
            self._mst = csr_prim_mst(self.flat())
        return self._mst

    def _tree_weight(self) -> float:
        if self._mst_weight is None:
            self._mst_weight = self._tree().total_weight()
        return self._mst_weight

    def _is_connected(self) -> bool:
        if self._connected is None:
            self._connected = self.graph.is_connected()
        return self._connected

    # ------------------------------------------------------------------ #
    # Shortest-path structure
    # ------------------------------------------------------------------ #

    def sssp(self, source: Vertex) -> tuple[dict, dict]:
        """Cached ``(dist, parent)`` of a Dijkstra run from ``source``.

        The returned dicts are the cache's own — treat them as read-only
        (use :func:`repro.graphs.paths.dijkstra` for a private copy).
        """
        self._sync()
        self._count(source in self._sssp)
        result = self._sssp.get(source)
        if result is None:
            result = sssp_maps(self.flat(), source)
            self._sssp[source] = result
        return result

    def eccentricities(self) -> dict[Vertex, float]:
        """``Rad(v, G)`` for every vertex (inf where G is disconnected)."""
        self._sync()
        self._count(self._scan is not None)
        if self._ecc is None:
            verts = self.flat().verts
            assert verts is not None
            self._ecc = dict(zip(verts, self._full_scan().ecc, strict=True))
        return self._ecc

    def eccentricity(self, v: Vertex) -> float:
        return self.eccentricities()[v]

    def diameter(self) -> float:
        """script-D — the weighted diameter ``Diam(G)``."""
        self._sync()
        self._count(self._scan is not None)
        return self._full_scan().diameter

    def max_neighbor_distance(self) -> float:
        """``d = max_{(u,v) in E} dist(u, v)`` (clock-sync lower bound)."""
        self._sync()
        self._count(self._scan is not None)
        return self._full_scan().max_neighbor_distance

    # ------------------------------------------------------------------ #
    # Spanning structure
    # ------------------------------------------------------------------ #

    def mst(self) -> WeightedGraph:
        """The memoized MST (read-only; copy before mutating)."""
        self._sync()
        self._count(self._mst is not None)
        return self._tree()

    def mst_weight(self) -> float:
        """script-V — ``w(MST(G))``."""
        self._sync()
        self._count(self._mst is not None)
        return self._tree_weight()

    # ------------------------------------------------------------------ #
    # Aggregates
    # ------------------------------------------------------------------ #

    def is_connected(self) -> bool:
        self._sync()
        self._count(self._connected is not None)
        return self._is_connected()

    def network_params(self) -> NetworkParams:
        """The full :class:`~repro.graphs.params.NetworkParams` record."""
        self._sync()
        self._count(self._params is not None)
        if self._params is not None:
            return self._params
        from .params import NetworkParams  # deferred: params imports us

        if not self._is_connected():
            raise ValueError("network parameters require a connected graph")
        g = self.graph
        scan = self._full_scan()
        self._params = NetworkParams(
            n=g.num_vertices,
            m=g.num_edges,
            E=g.total_weight(),
            V=self._tree_weight(),
            D=scan.diameter,
            W=g.max_weight(),
            d=scan.max_neighbor_distance,
        )
        return self._params

    def stats(self) -> dict:
        """Counters for tests and the bench harness (read-only).

        Includes the process-wide shared-memory snapshot counters
        (``shm_creates`` / ``shm_attaches`` / ``shm_bytes`` ...) so sweep
        call sites read build *and* transport behavior from one place.
        """
        from . import shm  # deferred: keep shared-memory optional at import

        out = {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "flat_builds": self.flat_builds,
            "sssp_sources": len(self._sssp),
        }
        out.update(shm.stats())
        return out


def param_cache(graph: WeightedGraph) -> GraphParamCache:
    """The cache attached to ``graph``, creating it on first use."""
    cache = getattr(graph, "_param_cache", None)
    if cache is None:
        cache = GraphParamCache(graph)
        graph._param_cache = cache
    return cache
