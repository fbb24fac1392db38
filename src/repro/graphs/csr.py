"""The graph snapshot and its kernels.

The dict-of-dicts :class:`~repro.graphs.weighted_graph.WeightedGraph` is
the right *mutation* structure, but its traversal API pays a dict copy
per neighborhood visit, boxed-key hashing per relaxation, and per-call
allocation — the dominant cost of the paper's weighted parameters
(script-V via MST, script-D via all-pairs eccentricities, ``d`` via the
max neighbor distance), which each need ``n`` Dijkstra runs or a
whole-graph edge scan.

:class:`FlatGraph` freezes one version of a graph in compressed sparse
row form, held in exactly three flat C buffers: ``indptr`` (int64,
``n + 1``), ``indices`` (int64, ``2m``) and ``weights`` (float64,
``2m``).  Vertices are dense indices ``0..n-1`` in insertion order and
each row lists its neighbors in insertion order, so every kernel below
replays the dict path's iteration order exactly.  The same buffers are:

* what :mod:`repro.graphs.shm` copies into a shared-memory segment and
  re-views zero-copy in pool workers;
* what the streamed generators (:func:`edges_to_flat`) fill without ever
  building the dict graph — the only way the lower-bound families fit
  in memory at n = 10^6;
* what numpy reads through ``np.frombuffer`` (:meth:`FlatGraph.arrays`).

A snapshot built from a ``WeightedGraph`` (:meth:`FlatGraph.from_graph`)
also carries the vertex interning and per-row ``(neighbor, weight)``
pairs holding the *original* weight objects, which the dict views need:
:func:`sssp_maps`, :func:`csr_prim_mst` and :func:`csr_kruskal_mst`
return vertex-keyed results byte-identical to the dict algorithms (same
values, tie-breaking, insertion order, and ``int`` weights stay
``int``).  Streamed snapshots carry no per-vertex Python objects; their
rows are read off the buffers as they are visited.

Regime rule
-----------
:func:`source_scan` — eccentricities, diameter, ``d`` and the sweep
digest over a range of sources — is the one kernel with two
implementations, and the graph picks between them
(:func:`_fw_applicable`): an int32 Floyd–Warshall when the weights are
integral, every distance fits int32, and the graph is small or dense;
the Python Dial/heap loop otherwise.  Both are value-identical to the
dict oracle bit-for-bit: Floyd–Warshall runs only in exact integer
arithmetic, where min-plus closure gives the true distances regardless
of summation order and those integers convert to float64 exactly; the
Python loop computes the left-to-right IEEE sums the oracle computes.

Snapshots of a live graph are versioned: :class:`repro.graphs.cache.
GraphParamCache` builds one per ``WeightedGraph.version`` and drops it on
mutation, so a stale snapshot is impossible through the public API.
"""

from __future__ import annotations

import hashlib
import heapq
from array import array
from typing import Any, NamedTuple

import numpy as np

from .weighted_graph import Vertex, WeightedGraph

__all__ = [
    "FlatGraph",
    "FlatArrays",
    "edges_to_flat",
    "SourceScan",
    "source_scan",
    "sssp_maps",
    "csr_prim_mst",
    "csr_kruskal_mst",
    "flat_stripe_stats",
    "backend_info",
]

_INF = float("inf")

# Largest distance bound (n-1)*wmax + 1 the Dial scan accepts: it steps
# through every distance up to the eccentricity, so heavy-weight integral
# families — the paper's lower-bound graphs G_n carry bypass edges of
# weight X^4 with X = n + 1 — would otherwise walk billions of empty
# buckets.  Past the cap the scan uses the heap discipline, which is
# value-identical in every weight regime.
_DIAL_BOUND_CAP = 1 << 22

# Dense-regime Floyd–Warshall.  The n x n int32 matrix stays
# cache-resident up to _FW_MAX_N (~1.1 ns per element on one core), so an
# n-pass min-plus closure beats the per-source Python loop whenever the
# graph carries enough edges per vertex (or is small enough that n^3 is
# cheap regardless).  The sentinel is chosen so SENTINEL + SENTINEL still
# fits in int32: no overflow wraps a "still infinite" candidate below a
# real distance.
_FW_SENTINEL = (1 << 30) - 1
_FW_MAX_N = 2048
_FW_SMALL_N = 512
_FW_DENSE_FACTOR = 64


class FlatArrays(NamedTuple):
    """Numpy views of a snapshot's slots (``edge_u[j]`` is slot j's row)."""

    indices: Any
    weights: Any
    edge_u: Any


class _BufferRows:
    """``rows[u]``: vertex u's ``(neighbor, weight)`` pairs, read on access.

    Streamed snapshots hold no per-vertex Python objects, so kernels zip
    each row off the buffers as they visit it.
    """

    __slots__ = ("indptr", "indices", "weights")

    def __init__(self, indptr: Any, indices: Any, weights: Any) -> None:
        self.indptr = indptr
        self.indices = indices
        self.weights = weights

    def __getitem__(self, u: int) -> Any:
        a = self.indptr[u]
        b = self.indptr[u + 1]
        # Equal-length slices by construction; strict=True costs a third
        # of a streamed scan's wall time.
        return zip(self.indices[a:b], self.weights[a:b], strict=False)


def _byte_view(buf: Any) -> memoryview:
    """A flat unsigned-byte view over an ``array``/``memoryview`` buffer."""
    return memoryview(buf).cast("B")


class FlatGraph:
    """An immutable CSR snapshot of one graph version in flat C buffers.

    ``indptr``/``indices``/``weights`` are either ``array.array`` (local
    build) or typed ``memoryview`` casts over a shared segment (attach
    path); both index to plain Python ints/floats, so every kernel runs
    on either backing unchanged.

    ``integral`` is set when every weight is a non-negative integer (the
    paper's ``W = poly(n)`` regime and every generator in this repo) and
    ``wmax`` is the largest weight.  ``spec`` is an optional picklable
    rebuild recipe (``repro.graphs.shm.build_spec``) used when a worker
    cannot attach the shared segment.  ``version`` mirrors
    ``WeightedGraph.version`` for snapshots of a live graph (0 for
    streamed builds, which have no mutable source).

    ``verts`` (dense index -> vertex) and ``index`` (vertex -> dense
    index) are set only by :meth:`from_graph`; so are the materialized
    ``rows``.  :meth:`arrays` and :meth:`int_rows` are built on first use
    and memoized.
    """

    __slots__ = (
        "n", "indptr", "indices", "weights", "integral", "wmax", "spec",
        "version", "verts", "index", "_rows", "_irows", "_arrays", "_fp",
    )

    def __init__(
        self,
        n: int,
        indptr: Any,
        indices: Any,
        weights: Any,
        *,
        integral: bool,
        wmax: float,
        spec: tuple[Any, ...] | None = None,
        version: int = 0,
    ) -> None:
        if len(indptr) != n + 1:
            raise ValueError(f"indptr must have n+1={n + 1} entries, got {len(indptr)}")
        m2 = int(indptr[n]) if n else 0
        if len(indices) != m2 or len(weights) != m2:
            raise ValueError(
                f"indices/weights must have indptr[-1]={m2} entries, "
                f"got {len(indices)}/{len(weights)}"
            )
        self.n = n
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.integral = integral
        self.wmax = wmax
        self.spec = spec
        self.version = version
        self.verts: list[Vertex] | None = None
        self.index: dict[Vertex, int] | None = None
        self._rows: Any = None
        self._irows: Any = None
        self._arrays: FlatArrays | None = None
        self._fp: str | None = None

    @classmethod
    def from_graph(cls, graph: WeightedGraph) -> FlatGraph:
        """Snapshot ``graph`` at its current version, with vertex interning.

        Buffers are byte-identical to a streamed build of the same graph
        (same dense indexing, adjacency order and weight floats), so the
        :attr:`fingerprint` matches too.
        """
        verts = graph.vertices
        index = {v: i for i, v in enumerate(verts)}
        rows = [
            [(index[u], w) for u, w in graph.neighbor_weights(v).items()]
            for v in verts
        ]
        indptr = array("q", [0])
        total = 0
        for row in rows:
            total += len(row)
            indptr.append(total)
        raw = [w for row in rows for _v, w in row]
        integral = True
        wmax = 0
        for w in raw:
            if w != int(w) or w < 0:
                integral = False
                break
            if w > wmax:
                wmax = int(w)
        flat = cls(
            len(verts),
            indptr,
            array("q", [v for row in rows for v, _w in row]),
            array("d", raw),
            integral=integral,
            wmax=float(wmax) if integral else float(max(raw)),
            version=graph.version,
        )
        flat.verts = verts
        flat.index = index
        flat._rows = rows
        return flat

    @property
    def m2(self) -> int:
        """Directed slot count (each undirected edge appears twice)."""
        return len(self.indices)

    @property
    def m(self) -> int:
        return self.m2 // 2

    @property
    def nbytes(self) -> int:
        """Total payload bytes across the three buffers."""
        return 8 * (self.n + 1 + 2 * self.m2)

    @property
    def rows(self) -> Any:
        """``rows[u]`` iterates vertex u's ``(neighbor, weight)`` pairs.

        Original weight objects for :meth:`from_graph` snapshots, float64
        buffer values for streamed ones.
        """
        if self._rows is None:
            self._rows = _BufferRows(self.indptr, self.indices, self.weights)
        return self._rows

    def int_rows(self) -> Any:
        """:attr:`rows` with ``int`` weights, for the Dial bucket queue.

        Only meaningful when :attr:`integral`; integer distance sums below
        2**53 are exact in float, so Dial's results are bit-equal to the
        heap's.
        """
        if self._irows is None:
            rows = self.rows
            if isinstance(rows, _BufferRows):
                iw = array("q")
                iw.frombytes(self.arrays().weights.astype(np.int64).tobytes())
                self._irows = _BufferRows(self.indptr, self.indices, iw)
            elif all(type(w) is int for row in rows for _v, w in row):
                self._irows = rows
            else:
                self._irows = [[(v, int(w)) for v, w in row] for row in rows]
        return self._irows

    def arrays(self) -> FlatArrays:
        """Zero-copy numpy views of the buffers (plus the slot -> row map)."""
        if self._arrays is None:
            indptr = np.frombuffer(self.indptr, dtype=np.int64)
            self._arrays = FlatArrays(
                np.frombuffer(self.indices, dtype=np.int64),
                np.frombuffer(self.weights, dtype=np.float64),
                np.repeat(np.arange(self.n, dtype=np.int64), np.diff(indptr)),
            )
        return self._arrays

    def buffers(self) -> tuple[memoryview, memoryview, memoryview]:
        """Byte views of ``(indptr, indices, weights)`` — the shm payload."""
        return (
            _byte_view(self.indptr),
            _byte_view(self.indices),
            _byte_view(self.weights),
        )

    @property
    def fingerprint(self) -> str:
        """16-hex sha256 over the header and all three buffers.

        Content-addressed and backing-independent: a streamed build, a
        :meth:`from_graph` snapshot, and a shared-memory attachment of the
        same graph all report the same fingerprint.  Computed once.
        """
        if self._fp is None:
            h = hashlib.sha256()
            h.update(
                f"flat|n={self.n}|m2={self.m2}|integral={int(self.integral)}"
                f"|wmax={self.wmax!r}".encode()
            )
            for view in self.buffers():
                h.update(view)
            self._fp = h.hexdigest()[:16]
        return self._fp

    def __repr__(self) -> str:
        return (
            f"FlatGraph(n={self.n}, m={self.m}, integral={self.integral}, "
            f"nbytes={self.nbytes})"
        )


def edges_to_flat(
    n: int,
    us: Any,
    vs: Any,
    ws: Any,
    *,
    integral: bool,
    wmax: float,
    spec: tuple[Any, ...] | None = None,
) -> FlatGraph:
    """Build a :class:`FlatGraph` from parallel edge arrays in O(m log m).

    ``us``/``vs`` are dense endpoint indices (int64 buffers) and ``ws``
    the weights (float64) of the undirected edge list *in insertion
    order*.  Placement replays the dict-of-dicts adjacency order exactly:
    ``WeightedGraph.add_edge`` appends to both endpoints' neighbor dicts
    at edge-add time, so vertex ``i``'s row must list its incident edges
    in edge-index order — which a stable lexsort keyed ``(src, edge
    index)`` produces.
    """
    e_cnt = len(us)
    if len(vs) != e_cnt or len(ws) != e_cnt:
        raise ValueError("us/vs/ws must have equal lengths")
    u_arr = np.frombuffer(us, dtype=np.int64)
    v_arr = np.frombuffer(vs, dtype=np.int64)
    w_arr = np.frombuffer(ws, dtype=np.float64)
    src = np.concatenate([u_arr, v_arr])
    tag = np.arange(e_cnt, dtype=np.int64)
    # Primary key src, secondary the edge index: both half-edges of one
    # edge land in distinct rows, so the tag tie never fires within a
    # pair and rows come out in edge-insertion order.
    order = np.lexsort((np.concatenate([tag, tag]), src))
    indptr_np = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr_np[1:])
    indptr = array("q")
    indptr.frombytes(indptr_np.tobytes())
    indices = array("q")
    indices.frombytes(np.concatenate([v_arr, u_arr])[order].tobytes())
    weights = array("d")
    weights.frombytes(np.concatenate([w_arr, w_arr])[order].tobytes())
    return FlatGraph(
        n, indptr, indices, weights, integral=integral, wmax=wmax, spec=spec,
    )


def backend_info() -> dict[str, Any]:
    """Diagnostics: how kernels are chosen, and the numpy version."""
    return {"resolved": "by-graph", "numpy": str(np.__version__)}


def _graph_view(flat: FlatGraph) -> tuple[list[Vertex], Any]:
    if flat.verts is None:
        raise ValueError("streamed snapshot has no vertex interning")
    return flat.verts, flat.rows


# --------------------------------------------------------------------- #
# Shortest paths
# --------------------------------------------------------------------- #


def sssp_maps(
    flat: FlatGraph, source: Vertex
) -> tuple[dict[Vertex, float], dict[Vertex, Vertex | None]]:
    """One source's ``(dist, parent)`` as vertex-keyed dicts.

    Byte-compatible with :func:`repro.graphs.paths.dijkstra`: the
    tie-breaking counter replays it push-for-push, so values, the
    reachable set, parent choices and the dict insertion order
    (first-discovery order) are all identical.
    """
    verts, rows = _graph_view(flat)
    assert flat.index is not None
    s = flat.index.get(source)
    if s is None:
        raise KeyError(f"source {source!r} not in graph")
    dist = [_INF] * flat.n
    parent = [-1] * flat.n
    order = [s]
    dist[s] = 0.0
    push = heapq.heappush
    pop = heapq.heappop
    tie = 1
    heap: list[tuple[float, int, int]] = [(0.0, 0, s)]
    while heap:
        d, _, u = pop(heap)
        if d > dist[u]:
            continue  # stale entry; u was settled at a smaller distance
        for v, w in rows[u]:
            nd = d + w
            dv = dist[v]
            if nd < dv:
                if dv == _INF:
                    order.append(v)
                dist[v] = nd
                parent[v] = u
                push(heap, (nd, tie, v))
                tie += 1
    dist_map: dict[Vertex, float] = {}
    parent_map: dict[Vertex, Vertex | None] = {}
    for i in order:
        v = verts[i]
        dist_map[v] = dist[i]
        p = parent[i]
        parent_map[v] = verts[p] if p >= 0 else None
    return dist_map, parent_map


class SourceScan(NamedTuple):
    """What one sweep over the sources ``lo..hi-1`` yields."""

    ecc: list[float]        # per source; inf when it misses some vertex
    reach_min: int          # fewest vertices any source reached (0 if none)
    max_neighbor_distance: float  # max dist(s, v) over edges (s, v), s swept
    digest: str | None      # 16-hex sha256 of the float64 distance rows

    @property
    def diameter(self) -> float:
        return max(self.ecc, default=0.0)


def _fw_applicable(flat: FlatGraph) -> bool:
    """True when the all-sources scan should run int32 Floyd–Warshall.

    Requires integral weights with every distance (and every sentinel
    sum) representable in int32, and a shape where n^3 wins: small
    graphs unconditionally, larger ones only when the edge count clears
    ``n^2 / _FW_DENSE_FACTOR`` (the Python loop's work scales with m, not
    n^2).  Fractional weights never qualify: min-plus closure associates
    path sums differently than the oracle's left-to-right order, which
    only exact arithmetic makes harmless.
    """
    n = flat.n
    if not flat.integral or n < 2 or n > _FW_MAX_N:
        return False
    if (n - 1) * int(flat.wmax) + 1 > _FW_SENTINEL:
        return False
    return n <= _FW_SMALL_N or flat.m2 * _FW_DENSE_FACTOR >= n * n


def source_scan(
    flat: FlatGraph, lo: int = 0, hi: int | None = None, *, digest: bool = False
) -> SourceScan:
    """Eccentricities, reach, ``d`` and (optionally) a digest over sources.

    Covers sources ``lo..hi-1`` (all of them by default).  ``digest``
    hashes the concatenated float64 distance rows (``inf`` where
    unreached) byte-for-byte: both implementations produce the same
    bytes, so equal digests prove equal distances without shipping any.
    Floyd–Warshall computes every row at once, so it runs only when the
    range covers all sources and :func:`_fw_applicable` holds.
    """
    n = flat.n
    if hi is None:
        hi = n
    if not 0 <= lo <= hi <= n:
        raise IndexError(f"source range [{lo}, {hi}) out of bounds 0..{n}")
    if lo == 0 and hi == n and _fw_applicable(flat):
        return _fw_scan(flat, digest)
    return _python_scan(flat, lo, hi, digest)


def _fw_scan(flat: FlatGraph, digest: bool = False) -> SourceScan:
    """All sources via in-place int32 Floyd–Warshall (exact integer regime)."""
    n = flat.n
    a = flat.arrays()
    dist = np.full((n, n), _FW_SENTINEL, dtype=np.int32)
    dist[a.edge_u, a.indices] = a.weights.astype(np.int32)
    np.fill_diagonal(dist, 0)
    for k in range(n):
        np.minimum(dist, dist[:, k, None] + dist[k, None, :], out=dist)
    reached = dist < _FW_SENTINEL
    reach = reached.sum(axis=1)
    ecc = np.where(reach == n, dist.max(axis=1).astype(np.float64), np.inf)
    max_nbr = float(dist[a.edge_u, a.indices].max()) if flat.m2 else 0.0
    hexdigest = None
    if digest:
        rows = dist.astype(np.float64)
        rows[~reached] = np.inf
        hexdigest = hashlib.sha256(rows.tobytes()).hexdigest()[:16]
    return SourceScan(ecc.tolist(), int(reach.min()), max_nbr, hexdigest)


def _python_scan(
    flat: FlatGraph, lo: int, hi: int, digest: bool = False
) -> SourceScan:
    """Sources ``lo..hi-1`` one at a time: Dial buckets or a binary heap.

    Nothing here exposes parents or discovery order, and final distances
    are canonical under any tie-breaking, so the loop skips the replay
    bookkeeping :func:`sssp_maps` keeps.  The eccentricity is the last
    settled distance (pops are monotone).  Two queue disciplines, same
    results bit-for-bit:

    * integral weights whose distances stay below
      :data:`_DIAL_BOUND_CAP`: a Dial bucket queue over exact ints — O(1)
      appends per relaxation into ``wmax + 1`` circular buckets (every
      pending distance lies in ``[d, d + wmax]``), recycled across
      sources;
    * fractional weights, or integral weights too heavy to bucket: a
      binary heap of bare ``(d, v)`` pairs.
    """
    n = flat.n
    h = hashlib.sha256() if digest else None
    ecc: list[float] = []
    reach_min = n if hi > lo else 0
    max_nbr = 0.0
    bound = max(1, (n - 1) * int(flat.wmax) + 1) if flat.integral and n else 0
    if 0 < bound <= _DIAL_BOUND_CAP:
        rows = flat.int_rows()
        span = int(flat.wmax) + 1
        buckets: list[list[int]] = [[] for _ in range(span)]
        dist: list[Any] = [bound] * n  # bound acts as the integer infinity
        unreached = bound
        imax_nbr = 0
        for s in range(lo, hi):
            touched = [s]
            touch = touched.append
            dist[s] = 0
            buckets[0].append(s)
            pending = 1
            far = 0
            d = 0
            while pending:
                b = buckets[d % span]
                if b:
                    # A zero-weight relaxation appends to b mid-loop; the
                    # list iterator picks it up, so the whole same-distance
                    # closure settles in this pass and len(b) afterwards
                    # counts every consumed entry.
                    for u in b:
                        if dist[u] != d:
                            continue  # superseded by a shorter relaxation
                        far = d
                        for v, w in rows[u]:
                            nd = d + w
                            if nd < dist[v]:
                                if dist[v] == bound:
                                    touch(v)
                                dist[v] = nd
                                buckets[nd % span].append(v)
                                pending += 1
                    pending -= len(b)
                    b.clear()
                d += 1
            for v, _w in rows[s]:
                if dist[v] > imax_nbr:
                    imax_nbr = dist[v]
            _fold_source(ecc, touched, float(far), n, dist, unreached, h)
            reach_min = min(reach_min, len(touched))
        max_nbr = float(imax_nbr)
    else:
        rows = flat.rows
        push = heapq.heappush
        pop = heapq.heappop
        dist = [_INF] * n
        unreached = _INF
        for s in range(lo, hi):
            touched = [s]
            touch = touched.append
            dist[s] = 0.0
            fard = 0.0
            heap: list[tuple[float, int]] = [(0.0, s)]
            while heap:
                dd, u = pop(heap)
                if dd > dist[u]:
                    continue
                fard = dd  # pops are monotone: the last settled d is the max
                for v, w in rows[u]:
                    nd = dd + w
                    dv = dist[v]
                    if nd < dv:
                        if dv == _INF:
                            touch(v)
                        dist[v] = nd
                        push(heap, (nd, v))
            for v, _w in rows[s]:
                if dist[v] > max_nbr:
                    max_nbr = dist[v]
            _fold_source(ecc, touched, fard, n, dist, unreached, h)
            reach_min = min(reach_min, len(touched))
    return SourceScan(
        ecc, reach_min, max_nbr, None if h is None else h.hexdigest()[:16],
    )


def _fold_source(
    ecc: list[float], touched: list[int], far: float, n: int,
    dist: list[Any], unreached: Any, h: Any,
) -> None:
    """Record one source's eccentricity and digest row; reset ``dist``."""
    complete = len(touched) == n
    ecc.append(far if complete else _INF)
    if h is not None:
        if complete:
            h.update(array("d", dist))
        else:
            row = array("d", [_INF]) * n
            for i in touched:
                row[i] = dist[i]
            h.update(row)
    for i in touched:
        dist[i] = unreached


# --------------------------------------------------------------------- #
# Minimum spanning trees
# --------------------------------------------------------------------- #


def csr_prim_mst(flat: FlatGraph, root: int = 0) -> WeightedGraph:
    """Prim over the snapshot rows; byte-identical to ``prim_mst_dicts``.

    The tie counter advances push-for-push with the dict implementation
    (root adjacency first, then each newly added vertex's non-tree
    neighbors in adjacency order), so equal-weight choices, the tree's
    edge insertion order, and therefore ``total_weight()`` rounding are
    all bit-equal; tree edges carry the original weight objects.  Raises
    ``ValueError`` on a disconnected graph.
    """
    n = flat.n
    if n == 0:
        return WeightedGraph()
    verts, rows = _graph_view(flat)
    push = heapq.heappush
    pop = heapq.heappop
    in_tree = bytearray(n)
    in_tree[root] = 1
    tree = WeightedGraph(vertices=[verts[root]])
    add_edge = tree.add_edge
    tie = 0
    heap: list[tuple[Any, int, int, int]] = []
    for v, w in rows[root]:
        push(heap, (w, tie, root, v))
        tie += 1
    added = 1
    while heap:
        w, _, u, v = pop(heap)
        if in_tree[v]:
            continue
        in_tree[v] = 1
        added += 1
        add_edge(verts[u], verts[v], w)
        for x, wx in rows[v]:
            if not in_tree[x]:
                push(heap, (wx, tie, v, x))
                tie += 1
    if added != n:
        raise ValueError("graph is not connected; MST undefined")
    return tree


def csr_kruskal_mst(flat: FlatGraph) -> WeightedGraph:
    """Kruskal over the snapshot's edges; byte-identical to the dict path.

    ``graph.edges()`` yields each edge at the row of whichever endpoint
    was inserted first, i.e. exactly the slots whose neighbor index
    exceeds the row index, in slot order.  A stable sort by weight keeps
    that order among equal weights — what ``sorted(graph.edges(),
    key=weight)`` yields — and the int-indexed union-find admits the same
    edges, so the tree matches :func:`repro.graphs.mst.kruskal_mst_dicts`
    edge-for-edge.
    """
    n = flat.n
    verts, rows = _graph_view(flat)
    es: list[int] = []
    ed: list[int] = []
    ew: list[Any] = []
    for u in range(n):
        for v, w in rows[u]:
            if v > u:
                es.append(u)
                ed.append(v)
                ew.append(w)
    tree = WeightedGraph(vertices=verts)
    add_edge = tree.add_edge
    uf_parent = list(range(n))
    uf_rank = [0] * n
    added = 0
    for j in sorted(range(len(ew)), key=ew.__getitem__):
        # find(u), find(v) with path compression, inline and iterative.
        ru = es[j]
        while uf_parent[ru] != ru:
            ru = uf_parent[ru]
        x = es[j]
        while uf_parent[x] != ru:
            uf_parent[x], x = ru, uf_parent[x]
        rv = ed[j]
        while uf_parent[rv] != rv:
            rv = uf_parent[rv]
        x = ed[j]
        while uf_parent[x] != rv:
            uf_parent[x], x = rv, uf_parent[x]
        if ru == rv:
            continue
        if uf_rank[ru] < uf_rank[rv]:
            ru, rv = rv, ru
        uf_parent[rv] = ru
        if uf_rank[ru] == uf_rank[rv]:
            uf_rank[ru] += 1
        add_edge(verts[es[j]], verts[ed[j]], ew[j])
        added += 1
    if added != n - 1 and n > 0:
        raise ValueError("graph is not connected; MST undefined")
    return tree


# --------------------------------------------------------------------- #
# Sweep cells
# --------------------------------------------------------------------- #


def flat_stripe_stats(flat: FlatGraph, lo: int, hi: int) -> dict[str, Any]:
    """Local adjacency stats for the vertex stripe ``lo..hi-1``.

    O(stripe edges), zero-copy: reads the three buffers directly (byte
    slices feed the digest, a typed view feeds the float accumulators)
    and never materializes per-vertex structures — so stripe sweeps
    exercise pure snapshot-attachment overhead, which is what the
    one-build-per-sweep acceptance counter measures.
    """
    n = flat.n
    if not 0 <= lo <= hi <= n:
        raise IndexError(f"vertex range [{lo}, {hi}) out of bounds 0..{n}")
    indptr = flat.indptr
    j0 = int(indptr[lo])
    j1 = int(indptr[hi])
    ipb, idb, wb = flat.buffers()
    h = hashlib.sha256()
    h.update(ipb[8 * lo:8 * (hi + 1)])
    h.update(idb[8 * j0:8 * j1])
    h.update(wb[8 * j0:8 * j1])
    wmax = 0.0
    wsum = 0.0
    wview = memoryview(flat.weights)
    for w in wview[j0:j1]:
        wsum += w
        if w > wmax:
            wmax = w
    return {
        "kind": "stripe",
        "lo": lo,
        "hi": hi,
        "verts": hi - lo,
        "edges": j1 - j0,
        "wmax": wmax,
        "wsum": wsum,
        "digest": h.hexdigest()[:16],
    }
