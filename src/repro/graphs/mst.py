"""Minimum spanning trees (snapshot kernels + dict reference).

Used as (a) the preprocessing step of the SLT algorithm (Section 2.2),
(b) the definition of the paper's script-V parameter ``V = w(MST(G))``
(Section 1.3), and (c) a correctness oracle for the distributed MST
protocols of Section 8.

The public entry points (:func:`prim_mst`, :func:`kruskal_mst`,
:func:`minimum_spanning_tree`) route through the kernels in
:mod:`repro.graphs.csr` (snapshot memoized per graph version via
:mod:`repro.graphs.cache`); the output is byte-identical to the original
dict-of-dicts algorithms kept here as :func:`prim_mst_dicts` /
:func:`kruskal_mst_dicts` — the independent reference implementations
the golden and differential tests compare every kernel against.
"""

from __future__ import annotations

import heapq
from itertools import count

from .weighted_graph import Vertex, WeightedGraph

__all__ = [
    "prim_mst",
    "kruskal_mst",
    "prim_mst_dicts",
    "kruskal_mst_dicts",
    "minimum_spanning_tree",
    "mst_weight",
    "UnionFind",
]


class UnionFind:
    """Disjoint-set forest with path compression and union by rank."""

    def __init__(self) -> None:
        self._parent: dict[Vertex, Vertex] = {}
        self._rank: dict[Vertex, int] = {}

    def find(self, x: Vertex) -> Vertex:
        parent = self._parent
        if x not in parent:
            parent[x] = x
            self._rank[x] = 0
            return x
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, x: Vertex, y: Vertex) -> bool:
        """Merge the sets of x and y; return False if already merged."""
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        if self._rank[rx] < self._rank[ry]:
            rx, ry = ry, rx
        self._parent[ry] = rx
        if self._rank[rx] == self._rank[ry]:
            self._rank[rx] += 1
        return True


def prim_mst(graph: WeightedGraph, root: Vertex | None = None) -> WeightedGraph:
    """Prim's algorithm; returns the MST as a fresh :class:`WeightedGraph`.

    Runs on the memoized snapshot (:mod:`repro.graphs.csr`);
    deterministic given insertion order (ties broken by discovery order)
    and byte-identical to :func:`prim_mst_dicts`.  Raises ``ValueError``
    on a disconnected graph.
    """
    from .cache import param_cache
    from .csr import csr_prim_mst

    if graph.num_vertices == 0:
        return WeightedGraph()
    flat = param_cache(graph).flat()
    assert flat.index is not None
    return csr_prim_mst(flat, flat.index[root] if root is not None else 0)


def kruskal_mst(graph: WeightedGraph) -> WeightedGraph:
    """Kruskal's algorithm; returns the MST (raises on disconnected input).

    Runs on the edges of the memoized snapshot with an int-indexed
    union-find; byte-identical to :func:`kruskal_mst_dicts`.
    """
    from .cache import param_cache
    from .csr import csr_kruskal_mst

    return csr_kruskal_mst(param_cache(graph).flat())


def prim_mst_dicts(
    graph: WeightedGraph, root: Vertex | None = None
) -> WeightedGraph:
    """Reference dict-of-dicts Prim (the pre-CSR implementation).

    Kept as the independent oracle the CSR kernel is golden-tested
    against; not on any hot path.
    """
    if graph.num_vertices == 0:
        return WeightedGraph()
    if root is None:
        root = graph.vertices[0]
    in_tree = {root}
    tree = WeightedGraph(vertices=[root])
    tie = count()
    heap: list[tuple[float, int, Vertex, Vertex]] = []
    for v, w in graph.neighbor_weights(root).items():
        heapq.heappush(heap, (w, next(tie), root, v))
    while heap:
        w, _, u, v = heapq.heappop(heap)
        if v in in_tree:
            continue
        in_tree.add(v)
        tree.add_edge(u, v, w)
        for x, wx in graph.neighbor_weights(v).items():
            if x not in in_tree:
                heapq.heappush(heap, (wx, next(tie), v, x))
    if len(in_tree) != graph.num_vertices:
        raise ValueError("graph is not connected; MST undefined")
    return tree


def kruskal_mst_dicts(graph: WeightedGraph) -> WeightedGraph:
    """Reference dict-based Kruskal (the pre-CSR implementation)."""
    uf = UnionFind()
    tree = WeightedGraph(vertices=graph.vertices)
    edges = sorted(graph.edges(), key=lambda e: e[2])
    added = 0
    for u, v, w in edges:
        if uf.union(u, v):
            tree.add_edge(u, v, w)
            added += 1
    if added != graph.num_vertices - 1 and graph.num_vertices > 0:
        raise ValueError("graph is not connected; MST undefined")
    return tree


def minimum_spanning_tree(graph: WeightedGraph) -> WeightedGraph:
    """Default MST routine (Prim)."""
    return prim_mst(graph)


def mst_weight(graph: WeightedGraph) -> float:
    """``V = w(MST(G))`` — the paper's script-V parameter (memoized per graph)."""
    from .cache import param_cache

    return param_cache(graph).mst_weight()
