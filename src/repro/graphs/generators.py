"""Graph generators: random workloads and the paper's explicit constructions.

Includes the lower-bound family ``G_n`` of Section 7.1 / Figure 7 (a light
path with heavy "bypassing" edges) and its split variant ``G_n^i`` of
Figure 8 used in the indistinguishability argument of Lemma 7.1, plus
standard workloads (random connected graphs, grids, rings) and the
``d << W`` clock-synchronization instances of Section 3.
"""

from __future__ import annotations

import random
from array import array

from .csr import FlatGraph, edges_to_flat
from .weighted_graph import WeightedGraph

__all__ = [
    "path_graph",
    "ring_graph",
    "grid_graph",
    "star_graph",
    "complete_graph",
    "binary_tree",
    "hypercube_graph",
    "caterpillar_graph",
    "random_connected_graph",
    "random_tree",
    "lower_bound_graph",
    "lower_bound_split_graph",
    "heavy_edge_clock_graph",
    "spoke_graph",
    "lower_bound_flat",
    "lower_bound_split_flat",
    "random_connected_flat",
]


def path_graph(n: int, weight: float = 1.0) -> WeightedGraph:
    """A path 0 - 1 - ... - (n-1) with uniform edge weight."""
    g = WeightedGraph(vertices=range(n))
    for i in range(n - 1):
        g.add_edge(i, i + 1, weight)
    return g


def ring_graph(n: int, weight: float = 1.0) -> WeightedGraph:
    """A cycle on n >= 3 vertices with uniform edge weight."""
    if n < 3:
        raise ValueError("ring needs n >= 3")
    g = path_graph(n, weight)
    g.add_edge(n - 1, 0, weight)
    return g


def grid_graph(rows: int, cols: int, weight: float = 1.0) -> WeightedGraph:
    """A rows x cols grid; vertices are (r, c) tuples."""
    g = WeightedGraph(vertices=[(r, c) for r in range(rows) for c in range(cols)])
    for r in range(rows):
        for c in range(cols):
            if r + 1 < rows:
                g.add_edge((r, c), (r + 1, c), weight)
            if c + 1 < cols:
                g.add_edge((r, c), (r, c + 1), weight)
    return g


def star_graph(n: int, weight: float = 1.0) -> WeightedGraph:
    """A star: center 0 connected to 1..n-1."""
    g = WeightedGraph(vertices=range(n))
    for i in range(1, n):
        g.add_edge(0, i, weight)
    return g


def complete_graph(n: int, weight: float = 1.0) -> WeightedGraph:
    """K_n with uniform edge weight."""
    g = WeightedGraph(vertices=range(n))
    for i in range(n):
        for j in range(i + 1, n):
            g.add_edge(i, j, weight)
    return g


def random_tree(n: int, rng: random.Random, max_weight: float = 10.0) -> WeightedGraph:
    """A uniformly-shaped random tree with integer weights in [1, max_weight]."""
    g = WeightedGraph(vertices=range(n))
    for v in range(1, n):
        u = rng.randrange(v)
        g.add_edge(u, v, rng.randint(1, int(max_weight)))
    return g


def random_connected_graph(
    n: int,
    extra_edges: int,
    *,
    seed: int = 0,
    max_weight: float = 10.0,
    rng: random.Random | None = None,
) -> WeightedGraph:
    """Random connected graph: a random tree plus ``extra_edges`` random chords.

    Integer weights uniform in [1, max_weight] keep ``W = poly(n)`` as the
    paper assumes.  Deterministic for a given seed.
    """
    if rng is None:
        rng = random.Random(seed)
    g = random_tree(n, rng, max_weight)
    attempts = 0
    added = 0
    max_possible = n * (n - 1) // 2 - (n - 1)
    target = min(extra_edges, max_possible)
    while added < target and attempts < 50 * (target + 1):
        attempts += 1
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v and not g.has_edge(u, v):
            g.add_edge(u, v, rng.randint(1, int(max_weight)))
            added += 1
    return g


def lower_bound_graph(n: int, heavy: float | None = None) -> WeightedGraph:
    """The family ``G_n`` of Section 7.1 (Figure 7).

    Vertices 1..n.  A light path ``E_p = {(i, i+1)}`` with weight ``X`` and
    heavy bypassing edges ``E_b = {(i, n+1-i) : 1 <= i < n/2}`` with weight
    ``X^4``, where X > n (default ``X = n + 1``).  The MST is the path alone,
    so script-V = (n-1)X, while any protocol using a bypass edge pays X^4 at
    once.  On this family every correct spanning-tree algorithm needs
    Omega(n * V) communication (Lemma 7.2).
    """
    if n < 4:
        raise ValueError("G_n needs n >= 4")
    x = float(n + 1) if heavy is None else heavy
    if x <= n:
        raise ValueError("X must exceed n")
    g = path_graph_1_indexed(n, x)
    for i in range(1, (n + 1) // 2):
        j = n + 1 - i
        if j != i and j != i + 1 and not g.has_edge(i, j):
            g.add_edge(i, j, x**4)
    return g


def path_graph_1_indexed(n: int, weight: float) -> WeightedGraph:
    """A path on vertices 1..n (the paper indexes G_n from 1)."""
    g = WeightedGraph(vertices=range(1, n + 1))
    for i in range(1, n):
        g.add_edge(i, i + 1, weight)
    return g


def lower_bound_split_graph(n: int, i: int, heavy: float | None = None) -> WeightedGraph:
    """The family ``G_n^i`` of Lemma 7.1 (Figure 8).

    Obtained from ``G_n`` by removing the bypass edge ``(i, n+1-i)`` and
    attaching two fresh pendant vertices ``('v', i)`` to ``i`` and
    ``('w', i)`` to ``n+1-i``, each over an edge of weight X^4.  Runs of a
    cheap algorithm on G_n and G_n^i are indistinguishable unless some vertex
    ever holds both the id of ``i`` and the content of the bypassing register
    of ``n+1-i`` (or vice versa) — the crux of the Omega(n*V) lower bound.
    """
    if not 1 <= i < (n + 1) / 2:
        raise ValueError(f"need 1 <= i < n/2, got i={i}")
    g = lower_bound_graph(n, heavy)
    x = float(n + 1) if heavy is None else heavy
    j = n + 1 - i
    if g.has_edge(i, j):
        g.remove_edge(i, j)
    g.add_edge(i, ("v", i), x**4)
    g.add_edge(j, ("w", i), x**4)
    return g


def heavy_edge_clock_graph(n: int, heavy: float, light: float = 1.0) -> WeightedGraph:
    """A ring of light edges plus one heavy chord: the ``d << W`` regime of §3.

    The chord (0, n//2) has weight ``heavy`` = W, but its endpoints are at
    distance ~ (n/2) * light through the ring, so
    ``d = max_neighbor_distance <= n/2 * light << W`` when heavy is large.
    Synchronizer alpha* pays Theta(W) per pulse on this graph while gamma*
    pays only O(d log^2 n).
    """
    if n < 4:
        raise ValueError("need n >= 4")
    g = ring_graph(n, light)
    mid = n // 2
    if not g.has_edge(0, mid):
        g.add_edge(0, mid, heavy)
    return g


def spoke_graph(n_spokes: int, spoke_weight: float, rim_weight: float) -> WeightedGraph:
    """Hub-and-spoke with a heavy rim: the classic SLT tension instance.

    Hub 0 with spokes to 1..n_spokes (weight ``spoke_weight``) and rim edges
    i - (i+1) between consecutive spoke tips (weight ``rim_weight``).  With
    spoke_weight >> rim_weight the MST is the rim plus one spoke (light but
    deep) while the SPT is the star (shallow but heavy) — the instance from
    [BKJ83] that motivates shallow-light trees, in the style of Figure 6.
    """
    if n_spokes < 3:
        raise ValueError("need n_spokes >= 3")
    g = WeightedGraph(vertices=range(n_spokes + 1))
    for i in range(1, n_spokes + 1):
        g.add_edge(0, i, spoke_weight)
    for i in range(1, n_spokes):
        g.add_edge(i, i + 1, rim_weight)
    return g


def binary_tree(depth: int, weight: float = 1.0) -> WeightedGraph:
    """A complete binary tree of the given depth (vertices 1..2^(d+1)-1)."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    n = 2 ** (depth + 1) - 1
    g = WeightedGraph(vertices=range(1, n + 1))
    for v in range(2, n + 1):
        g.add_edge(v // 2, v, weight)
    return g


def hypercube_graph(dim: int, weight: float = 1.0) -> WeightedGraph:
    """The dim-dimensional hypercube (the [PU89] synchronizer topology).

    Vertices are 0..2^dim - 1; edges connect words at Hamming distance 1.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    n = 1 << dim
    g = WeightedGraph(vertices=range(n))
    for v in range(n):
        for b in range(dim):
            u = v ^ (1 << b)
            if u > v:
                g.add_edge(v, u, weight)
    return g


def caterpillar_graph(spine: int, legs: int, spine_weight: float = 1.0,
                      leg_weight: float = 1.0) -> WeightedGraph:
    """A caterpillar: a spine path with ``legs`` pendant vertices per node.

    A classic worst case for tree-depth-sensitive algorithms.  Spine
    vertices are 0..spine-1; leg vertices are (i, j) tuples.
    """
    if spine < 1 or legs < 0:
        raise ValueError("need spine >= 1 and legs >= 0")
    g = path_graph(spine, spine_weight)
    for i in range(spine):
        for j in range(legs):
            g.add_edge(i, ("leg", i, j), leg_weight)
    return g


# --------------------------------------------------------------------- #
# Streaming direct-to-CSR builders (the n = 10^5..10^6 tier)
# --------------------------------------------------------------------- #
#
# The dict-of-dicts WeightedGraph costs hundreds of bytes per edge (boxed
# keys, two nested dicts); at n = 10^6 the lower-bound family would need
# tens of gigabytes before a single kernel runs.  The builders below emit
# the same graphs straight into FlatGraph's three flat buffers — ~48
# bytes per edge, one pass — and are *byte-identical* to converting the
# dict build (`FlatGraph.from_graph(gen(...))`): same dense indexing (vertex
# insertion order), same adjacency order (edge insertion order, which
# edges_to_flat's stable placement replays), same weight floats.
# tests/test_flat_stream.py pins the equivalence at dict-friendly sizes.


def _lower_bound_x(n: int, heavy: float | None) -> float:
    if n < 4:
        raise ValueError("G_n needs n >= 4")
    x = float(n + 1) if heavy is None else heavy
    if x <= n:
        raise ValueError("X must exceed n")
    return x


def lower_bound_flat(
    n: int,
    heavy: float | None = None,
) -> FlatGraph:
    """``G_n`` (Section 7.1 / Figure 7) streamed straight into flat buffers.

    Byte-identical to ``FlatGraph.from_graph(lower_bound_graph(n, heavy))``:
    vertices 1..n intern to dense indices 0..n-1, path edges come first
    in index order, bypass edges follow in increasing ``i``.  The dict
    builder's ``has_edge`` guard is replayed arithmetically: bypass pairs
    ``(i, n+1-i)`` are pairwise distinct and only ever collide with a
    path edge when ``n+1-i == i+1``, so the two index checks are the
    whole predicate.
    """
    x = _lower_bound_x(n, heavy)
    x4 = x**4
    us = array("q", range(n - 1))
    vs = array("q", range(1, n))
    ws = array("d", [x]) * (n - 1)
    for i in range(1, (n + 1) // 2):
        j = n + 1 - i
        if j != i and j != i + 1:
            us.append(i - 1)
            vs.append(j - 1)
            ws.append(x4)
    return edges_to_flat(
        n, us, vs, ws,
        integral=x == int(x),
        wmax=x4 if len(ws) > n - 1 else x,
        spec=("lower_bound", n, heavy),
    )


def lower_bound_split_flat(
    n: int,
    i: int,
    heavy: float | None = None,
) -> FlatGraph:
    """``G_n^i`` (Lemma 7.1 / Figure 8) streamed into flat buffers.

    Byte-identical to the dict construction: deleting the bypass edge
    ``(i, n+1-i)`` from a dict preserves the order of every remaining
    neighbor, so *never emitting it* yields the same adjacency order; the
    two pendant vertices are interned last (dense indices ``n`` and
    ``n+1``) and their edges appended last, exactly as ``add_edge`` does.
    """
    if not 1 <= i < (n + 1) / 2:
        raise ValueError(f"need 1 <= i < n/2, got i={i}")
    x = _lower_bound_x(n, heavy)
    x4 = x**4
    j = n + 1 - i
    us = array("q", range(n - 1))
    vs = array("q", range(1, n))
    ws = array("d", [x]) * (n - 1)
    for b in range(1, (n + 1) // 2):
        jb = n + 1 - b
        if jb != b and jb != b + 1 and b != i:
            us.append(b - 1)
            vs.append(jb - 1)
            ws.append(x4)
    us.append(i - 1)
    vs.append(n)  # ('v', i) interns after 1..n
    ws.append(x4)
    us.append(j - 1)
    vs.append(n + 1)  # ('w', i) interns last
    ws.append(x4)
    return edges_to_flat(
        n + 2, us, vs, ws,
        integral=x == int(x),
        wmax=x4,
        spec=("lower_bound_split", n, i, heavy),
    )


def random_connected_flat(
    n: int,
    extra_edges: int,
    *,
    seed: int = 0,
    max_weight: float = 10.0,
    rng: random.Random | None = None,
) -> FlatGraph:
    """:func:`random_connected_graph` streamed into flat buffers.

    Replays the dict builder's RNG consumption draw-for-draw — tree
    parent + weight per vertex, then endpoint pairs with a weight drawn
    *only* for accepted chords — so the same ``seed`` yields the same
    graph whether built here or through the dict path (pinned by
    tests/test_flat_stream.py).  ``has_edge`` is replayed with a packed
    ``min*n + max`` edge set.
    """
    from_seed = rng is None
    if rng is None:
        rng = random.Random(seed)
    mw = int(max_weight)
    us = array("q")
    vs = array("q")
    ws = array("d")
    edge_set: set[int] = set()
    wmax = 0
    for v in range(1, n):
        u = rng.randrange(v)
        w = rng.randint(1, mw)
        us.append(u)
        vs.append(v)
        ws.append(w)
        edge_set.add(u * n + v)  # tree parents satisfy u < v
        if w > wmax:
            wmax = w
    attempts = 0
    added = 0
    max_possible = n * (n - 1) // 2 - (n - 1)
    target = min(extra_edges, max_possible)
    while added < target and attempts < 50 * (target + 1):
        attempts += 1
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            key = u * n + v if u < v else v * n + u
            if key not in edge_set:
                w = rng.randint(1, mw)
                us.append(u)
                vs.append(v)
                ws.append(w)
                edge_set.add(key)
                added += 1
                if w > wmax:
                    wmax = w
    spec = (
        ("random_connected", n, extra_edges, seed, max_weight)
        if from_seed else None
    )
    return edges_to_flat(
        n, us, vs, ws,
        integral=True,
        wmax=float(wmax),
        spec=spec,
    )
