"""Golden-value tests for the cached graph-parameter layer.

Pins script-V, script-D, and SLT ``(w(T), Diam(T))`` for small fixture
graphs to exact constants, and asserts the memoized
:class:`~repro.graphs.cache.GraphParamCache` path agrees with raw
(cache-free) recomputation — including after the graph mutates and the
cache must invalidate.

The whole module runs once per scan path (``each_scan_path``): every
golden constant must hold bit-for-bit under both the Python loop and
Floyd–Warshall.
"""

import pytest

pytestmark = pytest.mark.usefixtures("each_scan_path")

from repro.core.slt import shallow_light_tree
from repro.graphs import (
    WeightedGraph,
    diameter,
    heavy_edge_clock_graph,
    network_params,
    param_cache,
    path_graph,
    random_connected_graph,
    script_D,
    script_V,
    spoke_graph,
)
from repro.graphs.mst import prim_mst
from repro.graphs.paths import dijkstra


def raw_diameter(g: WeightedGraph) -> float:
    """Cache-free Diam(G) straight from per-source Dijkstra runs."""
    best = 0.0
    for v in g.vertices:
        dist, _ = dijkstra(g, v)
        assert len(dist) == g.num_vertices, "fixture must be connected"
        best = max(best, max(dist.values()))
    return best


def raw_mst_weight(g: WeightedGraph) -> float:
    """Cache-free w(MST(G))."""
    return prim_mst(g).total_weight()


# (factory, script_V, script_D) — exact values, hand-checkable for the
# first two fixtures and pinned-from-trusted-raw-path for the rest.
FIXTURES = [
    ("path5w2", lambda: path_graph(5, 2.0), 8.0, 8.0),
    ("spoke", lambda: spoke_graph(30, 100.0, 1.0), 129.0, 100.0),
    ("rand10", lambda: random_connected_graph(10, 12, seed=4), 19.0, 9.0),
    ("heavy", lambda: heavy_edge_clock_graph(8, 50.0), 7.0, 4.0),
]

# (w(T), Diam(T)) of the q=2 SLT rooted at the first vertex.
SLT_GOLDEN = {
    "path5w2": (8.0, 8.0),
    "spoke": (129.0, 129.0),
    "rand10": (19.0, 9.0),
    "heavy": (7.0, 7.0),
}


@pytest.mark.parametrize(
    "name,factory,want_v,want_d",
    FIXTURES,
    ids=[f[0] for f in FIXTURES],
)
def test_script_params_pinned_and_cached_equals_raw(name, factory, want_v, want_d):
    g = factory()
    # Raw (cache-free) computation matches the pinned constants...
    assert raw_mst_weight(g) == want_v
    assert raw_diameter(g) == want_d
    # ...and the cached public path returns the identical values, twice
    # (second call served from the memo).
    for _ in range(2):
        assert script_V(g) == want_v
        assert script_D(g) == want_d
    cache = param_cache(g)
    assert cache.stats()["hits"] > 0


@pytest.mark.parametrize(
    "name,factory,want_v,want_d",
    FIXTURES,
    ids=[f[0] for f in FIXTURES],
)
def test_slt_golden_values(name, factory, want_v, want_d):
    g = factory()
    slt = shallow_light_tree(g, g.vertices[0], 2.0)
    want_wt, want_diam = SLT_GOLDEN[name]
    assert slt.tree.total_weight() == want_wt
    assert raw_diameter(slt.tree) == want_diam
    assert diameter(slt.tree) == want_diam  # cached path agrees


def test_network_params_cached_identical_to_raw():
    g = random_connected_graph(10, 12, seed=4)
    p1 = network_params(g)
    p2 = network_params(g)
    assert p1 is p2  # second call is the memoized object
    assert (p1.V, p1.D) == (raw_mst_weight(g), raw_diameter(g))
    assert p1.E == g.total_weight()


def test_mutation_invalidates_and_matches_raw():
    g = path_graph(5, 2.0)
    assert script_V(g) == 8.0 and script_D(g) == 8.0
    cache = param_cache(g)

    # Shortcut edge: diameter shrinks, MST unchanged in weight structure.
    g.add_edge(0, 4, 1.0)
    assert cache.graph.version == g.version
    assert script_D(g) == raw_diameter(g) == 4.0
    assert script_V(g) == raw_mst_weight(g) == 7.0
    assert cache.stats()["invalidations"] == 1

    # Removing it restores the originals.
    g.remove_edge(0, 4)
    assert script_D(g) == raw_diameter(g) == 8.0
    assert script_V(g) == raw_mst_weight(g) == 8.0

    # Overwriting a weight (no topology change) must also invalidate.
    g.add_edge(0, 1, 0.5)
    assert script_D(g) == raw_diameter(g) == 6.5
    assert script_V(g) == raw_mst_weight(g) == 6.5


def test_version_counter_semantics():
    g = WeightedGraph()
    v0 = g.version
    g.add_vertex("a")
    assert g.version == v0 + 1
    g.add_vertex("a")  # re-adding an existing vertex is a no-op
    assert g.version == v0 + 1
    g.add_edge("a", "b", 1.0)
    assert g.version == v0 + 2
    g.add_edge("a", "b", 2.0)  # weight overwrite still bumps
    assert g.version == v0 + 3
    g.remove_edge("a", "b")
    assert g.version == v0 + 4


def test_copy_does_not_share_cache():
    g = random_connected_graph(8, 6, seed=1)
    d = script_D(g)
    h = g.copy()
    # The copy computes from its own (fresh) cache and agrees...
    assert script_D(h) == d
    # ...and mutating the copy never disturbs the original's answers.
    h.add_edge(h.vertices[0], h.vertices[-1], 0.001)
    assert script_D(g) == d
    assert script_D(h) == raw_diameter(h)


def test_each_accessor_call_counts_one_hit_or_miss():
    # A miss runs a kernel; a hit answers from the memo.  Accessors never
    # count the lookups they make for each other.
    g = random_connected_graph(12, 14, seed=3)
    cache = param_cache(g)
    v = g.vertices[4]
    calls = [
        (cache.diameter, "miss"),        # runs the scan
        (cache.eccentricities, "hit"),   # reads the scan's row
        (lambda: cache.eccentricity(v), "hit"),
        (cache.max_neighbor_distance, "hit"),
        (cache.is_connected, "miss"),
        (cache.is_connected, "hit"),
        (cache.network_params, "miss"),  # runs Prim; scan/connectivity cached
        (cache.network_params, "hit"),
        (cache.mst, "hit"),
        (cache.mst_weight, "hit"),
        (lambda: cache.sssp(v), "miss"),
        (lambda: cache.sssp(v), "hit"),
    ]
    for fn, want in calls:
        before = (cache.hits, cache.misses)
        fn()
        after = (cache.hits, cache.misses)
        step = (after[0] - before[0], after[1] - before[1])
        assert step == ((1, 0) if want == "hit" else (0, 1)), (fn, want)
    g.add_edge(g.vertices[0], g.vertices[11], 1)  # invalidates everything
    cache.mst_weight()
    assert (cache.hits, cache.misses) == (8, 5)
    assert cache.stats()["invalidations"] == 1
