"""Differential harness: the scan paths and snapshot kernels vs the dict oracles.

:func:`repro.graphs.csr.source_scan` has two implementations — an int32
Floyd–Warshall and the Python Dial/heap loop — and the graph picks one
(``_fw_applicable``).  Both claim *value-identity* with the dict oracles
in :mod:`repro.graphs.paths` / :mod:`repro.graphs.mst`: same floats
bit-for-bit, same distance-row digests.  The snapshot's Prim, Kruskal and
``sssp_maps`` claim the same for MST edge lists (under the pinned
tie-break rules) and dict views.  This module is the proof: seeded graph
families (paths, stars, grids, random integral / fractional /
mixed-weight graphs, the paper's ``G_n``/``G_n^i`` lower-bound families,
disconnected and edge-case graphs) are pushed through both private scan
paths directly and compared exactly — no approx, no tolerance.

Also pinned here: the regime rule on the ``graph_params`` workload
shapes, the Dial bucket-queue cap fallback, the Floyd–Warshall dispatch
boundaries, numpy-view memoization across mutations, flood arrival times
under asymmetric delays, and serial == pool chaos-row byte-identity on
both scan paths.
"""

import heapq
import math
import random

import pytest

from repro.graphs import (
    FlatGraph,
    WeightedGraph,
    backend_info,
    binary_tree,
    caterpillar_graph,
    complete_graph,
    dijkstra,
    grid_graph,
    heavy_edge_clock_graph,
    hypercube_graph,
    lower_bound_graph,
    lower_bound_split_graph,
    param_cache,
    path_graph,
    prim_mst,
    random_connected_graph,
    ring_graph,
    spoke_graph,
    star_graph,
)
from repro.graphs import csr as csr_module
from repro.graphs.csr import (
    _fw_applicable,
    _fw_scan,
    _python_scan,
    csr_kruskal_mst,
    csr_prim_mst,
    source_scan,
    sssp_maps,
)
from repro.graphs.mst import kruskal_mst_dicts, prim_mst_dicts


# --------------------------------------------------------------------- #
# Graph families
# --------------------------------------------------------------------- #


def _fractional_graph(seed: int) -> WeightedGraph:
    """Random connected graph with dyadic fractional weights (k/8).

    Dyadic rationals are exact in binary floating point, so equal-length
    paths produce *real* float ties — the hardest case for tie-break
    identity.
    """
    rng = random.Random(seed)
    g = random_connected_graph(14, 16, seed=seed)
    for u, v, _w in list(g.edges()):
        g.add_edge(u, v, rng.randint(1, 32) / 8)
    return g


def _mixed_weight_graph(seed: int) -> WeightedGraph:
    """Integral and fractional weights interleaved in one graph."""
    rng = random.Random(seed)
    g = random_connected_graph(13, 15, seed=seed)
    for i, (u, v, _w) in enumerate(list(g.edges())):
        if i % 3 == 0:
            g.add_edge(u, v, rng.randint(1, 24) / 4)
    return g


def _float_integral_graph() -> WeightedGraph:
    """Weights that are floats but integral-valued (unit-weight idiom)."""
    g = grid_graph(4, 5, weight=2.0)
    g.add_edge((0, 0), (3, 4), 7.0)
    return g


def _disconnected_graph() -> WeightedGraph:
    g = random_connected_graph(8, 6, seed=3)
    h = path_graph(4)
    for u, v, w in h.edges():
        g.add_edge(("b", u), ("b", v), w)
    g.add_vertex("isolated")
    return g


FAMILIES = [
    ("empty", WeightedGraph),
    ("single", lambda: WeightedGraph(vertices=["v"])),
    ("path", lambda: path_graph(9)),
    ("path_w3", lambda: path_graph(6, weight=3)),
    ("ring", lambda: ring_graph(11)),
    ("star", lambda: star_graph(8)),
    ("grid", lambda: grid_graph(5, 6)),
    ("complete", lambda: complete_graph(7)),
    ("binary_tree", lambda: binary_tree(4)),
    ("hypercube", lambda: hypercube_graph(4)),
    ("caterpillar", lambda: caterpillar_graph(6, 2)),
    ("spoke", lambda: spoke_graph(8, 16.0, 1.0)),
    ("heavy_clock", lambda: heavy_edge_clock_graph(6, 50.0)),
    ("Gn_8", lambda: lower_bound_graph(8)),
    ("Gn_16", lambda: lower_bound_graph(16)),
    ("Gni_8_3", lambda: lower_bound_split_graph(8, 3)),
    ("rand_sparse", lambda: random_connected_graph(18, 10, seed=5)),
    ("rand_dense", lambda: random_connected_graph(12, 40, seed=6)),
    ("rand_fractional", lambda: _fractional_graph(7)),
    ("rand_mixed", lambda: _mixed_weight_graph(8)),
    ("float_integral", _float_integral_graph),
    ("disconnected", _disconnected_graph),
]

FAMILY_IDS = [name for name, _ in FAMILIES]
FAMILY_FACTORIES = [factory for _, factory in FAMILIES]


@pytest.fixture(params=FAMILY_FACTORIES, ids=FAMILY_IDS)
def family_graph(request):
    return request.param()


def _oracle_scan(graph: WeightedGraph) -> tuple[list[float], float, float]:
    """``(ecc row, diameter, d)`` from per-source dict Dijkstra runs."""
    n = graph.num_vertices
    ecc: list[float] = []
    d = 0.0
    for s in graph.vertices:
        dist, _ = dijkstra(graph, s)
        ecc.append(max(dist.values()) if len(dist) == n else math.inf)
        for v in graph.neighbors(s):
            d = max(d, dist[v])
    return ecc, max(ecc, default=0.0), d


def _assert_both_paths_match_oracle(graph: WeightedGraph) -> FlatGraph:
    """Run both private scan paths directly; each must equal the oracle."""
    flat = FlatGraph.from_graph(graph)
    ecc, diam, d = _oracle_scan(graph)
    py = _python_scan(flat, 0, flat.n, digest=True)
    assert (py.ecc, py.diameter, py.max_neighbor_distance) == (ecc, diam, d)
    if _fw_applicable(flat):
        assert _fw_scan(flat, digest=True) == py  # incl. the rows digest
    return flat


# --------------------------------------------------------------------- #
# Kernel-by-kernel identity over every family
# --------------------------------------------------------------------- #


def test_scan_identical(family_graph):
    flat = _assert_both_paths_match_oracle(family_graph)
    scan = source_scan(flat)
    # exact types too: plain floats, not numpy scalars
    assert all(type(e) is float for e in scan.ecc)
    assert type(scan.diameter) is float
    assert type(scan.max_neighbor_distance) is float


def test_prim_identical(family_graph):
    flat = FlatGraph.from_graph(family_graph)
    if family_graph.num_vertices and not family_graph.is_connected():
        with pytest.raises(ValueError):
            csr_prim_mst(flat)
        with pytest.raises(ValueError):
            prim_mst_dicts(family_graph)
        return
    if family_graph.num_vertices == 0:
        assert csr_prim_mst(flat).num_vertices == 0
        return
    dicts = prim_mst_dicts(family_graph)
    got = csr_prim_mst(flat)
    assert list(got.edges()) == list(dicts.edges())
    assert got.vertices == dicts.vertices
    assert repr(got.total_weight()) == repr(dicts.total_weight())


def test_kruskal_identical(family_graph):
    flat = FlatGraph.from_graph(family_graph)
    if family_graph.num_vertices and not family_graph.is_connected():
        with pytest.raises(ValueError):
            csr_kruskal_mst(flat)
        with pytest.raises(ValueError):
            kruskal_mst_dicts(family_graph)
        return
    got = csr_kruskal_mst(flat)
    assert got.vertices == family_graph.vertices
    if family_graph.num_vertices:
        oracle = kruskal_mst_dicts(family_graph)
        assert list(got.edges()) == list(oracle.edges())
        assert repr(got.total_weight()) == repr(oracle.total_weight())


def test_sssp_dist_identical(family_graph):
    flat = FlatGraph.from_graph(family_graph)
    for v in family_graph.vertices[:6]:
        dist, parent = sssp_maps(flat, v)
        want_dist, want_parent = dijkstra(family_graph, v)
        assert list(dist.items()) == list(want_dist.items())
        assert list(parent.items()) == list(want_parent.items())


# --------------------------------------------------------------------- #
# Delay propagation: flood arrivals under asymmetric per-edge delays
# --------------------------------------------------------------------- #


def _directed_dijkstra(graph, delays, source):
    dist = {source: 0.0}
    heap = [(0.0, 0, source)]
    tie = 1
    while heap:
        d, _, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v in graph.neighbors(u):
            nd = d + delays[(u, v)]
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, tie, v))
                tie += 1
    return dist


def _flood_arrivals(graph, delays, source):
    from repro.protocols.broadcast import FloodProcess
    from repro.sim.delays import PerEdgeDelay
    from repro.sim.network import Network

    class Arrival(FloodProcess):
        arrival = None

        def on_start(self):
            if self.is_initiator:
                self.arrival = self.now
            super().on_start()

        def on_message(self, frm, payload):
            if self.arrival is None:
                self.arrival = self.now
            super().on_message(frm, payload)

    net = Network(graph, lambda v: Arrival(v == source, "x"),
                  delay=PerEdgeDelay(lambda u, v, w: delays[(u, v)]))
    net.run()
    return {v: p.arrival for v, p in net.processes.items()}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_delay_propagation_asymmetric(seed):
    # The paper's delay model lets each directed traversal of e take any
    # delay in [0, w(e)]; a flood delivers to v at the directed shortest
    # path over the delays.  Each orientation draws independently,
    # including exact zeros.
    g = random_connected_graph(15, 18, seed=seed)
    rng = random.Random(seed + 100)
    delays = {}
    for u, v, w in g.edges():
        delays[(u, v)] = w * rng.choice((0.0, 0.25, 0.5, 1.0))
        delays[(v, u)] = w * rng.choice((0.0, 0.25, 0.5, 1.0))
    for source in g.vertices[::4]:
        assert _flood_arrivals(g, delays, source) == \
            _directed_dijkstra(g, delays, source)


def test_delay_propagation_validation():
    g = path_graph(4)
    delays = {(u, v): w for u, v, w in g.edges()}
    delays.update({(v, u): w for (u, v), w in list(delays.items())})
    for bad in (-1.0, 2.0):  # outside [0, w] with w = 1
        delays[(1, 2)] = bad
        with pytest.raises(ValueError, match="outside"):
            _flood_arrivals(g, delays, 0)


# --------------------------------------------------------------------- #
# MST tie-break rule, pinned explicitly
# --------------------------------------------------------------------- #
#
# Rule (identical for every implementation):
#   * Prim: among equal-weight frontier edges, the one pushed first wins;
#     pushes happen root-adjacency first, then each newly added vertex's
#     adjacency in CSR (= insertion) order.
#   * Kruskal: stable sort by weight — graph.edges() first-encounter
#     order among equal weights.


def _tie_square() -> WeightedGraph:
    g = WeightedGraph()
    g.add_edge("a", "b", 1)
    g.add_edge("b", "c", 1)
    g.add_edge("c", "d", 1)
    g.add_edge("d", "a", 1)
    return g


def test_prim_tie_break_pinned(each_scan_path):
    # From root a: pushes (a,b) then (a,d); pop (a,b) -> push (b,c);
    # pop (a,d) [earlier push beats (b,c)'s]; pop (b,c).  Edge (c,d)
    # never enters the tree.
    tree = prim_mst(_tie_square())
    assert list(tree.edges()) == [("a", "b", 1), ("a", "d", 1), ("b", "c", 1)]


def test_kruskal_tie_break_pinned(each_scan_path):
    from repro.graphs import kruskal_mst

    # edges() order: (a,b), (a,d), (b,c), (c,d); stable sort keeps it;
    # (c,d) closes the cycle and is rejected.
    tree = kruskal_mst(_tie_square())
    assert list(tree.edges()) == [("a", "b", 1), ("a", "d", 1), ("b", "c", 1)]


def test_prim_equal_weight_randomized():
    # All-unit weights maximize tie pressure; the snapshot Prim must
    # still pick the dict oracle's tree edge-for-edge.
    for seed in range(8):
        g = random_connected_graph(16, 20, seed=seed, max_weight=1)
        got = csr_prim_mst(FlatGraph.from_graph(g))
        assert list(got.edges()) == list(prim_mst_dicts(g).edges())


def test_total_weight_repr_preserves_int_vs_float():
    ints = random_connected_graph(10, 8, seed=2)  # int weights
    fracs = _fractional_graph(3)  # float weights
    for g in (ints, fracs):
        flat = FlatGraph.from_graph(g)
        oracle = prim_mst_dicts(g).total_weight()
        for build in (csr_prim_mst, csr_kruskal_mst):
            assert type(build(flat).total_weight()) is type(oracle)
    # int graphs must sum to a plain int, never a float from the buffers
    assert type(csr_prim_mst(FlatGraph.from_graph(ints)).total_weight()) is int


# --------------------------------------------------------------------- #
# Randomized differential sweep
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("seed", range(12))
def test_randomized_sweep(seed):
    rng = random.Random(seed * 7919 + 1)
    n = rng.randrange(2, 22)
    extra = rng.randrange(0, 2 * n)
    g = random_connected_graph(n, extra, seed=seed,
                               max_weight=rng.choice((1, 3, 10, 1000)))
    if seed % 3 == 0:
        for u, v, _w in list(g.edges())[:: 2]:
            g.add_edge(u, v, rng.randint(1, 64) / 16)
    if seed % 4 == 0:
        g.add_vertex(("lonely", seed))  # disconnect
    flat = _assert_both_paths_match_oracle(g)
    source = g.vertices[rng.randrange(flat.n)]
    assert sssp_maps(flat, source) == dijkstra(g, source)
    if g.is_connected():
        assert (list(csr_prim_mst(flat).edges())
                == list(prim_mst_dicts(g).edges()))
        assert (list(csr_kruskal_mst(flat).edges())
                == list(kruskal_mst_dicts(g).edges()))
    else:
        with pytest.raises(ValueError):
            csr_prim_mst(flat)


# --------------------------------------------------------------------- #
# The regime rule on the graph_params workload shapes
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("factory,fw", [
    (lambda: random_connected_graph(700, 700, seed=1), False),
    (lambda: lower_bound_graph(300), False),
    (lambda: random_connected_graph(300, 12000, seed=2), True),
], ids=["sparse_700", "G_300", "dense_300"])
def test_regime_rule_on_graph_params_shapes(factory, fw):
    # Sparse and heavy-weight shapes run the Python loop (G_300's X^4
    # bypass weights overflow int32, so Floyd–Warshall is not even
    # exact there); the dense shape runs Floyd–Warshall.  Both paths
    # must match the dict oracles wherever they are exact.
    g = factory()
    flat = FlatGraph.from_graph(g)
    assert _fw_applicable(flat) is fw
    ecc, diam, d = _oracle_scan(g)
    py = _python_scan(flat, 0, flat.n)
    assert (py.ecc, py.diameter, py.max_neighbor_distance) == (ecc, diam, d)
    if flat.integral and (flat.n - 1) * flat.wmax < csr_module._FW_SENTINEL:
        assert _fw_scan(flat) == py
    assert source_scan(flat) == py
    assert list(csr_prim_mst(flat).edges()) == list(prim_mst_dicts(g).edges())
    assert (list(csr_kruskal_mst(flat).edges())
            == list(kruskal_mst_dicts(g).edges()))


# --------------------------------------------------------------------- #
# WeightedGraph edge cases flow through both scan paths identically
# --------------------------------------------------------------------- #


def test_self_loop_rejected_before_any_kernel(each_scan_path):
    g = path_graph(3)
    with pytest.raises(ValueError):
        g.add_edge(1, 1, 1.0)
    assert prim_mst(g).num_vertices == 3


def test_parallel_edge_overwrite_reflected(each_scan_path):
    g = WeightedGraph()
    g.add_edge("a", "b", 5)
    g.add_edge("b", "c", 1)
    cache = param_cache(g)
    assert cache.diameter() == 6.0
    g.add_edge("a", "b", 2)  # parallel edge = overwrite, bumps version
    assert cache.diameter() == 3.0
    assert list(prim_mst(g).edges()) == [("a", "b", 2), ("b", "c", 1)]


def test_backend_info_reports_versions():
    import numpy

    info = backend_info()
    assert info["resolved"] == "by-graph"
    assert info["numpy"] == numpy.__version__


# --------------------------------------------------------------------- #
# Cache integration: the numpy view lives on the versioned snapshot
# --------------------------------------------------------------------- #


def test_cache_flushes_numpy_snapshot_on_mutation():
    g = random_connected_graph(10, 8, seed=1)
    cache = param_cache(g)
    d1 = cache.diameter()  # small integral graph: Floyd–Warshall
    first = cache.npg()
    assert first is cache.flat().arrays()  # memoized on the snapshot
    assert cache.npg() is first
    u, v, w = next(iter(g.edges()))
    g.add_edge(u, v, w + 100)  # overwrite bumps version
    d2 = cache.diameter()
    second = cache.npg()
    assert second is not first
    assert cache.flat().version == g.version
    assert cache.stats()["flat_builds"] == 2
    assert d2 >= d1 >= 0


def test_python_backend_never_builds_numpy_snapshot():
    # A sparse graph past the small-n cutoff selects the Python loop, so
    # nothing ever asks for the numpy view.
    g = random_connected_graph(600, 300, seed=1)
    cache = param_cache(g)
    cache.network_params()
    assert not _fw_applicable(cache.flat())
    assert cache.flat()._arrays is None


# --------------------------------------------------------------------- #
# Dial bucket cap: heavy integral weights fall back to the heap
# --------------------------------------------------------------------- #


def test_dial_cap_heavy_lower_bound_family():
    # G_n carries bypass edges of weight X^4 (X = n + 1): at n = 40 Dial
    # would step through ~1.1e8 distances — the cap must route this to
    # the heap discipline (and the scan must still be exact).
    g = lower_bound_graph(40)
    flat = FlatGraph.from_graph(g)
    assert flat.integral  # weights are integral...
    bound = (flat.n - 1) * flat.wmax + 1
    assert bound > csr_module._DIAL_BOUND_CAP  # ...but far too heavy
    scan = _python_scan(flat, 0, flat.n)
    # independent check against per-source heap Dijkstra
    for s in (0, flat.n // 2, flat.n - 1):
        dist_map, _ = sssp_maps(flat, flat.verts[s])
        assert scan.ecc[s] == max(dist_map.values())


def test_dial_and_heap_disciplines_agree(monkeypatch):
    g = random_connected_graph(16, 22, seed=11)
    dial = _python_scan(FlatGraph.from_graph(g), 0, 16, digest=True)
    monkeypatch.setattr(csr_module, "_DIAL_BOUND_CAP", 0)
    heap = _python_scan(FlatGraph.from_graph(g), 0, 16, digest=True)
    assert dial == heap


def test_heavy_weights_numpy_still_identical():
    g = lower_bound_graph(40)
    flat = FlatGraph.from_graph(g)
    assert _fw_applicable(flat)  # X^4 * n still fits int32 at n = 40
    assert _fw_scan(flat, digest=True) == _python_scan(flat, 0, flat.n, digest=True)


# --------------------------------------------------------------------- #
# Dense Floyd–Warshall path vs the Python relaxation loop
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("factory", [
    lambda: complete_graph(40),
    lambda: random_connected_graph(64, 900, seed=21),
    lambda: grid_graph(7, 7),
    lambda: lower_bound_graph(24),
    lambda: _disconnected_graph(),
])
def test_fw_and_relaxation_paths_agree(factory):
    # Both scan formulations must be value-identical on any graph the FW
    # dispatch accepts; the dict oracle pins them both.
    g = factory()
    assert _fw_applicable(FlatGraph.from_graph(g))
    _assert_both_paths_match_oracle(g)


def test_fw_dispatch_boundaries():
    def applicable(g):
        return _fw_applicable(FlatGraph.from_graph(g))

    # Fractional weights: never FW (min-plus would re-associate sums).
    assert not applicable(_fractional_graph(7))
    # Large sparse: the Python loop (work should scale with m, not n^2).
    assert not applicable(random_connected_graph(600, 0, seed=2))
    # Large dense clears the density threshold.
    dense = FlatGraph.from_graph(random_connected_graph(600, 24000, seed=2))
    assert dense.m2 * csr_module._FW_DENSE_FACTOR >= dense.n * dense.n
    assert _fw_applicable(dense)
    # Integer weights too heavy for the int32 sentinel fall back too.
    assert not applicable(path_graph(3, (1 << 30)))


def test_fw_sentinel_boundary_weights_exact():
    # (n-1)*wmax + 1 == _FW_SENTINEL exactly: the largest admissible
    # weights.  SENT + SENT must not overflow int32, or an "unreached"
    # candidate would wrap negative and beat every real distance.
    w = (1 << 29) - 1
    flat = FlatGraph.from_graph(path_graph(3, w))
    assert (flat.n - 1) * int(flat.wmax) + 1 == csr_module._FW_SENTINEL
    assert _fw_applicable(flat)
    assert _fw_scan(flat, digest=True) == _python_scan(flat, 0, 3, digest=True)


# --------------------------------------------------------------------- #
# Fractional-weight regime
# --------------------------------------------------------------------- #


def test_float_integral_weights_use_dial(each_scan_path):
    g = _float_integral_graph()
    flat = FlatGraph.from_graph(g)
    assert flat.integral  # float-typed but integral: Dial eligible
    cache = param_cache(g)
    assert cache.diameter() == source_scan(flat).diameter
    assert cache.diameter() == _python_scan(flat, 0, flat.n).diameter


def test_mixed_weights_use_heap(each_scan_path):
    g = _mixed_weight_graph(5)
    flat = FlatGraph.from_graph(g)
    assert not flat.integral  # fractional: Dial ineligible
    cache = param_cache(g)
    scan = source_scan(flat)
    assert cache.diameter() == scan.diameter
    assert cache.max_neighbor_distance() == scan.max_neighbor_distance


@pytest.mark.parametrize("factory", [
    _fractional_graph, _mixed_weight_graph,
], ids=["fractional", "mixed"])
def test_fractional_backends_agree(factory):
    g = factory(4)
    flat = _assert_both_paths_match_oracle(g)
    assert not _fw_applicable(flat)  # float regime: the Python loop only
    assert list(csr_prim_mst(flat).edges()) == list(prim_mst_dicts(g).edges())


# --------------------------------------------------------------------- #
# Serial == pool byte-identity holds on both scan paths
# --------------------------------------------------------------------- #


def _clear_chaos_memos():
    """Drop memoized chaos cases: their graphs (and caches) get rebuilt."""
    from repro.experiments import parallel

    parallel._cases_by_name.cache_clear()
    parallel._reference.cache_clear()


def _force_python_scan(monkeypatch):
    _clear_chaos_memos()
    monkeypatch.setattr(csr_module, "_fw_applicable", lambda _flat: False)


@pytest.mark.parametrize("path", ["python", "numpy"])
def test_chaos_rows_serial_equals_pool_per_backend(path, monkeypatch):
    from repro.experiments.parallel import chaos_rows, shutdown_pool

    shutdown_pool()  # forked workers inherit the forced path
    if path == "python":
        _force_python_scan(monkeypatch)
    kw = dict(n=10, extra_edges=12, graph_seed=4, drop_rates=(0.0, 0.2))
    try:
        serial = chaos_rows(jobs=1, **kw)
        pooled = chaos_rows(jobs=2, force="pool", **kw)
    finally:
        shutdown_pool()
    assert serial == pooled


def test_chaos_rows_identical_across_backends(monkeypatch):
    from repro.experiments.parallel import chaos_rows

    kw = dict(n=8, extra_edges=6, graph_seed=3, drop_rates=(0.0, 0.1),
              jobs=1)
    _clear_chaos_memos()
    rule_rows = chaos_rows(**kw)
    _force_python_scan(monkeypatch)
    assert chaos_rows(**kw) == rule_rows
