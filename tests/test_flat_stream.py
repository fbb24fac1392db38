"""Streamed flat-graph builders and snapshot kernels.

Three contracts pinned here:

1. **Stream == dict**: each direct-to-CSR generator
   (``lower_bound_flat`` / ``lower_bound_split_flat`` /
   ``random_connected_flat``) is byte-identical — all three buffers and
   the content fingerprint — to building the dict-of-dicts graph and
   snapshotting it (``FlatGraph.from_graph``).  This is what lets the
   big bench tier skip the dict representation entirely at n = 10^6
   without changing a single byte of any answer.
2. **Kernel identity**: the source scan over a streamed snapshot hashes
   the same distance rows as the ``sssp_maps`` oracle, and its two paths
   (the Python loop and Floyd–Warshall) return *equal* results —
   including the sha256 digest over the float64 distance bytes.
3. **Fingerprint stability**: pinned hex literals, so an accidental
   change to buffer layout, interning order, or hashing shows up as a
   test diff rather than a silently incompatible shared-memory key.
"""

import hashlib
import math
import random
from array import array

import pytest

from repro.graphs import (
    FlatGraph,
    edges_to_flat,
    lower_bound_flat,
    lower_bound_graph,
    lower_bound_split_flat,
    lower_bound_split_graph,
    random_connected_flat,
    random_connected_graph,
    source_scan,
    sssp_maps,
)
from repro.graphs.csr import (
    _fw_applicable,
    _fw_scan,
    _python_scan,
    flat_stripe_stats,
)


def assert_flats_identical(a: FlatGraph, b: FlatGraph) -> None:
    assert a.n == b.n
    assert a.m2 == b.m2
    assert a.integral == b.integral
    assert a.wmax == b.wmax
    ab, bb = a.buffers(), b.buffers()
    for x, y in zip(ab, bb, strict=True):
        assert bytes(x) == bytes(y)
    assert a.fingerprint == b.fingerprint


# --------------------------------------------------------------------- #
# Stream == dict byte identity
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("n", [4, 5, 8, 12, 37])
def test_lower_bound_stream_matches_dict(n):
    streamed = lower_bound_flat(n)
    via_dict = FlatGraph.from_graph(lower_bound_graph(n))
    assert_flats_identical(streamed, via_dict)


def test_lower_bound_heavy_stream_matches_dict():
    streamed = lower_bound_flat(9, 16.0)
    via_dict = FlatGraph.from_graph(lower_bound_graph(9, 16.0))
    assert_flats_identical(streamed, via_dict)
    # Validation parity with the dict builder.
    with pytest.raises(ValueError):
        lower_bound_flat(3)
    with pytest.raises(ValueError):
        lower_bound_flat(9, 4.0)


@pytest.mark.parametrize("n,i", [(8, 2), (13, 5), (20, 1), (21, 10)])
def test_lower_bound_split_stream_matches_dict(n, i):
    streamed = lower_bound_split_flat(n, i)
    via_dict = FlatGraph.from_graph(lower_bound_split_graph(n, i))
    assert_flats_identical(streamed, via_dict)


@pytest.mark.parametrize("n,extra,seed", [
    (1, 0, 0), (2, 0, 1), (14, 20, 2), (60, 150, 7), (25, 1000, 5),
])
def test_random_stream_matches_dict(n, extra, seed):
    streamed = random_connected_flat(n, extra, seed=seed)
    via_dict = FlatGraph.from_graph(random_connected_graph(n, extra, seed=seed))
    assert_flats_identical(streamed, via_dict)


def test_random_stream_replays_explicit_rng():
    # Same RNG object, same draw sequence -> same graph; but no seed means
    # no rebuild spec (the stream can't be replayed from primitives).
    streamed = random_connected_flat(30, 40, rng=random.Random(99))
    via_dict = FlatGraph.from_graph(random_connected_graph(30, 40,
                                                           rng=random.Random(99)))
    assert_flats_identical(streamed, via_dict)
    assert streamed.spec is None
    assert random_connected_flat(30, 40, seed=99).spec == \
        ("random_connected", 30, 40, 99, 10.0)


def test_edges_to_flat_numpy_and_python_paths_agree():
    # Two placements of the same edges: numpy's stable lexsort in
    # edges_to_flat, and the Python walk of the dict adjacency in
    # FlatGraph.from_graph.
    for streamed, graph in (
        (lower_bound_flat(23), lower_bound_graph(23)),
        (lower_bound_split_flat(19, 3), lower_bound_split_graph(19, 3)),
        (random_connected_flat(40, 80, seed=6),
         random_connected_graph(40, 80, seed=6)),
    ):
        assert_flats_identical(streamed, FlatGraph.from_graph(graph))


def test_fingerprints_pinned():
    # Content-addressed shared-memory keys: layout or hash changes must
    # be deliberate (they invalidate cross-process snapshot identity).
    assert lower_bound_flat(12).fingerprint == "2916cdc6c61c00fc"
    assert lower_bound_split_flat(13, 5).fingerprint == "27c7fcb3b8671b57"
    assert random_connected_flat(14, 20, seed=2).fingerprint == \
        "ce4b9be42d32240d"


def test_edges_to_flat_rejects_bad_lengths():
    from array import array

    with pytest.raises(ValueError):
        edges_to_flat(3, array("q", [0]), array("q", [1, 2]),
                      array("d", [1.0]), integral=True, wmax=1.0)


# --------------------------------------------------------------------- #
# Kernel identity on the flat snapshot
# --------------------------------------------------------------------- #


def test_flat_sssp_dist_matches_sssp_maps_oracle():
    # The streamed snapshot's distance rows (read straight off the
    # buffers) hash to the same digest as the oracle's rows.
    flat = random_connected_flat(40, 90, seed=11)
    dict_flat = FlatGraph.from_graph(random_connected_graph(40, 90, seed=11))
    for source_idx in (0, 7, 39):
        oracle, _ = sssp_maps(dict_flat, dict_flat.verts[source_idx])
        row = array("d", [oracle.get(v, math.inf) for v in dict_flat.verts])
        scan = source_scan(flat, source_idx, source_idx + 1, digest=True)
        assert scan.digest == hashlib.sha256(row).hexdigest()[:16]
        assert scan.ecc == [max(oracle.values())]


def test_source_stats_python_numpy_identical():
    for flat in (
        random_connected_flat(50, 120, seed=3),
        lower_bound_flat(40),
        lower_bound_split_flat(30, 7),
    ):
        assert _fw_applicable(flat)
        py = _python_scan(flat, 0, flat.n, digest=True)
        assert py == _fw_scan(flat, digest=True)  # incl. the bytes digest
        assert source_scan(flat, digest=True) == py
    pinned = source_scan(random_connected_flat(50, 120, seed=3), digest=True)
    assert (pinned.reach_min, max(pinned.ecc), pinned.digest) == \
        (50, 22.0, "d0d0fe6558f3b35a")


def test_source_stats_partial_and_empty_ranges():
    flat = random_connected_flat(20, 30, seed=4)
    full = source_scan(flat, digest=True)
    half = source_scan(flat, 5, 10, digest=True)
    assert len(half.ecc) == 5
    assert half.ecc == full.ecc[5:10]
    assert half.digest != full.digest
    empty = source_scan(flat, 7, 7)
    assert empty.ecc == []
    assert empty.reach_min == 0
    assert empty.diameter == 0.0
    with pytest.raises(IndexError):
        source_scan(flat, 0, 21)
    with pytest.raises(IndexError):
        source_scan(flat, -1, 5)


def test_stripe_stats_cover_whole_graph():
    flat = random_connected_flat(60, 140, seed=9)
    rows = [flat_stripe_stats(flat, lo, min(lo + 7, 60))
            for lo in range(0, 60, 7)]
    assert sum(r["verts"] for r in rows) == flat.n
    assert sum(r["edges"] for r in rows) == flat.m2
    assert max(r["wmax"] for r in rows) == flat.wmax
    # Weight mass is duplicated across stripes exactly like the CSR
    # half-edges duplicate each undirected edge.
    total = sum(r["wsum"] for r in rows)
    assert total == pytest.approx(sum(flat.weights))
    # Same stripe, same bytes -> same digest; distinct stripes differ.
    assert flat_stripe_stats(flat, 0, 7) == rows[0]
    assert rows[0]["digest"] != rows[1]["digest"]
    with pytest.raises(IndexError):
        flat_stripe_stats(flat, 50, 61)


def test_flat_of_round_trips_through_cache():
    from repro.graphs import param_cache

    g = random_connected_graph(18, 25, seed=13)
    cache = param_cache(g)
    flat = cache.flat()
    assert cache.flat() is flat  # memoized per version
    assert cache.stats()["flat_builds"] == 1
    assert_flats_identical(flat, FlatGraph.from_graph(g))
    g.add_edge(0, 17, 3.0)
    flat2 = cache.flat()
    assert flat2 is not flat
    assert flat2.version == g.version
    assert cache.stats()["flat_builds"] == 2
    assert flat2.fingerprint != flat.fingerprint
