"""Independent output checks, run after timing.

``networkx`` is the oracle: it shares no code with the library, so an
answer that agrees with it was not produced by the code under test
checking itself.  Every check returns ``None`` when the output is right
and a one-line reason when it is not.
"""

from __future__ import annotations

import hashlib

import networkx as nx


def to_nx(graph) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(graph.vertices)
    g.add_weighted_edges_from(graph.edges())
    return g


def _spanning_tree_problem(g: nx.Graph, edges) -> str | None:
    """Why ``edges`` is not a spanning tree of ``g`` (``None`` if it is)."""
    t = nx.Graph()
    t.add_nodes_from(g.nodes)
    for u, v, w in edges:
        if not g.has_edge(u, v) or g[u][v]["weight"] != w:
            return f"tree edge ({u!r}, {v!r}, {w}) is not an edge of the graph"
        t.add_edge(u, v, weight=w)
    if not nx.is_tree(t):
        return "not a spanning tree"
    return None


def spt_problem(graph, source, dist: dict, parent: dict) -> str | None:
    """Distances equal Dijkstra's, and every parent edge is tight."""
    want = nx.single_source_dijkstra_path_length(to_nx(graph), source)
    if set(dist) != set(want):
        return "distance table does not cover the vertices"
    for v, d in want.items():
        if dist[v] != d:
            return f"dist({v!r}) = {dist[v]} but Dijkstra says {d}"
        p = parent[v]
        if v == source:
            continue
        if p is None or dist[p] + graph.weight(p, v) != d:
            return f"parent of {v!r} is not on a shortest path"
    return None


def params_problem(graph, params) -> str | None:
    """E, V, D, d and W against networkx (exact: integer-valued weights)."""
    g = to_nx(graph)
    order = list(g.nodes)
    dist = nx.floyd_warshall_numpy(g, nodelist=order, weight="weight")
    index = {v: i for i, v in enumerate(order)}
    want = {
        "n": g.number_of_nodes(),
        "m": g.number_of_edges(),
        "E": g.size(weight="weight"),
        "V": nx.minimum_spanning_tree(g).size(weight="weight"),
        "D": float(dist.max()),
        "W": max(w for _, _, w in g.edges(data="weight")),
        "d": max(float(dist[index[u], index[v]]) for u, v in g.edges),
    }
    for key, value in want.items():
        if getattr(params, key) != value:
            return f"{key} = {getattr(params, key)} but networkx says {value}"
    return None


def cover_problem(graph, cover) -> str | None:
    """Lemma 3.2's structure: trees of G whose vertex sets cover every edge."""
    g = to_nx(graph)
    for i, ct in enumerate(cover.trees):
        t = to_nx(ct.tree)
        if not nx.is_tree(t):
            return f"cover tree {i} is not a tree"
        for u, v, w in ct.tree.edges():
            if not g.has_edge(u, v) or g[u][v]["weight"] != w:
                return f"cover tree {i} uses a non-edge ({u!r}, {v!r})"
    for u, v in g.edges:
        if not any(u in ct.vertices and v in ct.vertices for ct in cover.trees):
            return f"edge ({u!r}, {v!r}) is in no cover tree"
    return None


def slt_problem(graph, slt, q: float = 2.0) -> str | None:
    """A spanning tree with weight <= (1 + 2/q) V and depth <= (2q + 1) D."""
    g = to_nx(graph)
    problem = _spanning_tree_problem(g, slt.tree.edges())
    if problem:
        return problem
    v_mst = nx.minimum_spanning_tree(g).size(weight="weight")
    diam = float(nx.floyd_warshall_numpy(g, weight="weight").max())
    if slt.weight > (1.0 + 2.0 / q) * v_mst + 1e-6:
        return f"SLT weight {slt.weight} exceeds (1 + 2/q) V = {(1 + 2 / q) * v_mst}"
    if slt.depth() > (2.0 * q + 1.0) * diam + 1e-6:
        return f"SLT depth {slt.depth()} exceeds (2q + 1) D"
    return None


# --------------------------------------------------------------------- #
# Chaos cells
# --------------------------------------------------------------------- #


def digest(answer) -> str:
    """The answer digest a chaos row carries (see ``run_chaos_cell``)."""
    return hashlib.sha256(repr(answer).encode()).hexdigest()[:16]


def chaos_answer_problem(case, answer) -> str | None:
    """The fault-free answer of one chaos case is right, by networkx."""
    g = to_nx(case.graph)
    root = case.graph.vertices[0]
    n = g.number_of_nodes()
    if case.name == "broadcast":
        want = sorted((repr(v), "chaos-payload") for v in g.nodes)
    elif case.name == "convergecast":
        want = n  # every node contributes 1
    elif case.name == "global_fn(slt)":
        want = sorted((repr(v), n) for v in g.nodes)
    elif case.name in ("mst_ghs", "mst_fast"):
        by_repr = {repr(v): v for v in g.nodes}
        edges = []
        for x, y in answer:
            a, b = by_repr.get(x), by_repr.get(y)
            if not g.has_edge(a, b):
                return f"{case.name}: answer edge ({x}, {y}) is not in the graph"
            edges.append((a, b, g[a][b]["weight"]))
        problem = _spanning_tree_problem(g, edges)
        if problem:
            return f"{case.name}: {problem}"
        want = nx.minimum_spanning_tree(g).size(weight="weight")
        if sum(w for _, _, w in edges) != want:
            return f"{case.name}: answer is not a minimum spanning tree"
        return None
    elif case.name == "dfs":
        return _dfs_problem(g, root, dict(answer))
    else:
        return f"no oracle for chaos case {case.name!r}"
    if answer != want:
        return f"{case.name}: fault-free answer differs from the oracle"
    return None


def _dfs_problem(g: nx.Graph, root, parents: dict) -> str | None:
    """A rooted spanning tree in which every non-tree edge joins an
    ancestor to a descendant — the defining property of a DFS tree."""
    by_repr = {repr(v): v for v in g.nodes}
    parent = {by_repr[k]: (None if p == "None" else by_repr[p])
              for k, p in parents.items()}
    if set(parent) != set(g.nodes) or parent[root] is not None:
        return "dfs: parents do not describe a tree rooted at the root"
    t = nx.DiGraph((p, v) for v, p in parent.items() if p is not None)
    t.add_nodes_from(g.nodes)
    if not nx.is_arborescence(t):
        return "dfs: parents do not form a spanning tree"
    for u, v in g.edges:
        if not (nx.has_path(t, u, v) or nx.has_path(t, v, u)):
            return f"dfs: non-tree edge ({u!r}, {v!r}) is a cross edge"
    return None


def chaos_row_problem(row: dict, expected_digest: str) -> str | None:
    """The chaos contract for one cell.

    Reliable cells must end ``ok`` with the fault-free answer; raw cells
    may fail detectably but must never be ``wrong``, and when they end
    ``ok`` their answer is the fault-free one.
    """
    status = row["status"]
    if row["reliable"] and status != "ok":
        return f"reliable cell ended {status!r}"
    if status == "wrong":
        return "raw cell silently wrong"
    if status == "ok" and row["answer_digest"] != expected_digest:
        return "answer differs from the fault-free answer"
    return None
