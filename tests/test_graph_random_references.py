"""The graph operators of ``stages/graph_algos`` on generated multigraphs,
against networkx, a dense numpy iteration or a plain-Python reference.

The hand-built graphs in test_graph_algos / test_graph_more pin each
operator's semantics on a few nodes; these cases run every operator on
two larger generated graphs with duplicate edges, self-loops, sinks,
sources and more than one component, where a mistake in a join key or a
dedup step changes many rows at once.  Scores that the operators round
half-up to 1e-6 are compared within 1e-6.
"""
import math

import networkx as nx
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from kgray.stages import graph_algos as ga


def _random_multigraph(seed):
    # ~60 directed edges over 24 nodes, with repeats and self-loops
    rng = np.random.default_rng(seed)
    src = rng.integers(0, 24, 60)
    dst = rng.integers(0, 24, 60)
    pairs = [(f"n{a:02d}", f"n{b:02d}") for a, b in zip(src, dst)]
    return pairs + pairs[:6] + [("n03", "n03")]


def _two_components():
    # a hub-and-spoke star with a cycle, and a separate directed chain;
    # the sink "a_sink" sorts before every source node
    pairs = [("hub", f"s{i}") for i in range(6)]
    pairs += [(f"s{i}", f"s{(i + 1) % 6}") for i in range(6)]
    pairs += [("s0", "hub"), ("hub", "s1"), ("s2", "s2"), ("s3", "a_sink")]
    pairs += [(f"c{i}", f"c{i + 1}") for i in range(5)]
    return pairs


GRAPHS = {"random_multigraph": _random_multigraph(5),
          "two_components": _two_components()}


@pytest.fixture(params=list(GRAPHS), ids=list(GRAPHS))
def graph(request):
    pairs = GRAPHS[request.param]
    src, dst = zip(*pairs)
    ds = ray.data.from_arrow(pa.table({"src": pa.array(src, pa.string()),
                                       "dst": pa.array(dst, pa.string())}))
    g = nx.DiGraph()
    g.add_edges_from(pairs)
    return ds, g, pairs


def _round6(x):
    return math.floor(x * 1e6 + 0.5) / 1e6


def test_pagerank_converges_to_the_dense_fixed_point(graph):
    ds, g, _ = graph
    # the Google matrix, dangling rows spread uniformly, iterated to a
    # fixed point
    nodes = sorted(g)
    n = len(nodes)
    a = nx.to_numpy_array(g, nodelist=nodes)
    out_deg = a.sum(axis=1)
    p = np.where(out_deg[:, None] > 0, a / np.maximum(out_deg, 1)[:, None],
                 1.0 / n)
    r = np.full(n, 1.0 / n)
    for _ in range(2000):
        r = 0.15 / n + 0.85 * (r @ p)
    got = ga.pagerank(ds, iters=150).to_pandas().set_index("node").pr
    assert sorted(got.index) == nodes
    for v, want in zip(nodes, r):
        assert abs(got[v] - want) <= 1e-6, v
    assert abs(got.sum() - 1.0) < 1e-4


def test_hits_matches_max_normalized_power_iteration(graph):
    ds, g, _ = graph
    nodes = sorted(g)
    h = {v: 1.0 for v in nodes}
    for _ in range(5):
        a = {v: sum(h[u] for u in g.predecessors(v)) for v in nodes}
        top = max(a.values())
        a = {v: x / top for v, x in a.items()} if top > 0 else a
        h = {v: sum(a[w] for w in g.successors(v)) for v in nodes}
        top = max(h.values())
        h = {v: x / top for v, x in h.items()} if top > 0 else h
    out = ga.hits(ds, iters=5).to_pandas().set_index("node")
    assert sorted(out.index) == nodes
    for v in nodes:
        assert abs(out.authority[v] - _round6(a[v])) <= 1e-6, v
        assert abs(out.hub[v] - _round6(h[v])) <= 1e-6, v


def test_degree_stats_match_networkx(graph):
    ds, g, _ = graph
    out = ga.degree_stats(ds).to_pandas().set_index("node")
    assert sorted(out.index) == sorted(g)
    assert out.out_deg.to_dict() == dict(g.out_degree())
    assert out.in_deg.to_dict() == dict(g.in_degree())


def test_local_clustering_matches_networkx(graph):
    ds, g, _ = graph
    u = nx.Graph(g.to_undirected())
    u.remove_edges_from(list(nx.selfloop_edges(u)))
    out = ga.local_clustering(ds).to_pandas().set_index("node")
    want_nodes = {v for v in u if u.degree(v) > 0}
    assert set(out.index) == want_nodes
    tri = nx.triangles(u)
    cc = nx.clustering(u)
    for v in want_nodes:
        assert out.degree[v] == u.degree(v), v
        assert out.n_triangles[v] == tri[v], v
        assert abs(out.clustering[v] - _round6(cc[v])) <= 1e-6, v


def test_bfs_distances_match_networkx(graph):
    ds, g, _ = graph
    seeds = sorted(g)[:2]
    seed_ds = ray.data.from_pandas(pd.DataFrame({"node": seeds}))
    for depth in (1, 3):
        out = ga.bfs_distances(ds, seed_ds, max_depth=depth).to_pandas()
        assert out.node.is_unique
        want = nx.multi_source_dijkstra_path_length(g, set(seeds),
                                                    cutoff=depth)
        assert out.set_index("node").dist.to_dict() == dict(want)


def test_multi_source_bfs_matches_networkx_per_seed(graph):
    ds, g, _ = graph
    seeds = sorted(g)[-3:]
    seed_ds = ray.data.from_pandas(pd.DataFrame({"node": seeds}))
    out = ga.multi_source_bfs(ds, seed_ds, max_depth=2).to_pandas()
    got = {(r.s, r.node): r.dist for r in out.itertuples()}
    want = {
        (s, v): d
        for s in seeds
        for v, d in nx.single_source_shortest_path_length(
            g, s, cutoff=2).items()
    }
    assert got == want


def test_neighbor_jaccard_matches_set_reference(graph):
    ds, g, _ = graph
    nbrs = {v: set(g.successors(v)) for v in g}
    want = {}
    for a in sorted(g):
        for b in sorted(g):
            if a < b and nbrs[a] & nbrs[b]:
                want[(a, b)] = _round6(
                    len(nbrs[a] & nbrs[b]) / len(nbrs[a] | nbrs[b]))
    out = ga.neighbor_jaccard(ds).to_pandas()
    got = {(r.node_a, r.node_b): r.jaccard for r in out.itertuples()}
    assert set(got) == set(want)
    for k, j in want.items():
        assert abs(got[k] - j) <= 1e-6, k


def test_two_hop_counts_match_set_reference(graph):
    ds, g, _ = graph
    want = {}
    for u in g:
        far = {w for v in g.successors(u) for w in g.successors(v)} - {u}
        if far:
            want[u] = len(far)
    out = ga.two_hop_counts(ds).to_pandas()
    assert out.set_index("node").n_two_hop.to_dict() == want


def test_harmonic_closeness_matches_networkx(graph):
    ds, g, pairs = graph
    landmarks = sorted({s for s, _ in pairs})[:4]
    score, n_src = {}, {}
    for s in landmarks:
        for v, d in nx.single_source_shortest_path_length(
                g, s, cutoff=3).items():
            if d > 0:
                score[v] = score.get(v, 0.0) + 1.0 / d
                n_src[v] = n_src.get(v, 0) + 1
    out = ga.harmonic_closeness(ds, n_landmarks=4, max_depth=3).to_pandas()
    out = out.set_index("node")
    assert set(out.index) == set(score)
    assert out.n_sources.to_dict() == n_src
    for v, h in score.items():
        assert abs(out.closeness[v] - _round6(h)) <= 1e-6, v


def test_comention_graph_matches_set_reference(graph):
    _, _, pairs = graph
    # spread the edges over documents, a few edges each
    rows = [(f"d{i % 7}", s, t) for i, (s, t) in enumerate(pairs)]
    doc, src, dst = zip(*rows)
    ds = ray.data.from_arrow(pa.table({"doc_id": list(doc),
                                       "src": list(src),
                                       "dst": list(dst)}))
    ents = {}
    for d, s, t in rows:
        ents.setdefault(d, set()).update((s, t))
    want = {}
    for es in ents.values():
        for a in es:
            for b in es:
                if a < b:
                    want[(a, b)] = want.get((a, b), 0) + 1
    out = ga.comention_graph(ds).to_pandas()
    got = {(r.entity_a, r.entity_b): r.n_docs for r in out.itertuples()}
    assert got == want
