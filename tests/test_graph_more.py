"""Semantics tests for the round-2 graph-algorithm additions
(degree_stats, local_clustering, bfs_distances, neighbor_jaccard)
on hand-built graphs with known answers."""
import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data


def _edges(pairs):
    src, dst = zip(*pairs)
    return ray.data.from_arrow(
        pa.table({"src": pa.array(src, pa.string()),
                  "dst": pa.array(dst, pa.string())})
    )


def test_degree_stats_counts_distinct_directed_edges():
    from kgray.stages.graph_algos import degree_stats

    # duplicate edge a->b must count once; self loop counts both ways
    e = _edges([("a", "b"), ("a", "b"), ("a", "c"), ("b", "c"), ("c", "c")])
    out = degree_stats(e).to_pandas().set_index("node")
    assert out.out_deg.to_dict() == {"a": 2, "b": 1, "c": 1}
    assert out.in_deg.to_dict() == {"b": 1, "c": 3}  | {"a": 0}


def test_local_clustering_triangle_plus_tail():
    from kgray.stages.graph_algos import local_clustering

    # triangle a-b-c plus tail c-d (directions/duplicates must not matter)
    e = _edges([("a", "b"), ("b", "c"), ("c", "a"), ("a", "c"), ("c", "d")])
    out = local_clustering(e).to_pandas().set_index("node")
    assert out.degree.to_dict() == {"a": 2, "b": 2, "c": 3, "d": 1}
    assert out.n_triangles.to_dict() == {"a": 1, "b": 1, "c": 1, "d": 0}
    assert out.clustering["a"] == 1.0
    assert out.clustering["b"] == 1.0
    assert out.clustering["c"] == np.floor(2 * 1 / 6 * 1e6 + 0.5) / 1e6
    assert out.clustering["d"] == 0.0


def test_bfs_distances_min_depth_and_bound():
    from kgray.stages.graph_algos import bfs_distances

    # a -> b -> c -> d -> e  plus shortcut a -> c; f unreachable
    e = _edges([("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"),
                ("a", "c"), ("f", "a")])
    seeds = ray.data.from_pandas(pd.DataFrame({"node": ["a"]}))
    out = bfs_distances(e, seeds, max_depth=3).to_pandas()
    got = out.set_index("node").dist.to_dict()
    assert got == {"a": 0, "b": 1, "c": 1, "d": 2, "e": 3}
    # depth bound: e absent at max_depth=2, f never reachable from a
    out2 = bfs_distances(e, seeds, max_depth=2).to_pandas()
    assert "e" not in set(out2.node)
    assert "f" not in got


def test_neighbor_jaccard_shared_out_neighbors():
    from kgray.stages.graph_algos import neighbor_jaccard

    # N(a)={x,y}, N(b)={x,y,z}, N(c)={z} → J(a,b)=2/3, J(b,c)=1/3
    e = _edges([("a", "x"), ("a", "y"),
                ("b", "x"), ("b", "y"), ("b", "z"),
                ("c", "z")])
    out = neighbor_jaccard(e).to_pandas()
    got = {
        (r.node_a, r.node_b): r.jaccard for r in out.itertuples()
    }
    assert set(got) == {("a", "b"), ("b", "c")}
    assert got[("a", "b")] == np.floor(2 / 3 * 1e6 + 0.5) / 1e6
    assert got[("b", "c")] == np.floor(1 / 3 * 1e6 + 0.5) / 1e6


def test_comention_graph_counts_documents_once():
    from kgray.stages.graph_algos import comention_graph

    rows = pd.DataFrame(
        {
            "doc_id": ["d1", "d1", "d1", "d2", "d3"],
            "src": ["a", "a", "b", "a", "c"],
            "dst": ["b", "b", "c", "b", "c"],  # d3: self-mention only
        }
    )
    edges = ray.data.from_arrow(pa.Table.from_pandas(rows))
    out = comention_graph(edges).to_pandas()
    got = {(r.entity_a, r.entity_b): r.n_docs for r in out.itertuples()}
    # d1 mentions {a,b,c} → 3 pairs; d2 mentions {a,b}; duplicate edges
    # within a doc count once; d3's self-loop yields no pair
    assert got == {("a", "b"): 2, ("a", "c"): 1, ("b", "c"): 1}


def test_consolidate_edges_evidence_stats():
    from kgray.stages.graph import consolidate_edges

    rows = [
        # triple (s,p,o): 3 extractions across 2 docs
        ("d1", "s", "p", "o"), ("d1", "s", "p", "o"), ("d2", "s", "p", "o"),
        # triple (a,r,b): once
        ("d2", "a", "r", "b"),
    ]
    doc, s, p, o = zip(*rows)
    edges = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(doc), "subj": pa.array(s),
        "pred": pa.array(p), "obj": pa.array(o),
    }))
    out = consolidate_edges(edges).to_pandas().set_index("subj")
    assert int(out.loc["s", "n_evidence"]) == 3
    assert int(out.loc["s", "n_docs"]) == 2
    assert out.loc["s", "first_doc"] == "d1"
    assert int(out.loc["a", "n_evidence"]) == 1
    # conservation: evidence counts sum to the raw edge-row count
    assert int(out.n_evidence.sum()) == len(rows)
