"""Semantics tests for PageRank (stages/graph_algos) and the
unigram-LM / NTILE operators (stages/corpus_stats additions).

Oracle parity at sf0.01 is covered by __ray_entry__ (unrolled-SQL
PageRank, ln()-exact NLL, ntile(10)); these pin the kernels against
hand-rolled references on controlled inputs.
"""
import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

SF = "/root/testdata/sf0.001"


def _ref_pagerank(edge_set, iters=4, d=0.85):
    nodes = sorted({s for s, _ in edge_set} | {t for _, t in edge_set})
    idx = {v: i for i, v in enumerate(nodes)}
    outdeg = {v: sum(1 for s, _ in edge_set if s == v) for v in nodes}
    n = float(len(nodes))
    r = np.full(len(nodes), 1 / n)
    for _ in range(iters):
        m = sum(r[idx[v]] for v in nodes if outdeg[v] == 0)
        c = np.zeros(len(nodes))
        for s, t in edge_set:
            c[idx[t]] += r[idx[s]] / outdeg[s]
        r = (1 - d) / n + d * (c + m / n)
    return {
        v: float(np.floor(r[idx[v]] * 1e6 + 0.5) / 1e6) for v in nodes
    }


def test_pagerank_matches_reference_with_dangling_and_dups():
    from kgray.stages.graph_algos import pagerank

    # dup edge a→b, dangling sink d, self-loop e→e
    edges = pa.table(
        {
            "src": ["a", "a", "b", "c", "a", "e"],
            "dst": ["b", "c", "c", "d", "b", "e"],
        }
    )
    out = (
        pagerank(ray.data.from_arrow(edges), iters=4)
        .to_pandas()
        .set_index("node")
        .pr.to_dict()
    )
    want = _ref_pagerank(
        {("a", "b"), ("a", "c"), ("b", "c"), ("c", "d"), ("e", "e")}
    )
    assert out == want


def test_pagerank_mass_conserved():
    from kgray.stages.graph_algos import pagerank

    edges = pa.table(
        {"src": ["a", "b", "c"], "dst": ["b", "c", "a"]}
    )
    out = pagerank(ray.data.from_arrow(edges), iters=6).to_pandas()
    assert abs(out.pr.sum() - 1.0) < 1e-5
    # symmetric cycle ⇒ uniform ranks
    assert out.pr.nunique() == 1


def test_unigram_nll_hand_computed(tmp_path):
    from kgray.stages.corpus_stats import unigram_nll

    # corpus: 'x' appears 3/4, 'y' 1/4
    pd.DataFrame(
        {"doc_id": [1, 2], "text": ["x x y", "x"]}
    ).to_parquet(tmp_path / "documents.parquet")
    out = (
        unigram_nll(str(tmp_path))
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    lx, ly = np.log(3 / 4), np.log(1 / 4)
    exp1 = np.floor(-((2 * lx + ly) / 3) * 1e6 + 0.5) / 1e6
    exp2 = np.floor(-lx * 1e6 + 0.5) / 1e6
    assert out.loc[1].tolist() == [3, exp1]
    assert out.loc[2].tolist() == [1, exp2]


def test_length_deciles_ntile_semantics(tmp_path):
    from kgray.stages.corpus_stats import length_deciles

    # N=13, B=5 → bucket sizes 3,3,3,2,2 over (n_chars, doc_id) order
    df = pd.DataFrame(
        {
            "doc_id": range(13),
            "n_chars": [5, 5, 5, 5, 1, 1, 9, 9, 9, 9, 9, 9, 2],
        }
    )
    df.to_parquet(tmp_path / "documents.parquet")
    out = (
        length_deciles(str(tmp_path), buckets=5)
        .to_pandas()
        .sort_values(["n_chars", "doc_id"])
        .reset_index(drop=True)
    )
    assert out.decile.tolist() == [1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 5, 5]
    order = list(zip(out.n_chars, out.doc_id))
    assert order == sorted(order)


def test_length_deciles_balanced_on_sf():
    from kgray.stages.corpus_stats import length_deciles

    out = length_deciles(SF).to_pandas()
    sizes = out.decile.value_counts()
    assert sorted(sizes.index) == list(range(1, 11))
    assert sizes.max() - sizes.min() <= 1


def test_two_hop_counts_hand_graph():
    from kgray.stages.graph_algos import two_hop_counts

    # a->b->c, a->b->d, b->c->a (cycle back, c!=b's src b? b->c->a: far a
    # from b), duplicate edge a->b must not double-count, self-reach
    # excluded: c->a->b (c reaches b), a->b->a would be excluded if present
    e = pd.DataFrame(
        {
            "src": ["a", "a", "b", "b", "c"],
            "dst": ["b", "b", "c", "d", "a"],
        }
    )
    out = (
        two_hop_counts(ray.data.from_pandas(e))
        .to_pandas()
        .set_index("node")
        .n_two_hop.to_dict()
    )
    # a -> b -> {c, d}: 2;  b -> c -> a: 1;  c -> a -> b: 1
    assert out == {"a": 2, "b": 1, "c": 1}

def _ref_hits(edge_set, iters=4):
    nodes = sorted({s for s, _ in edge_set} | {t for _, t in edge_set})
    idx = {v: i for i, v in enumerate(nodes)}
    h = np.ones(len(nodes))
    a = np.zeros(len(nodes))
    for _ in range(iters):
        a = np.zeros(len(nodes))
        for s, t in edge_set:
            a[idx[t]] += h[idx[s]]
        a /= max(a.max(), 1e-300) if a.max() > 0 else 1.0
        h = np.zeros(len(nodes))
        for s, t in edge_set:
            h[idx[s]] += a[idx[t]]
        h /= max(h.max(), 1e-300) if h.max() > 0 else 1.0
    return {
        v: (float(np.floor(a[idx[v]] * 1e6 + 0.5) / 1e6),
            float(np.floor(h[idx[v]] * 1e6 + 0.5) / 1e6))
        for v in nodes
    }


def test_hits_matches_reference():
    from kgray.stages.graph_algos import hits

    # dup edge a→b, pure sink d (hub 0), pure source a (authority 0)
    edges = pa.table(
        {
            "src": ["a", "a", "b", "c", "a", "c"],
            "dst": ["b", "c", "c", "d", "b", "b"],
        }
    )
    out = hits(ray.data.from_arrow(edges), iters=4).to_pandas()
    got = {
        r.node: (r.authority, r.hub) for r in out.itertuples()
    }
    want = _ref_hits(
        {("a", "b"), ("a", "c"), ("b", "c"), ("c", "d"), ("c", "b")}
    )
    assert got == want
    assert got["a"][0] == 0.0  # pure source: no in-edges
    assert got["d"][1] == 0.0  # pure sink: no out-edges


def test_hits_max_normalized_and_empty():
    from kgray.stages.graph_algos import hits

    edges = pa.table({"src": ["a", "b"], "dst": ["b", "a"]})
    out = hits(ray.data.from_arrow(edges), iters=3).to_pandas()
    # symmetric 2-cycle: both nodes are the max hub and max authority
    assert (out.authority == 1.0).all() and (out.hub == 1.0).all()

    empty = pa.table(
        {"src": pa.array([], pa.string()), "dst": pa.array([], pa.string())}
    )
    assert hits(ray.data.from_arrow(empty)).count() == 0


def test_rank_distributed_path_equals_local_fast_path(monkeypatch):
    """The RANK_LOCAL_MAX_EDGES auto dispatch must not change results:
    force the distributed per-iteration shuffle path on the same graph
    and require identical (1e-6-rounded) scores from both."""
    import kgray.stages.graph_algos as ga

    rng = np.random.default_rng(3)
    src = [f"n{i}" for i in rng.integers(0, 30, 150)]
    dst = [f"n{i}" for i in rng.integers(0, 30, 150)]
    edges = ray.data.from_arrow(
        pa.table({"src": pa.array(src), "dst": pa.array(dst)})
    )

    pr_local = ga.pagerank(edges, iters=4).to_pandas()
    hits_local = ga.hits(edges, iters=4).to_pandas()

    monkeypatch.setattr(ga, "RANK_LOCAL_MAX_EDGES", 0)
    pr_dist = ga.pagerank(edges, iters=4).to_pandas()
    hits_dist = ga.hits(edges, iters=4).to_pandas()

    for a, b, cols in (
        (pr_local, pr_dist, ["node", "pr"]),
        (hits_local, hits_dist, ["node", "authority", "hub"]),
    ):
        a = a[cols].sort_values("node").reset_index(drop=True)
        b = b[cols].sort_values("node").reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b)


def test_harmonic_closeness_chain_semantics():
    """a->b->c->d->e chain, landmarks = all srcs (a..d), depth 3:
    hand-computable harmonic sums with exact 1/d rationals."""
    from kgray.stages.graph_algos import harmonic_closeness

    edges = pa.table({
        "src": pa.array(["a", "b", "c", "d"]),
        "dst": pa.array(["b", "c", "d", "e"]),
    })
    out = (
        harmonic_closeness(ray.data.from_arrow(edges), n_landmarks=4)
        .to_pandas().set_index("node")
    )
    # b: from a at 1 -> 1.0 ; c: a@2, b@1 -> 1.5 ; d: a@3,b@2,c@1 -> 11/6
    # e: b@3, c@2, d@1 -> 11/6 (a@4 beyond depth 3)
    assert float(out.loc["b", "closeness"]) == 1.0
    assert float(out.loc["c", "closeness"]) == 1.5
    assert abs(float(out.loc["d", "closeness"]) - 11 / 6) < 2e-6
    assert abs(float(out.loc["e", "closeness"]) - 11 / 6) < 2e-6
    assert int(out.loc["e", "n_sources"]) == 3
    assert "a" not in out.index  # nothing reaches a


def test_harmonic_closeness_distributed_equals_local(monkeypatch):
    """multi_source_bfs + distributed reduce must agree with the
    vectorized local fast path on the same random graph."""
    import kgray.stages.graph_algos as ga

    rng = np.random.default_rng(11)
    src = [f"n{i}" for i in rng.integers(0, 25, 120)]
    dst = [f"n{i}" for i in rng.integers(0, 25, 120)]
    edges = ray.data.from_arrow(
        pa.table({"src": pa.array(src), "dst": pa.array(dst)})
    )

    local = ga.harmonic_closeness(edges, n_landmarks=5).to_pandas()
    monkeypatch.setattr(ga, "RANK_LOCAL_MAX_EDGES", 0)
    dist = ga.harmonic_closeness(edges, n_landmarks=5).to_pandas()

    cols = ["node", "n_sources", "closeness"]
    a = local[cols].sort_values("node").reset_index(drop=True)
    b = dist[cols].sort_values("node").reset_index(drop=True)
    b["n_sources"] = b.n_sources.astype(a.n_sources.dtype)
    pd.testing.assert_frame_equal(a, b)
