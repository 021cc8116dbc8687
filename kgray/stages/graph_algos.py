"""Iterative graph algorithms over edge tables — PageRank power
iteration as Dataset-to-Dataset transforms.

The engine's KG output is a node/edge table pair (stages/graph.py,
reference convert_to_cx2.py:124-166 emits the same shape); downstream
consumers rank entities on it.  PageRank is the representative iterative
algorithm: every iteration is a join + keyed aggregate, the one dataflow
shape Ray Data has no built-in loop for — so it is expressed here as a
driver-side Python loop over fully distributed per-iteration steps.

Scale shape per iteration (T iterations, E edges, V nodes):
- one ``repartition_join`` of the edge table against the rank table on
  src (both sides shuffled once on hash(key) — no broadcast of the
  V-sized rank vector, which at web scale does not fit a worker);
- one coarse keyed reduce summing contributions per dst;
- one left join back onto the node set (restores zero-indegree nodes);
- two scalar aggregates (dangling mass, node count) — driver receives
  exactly two floats, never a table.
Each iteration's rank table is materialized (V rows — the one
deliberately pinned intermediate; Ray re-executes lazy lineage per
consumer, and iteration k+1 consumes iteration k twice).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from ..utils import (
    blocks_of,
    coarse_grouped_map,
    dataset_of,
    pandas_reducer,
    repartition_join,
    schema_floor,
)


def _distinct_edges(edges: "ray.data.Dataset") -> "ray.data.Dataset":
    """(src, dst) with exact duplicates removed (combiner-first)."""

    def partial(batch: pa.Table) -> pa.Table:
        return batch.select(["src", "dst"]).group_by(
            ["src", "dst"]
        ).aggregate([])

    return coarse_grouped_map(
        edges.map_batches(partial, batch_format="pyarrow"),
        ["src", "dst"],
        pandas_reducer(lambda df: df.drop_duplicates(["src", "dst"])),
    )


# Auto fast-path bound for the ITERATIVE rank algorithms (pagerank,
# hits): graphs with at most this many distinct edges solve in a single
# vectorized pass over the collected edge list — the state is V+E
# bounded (≤ a few MB at the bound) and the distributed path's per-
# iteration fixed cost (3 shuffles × 2·iters rounds) dwarfs the actual
# arithmetic.  Bigger graphs run the shuffle-per-iteration path, which
# never holds the rank vector or edge list in one place: the constant
# bounds memory, not the corpus.
RANK_LOCAL_MAX_EDGES = 200_000


def _rank_index(edf: "pd.DataFrame"):
    """Sorted node vocabulary + int index arrays for a small edge list."""
    nodes = sorted(set(edf.src) | set(edf.dst))
    idx = {n: i for i, n in enumerate(nodes)}
    s = edf.src.map(idx).to_numpy(np.int64)
    d = edf.dst.map(idx).to_numpy(np.int64)
    return nodes, s, d


def pagerank(
    edges: "ray.data.Dataset",
    damping: float = 0.85,
    iters: int = 4,
) -> "ray.data.Dataset":
    """PageRank over a directed edge Dataset (src, dst) → (node, rank).

    Standard formulation: r₀ = 1/V;
    r_{t+1}(v) = (1-d)/V + d·(Σ_{u→v} r_t(u)/outdeg(u) + m_t/V)
    where m_t is the dangling (outdeg-0) mass.  Self-loops count as
    ordinary edges; duplicate edges collapse first.  Ranks are rounded
    half-up to 6 decimals ONLY on the final iteration, matching the SQL
    oracle's unrolled iterations expression-for-expression.

    Every per-iteration shuffle has the exchanges' one width
    (``utils.coarse_grouped_map``).

    AUTO-dispatched on the exact distinct-edge count
    (RANK_LOCAL_MAX_EDGES): small graphs run the identical recurrence as
    one vectorized bincount pass (V+E-bounded state, no per-iteration
    shuffle rounds); large graphs keep the fully distributed path.  Both
    paths round only on the final iteration, and both rely on the same
    1e-6 rounding to absorb float re-association (summation order is
    engine-arbitrary either way).
    """
    e = _distinct_edges(edges).materialize()
    if e.count() <= RANK_LOCAL_MAX_EDGES:
        edf = e.to_pandas()  # bounded by the dispatch constant
        if len(edf) == 0:
            return ray.data.from_arrow(
                pa.table({"node": pa.array([], pa.string()),
                          "pr": pa.array([], pa.float64())})
            )
        nodes, s, d = _rank_index(edf)
        n = float(len(nodes))
        outdeg = np.bincount(s, minlength=len(nodes)).astype(np.float64)
        dangling = outdeg == 0
        r = np.full(len(nodes), 1.0 / n)
        base = (1 - damping) / n
        for _ in range(iters):
            m = float(r[dangling].sum())
            c = np.bincount(
                d, weights=r[s] / outdeg[s], minlength=len(nodes)
            )
            r = base + damping * (c + m / n)
        return ray.data.from_pandas(
            pd.DataFrame(
                {"node": nodes, "pr": np.floor(r * 1e6 + 0.5) / 1e6}
            )
        )

    deg = coarse_grouped_map(
        e.map_batches(
            lambda b: b.group_by("src").aggregate([([], "count_all")])
            .rename_columns(["src", "outdeg"]),
            batch_format="pyarrow",
        ),
        "src",
        pandas_reducer(lambda df: df.groupby("src", as_index=False).agg(
            outdeg=("outdeg", "sum")
        )),
    )

    def node_halves(batch: pa.Table) -> pa.Table:
        both = pa.chunked_array(
            batch.column("src").chunks + batch.column("dst").chunks
        )
        return pa.table({"node": both})

    nodes = coarse_grouped_map(
        e.map_batches(node_halves, batch_format="pyarrow"),
        "node",
        pandas_reducer(lambda df: df.drop_duplicates("node")),
    ).materialize()
    n = float(nodes.count())

    # state: (node, r, outdeg); outdeg NaN ⟺ dangling
    state = repartition_join(
        nodes,
        deg,
        "node",
        "src",
        {"node": pa.string()},
        {"src": pa.string(), "outdeg": pa.int64()},
        how="left",
    ).map_batches(
        lambda df: df.assign(r=1.0 / n), batch_format="pandas"
    ).materialize()

    base = (1 - damping) / n
    for t in range(iters):
        dangling = state.map_batches(
            lambda df: pd.DataFrame(
                {"m": [df.r[df.outdeg.isna()].sum()]}
            ),
            batch_format="pandas",
            batch_size=None,
        ).sum("m")
        m = float(dangling or 0.0)

        contrib = repartition_join(
            e,
            state,
            "src",
            "node",
            {"src": pa.string(), "dst": pa.string()},
            {"node": pa.string(), "r": pa.float64(),
             "outdeg": pa.float64()},
        )

        def partial_sum(df: pd.DataFrame) -> pd.DataFrame:
            df = df.assign(w=df.r / df.outdeg)
            return df.groupby("dst", as_index=False).agg(c=("w", "sum"))

        summed = coarse_grouped_map(
            contrib.map_batches(
                partial_sum, batch_format="pandas", batch_size=None
            ),
            "dst",
            pandas_reducer(lambda df: df.groupby("dst", as_index=False).agg(
                c=("c", "sum")
            )),
        )

        joined = repartition_join(
            state.select_columns(["node", "outdeg"]),
            summed,
            "node",
            "dst",
            {"node": pa.string(), "outdeg": pa.float64()},
            {"dst": pa.string(), "c": pa.float64()},
            how="left",
        )

        def update(df: pd.DataFrame, _m=m) -> pd.DataFrame:
            c = df.c.fillna(0.0)
            return df.assign(r=base + damping * (c + _m / n))[
                ["node", "r", "outdeg"]
            ]

        state = joined.map_batches(
            update, batch_format="pandas"
        ).materialize()

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "node": df.node,
                "pr": np.floor(df.r.to_numpy() * 1e6 + 0.5) / 1e6,
            }
        )

    return state.map_batches(finalize, batch_format="pandas")


def _hits_half(
    e: "ray.data.Dataset",
    state: "ray.data.Dataset",
    nodes: "ray.data.Dataset",
    from_col: str,
    to_col: str,
    val: str,
    out_val: str,
) -> "ray.data.Dataset":
    """One HITS half-step: sum ``state[val]`` along edges from
    ``from_col`` into ``to_col``, max-normalize, left-join back onto the
    node set (score 0 for nodes with no incoming contribution).  One
    edge⋈state repartition join + one keyed reduce + one scalar max +
    one node-keyed left join — the driver sees exactly one float."""
    contrib = repartition_join(
        e,
        state,
        from_col,
        "node",
        {"src": pa.string(), "dst": pa.string()},
        {"node": pa.string(), val: pa.float64()},
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(to_col, as_index=False).agg(s=(val, "sum"))

    summed = coarse_grouped_map(
        contrib.map_batches(partial, batch_format="pandas",
                            batch_size=None),
        to_col,
        pandas_reducer(
            lambda df: df.groupby(to_col, as_index=False).agg(s=("s", "sum"))
        ),
    ).materialize()  # feeds the scalar max AND the join

    mx = summed.max("s") if summed.count() else None
    mx = float(mx) if mx is not None and mx > 0 else 1.0

    joined = repartition_join(
        nodes,
        summed,
        "node",
        to_col,
        {"node": pa.string()},
        {to_col: pa.string(), "s": pa.float64()},
        how="left",
    )

    def norm(df: pd.DataFrame, _m=mx) -> pd.DataFrame:
        return pd.DataFrame(
            {"node": df.node, out_val: df.s.fillna(0.0).to_numpy() / _m}
        )

    return joined.map_batches(norm, batch_format="pandas").materialize()


def hits(edges: "ray.data.Dataset", iters: int = 4) -> "ray.data.Dataset":
    """HITS hubs & authorities (Kleinberg 1999, JACM 46(5)) over a
    directed edge Dataset (src, dst) → (node, authority, hub).

    Max-normalized power iteration: per iteration
    a(v) = Σ_{u→v} h(u) then a ← a / max(a);
    h(u) = Σ_{u→v} a(v) then h ← h / max(h).
    The max norm (instead of L2) keeps the denominator an
    order-independent exact float64 — both engines divide by the
    bit-identical scalar, so the unrolled SQL oracle hashes exactly.
    Duplicate edges collapse first; scores round half-up to 1e-6 only at
    the very end.

    Scale shape per iteration: two edge⋈state repartition joins, two
    keyed reduces, two node-keyed left joins, two scalar maxes — the
    rank vectors are never broadcast and the driver holds two floats.
    The per-iteration state (V rows) is the one pinned intermediate,
    exactly like :func:`pagerank`.

    AUTO-dispatched on the exact distinct-edge count
    (RANK_LOCAL_MAX_EDGES), same policy and float posture as
    :func:`pagerank`: the small path runs the identical max-normalized
    recurrence as vectorized bincounts.
    """
    e = _distinct_edges(edges).materialize()
    if e.count() == 0:
        return ray.data.from_arrow(
            pa.table({"node": pa.array([], pa.string()),
                      "authority": pa.array([], pa.float64()),
                      "hub": pa.array([], pa.float64())})
        )
    if e.count() <= RANK_LOCAL_MAX_EDGES:
        edf = e.to_pandas()  # bounded by the dispatch constant
        nodes, s, d = _rank_index(edf)
        nv = len(nodes)
        h = np.ones(nv)
        a = np.zeros(nv)
        for _ in range(iters):
            a = np.bincount(d, weights=h[s], minlength=nv)
            mx = a.max()
            a = a / (mx if mx > 0 else 1.0)
            h = np.bincount(s, weights=a[d], minlength=nv)
            mx = h.max()
            h = h / (mx if mx > 0 else 1.0)
        return ray.data.from_pandas(
            pd.DataFrame(
                {
                    "node": nodes,
                    "authority": np.floor(a * 1e6 + 0.5) / 1e6,
                    "hub": np.floor(h * 1e6 + 0.5) / 1e6,
                }
            )
        )

    def node_halves(batch: pa.Table) -> pa.Table:
        both = pa.chunked_array(
            batch.column("src").chunks + batch.column("dst").chunks
        )
        return pa.table({"node": both})

    nodes = coarse_grouped_map(
        e.map_batches(node_halves, batch_format="pyarrow"),
        "node",
        pandas_reducer(lambda df: df.drop_duplicates("node")),
    ).materialize()

    h = nodes.map_batches(
        lambda df: df.assign(h=1.0), batch_format="pandas"
    ).materialize()
    a = None
    for _ in range(iters):
        a = _hits_half(e, h, nodes, "src", "dst", "h", "a")
        h = _hits_half(e, a, nodes, "dst", "src", "a", "h")

    out = repartition_join(
        a,
        h,
        "node",
        "node",
        {"node": pa.string(), "a": pa.float64()},
        {"node": pa.string(), "h": pa.float64()},
    )

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "node": df.node,
                "authority": np.floor(
                    df.a.to_numpy() * 1e6 + 0.5
                ) / 1e6,
                "hub": np.floor(df.h.to_numpy() * 1e6 + 0.5) / 1e6,
            }
        )

    return out.map_batches(finalize, batch_format="pandas")


def degree_stats(edges: "ray.data.Dataset") -> "ray.data.Dataset":
    """Per node: out-degree and in-degree over the DISTINCT directed
    edge set → (node, out_deg, in_deg).

    Tag-union shape: each edge contributes one (node=src, out=1, in=0)
    and one (node=dst, out=0, in=1) row inside the same map, partially
    summed per batch, then ONE keyed reduce — no join, no second pass
    over the edge table.
    """
    e = _distinct_edges(edges)

    def halves(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        df = pd.DataFrame(
            {
                "node": np.concatenate(
                    [
                        batch.column("src").to_numpy(zero_copy_only=False),
                        batch.column("dst").to_numpy(zero_copy_only=False),
                    ]
                ),
                "out_deg": np.concatenate(
                    [np.ones(n, np.int64), np.zeros(n, np.int64)]
                ),
                "in_deg": np.concatenate(
                    [np.zeros(n, np.int64), np.ones(n, np.int64)]
                ),
            }
        )
        g = df.groupby("node", as_index=False).agg(
            out_deg=("out_deg", "sum"), in_deg=("in_deg", "sum")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    # schema_floor: an empty edge table still yields a typed result
    return schema_floor(
        coarse_grouped_map(
            e.map_batches(halves, batch_format="pyarrow"),
            "node",
            pandas_reducer(lambda df: df.groupby("node", as_index=False).agg(
                out_deg=("out_deg", "sum"), in_deg=("in_deg", "sum")
            )),
        ),
        pa.schema([("node", pa.string()), ("out_deg", pa.int64()),
                   ("in_deg", pa.int64())]),
    )


def _undirected_edges(edges: "ray.data.Dataset") -> "ray.data.Dataset":
    """DISTINCT undirected (u < v) pairs from a directed edge Dataset,
    self-loops dropped (combiner-first before the pair-keyed reduce)."""

    def partial(batch: pa.Table) -> pa.Table:
        s = batch.column("src").to_numpy(zero_copy_only=False)
        d = batch.column("dst").to_numpy(zero_copy_only=False)
        df = pd.DataFrame(
            {"u": np.minimum(s, d), "v": np.maximum(s, d)}
        )
        df = df[df.u != df.v].drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    return coarse_grouped_map(
        edges.map_batches(partial, batch_format="pyarrow"),
        ["u", "v"],
        pandas_reducer(lambda df: df.drop_duplicates(["u", "v"])),
    )


def local_clustering(edges: "ray.data.Dataset") -> "ray.data.Dataset":
    """Local clustering coefficient per node over the UNDIRECTED simple
    graph underlying a directed edge Dataset → (node, degree,
    n_triangles, clustering), coefficient rounded half-up to 6 decimals.

    Plan: undirected distinct edges → adjacency (both directions) →
    wedges centered at each node via ONE coarse keyed self-merge (all of
    a node's neighbors land in one partition, so wedge generation is a
    vectorized in-partition merge, the shard_pairs pattern) → closure
    via a composite-key semi repartition join against the undirected
    edge set → per-node closed-wedge counts left-joined back onto the
    degree table.  Skew note: wedge fan-out is deg² — a web-scale run
    caps or splits heavy-hitter adjacency before the wedge stage.
    """
    und = _undirected_edges(edges).materialize()

    def adj(batch: pa.Table) -> pa.Table:
        u = batch.column("u")
        v = batch.column("v")
        return pa.table(
            {
                "node": pa.chunked_array(u.chunks + v.chunks),
                "nbr": pa.chunked_array(v.chunks + u.chunks),
            }
        )

    adjacency = und.map_batches(adj, batch_format="pyarrow")

    deg = coarse_grouped_map(
        adjacency,
        "node",
        pandas_reducer(lambda df: df.groupby("node", as_index=False).agg(
            degree=("nbr", "size")
        )),
    )

    SEP = "\x1f"

    def wedge_partition(df: pd.DataFrame) -> pd.DataFrame:
        m = df.merge(df, on="node")
        m = m[m.nbr_x < m.nbr_y]
        if m.empty:
            return pd.DataFrame(
                {"node": pd.Series([], dtype=df.node.dtype),
                 "k": pd.Series([], dtype="object")}
            )
        return pd.DataFrame(
            {"node": m.node, "k": m.nbr_x + SEP + m.nbr_y}
        )

    wedges = coarse_grouped_map(
        adjacency, "node", pandas_reducer(wedge_partition)
    )

    def edge_key(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "k": pc.binary_join_element_wise(
                    batch.column("u"), batch.column("v"), SEP
                )
            }
        )

    closed = repartition_join(
        wedges,
        und.map_batches(edge_key, batch_format="pyarrow"),
        "k",
        "k",
        {"k": pa.string(), "node": pa.string()},
        {"k": pa.string()},
        how="semi",
    )

    tri = coarse_grouped_map(
        closed.map_batches(
            lambda df: df.groupby("node", as_index=False).agg(
                t=("k", "size")
            ),
            batch_format="pandas",
        ),
        "node",
        pandas_reducer(
            lambda df: df.groupby("node", as_index=False).agg(t=("t", "sum"))
        ),
    )

    joined = repartition_join(
        deg,
        tri,
        "node",
        "node",
        {"node": pa.string(), "degree": pa.int64()},
        {"node": pa.string(), "t": pa.int64()},
        how="left",
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        d = df.degree.to_numpy().astype(np.int64)
        t = df.t.fillna(0).to_numpy().astype(np.int64)
        denom = d * (d - 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            c = np.where(d >= 2, 2.0 * t / denom, 0.0)
        return pd.DataFrame(
            {
                "node": df.node,
                "degree": d,
                "n_triangles": t,
                "clustering": np.floor(c * 1e6 + 0.5) / 1e6,
            }
        )

    return schema_floor(
        joined.map_batches(finish, batch_format="pandas"),
        pa.schema([("node", pa.string()), ("degree", pa.int64()),
                   ("n_triangles", pa.int64()),
                   ("clustering", pa.float64())]),
    )


def bfs_distances(
    edges: "ray.data.Dataset",
    seeds: "ray.data.Dataset",
    max_depth: int = 3,
) -> "ray.data.Dataset":
    """Minimum DIRECTED hop distance from a seed node set, bounded by
    ``max_depth`` → (node, dist) for every reached node (seeds at 0;
    unreachable nodes absent): ``multi_source_bfs``'s frontier loop with
    every seed under one source.
    """

    def one_source(b: pa.Table) -> pa.Table:
        return pa.table({
            "s": pa.array([""] * b.num_rows, pa.string()),
            "node": b.column("node").cast(pa.string()),
        })

    visited = _bfs(
        edges, seeds.map_batches(one_source, batch_format="pyarrow"), max_depth
    )
    return schema_floor(
        visited.select_columns(["node", "dist"]),
        pa.schema([("node", pa.string()), ("dist", pa.int64())]),
    )


def neighbor_jaccard(edges: "ray.data.Dataset") -> "ray.data.Dataset":
    """Out-neighbor Jaccard similarity for every node pair sharing at
    least one out-neighbor → (node_a < node_b, jaccard rounded half-up
    to 6 decimals).

    The set-similarity join over adjacency: distinct directed edges
    group by the SHARED neighbor (coarse keyed reduce) so each neighbor
    emits its co-citing pairs with one in-partition vectorized
    self-merge, pair rows reduce to intersection counts, and the two
    degree lookups are repartition joins (never a broadcast of the
    degree table).  Same skew posture as the exact Jaccard text join:
    a hot shared neighbor emits deg² pair rows — inherent to the exact
    semantics; cap or LSH when a stop-hub exists.
    """
    e = _distinct_edges(edges).materialize()

    deg = coarse_grouped_map(
        e,
        "src",
        pandas_reducer(
            lambda df: df.groupby("src", as_index=False).agg(d=("dst", "size"))
        ),
    )

    def pair_partition(df: pd.DataFrame) -> pd.DataFrame:
        m = df.merge(df, on="dst")
        m = m[m.src_x < m.src_y]
        if m.empty:
            return pd.DataFrame(
                {"node_a": pd.Series([], dtype="object"),
                 "node_b": pd.Series([], dtype="object"),
                 "c": pd.Series([], dtype="int64")}
            )
        g = m.groupby(["src_x", "src_y"], as_index=False).agg(
            c=("dst", "size")
        )
        g.columns = ["node_a", "node_b", "c"]
        return g

    pairs = coarse_grouped_map(e, "dst", pandas_reducer(pair_partition))

    summed = coarse_grouped_map(
        pairs,
        ["node_a", "node_b"],
        pandas_reducer(
            lambda df: df.groupby(["node_a", "node_b"], as_index=False).agg(
                c=("c", "sum")
            )
        ),
    )

    with_da = repartition_join(
        summed,
        deg.map_batches(
            lambda b: pa.table({"na": b.column("src"), "da": b.column("d")}),
            batch_format="pyarrow",
        ),
        "node_a",
        "na",
        {"node_a": pa.string(), "node_b": pa.string(), "c": pa.int64()},
        {"na": pa.string(), "da": pa.int64()},
    )
    with_db = repartition_join(
        with_da,
        deg.map_batches(
            lambda b: pa.table({"nb": b.column("src"), "db": b.column("d")}),
            batch_format="pyarrow",
        ),
        "node_b",
        "nb",
        {"node_b": pa.string(), "node_a": pa.string(), "c": pa.int64(),
         "da": pa.int64()},
        {"nb": pa.string(), "db": pa.int64()},
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        c = df.c.to_numpy().astype(np.float64)
        union = (
            df.da.to_numpy().astype(np.float64)
            + df.db.to_numpy().astype(np.float64) - c
        )
        return pd.DataFrame(
            {
                "node_a": df.node_a,
                "node_b": df.node_b,
                "jaccard": np.floor(c / union * 1e6 + 0.5) / 1e6,
            }
        )

    return schema_floor(
        with_db.map_batches(finish, batch_format="pandas"),
        pa.schema([("node_a", pa.string()), ("node_b", pa.string()),
                   ("jaccard", pa.float64())]),
    )


def two_hop_counts(edges: "ray.data.Dataset") -> "ray.data.Dataset":
    """Per node: how many DISTINCT nodes are reachable in exactly two
    directed hops (excluding the node itself) — the canonical multi-hop
    traversal, as a distributed self-join over the edge table.

    Plan: distinct edges (combiner-first), wedge join e.dst = e'.src via
    one repartition_join (both copies of the edge table shuffle once on
    the mid node — never a broadcast of the edge set), map-side
    drop_duplicates of (src, far) per batch, a keyed distinct on the
    pair, then partial counts reduced per src.  A hot mid node fans out
    |in(mid)| x |out(mid)| wedge rows — that blowup is inherent to the
    query; the pair-keyed distinct immediately re-hashes the wedges so
    no single reducer holds a hot node's full fan-out.

    The distinct edge table is materialized once: both sides of the
    wedge join consume it, and Ray re-executes lazy lineage per
    consumer — without pinning, the whole upstream pipeline (e.g. KG
    extraction) would run twice.
    """
    e = _distinct_edges(edges).materialize()

    def rename(b: pa.Table) -> pa.Table:
        return pa.table(
            {"mid": b.column("src"), "far": b.column("dst")}
        )

    wedges = repartition_join(
        e,
        e.map_batches(rename, batch_format="pyarrow"),
        "dst",
        "mid",
        {"src": pa.string(), "dst": pa.string()},
        {"mid": pa.string(), "far": pa.string()},
    )

    def pair_partial(df: pd.DataFrame) -> pd.DataFrame:
        p = df[df.far != df.src][["src", "far"]]
        return p.drop_duplicates()

    pairs = coarse_grouped_map(
        wedges.map_batches(pair_partial, batch_format="pandas"),
        ["src", "far"],
        pandas_reducer(lambda df: df.drop_duplicates(["src", "far"])),
    )

    def count_partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("src", as_index=False).agg(n=("far", "size"))
        return g

    def count_final(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("src", as_index=False).agg(n_two_hop=("n", "sum"))
        g["n_two_hop"] = g["n_two_hop"].astype(np.int64)
        return g.rename(columns={"src": "node"})

    return schema_floor(
        coarse_grouped_map(
            pairs.map_batches(count_partial, batch_format="pandas"),
            "src",
            pandas_reducer(count_final),
        ),
        pa.schema([("node", pa.string()), ("n_two_hop", pa.int64())]),
    )


def comention_graph(edges_with_doc: "ray.data.Dataset") -> "ray.data.Dataset":
    """Document co-mention graph: (entity_a < entity_b, n_docs) counting
    in how many documents both entities appear (as subject OR object of
    any edge) — the co-occurrence graph entity-embedding and
    graph-completion training starts from.

    Input: (doc_id, src, dst) edge rows.  Per-doc entity sets collapse
    map-side (union of both endpoints, distinct per batch), the pair
    generation groups by doc_id (all of a document's entities co-locate
    — one vectorized in-partition self-merge, the wedge pattern), and
    the cross-document count is one pair-keyed reduce.  A document
    mentioning m entities emits m(m-1)/2 pair rows — the inherent
    fan-out; documents are short so m is small, and a pathological doc
    would be capped upstream by the chunker.
    """

    def mention_partial(batch: pa.Table) -> pa.Table:
        d = batch.column("doc_id")
        s = batch.column("src")
        t = batch.column("dst")
        df = pd.DataFrame(
            {
                "doc_id": pa.chunked_array(d.chunks + d.chunks).to_pylist(),
                "entity": pa.chunked_array(s.chunks + t.chunks).to_pylist(),
            }
        ).drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    mentions = coarse_grouped_map(
        edges_with_doc.map_batches(mention_partial, batch_format="pyarrow"),
        ["doc_id", "entity"],
        pandas_reducer(lambda df: df.drop_duplicates(["doc_id", "entity"])),
    )

    def pair_partition(df: pd.DataFrame) -> pd.DataFrame:
        m = df.merge(df, on="doc_id")
        m = m[m.entity_x < m.entity_y]
        if m.empty:
            return pd.DataFrame(
                {"entity_a": pd.Series([], dtype="object"),
                 "entity_b": pd.Series([], dtype="object"),
                 "n_docs": pd.Series([], dtype="int64")}
            )
        g = m.groupby(["entity_x", "entity_y"], as_index=False).agg(
            n_docs=("doc_id", "size")
        )
        g.columns = ["entity_a", "entity_b", "n_docs"]
        return g.astype({"n_docs": "int64"})

    pairs = coarse_grouped_map(
        mentions, "doc_id", pandas_reducer(pair_partition)
    )

    return schema_floor(
        coarse_grouped_map(
            pairs,
            ["entity_a", "entity_b"],
            pandas_reducer(lambda df: df.groupby(
                ["entity_a", "entity_b"], as_index=False
            ).agg(n_docs=("n_docs", "sum"))),
        ),
        pa.schema([("entity_a", pa.string()), ("entity_b", pa.string()),
                   ("n_docs", pa.int64())]),
    )


def multi_source_bfs(
    edges: "ray.data.Dataset",
    seeds: "ray.data.Dataset",
    max_depth: int = 3,
) -> "ray.data.Dataset":
    """Minimum directed hop distance from EACH seed independently →
    (seed, node, dist) for every (seed, reached-node) pair within
    ``max_depth`` (seeds at 0; unreached pairs absent) — the landmark
    distance table behind closeness/harmonic centrality and graph
    sketches (Boldi & Vigna's HyperBall runs this exact shape).
    """

    def own_source(b: pa.Table) -> pa.Table:
        node = b.column("node").cast(pa.string())
        return pa.table({"s": node, "node": node})

    visited = _bfs(
        edges, seeds.map_batches(own_source, batch_format="pyarrow"), max_depth
    )
    return schema_floor(
        visited,
        pa.schema([("s", pa.string()), ("node", pa.string()),
                   ("dist", pa.int64())]),
    )


def _bfs(
    edges: "ray.data.Dataset",
    seeds: "ray.data.Dataset",
    max_depth: int,
) -> "ray.data.Dataset":
    """The frontier loop: (s, node) seed rows → materialized (s, node,
    dist) rows, the minimum directed hop distance from each source ``s``.

    All sources advance through the SAME BSP rounds: the frontier is the
    composite (s, node) set, so k sources cost the identical
    3×(join + reduce + anti-join) pipeline as one — never k sequential
    BFS loops.  The edge table joins by src and is never broadcast; the
    visited set is keyed on a fused s\\x1fnode string so the anti join
    stays a single-key repartition join.  The loop stops early when a
    frontier empties: rounds = min(max_depth, eccentricity).
    """
    e = _distinct_edges(edges).materialize()
    SEP = "\x1f"

    def fuse(s: pa.ChunkedArray, n: pa.ChunkedArray) -> pa.Array:
        import pyarrow.compute as pc
        return pc.binary_join_element_wise(
            s.cast(pa.string()), n.cast(pa.string()), SEP
        )

    def at_zero(b: pa.Table) -> pa.Table:
        return b.append_column(
            "dist", pa.array(np.zeros(b.num_rows, np.int64), pa.int64())
        )

    visited = seeds.map_batches(at_zero, batch_format="pyarrow").materialize()
    frontier = visited.select_columns(["s", "node"]).materialize()

    def keyed(ds: "ray.data.Dataset") -> "ray.data.Dataset":
        def add_key(b: pa.Table) -> pa.Table:
            return pa.table({
                "k": fuse(b.column("s"), b.column("node")),
                "s": b.column("s"),
                "node": b.column("node"),
            })
        return ds.map_batches(add_key, batch_format="pyarrow")

    for depth in range(1, max_depth + 1):
        if frontier.count() == 0:
            break
        # expand: every (s, u) frontier pair × every u→v edge
        reached = repartition_join(
            frontier,
            e,
            "node",
            "src",
            {"node": pa.string(), "s": pa.string()},
            {"src": pa.string(), "dst": pa.string()},
            how="inner",
        )
        nxt = coarse_grouped_map(
            reached.map_batches(
                lambda b: pa.table(
                    {"s": b.column("s"), "node": b.column("dst")}
                ),
                batch_format="pyarrow",
            ),
            ["s", "node"],
            pandas_reducer(lambda df: df.drop_duplicates(["s", "node"])),
        )
        # the distance column is added inside the join's reduce tasks, so
        # a frontier without new nodes is a typed empty table
        fresh = repartition_join(
            keyed(nxt),
            keyed(visited),
            "k",
            "k",
            {"k": pa.string(), "s": pa.string(), "node": pa.string()},
            {"k": pa.string()},
            how="anti",
            post_fn=lambda b, _d=depth: pa.table({
                "s": b.column("s"),
                "node": b.column("node"),
                "dist": pa.array(np.full(b.num_rows, _d, np.int64)),
            }),
        )
        # only blocks with rows: a zero-row block would skip the callers'
        # projections and reach them with the wrong columns
        old, new = blocks_of(visited, fresh)
        visited = dataset_of(old + new)
        frontier = fresh.select_columns(["s", "node"]).materialize()

    return visited


def harmonic_closeness(
    edges: "ray.data.Dataset",
    n_landmarks: int = 5,
    max_depth: int = 3,
) -> "ray.data.Dataset":
    """Landmark harmonic closeness: H(v) = Σ_s 1/dist(s→v) over the
    ``n_landmarks`` lexicographically-smallest source nodes (dist > 0,
    bounded by ``max_depth``) — the centrality that, unlike classic
    closeness, is defined on disconnected graphs (Boldi & Vigna 2014).

    Landmark selection is a per-block top-L + tiny driver finish
    (blocks×L rows); distances come from ONE multi_source_bfs (all
    landmarks share the BSP rounds).  The harmonic sum is EXACT: with
    dists in 1..max_depth, Σ 1/d = (Σ lcm/d)/lcm accumulates as an
    integer weight per pair and divides once — no float summation
    order anywhere, so the DuckDB oracle matches bit-for-bit.  Output:
    (node, n_sources, closeness) rounded half-up to 1e-6.

    AUTO-dispatched on the exact distinct-edge count
    (RANK_LOCAL_MAX_EDGES, same policy as pagerank/HITS): small graphs
    run the identical BFS as a vectorized local pass instead of
    3×(join + reduce + anti-join) fixed-cost shuffle rounds.
    """
    import math

    e = _distinct_edges(edges).materialize()
    lcm = math.lcm(*range(1, max_depth + 1))
    if e.count() <= RANK_LOCAL_MAX_EDGES:
        edf = e.to_pandas()  # bounded by the dispatch constant
        if len(edf) == 0:
            return ray.data.from_arrow(
                pa.table({"node": pa.array([], pa.string()),
                          "n_sources": pa.array([], pa.int64()),
                          "closeness": pa.array([], pa.float64())})
            )
        nodes, s, d = _rank_index(edf)
        lms = sorted(set(edf.src))[:n_landmarks]
        nv = len(nodes)
        wsum = np.zeros(nv, np.int64)
        nsrc = np.zeros(nv, np.int64)
        idx = {n: i for i, n in enumerate(nodes)}
        for lmn in lms:
            dist = np.full(nv, -1, np.int64)
            dist[idx[lmn]] = 0
            frontier = np.array([idx[lmn]], np.int64)
            for depth in range(1, max_depth + 1):
                mask = np.isin(s, frontier)
                cand = np.unique(d[mask])
                fresh = cand[dist[cand] < 0]
                if len(fresh) == 0:
                    break
                dist[fresh] = depth
                frontier = fresh
            reached = dist > 0
            wsum[reached] += lcm // dist[reached]
            nsrc[reached] += 1
        keep = nsrc > 0
        return ray.data.from_pandas(pd.DataFrame({
            "node": np.asarray(nodes, dtype=object)[keep],
            "n_sources": nsrc[keep],
            "closeness": np.floor(
                wsum[keep] / float(lcm) * 1e6 + 0.5
            ) / 1e6,
        }))

    def block_min(df: pd.DataFrame) -> pd.DataFrame:
        u = (
            df.src.drop_duplicates().sort_values().head(n_landmarks)
            if len(df) else pd.Series([], dtype="object")
        )
        return pd.DataFrame({"src": u})

    lm = (
        e.map_batches(block_min, batch_format="pandas", batch_size=None)
        .to_pandas()  # ≤ blocks × L rows — never edge-scale
        .src.drop_duplicates()
        .sort_values()
        .head(n_landmarks)
    )
    seeds = ray.data.from_pandas(pd.DataFrame({"node": lm}))

    dists = multi_source_bfs(e, seeds, max_depth=max_depth)

    def weight(b: pa.Table) -> pa.Table:
        d = b.column("dist").to_numpy(zero_copy_only=False)
        keep = d > 0
        return pa.table({
            "node": b.column("node").filter(pa.array(keep)),
            "w": pa.array((lcm // d[keep]).astype(np.int64)),
            "n": pa.array(np.ones(int(keep.sum()), np.int64)),
        })

    def reduce_node(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("node", as_index=False).agg(
            w=("w", "sum"), n=("n", "sum")
        )
        g["closeness"] = np.floor(
            g.w.to_numpy(np.int64) / float(lcm) * 1e6 + 0.5
        ) / 1e6
        return g[["node", "n", "closeness"]].rename(
            columns={"n": "n_sources"}
        )

    return coarse_grouped_map(
        dists.map_batches(weight, batch_format="pyarrow"),
        "node",
        pandas_reducer(reduce_node),
    )
