"""GraphRAG retrieval over the KG edge tables: k-hop neighborhood
subgraph extraction + evidence-bearing prompt assembly.

This is the engine-side counterpart of the one reference-demonstrated
consumer of the merged KG that is not a SURVEY §2 pipeline stage:
``examples/bel_graph_rag.ipynb`` extracts query entities from a gene-set
summary, calls NDEx ``get_neighborhood(network, query_string,
search_depth=k)``, then flattens the returned edges' ``bel_expression``
(+ evidence) into a newline-joined knowledge-graph block for an LLM
prompt (bel_graph_rag.ipynb, "Prompt Templates" → "NDEx query done"
cells).  Here the neighborhood query runs distributed over the edges
Dataset (NDEx's server did it for the reference), and prompt assembly is
an explicitly bounded driver-side format of the retrieved subgraph —
the ONLY collection, guarded, sized by the retrieval not the corpus.

Semantics (matches an NDEx depth-k neighborhood query): node distance
d(v) = minimum UNDIRECTED hops from any seed; the subgraph keeps every
edge with at least one endpoint at distance ≤ k-1 — exactly the edges a
k-step expansion from the seed set traverses — tagged with
``hop = min(d(subj), d(obj)) + 1`` ∈ [1..k].  ``search_depth=1``
therefore returns the edges incident to the seed nodes.
"""
from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..utils import repartition_join


def khop_subgraph(
    edges: "ray.data.Dataset",
    seeds: "ray.data.Dataset",
    k: int = 1,
) -> "ray.data.Dataset":
    """Evidence-keyed k-hop neighborhood of ``seeds`` over ``edges``.

    ``edges``: (doc_id, span_seq, subj, pred, obj) rows — the
    evidence-bearing edge table (stages/edges.py output), possibly with
    several rows per distinct triple.  ``seeds``: (node) rows.

    Distributed end to end: undirected BFS distances come from
    ``graph_algos.bfs_distances`` over the doubled edge list (frontier
    joins, never a broadcast of the graph), then each edge row picks up
    d(subj) and d(obj) through two repartition LEFT joins with the
    distance table and keeps ``min(d_subj, d_obj) <= k-1``.  Every
    exchange has ``utils.coarse_grouped_map``'s one width.  Nothing is
    collected on the driver; output adds one ``hop`` column.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1 (got {k})")
    from .graph_algos import bfs_distances

    und = edges.map_batches(
        lambda b: pa.table(
            {
                "src": pa.chunked_array(
                    [b.column("subj"), b.column("obj")]
                ).combine_chunks(),
                "dst": pa.chunked_array(
                    [b.column("obj"), b.column("subj")]
                ).combine_chunks(),
            }
        ),
        batch_format="pyarrow",
    )
    # distances 0..k-1 are the ones that admit an edge; bfs_distances
    # dedups the doubled edge list itself; ``dist`` is consumed by two
    # joins below (node/dist rows only)
    dist = bfs_distances(und, seeds, max_depth=k - 1).materialize()

    etypes = {
        "doc_id": pa.string(),
        "span_seq": pa.int32(),
        "subj": pa.string(),
        "pred": pa.string(),
        "obj": pa.string(),
    }

    def _attach(side_ds, key: str, types: dict, post_fn):
        return repartition_join(
            side_ds,
            dist,
            key,
            "node",
            types,
            {"node": pa.string(), "dist": pa.int64()},
            how="left",
            post_fn=post_fn,
        )

    def rn(t: pa.Table) -> pa.Table:
        return t.rename_columns(
            ["d_subj" if c == "dist" else c for c in t.column_names]
        )

    def keep(t: pa.Table) -> pa.Table:
        # an unreached endpoint (null distance) bounds nothing
        d = pc.min_element_wise(t["d_subj"], t["dist"])
        hop = pc.cast(pc.add(d, 1), pa.int64())
        return t.select(list(etypes)).append_column("hop", hop).filter(
            pc.less_equal(d, k - 1)
        )

    # the left join pads the distance columns as float64
    with_s = _attach(edges, "subj", etypes, rn)
    return _attach(with_s, "obj", {**etypes, "d_subj": pa.float64()}, keep)


def subgraph_evidence(
    subgraph: "ray.data.Dataset",
    chunks: "ray.data.Dataset",
) -> "ray.data.Dataset":
    """Attach each retrieved edge's evidence paragraph: subgraph rows
    join the chunk table on (doc_id, span_seq) — the reference keeps the
    supporting paragraph with every BEL statement it prompts with.

    Distributed repartition join on a fused evidence key (the two-column
    key packed into one string column on both sides); the chunk table —
    corpus-sized — is never broadcast or collected."""

    def sub_key(b: pa.Table) -> pa.Table:
        key = pc.binary_join_element_wise(
            b.column("doc_id"),
            pc.cast(b.column("span_seq"), pa.string()),
            "#",
        )
        return b.append_column("ekey", key)

    def chunk_key(b: pa.Table) -> pa.Table:
        key = pc.binary_join_element_wise(
            b.column("doc_id"),
            pc.cast(b.column("span_seq"), pa.string()),
            "#",
        )
        return pa.table(
            {"ekey": key, "evidence": b.column("text")}
        )

    return repartition_join(
        subgraph.map_batches(sub_key, batch_format="pyarrow"),
        chunks.map_batches(chunk_key, batch_format="pyarrow"),
        "ekey",
        "ekey",
        {
            "ekey": pa.string(),
            "doc_id": pa.string(),
            "span_seq": pa.int32(),
            "subj": pa.string(),
            "pred": pa.string(),
            "obj": pa.string(),
            "hop": pa.int64(),
        },
        {"ekey": pa.string(), "evidence": pa.string()},
        post_fn=lambda t: t.drop_columns(["ekey"]),
    )


# the reference's KNOWLEDGE_GRAPH_TEMPLATE block header
# (bel_graph_rag.ipynb prompt-template cell)
PROMPT_HEADER = (
    "Knowledge graph statements (one per line, with supporting "
    "evidence):"
)

ASSEMBLE_MAX_ROWS = 100_000


def assemble_prompt(
    evidence: "ray.data.Dataset",
    max_rows: int = ASSEMBLE_MAX_ROWS,
) -> str:
    """Retrieved-subgraph rows → one newline-joined prompt block, one
    ``subj pred obj : evidence`` statement per line in deterministic
    (doc_id, span_seq, subj, obj) order — the engine-side equivalent of
    the notebook's ``knowledge_graph += bel_expression + "\\n"`` loop.

    The ONLY driver-side collection in the GraphRAG path, and it is the
    retrieval result the caller asked to put into a prompt — bounded by
    the neighborhood size, GUARDED by ``max_rows`` (raises rather than
    collecting a runaway subgraph)."""
    ev = evidence.materialize()
    n = ev.count()
    if n > max_rows:
        raise ValueError(
            f"subgraph prompt would collect {n} rows (> {max_rows}); "
            "narrow the seed set or k"
        )
    if n == 0:
        return PROMPT_HEADER
    df = ev.to_pandas().sort_values(
        ["doc_id", "span_seq", "subj", "obj"]
    )
    lines = (
        df.subj + " " + df.pred + " " + df.obj + " : " + df.evidence
    )
    return PROMPT_HEADER + "\n" + "\n".join(lines)
