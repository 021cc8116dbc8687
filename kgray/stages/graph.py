"""Per-document graph assembly (CX2 export) and graph merge.

Reference semantics:
- convert_to_cx2.py:62-170 — one CX2 network per document: dense integer
  node ids in first-seen order, node attributes (name, label, type, id=url),
  edge attributes (interaction, source/target labels, bel_expression, text,
  evidence).  The reference uses ndex2's factory; here the CX2 JSON aspects
  are emitted directly (same public format) since this engine's primary
  sinks are the node/edge tables — CX2 is a per-document parity artifact.
- examples merge_cx2 (simple_example.ipynb "Merge Graphs") — union of two
  graphs with node dedup by (name, type), edges rewired to the merged ids.

Assembly is one co-group on ``doc_id`` (``utils.coarse_grouped_map``) —
per-document state fits in one group by construction (a document's graph
is KB-sized).
"""
from __future__ import annotations

import json
from typing import Dict, Optional

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from .. import schemas
from ..functions.bel import term_label, term_type
from ..utils import KIND, coarse_grouped_map, tag


def _document_cx2(edges: list, unary: list, urls: Dict[str, str]) -> dict:
    """Build one document's CX2-shaped dict with reference id semantics
    from its edge and unary rows (``pa.Table.to_pylist`` dicts)."""
    node_ids: Dict[str, int] = {}

    def nid(name: str) -> int:
        if name not in node_ids:
            node_ids[name] = len(node_ids)
        return node_ids[name]

    # interleave edge endpoints and unary terms in (span_seq, stmt_seq) order
    items = []
    for r in edges:
        items.append((r["span_seq"], r["stmt_seq"], 0, "edge", r))
    for r in unary:
        items.append((r["span_seq"], r["stmt_seq"], 0, "unary", r))
    items.sort(key=lambda x: (x[0], x[1], x[3] != "edge"))

    cx_edges = []
    for _, _, _, kind, r in items:
        if kind == "unary":
            nid(r["name"])
            continue
        s, t = nid(r["subj"]), nid(r["obj"])
        cx_edges.append(
            {
                "id": len(cx_edges),
                "s": s,
                "t": t,
                "v": {
                    "interaction": r["pred"],
                    "source_label": r["subj_label"],
                    "target_label": r["obj_label"],
                    "bel_expression": r["bel_expression"],
                    "text": r["text"],
                    "evidence": r["evidence"],
                },
            }
        )

    cx_nodes = []
    for name, i in node_ids.items():
        label = term_label(name)
        v = {"name": name, "label": label, "type": term_type(name)}
        url = urls.get(name, urls.get(label))
        if url:
            v["id"] = url
        cx_nodes.append({"id": i, "v": v})

    return [
        {"CXVersion": "2.0", "hasFragments": False},
        {"metaData": [
            {"name": "nodes", "elementCount": len(cx_nodes)},
            {"name": "edges", "elementCount": len(cx_edges)},
        ]},
        {"nodes": cx_nodes},
        {"edges": cx_edges},
        {"status": [{"success": True}]},
    ]


# the co-group's record kinds, in ``_kind`` order
_KINDS = (schemas.EDGES, schemas.UNARY_NODES, schemas.ANNOTATION_URLS)


def build_document_graphs(
    edges: "ray.data.Dataset",
    unary: "ray.data.Dataset",
    annotation_urls: "ray.data.Dataset",
    style: Optional[Dict[str, list]] = None,
) -> "ray.data.Dataset":
    """One row per document WITH ≥1 edge: (doc_id, cx2 JSON string,
    n_nodes, n_edges).

    Edges (kind 0), unary node records (kind 1) AND annotation-URL
    records (kind 2) are ``tag``-ged onto one shared schema and
    co-grouped on ``doc_id`` in one exchange — no driver-side
    collection, no broadcast URL dict.  Each document's
    ``annotation_map`` is built INSIDE its group from its own URL rows,
    first-wins in (span_seq, ann_seq) order — exactly the reference's
    scope:
    convert_to_cx2.py:77-82 builds the map from the one document's
    ``extracted_results`` (convert_to_cx2 is invoked once per pmc_id,
    main.py:82).  Documents whose statements are all unary emit no graph
    row (parity with the edge-keyed grouping the reference's
    per-document CX2 export implies).

    ``style``: pre-loaded visual aspects (``load_visual_style``) appended
    to every document's CX2 (reference --style_path / cx_style.json)."""
    style_ref = ray.put(style)

    def per_partition(t: pa.Table) -> pa.Table:
        # one Ray task per coarse partition; the per-document loop runs
        # over the partition's rows INSIDE the task (one Ray reduce call
        # per DOC would pay ~0.5 ms of per-group machinery each — see
        # utils.coarse_grouped_map)
        style_ = ray.get(style_ref)
        docs: Dict[str, tuple] = {}
        for kind, schema in enumerate(_KINDS):
            rows = t.filter(pc.equal(t[KIND], kind)).select(schema.names)
            for r in rows.to_pylist():
                # a document's graph exists when it has an edge
                if kind == 0 or r["doc_id"] in docs:
                    docs.setdefault(r["doc_id"], ([], [], []))[kind].append(r)
        out = {"doc_id": [], "cx2": [], "n_nodes": [], "n_edges": []}
        for doc, (ge, gu, ga) in docs.items():
            urls: Dict[str, str] = {}
            for r in sorted(ga, key=lambda r: (r["span_seq"], r["ann_seq"])):
                urls.setdefault(r["entry_name"], r["url"])
            cx = apply_style(_document_cx2(ge, gu, urls), style_)
            out["doc_id"].append(doc)
            out["cx2"].append(json.dumps(cx))
            out["n_nodes"].append(len(cx[2]["nodes"]))
            out["n_edges"].append(len(cx[3]["edges"]))
        return pa.table(out, schema=schemas.GRAPHS)

    # the union schema: every column of the three kinds
    types = {f.name: f.type for s in _KINDS for f in s}
    parts = [
        tag(ds, kind, types)
        for kind, ds in enumerate((edges, unary, annotation_urls))
    ]
    return coarse_grouped_map(parts, "doc_id", per_partition)


def load_visual_style(style_path: str) -> Dict[str, list]:
    """Read the visual aspects of a CX2 style file.

    Reference: convert_to_cx2.py:50-59 (``add_style_to_network``) — the
    style file is itself a CX2 aspect list; its ``visualProperties`` and
    ``visualEditorProperties`` aspects are copied onto the generated
    network (data/cx_style.json is the shipped default, selected by
    main.py:368-373 ``--style_path``)."""
    with open(style_path) as f:
        aspects = json.load(f)
    out: Dict[str, list] = {}
    for aspect in aspects:
        if not isinstance(aspect, dict):
            continue
        for key in ("visualProperties", "visualEditorProperties"):
            if key in aspect:
                out[key] = aspect[key]
    return out


def apply_style(cx2: list, style: Optional[Dict[str, list]]) -> list:
    """Insert the style's visual aspects into a CX2 aspect list (before the
    trailing status aspect), replacing same-named aspects if present."""
    if not style:
        return cx2
    keep = [
        a for a in cx2
        if not (isinstance(a, dict)
                and (set(a) & {"visualProperties", "visualEditorProperties"}))
    ]
    styled = keep[:-1] if keep and "status" in keep[-1] else keep
    tail = keep[len(styled):]
    for key in ("visualProperties", "visualEditorProperties"):
        if key in style:
            styled = styled + [{key: style[key]}]
    return styled + tail


def merge_graphs(
    nodes_a: pd.DataFrame,
    edges_a: pd.DataFrame,
    nodes_b: pd.DataFrame,
    edges_b: pd.DataFrame,
):
    """Union two (nodes, edges) graphs; node identity = (name, type),
    first graph wins attributes; edges rewired to merged node ids."""
    merged_nodes = []
    key_to_id: Dict[tuple, int] = {}
    old_to_new_a: Dict[int, int] = {}
    old_to_new_b: Dict[int, int] = {}
    for df, remap in ((nodes_a, old_to_new_a), (nodes_b, old_to_new_b)):
        for r in df.itertuples():
            key = (r.name, r.type)
            if key not in key_to_id:
                key_to_id[key] = len(merged_nodes)
                merged_nodes.append(
                    {"node_id": key_to_id[key], "name": r.name,
                     "label": r.label, "type": r.type,
                     "url": getattr(r, "url", None)}
                )
            remap[r.node_id] = key_to_id[key]
    out_nodes = pd.DataFrame(merged_nodes)

    def rewire(edges: pd.DataFrame, nodes: pd.DataFrame, remap) -> pd.DataFrame:
        name_to_old = dict(zip(nodes.name, nodes.node_id))
        e = edges.copy()
        e["src_id"] = e.subj.map(name_to_old).map(remap)
        e["dst_id"] = e.obj.map(name_to_old).map(remap)
        return e

    out_edges = pd.concat(
        [rewire(edges_a, nodes_a, old_to_new_a),
         rewire(edges_b, nodes_b, old_to_new_b)],
        ignore_index=True,
    )
    return out_nodes, out_edges


def consolidate_edges(edges: "ray.data.Dataset") -> "ray.data.Dataset":
    """Corpus-level edge consolidation: the same (subj, pred, obj)
    triple extracted from many paragraphs/documents collapses into ONE
    edge carrying its evidence statistics — n_evidence (extraction
    count), n_docs (distinct supporting documents), first_doc (stable
    provenance anchor).  This is the materialization step between the
    per-extraction edge stream and a queryable KG: downstream consumers
    rank relations by support, not by how often a crawl duplicated the
    sentence.

    One all-to-all (``utils.coarse_grouped_map``, ``max(8, CPUs)``
    ranges): per-batch partials pre-count (triple, doc) pairs (the
    combiner — a triple extracted 50× from one doc crosses the wire
    once), then a single coarse reduce keyed on the TRIPLE
    finishes Σcount / distinct-doc / min-doc with every row of a triple
    co-located.  Partitioning assumption: one triple's distinct-doc
    rows fit in a worker — for a planet-scale hot triple, pre-salt by
    doc hash and re-reduce (the utils.coarse_grouped_map two-phase
    pattern canonicalization uses).
    """
    KEY = ["subj", "pred", "obj"]

    def partial(batch: pa.Table) -> pa.Table:
        counts = batch.group_by(KEY + ["doc_id"]).aggregate(
            [([], "count_all")]
        )
        return counts.rename_columns(KEY + ["doc_id", "c"])

    def reduce_triples(t: pa.Table) -> pa.Table:
        g = t.group_by(KEY + ["doc_id"]).aggregate([("c", "sum")])
        out = g.group_by(KEY).aggregate(
            [("c_sum", "sum"), ("doc_id", "count"), ("doc_id", "min")]
        )
        return out.rename_columns(
            KEY + ["n_evidence", "n_docs", "first_doc"]
        )

    return coarse_grouped_map((edges, partial), KEY, reduce_triples)
