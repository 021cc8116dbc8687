"""End-to-end parity of the KG pipeline on the synthetic corpus.

The P/R ≥ 0.95 gate (BASELINE.json): emitted (subj, pred, obj) triples per
document vs the gold set known by construction, plus first-seen node
canonicalization semantics (convert_to_cx2.py:74-166) and the span-sequence
invariant across the whole pipeline.
"""
import pyarrow as pa
import pytest
import ray
import ray.data

from kgray.corpus import generate_documents
from kgray.eval.compare import triple_prf
from kgray.pipelines.kg import KGConfig, run_kg_pipeline
from kgray.stages.chunk import check_span_invariant, reassemble_documents


@pytest.fixture(scope="module")
def pipeline_result():
    docs, gold_edges, gold_unary = generate_documents(60, seed=42)
    ds = ray.data.from_arrow(docs).repartition(8)
    res = run_kg_pipeline(ds, KGConfig(annotate_concurrency=(1, 2),
                                       extract_concurrency=(1, 2)))
    return docs, gold_edges, gold_unary, res


def test_triples_match_gold(pipeline_result):
    _, gold_edges, _, res = pipeline_result
    edges = res.edges.to_pandas()
    got = set(zip(edges.doc_id, edges.span_seq, edges.subj, edges.pred,
                  edges.obj))
    want = set(
        zip(
            *[
                gold_edges.column(c).to_pylist()
                for c in ["doc_id", "span_seq", "subj", "pred", "obj"]
            ]
        )
    )
    p, r, f1 = triple_prf(got, want)
    assert p >= 0.95 and r >= 0.95, (p, r)


def test_evidence_matches_gold(pipeline_result):
    _, gold_edges, _, res = pipeline_result
    edges = res.edges.to_pandas()
    got = set(zip(edges.doc_id, edges.subj, edges.obj, edges.evidence))
    want = set(
        zip(
            *[
                gold_edges.column(c).to_pylist()
                for c in ["doc_id", "subj", "obj", "evidence"]
            ]
        )
    )
    assert got == want


def test_unary_statements_become_nodes_not_edges(pipeline_result):
    _, _, gold_unary, res = pipeline_result
    unary = res.unary_nodes.to_pandas()
    got = set(zip(unary.doc_id, unary.span_seq, unary.name))
    want = set(
        zip(
            *[
                gold_unary.column(c).to_pylist()
                for c in ["doc_id", "span_seq", "name"]
            ]
        )
    )
    assert got == want
    # no unary term leaks into the edge list as a subject of a fake edge
    edges = res.edges.to_pandas()
    assert not edges.pred.isna().any()


def test_node_canonicalization(pipeline_result):
    _, _, _, res = pipeline_result
    nodes = res.nodes.to_pandas()
    edges = res.edges.to_pandas()
    # dense ids 0..n-1, unique names
    assert sorted(nodes.node_id) == list(range(len(nodes)))
    assert nodes.name.is_unique
    # every edge endpoint and unary term is a node (and nothing else)
    endpoints = set(edges.subj) | set(edges.obj) | set(
        res.unary_nodes.to_pandas().name
    )
    assert set(nodes.name) == endpoints
    # url resolution: name-or-label probe (convert_to_cx2.py:159)
    urls = {
        r["entry_name"]: r["url"] for r in res.annotation_url_agg.take_all()
    }
    for _, row in nodes.iterrows():
        expect = urls.get(row["name"], urls.get(row["label"]))
        assert row["url"] == expect


def test_first_seen_node_order(pipeline_result):
    """node_id order == lexicographic (doc_id, span_seq, stmt_seq, side)."""
    _, _, _, res = pipeline_result
    edges = res.edges.to_pandas()
    unary = res.unary_nodes.to_pandas()
    mentions = []
    for _, e in edges.iterrows():
        mentions.append(((e.doc_id, e.span_seq, e.stmt_seq, 0), e.subj))
        mentions.append(((e.doc_id, e.span_seq, e.stmt_seq, 1), e.obj))
    for _, u in unary.iterrows():
        mentions.append(((u.doc_id, u.span_seq, u.stmt_seq, 0), u["name"]))
    mentions.sort(key=lambda kv: kv[0])
    expected_order = []
    seen = set()
    for _, name in mentions:
        if name not in seen:
            seen.add(name)
            expected_order.append(name)
    nodes = res.nodes.to_pandas().sort_values("node_id")
    assert list(nodes.name) == expected_order


def test_salted_canonicalization_identical(pipeline_result, salt_path):
    """The salted two-phase aggregate yields exactly the same node table."""
    from kgray.stages.nodes import node_tables

    _, _, _, res = pipeline_result
    salt_path(7)
    salted, _ = node_tables(res.edges, res.unary_nodes, res.annotation_urls)
    a = res.nodes.to_pandas().sort_values("name").reset_index(drop=True)
    b = salted.to_pandas().sort_values("name").reset_index(drop=True)
    import pandas as pd

    pd.testing.assert_frame_equal(a, b)


def test_node_tables_exchange_budget(pipeline_result, salt_path):
    """An unsalted build canonicalizes nodes in at most two keyed
    exchanges (name reduce, id sort), a salted one in at most three (the
    salted pre-reduce first), counted from the record ``kgray.utils``
    keeps of every exchange it launches, the nodes materialized.  The
    name reduce co-groups its three parts with no mention union between
    them."""
    from kgray.stages.nodes import node_tables
    from kgray.utils import recorded_exchanges

    _, _, _, res = pipeline_result
    for salt_buckets, budget in ((None, 2), (7, 3)):
        if salt_buckets:
            salt_path(salt_buckets)
        with recorded_exchanges() as ex:
            nodes, _ = node_tables(
                res.edges, res.unary_nodes, res.annotation_urls
            )
            nodes.materialize()
        assert 0 < len(ex) <= budget, (salt_buckets, ex)
        assert [e["kind"] for e in ex][-2:] == ["hash", "range"], ex
        if salt_buckets is None:
            assert ex[0]["parts"] == 3, ex


def test_co_group_is_one_sort_with_bounded_output(pipeline_result):
    """A keyed co-group is one exchange: ``build_document_graphs`` on
    the gold corpus split into 12 blocks launches a single hash exchange
    of its three parts (one map task per input block) and no
    ``Repartition``; and ``coarse_grouped_map`` over a 32-block input
    has ``max(8, CPUs)`` ranges and yields at most that many blocks."""
    from kgray.stages.graph import build_document_graphs
    from kgray.utils import coarse_grouped_map, recorded_exchanges
    from perfbench.trace import Tracer

    _, _, _, res = pipeline_result
    tr = Tracer("co-group")
    parts = [
        ds.repartition(12).materialize()
        for ds in (res.edges, res.unary_nodes, res.annotation_urls)
    ]
    for ds in parts:
        tr.collect("inputs", ds)
    with tr.watch_plans(), recorded_exchanges() as ex:
        graphs = build_document_graphs(*parts).materialize()
    tr.collect("graphs", graphs)
    assert graphs.count() > 0
    cpus = int(ray.cluster_resources()["CPU"])
    blocks = sum(
        1 for ds in parts for b in ds.iter_internal_ref_bundles()
        for _, meta in b.blocks if meta.num_rows
    )
    assert [(e["kind"], e["parts"], e["blocks"]) for e in ex] == [
        ("hash", 3, blocks)
    ], ex
    assert ex[0]["width"] <= max(8, cpus), ex
    ops = [o["operator"] for o in tr.ops if o["layer"] == "graphs"]
    assert not [o for o in ops if o.startswith("Repartition")], ops

    ds = ray.data.range(640).repartition(32).materialize()
    with recorded_exchanges() as ex:
        out = coarse_grouped_map(
            ds, "id",
            lambda t: t.group_by("id").aggregate([([], "count_all")]),
        ).materialize()
    assert [e["width"] for e in ex] == [max(8, cpus)], ex
    assert out.num_blocks() <= max(8, cpus), out.num_blocks()
    assert sorted(out.to_pandas()["id"]) == list(range(640))


def test_node_tables_do_not_depend_on_the_exchange_width(
    pipeline_result, monkeypatch
):
    """The exchange width only moves keys between ranges: ``node_tables``
    at width 13 gives the nodes (ids included) and the URL aggregate it
    gives at width 8."""
    import kgray.utils
    from kgray.stages.nodes import node_tables

    _, _, _, res = pipeline_result

    def tables(width):
        monkeypatch.setattr(kgray.utils, "_max_width", lambda: width)
        with kgray.utils.recorded_exchanges() as ex:
            nodes, url_agg = node_tables(
                res.edges, res.unary_nodes, res.annotation_urls
            )
            out = [sorted(str(r) for r in ds.take_all())
                   for ds in (nodes, url_agg)]
        assert [e["width"] for e in ex if e["kind"] == "hash"] == [width], ex
        return out

    nodes8, urls8 = tables(8)
    nodes13, urls13 = tables(13)
    assert nodes8 and urls8
    assert nodes13 == nodes8
    assert urls13 == urls8


def test_node_tables_blocks_have_hashable_schemas(pipeline_result):
    """Every block node_tables produces has a schema Ray can hash, so
    ``unify_schemas`` takes its one-schema fast path (a schema carrying
    pandas metadata cannot be hashed).  On a 4-document corpus split into
    3 blocks, every block of the nodes and of the URL aggregate carries
    exactly its table's columns: no untyped block reaches a consumer."""
    from ray.data.block import BlockAccessor

    from kgray import schemas
    from kgray.stages.nodes import first_seen_names, node_tables

    def blocks(ds):
        for bundle in ds.materialize().iter_internal_ref_bundles():
            for ref, _ in bundle.blocks:
                yield BlockAccessor.for_block(ray.get(ref)).schema()

    _, _, _, res = pipeline_result
    nodes, url_agg = node_tables(
        res.edges, res.unary_nodes, res.annotation_urls
    )
    names, entries = first_seen_names(res.edges, res.unary_nodes, url_agg)
    n_blocks = 0
    for ds in (nodes, url_agg, names, entries):
        for schema in blocks(ds):
            hash(schema)
            n_blocks += 1
    assert n_blocks >= 3

    spans = {
        "PMC0000001": [("text", "MYC inhibits EGFR under hypoxic conditions."),
                       ("text", "HSF1 is phosphorylated in vivo.")],
        "PMC0000002": [("media", ""),
                       ("text", "TP53 activates AKT1 in tumor cells."),
                       ("text", "MYC inhibits EGFR under hypoxic conditions.")],
        "PMC0000003": [("text", "TP53 activates AKT1 in tumor cells.")],
        "PMC0000004": [("media", ""),
                       ("text", "MYC inhibits EGFR under hypoxic conditions.")],
    }
    docs = pa.Table.from_pydict(
        {
            "doc_id": list(spans),
            "spans": [
                [{"kind": kind, "text": text, "offset": 100 * i,
                  "media_ref": "synthetic://media/test/0" if kind == "media"
                  else ""} for i, (kind, text) in enumerate(doc)]
                for doc in spans.values()
            ],
        },
        schema=schemas.DOCUMENTS,
    )
    small = run_kg_pipeline(ray.data.from_arrow(docs).repartition(3))
    for ds, table in ((small.nodes, schemas.NODES),
                      (small.annotation_url_agg, schemas.URL_AGG)):
        got = list(blocks(ds))
        assert got, table
        for schema in got:
            assert schema.names == table.names, (table, schema)
    # every KGResult table: each block carries exactly its declared schema
    declared = {
        "extractions": schemas.EXTRACTIONS,
        "edges": schemas.EDGES,
        "unary_nodes": schemas.UNARY_NODES,
        "annotation_urls": schemas.ANNOTATION_URLS,
        "nodes": schemas.NODES,
        "annotation_url_agg": schemas.URL_AGG,
    }
    assert set(declared) == set(vars(small))
    for name, table in declared.items():
        got = list(blocks(getattr(small, name)))
        assert got, name
        for schema in got:
            hash(schema)
            assert schema.names == table.names, (name, schema)
            assert schema.types == table.types, (name, schema)


def test_span_invariant_through_pipeline(pipeline_result):
    docs, _, _, res = pipeline_result
    chunk_cols = ["doc_id", "span_seq", "kind", "text", "media_ref", "offset"]
    ext = res.extractions.to_pandas()[chunk_cols]
    rebuilt = reassemble_documents(pa.Table.from_pandas(ext, preserve_index=False))
    check_span_invariant(docs, rebuilt)


def test_media_spans_pass_through_untouched(pipeline_result):
    docs, _, _, res = pipeline_result
    ext = res.extractions.to_pandas()
    media = ext[ext.kind == "media"]
    assert len(media) > 0
    assert (media.text == "").all()
    assert media.media_ref.str.startswith("synthetic://").all()
    assert media.results.map(len).sum() == 0  # never extracted from


def test_pipeline_is_deterministic_across_runs():
    """Two independent executions over the same corpus produce
    byte-identical edge and node tables (sorted) — the reproducibility
    contract checkpoint resume and incremental merge both build on."""
    import pandas as pd
    import ray.data

    from kgray.corpus import generate_documents
    from kgray.pipelines.kg import run_kg_pipeline

    docs, _, _ = generate_documents(30, seed=21)

    def run_once():
        res = run_kg_pipeline(ray.data.from_arrow(docs).repartition(6))
        e = res.edges.to_pandas().sort_values(
            ["doc_id", "span_seq", "stmt_seq"]
        ).reset_index(drop=True)
        n = res.nodes.to_pandas().sort_values("node_id").reset_index(
            drop=True
        )
        return e, n

    e1, n1 = run_once()
    e2, n2 = run_once()
    pd.testing.assert_frame_equal(e1, e2)
    pd.testing.assert_frame_equal(n1, n2)


def test_zero_document_corpus_yields_empty_graph():
    """The flagship on an empty corpus: 0 edges, 0 nodes, no crash —
    every stage must tolerate empty blocks end to end."""
    from kgray.corpus import generate_documents
    from kgray.pipelines.kg import run_kg_pipeline

    docs, _, _ = generate_documents(3, seed=42)
    res = run_kg_pipeline(ray.data.from_arrow(docs.slice(0, 0)))
    assert res.edges.count() == 0
    assert res.nodes.count() == 0

