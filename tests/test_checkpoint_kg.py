"""End-to-end checkpointed KG pipeline (r2 verdict item 7): lineage +
resume extends through the BEL parse, node canonicalization, and the
per-document CX2 sink.  A fully-checkpointed resume re-invokes NOTHING —
the LLM, BEL parser, node aggregation and graph assembly are all proven
un-called on the second run; crashed partial writes recompute only their
partition."""
import json
import os
import shutil

import pandas as pd
import pytest
import ray.data

from kgray.corpus import generate_documents
from kgray.pipelines.checkpoint import (
    load_state,
    run_checkpointed_kg,
)
from kgray.pipelines.kg import KGConfig, run_kg_pipeline

N_PARTS = 4


def _cfg(marker=None):
    from kgray.testing import MarkerBackend

    cfg = KGConfig(annotate_concurrency=(1, 2), extract_concurrency=(1, 2))
    if marker:
        cfg.backend = MarkerBackend(marker)
    return cfg


def _sorted_df(ds, keys):
    df = ds.to_pandas()
    for c in df.columns:  # dictionary-encoded arrow → Categorical artifact
        if isinstance(df[c].dtype, pd.CategoricalDtype):
            df[c] = df[c].astype(object)
    return df.sort_values(keys).reset_index(drop=True)


def _url_agg(res):
    return {
        r["entry_name"]: r["url"] for r in res.annotation_url_agg.take_all()
    }


def test_full_kg_checkpoint_roundtrip_and_cold_resume(tmp_path, monkeypatch):
    docs, gold, _ = generate_documents(24, seed=7)
    ds = ray.data.from_arrow(docs)
    ckpt = str(tmp_path / "ckpt")
    m1 = str(tmp_path / "m1")

    res1, graphs1 = run_checkpointed_kg(
        ds, ckpt, num_partitions=N_PARTS, cfg=_cfg(m1)
    )
    e1 = _sorted_df(res1.edges, ["doc_id", "span_seq", "stmt_seq", "subj"])
    n1 = _sorted_df(res1.nodes, ["node_id"])
    g1 = _sorted_df(graphs1, ["doc_id"])
    assert len(e1) > 0 and len(n1) > 0 and len(g1) > 0
    assert len(os.listdir(m1)) > 0  # extractor ran

    # stage manifests present: per-partition graph_prep + graphs, global nodes
    mdir = os.path.join(ckpt, "manifests")
    names = set(os.listdir(mdir))
    prep = {n for n in names if n.startswith("graph_prep-partition-")}
    gman = {n for n in names if n.startswith("graphs-partition-")}
    assert prep and gman and "nodes.json" in names
    nodes_man = json.load(open(os.path.join(mdir, "nodes.json")))
    assert nodes_man["status"] == "complete"
    assert nodes_man["n_nodes"] == len(n1)

    # equivalence with the non-checkpointed pipeline
    fresh = run_kg_pipeline(ds, _cfg())
    ef = _sorted_df(fresh.edges, ["doc_id", "span_seq", "stmt_seq", "subj"])
    nf = _sorted_df(fresh.nodes, ["node_id"])
    pd.testing.assert_frame_equal(e1, ef)
    pd.testing.assert_frame_equal(n1, nf)

    # ---- cold resume: NOTHING recomputes ----
    import kgray.stages.edges as edges_mod
    import kgray.stages.graph as graph_mod
    import kgray.stages.nodes as nodes_mod

    def boom(*a, **k):
        raise AssertionError("stage recomputed on a fully-resumed run")

    monkeypatch.setattr(edges_mod, "extractions_to_edges", boom)
    monkeypatch.setattr(edges_mod, "extractions_to_unary_nodes", boom)
    monkeypatch.setattr(edges_mod, "extractions_to_annotation_urls", boom)
    monkeypatch.setattr(graph_mod, "build_document_graphs", boom)
    monkeypatch.setattr(nodes_mod, "node_tables", boom)
    m2 = str(tmp_path / "m2")
    res2, graphs2 = run_checkpointed_kg(
        ds, ckpt, num_partitions=N_PARTS, cfg=_cfg(m2)
    )
    assert not os.path.exists(m2) or len(os.listdir(m2)) == 0  # no LLM
    e2 = _sorted_df(res2.edges, ["doc_id", "span_seq", "stmt_seq", "subj"])
    n2 = _sorted_df(res2.nodes, ["node_id"])
    g2 = _sorted_df(graphs2, ["doc_id"])
    pd.testing.assert_frame_equal(e1, e2)
    pd.testing.assert_frame_equal(n1, n2)
    pd.testing.assert_frame_equal(g1, g2)
    assert _url_agg(res2) == _url_agg(res1)

    # gold parity survives the parquet round trip
    got = set(zip(e2.doc_id, e2.span_seq, e2.subj, e2.pred, e2.obj))
    want = set(
        zip(*[gold.column(c).to_pylist()
              for c in ["doc_id", "span_seq", "subj", "pred", "obj"]])
    )
    assert got == want


def test_graph_prep_crash_recomputes_only_victim(tmp_path):
    docs, _, _ = generate_documents(24, seed=7)
    ds = ray.data.from_arrow(docs)
    ckpt = str(tmp_path / "ckpt")
    res1, graphs1 = run_checkpointed_kg(
        ds, ckpt, num_partitions=N_PARTS, cfg=_cfg()
    )
    e1 = _sorted_df(res1.edges, ["doc_id", "span_seq", "stmt_seq", "subj"])
    g1 = _sorted_df(graphs1, ["doc_id"])

    # simulate crash-after-data-write-before-manifest in graph_prep AND
    # the graphs sink for one partition
    st = load_state(ckpt, N_PARTS)
    mdir = os.path.join(ckpt, "manifests")
    victims = sorted(
        int(n.split("-")[-1].split(".")[0])
        for n in os.listdir(mdir)
        if n.startswith("graph_prep-partition-")
    )
    victim = victims[0]
    os.remove(os.path.join(mdir, f"graph_prep-partition-{victim}.json"))
    os.remove(os.path.join(mdir, f"graphs-partition-{victim}.json"))
    # nodes consumed the full partition set; its manifest must now be
    # stale (input_partitions mismatch) and recompute

    m4 = str(tmp_path / "m4")
    res2, graphs2 = run_checkpointed_kg(
        ds, ckpt, num_partitions=N_PARTS, cfg=_cfg(m4)
    )
    # extraction checkpoints were untouched: LLM still not re-invoked
    assert not os.path.exists(m4) or len(os.listdir(m4)) == 0
    e2 = _sorted_df(res2.edges, ["doc_id", "span_seq", "stmt_seq", "subj"])
    g2 = _sorted_df(graphs2, ["doc_id"])
    pd.testing.assert_frame_equal(e1, e2)
    pd.testing.assert_frame_equal(g1, g2)
    assert os.path.exists(
        os.path.join(mdir, f"graph_prep-partition-{victim}.json")
    )


def test_nodes_manifest_tracks_partition_set(tmp_path):
    docs, _, _ = generate_documents(16, seed=9)
    ds = ray.data.from_arrow(docs)
    ckpt = str(tmp_path / "ckpt")
    run_checkpointed_kg(ds, ckpt, num_partitions=N_PARTS, cfg=_cfg())
    man = json.load(
        open(os.path.join(ckpt, "manifests", "nodes.json"))
    )
    prep_pids = sorted(
        int(n.split("-")[-1].split(".")[0])
        for n in os.listdir(os.path.join(ckpt, "manifests"))
        if n.startswith("graph_prep-partition-")
    )
    assert man["input_partitions"] == prep_pids
    assert man["wall_time_sec"] >= 0
    assert os.path.isdir(os.path.join(ckpt, "url_agg"))  # sidecar DATASET, not a dict


def test_cli_checkpoint_flag_resumes(tmp_path, ray_session):
    """--checkpoint_dir: a second CLI run over the same inputs resumes
    every stage from parquet and produces identical outputs."""
    from kgray.cli import main

    txt = tmp_path / "doc.txt"
    txt.write_text(
        "AKT1 activates HSF1 in stressed cells. This paragraph is long "
        "enough to be admitted by the filters.\n"
    )
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    ckpt = str(tmp_path / "ckpt")
    for out in (out1, out2):
        rc = main(
            [
                "--txt_paths", str(txt),
                "--output_dir", str(out),
                "--checkpoint_dir", ckpt,
                "--checkpoint_partitions", "4",
                "--backend", "stub",
            ]
        )
        assert rc == 0
        assert (out / "doc" / "cx2_network.cx").exists()
    cx1 = (out1 / "doc" / "cx2_network.cx").read_text()
    cx2 = (out2 / "doc" / "cx2_network.cx").read_text()
    assert cx1 == cx2
    # all four stage kinds checkpointed
    names = set(os.listdir(os.path.join(ckpt, "manifests")))
    assert any(n.startswith("partition-") for n in names)
    assert any(n.startswith("graph_prep-") for n in names)
    assert any(n.startswith("graphs-") for n in names)
    assert "nodes.json" in names


def test_graphs_crash_rebuilds_only_victim(tmp_path, monkeypatch):
    """A crash inside the graphs stage alone: only the victim partition's
    CX2 rows are rebuilt; the BEL parse and node canonicalization stay
    checkpointed."""
    import kgray.stages.edges as edges_mod
    import kgray.stages.graph as graph_mod
    import kgray.stages.nodes as nodes_mod
    from kgray.pipelines.checkpoint import partition_of

    docs, _, _ = generate_documents(24, seed=7)
    ds = ray.data.from_arrow(docs)
    ckpt = str(tmp_path / "ckpt")
    _, graphs1 = run_checkpointed_kg(
        ds, ckpt, num_partitions=N_PARTS, cfg=_cfg()
    )
    g1 = _sorted_df(graphs1, ["doc_id"])
    victim = partition_of(g1.doc_id[0], N_PARTS)
    os.remove(os.path.join(ckpt, "manifests",
                           f"graphs-partition-{victim}.json"))

    def boom(*a, **k):
        raise AssertionError("upstream stage recomputed")

    for name in ("extractions_to_edges", "extractions_to_unary_nodes",
                 "extractions_to_annotation_urls"):
        monkeypatch.setattr(edges_mod, name, boom)
    monkeypatch.setattr(nodes_mod, "node_tables", boom)
    calls = []
    real = graph_mod.build_document_graphs

    def spy(edges, unary, ann_urls, style=None):
        calls.append(edges)
        return real(edges, unary, ann_urls, style=style)

    monkeypatch.setattr(graph_mod, "build_document_graphs", spy)
    m2 = str(tmp_path / "m2")
    _, graphs2 = run_checkpointed_kg(
        ds, ckpt, num_partitions=N_PARTS, cfg=_cfg(m2)
    )
    assert not os.path.exists(m2) or len(os.listdir(m2)) == 0  # no LLM
    assert len(calls) == 1
    rebuilt = {partition_of(d, N_PARTS)
               for d in calls[0].to_pandas().doc_id}
    assert rebuilt == {victim}
    pd.testing.assert_frame_equal(g1, _sorted_df(graphs2, ["doc_id"]))


def test_checkpoint_on_disk_layout(tmp_path):
    """The on-disk contract resume, perfbench's partition-loss probe and
    the checkpoint_lineage query read: manifest file names, each stage's
    manifest fields, and the data dirs."""
    from kgray.pipelines.checkpoint import partition_of

    docs, _, _ = generate_documents(24, seed=7)
    ckpt = str(tmp_path / "ckpt")
    run_checkpointed_kg(ray.data.from_arrow(docs), ckpt,
                        num_partitions=N_PARTS, cfg=_cfg())
    pids = {partition_of(d, N_PARTS)
            for d in docs.column("doc_id").to_pylist()}
    assert pids == set(range(N_PARTS))
    mdir = os.path.join(ckpt, "manifests")
    assert set(os.listdir(mdir)) == {"nodes.json"} | {
        f"{stage}partition-{pid}.json"
        for stage in ("", "graph_prep-", "graphs-") for pid in pids
    }

    lineage = {"version", "partition_id", "num_partitions", "stage",
               "status", "wall_time_sec", "written_at"}
    want = {
        "extractions": lineage | {"input_fingerprint", "n_docs", "n_spans",
                                  "n_admitted", "n_statements"},
        "graph_prep": lineage | {"n_edges", "n_unary",
                                 "n_annotation_urls"},
        "graphs": lineage | {"n_graphs"},
        "nodes": {"version", "stage", "status", "input_partitions",
                  "n_nodes", "wall_time_sec", "written_at"},
    }
    for name in os.listdir(mdir):
        with open(os.path.join(mdir, name)) as f:
            m = json.load(f)
        assert set(m) == want[m["stage"]], name
        assert m["status"] == "complete"

    partitioned = {"extractions", "edges", "unary", "annotation_urls",
                   "graphs"}
    assert set(os.listdir(ckpt)) == partitioned | {"manifests", "nodes",
                                                  "url_agg"}
    for d in partitioned:
        assert set(os.listdir(os.path.join(ckpt, d))) == {
            f"partition_id={pid}" for pid in pids
        }, d


def test_empty_corpus_yields_typed_edges_and_nodes(tmp_path):
    from kgray import schemas

    empty = ray.data.from_arrow(schemas.DOCUMENTS.empty_table())
    plain = run_kg_pipeline(empty, _cfg())
    ckpt, _ = run_checkpointed_kg(empty, str(tmp_path / "ckpt"),
                                  num_partitions=N_PARTS, cfg=_cfg())
    for res in (plain, ckpt):
        assert res.edges.schema().names == schemas.EDGES.names
        assert res.nodes.schema().names == schemas.NODES.names
        assert res.edges.count() == 0 and res.nodes.count() == 0
    assert plain.extractions.schema().names == schemas.EXTRACTIONS.names
    assert plain.annotation_url_agg.schema().names == schemas.URL_AGG.names
    for res in (plain, ckpt):
        assert res.unary_nodes.schema().names == schemas.UNARY_NODES.names
        assert (res.annotation_urls.schema().names
                == schemas.ANNOTATION_URLS.names)
