"""Auto-salting trigger for node canonicalization (r2 verdict item 6):
on a planted hot-key corpus the measured top-key share must engage the
salted two-phase aggregate, and the salted plan's output must be
byte-identical to the unsalted plan (same oracle as kg_nodes)."""
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray
import ray.data

from kgray.stages.nodes import (
    edge_node_mentions,
    measure_top_key_share,
    node_tables,
)


def _planted_edges(n_docs: int = 400, hot: str = "p(HGNC:TP53)"):
    """Every doc mentions the hot entity; cold entities are unique per
    doc — the hot key's mention share is ~50% of edge-side rows."""
    rows = {
        "doc_id": [], "span_seq": [], "stmt_seq": [], "subj": [], "obj": [],
    }
    for d in range(n_docs):
        rows["doc_id"].append(f"doc{d:05d}")
        rows["span_seq"].append(0)
        rows["stmt_seq"].append(0)
        rows["subj"].append(hot)
        rows["obj"].append(f"p(HGNC:GENE{d})")
    return pa.table(
        {
            "doc_id": pa.array(rows["doc_id"], pa.string()),
            "span_seq": pa.array(rows["span_seq"], pa.int64()),
            "stmt_seq": pa.array(rows["stmt_seq"], pa.int64()),
            "subj": pa.array(rows["subj"], pa.string()),
            "obj": pa.array(rows["obj"], pa.string()),
        }
    )


def _empty_unary():
    return ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([], pa.string()),
                "span_seq": pa.array([], pa.int64()),
                "stmt_seq": pa.array([], pa.int64()),
                "name": pa.array([], pa.string()),
            }
        )
    )


def _empty_url_agg():
    # node_tables takes the URL aggregate as a DATASET, never a
    # driver-side dict
    return ray.data.from_arrow(
        pa.table(
            {
                "entry_name": pa.array([], pa.string()),
                "url": pa.array([], pa.string()),
            }
        )
    )


def test_top_key_share_measures_planted_skew(ray_session):
    edges = ray.data.from_arrow(_planted_edges()).repartition(16)
    mentions = edges.map_batches(
        edge_node_mentions, batch_format="pyarrow"
    ).materialize()
    share, total = measure_top_key_share(mentions)
    # hot name appears once per block post-combiner; cold names once
    # total.  16 blocks, 400 cold names → share ≈ 16/416
    assert total > 400
    assert share > 0.02
    # and a uniform corpus reads as non-skewed
    uniq = pa.table(
        {
            "doc_id": pa.array([f"d{i}" for i in range(200)], pa.string()),
            "span_seq": pa.array([0] * 200, pa.int64()),
            "stmt_seq": pa.array([0] * 200, pa.int64()),
            "subj": pa.array([f"p(HGNC:A{i})" for i in range(200)]),
            "obj": pa.array([f"p(HGNC:B{i})" for i in range(200)]),
        }
    )
    m2 = (
        ray.data.from_arrow(uniq)
        .repartition(8)
        .map_batches(edge_node_mentions, batch_format="pyarrow")
        .materialize()
    )
    share2, _ = measure_top_key_share(m2)
    assert share2 < 0.01


def _nodes(edges):
    nodes, _ = node_tables(edges, _empty_unary(), _empty_url_agg())
    return nodes.to_pandas().sort_values("node_id").reset_index(drop=True)


def test_salted_plan_engages_and_matches_unsalted(ray_session, salt_path):
    edges = ray.data.from_arrow(_planted_edges()).repartition(16)

    # the measured decision with thresholds scaled to the test corpus:
    # must salt
    salt_path(min_rows=100, share=0.02)
    auto = _nodes(edges)
    salt_path(1)
    unsalted = _nodes(edges)
    salt_path(16)
    forced = _nodes(edges)

    pd.testing.assert_frame_equal(auto, unsalted)
    pd.testing.assert_frame_equal(forced, unsalted)
    # dense first-seen ids: hot subj of doc00000 is node 0
    assert unsalted.name.iloc[0] == "p(HGNC:TP53)"
    assert list(unsalted.node_id) == list(range(len(unsalted)))


def test_auto_salt_decision_boundary(ray_session, monkeypatch, salt_path):
    """The decision itself: planted skew → buckets > 1; uniform → 1.
    Captured by monkeypatching the salting branch's entry."""
    import kgray.stages.nodes as nodes_mod

    chosen = {}
    orig = nodes_mod.measure_top_key_share

    def spy(mentions):
        share, total = orig(mentions)
        chosen["share"] = share
        return share, total

    monkeypatch.setattr(nodes_mod, "measure_top_key_share", spy)
    salt_path(min_rows=100, share=0.02)
    edges = ray.data.from_arrow(_planted_edges()).repartition(16)
    node_tables(edges, _empty_unary(), _empty_url_agg())[0].materialize()
    assert chosen["share"] > 0.02
