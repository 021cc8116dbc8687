"""Semantics tests for the round-2 extension operators: PII scrubbing
(stages/scrub), chunk-granularity exact dedup (stages/dedup), per-source
quota sampling + percentile filter (pipelines/curate), token-id
encoding and label centroids.

End-to-end oracle parity lives in __ray_entry__ (scripts/check_oracle.py,
all six exact at sf0.01); these pin the kernels on controlled inputs —
edge cases the uniform synthetic corpus never produces.
"""
import pandas as pd
import pyarrow as pa
import pytest
import ray
import ray.data

SF = "/root/testdata/sf0.001"


# ---------------------------------------------------------------------------
# PII scrubbing
# ---------------------------------------------------------------------------

def _tbl(ids, texts):
    return pa.table(
        {"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts)}
    )


def test_pii_stats_and_redact_classes():
    from kgray.stages.scrub import pii_scrub

    out = pii_scrub(
        _tbl(
            [1, 2, 3, 4],
            [
                "mail a.b+c@sub.example.org and d@e.io end",
                "call 555-123-4567 or 555.123.4567",
                "host 192.168.0.1 gateway 10.0.0.254",
                "clean text with no pii at all",
            ],
        )
    ).to_pydict()
    assert out["n_email"] == [2, 0, 0, 0]
    assert out["n_phone"] == [0, 2, 0, 0]
    assert out["n_ipv4"] == [0, 0, 2, 0]
    assert out["redacted"] == [
        "mail <EMAIL> and <EMAIL> end",
        "call <PHONE> or <PHONE>",
        "host <IPV4> gateway <IPV4>",
        "clean text with no pii at all",
    ]


def test_pii_boundaries_not_overmatched():
    from kgray.stages.scrub import pii_scrub

    # 4-digit run breaks the IPv4 \b groups; 2-digit area code breaks
    # the phone shape; bare @ with no TLD is not an email
    out = pii_scrub(
        _tbl([1], ["v 1.2.3.4567 t 55-123-4567 m not@here w 1.2.3.4"])
    ).to_pydict()
    assert out["n_ipv4"] == [1]
    assert out["n_phone"] == [0]
    assert out["n_email"] == [0]
    assert out["redacted"] == ["v 1.2.3.4567 t 55-123-4567 m not@here w <IPV4>"]


def test_pii_injection_is_deterministic_and_detected():
    from kgray.stages.scrub import inject_synthetic_pii, pii_scrub

    t = _tbl([0, 12345], ["alpha", "beta"])
    a = pii_scrub(inject_synthetic_pii(t)).to_pydict()
    b = pii_scrub(inject_synthetic_pii(t)).to_pydict()
    assert a == b
    assert a["n_email"] == [1, 1]
    assert a["n_phone"] == [1, 1]
    assert a["n_ipv4"] == [1, 1]


# ---------------------------------------------------------------------------
# Chunk-granularity exact dedup
# ---------------------------------------------------------------------------

def test_word_chunks_windows_and_ragged_tail():
    from kgray.stages.dedup import word_chunks

    out = word_chunks(_tbl([7], ["a b c d e f g"]), chunk_words=3)
    assert out.to_pydict() == {
        "doc_id": [7, 7, 7],
        "chunk_seq": [0, 1, 2],
        "chunk": ["a b c", "d e f", "g"],
    }


def test_chunk_dedup_keeps_global_first_occurrence():
    from kgray.stages.dedup import chunk_dedup_exact

    # doc 2 repeats doc 1's first window; doc 1 repeats its own window
    docs = ray.data.from_arrow(
        _tbl(
            [2, 1],
            ["x y z tail two", "x y z x y z"],
        )
    )
    out = (
        chunk_dedup_exact(docs, chunk_words=3)
        .to_pandas()
        .sort_values(["doc_id", "chunk_seq"])
        .reset_index(drop=True)
    )
    # 'x y z' occurs at (1,0), (1,1) and (2,0); only its global first
    # occurrence (1,0) survives — 'tail two' is unique at (2,1)
    got = set(zip(out.doc_id, out.chunk_seq, out.chunk))
    assert got == {(1, 0, "x y z"), (2, 1, "tail two")}


def test_chunk_dedup_matches_pandas_reference_on_sf():
    from kgray.stages.dedup import chunk_dedup_exact

    docs = ray.data.read_parquet(
        SF + "/documents.parquet", columns=["doc_id", "text"]
    )
    got = (
        chunk_dedup_exact(docs, chunk_words=20)
        .to_pandas()
        .sort_values(["doc_id", "chunk_seq"])
        .reset_index(drop=True)
    )

    raw = pd.read_parquet(SF + "/documents.parquet",
                          columns=["doc_id", "text"])
    rows = []
    for d, t in sorted(zip(raw.doc_id, raw.text)):
        toks = t.split(" ")
        for i in range((len(toks) + 19) // 20):
            rows.append((d, i, " ".join(toks[i * 20 : (i + 1) * 20])))
    ref = pd.DataFrame(rows, columns=["doc_id", "chunk_seq", "chunk"])
    ref = ref.sort_values(["doc_id", "chunk_seq"]).drop_duplicates(
        "chunk", keep="first"
    )
    ref = ref.sort_values(["doc_id", "chunk_seq"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got.astype({"chunk_seq": "int64"}), ref.astype({"chunk_seq": "int64"})
    )


# ---------------------------------------------------------------------------
# Quota sampling / percentile filter
# ---------------------------------------------------------------------------

def test_quota_sample_cap_rank_and_determinism():
    from kgray.pipelines.curate import quota_sample

    a = quota_sample(SF, per_source=3).to_pandas()
    b = quota_sample(SF, per_source=3).to_pandas()
    key = ["source", "rnk"]
    pd.testing.assert_frame_equal(
        a.sort_values(key).reset_index(drop=True),
        b.sort_values(key).reset_index(drop=True),
    )
    sizes = a.groupby("source").size()
    assert (sizes <= 3).all()
    assert (
        a.groupby("source").rnk.apply(
            lambda s: sorted(s) == list(range(1, len(s) + 1))
        )
    ).all()
    # rank order follows the documented integer hash
    h = (a.doc_id * 2654435761) % 2 ** 32
    a = a.assign(h=h)
    for _, g in a.groupby("source"):
        g = g.sort_values("rnk")
        keys = list(zip(g.h, g.doc_id))
        assert keys == sorted(keys)


def test_quality_percentile_threshold_semantics():
    from kgray.pipelines.curate import quality_percentile_filter

    out = quality_percentile_filter(SF, pct=0.9).to_pandas()
    raw = pd.read_parquet(SF + "/documents.parquet",
                          columns=["doc_id", "n_chars"])
    import math

    n = len(raw)
    t = sorted(raw.n_chars)[math.ceil(0.9 * n) - 1]
    ref = raw[raw.n_chars >= t]
    assert set(out.doc_id) == set(ref.doc_id)
    assert out.n_chars.min() == t


# ---------------------------------------------------------------------------
# Vocabulary build / token-id encoding
# ---------------------------------------------------------------------------

def test_encode_token_ids_vocab_rank_and_oov(tmp_path):
    from kgray.stages.pack import build_vocab, encode_token_ids

    pd.DataFrame(
        {
            "doc_id": [1, 2],
            "text": ["b a a c b a", "z a b"],
        }
    ).to_parquet(tmp_path / "documents.parquet")
    v = build_vocab(str(tmp_path), vocab_size=2)
    # counts: a=4, b=3, c=1, z=1 → vocab a:0, b:1; c,z → OOV id 2
    assert v.token.tolist() == ["a", "b"]
    assert v.token_id.tolist() == [0, 1]
    out = (
        encode_token_ids(str(tmp_path), vocab_size=2)
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    assert out.loc[1].tolist() == ["1,0,0,2,1,0", 6, 1]
    assert out.loc[2].tolist() == ["2,0,1", 3, 1]


# ---------------------------------------------------------------------------
# Label centroids
# ---------------------------------------------------------------------------

def test_label_centroids_hand_computed(tmp_path):
    import numpy as np

    from kgray.stages.similarity import label_centroids

    emb = pd.DataFrame(
        {
            "vec_id": [0, 1, 2],
            "embedding": [[1.0, 2.0], [3.0, 4.0], [10.0, 20.0]],
            "label": [7, 7, 8],
        }
    )
    emb.to_parquet(tmp_path / "embeddings.parquet")
    out = (
        label_centroids(str(tmp_path))
        .to_pandas()
        .sort_values(["label", "dim"])
        .reset_index(drop=True)
    )
    assert out.label.tolist() == [7, 7, 8, 8]
    assert out.dim.tolist() == [1, 2, 1, 2]
    assert out.centroid.tolist() == [2.0, 3.0, 10.0, 20.0]


