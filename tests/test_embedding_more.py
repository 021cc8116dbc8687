"""Semantics tests for the round-2 embedding additions: MIPS top-k,
int8 quantization error audit, PQ approximate ANN recall, and the
label-filtered kNN."""
import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

SF = "/root/testdata/sf0.001"


def _emb():
    return pd.read_parquet(SF + "/embeddings.parquet")


def test_mips_topk_matches_numpy_dot():
    from kgray.stages.similarity import mips_topk

    df = _emb()
    m = np.asarray(df.embedding.tolist(), dtype=np.float64)
    vids = df.vec_id.to_numpy()
    qmask = vids < 5
    ds = ray.data.read_parquet(
        SF + "/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    out = mips_topk(ds, m[qmask], vids[qmask], k=4).to_pandas()
    for qid in vids[qmask]:
        dots = m[vids == qid][0] @ m.T
        order = sorted(
            [(d, v) for d, v in zip(dots, vids) if v != qid],
            key=lambda t: (-t[0], t[1]),
        )[:4]
        got = out[out.query_id == qid].sort_values("rank")
        assert got.neighbor_id.tolist() == [v for _, v in order]


def test_quantize_int8_error_and_clip_accounting():
    from kgray.stages.similarity import quantize_int8

    out = quantize_int8(SF).to_pandas().set_index("vec_id")
    df = _emb()
    x = np.asarray(df.embedding.tolist(), dtype=np.float64)
    scale = np.abs(x).max(axis=0) / 127.0
    safe = np.where(scale == 0, 1.0, scale)
    q = np.clip(np.floor(x / safe + 0.5), -127, 127)
    q = np.where(scale == 0, 0.0, q)
    err_fp = np.floor((x - q * scale) * 1e9 + 0.5).astype(np.int64)
    exp_err = (err_fp * err_fp).sum(axis=1)
    exp_clip = (np.abs(np.floor(x / safe + 0.5)) > 127).sum(axis=1)
    got = out.loc[df.vec_id]
    assert (got.qerr_sq.to_numpy() == exp_err).all()
    assert (got.n_clipped.to_numpy() == exp_clip).all()
    # symmetric max-abs scaling never clips on the data it was fit on
    assert got.n_clipped.sum() == 0


def test_knn_pq_recall_against_exact():
    from kgray.stages.similarity import knn_pq

    df = _emb()
    m = np.asarray(df.embedding.tolist(), dtype=np.float64)
    vids = df.vec_id.to_numpy()
    qmask = vids < 10
    ds = ray.data.read_parquet(
        SF + "/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    out = knn_pq(ds, m[qmask], vids[qmask], k=5).to_pandas()
    hits = total = 0
    for qid in vids[qmask]:
        d2 = ((m - m[vids == qid][0]) ** 2).sum(axis=1)
        order = sorted(
            [(d, v) for d, v in zip(d2, vids) if v != qid],
            key=lambda t: (t[0], t[1]),
        )[:5]
        exact = {v for _, v in order}
        got = set(out[out.query_id == qid].neighbor_id)
        assert len(got) == 5
        hits += len(got & exact)
        total += 5
    # ADC prune + exact shortlist re-rank: recall bounded by the prune;
    # approximate by construction, floor pinned empirically
    assert hits / total >= 0.7


def test_pq_codebook_shapes_and_determinism():
    from kgray.stages.similarity import train_pq_codebooks

    ds = ray.data.read_parquet(
        SF + "/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    b1 = train_pq_codebooks(ds, n_subspaces=8, n_codes=16)
    b2 = train_pq_codebooks(ds, n_subspaces=8, n_codes=16)
    assert b1.shape == (8, 16, 8)
    assert np.array_equal(b1, b2)


def test_knn_label_purity_matches_bruteforce():
    from kgray.stages.similarity import knn_label_purity

    out = knn_label_purity(SF, k=3, n_queries=60).to_pandas()
    df = _emb()
    m = np.asarray(df.embedding.tolist(), dtype=np.float64)
    m = m / np.linalg.norm(m, axis=1, keepdims=True)
    vids = df.vec_id.to_numpy()
    labs = df.label.to_numpy()
    hits = {}
    for qi in np.where(vids < 60)[0]:
        sims = m[qi] @ m.T
        order = sorted(
            ((s, v, l) for s, v, l in zip(sims, vids, labs)
             if v != vids[qi]),
            key=lambda t: (-t[0], t[1]),
        )[:3]
        lab = labs[qi]
        h = hits.setdefault(lab, [0, 0])
        h[0] += sum(1 for _, _, nl in order if nl == lab)
        h[1] += 3
    got = out.set_index("label")
    for lab, (hh, tt) in hits.items():
        assert got.loc[lab, "n_pairs"] == tt
        assert got.loc[lab, "purity"] == hh / tt


def test_knn_filtered_pushes_predicate_into_kernel():
    """A query whose k nearest neighbours ALL share its label must still
    get k cross-label results — post-filtering an unfiltered top-k would
    return fewer."""
    from kgray.stages.similarity import knn_cosine_filtered

    rng = np.random.RandomState(3)
    base = rng.standard_normal(8)
    # 6 vectors nearly identical to the query, same label; 5 far, other label
    near = base + 0.01 * rng.standard_normal((6, 8))
    far = -base + 0.01 * rng.standard_normal((5, 8))
    emb = np.vstack([near, far])
    labels = np.array(["a"] * 6 + ["b"] * 5, dtype=object)
    corpus = ray.data.from_arrow(
        pa.table({
            "vec_id": pa.array(np.arange(11), pa.int64()),
            "embedding": pa.array([list(map(float, v)) for v in emb]),
            "label": pa.array(labels, pa.string()),
        })
    )
    out = knn_cosine_filtered(
        corpus, base[None, :], np.array([99]), np.array(["a"], object), k=5
    ).to_pandas()
    assert len(out) == 5
    assert set(out.neighbor_id) == {6, 7, 8, 9, 10}  # only label 'b'
