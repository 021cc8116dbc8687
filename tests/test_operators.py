"""Unit tests: text analysis, dedup, similarity, graph assembly, sources."""
import json

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from kgray.stages.dedup import (
    MinHasher,
    SimHasher,
    exact_dedup,
    minhash_lsh_pairs,
    _shingles,
)
from kgray.stages.graph import build_document_graphs, merge_graphs
from kgray.stages.multimodal import MediaDecoder, MediaResizer, decode_media
from kgray.stages.similarity import knn_cosine, embedding_near_dup_pairs
from kgray.stages.text_analysis import (
    LangId,
    fingerprint,
    text_quality,
    token_count,
)
from kgray.sources.textfile import (
    clean_paragraph,
    decode_payload,
    raw_text_to_documents,
    split_paragraphs,
)


def _docs_table():
    return pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
            "text": [
                "the cat and the dog",
                "the cat and the dog",   # exact dup of 0
                "ein Hund und eine Katze ist nicht da",
                "completely different words here now",
            ],
        }
    )


def test_token_count_and_quality():
    t = token_count(_docs_table())
    assert t.column("n_tokens").to_pylist() == [5, 5, 8, 5]
    q = text_quality(_docs_table())
    assert q.column("n_words").to_pylist() == [5, 5, 8, 5]
    assert q.column("n_punct").to_pylist() == [0, 0, 0, 0]


def test_lang_id():
    out = LangId()(_docs_table())
    langs = out.column("lang_pred").to_pylist()
    assert langs[0] == "en" and langs[2] == "de"


def test_fingerprint_shift_invariance():
    a = pa.table({"doc_id": pa.array([0], pa.int64()),
                  "text": ["prefix junk " + "shared content block " * 5]})
    b = pa.table({"doc_id": pa.array([1], pa.int64()),
                  "text": ["other start!! " + "shared content block " * 5]})
    fa = fingerprint(a).column("fp_rolling").to_pylist()[0]
    fb = fingerprint(b).column("fp_rolling").to_pylist()[0]
    assert fa == fb  # rolling-min window lands inside the shared run


def test_exact_dedup():
    ds = ray.data.from_arrow(_docs_table())
    out = exact_dedup(ds).to_pandas()
    assert len(out) == 3
    assert set(out.doc_id) == {0, 2, 3}


def test_minhash_finds_planted_near_dup():
    rng = np.random.RandomState(3)
    vocab = [f"w{i}" for i in range(50)]
    base = " ".join(rng.choice(vocab, 60))
    mutated = base.split()
    mutated[5] = "zzz"  # one-token change: jaccard >> 0.5
    texts = [base, " ".join(mutated)] + [
        " ".join(rng.choice(vocab, 60)) for _ in range(20)
    ]
    ds = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": texts})
    )
    pairs = minhash_lsh_pairs(ds, threshold=0.5).to_pandas()
    assert (0, 1) in set(zip(pairs.doc_a, pairs.doc_b))
    # signature determinism across instances
    m1, m2 = MinHasher(), MinHasher()
    assert (m1.signature(base) == m2.signature(base)).all()


def test_shingles_and_simhash():
    assert _shingles("a b c d", 3) == ["a b c", "b c d"]
    assert _shingles("a", 3) == ["a"]
    s1 = SimHasher.simhash64("the quick brown fox jumps over the dog")
    s2 = SimHasher.simhash64("the quick brown fox jumps over the cat")
    s3 = SimHasher.simhash64("completely unrelated text about engines")
    ham12 = bin(s1 ^ s2).count("1")
    ham13 = bin(s1 ^ s3).count("1")
    assert ham12 < ham13


def test_knn_cosine_exact():
    rng = np.random.RandomState(0)
    emb = rng.standard_normal((40, 8))
    ds = ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(range(40), pa.int64()),
                "embedding": pa.array(
                    [e.tolist() for e in emb], pa.list_(pa.float32())
                ),
            }
        )
    )
    got = knn_cosine(ds, emb[:3], np.arange(3), k=4).to_pandas()
    # brute-force reference
    m = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    # match engine float32 storage: cosine on float32-rounded vectors
    m32 = emb.astype(np.float32).astype(np.float64)
    m32 = m32 / np.linalg.norm(m32, axis=1, keepdims=True)
    sims = m32[:3] @ m32.T
    for q in range(3):
        order = sorted(
            (j for j in range(40) if j != q),
            key=lambda j: (-sims[q, j], j),
        )[:4]
        mine = got[got.query_id == q].sort_values("rank").neighbor_id.tolist()
        assert mine == order


def test_embedding_near_dup_pairs():
    rng = np.random.RandomState(1)
    emb = rng.standard_normal((30, 8))
    emb[7] = emb[3] + rng.standard_normal(8) * 0.01  # planted near-dup
    ds = ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(range(30), pa.int64()),
                "embedding": pa.array(
                    [e.tolist() for e in emb], pa.list_(pa.float32())
                ),
            }
        )
    )
    pairs = embedding_near_dup_pairs(ds, threshold=0.99).to_pandas()
    assert (3, 7) in set(zip(pairs.vec_a, pairs.vec_b))


def test_document_graph_assembly():
    from kgray.corpus import generate_documents
    from kgray.pipelines.kg import run_kg_pipeline

    docs, _, _ = generate_documents(12, seed=9)
    res = run_kg_pipeline(ray.data.from_arrow(docs))
    graphs = build_document_graphs(
        res.edges, res.unary_nodes, res.annotation_urls
    ).to_pandas()
    edges_pd = res.edges.to_pandas()
    assert set(graphs.doc_id) == set(edges_pd.doc_id)
    g = graphs.iloc[0]
    cx = json.loads(g.cx2)
    nodes_aspect = cx[2]["nodes"]
    edges_aspect = cx[3]["edges"]
    assert g.n_nodes == len(nodes_aspect) and g.n_edges == len(edges_aspect)
    # dense per-doc ids 0..n-1; every edge endpoint refers to a real node
    ids = [n["id"] for n in nodes_aspect]
    assert ids == list(range(len(ids)))
    for e in edges_aspect:
        assert e["s"] in ids and e["t"] in ids
        assert e["v"]["bel_expression"]


def test_merge_graphs():
    na = pd.DataFrame(
        {"node_id": [0, 1], "name": ["p(HGNC:A)", "p(HGNC:B)"],
         "label": ["A", "B"], "type": ["p", "p"], "url": [None, None]}
    )
    ea = pd.DataFrame(
        {"subj": ["p(HGNC:A)"], "obj": ["p(HGNC:B)"], "pred": ["increases"]}
    )
    nb = pd.DataFrame(
        {"node_id": [0, 1], "name": ["p(HGNC:B)", "p(HGNC:C)"],
         "label": ["B", "C"], "type": ["p", "p"], "url": [None, None]}
    )
    eb = pd.DataFrame(
        {"subj": ["p(HGNC:B)"], "obj": ["p(HGNC:C)"], "pred": ["decreases"]}
    )
    nodes, edges = merge_graphs(na, ea, nb, eb)
    assert len(nodes) == 3  # B deduped by (name, type)
    assert len(edges) == 2
    b_id = nodes[nodes.name == "p(HGNC:B)"].node_id.iloc[0]
    assert edges.iloc[0].dst_id == b_id and edges.iloc[1].src_id == b_id


def test_textfile_source():
    raw = (
        "Introduction\n\nFirst paragraph\nwith a wrapped line.\n\n"
        "Second paragraph here.\n\nReferences\n\n1. Dropped citation."
    )
    assert clean_paragraph("a\n\nb\nc") == "a b c"
    paras = split_paragraphs(raw)
    assert paras == [
        "First paragraph with a wrapped line.",
        "Second paragraph here.",
    ]
    docs = raw_text_to_documents(
        pa.table({"doc_id": ["F1"], "raw_text": [raw]})
    )
    spans = docs.column("spans").to_pylist()[0]
    assert [s["text"] for s in spans] == paras
    assert spans[0]["offset"] < spans[1]["offset"]
    assert decode_payload(b"hello", "txt") == "hello"
    # PDF decode is REAL (vendored minipdf) since round 3; garbage still
    # errors rather than returning silence
    with pytest.raises(ValueError):
        decode_payload(b"%PDF", "pdf")  # truncated: no parseable objects
    with pytest.raises(ValueError):
        decode_payload(b"x", "docx")


def test_multimodal_plumbing():
    from kgray.corpus import generate_documents
    from kgray.stages.chunk import explode_spans

    docs, _, _ = generate_documents(20, seed=4)
    chunks = ray.data.from_arrow(docs).map_batches(
        explode_spans, batch_format="pyarrow"
    )
    feats = decode_media(chunks).to_pandas()
    assert len(feats) > 0
    assert feats.media_ref.str.startswith("synthetic://").all()
    assert feats.feature.map(len).eq(16).all()
    # determinism: same ref → same feature
    d1 = MediaDecoder().decode("synthetic://x", None)
    d2 = MediaDecoder().decode("synthetic://x", None)
    assert (d1["feature"] == d2["feature"]).all()
    with pytest.raises(NotImplementedError):
        MediaDecoder(strict=True).decode("synthetic://x", None)
    resized = MediaResizer(max_w=100, max_h=100)(
        pa.table(
            {
                "width": pa.array([1000, 50], pa.int32()),
                "height": pa.array([500, 80], pa.int32()),
            }
        )
    )
    assert resized.column("width").to_pylist() == [100, 50]
    assert resized.column("height").to_pylist() == [50, 80]


def test_minhash_no_driver_collection():
    """The dedup op must stay a Dataset end to end: no take_all/to_pandas
    inside the operator, on an 8x-amplified corpus (VERDICT r1 item 1)."""
    rng = np.random.RandomState(11)
    vocab = [f"w{i}" for i in range(80)]
    base = " ".join(rng.choice(vocab, 60))
    near = base.split(); near[7] = "qqq"
    texts, ids = [], []
    for rep in range(8):
        texts += [base, " ".join(near)] + [
            " ".join(rng.choice(vocab, 60)) for _ in range(8)
        ]
    ids = list(range(len(texts)))
    ds = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(ids, pa.int64()), "text": texts})
    )

    def boom(self, *a, **k):
        raise AssertionError("driver-side collection inside dedup op")

    orig_take_all = ray.data.Dataset.take_all
    orig_to_pandas = ray.data.Dataset.to_pandas
    ray.data.Dataset.take_all = boom
    ray.data.Dataset.to_pandas = boom
    try:
        pairs_ds = minhash_lsh_pairs(ds, threshold=0.5)
        # force full execution without driver collection
        n = pairs_ds.count()
    finally:
        ray.data.Dataset.take_all = orig_take_all
        ray.data.Dataset.to_pandas = orig_to_pandas
    assert n >= 1  # the planted near-pair (per replica) survives verification


def test_cluster_surface_forms_scale():
    """50k generated name variants cluster without materializing the name
    set on the driver (only verified pair edges are collected)."""
    from kgray.stages.cluster import cluster_surface_forms

    base_names = [f"GENE{i}" for i in range(10000)]
    variants = []
    for n in base_names:
        variants += [n, n.lower(), f"{n[:-1]}-{n[-1]}"]
    rng = np.random.RandomState(5)
    noise = ["".join(rng.choice(list("abcdefghij"), 8)) for _ in range(20000)]
    names = variants + noise
    ds = ray.data.from_arrow(pa.table({"name": names})).repartition(8)
    out = cluster_surface_forms(ds, threshold=0.9)
    df = out.to_pandas()
    assert len(df) == len(set(names))
    by_name = df.set_index("name")
    # exact-normalization variants always co-cluster
    assert by_name.loc["GENE0", "cluster_id"] == by_name.loc["gene0", "cluster_id"]
    assert by_name.loc["GENE123", "cluster_id"] == by_name.loc["gene123", "cluster_id"]
    assert by_name.loc["GENE0", "cluster_id"] != by_name.loc["GENE123", "cluster_id"]


def test_frame_sampling_and_audio_windows():
    from kgray.corpus import generate_documents
    from kgray.stages.chunk import explode_spans
    from kgray.stages.multimodal import (
        AudioWindowFeatures,
        FrameSampler,
        MediaProber,
        media_chunks,
        sample_video_frames,
    )

    docs, _, _ = generate_documents(40, seed=21)
    chunks = ray.data.from_arrow(docs).map_batches(
        explode_spans, batch_format="pyarrow"
    )
    frames = sample_video_frames(chunks, interval_ms=1000, max_frames=4)
    fdf = frames.to_pandas()
    assert len(fdf) > 0
    # caps respected, timestamps within duration, features fixed-dim
    assert fdf.groupby(["doc_id", "span_seq"]).frame_idx.count().max() <= 4
    assert (fdf.frame_idx >= 0).all() and (fdf.ts_ms >= 0).all()
    assert fdf.feature.map(len).eq(16).all()
    # determinism
    fdf2 = sample_video_frames(chunks, interval_ms=1000, max_frames=4).to_pandas()
    a = fdf.sort_values(["media_ref", "frame_idx"]).reset_index(drop=True)
    b = fdf2.sort_values(["media_ref", "frame_idx"]).reset_index(drop=True)
    assert a.ts_ms.tolist() == b.ts_ms.tolist()
    # audio windows
    probed = media_chunks(chunks).map_batches(
        MediaProber(), batch_format="pyarrow"
    )
    wins = probed.map_batches(
        AudioWindowFeatures(win_ms=400, hop_ms=200), batch_format="pyarrow"
    ).to_pandas()
    if len(wins):
        assert wins.feature.map(len).eq(13).all()
        per = wins.groupby(["media_ref"]).start_ms.agg(["min", "max", "count"])
        assert (per["min"] == 0).all()
    # strict mode raises at the kernel
    import pyarrow as pa_
    probe_batch = pa_.table(
        {"doc_id": ["d"], "span_seq": pa_.array([0], pa_.int32()),
         "media_ref": ["synthetic://media/x/1"]}
    )
    with pytest.raises(NotImplementedError):
        MediaProber(strict=True)(probe_batch)


def test_knn_ivf_recall():
    """IVF with generous n_probe recovers >=90% of exact top-k."""
    from kgray.stages.similarity import knn_cosine, knn_ivf

    rng = np.random.RandomState(4)
    emb = rng.standard_normal((400, 16))
    ds = ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(range(400), pa.int64()),
                "embedding": pa.array(
                    [e.tolist() for e in emb], pa.list_(pa.float32())
                ),
            }
        )
    )
    q = emb[:5]
    qids = np.arange(5)
    exact = knn_cosine(ds, q, qids, k=5).to_pandas()
    approx = knn_ivf(ds, q, qids, k=5, n_centroids=16, n_probe=8).to_pandas()
    hits = tot = 0
    for qid in qids:
        e = set(exact[exact.query_id == qid].neighbor_id)
        a = set(approx[approx.query_id == qid].neighbor_id)
        hits += len(e & a)
        tot += len(e)
    assert hits / tot >= 0.9
    # determinism
    approx2 = knn_ivf(ds, q, qids, k=5, n_centroids=16, n_probe=8).to_pandas()
    assert approx.sort_values(["query_id", "rank"]).neighbor_id.tolist() == \
        approx2.sort_values(["query_id", "rank"]).neighbor_id.tolist()


def test_repartition_join_types():
    """inner/left/semi/anti semantics incl. duplicate keys and misses."""
    import numpy as np
    import pyarrow as pa
    import ray.data
    from kgray.utils import repartition_join

    left = ray.data.from_arrow(pa.table({
        "k": pa.array([1, 2, 2, 3], pa.int64()),
        "lv": pa.array(["a", "b", "c", "d"], pa.string()),
    }))
    right = ray.data.from_arrow(pa.table({
        "rk": pa.array([2, 2, 4], pa.int64()),
        "rv": pa.array([10, 20, 30], pa.int64()),
    }))
    lt = {"k": pa.int64(), "lv": pa.string()}
    rt = {"rk": pa.int64(), "rv": pa.int64()}

    def run(how):
        df = repartition_join(
            left, right, "k", "rk", lt, rt, num_partitions=4, how=how
        ).to_pandas()
        return df.sort_values(list(df.columns)).reset_index(drop=True)

    inner = run("inner")
    assert len(inner) == 4  # two left k=2 rows x two right k=2 rows
    assert set(inner.k) == {2}

    semi = run("semi")
    assert sorted(zip(semi.k, semi.lv)) == [(2, "b"), (2, "c")]

    anti = run("anti")
    assert sorted(zip(anti.k, anti.lv)) == [(1, "a"), (3, "d")]

    lj = run("left")
    assert len(lj) == 6  # 1->null, 2x2 matched, 3->null
    assert lj.rv.isna().sum() == 2
    assert int(lj.rv.fillna(0).sum()) == 60


def test_token_count_bpe_segmentation():
    """GPT-2-style pre-token counts on known strings (RE2 semantics)."""
    import pyarrow as pa
    from kgray.stages.text_analysis import token_count_bpe

    texts = ["Hello, world!", "it's John's café 42x", "  spaced   out  ", ""]
    out = token_count_bpe(
        pa.table({"doc_id": list(range(4)), "text": texts})
    )
    assert out.column("n_tokens_bpe").to_pylist() == [4, 7, 5, 0]


def test_jaccard_exact_supersets_minhash():
    """The exact similarity join finds every pair minhash finds (recall
    1.0 ground truth) and each reported pair truly meets the threshold."""
    import ray.data
    from kgray.stages.dedup import (
        jaccard_pairs_exact,
        minhash_lsh_pairs,
        shingle_hash_sets,
    )

    sf = "/root/testdata/sf0.001"
    docs = ray.data.read_parquet(
        sf + "/documents.parquet", columns=["doc_id", "text"]
    )
    exact = jaccard_pairs_exact(docs, threshold=0.5).to_pandas()
    lsh = minhash_lsh_pairs(docs, threshold=0.5).to_pandas()
    e = set(zip(exact.doc_a, exact.doc_b))
    l = set(zip(lsh.doc_a, lsh.doc_b))
    assert l <= e  # LSH can only miss, never invent (both verify exactly)
    # spot-verify a few reported pairs against the raw texts
    import numpy as np
    import pandas as pd

    raw = pd.read_parquet(sf + "/documents.parquet",
                          columns=["doc_id", "text"]).set_index("doc_id")
    for a, b in list(e)[:5]:
        sa, sb = shingle_hash_sets([raw.loc[a, "text"],
                                    raw.loc[b, "text"]], 3)
        inter = np.intersect1d(sa, sb, assume_unique=True).size
        assert inter / (len(sa) + len(sb) - inter) >= 0.5


def test_coarse_grouped_map_edge_cases():
    """Whole groups land in one partition; empties and hot keys are safe."""
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from kgray.utils import coarse_grouped_map

    # hot key: one value dominating — every row must still reach one fn call
    t = pa.table({
        "k": pa.array([7] * 500 + list(range(20)), pa.int64()),
        "v": pa.array(range(520), pa.int64()),
    })
    ds = ray.data.from_arrow(t).repartition(8)

    def summarize(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("k", as_index=False).agg(
            n=("v", "size"), s=("v", "sum")
        )

    out = coarse_grouped_map(ds, "k", summarize, num_partitions=4).to_pandas()
    assert len(out) == 20  # one row per distinct key: no group was split
    assert out.set_index("k").loc[7, "n"] == 501  # 500 hot + 1 from range

    # string + int composite key
    t2 = pa.table({
        "a": pa.array(["x", "x", "y"], pa.string()),
        "b": pa.array([1, 1, 2], pa.int64()),
        "v": pa.array([1.0, 2.0, 3.0], pa.float64()),
    })
    out2 = coarse_grouped_map(
        ray.data.from_arrow(t2), ["a", "b"],
        lambda df: df.groupby(["a", "b"], as_index=False).agg(
            s=("v", "sum")),
        num_partitions=3,
    ).to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
    assert list(out2.s) == [3.0, 3.0]


def test_embedding_exact_supersets_lsh():
    """LSH-blocked near-dup pairs are a subset of the exact ground truth
    at the same threshold."""
    import ray.data
    from kgray.stages.similarity import (
        embedding_near_dup_pairs,
        embedding_pairs_exact,
    )

    sf = "/root/testdata/sf0.001"
    emb = ray.data.read_parquet(
        sf + "/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    exact = embedding_pairs_exact(emb, threshold=0.45).to_pandas()
    lsh = embedding_near_dup_pairs(emb, threshold=0.45).to_pandas()
    e = set(zip(exact.vec_a, exact.vec_b))
    l = set(zip(lsh.vec_a.astype(int), lsh.vec_b.astype(int)))
    assert l <= e


def test_simhash_near_dup_pairs():
    """Planted near-identical doc pair is found with the right hamming;
    the pigeonhole recall guarantee holds for every low-hamming pair."""
    import numpy as np
    import pyarrow as pa
    import ray.data
    from kgray.stages.dedup import SimHasher, simhash_near_dup_pairs

    rng = np.random.RandomState(5)
    vocab = [f"tok{i}" for i in range(200)]
    base = " ".join(rng.choice(vocab, 80))
    # exact duplicate -> hamming 0 (a guaranteed in-threshold pair; a
    # one-token edit can already flip 4+ bits of a 64-bit simhash)
    texts = [base, base] + [
        " ".join(rng.choice(vocab, 80)) for _ in range(30)
    ]
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }))
    got = simhash_near_dup_pairs(ds, max_hamming=3).to_pandas()
    found = {(a, b): h for a, b, h in
             zip(got.doc_a, got.doc_b, got.hamming)}
    # ground truth: all-pairs hamming <= 3 must ALL be present (recall 1)
    hashes = [SimHasher.simhash64(t) for t in texts]
    for i in range(len(texts)):
        for j in range(i + 1, len(texts)):
            h = bin(hashes[i] ^ hashes[j]).count("1")
            if h <= 3:
                assert found.get((i, j)) == h, (i, j, h, found.get((i, j)))
    # and nothing above the threshold sneaks in
    assert all(v <= 3 for v in found.values())


def test_zip_with_index_runs_input_once():
    """The indexed input's plan executes once: an upstream grouped
    function runs once per group, and the index is dense from offset."""
    from kgray.utils import zip_with_index

    @ray.remote(num_cpus=0)
    class Counter:
        def __init__(self):
            self.n = 0

        def add(self):
            self.n += 1

        def get(self):
            return self.n

    calls = Counter.remote()

    def per_group(df):
        ray.get(calls.add.remote())
        return df.head(1)

    ds = ray.data.from_pandas(
        pd.DataFrame({"k": [0, 1, 2, 3, 4] * 4, "v": range(20)})
    )
    grouped = ds.groupby("k").map_groups(per_group, batch_format="pandas")
    out = zip_with_index(grouped, "idx", offset=10).to_pandas()
    assert ray.get(calls.get.remote()) == 5
    assert sorted(out.idx) == list(range(10, 15))


def test_coarse_grouped_map_equals_pandas_groupby():
    """Randomized equivalence: coarse keyed reduce == plain pandas."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from kgray.utils import coarse_grouped_map

    for seed in (0, 1, 2):
        rng = np.random.RandomState(seed)
        df = pd.DataFrame({
            "k": rng.randint(0, 50, 400),
            "s": rng.choice(list("abc"), 400),
            "v": rng.rand(400),
        })
        ds = ray.data.from_arrow(pa.Table.from_pandas(df)).repartition(7)
        got = coarse_grouped_map(
            ds, ["k", "s"],
            lambda g: g.groupby(["k", "s"], as_index=False).agg(
                n=("v", "size"), lo=("v", "min")),
            num_partitions=5,
        ).to_pandas().sort_values(["k", "s"]).reset_index(drop=True)
        want = df.groupby(["k", "s"], as_index=False).agg(
            n=("v", "size"), lo=("v", "min")
        ).sort_values(["k", "s"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got.astype({"n": "int64"}), want.astype({"n": "int64"})
        )


def test_repartition_join_equals_pandas_merge():
    """Randomized equivalence for all four join types vs pandas."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from kgray.utils import repartition_join

    for seed in (3, 4):
        rng = np.random.RandomState(seed)
        l = pd.DataFrame({
            "k": rng.randint(0, 30, 120).astype("int64"),
            "lv": rng.rand(120),
        })
        r = pd.DataFrame({
            "rk": rng.randint(10, 40, 80).astype("int64"),
            "rv": rng.rand(80),
        })
        lds = ray.data.from_arrow(pa.Table.from_pandas(l)).repartition(5)
        rds = ray.data.from_arrow(pa.Table.from_pandas(r)).repartition(3)
        lt = {"k": pa.int64(), "lv": pa.float64()}
        rt = {"rk": pa.int64(), "rv": pa.float64()}

        inner = repartition_join(lds, rds, "k", "rk", lt, rt,
                                 num_partitions=6).to_pandas()
        want_inner = l.merge(r, left_on="k", right_on="rk")
        assert len(inner) == len(want_inner)
        assert abs(inner.rv.sum() - want_inner.rv.sum()) < 1e-9

        semi = repartition_join(lds, rds, "k", "rk", lt, rt,
                                num_partitions=6, how="semi").to_pandas()
        want_semi = l[l.k.isin(r.rk)]
        assert len(semi) == len(want_semi)

        anti = repartition_join(lds, rds, "k", "rk", lt, rt,
                                num_partitions=6, how="anti").to_pandas()
        assert len(anti) == len(l) - len(want_semi)

        left = repartition_join(lds, rds, "k", "rk", lt, rt,
                                num_partitions=6, how="left").to_pandas()
        want_left = l.merge(r, left_on="k", right_on="rk", how="left")
        assert len(left) == len(want_left)
        assert left.rv.isna().sum() == want_left.rv.isna().sum()


def test_jaccard_exact_equals_bruteforce():
    """Randomized equivalence: inverted-index join == all-pairs python."""
    import numpy as np
    import pyarrow as pa
    import ray.data
    from kgray.stages.dedup import jaccard_pairs_exact, shingle_hash_sets

    rng = np.random.RandomState(11)
    vocab = [f"v{i}" for i in range(12)]  # tiny vocab -> many collisions
    texts = [" ".join(rng.choice(vocab, rng.randint(3, 15)))
             for _ in range(36)]
    # guarantee qualifying pairs: one exact dup + one one-token edit
    texts.append(texts[0])
    edit = texts[1].split()
    if len(edit) > 6:
        edit[3] = "vX"
    texts.append(" ".join(edit))
    texts += ["v0 v1", ""]  # <3 tokens / empty: must never pair
    # (also exercises the empty-result schema guard when pairs are few)
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(range(40), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })).repartition(4)
    got = set(map(tuple, jaccard_pairs_exact(
        ds, threshold=0.4).to_pandas()[["doc_a", "doc_b"]].to_numpy()))
    sets = shingle_hash_sets(texts, 3)
    want = set()
    for i in range(40):
        for j in range(i + 1, 40):
            a, b = sets[i], sets[j]
            if len(a) == 0 or len(b) == 0:
                continue
            inter = np.intersect1d(a, b, assume_unique=True).size
            if inter / (len(a) + len(b) - inter) >= 0.4:
                want.add((i, j))
    assert got == want


def test_minhash_band_hash_bits_32_same_output():
    """The 32-bit fused bucket key (bench-scale knob) produces the exact
    same verified pair set as the 64-bit default: collisions only MERGE
    buckets, adding candidates the exact verify removes."""
    import ray.data
    from kgray.stages.dedup import minhash_lsh_pairs

    docs = ray.data.read_parquet(
        "/root/testdata/sf0.001/documents.parquet",
        columns=["doc_id", "text"],
    )
    p64 = minhash_lsh_pairs(docs, threshold=0.5).to_pandas()
    p32 = minhash_lsh_pairs(
        docs, threshold=0.5, band_hash_bits=32
    ).to_pandas()
    assert set(zip(p64.doc_a, p64.doc_b)) == set(zip(p32.doc_a, p32.doc_b))
    assert len(p64) > 0


def test_shuffle_blocks_zero_uniform_sentinel():
    """shuffle_blocks=0 (skip the coalescing repartition) is honored by
    ALL THREE pair operators, not just minhash — passing 0 must never
    reach ds.repartition(0)."""
    import ray.data
    from kgray.stages.dedup import (
        jaccard_pairs_exact,
        minhash_lsh_pairs,
        simhash_near_dup_pairs,
    )

    docs = ray.data.read_parquet(
        "/root/testdata/sf0.001/documents.parquet",
        columns=["doc_id", "text"],
        override_num_blocks=4,
    )
    base = set(
        map(tuple,
            minhash_lsh_pairs(docs, threshold=0.5)
            .to_pandas()[["doc_a", "doc_b"]].itertuples(index=False))
    )
    for op in (minhash_lsh_pairs, jaccard_pairs_exact):
        got = op(docs, threshold=0.5, shuffle_blocks=0).to_pandas()
        assert set(
            map(tuple, got[["doc_a", "doc_b"]].itertuples(index=False))
        ) >= base or op is minhash_lsh_pairs
    sh = simhash_near_dup_pairs(docs, shuffle_blocks=0).to_pandas()
    assert {"doc_a", "doc_b"} <= set(sh.columns) or len(sh) == 0


def test_portable_token_hash_reference_impl():
    """portable_token_hash == the scalar polynomial-31/splitmix64 spec
    the SQL oracle implements (simhash_pairs_portable)."""
    import numpy as np
    from kgray.stages.dedup import portable_token_hash

    def ref(tok: str) -> int:
        M = (1 << 64) - 1
        h = 0
        for b in tok.encode("utf-8"):
            h = (h * 31 + b) & M
        z = (h + 0x9E3779B97F4A7C15) & M
        z ^= z >> 30
        z = (z * 0xBF58476D1CE4E5B9) & M
        z ^= z >> 27
        z = (z * 0x94D049BB133111EB) & M
        z ^= z >> 31
        return z

    toks = ["hello", "world", "a", "zebra42", "x" * 100, "hello"]
    got = portable_token_hash(np.array(toks, dtype=object))
    assert [int(x) for x in got] == [ref(t) for t in toks]
    # duplicate tokens map to the same hash via the inverse index
    assert got[0] == got[5]


def test_simhash_portable_pairs_consistent():
    """The portable-hash simhash lane reports the same (doc_a, doc_b)
    contract (doc_a < doc_b, hamming <= 3) and agrees with a brute-force
    signature check."""
    import numpy as np
    import ray.data
    from kgray.stages.dedup import (
        SimHasher,
        portable_token_hash,
        simhash_near_dup_pairs,
    )

    docs = ray.data.read_parquet(
        "/root/testdata/sf0.001/documents.parquet",
        columns=["doc_id", "text"],
    )
    got = simhash_near_dup_pairs(
        docs, max_hamming=3, token_hash=portable_token_hash
    ).to_pandas()
    assert (got.doc_a < got.doc_b).all()
    # brute-force verify every reported pair's hamming distance
    import pandas as pd

    raw = pd.read_parquet(
        "/root/testdata/sf0.001/documents.parquet",
        columns=["doc_id", "text"],
    ).set_index("doc_id")
    for _, r in got.head(10).iterrows():
        sa = SimHasher._simhash_batch(
            [raw.loc[r.doc_a, "text"], raw.loc[r.doc_b, "text"]],
            portable_token_hash,
        )
        ham = bin(int(sa[0]) ^ int(sa[1])).count("1")
        assert ham == r.hamming and ham <= 3


def _skewed_sides():
    rng = np.random.RandomState(5)
    # hot key 7 holds 60% of the left fact; right has 0-2 rows per key
    k = np.where(rng.rand(5000) < 0.6, 7, rng.randint(0, 40, 5000))
    left = pd.DataFrame({"k": k.astype(np.int64),
                         "lv": np.arange(5000, dtype=np.int64)})
    rk = np.concatenate([np.arange(0, 30), np.arange(0, 15)])
    right = pd.DataFrame({"rk": rk.astype(np.int64),
                          "rv": np.arange(len(rk), dtype=np.int64) * 10})
    return left, right


def test_post_fn_fusion_equals_join_then_reduce():
    """repartition_join(post_fn=...) must equal the unfused
    join -> coarse keyed reduce plan (every row of a key is in one
    partition when the reduce runs)."""
    from kgray.utils import coarse_grouped_map, repartition_join

    left, right = _skewed_sides()

    def reduce_fn(df):
        return df.groupby("k", as_index=False).agg(
            s=("lv", "sum"), m=("rv", "max"), n=("lv", "size")
        )

    def mk(post):
        l = ray.data.from_pandas(left).repartition(5)
        r = ray.data.from_pandas(right).repartition(2)
        j = repartition_join(
            l, r, "k", "rk",
            {"k": pa.int64(), "lv": pa.int64()},
            {"rk": pa.int64(), "rv": pa.int64()},
            num_partitions=8,
            post_fn=reduce_fn if post else None,
        )
        out = j if post else coarse_grouped_map(j, "k", reduce_fn)
        out = out.to_pandas()
        return out.sort_values("k").reset_index(drop=True)

    pd.testing.assert_frame_equal(mk(True), mk(False), check_dtype=False)
