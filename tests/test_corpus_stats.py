"""Semantics tests for stages/corpus_stats (TF-IDF, bigram PMI,
stratified sampling, Misra-Gries heavy hitters).

Exact end-to-end parity is covered by the DuckDB oracles in __ray_entry__
(scripts/check_oracle.py); these pin the kernels' contracts on small
controlled inputs: MG == exact top-k, sampling determinism and rate,
TF-IDF ranking order.
"""
import math

import numpy as np
import pandas as pd
import pytest
import ray
import ray.data

SF = "/root/testdata/sf0.001"


# ---------------------------------------------------------------------------
# TF-IDF
# ---------------------------------------------------------------------------

def test_tfidf_matches_handrolled_reference():
    from kgray.stages.corpus_stats import tfidf_top_terms

    out = tfidf_top_terms(SF, k=3).to_pandas()
    assert set(out.columns) == {"doc_id", "token", "tf", "df", "tfidf",
                                "rnk"}
    # per doc: exactly rnk 1..min(3, n_terms), strictly ordered by
    # (tfidf desc, token asc)
    for _, g in out.groupby("doc_id"):
        g = g.sort_values("rnk")
        assert g.rnk.tolist() == list(range(1, len(g) + 1))
        keys = list(zip(-g.tfidf, g.token))
        assert keys == sorted(keys)

    # recompute one document's scores from raw text
    docs = pd.read_parquet(SF + "/documents.parquet",
                           columns=["doc_id", "text"])
    n = float(len(docs))
    df_counts = {}
    for t in docs.text:
        for tok in set(x for x in t.split(" ") if x):
            df_counts[tok] = df_counts.get(tok, 0) + 1
    row = docs.iloc[0]
    tf_counts = pd.Series(
        [x for x in row.text.split(" ") if x]
    ).value_counts()
    expected = {
        tok: math.floor(c * math.log(n / df_counts[tok]) * 1e6 + 0.5) / 1e6
        for tok, c in tf_counts.items()
    }
    got = out[out.doc_id == row.doc_id].set_index("token")
    for tok in got.index:
        assert got.loc[tok, "tfidf"] == pytest.approx(expected[tok],
                                                      abs=0.0)


# ---------------------------------------------------------------------------
# Bigram PMI
# ---------------------------------------------------------------------------

def test_bigram_pmi_orders_and_counts():
    from kgray.stages.corpus_stats import bigram_pmi

    out = bigram_pmi(SF, k=10, min_count=2).to_pandas()
    assert out.rnk.tolist() == list(range(1, len(out) + 1))
    assert (out.n_ab >= 2).all()
    # pmi must be monotone along rank (ties broken lexically upstream)
    assert (np.diff(out.pmi.to_numpy()) <= 1e-12).all()

    # bigrams never cross document boundaries: count one known bigram
    docs = pd.read_parquet(SF + "/documents.parquet", columns=["text"])
    a, b = out.iloc[0].token_a, out.iloc[0].token_b
    n_ab = 0
    for t in docs.text:
        toks = t.split(" ")
        n_ab += sum(
            1
            for x, y in zip(toks, toks[1:])
            if x == a and y == b and x and y
        )
    assert n_ab == out.iloc[0].n_ab


# ---------------------------------------------------------------------------
# Stratified sampling
# ---------------------------------------------------------------------------

def test_stratified_sample_deterministic_and_sized():
    from kgray.stages.corpus_stats import stratified_sample

    s1 = stratified_sample(SF, per_stratum=10).to_pandas()
    s2 = stratified_sample(SF, per_stratum=10).to_pandas()
    pd.testing.assert_frame_equal(
        s1.sort_values("doc_id").reset_index(drop=True),
        s2.sort_values("doc_id").reset_index(drop=True),
    )
    docs = pd.read_parquet(SF + "/documents.parquet",
                           columns=["doc_id", "lang"])
    sizes = docs.lang.value_counts()
    got = s1.lang.value_counts()
    for lang, n in sizes.items():
        g = int(got.get(lang, 0))
        if n <= 10:
            assert g == n  # keep-all when stratum smaller than quota
        else:
            # Bernoulli with rate 10/n: allow generous binomial slack
            assert 0 < g <= 10 + 4 * math.sqrt(10) + 1


def test_stratified_sample_membership_stable_under_growth():
    # a doc kept at rate 10/n must also be kept at rate 20/n (nested
    # samples — the hash-threshold construction guarantees it)
    from kgray.stages.corpus_stats import stratified_sample

    small = set(stratified_sample(SF, per_stratum=10).to_pandas().doc_id)
    big = set(stratified_sample(SF, per_stratum=20).to_pandas().doc_id)
    assert small <= big


# ---------------------------------------------------------------------------
# Misra-Gries heavy hitters
# ---------------------------------------------------------------------------

def _exact_top_tokens(k: int) -> pd.DataFrame:
    """Reference top-k: single-space split, empty tokens dropped,
    ranked by (n desc, token asc)."""
    docs = pd.read_parquet(SF + "/documents.parquet", columns=["text"])
    toks = docs.text.str.split(" ").explode()
    vc = toks[toks != ""].value_counts()
    t = pd.DataFrame({"token": vc.index, "n": vc.to_numpy()})
    t = t.sort_values(["n", "token"], ascending=[False, True]).head(k)
    t["rnk"] = np.arange(1, len(t) + 1, dtype=np.int64)
    return t.reset_index(drop=True)


def test_top_tokens_mg_equals_exact():
    from kgray.stages.corpus_stats import top_tokens_mg

    exact = _exact_top_tokens(20)
    mg = top_tokens_mg(SF, k=20).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(
        exact[["rnk", "token", "n"]], mg[["rnk", "token", "n"]],
        check_dtype=False,
    )


def test_top_tokens_mg_small_sketch_still_exact_when_floor_clears():
    # m=64 on a tiny corpus: every token with count > N/(m+1) survives;
    # the recount makes any surviving superset exact, so top-k of heavy
    # tokens must match whenever the k-th count clears the floor
    from kgray.stages.corpus_stats import top_tokens_mg

    exact = _exact_top_tokens(5)
    mg = top_tokens_mg(SF, k=5, m=64).to_pandas()
    total = pd.read_parquet(SF + "/documents.parquet", columns=["text"])
    n_tokens = int(
        total.text.str.split(" ").explode().replace("", np.nan).notna()
        .sum()
    )
    if exact.n.iloc[-1] > n_tokens / 65:
        pd.testing.assert_frame_equal(
            exact[["rnk", "token", "n"]].reset_index(drop=True),
            mg[["rnk", "token", "n"]].reset_index(drop=True),
            check_dtype=False,
        )


# ---------------------------------------------------------------------------
# Sequence packing / shuffle order (distributed prefix sums)
# ---------------------------------------------------------------------------

def test_pack_sequences_is_contiguous_prefix_sum():
    from kgray.stages.pack import pack_sequences

    out = pack_sequences(SF, budget=256, n_ranges=7).to_pandas()
    out = out.sort_values("doc_id").reset_index(drop=True)
    # offsets must be the exact running sum of n_tokens in doc_id order
    expect = out.n_tokens.cumsum().shift(fill_value=0)
    assert (out.token_offset.to_numpy() == expect.to_numpy()).all()
    assert (out.seq_id.to_numpy() == out.token_offset.to_numpy() // 256).all()
    # seq ids are nondecreasing and start at 0
    assert out.seq_id.iloc[0] == 0
    assert (np.diff(out.seq_id.to_numpy()) >= 0).all()


def test_shuffle_order_is_a_permutation_and_deterministic():
    from kgray.stages.pack import shuffle_order

    p1 = shuffle_order(SF).to_pandas().sort_values("doc_id")
    p2 = shuffle_order(SF, bucket_bits=3).to_pandas().sort_values("doc_id")
    n = len(p1)
    assert sorted(p1.position) == list(range(1, n + 1))
    # bucket count is an implementation knob — order must not change
    pd.testing.assert_frame_equal(
        p1.reset_index(drop=True), p2.reset_index(drop=True)
    )
    # and it is not the identity order (it actually shuffles)
    assert (p1.sort_values("doc_id").position.to_numpy()
            != np.arange(1, n + 1)).any()


# ---------------------------------------------------------------------------
# Decontamination / repetition signals
# ---------------------------------------------------------------------------

def test_decontaminate_drops_bench_and_overlapping_docs():
    from kgray.stages.corpus_stats import decontaminate

    kept = set(decontaminate(SF, bench_mod=97).to_pandas().doc_id)
    docs = pd.read_parquet(SF + "/documents.parquet",
                           columns=["doc_id", "text"])
    bench = docs[docs.doc_id % 97 == 0]
    assert kept.isdisjoint(set(bench.doc_id))

    def shingles(t):
        toks = t.split(" ")
        return {" ".join(toks[i:i + 3]) for i in range(len(toks) - 2)}

    bench_sh = set().union(*[shingles(t) for t in bench.text]) if len(
        bench) else set()
    for _, row in docs[docs.doc_id % 97 != 0].iterrows():
        expected = shingles(row.text).isdisjoint(bench_sh)
        assert (row.doc_id in kept) == expected


def test_repetition_stats_known_values():
    from kgray.stages.corpus_stats import repetition_stats
    import ray.data as rd
    import os
    import tempfile

    df = pd.DataFrame(
        {
            "doc_id": [1, 2, 3],
            "text": ["a a a b", "x y z w", ""],
        }
    )
    with tempfile.TemporaryDirectory() as tmp:
        df.to_parquet(os.path.join(tmp, "documents.parquet"))
        out = repetition_stats(tmp).to_pandas().set_index("doc_id")
    # doc 1: 4 tokens, 2 distinct -> dup .5; top 'a' 3/4; bigrams
    # (a a),(a a),(a b): 3 total 2 distinct -> dup 1/3
    assert out.loc[1, "n_tokens_r"] == 4
    assert out.loc[1, "dup_token_ratio"] == pytest.approx(0.5)
    assert out.loc[1, "top_token_frac"] == pytest.approx(0.75)
    assert out.loc[1, "dup_bigram_ratio"] == pytest.approx(1 / 3)
    # doc 2: all distinct
    assert out.loc[2, "dup_token_ratio"] == 0.0
    assert out.loc[2, "dup_bigram_ratio"] == 0.0
    # doc 3: empty -> zeros, not NaN
    assert out.loc[3, "n_tokens_r"] == 0
    assert out.loc[3, "dup_token_ratio"] == 0.0


def test_temperature_mix_flattens_and_is_deterministic():
    from kgray.stages.corpus_stats import temperature_mix

    sf = "/root/testdata/sf0.001"
    out = temperature_mix(sf, alpha=0.5, pivot=20).to_pandas()
    out2 = temperature_mix(sf, alpha=0.5, pivot=20).to_pandas()
    # deterministic membership
    assert sorted(out.doc_id) == sorted(out2.doc_id)

    docs = pd.read_parquet(sf + "/documents.parquet",
                           columns=["doc_id", "lang"])
    cnt = docs.lang.value_counts()
    kept = out.lang.value_counts()
    import math
    for lang, c in cnt.items():
        rate = min(1.0, math.pow(20.0 / float(c), 0.5))
        # advertised rate column is the exact per-stratum rate
        got_rates = out.loc[out.lang == lang, "rate"].unique()
        if len(got_rates):
            assert got_rates.tolist() == [rate]
        # kept count concentrates near expectation (hash ~ uniform)
        exp = rate * c
        assert abs(kept.get(lang, 0) - exp) <= 4 * (exp ** 0.5) + 3
    # flattening: kept share of the largest stratum shrinks
    big = cnt.idxmax()
    assert kept.get(big, 0) / len(out) < cnt[big] / len(docs)


def test_temperature_mix_alpha_extremes():
    from kgray.stages.corpus_stats import temperature_mix

    sf = "/root/testdata/sf0.001"
    docs = pd.read_parquet(sf + "/documents.parquet")
    # alpha=0: every rate is 1.0, everything kept
    all_kept = temperature_mix(sf, alpha=0.0, pivot=5).to_pandas()
    assert len(all_kept) == len(docs)
    assert (all_kept.rate == 1.0).all()


# ---------------------------------------------------------------------------
# CCNet-style per-language perplexity tiers
# ---------------------------------------------------------------------------

def test_ccnet_buckets_matches_pandas_ntile():
    from kgray.stages.corpus_stats import ccnet_buckets, unigram_nll
    from kgray.stages.text_analysis import LangId

    out = ccnet_buckets(SF).to_pandas()
    assert set(out.columns) == {"doc_id", "lang_pred", "avg_nll",
                                "bucket", "label"}

    # reference: join the two component stages on the driver and apply
    # ntile(3) per language with (avg_nll, doc_id) order in pandas
    nll = unigram_nll(SF).to_pandas()[["doc_id", "avg_nll"]]
    docs = ray.data.read_parquet(
        SF + "/documents.parquet", columns=["doc_id", "text"]
    ).map_batches(
        LangId, batch_format="pyarrow", concurrency=(1, 2)
    ).to_pandas()
    ref = nll.merge(docs, on="doc_id")
    rows = []
    for lg, g in ref.groupby("lang_pred"):
        g = g.sort_values(["avg_nll", "doc_id"]).reset_index(drop=True)
        n, b = len(g), 3
        q, r = divmod(n, b)
        for i in range(n):
            rank = i + 1
            if q == 0:
                tile = rank
            else:
                head = r * (q + 1)
                tile = ((rank - 1) // (q + 1) + 1 if rank <= head
                        else r + (rank - head - 1) // q + 1)
            rows.append((int(g.doc_id[i]), lg, float(g.avg_nll[i]), tile))
    exp = pd.DataFrame(rows, columns=["doc_id", "lang_pred", "avg_nll",
                                      "bucket"])
    m = out.merge(exp, on="doc_id", suffixes=("", "_exp"))
    assert len(m) == len(exp) == len(out)
    assert (m.lang_pred == m.lang_pred_exp).all()
    assert (m.bucket == m.bucket_exp).all()
    lab = m.bucket.map({1: "head", 2: "middle", 3: "tail"})
    assert (m.label == lab).all()


def test_ccnet_buckets_tile_sizes_differ_by_at_most_one():
    from kgray.stages.corpus_stats import ccnet_buckets

    out = ccnet_buckets(SF).to_pandas()
    for _, g in out.groupby("lang_pred"):
        sizes = g.bucket.value_counts()
        if len(g) >= 3:
            assert set(sizes.index) == {1, 2, 3}
            assert sizes.max() - sizes.min() <= 1


# ---------------------------------------------------------------------------
# BM25 top-k retrieval
# ---------------------------------------------------------------------------

def test_bm25_topk_hand_computed(tmp_path):
    import math
    import pyarrow as pa
    import pyarrow.parquet as pq
    from kgray.stages.corpus_stats import bm25_topk

    docs = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": [
            "join join merge data",   # tf(join)=2, dl=4
            "join table",             # tf(join)=1, dl=2
            "merge merge merge",      # no 'join'
            "data data data data",    # neither
        ],
    })
    pq.write_table(docs, tmp_path / "documents.parquet")

    out = bm25_topk(
        str(tmp_path), queries=(("join",),), k=3
    ).to_pandas().sort_values("rank").reset_index(drop=True)

    n, df, k1, b = 4.0, 2.0, 1.2, 0.75
    avgdl = 13.0 / 4.0
    idf = math.log((n - df + 0.5) / (df + 0.5) + 1.0)

    def score(tf, dl):
        s = idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl / avgdl))
        return math.floor(s * 1e6 + 0.5) / 1e6

    assert list(out.doc_id) == [1, 2]  # only docs containing 'join'
    assert list(out["rank"]) == [1, 2]
    assert out.score[0] == score(2.0, 4.0)
    assert out.score[1] == score(1.0, 2.0)


def test_bm25_topk_tie_breaks_by_doc_id_and_caps_k(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq
    from kgray.stages.corpus_stats import bm25_topk

    # five identical docs → identical scores; rank must follow doc_id
    docs = pa.table({
        "doc_id": pa.array([5, 3, 9, 1, 7], pa.int64()),
        "text": ["hash map"] * 5,
    })
    pq.write_table(docs, tmp_path / "documents.parquet")

    out = bm25_topk(
        str(tmp_path), queries=(("hash",),), k=3
    ).to_pandas().sort_values("rank")
    assert list(out.doc_id) == [1, 3, 5]
    assert out.score.nunique() == 1
