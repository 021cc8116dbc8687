"""Corpus-level statistics for training-data curation: TF-IDF term
scoring, bigram PMI collocations, deterministic stratified sampling, and
Misra-Gries heavy hitters with an exact-recount second pass.

Tokenization is the engine's SQL-parity convention (single-space split,
empty tokens dropped) so every
operator here has an exact DuckDB oracle.  Float scores are computed with
the EXACT expression the oracle uses (same cast points, same operator
associativity, libm ``math.log``) and rounded half-up, so value hashes
match bit-for-bit; rankings sort on the pre-log ratio (pure double
arithmetic) wherever possible to keep ordering engine-independent.
"""
from __future__ import annotations

import math
import os
from typing import Dict

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..utils import coarse_grouped_map, pandas_reducer, repartition_join
from .filters import SAMPLE_MULT


def _read_docs(sf_dir: str, columns) -> "ray.data.Dataset":
    # read with the file's fields but not its pandas schema metadata,
    # which Ray cannot hash when it unifies block schemas
    import pyarrow.parquet as pq

    path = os.path.join(sf_dir, "documents.parquet")
    fields = pq.read_schema(path)
    return ray.data.read_parquet(
        path, columns=columns,
        schema=pa.schema([fields.field(c) for c in columns]),
    )


def _round6(v: np.ndarray) -> np.ndarray:
    return np.floor(v * 1e6 + 0.5) / 1e6


# ---------------------------------------------------------------------------
# TF-IDF
# ---------------------------------------------------------------------------

def _tf_rows(batch: pa.Table) -> pa.Table:
    """(doc_id, token, tf) term-frequency rows — a document's text lives
    in one row, so per-doc term frequencies are exact map-side."""
    df = batch.to_pandas()
    d = df.assign(token=df.text.str.split(" ")).explode("token")
    d = d[d.token.notna() & (d.token != "")]
    g = d.groupby(["doc_id", "token"], as_index=False).agg(
        tf=("token", "size")
    )
    g["tf"] = g.tf.astype(np.int64)
    return pa.Table.from_pandas(g[["doc_id", "token", "tf"]],
                                preserve_index=False)


_TF_CACHE: dict = {}


def _tf_table(sf_dir: str) -> "ray.data.Dataset":
    """The (doc_id, token, tf) table for ``sf_dir``, memoized per Ray
    session — shared-scan elimination across the TF-IDF / unigram-LM /
    BM25 family (same pattern as __ray_entry__._kg_result): four
    operators tokenize the identical corpus identically, so the
    materialized posting table is built once per session and reused.
    utils.session_memo owns staleness: entries are dropped when the Ray
    session changes and a hit is block-probed, so a dataset never
    outlives the object store holding its blocks; the table is
    token-row-sized (already combiner-collapsed per doc), the exact
    thing each caller materialized anyway."""
    from ..utils import session_memo

    def build():
        docs = _read_docs(sf_dir, ["doc_id", "text"])
        return docs.map_batches(
            _tf_rows, batch_format="pyarrow"
        ).materialize()

    return session_memo(_TF_CACHE, sf_dir, build)


def tfidf_top_terms(sf_dir: str, k: int = 5) -> "ray.data.Dataset":
    """Top-k TF-IDF terms per document: tfidf = tf · ln(N/df).

    Fully distributed, NO vocabulary-sized driver state (round 3 — the
    former document-frequency broadcast grew with unpruned web-scale
    vocabulary): (1) per-batch (doc, token, tf) rows, pinned once (two
    consumers); (2) document frequencies by a token-keyed coarse reduce
    over those already-distinct rows, with ln(N/df) attached per df row
    map-side; (3) one token-keyed repartition join puts df/logterm back
    on the tf rows and a doc-keyed coarse reduce ranks each document's
    terms.  Three all-to-alls total (df reduce, join, rank reduce), all
    moving pre-aggregated rows; the driver sees only the N = count()
    scalar.  ln is libm ``math.log`` once per distinct df value — the
    same call DuckDB's ln() makes, so scores stay bit-identical.
    """
    docs = _read_docs(sf_dir, ["doc_id", "text"])
    n_docs = float(docs.count())

    # pinned: feeds both the df aggregate and the join (lazy lineage
    # would re-run the tokenize+count per consumer)
    tf = _tf_table(sf_dir)

    def df_partial(batch: pa.Table) -> pa.Table:
        # (doc_id, token) rows are globally unique after _tf_rows, so
        # document frequency is a plain row count per token
        t = pa.table({"token": batch.column("token")})
        g = t.group_by("token").aggregate([("token", "count")])
        return g.rename_columns(["token", "df"])

    def add_logterm(d: pd.DataFrame) -> pd.DataFrame:
        g = d.groupby("token", as_index=False).agg(df=("df", "sum"))
        logs = {int(v): math.log(n_docs / float(v)) for v in g.df.unique()}
        g["logterm"] = g.df.map(logs)
        g["df"] = g.df.astype(np.int64)
        return g

    dfs = coarse_grouped_map(
        tf.map_batches(df_partial, batch_format="pyarrow"),
        "token",
        pandas_reducer(add_logterm),
    )

    joined = repartition_join(
        tf,
        dfs,
        "token",
        "token",
        {"token": pa.string(), "doc_id": pa.int64(), "tf": pa.int64()},
        {"token": pa.string(), "df": pa.int64(), "logterm": pa.float64()},
    )

    def rank_doc_terms(d: pd.DataFrame) -> pd.DataFrame:
        d = d.copy()
        d["tfidf"] = _round6(
            d.tf.to_numpy(np.float64) * d.logterm.to_numpy(np.float64)
        )
        d = d.sort_values(
            ["doc_id", "tfidf", "token"], ascending=[True, False, True]
        )
        d = d.groupby("doc_id", as_index=False, group_keys=False).head(k)
        d["rnk"] = (d.groupby("doc_id").cumcount() + 1).astype(np.int64)
        d["tf"] = d.tf.astype(np.int64)
        d["df"] = d.df.astype(np.int64)
        d["doc_id"] = d.doc_id.astype(np.int64)
        return d[["doc_id", "token", "tf", "df", "tfidf", "rnk"]]

    return coarse_grouped_map(joined, "doc_id", pandas_reducer(rank_doc_terms))


# ---------------------------------------------------------------------------
# Bigram PMI collocations
# ---------------------------------------------------------------------------

def bigram_pmi(
    sf_dir: str, k: int = 20, min_count: int = 5
) -> "ray.data.Dataset":
    """Top-k bigram collocations by pointwise mutual information.

    pmi(a,b) = ln( P(a,b) / (P(a)P(b)) ) with P over token/bigram totals.
    Counting is map-side partial + coarse keyed reduce for unigrams and
    bigrams; the two probability lookups are token-keyed repartition joins
    (vocabulary is data-dependent — joined, not broadcast).  Ranking sorts
    on the probability RATIO (pure double arithmetic, identical across
    engines) rather than its logarithm, so order never depends on libm;
    ln is applied only to the reported score.

    The unigram/bigram count tables are materialized once: each feeds
    both a totals aggregate and a join, and an unmaterialized lineage
    would re-run the count shuffle per consumer.  Both tables are
    vocabulary-sized (bounded by distinct tokens/bigrams, not corpus
    rows).
    """
    docs = _read_docs(sf_dir, ["doc_id", "text"])

    def explode_tokens(df: pd.DataFrame):
        d = df.assign(token=df.text.str.split(" ")).explode("token")
        nxt = d.groupby(level=0).token.shift(-1)
        return d, nxt

    def uni_partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        d, _ = explode_tokens(df)
        vc = d.token[d.token.notna() & (d.token != "")].value_counts()
        return pa.table(
            {
                "token": pa.array(vc.index.to_numpy(), pa.string()),
                "c": pa.array(vc.to_numpy().astype(np.int64), pa.int64()),
            }
        )

    def big_partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        d, nxt = explode_tokens(df)
        mask = (
            d.token.notna() & (d.token != "") & nxt.notna() & (nxt != "")
        )
        pairs = pd.DataFrame(
            {"token_a": d.token[mask], "token_b": nxt[mask]}
        )
        g = pairs.groupby(["token_a", "token_b"], as_index=False).agg(
            n_ab=("token_a", "size")
        )
        g["n_ab"] = g.n_ab.astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    uni = coarse_grouped_map(
        docs.map_batches(uni_partial, batch_format="pyarrow"),
        "token",
        pandas_reducer(
            lambda d: d.groupby("token", as_index=False).agg(c=("c", "sum"))
        ),
    ).materialize()
    big = coarse_grouped_map(
        docs.map_batches(big_partial, batch_format="pyarrow"),
        ["token_a", "token_b"],
        pandas_reducer(
            lambda d: d.groupby(["token_a", "token_b"], as_index=False).agg(
                n_ab=("n_ab", "sum")
            )
        ),
    ).materialize()

    n_tokens = float(uni.sum("c"))
    n_bigrams = float(big.sum("n_ab"))

    big = big.filter(expr=f"n_ab >= {int(min_count)}")

    def rename_uni(a: str, b: str):
        def fn(t: pa.Table) -> pa.Table:
            return pa.table({a: t.column("token"), b: t.column("c")})

        return fn

    j1 = repartition_join(
        big,
        uni.map_batches(rename_uni("token", "c_a"),
                        batch_format="pyarrow"),
        "token_a", "token",
        {"token_a": pa.string(), "token_b": pa.string(),
         "n_ab": pa.int64()},
        {"token": pa.string(), "c_a": pa.int64()},
    )
    # second hop keys on token_b
    j2 = repartition_join(
        j1,
        uni.map_batches(rename_uni("token_b", "c_b"),
                        batch_format="pyarrow"),
        "token_b", "token_b",
        {"token_b": pa.string(), "token_a": pa.string(),
         "n_ab": pa.int64(), "c_a": pa.int64()},
        {"token_b": pa.string(), "c_b": pa.int64()},
    )

    def score(df: pd.DataFrame) -> pd.DataFrame:
        # EXACT oracle expression and associativity:
        # (c_ab::D * n_t * n_t) / (n_b::D * c_a * c_b)
        num = df.n_ab.to_numpy(np.float64) * n_tokens * n_tokens
        den = (
            n_bigrams
            * df.c_a.to_numpy(np.float64)
            * df.c_b.to_numpy(np.float64)
        )
        out = df[["token_a", "token_b", "n_ab"]].copy()
        out["ratio"] = num / den
        return out

    scored = j2.map_batches(score, batch_format="pandas")
    sort_cols = ["ratio", "token_a", "token_b"]
    asc = [False, True, True]

    def block_topk(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(sort_cols, ascending=asc).head(k)

    cand = scored.map_batches(
        block_topk, batch_format="pandas", batch_size=None
    ).to_pandas()
    t = cand.sort_values(sort_cols, ascending=asc).head(k).reset_index(
        drop=True
    )
    t["rnk"] = np.arange(1, len(t) + 1, dtype=np.int64)
    t["pmi"] = _round6(np.log(t.ratio.to_numpy(np.float64)))
    t["n_ab"] = t.n_ab.astype(np.int64)
    return ray.data.from_pandas(
        t[["rnk", "token_a", "token_b", "n_ab", "pmi"]]
    )


# ---------------------------------------------------------------------------
# Deterministic stratified sampling
# ---------------------------------------------------------------------------

def stratified_sample(
    sf_dir: str, per_stratum: int = 50, stratum_col: str = "lang"
) -> "ray.data.Dataset":
    """~``per_stratum`` documents per stratum, deterministically.

    Bernoulli rate per stratum = per_stratum / |stratum|, decided by pure
    integer arithmetic on the ``filters.SAMPLE_MULT`` multiplicative hash: keep
    doc iff  hash(doc_id) · |stratum|  <  per_stratum · 2⁶⁴  (exact
    128-bit comparison — the SQL oracle runs the identical HUGEINT
    expression, so the sample is bit-reproducible on any engine).  Like
    every hash sample, membership is stable under corpus growth within a
    stratum size.  Stratum counts are one tiny aggregate (strata-bounded)
    broadcast into the filter; the sample itself is a pure map — no
    shuffle.
    """
    docs = _read_docs(sf_dir, ["doc_id", stratum_col])

    def count_partial(batch: pa.Table) -> pa.Table:
        g = pa.table({stratum_col: batch.column(stratum_col)}).group_by(
            stratum_col
        ).aggregate([(stratum_col, "count")])
        return g.rename_columns([stratum_col, "cnt"])

    counts = coarse_grouped_map(
        docs.map_batches(count_partial, batch_format="pyarrow"),
        stratum_col,
        pandas_reducer(lambda d: d.groupby(stratum_col, as_index=False).agg(
            cnt=("cnt", "sum")
        )),
    ).to_pandas()  # strata-bounded (|languages|), not data-sized

    X = per_stratum << 64
    thresholds: Dict[str, int] = {}
    for s, cnt in zip(counts[stratum_col], counts.cnt):
        thr = (X - 1) // int(cnt) + 1  # keep iff h < thr  ⟺  h·cnt < X
        thresholds[s] = min(thr, 2 ** 64 - 1 + 1)  # ≥ 2⁶⁴ ⇒ keep all
    thr_ref = ray.put(thresholds)

    def keep(batch: pa.Table) -> pa.Table:
        thrs = ray.get(thr_ref)
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        with np.errstate(over="ignore"):
            h = ids.astype(np.uint64) * np.uint64(SAMPLE_MULT)
        strata = batch.column(stratum_col).to_pylist()
        # per-row threshold via a tiny dict lookup vectorized by factorize
        uniq, inv = np.unique(np.asarray(strata, dtype=object),
                              return_inverse=True)
        thr_arr = np.array(
            [min(thrs.get(u, 0), 2 ** 64 - 1) for u in uniq],
            dtype=np.uint64,
        )
        keep_all = np.array(
            [thrs.get(u, 0) > 2 ** 64 - 1 for u in uniq], dtype=bool
        )
        mask = (h < thr_arr[inv]) | keep_all[inv]
        return batch.filter(pa.array(mask))

    return docs.map_batches(keep, batch_format="pyarrow")


def temperature_mix(
    sf_dir: str,
    alpha: float = 0.5,
    pivot: float = 50.0,
    stratum_col: str = "lang",
) -> "ray.data.Dataset":
    """Temperature-flattened source mixing: keep each document of
    stratum s with probability min(1, (pivot/|s|)^alpha), so the
    expected kept count per stratum is ∝ |s|^(1-alpha) — the standard
    count-damped resampling that up-weights under-represented
    languages/sources in a pretraining mix (alpha=0 keeps everything,
    alpha=1 equalizes strata at ~pivot docs each).

    The count-damped form needs NO cross-stratum normalizing sum (a
    float total whose value would depend on summation order), so every
    arithmetic step — pow, divide, the rate·2⁶⁴ threshold — is a
    single-expression libm computation both engines evaluate
    identically and membership is bit-reproducible against the SQL
    oracle.  Same scale shape as stratified_sample: one strata-bounded
    count aggregate broadcast into a pure map; the multiplicative doc
    hash keeps membership stable as shards are added.

    Output: (doc_id, stratum, rate) survivors.
    """
    import math

    docs = _read_docs(sf_dir, ["doc_id", stratum_col])

    def count_partial(batch: pa.Table) -> pa.Table:
        g = pa.table({stratum_col: batch.column(stratum_col)}).group_by(
            stratum_col
        ).aggregate([(stratum_col, "count")])
        return g.rename_columns([stratum_col, "cnt"])

    counts = coarse_grouped_map(
        docs.map_batches(count_partial, batch_format="pyarrow"),
        stratum_col,
        pandas_reducer(lambda d: d.groupby(stratum_col, as_index=False).agg(
            cnt=("cnt", "sum")
        )),
    ).to_pandas()  # strata-bounded (|languages|), not data-sized

    two64 = float(2.0 ** 64)
    rates = {
        s: min(1.0, math.pow(pivot / float(c), alpha))
        for s, c in zip(counts[stratum_col], counts.cnt)
    }
    rate_ref = ray.put(rates)

    def keep(batch: pa.Table) -> pa.Table:
        rmap = ray.get(rate_ref)
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        with np.errstate(over="ignore"):
            h = ids.astype(np.uint64) * np.uint64(SAMPLE_MULT)
        strata = np.asarray(
            batch.column(stratum_col).to_pylist(), dtype=object
        )
        uniq, inv = np.unique(strata, return_inverse=True)
        rate_arr = np.array(
            [rmap.get(u, 0.0) for u in uniq], dtype=np.float64
        )
        rate = rate_arr[inv]
        mask = h.astype(np.float64) < rate * two64
        return pa.table(
            {
                "doc_id": pa.array(ids[mask], pa.int64()),
                stratum_col: pa.array(strata[mask], pa.string()),
                "rate": pa.array(rate[mask], pa.float64()),
            }
        )

    return docs.map_batches(keep, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Benchmark decontamination
# ---------------------------------------------------------------------------

def decontaminate(sf_dir: str, bench_mod: int = 97) -> "ray.data.Dataset":
    """Drop training documents sharing any 3-token shingle with the
    benchmark set (docs with doc_id % bench_mod == 0) — the standard
    n-gram decontamination pass run before every pretraining job.

    Scale shape: the benchmark side is small by definition (eval suites
    are KBs against a 100 TB corpus), so its distinct shingles are
    gathered once and broadcast via ``ray.put``; the probe is then a pure
    map over the corpus — per-batch shingling + a vectorized hash-set
    membership test (`pandas.Series.isin`), zero shuffle.  Shingles use
    a raw single-space split (including empties) and a 3-token window,
    so the DuckDB oracle is exact.
    """
    docs = _read_docs(sf_dir, ["doc_id", "text"])

    def shingle_frame(df: pd.DataFrame) -> pd.DataFrame:
        d = df.assign(token=df.text.str.split(" ")).explode("token")
        nxt1 = d.groupby(level=0).token.shift(-1)
        nxt2 = d.groupby(level=0).token.shift(-2)
        ok = nxt2.notna()
        return pd.DataFrame(
            {
                "doc_id": d.doc_id[ok].to_numpy(np.int64),
                "shingle": d.token[ok] + " " + nxt1[ok] + " " + nxt2[ok],
            }
        )

    def bench_partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        s = shingle_frame(df[df.doc_id % bench_mod == 0])
        u = s.shingle.unique()
        return pa.table({"shingle": pa.array(u, pa.string())})

    bench_shingles = set(
        docs.map_batches(bench_partial, batch_format="pyarrow")
        .to_pandas()
        .shingle
    )  # benchmark-sized — the documented broadcast assumption
    bench_ref = ray.put(bench_shingles)

    def probe(batch: pa.Table) -> pa.Table:
        bench = ray.get(bench_ref)
        df = batch.to_pandas()
        df = df[df.doc_id % bench_mod != 0]
        s = shingle_frame(df)
        hit = s.doc_id[s.shingle.isin(bench)].unique()
        keep = df.doc_id[~df.doc_id.isin(hit)].to_numpy(np.int64)
        return pa.table({"doc_id": pa.array(keep, pa.int64())})

    return docs.map_batches(probe, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Repetition / Gopher-style quality signals
# ---------------------------------------------------------------------------

def repetition_stats(sf_dir: str) -> "ray.data.Dataset":
    """Per-document repetition signals (the Gopher repetition rules):
    duplicate-token ratio, most-frequent-token fraction, and
    duplicate-bigram ratio.  Pure map over the corpus — each document's
    text lives in one row, so every signal is exact per batch with no
    shuffle; the kernels are one vectorized explode + groupby per batch.

    Float ratios are plain IEEE divisions of exact integer counts — the
    identical expression on both engines, so no rounding is needed for
    bit-equality with the oracle.  Empty documents report 0.0.
    """
    docs = _read_docs(sf_dir, ["doc_id", "text"])

    def stats(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().reset_index(drop=True)
        d = df.assign(token=df.text.str.split(" ")).explode("token")
        nonempty = d[d.token.notna() & (d.token != "")]
        n = nonempty.groupby("doc_id").token.size()
        nd = nonempty.groupby("doc_id").token.nunique()
        top = (
            nonempty.groupby(["doc_id", "token"]).size()
            .groupby("doc_id").max()
        )
        nxt = d.groupby(level=0).token.shift(-1)
        bm = d.token.notna() & (d.token != "") & nxt.notna() & (nxt != "")
        bg = pd.DataFrame(
            {
                "doc_id": d.doc_id[bm],
                "bigram": d.token[bm] + " " + nxt[bm],
            }
        )
        nb = bg.groupby("doc_id").bigram.size()
        nbd = bg.groupby("doc_id").bigram.nunique()

        ids = df.doc_id
        n_ = n.reindex(ids, fill_value=0).to_numpy(np.float64)
        nd_ = nd.reindex(ids, fill_value=0).to_numpy(np.float64)
        top_ = top.reindex(ids, fill_value=0).to_numpy(np.float64)
        nb_ = nb.reindex(ids, fill_value=0).to_numpy(np.float64)
        nbd_ = nbd.reindex(ids, fill_value=0).to_numpy(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            dup_tok = np.where(n_ > 0, 1.0 - nd_ / n_, 0.0)
            top_frac = np.where(n_ > 0, top_ / n_, 0.0)
            dup_big = np.where(nb_ > 0, 1.0 - nbd_ / nb_, 0.0)
        return pa.table(
            {
                "doc_id": pa.array(ids.to_numpy(np.int64), pa.int64()),
                "n_tokens_r": pa.array(n_.astype(np.int64), pa.int64()),
                "dup_token_ratio": pa.array(dup_tok, pa.float64()),
                "top_token_frac": pa.array(top_frac, pa.float64()),
                "dup_bigram_ratio": pa.array(dup_big, pa.float64()),
            }
        )

    return docs.map_batches(stats, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Misra-Gries heavy hitters + exact recount
# ---------------------------------------------------------------------------

def top_tokens_mg(
    sf_dir: str, k: int = 20, m: int = 4096
) -> "ray.data.Dataset":
    """Exact top-k tokens found with a Misra-Gries candidate pass.

    Pass 1 keeps a mergeable m-counter Misra-Gries summary per batch
    (exact batch counts, compressed by subtracting the (m+1)-th largest —
    every token with true corpus count > N/(m+1) survives in at least one
    batch), merged by a token-keyed coarse reduce.  Pass 2 re-counts ONLY
    the surviving candidates exactly and takes the true top-k, so the
    result equals the exact operator whenever the k-th frequency clears
    the sketch floor — with m=4096 that is every realistic corpus, and the
    property is pytest-checked against the exact top_tokens.

    Why it scales: the shuffle carries ≤ m rows per block instead of the
    full per-block vocabulary, and the recount's broadcast candidate set
    is sketch-bounded, never vocabulary-bounded.
    """
    docs = _read_docs(sf_dir, ["text"])

    def mg_partial(batch: pa.Table) -> pa.Table:
        s = pd.Series(batch.column("text").to_pylist(), dtype=object)
        toks = s.str.split(" ").explode()
        toks = toks[toks.notna() & (toks != "")]
        vc = toks.value_counts()  # descending
        if len(vc) > m:
            vc = vc - int(vc.iloc[m])
            vc = vc[vc > 0]
        return pa.table(
            {
                "token": pa.array(vc.index.to_numpy(), pa.string()),
                "n": pa.array(vc.to_numpy().astype(np.int64), pa.int64()),
            }
        )

    sketch = coarse_grouped_map(
        docs.map_batches(mg_partial, batch_format="pyarrow"),
        "token",
        pandas_reducer(
            lambda d: d.groupby("token", as_index=False).agg(n=("n", "sum"))
        ),
    )
    candidates = set(
        sketch.select_columns(["token"]).to_pandas().token
    )  # sketch-bounded: ≤ m × blocks entries, independent of vocabulary
    cand_ref = ray.put(candidates)

    def recount_partial(batch: pa.Table) -> pa.Table:
        cands = ray.get(cand_ref)
        s = pd.Series(batch.column("text").to_pylist(), dtype=object)
        toks = s.str.split(" ").explode()
        toks = toks[toks.notna() & (toks != "") & toks.isin(cands)]
        vc = toks.value_counts()
        return pa.table(
            {
                "token": pa.array(vc.index.to_numpy(), pa.string()),
                "n": pa.array(vc.to_numpy().astype(np.int64), pa.int64()),
            }
        )

    counts = coarse_grouped_map(
        docs.map_batches(recount_partial, batch_format="pyarrow"),
        "token",
        pandas_reducer(
            lambda d: d.groupby("token", as_index=False).agg(n=("n", "sum"))
        ),
    )

    def block_topk(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(["n", "token"],
                              ascending=[False, True]).head(k)

    cand = counts.map_batches(
        block_topk, batch_format="pandas", batch_size=None
    ).to_pandas()
    t = cand.sort_values(["n", "token"], ascending=[False, True]).head(
        k
    ).reset_index(drop=True)
    t["rnk"] = np.arange(1, len(t) + 1, dtype=np.int64)
    return ray.data.from_pandas(t[["rnk", "token", "n"]])


# ---------------------------------------------------------------------------
# Unigram-LM quality scoring (CCNet-style perplexity filter, exact)
# ---------------------------------------------------------------------------

def unigram_nll(sf_dir: str) -> "ray.data.Dataset":
    """Per-document average negative log-likelihood under the corpus's
    own unigram language model — the scoring half of a CCNet/KenLM-style
    quality filter (low avg NLL = typical text, high = outlier).

    Fully distributed, NO vocabulary-sized driver state (round 3 — the
    former token→ln(p) broadcast grew with unpruned web-scale
    vocabulary): (doc_id, token, tf) rows are computed map-side and
    pinned once (two consumers); the model is a token-keyed coarse
    reduce of those rows (n per token, staying a Dataset) with
    logp = ln(n/total) attached per model row; one token-keyed
    repartition join puts logp back on the tf rows, and a doc-keyed
    coarse reduce finishes n_tok = Σtf and Σ tf·logp per document.  The
    driver sees exactly one scalar (the corpus token total).

    Float contract with the oracle: ln(count/total) in float64 on both
    sides, score = floor(-(Σlogp/n)·1e6 + 0.5)/1e6 (the oracle's SUM
    order over occurrences is engine-arbitrary; the 1e-6 rounding is
    what both sides' hashes stand on, exactly as before).  Output:
    (doc_id, n_tok, avg_nll).
    """
    docs = _read_docs(sf_dir, ["doc_id", "text"])

    tf = _tf_table(sf_dir)

    def count_partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {"token": batch.column("token"), "n": batch.column("tf")}
        )
        return t.group_by("token").aggregate([("n", "sum")]).rename_columns(
            ["token", "n"]
        )

    model = coarse_grouped_map(
        tf.map_batches(count_partial, batch_format="pyarrow"),
        "token",
        pandas_reducer(
            lambda d: d.groupby("token", as_index=False).agg(n=("n", "sum"))
        ),
    ).materialize()  # feeds the scalar total AND the join
    total = float(model.sum("n"))

    def add_logp(d: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "token": d.token,
                "logp": np.log(d.n.to_numpy(np.float64) / total),
            }
        )

    model_lp = model.map_batches(
        add_logp, batch_format="pandas"
    )

    # combiner THROUGH the join (post_fn): each token-keyed join
    # partition pre-reduces its (doc, token, tf, logp) rows to per-doc
    # (Σtf, Σtf·logp) partials, so the doc-keyed all-to-all moves
    # ≤ docs × partitions rows instead of the full posting table.  The
    # float Σtf·logp is summed in a different order than a flat pass —
    # exactly the summation-order slack the 1e-6 rounding contract with
    # the oracle already absorbs (docstring above).
    def partial_score(d: pd.DataFrame) -> pd.DataFrame:
        tfv = d.tf.to_numpy(np.float64)
        g = d.assign(
            sum_lp=tfv * d.logp.to_numpy(np.float64), n_tok=d.tf
        ).groupby("doc_id", as_index=False).agg(
            n_tok=("n_tok", "sum"), sum_lp=("sum_lp", "sum")
        )
        return g

    joined = repartition_join(
        tf,
        model_lp,
        "token",
        "token",
        {"token": pa.string(), "doc_id": pa.int64(), "tf": pa.int64()},
        {"token": pa.string(), "logp": pa.float64()},
        post_fn=pandas_reducer(partial_score),
    )

    def score(d: pd.DataFrame) -> pd.DataFrame:
        g = d.groupby("doc_id", as_index=False).agg(
            n_tok=("n_tok", "sum"), sum_lp=("sum_lp", "sum")
        )
        return pd.DataFrame(
            {
                "doc_id": g.doc_id.astype(np.int64),
                "n_tok": g.n_tok.astype(np.int64),
                "avg_nll": _round6(
                    -(g.sum_lp.to_numpy() / g.n_tok.to_numpy(np.float64))
                ),
            }
        )

    return coarse_grouped_map(joined, "doc_id", pandas_reducer(score))


def bigram_nll(sf_dir: str, k: float = 0.5) -> "ray.data.Dataset":
    """Per-document average negative log-likelihood under an add-k
    smoothed BIGRAM language model learned from the corpus itself —
    the second-order sibling of :func:`unigram_nll` (KenLM-style
    perplexity filtering conditions on context; a unigram score cannot
    tell scrambled text from fluent text, a bigram score can).

    P(cur | prev) = (c(prev,cur) + k) / (c(prev) + k·V), with c(prev)
    the CONTEXT count (Σ over bigrams starting at prev) and V the
    distinct-token vocabulary size.  Docs with fewer than two tokens
    have no bigrams and drop out — on both sides of the oracle.

    Fully distributed, no vocabulary-sized driver state: bigram
    postings (doc_id, key="prev cur", bf) are built map-side with a
    C-speed per-doc ``groupby().shift`` (tokens cannot contain the
    space separator, so the joined key is unambiguous); the bigram
    model is a key-keyed coarse reduce, context counts a prev-keyed
    coarse reduce OVER THE MODEL (bigram-type-sized, not
    occurrence-sized), logp attaches via one prev-keyed repartition
    join; scoring is a key-keyed join with a combiner through the join
    (post_fn) and a doc-keyed finish.  The driver sees exactly one
    scalar (V).  Same 1e-6 rounding contract as unigram_nll.
    """
    docs = _read_docs(sf_dir, ["doc_id", "text"])

    def bigram_rows(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        d = df.assign(token=df.text.str.split(" ")).explode("token")
        d = d[d.token.notna() & (d.token != "")]
        d = d.assign(prev=d.groupby("doc_id").token.shift(1))
        d = d[d.prev.notna()]
        g = d.groupby(["doc_id", "prev", "token"], as_index=False).agg(
            bf=("token", "size")
        )
        g["key"] = g.prev + " " + g.token
        g["bf"] = g.bf.astype(np.int64)
        return pa.Table.from_pandas(
            g[["doc_id", "key", "bf"]], preserve_index=False
        )

    bg = docs.map_batches(
        bigram_rows, batch_format="pyarrow"
    ).materialize()  # two consumers: model build + scoring join

    model = coarse_grouped_map(
        bg.map_batches(
            lambda b: pa.table({"key": b.column("key"),
                                "c": b.column("bf")})
            .group_by("key").aggregate([("c", "sum")])
            .rename_columns(["key", "c"]),
            batch_format="pyarrow",
        ),
        "key",
        pandas_reducer(
            lambda d: d.groupby("key", as_index=False).agg(c=("c", "sum"))
        ),
    ).materialize()  # feeds context counts AND the logp join

    def split_prev(d: pd.DataFrame) -> pd.DataFrame:
        return d.assign(prev=d.key.str.split(" ").str[0])

    ctx = coarse_grouped_map(
        model.map_batches(
            lambda d: split_prev(d).groupby("prev", as_index=False).agg(
                n=("c", "sum")
            ),
            batch_format="pandas",
        ),
        "prev",
        pandas_reducer(
            lambda d: d.groupby("prev", as_index=False).agg(n=("n", "sum"))
        ),
    )

    # V: distinct tokens in the corpus (unigram-model row count; the
    # shared-scan memoized posting table makes this a metadata-cheap
    # reduce, and the driver sees only the scalar)
    tf = _tf_table(sf_dir)
    vocab = coarse_grouped_map(
        tf.map_batches(
            lambda b: pa.table(
                {"token": pc.unique(b.column("token"))}
            ),
            batch_format="pyarrow",
        ),
        "token",
        pandas_reducer(lambda d: d.drop_duplicates("token")),
    ).count()
    V = float(vocab)

    def add_logp(d: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "key": d.key,
                "logp": np.log(
                    (d.c.to_numpy(np.float64) + k)
                    / (d.n.to_numpy(np.float64) + k * V)
                ),
            }
        )

    model_lp = repartition_join(
        model.map_batches(split_prev, batch_format="pandas"),
        ctx,
        "prev",
        "prev",
        {"prev": pa.string(), "key": pa.string(), "c": pa.int64()},
        {"prev": pa.string(), "n": pa.int64()},
        post_fn=pandas_reducer(add_logp),
    )

    def partial_score(d: pd.DataFrame) -> pd.DataFrame:
        bfv = d.bf.to_numpy(np.float64)
        return d.assign(
            sum_lp=bfv * d.logp.to_numpy(np.float64), n_bigrams=d.bf
        ).groupby("doc_id", as_index=False).agg(
            n_bigrams=("n_bigrams", "sum"), sum_lp=("sum_lp", "sum")
        )

    joined = repartition_join(
        bg,
        model_lp,
        "key",
        "key",
        {"key": pa.string(), "doc_id": pa.int64(), "bf": pa.int64()},
        {"key": pa.string(), "logp": pa.float64()},
        post_fn=pandas_reducer(partial_score),
    )

    def score(d: pd.DataFrame) -> pd.DataFrame:
        g = d.groupby("doc_id", as_index=False).agg(
            n_bigrams=("n_bigrams", "sum"), sum_lp=("sum_lp", "sum")
        )
        return pd.DataFrame(
            {
                "doc_id": g.doc_id.astype(np.int64),
                "n_bigrams": g.n_bigrams.astype(np.int64),
                "avg_nll": _round6(
                    -(g.sum_lp.to_numpy()
                      / g.n_bigrams.to_numpy(np.float64))
                ),
            }
        )

    return coarse_grouped_map(joined, "doc_id", pandas_reducer(score))


# ---------------------------------------------------------------------------
# Global NTILE bucketing (distributed rank over a total order)
# ---------------------------------------------------------------------------

def length_deciles(sf_dir: str, buckets: int = 10) -> "ray.data.Dataset":
    """Assign every document its NTILE bucket over the global
    (n_chars, doc_id) order — SQL ``ntile(B) OVER (ORDER BY n_chars,
    doc_id)`` semantics exactly (first N mod B buckets take the extra
    row).

    A global rank without a global sort: pass 1 aggregates VALUE COUNTS
    of the order key's first component (bounded by the key's cardinality)
    and turns them into per-value cumulative offsets on the driver;
    pass 2 coarse-partitions by n_chars — co-locating every row of each
    distinct value — ranks doc_ids within each value vectorized, and adds
    the broadcast offset.  rank→bucket is then pure arithmetic.  Output:
    (doc_id, n_chars, decile).
    """
    docs = _read_docs(sf_dir, ["doc_id", "n_chars"])

    def partial_counts(batch: pa.Table) -> pa.Table:
        return (
            pa.table({"n_chars": batch.column("n_chars")})
            .group_by("n_chars")
            .aggregate([([], "count_all")])
            .rename_columns(["n_chars", "c"])
        )

    counts = coarse_grouped_map(
        docs.map_batches(partial_counts, batch_format="pyarrow"),
        "n_chars",
        pandas_reducer(
            lambda d: d.groupby("n_chars", as_index=False).agg(c=("c", "sum"))
        ),
    ).to_pandas().sort_values("n_chars")
    n_total = int(counts.c.sum())
    offsets = pd.Series(
        np.concatenate(([0], counts.c.cumsum().to_numpy()[:-1])),
        index=counts.n_chars,
    )
    off_ref = ray.put(offsets)
    q, r = divmod(n_total, buckets)

    def rank_partition(df: pd.DataFrame) -> pd.DataFrame:
        off = ray.get(off_ref)
        df = df.sort_values(["n_chars", "doc_id"])
        local = df.groupby("n_chars", sort=False).cumcount()
        rank = df.n_chars.map(off).to_numpy() + local.to_numpy() + 1
        if q == 0:
            decile = rank
        else:
            head = r * (q + 1)
            decile = np.where(
                rank <= head,
                (rank - 1) // (q + 1) + 1,
                r + (rank - head - 1) // q + 1,
            )
        out = df[["doc_id", "n_chars"]].copy()
        out["decile"] = decile.astype(np.int64)
        return out

    return coarse_grouped_map(docs, "n_chars", pandas_reducer(rank_partition))


def source_percent_rank(sf_dir: str) -> "ray.data.Dataset":
    """PERCENT_RANK() of document length within each source — the
    score-normalization window that makes quality thresholds comparable
    across heterogeneous sources.  percent_rank = (min_rank - 1)/(n - 1)
    (0 when n = 1), an exact rational both engines evaluate identically
    in one double division — no rounding needed.

    One keyed shuffle (coarse partition by source), vectorized rank per
    source.  Partitioning assumption: one source's rows fit in a worker
    — when a source is the whole corpus, switch to the distributed rank
    used by length_deciles (value-count prefix sums).
    """
    docs = _read_docs(sf_dir, ["doc_id", "source", "n_chars"])

    def rank_partition(df: pd.DataFrame) -> pd.DataFrame:
        out = []
        for s, g in df.groupby("source", sort=False):
            r = g.n_chars.rank(method="min").to_numpy(np.float64)
            n = len(g)
            pr = (r - 1.0) / (n - 1.0) if n > 1 else np.zeros(n)
            out.append(
                pd.DataFrame(
                    {
                        "doc_id": g.doc_id.to_numpy(np.int64),
                        "source": s,
                        "n_chars": g.n_chars.to_numpy(np.int64),
                        "pr": pr,
                    }
                )
            )
        return pd.concat(out, ignore_index=True)

    return coarse_grouped_map(docs, "source", pandas_reducer(rank_partition))


# ---------------------------------------------------------------------------
# CCNet-style per-language perplexity tiers (head / middle / tail)
# ---------------------------------------------------------------------------

def ccnet_buckets(
    sf_dir: str, buckets: int = 3, bins: int = 64
) -> "ray.data.Dataset":
    """CCNet-style quality tiers (Wenzek et al. 2020, arXiv:1911.00359):
    identify each document's language, score it with the corpus's own
    unigram-LM average NLL (the same scorer as ``unigram_nll``), and cut
    each language's documents into ``buckets`` ntile tiers over the
    (avg_nll, doc_id) order — tile 1 = head (most fluent), last = tail.
    Output: (doc_id, lang_pred, avg_nll, bucket, label).

    The per-language global rank never sorts globally and never collects
    rows: pass 1 reduces per-language (min, max, count) — language-
    bounded driver state; pass 2 assigns each row a value BIN (uniform
    over the language's NLL range) map-side and reduces per-(lang, bin)
    counts — langs × bins driver rows, turned into per-bin rank offsets;
    pass 3 coarse-partitions by (lang, bin), ranks locally (vectorized
    sort within the bin), adds the broadcast offset, and converts rank →
    ntile with the per-language total.  Partitioning assumption: one
    (lang, bin) cell's rows fit in a worker — raise ``bins`` at scale
    (cells shrink linearly).  Ties at equal avg_nll break by doc_id on
    both engines, so the tiling is bit-deterministic.
    """
    from .text_analysis import LangId, lang_pool

    nll = unigram_nll(sf_dir)  # doc_id, n_tok, avg_nll (rounded 1e-6)
    docs = _read_docs(sf_dir, ["doc_id", "text"])
    langs = docs.map_batches(
        LangId, batch_format="pyarrow", concurrency=lang_pool()
    )
    joined = repartition_join(
        nll.select_columns(["doc_id", "avg_nll"]),
        langs,
        "doc_id",
        "doc_id",
        {"doc_id": pa.int64(), "avg_nll": pa.float64()},
        {"doc_id": pa.int64(), "lang_pred": pa.string()},
    ).materialize()  # feeds lang stats, bin counts, AND the rank pass

    stats = coarse_grouped_map(
        joined.select_columns(["lang_pred", "avg_nll"]),
        "lang_pred",
        pandas_reducer(lambda d: d.groupby("lang_pred", as_index=False).agg(
            lo=("avg_nll", "min"), hi=("avg_nll", "max"),
            n=("avg_nll", "size"),
        )),
    ).to_pandas()  # language-bounded
    lo_map = dict(zip(stats.lang_pred, stats.lo.astype(np.float64)))
    hi_map = dict(zip(stats.lang_pred, stats.hi.astype(np.float64)))
    n_map = dict(zip(stats.lang_pred, stats.n.astype(np.int64)))
    rng_ref = ray.put((lo_map, hi_map))

    def add_bin(df: pd.DataFrame) -> pd.DataFrame:
        lo_, hi_ = ray.get(rng_ref)
        lo = df.lang_pred.map(lo_).to_numpy(np.float64)
        hi = df.lang_pred.map(hi_).to_numpy(np.float64)
        span = np.maximum(hi - lo, 1e-12)
        a = df.avg_nll.to_numpy(np.float64)
        out = df.copy()
        out["bin"] = np.clip(
            ((a - lo) / span * bins).astype(np.int64), 0, bins - 1
        )
        return out

    binned = joined.map_batches(
        add_bin, batch_format="pandas"
    ).materialize()  # feeds bin counts AND the rank pass

    counts = (
        coarse_grouped_map(
            binned.select_columns(["lang_pred", "bin"]),
            ["lang_pred", "bin"],
            pandas_reducer(lambda d: d.groupby(
                ["lang_pred", "bin"], as_index=False
            ).agg(c=("bin", "size"))),
        )
        .to_pandas()  # langs × bins rows — bounded, independent of n
        .sort_values(["lang_pred", "bin"])
    )
    counts["off"] = (
        counts.groupby("lang_pred").c.cumsum() - counts.c
    )
    off_map = {
        (lg, int(b)): int(o)
        for lg, b, o in zip(counts.lang_pred, counts.bin, counts.off)
    }
    off_ref = ray.put((off_map, n_map))
    labels3 = {1: "head", 2: "middle", 3: "tail"}

    def rank_bin(df: pd.DataFrame) -> pd.DataFrame:
        offs, n_per = ray.get(off_ref)
        out = []
        for (lg, b), g in df.groupby(["lang_pred", "bin"], sort=False):
            g = g.sort_values(["avg_nll", "doc_id"])
            rank = offs[(lg, int(b))] + np.arange(
                1, len(g) + 1, dtype=np.int64
            )
            n = int(n_per[lg])
            q, r = divmod(n, buckets)
            if q == 0:
                tile = rank
            else:
                head = r * (q + 1)
                tile = np.where(
                    rank <= head,
                    (rank - 1) // (q + 1) + 1,
                    r + (rank - head - 1) // q + 1,
                )
            tile = tile.astype(np.int64)
            if buckets == 3:
                lab = np.array(
                    [labels3[int(t)] for t in tile], dtype=object
                )
            else:
                lab = tile.astype(str).astype(object)
            out.append(
                pd.DataFrame(
                    {
                        "doc_id": g.doc_id.to_numpy(np.int64),
                        "lang_pred": lg,
                        "avg_nll": g.avg_nll.to_numpy(np.float64),
                        "bucket": tile,
                        "label": lab,
                    }
                )
            )
        if not out:
            return pd.DataFrame(
                {
                    "doc_id": pd.Series(dtype=np.int64),
                    "lang_pred": pd.Series(dtype=object),
                    "avg_nll": pd.Series(dtype=np.float64),
                    "bucket": pd.Series(dtype=np.int64),
                    "label": pd.Series(dtype=object),
                }
            )
        return pd.concat(out, ignore_index=True)

    return coarse_grouped_map(
        binned, ["lang_pred", "bin"], pandas_reducer(rank_bin)
    )


# ---------------------------------------------------------------------------
# Zipf slope of the token frequency distribution
# ---------------------------------------------------------------------------

def zipf_slope(sf_dir: str) -> "ray.data.Dataset":
    """Least-squares slope of ln(frequency) on ln(rank) over the whole
    vocabulary (Zipf's law predicts ~ -1), plus exact vocab / token
    counts.

    Scale shape: exact token counts via per-batch partial counts + one
    token-keyed coarse reduce (the only all-to-all), then the counts
    collapse map-side to a FREQUENCY HISTOGRAM (count -> n_tokens).  The
    histogram is what crosses to the driver: its size is bounded by the
    number of DISTINCT frequency values, O(sqrt(total_tokens)) for any
    Zipf-ish corpus (a few thousand rows at petabyte scale), never by
    the vocabulary.  Ranks use rank()-with-ties = 1 + (# tokens with a
    strictly higher count) — a pure function of the histogram — so every
    regression moment has a closed form over histogram rows and the
    driver never sees a token.  The slope is rounded half-up to 6
    decimals: DuckDB's regr_slope accumulates per row in scan order, so
    the last ulps differ by construction.
    """
    docs = _read_docs(sf_dir, ["text"])

    def tok_partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        d = df.assign(token=df.text.str.split(" ")).explode("token")
        d = d[d.token.notna() & (d.token != "")]
        g = d.groupby("token", as_index=False).agg(c=("token", "size"))
        g["c"] = g.c.astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    counts = coarse_grouped_map(
        docs.map_batches(tok_partial, batch_format="pyarrow"),
        "token",
        pandas_reducer(
            lambda d: d.groupby("token", as_index=False).agg(cnt=("c", "sum"))
        ),
    )

    def hist_partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("cnt", as_index=False).size()
        g.columns = ["cnt", "n"]
        return g

    hist = (
        counts.map_batches(hist_partial, batch_format="pandas",
                           batch_size=None)
        .to_pandas()
        .groupby("cnt", as_index=False)
        .agg(n=("n", "sum"))
        .sort_values("cnt", ascending=False)
        .reset_index(drop=True)
    )

    f = hist.cnt.to_numpy(np.float64)
    w = hist.n.to_numpy(np.float64)
    # rank() (ties share the min rank) = 1 + cumulative tokens above
    rank = 1.0 + np.concatenate([[0.0], np.cumsum(w)[:-1]])
    x, y = np.log(rank), np.log(f)
    W = w.sum()
    sx, sy = (w * x).sum(), (w * y).sum()
    sxx, sxy = (w * x * x).sum(), (w * x * y).sum()
    slope = (sxy - sx * sy / W) / (sxx - sx * sx / W)
    slope = math.floor(slope * 1e6 + 0.5) / 1e6
    return ray.data.from_pandas(
        pd.DataFrame(
            {
                "zipf_slope": [slope],
                "vocab_size": np.array([int(W)], np.int64),
                "total_tokens": np.array([int((hist.cnt * hist.n).sum())],
                                         np.int64),
            }
        )
    )


# ---------------------------------------------------------------------------
# Top-k trigrams
# ---------------------------------------------------------------------------

def trigram_topk(sf_dir: str, k: int = 20) -> "ray.data.Dataset":
    """The ``k`` most frequent word trigrams corpus-wide (count desc,
    gram asc).

    Trigram construction is vectorized: each batch's docs explode to a
    position-indexed token frame, and grams come from numpy shifts
    guarded by a same-doc mask — no Python loop touches a token.
    Per-batch partial counts feed one gram-keyed coarse reduce (the only
    all-to-all, moving pre-aggregated (gram, n) rows), then top-k runs
    per block and once more on <= blocks x k candidates.
    """
    docs = _read_docs(sf_dir, ["doc_id", "text"])

    def gram_partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        d = df.assign(token=df.text.str.split(" ")).explode("token")
        d = d[d.token.notna() & (d.token != "")]
        tok = d.token.to_numpy(object)
        doc = d.doc_id.to_numpy()
        if len(tok) < 3:
            return pa.table({"gram": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        same = (doc[:-2] == doc[1:-1]) & (doc[:-2] == doc[2:])
        gram = tok[:-2] + " " + tok[1:-1] + " " + tok[2:]
        g = pd.DataFrame({"gram": gram[same]}).groupby(
            "gram", as_index=False
        ).size()
        g.columns = ["gram", "n"]
        g["n"] = g.n.astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    def gram_reduce(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("gram", as_index=False).agg(n=("n", "sum"))
        g["n"] = g.n.astype(np.int64)
        return g.sort_values(["n", "gram"], ascending=[False, True]).head(k)

    cand = coarse_grouped_map(
        docs.map_batches(gram_partial, batch_format="pyarrow"),
        "gram",
        pandas_reducer(gram_reduce),
    ).to_pandas()
    t = cand.sort_values(["n", "gram"], ascending=[False, True]).head(
        k
    ).reset_index(drop=True)
    t["rnk"] = np.arange(1, len(t) + 1, dtype=np.int64)
    return ray.data.from_pandas(t[["rnk", "gram", "n"]])


# ---------------------------------------------------------------------------
# Source x language independence (chi-square)
# ---------------------------------------------------------------------------

def source_lang_chi2(sf_dir: str) -> "ray.data.Dataset":
    """Pearson chi-square statistic for independence of ``source`` and
    ``lang`` over documents, with the contingency dimensions.

    The only distributed work is a map-side partial count per
    (source, lang) — the contingency table is DIMENSION-bounded
    (sources x languages), so the driver-side closed form is legitimate
    at any corpus size.  chi2 = sum over cells of (obs - exp)^2 / exp
    with exp = row_total * col_total / n, rounded half-up to 6 decimals
    (the oracle sums cells in a different order).
    """
    docs = _read_docs(sf_dir, ["source", "lang"])

    def cell_partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = df.groupby(["source", "lang"], as_index=False).size()
        g.columns = ["source", "lang", "n"]
        g["n"] = g.n.astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    cells = (
        docs.map_batches(cell_partial, batch_format="pyarrow")
        .to_pandas()
        .groupby(["source", "lang"], as_index=False)
        .agg(n=("n", "sum"))
    )
    n = float(cells.n.sum())
    row = cells.groupby("source").n.sum()
    col = cells.groupby("lang").n.sum()
    # full outer grid: absent cells are observed-0 but still contribute
    grid = (
        pd.MultiIndex.from_product([row.index, col.index],
                                   names=["source", "lang"])
        .to_frame(index=False)
        .merge(cells, on=["source", "lang"], how="left")
        .fillna({"n": 0})
    )
    exp = (
        grid.source.map(row).to_numpy(np.float64)
        * grid.lang.map(col).to_numpy(np.float64)
        / n
    )
    chi2 = (((grid.n.to_numpy(np.float64) - exp) ** 2) / exp).sum()
    return ray.data.from_pandas(
        pd.DataFrame(
            {
                "chi2": [math.floor(chi2 * 1e6 + 0.5) / 1e6],
                "n_sources": np.array([len(row)], np.int64),
                "n_langs": np.array([len(col)], np.int64),
                "n_docs": np.array([int(n)], np.int64),
            }
        )
    )


# ---------------------------------------------------------------------------
# Shannon entropy of the token distribution per source
# ---------------------------------------------------------------------------

def source_token_entropy(sf_dir: str) -> "ray.data.Dataset":
    """Per source: token count, vocabulary size, and Shannon entropy
    (nats) of its token distribution — a standard corpus-diversity
    metric for mixture weighting.

    Shape: per-batch partial counts per (source, token), one coarse
    keyed reduce on (source, token) for exact counts, then the entropy
    folds map-side per source from VOCABULARY-bounded rows: each reduce
    partition emits per-source partial Σ c·ln(c) and Σ c, and the final
    per-source closed form H = ln(N) − Σ c·ln(c)/N runs over a
    source-count-bounded frame.  Entropy is rounded half-up to 6
    decimals (summation order differs from the oracle).
    """
    docs = _read_docs(sf_dir, ["source", "text"])

    def tok_partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        d = df.assign(token=df.text.str.split(" ")).explode("token")
        d = d[d.token.notna() & (d.token != "")]
        g = d.groupby(["source", "token"], as_index=False).agg(
            c=("token", "size")
        )
        g["c"] = g.c.astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    def count_reduce(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["source", "token"], as_index=False).agg(
            c=("c", "sum")
        )
        # fold this partition's share of each source's moments right here
        c = g.c.to_numpy(np.float64)
        g["clnc"] = c * np.log(c)
        out = g.groupby("source", as_index=False).agg(
            n=("c", "sum"), vocab=("token", "size"), clnc=("clnc", "sum")
        )
        out["n"] = out.n.astype(np.int64)
        out["vocab"] = out.vocab.astype(np.int64)
        return out

    partials = coarse_grouped_map(
        docs.map_batches(tok_partial, batch_format="pyarrow"),
        ["source", "token"],
        pandas_reducer(count_reduce),
    )

    def final(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("source", as_index=False).agg(
            n_tokens=("n", "sum"), vocab_size=("vocab", "sum"),
            clnc=("clnc", "sum"),
        )
        n = g.n_tokens.to_numpy(np.float64)
        g["entropy"] = np.floor(
            (np.log(n) - g.clnc.to_numpy() / n) * 1e6 + 0.5
        ) / 1e6
        g["n_tokens"] = g.n_tokens.astype(np.int64)
        g["vocab_size"] = g.vocab_size.astype(np.int64)
        return g[["source", "n_tokens", "vocab_size", "entropy"]]

    return coarse_grouped_map(partials, "source", pandas_reducer(final))


# ---------------------------------------------------------------------------
# Lexical diversity: type/token ratio and hapax fraction per document
# ---------------------------------------------------------------------------

def ttr_hapax(sf_dir: str) -> "ray.data.Dataset":
    """Per document: token count, distinct-type count, type/token ratio
    and hapax fraction (share of TYPES occurring exactly once) — the
    lexical-diversity signals corpus curation filters on (repetitive
    boilerplate has low TTR and a thin hapax tail).

    Pure map, no shuffle: a document's text lives in one row, so each
    batch computes its docs' statistics with one exploded value_counts.
    Ratios use the exact ``BIGINT::DOUBLE / BIGINT::DOUBLE`` expression
    of the SQL oracle, rounded half-up to 6 decimals.
    """
    docs = _read_docs(sf_dir, ["doc_id", "text"])

    def stats(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        d = df.assign(token=df.text.str.split(" ")).explode("token")
        d = d[d.token.notna() & (d.token != "")]
        per = d.groupby(["doc_id", "token"]).size().rename("c").reset_index()
        g = per.groupby("doc_id").agg(
            n_types=("token", "size"),
            n_tokens=("c", "sum"),
            n_hapax=("c", lambda s: int((s == 1).sum())),
        ).reset_index()
        n_tok = g.n_tokens.to_numpy().astype(np.float64)
        n_typ = g.n_types.to_numpy().astype(np.float64)
        return pa.table(
            {
                "doc_id": pa.array(g.doc_id.astype(np.int64)),
                "n_tokens": pa.array(g.n_tokens.astype(np.int64)),
                "n_types": pa.array(g.n_types.astype(np.int64)),
                "ttr": pa.array(_round6(n_typ / n_tok)),
                "hapax_frac": pa.array(
                    _round6(g.n_hapax.to_numpy().astype(np.float64) / n_typ)
                ),
            }
        )

    return docs.map_batches(stats, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Windowed co-occurrence (skip-gram counts)
# ---------------------------------------------------------------------------

def window_cooccurrence(
    sf_dir: str, window: int = 3, k: int = 30
) -> "ray.data.Dataset":
    """Global top-``k`` unordered token pairs co-occurring within
    ``window`` positions (the skip-gram counting pass of word-vector /
    collocation training), ranked by count desc then pair asc.

    Map side builds each batch's pair counts with numpy shifts (offset
    1..window, pair normalized to (min,max)); one pair-keyed coarse
    reduce sums globally; per-block top-k then a driver finish over
    ≤ blocks×k survivor rows — the top_tokens shape on a composite key.
    """
    docs = _read_docs(sf_dir, ["doc_id", "text"])

    def pair_counts(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        frames = []
        for t in texts:
            toks = np.array(
                [w for w in (t or "").split(" ") if w != ""], dtype=object
            )
            n = len(toks)
            for off in range(1, window + 1):
                if n <= off:
                    break
                a, b = toks[:-off], toks[off:]
                frames.append(
                    pd.DataFrame(
                        {"ta": np.minimum(a, b), "tb": np.maximum(a, b)}
                    )
                )
        if not frames:
            return pa.table(
                {
                    "ta": pa.array([], pa.string()),
                    "tb": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                }
            )
        allp = pd.concat(frames, ignore_index=True)
        g = allp.groupby(["ta", "tb"], as_index=False).size()
        g.columns = ["ta", "tb", "n"]
        return pa.Table.from_pandas(
            g.astype({"n": "int64"}), preserve_index=False
        )

    counts = coarse_grouped_map(
        docs.map_batches(pair_counts, batch_format="pyarrow"),
        ["ta", "tb"],
        pandas_reducer(lambda df: df.groupby(["ta", "tb"], as_index=False).agg(
            n=("n", "sum")
        )),
    )

    def block_topk(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(
            ["n", "ta", "tb"], ascending=[False, True, True]
        ).head(k)

    cand = counts.map_batches(
        block_topk, batch_format="pandas", batch_size=None
    ).to_pandas()
    t = cand.sort_values(
        ["n", "ta", "tb"], ascending=[False, True, True]
    ).head(k).reset_index(drop=True)
    t["rnk"] = np.arange(1, len(t) + 1, dtype=np.int64)
    return ray.data.from_pandas(t[["rnk", "ta", "tb", "n"]])


# ---------------------------------------------------------------------------
# Character n-gram profile per language
# ---------------------------------------------------------------------------

def char_trigrams_by_lang(
    sf_dir: str, k: int = 10
) -> "ray.data.Dataset":
    """Top-``k`` character trigrams per language (the character-profile
    table a language-ID model trains on), rank by count desc then gram
    asc within each language.

    Map side: one numpy sliding-window over each batch's concatenated
    character array produces all trigram counts per (lang, gram) — no
    Python loop over positions; (lang, gram)-keyed coarse reduce, then
    per-lang top-k over the compacted count table (languages are a
    dimension, so the final rank is a tiny keyed reduce).
    """
    docs = _read_docs(sf_dir, ["lang", "text"])

    def gram_counts(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        frames = []
        for lang, sub in df.groupby("lang"):
            chars = np.frombuffer(
                ("\x00\x00".join(sub.text.tolist())).encode("utf-32-le"),
                dtype=np.uint32,
            )
            if len(chars) < 3:
                continue
            # windows crossing the \x00\x00 doc separator contain a NUL
            # and are dropped — exactly the per-doc trigram set remains
            w = np.lib.stride_tricks.sliding_window_view(chars, 3)
            keep = (w != 0).all(axis=1)
            w = w[keep]
            if not len(w):
                continue
            view = w.astype("<u4").tobytes()
            grams = np.array(
                [
                    view[i : i + 12].decode("utf-32-le")
                    for i in range(0, len(view), 12)
                ],
                dtype=object,
            )
            vc = pd.Series(grams).value_counts()
            frames.append(
                pd.DataFrame(
                    {"lang": lang, "gram": vc.index, "n": vc.to_numpy()}
                )
            )
        if not frames:
            return pa.table(
                {
                    "lang": pa.array([], pa.string()),
                    "gram": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                }
            )
        out = pd.concat(frames, ignore_index=True).astype({"n": "int64"})
        return pa.Table.from_pandas(out, preserve_index=False)

    counts = coarse_grouped_map(
        docs.map_batches(gram_counts, batch_format="pyarrow"),
        ["lang", "gram"],
        pandas_reducer(
            lambda df: df.groupby(["lang", "gram"], as_index=False).agg(
                n=("n", "sum")
            )
        ),
    )

    def lang_topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["lang", "n", "gram"], ascending=[True, False, True]
        )
        df = df.groupby("lang", as_index=False).head(k)
        df["rnk"] = df.groupby("lang").cumcount() + 1
        return df[["lang", "rnk", "gram", "n"]]

    return coarse_grouped_map(counts, "lang", pandas_reducer(lang_topk))


# ---------------------------------------------------------------------------
# Content-defined chunking
# ---------------------------------------------------------------------------

def cdc_chunks(sf_dir: str, modulus: int = 8) -> "ray.data.Dataset":
    """Content-defined chunk boundaries (the dedup-friendly splitting
    CDC storage and long-document pipelines use): a token CLOSES its
    chunk iff ``(ascii(first_char) * 31 + len(token)) % modulus == 0``
    — a pure function of the token, so identical text always splits
    identically regardless of position, the property that makes chunk
    hashes stable under edits.  → (doc_id, chunk_seq, n_tokens,
    chunk_text), single-space join.

    Pure map (boundary flags + shifted cumsum + one groupby per batch);
    no shuffle.  Empty tokens participate (split(' ') semantics) so the
    oracle's string_split positions line up exactly.
    """
    docs = _read_docs(sf_dir, ["doc_id", "text"])
    m = modulus

    def chunk(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        d = df.assign(token=df.text.str.split(" ")).explode("token")
        d = d[d.token.notna()]
        first = d.token.str.slice(0, 1)
        code = np.where(
            first == "", 0,
            [ord(c) if c else 0 for c in first]
        ).astype(np.int64)
        flag = ((code * 31 + d.token.str.len().to_numpy()) % m == 0)
        # chunk id = boundaries strictly BEFORE this token (shifted cumsum)
        cs = pd.Series(flag, index=d.index).groupby(d.doc_id).transform(
            lambda s: s.cumsum().shift(fill_value=0)
        )
        d = d.assign(chunk_seq=cs.astype(np.int64))
        g = d.groupby(["doc_id", "chunk_seq"], as_index=False).agg(
            n_tokens=("token", "size"),
            chunk_text=("token", lambda s: " ".join(s)),
        )
        return pa.Table.from_pandas(
            g.astype({"doc_id": "int64", "chunk_seq": "int64",
                      "n_tokens": "int64"}),
            preserve_index=False,
        )

    return docs.map_batches(chunk, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Per-language token top-k
# ---------------------------------------------------------------------------

def top_tokens_by_lang(sf_dir: str, k: int = 10) -> "ray.data.Dataset":
    """Top-``k`` tokens per language with in-language rank — the
    per-group variant of ``top_tokens`` on a high-cardinality composite
    key: (lang, token) partial counts map-side, one keyed reduce, then
    the rank runs over the COMPACTED count table grouped by the tiny
    lang dimension (never the raw corpus)."""
    docs = _read_docs(sf_dir, ["lang", "text"])

    def partial_counts(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        d = df.assign(token=df.text.str.split(" ")).explode("token")
        d = d[d.token.notna() & (d.token != "")]
        g = d.groupby(["lang", "token"], as_index=False).size()
        g.columns = ["lang", "token", "n"]
        return pa.Table.from_pandas(
            g.astype({"n": "int64"}), preserve_index=False
        )

    counts = coarse_grouped_map(
        docs.map_batches(partial_counts, batch_format="pyarrow"),
        ["lang", "token"],
        pandas_reducer(
            lambda df: df.groupby(["lang", "token"], as_index=False).agg(
                n=("n", "sum")
            )
        ),
    )

    def lang_topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["lang", "n", "token"], ascending=[True, False, True]
        )
        df = df.groupby("lang", as_index=False).head(k)
        df["rnk"] = df.groupby("lang").cumcount() + 1
        df["rnk"] = df.rnk.astype(np.int64)
        return df[["lang", "rnk", "token", "n"]]

    return coarse_grouped_map(counts, "lang", pandas_reducer(lang_topk))


# ---------------------------------------------------------------------------
# Sparse TF-IDF cosine document-similarity join
# ---------------------------------------------------------------------------

def tfidf_similar_docs(
    sf_dir: str, threshold: float = 0.3, max_df_frac: float = 0.5
) -> "ray.data.Dataset":
    """Document pairs (doc_a < doc_b) whose TF-IDF vectors have cosine
    similarity ≥ ``threshold`` — the SPARSE similarity join (inverted
    index over shared terms): exact, no LSH, no embedding model.

    Plan: per-doc term frequencies map-side (a doc's text lives in one
    row); document frequencies by one term-keyed reduce; terms with
    df > ``max_df_frac``·N are DROPPED (stop-term pruning — the standard
    guard that keeps the inverted index's hot lists from going
    quadratic, and exactly mirrored in the oracle); the df join is
    token-keyed, so the weighting, each term's posting-list self-merge
    (pair partial dot products), AND the per-doc norm partials all run
    FUSED inside the join's partition task (repartition_join post_fn) —
    the weighted posting table is never materialized or re-shuffled;
    a pair-keyed reduce sums the dots, a doc-keyed reduce finishes the
    norms, and the two norm attachments are repartition joins; final
    vectorized threshold filter.

    Exactness: per-term dot/norm contributions are quantized to the
    1e-9 grid as int64 BEFORE summation (floor(x·1e9+0.5)), so the
    sums are order-independent and the oracle comparison is bit-exact.
    Cosine is rounded half-up to 6 decimals.
    """
    docs = _read_docs(sf_dir, ["doc_id", "text"])
    n_docs = float(docs.count())

    def tf_partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        d = df.assign(token=df.text.str.split(" ")).explode("token")
        d = d[d.token.notna() & (d.token != "")]
        g = d.groupby(["doc_id", "token"], as_index=False).size()
        g.columns = ["doc_id", "token", "tf"]
        return pa.Table.from_pandas(
            g.astype({"tf": "int64"}), preserve_index=False
        )

    tf = docs.map_batches(tf_partial, batch_format="pyarrow").materialize()

    df_counts = coarse_grouped_map(
        tf.select_columns(["token"]),
        "token",
        pandas_reducer(lambda d: d.groupby("token", as_index=False).agg(
            df=("token", "size")
        )),
    )

    max_df = max_df_frac * n_docs

    def weigh(d: pd.DataFrame) -> pd.DataFrame:
        d = d[d.df.astype(float) <= max_df].copy()
        if d.empty:
            return pd.DataFrame(
                {"token": pd.Series([], dtype="object"),
                 "doc_id": pd.Series([], dtype="int64"),
                 "w": pd.Series([], dtype="float64")}
            )
        idf = np.log(n_docs / d.df.to_numpy(np.float64))
        d["w"] = d.tf.to_numpy(np.float64) * idf
        return d[["token", "doc_id", "w"]]

    def pair_partition(d: pd.DataFrame) -> pd.DataFrame:
        m = d.merge(d, on="token")
        m = m[m.doc_id_x < m.doc_id_y]
        if m.empty:
            return pd.DataFrame(
                {"doc_a": pd.Series([], dtype="int64"),
                 "doc_b": pd.Series([], dtype="int64"),
                 "dotp": pd.Series([], dtype="int64")}
            )
        m["dotp"] = np.floor(
            m.w_x * m.w_y * 1e9 + 0.5
        ).astype(np.int64)
        g = m.groupby(["doc_id_x", "doc_id_y"], as_index=False).agg(
            dotp=("dotp", "sum")
        )
        g.columns = ["doc_a", "doc_b", "dotp"]
        return g

    # join + grouped FUSION (repartition_join post_fn): the df join
    # already co-locates every posting of a token, so the pair partial
    # dot products AND the per-doc norm partials are both computed
    # inside the join's partition task and emitted as one tagged frame —
    # the weighted posting table (the op's biggest intermediate) is
    # never materialized or re-shuffled on the token key it arrived on.
    # Both partial kinds stay exact: int64 1e-9-grid terms sum in any
    # order.
    def fused(d: pd.DataFrame) -> pd.DataFrame:
        d = weigh(d)
        pairs = pair_partition(d)
        pairs = pairs.assign(kind=np.int8(0), doc_id=np.int64(0),
                             norm2=np.int64(0))
        nrm = d.assign(
            w2=np.floor(d.w * d.w * 1e9 + 0.5).astype(np.int64)
        ).groupby("doc_id", as_index=False).agg(norm2=("w2", "sum"))
        nrm = nrm.assign(kind=np.int8(1), doc_a=np.int64(0),
                         doc_b=np.int64(0), dotp=np.int64(0))
        cols = ["kind", "doc_a", "doc_b", "dotp", "doc_id", "norm2"]
        return pd.concat([pairs[cols], nrm[cols]], ignore_index=True)

    fused_out = repartition_join(
        tf,
        df_counts,
        "token",
        "token",
        {"token": pa.string(), "doc_id": pa.int64(), "tf": pa.int64()},
        {"token": pa.string(), "df": pa.int64()},
        post_fn=pandas_reducer(fused),
    ).materialize()  # two consumers (pair reduce, norm reduce)

    def take_kind(k: int, cols):
        def fn(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            return batch.filter(
                pc.equal(batch.column("kind"), k)
            ).select(cols)

        return fn

    norms = coarse_grouped_map(
        fused_out.map_batches(
            take_kind(1, ["doc_id", "norm2"]), batch_format="pyarrow"
        ),
        "doc_id",
        pandas_reducer(lambda d: d.groupby("doc_id", as_index=False).agg(
            norm2=("norm2", "sum")
        )),
    )

    dots = coarse_grouped_map(
        fused_out.map_batches(
            take_kind(0, ["doc_a", "doc_b", "dotp"]),
            batch_format="pyarrow",
        ),
        ["doc_a", "doc_b"],
        pandas_reducer(
            lambda d: d.groupby(["doc_a", "doc_b"], as_index=False).agg(
                dotp=("dotp", "sum")
            )
        ),
    )

    with_na = repartition_join(
        dots,
        norms.map_batches(
            lambda b: pa.table(
                {"da": b.column("doc_id"), "na2": b.column("norm2")}
            ),
            batch_format="pyarrow",
        ),
        "doc_a",
        "da",
        {"doc_a": pa.int64(), "doc_b": pa.int64(), "dotp": pa.int64()},
        {"da": pa.int64(), "na2": pa.int64()},
    )
    with_nb = repartition_join(
        with_na,
        norms.map_batches(
            lambda b: pa.table(
                {"db": b.column("doc_id"), "nb2": b.column("norm2")}
            ),
            batch_format="pyarrow",
        ),
        "doc_b",
        "db",
        {"doc_b": pa.int64(), "doc_a": pa.int64(), "dotp": pa.int64(),
         "na2": pa.int64()},
        {"db": pa.int64(), "nb2": pa.int64()},
    )

    thr = threshold

    def finish(d: pd.DataFrame) -> pd.DataFrame:
        cos = d.dotp.to_numpy().astype(np.float64) / np.sqrt(
            d.na2.to_numpy().astype(np.float64)
            * d.nb2.to_numpy().astype(np.float64)
        )
        d = d.assign(cosine=np.floor(cos * 1e6 + 0.5) / 1e6)
        d = d[d.cosine >= thr]
        return d[["doc_a", "doc_b", "cosine"]]

    from ..utils import schema_floor

    return schema_floor(
        with_nb.map_batches(finish, batch_format="pandas"),
        pa.schema([("doc_a", pa.int64()), ("doc_b", pa.int64()),
                   ("cosine", pa.float64())]),
    )


# ---------------------------------------------------------------------------
# BM25 top-k retrieval
# ---------------------------------------------------------------------------

#: Default retrieval workload: each query has AT MOST TWO terms so the
#: per-document score is a sum of ≤2 float64 terms — IEEE addition is
#: commutative, so the Ray-side and DuckDB-side sums are bit-identical no
#: matter which engine adds first, and the top-k cutoff can never flip on
#: a last-ulp difference.  (3+-term queries would reintroduce
#: associativity order; pass ``queries=`` explicitly if approximate
#: ranking parity is acceptable.)
DEFAULT_BM25_QUERIES = (
    ("merge", "join"),
    ("window", "batch"),
    ("hash",),
    ("sort", "table"),
)


def bm25_topk(
    sf_dir: str,
    queries=DEFAULT_BM25_QUERIES,
    k: int = 10,
    k1: float = 1.2,
    b: float = 0.75,
) -> "ray.data.Dataset":
    """Okapi BM25 top-k retrieval (Robertson et al., TREC-3) of documents
    for a constant set of term queries → (q_id, doc_id, score, rank).

    idf(t)   = ln((N - df + 0.5) / (df + 0.5) + 1)      (Lucene variant)
    score(d) = Σ_t idf(t)·tf·(k1+1) / (tf + k1·(1 - b + b·dl/avgdl))

    Tokenization is the engine's SQL-parity convention (single-space
    split, empties dropped).  Scale shape: (doc, token, tf) rows are
    computed map-side and filtered to query terms BEFORE any shuffle (the
    posting lists of a constant query set, not the corpus, cross the
    wire); document lengths are a doc-keyed coarse reduce; one doc-keyed
    repartition join attaches dl to the query postings; scores reduce per
    (q_id, doc_id); top-k per query runs a per-batch top-k combiner before
    the final per-query cut.  Driver state: N, Σdl (two scalars) and the
    df/idf of the ≤|Q| query terms — all constant in corpus size.

    Float contract: tf/df/dl are integer-valued doubles (exact sums), so
    avgdl, idf and every per-term score are bit-identical to the oracle;
    per-doc sums stay exact for ≤2-term queries (see
    DEFAULT_BM25_QUERIES).  Ranking sorts raw score DESC, doc_id ASC;
    score rounds half-up to 1e-6 only in the output column.
    """
    tok_to_qids: Dict[str, list] = {}
    for qid, terms in enumerate(queries):
        for t in set(terms):
            tok_to_qids.setdefault(t, []).append(qid)

    docs = _read_docs(sf_dir, ["doc_id", "text"])
    n_docs = float(docs.count())

    tf = _tf_table(sf_dir)
    avgdl = float(tf.sum("tf")) / n_docs  # Σtf = Σdl, exact int sum

    dl = coarse_grouped_map(
        tf.map_batches(
            lambda bt: bt.group_by("doc_id").aggregate([("tf", "sum")])
            .rename_columns(["doc_id", "dl"]),
            batch_format="pyarrow",
        ),
        "doc_id",
        pandas_reducer(
            lambda d: d.groupby("doc_id", as_index=False).agg(dl=("dl", "sum"))
        ),
    )

    toks = sorted(tok_to_qids)

    def to_postings(batch: pa.Table) -> pd.DataFrame:
        d = batch.to_pandas()
        d = d[d.token.isin(toks)]
        if d.empty:
            return pd.DataFrame(
                {"q_id": pd.Series(dtype=np.int64),
                 "doc_id": pd.Series(dtype=np.int64),
                 "token": pd.Series(dtype=object),
                 "tf": pd.Series(dtype=np.int64)}
            )
        d = d.assign(q_id=d.token.map(tok_to_qids)).explode("q_id")
        d["q_id"] = d.q_id.astype(np.int64)
        return d[["q_id", "doc_id", "token", "tf"]]

    postings = tf.map_batches(
        to_postings, batch_format="pyarrow"
    ).materialize()  # feeds the constant-size df reduce AND the join

    # df per query term: per-batch partials, summed on the driver — the
    # table is ≤ |query terms| × |batches| rows, constant in corpus size
    df_parts = postings.map_batches(
        lambda d: d.drop_duplicates(["doc_id", "token"])
        .groupby("token", as_index=False).agg(df=("token", "size")),
        batch_format="pandas",
    ).to_pandas()
    df_map = (
        df_parts.groupby("token").df.sum().astype(np.int64).to_dict()
        if len(df_parts) else {}
    )
    idf_map = {
        t: math.log((n_docs - float(d) + 0.5) / (float(d) + 0.5) + 1.0)
        for t, d in df_map.items()
    }

    _k1, _b, _avgdl = float(k1), float(b), avgdl
    kk = int(k)

    def term_score(d: pd.DataFrame) -> pd.DataFrame:
        tfv = d.tf.to_numpy(np.float64)
        dlv = d.dl.to_numpy(np.float64)
        idf = d.token.map(idf_map).to_numpy(np.float64)
        s = idf * tfv * (_k1 + 1.0) / (
            tfv + _k1 * (1.0 - _b + _b * dlv / _avgdl)
        )
        # per-(q,doc) sum: every term row of a doc is co-located here
        # (the join is doc-keyed), and ≤2 terms per query keep the sum
        # order-exact (IEEE addition is commutative)
        return pd.DataFrame({"q_id": d.q_id, "doc_id": d.doc_id, "s": s}) \
            .groupby(["q_id", "doc_id"], as_index=False).agg(s=("s", "sum"))

    def batch_topk(d: pd.DataFrame) -> pd.DataFrame:
        # combiner: per-partition top-k per query shrinks the final
        # shuffle to ≤ k rows per (query, partition)
        return (
            d.sort_values(["q_id", "s", "doc_id"],
                          ascending=[True, False, True])
            .groupby("q_id", as_index=False, sort=False)
            .head(kk)
        )

    # join + reduce FUSION (post_fn): the dl join co-locates every term
    # row of a doc, so the per-(q,doc) score sum AND the per-partition
    # top-k combiner run inside the join task — the (q,doc)-keyed
    # all-to-all the unfused plan paid is gone entirely
    scores = repartition_join(
        postings,
        dl,
        "doc_id",
        "doc_id",
        {"q_id": pa.int64(), "doc_id": pa.int64(), "token": pa.string(),
         "tf": pa.int64()},
        {"doc_id": pa.int64(), "dl": pa.int64()},
        post_fn=pandas_reducer(lambda d: batch_topk(term_score(d))),
    )

    def final_topk(d: pd.DataFrame) -> pd.DataFrame:
        d = d.sort_values(["q_id", "s", "doc_id"],
                          ascending=[True, False, True])
        d = d.groupby("q_id", as_index=False, sort=False).head(kk)
        d["rank"] = d.groupby("q_id").cumcount().astype(np.int64) + 1
        d["score"] = np.floor(d.s.to_numpy(np.float64) * 1e6 + 0.5) / 1e6
        return d[["q_id", "doc_id", "score", "rank"]]

    return coarse_grouped_map(
        scores,
        "q_id",
        pandas_reducer(final_topk),
    )
