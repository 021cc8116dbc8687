"""Training-corpus admission filters over the documents table.

Three curation primitives a 100-TB pretraining pipeline runs before any
LLM sees a byte:

- ``duplicate_ngram_stats`` — the word-n-gram variant of substring-level
  deduplication (Lee et al. 2022, "Deduplicating Training Data Makes
  Language Models Better"): for every document, how many of its n-gram
  positions are covered by an n-gram that also occurs in ANOTHER
  document.  Exact, fully distributed: one shuffle keyed on the n-gram
  hash, one keyed on doc_id, no driver materialization.
- ``quality_filter`` — a Gopher-style rule filter (Rae et al. 2021,
  App. A heuristics re-expressed for the synthetic corpus): word-count
  bounds, mean-word-length bounds, distinct-token ratio, stop-word
  presence.  Pure vectorized map, no shuffle.
- ``importance_sample`` — deterministic quality-weighted sampling (the
  DSIR-shaped primitive, Xie et al. 2023): keep a document iff a stable
  multiplicative hash of its id falls below a per-document quality
  threshold.  Stable under corpus growth and reproducible from the id
  alone on any engine — the identical HUGEINT arithmetic runs in the
  DuckDB oracle.

Scale notes: every stage is a partial map over Arrow batches before any
shuffle; the n-gram stream is keyed on a 64-bit siphash of the gram
(fixed-width shuffle keys; collision probability at 10^12 grams is
~1e-6 per corpus and only perturbs counts, never crashes); the keyed
reduces use utils.coarse_grouped_map (vectorized pandas per coarse
partition, never per-group Python).
"""
from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from ..utils import coarse_grouped_map, pandas_reducer

#: odd 64-bit golden-ratio multiplier of every hash sample (quality_filter,
#: stratified_sample, temperature_mix, shuffle_order)
SAMPLE_MULT = 11400714819323198485

#: stop words present in the synthetic vocabulary
STOPWORDS = ("the", "a")


def _read_docs(sf_dir: str, columns):
    return ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=columns
    )


# ---------------------------------------------------------------------------
# duplicated-substring statistics (word n-grams)
# ---------------------------------------------------------------------------

def duplicate_ngram_stats(sf_dir: str, n: int = 5) -> "ray.data.Dataset":
    """Per-document duplicated-n-gram coverage, exact and distributed.

    documents(doc_id, text) -> (doc_id, n_ngrams, dup_ngrams, dup_frac)
    where dup_ngrams counts n-gram POSITIONS (with multiplicity) whose
    word n-gram occurs in >= 2 distinct documents.

    Plan: map-side n-gram construction + per-(doc, gram) position counts
    (the combiner — a gram repeated k times in one doc is ONE row with
    n_pos=k), shuffle keyed on hash64(gram) to count distinct docs per
    gram, then shuffle keyed on doc_id to sum covered positions.  Both
    reduces are vectorized; nothing returns to the driver.
    """
    from pandas.util import hash_array

    docs = _read_docs(sf_dir, ["doc_id", "text"])

    def gram_counts(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().reset_index(drop=True)
        d = df.assign(token=df.text.str.split(" ")).explode("token")
        by_doc = d.groupby(level=0)
        parts = [by_doc.token.shift(-i) for i in range(n)]
        gram = parts[0].str.cat(parts[1:], sep=" ")  # NaN where window
        ok = gram.notna()                            # runs off the doc
        gd = pd.DataFrame(
            {"doc_id": d.doc_id[ok], "gram": gram[ok]}
        )
        cnt = (
            gd.groupby(["doc_id", "gram"], sort=False)
            .size()
            .reset_index(name="n_pos")
        )
        gkey = hash_array(cnt.gram.to_numpy(dtype=object))
        return pa.table(
            {
                "gkey": pa.array(gkey, pa.uint64()),
                "doc_id": pa.array(
                    cnt.doc_id.to_numpy(np.int64), pa.int64()
                ),
                "n_pos": pa.array(
                    cnt.n_pos.to_numpy(np.int64), pa.int64()
                ),
            }
        )

    grams = docs.map_batches(gram_counts, batch_format="pyarrow")

    def flag_dups(df: pd.DataFrame) -> pd.DataFrame:
        # Emit PARTIAL per-doc sums (the combiner): the downstream
        # doc_id shuffle then moves <= docs x partitions rows instead of
        # the full (doc, gram) stream — the difference between shipping
        # the corpus twice and shipping it once at 100-TB scale.
        ndocs = df.groupby("gkey").doc_id.nunique()
        dup = df.gkey.map(ndocs).ge(2).to_numpy()
        part = pd.DataFrame(
            {
                "doc_id": df.doc_id,
                "n_pos": df.n_pos,
                "dup_pos": np.where(dup, df.n_pos.to_numpy(), 0),
            }
        )
        return (
            part.groupby("doc_id", sort=False)
            .agg(n_pos=("n_pos", "sum"), dup_pos=("dup_pos", "sum"))
            .reset_index()
        )

    flagged = coarse_grouped_map(grams, "gkey", pandas_reducer(flag_dups))

    def per_doc(df: pd.DataFrame) -> pd.DataFrame:
        agg = df.groupby("doc_id", sort=False).agg(
            n_ngrams=("n_pos", "sum"), dup_ngrams=("dup_pos", "sum")
        )
        out = agg.reset_index()
        out["dup_frac"] = (
            out.dup_ngrams.to_numpy(np.float64)
            / out.n_ngrams.to_numpy(np.float64)
        )
        return out

    return coarse_grouped_map(flagged, "doc_id", pandas_reducer(per_doc))


# ---------------------------------------------------------------------------
# Gopher-style rule filter
# ---------------------------------------------------------------------------

def quality_filter(
    sf_dir: str,
    min_words: int = 15,
    max_words: int = 90,
    min_mean_len: float = 3.0,
    max_mean_len: float = 4.5,
    min_distinct_frac: float = 0.35,
    min_stopword_hits: int = 1,
) -> "ray.data.Dataset":
    """Gopher-rule admission flags per document — one vectorized map,
    zero shuffles.  All ratios are IEEE divisions of exact integer
    counts, so the flags are bit-reproducible against the SQL oracle.

    Output: (doc_id, n_words, mean_word_len, distinct_frac,
    stopword_hits, keep).
    """
    docs = _read_docs(sf_dir, ["doc_id", "text"])
    stop = set(STOPWORDS)

    def flags(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().reset_index(drop=True)
        d = df.assign(token=df.text.str.split(" ")).explode("token")
        g = d.groupby("doc_id")
        n = g.token.size()
        nd = g.token.nunique()
        chars = d.assign(wl=d.token.str.len()).groupby("doc_id").wl.sum()
        hits = (
            d[d.token.isin(stop)].groupby("doc_id").token.size()
        )
        ids = df.doc_id
        n_ = n.reindex(ids, fill_value=0).to_numpy(np.int64)
        nd_ = nd.reindex(ids, fill_value=0).to_numpy(np.int64)
        ch_ = chars.reindex(ids, fill_value=0).to_numpy(np.int64)
        h_ = hits.reindex(ids, fill_value=0).to_numpy(np.int64)
        with np.errstate(invalid="ignore", divide="ignore"):
            mwl = np.where(n_ > 0, ch_ / n_, 0.0)
            dfrac = np.where(n_ > 0, nd_ / n_, 0.0)
        keep = (
            (n_ >= min_words)
            & (n_ <= max_words)
            & (mwl >= min_mean_len)
            & (mwl <= max_mean_len)
            & (dfrac >= min_distinct_frac)
            & (h_ >= min_stopword_hits)
        )
        return pa.table(
            {
                "doc_id": pa.array(ids.to_numpy(np.int64), pa.int64()),
                "n_words": pa.array(n_, pa.int64()),
                "mean_word_len": pa.array(mwl, pa.float64()),
                "distinct_frac": pa.array(dfrac, pa.float64()),
                "stopword_hits": pa.array(h_, pa.int64()),
                "keep": pa.array(keep, pa.bool_()),
            }
        )

    return docs.map_batches(flags, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# deterministic importance-weighted sampling
# ---------------------------------------------------------------------------

def importance_sample(
    sf_dir: str, full_score_distinct: int = 48
) -> "ray.data.Dataset":
    """Quality-weighted deterministic sampling: keep document d with
    probability score(d) = min(1, n_distinct_tokens / full_score_distinct)
    — lexically richer documents are kept preferentially, the DSIR
    shape with a transparent score.

    keep iff double((doc_id * SAMPLE_MULT) mod 2^64) < score * 2^64.
    Both sides of the comparison are computed in float64 on BOTH
    engines (numpy here, CAST AS DOUBLE in the oracle), so membership
    is bit-identical; the hash is stable under corpus growth, so a kept
    document stays kept as shards are added — the property resumable
    ingestion needs.  Pure map, no shuffle, no randomness.

    Output: survivors (doc_id, score).
    """
    docs = _read_docs(sf_dir, ["doc_id", "text"])
    two64 = float(2.0 ** 64)

    def sample(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().reset_index(drop=True)
        d = df.assign(token=df.text.str.split(" ")).explode("token")
        nd = d.groupby("doc_id").token.nunique()
        ids = df.doc_id.to_numpy(np.int64)
        nd_ = nd.reindex(df.doc_id, fill_value=0).to_numpy(np.float64)
        score = np.minimum(1.0, nd_ / float(full_score_distinct))
        with np.errstate(over="ignore"):
            h = ids.astype(np.uint64) * np.uint64(SAMPLE_MULT)
        keep = h.astype(np.float64) < score * two64
        return pa.table(
            {
                "doc_id": pa.array(ids[keep], pa.int64()),
                "score": pa.array(score[keep], pa.float64()),
            }
        )

    return docs.map_batches(sample, batch_format="pyarrow")
