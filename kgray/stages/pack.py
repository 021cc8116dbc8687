"""Training-sequence assembly: global token-offset packing and a
deterministic global shuffle order.

Both operators need a GLOBAL ordered enumeration — normally a sequential
fold — and get it with the distributed prefix-sum pattern: partition the
key space into ORDER-PRESERVING ranges, aggregate one tiny per-range
total, cumsum the (range-count-sized) totals on the driver, broadcast the
offsets, and let every range compute its local cumsum/rank independently.
One shuffle each, driver state bounded by the range count — never by
rows.

Tokenization is the engine's SQL-parity convention (single-space split,
empty tokens dropped), so both operators have exact DuckDB oracles.
"""
from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from ..utils import coarse_grouped_map, pandas_reducer
from .filters import SAMPLE_MULT


def _read_docs(sf_dir: str, columns) -> "ray.data.Dataset":
    return ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=columns
    )


def _token_counts(texts: pd.Series) -> np.ndarray:
    s = texts.str.split(" ").explode()
    ok = s.notna() & (s != "")
    return (
        ok.groupby(level=0).sum().reindex(texts.index, fill_value=0)
        .to_numpy(np.int64)
    )


def pack_sequences(
    sf_dir: str, budget: int = 1024, n_ranges: int = 64
) -> "ray.data.Dataset":
    """Assign every document a training-sequence id by contiguous
    token-budget chunking in doc_id order (GPT-style corpus packing with
    start-offset binning: seq_id = token_offset // budget, where
    token_offset is the number of corpus tokens strictly before the doc).

    The global running offset is a distributed prefix sum: doc_ids are
    range-partitioned (r = doc_id // range_size, order-preserving), each
    range's token total is aggregated (n_ranges rows to the driver — the
    ONLY driver-side state), offsets are broadcast, and each range then
    computes its local cumsum independently.  One keyed shuffle, no
    sequential pass.
    """
    docs = _read_docs(sf_dir, ["doc_id", "text"])
    max_id = int(docs.max("doc_id"))
    range_size = max(1, (max_id + n_ranges) // n_ranges)

    def tokens_partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        n = _token_counts(df.text)
        ids = df.doc_id.to_numpy(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "r": pa.array(ids // range_size, pa.int64()),
                "n_tokens": pa.array(n, pa.int64()),
            }
        )

    # narrow (3 ints/doc); materialized because it feeds BOTH the range
    # totals and the packing pass — unmaterialized lineage would re-run
    # the tokenizer per consumer
    toks = docs.map_batches(
        tokens_partial, batch_format="pyarrow"
    ).materialize()

    totals = (
        coarse_grouped_map(
            toks.select_columns(["r", "n_tokens"]),
            "r",
            pandas_reducer(lambda d: d.groupby("r", as_index=False).agg(
                t=("n_tokens", "sum")
            )),
        )
        .to_pandas()  # n_ranges rows — bounded by the range count
        .sort_values("r")
    )
    offsets = dict(
        zip(totals.r, np.concatenate([[0], np.cumsum(totals.t)[:-1]]))
    )
    off_ref = ray.put(offsets)

    def pack_range(d: pd.DataFrame) -> pd.DataFrame:
        offs = ray.get(off_ref)
        out = []
        for r, g in d.groupby("r"):
            g = g.sort_values("doc_id")
            cum = g.n_tokens.cumsum().to_numpy(np.int64)
            start = int(offs[r]) + cum - g.n_tokens.to_numpy(np.int64)
            out.append(
                pd.DataFrame(
                    {
                        "doc_id": g.doc_id.to_numpy(np.int64),
                        "n_tokens": g.n_tokens.to_numpy(np.int64),
                        "token_offset": start,
                        "seq_id": start // budget,
                    }
                )
            )
        return pd.concat(out, ignore_index=True)

    return coarse_grouped_map(
        toks, "r", pandas_reducer(pack_range)
    ).select_columns(["doc_id", "n_tokens", "token_offset", "seq_id"])


def shuffle_order(sf_dir: str, bucket_bits: int = 6) -> "ray.data.Dataset":
    """Deterministic global shuffle: position = rank of the
    ``filters.SAMPLE_MULT`` multiplicative hash h(doc_id), ties by
    doc_id.  Reproducible on any engine (the oracle is
    `row_number() OVER (ORDER BY h, doc_id)`), yet statistically a full
    shuffle — the right way to fix a training order across reruns
    without `random_shuffle`'s nondeterminism.

    Ranks are global via the same prefix-sum trick as pack_sequences,
    but range-partitioned on the TOP BITS of h — bucket b's hashes all
    sort before bucket b+1's, so local rank + broadcast bucket offsets =
    global rank.  One shuffle; driver state = 2^bucket_bits counts.
    """
    docs = _read_docs(sf_dir, ["doc_id"])
    shift = np.uint64(64 - bucket_bits)

    def hash_partial(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        with np.errstate(over="ignore"):
            h = ids.astype(np.uint64) * np.uint64(SAMPLE_MULT)
        return pa.table(
            {
                "doc_id": pa.array(ids.astype(np.int64), pa.int64()),
                "h": pa.array(h, pa.uint64()),
                "bucket": pa.array(
                    (h >> shift).astype(np.int64), pa.int64()
                ),
            }
        )

    hashed = docs.map_batches(
        hash_partial, batch_format="pyarrow"
    ).materialize()  # feeds counts + ranking; ints only

    counts = (
        coarse_grouped_map(
            hashed.select_columns(["bucket"]),
            "bucket",
            pandas_reducer(lambda d: d.groupby("bucket", as_index=False).agg(
                n=("bucket", "size")
            )),
        )
        .to_pandas()
        .sort_values("bucket")
    )
    offsets = dict(
        zip(
            counts.bucket,
            np.concatenate([[0], np.cumsum(counts.n)[:-1]]),
        )
    )
    off_ref = ray.put(offsets)

    def rank_bucket(d: pd.DataFrame) -> pd.DataFrame:
        offs = ray.get(off_ref)
        out = []
        for b, g in d.groupby("bucket"):
            g = g.sort_values(["h", "doc_id"])
            out.append(
                pd.DataFrame(
                    {
                        "doc_id": g.doc_id.to_numpy(np.int64),
                        "position": int(offs[b])
                        + np.arange(1, len(g) + 1, dtype=np.int64),
                    }
                )
            )
        return pd.concat(out, ignore_index=True)

    return coarse_grouped_map(
        hashed, "bucket", pandas_reducer(rank_bucket)
    ).select_columns(["doc_id", "position"])


def build_vocab(sf_dir: str, vocab_size: int = 30) -> pd.DataFrame:
    """Frequency vocabulary: the ``vocab_size`` most frequent tokens,
    id = dense rank by (count desc, token asc) starting at 0.

    Counts come from a combiner-first keyed reduce; only the
    VOCABULARY-bounded (token, n) table ever reaches the driver.  At
    open-vocabulary scale, pre-prune with the Misra-Gries pass
    (corpus_stats.top_tokens_mg) so the reduce ships sketch-bounded rows.
    """
    docs = _read_docs(sf_dir, ["text"])

    def partial(batch: pa.Table) -> pa.Table:
        s = pd.Series(batch.column("text").to_pylist(), dtype=object)
        toks = s.str.split(" ").explode()
        toks = toks[toks.notna() & (toks != "")]
        vc = toks.value_counts()
        return pa.table(
            {
                "token": pa.array(vc.index.to_numpy(), pa.string()),
                "n": pa.array(vc.to_numpy().astype(np.int64), pa.int64()),
            }
        )

    counts = coarse_grouped_map(
        docs.map_batches(partial, batch_format="pyarrow"),
        "token",
        pandas_reducer(
            lambda d: d.groupby("token", as_index=False).agg(n=("n", "sum"))
        ),
    ).to_pandas()
    counts = counts.sort_values(
        ["n", "token"], ascending=[False, True]
    ).head(vocab_size).reset_index(drop=True)
    counts["token_id"] = np.arange(len(counts), dtype=np.int64)
    return counts[["token", "token_id", "n"]]


def encode_token_ids(
    sf_dir: str, vocab_size: int = 30
) -> "ray.data.Dataset":
    """Tokenizer-prep encoding: map every document to its token-id
    sequence under the corpus's own frequency vocabulary; ids outside
    the top-``vocab_size`` become the OOV id (= vocab_size).

    Output (doc_id, ids, n_tok, n_oov) where ``ids`` is the
    comma-joined id string in token order — a canonical text form both
    engines can hash identically (the Arrow-native list<int32> lives one
    projection away).  Encoding itself is a pure map over a broadcast
    token→id table: explode, one vectorized ``Series.map``, per-doc
    joins.  No shuffle after the vocabulary pass.
    """
    vocab = build_vocab(sf_dir, vocab_size)
    oov = vocab_size
    vref = ray.put(vocab.set_index("token").token_id)

    def encode(batch: pa.Table) -> pa.Table:
        v = ray.get(vref)
        df = batch.to_pandas().set_index("doc_id")
        toks = df.text.str.split(" ").explode()
        toks = toks[toks != ""]
        ids = toks.map(v).fillna(oov).astype("int64")
        g = ids.groupby(level=0)
        ids_str = g.agg(lambda s: ",".join(map(str, s)))
        out = pd.DataFrame(
            {
                "doc_id": ids_str.index.to_numpy(),
                "ids": ids_str.to_numpy(),
                "n_tok": g.size().to_numpy().astype(np.int64),
                "n_oov": ids.eq(oov).groupby(level=0).sum()
                .to_numpy().astype(np.int64),
            }
        )
        return pa.Table.from_pandas(out, preserve_index=False)

    return _read_docs(sf_dir, ["doc_id", "text"]).map_batches(
        encode, batch_format="pyarrow"
    )

