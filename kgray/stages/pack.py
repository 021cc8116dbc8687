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

from ..utils import coarse_grouped_map
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
            lambda d: d.groupby("r", as_index=False).agg(
                t=("n_tokens", "sum")
            ),
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

    return coarse_grouped_map(toks, "r", pack_range).select_columns(
        ["doc_id", "n_tokens", "token_offset", "seq_id"]
    )


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
            lambda d: d.groupby("bucket", as_index=False).agg(
                n=("bucket", "size")
            ),
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

    return coarse_grouped_map(hashed, "bucket", rank_bucket).select_columns(
        ["doc_id", "position"]
    )


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
        lambda d: d.groupby("token", as_index=False).agg(n=("n", "sum")),
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


# ---------------------------------------------------------------------------
# BPE merge learning (tokenizer induction)
# ---------------------------------------------------------------------------

def learn_bpe_merges(sf_dir: str, n_merges: int = 12) -> pd.DataFrame:
    """Learn ``n_merges`` byte-pair-encoding merges from the corpus —
    the tokenizer-induction step of a training-data pipeline.

    Classic BPE (Sennrich et al. 2016) operates on the WORD-FREQUENCY
    table, not the raw corpus: the only corpus-scale work is one
    distributed word count (combiner-first keyed reduce), after which
    every merge iteration is (a) a map_batches pass over the
    vocabulary Dataset emitting frequency-weighted symbol-pair partial
    counts, (b) a tiny reduce (pair space is vocabulary-bounded), and
    (c) one broadcast merge rule applied map-side to the symbol
    sequences.  The driver only ever sees pair-count tables and the
    winning rule — never the corpus, never the full vocabulary rows.
    Ties break on (left, right) lexicographic for determinism.  Words
    are terminated with '</w>' per the original algorithm.

    Returns the merge table (rank, left, right, pair_count) as pandas
    (dimension-bounded).  No SQL oracle: the merge loop is iterative
    with data-dependent rules; correctness is pinned by pytest against
    a reference in-memory BPE implementation.
    """
    docs = _read_docs(sf_dir, ["text"])

    def wc_partial(batch: pa.Table) -> pa.Table:
        s = pd.Series(batch.column("text").to_pylist(), dtype=object)
        toks = s.str.split(" ").explode()
        toks = toks[toks.notna() & (toks != "")]
        vc = toks.value_counts()
        return pa.table(
            {
                "word": pa.array(vc.index.to_numpy(), pa.string()),
                "n": pa.array(vc.to_numpy().astype(np.int64), pa.int64()),
            }
        )

    vocab = coarse_grouped_map(
        docs.map_batches(wc_partial, batch_format="pyarrow"),
        "word",
        lambda d: d.groupby("word", as_index=False).agg(n=("n", "sum")),
        num_partitions=16,
    )

    def to_symbols(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["syms"] = [list(w) + ["</w>"] for w in df.word]
        return pa.Table.from_pandas(
            df[["syms", "n"]], preserve_index=False
        )

    # vocabulary-bounded working set; the merge loop re-reads it
    # n_merges times, so keep it materialized in the object store
    work = vocab.map_batches(to_symbols, batch_format="pyarrow").materialize()

    merges = []
    for rank in range(1, n_merges + 1):
        def pair_partial(batch: pa.Table) -> pa.Table:
            df = batch.to_pandas()
            rows = {}
            for syms, n in zip(df.syms, df.n):
                for a, b in zip(syms[:-1], syms[1:]):
                    rows[(a, b)] = rows.get((a, b), 0) + int(n)
            if not rows:
                return pa.table({"left": pa.array([], pa.string()),
                                 "right": pa.array([], pa.string()),
                                 "c": pa.array([], pa.int64())})
            ks = list(rows)
            return pa.table(
                {
                    "left": pa.array([k[0] for k in ks], pa.string()),
                    "right": pa.array([k[1] for k in ks], pa.string()),
                    "c": pa.array([rows[k] for k in ks], pa.int64()),
                }
            )

        pairs = (
            work.map_batches(pair_partial, batch_format="pyarrow")
            .to_pandas()  # symbol-pair space: vocabulary-bounded
            .groupby(["left", "right"], as_index=False)
            .agg(c=("c", "sum"))
        )
        if pairs.empty:
            break
        best = pairs.sort_values(
            ["c", "left", "right"], ascending=[False, True, True]
        ).iloc[0]
        merges.append(
            {
                "rank": rank,
                "left": best.left,
                "right": best.right,
                "pair_count": int(best.c),
            }
        )
        la, rb = best.left, best.right
        fused = la + rb

        def apply_merge(batch: pa.Table, la=la, rb=rb, fused=fused):
            df = batch.to_pandas()
            out = []
            for syms in df.syms:
                syms = list(syms)
                res, i = [], 0
                while i < len(syms):
                    if (i + 1 < len(syms) and syms[i] == la
                            and syms[i + 1] == rb):
                        res.append(fused)
                        i += 2
                    else:
                        res.append(syms[i])
                        i += 1
                out.append(res)
            df["syms"] = out
            return pa.Table.from_pandas(df, preserve_index=False)

        work = work.map_batches(
            apply_merge, batch_format="pyarrow"
        ).materialize()

    out = pd.DataFrame(merges)
    out["rank"] = out["rank"].astype(np.int64)
    out["pair_count"] = out.pair_count.astype(np.int64)
    return out


def bpe_encode(
    sf_dir: str, n_merges: int = 12
) -> "ray.data.Dataset":
    """Apply learned BPE merges to the corpus → (doc_id, n_words,
    n_subwords, compression) — the encode half of the tokenizer story
    (``learn_bpe_merges`` is the induction half).

    The merge table is rank-ordered and TINY (it IS the tokenizer), so
    it broadcasts via ``ray.put``; encoding is a pure map that segments
    each distinct word once per batch (word-level memoization inside the
    batch — Zipf makes the distinct-word set far smaller than the token
    stream) and sums subword counts per document.  compression =
    n_subwords::DOUBLE / n_words::DOUBLE, rounded half-up to 6 decimals.
    No SQL oracle (the merge rules are learned, data-dependent state);
    correctness is pinned by pytest against a reference encoder.
    """
    merges = learn_bpe_merges(sf_dir, n_merges=n_merges)
    ranks = {
        (l, r): i
        for i, (l, r) in enumerate(zip(merges.left, merges.right))
    }
    r_ref = ray.put(ranks)

    docs = _read_docs(sf_dir, ["doc_id", "text"])

    def encode_word(word: str, ranks_: dict) -> int:
        syms = list(word) + ["</w>"]
        while len(syms) > 1:
            best, pos = None, -1
            for i, pair in enumerate(zip(syms[:-1], syms[1:])):
                rk = ranks_.get(pair)
                if rk is not None and (best is None or rk < best):
                    best, pos = rk, i
            if best is None:
                break
            syms[pos : pos + 2] = [syms[pos] + syms[pos + 1]]
        return len(syms)

    def encode(batch: pa.Table) -> pa.Table:
        ranks_ = ray.get(r_ref)
        df = batch.to_pandas()
        cache: dict = {}
        out_id, out_w, out_s = [], [], []
        for did, text in zip(df.doc_id, df.text):
            words = [w for w in (text or "").split(" ") if w]
            total = 0
            for w in words:
                c = cache.get(w)
                if c is None:
                    c = encode_word(w, ranks_)
                    cache[w] = c
                total += c
            out_id.append(did)
            out_w.append(len(words))
            out_s.append(total)
        nw = np.array(out_w, np.float64)
        ns = np.array(out_s, np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            comp = np.where(nw > 0, ns / nw, 0.0)
        return pa.table(
            {
                "doc_id": pa.array(out_id, pa.int64()),
                "n_words": pa.array(np.array(out_w, np.int64)),
                "n_subwords": pa.array(np.array(out_s, np.int64)),
                "compression": pa.array(np.floor(comp * 1e6 + 0.5) / 1e6),
            }
        )

    return docs.map_batches(encode, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# T5-style span corruption (deterministic, reconstruction-invariant)
# ---------------------------------------------------------------------------

def span_corrupt(
    sf_dir: str,
    corrupt_rate: float = 0.15,
    mean_span: int = 3,
    seed: int = 17,
) -> "ray.data.Dataset":
    """(doc_id, inputs, targets, n_tokens, n_masked, n_spans): T5-style
    span-corruption pairs (Raffel et al. 2020, arXiv:1910.10683) — mask
    ~``corrupt_rate`` of each document's tokens in contiguous spans of
    mean length ``mean_span``, replace each masked span with a per-doc
    sentinel <X0>, <X1>, ... in ``inputs``, and emit the dropped spans
    behind the same sentinels in ``targets``.

    Deterministic WITHOUT RNG state: each token's span-start decision
    and span length derive from a splitmix-style integer hash of
    (seed, doc_id, position), so any worker, any batch split, any retry
    produces the same corruption — the same device-independent
    randomness convention as shuffle_order / weighted_sample.  A span
    starts where hash < rate/mean_span · 2^64 and runs
    1 + hash' % (2·mean_span − 1) tokens (mean ``mean_span``);
    overlapping spans merge into one sentinel.

    PURE MAP, fully vectorized: one pass, no shuffle, no per-token
    Python.  The mask is a SEGMENTED running maximum of span reaches
    (doc-offset trick keeps the cummax from crossing documents), span
    ids are the gaps-and-islands change-point cumsum, and both output
    strings assemble through one sort + groupby-join over tagged
    emission rows.  Invariant (pytest): splicing targets' spans into
    inputs' sentinel slots reconstructs the original text byte-for-byte.
    """
    docs = _read_docs(sf_dir, ["doc_id", "text"])
    p_start = corrupt_rate / mean_span
    span_mod = np.uint64(2 * mean_span - 1)
    M1 = np.uint64(0x9E3779B97F4A7C15)
    M2 = np.uint64(0xBF58476D1CE4E5B9)
    M3 = np.uint64(0x94D049BB133111EB)
    thresh = np.uint64(int(p_start * 2.0**64))

    def _mix(x: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            x = (x ^ (x >> np.uint64(30))) * M2
            x = (x ^ (x >> np.uint64(27))) * M3
            return x ^ (x >> np.uint64(31))

    EMPTY = pa.table({
        "doc_id": pa.array([], pa.int64()),
        "inputs": pa.array([], pa.string()),
        "targets": pa.array([], pa.string()),
        "n_tokens": pa.array([], pa.int64()),
        "n_masked": pa.array([], pa.int64()),
        "n_spans": pa.array([], pa.int64()),
    })

    def corrupt(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().reset_index(drop=True)
        if df.empty:
            return EMPTY
        d = df.assign(token=df.text.str.split(" ")).explode("token")
        d = d[d.token.notna() & (d.token != "")].reset_index()
        if d.empty:
            return EMPTY
        row = d["index"].to_numpy(np.int64)       # batch-local doc row
        doc_ids = df.doc_id.to_numpy(np.int64)
        n = len(d)

        # position of each token within its document
        new_doc = np.ones(n, dtype=bool)
        new_doc[1:] = row[1:] != row[:-1]
        first = np.where(new_doc, np.arange(n), 0)
        np.maximum.accumulate(first, out=first)
        pos = np.arange(n) - first

        with np.errstate(over="ignore"):
            h = _mix(
                np.uint64(seed) * M1
                + doc_ids[row].astype(np.uint64) * M2
                + pos.astype(np.uint64) * M1
            )
        starts = h < thresh
        span_len = (np.uint64(1) + _mix(h + M3) % span_mod).astype(np.int64)

        # masked[i] <=> some span start j <= i in the same doc reaches
        # past i: segmented running max of (pos + len), doc-offset so the
        # cummax never crosses documents
        BIG = np.int64(1) << np.int64(40)
        reach = np.where(starts, row * BIG + pos + span_len, -1)
        floor_key = row * BIG - 1
        keyed = np.maximum.accumulate(np.where(new_doc, floor_key, -1))
        keyed = np.maximum.accumulate(np.maximum(keyed, reach))
        masked = keyed > row * BIG + pos

        prev_masked = np.concatenate(([False], masked[:-1]))
        span_start = masked & (~prev_masked | new_doc)

        # per-doc sentinel index k for each span-start row
        sd = np.cumsum(span_start)
        prior = (sd - span_start)[first]  # spans before this doc
        k = sd - prior - 1                # valid at span-start rows

        tok = d.token.to_numpy(object)
        sent = np.char.add(
            np.char.add("<X", k.astype(np.int64).astype(str)), ">"
        ).astype(object)

        # tagged emission rows: sentinels sort before the tokens at the
        # same position (a span-start position is always masked, so no
        # unmasked token collides with its sentinel slot in inputs)
        def assemble(sel_tok: np.ndarray, colname: str) -> pd.Series:
            e_row = np.concatenate([row[span_start], row[sel_tok]])
            e_pos = np.concatenate([pos[span_start], pos[sel_tok]])
            e_ord = np.concatenate([
                np.zeros(int(span_start.sum()), np.int8),
                np.ones(int(sel_tok.sum()), np.int8),
            ])
            e_item = np.concatenate([sent[span_start], tok[sel_tok]])
            f = pd.DataFrame({"r": e_row, "p": e_pos, "o": e_ord,
                              "item": e_item})
            f = f.sort_values(["r", "p", "o"], kind="mergesort")
            return f.groupby("r").item.agg(" ".join).rename(colname)

        inputs = assemble(~masked, "inputs")
        targets = assemble(masked, "targets")

        idx = pd.RangeIndex(len(df))
        out = pd.DataFrame({
            "doc_id": doc_ids,
            "inputs": inputs.reindex(idx, fill_value=""),
            "targets": targets.reindex(idx, fill_value=""),
            "n_tokens": pd.Series(np.bincount(row, minlength=len(df))
                                  .astype(np.int64)),
            "n_masked": pd.Series(
                np.bincount(row, weights=masked, minlength=len(df))
                .astype(np.int64)),
            "n_spans": pd.Series(
                np.bincount(row, weights=span_start, minlength=len(df))
                .astype(np.int64)),
        })
        return pa.Table.from_pandas(out, preserve_index=False)

    return docs.map_batches(corrupt, batch_format="pyarrow")
