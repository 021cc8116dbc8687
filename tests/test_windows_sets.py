"""Semantics tests for sliding-window chunks and per-source percent-rank
normalization.  Exact cross-engine parity is covered by the DuckDB
oracles in __ray_entry__."""
import pandas as pd
import ray
import ray.data

SF = "/root/testdata/sf0.001"


def test_sliding_chunks_overlap_and_coverage():
    from kgray.stages.chunk import sliding_chunks

    docs = pd.read_parquet(SF + "/documents.parquet",
                           columns=["doc_id", "text"])
    out = sliding_chunks(
        ray.data.from_pandas(docs), window=20, stride=10
    ).to_pandas()
    r = docs.iloc[0]
    toks = r.text.split(" ")
    mine = out[out.doc_id == r.doc_id].sort_values("chunk_seq")
    exp = [" ".join(toks[s : s + 20]) for s in range(0, len(toks), 10)]
    assert mine.chunk.tolist() == exp
    assert mine.chunk_seq.tolist() == list(range(len(exp)))
    assert mine.n_tokens.tolist() == [
        min(20, len(toks) - s) for s in range(0, len(toks), 10)
    ]
    # consecutive windows overlap by window - stride tokens
    if len(exp) > 1 and mine.n_tokens.iloc[1] == 20:
        first = mine.chunk.iloc[0].split(" ")
        second = mine.chunk.iloc[1].split(" ")
        assert first[10:20] == second[0:10]


def test_source_percent_rank_bounds_and_ties():
    from kgray.stages.corpus_stats import source_percent_rank

    out = source_percent_rank(SF).to_pandas()
    docs = pd.read_parquet(SF + "/documents.parquet",
                           columns=["doc_id", "source", "n_chars"])
    assert len(out) == len(docs)
    assert (out.pr >= 0.0).all() and (out.pr <= 1.0).all()
    for s, g in out.groupby("source"):
        raw = docs[docs.source == s]
        n = len(raw)
        r = raw.n_chars.rank(method="min")
        exp = ((r - 1.0) / (n - 1.0)) if n > 1 else r * 0.0
        exp_map = dict(zip(raw.doc_id, exp))
        for _, row in g.iterrows():
            assert row.pr == exp_map[row.doc_id]
        # min is always rank 0; max is 1 unless everything ties
        assert g.pr.min() == 0.0
