"""Semantics tests for sliding-window chunks, per-source percent-rank
normalization, and edit-distance name matching.  Exact cross-engine
parity is covered by the DuckDB oracles in __ray_entry__."""
import numpy as np
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


def test_levenshtein_batch_matches_reference():
    from kgray.stages.cluster import levenshtein_batch

    def ref(a, b):
        dp = list(range(len(b) + 1))
        for i, ca in enumerate(a, 1):
            new = [i]
            for j, cb in enumerate(b, 1):
                new.append(min(dp[j] + 1, new[j - 1] + 1,
                               dp[j - 1] + (ca != cb)))
            dp = new
        return dp[len(b)]

    pairs = [
        ("kitten", "sitting"), ("", ""), ("", "abc"), ("abc", ""),
        ("same", "same"), ("a", "b"), ("red widget", "red midget"),
        ("blue bolt", "blue bolts"), ("x", "xyz"), ("flaw", "lawn"),
    ]
    got = levenshtein_batch([p[0] for p in pairs], [p[1] for p in pairs])
    assert got.tolist() == [ref(a, b) for a, b in pairs]


def test_fuzzy_name_pairs_blocked_and_bounded():
    from kgray.stages.cluster import fuzzy_name_pairs

    df = pd.DataFrame(
        {
            "blk": ["x", "x", "x", "x", "y", "y"],
            "nm": ["gear", "gears", "bolt", "gear", "bolt", "bolts"],
        }
    )
    out = (
        fuzzy_name_pairs(ray.data.from_pandas(df), "blk", "nm",
                         max_dist=2)
        .to_pandas()
        .sort_values(["blk", "name_a"])
        .reset_index(drop=True)
    )
    # within x: gear~gears (1); bolt vs gear* too far; duplicate 'gear'
    # collapses. within y: bolt~bolts (1). never across blocks.
    assert list(
        zip(out.blk, out.name_a, out.name_b, out.dist)
    ) == [("x", "gear", "gears", 1), ("y", "bolt", "bolts", 1)]


