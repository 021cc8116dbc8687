"""Semantics test for the per-source token entropy.  Exact
cross-engine parity is covered by the DuckDB oracle in __ray_entry__;
this pins the math on sf0.001 against a Counter over the raw rows."""
import collections
import math

import pandas as pd

SF = "/root/testdata/sf0.001"


def test_source_token_entropy_matches_counter():
    from kgray.stages.corpus_stats import source_token_entropy

    out = source_token_entropy(SF).to_pandas().set_index("source")
    docs = pd.read_parquet(SF + "/documents.parquet",
                           columns=["source", "text"])
    for src, g in docs.groupby("source"):
        cnt = collections.Counter(
            t for txt in g.text for t in txt.split(" ") if t
        )
        n = sum(cnt.values())
        h = math.log(n) - sum(c * math.log(c) for c in cnt.values()) / n
        row = out.loc[src]
        assert row.n_tokens == n
        assert row.vocab_size == len(cnt)
        assert abs(row.entropy - h) < 1e-6
        # entropy bounded by ln(vocab)
        assert row.entropy <= math.log(len(cnt)) + 1e-9
