"""Semantics tests for the round-2 corpus statistics additions
(zipf_slope, trigram_topk, source_lang_chi2).  Exact cross-engine parity is covered by the DuckDB
oracles in __ray_entry__; these pin the math on sf0.001 against
hand-rolled pandas/numpy."""
import collections

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


def _tokens(docs):
    return [t for txt in docs.text for t in txt.split(" ") if t]


def test_zipf_slope_matches_handrolled():
    from kgray.stages.corpus_stats import zipf_slope

    out = zipf_slope(SF).to_pandas()
    docs = pd.read_parquet(SF + "/documents.parquet", columns=["text"])
    cnt = collections.Counter(_tokens(docs))
    assert out.vocab_size.iloc[0] == len(cnt)
    assert out.total_tokens.iloc[0] == sum(cnt.values())

    # rank()-with-ties over counts desc, then plain OLS of ln f on ln r
    freqs = np.array(sorted(cnt.values(), reverse=True), dtype=np.float64)
    rank = np.empty_like(freqs)
    i = 0
    while i < len(freqs):
        j = i
        while j < len(freqs) and freqs[j] == freqs[i]:
            j += 1
        rank[i:j] = i + 1
        i = j
    x, y = np.log(rank), np.log(freqs)
    slope = np.polyfit(x, y, 1)[0]
    assert abs(out.zipf_slope.iloc[0] - slope) < 1e-6
    assert out.zipf_slope.iloc[0] < 0  # frequency falls with rank


def test_trigram_topk_matches_counter():
    from kgray.stages.corpus_stats import trigram_topk

    out = trigram_topk(SF, k=10).to_pandas()
    docs = pd.read_parquet(SF + "/documents.parquet",
                           columns=["doc_id", "text"])
    c = collections.Counter()
    for txt in docs.text:
        w = [t for t in txt.split(" ") if t]
        c.update(" ".join(w[i:i + 3]) for i in range(len(w) - 2))
    exp = sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    assert list(zip(out.gram, out.n)) == exp
    assert out.rnk.tolist() == list(range(1, 11))


def test_source_lang_chi2_matches_closed_form():
    from kgray.stages.corpus_stats import source_lang_chi2

    out = source_lang_chi2(SF).to_pandas()
    docs = pd.read_parquet(SF + "/documents.parquet",
                           columns=["source", "lang"])
    obs = pd.crosstab(docs.source, docs.lang).astype(float)
    exp = np.outer(obs.sum(1), obs.sum(0)) / obs.to_numpy().sum()
    chi2 = ((obs.to_numpy() - exp) ** 2 / exp).sum()
    assert abs(out.chi2.iloc[0] - chi2) < 1e-6
    assert out.n_sources.iloc[0] == obs.shape[0]
    assert out.n_langs.iloc[0] == obs.shape[1]
    assert out.n_docs.iloc[0] == len(docs)


def test_jsonl_and_csv_roundtrip(tmp_path):
    import pandas as pd
    import ray.data

    from kgray.sources.io import (
        read_csv_table,
        read_jsonl,
        write_csv_table,
        write_jsonl,
    )

    df = pd.DataFrame(
        {"doc_id": [3, 1, 2], "text": ["a b", "c", "d e f"],
         "n": [2, 1, 3]}
    )
    ds = ray.data.from_pandas(df)

    jdir = str(tmp_path / "j")
    write_jsonl(ds, jdir)
    back = read_jsonl(jdir).to_pandas().sort_values("doc_id")
    assert back.doc_id.tolist() == [1, 2, 3]
    assert back.text.tolist() == ["c", "d e f", "a b"]

    # column pruning drops the unselected column after parse
    pruned = read_jsonl(jdir, columns=["doc_id"]).to_pandas()
    assert list(pruned.columns) == ["doc_id"]

    cdir = str(tmp_path / "c")
    write_csv_table(ds, cdir)
    cback = read_csv_table(cdir).to_pandas().sort_values("doc_id")
    assert cback.n.tolist() == [1, 3, 2]
    cpruned = read_csv_table(cdir, columns=["doc_id", "n"]).to_pandas()
    assert sorted(cpruned.columns) == ["doc_id", "n"]


def test_bigram_nll_hand_computed(tmp_path):
    import numpy as np
    import pandas as pd

    from kgray.stages.corpus_stats import bigram_nll

    # doc1 bigrams: (a,b) (b,a) (a,b); doc2: (a,b); doc3: none (1 token)
    pd.DataFrame(
        {"doc_id": [1, 2, 3], "text": ["a b a b", "a b", "a"]}
    ).to_parquet(tmp_path / "documents.parquet")
    out = (
        bigram_nll(str(tmp_path), k=0.5)
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    # model: c(a,b)=3  c(b,a)=1  ctx: c1(a)=3 c1(b)=1  V=2
    lab = np.log((3 + 0.5) / (3 + 0.5 * 2))
    lba = np.log((1 + 0.5) / (1 + 0.5 * 2))
    exp1 = np.floor(-((2 * lab + lba) / 3) * 1e6 + 0.5) / 1e6
    exp2 = np.floor(-lab * 1e6 + 0.5) / 1e6
    assert out.loc[1].tolist() == [3, exp1]
    assert out.loc[2].tolist() == [1, exp2]
    assert 3 not in out.index  # <2 tokens: no bigrams, no row


