"""Semantics tests for the round-2 text-analysis additions (ttr/hapax,
window co-occurrence, char trigrams per lang, content-defined chunking,
per-lang token top-k) against hand-rolled references on sf0.001."""
import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


def _r6(v):
    return np.floor(np.asarray(v, dtype=float) * 1e6 + 0.5) / 1e6


def test_ttr_hapax_matches_counter():
    from collections import Counter

    from kgray.stages.corpus_stats import ttr_hapax

    out = ttr_hapax(SF).to_pandas().set_index("doc_id")
    docs = pd.read_parquet(SF + "/documents.parquet")
    for _, row in docs.head(20).iterrows():
        toks = [w for w in row.text.split(" ") if w]
        c = Counter(toks)
        got = out.loc[row.doc_id]
        assert got.n_tokens == len(toks)
        assert got.n_types == len(c)
        assert got.ttr == _r6(len(c) / len(toks))
        assert got.hapax_frac == _r6(
            sum(1 for v in c.values() if v == 1) / len(c)
        )
    assert len(out) == len(docs)


def test_window_cooccurrence_matches_bruteforce():
    from collections import Counter

    from kgray.stages.corpus_stats import window_cooccurrence

    out = window_cooccurrence(SF, window=3, k=30).to_pandas()
    docs = pd.read_parquet(SF + "/documents.parquet")
    cnt = Counter()
    for t in docs.text:
        toks = [w for w in t.split(" ") if w]
        for i in range(len(toks)):
            for j in range(i + 1, min(i + 4, len(toks))):
                a, b = sorted((toks[i], toks[j]))
                cnt[(a, b)] += 1
    exp = sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[:30]
    got = list(zip(zip(out.ta, out.tb), out.n))
    assert got == exp
    assert out.rnk.tolist() == list(range(1, len(out) + 1))


def test_char_trigrams_by_lang_per_doc_windows():
    from collections import Counter

    from kgray.stages.corpus_stats import char_trigrams_by_lang

    out = char_trigrams_by_lang(SF, k=10).to_pandas()
    docs = pd.read_parquet(SF + "/documents.parquet")
    for lang, sub in docs.groupby("lang"):
        cnt = Counter()
        for t in sub.text:
            for i in range(len(t) - 2):
                cnt[t[i : i + 3]] += 1
        exp = sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
        g = out[out.lang == lang].sort_values("rnk")
        assert list(zip(g.gram, g.n)) == exp


def test_cdc_chunks_deterministic_boundaries():
    from kgray.stages.corpus_stats import cdc_chunks

    out = cdc_chunks(SF).to_pandas()
    docs = pd.read_parquet(SF + "/documents.parquet")

    def ref_chunks(text):
        toks = text.split(" ")
        chunks, cur = [], []
        for t in toks:
            cur.append(t)
            code = ord(t[0]) if t else 0
            if (code * 31 + len(t)) % 8 == 0:
                chunks.append(cur)
                cur = []
        if cur:
            chunks.append(cur)
        return chunks

    for _, row in docs.head(15).iterrows():
        exp = ref_chunks(row.text)
        g = out[out.doc_id == row.doc_id].sort_values("chunk_seq")
        assert len(g) == len(exp)
        assert g.chunk_text.tolist() == [" ".join(c) for c in exp]
        assert g.n_tokens.tolist() == [len(c) for c in exp]
        # chunking is content-defined: re-splitting the reassembled text
        # must reproduce the same boundaries
        assert " ".join(g.chunk_text) == row.text


def test_top_tokens_by_lang_rank_and_counts():
    from collections import Counter

    from kgray.stages.corpus_stats import top_tokens_by_lang

    out = top_tokens_by_lang(SF, k=10).to_pandas()
    docs = pd.read_parquet(SF + "/documents.parquet")
    for lang, sub in docs.groupby("lang"):
        cnt = Counter(
            w for t in sub.text for w in t.split(" ") if w
        )
        exp = sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
        g = out[out.lang == lang].sort_values("rnk")
        assert list(zip(g.token, g.n)) == exp
        assert g.rnk.tolist() == list(range(1, len(g) + 1))


def test_tfidf_similar_docs_matches_sklearn_style_reference():
    from collections import Counter

    from kgray.stages.corpus_stats import tfidf_similar_docs

    out = tfidf_similar_docs(SF, threshold=0.2).to_pandas()
    docs = pd.read_parquet(SF + "/documents.parquet")
    n = len(docs)
    tfs, dfc = {}, Counter()
    for _, r in docs.iterrows():
        c = Counter(w for w in r.text.split(" ") if w)
        tfs[r.doc_id] = c
        dfc.update(c.keys())
    vocab = {t for t, d in dfc.items() if d <= 0.5 * n}
    vecs = {
        did: {
            t: tf * np.log(n / dfc[t]) for t, tf in c.items() if t in vocab
        }
        for did, c in tfs.items()
    }

    def q(x):
        return np.floor(x * 1e9 + 0.5)

    ids = sorted(vecs)
    exp = {}
    norm = {
        d: sum(q(w * w) for w in vecs[d].values()) for d in ids
    }
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            shared = set(vecs[a]) & set(vecs[b])
            if not shared:
                continue
            dot = sum(q(vecs[a][t] * vecs[b][t]) for t in shared)
            cos = np.floor(
                dot / np.sqrt(float(norm[a]) * float(norm[b])) * 1e6 + 0.5
            ) / 1e6
            if cos >= 0.2:
                exp[(a, b)] = cos
    got = {
        (r.doc_a, r.doc_b): r.cosine for r in out.itertuples()
    }
    assert got == exp
    assert ((out.cosine >= 0.2) & (out.cosine <= 1.0)).all()


def test_kwic_window_clipping(tmp_path):
    from kgray.stages.text_analysis import kwic_snippets

    docs = pd.DataFrame({
        "doc_id": np.arange(4, dtype=np.int64),
        "text": [
            "window at the very start of this line",   # clip left
            "a line that puts the term window here x",  # interior
            "no match in this one at all",              # absent
            "ends with the word window",                # clip right
        ],
    })
    docs.to_parquet(tmp_path / "documents.parquet", index=False)
    out = kwic_snippets(str(tmp_path), term="window", width=10) \
        .to_pandas().set_index("doc_id").sort_index()
    assert list(out.index) == [0, 1, 3]
    assert out.loc[0, "pos"] == 1
    assert out.loc[0, "snippet"] == "window at the ve"       # 6 + 10
    t = docs.text[1]
    f = t.find("window")
    assert out.loc[1, "snippet"] == t[f - 10:f + 16]
    t3 = docs.text[3]
    f3 = t3.find("window")
    assert out.loc[3, "snippet"] == t3[f3 - 10:]             # right clip
