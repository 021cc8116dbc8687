"""Semantics tests for BPE merge learning."""
import collections

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


def _reference_bpe(word_freq, n_merges):
    """Textbook in-memory BPE (Sennrich et al. 2016) with the same
    deterministic tie-break: max count, then (left, right) lexicographic."""
    vocab = {tuple(list(w) + ["</w>"]): n for w, n in word_freq.items()}
    merges = []
    for _ in range(n_merges):
        pairs = collections.Counter()
        for syms, n in vocab.items():
            for a, b in zip(syms[:-1], syms[1:]):
                pairs[(a, b)] += n
        if not pairs:
            break
        best = min(pairs.items(), key=lambda kv: (-kv[1], kv[0]))
        (la, rb), cnt = best
        merges.append((la, rb, cnt))
        new_vocab = {}
        for syms, n in vocab.items():
            res, i = [], 0
            while i < len(syms):
                if i + 1 < len(syms) and syms[i] == la and syms[i + 1] == rb:
                    res.append(la + rb)
                    i += 2
                else:
                    res.append(syms[i])
                    i += 1
            new_vocab[tuple(res)] = new_vocab.get(tuple(res), 0) + n
        vocab = new_vocab
    return merges


def test_learn_bpe_merges_matches_reference():
    from kgray.stages.pack import learn_bpe_merges

    out = learn_bpe_merges(SF, n_merges=10)
    docs = pd.read_parquet(SF + "/documents.parquet", columns=["text"])
    wf = collections.Counter(
        t for txt in docs.text for t in txt.split(" ") if t
    )
    exp = _reference_bpe(wf, 10)
    assert len(out) == len(exp)
    got = list(zip(out.left, out.right, out.pair_count))
    assert got == exp
    assert out["rank"].tolist() == list(range(1, len(exp) + 1))
    # counts are non-increasing only within what BPE guarantees: each
    # merge count is positive and bounded by total tokens
    assert (out.pair_count > 0).all()


