"""Direct tests of small shared kernels that tier-1 otherwise reaches
only through whole pipelines: the Bloom bitmap behind the dedup
candidate-text prefilter, stage schema validation, per-session
memoization, exact-Jaccard verification, BEL term rendering, the
generic-corpus adapter, linker blocking keys and the LSH bucketers."""
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from kgray import schemas, utils
from kgray.utils import bloom_set, bloom_test


# ---------------------------------------------------------------------------
# Bloom bitmap (utils.bloom_set / bloom_test)
# ---------------------------------------------------------------------------

M_BITS, N_HASHES = 1 << 17, 4


def _bloom(keys):
    bits = np.zeros(M_BITS >> 3, dtype=np.uint8)
    bloom_set(bits, keys, M_BITS, N_HASHES)
    return bits


def test_bloom_has_no_false_negatives():
    keys = np.random.RandomState(0).randint(0, 2**62, 10_000)
    assert bloom_test(_bloom(keys), keys, M_BITS, N_HASHES).all()


def test_bloom_false_positive_rate_near_design():
    rng = np.random.RandomState(1)
    keys = rng.randint(0, 2**40, 10_000)
    probes = rng.randint(2**41, 2**42, 50_000)  # disjoint from keys
    fp = bloom_test(_bloom(keys), probes, M_BITS, N_HASHES).mean()
    design = (1 - np.exp(-N_HASHES * len(keys) / M_BITS)) ** N_HASHES
    assert fp <= 2 * design, (fp, design)


def test_bloom_or_of_partial_bitmaps_equals_one_bitmap():
    # the dedup prefilter builds one bitmap per block and OR-folds them
    rng = np.random.RandomState(2)
    a, b = rng.randint(0, 2**50, 3000), rng.randint(0, 2**50, 5000)
    np.testing.assert_array_equal(
        _bloom(a) | _bloom(b), _bloom(np.concatenate([a, b]))
    )


def test_bloom_empty_filter_rejects_everything():
    bits = _bloom(np.array([], dtype=np.int64))
    assert not bits.any()
    probes = np.arange(1000, dtype=np.int64)
    assert not bloom_test(bits, probes, M_BITS, N_HASHES).any()


# ---------------------------------------------------------------------------
# schemas.validate_schema
# ---------------------------------------------------------------------------

_EXPECTED = pa.schema([("doc_id", pa.string()), ("n", pa.int64())])


def test_validate_schema_accepts_physical_string_variants():
    for doc_ids in (
        pa.array(["a", "b"], pa.large_string()),
        pa.array(["a", "b"]).dictionary_encode(),
    ):
        t = pa.table({"doc_id": doc_ids, "n": pa.array([1, 2], pa.int64())})
        assert schemas.validate_schema(t, _EXPECTED, "stage") is t


def test_validate_schema_rejects_renamed_or_reordered_columns():
    n = pa.array([1], pa.int64())
    for t in (
        pa.table({"doc": pa.array(["a"]), "n": n}),
        pa.table({"n": n, "doc_id": pa.array(["a"])}),
    ):
        with pytest.raises(schemas.SchemaMismatch, match="stage: column"):
            schemas.validate_schema(t, _EXPECTED, "stage")


def test_validate_schema_rejects_type_drift():
    t = pa.table({"doc_id": pa.array(["a"]), "n": pa.array([1], pa.int32())})
    with pytest.raises(schemas.SchemaMismatch, match="column n: got int32"):
        schemas.validate_schema(t, _EXPECTED, "stage")


# ---------------------------------------------------------------------------
# utils.session_memo
# ---------------------------------------------------------------------------


def test_session_memo_reuses_hit_and_rebuilds_when_probe_fails():
    cache, built = {}, []

    def build():
        built.append(1)
        return len(built)

    ok = lambda v: v  # noqa: E731
    assert utils.session_memo(cache, "k", build, probe=ok) == 1
    assert utils.session_memo(cache, "k", build, probe=ok) == 1

    def stale(v):
        raise RuntimeError("blocks lost")

    assert utils.session_memo(cache, "k", build, probe=stale) == 2
    assert len(built) == 2


def test_session_memo_evicts_entries_of_a_previous_session(monkeypatch):
    cache = {}
    monkeypatch.setattr(utils, "_session_token", lambda: ("gcs-a", 1))
    utils.session_memo(cache, "x", lambda: "old", probe=lambda v: v)
    utils.session_memo(cache, "y", lambda: "old", probe=lambda v: v)
    monkeypatch.setattr(utils, "_session_token", lambda: ("gcs-a", 2))
    got = utils.session_memo(cache, "x", lambda: "new", probe=lambda v: v)
    assert got == "new"
    assert "y" not in cache


# ---------------------------------------------------------------------------
# dedup exact-Jaccard verification
# ---------------------------------------------------------------------------


def _jaccard(a, b, k):
    def sh(t):
        w = t.split()
        return {tuple(w[i:i + k]) for i in range(len(w) - k + 1)}

    x, y = sh(a), sh(b)
    return len(x & y) / len(x | y) if x and y else 0.0


def test_jaccard_verify_sets_agrees_with_frame_and_reference():
    from kgray.stages.dedup import (
        jaccard_verify_frame,
        jaccard_verify_sets,
        shingle_hash_sets,
    )

    rng = np.random.RandomState(3)
    vocab = [f"w{i}" for i in range(12)]
    texts = [" ".join(rng.choice(vocab, rng.randint(2, 14))) for _ in range(40)]
    pairs = pd.DataFrame(
        [(i, j) for i in range(40) for j in range(i + 1, 40)],
        columns=["doc_a", "doc_b"],
    )
    pairs["text_a"] = [texts[i] for i in pairs.doc_a]
    pairs["text_b"] = [texts[j] for j in pairs.doc_b]
    k, thr = 2, 0.3
    by_text = jaccard_verify_frame(pairs, thr, k)
    sets = shingle_hash_sets(texts, k)
    with_sets = pairs[["doc_a", "doc_b"]].assign(
        sh_a=[sets[i] for i in pairs.doc_a],
        sh_b=[sets[j] for j in pairs.doc_b],
    )
    by_sets = jaccard_verify_sets(with_sets, thr)
    want = sorted(
        (r.doc_a, r.doc_b)
        for r in pairs.itertuples()
        if _jaccard(r.text_a, r.text_b, k) >= thr
    )
    assert want  # the threshold keeps some pairs and drops others
    assert len(want) < len(pairs)
    assert sorted(zip(by_text.doc_a, by_text.doc_b)) == want
    assert sorted(zip(by_sets.doc_a, by_sets.doc_b)) == want


def test_jaccard_verify_never_pairs_texts_shorter_than_k():
    from kgray.stages.dedup import jaccard_verify_frame

    pairs = pd.DataFrame({"doc_a": [0, 1], "doc_b": [2, 3],
                          "text_a": ["a b", "a b c d"],
                          "text_b": ["a b", "a b c d"]})
    out = jaccard_verify_frame(pairs, 0.5, 3)
    assert list(zip(out.doc_a, out.doc_b)) == [(1, 3)]


# ---------------------------------------------------------------------------
# BEL rendering (vocab) and its parsers
# ---------------------------------------------------------------------------


def test_bel_values_are_quoted_only_when_not_identifiers():
    from kgray.vocab import ENTITY_BY_NAME, bel_term, needs_quotes

    assert not needs_quotes("TP53") and not needs_quotes("HP_1")
    assert needs_quotes("breast carcinoma") and needs_quotes("HP:0012698")
    assert needs_quotes("")
    assert bel_term(ENTITY_BY_NAME["insulin"]) == "p(UP:insulin)"
    assert (bel_term(ENTITY_BY_NAME["breast carcinoma"], "act")
            == 'act(path(MESH:"breast carcinoma"))')


def test_every_relation_rule_round_trips_through_split_statement():
    from kgray.functions.bel import split_statement
    from kgray.vocab import RELATION_RULES, statement_for

    for rule in RELATION_RULES:
        for subj, obj in [("insulin", "breast carcinoma"),
                          ("DNA repair", "AMPK")]:
            stmt, s, rel, o = statement_for(subj, rule.verb, obj)
            assert rel == rule.relation
            assert split_statement(stmt) == (s, rel, o), stmt


def test_unary_terms_split_as_unary_and_keep_their_namespace():
    from kgray.eval.compare import extract_ns_pairs
    from kgray.functions.bel import split_statement
    from kgray.vocab import ENTITY_BY_NAME, unary_term

    stmt = unary_term(ENTITY_BY_NAME["lung neoplasm"])
    assert split_statement(stmt) == (stmt, None, None)
    assert extract_ns_pairs(stmt) == [("MESH", "lung neoplasm")]


def test_extract_ns_pairs_strips_quotes_in_statement_order():
    from kgray.eval.compare import extract_ns_pairs

    stmt = 'p(HGNC:TP53) increases act(path(MESH:"breast carcinoma"))'
    assert extract_ns_pairs(stmt) == [("HGNC", "TP53"),
                                      ("MESH", "breast carcinoma")]


# ---------------------------------------------------------------------------
# generic-corpus adapter, linker blocking, LSH bucketers
# ---------------------------------------------------------------------------


def test_table_to_documents_chunks_words_with_text_offsets():
    from kgray.sources.generic import WORDS_PER_SPAN, doc_key, table_to_documents

    words = [f"t{i}" for i in range(2 * WORDS_PER_SPAN + 5)]
    text = " ".join(words)
    out = table_to_documents(pa.table({
        "doc_id": pa.array([7, 12], pa.int64()), "text": [text, ""],
    }))
    assert out.schema.equals(schemas.DOCUMENTS)
    assert out.column("doc_id").to_pylist() == [doc_key(7), doc_key(12)]
    assert doc_key(7) < doc_key(12) < doc_key(100)
    spans = out.column("spans").to_pylist()[0]
    assert [len(s["text"].split(" ")) for s in spans] == [
        WORDS_PER_SPAN, WORDS_PER_SPAN, 5]
    for s in spans:
        assert text[s["offset"]:s["offset"] + len(s["text"])] == s["text"]
        assert s["kind"] == "text" and s["media_ref"] == ""


def test_block_keys_normalize_case_and_punctuation():
    from kgray.stages.link import block_keys

    assert block_keys("TP-53") == block_keys("tp53") == ["tp|1"]
    assert block_keys("--") == ["_"]
    # the length band caps at 4
    assert block_keys("inflammatory response") == ["in|4"]


def test_filter_nonempty_results_drops_empty_and_null_lists():
    from kgray.stages.edges import filter_nonempty_results

    t = pa.table({
        "span": [0, 1, 2, 3],
        "results": pa.array([["a"], [], None, ["b", "c"]],
                            pa.list_(pa.string())),
    })
    assert filter_nonempty_results(t).column("span").to_pylist() == [0, 3]


def _emb_table(m):
    return pa.table({
        "vec_id": pa.array(np.arange(len(m)), pa.int64()),
        "embedding": pa.array(list(m), pa.list_(pa.float32())),
    })


def test_hyperplane_buckets_are_seeded_and_scale_invariant():
    from kgray.stages.similarity import HyperplaneBucketer

    m = np.random.RandomState(4).standard_normal((64, 16)).astype(np.float32)
    a, b = HyperplaneBucketer(16, 8, seed=5), HyperplaneBucketer(16, 8, seed=5)
    np.testing.assert_array_equal(a.bucket_of(m), b.bucket_of(m))
    np.testing.assert_array_equal(a.bucket_of(m), a.bucket_of(3 * m))
    buckets = a(_emb_table(m)).column("bucket").to_numpy()
    assert ((buckets >= 0) & (buckets < 2**8)).all()
    np.testing.assert_array_equal(buckets, a.bucket_of(m))


def test_multitable_bucketer_emits_one_row_per_table():
    from kgray.stages.similarity import MultiTableBucketer

    m = np.random.RandomState(6).standard_normal((10, 8)).astype(np.float32)
    out = MultiTableBucketer(8, 6, n_tables=3, seed=1)(_emb_table(m))
    assert out.num_rows == 30
    df = out.to_pandas()
    assert sorted(df.groupby("table_id").vec_id.count().tolist()) == [10] * 3
    # tables use independent hyperplanes
    per_table = [g.sort_values("vec_id").bucket.to_numpy()
                 for _, g in df.groupby("table_id")]
    assert not all((p == per_table[0]).all() for p in per_table[1:])


def test_write_corpus_round_trips_the_generated_tables(tmp_path):
    import pyarrow.parquet as pq

    from kgray.corpus import generate_documents, write_corpus

    paths = write_corpus(str(tmp_path / "c"), 6, seed=3)
    tables = dict(zip(["documents", "gold_edges", "gold_unary"],
                      generate_documents(6, 3)))
    assert set(paths) == set(tables)
    for name, want in tables.items():
        assert pq.read_table(paths[name]).equals(want), name
