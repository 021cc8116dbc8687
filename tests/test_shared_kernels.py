"""Direct tests of small shared kernels that tier-1 otherwise reaches
only through whole pipelines: stage schema validation, per-session
memoization, BEL term rendering and the generic-corpus adapter."""
import pyarrow as pa
import pytest

from kgray import schemas, utils


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
# generic-corpus adapter and edge-stage filters
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


def test_filter_nonempty_results_drops_empty_and_null_lists():
    from kgray.stages.edges import filter_nonempty_results

    t = pa.table({
        "span": [0, 1, 2, 3],
        "results": pa.array([["a"], [], None, ["b", "c"]],
                            pa.list_(pa.string())),
    })
    assert filter_nonempty_results(t).column("span").to_pylist() == [0, 3]


def test_write_corpus_round_trips_the_generated_tables(tmp_path):
    import pyarrow.parquet as pq

    from kgray.corpus import generate_documents, write_corpus

    paths = write_corpus(str(tmp_path / "c"), 6, seed=3)
    tables = dict(zip(["documents", "gold_edges", "gold_unary"],
                      generate_documents(6, 3)))
    assert set(paths) == set(tables)
    for name, want in tables.items():
        assert pq.read_table(paths[name]).equals(want), name
