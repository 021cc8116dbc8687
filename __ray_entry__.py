"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported: nothing
here (or in kgray) calls ray.init()/ray.shutdown().

- ``entry()``      — flagship KG pipeline over /root/testdata/sf0.001.
- ``queries()``    — one callable per implemented operator/pipeline
                     (SURVEY.md §2 + the training-data operator suites).
- ``oracle_sql()`` — DuckDB-equivalent SQL for every SQL-expressible query
                     (column names match exactly).  Non-relational ops
                     (LSH internals, language heuristics, checkpointing)
                     are rows-only checked by the driver.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

# ---------------------------------------------------------------------------
# shared SQL fragments — mirror kgray/sources/generic.py exactly
# ---------------------------------------------------------------------------

_VOCAB_SQL = ", ".join(f"'{w}'" for w in __import__("kgray.sources.generic",
                                                    fromlist=["GENERIC_VOCAB"]
                                                    ).GENERIC_VOCAB)

# token → span → admitted-span → vocabulary-annotation → consecutive pairs
_KG_CTE = f"""
WITH tok AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok,
         generate_subscripts(string_split(text, ' '), 1) AS i
  FROM documents
),
tok2 AS (
  SELECT doc_id, tok, i, CAST(floor((i - 1) / 20) AS INT) AS span
  FROM tok
),
spans AS (
  SELECT doc_id, span, string_agg(tok, ' ' ORDER BY i) AS span_text
  FROM tok2 GROUP BY doc_id, span
),
adm AS (SELECT doc_id, span, span_text FROM spans WHERE length(span_text) >= 20),
ann AS (
  SELECT t.doc_id, t.span, t.tok, t.i,
         row_number() OVER (PARTITION BY t.doc_id, t.span ORDER BY t.i) AS r
  FROM tok2 t JOIN adm USING (doc_id, span)
  WHERE t.tok IN ({_VOCAB_SQL})
),
pairs AS (
  SELECT a.doc_id, a.span, a.tok AS ta, b.tok AS tb
  FROM ann a JOIN ann b
    ON a.doc_id = b.doc_id AND a.span = b.span AND b.r = a.r + 1
)
"""


def _fingerprints_rolling_sql() -> str:
    """SQL twin of text_analysis._rolling_min_hash: per 16-byte window,
    h = Σ byteᵢ·B^(15-i) mod 2⁶⁴ (B=1000003) via a char × power-table
    join keyed on the in-window index; unsigned MIN over windows, then
    the engine's sign mask (mod 2⁶³).  Texts of ≤16 bytes hash as one
    whole-text window; empty texts fingerprint 0."""
    B, M, K = 1000003, 1 << 64, 16
    pows = ",".join(f"({j},{pow(B, K - 1 - j, M)})" for j in range(K))
    powse = ",".join(f"({e},{pow(B, e, M)})" for e in range(K))
    return f"""
WITH pows(j, pw) AS (VALUES {pows}),
powse(e, pw) AS (VALUES {powse}),
chars AS (SELECT doc_id, unnest(str_split_regex(text, '')) AS c,
                 generate_subscripts(str_split_regex(text, ''), 1) AS i
          FROM documents),
cv AS (SELECT doc_id, ascii(c) AS v, i FROM chars),
lens AS (SELECT doc_id, length(text) AS n FROM documents),
win AS (
  SELECT c.doc_id, (c.i - p.j) AS w,
         CAST(SUM(CAST(c.v AS HUGEINT) * p.pw) % {M} AS UBIGINT) AS h
  FROM cv c CROSS JOIN pows p
  JOIN lens l ON l.doc_id = c.doc_id
  WHERE c.i - p.j >= 1 AND c.i - p.j <= l.n - {K - 1}
  GROUP BY c.doc_id, w
),
long_min AS (SELECT doc_id, MIN(h) AS h FROM win GROUP BY doc_id),
short_h AS (
  SELECT c.doc_id,
         CAST(SUM(CAST(c.v AS HUGEINT) * pe.pw) % {M} AS UBIGINT) AS h
  FROM cv c
  JOIN lens l ON l.doc_id = c.doc_id
  JOIN powse pe ON pe.e = l.n - c.i
  WHERE l.n <= {K} AND l.n >= 1
  GROUP BY c.doc_id
)
SELECT d.doc_id,
       CAST(COALESCE(lm.h, sh.h, 0) % 9223372036854775808 AS BIGINT)
         AS fp_rolling
FROM documents d
LEFT JOIN long_min lm ON lm.doc_id = d.doc_id
LEFT JOIN short_h sh ON sh.doc_id = d.doc_id
"""


def _simhash_portable_sql() -> str:
    """Full from-text recomputation of the portable-hash SimHash pairs in
    ANSI SQL: polynomial-31 token hash (inlined 31^i mod 2^64 power
    table), splitmix64 finalizer (64-bit modular multiplication split
    into 32-bit halves so INT128 never overflows), per-(doc, bit) vote
    sums, sign-split signature halves, and brute-force pair XOR +
    bit_count — the oracle twin of stages/dedup.portable_token_hash +
    simhash_near_dup_pairs(token_hash=portable_token_hash)."""
    M = 1 << 64
    SMC = 0x9E3779B97F4A7C15
    SM1 = 0xBF58476D1CE4E5B9
    SM2 = 0x94D049BB133111EB

    def mulmod(var: str, c: int) -> str:
        lo, hi = c & 0xFFFFFFFF, c >> 32
        return (
            f"CAST((CAST({var} AS HUGEINT) * {lo} + "
            f"((CAST({var} AS HUGEINT) * {hi}) % 4294967296) * 4294967296)"
            f" % {M} AS UBIGINT)"
        )

    pows = ",".join(f"({i},{pow(31, i, M)})" for i in range(256))
    return f"""
WITH pows(i, pw) AS (VALUES {pows}),
tok AS (SELECT doc_id, unnest(string_split(text, ' ')) AS tok
        FROM documents),
ut AS (SELECT DISTINCT tok FROM tok),
chars AS (SELECT tok, unnest(str_split_regex(tok, '')) AS ch,
                 generate_subscripts(str_split_regex(tok, ''), 1) AS i
          FROM ut),
th0 AS (SELECT c.tok,
        CAST(SUM(CAST(ascii(c.ch) AS HUGEINT) * p.pw) % {M} AS UBIGINT)
          AS h
        FROM chars c JOIN pows p ON p.i = length(c.tok) - c.i
        GROUP BY c.tok),
s1 AS (SELECT tok, CAST((CAST(h AS HUGEINT) + {SMC}) % {M} AS UBIGINT)
              AS z FROM th0),
s2 AS (SELECT tok, xor(z, z >> 30) AS z FROM s1),
s3 AS (SELECT tok, {mulmod('z', SM1)} AS z FROM s2),
s4 AS (SELECT tok, xor(z, z >> 27) AS z FROM s3),
s5 AS (SELECT tok, {mulmod('z', SM2)} AS z FROM s4),
th AS (SELECT tok, xor(z, z >> 31) AS h FROM s5),
bitpos AS (SELECT unnest(range(64)) AS b),
votes AS (SELECT t.doc_id, bp.b,
          SUM(CASE WHEN (th.h >> bp.b) & 1 = 1 THEN 1 ELSE -1 END) AS v
          FROM tok t JOIN th ON th.tok = t.tok CROSS JOIN bitpos bp
          GROUP BY t.doc_id, bp.b),
sig AS (SELECT doc_id,
        CAST(SUM(CASE WHEN v > 0 AND b < 32
                 THEN CAST(1 AS HUGEINT) << b ELSE 0 END) AS BIGINT)
          AS lo,
        CAST(SUM(CASE WHEN v > 0 AND b >= 32
                 THEN CAST(1 AS HUGEINT) << (b - 32) ELSE 0 END) AS BIGINT)
          AS hi
        FROM votes GROUP BY doc_id)
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
       CAST(bit_count(xor(a.lo, b.lo)) + bit_count(xor(a.hi, b.hi))
            AS BIGINT) AS hamming
FROM sig a JOIN sig b ON a.doc_id < b.doc_id
WHERE bit_count(xor(a.lo, b.lo)) + bit_count(xor(a.hi, b.hi)) <= 3
"""


def entry() -> Any:
    """Flagship: generic-corpus KG pipeline over sf0.001 → edges Dataset."""
    from kgray.pipelines.kg import run_kg_pipeline
    from kgray.sources.generic import generic_documents_dataset, generic_kg_config

    docs = generic_documents_dataset("/root/testdata/sf0.001")
    res = run_kg_pipeline(docs, generic_kg_config())
    return res.edges


# ---------------------------------------------------------------------------
# query implementations
# ---------------------------------------------------------------------------

_KG_CACHE: dict = {}


def _kg_result(sf_dir: str):
    """KG pipeline result for ``sf_dir``, memoized per Ray session.

    A dozen downstream queries (edges/nodes/urls, every graph
    algorithm) share the same deterministic extraction prefix; without
    the memo each one re-runs the LLM/annotation stages from scratch.
    The shared tables are materialized ONCE (they are KG-sized —
    entity/edge rows, not corpus-sized) and reused; utils.session_memo
    evicts on session change and block-probes hits, so datasets never
    outlive the object store that holds their blocks.
    """
    from kgray.pipelines.kg import run_kg_pipeline
    from kgray.sources.generic import generic_documents_dataset, generic_kg_config
    from kgray.utils import session_memo

    def build():
        docs = generic_documents_dataset(sf_dir)
        res = run_kg_pipeline(docs, generic_kg_config())
        res.edges = res.edges.materialize()
        res.nodes = res.nodes.materialize()
        res.annotation_urls = res.annotation_urls.materialize()
        return res

    return session_memo(
        _KG_CACHE, sf_dir, build, probe=lambda r: r.edges.take(1)
    )


def _q_kg_edges(sf_dir: str):
    return _kg_result(sf_dir).edges.select_columns(
        ["doc_id", "span_seq", "subj", "pred", "obj"]
    )


def _q_kg_edge_evidence(sf_dir: str):
    from kgray.stages.graph import consolidate_edges

    return consolidate_edges(
        _kg_result(sf_dir).edges.select_columns(
            ["doc_id", "subj", "pred", "obj"]
        )
    )


def _q_kg_nodes(sf_dir: str):
    return _kg_result(sf_dir).nodes.select_columns(
        ["name", "label", "type", "url"]
    )


def _q_kg_annotation_urls(sf_dir: str):
    from kgray.utils import coarse_grouped_map

    # distinct (entry_name, url): per-batch drop_duplicates combiner, one
    # entry_name-keyed coarse reduce — not a per-group map over
    # vocabulary-many groups (r2 verdict minor #5)
    urls = _kg_result(sf_dir).annotation_urls.select_columns(
        ["entry_name", "url"]
    )

    def _distinct_partial(df):
        return df.drop_duplicates()

    return coarse_grouped_map(
        urls.map_batches(
            _distinct_partial, batch_format="pandas", batch_size=None
        ),
        "entry_name",
        _distinct_partial,
        num_partitions=4,
    )


def _q_chunk_spans(sf_dir: str):
    from kgray.sources.generic import generic_documents_dataset
    from kgray.stages.chunk import explode_spans

    chunks = generic_documents_dataset(sf_dir).map_batches(
        explode_spans, batch_format="pyarrow"
    )
    return chunks.select_columns(["doc_id", "span_seq", "text", "admitted"])


def _q_kg_subgraph(sf_dir: str, k: int = 2):
    """GraphRAG retrieval: k-hop neighborhood of a deterministic seed
    entity over the evidence-keyed edge table — the engine-side
    equivalent of the reference's NDEx
    ``get_neighborhood(network, query_string, search_depth=k)`` call
    (examples/bel_graph_rag.ipynb)."""
    import pandas as pd
    import ray.data

    from kgray.stages.subgraph import khop_subgraph

    edges = _kg_result(sf_dir).edges.select_columns(
        ["doc_id", "span_seq", "subj", "pred", "obj"]
    )
    # deterministic seed: lexicographically smallest subject entity
    # (scalar reduce — one min per block, tiny driver finish)
    mins = edges.map_batches(
        lambda df: pd.DataFrame({"m": [df.subj.min()]})
        if len(df) else pd.DataFrame({"m": pd.Series([], dtype="object")}),
        batch_format="pandas",
        batch_size=None,
    ).to_pandas()
    if mins.empty:
        # a NaN seed would fail later, obscurely, in the string-keyed BFS
        raise ValueError(
            "kg_subgraph needs a seed entity, but the edge table is empty"
        )
    seeds = ray.data.from_pandas(pd.DataFrame({"node": [mins.m.min()]}))
    return khop_subgraph(edges, seeds, k=k)


def _q_kg_subgraph_prompt(sf_dir: str):
    """GraphRAG prompt assembly: the retrieved subgraph's statements +
    supporting evidence flattened into the newline-joined knowledge-graph
    block the reference feeds its review prompt
    (bel_graph_rag.ipynb ``knowledge_graph += bel_expression``).
    k=1, the notebook's own ``search_depth=1`` — the seed's incident
    edges — which also keeps the prompt collection inside the
    assemble_prompt guard at bench scale."""
    import pandas as pd

    from kgray.sources.generic import generic_documents_dataset
    from kgray.stages.chunk import explode_spans
    from kgray.stages.subgraph import assemble_prompt, subgraph_evidence

    sub = _q_kg_subgraph(sf_dir, k=1)
    chunks = generic_documents_dataset(sf_dir).map_batches(
        explode_spans, batch_format="pyarrow"
    ).select_columns(["doc_id", "span_seq", "text"])
    prompt = assemble_prompt(subgraph_evidence(sub, chunks))
    return pd.DataFrame({"prompt": [prompt]})


def _q_token_count(sf_dir: str):
    import os

    import ray.data

    from kgray.stages.text_analysis import token_count

    return ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(token_count, batch_format="pyarrow")


def _q_text_quality(sf_dir: str):
    import os

    import ray.data

    from kgray.stages.text_analysis import text_quality

    return ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(text_quality, batch_format="pyarrow")


def _q_token_count_bpe(sf_dir: str):
    import os

    import ray.data

    from kgray.stages.text_analysis import token_count_bpe

    return ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(token_count_bpe, batch_format="pyarrow")


def _q_lang_id(sf_dir: str):
    import os

    import ray.data

    from kgray.stages.text_analysis import LangId, lang_pool

    return ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(LangId, batch_format="pyarrow", concurrency=lang_pool())


def _q_fingerprints(sf_dir: str):
    import os

    import ray.data

    from kgray.stages.text_analysis import fingerprint

    return ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(fingerprint, batch_format="pyarrow")


def _q_fingerprints_rolling(sf_dir: str):
    """The content-defined rolling fingerprint alone (doc_id,
    fp_rolling): minimum Rabin-Karp hash over all 16-byte windows, base
    1000003 mod 2^64, sign-masked — fully recomputable in SQL (windowed
    power-table dot products + unsigned MIN), promoting the rolling half
    of the fingerprint lane to a hash-exact oracle.  fp_crc stays
    rows-only: DuckDB has no crc32.  ASCII corpus assumption (bytes ==
    codepoints), same as the kwic oracle."""
    import os

    import ray.data

    from kgray.stages.text_analysis import fingerprint

    return (
        ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "text"],
        )
        .map_batches(fingerprint, batch_format="pyarrow")
        .select_columns(["doc_id", "fp_rolling"])
    )


def _q_dedup_exact(sf_dir: str):
    import os

    import ray.data

    from kgray.stages.dedup import exact_dedup

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return exact_dedup(docs)


def _q_minhash_near_dup(sf_dir: str):
    import os

    import ray.data

    from kgray.stages.dedup import _bounded_shuffle_width, minhash_lsh_pairs

    # size the read itself to the shuffle width: the pipeline can then
    # skip its coalescing repartition (one fewer full-corpus barrier)
    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"],
        override_num_blocks=_bounded_shuffle_width(None),
    )
    return minhash_lsh_pairs(docs, threshold=0.5, shuffle_blocks=0)


def _q_near_dup_dedup(sf_dir: str):
    """Keep-one-per-near-dup-cluster: (doc_id, rep_id) with rep = min doc
    in the Jaccard>=0.5 connected component."""
    import os

    import ray.data

    from kgray.stages.dedup import near_dup_groups

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return near_dup_groups(docs, threshold=0.5)


def _q_jaccard_pairs(sf_dir: str):
    """EXACT word-3-gram Jaccard similarity join (recall 1.0 — the
    ground-truth path next to the LSH-bounded minhash_near_dup; both
    share one oracle)."""
    import os

    import ray.data

    from kgray.stages.dedup import jaccard_pairs_exact

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return jaccard_pairs_exact(docs, threshold=0.5)


def _q_train_val_split(sf_dir: str):
    from kgray.pipelines.curate import train_val_split

    return train_val_split(sf_dir)


def _q_simhash_pairs(sf_dir: str):
    """SimHash near-dup pairs (banded blocking, recall-guaranteed for
    hamming <= bands-1; signatures not SQL-computable — rows-only)."""
    import os

    import ray.data

    from kgray.stages.dedup import simhash_near_dup_pairs

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return simhash_near_dup_pairs(docs, max_hamming=3)


def _q_substring_dup_spans(sf_dir: str):
    """Exact duplicated-substring detection (Lee et al. 2022 suffix-window
    dedup): per-document count of duplicated 8-token windows and their
    merged token coverage.  Hash-pruned candidates, exact gram-string
    verification, doc-keyed interval merge."""
    import os

    import ray.data

    from kgray.stages.dedup import duplicate_window_spans

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return duplicate_window_spans(docs, k=8)


def _q_curate_corpus(sf_dir: str):
    """Composite curation pipeline: language+token admission filter →
    exact dedup → near-dup keep-one; returns (doc_id, n_tokens) of the
    surviving documents."""
    from kgray.pipelines.curate import curate_corpus

    return curate_corpus(sf_dir)


def _q_simhash(sf_dir: str):
    import os

    import ray.data

    from kgray.stages.dedup import simhash_signatures

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return simhash_signatures(docs).select_columns(["doc_id", "simhash"])


def _q_simhash_pairs_portable(sf_dir: str):
    """SimHash near-dup pairs over the SQL-portable token hash
    (polynomial-31 + splitmix64): the same banded recall-guaranteed
    pipeline as simhash_pairs, but with signatures an ANSI-SQL oracle
    recomputes from the raw text — promoting the simhash lane from
    rows-only to value-hash-exact (r4 verdict ask #7)."""
    import os

    import ray.data

    from kgray.stages.dedup import portable_token_hash, simhash_near_dup_pairs

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return simhash_near_dup_pairs(
        docs, max_hamming=3, token_hash=portable_token_hash
    )


def _q_events_quantiles_approx_check(sf_dir: str):
    """HASH-EXACT certificate for the histogram-sketch quantiles: the
    sketch's selected bin is, by construction, exactly the bin
    containing the ceil(q·n)-th order statistic (searchsorted over
    integer cumulative counts ≥ q·n ⟺ rank ≥ ceil(q·n)) — a
    deterministic function of the data the SQL oracle recomputes from
    the raw values via a windowed rank, promoting the approx-quantile
    lane from rows-only to value-hash-exact (r4 verdict ask #7)."""
    from kgray.pipelines.relational import events_value_quantiles_approx

    return events_value_quantiles_approx(sf_dir, emit="bin")


def _q_events_distinct_hll_check(sf_dir: str):
    """Error-bound certificate for the HLL distinct-user sketch: the
    sketch estimate is compared against the DISTRIBUTED exact distinct
    count; rows carry (exact count, within_bound at 5σ of the b=10
    standard error) and the oracle recomputes the exact counts and
    asserts TRUE (r4 verdict ask #7)."""
    import pandas as pd

    from kgray.pipelines.relational import (
        events_distinct_users,
        events_distinct_users_hll,
    )

    exact = events_distinct_users(sf_dir).to_pandas()
    approx = events_distinct_users_hll(sf_dir).to_pandas()
    m = exact.merge(approx, on="event_type")
    # 5 sigma of the b=10 HLL standard error (1.04/sqrt(1024) ≈ 3.25%)
    tol = (0.1625 * m.n_users).clip(lower=5)
    m["within_bound"] = (m.n_users_approx - m.n_users).abs() <= tol
    return pd.DataFrame(
        {
            "event_type": m.event_type,
            "n_users": m.n_users,
            "within_bound": m.within_bound,
        }
    )


def _load_queries(sf_dir: str, n: int = 10):
    import os

    import numpy as np
    import pyarrow.parquet as pq

    # only the n query rows reach the driver: predicate pushed into the
    # parquet read (row-group pruning), never a full read of an
    # sf-scaling table
    t = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", n)],
    )
    vid = np.asarray(t.column("vec_id").to_pylist())
    emb = np.asarray(t.column("embedding").to_pylist(), dtype=np.float64)
    return emb, vid


def _q_knn_cosine(sf_dir: str):
    import os

    import ray.data

    from kgray.stages.similarity import knn_cosine

    emb = ray.data.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
    )
    qm, qids = _load_queries(sf_dir)
    return knn_cosine(emb, qm, qids, k=5)


def _q_knn_filtered(sf_dir: str):
    import os

    import numpy as np
    import pyarrow.parquet as pq
    import ray.data

    from kgray.stages.similarity import knn_cosine_filtered

    # query rows only — predicate pushed into the driver-side read
    t = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding", "label"],
        filters=[("vec_id", "<", 10)],
    )
    vid = np.asarray(t.column("vec_id").to_pylist())
    emb = np.asarray(t.column("embedding").to_pylist(), dtype=np.float64)
    lab = np.asarray(t.column("label").to_pylist(), dtype=object)
    corpus = ray.data.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding", "label"],
    )
    return knn_cosine_filtered(corpus, emb, vid, lab, k=5)


def _q_knn_lsh(sf_dir: str):
    import os

    import ray.data

    from kgray.stages.similarity import knn_lsh

    emb = ray.data.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
    )
    qm, qids = _load_queries(sf_dir)
    return knn_lsh(emb, qm, qids, k=5)


def _q_knn_ivf(sf_dir: str):
    """IVF approximate kNN (rows-only: recall < 1 by construction; the
    pytest asserts recall >= 0.9 vs exact on the same table)."""
    import os

    import ray.data

    from kgray.stages.similarity import knn_ivf

    emb = ray.data.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
    )
    qm, qids = _load_queries(sf_dir)
    return knn_ivf(emb, qm, qids, k=5, n_centroids=32, n_probe=8)


def _q_embedding_near_dup(sf_dir: str):
    import os

    import ray.data

    from kgray.stages.similarity import embedding_near_dup_pairs

    emb = ray.data.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
    )
    return embedding_near_dup_pairs(emb, threshold=0.45)


def _q_embedding_near_dup_exact(sf_dir: str):
    """Ground-truth cosine-threshold pairs (no LSH, no misses)."""
    import os

    import ray.data

    from kgray.stages.similarity import embedding_pairs_exact

    emb = ray.data.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
    )
    return embedding_pairs_exact(emb, threshold=0.45)


def _q_kg_synthetic_parity(sf_dir: str):
    """Reference-semantics pipeline on the synthetic corpus; returns per-doc
    triple precision/recall vs the construction-time gold (self-checking;
    no SQL equivalent — the reference's eval-harness analogue)."""
    import pandas as pd
    import ray.data

    from kgray.corpus import generate_documents
    from kgray.eval.compare import triple_prf
    from kgray.pipelines.kg import run_kg_pipeline

    docs, gold, _ = generate_documents(120, seed=42)
    res = run_kg_pipeline(ray.data.from_arrow(docs))
    e = res.edges.to_pandas()
    got = {}
    for r in e.itertuples():
        got.setdefault(r.doc_id, set()).add((r.subj, r.pred, r.obj))
    want = {}
    g = gold.to_pandas()
    for r in g.itertuples():
        want.setdefault(r.doc_id, set()).add((r.subj, r.pred, r.obj))
    rows = []
    for d in sorted(set(got) | set(want)):
        p, r_, f1 = triple_prf(got.get(d, set()), want.get(d, set()))
        rows.append(
            {"doc_id": d, "n_got": len(got.get(d, set())),
             "n_gold": len(want.get(d, set())),
             "precision": p, "recall": r_}
        )
    return pd.DataFrame(rows)


def _q_kg_eval_matcher(sf_dir: str):
    """Statement-matching eval harness (bel_parser semantics): pipeline
    edges vs construction-gold statements, per document (rows-only)."""
    import pyarrow as pa
    import ray.data

    from kgray.corpus import generate_documents
    from kgray.eval.matcher import match_edge_datasets
    from kgray.pipelines.kg import run_kg_pipeline

    docs, gold, _ = generate_documents(60, seed=42)
    res = run_kg_pipeline(ray.data.from_arrow(docs))
    g = gold.to_pandas()
    g["bel_expression"] = g.subj + " " + g.pred + " " + g.obj
    gold_ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(g.doc_id, pa.string()),
                "bel_expression": pa.array(g.bel_expression, pa.string()),
            }
        )
    )
    return match_edge_datasets(res.edges, gold_ds)


def _q_entity_faithfulness(sf_dir: str):
    """compare_annotations.py semantics: every ns:value in an emitted
    statement must be grounded in the span's annotations (rows-only)."""
    import pandas as pd
    import ray.data

    from kgray.corpus import generate_documents
    from kgray.eval.compare import entity_faithfulness
    from kgray.pipelines.kg import run_extractions

    docs, _, _ = generate_documents(60, seed=42)
    ext = run_extractions(ray.data.from_arrow(docs))

    def per_batch(batch):
        rows = {"doc_id": [], "correct": [], "manufactured": [],
                "wrong_namespace": [], "total": []}
        for did, res, anns in zip(
            batch.column("doc_id").to_pylist(),
            batch.column("results").to_pylist(),
            batch.column("annotations").to_pylist(),
        ):
            if not res:
                continue
            score = entity_faithfulness(
                [r["bel_statement"] for r in res], anns or []
            )
            rows["doc_id"].append(did)
            for k in ("correct", "manufactured", "wrong_namespace", "total"):
                rows[k].append(score[k])
        return pd.DataFrame(rows)

    from ray.data.aggregate import Sum

    return (
        ext.map_batches(per_batch, batch_format="pyarrow")
        .groupby("doc_id")
        .aggregate(
            Sum("correct", alias_name="correct"),
            Sum("manufactured", alias_name="manufactured"),
            Sum("wrong_namespace", alias_name="wrong_namespace"),
            Sum("total", alias_name="total"),
        )
    )


def _q_media_features(sf_dir: str):
    """Multimodal plumbing: media spans → decoded metadata (rows-only)."""
    import ray.data

    from kgray.corpus import generate_documents
    from kgray.stages.chunk import explode_spans
    from kgray.stages.multimodal import decode_media

    docs, _, _ = generate_documents(80, seed=42)
    chunks = ray.data.from_arrow(docs).map_batches(
        explode_spans, batch_format="pyarrow"
    )
    return decode_media(chunks).select_columns(
        ["doc_id", "span_seq", "media_ref", "width", "height",
         "unsupported"]
    )


def _q_media_real_decode(sf_dir: str):
    """REAL pure-python media decode (rows-only): a deterministic
    synthetic corpus of PNG images and WAV clips decodes through the
    strict MediaDecoder actor pool — pixel dims / sample counts and
    content-derived features, no fakes anywhere on this path."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from kgray.sources import minimedia as mm
    from kgray.stages.multimodal import MediaDecoder

    rows = {"doc_id": [], "span_seq": [], "media_ref": [], "payload": []}
    for i in range(48):
        rng = np.random.RandomState(1000 + i)
        if i % 2 == 0:
            h, w = 8 + (i % 5) * 4, 12 + (i % 7) * 4
            img = rng.randint(0, 256, (h, w, 3), dtype=np.uint8)
            payload = mm.encode_png(img)
            ref = f"mem://img{i}"
        else:
            n = 4000 + (i % 9) * 500
            sig = 0.3 * np.sin(
                2 * np.pi * (200 + 20 * i)
                * np.arange(n, dtype=np.float32) / 8000.0
            )
            payload = mm.encode_wav(sig, 8000)
            ref = f"mem://aud{i}"
        rows["doc_id"].append(f"m{i:03d}")
        rows["span_seq"].append(0)
        rows["media_ref"].append(ref)
        rows["payload"].append(payload)
    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(rows["doc_id"], pa.string()),
                "span_seq": pa.array(rows["span_seq"], pa.int32()),
                "media_ref": pa.array(rows["media_ref"], pa.string()),
                "payload": pa.array(rows["payload"], pa.binary()),
            }
        )
    ).repartition(4)
    out = ds.map_batches(
        MediaDecoder,
        batch_format="pyarrow",
        batch_size=16,
        concurrency=(1, 2),
        num_cpus=1,
        fn_constructor_kwargs={"strict": True},
    )

    def flatten(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        f0 = pc.round(
            pc.list_element(batch.column("feature"), 0), ndigits=5
        )
        return pa.table(
            {
                "media_ref": batch.column("media_ref"),
                "width": batch.column("width"),
                "height": batch.column("height"),
                "feat0": pc.cast(f0, pa.float64()),
            }
        )

    return out.map_batches(flatten, batch_format="pyarrow")


def _q_media_gate_stats(sf_dir: str):
    """Per-reason counts of codec-gated media assets (rows-only): real
    PNG/WAV payloads decode ('decoded'), an arithmetic-coded JPEG and a
    payload-less ref hit their gates — the corpus report a 100-TB run
    publishes next to its media features (r3 verdict ask #7)."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from kgray.sources import minimedia as mm
    from kgray.stages.multimodal import MediaDecoder, unsupported_media_stats

    rng = np.random.RandomState(77)
    png = mm.encode_png(rng.randint(0, 256, (8, 8, 3), dtype=np.uint8))
    wav = mm.encode_wav(
        0.2 * np.sin(np.arange(2000, dtype=np.float32) / 5.0), 8000
    )
    sof9 = bytes([0xFF, 0xD8, 0xFF, 0xC9, 0x00, 0x0B,
                  8, 0, 8, 0, 8, 1, 1, 0x11, 0])  # arithmetic-coded gate
    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(["a", "b", "c", "d"], pa.string()),
                "span_seq": pa.array([0, 0, 0, 0], pa.int32()),
                "media_ref": pa.array(
                    ["mem://png", "mem://wav", "mem://ajpeg",
                     "s3://missing"],
                    pa.string(),
                ),
                "payload": pa.array([png, wav, sof9, None], pa.binary()),
            }
        )
    ).repartition(2)
    decoded = ds.map_batches(
        MediaDecoder, batch_format="pyarrow", batch_size=8,
        concurrency=(1, 2), num_cpus=1,
    )
    return unsupported_media_stats(decoded)


class _GatedStub:
    """Stub backend that permanently fails on paragraphs mentioning a
    marker entity — drives the retry-then-quarantine path
    deterministically for the extract_errors query."""

    def __init__(self, marker: str = "HSF1"):
        from kgray.stages.extract import StubBackend

        self._inner = StubBackend()
        self._marker = marker

    def extract_batch(self, texts, annotations):
        if any(self._marker in t for t in texts):
            raise RuntimeError(f"backend down for {self._marker}")
        return self._inner.extract_batch(texts, annotations)


def _q_extract_errors(sf_dir: str):
    """The lineage-bearing extraction ERRORS TABLE (rows-only): a backend
    that permanently fails on one entity's paragraphs quarantines exactly
    those (doc_id, span_seq) rows after bounded retries; everything else
    extracts normally (r3 verdict ask #6)."""
    import ray.data

    from kgray.corpus import generate_documents
    from kgray.pipelines.kg import KGConfig, run_extractions
    from kgray.stages.extract import extraction_errors

    docs, _, _ = generate_documents(30, seed=42)
    cfg = KGConfig(backend=_GatedStub())
    ext = run_extractions(ray.data.from_arrow(docs), cfg)
    return extraction_errors(ext).select_columns(
        ["doc_id", "span_seq", "extract_error"]
    )


def _q_graph_summaries(sf_dir: str):
    """Per-document CX2 assembly + metadata naming (rows-only)."""
    import ray.data

    from kgray.corpus import generate_documents
    from kgray.pipelines.kg import run_kg_pipeline
    from kgray.sources.metadata import name_graphs
    from kgray.stages.graph import build_document_graphs

    docs, _, _ = generate_documents(40, seed=42)
    res = run_kg_pipeline(ray.data.from_arrow(docs))
    graphs = build_document_graphs(res.edges, res.unary_nodes, res.annotation_urls)
    return name_graphs(graphs).select_columns(
        ["doc_id", "n_nodes", "n_edges", "pmid", "journal", "network_name"]
    )


def _q_checkpoint_lineage(sf_dir: str):
    """Full-pipeline lineage manifests (rows-only; deterministic fields
    only): one row per (stage, partition) across extraction, the BEL
    parse (graph_prep), global node canonicalization, and the CX2 graph
    sink — every stage of the resumable pipeline accounted for."""
    import json
    import os
    import shutil
    import tempfile

    import pandas as pd
    import ray.data

    from kgray.corpus import generate_documents
    from kgray.pipelines.checkpoint import run_checkpointed_kg

    docs, _, _ = generate_documents(40, seed=42)
    d = tempfile.mkdtemp(prefix="kgray_ckpt_q_")
    try:
        run_checkpointed_kg(ray.data.from_arrow(docs), d, num_partitions=8)
        mans = []
        mdir = os.path.join(d, "manifests")
        for name in sorted(os.listdir(mdir)):
            if name.endswith(".json"):
                with open(os.path.join(mdir, name)) as f:
                    mans.append(json.load(f))
    finally:
        shutil.rmtree(d, ignore_errors=True)
    return pd.DataFrame(
        [
            {
                "stage": m["stage"],
                "partition_id": m.get("partition_id", -1),
                "status": m["status"],
                "n_docs": m.get("n_docs", 0),
                "n_spans": m.get("n_spans", 0),
                "n_statements": m.get("n_statements", 0),
                "n_edges": m.get("n_edges", 0),
                "n_nodes": m.get("n_nodes", 0),
                "n_graphs": m.get("n_graphs", 0),
                "input_fingerprint": m.get("input_fingerprint", ""),
            }
            for m in mans
        ]
    ).sort_values(["stage", "partition_id"]).reset_index(drop=True)


def _q_doc_quarantine(sf_dir: str):
    """Doc-id validation with row quarantine instead of abort (rows-only)."""
    import pyarrow as pa
    import ray.data

    from kgray.corpus import generate_documents
    from kgray.sources.metadata import split_valid_documents

    docs, _, _ = generate_documents(30, seed=42)
    # plant invalid ids among valid ones
    bad = pa.table(
        {
            "doc_id": pa.array(["bogus-1", "pmc77", "PMCxyz"], pa.string()),
            "spans": pa.array([[], [], []], docs.schema.field("spans").type),
        }
    )
    ds = ray.data.from_arrow(pa.concat_tables([docs, bad]))
    valid, quarantined = split_valid_documents(ds)
    import pandas as pd

    return pd.DataFrame(
        {
            "n_valid": [valid.count()],
            "n_quarantined": [quarantined.count()],
        }
    )


def _q_entity_linking(sf_dir: str):
    """Embedding-based entity linking with candidate blocking (rows-only):
    mentions (incl. case variants) → best KB entity + score."""
    import pyarrow as pa
    import ray.data

    from kgray.stages.link import link_mentions
    from kgray.vocab import ENTITIES

    mentions = []
    for e in ENTITIES:
        mentions += [e.entry_name, e.entry_name.lower(),
                     e.entry_name.upper()]
    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(
                    [f"M{i}" for i in range(len(mentions))], pa.string()
                ),
                "span_seq": pa.array([0] * len(mentions), pa.int32()),
                "mention": pa.array(mentions, pa.string()),
            }
        )
    )
    return link_mentions(ds, min_score=0.5)


def _q_surface_clusters(sf_dir: str):
    """Minhash + connected-components surface-form canonicalization
    (rows-only): node names + planted variants → cluster mapping."""
    import pyarrow as pa
    import ray.data

    from kgray.stages.cluster import cluster_surface_forms
    from kgray.vocab import ENTITIES

    names = []
    for e in ENTITIES[:20]:
        names += [e.entry_name, e.entry_name.lower(),
                  e.entry_name.replace("1", "-1")]
    ds = ray.data.from_arrow(pa.table({"name": sorted(set(names))}))
    return cluster_surface_forms(ds, threshold=0.55)


def _q_pricing_summary(sf_dir: str):
    from kgray.pipelines.relational import pricing_summary

    return pricing_summary(sf_dir)


def _q_revenue_by_nation(sf_dir: str):
    from kgray.pipelines.relational import revenue_by_nation

    return revenue_by_nation(sf_dir)


def _q_top_parts(sf_dir: str):
    from kgray.pipelines.relational import top_parts_by_revenue

    return top_parts_by_revenue(sf_dir, k=10)


def _q_events_hourly(sf_dir: str):
    from kgray.pipelines.relational import events_hourly

    return events_hourly(sf_dir)


def _q_events_sessions(sf_dir: str):
    from kgray.pipelines.relational import events_sessions

    return events_sessions(sf_dir, gap_minutes=30)


def _q_supplier_balance(sf_dir: str):
    from kgray.pipelines.relational import supplier_balance_stats

    return supplier_balance_stats(sf_dir)


def _q_media_video_real(sf_dir: str):
    """REAL video frame sampling (rows-only): a deterministic synthetic
    corpus of MJPEG-AVI containers probes (avih header → true duration)
    and frame-samples (only the PICKED frames' byte ranges decode via
    the vendored JPEG codec) through the strict actor pools — no fake
    kernels anywhere on this path."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from kgray.sources import minimedia as mm
    from kgray.stages.multimodal import FrameSampler, MediaProber

    rows = {"doc_id": [], "span_seq": [], "media_ref": [], "payload": []}
    for i in range(12):
        rng = np.random.RandomState(4000 + i)
        n_frames = 6 + (i % 5) * 3
        h, w = 8 + (i % 3) * 8, 16 + (i % 4) * 8
        base = rng.randint(0, 256, (h, w, 3), dtype=np.uint8)
        frames = [
            np.clip(
                base.astype(np.int32) + k * 7 - 20, 0, 255
            ).astype(np.uint8)
            for k in range(n_frames)
        ]
        rows["doc_id"].append(f"v{i:03d}")
        rows["span_seq"].append(0)
        rows["media_ref"].append(f"mem://vid{i}.avi")
        rows["payload"].append(
            mm.encode_avi_mjpeg(frames, fps=4 + (i % 3) * 2)
        )
    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(rows["doc_id"], pa.string()),
                "span_seq": pa.array(rows["span_seq"], pa.int32()),
                "media_ref": pa.array(rows["media_ref"], pa.string()),
                "payload": pa.array(rows["payload"], pa.binary()),
            }
        )
    ).repartition(4)
    probed = ds.map_batches(
        MediaProber, batch_format="pyarrow", batch_size=4,
        concurrency=(1, 2), num_cpus=1,
        fn_constructor_kwargs={"strict": True},
    )
    sampled = probed.map_batches(
        FrameSampler, batch_format="pyarrow", batch_size=4,
        concurrency=(1, 2), num_cpus=1,
        fn_constructor_kwargs={
            "interval_ms": 250, "max_frames": 6, "strict": True,
        },
    )

    def project(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        f0 = pc.round(
            pc.list_element(batch.column("feature"), 0), ndigits=5
        )
        return pa.table(
            {
                "media_ref": batch.column("media_ref"),
                "frame_idx": batch.column("frame_idx"),
                "ts_ms": batch.column("ts_ms"),
                "feat0": pc.cast(f0, pa.float64()),
            }
        )

    return sampled.map_batches(project, batch_format="pyarrow")


def _q_media_frames(sf_dir: str):
    """Video frame sampling over the synthetic interleaved corpus' media
    spans (rows-only: modality/duration are probe-derived, non-SQL)."""
    import ray.data

    from kgray.corpus import generate_documents
    from kgray.stages.chunk import explode_spans
    from kgray.stages.multimodal import sample_video_frames

    docs, _, _ = generate_documents(60, seed=13)
    chunks = ray.data.from_arrow(docs).map_batches(
        explode_spans, batch_format="pyarrow"
    )
    return sample_video_frames(chunks, interval_ms=1000, max_frames=8)


def _q_customers_semi(sf_dir: str):
    from kgray.pipelines.relational import customers_with_high_value_orders

    return customers_with_high_value_orders(sf_dir)


def _q_customers_anti(sf_dir: str):
    from kgray.pipelines.relational import (
        customers_without_high_value_orders,
    )

    return customers_without_high_value_orders(sf_dir)


def _q_customer_left_counts(sf_dir: str):
    from kgray.pipelines.relational import customer_high_value_counts

    return customer_high_value_counts(sf_dir)


def _q_events_rolling(sf_dir: str):
    from kgray.pipelines.relational import events_rolling

    return events_rolling(sf_dir)


def _q_events_distinct_users(sf_dir: str):
    from kgray.pipelines.relational import events_distinct_users

    return events_distinct_users(sf_dir)


def _q_top_customers_per_nation(sf_dir: str):
    from kgray.pipelines.relational import top_customers_per_nation

    return top_customers_per_nation(sf_dir)


def _q_events_distinct_users_hll(sf_dir: str):
    """HyperLogLog approximate distinct (sketch — rows-only by design;
    the 1.04/sqrt(m) error contract is pytest-checked vs the exact op)."""
    from kgray.pipelines.relational import events_distinct_users_hll

    return events_distinct_users_hll(sf_dir)


def _q_top_tokens(sf_dir: str):
    from kgray.pipelines.relational import top_tokens

    return top_tokens(sf_dir)


def _q_events_quantiles(sf_dir: str):
    from kgray.pipelines.relational import events_value_quantiles

    return events_value_quantiles(sf_dir)


def _q_events_quantiles_approx(sf_dir: str):
    """Histogram-sketch quantiles (approximate by design — rows-only;
    the error-bound contract is pytest-checked against the exact op)."""
    from kgray.pipelines.relational import events_value_quantiles_approx

    return events_value_quantiles_approx(sf_dir)


def _q_orders_top100(sf_dir: str):
    from kgray.pipelines.relational import orders_top100_global_sort

    return orders_top100_global_sort(sf_dir)


def _q_events_asof(sf_dir: str):
    from kgray.pipelines.relational import events_asof_join

    return events_asof_join(sf_dir)


def _q_events_range_join(sf_dir: str):
    from kgray.pipelines.relational import events_range_join

    return events_range_join(sf_dir, window_minutes=60)


def _q_orders_high_value(sf_dir: str):
    from kgray.pipelines.relational import filter_orders_high_value

    return filter_orders_high_value(sf_dir, cutoff=100000.0)


def _q_q3_shipping_priority(sf_dir: str):
    from kgray.pipelines.analytics import shipping_priority

    return shipping_priority(sf_dir, segment="BUILDING",
                             cutoff="1998-01-01", k=10)


def _q_pricing_rollup(sf_dir: str):
    from kgray.pipelines.analytics import pricing_rollup

    return pricing_rollup(sf_dir)


def _q_events_pivot(sf_dir: str):
    from kgray.pipelines.analytics import events_type_pivot

    return events_type_pivot(sf_dir)


def _q_customer_order_statuses(sf_dir: str):
    from kgray.pipelines.analytics import customer_order_statuses

    return customer_order_statuses(sf_dir)


def _q_part_copurchase(sf_dir: str):
    from kgray.pipelines.analytics import part_copurchase_degree

    return part_copurchase_degree(sf_dir, k=20)


def _q_user_activity_outer(sf_dir: str):
    from kgray.pipelines.analytics import user_activity_outer

    return user_activity_outer(sf_dir, cutoff=450000.0)


def _q_bioc_ingest(sf_dir: str):
    """BioC/PubTator XML ingestion (reference pub.py:29-66): wrap each
    document's text in a BioC passage (XML-escaped), parse with BiocReader,
    explode to chunks.  Oracle: admission is len(text) >= 20 over the same
    rows — the XML round-trip must be lossless."""
    import os

    from xml.sax.saxutils import escape

    import pyarrow as pa
    import ray.data

    from kgray.sources.bioc import read_bioc_documents
    from kgray.stages.chunk import explode_spans

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).filter(lambda r: r["doc_id"] < 200)

    def to_xml(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        xmls = [
            "<collection><document><id>%s</id>"
            '<passage><infon key="section_type">INTRO</infon>'
            "<offset>0</offset><text>%s</text></passage>"
            "</document></collection>" % (i, escape(t or ""))
            for i, t in zip(ids, texts)
        ]
        return pa.table(
            {
                "doc_id": pa.array([str(i) for i in ids], pa.string()),
                "xml": pa.array(xmls, pa.string()),
            }
        )

    chunks = read_bioc_documents(
        docs.map_batches(to_xml, batch_format="pyarrow")
    ).map_batches(explode_spans, batch_format="pyarrow")
    return chunks.select_columns(
        ["doc_id", "span_seq", "kind", "text", "admitted"]
    )


def _q_eutils_metadata(sf_dir: str):
    """E-utilities metadata XML parse (reference pub.py:69-211): synthesize
    a PubMed-dialect efetch record per document, parse both fields back.
    Oracle reconstructs the same strings in SQL."""
    import os

    import pyarrow as pa
    import ray.data

    from kgray.sources.metadata import EutilsMetadataParser

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    ).filter(lambda r: r["doc_id"] < 200)

    def to_xml(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        xmls = [
            "<PubmedArticleSet><PubmedArticle>"
            "<MedlineCitation><PMID>%d</PMID><Article>"
            "<Journal><Title>Journal %d</Title></Journal>"
            "<ArticleTitle>Document %d</ArticleTitle>"
            "<AuthorList><Author><LastName>Author%d</LastName>"
            "<ForeName>A.</ForeName></Author></AuthorList>"
            "</Article></MedlineCitation>"
            "<PubmedData><ArticleIdList>"
            '<ArticleId IdType="doi">10.1000/doc%d</ArticleId>'
            "</ArticleIdList></PubmedData>"
            "</PubmedArticle></PubmedArticleSet>"
            % (i, i % 5, i, i % 7, i)
            for i in ids
        ]
        return pa.table(
            {
                "doc_id": pa.array([str(i) for i in ids], pa.string()),
                "xml": pa.array(xmls, pa.string()),
            }
        )

    return docs.map_batches(to_xml, batch_format="pyarrow").map_batches(
        EutilsMetadataParser, batch_format="pyarrow", concurrency=(1, 4)
    ).select_columns(["doc_id", "pmid", "title", "doi", "journal"])


def _q_tfidf_top_terms(sf_dir: str):
    from kgray.stages.corpus_stats import tfidf_top_terms

    return tfidf_top_terms(sf_dir, k=5)


def _q_bigram_pmi(sf_dir: str):
    from kgray.stages.corpus_stats import bigram_pmi

    return bigram_pmi(sf_dir, k=20, min_count=5)


def _q_stratified_sample(sf_dir: str):
    from kgray.stages.corpus_stats import stratified_sample

    return stratified_sample(sf_dir, per_stratum=50, stratum_col="lang")


def _q_top_tokens_mg(sf_dir: str):
    """Misra-Gries candidate pass + exact recount: provably equals the
    exact top-k whenever the k-th frequency clears the sketch floor
    (pytest-checked), so it shares top_tokens' oracle."""
    from kgray.stages.corpus_stats import top_tokens_mg

    return top_tokens_mg(sf_dir, k=20)


def _q_customers_semi_bloom(sf_dir: str):
    """Bloom-prefiltered semi join: exact same answer as
    customers_semi_join (the Bloom stage only shrinks the join input),
    so it shares that oracle."""
    from kgray.pipelines.analytics import customers_semi_join_bloom

    return customers_semi_join_bloom(sf_dir, cutoff=350000.0)


def _q_pack_sequences(sf_dir: str):
    from kgray.stages.pack import pack_sequences

    return pack_sequences(sf_dir, budget=1024)


def _q_shuffle_order(sf_dir: str):
    from kgray.stages.pack import shuffle_order

    return shuffle_order(sf_dir)


def _q_decontaminate(sf_dir: str):
    from kgray.stages.corpus_stats import decontaminate

    return decontaminate(sf_dir, bench_mod=97)


def _q_repetition_stats(sf_dir: str):
    from kgray.stages.corpus_stats import repetition_stats

    return repetition_stats(sf_dir)


def _q_large_orders(sf_dir: str):
    from kgray.pipelines.tpch_extra import large_orders

    return large_orders(sf_dir)


def _q_promo_revenue(sf_dir: str):
    from kgray.pipelines.tpch_extra import promo_revenue

    return promo_revenue(sf_dir)


def _q_idle_rich_customers(sf_dir: str):
    from kgray.pipelines.tpch_extra import idle_rich_customers

    return idle_rich_customers(sf_dir)


def _q_customer_running_total(sf_dir: str):
    from kgray.pipelines.tpch_extra import customer_running_total

    return customer_running_total(sf_dir)


def _q_zipf_slope(sf_dir: str):
    from kgray.stages.corpus_stats import zipf_slope

    return zipf_slope(sf_dir)


def _q_trigram_topk(sf_dir: str):
    from kgray.stages.corpus_stats import trigram_topk

    return trigram_topk(sf_dir)


def _q_source_lang_chi2(sf_dir: str):
    from kgray.stages.corpus_stats import source_lang_chi2

    return source_lang_chi2(sf_dir)


def _q_event_transitions(sf_dir: str):
    from kgray.pipelines.analytics import event_transitions

    return event_transitions(sf_dir)


def _q_session_stats(sf_dir: str):
    from kgray.pipelines.analytics import session_stats

    return session_stats(sf_dir)


def _q_embedding_covariance(sf_dir: str):
    from kgray.stages.similarity import embedding_covariance

    return embedding_covariance(sf_dir)


def _q_pca_spectrum(sf_dir: str):
    from kgray.stages.similarity import pca_spectrum

    return pca_spectrum(sf_dir)


def _q_source_token_entropy(sf_dir: str):
    from kgray.stages.corpus_stats import source_token_entropy

    return source_token_entropy(sf_dir)


def _q_events_wau(sf_dir: str):
    from kgray.pipelines.relational import events_wau

    return events_wau(sf_dir)


def _q_last_event_per_user(sf_dir: str):
    from kgray.pipelines.relational import last_event_per_user

    return last_event_per_user(sf_dir)


def _q_event_anomalies(sf_dir: str):
    from kgray.pipelines.analytics import event_anomalies

    return event_anomalies(sf_dir)


def _q_repurchase_latency(sf_dir: str):
    from kgray.pipelines.analytics import repurchase_latency

    return repurchase_latency(sf_dir)


def _q_bpe_merges(sf_dir: str):
    from kgray.stages.pack import learn_bpe_merges

    return learn_bpe_merges(sf_dir)


def _q_key_skew(sf_dir: str):
    from kgray.pipelines.analytics import key_skew_profile

    return key_skew_profile(sf_dir)


def _q_revenue_gini(sf_dir: str):
    from kgray.pipelines.relational import revenue_gini

    return revenue_gini(sf_dir)


def _q_events_gapfill(sf_dir: str):
    from kgray.pipelines.relational import events_gapfill

    return events_gapfill(sf_dir)


def _q_integrity_audit(sf_dir: str):
    from kgray.pipelines.analytics import integrity_audit

    return integrity_audit(sf_dir)


def _q_returned_item_ranking(sf_dir: str):
    from kgray.pipelines.tpch_more import returned_item_ranking

    return returned_item_ranking(sf_dir)


def _q_nation_trade_volume(sf_dir: str):
    from kgray.pipelines.tpch_more import nation_trade_volume

    return nation_trade_volume(sf_dir)


def _q_order_priority_exists(sf_dir: str):
    from kgray.pipelines.tpch_more import order_priority_exists

    return order_priority_exists(sf_dir)


def _q_events_cube(sf_dir: str):
    from kgray.pipelines.relational import events_cube

    return events_cube(sf_dir)


def _q_temperature_mix(sf_dir: str):
    from kgray.stages.corpus_stats import temperature_mix

    return temperature_mix(sf_dir)


def _q_latency_priority_counts(sf_dir: str):
    from kgray.pipelines.tpch_more import latency_priority_counts

    return latency_priority_counts(sf_dir)


def _q_dominant_suppliers(sf_dir: str):
    from kgray.pipelines.tpch_more import dominant_suppliers

    return dominant_suppliers(sf_dir)


def _q_waiting_suppliers(sf_dir: str):
    from kgray.pipelines.tpch_more import waiting_suppliers

    return waiting_suppliers(sf_dir)


def _q_copurchase_components(sf_dir: str):
    from kgray.pipelines.analytics import copurchase_components

    return copurchase_components(sf_dir)


def _q_duplicate_ngrams(sf_dir: str):
    from kgray.stages.filters import duplicate_ngram_stats

    return duplicate_ngram_stats(sf_dir)


def _q_quality_filter(sf_dir: str):
    from kgray.stages.filters import quality_filter

    return quality_filter(sf_dir)


def _q_importance_sample(sf_dir: str):
    from kgray.stages.filters import importance_sample

    return importance_sample(sf_dir)


def _q_pii_scrub(sf_dir: str):
    """PII count + redaction over documents with deterministically
    injected contact lines (the corpus itself is digit-free, so the
    injection — pure integer arithmetic on doc_id, replicated verbatim
    in the oracle — is what makes the regexes actually fire)."""
    import os

    import ray.data

    from kgray.stages.scrub import inject_synthetic_pii, pii_scrub

    return (
        ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "text"],
        )
        .map_batches(inject_synthetic_pii, batch_format="pyarrow")
        .map_batches(pii_scrub, batch_format="pyarrow")
    )


def _q_chunk_dedup(sf_dir: str):
    """Exact 20-word-chunk dedup: global first occurrence per distinct
    chunk (fixed-window form of exact substring dedup)."""
    import os

    import ray.data

    from kgray.stages.dedup import chunk_dedup_exact

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return chunk_dedup_exact(docs, chunk_words=20)


def _q_quota_sample(sf_dir: str):
    from kgray.pipelines.curate import quota_sample

    return quota_sample(sf_dir, per_source=5)


def _q_quality_percentile(sf_dir: str):
    from kgray.pipelines.curate import quality_percentile_filter

    return quality_percentile_filter(sf_dir, pct=0.9)


def _q_events_interarrival(sf_dir: str):
    from kgray.pipelines.analytics import events_interarrival

    return events_interarrival(sf_dir)


def _q_events_props_stats(sf_dir: str):
    from kgray.pipelines.analytics import events_props_stats

    return events_props_stats(sf_dir)


def _q_near_dup_dedup_lp(sf_dir: str):
    """Distributed-components variant of near_dup_dedup (min-label
    propagation instead of driver union-find) — identical output,
    shares its recursive-CTE oracle."""
    import os

    import ray.data

    from kgray.stages.dedup import near_dup_groups_distributed

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return near_dup_groups_distributed(docs, threshold=0.5)


def _q_copurchase_triangles(sf_dir: str):
    """Triangle count over the part co-purchase graph (distinct ordered
    pairs) — wedge join + composite-key closure, all distributed."""
    import pyarrow as pa

    from kgray.pipelines.analytics import part_copurchase_pairs
    from kgray.stages.graph_algos import count_triangles

    edges = part_copurchase_pairs(sf_dir).map_batches(
        lambda b: pa.table(
            {"src": b.column("part_a"), "dst": b.column("part_b")}
        ),
        batch_format="pyarrow",
    )
    return count_triangles(edges)


def _q_dedup_incremental(sf_dir: str):
    """Daily-ingest dedup: docs with doc_id%3==0 are the NEW shard, the
    rest the SEEN corpus; survivors are new texts absent from seen,
    first-occurrence within the shard."""
    import os

    import ray.data

    from kgray.stages.dedup import dedup_incremental

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    import pyarrow.compute as pc

    def split(batch, keep_new):
        m = pc.equal(
            pc.subtract(
                batch.column("doc_id"),
                pc.multiply(pc.divide(batch.column("doc_id"), 3), 3),
            ),
            0,
        )
        return batch.filter(m if keep_new else pc.invert(m))

    new = docs.map_batches(
        lambda b: split(b, True), batch_format="pyarrow"
    )
    seen = docs.map_batches(
        lambda b: split(b, False), batch_format="pyarrow"
    )
    return dedup_incremental(new, seen)


def _q_kmeans_embeddings(sf_dir: str):
    """Deterministic full k-means over embeddings (iterative broadcast
    centroids + combiner partial sums; non-SQL — rows + pytest numpy
    replica)."""
    from kgray.stages.similarity import kmeans_embeddings

    return kmeans_embeddings(sf_dir, k=8, iters=5)


def _q_semantic_dedup(sf_dir: str):
    """SemDeDup-style cluster-then-pairwise dedup (rows-only; pytest
    proves k=1 equals brute-force components and within-cluster
    completeness).  threshold matches the corpus's planted pair level;
    recall at such low thresholds is corpus-dependent — the operator
    targets the ≥0.9 regime where near-dups co-cluster."""
    from kgray.stages.similarity import semantic_dedup

    return semantic_dedup(sf_dir, k=8, iters=5, threshold=0.45)


def _q_lineitem_corr(sf_dir: str):
    from kgray.pipelines.analytics import lineitem_qty_price_corr

    return lineitem_qty_price_corr(sf_dir)


def _q_spearman_corr(sf_dir: str):
    from kgray.pipelines.analytics import spearman_qty_price

    return spearman_qty_price(sf_dir)


def _q_events_acf(sf_dir: str):
    from kgray.pipelines.analytics import events_acf

    return events_acf(sf_dir)


def _q_lineitem_unpivot(sf_dir: str):
    from kgray.pipelines.analytics import lineitem_unpivot

    return lineitem_unpivot(sf_dir)


def _q_diversified_topk(sf_dir: str):
    from kgray.pipelines.analytics import diversified_topk

    return diversified_topk(sf_dir)


def _q_weighted_median(sf_dir: str):
    from kgray.pipelines.analytics import weighted_median

    return weighted_median(sf_dir)


def _q_lines_in_flight(sf_dir: str):
    from kgray.pipelines.analytics import lines_in_flight

    return lines_in_flight(sf_dir)


def _q_user_modal_event(sf_dir: str):
    from kgray.pipelines.analytics import user_modal_event

    return user_modal_event(sf_dir)


def _q_open_lines_at_order(sf_dir: str):
    from kgray.pipelines.analytics import open_lines_at_order

    return open_lines_at_order(sf_dir)


def _q_user_streaks(sf_dir: str):
    from kgray.pipelines.analytics import user_streaks

    return user_streaks(sf_dir)


def _q_local_supplier_volume(sf_dir: str):
    from kgray.pipelines.tpch_more import local_supplier_volume

    return local_supplier_volume(sf_dir)


def _q_concurrent_sessions(sf_dir: str):
    from kgray.pipelines.analytics import concurrent_sessions_peak

    return concurrent_sessions_peak(sf_dir)


def _q_orders_above_cust_avg(sf_dir: str):
    from kgray.pipelines.analytics import orders_above_cust_avg

    return orders_above_cust_avg(sf_dir)


def _q_revenue_mom_growth(sf_dir: str):
    from kgray.pipelines.analytics import revenue_mom_growth

    return revenue_mom_growth(sf_dir)


def _q_events_histogram(sf_dir: str):
    from kgray.pipelines.analytics import events_histogram

    return events_histogram(sf_dir)


def _q_kwic(sf_dir: str):
    from kgray.stages.text_analysis import kwic_snippets

    return kwic_snippets(sf_dir)


def _q_rolling_active_users(sf_dir: str):
    from kgray.pipelines.analytics import rolling_active_users

    return rolling_active_users(sf_dir)


def _q_association_rules(sf_dir: str):
    from kgray.pipelines.analytics import association_rules

    return association_rules(sf_dir)


def _q_span_corrupt(sf_dir: str):
    # rows-only by nature: the deterministic hash-seeded masking is
    # checked by pytest invariants (byte-exact reconstruction,
    # repartition-determinism, mask-rate band) — the sentinel string
    # assembly has no reasonable SQL expression
    from kgray.stages.pack import span_corrupt

    return span_corrupt(sf_dir)


def _q_label_centroids(sf_dir: str):
    from kgray.stages.similarity import label_centroids

    return label_centroids(sf_dir)


def _q_events_funnel(sf_dir: str):
    from kgray.pipelines.analytics import events_funnel

    return events_funnel(sf_dir)


def _q_encode_token_ids(sf_dir: str):
    from kgray.stages.pack import encode_token_ids

    return encode_token_ids(sf_dir, vocab_size=30)


def _q_unigram_nll(sf_dir: str):
    from kgray.stages.corpus_stats import unigram_nll

    return unigram_nll(sf_dir)


def _q_bigram_nll(sf_dir: str):
    from kgray.stages.corpus_stats import bigram_nll

    return bigram_nll(sf_dir)


def _q_length_deciles(sf_dir: str):
    from kgray.stages.corpus_stats import length_deciles

    return length_deciles(sf_dir)


def _q_ccnet_buckets(sf_dir: str):
    """CCNet-style per-language perplexity tiers: lang-id + unigram-LM
    NLL + per-language ntile(3) head/middle/tail split."""
    from kgray.stages.corpus_stats import ccnet_buckets

    return ccnet_buckets(sf_dir)


def _q_bm25_topk(sf_dir: str):
    """Okapi BM25 top-10 per query for the default ≤2-term query set;
    integer tf/df/dl keep every float bit-identical to the oracle."""
    from kgray.stages.corpus_stats import bm25_topk

    return bm25_topk(sf_dir)


def _q_events_twap(sf_dir: str):
    """Time-weighted average per event type (trapezoid integral /
    duration): global (type, t, id) sort, block partials with exact
    python-int cents×micros sums, driver stitches only block
    boundaries."""
    from kgray.pipelines.analytics import events_twap

    return events_twap(sf_dir)


def _q_user_journeys(sf_dir: str):
    """Ordered string aggregation: per-user '>'-joined event-type
    sequence in (ts, event_id) order — string_agg ORDER BY parity."""
    from kgray.pipelines.relational import user_journeys

    return user_journeys(sf_dir)


def _q_part_skyline(sf_dir: str):
    """2-D Pareto skyline of parts minimising (retailprice, size):
    block-local frontier combiner, frontier-bounded final scan,
    comparison-only semantics (bit-exact vs the NOT EXISTS oracle)."""
    from kgray.pipelines.tpch_extra import part_skyline

    return part_skyline(sf_dir)


def _q_lineitem_profile(sf_dir: str):
    """One-pass numeric column profiler over lineitem's four measures;
    exact-cents moment partials as hi/lo int64 pairs (HUGEINT
    discipline), closed forms in arbitrary precision."""
    from kgray.pipelines.analytics import lineitem_profile

    return lineitem_profile(sf_dir)


def _q_kg_pagerank(sf_dir: str):
    """PageRank (4 power iterations, d=0.85) over the KG's distinct
    subj→obj edge graph; oracle unrolls the identical iterations in SQL
    over the same CTE-derived edge set."""
    import pyarrow as pa

    from kgray.stages.graph_algos import pagerank

    edges = _kg_result(sf_dir).edges.map_batches(
        lambda b: pa.table(
            {"src": b.column("subj"), "dst": b.column("obj")}
        ),
        batch_format="pyarrow",
    )
    return pagerank(edges, damping=0.85, iters=4)


def _q_kg_hits(sf_dir: str):
    """HITS hubs/authorities (4 max-normalized iterations) over the
    KG's distinct subj→obj edge graph; oracle unrolls the identical
    iterations in SQL over the same CTE-derived edge set."""
    import pyarrow as pa

    from kgray.stages.graph_algos import hits

    edges = _kg_result(sf_dir).edges.map_batches(
        lambda b: pa.table(
            {"src": b.column("subj"), "dst": b.column("obj")}
        ),
        batch_format="pyarrow",
    )
    return hits(edges, iters=4)


def _q_cohort_retention(sf_dir: str):
    from kgray.pipelines.analytics import cohort_retention

    return cohort_retention(sf_dir)


def _q_fuzzy_part_names(sf_dir: str):
    import os

    import ray.data

    from kgray.stages.cluster import fuzzy_name_pairs

    part = ray.data.read_parquet(
        os.path.join(sf_dir, "part.parquet"),
        columns=["p_brand", "p_size", "p_name"],
    )
    res = fuzzy_name_pairs(
        part, ["p_brand", "p_size"], "p_name", max_dist=2
    )
    # Threshold joins are legitimately empty at tiny scale (sf0.001 has no
    # within-block name pair at distance <= 2).  schema_floor pins the
    # typed schema on the (possibly-empty) result — one return type, one
    # schema definition.  Ray 2.49's to_pandas() on a fully-empty Dataset
    # still drops columns (documented schema_floor limitation), so the
    # empty case is handed over as a typed Arrow table.
    import pyarrow as pa

    from kgray.utils import schema_floor

    schema = pa.schema(
        [("p_brand", pa.string()), ("p_size", pa.int32()),
         ("name_a", pa.string()), ("name_b", pa.string()),
         ("dist", pa.int64())]
    )
    floored = schema_floor(res, schema)
    if floored.count() == 0:
        return schema.empty_table()
    return floored


def _q_sliding_chunks(sf_dir: str):
    import os

    import ray.data

    from kgray.stages.chunk import sliding_chunks

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"],
    )
    return sliding_chunks(docs, window=20, stride=10)


def _q_users_intersect(sf_dir: str):
    from kgray.pipelines.analytics import user_event_sets

    return user_event_sets(sf_dir, "view", "purchase", mode="intersect")


def _q_users_except(sf_dir: str):
    from kgray.pipelines.analytics import user_event_sets

    return user_event_sets(
        sf_dir, "view", "purchase", mode="except", b_min_value=90.0
    )


def _q_source_percent_rank(sf_dir: str):
    from kgray.stages.corpus_stats import source_percent_rank

    return source_percent_rank(sf_dir)


def _q_events_winsorized(sf_dir: str):
    from kgray.pipelines.relational import events_winsorized

    return events_winsorized(sf_dir)


def _q_kg_two_hop(sf_dir: str):
    """Two-hop reachability counts over the KG's distinct subj→obj edge
    graph (distributed wedge self-join; oracle is the identical self-join
    over the same CTE-derived edge set)."""
    import pyarrow as pa

    from kgray.stages.graph_algos import two_hop_counts

    edges = _kg_result(sf_dir).edges.map_batches(
        lambda b: pa.table(
            {"src": b.column("subj"), "dst": b.column("obj")}
        ),
        batch_format="pyarrow",
    )
    return two_hop_counts(edges)


def _kg_edge_graph(sf_dir: str):
    """KG (subj→obj) edge Dataset as (src, dst) — shared adapter for the
    graph-algorithm queries (same edge set the oracle's _KG_CTE derives)."""
    import pyarrow as pa

    return _kg_result(sf_dir).edges.map_batches(
        lambda b: pa.table(
            {"src": b.column("subj"), "dst": b.column("obj")}
        ),
        batch_format="pyarrow",
    )


def _q_kg_degrees(sf_dir: str):
    from kgray.stages.graph_algos import degree_stats

    return degree_stats(_kg_edge_graph(sf_dir))


def _q_kg_clustering(sf_dir: str):
    from kgray.stages.graph_algos import local_clustering

    return local_clustering(_kg_edge_graph(sf_dir))


def _q_kg_bfs(sf_dir: str):
    import pandas as pd
    import ray.data

    from kgray.stages.graph_algos import bfs_distances

    edges = _kg_edge_graph(sf_dir).materialize()
    # deterministic seed: the lexicographically smallest source node
    # (scalar reduce: one min row per block, tiny driver finish)
    mins = edges.map_batches(
        lambda df: pd.DataFrame({"m": [df.src.min()]})
        if len(df) else pd.DataFrame({"m": pd.Series([], dtype="object")}),
        batch_format="pandas",
        batch_size=None,
    ).to_pandas()
    seed = mins.m.min()
    seeds = ray.data.from_pandas(pd.DataFrame({"node": [seed]}))
    return bfs_distances(edges, seeds, max_depth=3)


def _q_kg_neighbor_jaccard(sf_dir: str):
    from kgray.stages.graph_algos import neighbor_jaccard

    return neighbor_jaccard(_kg_edge_graph(sf_dir))


def _q_kg_closeness(sf_dir: str):
    from kgray.stages.graph_algos import harmonic_closeness

    return harmonic_closeness(_kg_edge_graph(sf_dir), n_landmarks=5,
                              max_depth=3)


def _q_copurchase_kcore(sf_dir: str):
    import pyarrow as pa

    from kgray.pipelines.analytics import part_copurchase_pairs
    from kgray.stages.graph_algos import k_core

    pairs = part_copurchase_pairs(sf_dir).map_batches(
        lambda b: pa.table(
            {"doc_a": b.column("part_a"), "doc_b": b.column("part_b")}
        ),
        batch_format="pyarrow",
    )
    # the sf co-purchase graph is dense (min raw degree ≈ 40 at sf0.01);
    # k=80 sits where the peel actually cascades (drops ~7% of nodes over
    # several rounds) while leaving a nonempty core
    return k_core(pairs, k=80)


def _q_ship_latency_quantiles(sf_dir: str):
    from kgray.pipelines.tpch_extra import ship_latency_quantiles

    return ship_latency_quantiles(sf_dir)


def _q_knn_label_purity(sf_dir: str):
    from kgray.stages.similarity import knn_label_purity

    return knn_label_purity(sf_dir)


def _q_event_value_trend(sf_dir: str):
    from kgray.pipelines.analytics import event_value_trend

    return event_value_trend(sf_dir)


def _q_kg_comention(sf_dir: str):
    import pyarrow as pa

    from kgray.stages.graph_algos import comention_graph

    edges = _kg_result(sf_dir).edges.map_batches(
        lambda b: pa.table(
            {"doc_id": b.column("doc_id"), "src": b.column("subj"),
             "dst": b.column("obj")}
        ),
        batch_format="pyarrow",
    )
    return comention_graph(edges)


def _q_bpe_encode(sf_dir: str):
    from kgray.stages.pack import bpe_encode

    return bpe_encode(sf_dir)


def _q_nation_revenue_share(sf_dir: str):
    from kgray.pipelines.relational import nation_revenue_share

    return nation_revenue_share(sf_dir)


def _q_user_value_ewma(sf_dir: str):
    from kgray.pipelines.relational import user_value_ewma

    return user_value_ewma(sf_dir)


def _q_tfidf_similar_docs(sf_dir: str):
    from kgray.stages.corpus_stats import tfidf_similar_docs

    return tfidf_similar_docs(sf_dir)


def _q_ks_statistic(sf_dir: str):
    from kgray.pipelines.analytics import ks_statistic

    return ks_statistic(sf_dir)


def _q_benford_digits(sf_dir: str):
    from kgray.pipelines.analytics import benford_digits

    return benford_digits(sf_dir)


def _q_running_distinct_users(sf_dir: str):
    from kgray.pipelines.analytics import running_distinct_users

    return running_distinct_users(sf_dir)


def _q_events_mad(sf_dir: str):
    from kgray.pipelines.analytics import events_mad

    return events_mad(sf_dir)


def _q_media_dedup(sf_dir: str):
    """Content-identity dedup over the synthetic corpus's media spans
    (rows-only: content keys are crc hashes, not SQL-derivable)."""
    import ray.data

    from kgray.corpus import generate_documents
    from kgray.stages.chunk import explode_spans
    from kgray.stages.multimodal import media_dedup

    docs, _, _ = generate_documents(80, seed=42)
    chunks = ray.data.from_arrow(docs).map_batches(
        explode_spans, batch_format="pyarrow"
    )
    return media_dedup(chunks)


def _q_kg_incremental(sf_dir: str):
    """Id-stable incremental KG merge: even-doc_id shard builds the base
    graph, odd shard merges in.  The merged node set must equal a full
    recompute, so it shares the kg_nodes oracle; id stability (engine
    lineage, not SQL) is pinned by tests/test_incremental_kg.py."""
    import pyarrow.compute as pc

    from kgray.pipelines.kg import incremental_update, run_kg_pipeline
    from kgray.sources.generic import (
        generic_documents_dataset,
        generic_kg_config,
    )

    docs = generic_documents_dataset(sf_dir)

    def parity(batch, even: bool):
        # doc_id is a string; split on last-char parity for determinism
        import pyarrow as pa

        last = pc.utf8_slice_codeunits(
            batch.column("doc_id"), start=-1, stop=2_000_000_000
        )
        is_even = pc.is_in(
            last, value_set=pa.array(["0", "2", "4", "6", "8"])
        )
        return batch.filter(is_even if even else pc.invert(is_even))

    base_docs = docs.map_batches(
        lambda b: parity(b, True), batch_format="pyarrow"
    )
    delta_docs = docs.map_batches(
        lambda b: parity(b, False), batch_format="pyarrow"
    )
    base = run_kg_pipeline(base_docs, generic_kg_config())
    merged = incremental_update(
        base.nodes, delta_docs, generic_kg_config()
    )
    return merged.nodes.select_columns(["name", "label", "type", "url"])


def _q_pretrain_corpus(sf_dir: str):
    from kgray.pipelines.curate import pretrain_corpus

    return pretrain_corpus(sf_dir)


def _q_events_hopping(sf_dir: str):
    from kgray.pipelines.analytics import events_hopping_counts

    return events_hopping_counts(sf_dir)


def _q_events_window_topk(sf_dir: str):
    from kgray.pipelines.analytics import events_window_topk_types

    return events_window_topk_types(sf_dir)


def _q_event_dedup_tolerance(sf_dir: str):
    from kgray.pipelines.analytics import event_dedup_tolerance

    return event_dedup_tolerance(sf_dir)


def _q_user_hour_throttle(sf_dir: str):
    from kgray.pipelines.analytics import user_hour_throttle

    return user_hour_throttle(sf_dir)


def _q_weighted_sample(sf_dir: str):
    from kgray.pipelines.analytics import weighted_sample

    return weighted_sample(sf_dir)


def _q_mips_topk(sf_dir: str):
    import os

    import ray.data

    from kgray.stages.similarity import mips_topk

    emb = ray.data.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
    )
    qm, qids = _load_queries(sf_dir)
    return mips_topk(emb, qm, qids, k=5)


def _q_embedding_quantize(sf_dir: str):
    from kgray.stages.similarity import quantize_int8

    return quantize_int8(sf_dir)


def _q_knn_pq(sf_dir: str):
    import os

    import ray.data

    from kgray.stages.similarity import knn_pq

    emb = ray.data.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
    )
    qm, qids = _load_queries(sf_dir)
    return knn_pq(emb, qm, qids, k=5)


def _q_ttr_hapax(sf_dir: str):
    from kgray.stages.corpus_stats import ttr_hapax

    return ttr_hapax(sf_dir)


def _q_window_cooccurrence(sf_dir: str):
    from kgray.stages.corpus_stats import window_cooccurrence

    return window_cooccurrence(sf_dir)


def _q_char_trigrams_by_lang(sf_dir: str):
    from kgray.stages.corpus_stats import char_trigrams_by_lang

    return char_trigrams_by_lang(sf_dir)


def _q_cdc_chunks(sf_dir: str):
    from kgray.stages.corpus_stats import cdc_chunks

    return cdc_chunks(sf_dir)


def _q_top_tokens_by_lang(sf_dir: str):
    from kgray.stages.corpus_stats import top_tokens_by_lang

    return top_tokens_by_lang(sf_dir)


def _q_forecast_revenue(sf_dir: str):
    from kgray.pipelines.tpch_final import forecast_revenue

    return forecast_revenue(sf_dir)


def _q_customer_order_distribution(sf_dir: str):
    from kgray.pipelines.tpch_final import customer_order_distribution

    return customer_order_distribution(sf_dir)


def _q_top_supplier(sf_dir: str):
    from kgray.pipelines.tpch_final import top_supplier

    return top_supplier(sf_dir)


def _q_small_quantity_revenue(sf_dir: str):
    from kgray.pipelines.tpch_final import small_quantity_revenue

    return small_quantity_revenue(sf_dir)


def _q_disjunctive_brand_revenue(sf_dir: str):
    from kgray.pipelines.tpch_final import disjunctive_brand_revenue

    return disjunctive_brand_revenue(sf_dir)


def _q_cheapest_supplier(sf_dir: str):
    from kgray.pipelines.tpch_final import cheapest_supplier_per_part

    return cheapest_supplier_per_part(sf_dir)


def _q_nation_market_share(sf_dir: str):
    from kgray.pipelines.tpch_final import nation_market_share

    return nation_market_share(sf_dir)


def _q_product_profit(sf_dir: str):
    from kgray.pipelines.tpch_final import product_profit

    return product_profit(sf_dir)


def _q_important_parts(sf_dir: str):
    from kgray.pipelines.tpch_final import important_parts

    return important_parts(sf_dir)


def _q_supplier_count_by_part(sf_dir: str):
    from kgray.pipelines.tpch_final import supplier_count_by_part

    return supplier_count_by_part(sf_dir)


def _q_excess_suppliers(sf_dir: str):
    from kgray.pipelines.tpch_final import excess_suppliers

    return excess_suppliers(sf_dir)


def queries() -> dict[str, Callable[[str], Any]]:
    """All driver-checkable pipelines, ORACLE-BEARING ENTRIES FIRST.

    The driver's correctness gate samples the first 50 dict entries; the
    self-checking (no-SQL-oracle) pipelines — eval harnesses, media
    plumbing, approximate-index recall checks — are re-ordered after
    every oracle-bearing entry so the sampled window is 100%
    value-hash-checked (r3 verdict next-round ask #3).  Membership is
    derived from oracle_sql() itself, so a query gains its place in the
    window the moment it gains an oracle."""
    q = _query_impls()
    oracles = oracle_sql()
    ordered = [k for k in q if k in oracles] + [
        k for k in q if k not in oracles
    ]
    return {k: q[k] for k in ordered}


def _query_impls() -> dict[str, Callable[[str], Any]]:
    return {
        # KG pipeline (generic adapter, fully oracle-checked)
        "kg_edges": _q_kg_edges,
        "kg_nodes": _q_kg_nodes,
        "kg_annotation_urls": _q_kg_annotation_urls,
        "chunk_spans": _q_chunk_spans,
        # GraphRAG retrieval (reference examples/bel_graph_rag.ipynb)
        "kg_subgraph": _q_kg_subgraph,
        "kg_subgraph_prompt": _q_kg_subgraph_prompt,
        # KG pipeline (reference semantics, self-checking parity)
        "kg_synthetic_parity": _q_kg_synthetic_parity,
        "kg_eval_matcher": _q_kg_eval_matcher,
        "entity_faithfulness": _q_entity_faithfulness,
        "media_features": _q_media_features,
        "media_frames": _q_media_frames,
        "media_real_decode": _q_media_real_decode,
        "media_video_real": _q_media_video_real,
        "media_gate_stats": _q_media_gate_stats,
        "extract_errors": _q_extract_errors,
        "graph_summaries": _q_graph_summaries,
        "checkpoint_lineage": _q_checkpoint_lineage,
        "doc_quarantine": _q_doc_quarantine,
        "entity_linking": _q_entity_linking,
        "surface_clusters": _q_surface_clusters,
        # text analysis
        "token_count": _q_token_count,
        "token_count_bpe": _q_token_count_bpe,
        "text_quality": _q_text_quality,
        "lang_id": _q_lang_id,
        "fingerprints": _q_fingerprints,
        "fingerprints_rolling": _q_fingerprints_rolling,
        # dedup
        "dedup_exact": _q_dedup_exact,
        "minhash_near_dup": _q_minhash_near_dup,
        "near_dup_dedup": _q_near_dup_dedup,
        "jaccard_pairs": _q_jaccard_pairs,
        "curate_corpus": _q_curate_corpus,
        "train_val_split": _q_train_val_split,
        "simhash": _q_simhash,
        "simhash_pairs": _q_simhash_pairs,
        "simhash_pairs_portable": _q_simhash_pairs_portable,
        "substring_dup_spans": _q_substring_dup_spans,
        # similarity search
        "knn_cosine": _q_knn_cosine,
        "knn_filtered": _q_knn_filtered,
        "knn_lsh": _q_knn_lsh,
        "knn_ivf": _q_knn_ivf,
        "embedding_near_dup": _q_embedding_near_dup,
        "embedding_near_dup_exact": _q_embedding_near_dup_exact,
        # relational / events
        "pricing_summary": _q_pricing_summary,
        "revenue_by_nation": _q_revenue_by_nation,
        "top_parts": _q_top_parts,
        "events_hourly": _q_events_hourly,
        "events_sessions": _q_events_sessions,
        "events_asof": _q_events_asof,
        "events_range": _q_events_range_join,
        "events_rolling": _q_events_rolling,
        "events_distinct_users": _q_events_distinct_users,
        "top_customers_per_nation": _q_top_customers_per_nation,
        "events_distinct_users_hll": _q_events_distinct_users_hll,
        "top_tokens": _q_top_tokens,
        "events_quantiles": _q_events_quantiles,
        "events_quantiles_approx": _q_events_quantiles_approx,
        "events_quantiles_approx_check": _q_events_quantiles_approx_check,
        "events_distinct_hll_check": _q_events_distinct_hll_check,
        "orders_top100": _q_orders_top100,
        "customers_semi_join": _q_customers_semi,
        "customers_anti_join": _q_customers_anti,
        "customer_left_join_counts": _q_customer_left_counts,
        "supplier_balance": _q_supplier_balance,
        "orders_high_value": _q_orders_high_value,
        # composite analytics (multi-join / rollup / pivot / string-agg /
        # self-join pairs / full-outer)
        "q3_shipping_priority": _q_q3_shipping_priority,
        "pricing_rollup": _q_pricing_rollup,
        "events_pivot": _q_events_pivot,
        "customer_order_statuses": _q_customer_order_statuses,
        "part_copurchase": _q_part_copurchase,
        "user_activity_outer": _q_user_activity_outer,
        # XML sources (BioC ingestion + E-utilities metadata kernels)
        "bioc_ingest": _q_bioc_ingest,
        "eutils_metadata": _q_eutils_metadata,
        # corpus statistics (curation scoring / sampling / heavy hitters)
        "tfidf_top_terms": _q_tfidf_top_terms,
        "bigram_pmi": _q_bigram_pmi,
        "stratified_sample": _q_stratified_sample,
        "top_tokens_mg": _q_top_tokens_mg,
        "customers_semi_join_bloom": _q_customers_semi_bloom,
        # training-data assembly / curation
        "pack_sequences": _q_pack_sequences,
        "shuffle_order": _q_shuffle_order,
        "decontaminate": _q_decontaminate,
        "repetition_stats": _q_repetition_stats,
        "duplicate_ngrams": _q_duplicate_ngrams,
        "large_orders": _q_large_orders,
        "returned_item_ranking": _q_returned_item_ranking,
        "zipf_slope": _q_zipf_slope,
        "embedding_covariance": _q_embedding_covariance,
        "pca_spectrum": _q_pca_spectrum,
        "source_token_entropy": _q_source_token_entropy,
        "events_wau": _q_events_wau,
        "last_event_per_user": _q_last_event_per_user,
        "integrity_audit": _q_integrity_audit,
        "revenue_gini": _q_revenue_gini,
        "event_anomalies": _q_event_anomalies,
        "bpe_merges": _q_bpe_merges,
        "key_skew": _q_key_skew,
        "repurchase_latency": _q_repurchase_latency,
        "events_gapfill": _q_events_gapfill,
        "trigram_topk": _q_trigram_topk,
        "source_lang_chi2": _q_source_lang_chi2,
        "event_transitions": _q_event_transitions,
        "session_stats": _q_session_stats,
        "nation_trade_volume": _q_nation_trade_volume,
        "order_priority_exists": _q_order_priority_exists,
        "latency_priority_counts": _q_latency_priority_counts,
        "temperature_mix": _q_temperature_mix,
        "events_cube": _q_events_cube,
        "dominant_suppliers": _q_dominant_suppliers,
        "waiting_suppliers": _q_waiting_suppliers,
        "copurchase_components": _q_copurchase_components,
        "promo_revenue": _q_promo_revenue,
        "idle_rich_customers": _q_idle_rich_customers,
        "customer_running_total": _q_customer_running_total,
        "quality_filter": _q_quality_filter,
        "importance_sample": _q_importance_sample,
        # scrubbing / windowed / semi-structured extensions
        "pii_scrub": _q_pii_scrub,
        "chunk_dedup": _q_chunk_dedup,
        "quota_sample": _q_quota_sample,
        "quality_percentile": _q_quality_percentile,
        "events_interarrival": _q_events_interarrival,
        "events_props_stats": _q_events_props_stats,
        "unigram_nll": _q_unigram_nll,
        "bigram_nll": _q_bigram_nll,
        "length_deciles": _q_length_deciles,
        "ccnet_buckets": _q_ccnet_buckets,
        "bm25_topk": _q_bm25_topk,
        "part_skyline": _q_part_skyline,
        "lineitem_profile": _q_lineitem_profile,
        "user_journeys": _q_user_journeys,
        "events_twap": _q_events_twap,
        "kg_pagerank": _q_kg_pagerank,
        "kg_hits": _q_kg_hits,
        "kg_two_hop": _q_kg_two_hop,
        "events_winsorized": _q_events_winsorized,
        "sliding_chunks": _q_sliding_chunks,
        "cohort_retention": _q_cohort_retention,
        "fuzzy_part_names": _q_fuzzy_part_names,
        "users_intersect": _q_users_intersect,
        "users_except": _q_users_except,
        "source_percent_rank": _q_source_percent_rank,
        "near_dup_dedup_lp": _q_near_dup_dedup_lp,
        "encode_token_ids": _q_encode_token_ids,
        "label_centroids": _q_label_centroids,
        "events_funnel": _q_events_funnel,
        "copurchase_triangles": _q_copurchase_triangles,
        "dedup_incremental": _q_dedup_incremental,
        "lineitem_corr": _q_lineitem_corr,
        "spearman_corr": _q_spearman_corr,
        "events_acf": _q_events_acf,
        "lineitem_unpivot": _q_lineitem_unpivot,
        "diversified_topk": _q_diversified_topk,
        "weighted_median": _q_weighted_median,
        "lines_in_flight": _q_lines_in_flight,
        "user_modal_event": _q_user_modal_event,
        "open_lines_at_order": _q_open_lines_at_order,
        "user_streaks": _q_user_streaks,
        "local_supplier_volume": _q_local_supplier_volume,
        "concurrent_sessions": _q_concurrent_sessions,
        "orders_above_cust_avg": _q_orders_above_cust_avg,
        "revenue_mom_growth": _q_revenue_mom_growth,
        "association_rules": _q_association_rules,
        "rolling_active_users": _q_rolling_active_users,
        "events_histogram": _q_events_histogram,
        "kwic": _q_kwic,
        "span_corrupt": _q_span_corrupt,
        "kmeans_embeddings": _q_kmeans_embeddings,
        "semantic_dedup": _q_semantic_dedup,
        # final TPC-H-shape sweep (Q6/Q13/Q15/Q17/Q19 shapes)
        "forecast_revenue": _q_forecast_revenue,
        "customer_order_distribution": _q_customer_order_distribution,
        "top_supplier": _q_top_supplier,
        "small_quantity_revenue": _q_small_quantity_revenue,
        "disjunctive_brand_revenue": _q_disjunctive_brand_revenue,
        "cheapest_supplier": _q_cheapest_supplier,
        "nation_market_share": _q_nation_market_share,
        "product_profit": _q_product_profit,
        "important_parts": _q_important_parts,
        "supplier_count_by_part": _q_supplier_count_by_part,
        "excess_suppliers": _q_excess_suppliers,
        "pretrain_corpus": _q_pretrain_corpus,
        "media_dedup": _q_media_dedup,
        "kg_incremental": _q_kg_incremental,
        "tfidf_similar_docs": _q_tfidf_similar_docs,
        "bpe_encode": _q_bpe_encode,
        "kg_comention": _q_kg_comention,
        "event_value_trend": _q_event_value_trend,
        "knn_label_purity": _q_knn_label_purity,
        "ship_latency_quantiles": _q_ship_latency_quantiles,
        "nation_revenue_share": _q_nation_revenue_share,
        "user_value_ewma": _q_user_value_ewma,
        # distribution statistics
        "ks_statistic": _q_ks_statistic,
        "benford_digits": _q_benford_digits,
        "running_distinct_users": _q_running_distinct_users,
        "events_mad": _q_events_mad,
        # streaming-window / ingestion-hygiene suite
        "events_hopping": _q_events_hopping,
        "events_window_topk": _q_events_window_topk,
        "event_dedup_tolerance": _q_event_dedup_tolerance,
        "user_hour_throttle": _q_user_hour_throttle,
        "weighted_sample": _q_weighted_sample,
        # embedding retrieval / compression suite
        "mips_topk": _q_mips_topk,
        "embedding_quantize": _q_embedding_quantize,
        "knn_pq": _q_knn_pq,
        # lexical / chunking text-analysis suite
        "ttr_hapax": _q_ttr_hapax,
        "window_cooccurrence": _q_window_cooccurrence,
        "char_trigrams_by_lang": _q_char_trigrams_by_lang,
        "cdc_chunks": _q_cdc_chunks,
        "top_tokens_by_lang": _q_top_tokens_by_lang,
        # graph-algorithm suite over the KG / co-purchase graphs
        "kg_degrees": _q_kg_degrees,
        "kg_clustering": _q_kg_clustering,
        "kg_bfs": _q_kg_bfs,
        "kg_closeness": _q_kg_closeness,
        "kg_edge_evidence": _q_kg_edge_evidence,
        "kg_neighbor_jaccard": _q_kg_neighbor_jaccard,
        "copurchase_kcore": _q_copurchase_kcore,
    }


def oracle_sql() -> dict[str, str]:
    d = _oracle_sql_dict()
    # the exact similarity join shares the minhash oracle: minhash is the
    # LSH approximation OF this ground truth (identical output contract)
    d["jaccard_pairs"] = d["minhash_near_dup"]
    # MG heavy hitters provably equal the exact top-k (recount pass);
    # the Bloom semi join is exact (false positives removed by the final
    # repartition semi) — both share the exact op's oracle
    d["top_tokens_mg"] = d["top_tokens"]
    d["customers_semi_join_bloom"] = d["customers_semi_join"]
    # the label-propagation components op is the distributed twin of the
    # driver-union-find one — same (doc_id, rep_id) contract and oracle
    d["near_dup_dedup_lp"] = d["near_dup_dedup"]
    # an incremental merge must yield the node set of a full recompute
    d["kg_incremental"] = d["kg_nodes"]
    return d


def _stratified_sample_sql(per_stratum: int = 50) -> str:
    # keep iff hash(doc_id)·|stratum| < per_stratum·2⁶⁴ — the identical
    # exact-integer comparison corpus_stats.stratified_sample makes
    # (threshold form thr = ceil(X/cnt); h < thr ⟺ h·cnt < X)
    from kgray.pipelines.curate import SPLIT_MULT

    x = per_stratum << 64
    return f"""
WITH cnt AS (SELECT lang, CAST(count(*) AS HUGEINT) AS c
             FROM documents GROUP BY lang)
SELECT d.doc_id, d.lang
FROM documents d JOIN cnt USING (lang)
WHERE CAST(CAST((CAST(doc_id AS HUGEINT) * {SPLIT_MULT})
           % 18446744073709551616 AS UBIGINT) AS HUGEINT) * c < {x}
"""


def _shuffle_order_sql() -> str:
    from kgray.pipelines.curate import SPLIT_MULT

    return f"""
SELECT doc_id,
       CAST(row_number() OVER (
         ORDER BY CAST((CAST(doc_id AS HUGEINT) * {SPLIT_MULT})
                  % 18446744073709551616 AS UBIGINT),
                  doc_id) AS BIGINT) AS position
FROM documents
"""


def _integrity_audit_sql() -> str:
    # one UNION ALL block per FK relationship, mirroring
    # kgray.pipelines.analytics.integrity_audit's relationship list
    rels = [
        ("lineitem", "l_orderkey", "orders", "o_orderkey"),
        ("lineitem", "l_partkey", "part", "p_partkey"),
        ("lineitem", "l_suppkey", "supplier", "s_suppkey"),
        ("orders", "o_custkey", "customer", "c_custkey"),
        ("customer", "c_nationkey", "nation", "n_nationkey"),
        ("supplier", "s_nationkey", "nation", "n_nationkey"),
        ("nation", "n_regionkey", "region", "r_regionkey"),
    ]
    blocks = []
    for ct, ck, pt, pk in rels:
        blocks.append(f"""
SELECT '{ct}.{ck}->{pt}.{pk}' AS relationship,
       (SELECT CAST(count(DISTINCT {ck}) AS BIGINT) FROM {ct})
         AS n_child_keys,
       (SELECT CAST(count(*) AS BIGINT)
        FROM (SELECT DISTINCT {ck} FROM {ct}) c
        WHERE NOT EXISTS (SELECT 1 FROM {pt} p WHERE p.{pk} = c.{ck}))
         AS n_orphan_keys""")
    return "\nUNION ALL\n".join(blocks)


def _pii_scrub_sql() -> str:
    # injection expression mirrors kgray.stages.scrub.inject_synthetic_pii
    # integer-for-integer; regex constants are spliced from the stage
    # module so both engines compile the SAME RE2 pattern strings
    from kgray.stages.scrub import EMAIL_RE, IPV4_RE, PHONE_RE

    inj = (
        "text || ' contact user' || doc_id || '@example.com or 10.' || "
        "(doc_id % 256) || '.' || ((doc_id // 256) % 256) || '.' || "
        "(doc_id % 100) || ' tel ' || (doc_id % 700 + 200) || '-' || "
        "((doc_id // 3) % 900 + 100) || '-' || ((doc_id // 11) % 9000 + 1000)"
    )
    return f"""
WITH inj AS (SELECT doc_id, {inj} AS text FROM documents)
SELECT doc_id,
       CAST(len(regexp_extract_all(text, '{EMAIL_RE}')) AS BIGINT) AS n_email,
       CAST(len(regexp_extract_all(text, '{PHONE_RE}')) AS BIGINT) AS n_phone,
       CAST(len(regexp_extract_all(text, '{IPV4_RE}')) AS BIGINT) AS n_ipv4,
       regexp_replace(regexp_replace(regexp_replace(text,
           '{EMAIL_RE}', '<EMAIL>', 'g'),
           '{PHONE_RE}', '<PHONE>', 'g'),
           '{IPV4_RE}', '<IPV4>', 'g') AS redacted
FROM inj
"""


def _pagerank_sql(iters: int = 4, d: float = 0.85) -> str:
    # unrolled power iteration over the KG CTE's edge set; float
    # expressions mirror stages/graph_algos.pagerank term-for-term
    # ((1-d)/n literal, d·(c + m/n) grouping, final half-up 1e-6 round)
    parts = [
        """
, eg AS (SELECT DISTINCT 'w(X:' || ta || ')' AS src,
                         'w(X:' || tb || ')' AS dst FROM pairs),
nd AS (SELECT src AS node FROM eg UNION SELECT dst FROM eg),
dg AS (SELECT src AS node, CAST(count(*) AS DOUBLE) AS outdeg
       FROM eg GROUP BY 1),
nn AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM nd),
r0 AS (SELECT node, 1.0 / (SELECT n FROM nn) AS r FROM nd)"""
    ]
    for t in range(iters):
        parts.append(f"""
, m{t} AS (SELECT COALESCE(sum(r.r), 0.0) AS m
          FROM r{t} r LEFT JOIN dg USING (node) WHERE dg.outdeg IS NULL),
c{t} AS (SELECT e.dst AS node, sum(r.r / dg.outdeg) AS c
        FROM eg e JOIN r{t} r ON e.src = r.node
                  JOIN dg ON e.src = dg.node
        GROUP BY e.dst),
r{t + 1} AS (SELECT nd.node,
            {1 - d} / (SELECT n FROM nn)
            + {d} * (COALESCE(c.c, 0.0)
                     + (SELECT m FROM m{t}) / (SELECT n FROM nn)) AS r
            FROM nd LEFT JOIN c{t} c USING (node))""")
    parts.append(
        f"\nSELECT node, floor(r * 1e6 + 0.5) / 1e6 AS pr FROM r{iters}"
    )
    return _KG_CTE + "".join(parts)


def _hits_sql(iters: int = 4) -> str:
    # unrolled max-normalized HITS over the KG CTE's edge set; float
    # expressions mirror stages/graph_algos.hits term-for-term (max
    # normalization is order-independent, final half-up 1e-6 round)
    parts = [
        """
, eg AS MATERIALIZED (SELECT DISTINCT 'w(X:' || ta || ')' AS src,
                         'w(X:' || tb || ')' AS dst FROM pairs),
nd AS MATERIALIZED (SELECT src AS node FROM eg UNION SELECT dst FROM eg),
h0 AS MATERIALIZED (SELECT node, 1.0 AS h FROM nd)"""
    ]
    for t in range(iters):
        parts.append(f"""
, ap{t} AS MATERIALIZED (SELECT e.dst AS node, sum(h.h) AS s
           FROM eg e JOIN h{t} h ON e.src = h.node GROUP BY e.dst),
am{t} AS MATERIALIZED (SELECT CASE WHEN max(s) IS NULL OR max(s) <= 0
                      THEN 1.0 ELSE max(s) END AS m FROM ap{t}),
a{t + 1} AS MATERIALIZED (SELECT nd.node,
            COALESCE(p.s, 0.0) / (SELECT m FROM am{t}) AS a
            FROM nd LEFT JOIN ap{t} p USING (node)),
hp{t} AS MATERIALIZED (SELECT e.src AS node, sum(a.a) AS s
           FROM eg e JOIN a{t + 1} a ON e.dst = a.node GROUP BY e.src),
hm{t} AS MATERIALIZED (SELECT CASE WHEN max(s) IS NULL OR max(s) <= 0
                      THEN 1.0 ELSE max(s) END AS m FROM hp{t}),
h{t + 1} AS MATERIALIZED (SELECT nd.node,
            COALESCE(p.s, 0.0) / (SELECT m FROM hm{t}) AS h
            FROM nd LEFT JOIN hp{t} p USING (node))""")
    parts.append(f"""
SELECT a.node, floor(a.a * 1e6 + 0.5) / 1e6 AS authority,
       floor(h.h * 1e6 + 0.5) / 1e6 AS hub
FROM a{iters} a JOIN h{iters} h USING (node)""")
    return _KG_CTE + "".join(parts)


def _train_val_split_sql() -> str:
    from kgray.pipelines.curate import SPLIT_MULT, split_threshold

    return f"""
SELECT doc_id,
       CASE WHEN CAST((CAST(doc_id AS HUGEINT) * {SPLIT_MULT})
                 % 18446744073709551616 AS UBIGINT)
                 < {split_threshold(0.1)}
            THEN 'val' ELSE 'train' END AS split
FROM documents
"""


def _oracle_sql_dict() -> dict[str, str]:
    return {
        "kg_edges": _KG_CTE + """
SELECT 'D' || lpad(CAST(doc_id AS VARCHAR), 8, '0') AS doc_id,
       span AS span_seq,
       'w(X:' || ta || ')' AS subj,
       'cooccurs' AS pred,
       'w(X:' || tb || ')' AS obj
FROM pairs
""",
        # corpus-level edge consolidation: evidence stats per distinct
        # triple (doc_id format matches the engine's D-prefixed ids)
        "kg_edge_evidence": _KG_CTE + """
, ev AS (SELECT 'w(X:' || ta || ')' AS subj,
                'cooccurs' AS pred,
                'w(X:' || tb || ')' AS obj,
                'D' || lpad(CAST(doc_id AS VARCHAR), 8, '0') AS doc_id
         FROM pairs)
SELECT subj, pred, obj,
       CAST(count(*) AS BIGINT) AS n_evidence,
       CAST(count(DISTINCT doc_id) AS BIGINT) AS n_docs,
       min(doc_id) AS first_doc
FROM ev GROUP BY 1, 2, 3
""",
        "kg_nodes": _KG_CTE + """
, terms AS (
  SELECT ta AS tok FROM pairs UNION SELECT tb AS tok FROM pairs
)
SELECT DISTINCT 'w(X:' || tok || ')' AS name, tok AS label, 'w' AS type,
       'https://identifiers.org/X:' || tok AS url
FROM terms
""",
        "kg_annotation_urls": _KG_CTE + """
, spans_with_pairs AS (SELECT DISTINCT doc_id, span FROM pairs)
SELECT DISTINCT a.tok AS entry_name,
       'https://identifiers.org/X:' || a.tok AS url
FROM ann a JOIN spans_with_pairs USING (doc_id, span)
""",
        "chunk_spans": _KG_CTE + """
SELECT 'D' || lpad(CAST(doc_id AS VARCHAR), 8, '0') AS doc_id,
       span AS span_seq, span_text AS text,
       length(span_text) >= 20 AS admitted
FROM spans
""",
        # GraphRAG k-hop neighborhood (k=2, seed = min subject entity):
        # undirected BFS distances via a bounded recursive CTE, edges
        # kept when an endpoint is within k-1 hops — the SQL twin of
        # stages/subgraph.khop_subgraph
        "kg_subgraph": _KG_CTE + """
, eg AS (SELECT 'D' || lpad(CAST(doc_id AS VARCHAR), 8, '0') AS doc_id,
                span AS span_seq,
                'w(X:' || ta || ')' AS subj, 'cooccurs' AS pred,
                'w(X:' || tb || ')' AS obj
         FROM pairs),
und AS (SELECT DISTINCT subj AS src, obj AS dst FROM eg
        UNION SELECT DISTINCT obj, subj FROM eg),
seed AS (SELECT min(subj) AS node FROM eg),
dist AS (
  SELECT node, MIN(d) AS dist FROM (
    WITH RECURSIVE walk(node, d) AS (
      SELECT node, 0 FROM seed
      UNION ALL
      SELECT u.dst, w.d + 1 FROM walk w JOIN und u ON u.src = w.node
      WHERE w.d < 1
    ) SELECT node, d FROM walk
  ) GROUP BY node
)
SELECT e.doc_id, e.span_seq, e.subj, e.pred, e.obj,
       CAST(least(coalesce(ds.dist, 99), coalesce(dd.dist, 99)) + 1
            AS BIGINT) AS hop
FROM eg e
LEFT JOIN dist ds ON ds.node = e.subj
LEFT JOIN dist dd ON dd.node = e.obj
WHERE least(coalesce(ds.dist, 99), coalesce(dd.dist, 99)) <= 1
""",
        "kg_subgraph_prompt": _KG_CTE + """
, eg AS (SELECT 'D' || lpad(CAST(doc_id AS VARCHAR), 8, '0') AS doc_id,
                doc_id AS raw_doc, span AS span_seq,
                'w(X:' || ta || ')' AS subj, 'cooccurs' AS pred,
                'w(X:' || tb || ')' AS obj
         FROM pairs),
seed AS (SELECT min(subj) AS node FROM eg),
sub AS (
  -- k=1 (the notebook's search_depth=1): the seed's incident edges
  SELECT e.doc_id, e.raw_doc, e.span_seq, e.subj, e.pred, e.obj
  FROM eg e, seed s
  WHERE e.subj = s.node OR e.obj = s.node
),
ev AS (
  SELECT s.doc_id, s.span_seq, s.subj, s.pred, s.obj,
         sp.span_text AS evidence
  FROM sub s JOIN spans sp
    ON sp.doc_id = s.raw_doc AND sp.span = s.span_seq
)
SELECT 'Knowledge graph statements (one per line, with supporting ' ||
       'evidence):' || chr(10) ||
       string_agg(subj || ' ' || pred || ' ' || obj || ' : ' || evidence,
                  chr(10) ORDER BY doc_id, span_seq, subj, obj) AS prompt
FROM ev
""",
        "token_count": """
SELECT doc_id, CAST(length(regexp_extract_all(text, '\\S+')) AS BIGINT)
       AS n_tokens
FROM documents
""",
        "token_count_bpe": r"""
SELECT doc_id,
       CAST(length(regexp_extract_all(text,
         '''[a-z]+| ?\p{L}+| ?\p{N}+| ?[^\s\p{L}\p{N}]+|\s+'))
         AS BIGINT) AS n_tokens_bpe
FROM documents
""",
        "text_quality": """
SELECT doc_id,
  CAST(length(text) AS BIGINT) AS n_chars_m,
  CAST(length(regexp_extract_all(text, '\\S+')) AS BIGINT) AS n_words,
  CAST(length(regexp_extract_all(text, '[.,;:!?]')) AS BIGINT) AS n_punct,
  CAST(length(regexp_extract_all(text, '[.,;:!?]')) AS DOUBLE)
    / CAST(length(text) AS DOUBLE) AS punct_ratio,
  CAST(length(text) - length(regexp_extract_all(text, ' ')) AS DOUBLE)
    / CAST(greatest(length(regexp_extract_all(text, '\\S+')), 1) AS DOUBLE)
    AS mean_word_len
FROM documents
""",
        "dedup_exact": """
SELECT min(doc_id) AS doc_id, text FROM documents GROUP BY text
""",
        "substring_dup_spans": """
WITH t AS (SELECT doc_id, string_split(text, ' ') w FROM documents),
u AS (SELECT doc_id, generate_subscripts(w, 1) i, unnest(w) tok FROM t),
g AS (SELECT doc_id, i AS pos,
        string_agg(tok, ' ') OVER (PARTITION BY doc_id ORDER BY i
          ROWS BETWEEN CURRENT ROW AND 7 FOLLOWING) AS gram,
        count(*) OVER (PARTITION BY doc_id ORDER BY i
          ROWS BETWEEN CURRENT ROW AND 7 FOLLOWING) AS width
      FROM u),
w AS (SELECT doc_id, pos, gram FROM g WHERE width = 8),
d AS (SELECT gram FROM w GROUP BY gram HAVING count(*) > 1),
s AS (SELECT w.doc_id, w.pos FROM w JOIN d USING (gram)),
m AS (SELECT doc_id, pos,
        max(pos + 8) OVER (PARTITION BY doc_id ORDER BY pos
          ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS prev_end
      FROM s)
SELECT doc_id,
       count(*)::BIGINT AS dup_windows,
       sum(CASE WHEN prev_end IS NULL OR prev_end <= pos THEN 8
                ELSE greatest(0, pos + 8 - prev_end) END)::BIGINT
         AS dup_tokens
FROM m GROUP BY doc_id
""",
        "minhash_near_dup": f"""
WITH t AS (SELECT doc_id, string_split(text, ' ') w FROM documents),
u AS (SELECT doc_id, generate_subscripts(w, 1) i, unnest(w) tok FROM t),
sh AS (SELECT a.doc_id, a.tok || ' ' || b.tok || ' ' || c.tok AS shingle
       FROM u a JOIN u b ON a.doc_id = b.doc_id AND b.i = a.i + 1
                JOIN u c ON a.doc_id = c.doc_id AND c.i = a.i + 2),
ds AS (SELECT DISTINCT doc_id, shingle FROM sh),
s AS (SELECT doc_id, count(*) n FROM ds GROUP BY doc_id),
inter AS (SELECT x.doc_id a, y.doc_id b, count(*) c
          FROM ds x JOIN ds y USING (shingle)
          WHERE x.doc_id < y.doc_id GROUP BY 1, 2)
SELECT a AS doc_a, b AS doc_b
FROM inter JOIN s sa ON sa.doc_id = inter.a JOIN s sb ON sb.doc_id = inter.b
WHERE c::DOUBLE / (sa.n + sb.n - c) >= 0.5
""",
        "near_dup_dedup": """
WITH RECURSIVE t AS (SELECT doc_id, string_split(text, ' ') w FROM documents),
u AS (SELECT doc_id, generate_subscripts(w, 1) i, unnest(w) tok FROM t),
sh AS (SELECT a.doc_id, a.tok || ' ' || b.tok || ' ' || c.tok AS shingle
       FROM u a JOIN u b ON a.doc_id = b.doc_id AND b.i = a.i + 1
                JOIN u c ON a.doc_id = c.doc_id AND c.i = a.i + 2),
ds AS (SELECT DISTINCT doc_id, shingle FROM sh),
s AS (SELECT doc_id, count(*) n FROM ds GROUP BY doc_id),
inter AS (SELECT x.doc_id a, y.doc_id b, count(*) c
          FROM ds x JOIN ds y USING (shingle)
          WHERE x.doc_id < y.doc_id GROUP BY 1, 2),
pairs AS (
  SELECT a AS doc_a, b AS doc_b
  FROM inter JOIN s sa ON sa.doc_id = inter.a JOIN s sb ON sb.doc_id = inter.b
  WHERE c::DOUBLE / (sa.n + sb.n - c) >= 0.5
),
e AS (SELECT doc_a a, doc_b b FROM pairs
      UNION SELECT doc_b, doc_a FROM pairs),
reach(src, dst) AS (
  SELECT a, b FROM e
  UNION
  SELECT r.src, e.b FROM reach r JOIN e ON r.dst = e.a WHERE e.b <> r.src
),
rep AS (SELECT src AS doc_id, least(src, min(dst)) AS rep_id
        FROM reach GROUP BY src)
SELECT d.doc_id, coalesce(r.rep_id, d.doc_id) AS rep_id
FROM documents d LEFT JOIN rep r USING (doc_id)
""",
        "curate_corpus": """
WITH RECURSIVE adm AS (
  SELECT doc_id, text,
         CAST(length(regexp_extract_all(text, '\\S+')) AS BIGINT) AS n_tokens
  FROM documents
  WHERE lang = 'en'
    AND length(regexp_extract_all(text, '\\S+')) BETWEEN 25 AND 95
),
ded AS (SELECT min(doc_id) AS doc_id, text FROM adm GROUP BY text),
t AS (SELECT doc_id, string_split(text, ' ') w FROM ded),
u AS (SELECT doc_id, generate_subscripts(w, 1) i, unnest(w) tok FROM t),
sh AS (SELECT a.doc_id, a.tok || ' ' || b.tok || ' ' || c.tok AS shingle
       FROM u a JOIN u b ON a.doc_id = b.doc_id AND b.i = a.i + 1
                JOIN u c ON a.doc_id = c.doc_id AND c.i = a.i + 2),
ds AS (SELECT DISTINCT doc_id, shingle FROM sh),
s AS (SELECT doc_id, count(*) n FROM ds GROUP BY doc_id),
inter AS (SELECT x.doc_id a, y.doc_id b, count(*) c
          FROM ds x JOIN ds y USING (shingle)
          WHERE x.doc_id < y.doc_id GROUP BY 1, 2),
pairs AS (
  SELECT a AS doc_a, b AS doc_b
  FROM inter JOIN s sa ON sa.doc_id = inter.a JOIN s sb ON sb.doc_id = inter.b
  WHERE c::DOUBLE / (sa.n + sb.n - c) >= 0.5
),
e AS (SELECT doc_a a, doc_b b FROM pairs
      UNION SELECT doc_b, doc_a FROM pairs),
reach(src, dst) AS (
  SELECT a, b FROM e
  UNION
  SELECT r.src, e.b FROM reach r JOIN e ON r.dst = e.a WHERE e.b <> r.src
),
rep AS (SELECT src AS doc_id, least(src, min(dst)) AS rep_id
        FROM reach GROUP BY src)
SELECT d.doc_id, a.n_tokens
FROM ded d JOIN adm a USING (doc_id)
LEFT JOIN rep r ON r.doc_id = d.doc_id
WHERE coalesce(r.rep_id, d.doc_id) = d.doc_id
""",
        "knn_cosine": """
SELECT q.vec_id AS query_id, e.vec_id AS neighbor_id,
       CAST(row_number() OVER (
         PARTITION BY q.vec_id
         ORDER BY list_cosine_similarity(q.embedding, e.embedding) DESC,
                  e.vec_id ASC) AS BIGINT) AS rank
FROM embeddings q, embeddings e
WHERE q.vec_id < 10 AND e.vec_id <> q.vec_id
QUALIFY rank <= 5
""",
        # predicate pushed into the scoring kernel: neighbors must carry
        # a DIFFERENT label than the query (cross-label retrieval)
        "knn_filtered": """
SELECT q.vec_id AS query_id, e.vec_id AS neighbor_id,
       CAST(row_number() OVER (
         PARTITION BY q.vec_id
         ORDER BY list_cosine_similarity(q.embedding, e.embedding) DESC,
                  e.vec_id ASC) AS BIGINT) AS rank
FROM embeddings q, embeddings e
WHERE q.vec_id < 10 AND e.label <> q.label
QUALIFY rank <= 5
""",
        # float aggregates use floor(x*10^d + 0.5)/10^d on BOTH sides so
        # summation-order fp differences between engines cancel out.
        "pricing_summary": """
SELECT l_returnflag, l_linestatus,
       floor(sum(l_quantity) * 100 + 0.5) / 100 AS sum_qty,
       floor(sum(l_extendedprice) * 100 + 0.5) / 100 AS sum_base_price,
       floor(sum(l_extendedprice * (1.0 - l_discount)) * 100 + 0.5) / 100
         AS revenue,
       count(*) AS n_rows
FROM lineitem GROUP BY l_returnflag, l_linestatus
""",
        "revenue_by_nation": """
SELECT n_name,
       floor(sum(l_extendedprice * (1.0 - l_discount)) * 100 + 0.5) / 100
         AS revenue,
       count(*) AS n_items
FROM lineitem
JOIN orders ON l_orderkey = o_orderkey
JOIN customer ON o_custkey = c_custkey
JOIN nation ON c_nationkey = n_nationkey
GROUP BY n_name
""",
        "top_parts": """
SELECT CAST(row_number() OVER (ORDER BY revenue DESC, l_partkey ASC) AS BIGINT)
         AS rnk, l_partkey, p_name,
       floor(revenue * 100 + 0.5) / 100 AS revenue
FROM (
  SELECT l_partkey, p_name,
         sum(l_extendedprice * (1.0 - l_discount)) AS revenue
  FROM lineitem JOIN part ON l_partkey = p_partkey
  GROUP BY l_partkey, p_name
)
QUALIFY rnk <= 10
""",
        "events_hourly": """
SELECT event_type, date_trunc('hour', ts) AS hour,
       count(*) AS n_events,
       floor(sum(value) * 10000 + 0.5) / 10000 AS sum_value
FROM events GROUP BY 1, 2
""",
        "events_sessions": """
WITH o AS (
  SELECT user_id, ts, value,
         CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts)
                   > INTERVAL 30 MINUTE
              THEN 1 ELSE 0 END AS new_sess
  FROM events
),
s AS (
  SELECT *, sum(new_sess) OVER (
    PARTITION BY user_id ORDER BY ts
    ROWS UNBOUNDED PRECEDING) AS sess_id
  FROM o
)
SELECT user_id, min(ts) AS session_start, max(ts) AS session_end,
       count(*) AS n_events,
       floor(sum(value) * 10000 + 0.5) / 10000 AS sum_value
FROM s GROUP BY user_id, sess_id
""",
        # equal-width histogram: identical double bin-edge arithmetic
        # (parquet double stats are exact, so stats min/max == true)
        "events_histogram": """
WITH s AS (SELECT min(value) AS lo, max(value) AS hi FROM events),
b AS (SELECT event_type,
             CAST(least(floor((value - lo) / ((hi - lo) / 16)), 15)
                  AS BIGINT) AS bin
      FROM events, s)
SELECT event_type, bin,
       lo + bin * ((hi - lo) / 16) AS bin_lo,
       lo + (bin + 1) * ((hi - lo) / 16) AS bin_hi,
       CAST(count(*) AS BIGINT) AS n
FROM b, s GROUP BY 1, 2, lo, hi
""",
        # keyword-in-context: strpos/substr parity (ASCII corpus —
        # char positions == byte positions on both engines)
        "kwic": """
SELECT doc_id, CAST(strpos(text, 'window') AS BIGINT) AS pos,
       substr(text, greatest(1, strpos(text, 'window') - 24),
              strpos(text, 'window') + 6 + 24
              - greatest(1, strpos(text, 'window') - 24)) AS snippet
FROM documents WHERE strpos(text, 'window') > 0
""",
        # sliding COUNT DISTINCT via bounded window expansion; epoch-day
        # ints on both sides
        "rolling_active_users": """
WITH ud AS (SELECT DISTINCT user_id, CAST(ts AS DATE) AS day FROM events),
days AS (SELECT DISTINCT day FROM ud)
SELECT date_diff('day', DATE '1970-01-01', d.day) AS day,
       CAST(count(DISTINCT u.user_id) AS BIGINT) AS active_users
FROM days d JOIN ud u ON u.day BETWEEN d.day - 6 AND d.day
GROUP BY 1
""",
        # market-basket rules: basket self-join pair counts + item
        # counts, double ratios of exact int counts rounded 1e-6
        "association_rules": """
WITH b AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem),
n AS (SELECT count(DISTINCT l_orderkey) AS N FROM lineitem),
item AS (SELECT l_partkey, count(*) AS c FROM b GROUP BY 1),
pair AS (SELECT x.l_partkey AS a, y.l_partkey AS bp, count(*) AS nab
         FROM b x JOIN b y ON x.l_orderkey = y.l_orderkey
         WHERE x.l_partkey < y.l_partkey
         GROUP BY 1, 2 HAVING count(*) >= 2),
dir AS (SELECT a AS ante, bp AS cons, nab FROM pair
        UNION ALL SELECT bp AS ante, a AS cons, nab FROM pair)
SELECT d.ante, d.cons, d.nab AS n_both,
       ia.c AS n_ante, ic.c AS n_cons,
       floor(d.nab / n.N * 1000000 + 0.5) / 1000000 AS support,
       floor(d.nab / ia.c * 1000000 + 0.5) / 1000000 AS confidence,
       floor(CAST(d.nab AS DOUBLE) * n.N / (ia.c * ic.c)
             * 1000000 + 0.5) / 1000000 AS lift
FROM dir d, n
JOIN item ia ON ia.l_partkey = d.ante
JOIN item ic ON ic.l_partkey = d.cons
""",
        # correlated subquery decorrelated: aggregate per key, join
        # back, integer cross-multiplied predicate (no division)
        "orders_above_cust_avg": """
WITH oc AS (SELECT o_orderkey, o_custkey,
                   CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS cents
            FROM orders),
a AS (SELECT o_custkey, sum(cents) AS s, count(*) AS n FROM oc GROUP BY 1)
SELECT o.o_orderkey, o.o_custkey,
       o.cents / 100.0 AS o_totalprice,
       floor(a.s / a.n / 100.0 * 1000000 + 0.5) / 1000000 AS cust_avg
FROM oc o JOIN a USING (o_custkey)
WHERE o.cents * a.n > a.s
""",
        # LAG window over a period aggregate (previous OBSERVED month)
        "revenue_mom_growth": """
WITH m AS (SELECT CAST(year(l_shipdate) * 100 + month(l_shipdate)
                       AS BIGINT) AS month,
                  sum(CAST(floor(l_extendedprice * (1.0 - l_discount)
                                 * 100.0 + 0.5) AS BIGINT)) AS c
           FROM lineitem GROUP BY 1)
SELECT month, c / 100.0 AS revenue,
       lag(c) OVER (ORDER BY month) / 100.0 AS prev_revenue,
       floor((c - lag(c) OVER (ORDER BY month))
             / lag(c) OVER (ORDER BY month)
             * 100.0 * 1000000 + 0.5) / 1000000 AS growth_pct
FROM m
""",
        # sessionize (same CTE as events_sessions) -> boundary +/-1
        # deltas -> global running sum -> per-hour max at change points
        "concurrent_sessions": """
WITH o AS (
  SELECT user_id, ts,
         CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts)
                   > INTERVAL 30 MINUTE
              THEN 1 ELSE 0 END AS new_sess
  FROM events
),
s AS (
  SELECT *, sum(new_sess) OVER (
    PARTITION BY user_id ORDER BY ts
    ROWS UNBOUNDED PRECEDING) AS sess_id
  FROM o
),
sess AS (SELECT user_id, sess_id, min(ts) AS st, max(ts) AS en
         FROM s GROUP BY user_id, sess_id),
b AS (SELECT st AS t, 1 AS d FROM sess
      UNION ALL
      SELECT en + INTERVAL 1 MICROSECOND, -1 FROM sess),
g AS (SELECT t, sum(d) AS d FROM b GROUP BY t),
c AS (SELECT t, sum(d) OVER (ORDER BY t) AS conc FROM g)
SELECT date_diff('hour', TIMESTAMP '1970-01-01', t) AS hour,
       CAST(max(conc) AS BIGINT) AS peak_concurrent
FROM c GROUP BY 1
""",
        "supplier_balance": """
SELECT s_nationkey, count(*) AS n_suppliers,
       floor(sum(s_acctbal) * 100 + 0.5) / 100 AS sum_bal,
       min(s_acctbal) AS min_bal, max(s_acctbal) AS max_bal
FROM supplier GROUP BY s_nationkey
""",
        "orders_high_value": """
SELECT o_orderkey, o_totalprice, o_orderstatus
FROM orders WHERE o_totalprice > 100000.0
""",
        "q3_shipping_priority": """
SELECT CAST(row_number() OVER (ORDER BY revenue DESC, o_orderdate ASC,
                               l_orderkey ASC) AS BIGINT) AS rnk,
       l_orderkey, o_orderdate, o_orderpriority,
       floor(revenue * 100 + 0.5) / 100 AS revenue
FROM (
  SELECT l_orderkey, o_orderdate, o_orderpriority,
         sum(l_extendedprice * (1.0 - l_discount)) AS revenue
  FROM customer JOIN orders ON c_custkey = o_custkey
  JOIN lineitem ON l_orderkey = o_orderkey
  WHERE c_mktsegment = 'BUILDING'
    AND o_orderdate < TIMESTAMP '1998-01-01'
    AND l_shipdate > TIMESTAMP '1998-01-01'
  GROUP BY 1, 2, 3
) QUALIFY rnk <= 10
""",
        "pricing_rollup": """
SELECT COALESCE(l_returnflag, 'ALL') AS l_returnflag,
       COALESCE(l_linestatus, 'ALL') AS l_linestatus,
       floor(sum(l_quantity) * 100 + 0.5) / 100 AS sum_qty,
       floor(sum(l_extendedprice * (1.0 - l_discount)) * 100 + 0.5) / 100
         AS revenue,
       count(*) AS n_rows
FROM lineitem GROUP BY ROLLUP(l_returnflag, l_linestatus)
""",
        "events_pivot": """
SELECT CAST(EXTRACT(hour FROM ts) AS BIGINT) AS hour,
  count(*) FILTER (event_type = 'click') AS n_click,
  floor(COALESCE(sum(value) FILTER (event_type = 'click'), 0)
        * 10000 + 0.5) / 10000 AS v_click,
  count(*) FILTER (event_type = 'error') AS n_error,
  floor(COALESCE(sum(value) FILTER (event_type = 'error'), 0)
        * 10000 + 0.5) / 10000 AS v_error,
  count(*) FILTER (event_type = 'purchase') AS n_purchase,
  floor(COALESCE(sum(value) FILTER (event_type = 'purchase'), 0)
        * 10000 + 0.5) / 10000 AS v_purchase,
  count(*) FILTER (event_type = 'signup') AS n_signup,
  floor(COALESCE(sum(value) FILTER (event_type = 'signup'), 0)
        * 10000 + 0.5) / 10000 AS v_signup,
  count(*) FILTER (event_type = 'view') AS n_view,
  floor(COALESCE(sum(value) FILTER (event_type = 'view'), 0)
        * 10000 + 0.5) / 10000 AS v_view
FROM events GROUP BY 1
""",
        "customer_order_statuses": """
SELECT o_custkey,
       string_agg(o_orderstatus, '' ORDER BY o_orderkey) AS status_seq,
       count(*) AS n_orders
FROM orders GROUP BY o_custkey
""",
        "part_copurchase": """
WITH d AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem),
p AS (SELECT a.l_partkey x, b.l_partkey y FROM d a JOIN d b
      ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey),
deg AS (SELECT part, count(*) AS degree
        FROM (SELECT x AS part FROM p UNION ALL SELECT y AS part FROM p)
        GROUP BY part)
SELECT CAST(row_number() OVER (ORDER BY degree DESC, part ASC) AS BIGINT)
         AS rnk, part, degree
FROM deg QUALIFY rnk <= 20
""",
        "user_activity_outer": """
WITH e AS (SELECT user_id AS k, count(*) AS n_events FROM events GROUP BY 1),
o AS (SELECT o_custkey AS k, count(*) AS n_high_orders FROM orders
      WHERE o_totalprice > 450000.0 GROUP BY 1)
SELECT COALESCE(e.k, o.k) AS key,
       COALESCE(n_events, 0) AS n_events,
       COALESCE(n_high_orders, 0) AS n_high_orders
FROM e FULL OUTER JOIN o ON e.k = o.k
""",
        "events_asof": """
SELECT p.event_id, p.user_id, p.ts, p.value,
       c.event_id AS click_event_id, c.ts AS click_ts,
       c.value AS click_value
FROM (SELECT * FROM events WHERE event_type = 'purchase') p
ASOF JOIN (SELECT * FROM events WHERE event_type = 'click') c
  ON p.user_id = c.user_id AND p.ts >= c.ts
""",
        "embedding_near_dup_exact": """
SELECT a.vec_id AS vec_a, b.vec_id AS vec_b
FROM embeddings a, embeddings b
WHERE a.vec_id < b.vec_id
  AND list_cosine_similarity(a.embedding, b.embedding) >= 0.45
""",
        "train_val_split": _train_val_split_sql(),
        "top_tokens": """
WITH toks AS (SELECT unnest(string_split(text, ' ')) AS token
              FROM documents)
, counts AS (SELECT token, count(*) AS n FROM toks
             WHERE token <> '' GROUP BY token)
SELECT CAST(row_number() OVER (ORDER BY n DESC, token) AS BIGINT) AS rnk,
       token, n
FROM counts ORDER BY n DESC, token LIMIT 20
""",
        "simhash_pairs_portable": _simhash_portable_sql(),
        "fingerprints_rolling": _fingerprints_rolling_sql(),
        # the sketch's bin certificate: bin of the ceil(q*n)-th order
        # statistic, with the same min/max-derived equi-width binning and
        # the same float64 arithmetic as the engine's partial_hist
        "events_quantiles_approx_check": """
WITH st AS (SELECT CAST(min(value) AS DOUBLE) AS lo,
                   CAST(max(value) AS DOUBLE) AS hi FROM events),
ranked AS (SELECT event_type, CAST(value AS DOUBLE) AS value,
           row_number() OVER (PARTITION BY event_type ORDER BY value)
             AS rn,
           count(*) OVER (PARTITION BY event_type) AS n
           FROM events),
qs(q) AS (VALUES (CAST(0.25 AS DOUBLE)), (CAST(0.5 AS DOUBLE)),
                 (CAST(0.75 AS DOUBLE)), (CAST(0.95 AS DOUBLE))),
pick AS (SELECT r.event_type, q.q, r.value AS xk
         FROM ranked r JOIN qs q
           ON r.rn = CAST(ceil(q.q * r.n) AS BIGINT))
SELECT p.event_type, p.q,
       LEAST(CAST(floor((p.xk - st.lo) / ((st.hi - st.lo) / 4096))
                  AS BIGINT), 4095) AS qbin
FROM pick p, st
""",
        "events_distinct_hll_check": """
SELECT event_type, CAST(count(DISTINCT user_id) AS BIGINT) AS n_users,
       TRUE AS within_bound
FROM events GROUP BY event_type
""",
        "events_quantiles": """
SELECT event_type, 0.25 AS q,
       floor(quantile_cont(value, 0.25) * 10000 + 0.5) / 10000 AS value
FROM events GROUP BY event_type
UNION ALL
SELECT event_type, 0.5,
       floor(quantile_cont(value, 0.5) * 10000 + 0.5) / 10000
FROM events GROUP BY event_type
UNION ALL
SELECT event_type, 0.75,
       floor(quantile_cont(value, 0.75) * 10000 + 0.5) / 10000
FROM events GROUP BY event_type
UNION ALL
SELECT event_type, 0.95,
       floor(quantile_cont(value, 0.95) * 10000 + 0.5) / 10000
FROM events GROUP BY event_type
""",
        "orders_top100": """
SELECT CAST(row_number() OVER (
         ORDER BY o_totalprice DESC, o_orderkey) AS BIGINT) AS rnk,
       o_orderkey, o_custkey, o_totalprice
FROM orders
ORDER BY o_totalprice DESC, o_orderkey
LIMIT 100
""",
        "customers_semi_join": """
SELECT c_custkey, c_name FROM customer c
WHERE EXISTS (SELECT 1 FROM orders o
              WHERE o.o_custkey = c.c_custkey
                AND o.o_totalprice > 350000)
""",
        "customers_anti_join": """
SELECT c_custkey, c_name FROM customer c
WHERE NOT EXISTS (SELECT 1 FROM orders o
                  WHERE o.o_custkey = c.c_custkey
                    AND o.o_totalprice > 350000)
""",
        "customer_left_join_counts": """
SELECT c.c_custkey, c.c_name,
       CAST(count(o.o_custkey) AS BIGINT) AS n_hv
FROM customer c
LEFT JOIN (SELECT o_custkey FROM orders WHERE o_totalprice > 350000) o
  ON o.o_custkey = c.c_custkey
GROUP BY c.c_custkey, c.c_name
""",
        "events_rolling": """
SELECT event_id, user_id, ts,
       floor(avg(value) OVER (
         PARTITION BY user_id ORDER BY ts, event_id
         ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) * 10000 + 0.5) / 10000
         AS avg_value
FROM events
""",
        "events_distinct_users": """
SELECT event_type,
       CAST(count(DISTINCT user_id) AS BIGINT) AS n_users,
       count(*) AS n_events
FROM events GROUP BY event_type
""",
        "top_customers_per_nation": """
WITH pc AS (SELECT o_custkey, sum(o_totalprice) AS total
            FROM orders GROUP BY o_custkey),
j AS (SELECT n_name, o_custkey, total
      FROM pc JOIN customer ON c_custkey = o_custkey
              JOIN nation ON n_nationkey = c_nationkey),
r AS (SELECT n_name, o_custkey, total,
             row_number() OVER (PARTITION BY n_name
                                ORDER BY total DESC, o_custkey) AS rnk
      FROM j)
SELECT n_name, CAST(rnk AS BIGINT) AS rnk, o_custkey,
       floor(total * 100 + 0.5) / 100 AS total_spent
FROM r WHERE rnk <= 3
""",
        "events_range": """
SELECT p.event_id, p.user_id, p.ts, p.value,
       c.event_id AS click_event_id, c.ts AS click_ts,
       c.value AS click_value
FROM (SELECT * FROM events WHERE event_type = 'purchase') p
JOIN (SELECT * FROM events WHERE event_type = 'click') c
  ON p.user_id = c.user_id
 AND c.ts <= p.ts
 AND c.ts > p.ts - INTERVAL 60 MINUTE
""",
        "bioc_ingest": """
SELECT CAST(doc_id AS VARCHAR) AS doc_id,
       CAST(0 AS INTEGER) AS span_seq,
       'text' AS kind,
       trim(text) AS text,
       length(trim(text)) >= 20 AS admitted
FROM documents WHERE doc_id < 200
""",
        "eutils_metadata": """
SELECT CAST(doc_id AS VARCHAR) AS doc_id,
       'pmid' || CAST(doc_id AS VARCHAR) AS pmid,
       'Document ' || CAST(doc_id AS VARCHAR) AS title,
       '10.1000/doc' || CAST(doc_id AS VARCHAR) AS doi,
       'Journal ' || CAST(doc_id % 5 AS VARCHAR) AS journal
FROM documents WHERE doc_id < 200
""",
        # float expressions below mirror corpus_stats bit-for-bit: same
        # cast points, same left-assoc multiply order, libm ln(), and the
        # engine's floor(x*1e6+0.5)/1e6 half-up rounding
        "tfidf_top_terms": """
WITH t AS (SELECT doc_id, string_split(text, ' ') w FROM documents),
u AS (SELECT doc_id, unnest(w) tok FROM t),
tf AS (SELECT doc_id, tok AS token, count(*) AS tf
       FROM u WHERE tok <> '' GROUP BY 1, 2),
dfq AS (SELECT token, count(*) AS df FROM tf GROUP BY token),
n AS (SELECT CAST(count(*) AS DOUBLE) AS n_docs FROM documents),
s AS (SELECT tf.doc_id, tf.token, tf.tf, dfq.df,
             floor(CAST(tf.tf AS DOUBLE)
                   * ln((SELECT n_docs FROM n) / CAST(dfq.df AS DOUBLE))
                   * 1e6 + 0.5) / 1e6 AS tfidf
      FROM tf JOIN dfq USING (token))
SELECT doc_id, token, tf, df, tfidf,
       CAST(row_number() OVER (PARTITION BY doc_id
                               ORDER BY tfidf DESC, token) AS BIGINT) AS rnk
FROM s QUALIFY rnk <= 5
""",
        "bigram_pmi": """
WITH t AS (SELECT doc_id, string_split(text, ' ') w FROM documents),
u AS (SELECT doc_id, generate_subscripts(w, 1) i, unnest(w) tok FROM t),
uni AS (SELECT tok AS token, count(*) AS c FROM u WHERE tok <> ''
        GROUP BY 1),
big AS (SELECT a.tok AS token_a, b.tok AS token_b, count(*) AS n_ab
        FROM u a JOIN u b ON a.doc_id = b.doc_id AND b.i = a.i + 1
        WHERE a.tok <> '' AND b.tok <> '' GROUP BY 1, 2),
nt AS (SELECT CAST(sum(c) AS DOUBLE) AS v FROM uni),
nb AS (SELECT CAST(sum(n_ab) AS DOUBLE) AS v FROM big),
s AS (SELECT token_a, token_b, n_ab,
             (CAST(n_ab AS DOUBLE) * (SELECT v FROM nt)
              * (SELECT v FROM nt))
             / ((SELECT v FROM nb) * CAST(ca.c AS DOUBLE)
                * CAST(cb.c AS DOUBLE)) AS ratio
      FROM big JOIN uni ca ON ca.token = big.token_a
               JOIN uni cb ON cb.token = big.token_b
      WHERE n_ab >= 5)
SELECT CAST(row_number() OVER (ORDER BY ratio DESC, token_a, token_b)
            AS BIGINT) AS rnk,
       token_a, token_b, n_ab,
       floor(ln(ratio) * 1e6 + 0.5) / 1e6 AS pmi
FROM s QUALIFY rnk <= 20
""",
        "stratified_sample": _stratified_sample_sql(50),
        "pack_sequences": """
WITH tok AS (
  SELECT doc_id,
         CAST(len(list_filter(string_split(text, ' '), x -> x <> ''))
              AS BIGINT) AS n_tokens
  FROM documents),
c AS (SELECT doc_id, n_tokens,
             COALESCE(sum(n_tokens) OVER (ORDER BY doc_id
               ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
               AS off
      FROM tok)
SELECT doc_id, n_tokens, CAST(off AS BIGINT) AS token_offset,
       CAST(off // 1024 AS BIGINT) AS seq_id
FROM c
""",
        "shuffle_order": _shuffle_order_sql(),
        "decontaminate": """
WITH t AS (SELECT doc_id, string_split(text, ' ') w FROM documents),
u AS (SELECT doc_id, generate_subscripts(w, 1) i, unnest(w) tok FROM t),
sh AS (SELECT a.doc_id, a.tok || ' ' || b.tok || ' ' || c.tok AS shingle
       FROM u a JOIN u b ON a.doc_id = b.doc_id AND b.i = a.i + 1
                JOIN u c ON a.doc_id = c.doc_id AND c.i = a.i + 2),
bench AS (SELECT DISTINCT shingle FROM sh WHERE doc_id % 97 = 0),
cont AS (SELECT DISTINCT s.doc_id FROM sh s JOIN bench USING (shingle)
         WHERE s.doc_id % 97 <> 0)
SELECT doc_id FROM documents
WHERE doc_id % 97 <> 0 AND doc_id NOT IN (SELECT doc_id FROM cont)
""",
        "repetition_stats": """
WITH t AS (SELECT doc_id, string_split(text, ' ') w FROM documents),
u AS (SELECT doc_id, generate_subscripts(w, 1) i, unnest(w) tok FROM t),
ne AS (SELECT doc_id, tok FROM u WHERE tok <> ''),
ag AS (SELECT doc_id, count(*) n, count(DISTINCT tok) nd
       FROM ne GROUP BY doc_id),
tp AS (SELECT doc_id, max(c) mx
       FROM (SELECT doc_id, tok, count(*) c FROM ne GROUP BY 1, 2)
       GROUP BY doc_id),
bg AS (SELECT a.doc_id, a.tok || ' ' || b.tok AS bigram
       FROM u a JOIN u b ON a.doc_id = b.doc_id AND b.i = a.i + 1
       WHERE a.tok <> '' AND b.tok <> ''),
bag AS (SELECT doc_id, count(*) nb, count(DISTINCT bigram) nbd
        FROM bg GROUP BY doc_id)
SELECT d.doc_id,
       CAST(COALESCE(ag.n, 0) AS BIGINT) AS n_tokens_r,
       CASE WHEN COALESCE(ag.n, 0) > 0
            THEN 1.0 - CAST(ag.nd AS DOUBLE) / CAST(ag.n AS DOUBLE)
            ELSE 0.0 END AS dup_token_ratio,
       CASE WHEN COALESCE(ag.n, 0) > 0
            THEN CAST(tp.mx AS DOUBLE) / CAST(ag.n AS DOUBLE)
            ELSE 0.0 END AS top_token_frac,
       CASE WHEN COALESCE(bag.nb, 0) > 0
            THEN 1.0 - CAST(bag.nbd AS DOUBLE) / CAST(bag.nb AS DOUBLE)
            ELSE 0.0 END AS dup_bigram_ratio
FROM documents d LEFT JOIN ag ON ag.doc_id = d.doc_id
LEFT JOIN tp ON tp.doc_id = d.doc_id
LEFT JOIN bag ON bag.doc_id = d.doc_id
""",
        "cohort_retention": """
WITH f AS (SELECT user_id, date_trunc('day', min(ts)) AS cohort_day
           FROM events GROUP BY 1)
SELECT f.cohort_day, date_trunc('day', e.ts) AS activity_day,
       CAST(count(DISTINCT e.user_id) AS BIGINT) AS n_users
FROM events e JOIN f USING (user_id)
GROUP BY 1, 2
""",
        "fuzzy_part_names": """
WITH n AS (SELECT DISTINCT p_brand, p_size, p_name FROM part)
SELECT a.p_brand, a.p_size,
       a.p_name AS name_a, b.p_name AS name_b,
       CAST(levenshtein(a.p_name, b.p_name) AS BIGINT) AS dist
FROM n a JOIN n b
  ON a.p_brand = b.p_brand AND a.p_size = b.p_size
 AND a.p_name < b.p_name
WHERE levenshtein(a.p_name, b.p_name) BETWEEN 1 AND 2
""",
        "sliding_chunks": """
WITH t AS (SELECT doc_id, string_split(text, ' ') AS toks FROM documents),
r AS (SELECT doc_id, toks,
             unnest(range(CAST(ceil(len(toks) / 10.0) AS BIGINT))) AS i
      FROM t)
SELECT doc_id, CAST(i AS BIGINT) AS chunk_seq,
       CAST(least(20, len(toks) - i * 10) AS BIGINT) AS n_tokens,
       array_to_string(toks[(i * 10 + 1):(i * 10 + 20)], ' ') AS chunk
FROM r
""",
        "users_intersect": """
SELECT DISTINCT user_id FROM events WHERE event_type = 'view'
INTERSECT
SELECT DISTINCT user_id FROM events WHERE event_type = 'purchase'
""",
        "users_except": """
SELECT DISTINCT user_id FROM events WHERE event_type = 'view'
EXCEPT
SELECT DISTINCT user_id FROM events
WHERE event_type = 'purchase' AND value > 90.0
""",
        "source_percent_rank": """
SELECT doc_id, source, n_chars,
       percent_rank() OVER (PARTITION BY source ORDER BY n_chars) AS pr
FROM documents
""",
        "events_winsorized": """
WITH q AS (SELECT event_type,
                  quantile_cont(value, 0.01) lo,
                  quantile_cont(value, 0.99) hi
           FROM events GROUP BY 1)
SELECT e.event_type,
       CAST(count(*) AS BIGINT) AS n,
       floor(avg(e.value) * 1e6 + 0.5) / 1e6 AS mean_raw,
       floor(avg(least(greatest(e.value, q.lo), q.hi)) * 1e6 + 0.5) / 1e6
           AS mean_winsorized,
       CAST(sum(CASE WHEN e.value < q.lo THEN 1 ELSE 0 END) AS BIGINT)
           AS n_clipped_low,
       CAST(sum(CASE WHEN e.value > q.hi THEN 1 ELSE 0 END) AS BIGINT)
           AS n_clipped_high
FROM events e JOIN q USING (event_type) GROUP BY e.event_type
""",
        "large_orders": """
WITH big AS (
  SELECT l_orderkey, sum(l_quantity) AS sum_qty
  FROM lineitem GROUP BY 1 HAVING sum(l_quantity) > 250.0
),
j AS (
  SELECT c.c_name, o.o_custkey, o.o_orderkey, o.o_orderdate,
         o.o_totalprice, big.sum_qty
  FROM big
  JOIN orders o ON o.o_orderkey = big.l_orderkey
  JOIN customer c ON c.c_custkey = o.o_custkey
)
SELECT CAST(row_number() OVER (ORDER BY o_totalprice DESC, o_orderkey)
            AS BIGINT) AS rnk,
       c_name, o_custkey, o_orderkey, o_orderdate, o_totalprice, sum_qty
FROM j ORDER BY o_totalprice DESC, o_orderkey LIMIT 100
""",
        "promo_revenue": """
SELECT floor(100.0 * sum(CASE WHEN p.p_type = 'PROMO'
                              THEN l.l_extendedprice * (1.0 - l.l_discount)
                              ELSE 0.0 END)
             / sum(l.l_extendedprice * (1.0 - l.l_discount)) * 1e6 + 0.5)
       / 1e6 AS promo_revenue_pct
FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
WHERE l.l_shipdate >= '1995-09-01' AND l.l_shipdate < '1995-10-01'
""",
        "idle_rich_customers": """
WITH thr AS (SELECT avg(c_acctbal) a FROM customer WHERE c_acctbal > 0.0)
SELECT c_mktsegment,
       CAST(count(*) AS BIGINT) AS n_customers,
       floor(sum(c_acctbal) * 100.0 + 0.5) / 100.0 AS total_acctbal
FROM customer c, thr
WHERE c.c_acctbal > thr.a
  AND NOT EXISTS (SELECT 1 FROM orders o
                  WHERE o.o_custkey = c.c_custkey
                    AND o.o_orderdate >= '2000-01-01')
GROUP BY c_mktsegment
""",
        "customer_running_total": """
SELECT o_custkey, o_orderkey, o_orderdate,
       floor(sum(o_totalprice) OVER (PARTITION BY o_custkey
                                     ORDER BY o_orderdate, o_orderkey)
             * 100.0 + 0.5) / 100.0 AS running_total
FROM orders
""",
        "lang_id": """
WITH toks AS (
  SELECT doc_id, lower(unnest(regexp_extract_all(text, '[a-zA-Z]+'))) tok
  FROM documents
),
sc AS (
  SELECT doc_id, count(*) n,
    sum(CASE WHEN tok IN ('the','and','of','to','a','in','is','it',
                          'that','for') THEN 1 ELSE 0 END) h_en,
    sum(CASE WHEN tok IN ('der','die','und','das','ist','nicht','mit',
                          'ein','zu') THEN 1 ELSE 0 END) h_de,
    sum(CASE WHEN tok IN ('le','la','et','les','des','est','une','dans',
                          'que') THEN 1 ELSE 0 END) h_fr,
    sum(CASE WHEN tok IN ('el','la','de','que','los','una','es','por',
                          'con') THEN 1 ELSE 0 END) h_es
  FROM toks GROUP BY doc_id
),
s AS (
  SELECT doc_id,
         h_en::DOUBLE / greatest(n, 1) s_en,
         h_de::DOUBLE / greatest(n, 1) s_de,
         h_fr::DOUBLE / greatest(n, 1) s_fr,
         h_es::DOUBLE / greatest(n, 1) s_es
  FROM sc
)
SELECT d.doc_id,
  CASE WHEN regexp_matches(d.text, '[一-鿿]') THEN 'zh'
       WHEN s.doc_id IS NULL THEN 'en'
       WHEN greatest(s_en, s_de, s_fr, s_es) <= 0 THEN 'en'
       WHEN s_en = greatest(s_en, s_de, s_fr, s_es) THEN 'en'
       WHEN s_de = greatest(s_en, s_de, s_fr, s_es) THEN 'de'
       WHEN s_fr = greatest(s_en, s_de, s_fr, s_es) THEN 'fr'
       ELSE 'es' END AS lang_pred
FROM documents d LEFT JOIN s USING (doc_id)
""",
        "events_wau": """
WITH p AS (SELECT DISTINCT date_trunc('day', ts) AS d, user_id
           FROM events),
days AS (SELECT DISTINCT d FROM p),
dau AS (SELECT d, CAST(count(*) AS BIGINT) dau FROM p GROUP BY 1),
wau AS (SELECT days.d, CAST(count(DISTINCT p.user_id) AS BIGINT) wau
        FROM days JOIN p
          ON p.d BETWEEN days.d - INTERVAL 6 DAY AND days.d
        GROUP BY days.d)
SELECT dau.d AS day, dau.dau, wau.wau
FROM dau JOIN wau ON dau.d = wau.d
""",
        "last_event_per_user": """
SELECT user_id, ts, event_id, event_type, value FROM (
  SELECT *, row_number() OVER (PARTITION BY user_id
                               ORDER BY ts DESC, event_id DESC) rn
  FROM events
) WHERE rn = 1
""",
        "integrity_audit": _integrity_audit_sql(),
        "key_skew": """
WITH lc AS (SELECT l_orderkey, count(*) c FROM lineitem GROUP BY 1),
lh AS (SELECT 'lineitem.l_orderkey' AS table_key,
              CAST(c AS BIGINT) AS rows_per_key,
              CAST(count(*) AS BIGINT) AS n_keys
       FROM lc GROUP BY c),
ec AS (SELECT user_id, count(*) c FROM events GROUP BY 1),
eh AS (SELECT 'events.user_id' AS table_key,
              CAST(c AS BIGINT) AS rows_per_key,
              CAST(count(*) AS BIGINT) AS n_keys
       FROM ec GROUP BY c)
SELECT * FROM lh UNION ALL SELECT * FROM eh
""",
        "event_anomalies": """
WITH m AS (SELECT event_type, count(*)::DOUBLE n, sum(value) s,
                  sum(value * value) sq
           FROM events GROUP BY 1),
p AS (SELECT event_type, s / n AS mu,
             sqrt(sq / n - (s / n) * (s / n)) AS sd
      FROM m)
SELECT e.event_id, e.event_type, e.value,
       floor((e.value - p.mu) / p.sd * 1e6 + 0.5) / 1e6 AS z
FROM events e JOIN p USING (event_type)
WHERE abs((e.value - p.mu) / p.sd) > 3.0
""",
        "repurchase_latency": """
WITH g AS (
  SELECT o_custkey,
         date_diff('day',
                   lag(o_orderdate) OVER (PARTITION BY o_custkey
                                          ORDER BY o_orderdate, o_orderkey),
                   o_orderdate) AS gap
  FROM orders),
d AS (SELECT o_custkey, gap FROM g WHERE gap IS NOT NULL),
n AS (SELECT o_custkey, CAST(count(*) AS BIGINT) n_orders
      FROM orders GROUP BY 1)
SELECT d.o_custkey, n.n_orders,
       CAST(count(*) AS BIGINT) AS n_gaps,
       floor(avg(gap::DOUBLE) * 1e6 + 0.5) / 1e6 AS mean_gap_days,
       CAST(max(gap) AS BIGINT) AS max_gap_days
FROM d JOIN n USING (o_custkey)
GROUP BY d.o_custkey, n.n_orders
""",
        "revenue_gini": """
WITH s AS (SELECT o_custkey,
                  sum(CAST(floor(o_totalprice * 100.0 + 0.5) AS BIGINT))
                    AS cents
           FROM orders GROUP BY 1),
r AS (SELECT cents,
             row_number() OVER (ORDER BY cents, o_custkey) AS i
      FROM s)
SELECT floor((2.0 * sum(i::DOUBLE * cents::DOUBLE)
              / (count(*) * sum(cents))
              - (count(*) + 1.0) / count(*)) * 1e6 + 0.5) / 1e6 AS gini,
       CAST(count(*) AS BIGINT) AS n_customers,
       CAST(sum(cents) AS BIGINT) AS total_cents
FROM r
""",
        "events_gapfill": """
WITH c AS (SELECT event_type, date_trunc('day', ts) d,
                  CAST(count(*) AS BIGINT) n
           FROM events GROUP BY 1, 2),
b AS (SELECT min(d) lo, max(d) hi FROM c),
days AS (SELECT unnest(generate_series(lo, hi, INTERVAL 1 DAY)) d FROM b),
types AS (SELECT DISTINCT event_type FROM c)
SELECT t.event_type, days.d AS day,
       coalesce(c.n, 0) AS n_events
FROM types t CROSS JOIN days
LEFT JOIN c ON c.event_type = t.event_type AND c.d = days.d
""",
        "embedding_covariance": """
WITH u AS (SELECT vec_id, generate_subscripts(embedding, 1) i,
                  CAST(unnest(embedding) AS DOUBLE) v
           FROM embeddings)
SELECT CAST(a.i AS BIGINT) AS i, CAST(b.i AS BIGINT) AS j,
       floor(covar_pop(a.v, b.v) * 1e6 + 0.5) / 1e6 AS cov
FROM u a JOIN u b USING (vec_id)
GROUP BY a.i, b.i
""",
        "source_token_entropy": """
WITH u AS (SELECT source, unnest(string_split(text, ' ')) tok
           FROM documents),
c AS (SELECT source, tok, count(*)::DOUBLE c FROM u
      WHERE tok <> '' GROUP BY 1, 2),
a AS (SELECT source, sum(c) n, count(*) vocab, sum(c * ln(c)) clnc
      FROM c GROUP BY 1)
SELECT source, CAST(n AS BIGINT) AS n_tokens,
       CAST(vocab AS BIGINT) AS vocab_size,
       floor((ln(n) - clnc / n) * 1e6 + 0.5) / 1e6 AS entropy
FROM a
""",
        "zipf_slope": """
WITH t AS (SELECT unnest(string_split(text, ' ')) tok FROM documents),
c AS (SELECT tok, count(*) cnt FROM t WHERE tok <> '' GROUP BY 1),
r AS (SELECT cnt, rank() OVER (ORDER BY cnt DESC) rnk FROM c)
SELECT floor(regr_slope(ln(cnt), ln(rnk)) * 1e6 + 0.5) / 1e6 AS zipf_slope,
       CAST(count(*) AS BIGINT) AS vocab_size,
       CAST(sum(cnt) AS BIGINT) AS total_tokens
FROM r
""",
        "trigram_topk": """
WITH t AS (SELECT doc_id, string_split(text, ' ') w FROM documents),
u AS (SELECT doc_id, generate_subscripts(w, 1) i, unnest(w) tok FROM t),
g AS (SELECT a.tok || ' ' || b.tok || ' ' || c.tok AS gram
      FROM u a JOIN u b ON a.doc_id = b.doc_id AND b.i = a.i + 1
      JOIN u c ON a.doc_id = c.doc_id AND c.i = a.i + 2),
gc AS (SELECT gram, CAST(count(*) AS BIGINT) n FROM g GROUP BY 1)
SELECT CAST(row_number() OVER (ORDER BY n DESC, gram) AS BIGINT) AS rnk,
       gram, n
FROM gc ORDER BY n DESC, gram LIMIT 20
""",
        "source_lang_chi2": """
WITH cells AS (SELECT source, lang, count(*)::DOUBLE n
               FROM documents GROUP BY 1, 2),
tot AS (SELECT sum(n) n FROM cells),
rows_ AS (SELECT source, sum(n) rn FROM cells GROUP BY 1),
cols_ AS (SELECT lang, sum(n) cn FROM cells GROUP BY 1),
grid AS (SELECT r.source, c.lang, r.rn * c.cn / t.n AS exp,
                coalesce(cells.n, 0.0) AS obs
         FROM rows_ r CROSS JOIN cols_ c CROSS JOIN tot t
         LEFT JOIN cells ON cells.source = r.source AND cells.lang = c.lang)
SELECT floor(sum((obs - exp) * (obs - exp) / exp) * 1e6 + 0.5) / 1e6
         AS chi2,
       (SELECT CAST(count(*) AS BIGINT) FROM rows_) AS n_sources,
       (SELECT CAST(count(*) AS BIGINT) FROM cols_) AS n_langs,
       (SELECT CAST(sum(n) AS BIGINT) FROM cells) AS n_docs
FROM grid
""",
        "event_transitions": """
WITH o AS (
  SELECT user_id, event_type,
         lag(event_type) OVER (PARTITION BY user_id
                               ORDER BY ts, event_id) AS prev_type
  FROM events
)
SELECT prev_type AS from_type, event_type AS to_type,
       CAST(count(*) AS BIGINT) AS n
FROM o WHERE prev_type IS NOT NULL
GROUP BY 1, 2
""",
        "session_stats": """
WITH o AS (
  SELECT user_id, ts,
         CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts)
                   > INTERVAL 30 MINUTE
              THEN 1 ELSE 0 END AS new_sess
  FROM events
),
s AS (
  SELECT *, sum(new_sess) OVER (
    PARTITION BY user_id ORDER BY ts
    ROWS UNBOUNDED PRECEDING) AS sess_id
  FROM o
),
per_sess AS (
  SELECT user_id, sess_id, count(*) AS n,
         epoch(max(ts) - min(ts)) AS dur
  FROM s GROUP BY 1, 2
)
SELECT user_id,
       CAST(count(*) AS BIGINT) AS n_sessions,
       CAST(sum(n) AS BIGINT) AS n_events,
       CAST(max(n) AS BIGINT) AS max_session_events,
       floor(avg(dur) * 1e6 + 0.5) / 1e6 AS mean_session_seconds
FROM per_sess GROUP BY user_id
""",
        "returned_item_ranking": """
WITH r AS (
  SELECT o.o_custkey,
         sum(l.l_extendedprice * (1.0 - l.l_discount)) AS rev
  FROM lineitem l
  JOIN orders o ON o.o_orderkey = l.l_orderkey
  WHERE l.l_returnflag = 'R'
    AND o.o_orderdate >= '1995-01-01' AND o.o_orderdate < '1995-04-01'
  GROUP BY o.o_custkey
)
SELECT c.c_custkey, c.c_name,
       floor(r.rev * 100.0 + 0.5) / 100.0 AS revenue,
       c.c_acctbal, n.n_name
FROM r
JOIN customer c ON c.c_custkey = r.o_custkey
JOIN nation n ON n.n_nationkey = c.c_nationkey
ORDER BY revenue DESC, c.c_custkey LIMIT 20
""",
        "nation_trade_volume": """
SELECT ns.n_name AS supp_nation, nc.n_name AS cust_nation,
       CAST(year(l.l_shipdate) AS BIGINT) AS year,
       sum(CAST(floor(l.l_extendedprice * (1.0 - l.l_discount) * 100.0
                      + 0.5) AS BIGINT)) / 100.0 AS volume
FROM lineitem l
JOIN supplier s ON s.s_suppkey = l.l_suppkey
JOIN nation ns ON ns.n_nationkey = s.s_nationkey
JOIN orders o ON o.o_orderkey = l.l_orderkey
JOIN customer c ON c.c_custkey = o.o_custkey
JOIN nation nc ON nc.n_nationkey = c.c_nationkey
WHERE year(l.l_shipdate) BETWEEN 1995 AND 1996
GROUP BY 1, 2, 3
""",
        # Q5: the c_nationkey = s_nationkey equality between two
        # dimension hops of the same fact row; per-row integer cents
        "local_supplier_volume": """
SELECT n_name,
       sum(CAST(floor(l_extendedprice * (1.0 - l_discount) * 100.0
                      + 0.5) AS BIGINT)) / 100.0 AS revenue
FROM customer, orders, lineitem, supplier, nation, region
WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
  AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
  AND r_name = 'ASIA'
  AND o_orderdate >= DATE '1995-01-01'
  AND o_orderdate < DATE '1997-01-01'
GROUP BY n_name
""",
        "order_priority_exists": """
SELECT o_orderpriority, CAST(count(*) AS BIGINT) AS order_count
FROM orders o
WHERE o.o_orderdate >= '1995-01-01' AND o.o_orderdate < '1995-04-01'
  AND EXISTS (SELECT 1 FROM lineitem l
              WHERE l.l_orderkey = o.o_orderkey
                AND l.l_returnflag = 'R')
GROUP BY o_orderpriority
""",
        "events_cube": """
WITH base AS (
  SELECT event_type,
         strftime(date_trunc('day', ts), '%Y-%m-%d') AS day,
         CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
  FROM events)
SELECT event_type, day, CAST(count(*) AS BIGINT) AS n_events,
       sum(cents) / 100.0 AS sum_value
FROM base GROUP BY event_type, day
UNION ALL
SELECT event_type, 'ALL', CAST(count(*) AS BIGINT),
       sum(cents) / 100.0
FROM base GROUP BY event_type
UNION ALL
SELECT 'ALL', day, CAST(count(*) AS BIGINT), sum(cents) / 100.0
FROM base GROUP BY day
UNION ALL
SELECT 'ALL', 'ALL', CAST(count(*) AS BIGINT), sum(cents) / 100.0
FROM base
""",
        "temperature_mix": """
WITH cnt AS (SELECT lang, count(*) AS c FROM documents GROUP BY lang),
r AS (SELECT lang,
             least(1.0, pow(50.0 / CAST(c AS DOUBLE), 0.5)) AS rate
      FROM cnt)
SELECT d.doc_id, d.lang, r.rate
FROM documents d JOIN r USING (lang)
WHERE CAST(CAST((CAST(d.doc_id AS HUGEINT) * 11400714819323198485)
                % 18446744073709551616 AS UBIGINT) AS DOUBLE)
      < r.rate * 18446744073709551616.0
""",
        "latency_priority_counts": """
WITH d AS (
  SELECT (epoch_us(l.l_shipdate) - epoch_us(o.o_orderdate))
           // 86400000000 AS days,
         o.o_orderpriority IN ('1-URGENT', '2-HIGH') AS high
  FROM lineitem l JOIN orders o ON o.o_orderkey = l.l_orderkey)
SELECT CASE WHEN days < 0 THEN 'early'
            WHEN days <= 90 THEN 'on-time'
            ELSE 'late' END AS ship_bucket,
       CAST(sum(CASE WHEN high THEN 1 ELSE 0 END) AS BIGINT)
         AS high_line_count,
       CAST(sum(CASE WHEN high THEN 0 ELSE 1 END) AS BIGINT)
         AS low_line_count
FROM d GROUP BY 1
""",
        "dominant_suppliers": """
WITH ps AS (
  SELECT l_partkey, l_suppkey, sum(l_quantity) AS q
  FROM lineitem GROUP BY 1, 2),
pt AS (
  SELECT l_partkey, sum(q) AS tq, count(*) AS ns FROM ps GROUP BY 1)
SELECT s.s_suppkey, s.s_name,
       CAST(count(*) AS BIGINT) AS n_dominant_parts
FROM ps
JOIN pt USING (l_partkey)
JOIN supplier s ON s.s_suppkey = ps.l_suppkey
WHERE pt.ns >= 2 AND ps.q * pt.ns > 2 * pt.tq
GROUP BY 1, 2
""",
        "waiting_suppliers": """
WITH j AS (
  SELECT l.l_orderkey, l.l_suppkey,
         bool_or(l.l_shipdate > o.o_orderdate + INTERVAL 180 DAY)
           AS late
  FROM lineitem l JOIN orders o ON o.o_orderkey = l.l_orderkey
  WHERE o.o_orderstatus = 'F'
  GROUP BY 1, 2),
po AS (
  SELECT l_orderkey, count(*) AS ns,
         sum(CASE WHEN late THEN 1 ELSE 0 END) AS nl
  FROM j GROUP BY 1)
SELECT s.s_name, CAST(count(*) AS BIGINT) AS numwait
FROM j JOIN po USING (l_orderkey)
JOIN supplier s ON s.s_suppkey = j.l_suppkey
WHERE j.late AND po.ns > 1 AND po.nl = 1
GROUP BY 1
ORDER BY numwait DESC, s_name
LIMIT 100
""",
        "copurchase_components": """
WITH RECURSIVE
lo AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem),
e AS (
  SELECT a.l_partkey AS pa, b.l_partkey AS pb
  FROM lo a JOIN lo b
    ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
  GROUP BY 1, 2 HAVING count(*) >= 2),
und AS (SELECT pa AS s, pb AS d FROM e
        UNION ALL SELECT pb, pa FROM e),
nodes AS (SELECT DISTINCT s AS node FROM und),
reach(node, lbl) AS (
  SELECT node, node FROM nodes
  UNION
  SELECT u.d, r.lbl FROM reach r JOIN und u ON u.s = r.node)
SELECT node AS l_partkey, CAST(min(lbl) AS BIGINT) AS component_id
FROM reach GROUP BY 1
""",
        "ship_latency_quantiles": """
WITH d AS (
  SELECT o.o_orderpriority,
         (epoch_us(l.l_shipdate) - epoch_us(o.o_orderdate))
           // 86400000000 AS days
  FROM lineitem l JOIN orders o ON o.o_orderkey = l.l_orderkey)
SELECT o_orderpriority, 0.5 AS q,
       floor(quantile_cont(days, 0.5) * 1e4 + 0.5) / 1e4 AS latency_days
FROM d GROUP BY 1
UNION ALL
SELECT o_orderpriority, 0.9,
       floor(quantile_cont(days, 0.9) * 1e4 + 0.5) / 1e4
FROM d GROUP BY 1
UNION ALL
SELECT o_orderpriority, 0.99,
       floor(quantile_cont(days, 0.99) * 1e4 + 0.5) / 1e4
FROM d GROUP BY 1
""",
        "knn_label_purity": """
WITH q AS (SELECT * FROM embeddings WHERE vec_id < 200),
r AS (SELECT q.vec_id AS qid, q.label AS qlab, e.label AS nlab,
             row_number() OVER (
               PARTITION BY q.vec_id
               ORDER BY list_cosine_similarity(q.embedding, e.embedding)
                        DESC, e.vec_id) AS rn
      FROM q, embeddings e WHERE e.vec_id <> q.vec_id)
SELECT CAST(qlab AS BIGINT) AS label,
       CAST(count(*) AS BIGINT) AS n_pairs,
       sum(CASE WHEN nlab = qlab THEN 1 ELSE 0 END)::DOUBLE
         / count(*)::DOUBLE AS purity
FROM r WHERE rn <= 5 GROUP BY qlab
""",
        "event_value_trend": """
WITH m AS (
  SELECT event_type,
         CAST(count(*) AS HUGEINT) AS n,
         CAST(sum((epoch_us(ts) - 1704067200000000) // 1000000)
              AS HUGEINT) AS st,
         CAST(sum(CAST(floor(value * 100.0 + 0.5) AS BIGINT))
              AS HUGEINT) AS sv,
         CAST(sum(((epoch_us(ts) - 1704067200000000) // 1000000)
                  * ((epoch_us(ts) - 1704067200000000) // 1000000))
              AS HUGEINT) AS stt,
         CAST(sum(((epoch_us(ts) - 1704067200000000) // 1000000)
                  * CAST(floor(value * 100.0 + 0.5) AS BIGINT))
              AS HUGEINT) AS stv
  FROM events GROUP BY event_type)
SELECT event_type, CAST(n AS BIGINT) AS n,
       floor((CAST(n * stv - st * sv AS DOUBLE)
              / CAST(n * stt - st * st AS DOUBLE)) * 86400.0 / 100.0
             * 1e8 + 0.5) / 1e8 AS slope_per_day
FROM m
""",
        "nation_revenue_share": """
WITH per AS (
  SELECT r.r_name, n.n_name,
         sum(CAST(floor(l.l_extendedprice * (1.0 - l.l_discount) * 100.0
                        + 0.5) AS BIGINT)) AS cents
  FROM lineitem l
  JOIN orders o ON o.o_orderkey = l.l_orderkey
  JOIN customer c ON c.c_custkey = o.o_custkey
  JOIN nation n ON n.n_nationkey = c.c_nationkey
  JOIN region r ON r.r_regionkey = n.n_regionkey
  GROUP BY 1, 2)
SELECT r_name, n_name, cents / 100.0 AS revenue,
       floor(cents::DOUBLE
             / (sum(cents) OVER (PARTITION BY r_name))::DOUBLE * 1e6
             + 0.5) / 1e6 AS share
FROM per
""",
        "tfidf_similar_docs": """
WITH t AS (SELECT doc_id, string_split(text, ' ') w FROM documents),
u AS (SELECT doc_id, unnest(w) tok FROM t),
ne AS (SELECT doc_id, tok FROM u WHERE tok <> ''),
tf AS (SELECT doc_id, tok, CAST(count(*) AS BIGINT) tf
       FROM ne GROUP BY 1, 2),
dfc AS (SELECT tok, CAST(count(*) AS BIGINT) df FROM tf GROUP BY tok),
n AS (SELECT count(*) c FROM documents),
w AS (SELECT tf.doc_id, tf.tok,
             tf.tf::DOUBLE * ln((SELECT c FROM n)::DOUBLE
                                / dfc.df::DOUBLE) AS w
      FROM tf JOIN dfc USING (tok)
      WHERE dfc.df::DOUBLE <= 0.5 * (SELECT c FROM n)::DOUBLE),
nr AS (SELECT doc_id,
              sum(CAST(floor(w * w * 1e9 + 0.5) AS BIGINT)) AS n2
       FROM w GROUP BY doc_id),
p AS (SELECT a.doc_id da, b.doc_id db,
             sum(CAST(floor(a.w * b.w * 1e9 + 0.5) AS BIGINT)) AS dot
      FROM w a JOIN w b ON a.tok = b.tok AND a.doc_id < b.doc_id
      GROUP BY 1, 2),
c AS (SELECT p.da AS doc_a, p.db AS doc_b,
             floor(p.dot / sqrt(na.n2::DOUBLE * nb.n2::DOUBLE) * 1e6
                   + 0.5) / 1e6 AS cosine
      FROM p JOIN nr na ON na.doc_id = p.da
             JOIN nr nb ON nb.doc_id = p.db)
SELECT doc_a, doc_b, cosine FROM c WHERE cosine >= 0.3
""",
        "ks_statistic": """
WITH u AS (SELECT value,
                  CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END a,
                  CASE WHEN event_type = 'view' THEN 1 ELSE 0 END b
           FROM events WHERE event_type IN ('purchase', 'view')),
c AS (SELECT value, sum(a) ca, sum(b) cb FROM u GROUP BY value),
s AS (SELECT value, sum(ca) OVER (ORDER BY value) fa,
             sum(cb) OVER (ORDER BY value) fb
      FROM c),
n AS (SELECT sum(ca) na, sum(cb) nb FROM c)
SELECT floor(max(abs(fa::DOUBLE / na::DOUBLE
                     - fb::DOUBLE / nb::DOUBLE)) * 1e6 + 0.5) / 1e6 AS ks,
       CAST(na AS BIGINT) AS n_a, CAST(nb AS BIGINT) AS n_b
FROM s, n GROUP BY na, nb
""",
        "benford_digits": """
WITH c AS (SELECT CAST(substring(
             CAST(CAST(floor(l_extendedprice * 100.0 + 0.5) AS BIGINT)
                  AS VARCHAR), 1, 1) AS BIGINT) AS digit
           FROM lineitem),
g AS (SELECT digit, CAST(count(*) AS BIGINT) AS n FROM c GROUP BY digit)
SELECT digit, n, n::DOUBLE / (SELECT sum(n) FROM g)::DOUBLE AS frac FROM g
""",
        "running_distinct_users": """
WITH f AS (SELECT user_id, min(epoch_us(ts) // 86400000000) AS d
           FROM events GROUP BY 1),
c AS (SELECT d, CAST(count(*) AS BIGINT) AS new_users FROM f GROUP BY d)
SELECT strftime(make_timestamp(d * 86400000000), '%Y-%m-%d') AS day,
       new_users,
       CAST(sum(new_users) OVER (ORDER BY d) AS BIGINT) AS cum_users
FROM c
""",
        "events_mad": """
WITH m AS (SELECT event_type, quantile_cont(value, 0.5) AS med
           FROM events GROUP BY 1),
d AS (SELECT e.event_type, abs(e.value - m.med) AS av
      FROM events e JOIN m USING (event_type)),
md AS (SELECT event_type, quantile_cont(av, 0.5) AS mad
       FROM d GROUP BY 1)
SELECT m.event_type,
       floor(m.med * 1e4 + 0.5) / 1e4 AS median_value,
       floor(md.mad * 1e4 + 0.5) / 1e4 AS mad
FROM m JOIN md USING (event_type)
""",
        "pretrain_corpus": """
WITH RECURSIVE
t AS (SELECT doc_id, text, lang, string_split(text, ' ') w FROM documents),
u AS (SELECT doc_id, unnest(w) tok FROM t),
ag AS (SELECT doc_id, count(*) n, count(DISTINCT tok) nd,
              sum(length(tok)) ch,
              sum(CASE WHEN tok IN ('the', 'a') THEN 1 ELSE 0 END) hits
       FROM u GROUP BY 1),
adm AS (SELECT t.doc_id, t.text, CAST(ag.n AS BIGINT) AS n_tokens
        FROM t JOIN ag USING (doc_id)
        WHERE t.lang = 'en'
          AND ag.n BETWEEN 15 AND 90
          AND ag.ch::DOUBLE / ag.n::DOUBLE >= 3.0
          AND ag.ch::DOUBLE / ag.n::DOUBLE <= 4.5
          AND ag.nd::DOUBLE / ag.n::DOUBLE >= 0.35
          AND ag.hits >= 1),
uu AS (SELECT doc_id, generate_subscripts(w, 1) i, unnest(w) tok FROM t),
shall AS (SELECT a.doc_id, a.tok || ' ' || b.tok || ' ' || c.tok AS shingle
          FROM uu a JOIN uu b ON a.doc_id = b.doc_id AND b.i = a.i + 1
                    JOIN uu c ON a.doc_id = c.doc_id AND c.i = a.i + 2),
bench AS (SELECT DISTINCT shingle FROM shall WHERE doc_id % 97 = 0),
cont AS (SELECT DISTINCT s.doc_id FROM shall s JOIN bench USING (shingle)
         WHERE s.doc_id % 97 <> 0),
clean AS (SELECT * FROM adm
          WHERE doc_id % 97 <> 0
            AND doc_id NOT IN (SELECT doc_id FROM cont)),
ded AS (SELECT min(doc_id) AS doc_id, text FROM clean GROUP BY text),
ds AS (SELECT DISTINCT s.doc_id, s.shingle
       FROM shall s JOIN ded USING (doc_id)),
s AS (SELECT doc_id, count(*) n FROM ds GROUP BY doc_id),
inter AS (SELECT x.doc_id a, y.doc_id b, count(*) c
          FROM ds x JOIN ds y USING (shingle)
          WHERE x.doc_id < y.doc_id GROUP BY 1, 2),
pairs AS (
  SELECT a AS doc_a, b AS doc_b
  FROM inter JOIN s sa ON sa.doc_id = inter.a
             JOIN s sb ON sb.doc_id = inter.b
  WHERE c::DOUBLE / (sa.n + sb.n - c) >= 0.5
),
e AS (SELECT doc_a a, doc_b b FROM pairs
      UNION SELECT doc_b, doc_a FROM pairs),
reach(src, dst) AS (
  SELECT a, b FROM e
  UNION
  SELECT r.src, e.b FROM reach r JOIN e ON r.dst = e.a WHERE e.b <> r.src
),
rep AS (SELECT src AS doc_id, least(src, min(dst)) AS rep_id
        FROM reach GROUP BY src)
SELECT d.doc_id, a.n_tokens
FROM ded d JOIN clean a USING (doc_id)
LEFT JOIN rep r ON r.doc_id = d.doc_id
WHERE coalesce(r.rep_id, d.doc_id) = d.doc_id
""",
        "events_hopping": """
WITH e AS (SELECT epoch_us(ts) AS tsu, event_type FROM events),
w AS (SELECT (tsu // 900000000) * 900000000
             - CAST(unnest(generate_series(0, 3)) AS BIGINT) * 900000000
               AS ws,
             event_type
      FROM e)
SELECT make_timestamp(ws) AS window_start, event_type,
       CAST(count(*) AS BIGINT) AS n
FROM w GROUP BY 1, 2
""",
        "events_window_topk": """
WITH c AS (SELECT make_timestamp((epoch_us(ts) // 3600000000)
                                 * 3600000000) AS hour,
                  event_type, CAST(count(*) AS BIGINT) AS n
           FROM events GROUP BY 1, 2),
r AS (SELECT hour, event_type, n,
             CAST(row_number() OVER (PARTITION BY hour
                                     ORDER BY n DESC, event_type)
                  AS BIGINT) AS rnk
      FROM c)
SELECT hour, rnk, event_type, n FROM r WHERE rnk <= 3
""",
        "event_dedup_tolerance": """
WITH o AS (SELECT event_id, user_id, event_type, ts, epoch_us(ts) AS tsu,
                  lag(epoch_us(ts)) OVER (
                    PARTITION BY user_id, event_type
                    ORDER BY ts, event_id) AS prev
           FROM events)
SELECT event_id, user_id, event_type, ts
FROM o WHERE prev IS NULL OR tsu - prev > 3600000000
""",
        "user_hour_throttle": """
WITH o AS (SELECT event_id, user_id, ts,
                  row_number() OVER (
                    PARTITION BY user_id, epoch_us(ts) // 3600000000
                    ORDER BY ts, event_id) AS rn
           FROM events)
SELECT event_id, user_id, ts FROM o WHERE rn <= 3
""",
        "weighted_sample": f"""
WITH kk AS (
  SELECT doc_id, n_chars,
         ln((CAST(CAST((CAST(doc_id AS HUGEINT) * {11400714819323198485})
                  % 18446744073709551616 AS UBIGINT) AS DOUBLE) + 1.0)
            / 18446744073709551616.0) / CAST(n_chars AS DOUBLE) AS key
  FROM documents)
SELECT CAST(row_number() OVER (ORDER BY key DESC, doc_id) AS BIGINT)
         AS rnk,
       doc_id, n_chars
FROM kk ORDER BY key DESC, doc_id LIMIT 100
""",
        "mips_topk": """
SELECT q.vec_id AS query_id, e.vec_id AS neighbor_id,
       CAST(row_number() OVER (
         PARTITION BY q.vec_id
         ORDER BY list_inner_product(q.embedding, e.embedding) DESC,
                  e.vec_id ASC) AS BIGINT) AS rank
FROM embeddings q, embeddings e
WHERE q.vec_id < 10 AND e.vec_id <> q.vec_id
QUALIFY rank <= 5
""",
        "embedding_quantize": """
WITH u AS (SELECT vec_id, CAST(unnest(embedding) AS DOUBLE) AS x,
                  generate_subscripts(embedding, 1) AS d
           FROM embeddings),
s AS (SELECT d, max(abs(x)) / 127.0 AS scale FROM u GROUP BY d),
q AS (SELECT vec_id,
             x,
             scale,
             CASE WHEN scale = 0 THEN 0
                  ELSE greatest(-127.0, least(127.0,
                       floor(x / scale + 0.5))) END AS qv,
             CASE WHEN scale <> 0
                   AND abs(floor(x / scale + 0.5)) > 127
                  THEN 1 ELSE 0 END AS clip
      FROM u JOIN s USING (d)),
e AS (SELECT vec_id, clip,
             CAST(floor((x - qv * scale) * 1e9 + 0.5) AS BIGINT) AS efp
      FROM q)
SELECT vec_id, CAST(sum(clip) AS BIGINT) AS n_clipped,
       CAST(sum(efp * efp) AS BIGINT) AS qerr_sq
FROM e GROUP BY vec_id
""",
        "ttr_hapax": """
WITH t AS (SELECT doc_id, string_split(text, ' ') w FROM documents),
u AS (SELECT doc_id, unnest(w) tok FROM t),
ne AS (SELECT doc_id, tok FROM u WHERE tok <> ''),
per AS (SELECT doc_id, tok, CAST(count(*) AS BIGINT) c
        FROM ne GROUP BY 1, 2)
SELECT doc_id,
       CAST(sum(c) AS BIGINT) AS n_tokens,
       CAST(count(*) AS BIGINT) AS n_types,
       floor(count(*)::DOUBLE / sum(c)::DOUBLE * 1e6 + 0.5) / 1e6 AS ttr,
       floor(sum(CASE WHEN c = 1 THEN 1 ELSE 0 END)::DOUBLE
             / count(*)::DOUBLE * 1e6 + 0.5) / 1e6 AS hapax_frac
FROM per GROUP BY doc_id
""",
        "window_cooccurrence": """
WITH t AS (SELECT doc_id, string_split(text, ' ') w FROM documents),
u AS (SELECT doc_id, unnest(w) tok, generate_subscripts(w, 1) i FROM t),
ne AS (SELECT doc_id, tok,
              row_number() OVER (PARTITION BY doc_id ORDER BY i) AS j
       FROM u WHERE tok <> ''),
p AS (SELECT least(a.tok, b.tok) AS ta, greatest(a.tok, b.tok) AS tb
      FROM ne a JOIN ne b
        ON a.doc_id = b.doc_id AND b.j BETWEEN a.j + 1 AND a.j + 3),
c AS (SELECT ta, tb, CAST(count(*) AS BIGINT) AS n FROM p GROUP BY 1, 2)
SELECT CAST(row_number() OVER (ORDER BY n DESC, ta, tb) AS BIGINT) AS rnk,
       ta, tb, n
FROM c ORDER BY n DESC, ta, tb LIMIT 30
""",
        "char_trigrams_by_lang": """
WITH s AS (
  SELECT lang, text,
         generate_series(1, greatest(length(text) - 2, 0)) AS idxs
  FROM documents),
g AS (SELECT lang,
             substring(text, CAST(unnest(idxs) AS INT), 3) AS gram
      FROM s),
c AS (SELECT lang, gram, CAST(count(*) AS BIGINT) AS n
      FROM g GROUP BY 1, 2),
r AS (SELECT lang, gram, n,
             CAST(row_number() OVER (PARTITION BY lang
                                     ORDER BY n DESC, gram) AS BIGINT) AS rnk
      FROM c)
SELECT lang, rnk, gram, n FROM r WHERE rnk <= 10
""",
        "cdc_chunks": """
WITH t AS (SELECT doc_id, string_split(text, ' ') w FROM documents),
u AS (SELECT doc_id, unnest(w) tok, generate_subscripts(w, 1) i FROM t),
f AS (SELECT doc_id, tok, i,
             CASE WHEN (ascii(substring(tok, 1, 1)) * 31 + length(tok))
                       % 8 = 0 THEN 1 ELSE 0 END AS flag
      FROM u),
c AS (SELECT doc_id, tok, i,
             coalesce(sum(flag) OVER (
               PARTITION BY doc_id ORDER BY i
               ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
               AS chunk_seq
      FROM f)
SELECT doc_id, CAST(chunk_seq AS BIGINT) AS chunk_seq,
       CAST(count(*) AS BIGINT) AS n_tokens,
       string_agg(tok, ' ' ORDER BY i) AS chunk_text
FROM c GROUP BY doc_id, chunk_seq
""",
        "top_tokens_by_lang": """
WITH t AS (SELECT lang, string_split(text, ' ') w FROM documents),
u AS (SELECT lang, unnest(w) tok FROM t),
ne AS (SELECT lang, tok FROM u WHERE tok <> ''),
c AS (SELECT lang, tok AS token, CAST(count(*) AS BIGINT) AS n
      FROM ne GROUP BY 1, 2),
r AS (SELECT lang, token, n,
             CAST(row_number() OVER (PARTITION BY lang
                                     ORDER BY n DESC, token) AS BIGINT)
               AS rnk
      FROM c)
SELECT lang, rnk, token, n FROM r WHERE rnk <= 10
""",
        "forecast_revenue": """
SELECT coalesce(sum(CAST(floor(l_extendedprice * l_discount * 100.0
                               + 0.5) AS BIGINT)), 0) / 100.0 AS revenue
FROM lineitem
WHERE l_shipdate >= '1995-01-01' AND l_shipdate < '1996-01-01'
  AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24
""",
        "customer_order_distribution": """
SELECT c_count, CAST(count(*) AS BIGINT) AS custdist
FROM (SELECT c.c_custkey, CAST(count(o.o_custkey) AS BIGINT) AS c_count
      FROM customer c LEFT JOIN orders o
        ON o.o_custkey = c.c_custkey
       AND o.o_orderpriority <> '1-URGENT'
      GROUP BY c.c_custkey) t
GROUP BY c_count
""",
        "top_supplier": """
WITH rev AS (
  SELECT l_suppkey,
         sum(CAST(floor(l_extendedprice * (1.0 - l_discount) * 100.0
                        + 0.5) AS BIGINT)) AS cents
  FROM lineitem
  WHERE l_shipdate >= '1995-01-01' AND l_shipdate < '1995-04-01'
  GROUP BY l_suppkey)
SELECT s.s_suppkey, s.s_name, rev.cents / 100.0 AS total_revenue
FROM rev JOIN supplier s ON s.s_suppkey = rev.l_suppkey
WHERE rev.cents = (SELECT max(cents) FROM rev)
""",
        "small_quantity_revenue": """
WITH b AS (
  SELECT l.l_partkey, l.l_quantity, l.l_extendedprice
  FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
  WHERE p.p_brand = 'Brand#2'),
a AS (SELECT l_partkey, sum(l_quantity) AS qsum,
             CAST(count(*) AS BIGINT) AS qcnt
      FROM b GROUP BY l_partkey)
SELECT coalesce(sum(CAST(floor(b.l_extendedprice * 100.0 + 0.5)
                         AS BIGINT)), 0) / 100.0 / 7.0 AS avg_yearly
FROM b JOIN a USING (l_partkey)
WHERE b.l_quantity < 0.2 * (a.qsum / a.qcnt)
""",
        "disjunctive_brand_revenue": """
SELECT coalesce(sum(CAST(floor(l.l_extendedprice * (1.0 - l.l_discount)
                               * 100.0 + 0.5) AS BIGINT)), 0) / 100.0
         AS revenue
FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
WHERE (p.p_brand = 'Brand#2' AND p.p_size BETWEEN 1 AND 15
       AND l.l_quantity BETWEEN 1 AND 11)
   OR (p.p_brand = 'Brand#17' AND p.p_size BETWEEN 1 AND 25
       AND l.l_quantity BETWEEN 10 AND 20)
   OR (p.p_brand = 'Brand#4' AND p.p_size BETWEEN 1 AND 35
       AND l.l_quantity BETWEEN 20 AND 30)
""",
        "cheapest_supplier": """
WITH unit AS (
  SELECT l_partkey, l_suppkey,
         CAST(floor(l_extendedprice * 100.0 / l_quantity + 0.5) AS BIGINT)
           AS unit_cents
  FROM lineitem),
win AS (
  SELECT l_partkey, l_suppkey, unit_cents,
         row_number() OVER (PARTITION BY l_partkey
                            ORDER BY unit_cents, l_suppkey) AS rn
  FROM unit)
SELECT p.p_partkey, p.p_name, w.l_suppkey AS s_suppkey, s.s_name,
       n.n_name, w.unit_cents / 100.0 AS min_unit_price
FROM win w
JOIN part p ON p.p_partkey = w.l_partkey AND p.p_type = 'SMALL'
JOIN supplier s ON s.s_suppkey = w.l_suppkey
JOIN nation n ON n.n_nationkey = s.s_nationkey
WHERE w.rn = 1
""",
        "nation_market_share": """
WITH rows_ AS (
  SELECT CAST(year(o.o_orderdate) AS BIGINT) AS o_year,
         CAST(floor(l.l_extendedprice * (1.0 - l.l_discount) * 100.0
                    + 0.5) AS BIGINT) AS cents,
         CASE WHEN ns.n_name = 'NATION_3' THEN 1 ELSE 0 END AS is_target
  FROM lineitem l
  JOIN supplier s ON s.s_suppkey = l.l_suppkey
  JOIN nation ns ON ns.n_nationkey = s.s_nationkey
  JOIN orders o ON o.o_orderkey = l.l_orderkey
  JOIN customer c ON c.c_custkey = o.o_custkey
  JOIN nation nc ON nc.n_nationkey = c.c_nationkey
  JOIN region r ON r.r_regionkey = nc.n_regionkey
  WHERE r.r_name = 'AMERICA')
SELECT o_year,
       sum(is_target * cents)::DOUBLE / sum(cents)::DOUBLE AS mkt_share
FROM rows_ GROUP BY o_year
""",
        "product_profit": """
SELECT n.n_name AS nation,
       CAST(year(o.o_orderdate) AS BIGINT) AS o_year,
       sum(CAST(floor(l.l_extendedprice * (1.0 - l.l_discount) * 100.0
                      + 0.5) AS BIGINT)
           - CAST(floor(p.p_retailprice * 100.0 + 0.5) AS BIGINT)
             * CAST(l.l_quantity AS BIGINT)) / 100.0 AS sum_profit
FROM lineitem l
JOIN part p ON p.p_partkey = l.l_partkey AND p.p_name LIKE '%red%'
JOIN supplier s ON s.s_suppkey = l.l_suppkey
JOIN nation n ON n.n_nationkey = s.s_nationkey
JOIN orders o ON o.o_orderkey = l.l_orderkey
GROUP BY 1, 2
""",
        "important_parts": """
WITH per_part AS (
  SELECT l_partkey,
         sum(CAST(floor(l_extendedprice * (1.0 - l_discount) * 100.0
                        + 0.5) AS BIGINT)) AS cents
  FROM lineitem GROUP BY l_partkey)
SELECT l_partkey, cents / 100.0 AS value
FROM per_part
WHERE cents * 1600 > (SELECT sum(cents) FROM per_part)
""",
        "supplier_count_by_part": """
SELECT p.p_brand, p.p_type, CAST(p.p_size AS BIGINT) AS p_size,
       CAST(count(DISTINCT l.l_suppkey) AS BIGINT) AS supplier_cnt
FROM (SELECT DISTINCT l_partkey, l_suppkey FROM lineitem) l
JOIN part p ON p.p_partkey = l.l_partkey
WHERE p.p_brand <> 'Brand#2'
  AND NOT EXISTS (SELECT 1 FROM supplier s
                  WHERE s.s_suppkey = l.l_suppkey
                    AND s.s_acctbal < 1000.0)
GROUP BY 1, 2, 3
""",
        "excess_suppliers": """
WITH ps AS (
  SELECT l_partkey, l_suppkey, SUM(CAST(l_quantity AS BIGINT)) AS qty
  FROM lineitem JOIN part ON p_partkey = l_partkey
  WHERE p_name LIKE 'small%'
    AND l_shipdate >= TIMESTAMP '1996-01-01'
    AND l_shipdate < TIMESTAMP '1997-01-01'
  GROUP BY 1, 2
), tot AS (
  SELECT l_partkey, SUM(qty) AS total_qty FROM ps GROUP BY 1
)
SELECT DISTINCT s_name, n_name
FROM ps JOIN tot USING (l_partkey)
JOIN supplier ON s_suppkey = l_suppkey
JOIN nation ON n_nationkey = s_nationkey
WHERE 2 * qty > total_qty
ORDER BY s_name
""",
        "duplicate_ngrams": """
WITH t AS (SELECT doc_id, string_split(text, ' ') w FROM documents),
u AS (SELECT doc_id, generate_subscripts(w, 1) i, unnest(w) tok FROM t),
g AS (SELECT a.doc_id,
             a.tok || ' ' || b.tok || ' ' || c.tok || ' ' || d.tok
                   || ' ' || e.tok AS gram
      FROM u a JOIN u b ON a.doc_id = b.doc_id AND b.i = a.i + 1
      JOIN u c ON a.doc_id = c.doc_id AND c.i = a.i + 2
      JOIN u d ON a.doc_id = d.doc_id AND d.i = a.i + 3
      JOIN u e ON a.doc_id = e.doc_id AND e.i = a.i + 4),
gc AS (SELECT doc_id, gram, count(*) n_pos FROM g GROUP BY 1, 2),
gd AS (SELECT gram, count(DISTINCT doc_id) ndocs FROM gc GROUP BY 1)
SELECT gc.doc_id,
       CAST(sum(gc.n_pos) AS BIGINT) AS n_ngrams,
       CAST(sum(CASE WHEN gd.ndocs >= 2 THEN gc.n_pos ELSE 0 END)
            AS BIGINT) AS dup_ngrams,
       sum(CASE WHEN gd.ndocs >= 2 THEN gc.n_pos ELSE 0 END)::DOUBLE
           / sum(gc.n_pos)::DOUBLE AS dup_frac
FROM gc JOIN gd USING (gram) GROUP BY gc.doc_id
""",
        "quality_filter": """
WITH t AS (SELECT doc_id, string_split(text, ' ') w FROM documents),
u AS (SELECT doc_id, unnest(w) tok FROM t),
ag AS (SELECT doc_id, count(*) n, count(DISTINCT tok) nd,
              sum(length(tok)) ch,
              sum(CASE WHEN tok IN ('the', 'a') THEN 1 ELSE 0 END) hits
       FROM u GROUP BY 1)
SELECT doc_id,
       CAST(n AS BIGINT) AS n_words,
       ch::DOUBLE / n::DOUBLE AS mean_word_len,
       nd::DOUBLE / n::DOUBLE AS distinct_frac,
       CAST(hits AS BIGINT) AS stopword_hits,
       (n >= 15 AND n <= 90
        AND ch::DOUBLE / n::DOUBLE >= 3.0
        AND ch::DOUBLE / n::DOUBLE <= 4.5
        AND nd::DOUBLE / n::DOUBLE >= 0.35
        AND hits >= 1) AS keep
FROM ag
""",
        "importance_sample": """
WITH t AS (SELECT doc_id, string_split(text, ' ') w FROM documents),
u AS (SELECT doc_id, unnest(w) tok FROM t),
ag AS (SELECT doc_id, count(DISTINCT tok) nd FROM u GROUP BY 1),
s AS (SELECT doc_id, least(1.0, nd::DOUBLE / 48.0) score FROM ag)
SELECT doc_id, score FROM s
WHERE CAST(CAST((CAST(doc_id AS HUGEINT) * 11400714819323198485)
                % 18446744073709551616 AS UBIGINT) AS DOUBLE)
      < score * 18446744073709551616.0
""",
        "pii_scrub": _pii_scrub_sql(),
        "chunk_dedup": """
WITH t AS (SELECT doc_id, string_split(text, ' ') AS toks FROM documents),
c AS (SELECT doc_id,
        [array_to_string(toks[(i*20+1):((i+1)*20)], ' ')
         FOR i IN range(CAST(ceil(len(toks)/20.0) AS INT))] AS chunks
      FROM t),
e AS (SELECT doc_id, unnest(chunks) AS chunk,
        CAST(generate_subscripts(chunks, 1) - 1 AS BIGINT) AS chunk_seq
      FROM c),
r AS (SELECT doc_id, chunk_seq, chunk,
        row_number() OVER (PARTITION BY chunk
                           ORDER BY doc_id, chunk_seq) AS rn
      FROM e)
SELECT doc_id, chunk_seq, chunk FROM r WHERE rn = 1
""",
        "quota_sample": """
WITH h AS (SELECT source, doc_id,
                  (doc_id * 2654435761) % 4294967296 AS h
           FROM documents),
r AS (SELECT source, doc_id,
             row_number() OVER (PARTITION BY source
                                ORDER BY h, doc_id) AS rnk
      FROM h)
SELECT source, CAST(rnk AS BIGINT) AS rnk, doc_id FROM r WHERE rnk <= 5
""",
        "quality_percentile": """
WITH c AS (SELECT n_chars, count(*) AS c FROM documents GROUP BY 1),
cum AS (SELECT n_chars, sum(c) OVER (ORDER BY n_chars) AS cc FROM c),
thr AS (SELECT min(n_chars) AS t FROM cum
        WHERE cc >= ceil(0.9 * (SELECT count(*) FROM documents)))
SELECT d.doc_id, d.n_chars FROM documents d, thr WHERE d.n_chars >= thr.t
""",
        "events_interarrival": """
WITH g AS (SELECT user_id,
                  date_diff('microsecond',
                            lag(ts) OVER (PARTITION BY user_id
                                          ORDER BY ts, event_id),
                            ts) AS gap
           FROM events)
SELECT user_id, CAST(count(gap) AS BIGINT) AS n_gaps,
       CAST(sum(gap) AS BIGINT) AS sum_gap_us,
       CAST(max(gap) AS BIGINT) AS max_gap_us
FROM g WHERE gap IS NOT NULL GROUP BY user_id
""",
        "events_props_stats": r"""
WITH k AS (SELECT event_type,
                  CAST(regexp_extract(props, '"k": (\d+)', 1) AS BIGINT) AS k
           FROM events
           WHERE regexp_extract(props, '"k": (\d+)', 1) <> '')
SELECT event_type, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(k) AS BIGINT) AS sum_k, CAST(max(k) AS BIGINT) AS max_k
FROM k GROUP BY event_type
""",
        # unigram-LM scoring: same cast points and libm ln() as
        # corpus_stats.unigram_nll; half-up 1e-6 rounding on the score
        "unigram_nll": """
WITH t AS (SELECT doc_id, string_split(text, ' ') w FROM documents),
u AS (SELECT doc_id, unnest(w) tok FROM t),
ne AS (SELECT doc_id, tok FROM u WHERE tok <> ''),
cnt AS (SELECT tok, CAST(count(*) AS DOUBLE) c FROM ne GROUP BY tok),
tot AS (SELECT CAST(sum(c) AS DOUBLE) n FROM cnt),
lp AS (SELECT tok, ln(c / (SELECT n FROM tot)) AS logp FROM cnt)
SELECT ne.doc_id, CAST(count(*) AS BIGINT) AS n_tok,
       floor(-(sum(lp.logp) / count(*)) * 1e6 + 0.5) / 1e6 AS avg_nll
FROM ne JOIN lp ON ne.tok = lp.tok GROUP BY ne.doc_id
""",
        "bigram_nll": """
WITH t AS (SELECT doc_id, string_split(text, ' ') w FROM documents),
u AS (SELECT doc_id, generate_subscripts(w, 1) i, unnest(w) tok FROM t),
ne AS (SELECT doc_id, tok,
              row_number() OVER (PARTITION BY doc_id ORDER BY i) AS j
       FROM u WHERE tok <> ''),
b AS (SELECT a.doc_id, a.tok AS prev, c.tok AS cur
      FROM ne a JOIN ne c ON c.doc_id = a.doc_id AND c.j = a.j + 1),
c2 AS (SELECT prev, cur, CAST(count(*) AS DOUBLE) c FROM b GROUP BY 1, 2),
c1 AS (SELECT prev, CAST(sum(c) AS DOUBLE) n FROM c2 GROUP BY 1),
v AS (SELECT CAST(count(DISTINCT tok) AS DOUBLE) v FROM ne),
lp AS (SELECT c2.prev, c2.cur,
              ln((c2.c + 0.5) / (c1.n + 0.5 * (SELECT v FROM v))) AS logp
       FROM c2 JOIN c1 USING (prev))
SELECT b.doc_id, CAST(count(*) AS BIGINT) AS n_bigrams,
       floor(-(sum(lp.logp) / count(*)) * 1e6 + 0.5) / 1e6 AS avg_nll
FROM b JOIN lp ON b.prev = lp.prev AND b.cur = lp.cur
GROUP BY b.doc_id
""",
        "length_deciles": """
SELECT doc_id, n_chars,
       CAST(ntile(10) OVER (ORDER BY n_chars, doc_id) AS BIGINT) AS decile
FROM documents
""",
        # CCNet tiers: lang_id CTEs + unigram_nll CTEs + per-language
        # ntile(3) over (avg_nll, doc_id); same ln()/rounding contract
        "ccnet_buckets": """
WITH ltoks AS (
  SELECT doc_id, lower(unnest(regexp_extract_all(text, '[a-zA-Z]+'))) tok
  FROM documents
),
lsc AS (
  SELECT doc_id, count(*) n,
    sum(CASE WHEN tok IN ('the','and','of','to','a','in','is','it',
                          'that','for') THEN 1 ELSE 0 END) h_en,
    sum(CASE WHEN tok IN ('der','die','und','das','ist','nicht','mit',
                          'ein','zu') THEN 1 ELSE 0 END) h_de,
    sum(CASE WHEN tok IN ('le','la','et','les','des','est','une','dans',
                          'que') THEN 1 ELSE 0 END) h_fr,
    sum(CASE WHEN tok IN ('el','la','de','que','los','una','es','por',
                          'con') THEN 1 ELSE 0 END) h_es
  FROM ltoks GROUP BY doc_id
),
ls AS (
  SELECT doc_id,
         h_en::DOUBLE / greatest(n, 1) s_en,
         h_de::DOUBLE / greatest(n, 1) s_de,
         h_fr::DOUBLE / greatest(n, 1) s_fr,
         h_es::DOUBLE / greatest(n, 1) s_es
  FROM lsc
),
lang AS (
  SELECT d.doc_id,
    CASE WHEN regexp_matches(d.text, '[一-鿿]') THEN 'zh'
         WHEN ls.doc_id IS NULL THEN 'en'
         WHEN greatest(s_en, s_de, s_fr, s_es) <= 0 THEN 'en'
         WHEN s_en = greatest(s_en, s_de, s_fr, s_es) THEN 'en'
         WHEN s_de = greatest(s_en, s_de, s_fr, s_es) THEN 'de'
         WHEN s_fr = greatest(s_en, s_de, s_fr, s_es) THEN 'fr'
         ELSE 'es' END AS lang_pred
  FROM documents d LEFT JOIN ls USING (doc_id)
),
t AS (SELECT doc_id, string_split(text, ' ') w FROM documents),
u AS (SELECT doc_id, unnest(w) tok FROM t),
ne AS (SELECT doc_id, tok FROM u WHERE tok <> ''),
cnt AS (SELECT tok, CAST(count(*) AS DOUBLE) c FROM ne GROUP BY tok),
tot AS (SELECT CAST(sum(c) AS DOUBLE) n FROM cnt),
lp AS (SELECT tok, ln(c / (SELECT n FROM tot)) AS logp FROM cnt),
nll AS (
  SELECT ne.doc_id,
         floor(-(sum(lp.logp) / count(*)) * 1e6 + 0.5) / 1e6 AS avg_nll
  FROM ne JOIN lp ON ne.tok = lp.tok GROUP BY ne.doc_id
),
j AS (
  SELECT nll.doc_id, lang.lang_pred, nll.avg_nll
  FROM nll JOIN lang ON nll.doc_id = lang.doc_id
),
b AS (
  SELECT doc_id, lang_pred, avg_nll,
         CAST(ntile(3) OVER (PARTITION BY lang_pred
                             ORDER BY avg_nll, doc_id) AS BIGINT) AS bucket
  FROM j
)
SELECT doc_id, lang_pred, avg_nll, bucket,
       CASE bucket WHEN 1 THEN 'head' WHEN 2 THEN 'middle'
            ELSE 'tail' END AS label
FROM b
""",
        # BM25: same idf/score expression as stages/corpus_stats.bm25_topk
        # term-for-term; ≤2-term queries keep the per-doc sum order-exact
        "bm25_topk": """
WITH t AS (SELECT doc_id, string_split(text, ' ') w FROM documents),
u AS (SELECT doc_id, unnest(w) tok FROM t),
ne AS (SELECT doc_id, tok FROM u WHERE tok <> ''),
tf AS (SELECT doc_id, tok, CAST(count(*) AS DOUBLE) tf
       FROM ne GROUP BY doc_id, tok),
dl AS (SELECT doc_id, CAST(count(*) AS DOUBLE) dl FROM ne GROUP BY doc_id),
nn AS (SELECT CAST(count(*) AS DOUBLE) n FROM documents),
ad AS (SELECT sum(dl) / (SELECT n FROM nn) AS avgdl FROM dl),
q(q_id, tok) AS (VALUES (0, 'merge'), (0, 'join'), (1, 'window'),
                        (1, 'batch'), (2, 'hash'), (3, 'sort'),
                        (3, 'table')),
df AS (SELECT tok, CAST(count(*) AS DOUBLE) df FROM tf
       WHERE tok IN (SELECT tok FROM q) GROUP BY tok),
idf AS (SELECT tok,
               ln(((SELECT n FROM nn) - df + 0.5) / (df + 0.5) + 1.0) idf
        FROM df),
sc AS (
  SELECT q.q_id, tf.doc_id,
         sum(idf.idf * tf.tf * (1.2 + 1.0)
             / (tf.tf + 1.2 * (1.0 - 0.75
                               + 0.75 * dl.dl / (SELECT avgdl FROM ad))))
           AS s
  FROM q JOIN tf ON q.tok = tf.tok
         JOIN idf ON q.tok = idf.tok
         JOIN dl ON tf.doc_id = dl.doc_id
  GROUP BY q.q_id, tf.doc_id
),
r AS (SELECT q_id, doc_id, s,
             row_number() OVER (PARTITION BY q_id
                                ORDER BY s DESC, doc_id) rk
      FROM sc)
SELECT CAST(q_id AS BIGINT) AS q_id, doc_id,
       floor(s * 1e6 + 0.5) / 1e6 AS score, rk AS rank
FROM r WHERE rk <= 10
""",
        # TWAP: HUGEINT trapezoid sum over integerized cents × micros,
        # identical cast/divide order as pipelines/analytics.events_twap
        "events_twap": """
WITH s AS (
  SELECT event_type,
         CAST(floor(value * 100.0 + 0.5) AS HUGEINT) AS vc,
         epoch_us(ts) AS t,
         lead(CAST(floor(value * 100.0 + 0.5) AS HUGEINT))
           OVER w AS vc2,
         lead(epoch_us(ts)) OVER w AS t2
  FROM events
  WINDOW w AS (PARTITION BY event_type ORDER BY ts, event_id)
), agg AS (
  SELECT event_type,
         sum((vc + vc2) * (t2 - t)) AS S,
         min(t) AS tmin, max(t) AS tmax,
         count(*) AS n
  FROM s GROUP BY event_type
)
SELECT event_type, n AS n_events,
       floor((CAST(S AS DOUBLE) / (200.0 * CAST(tmax - tmin AS DOUBLE)))
             * 1e6 + 0.5) / 1e6 AS twap
FROM agg
""",
        # ordered string_agg: ties in ts break by event_id on both sides
        "user_journeys": """
SELECT user_id,
       count(*) AS n_events,
       string_agg(event_type, '>' ORDER BY ts, event_id) AS journey
FROM events
GROUP BY user_id
""",
        # skyline: dominance comparisons only, no arithmetic — exact
        "part_skyline": """
SELECT p.p_partkey, p.p_size, p.p_retailprice
FROM part p
WHERE NOT EXISTS (
  SELECT 1 FROM part q
  WHERE q.p_retailprice <= p.p_retailprice
    AND q.p_size <= p.p_size
    AND (q.p_retailprice < p.p_retailprice OR q.p_size < p.p_size))
""",
        # profiler: exact-cents HUGEINT moments, same cast/divide/sqrt
        # op order as pipelines/analytics.lineitem_profile
        "lineitem_profile": """
WITH raw AS (
  SELECT 'l_quantity' AS col, l_quantity AS v FROM lineitem
  UNION ALL SELECT 'l_extendedprice', l_extendedprice FROM lineitem
  UNION ALL SELECT 'l_discount', l_discount FROM lineitem
  UNION ALL SELECT 'l_tax', l_tax FROM lineitem
), c AS (
  SELECT col,
         count(v) AS n,
         count(*) - count(v) AS n_null,
         min(v) AS vmin,
         max(v) AS vmax,
         sum(CAST(floor(v * 100.0 + 0.5) AS HUGEINT)) AS s,
         sum(CAST(floor(v * 100.0 + 0.5) AS HUGEINT)
             * CAST(floor(v * 100.0 + 0.5) AS HUGEINT)) AS ss
  FROM raw GROUP BY col
)
SELECT col, n, n_null, vmin, vmax,
       floor((CAST(s AS DOUBLE) / (100.0 * n)) * 1e6 + 0.5) / 1e6 AS mean,
       floor(sqrt(CAST(n * ss - s * s AS DOUBLE)
                  / CAST(n * n AS DOUBLE) / 10000.0) * 1e6 + 0.5) / 1e6
         AS std
FROM c
""",
        "kg_pagerank": _pagerank_sql(),
        "kg_hits": _hits_sql(),
        "kg_degrees": _KG_CTE + """
, eg AS (SELECT DISTINCT 'w(X:' || ta || ')' AS src,
                         'w(X:' || tb || ')' AS dst FROM pairs)
SELECT node, CAST(sum(o) AS BIGINT) AS out_deg,
       CAST(sum(i) AS BIGINT) AS in_deg
FROM (SELECT src AS node, 1 AS o, 0 AS i FROM eg
      UNION ALL SELECT dst, 0, 1 FROM eg)
GROUP BY node
""",
        "kg_clustering": _KG_CTE + """
, eg AS (SELECT DISTINCT 'w(X:' || ta || ')' AS src,
                         'w(X:' || tb || ')' AS dst FROM pairs),
und AS (SELECT DISTINCT least(src, dst) AS u, greatest(src, dst) AS v
        FROM eg WHERE src <> dst),
adj AS (SELECT u AS node, v AS nbr FROM und
        UNION ALL SELECT v, u FROM und),
deg AS (SELECT node, CAST(count(*) AS BIGINT) AS degree
        FROM adj GROUP BY node),
wed AS (SELECT a.node, a.nbr AS x, b.nbr AS y
        FROM adj a JOIN adj b ON a.node = b.node AND a.nbr < b.nbr),
tri AS (SELECT w.node, count(*) AS t
        FROM wed w JOIN und e ON e.u = w.x AND e.v = w.y
        GROUP BY w.node)
SELECT d.node, d.degree, CAST(coalesce(t.t, 0) AS BIGINT) AS n_triangles,
       CASE WHEN d.degree >= 2
            THEN floor(2.0 * coalesce(t.t, 0)
                       / (d.degree * (d.degree - 1)) * 1e6 + 0.5) / 1e6
            ELSE 0.0 END AS clustering
FROM deg d LEFT JOIN tri t USING (node)
""",
        "kg_bfs": _KG_CTE + """
, eg AS (SELECT DISTINCT 'w(X:' || ta || ')' AS src,
                         'w(X:' || tb || ')' AS dst FROM pairs),
n0 AS (SELECT min(src) AS node FROM eg),
r1 AS (SELECT DISTINCT e.dst AS node FROM eg e JOIN n0 n ON e.src = n.node),
r2 AS (SELECT DISTINCT e.dst AS node FROM eg e JOIN r1 n ON e.src = n.node),
r3 AS (SELECT DISTINCT e.dst AS node FROM eg e JOIN r2 n ON e.src = n.node),
lv AS (SELECT node, 0 AS d FROM n0
       UNION ALL SELECT node, 1 FROM r1
       UNION ALL SELECT node, 2 FROM r2
       UNION ALL SELECT node, 3 FROM r3)
SELECT node, CAST(min(d) AS BIGINT) AS dist FROM lv GROUP BY node
""",
        # landmark harmonic closeness: unrolled multi-seed BFS levels
        # (min d per seed,node), EXACT rational sum via lcm(1..3)=6
        # integer weights — one double division at the end, same as the
        # engine
        "kg_closeness": _KG_CTE + """
, eg AS (SELECT DISTINCT 'w(X:' || ta || ')' AS src,
                         'w(X:' || tb || ')' AS dst FROM pairs),
sd AS (SELECT src AS s FROM
       (SELECT DISTINCT src FROM eg ORDER BY src LIMIT 5)),
l0 AS (SELECT s, s AS node, 0 AS d FROM sd),
l1 AS (SELECT DISTINCT l.s, e.dst AS node, 1 AS d
       FROM l0 l JOIN eg e ON e.src = l.node),
l2 AS (SELECT DISTINCT l.s, e.dst AS node, 2 AS d
       FROM l1 l JOIN eg e ON e.src = l.node),
l3 AS (SELECT DISTINCT l.s, e.dst AS node, 3 AS d
       FROM l2 l JOIN eg e ON e.src = l.node),
lv AS (SELECT s, node, min(d) AS d FROM
       (SELECT * FROM l0 UNION ALL SELECT * FROM l1
        UNION ALL SELECT * FROM l2 UNION ALL SELECT * FROM l3)
       GROUP BY s, node),
w AS (SELECT node,
             CASE d WHEN 1 THEN 6 WHEN 2 THEN 3 WHEN 3 THEN 2 END AS w
      FROM lv WHERE d > 0)
SELECT node, CAST(count(*) AS BIGINT) AS n_sources,
       floor(CAST(sum(w) AS DOUBLE) / 6.0 * 1e6 + 0.5) / 1e6
         AS closeness
FROM w GROUP BY node
""",
        "kg_neighbor_jaccard": _KG_CTE + """
, eg AS (SELECT DISTINCT 'w(X:' || ta || ')' AS src,
                         'w(X:' || tb || ')' AS dst FROM pairs),
deg AS (SELECT src AS node, CAST(count(*) AS BIGINT) AS d
        FROM eg GROUP BY src),
p AS (SELECT a.src AS na, b.src AS nb, CAST(count(*) AS BIGINT) AS c
      FROM eg a JOIN eg b ON a.dst = b.dst AND a.src < b.src
      GROUP BY 1, 2)
SELECT p.na AS node_a, p.nb AS node_b,
       floor(p.c / (da.d + db.d - p.c) * 1e6 + 0.5) / 1e6 AS jaccard
FROM p JOIN deg da ON da.node = p.na JOIN deg db ON db.node = p.nb
""",
        "kg_comention": _KG_CTE + """
, ent AS (SELECT doc_id, 'w(X:' || ta || ')' AS e FROM pairs
          UNION SELECT doc_id, 'w(X:' || tb || ')' FROM pairs),
p AS (SELECT a.doc_id, a.e AS ea, b.e AS eb
      FROM ent a JOIN ent b ON a.doc_id = b.doc_id AND a.e < b.e)
SELECT ea AS entity_a, eb AS entity_b,
       CAST(count(*) AS BIGINT) AS n_docs
FROM p GROUP BY 1, 2
""",
        "kg_two_hop": _KG_CTE + """
, eg AS (SELECT DISTINCT 'w(X:' || ta || ')' AS src,
                         'w(X:' || tb || ')' AS dst FROM pairs),
th AS (SELECT DISTINCT a.src, b.dst AS far
       FROM eg a JOIN eg b ON a.dst = b.src
       WHERE b.dst <> a.src)
SELECT src AS node, CAST(count(*) AS BIGINT) AS n_two_hop
FROM th GROUP BY src
""",
        # vocabulary rank and OOV id mirror stages/pack.build_vocab /
        # encode_token_ids (top-30 by count desc then token asc, oov=30)
        "encode_token_ids": """
WITH t AS (SELECT doc_id, string_split(text, ' ') w FROM documents),
u AS (SELECT doc_id, unnest(w) tok, generate_subscripts(w, 1) i FROM t),
ne AS (SELECT doc_id, tok, i FROM u WHERE tok <> ''),
cnt AS (SELECT tok, count(*) n FROM ne GROUP BY tok),
v AS (SELECT tok,
             CAST(row_number() OVER (ORDER BY n DESC, tok) - 1 AS BIGINT)
               AS id
      FROM cnt QUALIFY id < 30),
e AS (SELECT ne.doc_id, ne.i, COALESCE(v.id, 30) AS id
      FROM ne LEFT JOIN v USING (tok))
SELECT doc_id,
       string_agg(CAST(id AS VARCHAR), ',' ORDER BY i) AS ids,
       CAST(count(*) AS BIGINT) AS n_tok,
       CAST(sum(CASE WHEN id = 30 THEN 1 ELSE 0 END) AS BIGINT) AS n_oov
FROM e GROUP BY doc_id
""",
        # per-dimension class centroids; avg in double, half-up 1e-6
        # rounding mirrors stages/similarity.label_centroids
        "label_centroids": """
WITH u AS (SELECT label, unnest(embedding) AS e,
                  generate_subscripts(embedding, 1) AS dim
           FROM embeddings)
SELECT CAST(label AS BIGINT) AS label, CAST(dim AS BIGINT) AS dim,
       floor(avg(CAST(e AS DOUBLE)) * 1e6 + 0.5) / 1e6 AS centroid
FROM u GROUP BY label, dim
""",
        # ordered funnel: first view strictly before a click strictly
        # before a purchase (strict > at both hops, min-ts anchors)
        "events_funnel": """
WITH v AS (SELECT user_id, min(ts) t FROM events
           WHERE event_type = 'view' GROUP BY 1),
c AS (SELECT e.user_id, min(e.ts) t FROM events e JOIN v USING (user_id)
      WHERE e.event_type = 'click' AND e.ts > v.t GROUP BY e.user_id),
p AS (SELECT e.user_id, min(e.ts) t FROM events e JOIN c USING (user_id)
      WHERE e.event_type = 'purchase' AND e.ts > c.t GROUP BY e.user_id)
SELECT CAST((SELECT count(*) FROM v) AS BIGINT) AS n_view,
       CAST((SELECT count(*) FROM c) AS BIGINT) AS n_click,
       CAST((SELECT count(*) FROM p) AS BIGINT) AS n_purchase
""",
        "copurchase_triangles": """
WITH d AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem),
e AS (SELECT DISTINCT a.l_partkey x, b.l_partkey y FROM d a JOIN d b
      ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey),
w AS (SELECT e1.x a, e1.y b, e2.y c FROM e e1 JOIN e e2 ON e1.y = e2.x)
SELECT CAST(count(*) AS BIGINT) AS n_triangles
FROM w JOIN e e3 ON e3.x = w.a AND e3.y = w.c
""",
        "dedup_incremental": """
WITH newd AS (SELECT doc_id, text FROM documents WHERE doc_id % 3 = 0),
seen AS (SELECT DISTINCT text FROM documents WHERE doc_id % 3 <> 0),
surv AS (SELECT n.doc_id, n.text FROM newd n
         WHERE NOT EXISTS (SELECT 1 FROM seen s WHERE s.text = n.text))
SELECT min(doc_id) AS doc_id, text FROM surv GROUP BY text
""",
        # closed-form Pearson r from raw moment sums — same expression
        # as analytics.lineitem_qty_price_corr, half-up 1e-6 rounding
        "lineitem_corr": """
WITH m AS (SELECT CAST(count(*) AS DOUBLE) n,
    sum(CAST(l_quantity AS DOUBLE)) sx,
    sum(CAST(l_extendedprice AS DOUBLE)) sy,
    sum(CAST(l_quantity AS DOUBLE) * CAST(l_quantity AS DOUBLE)) sxx,
    sum(CAST(l_extendedprice AS DOUBLE)
        * CAST(l_extendedprice AS DOUBLE)) syy,
    sum(CAST(l_quantity AS DOUBLE) * CAST(l_extendedprice AS DOUBLE)) sxy
  FROM lineitem)
SELECT CAST(n AS BIGINT) AS n,
       floor((n * sxy - sx * sy)
             / sqrt((n * sxx - sx * sx) * (n * syy - sy * sy))
             * 1e6 + 0.5) / 1e6 AS corr_qty_price
FROM m
""",
        # weighted median = min v with cumweight(<=v) >= ceil(W/2); the
        # selected v is an input value, so parity needs no rounding
        "weighted_median": """
WITH s AS (SELECT l_returnflag, l_extendedprice AS v,
                  CAST(l_quantity AS BIGINT) AS w FROM lineitem),
g AS (SELECT l_returnflag, v, sum(w) AS w FROM s GROUP BY 1, 2),
c AS (SELECT l_returnflag, v,
             sum(w) OVER (PARTITION BY l_returnflag ORDER BY v) AS cw,
             sum(w) OVER (PARTITION BY l_returnflag) AS tw
      FROM g)
SELECT l_returnflag, min(v) AS wmedian,
       CAST(min(tw) AS BIGINT) AS total_weight
FROM c WHERE cw >= (tw + 1) // 2 GROUP BY l_returnflag
""",
        # sweep line: interval endpoints -> day deltas -> running sum;
        # day grain makes ORDER BY d tie-free (grouped first), so the
        # window frame question never arises
        "lines_in_flight": """
WITH ln AS (SELECT l_orderkey, count(*) AS n FROM lineitem GROUP BY 1),
opens AS (SELECT o_orderdate AS d, sum(n) AS delta
          FROM orders JOIN ln ON l_orderkey = o_orderkey GROUP BY 1),
closes AS (SELECT l_shipdate AS d, -count(*) AS delta
           FROM lineitem GROUP BY 1),
g AS (SELECT d, sum(delta) AS delta
      FROM (SELECT * FROM opens UNION ALL SELECT * FROM closes)
      GROUP BY d)
SELECT strftime(d, '%Y-%m-%d') AS day, CAST(delta AS BIGINT) AS delta,
       CAST(sum(delta) OVER (ORDER BY d) AS BIGINT) AS in_flight
FROM g
""",
        # point-in-interval range join (the non-equi join DuckDB runs as
        # an IEJoin); LEFT + count(iv.s) keeps match-less orders at 0
        "open_lines_at_order": """
WITH iv AS (SELECT o_orderdate AS s, l_shipdate AS e
            FROM lineitem JOIN orders ON l_orderkey = o_orderkey)
SELECT p.o_orderkey, CAST(count(iv.s) AS BIGINT) AS open_lines
FROM orders p LEFT JOIN iv ON iv.s <= p.o_orderdate AND p.o_orderdate < iv.e
GROUP BY p.o_orderkey
""",
        # gaps-and-islands via the day - row_number() trick on epoch days
        "user_streaks": """
WITH d AS (SELECT DISTINCT user_id,
                  date_diff('day', DATE '1970-01-01', CAST(ts AS DATE))
                    AS day
           FROM events),
i AS (SELECT user_id, day,
             day - row_number() OVER (PARTITION BY user_id ORDER BY day)
               AS isl
      FROM d),
s AS (SELECT user_id, isl, count(*) AS len FROM i GROUP BY 1, 2)
SELECT user_id, CAST(max(len) AS BIGINT) AS longest_streak,
       CAST(sum(len) AS BIGINT) AS active_days
FROM s GROUP BY user_id
""",
        # grouped mode with deterministic ties (count DESC, type ASC)
        "user_modal_event": """
WITH c AS (SELECT user_id, event_type, count(*) AS cnt
           FROM events GROUP BY 1, 2),
r AS (SELECT user_id, event_type, cnt,
             row_number() OVER (PARTITION BY user_id
                                ORDER BY cnt DESC, event_type) AS rn
      FROM c)
SELECT user_id, event_type AS modal_type, CAST(cnt AS BIGINT) AS cnt
FROM r WHERE rn = 1
""",
        # greedy diversity quota == per-customer top-q then global top-k;
        # ties (price DESC, orderkey ASC) make the selection deterministic
        "diversified_topk": """
WITH q AS (
  SELECT o_orderkey, o_custkey, o_totalprice,
         row_number() OVER (PARTITION BY o_custkey
                            ORDER BY o_totalprice DESC, o_orderkey) AS rn
  FROM orders)
SELECT CAST(row_number() OVER (ORDER BY o_totalprice DESC, o_orderkey)
       AS BIGINT) AS rnk,
       o_orderkey, o_custkey, o_totalprice
FROM q WHERE rn <= 2
ORDER BY o_totalprice DESC, o_orderkey LIMIT 10
""",
        # wide->long melt via UNPIVOT, grouped aggregate on the long
        # form; exact-cents HUGEINT sums, one division at the end
        "lineitem_unpivot": """
WITH long AS (
  UNPIVOT (SELECT l_returnflag, l_quantity, l_extendedprice,
                  l_discount, l_tax
           FROM lineitem)
  ON l_quantity, l_extendedprice, l_discount, l_tax
  INTO NAME measure VALUE v
)
SELECT l_returnflag, measure, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(CAST(floor(v * 100 + 0.5) AS BIGINT)) AS DOUBLE)
         / 100.0 AS total
FROM long GROUP BY 1, 2
""",
        # lag-k ACF of hourly counts on the gap-filled grid; integer-hour
        # spine (epoch of date_trunc is exactly divisible), BIGINT moment
        # sums -> HUGEINT, same closed form + rounding as the engine
        "events_acf": """
WITH b AS (SELECT CAST(epoch(date_trunc('hour', min(ts))) AS BIGINT) // 3600 h0,
                  CAST(epoch(date_trunc('hour', max(ts))) AS BIGINT) // 3600 h1
           FROM events),
types AS (SELECT DISTINCT event_type FROM events),
spine AS (SELECT t.event_type, gs.h
          FROM types t CROSS JOIN
          (SELECT unnest(generate_series((SELECT h0 FROM b),
                                         (SELECT h1 FROM b))) AS h) gs),
cnt AS (SELECT event_type,
               CAST(epoch(date_trunc('hour', ts)) AS BIGINT) // 3600 AS h,
               count(*) AS c
        FROM events GROUP BY 1, 2),
ser AS (SELECT s.event_type, s.h, CAST(coalesce(c.c, 0) AS BIGINT) AS x
        FROM spine s LEFT JOIN cnt c USING (event_type, h)),
lg AS (SELECT unnest([1, 2, 3, 6, 12, 24]) AS lag),
pairs AS (SELECT a.event_type, l.lag, a.x AS ax, b2.x AS bx
          FROM ser a CROSS JOIN lg l
          JOIN ser b2 ON b2.event_type = a.event_type
                     AND b2.h = a.h + l.lag),
m AS (SELECT event_type, lag, count(*) n, sum(ax) sx, sum(bx) sy,
             sum(ax * ax) sxx, sum(bx * bx) syy, sum(ax * bx) sxy
      FROM pairs GROUP BY 1, 2)
SELECT event_type, CAST(lag AS BIGINT) AS lag, CAST(n AS BIGINT) AS n_pairs,
       CASE WHEN (n * sxx - sx * sx) > 0 AND (n * syy - sy * sy) > 0
            THEN floor(CAST(n * sxy - sx * sy AS DOUBLE)
                       / sqrt(CAST(n * sxx - sx * sx AS DOUBLE)
                              * CAST(n * syy - sy * sy AS DOUBLE))
                       * 1e6 + 0.5) / 1e6
            ELSE NULL END AS acf
FROM m
""",
        # Spearman ρ from DOUBLED average ranks (2·avg_rank = 2·min_rank
        # + tie_count - 1, an exact integer; the 2× cancels in the closed
        # form).  HUGEINT moment sums mirror the engine's python-int
        # partials; both sides round half-up to 1e-6.
        "spearman_corr": """
WITH t AS (
  SELECT CAST(2 * rank() OVER (ORDER BY l_quantity)
              + count(*) OVER (PARTITION BY l_quantity) - 1
         AS BIGINT) AS rx2,
         CAST(2 * rank() OVER (ORDER BY l_extendedprice)
              + count(*) OVER (PARTITION BY l_extendedprice) - 1
         AS BIGINT) AS ry2
  FROM lineitem),
m AS (SELECT count(*) n, sum(rx2) sx, sum(ry2) sy,
             sum(rx2 * rx2) sxx, sum(ry2 * ry2) syy,
             sum(rx2 * ry2) sxy
      FROM t)
SELECT CAST(n AS BIGINT) AS n,
       floor(CAST(n * sxy - sx * sy AS DOUBLE)
             / sqrt(CAST(n * sxx - sx * sx AS DOUBLE)
                    * CAST(n * syy - sy * sy AS DOUBLE))
             * 1e6 + 0.5) / 1e6 AS spearman_qty_price
FROM m
""",
    }
