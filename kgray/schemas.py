"""Fixed Arrow schemas for every stage boundary of the KG pipeline.

The reference (sciluna/llm-text-to-knowledge-graph) passes convention-shaped
dicts between stages (see /root/reference/textToKnowledgeGraph/
sentence_level_extraction.py:67-72, transform_bel_statements.py:88-103,
convert_to_cx2.py:124-133).  Here every stage boundary is a declared
``pyarrow.Schema`` and ``validate_schema`` is called at stage edges so drift
fails fast instead of corrupting downstream batches.
"""
from __future__ import annotations

import pyarrow as pa

# ---------------------------------------------------------------------------
# Input table (BASELINE.json input_hint): interleaved text + media documents.
# ---------------------------------------------------------------------------
SPAN_STRUCT = pa.struct(
    [
        pa.field("kind", pa.string()),       # "text" | "media" | "ref" | "title"
        pa.field("text", pa.string()),       # "" for media spans
        pa.field("media_ref", pa.string()),  # "" for text spans
        pa.field("offset", pa.int32()),      # strictly increasing char offset
    ]
)

DOCUMENTS = pa.schema(
    [
        pa.field("doc_id", pa.string()),
        pa.field("spans", pa.list_(SPAN_STRUCT)),
    ]
)

# ---------------------------------------------------------------------------
# Exploded per-span view.  Every input span appears exactly once with its
# ordinal position; `admitted` marks spans eligible for extraction (the
# reference's admission predicates, pub.py:51-58).  Keeping dropped spans as
# rows (instead of filtering them away) is what lets us verify the per-row
# span-sequence invariant (kind, text, media_ref, order) after the pipeline.
# ---------------------------------------------------------------------------
CHUNKS = pa.schema(
    [
        pa.field("doc_id", pa.string()),
        pa.field("span_seq", pa.int32()),    # position within spans list
        pa.field("kind", pa.string()),
        pa.field("text", pa.string()),
        pa.field("media_ref", pa.string()),
        pa.field("offset", pa.int32()),
        pa.field("admitted", pa.bool_()),
    ]
)

ANNOTATION_STRUCT = pa.struct(
    [
        pa.field("db", pa.string()),
        pa.field("id", pa.string()),
        pa.field("entry_name", pa.string()),
    ]
)

# Gilda-stage contract (grounding_genes.py:36-50): chunk + detected mentions.
ANNOTATED_CHUNKS = pa.schema(
    list(CHUNKS) + [pa.field("annotations", pa.list_(ANNOTATION_STRUCT))]
)

RESULT_STRUCT = pa.struct(
    [
        pa.field("bel_statement", pa.string()),
        pa.field("evidence", pa.string()),
    ]
)

# LLM-stage contract (sentence_level_extraction.py:67-72; bel_model.py:22-33).
EXTRACTIONS = pa.schema(
    list(ANNOTATED_CHUNKS)
    + [
        pa.field("results", pa.list_(RESULT_STRUCT)),
        # per-row error containment (null = extracted cleanly): a row whose
        # extraction failed PERMANENTLY (after bounded retries) carries the
        # error string here with its (doc_id, span_seq) lineage — the
        # errors table is a filter on this column, never a lost row or an
        # aborted job (contrast main.py:115-118's sys.exit)
        pa.field("extract_error", pa.string()),
    ]
)

# URL-enriched annotations (grounding_genes.py:77-92): entry_name -> url.
PROCESSED_ANNOTATION_STRUCT = pa.struct(
    [
        pa.field("entry_name", pa.string()),
        pa.field("url", pa.string()),
    ]
)

# ---------------------------------------------------------------------------
# Graph tables (transform_bel_statements.py:88-95; convert_to_cx2.py:124-166).
# ---------------------------------------------------------------------------
EDGES = pa.schema(
    [
        pa.field("doc_id", pa.string()),
        pa.field("span_seq", pa.int32()),
        pa.field("stmt_seq", pa.int32()),  # result ordinal within the span
        pa.field("subj", pa.string()),
        pa.field("pred", pa.string()),
        pa.field("obj", pa.string()),
        pa.field("text", pa.string()),
        pa.field("evidence", pa.string()),
        pa.field("subj_label", pa.string()),
        pa.field("obj_label", pa.string()),
        pa.field("bel_expression", pa.string()),
    ]
)

NODES = pa.schema(
    [
        pa.field("name", pa.string()),
        pa.field("label", pa.string()),
        pa.field("type", pa.string()),
        pa.field("url", pa.string()),     # nullable: no annotation match
        pa.field("node_id", pa.int64()),  # dense, first-seen (doc_id, span_seq) order
    ]
)

# Node-only records from unary statements (convert_to_cx2.py:92-101).
UNARY_NODES = pa.schema(
    [
        pa.field("doc_id", pa.string()),
        pa.field("span_seq", pa.int32()),
        pa.field("stmt_seq", pa.int32()),
        pa.field("name", pa.string()),
    ]
)

# Annotation URL records in encounter order (grounding_genes.py:77-92).
ANNOTATION_URLS = pa.schema(
    [
        pa.field("doc_id", pa.string()),
        pa.field("span_seq", pa.int32()),
        pa.field("ann_seq", pa.int32()),
        pa.field("entry_name", pa.string()),
        pa.field("url", pa.string()),
    ]
)

# First-seen URL per entry_name: the aggregate nodes take their URLs from.
URL_AGG = pa.schema(list(PROCESSED_ANNOTATION_STRUCT))

# One CX2 network per document with at least one edge.
GRAPHS = pa.schema(
    [
        pa.field("doc_id", pa.string()),
        pa.field("cx2", pa.string()),
        pa.field("n_nodes", pa.int64()),
        pa.field("n_edges", pa.int64()),
    ]
)


class SchemaMismatch(ValueError):
    pass


def validate_schema(table: pa.Table, expected: pa.Schema, stage: str) -> pa.Table:
    """Check names+types (ignoring nullability and metadata); raise on drift."""
    got = table.schema
    if [f.name for f in got] != [f.name for f in expected]:
        raise SchemaMismatch(
            f"{stage}: column mismatch: got {got.names}, want {expected.names}"
        )
    for g, e in zip(got, expected):
        if not g.type.equals(e.type):
            # allow large_string/string interchange from concat paths and
            # dictionary-encoded string columns (a physical encoding of the
            # same logical type)
            g_t, e_t = g.type, e.type
            if pa.types.is_dictionary(g_t):
                g_t = g_t.value_type
            if {str(g_t), str(e_t)} == {"string", "large_string"} or (
                str(g_t) == str(e_t)
            ):
                continue
            raise SchemaMismatch(
                f"{stage}: column {g.name}: got {g.type}, want {e.type}"
            )
    return table
