"""Extraction rows → edge rows (+ URL-enriched annotation rows).

Reference semantics being re-expressed:
- grounding_genes.py:55-105 ``process_annotations``: drop extractions with
  empty Results; map each annotation to (entry_name, identifiers.org URL).
- transform_bel_statements.py:79-105 ``process_llm_results``: split each
  bel_statement; keep only fully binary splits as edges; annotations become
  node-annotation records.
- convert_to_cx2.py:114-121: edge attributes source_label / target_label /
  bel_expression = "{subj} {pred} {obj}".

Here the interleaved record list becomes two clean tables: ``edges`` (EDGES
schema) and ``annotation_urls`` (doc_id, span_seq, ann_seq, entry_name, url).
Both are per-row transforms → stateless ``map_batches`` tasks.
"""
from __future__ import annotations

from typing import List

import pyarrow as pa
import pyarrow.compute as pc

from .. import schemas
from ..functions.bel import annotation_url, split_statement, term_label


def filter_nonempty_results(batch: pa.Table) -> pa.Table:
    """Drop rows whose Results list is empty (grounding_genes.py:63-66)."""
    n = pc.list_value_length(batch.column("results"))
    return batch.filter(pc.and_(pc.is_valid(n), pc.greater(n, 0)))


def _explode_results(batch: pa.Table):
    """Common vectorized explode of the results list column.

    Returns (doc_rep, seq_rep, text_rep, stmt_seq, statements, evidence,
    uniq_stmts, inverse): per-row parents repeated via np.repeat, plus the
    UNIQUE statement strings with their inverse index — statements repeat
    heavily (templated corpora, hot facts), so the Python BEL parse runs
    once per distinct statement instead of once per row (measured 20×+ on
    the amplified benchmark corpus).
    """
    import numpy as np

    res = batch.column("results")
    if isinstance(res, pa.ChunkedArray):
        res = res.combine_chunks()
    lengths = (
        pc.list_value_length(res)
        .fill_null(0)
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    doc_rep = np.repeat(
        batch.column("doc_id").to_numpy(zero_copy_only=False), lengths
    )
    seq_rep = np.repeat(
        batch.column("span_seq").to_numpy(zero_copy_only=False), lengths
    )
    text_rep = np.repeat(
        batch.column("text").to_numpy(zero_copy_only=False), lengths
    )
    stmt_seq = (
        np.concatenate([np.arange(n, dtype=np.int32) for n in lengths])
        if len(lengths)
        else np.array([], dtype=np.int32)
    )
    flat = res.flatten()
    stmts = np.asarray(
        [s if s is not None else "" for s in
         flat.field("bel_statement").to_pylist()],
        dtype=object,
    )
    evidence = np.asarray(flat.field("evidence").to_pylist(), dtype=object)
    if len(stmts):
        uniq, inverse = np.unique(stmts, return_inverse=True)
    else:
        uniq, inverse = np.array([], dtype=object), np.array([], dtype=np.int64)
    return doc_rep, seq_rep, text_rep, stmt_seq, stmts, evidence, uniq, inverse


def extractions_to_edges(batch: pa.Table) -> pa.Table:
    """Explode results into edge rows; unary/partial splits are skipped
    (transform_bel_statements.py:87-95 keeps only fully binary parses).
    Parsing/labeling run once per UNIQUE statement/term (vectorized fan-out
    via the inverse index)."""
    import numpy as np

    (doc_rep, seq_rep, text_rep, stmt_seq, _stmts, evidence, uniq,
     inverse) = _explode_results(batch)

    parsed = [split_statement(s) for s in uniq]
    subj_u = np.asarray([p[0] or "" for p in parsed], dtype=object)
    pred_u = np.asarray([p[1] or "" for p in parsed], dtype=object)
    obj_u = np.asarray([p[2] or "" for p in parsed], dtype=object)
    binary_u = np.asarray(
        [bool(p[0] and p[1] and p[2]) for p in parsed], dtype=bool
    )
    label_cache = {}

    def lbl(term: str) -> str:
        v = label_cache.get(term)
        if v is None:
            v = term_label(term)
            label_cache[term] = v
        return v

    subj_lbl_u = np.asarray([lbl(s) if b else "" for s, b in
                             zip(subj_u, binary_u)], dtype=object)
    obj_lbl_u = np.asarray([lbl(o) if b else "" for o, b in
                            zip(obj_u, binary_u)], dtype=object)
    expr_u = np.asarray(
        [f"{s} {r} {o}" if b else ""
         for s, r, o, b in zip(subj_u, pred_u, obj_u, binary_u)],
        dtype=object,
    )

    mask = binary_u[inverse] if len(inverse) else np.array([], dtype=bool)
    out = pa.table(
        {
            "doc_id": pa.array(doc_rep[mask], pa.string()),
            "span_seq": pa.array(
                seq_rep[mask].astype(np.int32), pa.int32()
            ),
            "stmt_seq": pa.array(stmt_seq[mask], pa.int32()),
            "subj": pa.array(subj_u[inverse][mask], pa.string()),
            "pred": pa.array(pred_u[inverse][mask], pa.string()),
            "obj": pa.array(obj_u[inverse][mask], pa.string()),
            "text": pa.array(text_rep[mask], pa.string()),
            "evidence": pa.array(evidence[mask], pa.string()),
            "subj_label": pa.array(subj_lbl_u[inverse][mask], pa.string()),
            "obj_label": pa.array(obj_lbl_u[inverse][mask], pa.string()),
            "bel_expression": pa.array(expr_u[inverse][mask], pa.string()),
        }
    )
    return schemas.validate_schema(out, schemas.EDGES, "edges")


def extractions_to_unary_nodes(batch: pa.Table) -> pa.Table:
    """Node-only records from unary statements (convert_to_cx2.py:92-101)."""
    import numpy as np

    (doc_rep, seq_rep, _text, stmt_seq, _stmts, _ev, uniq,
     inverse) = _explode_results(batch)
    parsed = [split_statement(s) for s in uniq]
    name_u = np.asarray([p[0] or "" for p in parsed], dtype=object)
    unary_u = np.asarray(
        [bool(p[0]) and p[1] is None and p[2] is None for p in parsed],
        dtype=bool,
    )
    mask = unary_u[inverse] if len(inverse) else np.array([], dtype=bool)
    return pa.table(
        {
            "doc_id": pa.array(doc_rep[mask], pa.string()),
            "span_seq": pa.array(seq_rep[mask].astype(np.int32), pa.int32()),
            "stmt_seq": pa.array(stmt_seq[mask], pa.int32()),
            "name": pa.array(name_u[inverse][mask], pa.string()),
        }
    )


def extractions_to_annotation_urls(batch: pa.Table) -> pa.Table:
    """Annotation URL records, in encounter order (grounding_genes.py:77-92).

    ``ann_seq`` preserves within-paragraph annotation order so the global
    first-seen URL-per-entry_name rule (convert_to_cx2.py:78-82) can be
    reproduced with a deterministic min-by-(doc_id, span_seq, ann_seq)
    aggregate instead of arrival order.

    Fully vectorized (Arrow list flatten + compute kernels): this flatten
    touches every annotation of every span, so a Python loop here was the
    hottest non-LLM stage at scale.
    """
    import numpy as np

    batch = filter_nonempty_results(batch)
    anns = batch.column("annotations")
    if isinstance(anns, pa.ChunkedArray):
        anns = anns.combine_chunks()
    lengths = (
        pc.list_value_length(anns)
        .fill_null(0)
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    doc_rep = pa.array(
        np.repeat(
            batch.column("doc_id").to_numpy(zero_copy_only=False), lengths
        ),
        pa.string(),
    )
    seq_rep = pa.array(
        np.repeat(
            batch.column("span_seq").to_numpy(zero_copy_only=False), lengths
        ),
        pa.int32(),
    )
    ann_seq = pa.array(
        np.concatenate(
            [np.arange(n, dtype=np.int32) for n in lengths]
        )
        if len(lengths)
        else np.array([], dtype=np.int32),
        pa.int32(),
    )
    flat = anns.flatten()
    db = flat.field("db")
    the_id = flat.field("id")
    # URL rule (grounding_genes.py:79-88): prefixed ids verbatim; else db:id
    # (db or id alone when the other is empty)
    has_prefix = pc.match_substring(the_id, ":")
    db_empty = pc.equal(db, "")
    id_empty = pc.equal(the_id, "")
    joined = pc.binary_join_element_wise(db, the_id, ":")
    curie = pc.if_else(
        has_prefix,
        the_id,
        pc.if_else(db_empty, the_id, pc.if_else(id_empty, db, joined)),
    )
    url = pc.binary_join_element_wise(
        pa.array(["https://identifiers.org"] * len(curie), pa.string()),
        curie,
        "/",
    )
    return pa.table(
        {
            "doc_id": doc_rep,
            "span_seq": seq_rep,
            "ann_seq": ann_seq,
            "entry_name": flat.field("entry_name"),
            "url": url,
        }
    )
