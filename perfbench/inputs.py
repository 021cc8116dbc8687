"""Seeded workload inputs and their single-process oracles.

* ``bio_documents``: the package's own synthetic biomedical corpus
  (``kgray.corpus.generate_documents``) with its gold triples.
* ``zipf_documents``: a corpus whose paragraphs draw entity names
  Zipf(s) from a large generated vocabulary, so grounding and node
  canonicalization run at vocabulary scale.  Built with vectorized
  numpy/pyarrow kernels, so generating it stays a small part of set-up.
* ``zipf_oracle``: the edges and first-seen node ids the pipeline must
  produce on a Zipf corpus, computed with pyarrow/numpy in one process from
  the document table alone (dictionary grounding of whole tokens, the
  co-occurrence rule, first-seen dense ids).

Everything is a pure function of the arguments: the same seed gives the
same tables.
"""
from __future__ import annotations

import hashlib
import json
from typing import Dict, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from kgray import schemas
from kgray.vocab import Entity

ZIPF_DB = "ZV"
_ALPHA = np.array(list("abcdefghijklmnopqrstuvwxyz"))
_FILLERS = np.array(
    "the of and in to was were with for by on we cells study samples "
    "levels data showed observed increased reduced response patients "
    "analysis expression model effect under after between during".split()
)


def bio_documents(n_docs: int, seed: int):
    """(documents, gold_edges, gold_unary) of the package's bio corpus."""
    from kgray.corpus import generate_documents

    return generate_documents(n_docs, seed=seed)


def zipf_names(n_names: int, seed: int) -> np.ndarray:
    """``n_names`` distinct single-token names, e.g. ``Qxk4f1``.

    A capital letter and two lower-case letters drawn from the seed, then
    the index in base 36: unique by construction, alphanumeric (so
    ``\\b``-bounded grounding and whitespace tokenization agree), and never
    equal to a lower-case filler word.
    """
    rng = np.random.default_rng([seed, 1])
    head = rng.integers(0, 26, size=(n_names, 3))
    idx = np.arange(n_names)
    b36 = np.array(list("0123456789abcdefghijklmnopqrstuvwxyz"))
    parts = [np.char.upper(_ALPHA[head[:, 0]]), _ALPHA[head[:, 1]],
             _ALPHA[head[:, 2]]]
    parts += [b36[(idx // 36 ** k) % 36] for k in (3, 2, 1, 0)]  # < 36**4
    out = parts[0]
    for p in parts[1:]:
        out = np.char.add(out, p)
    return out.astype(object)


def zipf_vocab(names: np.ndarray) -> Dict[str, Entity]:
    """Annotator vocabulary: surface form → Entity(db=ZV, id=index)."""
    return {
        str(n): Entity(str(n), ZIPF_DB, str(i), "p") for i, n in enumerate(names)
    }


def zipf_documents(
    n_docs: int, names: np.ndarray, s: float, seed: int
) -> pa.Table:
    """DOCUMENTS table: a title span plus 3–6 text paragraphs per document;
    each paragraph is 8–14 tokens, 75% of them vocabulary names drawn
    Zipf(``s``) by rank, the rest filler words; sentences end with '.'."""
    rng = np.random.default_rng([seed, 2])
    n_paras = rng.integers(3, 7, size=n_docs)
    n_para_total = int(n_paras.sum())
    n_tok = rng.integers(8, 15, size=n_para_total)
    n_tok_total = int(n_tok.sum())

    ranks = np.arange(1, len(names) + 1, dtype=np.float64)
    p = ranks ** -s
    p /= p.sum()
    is_name = rng.random(n_tok_total) < 0.75
    name_idx = rng.choice(len(names), size=n_tok_total, p=p)
    filler_idx = rng.integers(0, len(_FILLERS), size=n_tok_total)
    words = np.where(is_name, names[name_idx], _FILLERS[filler_idx])

    para_end = np.cumsum(n_tok) - 1
    dot = rng.random(n_tok_total) < 0.125
    dot[para_end] = True
    words = pa.array(words.astype(object), pa.string())
    words = pc.binary_join_element_wise(
        words, pa.array(np.where(dot, ".", "").astype(object), pa.string()), ""
    )
    para_offsets = np.concatenate([[0], np.cumsum(n_tok)]).astype(np.int32)
    para_text = pc.binary_join(
        pa.ListArray.from_arrays(pa.array(para_offsets), words), " "
    )

    doc_ids = np.array([f"Z{d:07d}" for d in range(n_docs)], dtype=object)
    titles = np.array(
        [f"Report {d} on term co-occurrence" for d in range(n_docs)],
        dtype=object,
    )
    spans_per_doc = n_paras + 1
    n_spans = int(spans_per_doc.sum())
    doc_start = np.concatenate([[0], np.cumsum(spans_per_doc)[:-1]])
    is_title = np.zeros(n_spans, dtype=bool)
    is_title[doc_start] = True
    text = np.empty(n_spans, dtype=object)
    text[is_title] = titles
    text[~is_title] = np.asarray(para_text.to_pylist(), dtype=object)
    kind = np.where(is_title, "title", "text").astype(object)

    text_arr = pa.array(text, pa.string())
    length = pc.utf8_length(text_arr).to_numpy().astype(np.int64) + 1
    cum = np.cumsum(length) - length  # global exclusive prefix sum
    doc_of_span = np.repeat(np.arange(n_docs), spans_per_doc)
    offset = (cum - cum[doc_start][doc_of_span]).astype(np.int32)

    span_struct = pa.StructArray.from_arrays(
        [
            pa.array(kind, pa.string()),
            text_arr,
            pa.array(np.full(n_spans, "", dtype=object), pa.string()),
            pa.array(offset, pa.int32()),
        ],
        fields=list(schemas.SPAN_STRUCT),
    )
    list_offsets = np.concatenate([[0], np.cumsum(spans_per_doc)]).astype(
        np.int32
    )
    spans = pa.ListArray.from_arrays(pa.array(list_offsets), span_struct)
    return pa.Table.from_arrays(
        [pa.array(doc_ids, pa.string()), spans], schema=schemas.DOCUMENTS
    )


def zipf_oracle(docs: pa.Table, names: np.ndarray) -> Tuple[pa.Table, pa.Table]:
    """(edges, nodes) the KG pipeline must emit for a Zipf corpus with the
    co-occurrence backend, computed in one process with pyarrow/numpy.

    edges: (doc_id, span_seq, stmt_seq, subj, pred, obj); nodes:
    (node_id, name, url) with dense ids in first-seen
    (doc_id, span_seq, stmt_seq, side) order.
    """
    spans = docs.column("spans").combine_chunks()
    flat = spans.flatten()
    parent = pc.list_parent_indices(spans).to_numpy()
    starts = spans.offsets.to_numpy()[:-1]
    span_seq = np.arange(len(flat)) - starts[parent]
    doc_id = docs.column("doc_id").to_numpy(zero_copy_only=False)[parent]

    kind = flat.field("kind")
    text = flat.field("text")
    admitted = pc.and_(
        pc.equal(kind, "text"), pc.greater_equal(pc.utf8_length(text), 20)
    ).to_numpy(zero_copy_only=False)
    adm = np.flatnonzero(admitted)
    tokens = pc.split_pattern(
        pc.replace_substring(text.take(pa.array(adm)), ".", ""), " "
    )
    tok_parent = adm[pc.list_parent_indices(tokens).to_numpy()]
    tok = tokens.flatten()
    hit = pc.is_in(tok, value_set=pa.array(names.astype(object), pa.string()))
    hit = hit.to_numpy(zero_copy_only=False)
    m_span = tok_parent[hit]
    m_name = np.asarray(tok.filter(pa.array(hit)).to_pylist(), dtype=object)

    same = m_span[1:] == m_span[:-1]
    p_span = m_span[:-1][same]
    subj = m_name[:-1][same]
    obj = m_name[1:][same]
    first = np.concatenate([[True], p_span[1:] != p_span[:-1]])
    group_start = np.maximum.accumulate(
        np.where(first, np.arange(len(p_span)), 0)
    ) if len(p_span) else np.zeros(0, dtype=np.int64)
    stmt_seq = np.arange(len(p_span)) - group_start

    wrap = np.frompyfunc(lambda n: f"w(X:{n})", 1, 1)
    edges = pa.table(
        {
            "doc_id": pa.array(doc_id[p_span], pa.string()),
            "span_seq": pa.array(span_seq[p_span], pa.int32()),
            "stmt_seq": pa.array(stmt_seq, pa.int32()),
            "subj": pa.array(wrap(subj), pa.string()),
            "pred": pa.array(np.full(len(subj), "cooccurs", dtype=object)),
            "obj": pa.array(wrap(obj), pa.string()),
        }
    )
    # first-seen order: edges are already in (doc_id, span_seq, stmt_seq)
    # order and doc ids are fixed width, so the side-interleaved sequence
    # subj0, obj0, subj1, obj1, ... is the order of the min key
    seq = np.empty(2 * len(subj), dtype=object)
    seq[0::2] = subj
    seq[1::2] = obj
    _, first_pos = np.unique(seq, return_index=True)
    order = np.sort(first_pos)
    node_label = seq[order]
    index_of = {str(n): i for i, n in enumerate(names)}
    nodes = pa.table(
        {
            "node_id": pa.array(np.arange(len(order)), pa.int64()),
            "name": pa.array(wrap(node_label), pa.string()),
            "url": pa.array(
                [
                    f"https://identifiers.org/{ZIPF_DB}:{index_of[n]}"
                    for n in node_label
                ],
                pa.string(),
            ),
        }
    )
    return edges, nodes


def digest(table: pa.Table, columns, sort_by) -> str:
    """Order-independent content hash of ``columns`` of ``table``."""
    t = table.select(columns)
    t = pa.table(
        {
            c: (
                t.column(c).cast(t.schema.field(c).type.value_type)
                if pa.types.is_dictionary(t.schema.field(c).type)
                else t.column(c)
            )
            for c in columns
        }
    )
    t = t.sort_by([(c, "ascending") for c in sort_by])
    h = hashlib.sha256()
    for c in columns:
        h.update(json.dumps(t.column(c).to_pylist()).encode())
    return h.hexdigest()
