"""The KG path's media contract, checked through ``run_kg_pipeline``.

The pipeline never decodes media: a media span (like a ``ref``/``title``
span or a text span under 20 characters, pub.py:51-58) must come out of
``extractions`` as an untouched row with empty ``results``, under the
span-sequence invariant (kind, text, media_ref, order).  Each corpus shape
runs in one block and in 3, 4 and 7 blocks, and the graph it yields must
not depend on the split.  Random span lists (seeded, and drawn by
hypothesis), split at random, must keep the same contract.  A corpus with no admitted span at all must still
give typed, empty graph tables.
"""
import functools
import random

import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray.data
from hypothesis import given, settings
from hypothesis import strategies as st

from kgray import schemas
from kgray.pipelines.kg import run_kg_pipeline
from kgray.stages.chunk import check_span_invariant, reassemble_documents

REL_A = "TP53 activates AKT1 in tumor cells."
REL_B = "MYC inhibits EGFR under hypoxic conditions."
UNARY = "HSF1 is phosphorylated in vivo."
TEXT_19 = "TP53 binds MYC now."   # one short of the admission bound
TEXT_20 = "TP53 binds AKT1 now."  # exactly at it


def _media(i):
    return ("media", "", f"synthetic://media/test/{i}")


def _text(t):
    return ("text", t, "")


# shape → (the shape document's spans, whether that document yields edges)
SHAPES = {
    "media_first": ([_media(0), _text(REL_A), _text(REL_B)], True),
    "media_last": ([_text(REL_A), _text(UNARY), _media(0)], True),
    "consecutive_media": (
        [_text(REL_A), _media(0), _media(1), _media(2), _text(REL_B)], True
    ),
    "media_only": ([_media(0), _media(1)], False),
    "zero_span": ([], False),
    # title/ref spans carry extractable sentences that must not be used
    "ref_title": ([("title", REL_B, ""), _text(UNARY), ("ref", REL_A, "")],
                  False),
    "text_19": ([_text(TEXT_19)], False),
    "text_20": ([_text(TEXT_20)], True),
}


def _corpus(shape_spans):
    """The shape's document between ordinary relation documents, so a
    many-block split puts it in a block of its own."""
    return _documents([
        ("PMC0000001", [_text(REL_B), _text(UNARY)]),
        ("PMC0000002", shape_spans),
        ("PMC0000003", [_text(REL_A)]),
        ("PMC0000004", [_media(9), _text(REL_B)]),
    ])


def _documents(docs):
    """(doc_id, [(kind, text, media_ref)]) pairs → a DOCUMENTS table."""
    rows = []
    for doc_id, spans in docs:
        offset, out = 0, []
        for kind, text, ref in spans:
            out.append({"kind": kind, "text": text, "media_ref": ref,
                        "offset": offset})
            offset += max(len(text), 1) + 1
        rows.append((doc_id, out))
    return pa.Table.from_pydict(
        {"doc_id": [d for d, _ in rows], "spans": [s for _, s in rows]},
        schema=schemas.DOCUMENTS,
    )


def _arrow(ds):
    df = ds.to_pandas()
    if not len(df.columns):
        # to_pandas() drops every column of an all-empty dataset
        return ds.schema().base_schema.empty_table()
    return pa.Table.from_pandas(df, preserve_index=False)


def _rows(ds):
    return sorted((tuple(r.values()) for r in _arrow(ds).to_pylist()),
                  key=repr)


def _run(docs, n_blocks):
    """Run ``docs`` split into ``n_blocks`` blocks, check the span
    contract on its extractions, and return its sorted edges, nodes and
    URL aggregate."""
    res = run_kg_pipeline(ray.data.from_arrow(docs).repartition(n_blocks))
    ext = _arrow(res.extractions)

    nonempty = docs.filter(
        pc.greater(pc.list_value_length(docs.column("spans")), 0)
    )
    check_span_invariant(nonempty, reassemble_documents(ext))
    for kind, admitted, results in zip(
        ext.column("kind").to_pylist(),
        ext.column("admitted").to_pylist(),
        ext.column("results").to_pylist(),
    ):
        if kind == "media":
            assert not admitted
        if not admitted:
            assert not results, kind
    return _rows(res.edges), _rows(res.nodes), _rows(res.annotation_url_agg)


@functools.lru_cache(maxsize=None)
def _graph(shape, n_blocks):
    spans, has_edges = SHAPES[shape]
    graph = _run(_corpus(spans), n_blocks)
    assert has_edges == any(e[0] == "PMC0000002" for e in graph[0])
    return graph


# 7 blocks for 4 documents leaves some blocks empty
@pytest.mark.parametrize("n_blocks", [3, 4, 7])
@pytest.mark.parametrize("shape", list(SHAPES))
def test_media_spans_pass_through_at_any_block_split(shape, n_blocks):
    assert _graph(shape, n_blocks) == _graph(shape, 1)


# what a random span is drawn from; None stands for a fresh media span
SPAN_POOL = [
    _text(REL_A), _text(REL_B), _text(UNARY), _text(TEXT_19),
    _text(TEXT_20), ("title", REL_A, ""), ("ref", REL_B, ""), None,
]


@pytest.mark.parametrize("seed", range(8))
def test_random_span_lists_keep_the_contract_at_any_block_split(seed):
    rng = random.Random(seed)
    docs = _documents([
        (f"PMC{d:07d}",
         [rng.choice(SPAN_POOL) or _media(f"{d}-{i}")
          for i in range(rng.randint(0, 6))])
        for d in range(rng.randint(2, 6))
    ])
    n_blocks = rng.randint(2, 7)
    assert _run(docs, n_blocks) == _run(docs, 1), n_blocks


# a text is a relation sentence, one at or under the admission bound, or
# any short or long string of gene-name characters
TEXTS = st.one_of(
    st.sampled_from([REL_A, REL_B, UNARY, TEXT_19, TEXT_20]),
    st.text(alphabet="TP53AKT1 binds.", max_size=40),
)
SPANS = st.one_of(
    TEXTS.map(_text),
    st.tuples(st.sampled_from(["title", "ref"]), TEXTS, st.just("")),
    st.just(None),  # a fresh media span
)


@settings(max_examples=20, deadline=None)
@given(
    span_lists=st.lists(st.lists(SPANS, max_size=6), min_size=1, max_size=6),
    n_blocks=st.integers(2, 7),
)
def test_drawn_span_lists_keep_the_contract_at_any_block_split(
    span_lists, n_blocks
):
    docs = _documents([
        (f"PMC{d:07d}", [s or _media(f"{d}-{i}") for i, s in enumerate(spans)])
        for d, spans in enumerate(span_lists)
    ])
    assert _run(docs, n_blocks) == _run(docs, 1), n_blocks


@pytest.mark.parametrize("n_blocks", [1, 3])
def test_all_non_admitted_corpus_gives_typed_empty_tables(n_blocks):
    docs = pa.Table.from_pydict(
        {
            "doc_id": ["PMC0000001"],
            "spans": [[
                {"kind": "media", "text": "",
                 "media_ref": "synthetic://media/x/0", "offset": 0},
                {"kind": "text", "text": "Fig. 1.", "media_ref": "",
                 "offset": 2},
                {"kind": "title", "text": REL_A, "media_ref": "",
                 "offset": 10},
            ]],
        },
        schema=schemas.DOCUMENTS,
    )
    res = run_kg_pipeline(ray.data.from_arrow(docs).repartition(n_blocks))

    ext = _arrow(res.extractions)
    assert ext.num_rows == 3
    assert not any(ext.column("admitted").to_pylist())
    assert not any(ext.column("results").to_pylist())
    for name in ("edges", "unary_nodes", "annotation_urls", "nodes",
                 "annotation_url_agg"):
        ds = getattr(res, name)
        assert ds.count() == 0, name
        assert ds.schema() is not None, name
