"""Property-based tests (hypothesis) for the behavior-defining kernels."""
import string

import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from kgray import schemas
from kgray.functions.bel import annotation_url, split_statement, term_label
from kgray.stages.chunk import (
    check_span_invariant,
    explode_spans,
    reassemble_documents,
)

_term_chars = st.text(
    alphabet=string.ascii_letters + string.digits + ':_"() ,', max_size=60
)


@given(_term_chars)
@settings(max_examples=300, deadline=None)
def test_split_statement_total(s):
    """Never raises on arbitrary statement-ish strings; returns a 3-tuple
    whose unary form echoes the stripped input."""
    out = split_statement(s)
    assert isinstance(out, tuple) and len(out) == 3
    if out[1] is None and out[2] is None and out[0] is not None:
        assert out[0] == s.strip()


_name = st.text(alphabet=string.ascii_uppercase + string.digits, min_size=1,
                max_size=8)
_rel = st.sampled_from(["increases", "decreases", "association", "regulates"])


@given(_name, _rel, _name)
@settings(max_examples=200, deadline=None)
def test_split_statement_roundtrip_simple(a, rel, b):
    """Well-formed binary statements split into their three parts."""
    stmt = f"p(HGNC:{a}) {rel} act(p(HGNC:{b}))"
    subj, pred, obj = split_statement(stmt)
    assert subj == f"p(HGNC:{a})"
    assert pred == rel
    assert obj == f"act(p(HGNC:{b}))"
    assert term_label(subj) == a


@given(st.text(alphabet=string.ascii_uppercase, min_size=1, max_size=6),
       st.text(alphabet=string.digits + ":", min_size=1, max_size=10))
@settings(max_examples=200, deadline=None)
def test_annotation_url_total(db, ann_id):
    url = annotation_url(db, ann_id)
    assert url.startswith("https://identifiers.org/")
    if ":" in ann_id:
        assert url.endswith(ann_id)


_span = st.fixed_dictionaries(
    {
        "kind": st.sampled_from(["text", "media", "ref", "title"]),
        "text": st.text(max_size=40),
        "media_ref": st.text(alphabet=string.ascii_lowercase + ":/",
                             max_size=20),
    }
)


@given(st.lists(st.lists(_span, max_size=6), min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_explode_reassemble_roundtrip(span_lists):
    docs = pa.Table.from_pydict(
        {
            "doc_id": [f"PMC{i:07d}" for i in range(len(span_lists))],
            "spans": [
                [
                    {**s, "offset": j}
                    for j, s in enumerate(spans)
                ]
                for spans in span_lists
            ],
        },
        schema=schemas.DOCUMENTS,
    )
    chunks = explode_spans(docs)
    total = sum(len(s) for s in span_lists)
    assert chunks.num_rows == total
    nonempty = docs.filter(
        pa.compute.greater(
            pa.compute.list_value_length(docs.column("spans")), 0
        )
    )
    check_span_invariant(nonempty, reassemble_documents(chunks))
