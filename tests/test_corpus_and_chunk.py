"""Corpus generator determinism + explode/admission/span-invariant checks."""
import pyarrow as pa
import pytest
import pyarrow.compute as pc

from kgray import schemas
from kgray.corpus import generate_documents
from kgray.stages.chunk import (
    check_span_invariant,
    explode_spans,
    filter_admitted,
    reassemble_documents,
)


def test_generator_deterministic():
    a, ga, ua = generate_documents(10, seed=7)
    b, gb, ub = generate_documents(10, seed=7)
    assert a.equals(b) and ga.equals(gb) and ua.equals(ub)
    c, _, _ = generate_documents(10, seed=8)
    assert not a.equals(c)


def test_corpus_structure():
    docs, gold, _ = generate_documents(40, seed=42)
    kinds = {
        s["kind"] for spans in docs.column("spans").to_pylist() for s in spans
    }
    assert {"text", "media", "title"} <= kinds
    # at least one barren document (doc index 0 and 17 are barren by mod 17)
    barren_ids = {"PMC1000000", "PMC1000017", "PMC1000034"}
    assert barren_ids.isdisjoint(set(gold.column("doc_id").to_pylist()))
    # offsets strictly increasing within each doc
    for spans in docs.column("spans").to_pylist():
        offs = [s["offset"] for s in spans]
        assert offs == sorted(offs) and len(set(offs)) == len(offs)


def test_explode_and_admission():
    docs, _, _ = generate_documents(25, seed=42)
    chunks = explode_spans(docs)
    assert chunks.schema.names == schemas.CHUNKS.names
    total_spans = sum(len(s) for s in docs.column("spans").to_pylist())
    assert chunks.num_rows == total_spans  # every span kept as a row
    adm = filter_admitted(chunks)
    kinds = set(adm.column("kind").to_pylist())
    assert kinds == {"text"}
    assert pc.min(pc.utf8_length(adm.column("text"))).as_py() >= 20
    # dropped spans: media, title, ref, short texts
    dropped = chunks.filter(pc.invert(chunks.column("admitted")))
    assert dropped.num_rows == total_spans - adm.num_rows
    assert dropped.num_rows > 0


def test_span_sequence_invariant_roundtrip():
    docs, _, _ = generate_documents(15, seed=3)
    chunks = explode_spans(docs)
    rebuilt = reassemble_documents(chunks)
    check_span_invariant(docs, rebuilt)
    # and that a violation is detected
    broken = chunks.set_column(
        3, "text", pa.array(["X"] * chunks.num_rows, pa.string())
    )
    try:
        check_span_invariant(docs, reassemble_documents(broken))
    except AssertionError:
        pass
    else:
        raise AssertionError("invariant check failed to detect corruption")


_D1 = [
    ("text", "TP53 activates AKT1 in tumor cells.", ""),
    ("media", "", "synthetic://media/D1/0"),
    ("title", "Results", ""),
]
_D2 = [
    ("text", "MYC inhibits EGFR under hypoxia.", ""),
    ("ref", "Smith et al. 2001.", ""),
]
_MEDIA = ("media", "", "synthetic://media/D2/0")

# each breaks one part of the invariant: kind, text, media_ref, order, or
# the set of documents and spans
_VIOLATIONS = {
    "text_changed": {
        "D1": [("text", "TP53 activates AKT2 in tumor cells.", "")]
        + _D1[1:],
        "D2": _D2,
    },
    "kind_changed": {"D1": _D1[:2] + [("text", "Results", "")], "D2": _D2},
    "media_ref_changed": {
        "D1": [_D1[0], ("media", "", "synthetic://media/D1/1"), _D1[2]],
        "D2": _D2,
    },
    "spans_swapped": {"D1": [_D1[1], _D1[0], _D1[2]], "D2": _D2},
    "media_span_dropped": {"D1": [_D1[0], _D1[2]], "D2": _D2},
    "media_span_added": {"D1": _D1, "D2": _D2 + [_MEDIA]},
    "doc_dropped": {"D1": _D1},
    "doc_added": {"D1": _D1, "D2": _D2, "D3": [_MEDIA]},
}


def _docs_table(docs, offset_step=1):
    return pa.Table.from_pydict(
        {
            "doc_id": list(docs),
            "spans": [
                [{"kind": k, "text": t, "media_ref": r,
                  "offset": i * offset_step}
                 for i, (k, t, r) in enumerate(spans)]
                for spans in docs.values()
            ],
        },
        schema=schemas.DOCUMENTS,
    )


@pytest.mark.parametrize("violation", list(_VIOLATIONS))
def test_span_invariant_detects_each_violation(violation):
    original = _docs_table({"D1": _D1, "D2": _D2})
    rebuilt = reassemble_documents(explode_spans(original))
    check_span_invariant(original, rebuilt)
    with pytest.raises(AssertionError, match="span invariant"):
        check_span_invariant(original, _docs_table(_VIOLATIONS[violation]))


def test_span_invariant_ignores_offsets():
    # the invariant is (kind, text, media_ref, order); offsets may differ
    docs = {"D1": _D1, "D2": _D2}
    check_span_invariant(_docs_table(docs), _docs_table(docs, offset_step=7))


def test_pdf_extractor_seam():
    from kgray.sources import textfile

    # default extractor is the REAL vendored minipdf (round 3): a header
    # with no parseable objects is an error, not a silent empty string
    with pytest.raises(ValueError):
        textfile.decode_payload(b"%PDF-1.4 fake", "pdf")
    # the seam still wins over the default when registered
    textfile.set_pdf_extractor(lambda payload: "Extracted PDF text.\n\nPara two here.")
    try:
        assert textfile.decode_payload(b"%PDF", "pdf").startswith("Extracted")
    finally:
        textfile.set_pdf_extractor(None)
    with pytest.raises(ValueError):
        textfile.decode_payload(b"%PDF", "pdf")
