"""Raw text / extracted-PDF ingestion (the reference's file path, S3/S4).

Reference behavior being re-expressed:
- process_text_file.py:8-13 ``clean_paragraph``: collapse newline runs to a
  single space and strip — ported verbatim (M2).
- process_text_file.py:16-60 ``process_text_with_llm``: GPT-4o removes
  References/Acknowledgments/section headings and splits into paragraphs.
  Here the default is a deterministic rule-based cleaner with the same
  contract (ordered paragraph spans); an LLM cleaner can plug in as an
  actor-pool stage with the same output schema (the reference itself treats
  the LLM as a text-cleanup oracle, not a semantic transform).
- process_text_file.py:63-94 ``process_paper``: extension validation +
  MarkItDown text extraction.  MarkItDown isn't in this container: PDF
  byte decoding defaults to the vendored minimal pure-python extractor
  (kgray.sources.minipdf — FlateDecode/LZW, ToUnicode CMaps,
  /Differences encodings), with MarkItDown auto-preferred when installed
  and any extractor pluggable via ``set_pdf_extractor``.
"""
from __future__ import annotations

import re
from typing import List

import pyarrow as pa

from .. import schemas

_NEWLINE_RUNS = re.compile(r"\n+")
# section headings that end the content region (reference drops everything
# from References / Acknowledgments on, process_text_file.py:24-28 prompt)
_CUTOFF = re.compile(
    r"^\s*(references|acknowledg(e)?ments|bibliography)\s*$",
    re.IGNORECASE | re.MULTILINE,
)
_HEADING = re.compile(r"^\s*(abstract|introduction|methods?|results|"
                      r"discussion|conclusions?)\s*$", re.IGNORECASE)


def clean_paragraph(text: str) -> str:
    """Collapse newlines to spaces and strip (process_text_file.py:8-13)."""
    return _NEWLINE_RUNS.sub(" ", text).strip()


def split_paragraphs(raw_text: str) -> List[str]:
    """Deterministic stand-in for the LLM section cleanup: cut at the
    References/Acknowledgments heading, drop bare section headings, split
    on blank lines, clean each paragraph."""
    m = _CUTOFF.search(raw_text)
    content = raw_text[: m.start()] if m else raw_text
    out = []
    for block in re.split(r"\n\s*\n", content):
        if _HEADING.match(block.strip()):
            continue
        p = clean_paragraph(block)
        if p:
            out.append(p)
    return out


_PDF_EXTRACTOR = None


def set_pdf_extractor(fn) -> None:
    """Register a PDF→text extractor, ``fn(payload: bytes) -> str``.

    The reference uses MarkItDown (process_text_file.py:75-82); that
    library is not in this container, so the seam is pluggable: call
    ``set_pdf_extractor(lambda b: MarkItDown().convert_stream(...))`` (or
    any pdfminer/pypdf equivalent) before building the pipeline.  The
    registered callable is captured by the map_batches closures and ships
    to the actors with them."""
    global _PDF_EXTRACTOR
    _PDF_EXTRACTOR = fn


def _default_pdf_extractor():
    """MarkItDown when installed (the reference's extractor,
    process_text_file.py:75-82); else the vendored minimal pure-python
    extractor (kgray.sources.minipdf) so the --pdf_paths flow runs
    end-to-end with no external dependency."""
    try:  # pragma: no cover - not installed in this sandbox
        from markitdown import MarkItDown  # type: ignore

        import io

        md = MarkItDown()
        return lambda payload: md.convert_stream(
            io.BytesIO(payload), file_extension=".pdf"
        ).text_content
    except ImportError:
        from .minipdf import extract_text

        return extract_text


def decode_payload(payload: bytes, ext: str) -> str:
    """Binary document payload → text.  txt decodes for real; pdf goes
    through the pluggable extractor seam (``set_pdf_extractor``), which
    defaults to MarkItDown when installed, else the vendored minimal
    pure-python extractor."""
    ext = ext.lstrip(".").lower()
    if ext == "txt":
        return payload.decode("utf-8", errors="replace")
    if ext == "pdf":
        fn = _PDF_EXTRACTOR or _default_pdf_extractor()
        return fn(payload)
    raise ValueError(f"unsupported extension: {ext!r} (expected pdf/txt)")


def raw_text_to_documents(batch: pa.Table) -> pa.Table:
    """(doc_id, raw_text) → input_hint documents (all-text spans).

    Paragraph order is the reference's ordinal-keyed dict order
    (process_text_file.py:57-58).
    """
    ids = batch.column("doc_id").to_pylist()
    raws = batch.column("raw_text").to_pylist()
    out_ids, out_spans = [], []
    for d, raw in zip(ids, raws):
        spans = []
        offset = 0
        for p in split_paragraphs(raw or ""):
            spans.append(
                {"kind": "text", "text": p, "media_ref": "", "offset": offset}
            )
            offset += len(p) + 1
        out_ids.append(d)
        out_spans.append(spans)
    return pa.Table.from_pydict(
        {"doc_id": out_ids, "spans": out_spans}, schema=schemas.DOCUMENTS
    )


def binary_files_to_documents(batch: pa.Table) -> pa.Table:
    """(doc_id, payload: binary, ext: string) → documents.

    Each payload is decoded to text by ``decode_payload`` (txt as UTF-8,
    pdf through the pluggable extractor seam), then split into text
    spans exactly like ``raw_text_to_documents``.
    """
    ids = batch.column("doc_id").to_pylist()
    payloads = batch.column("payload").to_pylist()
    exts = batch.column("ext").to_pylist()
    texts = [decode_payload(p, e) for p, e in zip(payloads, exts)]
    return raw_text_to_documents(
        pa.table({"doc_id": ids, "raw_text": texts})
    )
