"""The per-batch text kernels against plain-Python references.

``token_count``, ``token_count_bpe``, ``text_quality``, ``fingerprint``,
``pii_scrub`` and ``LangId`` are vectorized Arrow / numpy maps.  Each
case here runs one kernel on one kind of text (empty, whitespace runs,
tabs and newlines, punctuation, PII, non-ASCII letters, non-English
stopword profiles and a tie between two of them, digits and dotted
abbreviations) and compares with a scalar re-implementation written
from the kernel's docstring.  The
regexes are RE2 in Arrow and ``re`` / ``regex`` here; ASCII flags keep
``\\b``, ``\\d`` and ``\\s`` on RE2's ASCII meaning.
"""
import math
import re
import zlib

import pyarrow as pa
import pytest
import regex

from kgray.stages.scrub import PII_CLASSES, pii_scrub
from kgray.stages.text_analysis import (
    _BPE_PAT,
    LangId,
    _PROFILES,
    fingerprint,
    text_quality,
    token_count,
    token_count_bpe,
)

TEXTS = {
    "empty": "",
    "one_token": "TP53",
    "space_runs": "  a  b   c  ",
    "tabs_newlines": "alpha\tbeta\ngamma\r\ndelta",
    "punctuation": "Hello, world! Is it ok? Yes: fine; done.",
    "pii": ("mail bob.smith@example.org or 555-123-4567 at 10.0.0.1; "
            "x@y.co 1234-555-1234 and 999.1.1.1.1, "
            # email first: a phone-shaped local part goes with its email
            "555-987-6543@lab.net"),
    "non_ascii": "Über café naïve 中文 text",
    "german": "der Hund und die Katze ist nicht mit ein Ball",
    "french_spanish_tie": "la casa la maison",
    "spanish": "el perro de la casa es por con los gatos",
    "digits_dots": "ABC 123 4.5 e.g. U.S.A. it's 3.14159 rock'n'roll",
}
_IDS = list(TEXTS)


def _batch(text):
    return pa.table({"doc_id": pa.array([7], pa.int64()),
                     "text": pa.array([text], pa.string())})


def _one(table, col):
    assert table.column("doc_id").to_pylist() == [7]
    return table.column(col).to_pylist()[0]


_WORD = re.compile(r"[^\t\n\f\r ]+")  # RE2's \S: not ASCII whitespace


@pytest.mark.parametrize("text", TEXTS.values(), ids=_IDS)
def test_token_counts_match_scalar_regex(text):
    assert _one(token_count(_batch(text)), "n_tokens") == len(
        _WORD.findall(text))
    assert _one(token_count_bpe(_batch(text)), "n_tokens_bpe") == len(
        regex.findall(_BPE_PAT, text))


@pytest.mark.parametrize("text", TEXTS.values(), ids=_IDS)
def test_text_quality_matches_scalar_arithmetic(text):
    row = text_quality(_batch(text)).to_pylist()[0]
    n_chars = len(text)
    n_words = len(_WORD.findall(text))
    n_punct = sum(text.count(c) for c in ".,;:!?")
    n_spaces = text.count(" ")
    assert row["n_chars_m"] == n_chars
    assert row["n_words"] == n_words
    assert row["n_punct"] == n_punct
    if n_chars:
        assert row["punct_ratio"] == n_punct / n_chars
    else:
        assert math.isnan(row["punct_ratio"])
    assert row["mean_word_len"] == (n_chars - n_spaces) / max(n_words, 1)


def _rolling_min_reference(data: bytes, k: int = 16) -> int:
    base, mask = 1000003, (1 << 64) - 1

    def poly(chunk):
        h = 0
        for x in chunk:
            h = (h * base + x) & mask
        return h

    if not data:
        return 0
    if len(data) <= k:
        return poly(data)
    return min(poly(data[i:i + k]) for i in range(len(data) - k + 1))


@pytest.mark.parametrize("text", TEXTS.values(), ids=_IDS)
def test_fingerprint_matches_crc_and_rolling_window_minimum(text):
    row = fingerprint(_batch(text)).to_pylist()[0]
    data = text.encode("utf-8")
    assert row["fp_crc"] == zlib.crc32(data)
    assert row["fp_rolling"] == (
        _rolling_min_reference(data) & 0x7FFFFFFFFFFFFFFF)


@pytest.mark.parametrize("text", TEXTS.values(), ids=_IDS)
def test_pii_scrub_matches_sequential_regex_passes(text):
    row = pii_scrub(_batch(text)).to_pylist()[0]
    classes = {name: (pat, repl) for name, pat, repl in PII_CLASSES}
    redacted = text
    for name in ("email", "phone", "ipv4"):
        # counts are on the original text; redaction runs in this order
        pat, placeholder = classes[name]
        assert row[f"n_{name}"] == len(re.findall(pat, text, re.ASCII))
        redacted = re.sub(pat, placeholder, redacted, flags=re.ASCII)
    assert row["redacted"] == redacted


def _lang_reference(text):
    if re.search(r"[一-鿿]", text):
        return "zh"
    toks = [t.lower() for t in re.findall(r"[a-zA-Z]+", text)]
    best, best_score = "en", 0.0
    for lang, stop in _PROFILES.items():
        if not stop:
            continue
        score = sum(t in stop for t in toks) / max(len(toks), 1)
        if score > best_score:
            best, best_score = lang, score
    return best


@pytest.mark.parametrize("text", TEXTS.values(), ids=_IDS)
def test_langid_matches_scalar_profile_vote(text):
    # one document alone, and the same document inside a mixed batch
    assert _one(LangId()(_batch(text)), "lang_pred") == _lang_reference(text)
    others = [t for t in TEXTS.values() if t != text]
    batch = pa.table({"doc_id": pa.array(range(len(others) + 1), pa.int64()),
                      "text": pa.array(others + [text], pa.string())})
    got = LangId()(batch).column("lang_pred").to_pylist()
    assert got == [_lang_reference(t) for t in others + [text]]
