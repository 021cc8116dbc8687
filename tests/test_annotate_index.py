"""The token-index grounder against the regex alternation it replaces.

``DictionaryAnnotator`` must find exactly what ``re.finditer`` finds with
``\\b(name1|name2|…)\\b`` over the names sorted longest first: the
leftmost match, the longest name there that ends at a ``\\b``, no
overlaps.  The alternation is compiled here, as the reference only.
"""
import re

import pyarrow as pa
import pyarrow.compute as pc
from hypothesis import given, settings
from hypothesis import strategies as st

from kgray.stages.annotate import DictionaryAnnotator
from kgray.stages.chunk import explode_spans
from kgray.vocab import ENTITY_BY_NAME, Entity
from perfbench.inputs import zipf_documents, zipf_names, zipf_vocab

_DBS = ["HGNC", "CHEBI", "MESH", "GO"]


def _reference(lookup: dict, drop_dbs=None):
    names = sorted(lookup, key=len, reverse=True)
    rx = re.compile(r"\b(" + "|".join(re.escape(n) for n in names) + r")\b")

    def annotate(text):
        out = []
        for m in rx.finditer(text):
            e = lookup[m.group(1)]
            if drop_dbs and e.db in drop_dbs:
                continue
            out.append({"db": e.db, "id": e.id, "entry_name": e.entry_name})
        return out

    return annotate


def _vocab(names):
    return {n: Entity(n, _DBS[i % len(_DBS)], str(i), "p")
            for i, n in enumerate(names)}


# names that prefix other names, share a first run, carry hyphens, dots,
# underscores, non-ASCII letters, or start / end with a non-word character
_ADVERSARIAL = _vocab([
    "retinoic", "retinoic acid", "acid", "acid phosphatase",
    "acid phosphatase 2", "IL", "IL-6", "IL-6R", "IL-6 receptor",
    "Ca2", "Ca2+", "Ca", "(+)-catechin", "catechin", "(+)", "+",
    "NF-κB", "κB", "NF", "α-synuclein", "synuclein", "p53", "p53_mut",
    "_mut", "mut_", "e.g.", "e.g", "St. John", "St.", "John's wort",
    "A.B", "B.C", "x-", "-x", "-", "..", "Müller", "Müller cell",
    "a b", "b c", "a b c d", "TNF-α", "TNF",
])
_SEPS = ["", " ", "  ", ".", "-", "_", ",", "(", ")", "+", "é", "x", "9",
         "\n"]
_FILLERS = ["the", "acid", "cells", "of", "ions", "wort", "R", "s"]


def _texts(names):
    """Texts glued from vocabulary names, prefixes and suffixes of names,
    fillers and separators — so names abut each other, break mid-run, and
    end where a longer name would need one more character."""
    names = sorted(names)
    piece = st.one_of(
        st.sampled_from(names),
        st.sampled_from(names).flatmap(
            lambda n: st.integers(0, len(n)).map(
                lambda k: n[:k] if k % 2 else n[k:])),
        st.sampled_from(_FILLERS),
        st.sampled_from(_SEPS),
    )
    return st.lists(piece, max_size=14).map("".join)


def _assert_same(lookup, text, drop_dbs=None):
    got = DictionaryAnnotator(vocab=lookup, drop_dbs=drop_dbs)
    assert got.annotate_text(text) == _reference(lookup, drop_dbs)(text), text


_DEFAULT = dict(ENTITY_BY_NAME)
_ZIPF = {n: e._replace(db=_DBS[int(e.id) % len(_DBS)])
         for n, e in zipf_vocab(zipf_names(2000, seed=5)).items()}
_ANNOTATORS = {}


def _annotator(key, lookup, drop):
    # one annotator per (vocabulary, filter), as one actor would hold
    k = (key, drop)
    if k not in _ANNOTATORS:
        _ANNOTATORS[k] = (DictionaryAnnotator(vocab=lookup, drop_dbs=set(drop)),
                          _reference(lookup, set(drop)))
    return _ANNOTATORS[k]


_DROPS = st.sampled_from([(), ("MESH",), ("HGNC", "GO")])


@given(_texts(_DEFAULT), _DROPS)
@settings(max_examples=300, deadline=None)
def test_default_vocabulary_matches_alternation(text, drop):
    got, want = _annotator("default", _DEFAULT, drop)
    assert got.annotate_text(text) == want(text), text


@given(_texts(list(_ZIPF)), _DROPS)
@settings(max_examples=200, deadline=None)
def test_zipf_vocabulary_matches_alternation(text, drop):
    got, want = _annotator("zipf", _ZIPF, drop)
    assert got.annotate_text(text) == want(text), text


@given(_texts(list(_ADVERSARIAL)), _DROPS)
@settings(max_examples=600, deadline=None)
def test_adversarial_vocabulary_matches_alternation(text, drop):
    got, want = _annotator("adversarial", _ADVERSARIAL, drop)
    assert got.annotate_text(text) == want(text), text


_NAME_CHARS = "ab_-.+ é9"


@given(
    st.lists(st.text(_NAME_CHARS, min_size=1, max_size=5), min_size=1,
             max_size=8, unique=True).flatmap(
        lambda names: st.tuples(st.just(names), _texts(names))),
    _DROPS,
)
@settings(max_examples=400, deadline=None)
def test_random_vocabulary_matches_alternation(names_text, drop):
    names, text = names_text
    _assert_same(_vocab(names), text, set(drop))


def test_longest_name_failing_its_boundary_falls_back():
    lookup = _vocab(["IL", "IL-6", "IL-6R", "Ca2", "Ca2+"])
    ann = DictionaryAnnotator(vocab=lookup)
    # "IL-6R" and "IL-6" end inside the run "6Rx"; "IL" ends at "-"
    assert [a["entry_name"] for a in ann.annotate_text("IL-6Rx")] == ["IL"]
    # "Ca2+" needs a word character after "+": falls back to "Ca2"
    assert [a["entry_name"] for a in ann.annotate_text("Ca2+ ions")] == ["Ca2"]
    assert [a["entry_name"] for a in ann.annotate_text("Ca2+x")] == ["Ca2+"]
    for text in ("IL-6Rx", "Ca2+ ions", "Ca2+x", "IL-6R IL-6 IL"):
        _assert_same(lookup, text)


def test_extra_vocab_names_are_found():
    foxo3 = Entity("FOXO3", "HGNC", "3821", "p")
    ann = DictionaryAnnotator(extra_vocab={"FOXO3": foxo3})
    assert ann.annotate_text("FOXO3 activates TP53.") == [
        {"db": "HGNC", "id": "3821", "entry_name": "FOXO3"},
        {"db": "HGNC", "id": "11998", "entry_name": "TP53"},
    ]
    # an extra name that extends a default one wins as the longer match
    longer = Entity("retinoic acid receptor", "HGNC", "9864", "p")
    ann = DictionaryAnnotator(extra_vocab={longer.entry_name: longer})
    assert [a["entry_name"] for a in ann.annotate_text(
        "retinoic acid receptor and retinoic acid")] == [
        "retinoic acid receptor", "retinoic acid"]


def test_million_name_vocabulary_matches_token_oracle():
    """At 10^6 names the mentions equal whole-token membership, as
    ``perfbench.inputs.zipf_oracle`` computes them."""
    names = zipf_names(1_000_000, seed=7)
    ann = DictionaryAnnotator(vocab=zipf_vocab(names))
    chunks = explode_spans(zipf_documents(6, names, s=1.1, seed=7))
    out = ann(chunks)

    got = [[a["entry_name"] for a in anns]
           for anns in out.column("annotations").to_pylist()]
    # zipf_oracle's grounding: whole space-separated tokens, '.' removed
    text = pc.if_else(out.column("admitted"), out.column("text"), "")
    tokens = pc.split_pattern(pc.replace_substring(text, ".", ""), " ")
    parent = pc.list_parent_indices(tokens).to_pylist()
    tok = pc.list_flatten(tokens)
    hit = pc.is_in(tok, value_set=pa.array(names, pa.string())).to_pylist()
    want = [[] for _ in range(out.num_rows)]
    for i, t, h in zip(parent, tok.to_pylist(), hit):
        if h:
            want[i].append(t)
    assert sum(map(len, want)) > 50
    assert got == want
    assert all(
        names[int(a["id"])] == a["entry_name"]
        for anns in out.column("annotations").to_pylist() for a in anns
    )
