"""Mention-detection (grounding) stage.

Reference contract: grounding_genes.py:13-52 — per paragraph, run the Gilda
grounder over the text and keep the top-1 match ``(db, id, entry_name)`` per
detected mention, in order of appearance.  Gilda holds a large in-memory
terms index loaded once per process and looks names up in it; here a dict
index over the planted vocabulary (the offline stand-in; a real Gilda
backend plugs in via the same interface) is built in ``__init__``, once per
worker process per run (``pipelines/kg``'s stage cache), and reused for
every batch that process runs.  A lookup costs the same at 40 names as at
10^6.

Output schema: ANNOTATED_CHUNKS (chunks + annotations list<struct>).
Non-admitted spans get an empty annotation list and pass through untouched.
"""
from __future__ import annotations

import re
from itertools import accumulate, compress
from typing import Dict, List, Optional, Tuple

import pyarrow as pa

from .. import schemas
from ..vocab import ENTITY_BY_NAME

# a text (or name) as maximal runs of word / non-word characters; every
# ``\b`` position is a run boundary
_RUN = re.compile(r"\w+|\W+")
_BOUNDARY = re.compile(r"\b")


class DictionaryAnnotator:
    """Deterministic dictionary grounder with Gilda-shaped output.

    ``vocab`` replaces the default biomedical vocabulary entirely (a dict of
    surface form → Entity); ``extra_vocab`` merges into it.

    Mentions are what ``re.finditer`` would find with the alternation
    ``\\b(name1|name2|…)\\b`` over the names sorted longest first:
    leftmost first, at one start the longest name that ends at a ``\\b``,
    no overlaps.  A match starts at a ``\\b``, so at a run start, and the
    text's run there equals the name's first run.  The index therefore
    keys each name by its first run and holds the candidates longest first;
    the scan looks up each run that starts at a ``\\b`` at or past the last
    match and takes the first candidate that the text continues with and
    that ends at a ``\\b``.  The index is built in ``__init__`` — once per
    worker process and run, never per batch.  Empty names are never matched.
    """

    def __init__(self, extra_vocab: Optional[dict] = None,
                 vocab: Optional[dict] = None,
                 drop_dbs: Optional[set] = None):
        # drop_dbs: optional namespace filter, e.g. {"MESH", "MESHD"} — the
        # reference's eval variants drop MESH groundings
        # (llm_tests/test_pipeline.py:123); the production path keeps them,
        # so the default here is None.  A dropped name still consumes its
        # text, as it would in the alternation.
        self._drop_dbs = set(drop_dbs) if drop_dbs else None
        self._lookup = dict(ENTITY_BY_NAME if vocab is None else vocab)
        if extra_vocab:
            self._lookup.update(extra_vocab)
        # once per worker process: "load the terms index".  Tuples, not
        # lists: most keys hold one name, and a million lists cost twice
        # the build time in garbage-collector passes.
        index: Dict[str, Tuple[str, ...]] = {}
        for name in sorted(self._lookup, key=len, reverse=True):
            first = _RUN.match(name)
            if first:
                key = first.group()
                index[key] = index.get(key, ()) + (name,)
        self._index = index

    def annotate_text(self, text: str) -> List[dict]:
        out = []
        end = 0
        runs = _RUN.findall(text)
        starts = accumulate(map(len, runs), initial=0)
        # the Python loop visits only the runs that are index keys
        keyed = compress(zip(starts, runs), map(self._index.__contains__, runs))
        for p, run in keyed:
            if p < end or not _BOUNDARY.match(text, p):
                continue
            for name in self._index[run]:
                q = p + len(name)
                if text.startswith(name, p) and _BOUNDARY.match(text, q):
                    end = q
                    e = self._lookup[name]
                    if not (self._drop_dbs and e.db in self._drop_dbs):
                        out.append({"db": e.db, "id": e.id,
                                    "entry_name": e.entry_name})
                    break
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        admitted = batch.column("admitted").to_pylist()
        anns = [
            self.annotate_text(t) if ok else []
            for t, ok in zip(texts, admitted)
        ]
        out = batch.append_column(
            "annotations", pa.array(anns, pa.list_(schemas.ANNOTATION_STRUCT))
        )
        return schemas.validate_schema(
            out, schemas.ANNOTATED_CHUNKS, "annotate"
        )
