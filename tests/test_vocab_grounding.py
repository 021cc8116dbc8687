"""Every planted entity and relation rule through the KG path's kernels.

The vocabulary (``kgray.vocab``) is shared by the corpus generator, the
grounder and the stub extractor, so the gold triple set is exact only if
each entity survives every hop: the grounder finds its surface form, its
BEL term carries the right function and label, its identifiers.org URL
uses the right CURIE, and each relation rule's statement splits back into
the subject, relation and object it was built from.  One case per entity
and per rule, so a vocabulary edit that breaks one of them names it.
"""
import pytest

from kgray.functions.bel import (
    annotation_url,
    split_statement,
    term_label,
    term_type,
)
from kgray.stages.annotate import DictionaryAnnotator
from kgray.stages.extract import StubBackend
from kgray.vocab import (
    ENTITIES,
    ENTITY_BY_NAME,
    RELATION_RE,
    RELATION_RULES,
    UNARY_RE,
    bel_term,
    needs_quotes,
    statement_for,
    unary_term,
)

_ANNOTATOR = DictionaryAnnotator()


def _ann(e):
    return {"db": e.db, "id": e.id, "entry_name": e.entry_name}


@pytest.mark.parametrize("e", ENTITIES, ids=[e.entry_name for e in ENTITIES])
def test_entity_survives_grounding_terms_and_urls(e):
    name = e.entry_name
    # grounding: found alone, found at both text edges, never inside a word
    ground = _ANNOTATOR.annotate_text
    assert ground(f"We measured {name} in cells.") == [_ann(e)]
    assert ground(name) == [_ann(e)]
    assert ground(f"{name}, then {name}") == [_ann(e)] * 2
    assert ground(f"x{name}y") == []

    # binary-edge term: function prefix and label come back out
    term = bel_term(e)
    assert term_type(term) == e.fn
    assert term_label(term) == name
    assert split_statement(term) == (term, None, None)

    # unary (pmod) term: one node.  The reference's label regex stops an
    # unquoted value only at a quote or ')', so it swallows ", pmod(Ph"
    # (tests/label_golden.json holds the same shape)
    u = unary_term(e)
    assert split_statement(u) == (u, None, None)
    assert term_type(u) == e.fn
    value = name if needs_quotes(name) else f"{name}, pmod(Ph"
    assert term_label(u) == f"{value}, Ph"

    # identifiers.org: a colon-prefixed id is already a CURIE
    curie = e.id if ":" in e.id else f"{e.db}:{e.id}"
    assert annotation_url(e.db, e.id) == f"https://identifiers.org/{curie}"

    # the stub extractor emits the unary statement only when grounded
    sentence = f"{name} is phosphorylated."
    m = UNARY_RE.search(sentence)
    assert m is not None and m.group(1) == name
    got = StubBackend().extract_batch([sentence], [[_ann(e)]])
    assert got == [[{"bel_statement": u, "evidence": sentence}]]
    assert StubBackend().extract_batch([sentence], [[]]) == [[]]


# a bare-identifier subject and a quoted, two-word object
_SUBJ, _OBJ = ENTITY_BY_NAME["TP53"], ENTITY_BY_NAME["retinoic acid"]


@pytest.mark.parametrize(
    "rule", RELATION_RULES, ids=[r.verb for r in RELATION_RULES]
)
def test_relation_rule_round_trips_through_the_kg_kernels(rule):
    sentence = f"{_SUBJ.entry_name} {rule.verb} {_OBJ.entry_name}."
    m = RELATION_RE.search(sentence)
    assert m is not None
    assert m.groups() == (_SUBJ.entry_name, rule.verb, _OBJ.entry_name)

    anns = _ANNOTATOR.annotate_text(sentence)
    assert anns == [_ann(_SUBJ), _ann(_OBJ)]

    stmt, s, rel, o = statement_for(_SUBJ.entry_name, rule.verb,
                                    _OBJ.entry_name)
    assert rel == rule.relation
    assert s == bel_term(_SUBJ)
    assert o == bel_term(_OBJ, rule.obj_wrap)
    assert split_statement(stmt) == (s, rule.relation, o)
    assert term_type(o) == (rule.obj_wrap or _OBJ.fn)
    assert term_label(o) == _OBJ.entry_name

    got = StubBackend().extract_batch([sentence], [anns])
    assert got == [[{"bel_statement": stmt, "evidence": sentence}]]
    # an ungrounded object suppresses the edge (prompt rules 3/4)
    assert StubBackend().extract_batch([sentence], [anns[:1]]) == [[]]
