"""Planted vocabulary + relation rules shared by the corpus generator, the
deterministic annotator, and the deterministic (stub) BEL extractor.

Shapes mirror the reference's data: annotation records (db, id, entry_name)
as in results/PMC5283843/PMC5283843_annotated_paragraphs.json (e.g.
``{"db": "EFO", "id": "0003843", "entry_name": "pain"}`` and colon-prefixed
ids like ``HP:6000040``), and BEL statements covering the grammar handled by
transform_bel_statements.py:1-76 (binary, unary, quoted namespaces, nested
complex(), pmod()).

Because generator, annotator and extractor share these tables, the gold
triple set is known by construction and identical across runs and cluster
sizes (the determinism the scaling/parity harness requires).
"""
from __future__ import annotations

import re
from typing import Dict, List, NamedTuple, Optional, Tuple


class Entity(NamedTuple):
    entry_name: str  # surface form planted in text & returned by the annotator
    db: str
    id: str          # may already be colon-prefixed (HP:..., CHEBI:...)
    fn: str          # BEL function wrapping this entity: p / a / bp / path / g


# ~40 entities across the namespaces the reference emits.  The first few HGNC
# proteins are "hot" (used far more often) to exercise skew handling.
ENTITIES: List[Entity] = [
    Entity("TP53", "HGNC", "11998", "p"),
    Entity("AKT1", "HGNC", "391", "p"),
    Entity("MTOR", "HGNC", "3942", "p"),
    Entity("EGFR", "HGNC", "3236", "p"),
    Entity("MYC", "HGNC", "7553", "p"),
    Entity("HSF1", "HGNC", "5224", "p"),
    Entity("FOS", "HGNC", "3796", "p"),
    Entity("JUN", "HGNC", "6204", "p"),
    Entity("MAPK1", "HGNC", "6871", "p"),
    Entity("STAT3", "HGNC", "11364", "p"),
    Entity("NFKB1", "HGNC", "7794", "p"),
    Entity("VEGFA", "HGNC", "12680", "p"),
    Entity("TNF", "HGNC", "11892", "p"),
    Entity("IL6", "HGNC", "6018", "p"),
    Entity("CASP3", "HGNC", "1504", "p"),
    Entity("BCL2", "HGNC", "990", "p"),
    Entity("PTEN", "HGNC", "9588", "p"),
    Entity("KRAS", "HGNC", "6407", "p"),
    Entity("BRAF", "HGNC", "1097", "p"),
    Entity("CDK4", "HGNC", "1773", "p"),
    Entity("rapamycin", "CHEBI", "CHEBI:9168", "a"),
    Entity("doxorubicin", "CHEBI", "CHEBI:28748", "a"),
    Entity("cisplatin", "CHEBI", "CHEBI:27899", "a"),
    Entity("retinoic acid", "CHEBI", "CHEBI:15367", "a"),
    Entity("hydrogen peroxide", "CHEBI", "CHEBI:16240", "a"),
    Entity("calcium ion", "CHEBI", "CHEBI:29108", "a"),
    Entity("apoptotic process", "GO", "0006915", "bp"),
    Entity("cell cycle arrest", "GO", "0007050", "bp"),
    Entity("angiogenesis", "GO", "0001525", "bp"),
    Entity("autophagy", "GO", "0006914", "bp"),
    Entity("inflammatory response", "GO", "0006954", "bp"),
    Entity("DNA repair", "GO", "0006281", "bp"),
    Entity("neuropathic pain", "HP", "HP:0012698", "bp"),
    Entity("breast carcinoma", "MESH", "D001943", "path"),
    Entity("lung neoplasm", "MESH", "D008175", "path"),
    Entity("melanoma", "DOID", "1909", "path"),
    Entity("diabetes mellitus", "EFO", "0000400", "path"),
    Entity("insulin", "UP", "P01308", "p"),
    Entity("albumin", "UP", "P02768", "p"),
    Entity("AMPK", "FPLX", "AMPK", "p"),
]

ENTITY_BY_NAME: Dict[str, Entity] = {e.entry_name: e for e in ENTITIES}

# Hot-entity weighting: index i drawn with weight ~ 1/(i+1) (zipf-ish); the
# generator uses this to make TP53/AKT1 appear in a large fraction of docs.
HOT_WEIGHTS: List[float] = [1.0 / (i + 1) for i in range(len(ENTITIES))]


class RelationRule(NamedTuple):
    verb: str            # surface verb phrase planted between two entity names
    relation: str        # BEL relation emitted
    obj_wrap: Optional[str]  # extra BEL function wrapped around the object term


RELATION_RULES: List[RelationRule] = [
    RelationRule("activates", "increases", "act"),
    RelationRule("inhibits", "decreases", "act"),
    RelationRule("upregulates", "increases", None),
    RelationRule("downregulates", "decreases", None),
    RelationRule("directly increases", "directlyIncreases", None),
    RelationRule("directly decreases", "directlyDecreases", None),
    RelationRule("associates with", "association", None),
    RelationRule("correlates positively with", "positiveCorrelation", None),
    RelationRule("correlates negatively with", "negativeCorrelation", None),
    RelationRule("regulates", "regulates", None),
    RelationRule("degrades", "increases", "deg"),
    RelationRule("binds", "association", None),
]

# Unary rule: "<A> is phosphorylated." → p(NS:A, pmod(Ph)) — a statement with
# no top-level space after split?  No: pmod contains spaces inside parens, so
# split_statement sees depth>0 at those spaces → unary.  Registered as a
# node-only record (convert_to_cx2.py:92-101), never an edge.
UNARY_VERB = "is phosphorylated"


def needs_quotes(value: str) -> bool:
    return not re.fullmatch(r"[A-Za-z0-9_]+", value or "")


def bel_value(e: Entity) -> str:
    """Namespace value as it appears inside the BEL term (quoted if needed)."""
    v = e.entry_name
    return f'"{v}"' if needs_quotes(v) else v


def bel_term(e: Entity, wrap: Optional[str] = None) -> str:
    base = f"{e.fn}({e.db}:{bel_value(e)})"
    return f"{wrap}({base})" if wrap else base


def unary_term(e: Entity) -> str:
    return f"{e.fn}({e.db}:{bel_value(e)}, pmod(Ph))"


def _alternation(names: List[str]) -> str:
    return "|".join(re.escape(n) for n in sorted(names, key=len, reverse=True))


# Relation detector: "<entity> <verb> <entity>" within one sentence.
_VERB_ALT = "|".join(
    re.escape(r.verb) for r in sorted(RELATION_RULES, key=lambda r: len(r.verb), reverse=True)
)
RELATION_RE = re.compile(
    rf"\b({_alternation([e.entry_name for e in ENTITIES])})\s+({_VERB_ALT})\s+"
    rf"({_alternation([e.entry_name for e in ENTITIES])})\b"
)
UNARY_RE = re.compile(
    rf"\b({_alternation([e.entry_name for e in ENTITIES])})\s+{UNARY_VERB}\b"
)

RULE_BY_VERB: Dict[str, RelationRule] = {r.verb: r for r in RELATION_RULES}


def statement_for(subj: str, verb: str, obj: str) -> Tuple[str, str, str, str]:
    """(bel_statement, subj_term, relation, obj_term) for a planted match."""
    rule = RULE_BY_VERB[verb]
    s = bel_term(ENTITY_BY_NAME[subj])
    o = bel_term(ENTITY_BY_NAME[obj], rule.obj_wrap)
    return f"{s} {rule.relation} {o}", s, rule.relation, o
