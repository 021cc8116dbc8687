"""Statement-level matching harness (the reference's system-vs-system eval).

Re-expression of evaluation_tests_and_analysis/indra_vs_texttoKG_tests/
bel_parser.py semantics:

- INDRA-format normalization ``HGNC:391 ! AKT1 → HGNC:AKT1``
  (bel_parser.py:157-161)
- modification normalization GO-id / free text → Ph/Ac/Me/Ub/Sumo
  (bel_parser.py:125-151, 163-172)
- component parsing: complex members, act() wrapping, pmod extraction
  (bel_parser.py:174-278)
- pairwise score: comparable iff both relational AND subject/object entity
  sets intersect; +0.30 same relation (+0.20 same group), +0.25 per side
  for exact/both-absent modification (+0.10 partial) (bel_parser.py:337-421)
- set matching: optimal assignment when scipy is available, else greedy
  best-first (bel_parser.py:423-569); threshold 0.5 → core match,
  ≥ 0.9 → exact match.

The distributed wrapper runs the per-document matching inside
``groupby(doc_id).map_groups`` — each document's statement sets are small,
the corpus-wide sweep is what parallelizes.
"""
from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

RELATIONSHIPS = sorted(
    [
        "directlyIncreases", "directlyDecreases", "increases", "decreases",
        "causesNoChange", "cnc", "association", "isA", "partOf",
        "hasComponent", "positiveCorrelation", "pos",
        "negativeCorrelation", "neg", "regulates", "reg",
    ],
    key=len,
    reverse=True,
)

RELATIONSHIP_GROUPS = {
    "positive": {"increases", "directlyIncreases", "pos", "positiveCorrelation"},
    "negative": {"decreases", "directlyDecreases", "neg", "negativeCorrelation"},
    "structural": {"partOf", "hasComponent", "isA"},
    "regulatory": {"regulates", "reg"},
    "neutral": {"association", "causesNoChange", "cnc"},
}

_MOD_RULES: List[Tuple[re.Pattern, str]] = [
    (re.compile(p, re.IGNORECASE), r)
    for p, r in [
        (r'go:0006468 ! "[^"]+"', "Ph"),
        (r'go:0006473 ! "[^"]+"', "Ac"),
        (r'go:0006479 ! "[^"]+"', "Me"),
        (r'go:0016567 ! "[^"]+"', "Ub"),
        (r'go:0016925 ! "[^"]+"', "Sumo"),
        (r"go:0006468", "Ph"),
        (r"go:0006473", "Ac"),
        (r"go:0006479", "Me"),
        (r"go:0016567", "Ub"),
        (r"go:0016925", "Sumo"),
        (r"phosphorylation", "Ph"),
        (r"acetylation", "Ac"),
        (r"methylation", "Me"),
        (r"ubiquitination", "Ub"),
        (r"ubiquitylation", "Ub"),
        (r"sumoylation", "Sumo"),
        (r"\bPh\b", "Ph"),
        (r"\bAc\b", "Ac"),
        (r"\bMe\b", "Me"),
        (r"\bUb\b", "Ub"),
        (r"\bSumo\b", "Sumo"),
    ]
]

_INDRA_FMT = re.compile(r"\b([A-Z][A-Z0-9]*):[\w\d]+ ! ([\w\d]+)")
_QUOTED_MOD = re.compile(r'["\']([A-Z][a-z]+)["\']')
_NS_ID = re.compile(r'\b([A-Z][A-Z0-9]+):([A-Za-z0-9_\-]+|"[^"]+")')
_PMOD = re.compile(r"pmod\(([^,\)]+)(?:,\s*([A-Za-z]{3})(?:,\s*(\d+))?)?\)")
_MA = re.compile(r"ma\(([^)]+)\)")
_ACT_PROTEIN = re.compile(r"act\((p\([^)]+\))")
_COMPLEX_MEMBER = re.compile(r"p\([^)]+\)")


def normalize_indra(text: str) -> str:
    return _INDRA_FMT.sub(r"\1:\2", text)


def normalize_mods(text: str) -> str:
    for pat, rep in _MOD_RULES:
        text = pat.sub(rep, text)
    return _QUOTED_MOD.sub(r"\1", text)


def _entity_key(text: str) -> str:
    """core id: 'NS:identifier' when present, else the raw text."""
    m = _NS_ID.search(text)
    if m:
        return f"{m.group(1)}:{m.group(2).strip(chr(34))}"
    return text.strip()


def _parse_mod(text: str) -> Optional[Tuple[str, Optional[str], Optional[int]]]:
    m = _PMOD.search(text)
    if not m:
        return None
    mod_type = normalize_mods(m.group(1).strip())
    residue = m.group(2) or None
    pos = int(m.group(3)) if m.group(3) else None
    return (mod_type, residue, pos)


def parse_component(text: str) -> Dict:
    text = text.strip()
    norm = normalize_mods(normalize_indra(text))
    if norm.startswith("complex("):
        members = [_entity_key(m) for m in _COMPLEX_MEMBER.findall(norm)]
        return {
            "entities": set(members) if members else {norm},
            "has_activity": False,
            "modification": None,
            "is_complex": True,
        }
    has_act = norm.startswith("act(")
    inner = norm
    if has_act:
        pm = _ACT_PROTEIN.search(norm)
        if pm:
            inner = pm.group(1)
    return {
        "entities": {_entity_key(inner)},
        "has_activity": has_act,
        "modification": _parse_mod(inner),
        "is_complex": False,
    }


def parse_statement(statement: str) -> Dict:
    norm = normalize_mods(normalize_indra(statement.strip()))
    for rel in RELATIONSHIPS:
        m = re.search(r"\b" + re.escape(rel) + r"\b", norm)
        if m:
            return {
                "subject": parse_component(norm[: m.start()]),
                "relationship": rel,
                "object": parse_component(norm[m.end():]),
                "raw": statement,
            }
    return {
        "subject": parse_component(norm),
        "relationship": None,
        "object": None,
        "raw": statement,
    }


def _rel_group(rel: str) -> Optional[str]:
    for g, rels in RELATIONSHIP_GROUPS.items():
        if rel in rels:
            return g
    return None


def _mod_score(a, b) -> float:
    if a and b:
        if a[0] == b[0]:
            return 0.25 if (a[1] == b[1] and a[2] == b[2]) else 0.10
        return 0.0
    if a is None and b is None:
        return 0.25
    return 0.0


def match_score(s1: Dict, s2: Dict) -> Tuple[float, Dict]:
    details = {"comparable": False}
    if s1["relationship"] is None or s2["relationship"] is None:
        return 0.0, details
    if s1["object"] is None or s2["object"] is None:
        return 0.0, details
    if not (s1["subject"]["entities"] & s2["subject"]["entities"]):
        return 0.0, details
    if not (s1["object"]["entities"] & s2["object"]["entities"]):
        return 0.0, details
    details["comparable"] = True
    score = 0.0
    if s1["relationship"] == s2["relationship"]:
        score += 0.30
        details["relationship_match"] = True
    else:
        g1, g2 = _rel_group(s1["relationship"]), _rel_group(s2["relationship"])
        if g1 == g2 and g1 is not None:
            score += 0.20
            details["relationship_compatible"] = True
    score += _mod_score(
        s1["subject"]["modification"], s2["subject"]["modification"]
    )
    score += _mod_score(
        s1["object"]["modification"], s2["object"]["modification"]
    )
    details["activity_match"] = (
        s1["subject"]["has_activity"] == s2["subject"]["has_activity"]
    )
    return score, details


def match_statement_sets(
    left: List[str], right: List[str], threshold: float = 0.5
) -> List[Dict]:
    """One-to-one matching of two statement lists.

    Optimal (Hungarian) assignment when scipy is installed; greedy
    highest-score-first otherwise — both mirror the reference's two paths.
    Output rows: {left, right, match_type, score} with match_type one of
    exact_match (score ≥ 0.9) / core_match / left_only / right_only.
    """
    if not left or not right:
        return (
            [{"left": s, "right": None, "match_type": "left_only",
              "score": 0.0} for s in left]
            + [{"left": None, "right": s, "match_type": "right_only",
                "score": 0.0} for s in right]
        )
    lp = [parse_statement(s) for s in left]
    rp = [parse_statement(s) for s in right]
    scores = {}
    for i in range(len(left)):
        for j in range(len(right)):
            sc, det = match_score(lp[i], rp[j])
            if sc >= threshold and det.get("comparable"):
                scores[(i, j)] = sc

    pairs: List[Tuple[int, int, float]] = []
    try:  # pragma: no cover - scipy absent in this sandbox
        import numpy as np
        from scipy.optimize import linear_sum_assignment

        size = max(len(left), len(right))
        cost = np.zeros((size, size))
        for (i, j), sc in scores.items():
            cost[i, j] = -sc
        ri, ci = linear_sum_assignment(cost)
        for i, j in zip(ri, ci):
            if (i, j) in scores:
                pairs.append((i, j, scores[(i, j)]))
    except ImportError:
        taken_l, taken_r = set(), set()
        for (i, j), sc in sorted(
            scores.items(), key=lambda kv: (-kv[1], kv[0])
        ):
            if i not in taken_l and j not in taken_r:
                taken_l.add(i)
                taken_r.add(j)
                pairs.append((i, j, sc))

    out = []
    ml, mr = set(), set()
    for i, j, sc in pairs:
        out.append(
            {
                "left": left[i],
                "right": right[j],
                "match_type": "exact_match" if sc >= 0.9 else "core_match",
                "score": sc,
            }
        )
        ml.add(i)
        mr.add(j)
    out += [
        {"left": left[i], "right": None, "match_type": "left_only",
         "score": 0.0}
        for i in range(len(left)) if i not in ml
    ]
    out += [
        {"left": None, "right": right[j], "match_type": "right_only",
         "score": 0.0}
        for j in range(len(right)) if j not in mr
    ]
    return out


def match_edge_datasets(edges_left, edges_right, threshold: float = 0.5):
    """Distributed per-document matching of two edge tables.

    Both inputs: datasets with (doc_id, bel_expression).  Returns one row
    per document: doc_id, n_left, n_right, exact, core, left_only,
    right_only, precision ((exact+core)/n_left — the reference's corpus
    metric, analyze_comparison_results.py).
    """
    import pyarrow as pa

    from ..utils import KIND, coarse_grouped_map, tag

    types = {"doc_id": pa.string(), "bel_expression": pa.string()}
    parts = [tag(edges_left, 0, types), tag(edges_right, 1, types)]
    counts = ("n_left", "n_right", "exact", "core", "left_only",
              "right_only")
    schema = pa.schema([("doc_id", pa.string())]
                       + [(c, pa.int64()) for c in counts]
                       + [("precision", pa.float64())])

    def per_partition(t: pa.Table) -> pa.Table:
        # coarse partition holds many whole documents; the per-doc matcher
        # runs in a plain loop inside ONE Ray task (per-doc map_groups
        # would pay Ray's per-group reduce machinery per document)
        docs = {}
        for doc, kind, bel in zip(*(t[c].to_pylist() for c in
                                    ("doc_id", KIND, "bel_expression"))):
            docs.setdefault(doc, ([], []))[kind].append(bel)
        out = {c: [] for c in schema.names}
        for doc, (left, right) in docs.items():
            rows = match_statement_sets(left, right, threshold)
            exact = sum(1 for r in rows if r["match_type"] == "exact_match")
            core = sum(1 for r in rows if r["match_type"] == "core_match")
            lo = sum(1 for r in rows if r["match_type"] == "left_only")
            ro = sum(1 for r in rows if r["match_type"] == "right_only")
            n_l = len(left)
            out["doc_id"].append(doc)
            out["n_left"].append(n_l)
            out["n_right"].append(len(right))
            out["exact"].append(exact)
            out["core"].append(core)
            out["left_only"].append(lo)
            out["right_only"].append(ro)
            out["precision"].append((exact + core) / n_l if n_l else 1.0)
        return pa.table(out, schema=schema)

    return coarse_grouped_map(parts, "doc_id", per_partition)
