"""Node URLs against a plain-Python model of the reference's lookup.

convert_to_cx2.py:77-82 builds a first-wins ``entry_name → url`` map in
encounter order; :159 gives each node the URL of its name, else of its
extracted label.  The corpus below is built so that each rule decides at
least one URL: a name-probe hit, a name whose name URL beats its label
URL, a label-only fallback, an entry whose earliest URL sits in a later
block than a later one, an entry name that no node mentions, and names
whose label routes to another reduce partition than the name itself.
``node_tables`` (through ``run_kg_pipeline``) and ``incremental_update``
must both equal the model, in one block and in four.  A second corpus
holds two doc ids of which one is a prefix of the other.
"""
import numpy as np
import pyarrow as pa
import pytest
import ray.data
from pandas.util import hash_array

from kgray import schemas
from kgray.functions.bel import term_label, term_type
from kgray.pipelines.kg import KGConfig, incremental_update, run_kg_pipeline
from kgray.stages.nodes import node_tables
from kgray.vocab import Entity

VOCAB = {
    "tumor protein p53": Entity("p(HGNC:TP53)", "HGNC", "11998", "p"),
    "AKT serine kinase": Entity("p(HGNC:AKT1)", "HGNC", "391", "p"),
    "AKT1": Entity("AKT1", "UNIPROT", "P31749", "p"),
    "c-Myc": Entity("MYC", "UNIPROT", "P01106", "p"),
    "MYC": Entity("MYC", "HGNC", "7553", "p"),
    "EGFR": Entity("EGFR", "HGNC", "3236", "p"),
}

# doc_id → [(paragraph, its BEL statements)]; listed last document first,
# so the block split puts later positions in earlier blocks
DOCS = {
    "PMC04": [("MYC drives the tumor protein p53 response.",
               ["p(HGNC:MYC) decreases p(HGNC:TP53)"])],
    "PMC03": [("EGFR is named here; tumor protein p53 is stable.",
               ["p(HGNC:TP53)"])],
    "PMC02": [("AKT serine kinase, or AKT1, acts on HSF1.",
               ["p(HGNC:AKT1) increases p(HGNC:HSF1)"]),
              ("Heat shock factor HSF1 is active.", ["p(HGNC:HSF1)"])],
    "PMC01": [("c-Myc rises in the tumor protein p53 pathway.",
               ["p(HGNC:TP53) increases p(HGNC:MYC)"])],
}


# two documents whose ids are a prefix of one another: the reference
# reads "PMC0" before "PMC01", and the two name the same entities in
# opposite orders, with a different URL for MYC
PREFIX_DOCS = {
    "PMC01": [("EGFR signalling raises c-Myc levels.",
               ["p(HGNC:EGFR) increases p(HGNC:MYC)"])],
    "PMC0": [("MYC expression raises EGFR levels.",
              ["p(HGNC:MYC) increases p(HGNC:EGFR)"])],
}


def _documents(doc_ids, docs=DOCS):
    return pa.Table.from_pydict(
        {
            "doc_id": list(doc_ids),
            "spans": [
                [{"kind": "text", "text": text, "media_ref": "",
                  "offset": 0} for text, _ in docs[d]]
                for d in doc_ids
            ],
        },
        schema=schemas.DOCUMENTS,
    )


def _config(docs=DOCS):
    class ScriptedBackend:
        """The scripted statements of each paragraph (defined here so it
        pickles by value to the workers)."""

        def __init__(self, script):
            self.script = script

        def extract_batch(self, texts, annotations):
            return [
                [{"bel_statement": s, "evidence": t}
                 for s in self.script.get(t, [])]
                for t in texts
            ]

    script = {t: stmts for paras in docs.values() for t, stmts in paras}
    return KGConfig(backend=ScriptedBackend(script),
                    annotator_kwargs={"vocab": VOCAB})


def _run(doc_ids, n_blocks, docs=DOCS):
    ds = ray.data.from_arrow(_documents(doc_ids, docs)).repartition(n_blocks)
    return run_kg_pipeline(ds, _config(docs))


def _rows(ds):
    return ds.materialize().take_all()


def model(edges, unary, urls):
    """convert_to_cx2.py:74-166 in plain Python: (nodes in first-seen
    order as (name, label, type, url), the first-wins entry → URL map)."""
    url_of = {}
    for r in sorted(urls, key=lambda r: (r["doc_id"], r["span_seq"],
                                         r["ann_seq"])):
        url_of.setdefault(r["entry_name"], r["url"])
    mentions = sorted(
        [((r["doc_id"], r["span_seq"], r["stmt_seq"], side), r[col])
         for r in edges for side, col in ((0, "subj"), (1, "obj"))]
        + [((r["doc_id"], r["span_seq"], r["stmt_seq"], 0), r["name"])
           for r in unary]
    )
    names = list(dict.fromkeys(name for _, name in mentions))
    nodes = []
    for n in names:
        label = term_label(n)
        nodes.append((n, label, term_type(n),
                      url_of.get(n, url_of.get(label))))
    return nodes, url_of


def _nodes(ds):
    rows = sorted(_rows(ds), key=lambda r: r["node_id"])
    return [(r["name"], r["label"], r["type"], r["url"]) for r in rows], [
        r["node_id"] for r in rows
    ]


def _url_agg(ds):
    rows = _rows(ds)
    out = {r["entry_name"]: r["url"] for r in rows}
    assert len(out) == len(rows)
    return out


def _partition(s, num_partitions=8):
    """The name reduce's partition of routing key ``s``."""
    return int(hash_array(np.asarray([s], dtype=object))[0]) % num_partitions


@pytest.mark.parametrize("n_blocks", [1, 4])
def test_node_tables_follow_the_reference_url_rules(n_blocks):
    res = _run(list(DOCS), n_blocks)
    urls = _rows(res.annotation_urls)
    want_nodes, want_urls = model(
        _rows(res.edges), _rows(res.unary_nodes), urls
    )
    got_nodes, ids = _nodes(res.nodes)
    assert got_nodes == want_nodes
    assert ids == list(range(len(ids)))
    assert _url_agg(res.annotation_url_agg) == want_urls
    # the URL aggregate as input counts once per entry: the same nodes
    again, _ = node_tables(res.edges, res.unary_nodes, res.annotation_url_agg)
    assert _nodes(again) == (got_nodes, ids)

    # every rule decides some URL
    url = {n: u for n, _, _, u in want_nodes}
    assert url["p(HGNC:TP53)"] == want_urls["p(HGNC:TP53)"]  # name probe
    assert url["p(HGNC:AKT1)"] == want_urls["p(HGNC:AKT1)"]  # name beats
    assert want_urls["AKT1"] != url["p(HGNC:AKT1)"]          # its label
    assert url["p(HGNC:MYC)"] == want_urls["MYC"]            # label only
    assert "p(HGNC:MYC)" not in want_urls
    assert url["p(HGNC:HSF1)"] is None                        # neither
    # MYC's first URL is its earliest, read after a later one
    myc = [r for r in urls if r["entry_name"] == "MYC"]
    assert len({r["url"] for r in myc}) == 2
    assert myc[0]["doc_id"] > myc[1]["doc_id"]
    assert want_urls["MYC"] == myc[1]["url"]
    # EGFR is an entry name that no node mentions
    assert "EGFR" in want_urls and "EGFR" not in {
        x for n, label, _, _ in want_nodes for x in (n, label)
    }
    # the name probe must cross partitions for these names
    for name in ("p(HGNC:TP53)", "p(HGNC:AKT1)"):
        assert _partition(name) != _partition(term_label(name)), name


@pytest.mark.parametrize("n_blocks", [1, 2])
def test_prefix_doc_ids_follow_the_reference_order(n_blocks):
    res = _run(list(PREFIX_DOCS), n_blocks, PREFIX_DOCS)
    want_nodes, want_urls = model(
        _rows(res.edges), _rows(res.unary_nodes), _rows(res.annotation_urls)
    )
    assert _nodes(res.nodes) == (want_nodes, [0, 1])
    assert _url_agg(res.annotation_url_agg) == want_urls
    # "PMC0" decides both the order and MYC's URL
    assert [n for n, _, _, _ in want_nodes] == ["p(HGNC:MYC)", "p(HGNC:EGFR)"]
    assert want_urls["MYC"] == "https://identifiers.org/HGNC:7553"


@pytest.mark.parametrize("n_blocks", [1, 4])
def test_incremental_update_follows_the_reference_url_rules(n_blocks):
    # the base graph holds the last two documents; the delta brings AKT1's
    # two URLs, HSF1 without one, and a second URL for MYC
    base = _run(["PMC04", "PMC03"], n_blocks)
    existing = _nodes(base.nodes)
    delta = ray.data.from_arrow(
        _documents(["PMC02", "PMC01"])
    ).repartition(n_blocks)
    merged = incremental_update(base.nodes, delta, _config())

    want_nodes, want_urls = model(
        _rows(merged.edges), _rows(merged.unary_nodes),
        _rows(merged.annotation_urls),
    )
    old = {n for n, _, _, _ in existing[0]}
    fresh = [node for node in want_nodes if node[0] not in old]
    got_nodes, ids = _nodes(merged.nodes)
    assert got_nodes == existing[0] + fresh
    assert ids == list(range(len(ids)))
    assert _url_agg(merged.annotation_url_agg) == want_urls
    assert {n for n, _, _, _ in fresh} == {"p(HGNC:AKT1)", "p(HGNC:HSF1)"}
    # an existing node keeps its URL, whatever the delta maps its label to
    assert dict((n, u) for n, _, _, u in got_nodes)["p(HGNC:MYC)"] == (
        "https://identifiers.org/HGNC:7553"
    )
    assert want_urls["MYC"] == "https://identifiers.org/UNIPROT:P01106"
