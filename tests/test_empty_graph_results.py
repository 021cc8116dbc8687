"""Degenerate input: graph results stay typed when there is no edge.

A corpus in which no span is admitted (every text span is under 20
characters, pub.py:51-58) yields no annotation and no edge.  Every KG
driver query on it must equal its DuckDB oracle, with the oracle's columns
in its schema; the queries that pick a seed entity run on an empty seed
set.  Below the driver, every graph algorithm given an empty edge table
must return zero rows under a typed schema.
"""
import importlib.util
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from kgray.stages import graph_algos
from kgray.stages.graph import consolidate_edges
from kgray.stages.subgraph import PROMPT_HEADER, khop_subgraph

_spec = importlib.util.spec_from_file_location(
    "check_oracle",
    Path(__file__).resolve().parent.parent / "scripts" / "check_oracle.py",
)
check_oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_oracle)  # puts the repo root on sys.path

import __ray_entry__ as entry  # noqa: E402

S, I, F = pa.string(), pa.int64(), pa.float64()


def _empty(**cols):
    return ray.data.from_arrow(
        pa.schema(list(cols.items())).empty_table()
    )


def _edges():
    return _empty(src=S, dst=S)


def _seeds():
    return ray.data.from_arrow(pa.table({"node": ["spark"]}))


# name → (call on empty input, the typed schema the result must carry)
ALGOS = {
    "pagerank": (lambda: graph_algos.pagerank(_edges()),
                 {"node": S, "pr": F}),
    "hits": (lambda: graph_algos.hits(_edges()),
             {"node": S, "authority": F, "hub": F}),
    "degree_stats": (lambda: graph_algos.degree_stats(_edges()),
                     {"node": S, "out_deg": I, "in_deg": I}),
    "local_clustering": (
        lambda: graph_algos.local_clustering(_edges()),
        {"node": S, "degree": I, "n_triangles": I, "clustering": F},
    ),
    "neighbor_jaccard": (lambda: graph_algos.neighbor_jaccard(_edges()),
                         {"node_a": S, "node_b": S, "jaccard": F}),
    "two_hop_counts": (lambda: graph_algos.two_hop_counts(_edges()),
                       {"node": S, "n_two_hop": I}),
    "harmonic_closeness": (
        lambda: graph_algos.harmonic_closeness(_edges()),
        {"node": S, "n_sources": I, "closeness": F},
    ),
    "bfs_distances": (
        lambda: graph_algos.bfs_distances(_edges(), _empty(node=S)),
        {"node": S, "dist": I},
    ),
    "multi_source_bfs": (
        lambda: graph_algos.multi_source_bfs(
            _edges(), _empty(s=S, node=S)
        ),
        {"s": S, "node": S, "dist": I},
    ),
    "comention_graph": (
        lambda: graph_algos.comention_graph(_empty(doc_id=S, src=S, dst=S)),
        {"entity_a": S, "entity_b": S, "n_docs": I},
    ),
    "consolidate_edges": (
        lambda: consolidate_edges(_empty(doc_id=S, subj=S, pred=S, obj=S)),
        {"subj": S, "pred": S, "obj": S, "n_evidence": I, "n_docs": I,
         "first_doc": S},
    ),
    "khop_subgraph": (
        lambda: khop_subgraph(
            _empty(doc_id=S, span_seq=pa.int32(), subj=S, pred=S, obj=S),
            _seeds(),
        ),
        None,  # its columns are checked by tests/test_subgraph.py
    ),
}


@pytest.mark.parametrize("name", list(ALGOS))
def test_graph_algorithm_on_empty_edge_table_is_typed(name):
    run, want = ALGOS[name]
    ds = run().materialize()
    assert ds.count() == 0, name
    schema = ds.schema()
    assert schema is not None and schema.names, name
    if want is not None:
        assert dict(zip(schema.names, schema.types)) == want, name


# every text span is under the 20-character admission bound, and the
# first two name vocabulary terms that would co-occur if admitted
NON_ADMITTED_TEXTS = ["spark join", "row hash sort", "", "a"]

KG_QUERIES = [
    q for q in entry.queries()
    if (q.startswith("kg_") or q == "chunk_spans") and q in entry.oracle_sql()
]


@pytest.fixture(scope="module")
def non_admitted_sf(tmp_path_factory):
    d = tmp_path_factory.mktemp("non_admitted_sf")
    n = len(NON_ADMITTED_TEXTS)
    pq.write_table(
        pa.table({
            "doc_id": pa.array(range(n), pa.int64()),
            "text": NON_ADMITTED_TEXTS,
            "lang": ["en"] * n,
            "source": ["src0"] * n,
            "n_chars": pa.array([len(t) for t in NON_ADMITTED_TEXTS],
                                pa.int64()),
        }),
        d / "documents.parquet",
    )
    con = check_oracle.connect(str(d))
    yield str(d), con
    con.close()


def test_kg_query_list_covers_the_seeded_queries():
    assert {"kg_subgraph", "kg_subgraph_prompt", "kg_bfs"} <= set(KG_QUERIES)
    assert {"kg_edges", "kg_nodes", "chunk_spans"} <= set(KG_QUERIES)


@pytest.mark.parametrize("name", KG_QUERIES)
def test_kg_query_on_all_non_admitted_corpus(name, non_admitted_sf):
    sf_dir, con = non_admitted_sf
    oracle = con.execute(entry.oracle_sql()[name]).fetchdf()
    out = entry.queries()[name](sf_dir)
    if isinstance(out, ray.data.Dataset):
        # to_pandas() drops every column of an all-empty dataset, so the
        # columns come from the schema
        out = out.materialize()
        schema = out.schema()
        assert schema is not None, name
        cols = set(schema.names)
        mine = check_oracle.canon(check_oracle.to_pandas(out))
    else:
        cols, mine = set(out.columns), check_oracle.canon(out)
    assert set(oracle.columns) == cols, (name, sorted(cols))
    if len(mine) or len(oracle):
        why = check_oracle.mismatch(mine, check_oracle.canon(oracle))
        assert why is None, (name, why)
    # nothing is admitted, so nothing is annotated or extracted
    if name == "chunk_spans":
        assert len(mine) == len(NON_ADMITTED_TEXTS)
        assert not mine.admitted.any()
    elif name == "kg_subgraph_prompt":  # the header, and no statement
        assert list(mine.prompt) == [PROMPT_HEADER]
    else:
        assert len(mine) == 0, name
