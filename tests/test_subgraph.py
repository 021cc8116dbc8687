"""GraphRAG k-hop subgraph retrieval (reference: examples/
bel_graph_rag.ipynb — NDEx get_neighborhood + prompt assembly)."""
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _edges(rows):
    return pd.DataFrame(
        rows, columns=["doc_id", "span_seq", "subj", "pred", "obj"]
    ).astype({"span_seq": "int32"})


# hand graph:  a->b  b->c  c->d  e->a  (plus an isolated x->y)
HAND = _edges(
    [
        ("D1", 0, "a", "r", "b"),
        ("D1", 1, "b", "r", "c"),
        ("D2", 0, "c", "r", "d"),
        ("D2", 1, "e", "r", "a"),
        ("D3", 0, "x", "r", "y"),
    ]
)


def _ds(df):
    import ray.data

    return ray.data.from_arrow(pa.Table.from_pandas(df, preserve_index=False))


def _seed(*nodes):
    import ray.data

    return ray.data.from_pandas(pd.DataFrame({"node": list(nodes)}))


def test_khop_depth1_is_incident_edges():
    from kgray.stages.subgraph import khop_subgraph

    got = khop_subgraph(_ds(HAND), _seed("a"), k=1).to_pandas()
    # depth 1 = edges incident to the seed (undirected): a->b and e->a
    assert set(zip(got.subj, got.obj)) == {("a", "b"), ("e", "a")}
    assert set(got.hop) == {1}


def test_khop_depth2_expands_undirected():
    from kgray.stages.subgraph import khop_subgraph

    got = khop_subgraph(_ds(HAND), _seed("a"), k=2).to_pandas()
    # d(a)=0, d(b)=1, d(e)=1 admit their incident edges; c->d needs d(c)<=1
    assert set(zip(got.subj, got.obj)) == {
        ("a", "b"), ("e", "a"), ("b", "c")
    }
    hop = dict(zip(zip(got.subj, got.obj), got.hop))
    assert hop[("a", "b")] == 1 and hop[("e", "a")] == 1
    assert hop[("b", "c")] == 2


def test_khop_depth3_whole_component():
    from kgray.stages.subgraph import khop_subgraph

    got = khop_subgraph(_ds(HAND), _seed("a"), k=3).to_pandas()
    assert set(zip(got.subj, got.obj)) == {
        ("a", "b"), ("e", "a"), ("b", "c"), ("c", "d")
    }
    # the isolated component never appears at any k
    assert "x" not in set(got.subj)


def test_khop_empty_seed_and_bad_k():
    from kgray.stages.subgraph import khop_subgraph

    got = khop_subgraph(_ds(HAND), _seed("zzz"), k=2).to_pandas()
    assert len(got) == 0
    with pytest.raises(ValueError):
        khop_subgraph(_ds(HAND), _seed("a"), k=0)


def test_evidence_join_and_prompt():
    from kgray.stages.subgraph import (
        assemble_prompt,
        khop_subgraph,
        subgraph_evidence,
    )

    chunks = pd.DataFrame(
        {
            "doc_id": ["D1", "D1", "D2", "D2", "D3"],
            "span_seq": np.array([0, 1, 0, 1, 0], dtype=np.int32),
            "text": ["t10", "t11", "t20", "t21", "t30"],
        }
    )
    sub = khop_subgraph(_ds(HAND), _seed("a"), k=2)
    ev = subgraph_evidence(sub, _ds(chunks)).to_pandas()
    assert set(ev.evidence) == {"t10", "t11", "t21"}
    prompt = assemble_prompt(subgraph_evidence(sub, _ds(chunks)))
    lines = prompt.split("\n")
    assert lines[0].startswith("Knowledge graph statements")
    assert lines[1:] == [
        "a r b : t10",
        "b r c : t11",
        "e r a : t21",
    ]


def test_prompt_guard():
    from kgray.stages.subgraph import (
        assemble_prompt,
        khop_subgraph,
        subgraph_evidence,
    )

    chunks = pd.DataFrame(
        {
            "doc_id": ["D1"],
            "span_seq": np.array([0], dtype=np.int32),
            "text": ["t"],
        }
    )
    ev = subgraph_evidence(
        khop_subgraph(_ds(HAND), _seed("a"), k=1), _ds(chunks)
    )
    with pytest.raises(ValueError, match="prompt would collect"):
        assemble_prompt(ev, max_rows=0)


def test_kg_subgraph_query_on_empty_edge_table(monkeypatch):
    """No edges means no seed entity: the query runs on an empty typed
    seed set and returns zero rows under the subgraph's schema, not a NaN
    seed that fails later inside the string-keyed BFS join."""
    import types

    import ray.data

    import __ray_entry__ as entry
    from kgray import schemas

    empty = types.SimpleNamespace(
        edges=ray.data.from_arrow(schemas.EDGES.empty_table())
    )
    monkeypatch.setattr(entry, "_kg_result", lambda sf_dir: empty)
    out = entry._q_kg_subgraph("unused").materialize()
    assert out.count() == 0
    schema = out.schema()
    assert dict(zip(schema.names, schema.types)) == {
        "doc_id": pa.string(), "span_seq": pa.int32(), "subj": pa.string(),
        "pred": pa.string(), "obj": pa.string(), "hop": pa.int64(),
    }
