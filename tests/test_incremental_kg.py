"""Tests for the id-stable incremental KG update."""
import pandas as pd
import pyarrow as pa
import ray
import ray.data


def test_incremental_update_id_stability_and_name_completeness():
    from kgray.corpus import generate_documents
    from kgray.pipelines.kg import incremental_update, run_kg_pipeline

    docs, _, _ = generate_documents(40, seed=11)
    full_ds = ray.data.from_arrow(docs)
    n = docs.num_rows
    half = n // 2
    a_ds = ray.data.from_arrow(docs.slice(0, half))
    b_ds = ray.data.from_arrow(docs.slice(half))

    full = run_kg_pipeline(full_ds)
    base = run_kg_pipeline(a_ds)
    base_nodes = base.nodes.to_pandas()

    merged = incremental_update(base.nodes, b_ds)
    mn = merged.nodes.to_pandas()

    # 1. every existing node keeps its id verbatim
    old = mn.set_index("name").node_id
    for _, r in base_nodes.iterrows():
        assert old[r["name"]] == r.node_id

    # 2. the merged name set equals the full-corpus name set
    assert set(mn.name) == set(full.nodes.to_pandas().name)

    # 3. ids are dense and unique: 0..N-1
    ids = sorted(mn.node_id)
    assert ids == list(range(len(mn)))

    # 4. new shard's edges equal the full pipeline's edges on those docs
    full_edges = full.edges.to_pandas()
    b_ids = set(b_ds.to_pandas().doc_id)
    exp = full_edges[full_edges.doc_id.isin(b_ids)]
    got = merged.edges.to_pandas()
    key = ["doc_id", "span_seq", "subj", "pred", "obj"]
    assert sorted(map(tuple, got[key].values.tolist())) == sorted(
        map(tuple, exp[key].values.tolist())
    )


def test_incremental_update_from_empty_graph():
    from kgray import schemas
    from kgray.corpus import generate_documents
    from kgray.pipelines.kg import incremental_update, run_kg_pipeline

    docs, _, _ = generate_documents(10, seed=3)
    ds = ray.data.from_arrow(docs)
    empty_nodes = ray.data.from_arrow(
        pa.table(
            {
                "name": pa.array([], pa.string()),
                "label": pa.array([], pa.string()),
                "type": pa.array([], pa.string()),
                "url": pa.array([], pa.string()),
                "node_id": pa.array([], pa.int64()),
            }
        )
    )
    cols = ["name", "label", "type", "url", "node_id"]

    def frame(nodes):
        return nodes.to_pandas()[cols].sort_values("node_id").reset_index(
            drop=True
        )

    merged = incremental_update(empty_nodes, ds)
    got = frame(merged.nodes)
    # incremental from an empty graph IS the full build
    pd.testing.assert_frame_equal(got, frame(run_kg_pipeline(ds).nodes))
    # and an empty delta shard leaves the existing nodes as they are
    no_docs = ray.data.from_arrow(docs.slice(0, 0))
    again = incremental_update(merged.nodes, no_docs)
    pd.testing.assert_frame_equal(frame(again.nodes), got)
    # so does a delta of known documents: the anti-join then empties every
    # partition, and its column-less blocks reach the id sort
    known = incremental_update(merged.nodes, ds)
    assert known.nodes.schema().names == schemas.NODES.names
    pd.testing.assert_frame_equal(frame(known.nodes), got)


def test_incremental_projection_blocks_are_exact_when_no_name_is_new():
    """A delta whose names all exist adds a zero-row NODES block; the
    merged nodes keep only blocks with rows, so a projection of them
    (Ray's ``select_columns`` leaves a zero-row block as it is) carries
    exactly the projected columns in every block."""
    from ray.data.block import BlockAccessor

    from kgray.corpus import generate_documents
    from kgray.pipelines.kg import incremental_update, run_kg_pipeline

    docs, _, _ = generate_documents(12, seed=7)
    base = run_kg_pipeline(ray.data.from_arrow(docs))
    # the delta repeats base documents: no name is new
    merged = incremental_update(
        base.nodes, ray.data.from_arrow(docs.slice(0, 3))
    )
    assert merged.nodes.count() == base.nodes.count()
    cols = ["name", "label", "type", "url"]
    projected = merged.nodes.select_columns(cols).materialize()
    schemas_ = [
        BlockAccessor.for_block(ray.get(ref)).schema()
        for bundle in projected.iter_internal_ref_bundles()
        for ref, _ in bundle.blocks
    ]
    assert schemas_
    for schema in schemas_:
        assert schema.names == cols, schema
