"""A keyed exchange survives a worker killed inside a reduce task: Ray
retries the task on another worker from the map outputs still in the
object store, and the result equals the unkilled run."""
import os

import pandas as pd
import pyarrow as pa
import ray.data

from kgray.corpus import generate_documents
from kgray.pipelines.kg import run_kg_pipeline
from kgray.testing import KillOnceReduce
from kgray.utils import coarse_grouped_map, pandas_reducer


def _sorted(ds, keys):
    return ds.to_pandas().sort_values(keys).reset_index(drop=True)


def test_coarse_grouped_map_survives_reduce_kill(tmp_path):
    # defined here: a test module is not importable on workers, so the
    # function pickles by value
    def _summarize(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("k", as_index=False).agg(
            n=("v", "size"), s=("v", "sum")
        )

    t = pa.table({
        "k": pa.array([i % 37 for i in range(600)], pa.int64()),
        "v": pa.array(range(600), pa.int64()),
    })
    ds = ray.data.from_arrow(t).repartition(6).materialize()
    flag = str(tmp_path / "killed.flag")

    reduce = pandas_reducer(_summarize)
    want = _sorted(coarse_grouped_map(ds, "k", reduce), ["k"])
    got = _sorted(
        coarse_grouped_map(ds, "k", KillOnceReduce(flag, reduce)),
        ["k"],
    )
    assert os.path.exists(flag)  # the kill fired
    pd.testing.assert_frame_equal(got, want)
    assert len(want) == 37


def test_node_tables_survive_reduce_kill(tmp_path, monkeypatch):
    import kgray.stages.nodes as nodes

    docs, _, _ = generate_documents(24, seed=5)
    res = run_kg_pipeline(ray.data.from_arrow(docs).repartition(3))
    want_nodes = _sorted(res.nodes, ["node_id"])
    want_urls = _sorted(res.annotation_url_agg, ["entry_name"])

    flag = str(tmp_path / "killed.flag")
    monkeypatch.setattr(
        nodes, "_canonicalize", KillOnceReduce(flag, nodes._canonicalize)
    )
    got_nodes, got_urls = nodes.node_tables(
        res.edges, res.unary_nodes, res.annotation_urls
    )
    assert os.path.exists(flag)  # the kill fired
    pd.testing.assert_frame_equal(_sorted(got_nodes, ["node_id"]), want_nodes)
    pd.testing.assert_frame_equal(
        _sorted(got_urls, ["entry_name"]), want_urls
    )
    assert len(want_nodes) > 0
