"""Unit tests: text analysis, graph assembly, sources and the shared
shuffle kernels."""
import json

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from kgray.stages.graph import build_document_graphs, merge_graphs
from kgray.stages.text_analysis import (
    LangId,
    fingerprint,
    text_quality,
    token_count,
)
from kgray.sources.textfile import (
    clean_paragraph,
    decode_payload,
    raw_text_to_documents,
    split_paragraphs,
)


def _docs_table():
    return pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
            "text": [
                "the cat and the dog",
                "the cat and the dog",   # exact dup of 0
                "ein Hund und eine Katze ist nicht da",
                "completely different words here now",
            ],
        }
    )


def test_token_count_and_quality():
    t = token_count(_docs_table())
    assert t.column("n_tokens").to_pylist() == [5, 5, 8, 5]
    q = text_quality(_docs_table())
    assert q.column("n_words").to_pylist() == [5, 5, 8, 5]
    assert q.column("n_punct").to_pylist() == [0, 0, 0, 0]


def test_lang_id():
    out = LangId()(_docs_table())
    langs = out.column("lang_pred").to_pylist()
    assert langs[0] == "en" and langs[2] == "de"


def test_fingerprint_shift_invariance():
    a = pa.table({"doc_id": pa.array([0], pa.int64()),
                  "text": ["prefix junk " + "shared content block " * 5]})
    b = pa.table({"doc_id": pa.array([1], pa.int64()),
                  "text": ["other start!! " + "shared content block " * 5]})
    fa = fingerprint(a).column("fp_rolling").to_pylist()[0]
    fb = fingerprint(b).column("fp_rolling").to_pylist()[0]
    assert fa == fb  # rolling-min window lands inside the shared run


def test_document_graph_assembly():
    from kgray.corpus import generate_documents
    from kgray.pipelines.kg import run_kg_pipeline

    docs, _, _ = generate_documents(12, seed=9)
    res = run_kg_pipeline(ray.data.from_arrow(docs))
    graphs = build_document_graphs(
        res.edges, res.unary_nodes, res.annotation_urls
    ).to_pandas()
    edges_pd = res.edges.to_pandas()
    assert set(graphs.doc_id) == set(edges_pd.doc_id)
    g = graphs.iloc[0]
    cx = json.loads(g.cx2)
    nodes_aspect = cx[2]["nodes"]
    edges_aspect = cx[3]["edges"]
    assert g.n_nodes == len(nodes_aspect) and g.n_edges == len(edges_aspect)
    # dense per-doc ids 0..n-1; every edge endpoint refers to a real node
    ids = [n["id"] for n in nodes_aspect]
    assert ids == list(range(len(ids)))
    for e in edges_aspect:
        assert e["s"] in ids and e["t"] in ids
        assert e["v"]["bel_expression"]


def test_merge_graphs():
    na = pd.DataFrame(
        {"node_id": [0, 1], "name": ["p(HGNC:A)", "p(HGNC:B)"],
         "label": ["A", "B"], "type": ["p", "p"], "url": [None, None]}
    )
    ea = pd.DataFrame(
        {"subj": ["p(HGNC:A)"], "obj": ["p(HGNC:B)"], "pred": ["increases"]}
    )
    nb = pd.DataFrame(
        {"node_id": [0, 1], "name": ["p(HGNC:B)", "p(HGNC:C)"],
         "label": ["B", "C"], "type": ["p", "p"], "url": [None, None]}
    )
    eb = pd.DataFrame(
        {"subj": ["p(HGNC:B)"], "obj": ["p(HGNC:C)"], "pred": ["decreases"]}
    )
    nodes, edges = merge_graphs(na, ea, nb, eb)
    assert len(nodes) == 3  # B deduped by (name, type)
    assert len(edges) == 2
    b_id = nodes[nodes.name == "p(HGNC:B)"].node_id.iloc[0]
    assert edges.iloc[0].dst_id == b_id and edges.iloc[1].src_id == b_id


def test_textfile_source():
    raw = (
        "Introduction\n\nFirst paragraph\nwith a wrapped line.\n\n"
        "Second paragraph here.\n\nReferences\n\n1. Dropped citation."
    )
    assert clean_paragraph("a\n\nb\nc") == "a b c"
    paras = split_paragraphs(raw)
    assert paras == [
        "First paragraph with a wrapped line.",
        "Second paragraph here.",
    ]
    docs = raw_text_to_documents(
        pa.table({"doc_id": ["F1"], "raw_text": [raw]})
    )
    spans = docs.column("spans").to_pylist()[0]
    assert [s["text"] for s in spans] == paras
    assert spans[0]["offset"] < spans[1]["offset"]
    assert decode_payload(b"hello", "txt") == "hello"
    # PDF decode is REAL (vendored minipdf) since round 3; garbage still
    # errors rather than returning silence
    with pytest.raises(ValueError):
        decode_payload(b"%PDF", "pdf")  # truncated: no parseable objects
    with pytest.raises(ValueError):
        decode_payload(b"x", "docx")


def test_repartition_join_types():
    """inner/left/semi/anti semantics incl. duplicate keys and misses,
    also when a side carries a dictionary-encoded column declared as
    ``pa.string()`` in one of its blocks (``edges.text`` and
    ``edges.evidence`` are such columns).  A left join types its output
    by declaration, also in partitions where no left row matches: right
    numeric columns as float64, strings as strings."""
    import numpy as np
    import pyarrow as pa
    import ray.data
    from kgray.utils import repartition_join

    plain = ray.data.from_arrow(pa.table({
        "k": pa.array([1, 2, 2, 3], pa.int64()),
        "lv": pa.array(["a", "b", "c", "d"], pa.string()),
    }))
    dictionary = ray.data.from_arrow([
        pa.table({"k": pa.array([1, 2], pa.int64()),
                  "lv": pa.array(["a", "b"]).dictionary_encode()}),
        pa.table({"k": pa.array([2, 3], pa.int64()),
                  "lv": pa.array(["c", "d"], pa.string())}),
    ])
    right = ray.data.from_arrow(pa.table({
        "rk": pa.array([2, 2, 4], pa.int64()),
        "rv": pa.array([10, 20, 30], pa.int64()),
        "rs": pa.array(["x", "y", "z"], pa.string()),
    }))
    lt = {"k": pa.int64(), "lv": pa.string()}
    rt = {"rk": pa.int64(), "rv": pa.int64(), "rs": pa.string()}

    for left in (plain, dictionary):
        def join(how):
            return repartition_join(
                left, right, "k", "rk", lt, rt, how=how
            )

        def run(how):
            df = join(how).to_pandas()
            return df.sort_values(list(df.columns)).reset_index(drop=True)

        inner = run("inner")
        assert len(inner) == 4  # two left k=2 rows x two right k=2 rows
        assert set(inner.k) == {2}
        assert sorted(inner.lv) == ["b", "b", "c", "c"]

        semi = run("semi")
        assert sorted(zip(semi.k, semi.lv)) == [(2, "b"), (2, "c")]

        anti = run("anti")
        assert sorted(zip(anti.k, anti.lv)) == [(1, "a"), (3, "d")]

        lj = run("left")
        assert len(lj) == 6  # 1->null, 2x2 matched, 3->null
        assert lj.rv.dtype == np.float64
        assert lj.rv.isna().sum() == 2 and lj.rs.isna().sum() == 2
        assert int(lj.rv.fillna(0).sum()) == 60
        assert sorted(lj.rs.dropna()) == ["x", "x", "y", "y"]
        schema = join("left").schema()
        assert dict(zip(schema.names, schema.types)) == {
            "k": pa.int64(), "lv": pa.string(),
            "rv": pa.float64(), "rs": pa.string(),
        }


def test_token_count_bpe_segmentation():
    """GPT-2-style pre-token counts on known strings (RE2 semantics)."""
    import pyarrow as pa
    from kgray.stages.text_analysis import token_count_bpe

    texts = ["Hello, world!", "it's John's café 42x", "  spaced   out  ", ""]
    out = token_count_bpe(
        pa.table({"doc_id": list(range(4)), "text": texts})
    )
    assert out.column("n_tokens_bpe").to_pylist() == [4, 7, 5, 0]


def test_coarse_grouped_map_edge_cases():
    """Whole groups land in one partition; empties and hot keys are safe."""
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from kgray.utils import coarse_grouped_map

    # hot key: one value dominating — every row must still reach one fn call
    t = pa.table({
        "k": pa.array([7] * 500 + list(range(20)), pa.int64()),
        "v": pa.array(range(520), pa.int64()),
    })
    ds = ray.data.from_arrow(t).repartition(8)

    def summarize(t: pa.Table) -> pa.Table:
        return t.group_by("k").aggregate(
            [([], "count_all"), ("v", "sum")]
        ).rename_columns(["k", "n", "s"])

    out = coarse_grouped_map(ds, "k", summarize).to_pandas()
    assert len(out) == 20  # one row per distinct key: no group was split
    assert out.set_index("k").loc[7, "n"] == 501  # 500 hot + 1 from range

    # string + int composite key
    t2 = pa.table({
        "a": pa.array(["x", "x", "y"], pa.string()),
        "b": pa.array([1, 1, 2], pa.int64()),
        "v": pa.array([1.0, 2.0, 3.0], pa.float64()),
    })
    out2 = coarse_grouped_map(
        ray.data.from_arrow(t2), ["a", "b"],
        lambda t: t.group_by(["a", "b"]).aggregate([("v", "sum")])
        .rename_columns(["a", "b", "s"]),
    ).to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
    assert list(out2.s) == [3.0, 3.0]


def test_coarse_grouped_map_without_rows_returns_fn_typed_empty_table():
    """An exchange whose input has no row still calls ``fn`` once, on a
    zero-row table of the input's columns, so the result is ``fn``'s own
    typed empty table rather than a block without columns."""
    import pyarrow as pa
    import ray.data
    from kgray.utils import coarse_grouped_map

    empty = pa.schema([("k", pa.string()), ("v", pa.int64())]).empty_table()
    for ds in (ray.data.from_arrow(empty),
               ray.data.from_arrow([empty, empty]).materialize()):
        out = coarse_grouped_map(
            ds, "k",
            lambda t: t.group_by("k").aggregate([("v", "sum")]),
        ).materialize()
        assert out.count() == 0
        schema = out.schema()
        assert schema is not None
        assert schema.names == ["k", "v_sum"]
        assert schema.types == [pa.string(), pa.int64()]


def test_coarse_grouped_map_equals_pandas_groupby(monkeypatch):
    """Randomized equivalence: coarse keyed reduce == plain pandas, at
    the default exchange width and at an odd one."""
    import itertools

    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data
    import kgray.utils
    from kgray.utils import coarse_grouped_map, pandas_reducer

    for width, seed in itertools.product((8, 13), (0, 1, 2)):
        monkeypatch.setattr(kgray.utils, "_max_width", lambda w=width: w)
        rng = np.random.RandomState(seed)
        df = pd.DataFrame({
            "k": rng.randint(0, 50, 400),
            "s": rng.choice(list("abc"), 400),
            "v": rng.rand(400),
        })
        ds = ray.data.from_arrow(pa.Table.from_pandas(df)).repartition(7)
        got = coarse_grouped_map(
            ds, ["k", "s"],
            pandas_reducer(lambda g: g.groupby(["k", "s"], as_index=False).agg(
                n=("v", "size"), lo=("v", "min"))),
        ).to_pandas().sort_values(["k", "s"]).reset_index(drop=True)
        want = df.groupby(["k", "s"], as_index=False).agg(
            n=("v", "size"), lo=("v", "min")
        ).sort_values(["k", "s"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got.astype({"n": "int64"}), want.astype({"n": "int64"})
        )


def test_repartition_join_equals_pandas_merge(monkeypatch):
    """Randomized equivalence for all four join types vs pandas, at the
    default exchange width and at an odd one."""
    import itertools

    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data
    import kgray.utils
    from kgray.utils import repartition_join

    for width, seed in itertools.product((8, 13), (3, 4)):
        monkeypatch.setattr(kgray.utils, "_max_width", lambda w=width: w)
        rng = np.random.RandomState(seed)
        l = pd.DataFrame({
            "k": rng.randint(0, 30, 120).astype("int64"),
            "lv": rng.rand(120),
        })
        r = pd.DataFrame({
            "rk": rng.randint(10, 40, 80).astype("int64"),
            "rv": rng.rand(80),
        })
        lds = ray.data.from_arrow(pa.Table.from_pandas(l)).repartition(5)
        rds = ray.data.from_arrow(pa.Table.from_pandas(r)).repartition(3)
        lt = {"k": pa.int64(), "lv": pa.float64()}
        rt = {"rk": pa.int64(), "rv": pa.float64()}

        inner = repartition_join(lds, rds, "k", "rk", lt, rt).to_pandas()
        want_inner = l.merge(r, left_on="k", right_on="rk")
        assert len(inner) == len(want_inner)
        assert abs(inner.rv.sum() - want_inner.rv.sum()) < 1e-9

        semi = repartition_join(lds, rds, "k", "rk", lt, rt,
                                how="semi").to_pandas()
        want_semi = l[l.k.isin(r.rk)]
        assert len(semi) == len(want_semi)

        anti = repartition_join(lds, rds, "k", "rk", lt, rt,
                                how="anti").to_pandas()
        assert len(anti) == len(l) - len(want_semi)

        left = repartition_join(lds, rds, "k", "rk", lt, rt,
                                how="left").to_pandas()
        want_left = l.merge(r, left_on="k", right_on="rk", how="left")
        assert len(left) == len(want_left)
        assert left.rv.isna().sum() == want_left.rv.isna().sum()


def _skewed_sides():
    rng = np.random.RandomState(5)
    # hot key 7 holds 60% of the left fact; right has 0-2 rows per key
    k = np.where(rng.rand(5000) < 0.6, 7, rng.randint(0, 40, 5000))
    left = pd.DataFrame({"k": k.astype(np.int64),
                         "lv": np.arange(5000, dtype=np.int64)})
    rk = np.concatenate([np.arange(0, 30), np.arange(0, 15)])
    right = pd.DataFrame({"rk": rk.astype(np.int64),
                          "rv": np.arange(len(rk), dtype=np.int64) * 10})
    return left, right


def test_post_fn_fusion_equals_join_then_reduce():
    """repartition_join(post_fn=...) must equal the unfused
    join -> coarse keyed reduce plan (every row of a key is in one
    partition when the reduce runs)."""
    from kgray.utils import (
        coarse_grouped_map,
        pandas_reducer,
        repartition_join,
    )

    left, right = _skewed_sides()

    def reduce_fn(df):
        return df.groupby("k", as_index=False).agg(
            s=("lv", "sum"), m=("rv", "max"), n=("lv", "size")
        )

    def mk(post):
        l = ray.data.from_pandas(left).repartition(5)
        r = ray.data.from_pandas(right).repartition(2)
        j = repartition_join(
            l, r, "k", "rk",
            {"k": pa.int64(), "lv": pa.int64()},
            {"rk": pa.int64(), "rv": pa.int64()},
            post_fn=pandas_reducer(reduce_fn) if post else None,
        )
        out = j if post else coarse_grouped_map(
            j, "k", pandas_reducer(reduce_fn)
        )
        out = out.to_pandas()
        return out.sort_values("k").reset_index(drop=True)

    pd.testing.assert_frame_equal(mk(True), mk(False), check_dtype=False)
