"""Round-3 regression tests for the r2 ADVICE findings: smart_join
type validation, knn tie handling across blocks, media content-key
semantics."""
import numpy as np
import pyarrow as pa
import pytest
import ray
import ray.data


def test_smart_join_rejects_bad_how_regardless_of_side_size():
    """An invalid ``how`` must raise up front — previously the broadcast
    path fed it straight into pandas.merge, so whether it errored
    depended on the right side's row count at runtime."""
    from kgray.utils import smart_join

    left = ray.data.from_arrow(
        pa.table({"k": pa.array([1, 2], pa.int64()),
                  "a": pa.array([10, 20], pa.int64())})
    )
    right = ray.data.from_arrow(
        pa.table({"k": pa.array([1], pa.int64()),
                  "b": pa.array([7], pa.int64())})
    )
    for bad in ("right", "cross", "full"):
        with pytest.raises(ValueError):
            smart_join(
                left, right, "k", "k",
                {"k": pa.int64(), "a": pa.int64()},
                {"k": pa.int64(), "b": pa.int64()},
                how=bad,
            )


def test_knn_cosine_keeps_lowest_id_among_block_ties():
    """Duplicate embeddings spread over many blocks: the global top-k
    must rank tied neighbors by ascending vec_id even when a block's
    shortlist would have cut arbitrarily at the tie score."""
    from kgray.stages.similarity import knn_cosine

    dim = 8
    base = np.zeros(dim)
    base[0] = 1.0
    # 40 identical vectors (ids 0..39) + 10 orthogonal distractors
    vecs = [base] * 40 + [np.eye(dim)[1]] * 10
    ids = list(range(50))
    emb = ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "embedding": pa.array(
                    [list(map(float, v)) for v in vecs],
                    pa.list_(pa.float32()),
                ),
            }
        )
    ).repartition(10)  # force ties to span blocks
    out = (
        knn_cosine(emb, np.array([base]), np.array([999]), k=5,
                   exclude_self=False)
        .to_pandas()
        .sort_values("rank")
    )
    assert list(out.neighbor_id) == [0, 1, 2, 3, 4]


def test_mips_topk_keeps_lowest_id_among_block_ties():
    from kgray.stages.similarity import mips_topk

    dim = 4
    v = np.zeros(dim)
    v[0] = 2.0
    vecs = [v] * 30 + [np.eye(dim)[1] * 0.1] * 6
    emb = ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(list(range(36)), pa.int64()),
                "embedding": pa.array(
                    [list(map(float, x)) for x in vecs],
                    pa.list_(pa.float32()),
                ),
            }
        )
    ).repartition(9)
    out = (
        mips_topk(emb, np.array([v]), np.array([777]), k=3,
                  exclude_self=False)
        .to_pandas()
        .sort_values("rank")
    )
    assert list(out.neighbor_id) == [0, 1, 2]
