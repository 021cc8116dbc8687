"""Round-3 regression test for an r2 ADVICE finding: smart_join type
validation."""
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
