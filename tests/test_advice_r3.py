"""Round-3 regression test for an r2 ADVICE finding: join type
validation."""
import pyarrow as pa
import pytest
import ray
import ray.data


def test_repartition_join_rejects_bad_how_before_planning():
    """An invalid ``how`` must raise up front, before any plan is built
    or run — not when a partition's merge first meets it."""
    from kgray.utils import repartition_join

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
            repartition_join(
                left, right, "k", "k",
                {"k": pa.int64(), "a": pa.int64()},
                {"k": pa.int64(), "b": pa.int64()},
                how=bad,
            )
