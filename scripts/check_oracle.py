"""Driver-style correctness check: run every queries() entry and its
oracle_sql() side by side on a given sf dir; compare row count, column
names, and order-insensitive values.

Usage: PYTHONPATH=/root/repo python scripts/check_oracle.py [sf_dir] [names...]

``connect``, ``canon`` and ``mismatch`` are also imported by
tests/test_driver_queries.py, which runs the same comparison per query.
"""
import os
import sys
import time

import duckdb
import pandas as pd

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

# the tables the remaining oracles read
TABLES = ["documents"]


def to_pandas(obj):
    import pyarrow as pa

    if isinstance(obj, pd.DataFrame):
        return obj
    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    return obj.to_pandas()  # ray Dataset


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def connect(sf_dir: str) -> "duckdb.DuckDBPyConnection":
    """A DuckDB connection with one view per table parquet in ``sf_dir``."""
    con = duckdb.connect()
    for t in TABLES:
        p = os.path.join(sf_dir, f"{t}.parquet")
        if os.path.exists(p):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{p}'")
    return con


def mismatch(mine: pd.DataFrame, theirs: pd.DataFrame):
    """None when two canonical frames agree exactly, else the reason."""
    if len(mine) != len(theirs) or list(mine.columns) != list(theirs.columns):
        return (f"mine={len(mine)}x{list(mine.columns)} "
                f"oracle={len(theirs)}x{list(theirs.columns)}")
    try:
        pd.testing.assert_frame_equal(
            mine, theirs, check_dtype=False, check_exact=True
        )
    except AssertionError as e:
        return f"VALUES DIFFER: {str(e).splitlines()[0:3]}"
    return None


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import ray

    ray.init(address="local", num_cpus=len(os.sched_getaffinity(0)),
             include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    con = connect(sf_dir)

    failures = []
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            mine = canon(to_pandas(fn(sf_dir)))
        except Exception as e:
            print(f"[{name}] QUERY ERROR: {type(e).__name__}: {e}")
            failures.append(name)
            continue
        t1 = time.time()
        if name not in oracles:
            print(f"[{name}] rows-only: {len(mine)} rows "
                  f"cols={list(mine.columns)} ({t1-t0:.1f}s)")
            continue
        try:
            theirs = canon(con.execute(oracles[name]).fetchdf())
        except Exception as e:
            print(f"[{name}] ORACLE ERROR: {type(e).__name__}: {e}")
            failures.append(name)
            continue
        why = mismatch(mine, theirs)
        if why:
            failures.append(name)
            print(f"[{name}] FAIL: {why} ({t1-t0:.1f}s)")
            if mine.shape == theirs.shape and list(mine.columns) == list(
                theirs.columns
            ):
                diff = mine.compare(theirs)
                if not diff.empty:
                    print(diff.head(5))
        else:
            print(f"[{name}] OK rows={len(mine)} ({t1-t0:.1f}s)")
    ray.shutdown()
    print("FAILURES:", failures if failures else "none")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
