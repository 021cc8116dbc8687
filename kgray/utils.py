"""Small Ray helpers the Dataset API cannot express directly."""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data


@ray.remote
def _append_index(block, col: str, offset: int) -> pa.Table:
    from ray.data.block import BlockAccessor

    t = BlockAccessor.for_block(block).to_arrow()
    return t.append_column(
        col, pa.array(np.arange(offset, offset + t.num_rows), pa.int64())
    )


def zip_with_index(
    ds: "ray.data.Dataset", col: str, offset: int = 0
) -> "ray.data.Dataset":
    """Append a dense global row index in current block order.

    Ray Data has no zipWithIndex.  The input runs ONCE (``materialize``:
    ``to_arrow_refs`` on a lazy plan streams it and then re-executes it
    for the schema); block row counts come from the block metadata, and
    one remote task per block appends ``offset + arange``.  Blocks never
    move to the driver — intended for SMALL sorted outputs (e.g. the
    nodes table after canonicalization), not the main corpus.  Zero-row
    blocks are dropped: Ray's sort emits them without columns, and the
    index column alone would make an untyped block.
    """
    out = []
    for ref, rows in _block_rows(ds):
        if rows:
            out.append(_append_index.remote(ref, col, offset))
            offset += rows
    return ray.data.from_arrow_refs(out)


def nonempty_blocks(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """``ds`` run once, without its zero-row blocks.

    A map over a zero-row block never calls its function, and Ray emits
    a block without columns in its place; a dataset read by several maps
    (a materialized fan-out point) keeps every output block typed this
    way.
    """
    return ray.data.from_arrow_refs(
        [ref for ref, rows in _block_rows(ds) if rows]
    )


def _block_rows(ds: "ray.data.Dataset"):
    """(block ref, row count) of every block of ``ds``, run once."""
    for bundle in ds.materialize().iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            yield ref, meta.num_rows


def _session_token():
    """Identity of the CURRENT Ray session: (gcs_address, job_id).  The
    address alone is not enough — after ray.shutdown()/re-init in one
    process the OS can hand the new GCS the same port, and a dataset
    cached under that address would point at object-store blocks that
    died with the old session."""
    try:
        ctx = ray.get_runtime_context()
        return (ctx.gcs_address, ctx.get_job_id())
    except Exception:
        return None


def session_memo(cache: dict, key, builder, probe=None):
    """Per-Ray-session memoization with stale-session eviction.

    ``cache`` is a module-level dict owned by the caller.  When the Ray
    session changes (``_session_token``), every entry is dropped — dead
    sessions must not leak entries forever.  A hit is additionally
    PROBED (default: ``hit.take(1)``) so a dataset whose blocks are gone
    invalidates and rebuilds instead of erroring downstream; pass
    ``probe`` for non-Dataset cached values.
    """
    token = _session_token()
    if cache.get("_session") != token:
        cache.clear()
        cache["_session"] = token
    hit = cache.get(key)
    if hit is not None:
        try:
            (probe or (lambda v: v.take(1)))(hit)
            return hit
        except Exception:
            cache.pop(key, None)
    val = builder()
    cache[key] = val
    return val


def plain_arrow(block: pa.Table) -> pa.Table:
    """A pandas UDF's output block as Arrow without schema metadata.

    Ray converts a pandas block with ``pa.Table.from_pandas``, which
    records pandas metadata in the schema.  A schema with metadata cannot
    be hashed, so Ray's ``unify_schemas`` skips its one-schema fast path
    ("Failed to hash the schemas") and unifies every such block in full.
    Run as a fused whole-block map, after Ray has concatenated the UDF's
    frames: the block stays one contiguous chunk.
    """
    return block.replace_schema_metadata(None)


def coarse_grouped_map(
    ds: "ray.data.Dataset",
    key_cols,
    fn,
    num_partitions: int = 32,
    coalesce_blocks="auto",
):
    """Keyed aggregation/transform with VECTORIZED per-partition reduce.

    ``ds.groupby(keys).aggregate(...)`` and ``.map_groups(...)`` pay a
    per-GROUP Python cost in the reduce phase — ~0.5 ms per group, which is
    15+ seconds for a 20k-group aggregate (measured) and grows with key
    cardinality, i.e. with data scale.  This helper instead groups by a
    COARSE partition key (hash of the group keys mod ``num_partitions``)
    and hands each partition — thousands of whole groups — to ``fn`` as one
    pandas DataFrame, so the reduce is one C-speed ``df.groupby`` per
    partition.  Every row of a group lands in the same partition by
    construction.

    ``fn(df) -> df`` must itself group by ``key_cols`` (it sees all rows of
    each of its groups, nothing else is guaranteed about partition
    contents).  One all-to-all, same as the plain groupby; partition count
    bounds both sort fan-in and reducer memory — raise it at scale so a
    partition's groups fit in a worker's heap.
    """
    from pandas.util import hash_array

    keys = [key_cols] if isinstance(key_cols, str) else list(key_cols)
    P = num_partitions

    def add_pkey(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch.append_column("_pkey", pa.array([], pa.int32()))
        acc = np.zeros(batch.num_rows, dtype=np.uint64)
        with np.errstate(over="ignore"):
            for c in keys:
                v = batch.column(c).to_numpy(zero_copy_only=False)
                acc = acc * np.uint64(0x9E3779B97F4A7C15) + hash_array(
                    np.asarray(v)
                )
        return batch.append_column(
            "_pkey", pa.array((acc % np.uint64(P)).astype(np.int32))
        )

    def run_partition(g):
        return fn(g.drop(columns=["_pkey"]))

    tagged = ds.map_batches(add_pkey, batch_format="pyarrow")
    # bound the sort fan-in (same rationale as repartition_join): micro-
    # blocks from a small read make the shuffle pay per-task cost for
    # nothing; one partition per core is right while partitions fit in heap
    width = coalesce_blocks
    if width == "auto":
        try:
            width = max(8, int(ray.cluster_resources().get("CPU", 8)))
        except Exception:
            width = 32
    if width:
        tagged = tagged.repartition(width)
    return (
        tagged.groupby("_pkey")
        .map_groups(run_partition, batch_format="pandas")
        .map_batches(plain_arrow, batch_format="pyarrow", batch_size=None)
    )


def repartition_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    left_on: str,
    right_on: str,
    left_types: dict,
    right_types: dict,
    num_partitions: int = 64,
    coalesce_blocks="auto",
    how: str = "inner",
    post_fn=None,
):
    """Distributed hash-join via tag-union + coarse-partition groupby
    + per-partition vectorized pandas merge.

    ``post_fn(df) -> df``, if given, runs on each partition's joined
    frame BEFORE it is emitted — join + grouped-reduce FUSION.  Every
    row of a join key lands in one partition (like coarse_grouped_map),
    so a reduce grouped by the join key is exact here and the fused
    plan skips one full all-to-all of the joined rows.

    ``how``: "inner" | "left" | "semi" | "anti".  Inner/left emit
    [left_on] + left cols + right cols (unmatched left rows pad with
    nulls — numeric columns therefore come back as float64, cast
    downstream if needed); semi/anti emit [left_on] + left cols only
    (the right side contributes existence, never columns), with left
    multiplicity preserved.  All variants shuffle both sides exactly
    once on hash(key) — the per-partition kernel is the only
    difference, since every row of a key lands in one partition.

    Why not ``Dataset.join``: Ray 2.49's hash-join aggregators (a) reserve
    half the cluster's CPUs per join operator regardless of
    ``num_partitions`` (deadlocks pipelines that also hold actor pools on
    small CPU budgets) and (b) finalize EMPTY partitions as zero-column
    Arrow tables, which the underlying acero join rejects ("No match for
    key field") whenever a partition receives no rows — i.e. whenever the
    build side is sparse.  This helper uses only the sort-based shuffle
    (task-based, empty-block tolerant) and scales the same way: both
    sides move through one all-to-all partitioned on ``hash(key) %
    num_partitions``, and each partition joins with one in-memory merge.

    ``left_types`` / ``right_types``: {column: pyarrow type} for each
    side INCLUDING its key column (schemas are declared, not inferred, so
    the lazy plans are never executed early).  Non-key column names must
    be disjoint.  Output columns: [left_on] + left non-keys + right
    non-keys, as pandas blocks.
    """
    from pandas.util import hash_array

    if how not in ("inner", "left", "semi", "anti"):
        raise ValueError(f"unsupported join type: {how!r}")
    lcols = [c for c in left_types if c != left_on]
    rcols = [c for c in right_types if c != right_on]
    key_type = left_types[left_on]
    P = num_partitions

    def pkey_of(arr: pa.ChunkedArray) -> pa.Array:
        v = arr.to_numpy(zero_copy_only=False)
        h = hash_array(np.asarray(v)) % np.uint64(P)
        return pa.array(h.astype(np.int32), pa.int32())

    def pad(n: int, t: pa.DataType) -> pa.Array:
        # Zero-pad numeric filler columns: null-padded ints become float64
        # after the pandas conversion inside the groupby, corrupting the
        # joined dtypes.  The filler values are never read (the merge only
        # takes each side's own columns from its own rows).
        if pa.types.is_integer(t) or pa.types.is_floating(t):
            return pa.array(np.zeros(n, dtype=t.to_pandas_dtype()), t)
        return pa.nulls(n, t)

    def tag_left(b: pa.Table) -> pa.Table:
        jkey = b.column(left_on).cast(key_type)
        cols = {
            "_pkey": pkey_of(jkey),
            "_side": pa.array(np.zeros(b.num_rows, np.int8), pa.int8()),
            "_jkey": jkey,
        }
        for c in lcols:
            cols[c] = b.column(c)
        for c in rcols:
            cols[c] = pad(b.num_rows, right_types[c])
        return pa.table(cols)

    def tag_right(b: pa.Table) -> pa.Table:
        jkey = b.column(right_on).cast(key_type)
        cols = {
            "_pkey": pkey_of(jkey),
            "_side": pa.array(np.ones(b.num_rows, np.int8), pa.int8()),
            "_jkey": jkey,
        }
        for c in lcols:
            cols[c] = pad(b.num_rows, left_types[c])
        for c in rcols:
            cols[c] = b.column(c)
        return pa.table(cols)

    tagged = left.map_batches(tag_left, batch_format="pyarrow").union(
        right.map_batches(tag_right, batch_format="pyarrow")
    )
    # Bound the sort-shuffle fan-in: the union CONCATENATES both sides'
    # block lists, and Ray's sort inherits that block count, paying a fixed
    # per-task cost per partition (two 64-block reads → a 128-partition
    # sort for data that fits in 32).  One partition per cluster core is
    # right while partitions fit in worker heap; at 100 TB callers should
    # instead size ``num_partitions ≈ total_bytes / 256 MB`` and skip the
    # coalesce by passing ``coalesce_blocks=None``.
    width = coalesce_blocks
    if width == "auto":
        try:
            width = max(8, int(ray.cluster_resources().get("CPU", 8)))
        except Exception:
            width = 32
    if width:
        tagged = tagged.repartition(width)

    out_cols = (
        [left_on] + lcols if how in ("semi", "anti")
        else [left_on] + lcols + rcols
    )

    def merge_partition(g: "pd.DataFrame") -> "pd.DataFrame":
        import pandas as pd

        l = g[g._side == 0]
        r = g[g._side == 1]
        if l.empty or (how == "inner" and r.empty):
            # ZERO-column empty frame: map_batches passes empties through
            # untouched and pd.concat ignores column-less frames, so this
            # never pollutes the joined schema downstream.
            return pd.DataFrame()
        if how in ("semi", "anti"):
            hit = l._jkey.isin(r._jkey)
            m = l[hit if how == "semi" else ~hit][["_jkey"] + lcols]
        else:
            m = l[["_jkey"] + lcols].merge(
                r[["_jkey"] + rcols], on="_jkey", how=how
            )
        if m.empty:
            return pd.DataFrame()
        m = m.rename(columns={"_jkey": left_on})
        m = m[out_cols]
        return post_fn(m) if post_fn is not None else m

    return (
        tagged.groupby("_pkey")
        .map_groups(merge_partition, batch_format="pandas")
        .map_batches(plain_arrow, batch_format="pyarrow", batch_size=None)
    )


def schema_floor(ds: "ray.data.Dataset", schema: pa.Schema):
    """Guarantee a typed schema on a possibly-empty keyed result.

    Ray's sort-based groupby finalizes key-less partitions as
    ZERO-COLUMN empty blocks ("new schema: ." RefBundle warnings);
    they coexist harmlessly with nonempty blocks, but when EVERY
    partition is empty the dataset's unified schema collapses to zero
    columns — ``to_pandas()`` returns a (0, 0) frame and downstream
    column references crash.  ``union`` with a typed empty block does
    NOT fix it (the zero-column block still poisons unification), so
    this helper materializes the result once and substitutes a typed
    empty table iff there are no rows.

    Use on operators whose output may be legitimately empty (set
    differences, threshold joins).  The materialize is the result the
    caller was about to consume anyway — keyed-aggregate outputs, the
    small end of the pipeline.

    Known Ray 2.49 limitation this canNOT fix: ``Dataset.to_pandas()``
    drops all columns for ANY fully-empty dataset, typed or not (even
    ``from_arrow(schema.empty_table())`` round-trips to a (0, 0)
    frame).  ``schema()``, ``write_parquet`` and ``iter_batches`` see
    the correct typed schema; pandas consumers of possibly-empty
    results must guard on ``len(df)``.
    """
    m = ds.materialize()
    if m.count() == 0:
        return ray.data.from_arrow(schema.empty_table())
    return m


def smart_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    left_on: str,
    right_on: str,
    left_types: dict,
    right_types: dict,
    num_partitions: int = 64,
    how: str = "inner",
    broadcast_threshold: int = 100_000,
):
    """Adaptive join: broadcast the right side when it is small, shuffle
    both sides otherwise — the one planning decision a distributed engine
    must make per join, made here from an O(metadata) row count.

    - right rows ≤ ``broadcast_threshold``: the right table is collected
      ONCE, ``ray.put`` into the object store (zero-copy shared-memory
      read per task), and the join is a pure map over the left side —
      no shuffle at all, the fact table never moves.
    - otherwise: ``repartition_join`` (both sides hash-partitioned once).

    Same output contract as ``repartition_join`` for how ∈ {inner, left,
    semi, anti}: columns [left_on] + left non-keys (+ right non-keys for
    inner/left).

    The threshold is rows, not bytes, deliberately: the caller knows the
    row width; at 100 TB set it to whatever fits the task heap (the
    default ≈ a few MB for typical dimension rows).
    """
    # validate up front: the broadcast path feeds ``how`` straight into
    # pandas.merge, so an unsupported type would otherwise error (or
    # silently mis-join) only when the right side happens to be small
    if how not in ("inner", "left", "semi", "anti"):
        raise ValueError(f"unsupported join type: {how!r}")
    # materialize once: the count would otherwise execute the right plan
    # and to_pandas()/the shuffle would re-execute it (lazy lineage).  A
    # big right side lands in the object store and spills — same cost the
    # shuffle was about to pay reading it.
    right = right.materialize()
    n_right = right.count()
    if n_right > broadcast_threshold:
        return repartition_join(
            left, right, left_on, right_on, left_types, right_types,
            num_partitions=num_partitions, how=how,
        )

    import pandas as pd

    rcols = [c for c in right_types if c != right_on]
    small = right.to_pandas()
    if len(small) == 0:
        small = pd.DataFrame({c: pd.Series([], dtype="object")
                              for c in [right_on] + rcols})
    small = small.rename(columns={right_on: left_on})
    if how in ("semi", "anti"):
        keys = set(small[left_on])
    r_ref = ray.put(small if how in ("inner", "left") else keys)
    lcols = [c for c in left_types if c != left_on]
    out_cols = (
        [left_on] + lcols if how in ("semi", "anti")
        else [left_on] + lcols + rcols
    )

    def probe(df: "pd.DataFrame") -> "pd.DataFrame":
        rhs = ray.get(r_ref)
        if how == "semi":
            m = df[df[left_on].isin(rhs)]
        elif how == "anti":
            m = df[~df[left_on].isin(rhs)]
        else:
            m = df.merge(rhs, on=left_on, how=how)
        if m.empty:
            return pd.DataFrame()
        return m[out_cols]

    return left.map_batches(probe, batch_format="pandas").map_batches(
        plain_arrow, batch_format="pyarrow", batch_size=None
    )
