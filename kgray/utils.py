"""Small Ray helpers the Dataset API cannot express directly.

``coarse_grouped_map`` is the one keyed exchange: a join or a co-group is
a list of ``tag``-ged parts handed to it (``repartition_join``,
``stages.graph.build_document_graphs``)."""
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


def coarse_grouped_map(ds, key_cols, fn, num_partitions: int = 32):
    """Keyed aggregation/transform with VECTORIZED per-partition reduce.

    ``ds.groupby(keys).aggregate`` and ``.map_groups`` pay a
    per-GROUP Python cost in the reduce phase — ~0.5 ms per group, which is
    15+ seconds for a 20k-group aggregate (measured) and grows with key
    cardinality, i.e. with data scale.  This helper instead hashes the
    group keys into ``num_partitions`` coarse buckets and hands each
    reduce block — thousands of whole groups — to ``fn`` as one pandas
    DataFrame, so the reduce is one C-speed ``df.groupby`` per block.
    Every row of a group lands in the same bucket by construction.

    ``ds`` may be one Dataset or a list of Datasets with one schema (a
    co-group, e.g. parts made by ``tag``).  Each part is hashed in its
    own map, which Ray fuses into that part's upstream maps, and the parts
    are unioned after: no map runs between the union and the shuffle.

    ``fn(df) -> df`` (or ``pa.Table``) must itself group by ``key_cols``:
    it sees all rows of each of its groups, nothing else is guaranteed
    about a block's contents.  The exchange is ONE all-to-all, a sort on
    the bucket with fixed boundaries (Ray samples none), into
    ``min(num_partitions, max(8, cluster CPUs))`` reduce blocks of whole
    buckets; its fan-in is input blocks × reduce blocks.  Raise
    ``num_partitions`` at scale so a reduce block fits in a worker's heap.
    """
    from pandas.util import hash_array

    keys = [key_cols] if isinstance(key_cols, str) else list(key_cols)
    P = num_partitions

    def add_pkey(batch: pa.Table) -> pa.Table:
        # no schema metadata either side of the sort (see run_partition)
        batch = batch.replace_schema_metadata(None)
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

    def run_partition(df: "pd.DataFrame") -> pa.Table:
        # no pandas metadata: Ray's ``unify_schemas`` cannot hash a schema
        # carrying it, and skips its one-schema fast path
        out = fn(df.drop(columns=["_pkey"]))
        if not isinstance(out, pa.Table):
            out = pa.Table.from_pandas(out, preserve_index=False)
        return out.replace_schema_metadata(None)

    parts = [
        part.map_batches(add_pkey, batch_format="pyarrow")
        for part in (ds if isinstance(ds, list) else [ds])
    ]
    tagged = parts[0].union(*parts[1:]) if len(parts) > 1 else parts[0]
    res = ray.cluster_resources() if ray.is_initialized() else {"CPU": 32}
    width = min(P, max(8, int(res.get("CPU", 8))))
    return tagged.sort(
        "_pkey", boundaries=[P * i // width for i in range(1, width)]
    ).map_batches(run_partition, batch_format="pandas", batch_size=None)


# the kind column ``tag`` adds: which part of a union a row came from
KIND = "_kind"


def _is_numeric(t: pa.DataType) -> bool:
    return pa.types.is_integer(t) or pa.types.is_floating(t)


def tag(ds: "ray.data.Dataset", kind: int, types: dict) -> "ray.data.Dataset":
    """``ds`` on a union schema: an int8 ``_kind`` column holding ``kind``,
    then the ``types`` ({column: pyarrow type}) columns in order.

    Every declared column is cast to its declared type, so dictionary
    columns are decoded and the parts of a union share one schema.  A
    column ``ds`` lacks is filled: numeric ones with zeros (pandas would
    turn a null-padded int into float64), the rest with nulls.  The
    fillers are never read: a consumer takes each kind's own columns from
    its own rows.
    """
    def project(b: pa.Table) -> pa.Table:
        n = b.num_rows
        cols = {KIND: pa.array(np.full(n, kind, np.int8))}
        for c, t in types.items():
            if c in b.column_names:
                cols[c] = b.column(c).cast(t)
            elif _is_numeric(t):
                cols[c] = pa.array(np.zeros(n, t.to_pandas_dtype()), t)
            else:
                cols[c] = pa.nulls(n, t)
        return pa.table(cols)

    return ds.map_batches(project, batch_format="pyarrow")


def repartition_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    left_on: str,
    right_on: str,
    left_types: dict,
    right_types: dict,
    num_partitions: int = 64,
    how: str = "inner",
    post_fn=None,
):
    """Distributed hash-join: both sides ``tag``-ged onto one schema and
    co-grouped on the key by ``coarse_grouped_map``, one vectorized
    pandas merge per partition.

    ``post_fn(df) -> df``, if given, runs on each partition's joined
    frame BEFORE it is emitted — join + grouped-reduce FUSION.  Every
    row of a join key lands in one partition (like coarse_grouped_map),
    so a reduce grouped by the join key is exact here and the fused
    plan skips one full all-to-all of the joined rows.

    ``how``: "inner" | "left" | "semi" | "anti".  Inner/left emit
    [left_on] + left cols + right cols (unmatched left rows pad with
    nulls — a left join's right numeric columns are therefore float64,
    cast downstream if needed); semi/anti emit [left_on] + left cols only
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
    be disjoint.  Without ``post_fn`` the output blocks carry these
    declared types (a left join's right numeric columns as float64), so
    a partition with no match types its padding like any other.
    """
    if how not in ("inner", "left", "semi", "anti"):
        raise ValueError(f"unsupported join type: {how!r}")
    lcols = [c for c in left_types if c != left_on]
    rcols = [c for c in right_types if c != right_on]
    types = {"_jkey": left_types[left_on]}
    types.update((c, left_types[c]) for c in lcols)
    types.update((c, right_types[c]) for c in rcols)

    def side(ds, on, cols, kind):
        def keyed(b: pa.Table) -> pa.Table:
            return b.select([on] + cols).rename_columns(["_jkey"] + cols)

        return tag(ds.map_batches(keyed, batch_format="pyarrow"), kind, types)

    out = pa.schema(
        [(left_on, types["_jkey"])]
        + [(c, types[c]) for c in lcols]
        + [
            (c, pa.float64() if how == "left" and _is_numeric(types[c])
             else types[c])
            for c in (rcols if how in ("inner", "left") else [])
        ]
    )

    def merge_partition(g: "pd.DataFrame"):
        import pandas as pd

        l = g[g[KIND] == 0]
        r = g[g[KIND] == 1]
        if l.empty or (how == "inner" and r.empty):
            # ZERO-column empty frame: Ray's schema unification skips
            # zero-row blocks, so this never pollutes the joined schema.
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
        m = m.rename(columns={"_jkey": left_on})[out.names]
        if post_fn is not None:
            return post_fn(m)
        return pa.Table.from_pandas(m, schema=out, preserve_index=False)

    return coarse_grouped_map(
        [side(left, left_on, lcols, 0), side(right, right_on, rcols, 1)],
        "_jkey",
        merge_partition,
        num_partitions,
    )


def schema_floor(ds: "ray.data.Dataset", schema: pa.Schema):
    """Guarantee a typed schema on a possibly-empty keyed result.

    A keyed exchange (``coarse_grouped_map``) finalizes row-less reduce
    blocks as ZERO-COLUMN empty blocks ("new schema: ." RefBundle warnings);
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
