"""Small Ray helpers the Dataset API cannot express directly.

Keyed exchanges run as plain Ray tasks on block refs, not as Ray Data
all-to-all operators.  ``coarse_grouped_map`` is the one hash exchange: a
join or a co-group is a list of ``tag``-ged parts handed to it
(``repartition_join``, ``stages.graph.build_document_graphs``).
``sort_ranges`` is the one range exchange, a sample sort (node ids).

A *part* is a Dataset or a ``(Dataset or block list, per-block function or
None)`` pair; the function runs inside the exchange's map tasks, so a
combiner or a router costs no Ray Data operator of its own.  Every
function an exchange calls takes one ``pa.Table`` and returns one: the
block format is Arrow from map task to reduce task, and an exchange
without rows returns its reducer's own typed empty table.  The non-KG
modules' pandas reducers go through ``pandas_reducer``.
*Blocks* are (ref, metadata) pairs: every exchange task returns its
block's metadata beside the block, so the driver holds row counts without
another task, and ``dataset_of`` wraps blocks in a Dataset once, where a
caller needs one.  Fan-in is input blocks × width.  The width is one rule,
``_max_width``: a hash exchange has ``max(8, cluster CPUs)`` ranges, and
no caller sets it.  Map outputs stay in the object store until their
reduce tasks have run: the exchange has no streaming backpressure.
``recorded_exchanges`` lists the exchanges a block of code launches.
"""
from __future__ import annotations

import contextlib
from bisect import bisect_left

import numpy as np
import pyarrow as pa
import ray
import ray.data
from ray.data.block import BlockAccessor, BlockMetadataWithSchema

# the active ``recorded_exchanges`` lists
_RECORDERS: list = []


@contextlib.contextmanager
def recorded_exchanges():
    """Collect one dict per keyed exchange launched in the ``with`` body:
    ``kind`` ("hash" or "range"), ``parts``, ``blocks`` (input blocks with
    rows, one map task each) and ``width`` (reduce tasks)."""
    rec: list = []
    _RECORDERS.append(rec)
    try:
        yield rec
    finally:
        _RECORDERS.remove(rec)


def _record(kind: str, parts: int, blocks: int, width: int) -> None:
    for rec in _RECORDERS:
        rec.append(
            {"kind": kind, "parts": parts, "blocks": blocks, "width": width}
        )


def _max_width() -> int:
    """The width of every hash exchange and the cap of a range exchange's:
    ``max(8, cluster CPUs)``, read once per exchange (32 CPUs before
    ``ray.init``)."""
    res = ray.cluster_resources() if ray.is_initialized() else {"CPU": 32}
    return max(8, int(res.get("CPU", 8)))


def _bundles(ds):
    """The RefBundles of ``ds``.  A Dataset over in-memory blocks
    (``from_arrow``, ``materialize``, ``dataset_of``) hands them over
    without starting an executor; a lazy one starts running here."""
    from ray.data._internal.logical.interfaces import SourceOperator

    dag = ds._logical_plan.dag
    if isinstance(dag, SourceOperator) and dag.output_data() is not None:
        return dag.output_data()
    return ds.iter_internal_ref_bundles()


def _iter_blocks(data):
    """(ref, metadata with schema) of every block of a Dataset or a block
    list; a lazy Dataset starts running here and streams."""
    if isinstance(data, list):
        return iter(data)
    return (
        (ref, BlockMetadataWithSchema(meta, b.schema))
        for b in _bundles(data) for ref, meta in b.blocks
    )


def blocks_of(*datasets) -> list:
    """Each Dataset's blocks as a list of (ref, metadata), the plans run
    once and side by side."""
    return [list(s) for s in [_iter_blocks(ds) for ds in datasets]]


def _with_meta(t: pa.Table):
    # no schema metadata: Ray's ``unify_schemas`` cannot hash a schema
    # carrying pandas metadata, and skips its one-schema fast path
    t = t.replace_schema_metadata(None)
    return t, BlockMetadataWithSchema.from_block(t)


def dataset_of(blocks, schema: pa.Schema = None) -> "ray.data.Dataset":
    """Blocks as a Dataset, without a task: the blocks with rows, else one
    empty block of ``schema`` (when given) or the first block."""
    from ray.data._internal.logical.interfaces import LogicalPlan
    from ray.data._internal.logical.operators.from_operators import FromArrow
    from ray.data._internal.plan import ExecutionPlan
    from ray.data._internal.stats import DatasetStats
    from ray.data.context import DataContext
    from ray.data.dataset import MaterializedDataset

    keep = [b for b in blocks if b[1].num_rows]
    if not keep and schema is not None:
        t, meta = _with_meta(schema.empty_table())
        keep = [(ray.put(t), meta)]
    keep = keep or blocks[:1]
    refs = [r for r, _ in keep]
    metas = [m for _, m in keep]
    plan = ExecutionPlan(
        DatasetStats(metadata={"FromArrow": metas}, parent=None),
        DataContext.get_current().copy(),
    )
    return MaterializedDataset(plan, LogicalPlan(FromArrow(refs, metas),
                                                 plan._context))


def _finish(pairs) -> list:
    """Reduce tasks' (block ref, metadata ref) pairs → blocks."""
    return list(zip([b for b, _ in pairs], ray.get([m for _, m in pairs])))


@ray.remote
def _apply(fns, block):
    t = BlockAccessor.for_block(block).to_arrow()
    return [x for fn in fns for x in _with_meta(fn(t))]


def map_blocks(blocks, *fns) -> list:
    """One task per block with rows runs every ``fn(pa.Table) ->
    pa.Table`` on it: one block list per ``fn``."""
    k = len(fns)
    apply = _apply.options(num_returns=2 * k)
    runs = [apply.remote(fns, ref)
            for ref, meta in _iter_blocks(blocks) if meta.num_rows]
    return [_finish([(r[2 * i], r[2 * i + 1]) for r in runs])
            for i in range(k)]


def _hash_ranges(t: pa.Table, keys, width: int) -> np.ndarray:
    """Each row's reduce range: its key hash modulo ``width``."""
    from pandas.util import hash_array

    acc = np.zeros(t.num_rows, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for c in keys:
            v = t.column(c).to_numpy(zero_copy_only=False)
            acc = acc * np.uint64(0x9E3779B97F4A7C15) + hash_array(
                np.asarray(v)
            )
    return (acc % np.uint64(width)).astype(np.int64)


@ray.remote
def _split(block, pre, keys, width):
    """Map side: ``pre`` on one block, then its rows as one slice per
    reduce range."""
    t = BlockAccessor.for_block(block).to_arrow()
    if pre is not None:
        t = pre(t)
    t = t.replace_schema_metadata(None)
    r = _hash_ranges(t, keys, width)
    order = np.argsort(r, kind="stable")
    t = t.take(order)
    ends = np.searchsorted(r[order], np.arange(width), side="right")
    return [t.slice(a, b - a) for a, b in zip(np.r_[0, ends[:-1]], ends)]


@ray.remote
def _reduce(fn, *slices):
    """Reduce side: ``fn`` on the range's rows (maybe none) as one
    table."""
    from ray.data._internal.arrow_ops.transform_pyarrow import concat

    return _with_meta(fn(concat(slices, promote_types=True)))


def pandas_reducer(fn):
    """``fn(pd.DataFrame) -> pd.DataFrame or pa.Table`` as an exchange
    function for the non-KG modules: Ray's pandas view of the table in,
    ``from_pandas`` out unless ``fn`` returned a Table.  A table without
    rows gives a table without columns, as before (see
    ``schema_floor``)."""
    def run(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return pa.table({})
        out = fn(BlockAccessor.for_block(t).to_pandas())
        if not isinstance(out, pa.Table):
            out = pa.Table.from_pandas(out, preserve_index=False)
        return out

    return run


def _parts(ds) -> list:
    """Parts as (block stream, per-block function or None), every lazy
    Dataset among them started, so their plans run concurrently."""
    parts = ds if isinstance(ds, list) else [ds]
    return [
        (_iter_blocks(p[0]), p[1]) if isinstance(p, tuple)
        else (_iter_blocks(p), None)
        for p in parts
    ]


def coarse_grouped_map(ds, key_cols, fn):
    """Keyed aggregation/transform with VECTORIZED per-partition reduce.

    ``ds.groupby(keys).aggregate`` and ``.map_groups`` pay a
    per-GROUP Python cost in the reduce phase — ~0.5 ms per group, which is
    15+ seconds for a 20k-group aggregate (measured) and grows with key
    cardinality, i.e. with data scale.  This helper instead hashes the
    group keys into a few coarse ranges and hands each range — thousands
    of whole groups — to ``fn`` as one ``pa.Table``, so the reduce is one
    C-speed ``pa.Table.group_by`` (or a loop over whole groups) per range.
    Every row of a group lands in the same range by construction.

    ``ds`` is a part or a list of parts with one schema (a co-group, e.g.
    parts made by ``tag``); a part's per-block function runs in the map
    task, before the hash.  The exchange is plain Ray tasks: one map task
    per input block with rows sends each row to range ``hash(keys) %
    width``, ``width`` being ``max(8, cluster CPUs)``, and one reduce task
    per range calls ``fn`` once.  Its fan-in is input blocks × width, and
    a range holds about 1/width of the input.

    ``fn(pa.Table) -> pa.Table`` must itself group by ``key_cols``: it
    sees all rows of each of its groups, nothing else is guaranteed about
    a range's contents, and it must take a table without rows too.  The
    returned Dataset keeps only blocks with rows, or one of ``fn``'s typed
    empty tables when none has any.  When no input block has rows, one
    task runs a part's per-block function and ``fn`` on a zero-row input
    block that carries columns instead of the exchange (without such a
    block, the result is a block without columns).  The exchange runs
    when this is called.
    """
    keys = [key_cols] if isinstance(key_cols, str) else list(key_cols)
    width = _max_width()
    parts = _parts(ds)
    split = _split.options(num_returns=width)
    maps, empty = [], None
    for blocks, pre in parts:
        for ref, meta in blocks:
            if meta.num_rows:
                maps.append(split.remote(ref, pre, keys, width))
            elif empty is None and getattr(meta.schema, "names", None):
                empty = (pre, ref)
    _record("hash", len(parts), len(maps), width)
    if not maps:  # one task: ``pre`` and ``fn`` on a zero-row block
        if empty is None:  # no column to type the result with
            return dataset_of([], pa.schema([]))
        pre, ref = empty
        run = fn if pre is None else (lambda t: fn(pre(t)))
        return dataset_of(_finish(
            [_apply.options(num_returns=2).remote([run], ref)]
        ))
    reduce = _reduce.options(num_returns=2)
    return dataset_of(_finish(
        [reduce.remote(fn, *[m[i] for m in maps]) for i in range(width)]
    ))


@ray.remote
def _sort_sample(block, pre, key: str, k: int):
    """Sample-sort map side: ``pre`` on one block, its rows sorted by
    ``key``, and ``k`` evenly spaced keys of them."""
    t = BlockAccessor.for_block(block).to_arrow()
    if pre is not None:
        t = pre(t)
    t = t.replace_schema_metadata(None).sort_by(key)
    n = t.num_rows
    pos = (2 * np.arange(k) + 1) * n // (2 * k)
    return t, t.column(key).take(pa.array(pos)).to_pylist() if n else []


def _rank(keys: pa.Array, v) -> int:
    """Number of ``keys`` (sorted) below ``v``; 0 for ``v`` None."""
    if v is None:
        return 0
    return bisect_left(keys, v, key=lambda s: s.as_py())


@ray.remote
def _merge_range(fn, key: str, lo, hi, *blocks):
    """Sample-sort reduce side: the rows of every sorted block with
    ``lo <= key < hi`` (``None``: unbounded), merged, and ``fn(table,
    start)`` on them, ``start`` being the global rank of the first."""
    from ray.data._internal.arrow_ops.transform_pyarrow import concat

    start, slices = 0, []
    for t in blocks:
        keys = t.column(key).combine_chunks()
        a = _rank(keys, lo)
        b = t.num_rows if hi is None else _rank(keys, hi)
        start += a
        if b > a:
            slices.append(t.slice(a, b - a))
    if not slices:
        return _with_meta(pa.table({}))
    t = concat(slices, promote_types=True).sort_by(key)
    return _with_meta(fn(t, start))


def sort_ranges(ds, key: str, fn) -> list:
    """Sample sort of parts (see the module docstring) on the string
    column ``key``: blocks in ``key`` order, each ``fn(table, start)`` of a
    sorted range whose first row has global rank ``start``.

    One task per input block with rows sorts it and returns a few
    evenly spaced keys; the driver picks the range boundaries from those
    O(width²) keys; one task per range cuts its rows from every sorted
    block by binary search and merges them.  The width is the number of
    input blocks with rows, at most ``max(8, CPUs)``, so a small input
    stays a few blocks.  The exchange runs when this is called.
    """
    cap = _max_width()
    parts = _parts(ds)
    sample = _sort_sample.options(num_returns=2)
    runs = [
        sample.remote(ref, pre, key, cap)
        for blocks, pre in parts for ref, meta in blocks if meta.num_rows
    ]
    width = max(1, min(cap, len(runs)))
    pool = sorted(k for s in ray.get([s for _, s in runs]) for k in s)
    bounds = [None] + [pool[len(pool) * j // width] for j in range(1, width)]
    bounds += [None]
    _record("range", len(parts), len(runs), width)
    merge = _merge_range.options(num_returns=2)
    sorted_ = [t for t, _ in runs]
    return _finish([
        merge.remote(fn, key, bounds[i], bounds[i + 1], *sorted_)
        for i in range(width)
    ])


# the kind column ``tag`` adds: which part of a union a row came from
KIND = "_kind"


def _is_numeric(t: pa.DataType) -> bool:
    return pa.types.is_integer(t) or pa.types.is_floating(t)


def tag(part, kind: int, types: dict):
    """A part (a Dataset or a (Dataset, per-block function) pair) on a
    union schema: an int8 ``_kind`` column holding ``kind``, then the
    ``types`` ({column: pyarrow type}) columns in order.  The projection
    runs in the exchange's map tasks, so a zero-row block is typed too.

    Every declared column is cast to its declared type, so dictionary
    columns are decoded and the parts of a union share one schema.  A
    column the block lacks is null-filled; the fillers are never read: a
    consumer takes each kind's own columns from its own rows.
    """
    ds, pre = part if isinstance(part, tuple) else (part, None)

    def project(b: pa.Table) -> pa.Table:
        if pre is not None:
            b = pre(b)
        n = b.num_rows
        cols = {KIND: pa.array(np.full(n, kind, np.int8))}
        for c, t in types.items():
            cols[c] = (b.column(c).cast(t) if c in b.column_names
                       else pa.nulls(n, t))
        return pa.table(cols)

    return ds, project


def repartition_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    left_on: str,
    right_on: str,
    left_types: dict,
    right_types: dict,
    how: str = "inner",
    post_fn=None,
):
    """Distributed hash-join: both sides ``tag``-ged onto one schema and
    co-grouped on the key by ``coarse_grouped_map``, one vectorized
    Arrow join per partition.

    ``post_fn(pa.Table) -> pa.Table``, if given, runs on each partition's
    joined table BEFORE it is emitted — join + grouped-reduce FUSION.
    Every row of a join key lands in one partition (like
    coarse_grouped_map), so a reduce grouped by the join key is exact
    here and the fused plan skips one full all-to-all of the joined rows.
    On a join without rows it runs on a zero-row table, so it types the
    empty result.

    ``how``: "inner" | "left" | "semi" | "anti".  Inner/left emit
    [left_on] + left cols + right cols in pandas merge's (left row, right
    row) order (unmatched left rows pad with nulls — a left join's right
    numeric columns are therefore float64, cast downstream if needed);
    semi/anti emit [left_on] + left cols only (the right side contributes
    existence, never columns), with left multiplicity preserved.  A null
    key matches a null key, as in pandas.  All variants shuffle both
    sides exactly once on hash(key) — the per-partition kernel is the
    only difference, since every row of a key lands in one partition.
    The kernel joins key codes and row indices only, then ``take``s the
    payloads: Acero rejects list-typed payload columns ("Data type
    list<…> is not supported in join non-key field", pyarrow 16.1).

    Why not ``Dataset.join``: Ray 2.49's hash-join aggregators (a) reserve
    half the cluster's CPUs per join operator regardless of its
    partition count (deadlocks pipelines that also hold actor pools on
    small CPU budgets) and (b) finalize EMPTY partitions as zero-column
    Arrow tables, which the underlying acero join rejects ("No match for
    key field") whenever a partition receives no rows — i.e. whenever the
    build side is sparse.  This helper uses only ``coarse_grouped_map``'s
    task exchange (empty-range tolerant) and scales the same way: both
    sides move through one exchange partitioned on ``hash(key) % width``,
    and each partition joins in memory.

    ``left_types`` / ``right_types``: {column: pyarrow type} for each
    side INCLUDING its key column (schemas are declared, not inferred, so
    the lazy plans are never executed early).  Non-key column names must
    be disjoint.  The joined table (``post_fn``'s input, or the output)
    carries these declared types (a left join's right numeric columns as
    float64), so a partition with no match types its padding like any
    other.
    """
    if how not in ("inner", "left", "semi", "anti"):
        raise ValueError(f"unsupported join type: {how!r}")
    lcols = [c for c in left_types if c != left_on]
    rcols = [c for c in right_types if c != right_on]
    types = {"_jkey": left_types[left_on]}
    types.update((c, left_types[c]) for c in lcols)
    types.update((c, right_types[c]) for c in rcols)

    def side(ds, on, kind):
        def keyed(b: pa.Table) -> pa.Table:
            return b.rename_columns(
                ["_jkey" if c == on else c for c in b.column_names]
            )

        return tag((ds, keyed), kind, types)

    out = pa.schema(
        [(left_on, types["_jkey"])]
        + [(c, types[c]) for c in lcols]
        + [
            (c, pa.float64() if how == "left" and _is_numeric(types[c])
             else types[c])
            for c in (rcols if how in ("inner", "left") else [])
        ]
    )

    def merge_partition(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        is_left = pc.equal(t[KIND].combine_chunks(), 0)
        l, r = t.filter(is_left), t.filter(pc.invert(is_left))
        if how in ("semi", "anti"):
            hit = pc.is_in(l["_jkey"], value_set=r["_jkey"].combine_chunks())
            m = l.filter(hit if how == "semi" else pc.invert(hit)).select(
                ["_jkey"] + lcols
            )
        else:
            # join the key codes and row indices only, then take payloads
            code = pc.dictionary_encode(
                t["_jkey"].combine_chunks(), null_encoding="encode"
            ).indices
            j = pa.table(
                {"c": code.filter(is_left), "_l": np.arange(l.num_rows)}
            ).join(
                pa.table({"c": code.filter(pc.invert(is_left)),
                          "_r": np.arange(r.num_rows)}),
                "c",
                join_type="inner" if how == "inner" else "left outer",
            ).sort_by([("_l", "ascending"), ("_r", "ascending")])
            m = pa.Table.from_arrays(
                l.select(["_jkey"] + lcols).take(j["_l"]).columns
                + r.select(rcols).take(j["_r"]).columns,
                names=["_jkey"] + lcols + rcols,
            )
        m = m.rename_columns(out.names).cast(out)
        return m if post_fn is None else post_fn(m)

    return coarse_grouped_map(
        [side(left, left_on, 0), side(right, right_on, 1)],
        "_jkey",
        merge_partition,
    )


def schema_floor(ds: "ray.data.Dataset", schema: pa.Schema):
    """Guarantee a typed schema on a possibly-empty keyed result of the
    non-KG modules (``corpus_stats``, ``graph_algos``, ``pack``,
    ``filters``); the KG path's Arrow reducers type their own.

    ``pandas_reducer`` turns a table without rows into a ZERO-COLUMN
    block, which an exchange without rows returns: the dataset's unified
    schema then collapses to zero columns — ``to_pandas()`` returns a
    (0, 0) frame and downstream column references crash.  ``union`` with
    a typed empty block does NOT fix it (the zero-column block still
    poisons unification), so this helper materializes the result once
    and substitutes a typed empty table iff there are no rows.

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
