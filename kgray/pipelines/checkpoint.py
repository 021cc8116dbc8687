"""Per-partition checkpointing + lineage for the KG pipeline.

The reference writes per-document stage JSONs (indra_download_extract.py:36-40
via main.py:63/68/75/98) but never resumes from them.  Here resume is a
first-class contract (BASELINE.json north_rule: "any partition can resume
from checkpoint without re-invoking the LLM"):

- Every document belongs to a fixed partition: ``crc32(doc_id) % P`` (stable
  across processes/runs — NOT Python ``hash``).  ``P`` is recorded in the
  manifests and must not change across resumes of the same checkpoint dir.
- Three stages checkpoint per partition and share one commit path,
  ``_run_stage``: ``extractions`` (explode → annotate → extract, the
  LLM-bearing prefix), ``graph_prep`` (the BEL parse into edges, unary and
  annotation_urls) and ``graphs`` (per-document CX2 rows).  A stage runs
  only for the partitions its upstream committed and it has not.  The
  runner deletes crashed-run garbage (partition data dirs without a
  manifest), writes each output table as ``ckpt_dir/<table>/partition_id=K/``
  parquet, folds per-partition metrics from distributed partials, and only
  after every table of the stage is on disk writes one manifest per
  partition (``manifests/partition-K.json`` for extractions,
  ``manifests/<stage>-partition-K.json`` for the others).  The manifest is
  the commit point: exactly-once per partition.
- Node canonicalization is global: its one manifest (``manifests/nodes.json``)
  records the graph_prep partition set it consumed and recomputes iff that
  set changed.
- Every stage returns its FULL output streamed from parquet, so a fully
  checkpointed resume re-invokes nothing — not the LLM, not the BEL parser,
  not node canonicalization, not graph assembly.

Scale note: one run materializes only the PENDING partitions' stage output
(the extraction output is orders of magnitude smaller than the input
corpus); completed partitions stream straight from parquet, and the driver
only ever folds ≤ P metric rows per batch.
"""
from __future__ import annotations

import json
import os
import shutil
import time
import zlib
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from .. import schemas
from .kg import KGConfig, _graph_inputs, run_extractions

MANIFEST_VERSION = 1

_EXTRACTIONS = "extractions"
_GRAPH_PREP = "graph_prep"
_NODES = "nodes"
_GRAPHS = "graphs"

# the on-disk layout: each stage's data dirs (under ckpt_dir) and schemas
_TABLES: Dict[str, Dict[str, pa.Schema]] = {
    _EXTRACTIONS: {"extractions": schemas.EXTRACTIONS},
    _GRAPH_PREP: {
        "edges": schemas.EDGES,
        "unary": schemas.UNARY_NODES,
        "annotation_urls": schemas.ANNOTATION_URLS,
    },
    _NODES: {"nodes": schemas.NODES, "url_agg": schemas.URL_AGG},
    _GRAPHS: {"graphs": schemas.GRAPHS},
}


def partition_of(doc_id: str, num_partitions: int) -> int:
    return zlib.crc32(doc_id.encode("utf-8")) % num_partitions


def _add_partition_column(num_partitions: int):
    def fn(batch: pa.Table) -> pa.Table:
        pids = [
            partition_of(d, num_partitions)
            for d in batch.column("doc_id").to_pylist()
        ]
        return batch.append_column("partition_id", pa.array(pids, pa.int32()))

    return fn


def _manifest_name(stage: str, pid) -> str:
    # extraction manifests predate the later stages' and keep the bare name
    prefix = "" if stage == _EXTRACTIONS else f"{stage}-"
    return f"{prefix}partition-{pid}.json"


@dataclass
class CheckpointState:
    ckpt_dir: str
    num_partitions: int
    completed: Set[int] = field(default_factory=set)

    @property
    def data_dir(self) -> str:
        return os.path.join(self.ckpt_dir, "extractions")

    @property
    def manifest_dir(self) -> str:
        return os.path.join(self.ckpt_dir, "manifests")

    def manifest_path(self, pid: int) -> str:
        return os.path.join(self.manifest_dir, _manifest_name(_EXTRACTIONS, pid))

    def partition_data_dir(self, pid: int) -> str:
        return os.path.join(self.data_dir, f"partition_id={pid}")


def _committed(st: CheckpointState, stage: str) -> Set[int]:
    """Partitions with a complete ``stage`` manifest."""
    prefix = _manifest_name(stage, "").removesuffix(".json")
    done: Set[int] = set()
    for name in os.listdir(st.manifest_dir):
        if not (name.startswith(prefix) and name.endswith(".json")):
            continue
        with open(os.path.join(st.manifest_dir, name)) as f:
            m = json.load(f)
        if m.get("status") == "complete":
            if m.get("num_partitions") != st.num_partitions:
                raise ValueError(
                    f"checkpoint was written with num_partitions="
                    f"{m.get('num_partitions')}, cannot resume with "
                    f"{st.num_partitions}"
                )
            done.add(int(m["partition_id"]))
    return done


def _write_manifest(path: str, **fields) -> None:
    manifest = {
        "version": MANIFEST_VERSION,
        **fields,
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=1)
    os.replace(tmp, path)  # atomic commit point


def _sweep(data_dir: str, committed: Set[int]) -> None:
    """Delete crashed-run garbage: partition dirs without a manifest."""
    os.makedirs(data_dir, exist_ok=True)
    for name in os.listdir(data_dir):
        if name.startswith("partition_id="):
            if int(name.split("=", 1)[1]) not in committed:
                shutil.rmtree(os.path.join(data_dir, name))


def _read(data_dir: str, schema: pa.Schema, pids=None) -> "ray.data.Dataset":
    """One table from parquet: the files under its ``partition_id=K`` dirs
    (only K in ``pids`` when given) or, for a global stage, its own.  The
    file list is explicit so stray files can never break the read."""
    files: List[str] = []
    for name in sorted(os.listdir(data_dir)) if os.path.isdir(data_dir) else []:
        path = os.path.join(data_dir, name)
        if name.startswith("partition_id="):
            if pids is None or int(name.split("=", 1)[1]) in pids:
                files.extend(
                    os.path.join(path, f)
                    for f in sorted(os.listdir(path))
                    if f.endswith(".parquet")
                )
        elif pids is None and name.endswith(".parquet"):
            files.append(path)
    if not files:  # legitimately empty (e.g. zero annotations)
        return ray.data.from_arrow(schema.empty_table())
    # the partition column comes back as dictionary/string; drop it and
    # restore the declared column order
    return ray.data.read_parquet(files).select_columns(schema.names)


def _read_stage(
    st: CheckpointState, stage: str, pids=None
) -> List["ray.data.Dataset"]:
    return [
        _read(os.path.join(st.ckpt_dir, name), schema, pids)
        for name, schema in _TABLES[stage].items()
    ]


def _per_partition(row_stats):
    """Stats partial: each batch emits one row per partition it holds with
    the sums of ``row_stats``' columns, so the driver folds ≤ P rows per
    batch and never the table itself."""

    def partial(batch: pa.Table) -> pa.Table:
        cols = row_stats(batch)
        g = pa.table({"partition_id": batch["partition_id"], **cols}).group_by(
            "partition_id"
        ).aggregate([(c, "sum") for c in cols])
        return g.select(
            ["partition_id", *(f"{c}_sum" for c in cols)]
        ).rename_columns(["partition_id", *cols])

    return partial


def _row_count(table: str):
    return lambda batch: {f"n_{table}": np.ones(batch.num_rows, np.int64)}


def _run_stage(
    st: CheckpointState,
    stage: str,
    upstream: Optional[str],
    build: Callable[[Optional[Set[int]]], List["ray.data.Dataset"]],
    row_stats: Optional[Callable[[pa.Table], dict]] = None,
    fields: Callable[[Counter], dict] = dict,
) -> None:
    """The commit path of every per-partition stage.

    Pending = partitions ``upstream`` committed and ``stage`` has not;
    ``upstream=None`` means the documents, whose partitions are known only
    once the stage has run, so every partition that produced rows commits.
    ``build(pending)`` returns the stage's lazy output Datasets, one per
    data dir in ``_TABLES[stage]``.  ``row_stats(batch)`` gives per-row
    metric columns summed per partition into its manifest (default: each
    table's row count as ``n_<table>``); ``fields`` shapes the sums into
    manifest fields.
    """
    names = list(_TABLES[stage])
    done = _committed(st, stage)
    for name in names:
        _sweep(os.path.join(st.ckpt_dir, name), done)
    pending = None if upstream is None else _committed(st, upstream) - done
    if pending is not None and not pending:
        return

    t0 = time.time()
    zero = {} if row_stats else {f"n_{name}": 0 for name in names}
    stats: Dict[int, Counter] = defaultdict(lambda: Counter(zero))
    for name, ds in zip(names, build(pending)):
        ds = ds.map_batches(
            _add_partition_column(st.num_partitions), batch_format="pyarrow"
        ).materialize()  # read twice: stats fold + write
        partial = _per_partition(row_stats or _row_count(name))
        for part in ds.map_batches(partial, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"
        ):
            for row in part.to_pylist():
                stats[row.pop("partition_id")].update(row)
        if ds.count() > 0:
            ds.write_parquet(
                os.path.join(st.ckpt_dir, name), partition_cols=["partition_id"]
            )
    wall = round(time.time() - t0, 3)
    for pid in sorted(stats.keys() | (pending or set())):
        _write_manifest(
            os.path.join(st.manifest_dir, _manifest_name(stage, pid)),
            partition_id=pid,
            num_partitions=st.num_partitions,
            stage=stage,
            status="complete",
            **fields(stats[pid]),
            wall_time_sec=wall,
        )


def load_state(ckpt_dir: str, num_partitions: int) -> CheckpointState:
    st = CheckpointState(ckpt_dir, num_partitions)
    os.makedirs(st.data_dir, exist_ok=True)
    os.makedirs(st.manifest_dir, exist_ok=True)
    st.completed = _committed(st, _EXTRACTIONS)
    return st


def _extraction_stats(batch: pa.Table) -> dict:
    first = pc.equal(batch["span_seq"], 0)  # one row per document
    crc = [
        zlib.crc32(d.encode()) if f else 0
        for d, f in zip(batch["doc_id"].to_pylist(), first.to_pylist())
    ]
    return {
        "n_docs": first.cast(pa.int64()),
        "n_spans": np.ones(batch.num_rows, np.int64),
        "n_admitted": batch["admitted"].cast(pa.int64()),
        "n_statements": pc.list_value_length(batch["results"])
        .fill_null(0)
        .cast(pa.int64()),
        "crc_sum": pa.array(crc, pa.int64()),
    }


def _extraction_fields(s: Counter) -> dict:
    crc = s.pop("crc_sum")
    return {"input_fingerprint": f"crcsum:{crc:x}:n={s['n_docs']}", **s}


def run_checkpointed_extractions(
    documents: "ray.data.Dataset",
    ckpt_dir: str,
    num_partitions: int = 16,
    cfg: Optional[KGConfig] = None,
) -> "ray.data.Dataset":
    """Return the full EXTRACTIONS dataset, computing only pending partitions.

    Lineage/metrics manifest per partition::

        {partition_id, num_partitions, stage, status, input_fingerprint,
         n_docs, n_spans, n_admitted, n_statements,
         wall_time_sec, written_at, version}
    """
    st = load_state(ckpt_dir, num_partitions)
    completed_ref = ray.put(st.completed)

    def only_pending(batch: pa.Table) -> pa.Table:
        done = ray.get(completed_ref)
        if not done:
            return batch
        mask = [
            partition_of(d, num_partitions) not in done
            for d in batch.column("doc_id").to_pylist()
        ]
        return batch.filter(pa.array(mask, pa.bool_()))

    pending_docs = documents.map_batches(only_pending, batch_format="pyarrow")
    _run_stage(
        st, _EXTRACTIONS, None,
        lambda _: [run_extractions(pending_docs, cfg)],
        _extraction_stats, _extraction_fields,
    )
    return _read_stage(st, _EXTRACTIONS)[0]


def checkpoint_summary(ckpt_dir: str) -> List[dict]:
    mdir = os.path.join(ckpt_dir, "manifests")
    out = []
    if os.path.isdir(mdir):
        for name in sorted(os.listdir(mdir)):
            if name.endswith(".json"):
                with open(os.path.join(mdir, name)) as f:
                    out.append(json.load(f))
    return out


def run_checkpointed_graph_prep(
    extractions_dir_state: CheckpointState,
) -> Tuple["ray.data.Dataset", "ray.data.Dataset", "ray.data.Dataset"]:
    """Checkpointed BEL parse: extraction parquet → edges / unary /
    annotation_urls parquet, computed only for partitions without a
    complete graph_prep manifest.  Returns the three FULL datasets
    (streaming from parquet)."""
    st = extractions_dir_state
    _run_stage(
        st, _GRAPH_PREP, _EXTRACTIONS,
        lambda pids: _graph_inputs(_read_stage(st, _EXTRACTIONS, pids)[0]),
    )
    return tuple(_read_stage(st, _GRAPH_PREP))


def run_checkpointed_nodes(
    st: CheckpointState,
    edges: "ray.data.Dataset",
    unary: "ray.data.Dataset",
    ann_urls: "ray.data.Dataset",
) -> Tuple["ray.data.Dataset", "ray.data.Dataset"]:
    """Checkpointed node canonicalization (global stage): one manifest
    recording the graph_prep partition set consumed; recomputes only when
    that set changed, else streams nodes AND the (entry_name, url)
    aggregate from parquet.  The URL aggregate is a sidecar DATASET, not
    a JSON dict — it is vocabulary-sized and must never transit the
    driver (r3 verdict)."""
    from ..stages.nodes import node_tables

    man_path = os.path.join(st.manifest_dir, "nodes.json")
    pids = sorted(_committed(st, _GRAPH_PREP))
    if os.path.exists(man_path):
        with open(man_path) as f:
            m = json.load(f)
        if m.get("status") == "complete" and m.get("input_partitions") == pids:
            return tuple(_read_stage(st, _NODES))

    nodes_dir, url_agg_dir = (
        os.path.join(st.ckpt_dir, name) for name in _TABLES[_NODES]
    )
    for d in (nodes_dir, url_agg_dir):
        shutil.rmtree(d, ignore_errors=True)  # stale / crashed partial
    t0 = time.time()
    nodes, url_agg = node_tables(edges, unary, ann_urls)
    nodes = nodes.materialize()
    nodes.write_parquet(nodes_dir)
    url_agg.write_parquet(url_agg_dir)
    _write_manifest(
        man_path,
        stage=_NODES,
        status="complete",
        input_partitions=pids,
        n_nodes=nodes.count(),
        wall_time_sec=round(time.time() - t0, 3),
    )
    return nodes, url_agg


def run_checkpointed_graphs(
    st: CheckpointState,
    style=None,
) -> "ray.data.Dataset":
    """Checkpointed per-document CX2 assembly: computed only for
    partitions without a complete graphs manifest, reading that
    partition's edges/unary/annotation-URL parquet (the per-document
    URL maps are built inside each doc group from the co-partitioned
    annotation_urls rows — no driver dict)."""
    from ..stages.graph import build_document_graphs

    _run_stage(
        st, _GRAPHS, _GRAPH_PREP,
        lambda pids: [
            build_document_graphs(
                *_read_stage(st, _GRAPH_PREP, pids), style=style
            )
        ],
    )
    return _read_stage(st, _GRAPHS)[0]


def run_checkpointed_kg(
    documents: "ray.data.Dataset",
    ckpt_dir: str,
    num_partitions: int = 16,
    cfg: Optional[KGConfig] = None,
    style=None,
):
    """End-to-end checkpointed pipeline: documents → extractions → BEL
    parse → nodes → per-document CX2 graphs, every stage resumable.  A
    fully-checkpointed resume re-invokes NOTHING — not the LLM, not the
    BEL parser, not graph assembly; it streams parquet.

    Returns (KGResult, graphs Dataset)."""
    from .kg import KGResult

    extractions = run_checkpointed_extractions(
        documents, ckpt_dir, num_partitions=num_partitions, cfg=cfg
    )
    st = load_state(ckpt_dir, num_partitions)
    edges, unary, ann_urls = run_checkpointed_graph_prep(st)
    nodes, url_agg = run_checkpointed_nodes(st, edges, unary, ann_urls)
    graphs = run_checkpointed_graphs(st, style=style)
    res = KGResult(
        extractions=extractions,
        edges=edges,
        unary_nodes=unary,
        annotation_urls=ann_urls,
        nodes=nodes,
        annotation_url_agg=url_agg,
    )
    return res, graphs
