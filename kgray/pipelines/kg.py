"""The flagship KG-construction pipeline, end-to-end on Ray Data.

documents (doc_id, spans)                       # read_parquet / read_lance
  → map_batches(explode_spans)                  # all spans kept, admission flag
  → map_batches(_annotate_extract)              # + annotations, + results
  → one task per block, three tables:
  │    extractions_to_edges                     # edges table
  │    extractions_to_unary_nodes               # node-only records
  │    extractions_to_annotation_urls
  → node canonicalization (stages/nodes.py: name reduce, id sort) → nodes

Mirrors reference lifecycle main.py:31-118 (§3.2 of SURVEY.md) as a
streaming DAG; per-stage checkpointing lives in pipelines/checkpoint.py.

The prefix runs as plain Ray tasks: Ray Data fuses explode and grounding +
extraction into one task per bundle.  Grounding and extraction are built
once per worker process per run (the reference's lru_cache'd chain build,
sentence_level_extraction.py:18-35): the run's spec is one ``ray.put``, and
each worker keeps the stage pair built from it in a one-entry cache keyed
by that ref.  A killed worker's task is retried by Ray's task retry.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Optional

import pyarrow as pa
import ray
import ray.data

from .. import schemas
from ..stages import edges as edge_stage
from ..stages.annotate import DictionaryAnnotator
from ..stages.chunk import explode_spans
from ..stages.extract import BELExtractor
from ..stages.nodes import (
    NAMES,
    assign_node_ids,
    first_seen_names,
    node_tables,
)
from ..utils import blocks_of, dataset_of, map_blocks, repartition_join


class AnnotateExtract:
    """Grounding + extraction stage pair: ``DictionaryAnnotator`` then
    ``BELExtractor``."""

    def __init__(self, annotator_kwargs=None, backend="stub",
                 backend_kwargs=None):
        self._annotate = DictionaryAnnotator(**(annotator_kwargs or {}))
        self._extract = BELExtractor(
            backend=backend, **(backend_kwargs or {})
        )

    def __call__(self, batch):
        return self._extract(self._annotate(batch))


# This worker process's stage pair: (spec ref hex, AnnotateExtract).  One
# entry, so a new run's spec replaces (and frees) the previous run's pair.
_STAGE = (None, None)


def _annotate_extract(spec_ref, batch: pa.Table) -> pa.Table:
    global _STAGE
    key = spec_ref.hex()
    if _STAGE[0] != key:
        _STAGE = (None, None)
        _STAGE = (key, AnnotateExtract(**ray.get(spec_ref)))
    return _STAGE[1](batch)


def _annotate_extract_fn(cfg: "KGConfig"):
    """The prefix's map function: it carries only the ref of the run's
    spec, so the task payload does not grow with the vocabulary."""
    spec = ray.put({
        "annotator_kwargs": cfg.annotator_kwargs,
        "backend": cfg.backend,
        "backend_kwargs": cfg.backend_kwargs,
    })
    return partial(_annotate_extract, spec)


@dataclass
class KGConfig:
    """Stage knobs.  Grounding and extraction run as Ray tasks (one CPU
    each, as many as the cluster's CPUs allow), ``batch_size`` paragraphs
    per call.

    ``annotate_concurrency`` and ``extract_concurrency`` are read by no
    pipeline; perfbench's layered trace still sizes its own two pools from
    them, and they go when that trace runs the prefix through
    ``run_extractions``."""

    batch_size: int = 256          # paragraphs per extractor call
    annotate_concurrency: tuple = (1, 8)
    extract_concurrency: tuple = (1, 12)
    backend: object = "stub"       # name, or a backend instance
    backend_kwargs: Dict = field(default_factory=dict)
    annotator_kwargs: Dict = field(default_factory=dict)


@dataclass
class KGResult:
    extractions: "ray.data.Dataset"
    edges: "ray.data.Dataset"
    unary_nodes: "ray.data.Dataset"
    annotation_urls: "ray.data.Dataset"
    nodes: "ray.data.Dataset"
    # first-seen (entry_name, url) aggregate — a DATASET: nodes pick up
    # their URLs through keyed exchanges (stages/nodes.py), never a
    # driver-side dict (r3 verdict: the dict grew with the entity
    # vocabulary at web scale)
    annotation_url_agg: "ray.data.Dataset"


def run_extractions(
    documents: "ray.data.Dataset", cfg: Optional[KGConfig] = None
) -> "ray.data.Dataset":
    """documents → EXTRACTIONS dataset (the LLM-bearing prefix)."""
    cfg = cfg or KGConfig()
    return documents.map_batches(
        explode_spans, batch_format="pyarrow"
    ).map_batches(
        _annotate_extract_fn(cfg),
        batch_format="pyarrow",
        batch_size=cfg.batch_size,
    )


def _graph_inputs(extractions: "ray.data.Dataset"):
    """EXTRACTIONS → (edges, unary, annotation_urls), each typed even
    when empty.  One task per extraction block parses it into all three
    tables, so the BEL parse runs once per block however many consumers
    read them (canonicalization, the user's sinks), and their blocks stay
    in the object store as refs for the node layer's tasks."""
    tables = map_blocks(
        extractions,
        edge_stage.extractions_to_edges,
        edge_stage.extractions_to_unary_nodes,
        edge_stage.extractions_to_annotation_urls,
    )
    return tuple(
        dataset_of(blocks, schema) for blocks, schema in zip(
            tables,
            (schemas.EDGES, schemas.UNARY_NODES, schemas.ANNOTATION_URLS),
        )
    )


def run_graph_stages(extractions: "ray.data.Dataset") -> KGResult:
    """EXTRACTIONS → edges / unary / annotation_urls / canonical nodes.

    ``extractions`` fans out to four consumers; Ray Data re-executes a lazy
    lineage per consumer, which would re-invoke the (expensive) extraction
    tasks 4×.  We pin the LLM output once — it is orders of magnitude
    smaller than the input corpus, and in the checkpointed production
    path (pipelines/checkpoint.py) this is a parquet round-trip instead,
    so the LLM is never re-invoked either way.  An empty corpus yields
    one typed empty EXTRACTIONS block.
    """
    extractions = dataset_of(blocks_of(extractions)[0], schemas.EXTRACTIONS)
    edges, unary, ann_urls = _graph_inputs(extractions)
    nodes, url_agg = node_tables(edges, unary, ann_urls)
    return KGResult(
        extractions=extractions,
        edges=edges,
        unary_nodes=unary,
        annotation_urls=ann_urls,
        nodes=nodes,
        annotation_url_agg=url_agg,
    )


def run_kg_pipeline(
    documents: "ray.data.Dataset", cfg: Optional[KGConfig] = None
) -> KGResult:
    extractions = run_extractions(documents, cfg)
    return run_graph_stages(extractions)


def incremental_update(
    existing_nodes: "ray.data.Dataset",
    new_docs: "ray.data.Dataset",
    cfg: Optional[KGConfig] = None,
) -> KGResult:
    """Merge a NEW document shard into an existing graph WITHOUT
    re-invoking the LLM on old documents and WITHOUT renumbering: every
    existing node keeps its node_id verbatim; only surface forms never
    seen before get fresh dense ids after the existing maximum — the
    id-stability contract that lets daily ingest append to node/edge
    tables other systems already reference.

    Plan: the new shard runs the normal extraction prefix and the full
    build's name reduce (``first_seen_names``, which also yields the
    shard's URL aggregate); its names ANTI-join the existing node names
    (``utils.repartition_join``: both sides shuffle once on the name, and
    nothing is collected on the driver), and the survivors go through
    the full build's ``assign_node_ids`` from ``max(existing)+1``.
    The returned ``nodes`` is existing ∪ new: the blocks with rows of
    both, or one typed empty NODES block.  Edges/extractions in the
    result are the NEW shard's only — the caller appends them to its
    stores.
    """
    extractions = run_extractions(new_docs, cfg).materialize()
    edges, unary, ann_urls = _graph_inputs(extractions)
    names, url_agg = first_seen_names(edges, unary, ann_urls)

    existing_nodes = existing_nodes.materialize()
    fresh = repartition_join(
        names,
        existing_nodes.select_columns(["name"]),
        "name",
        "name",
        {f.name: f.type for f in NAMES},
        {"name": pa.string()},
        how="anti",
    )
    next_id = existing_nodes.max("node_id") if existing_nodes.count() else -1
    old, new = blocks_of(
        existing_nodes, assign_node_ids(fresh, offset=int(next_id) + 1)
    )
    merged = dataset_of(old + new, schemas.NODES)

    return KGResult(
        extractions=extractions,
        edges=edges,
        unary_nodes=unary,
        annotation_urls=ann_urls,
        nodes=merged,
        annotation_url_agg=url_agg,
    )
