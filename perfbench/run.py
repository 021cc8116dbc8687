#!/usr/bin/env python3
"""Layered end-to-end benchmark of kgray's knowledge-graph pipeline.

    python3 perfbench/run.py --workload bio_stub --seed 1 --seconds 15 --trace 0

Run from the repository root.  Workloads (inputs are generated from
``--seed``; the program sees only the generated tables):

* ``bio_stub``   the ``kgray.corpus`` bio corpus through ``run_kg_pipeline``
                 with the stub backend; per-document layers dominate.
* ``zipf_vocab`` a corpus drawing names Zipf(1.1) from a 10^5-name
                 vocabulary; grounding with ``DictionaryAnnotator(vocab=…)``
                 and extraction with ``CooccurrenceBackend``, so grounding
                 and node canonicalization work at vocabulary scale.
* ``ckpt_llm``   ``run_checkpointed_kg`` on a bio corpus with a backend that
                 waits a fixed time per paragraph (a remote LLM stand-in);
                 each sample is a cold run, the loss of every stage's
                 manifests for a seeded quarter of the partitions, and a
                 resume.

``BENCHMARK.json`` lists bio_stub and zipf_vocab: a ckpt_llm sample (cold
run plus resume) costs about 40 s, which the run budget cannot repeat, so
its checkpoint and graph layers are traced as a probe in bio_stub's traced
run; ``--workload ckpt_llm`` still runs it on its own.  The CPU scaling
curve is ``perfbench/scaling.py``.

Every number is taken at ``num_cpus = len(os.sched_getaffinity(0))`` with
every ``KGConfig`` setting at its default; only the backend, the annotator
vocabulary and the checkpoint partition count define a workload.  Each
workload runs as one closed-loop batch job at a time from this process:
samples are taken back to back until ``--seconds`` have passed and the
workload's minimum sample count is reached, every sample is checked for
correctness, and each metric reports the median over the samples.

``--trace 0`` prints the end-to-end metrics (tracing off).  ``--trace 1``
runs the layers one by one, materializing at each boundary, and prints the
per-layer metrics; its spans and operator statistics are written to
``.perfbench_run/trace-<workload>-<seed>.json``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.

The work runs in a child process in its own session; the parent kills the
whole session if the child overruns, so no Ray process outlives a run.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

START = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_DIR = os.path.join(ROOT, ".perfbench_run")
NUM_CPUS = len(os.sched_getaffinity(0))
# One set-up per run: a second costs ~10 s, which the third bio_stub sample
# needs more (its pipeline wall time varies ±25% from sample to sample).
SETUPS = 1
CHILD_TIMEOUT_S = 170
TRACE_PROBE_BY_S = 90   # skip the checkpoint probe when started later

PARAMS = {
    "bio_stub": {"n_docs": 1000, "samples": 3},
    "zipf_vocab": {"n_docs": 120, "vocab": 100_000, "zipf_s": 1.1,
                   "samples": 2},
    "ckpt_llm": {"n_docs": 150, "latency_ms": 5.0, "partitions": 8,
                 "samples": 1},
}


# ---------------------------------------------------------------------------
# process, Ray and memory helpers
# ---------------------------------------------------------------------------

def start_ray(num_cpus: int, tmp_dir: str) -> None:
    import ray

    kwargs = {}
    # Ray's unix socket paths (< 108 bytes) live under the temp dir; keep
    # the session inside the checkout whenever the path is short enough.
    if len(tmp_dir) <= 40:
        os.makedirs(tmp_dir, exist_ok=True)
        kwargs["_temp_dir"] = tmp_dir
    ray.init(
        address="local", num_cpus=num_cpus, include_dashboard=False,
        logging_level="ERROR", log_to_driver=False,
        object_store_memory=1_000_000_000, **kwargs,
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def warm_workers(num_cpus: int) -> None:
    """Start a worker per CPU and import the package in each."""
    import ray.data

    ray.data.range(num_cpus * 2, override_num_blocks=num_cpus * 2) \
        .map_batches(_import_program, batch_format="pyarrow").materialize()


def _import_program(batch):
    import kgray.pipelines.checkpoint  # noqa: F401
    import kgray.pipelines.kg  # noqa: F401
    import perfbench.latency  # noqa: F401

    return batch


def reset_peak_rss() -> None:
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f))
        for d, _, files in os.walk(path) for f in files
    )


def host_block() -> dict:
    import platform

    import ray

    try:
        nproc = int(subprocess.run(["nproc"], capture_output=True,
                                   text=True, timeout=10).stdout)
    except (OSError, ValueError, subprocess.SubprocessError):
        nproc = None
    return {
        "num_cpus": NUM_CPUS, "nproc": nproc, "os_cpu_count": os.cpu_count(),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "machine": platform.machine(), "python": platform.python_version(),
        "ray": ray.__version__,
    }


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """One input set; ``load`` builds it, ``sample`` times one closed-loop
    run of the pipeline and checks its output (raising on a wrong one)."""

    name = ""

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir
        self.p = PARAMS[self.name]
        self.n_docs = self.p["n_docs"]
        self.input_path = os.path.join(work_dir, "input", "documents.parquet")

    def _write_input(self, docs) -> None:
        import pyarrow.parquet as pq

        os.makedirs(os.path.dirname(self.input_path), exist_ok=True)
        pq.write_table(docs, self.input_path)
        self.docs = docs

    def read_input(self):
        import ray.data

        return ray.data.read_parquet(self.input_path)

    def config(self, span_dir=None):
        raise NotImplementedError

    def load(self) -> None:
        raise NotImplementedError

    def sample(self, out_dir: str, index: int) -> dict:
        from kgray.pipelines.kg import run_kg_pipeline

        edges_dir = os.path.join(out_dir, "edges")
        nodes_dir = os.path.join(out_dir, "nodes")
        reset_peak_rss()
        t0 = time.perf_counter()
        res = run_kg_pipeline(self.read_input(), self.config())
        res.edges.write_parquet(edges_dir)
        res.nodes.write_parquet(nodes_dir)
        wall = time.perf_counter() - t0
        rss = peak_rss_mb()
        self.check(res, edges_dir, nodes_dir)
        return {"kg_wall_s": wall, "driver_rss_mb": rss}

    def check(self, res, edges_dir: str, nodes_dir: str) -> None:
        raise NotImplementedError


def to_table(ds):
    import pyarrow as pa
    import ray

    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


def read_dir(path: str, columns):
    import pyarrow.parquet as pq

    return pq.read_table(path, columns=list(columns))


def check_gold_edges(edges, gold) -> None:
    cols = ["doc_id", "span_seq", "subj", "pred", "obj"]
    got = set(zip(*[edges.column(c).to_pylist() for c in cols]))
    want = set(zip(*[gold.column(c).to_pylist() for c in cols]))
    hit = len(got & want)
    p = hit / len(got) if got else 0.0
    r = hit / len(want) if want else 0.0
    if p != 1.0 or r != 1.0:
        raise AssertionError(f"gold triples: precision {p}, recall {r}")


class BioStub(Workload):
    name = "bio_stub"

    def load(self):
        from perfbench.inputs import bio_documents

        docs, self.gold_edges, self.gold_unary = bio_documents(
            self.n_docs, self.seed)
        self._write_input(docs)

    def config(self, span_dir=None):
        return None  # every KGConfig default, stub backend

    def check(self, res, edges_dir, nodes_dir):
        from kgray.stages.chunk import check_span_invariant, reassemble_documents

        check_gold_edges(
            read_dir(edges_dir, ["doc_id", "span_seq", "subj", "pred", "obj"]),
            self.gold_edges)
        unary = res.unary_nodes.to_pandas()
        got = set(zip(unary.doc_id, unary.span_seq, unary.name))
        g = self.gold_unary
        want = set(zip(g.column("doc_id").to_pylist(),
                       g.column("span_seq").to_pylist(),
                       g.column("name").to_pylist()))
        if got != want:
            raise AssertionError(
                f"unary nodes: {len(got - want)} extra, {len(want - got)} missing")
        chunks = to_table(res.extractions.select_columns(
            ["doc_id", "span_seq", "kind", "text", "media_ref", "offset"]))
        check_span_invariant(self.docs, reassemble_documents(chunks))


class ZipfVocab(Workload):
    name = "zipf_vocab"

    def load(self):
        from perfbench import inputs

        names = inputs.zipf_names(self.p["vocab"], self.seed)
        self.vocab = inputs.zipf_vocab(names)
        docs = inputs.zipf_documents(self.n_docs, names, self.p["zipf_s"],
                                     self.seed)
        self._write_input(docs)
        self._names = names
        self._oracle = None

    def oracle(self):
        """(edges digest, nodes digest), computed on first use."""
        from perfbench import inputs

        if self._oracle is None:
            edges, nodes = inputs.zipf_oracle(self.docs, self._names)
            self._oracle = (
                inputs.digest(edges, EDGE_KEY, EDGE_KEY[:3]),
                inputs.digest(nodes, NODE_KEY, ["node_id"]),
            )
        return self._oracle

    def config(self, span_dir=None):
        from kgray.pipelines.kg import KGConfig
        from kgray.sources.generic import CooccurrenceBackend

        return KGConfig(backend=CooccurrenceBackend(),
                        annotator_kwargs={"vocab": self.vocab})

    def check(self, res, edges_dir, nodes_dir):
        from perfbench.inputs import digest

        want_edges, want_nodes = self.oracle()
        if digest(read_dir(edges_dir, EDGE_KEY), EDGE_KEY,
                  EDGE_KEY[:3]) != want_edges:
            raise AssertionError("edges differ from the oracle")
        if digest(read_dir(nodes_dir, NODE_KEY), NODE_KEY,
                  ["node_id"]) != want_nodes:
            raise AssertionError("nodes differ from the oracle")


EDGE_KEY = ["doc_id", "span_seq", "stmt_seq", "subj", "pred", "obj"]
NODE_KEY = ["node_id", "name", "url"]
GRAPH_KEY = ["doc_id", "cx2", "n_nodes", "n_edges"]


class CkptLLM(BioStub):
    name = "ckpt_llm"

    def config(self, span_dir=None):
        from kgray.pipelines.kg import KGConfig
        from perfbench.latency import LatencyBackend

        return KGConfig(backend=LatencyBackend(self.p["latency_ms"], span_dir))

    def run_checkpointed(self, ckpt_dir, tracer=None, resume=False):
        """``run_checkpointed_kg`` — or, under a tracer, the same four
        public stage calls it makes, each inside a span."""
        from kgray.pipelines import checkpoint as ck

        parts = self.p["partitions"]
        if tracer is None:
            return ck.run_checkpointed_kg(self.read_input(), ckpt_dir,
                                          num_partitions=parts,
                                          cfg=self.config())
        tag = ".resume" if resume else ""
        with tracer.watch_plans():
            with tracer.span("checkpoint.extractions"):
                ext = ck.run_checkpointed_extractions(
                    self.read_input(), ckpt_dir, num_partitions=parts,
                    cfg=self.config())
            tracer.collect("checkpoint.extractions" + tag)
            st = ck.load_state(ckpt_dir, parts)
            with tracer.span("checkpoint.graph_prep"):
                edges, unary, ann_urls = ck.run_checkpointed_graph_prep(st)
            tracer.collect("checkpoint.graph_prep" + tag)
            with tracer.span("checkpoint.nodes"):
                nodes, _ = ck.run_checkpointed_nodes(st, edges, unary,
                                                     ann_urls)
            tracer.collect("checkpoint.nodes" + tag)
            with tracer.span("graph"):
                graphs = ck.run_checkpointed_graphs(st)
            tracer.collect("graph" + tag)
        return ext, graphs

    def outputs(self, ckpt_dir):
        return (
            read_dir(os.path.join(ckpt_dir, "edges"),
                     ["doc_id", "span_seq", "stmt_seq", "subj", "pred", "obj"]),
            read_dir(os.path.join(ckpt_dir, "nodes"), NODE_KEY),
            read_dir(os.path.join(ckpt_dir, "graphs"), GRAPH_KEY),
        )

    def digests(self, ckpt_dir):
        from perfbench.inputs import digest

        e, n, g = self.outputs(ckpt_dir)
        return (digest(e, EDGE_KEY, EDGE_KEY[:3]),
                digest(n, NODE_KEY, ["node_id"]),
                digest(g, GRAPH_KEY, ["doc_id"]))

    def lose_quarter(self, ckpt_dir, index):
        """Delete every stage's manifests of a seeded quarter of the
        partitions; returns (lost partitions, lost spans, mtimes of the
        extraction manifests that stay)."""
        parts = self.p["partitions"]
        rng = random.Random(self.seed * 1009 + index)
        lost = sorted(rng.sample(range(parts), max(1, parts // 4)))
        mdir = os.path.join(ckpt_dir, "manifests")
        lost_spans = 0
        for pid in lost:
            with open(os.path.join(mdir, f"partition-{pid}.json")) as f:
                lost_spans += json.load(f)["n_spans"]
            for stage in ("", "graph_prep-", "graphs-"):
                os.remove(os.path.join(mdir, f"{stage}partition-{pid}.json"))
        kept = {
            name: os.stat(os.path.join(mdir, name)).st_mtime_ns
            for name in os.listdir(mdir) if name.startswith("partition-")
        }
        return lost, lost_spans, kept

    @staticmethod
    def reextracted_spans(ckpt_dir, kept) -> int:
        mdir = os.path.join(ckpt_dir, "manifests")
        n = 0
        for name in os.listdir(mdir):
            if not name.startswith("partition-"):
                continue
            if kept.get(name) == os.stat(os.path.join(mdir, name)).st_mtime_ns:
                continue
            with open(os.path.join(mdir, name)) as f:
                n += json.load(f)["n_spans"]
        return n

    def sample(self, out_dir, index, tracer=None):
        ckpt_dir = os.path.join(out_dir, "ckpt")
        reset_peak_rss()
        t0 = time.perf_counter()
        self.run_checkpointed(ckpt_dir, tracer)
        wall = time.perf_counter() - t0
        rss = peak_rss_mb()
        written = dir_bytes(ckpt_dir)
        edges, _, graphs = self.outputs(ckpt_dir)
        check_gold_edges(edges, self.gold_edges)
        cold = self.digests(ckpt_dir)

        lost, lost_spans, kept = self.lose_quarter(ckpt_dir, index)
        t0 = time.perf_counter()
        if tracer is None:
            self.run_checkpointed(ckpt_dir)
        else:
            with tracer.span("resume"):
                self.run_checkpointed(ckpt_dir, tracer, resume=True)
        resume = time.perf_counter() - t0
        ratio = self.reextracted_spans(ckpt_dir, kept) / lost_spans
        if self.digests(ckpt_dir) != cold:
            raise AssertionError("resumed outputs differ from the cold run")
        if ratio != 1.0:
            raise AssertionError(f"re-extracted / lost spans = {ratio}")
        return {"kg_wall_s": wall, "driver_rss_mb": rss, "resume_s": resume,
                "checkpoint.bytes_written": written,
                "checkpoint.reextract_ratio": ratio,
                "checkpoint.lost_partitions": lost,
                "graph.docs_out": graphs.num_rows}


WORKLOADS = {w.name: w for w in (BioStub, ZipfVocab, CkptLLM)}


# ---------------------------------------------------------------------------
# untraced closed loop
# ---------------------------------------------------------------------------

def closed_loop(wl: Workload, seconds: float):
    samples, attempted, failed = [], 0, 0
    t_end = time.perf_counter() + seconds
    while attempted < wl.p["samples"] or time.perf_counter() < t_end:
        attempted += 1
        out_dir = os.path.join(wl.work_dir, f"out{attempted}")
        try:
            samples.append(wl.sample(out_dir, attempted))
        except Exception:  # a failed sample counts toward fail_frac
            failed += 1
            traceback.print_exc()
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
    return samples, attempted, failed


def summarize(values):
    """median, plus the highest percentile with at least ten samples beyond
    it (None below 11 samples), and the sample count."""
    values = sorted(values)
    n = len(values)
    tail = None
    if n >= 11:
        pct = int(100 * (n - 10) / n)
        tail = (pct, values[min(n - 1, int(n * pct / 100))])
    return {"median": statistics.median(values) if values else None,
            "tail": tail, "n": n}


# ---------------------------------------------------------------------------
# traced, layered run
# ---------------------------------------------------------------------------

def layered_run(wl: Workload, tr, out_dir: str, span_dir=None) -> dict:
    """The pipeline's layers called one by one through their public
    functions, each materialized at its boundary inside a span."""
    import ray.data

    from kgray.pipelines.kg import KGConfig
    from kgray.stages import edges as edge_stage
    from kgray.stages.annotate import DictionaryAnnotator
    from kgray.stages.chunk import explode_spans
    from kgray.stages.extract import BELExtractor
    from kgray.stages.nodes import node_tables

    cfg = wl.config(span_dir) or KGConfig()
    t0 = time.perf_counter()
    with tr.watch_plans():
        with tr.span("sources"):
            docs = ray.data.read_parquet(wl.input_path).materialize()
        tr.collect("sources", docs)
        with tr.span("chunk"):
            chunks = docs.map_batches(explode_spans, batch_format="pyarrow") \
                .materialize()
        tr.collect("chunk", chunks)
        with tr.span("annotate"):
            annotated = chunks.map_batches(
                DictionaryAnnotator, batch_format="pyarrow",
                batch_size=cfg.batch_size, concurrency=cfg.annotate_concurrency,
                num_cpus=1, fn_constructor_kwargs=cfg.annotator_kwargs,
            ).materialize()
        tr.collect("annotate", annotated)
        with tr.span("extract"):
            ext = annotated.map_batches(
                BELExtractor, batch_format="pyarrow", batch_size=cfg.batch_size,
                concurrency=cfg.extract_concurrency, num_cpus=1,
                fn_constructor_kwargs={"backend": cfg.backend,
                                       **cfg.backend_kwargs},
            ).materialize()
        tr.collect("extract", ext)
        with tr.span("edges"):
            edges = ext.map_batches(edge_stage.extractions_to_edges,
                                    batch_format="pyarrow").materialize()
            unary = ext.map_batches(edge_stage.extractions_to_unary_nodes,
                                    batch_format="pyarrow").materialize()
            ann_urls = ext.map_batches(edge_stage.extractions_to_annotation_urls,
                                       batch_format="pyarrow").materialize()
        tr.collect("edges")
        with tr.span("nodes"):
            nodes, _ = node_tables(edges, unary, ann_urls)
            nodes = nodes.materialize()
        tr.collect("nodes", nodes)
        edges_dir = os.path.join(out_dir, "edges")
        nodes_dir = os.path.join(out_dir, "nodes")
        with tr.span("sink"):
            edges.write_parquet(edges_dir)
            nodes.write_parquet(nodes_dir)
        tr.collect("sink")
    wall = time.perf_counter() - t0
    return {"wall": wall, "cfg": cfg, "docs": docs, "chunks": chunks,
            "annotated": annotated, "ext": ext, "edges": edges,
            "unary": unary, "nodes": nodes, "edges_dir": edges_dir,
            "nodes_dir": nodes_dir}


def _sum_col(ds, fn, col):
    return int(ds.map_batches(fn, batch_format="pyarrow").sum(col) or 0)


def layer_counts(lr: dict) -> dict:
    import pyarrow as pa

    from kgray.stages.nodes import (SALT_MIN_ROWS, SALT_SHARE_THRESHOLD,
                                    edge_node_mentions, measure_top_key_share,
                                    unary_node_mentions)
    from perfbench import trace

    c = {}
    c["chunk.spans_out"] = lr["chunks"].count()
    c["chunk.admitted_out"] = _sum_col(lr["chunks"], trace.admitted_count, "n")
    c["annotate.mentions_out"] = _sum_col(lr["annotated"],
                                          trace.annotation_count, "n")
    counts = to_table(lr["ext"].map_batches(trace.extraction_counts,
                                            batch_format="pyarrow"))
    statements = int(pa.compute.sum(counts.column("statements")).as_py() or 0)
    with_stmt = int(pa.compute.sum(counts.column("with_statement")).as_py() or 0)
    c["extract.calls"] = c["chunk.admitted_out"]  # one call per paragraph
    c["extract.yield"] = with_stmt / max(1, c["extract.calls"])
    c["extract.quarantined"] = int(
        pa.compute.sum(counts.column("quarantined")).as_py() or 0)
    c["edges.edges_out"] = lr["edges"].count()
    c["edges.unary_out"] = lr["unary"].count()
    c["edges.unparseable"] = (statements - c["edges.edges_out"]
                              - c["edges.unary_out"])
    mentions = lr["edges"].map_batches(
        edge_node_mentions, batch_format="pyarrow"
    ).union(lr["unary"].map_batches(unary_node_mentions,
                                    batch_format="pyarrow")).materialize()
    c["nodes.mentions_rows"] = mentions.count()
    c["nodes.combine_ratio"] = (
        (2 * c["edges.edges_out"] + c["edges.unary_out"])
        / max(1, c["nodes.mentions_rows"]))
    c["nodes.distinct_names"] = lr["nodes"].count()
    share, _ = measure_top_key_share(mentions)
    c["nodes.max_partition_share"] = share
    c["nodes.salted"] = int(c["nodes.mentions_rows"] >= SALT_MIN_ROWS
                            and share > SALT_SHARE_THRESHOLD)
    return c


def kernel_floors(wl: Workload, cfg, reps: int = 3) -> dict:
    """Each layer's public batch function on one Arrow batch in this
    process, no Ray: the median of ``reps`` calls."""
    from kgray.stages import edges as edge_stage
    from kgray.stages.annotate import DictionaryAnnotator
    from kgray.stages.chunk import explode_spans
    from kgray.stages.extract import BELExtractor
    from kgray.stages.nodes import edge_node_mentions, unary_node_mentions

    def timed(fn, *args):
        times, out = [], None
        for _ in range(reps):
            t = time.perf_counter()
            out = fn(*args)
            times.append(time.perf_counter() - t)
        return statistics.median(times), out

    k = {}
    b = cfg.batch_size
    k["chunk.kernel_s"], chunks = timed(explode_spans, wl.docs.slice(0, b))
    chunks = chunks.slice(0, b)
    t = time.perf_counter()
    annotator = DictionaryAnnotator(**cfg.annotator_kwargs)
    k["annotate.init_s"] = time.perf_counter() - t
    k["annotate.kernel_s"], annotated = timed(annotator, chunks)
    extractor = BELExtractor(backend=cfg.backend, **cfg.backend_kwargs)
    k["extract.kernel_s"], ext = timed(extractor, annotated)

    def parse(batch):
        return (edge_stage.extractions_to_edges(batch),
                edge_stage.extractions_to_unary_nodes(batch),
                edge_stage.extractions_to_annotation_urls(batch))

    k["edges.kernel_s"], (edges, unary, _) = timed(parse, ext)
    k["nodes.kernel_s"], _ = timed(
        lambda: (edge_node_mentions(edges), unary_node_mentions(unary)))
    return k


def traced(wl: Workload, args, host: dict):
    """One untraced reference sample, then the layered traced run with its
    boundary counts and kernel floors, then the traced checkpoint cold run
    and resume where this workload carries it.  ``trace.overhead_s`` is the
    layered run's wall time minus the untraced sample's."""
    from perfbench.latency import in_flight_mean, read_call_spans
    from perfbench.trace import Tracer

    attempted, failed = 0, 0
    ref = None
    attempted += 1
    try:
        ref = wl.sample(os.path.join(wl.work_dir, "ref"), 0)
    except Exception:
        failed += 1
        traceback.print_exc()

    tr = Tracer(f"{wl.name}-{args.seed}-{os.getpid()}")
    m = {}
    span_dir = os.path.join(wl.work_dir, "calls")
    os.makedirs(span_dir, exist_ok=True)
    attempted += 1
    try:
        lr = layered_run(wl, tr, os.path.join(wl.work_dir, "layered"),
                         span_dir if wl.name == "ckpt_llm" else None)
        wl_check_layered(wl, lr)
        layers = ["sources", "chunk", "annotate", "extract", "edges",
                  "nodes", "sink"]
        m["sources.read_s"] = tr.duration("sources")
        m["sources.bytes"] = os.path.getsize(wl.input_path)
        for layer in ("chunk", "annotate", "extract", "edges", "nodes"):
            m[f"{layer}.busy_s"] = tr.busy_s(layer)
        m["nodes.span_s"] = tr.duration("nodes")
        ex = tr.exchanges("nodes")
        m["nodes.exchanges"] = len(ex)
        m["nodes.shuffle_bytes"] = sum(o["bytes"] for o in ex)
        m["sink.write_s"] = tr.duration("sink")
        m["sink.bytes"] = dir_bytes(lr["edges_dir"]) + dir_bytes(lr["nodes_dir"])
        pool = min(lr["cfg"].extract_concurrency[1], NUM_CPUS)
        m["extract.in_flight_mean"] = (m["extract.busy_s"]
                                       / max(1e-9, tr.duration("extract")))
        m["extract.pool_util"] = m["extract.in_flight_mean"] / pool
        with tr.span("counts"):
            m.update(layer_counts(lr))
        if wl.name == "ckpt_llm":
            calls = read_call_spans(span_dir)
            m["extract.backend_calls"] = len(calls)
            m["extract.calls_in_flight"] = in_flight_mean(calls)
            if len(calls) != m["extract.calls"]:
                raise AssertionError(
                    f"{len(calls)} backend calls for {m['extract.calls']} "
                    "admitted paragraphs")
        m["ray.sched_s"] = tr.sched_s
        m["ray.spilled_bytes"] = tr.spilled_bytes
        m["layered_wall_s"] = lr["wall"]
        m["remainder_s"] = lr["wall"] - sum(tr.duration(l) for l in layers)
        with tr.span("kernels"):
            m.update(kernel_floors(wl, lr["cfg"]))
    except Exception:
        failed += 1
        traceback.print_exc()

    # The checkpoint path (and its CX2 graphs) is traced in ckpt_llm's own
    # run and, as a probe with ckpt_llm's input, in bio_stub's, which shares
    # its corpus.  The probe is skipped when the run is already late, so a
    # slow host cannot push the run past its time limit.
    ckpt = wl if isinstance(wl, CkptLLM) else (
        CkptLLM(args.seed, os.path.join(wl.work_dir, "ckpt_probe"))
        if type(wl) is BioStub else None)
    if ckpt is not None and ckpt is not wl and (
            time.perf_counter() - START > TRACE_PROBE_BY_S):
        print("checkpoint probe skipped: run already late", file=sys.stderr)
        ckpt = None
    if ckpt is not None:
        attempted += 1
        try:
            if ckpt is not wl:
                ckpt.load()
            s = ckpt.sample(os.path.join(wl.work_dir, "traced_ckpt"), 1, tr)
            for stage in ("checkpoint.extractions", "checkpoint.graph_prep",
                          "checkpoint.nodes", "graph"):
                m[f"{stage}_s"] = tr.duration(stage, parent=None)
                m[f"{stage}.resume_s"] = tr.duration(stage, parent="resume")
            m["graph.docs_out"] = s["graph.docs_out"]
            m["graph.busy_s"] = tr.busy_s("graph")
            cold = [o for o in tr.ops if o["layer"].startswith("checkpoint.")
                    and not o["layer"].endswith(".resume")]
            m["checkpoint.write_s"] = sum(o["wall_s"] for o in cold
                                          if o["operator"].startswith("Write"))
            m["checkpoint.read_s"] = sum(
                o["wall_s"] for o in tr.ops
                if o["layer"].endswith(".resume")
                and o["operator"].startswith("ReadParquet"))
            m["resume_s"] = s["resume_s"]
            m["checkpoint.bytes_written"] = s["checkpoint.bytes_written"]
            m["checkpoint.reextract_ratio"] = s["checkpoint.reextract_ratio"]
            m["checkpoint.cold_s"] = s["kg_wall_s"]
        except Exception:
            failed += 1
            traceback.print_exc()
    traced_wall = m.get("checkpoint.cold_s" if ckpt is wl else "layered_wall_s")
    if ref and traced_wall is not None:
        m["trace.overhead_s"] = traced_wall - ref["kg_wall_s"]
    if ref:
        m["untraced_kg_wall_s"] = ref["kg_wall_s"]

    extra = {"host": host, "workload": wl.name, "seed": args.seed,
             "params": PARAMS[wl.name], "metrics": m}
    return tr, m, attempted, failed, extra


def wl_check_layered(wl: Workload, lr: dict) -> None:
    """The layered run's outputs pass the workload's own gate."""
    if isinstance(wl, ZipfVocab):
        wl.check(None, lr["edges_dir"], lr["nodes_dir"])
    else:
        check_gold_edges(
            read_dir(lr["edges_dir"],
                     ["doc_id", "span_seq", "subj", "pred", "obj"]),
            wl.gold_edges)


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def child(args) -> int:
    import faulthandler

    faulthandler.dump_traceback_later(CHILD_TIMEOUT_S - 10, exit=False)
    spec = load_spec()
    work = os.path.join(RUN_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    wl = WORKLOADS[args.workload](args.seed, work)
    setup_s = []
    import ray

    try:
        for i in range(SETUPS):
            t = time.perf_counter()
            start_ray(NUM_CPUS, os.path.join(RUN_DIR, f"r{os.getpid()}"))
            warm_workers(NUM_CPUS)
            wl.load()
            setup_s.append(time.perf_counter() - t)
            if i < SETUPS - 1:
                ray.shutdown()
        host = host_block()
        if args.trace:
            tr, m, attempted, failed, extra = traced(wl, args, host)
        else:
            samples, attempted, failed = closed_loop(wl, args.seconds)
    finally:
        ray.shutdown()
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(os.path.join(RUN_DIR, f"r{os.getpid()}"),
                      ignore_errors=True)

    print(f"host {json.dumps(host)}")
    print(f"workload {wl.name} seed {args.seed} docs {wl.n_docs} "
          f"params {json.dumps(PARAMS[wl.name])}")
    print(f"fail_frac {failed / attempted:.4f} ({failed}/{attempted})")
    if args.trace:
        extra["setup_s"] = setup_s
        os.makedirs(RUN_DIR, exist_ok=True)
        trace_path = os.path.join(
            RUN_DIR, f"trace-{wl.name}-{args.seed}.json")
        tr.write(trace_path, extra)
        for k in sorted(m):
            print(f"layer {k} {m[k]}")
        print(f"trace written to {os.path.relpath(trace_path, ROOT)}")
        metrics = {x["name"]: {"value": m.get(x["name"]), "unit": x["unit"]}
                   for x in spec["per_layer"]}
        ok = failed == 0 and all(v["value"] is not None
                                 for v in metrics.values())
    else:
        walls = [s["kg_wall_s"] for s in samples]
        report = {"setup_s": setup_s, "kg_wall_s": walls,
                  "docs_per_s": [wl.n_docs / w for w in walls],
                  "driver_rss_mb": [s["driver_rss_mb"] for s in samples]}
        if wl.name == "ckpt_llm":
            report["resume_s"] = [s["resume_s"] for s in samples]
            report["checkpoint.reextract_ratio"] = [
                s["checkpoint.reextract_ratio"] for s in samples]
        units = {x["name"]: x["unit"] for x in spec["end_to_end"]}
        units["resume_s"] = "s"
        for k, vals in report.items():
            sm = summarize(vals)
            tail = (f"p{sm['tail'][0]} {sm['tail'][1]:.4f}" if sm["tail"]
                    else "no percentile with 10 samples beyond it")
            print(f"metric {k} median {sm['median']} {units.get(k, '')} "
                  f"(n={sm['n']}; {tail}; samples "
                  f"{' '.join(f'{v:.4g}' for v in vals)})")
        metrics = {x["name"]: {"value": summarize(report[x["name"]])["median"],
                               "unit": x["unit"]} for x in spec["end_to_end"]}
        ok = failed == 0 and bool(samples)
    print(json.dumps({"correct": ok, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


def supervise(argv) -> int:
    """Run the benchmark in a child session; kill the whole session if it
    overruns, and wait until every process in it has ended."""
    proc = subprocess.Popen([sys.executable, os.path.abspath(__file__),
                             "--child", *argv], cwd=ROOT,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"benchmark overran {CHILD_TIMEOUT_S}s; stopped",
              file=sys.stderr)
        code = 3
    # anything still alive in the child's session (Ray daemons, workers)
    deadline = time.time() + 15
    while time.time() < deadline:
        if proc.poll() is None:
            proc.kill()
        left = session_members(proc.pid)
        if not left and proc.poll() is not None:
            break
        for pid in left:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        time.sleep(0.2)
    proc.wait()
    return code


def session_members(sid: int) -> list:
    """Live (non-zombie) processes of session ``sid``."""
    out = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # fields after the command: state, ppid, pgrp, session, ...
        if fields[0] != "Z" and int(fields[3]) == sid:
            out.append(int(name))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "kgray", "pipelines", "kg.py")):
        print("kgray package not found next to perfbench/; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")
    os.environ.setdefault("RAY_DATA_DISABLE_PROGRESS_BARS", "1")
    if args.child:
        return child(args)
    return supervise(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
