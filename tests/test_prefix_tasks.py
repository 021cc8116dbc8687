"""The extraction prefix runs as plain Ray tasks with a per-worker stage
cache: the pipeline finishes at 1 and 2 CPUs on parquet input, each worker
process builds the grounder and extractor once per run, and the task
payload carries a ref to the run's spec, not the vocabulary."""
import os
import pickle
import signal
import subprocess
import sys
from collections import Counter

import pytest
import ray
import ray.data

from kgray.corpus import generate_documents
from kgray.pipelines.kg import KGConfig, _annotate_extract_fn, run_extractions
from kgray.stages.chunk import explode_spans
from kgray.testing import BuildMarkerBackend

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WATCHDOG_S = 120

# Runs in its own process and Ray instance: gold corpus → parquet →
# read_parquet → run_kg_pipeline, checked gold-exact.  The read task is the
# one that starved behind actor pools below 4 CPUs.
_LOW_CPU_RUN = """
import faulthandler, sys
faulthandler.dump_traceback_later(float(sys.argv[3]), exit=True)
import pyarrow as pa
import pyarrow.parquet as pq
import ray, ray.data
from ray.data import DataContext
from kgray.corpus import generate_documents
from kgray.pipelines.kg import run_kg_pipeline
from kgray.stages.chunk import check_span_invariant, reassemble_documents

num_cpus, work = int(sys.argv[1]), sys.argv[2]
ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
         logging_level="ERROR", object_store_memory=300_000_000)
DataContext.get_current().enable_progress_bars = False
docs, gold, gold_unary = generate_documents(30, seed=42)
for i in range(3):
    pq.write_table(docs.slice(10 * i, 10), f"{work}/part-{i}.parquet")
res = run_kg_pipeline(ray.data.read_parquet(work))

def rows(t, cols):
    return set(zip(*[t.column(c).to_pylist() for c in cols]))

e = res.edges.to_pandas()
assert set(zip(e.doc_id, e.span_seq, e.subj, e.pred, e.obj)) == rows(
    gold, ["doc_id", "span_seq", "subj", "pred", "obj"]), "edges"
u = res.unary_nodes.to_pandas()
assert set(zip(u.doc_id, u.span_seq, u.name)) == rows(
    gold_unary, ["doc_id", "span_seq", "name"]), "unary nodes"
chunk_cols = ["doc_id", "span_seq", "kind", "text", "media_ref", "offset"]
ext = res.extractions.to_pandas()[chunk_cols]
check_span_invariant(
    docs, reassemble_documents(pa.Table.from_pandas(ext, preserve_index=False)))
ray.shutdown()
"""


def _kill_session(sid: int) -> None:
    """SIGKILL what is left of session ``sid`` (Ray daemons of a child that
    the watchdog stopped)."""
    from perfbench.run import session_members

    for pid in session_members(sid):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


@pytest.mark.parametrize("num_cpus", [1, 2])
def test_pipeline_runs_on_parquet_at_low_cpu(tmp_path, num_cpus):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.Popen(
        [sys.executable, "-c", _LOW_CPU_RUN, str(num_cpus), str(tmp_path),
         str(WATCHDOG_S)],
        cwd=ROOT, env=env, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=WATCHDOG_S + 60)
    finally:
        proc.kill()
        _kill_session(proc.pid)
    assert proc.returncode == 0, out[-4000:]


def test_one_stage_build_per_worker_process_per_run(tmp_path):
    docs, _, _ = generate_documents(32, seed=3)
    blocks = [docs.slice(i, 2) for i in range(0, 32, 2)]  # 16 blocks
    marker = str(tmp_path / "markers")
    for run in ("a", "b"):
        cfg = KGConfig(batch_size=8, backend=BuildMarkerBackend(marker, run))
        assert run_extractions(ray.data.from_arrow(blocks), cfg).count() > 0
    builds, calls = Counter(), Counter()
    for name in os.listdir(marker):
        kind, pid, run, _ = name.split("-")
        (builds if kind == "build" else calls)[(pid, run)] += 1
    assert builds and max(builds.values()) == 1, builds
    assert {run for _, run in builds} == {"a", "b"}
    # the cache was used: some process ran several batches of one run
    assert max(calls.values()) >= 2, calls


def test_stage_cache_rebuilds_for_a_new_run(tmp_path):
    docs, _, _ = generate_documents(4, seed=3)
    batch = explode_spans(docs)
    marker = str(tmp_path / "markers")
    fn_a, fn_b = (
        _annotate_extract_fn(KGConfig(backend=BuildMarkerBackend(marker, r)))
        for r in ("a", "b")
    )
    for fn in (fn_a, fn_a, fn_b, fn_b):
        fn(batch)
    builds = Counter(n.split("-")[2] for n in os.listdir(marker)
                     if n.startswith("build-"))
    assert builds == {"a": 1, "b": 1}


def test_task_payload_does_not_grow_with_vocabulary():
    from perfbench.inputs import zipf_names, zipf_vocab

    big = KGConfig(annotator_kwargs={
        "vocab": zipf_vocab(zipf_names(100_000, 1))})
    assert len(pickle.dumps(big.annotator_kwargs)) > 1_000_000

    def payload(cfg):
        return len(ray.cloudpickle.dumps(_annotate_extract_fn(cfg)))

    assert abs(payload(big) - payload(KGConfig())) <= 1024
