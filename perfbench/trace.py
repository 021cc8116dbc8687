"""Benchmark-side tracing: spans around layer calls, and per-operator stats.

Spans (name, start, end, parent, run id) are kept in memory and written
once, at exit.  Operator statistics come from walking the stats summary
(what ``Dataset._get_stats_summary()`` returns) of each dataset the
benchmark materializes at a layer boundary, following ``parents`` through
earlier ``materialize()`` barriers, and of every plan the program executed
inside the layer (``watch_plans``), which catches the barriers a layer cuts
itself.  Each executed operator is counted once and credited to the layer
whose boundary first reached it.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

import pyarrow as pa
import pyarrow.compute as pc

# Sort-based all-to-all operators report their phases as sub-operators
# (RepartitionSplit/RepartitionReduce, SortMap/SortReduce, ...); hash-based
# ones report as a single operator.
_HASH_EXCHANGES = ("HashShuffle", "Join", "HashAggregate")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.t0 = time.perf_counter()
        self.spans: List[dict] = []
        self.ops: List[dict] = []
        self.sched_s = 0.0
        self.spilled_bytes = 0
        self._stack: List[str] = []
        self._plans: list = []
        self._seen_timers = {}
        self._seen_ops = set()

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        start = time.perf_counter() - self.t0
        self._stack.append(name)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans.append({
                "name": name, "start": start,
                "end": time.perf_counter() - self.t0,
                "parent": parent, "run_id": self.run_id,
            })

    def duration(self, name: str, parent="any") -> float:
        """Summed length of the spans called ``name`` (under ``parent``,
        when one is given)."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name
                   and (parent == "any" or s["parent"] == parent))

    @contextmanager
    def watch_plans(self):
        """Record every Ray Data plan executed inside the block, so that
        barriers the program cuts itself (``materialize()``, or blocks
        rebuilt with ``from_arrow_refs``) still reach ``collect``."""
        from ray.data._internal.plan import ExecutionPlan

        originals = {n: getattr(ExecutionPlan, n)
                     for n in ("execute", "execute_to_iterator")}

        def wrap(fn):
            def recorded(plan, *args, **kwargs):
                self._plans.append(plan)
                return fn(plan, *args, **kwargs)
            return recorded

        for n, fn in originals.items():
            setattr(ExecutionPlan, n, wrap(fn))
        try:
            yield
        finally:
            for n, fn in originals.items():
                setattr(ExecutionPlan, n, fn)

    def collect(self, layer: str, ds=None) -> None:
        """Credit every not-yet-seen executed operator behind ``ds`` and
        the plans executed since the last call to ``layer``."""
        plans, self._plans = self._plans, []
        if ds is not None:
            plans.append(ds._plan)
        for plan in plans:
            stats = plan.stats()
            # one timer per execution, shared by every stats copy of it
            timer = stats.streaming_exec_schedule_s
            if timer is not None and id(timer) not in self._seen_timers:
                self._seen_timers[id(timer)] = timer
                self.sched_s += timer.get()
            self._walk(layer, stats.to_summary())

    def _walk(self, layer: str, summary) -> None:
        for parent in summary.parents or []:
            self._walk(layer, parent)
        self.spilled_bytes = max(self.spilled_bytes,
                                 int(summary.global_bytes_spilled or 0))
        for o in summary.operators_stats:
            key = (o.operator_name, o.earliest_start_time, o.latest_end_time)
            if key in self._seen_ops or not o.latest_end_time:
                continue
            self._seen_ops.add(key)
            self.ops.append({
                "layer": layer,
                "operator": o.operator_name,
                "sub": bool(o.is_sub_operator),
                "wall_s": _total(o.wall_time),
                "cpu_s": _total(o.cpu_time),
                "rows": int(_total(o.output_num_rows)),
                "bytes": int(_total(o.output_size_bytes)),
            })

    def busy_s(self, layer: str) -> float:
        """Summed task wall time of the layer's operators."""
        return sum(o["wall_s"] for o in self.ops if o["layer"] == layer)

    def exchanges(self, layer: str) -> List[dict]:
        """The layer's all-to-all exchanges, one entry (its reduce side)
        per exchange executed."""
        return [
            o for o in self.ops
            if o["layer"] == layer and (
                (o["sub"] and o["operator"].endswith("Reduce"))
                or (not o["sub"] and o["operator"].split("(")[0]
                    in _HASH_EXCHANGES))
        ]

    def write(self, path: str, extra: Optional[Dict] = None) -> None:
        with open(path, "w") as f:
            json.dump({"run_id": self.run_id, "spans": self.spans,
                       "operators": self.ops, **(extra or {})}, f, indent=1)


def _total(stat) -> float:
    if not stat:
        return 0.0
    return float(stat.get("sum", 0.0) or 0.0)


# -- batch functions for the counts taken at layer boundaries ---------------

def admitted_count(batch: pa.Table) -> pa.Table:
    return pa.table({"n": [pc.sum(batch.column("admitted").cast(pa.int64()))
                           .as_py() or 0]})


def annotation_count(batch: pa.Table) -> pa.Table:
    lens = pc.list_value_length(batch.column("annotations")).fill_null(0)
    return pa.table({"n": [pc.sum(lens).as_py() or 0]})


def extraction_counts(batch: pa.Table) -> pa.Table:
    """statements, paragraphs with a statement, quarantined rows."""
    lens = pc.list_value_length(batch.column("results")).fill_null(0)
    return pa.table({
        "statements": [pc.sum(lens).as_py() or 0],
        "with_statement": [pc.sum(pc.greater(lens, 0).cast(pa.int64()))
                           .as_py() or 0],
        "quarantined": [pc.sum(pc.is_valid(batch.column("extract_error"))
                               .cast(pa.int64())).as_py() or 0],
    })
