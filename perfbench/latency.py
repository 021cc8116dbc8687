"""Latency-bound extraction backend for the ``ckpt_llm`` workload.

Stands in for a remote OpenAI-compatible endpoint: like
``OpenAIChatBackend`` it makes one call per paragraph, in sequence, and each
call takes a fixed time.  The wait is a ``time.sleep``, so it uses no
network and almost no CPU; the statements returned are those of
``StubBackend``, so the gold triples of the bio corpus still hold.

With ``span_dir`` set, every call is recorded as a (start, end) wall-clock
span and each batch's spans are appended to ``span_dir/<pid>.txt``; the
benchmark reads them back to count calls and compute how many calls were in
flight on average.
"""
from __future__ import annotations

import os
import time
from typing import List, Optional, Tuple

from kgray.stages.extract import StubBackend


class LatencyBackend:
    def __init__(self, latency_ms: float, span_dir: Optional[str] = None):
        self._latency_s = latency_ms / 1000.0
        self._span_dir = span_dir
        self._stub = StubBackend()

    def extract_batch(self, texts, annotations):
        out = []
        spans: List[Tuple[float, float]] = []
        for text, anns in zip(texts, annotations):
            t0 = time.time()
            time.sleep(self._latency_s)
            out.extend(self._stub.extract_batch([text], [anns]))
            spans.append((t0, time.time()))
        if self._span_dir and spans:
            path = os.path.join(self._span_dir, f"{os.getpid()}.txt")
            with open(path, "a") as f:
                f.writelines(f"{a:.6f} {b:.6f}\n" for a, b in spans)
        return out


def read_call_spans(span_dir: str) -> List[Tuple[float, float]]:
    """All (start, end) call spans recorded under ``span_dir``."""
    spans = []
    if os.path.isdir(span_dir):
        for name in sorted(os.listdir(span_dir)):
            with open(os.path.join(span_dir, name)) as f:
                for line in f:
                    a, b = line.split()
                    spans.append((float(a), float(b)))
    return spans


def in_flight_mean(spans: List[Tuple[float, float]]) -> float:
    """Mean number of calls in flight between the first start and last end."""
    if not spans:
        return 0.0
    window = max(b for _, b in spans) - min(a for a, _ in spans)
    return sum(b - a for a, b in spans) / window if window > 0 else 0.0
