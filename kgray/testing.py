"""Test-support helpers that must be importable by Ray worker processes.

Backends in a run's spec are pickled BY REFERENCE to their class; anything
defined in a pytest test module cannot be imported on workers (pytest's
import magic gives those modules names workers don't know), so worker-bound
test doubles live here instead.
"""
from __future__ import annotations

import os
import uuid

from .stages.extract import StubBackend


class MarkerBackend:
    """StubBackend that drops a marker file per extract_batch invocation —
    lets tests detect whether the extractor actually ran on the workers."""

    def __init__(self, marker_dir: str):
        self._inner = StubBackend()
        self._dir = marker_dir
        os.makedirs(marker_dir, exist_ok=True)

    def extract_batch(self, texts, annotations):
        with open(os.path.join(self._dir, uuid.uuid4().hex), "w") as f:
            f.write(str(len(texts)))
        return self._inner.extract_batch(texts, annotations)


class KillOnceBackend:
    """StubBackend wrapper that HARD-KILLS the hosting worker process
    (os._exit — no exception, no cleanup, exactly how OOM-killers and
    preemptions look to Ray) on the first extract_batch call anywhere.
    The flag file makes every retry of the task — on another worker
    process — succeed."""

    def __init__(self, flag_path: str):
        self._inner = StubBackend()
        self._flag = flag_path

    def extract_batch(self, texts, annotations):
        if not os.path.exists(self._flag):
            with open(self._flag, "w") as f:
                f.write("killed")
            os._exit(1)
        return self._inner.extract_batch(texts, annotations)


class BuildMarkerBackend:
    """StubBackend that drops a ``build-<pid>-<run>-<uuid>`` marker file
    each time it is unpickled, and a ``call-<pid>-<run>-<uuid>`` one per
    extract_batch.  A worker unpickles the run's spec once per stage build,
    so the build markers count builds per worker process and run."""

    def __init__(self, marker_dir: str, run: str):
        self._inner = StubBackend()
        self._dir = marker_dir
        self._run = run
        os.makedirs(marker_dir, exist_ok=True)

    def _mark(self, kind: str) -> None:
        name = f"{kind}-{os.getpid()}-{self._run}-{uuid.uuid4().hex}"
        open(os.path.join(self._dir, name), "w").close()

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._mark("build")

    def extract_batch(self, texts, annotations):
        self._mark("call")
        return self._inner.extract_batch(texts, annotations)


class KillOnceReduce:
    """Reduce-function wrapper that HARD-KILLS the hosting worker process
    (os._exit, as in ``KillOnceBackend``) on its first call anywhere,
    then calls ``fn``.  The flag file makes the retried reduce task — on
    another worker process — succeed."""

    def __init__(self, flag_path: str, fn):
        self._flag = flag_path
        self._fn = fn

    def __call__(self, table):
        if not os.path.exists(self._flag):
            with open(self._flag, "w") as f:
                f.write("killed")
            os._exit(1)
        return self._fn(table)
