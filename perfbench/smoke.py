#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload on a tiny input at one CPU.

    python3 perfbench/smoke.py

Each workload runs in its own process, pinned to one CPU (so is the Ray
instance it starts), through the traced path: an untraced,
correctness-checked sample plus the layered traced run.  A ``faulthandler``
watchdog turns a stall — e.g. actor pools holding the only CPU while the
tasks that feed them wait for it — into a stack dump on stderr and a
failure instead of a hang.  Exits 0 only if every workload passes its
correctness gate and reports every per-layer metric.
"""
from __future__ import annotations

import faulthandler
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WATCHDOG_S = 120
TINY = {
    "bio_stub": {"n_docs": 30, "samples": 1},
    "zipf_vocab": {"n_docs": 30, "vocab": 2000, "zipf_s": 1.1, "samples": 1},
    "ckpt_llm": {"n_docs": 30, "latency_ms": 1.0, "partitions": 4, "samples": 1},
}


def one(name: str) -> int:
    """Run workload ``name`` at one CPU; exit 0 iff it passes."""
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:1])
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True)
    from perfbench import run

    if run.NUM_CPUS != 1:
        raise RuntimeError(f"pinned to one CPU but run sees {run.NUM_CPUS}")
    run.PARAMS.update(TINY)
    spec = run.load_spec()
    tmp = os.path.join(run.RUN_DIR, f"r{os.getpid()}")
    wl = run.WORKLOADS[name](7, os.path.join(run.RUN_DIR, f"smoke-{name}"))
    import ray

    try:
        run.start_ray(1, tmp)
        run.warm_workers(1)
        wl.load()
        args = type("Args", (), {"seed": 7})()
        _, m, attempted, failed, _ = run.traced(wl, args, {})
    finally:
        ray.shutdown()
        shutil.rmtree(tmp, ignore_errors=True)
        shutil.rmtree(wl.work_dir, ignore_errors=True)
    missing = [x["name"] for x in spec["per_layer"] if x["name"] not in m]
    if missing:
        print(f"missing per-layer metrics: {', '.join(missing)}",
              file=sys.stderr)
    return 0 if failed == 0 and not missing else 1


def main() -> int:
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    if len(sys.argv) == 3 and sys.argv[1] == "--one":
        return one(sys.argv[2])
    failures = []
    for name in TINY:
        t = time.perf_counter()
        code = subprocess.run([sys.executable, os.path.abspath(__file__),
                               "--one", name], cwd=ROOT).returncode
        print(f"{name}: {'ok' if code == 0 else f'FAILED (exit {code})'} "
              f"in {time.perf_counter() - t:.1f}s", flush=True)
        if code:
            failures.append(name)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
