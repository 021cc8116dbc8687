#!/usr/bin/env python3
"""CPU scaling curve of the bio_stub workload (informational, not gated).

    python3 perfbench/scaling.py --seed 1

Runs one bio_stub sample at 1, 2, 4, … CPUs (up to the CPUs this process
may use), each leg a fresh process pinned with ``os.sched_setaffinity`` and
running its own Ray instance, and prints docs/s and parallel efficiency
against the smallest leg that finished.  A leg that stalls is stopped by a
watchdog and reported as an error.  It is kept out of ``run.py --trace 1``
because its legs alone can take most of a run's 180 s limit.
"""
from __future__ import annotations

import argparse
import faulthandler
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LEG_TIMEOUT_S = 60


def leg(n: int, seed: int) -> None:
    # a stalled leg exits; its Ray daemons die with it (parent-death signal)
    faulthandler.dump_traceback_later(LEG_TIMEOUT_S - 5, exit=True)
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:n])
    from perfbench import run

    work = os.path.join(run.RUN_DIR, f"leg{n}-{os.getpid()}")
    tmp = os.path.join(run.RUN_DIR, f"r{os.getpid()}")
    import ray

    try:
        run.start_ray(n, tmp)
        run.warm_workers(n)
        wl = run.BioStub(seed, work)
        wl.load()
        s = wl.sample(os.path.join(work, "out"), 0)
        print(json.dumps({"cpus": n, "kg_wall_s": s["kg_wall_s"],
                          "docs_per_s": wl.n_docs / s["kg_wall_s"]}))
    finally:
        ray.shutdown()
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(tmp, ignore_errors=True)


def curve(seed: int) -> list:
    n_max = len(os.sched_getaffinity(0))
    legs, n = [], 1
    while n < n_max:
        legs.append(n)
        n *= 2
    legs.append(n_max)
    out = []
    for n in legs:
        try:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--leg", str(n),
                 "--seed", str(seed)],
                capture_output=True, text=True, timeout=LEG_TIMEOUT_S,
                cwd=ROOT,
            )
        except subprocess.SubprocessError as e:
            out.append({"cpus": n, "error": f"{type(e).__name__}: {e}"})
            continue
        if proc.returncode == 0:
            out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        else:
            stalled = "Timeout" in proc.stderr
            out.append({"cpus": n, "error": (
                f"stalled, stopped after {LEG_TIMEOUT_S - 5}s" if stalled
                else f"exit {proc.returncode}: "
                + (proc.stderr.strip().splitlines() or [""])[-1])})
    done = [x for x in out if "docs_per_s" in x]
    for x in done:
        x["efficiency"] = (x["docs_per_s"] * done[0]["cpus"]
                           / (done[0]["docs_per_s"] * x["cpus"]))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--leg", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args()
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    if args.leg:
        leg(args.leg, args.seed)
        return 0
    for x in curve(args.seed):
        print(json.dumps(x), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
