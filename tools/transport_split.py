"""Time ``engine.run_process`` per process for two source trees, with and
without glibc heap trimming pinned.

Each child interpreter imports ``flowsearch`` as the benchmark's workloads
module does (``analytic_flow, engine, harness, interpolants``, then
``rng``), builds the five plans, and runs the marginal-transport pass: for
each process in ``PROCESS_NAMES`` order, ``ROWS`` trajectories of the
benchmark mixture over ``STEPS`` intervals, from ``stream(SEED, INIT, i)``
through ``stream(SEED, PROCESS, i)``.  One warm-up pass is discarded; per
process, and for the whole pass, the child reports the fastest of
``PASSES`` timed passes, which sheds most interference from other work on
the host, and the median count of minor page faults a pass took
(``getrusage``), which does not depend on the host's load at all.  It also reports its peak resident set
(``ru_maxrss``), the measure marginal-transport's ``peak_rss_mb`` takes.

Glibc returns freed heap memory to the system when its top exceeds
``M_TRIM_THRESHOLD``, which it adjusts as the program frees large blocks, so
whether a few-hundred-KB temporary costs fresh pages depends on the order
and count of the arrays a step allocates.  Each tree therefore runs under
the default allocator and with the heap pinned: ``PINNED`` set in the
child's environment.  Setting the trim threshold alone also freezes the
mmap threshold at its 128 KB start, so every array of 10^4 rows is mapped
afresh and a pass runs about twice as slow; the pinned mmap threshold
keeps such arrays on the heap.

Children run in ``PAIRS`` pairs per mode, A then B and B then A in turn,
so drift in the host's speed falls on both trees alike.  The output is one
line per (mode, process): both trees' medians and ranges over the pairs,
in ms, the median of the paired ratios B/A, and both trees' median page
faults per pass.  A ``whole pass`` line per mode does the same for the
five processes timed together, the pass the benchmark times (each child's
fastest whole pass, not a sum of per-process minima), and a ``peak RSS``
line gives both trees' median peak resident set in MB (about a minute in
all).

    python tools/transport_split.py --a /path/to/parent/src --b src

It needs only numpy; nothing in ``src/`` or ``bench/`` imports it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROWS, STEPS, SEED = 10_000, 100, 0  # the marginal-transport pass
PAIRS, PASSES = 4, 4
PINNED = {"MALLOC_TRIM_THRESHOLD_": str(128 << 20), "MALLOC_MMAP_THRESHOLD_": str(32 << 20)}

CHILD = r"""
import json, resource, statistics, sys, time
src, rows, steps, passes, seed = sys.argv[1], *map(int, sys.argv[2:6])
sys.path.insert(0, src)
import numpy as np
from flowsearch import analytic_flow, engine, harness, interpolants
from flowsearch import rng as streams

gmm = analytic_flow.default_benchmark_gmm()
plans = [engine.make_plan(p, steps) for p in engine.PROCESS_NAMES]
names = [plan.process for plan in plans] + ["whole pass"]
times = {name: [] for name in names}
faults = {name: [] for name in names}
for k in range(passes + 1):
    pass_minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    pass_start = time.perf_counter()
    for i, plan in enumerate(plans):
        x1 = streams.stream(seed, streams.INIT, i).standard_normal((rows, gmm.dim))
        velocity = lambda x, t, sched=plan.src_schedule: analytic_flow.velocity_at(gmm, sched, t, x)
        minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        engine.run_process(plan, x1, streams.stream(seed, streams.PROCESS, i), velocity)
        if k:
            times[plan.process].append(time.perf_counter() - start)
            faults[plan.process].append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - minflt)
    if k:
        times["whole pass"].append(time.perf_counter() - pass_start)
        faults["whole pass"].append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - pass_minflt)
print(json.dumps({"times": {p: (min(times[p]), statistics.median(faults[p])) for p in times},
                  "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""


def _child(src: str, pinned: bool) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    if pinned:
        env.update(PINNED)
    cmd = [sys.executable, "-c", CHILD, src, *map(str, (ROWS, STEPS, PASSES, SEED))]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", required=True, help="first source tree (the baseline)")
    parser.add_argument("--b", required=True, help="second source tree")
    args = parser.parse_args(argv)
    trees = {"A": str(Path(args.a).resolve()), "B": str(Path(args.b).resolve())}
    print(f"A = {trees['A']}\nB = {trees['B']}\n"
          f"{ROWS} rows, {STEPS} steps, {PAIRS} pairs x {PASSES} passes")
    for mode, pinned in (("default", False), ("pinned", True)):
        runs = {"A": [], "B": []}
        for pair in range(PAIRS):
            for name in ("AB" if pair % 2 == 0 else "BA"):
                runs[name].append(_child(trees[name], pinned))
        for label in runs["A"][0]["times"]:
            a, b = ([r["times"][label][0] * 1e3 for r in runs[name]] for name in "AB")
            fa, fb = (statistics.median(r["times"][label][1] for r in runs[name]) for name in "AB")
            ratio = statistics.median(y / x for x, y in zip(a, b))
            print(f"{mode:8s} {label:28s} A {statistics.median(a):6.1f} "
                  f"[{min(a):.1f}, {max(a):.1f}]  B {statistics.median(b):6.1f} "
                  f"[{min(b):.1f}, {max(b):.1f}] ms  B/A {ratio:.3f}  "
                  f"faults A {fa:.0f} B {fb:.0f}")
        ra, rb = (statistics.median(r["maxrss_mb"] for r in runs[name]) for name in "AB")
        print(f"{mode:8s} {'peak RSS':28s} A {ra:6.2f}  B {rb:6.2f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
