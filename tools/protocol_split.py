"""Time the diversity protocol's noise draws for two source trees: the
cold per-interval branch block and ``harness.branched_proposals`` per noisy
process, cold and warm.

Each child interpreter imports ``flowsearch`` from its tree and times, over
seeds ``SEEDS`` of the benchmark mixture at ``STEPS`` steps:

* ``branch block``: ``rng.branch_normals(seed, (DIVERSITY, i), 50, dim)``
  for every interval i of a noisy plan, with the block cache cleared before
  each draw, so every block resets the shared generator once per branch;
* ``branch (reset and draw)``: the same time over the block's
  ``DIVERSITY_BRANCHES`` branches;
* ``protocol <process> cold``: ``branched_proposals(plan, gmm, seed)`` with
  the block cache cleared first, as the CLI tables run it (their block
  cache hits 21 of 4,920 lookups);
* ``protocol <process> warm``: the same call again, every block cached.

Every cold draw finds the ``(seed, DIVERSITY)`` Philox key cached, as all
but the first draw of a seed do.  A child reports, per measure, the fastest
of ``PASSES`` passes of the mean time per call, which sheds most
interference from other work on the host.  Children run in ``PAIRS``
pairs, A then B and B then A in turn, so drift in the host's speed falls
on both trees alike.  The output is one line per measure: both trees'
medians and ranges over the pairs in µs, and the median of the paired
ratios B/A (about 20 s in all).

    python tools/protocol_split.py --a /path/to/parent/src --b src

The benchmark's trace cannot show these draws: ``bench/spans.py`` binds
``rng.stream``, which the protocol does not call.  This tool needs only
numpy; nothing in ``src/`` or ``bench/`` imports it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

STEPS, SEEDS = 10, range(10)
PAIRS, PASSES = 6, 7

CHILD = r"""
import json, sys, time
src, steps, passes, *seeds = sys.argv[1], *map(int, sys.argv[2:])
sys.path.insert(0, src)
from flowsearch import analytic_flow, engine, harness
from flowsearch import rng as streams

gmm = analytic_flow.default_benchmark_gmm()
plans = [engine.make_plan(p, steps) for p in engine.PROCESS_NAMES]
plans = [plan for plan in plans if any(plan.g)]
intervals = [i + 1 for i in range(steps) if plans[0].g[i]]
branches = harness.DIVERSITY_BRANCHES
best = {}
for k in range(passes + 1):  # pass 0 warms up and fills the key cache
    block = 0.0
    for seed in seeds:
        for i in intervals:
            streams._block.cache_clear()
            start = time.perf_counter()
            streams.branch_normals(seed, (streams.DIVERSITY, i), branches, gmm.dim)
            block += time.perf_counter() - start
    times = {"branch block": (block, len(seeds) * len(intervals)),
             "branch (reset and draw)": (block, len(seeds) * len(intervals) * branches)}
    for plan in plans:
        cold = warm = 0.0
        for seed in seeds:
            streams._block.cache_clear()
            start = time.perf_counter()
            harness.branched_proposals(plan, gmm, seed)
            middle = time.perf_counter()
            harness.branched_proposals(plan, gmm, seed)
            cold, warm = cold + middle - start, warm + time.perf_counter() - middle
        times[f"protocol {plan.process} cold"] = (cold, len(seeds))
        times[f"protocol {plan.process} warm"] = (warm, len(seeds))
    if k:
        for name, (total, calls) in times.items():
            best[name] = min(best.get(name, float("inf")), total / calls * 1e6)
print(json.dumps(best))
"""


def _child(src: str) -> dict:
    cmd = [sys.executable, "-c", CHILD, src, *map(str, (STEPS, PASSES, *SEEDS))]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", required=True, help="first source tree (the baseline)")
    parser.add_argument("--b", required=True, help="second source tree")
    args = parser.parse_args(argv)
    trees = {"A": str(Path(args.a).resolve()), "B": str(Path(args.b).resolve())}
    print(f"A = {trees['A']}\nB = {trees['B']}\n"
          f"{STEPS} steps, seeds {SEEDS.start}-{SEEDS.stop - 1}, {PAIRS} pairs x {PASSES} passes")
    runs = {"A": [], "B": []}
    for pair in range(PAIRS):
        for name in ("AB" if pair % 2 == 0 else "BA"):
            runs[name].append(_child(trees[name]))
    for label in runs["A"][0]:
        a, b = ([r[label] for r in runs[name]] for name in "AB")
        ratio = statistics.median(y / x for x, y in zip(a, b))
        print(f"{label:42s} A {statistics.median(a):7.2f} [{min(a):.2f}, {max(a):.2f}]  "
              f"B {statistics.median(b):7.2f} [{min(b):.2f}, {max(b):.2f}] µs  B/A {ratio:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
