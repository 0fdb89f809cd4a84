"""Set-up probe: one fresh interpreter that gets a workload ready to run.

Usage: python3 bench/probe.py <workload> <seed> <out_dir> <sizes-json>

Prints ``imported`` once ``flowsearch`` is imported and ``ready`` once the
workload's inputs (configs, GMMs, plans) are built, then exits.  ``run.py``
times both lines from the moment it spawned the interpreter.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(1, str(BENCH.parent / "src"))

import flowsearch  # noqa: E402,F401

if sys.argv[1] == "cli-ablate":
    import flowsearch.cli  # noqa: F401
print("imported", flush=True)

import json  # noqa: E402

import workloads  # noqa: E402

workload = workloads.WORKLOADS[sys.argv[1]](
    BENCH.parent, Path(sys.argv[3]), int(sys.argv[2]), json.loads(sys.argv[4])
)
workload.prepare()
print("ready", flush=True)
