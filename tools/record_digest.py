"""Print one sha256 per (sampler, steps, budget) over the harness's records.

Each digest covers the five processes and seeds 0, 1, 2 and 12345 of the
default config (benchmark mixture, rare-mode reward), hashing every record's
``(seed, method, process, repr(best_reward), repr(diversity_mpd), nfe_used)``.
Two source trees give the same line exactly when their records agree bit
for bit, so a diff of two outputs names the (sampler, steps, budget) cells
a change moved:

    python tools/record_digest.py --src /path/to/parent/src > parent.txt
    python tools/record_digest.py > change.txt
    diff parent.txt change.txt

``--src`` defaults to this checkout's ``src``.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

PROCESSES = ("linear-ode", "linear-sde", "linear-sde-adaptive-time",
             "linear-sde-scaled-diffusion", "vp-sde")
SEEDS = (0, 1, 2, 12345)
BUDGETS = (100, 300, 1000)
STEPS = (5, 10)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="source tree to import flowsearch from")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    import flowsearch
    from flowsearch.harness import load_config, run_experiment
    from flowsearch.samplers import SAMPLER_NAMES

    if Path(flowsearch.__file__).resolve().parent != (Path(args.src) / "flowsearch").resolve():
        print(f"imported flowsearch from {flowsearch.__file__}, not {args.src}", file=sys.stderr)
        return 2

    for sampler in SAMPLER_NAMES:
        for steps in STEPS:
            for budget in BUDGETS:
                digest = hashlib.sha256()
                for process in PROCESSES:
                    config = load_config({"sampler": sampler, "process": process,
                                          "steps": steps, "nfe": budget})
                    for seed in SEEDS:
                        rec = run_experiment(config, seed)
                        row = (rec.seed, rec.method, rec.process, repr(rec.best_reward),
                               repr(rec.diversity_mpd), rec.nfe_used)
                        digest.update(repr(row).encode())
                print(f"{sampler} steps={steps} nfe={budget} {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
