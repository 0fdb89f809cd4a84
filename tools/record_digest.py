"""Print sha256 digests of the harness's records, of the samplers' own
results and of run_process endpoints.

One line per (sampler, steps, budget) covers the five processes and seeds 0, 1, 2 and 12345 of the
default config (benchmark mixture, rare-mode reward), hashing every record's
``(seed, method, process, repr(best_reward), repr(diversity_mpd), nfe_used)``.
A ``result`` line per (sampler, steps, budget) covers the same runs through
the sampler itself, hashing each ``SearchResult``'s ``best_x`` bytes and
``(repr(best_reward), nfe_used, per_step_consumption, repr(trace))``, so it
also moves with the ledger's per-step booking and the samplers' traces.
A ``result rbf batches=3`` line per (steps, budget) hashes the same runs of
rbf with three batches, whose uneven shares give ragged per-step quotas.
A last line per process hashes ``engine.run_process`` endpoints, which no
record reaches: 10^3 rows of the benchmark mixture at 10 steps for seeds
0-3, from ``stream(seed, INIT, i)`` through ``stream(seed, PROCESS, i)``
for the process's index i, as the benchmark's marginal-transport workload
draws them.  A line per stream domain hashes ``stream(seed, domain)
.standard_normal((1000, 2))`` for seeds 0-3: a stream without indices is
the SeedSequence-seeded Philox of ``(seed, domain)``.  Two source trees
give the same line exactly when their results agree bit for bit, so a diff
of two outputs names the cells a change moved:

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

SEEDS = (0, 1, 2, 12345)
BUDGETS = (100, 300, 1000)
STEPS = (5, 10)
ENDPOINT_ROWS, ENDPOINT_STEPS, ENDPOINT_SEEDS = 1000, 10, (0, 1, 2, 3)
RBF_BATCHES = 3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="source tree to import flowsearch from")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    import flowsearch
    from flowsearch import rng as streams
    from flowsearch.analytic_flow import default_benchmark_gmm, velocity_at
    from flowsearch.engine import PROCESS_NAMES, make_plan, run_process
    from flowsearch.harness import load_config, run_experiment
    from flowsearch.samplers import SAMPLER_NAMES, SAMPLERS, SearchBudget

    if Path(flowsearch.__file__).resolve().parent != (Path(args.src) / "flowsearch").resolve():
        print(f"imported flowsearch from {flowsearch.__file__}, not {args.src}", file=sys.stderr)
        return 2

    def hash_result(results, res):
        results.update(res.best_x.tobytes())
        results.update(repr((repr(res.best_reward), res.nfe_used,
                             res.per_step_consumption, repr(res.trace))).encode())

    for sampler in SAMPLER_NAMES:
        for steps in STEPS:
            for budget in BUDGETS:
                digest, results = hashlib.sha256(), hashlib.sha256()
                for process in PROCESS_NAMES:
                    config = load_config({"sampler": sampler, "process": process,
                                          "steps": steps, "nfe": budget})
                    plan = make_plan(process, steps)
                    for seed in SEEDS:
                        rec = run_experiment(config, seed)
                        row = (rec.seed, rec.method, rec.process, repr(rec.best_reward),
                               repr(rec.diversity_mpd), rec.nfe_used)
                        digest.update(repr(row).encode())
                        hash_result(results, SAMPLERS[sampler](
                            plan, config.gmm, config.reward, SearchBudget(budget), seed,
                            **config.sampler_opts))
                print(f"{sampler} steps={steps} nfe={budget} {digest.hexdigest()}")
                print(f"result {sampler} steps={steps} nfe={budget} {results.hexdigest()}")

    config = load_config({"sampler": "rbf"})
    for steps in STEPS:
        for budget in BUDGETS:
            results = hashlib.sha256()
            for process in PROCESS_NAMES:
                plan = make_plan(process, steps)
                for seed in SEEDS:
                    hash_result(results, SAMPLERS["rbf"](plan, config.gmm, config.reward,
                                                         SearchBudget(budget), seed,
                                                         batches=RBF_BATCHES))
            print(f"result rbf batches={RBF_BATCHES} steps={steps} nfe={budget} "
                  f"{results.hexdigest()}")

    gmm = default_benchmark_gmm()
    for i, process in enumerate(PROCESS_NAMES):
        plan = make_plan(process, ENDPOINT_STEPS)
        digest = hashlib.sha256()
        for seed in ENDPOINT_SEEDS:
            x1 = streams.stream(seed, streams.INIT, i).standard_normal((ENDPOINT_ROWS, gmm.dim))
            x0, _ = run_process(plan, x1, streams.stream(seed, streams.PROCESS, i),
                                lambda x, t: velocity_at(gmm, plan.src_schedule, t, x))
            digest.update(x0.tobytes())
        print(f"run_process {process} steps={ENDPOINT_STEPS} rows={ENDPOINT_ROWS} "
              f"{digest.hexdigest()}")

    for name in ("INIT", "PROPOSAL", "RESAMPLE", "FORWARD", "DIVERSITY", "PROCESS"):
        digest = hashlib.sha256()
        for seed in ENDPOINT_SEEDS:
            digest.update(streams.stream(seed, getattr(streams, name))
                          .standard_normal((ENDPOINT_ROWS, 2)).tobytes())
        print(f"stream {name} rows={ENDPOINT_ROWS} {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
