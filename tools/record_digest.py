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
An ``oracle`` line per sampler is not a hash: it gives the posterior
evaluations (``analytic_flow._posterior_mean_unchecked`` calls, which every
velocity and value query makes) and the rows they take, per run at nfe
1000, 10 steps and seed 0 on each process in ``PROCESS_NAMES`` order, so a
diff shows changed oracle work beside the records.
A line per process hashes ``engine.run_process`` endpoints, which no
record reaches: 10^3 rows of the benchmark mixture at 10 steps for seeds
0-3, from ``stream(seed, INIT, i)`` through ``stream(seed, PROCESS, i)``
for the process's index i, as the benchmark's marginal-transport workload
draws them, together with that generator's whole final state
(``repr(bit_generator.state)``: Philox's counter and key and its buffered
output): a change that draws one block too many or too few, or only part
of one, moves the line even where the endpoints agree.  A line per
stream domain hashes ``stream(seed, domain).standard_normal((1000, 2))``
for seeds 0-3: a stream without indices is the SeedSequence-seeded Philox
of ``(seed, domain)``.  Two source trees give the same hash line exactly when
their results agree bit for bit, so a diff of two outputs names the cells a
change moved:

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
ORACLE_NFE, ORACLE_STEPS, ORACLE_SEED = 1000, 10, 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="source tree to import flowsearch from")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    import flowsearch
    from flowsearch import analytic_flow
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

    posterior = analytic_flow._posterior_mean_unchecked
    oracle = [0, 0]

    def counted(gmm, at, x):
        oracle[0] += 1
        oracle[1] += x.size // gmm.dim
        return posterior(gmm, at, x)

    analytic_flow._posterior_mean_unchecked = counted
    try:
        for sampler in SAMPLER_NAMES:
            config = load_config({"sampler": sampler})
            calls, rows = [], []
            for process in PROCESS_NAMES:
                oracle[:] = [0, 0]
                SAMPLERS[sampler](make_plan(process, ORACLE_STEPS), config.gmm, config.reward,
                                  SearchBudget(ORACLE_NFE), ORACLE_SEED, **config.sampler_opts)
                calls.append(str(oracle[0]))
                rows.append(str(oracle[1]))
            print(f"oracle {sampler} steps={ORACLE_STEPS} nfe={ORACLE_NFE} seed={ORACLE_SEED} "
                  f"calls={','.join(calls)} rows={','.join(rows)}")
    finally:
        analytic_flow._posterior_mean_unchecked = posterior

    gmm = default_benchmark_gmm()
    for i, process in enumerate(PROCESS_NAMES):
        plan = make_plan(process, ENDPOINT_STEPS)
        digest = hashlib.sha256()
        for seed in ENDPOINT_SEEDS:
            x1 = streams.stream(seed, streams.INIT, i).standard_normal((ENDPOINT_ROWS, gmm.dim))
            gen = streams.stream(seed, streams.PROCESS, i)
            x0, _ = run_process(plan, x1, gen,
                                lambda x, t: velocity_at(gmm, plan.src_schedule, t, x))
            digest.update(x0.tobytes() + repr(gen.bit_generator.state).encode())
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
