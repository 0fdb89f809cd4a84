"""The benchmark's three workloads.

Each workload builds its inputs from the run seed, runs a timed *pass*
(optionally under a tracer) and checks the pass's outputs.  A pass with
index ``k`` always gets the same inputs for the same run seed, so a traced
pass can replay the inputs of an untraced one.

* ``paper-table``: the paper's comparison table in-process through
  ``harness.run_experiment`` (six samplers x {linear-sde, vp-sde}).  Oracle
  calls carry 1-100 rows, so per-call overhead, per-particle streams,
  valuing and the samplers' Python loops dominate.
* ``marginal-transport``: ``engine.run_process`` for all five processes on
  large trajectory batches.  Oracle calls carry 10^4 rows, so array
  throughput of the oracle and the engine's arithmetic dominates; no
  rewards or samplers run.
* ``cli-ablate``: ``python -m flowsearch.cli ablate`` and ``diversity`` as
  subprocesses with a process pool: interpreter start and import, the pool,
  the per-task config round trip, the diversity protocol and CSV writing.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import os
import resource
import signal
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from flowsearch import analytic_flow, engine, harness, interpolants
from flowsearch import rng as streams

from hostclock import HostClock
from spans import ROOT, Tracer

SAMPLERS = ("bon", "sop", "smc", "code", "svdd", "rbf")
TABLE_PROCESSES = ("linear-sde", "vp-sde")
# The CSV schema every CLI command must keep.
CSV_HEADER = [
    "seed", "method", "process", "nfe_budget", "steps",
    "best_reward", "diversity_mpd", "nfe_used", "wall_ms",
]
# Endpoint mode weights, pooled over a run's passes, must match the prior
# within this (the unit tests' tolerance).  One pass of 10^4 trajectories
# has a standard error of up to 0.0047 per weight, and the 100-step Euler
# bias is up to ~0.005, so a single pass would fail a correct program about
# once in 250 runs; two or more pooled passes make that negligible.
WEIGHT_TOL = 0.02
IDENTITY_RTOL = 1e-8
CHILD_TIMEOUT_S = 60
# How often the host's speed is read while a CLI command runs, and every
# how many velocity calls while run_process runs.
PROBE_EVERY_S = 0.1
PROBE_EVERY_STEPS = 10

DEFAULT_SIZES = {
    "paper-table": {"seeds": 10, "nfe": 1000, "steps": 10},
    "marginal-transport": {"trajectories": 10_000, "steps": 100},
    "cli-ablate": {"seeds": 40, "nfe": 300, "steps": 10, "jobs": 2},
}


@dataclass
class PassResult:
    """What one timed pass produced."""

    wall_s: float                   # raw, probes included
    units: list[tuple[float, float]]    # (elapsed, probe) per timed unit
    records: list[tuple[float, float]]  # (elapsed, probe) per record
    nfe: int                        # work done, in NFE (or trajectory-steps)
    outputs: list = field(default_factory=list)  # digestible, wall-free
    attempted: int = 0
    failed: int = 0


def _seed_list(seed: int, k: int, n: int) -> list[int]:
    rng = np.random.default_rng([seed, k])
    return sorted(int(s) for s in rng.choice(2**31 - 1, size=n, replace=False))


def _report_failure(what: str) -> None:
    print(f"benchmark: {what} failed", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _record_key(rec) -> tuple:
    """Every RunRecord field except wall_ms, floats at full precision."""
    return (rec.seed, rec.method, rec.process, rec.nfe_budget, rec.steps,
            repr(rec.best_reward), repr(rec.diversity_mpd), rec.nfe_used)


class Workload:
    name = ""

    def __init__(self, root: Path, out_dir: Path, seed: int, sizes: dict):
        self.root = root
        self.out_dir = out_dir
        self.seed = seed
        self.size = sizes[self.name]

    def prepare(self) -> None:
        """Build inputs that every pass shares (configs, GMMs, plans)."""

    def run_pass(self, k: int, tracer: Tracer | None = None,
                 clock: HostClock | None = None) -> PassResult:
        """The timed unit of the untraced run; ``clock`` reads the host's
        speed around each unit of work."""
        raise NotImplementedError

    def twin_pass(self, k: int, tracer: Tracer | None = None) -> PassResult:
        """The unit the traced run times twice, without and with a tracer."""
        return self.run_pass(k, tracer)

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the process that ran the passes."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def checks(self, passes: list[PassResult]) -> dict[str, bool]:
        """Correctness checks on the window's passes (run untimed)."""
        return {}

    def info(self, passes: list[PassResult]) -> dict[str, tuple[float, str]]:
        """Results reported beside the timings, never gated."""
        return {}

    def digest_lines(self, passes: list[PassResult]) -> list[str]:
        """The passes' results without wall times, one line per result."""
        raise NotImplementedError

    def layer_extras(self) -> dict[str, float]:
        """Per-layer numbers measured outside the tracer."""
        return {}


class PaperTable(Workload):
    name = "paper-table"

    def prepare(self) -> None:
        base = harness.load_config(
            {"nfe": self.size["nfe"], "steps": self.size["steps"], "seeds": [0]}
        )
        self.configs = [
            replace(base, sampler=s, process=p) for s in SAMPLERS for p in TABLE_PROCESSES
        ]

    def run_pass(self, k, tracer=None, clock=None):
        """One ``run_experiment`` call is the clock's unit."""
        clock = clock or HostClock(probing=False)
        seeds = _seed_list(self.seed, k, self.size["seeds"])
        records, times, failed = [], [], 0
        root = tracer.open(ROOT) if tracer else None
        start = time.perf_counter()
        clock.begin()
        for seed in seeds:
            for config in self.configs:
                try:
                    rec = harness.run_experiment(config, seed)
                except Exception:  # counted in error_frac; the table goes on
                    _report_failure(f"{config.sampler}/{config.process} seed {seed}")
                    failed += 1
                    clock.lap()
                    continue
                times.append(clock.lap())
                records.append(rec)
        wall = time.perf_counter() - start
        if tracer:
            tracer.close(root)
        return PassResult(wall, times, times, sum(r.nfe_used for r in records), records,
                          attempted=len(seeds) * len(self.configs), failed=failed)

    def checks(self, passes):
        out = {}
        records = [r for p in passes for r in p.outputs]
        for i, rec in enumerate(records):
            try:
                rec.validate()
                ok = True
            except harness.InvariantError:
                ok = False
            out[f"validate[{i}]"] = ok
            if rec.method == "bon":
                out[f"bon_spends_budget[{i}]"] = rec.nfe_used == rec.nfe_budget
        # One record per sampler, replayed: every field but wall_ms repeats.
        replayed = set()
        for rec in passes[0].outputs:
            if rec.method in replayed:
                continue
            replayed.add(rec.method)
            config = next(c for c in self.configs
                          if c.sampler == rec.method and c.process == rec.process)
            try:
                again = harness.run_experiment(config, rec.seed)
            except Exception:  # a failed replay is a failed check
                _report_failure(f"replay of {rec.method}")
                again = None
            out[f"repeat[{rec.method}]"] = again is not None and _record_key(again) == _record_key(rec)
        return out

    def info(self, passes):
        records = [r for p in passes for r in p.outputs]
        return {
            "best_reward_mean": (float(np.mean([r.best_reward for r in records])), "reward"),
            "nfe_used_frac": (sum(r.nfe_used for r in records)
                              / sum(r.nfe_budget for r in records), "ratio"),
        }

    def digest_lines(self, passes):
        return sorted(",".join(map(str, _record_key(r))) for p in passes for r in p.outputs)


class MarginalTransport(Workload):
    name = "marginal-transport"

    def prepare(self) -> None:
        self.gmm = analytic_flow.default_benchmark_gmm()
        self.plans = [engine.make_plan(p, self.size["steps"]) for p in engine.PROCESS_NAMES]

    def run_pass(self, k, tracer=None, clock=None):
        """One process's ``run_process`` is the clock's unit."""
        clock = clock or HostClock(probing=False)
        seed = _seed_list(self.seed, k, 1)[0]
        n, gmm = self.size["trajectories"], self.gmm
        outputs, times = [], []
        root = tracer.open(ROOT) if tracer else None
        start = time.perf_counter()
        clock.begin()
        for i, plan in enumerate(self.plans):
            x1 = streams.stream(seed, streams.INIT, i).standard_normal((n, gmm.dim))
            calls = itertools.count(1)

            def velocity(x, t, sched=plan.src_schedule):
                if next(calls) % PROBE_EVERY_STEPS == 0:
                    clock.sample()
                return analytic_flow.velocity_at(gmm, sched, t, x)

            x0, nfe = engine.run_process(plan, x1, streams.stream(seed, streams.PROCESS, i),
                                         velocity)
            times.append(clock.lap())
            outputs.append((plan.process, x0, nfe))
        wall = time.perf_counter() - start
        if tracer:
            tracer.close(root)
        steps = sum(nfe * x0.shape[0] for _, x0, nfe in outputs)
        # Keep only what the checks and digest need, not the endpoints.
        summary = [(proc, hashlib.sha256(x0.tobytes()).hexdigest(), nfe,
                    bool(np.all(np.isfinite(x0))), self._mode_counts(x0))
                   for proc, x0, nfe in outputs]
        return PassResult(wall, times, times, steps, summary, attempted=len(outputs))

    def _mode_counts(self, x0):
        if not np.all(np.isfinite(x0)):
            return np.zeros(self.gmm.n_components, dtype=int)
        return np.bincount(analytic_flow.mode_assignments(self.gmm, x0),
                           minlength=self.gmm.n_components)

    def _weight_errors(self, passes) -> dict[str, np.ndarray]:
        """|endpoint mode weight - prior weight| per process, over all passes."""
        counts = {}
        for p in passes:
            for proc, _, _, _, c in p.outputs:
                counts[proc] = counts.get(proc, 0) + c
        return {proc: np.abs(c / max(c.sum(), 1) - self.gmm.weights) for proc, c in counts.items()}

    def identity_checks(self) -> dict[str, bool]:
        """velocity_at and posterior_mean against their score identities."""
        out = {}
        pts = np.random.default_rng([self.seed, 99]).normal(scale=4.0, size=(64, 2))
        for sched in (interpolants.InterpolantSchedule("linear"), interpolants.vp_schedule()):
            for t in (0.05, 0.3, 0.7, 0.95):
                a, s, a_dot, s_dot = interpolants.eval_schedule(sched, t)
                score = analytic_flow.score_at(self.gmm, sched, t, pts)
                u = analytic_flow.velocity_at(self.gmm, sched, t, pts)
                x0 = analytic_flow.posterior_mean(self.gmm, sched, t, pts)
                u_ref = (a_dot / a) * pts - (s * s_dot - s * s * a_dot / a) * score
                x0_ref = (pts + s * s * score) / a
                out[f"velocity_identity[{sched.kind},{t}]"] = bool(
                    np.allclose(u, u_ref, rtol=IDENTITY_RTOL, atol=0.0))
                out[f"posterior_identity[{sched.kind},{t}]"] = bool(
                    np.allclose(x0, x0_ref, rtol=IDENTITY_RTOL, atol=0.0))
        return out

    def checks(self, passes):
        out = self.identity_checks()
        for k, p in enumerate(passes):
            for proc, _, nfe, finite, _ in p.outputs:
                out[f"nfe_equals_steps[{k},{proc}]"] = nfe == self.size["steps"]
                out[f"finite[{k},{proc}]"] = finite
        for proc, err in self._weight_errors(passes).items():
            out[f"mode_weights[{proc}]"] = bool(np.all(err < WEIGHT_TOL))
        return out

    def info(self, passes):
        err = max(float(np.max(e)) for e in self._weight_errors(passes).values())
        return {"weight_err_max": (err, "abs")}

    def digest_lines(self, passes):
        return sorted(f"{k},{o[0]},{o[1]},{o[2]}" for k, p in enumerate(passes) for o in p.outputs)


class CliAblate(Workload):
    name = "cli-ablate"
    COMMANDS = ("ablate", "diversity")

    def __init__(self, *args):
        super().__init__(*args)
        self.pool_pass0: PassResult | None = None
        self.parallel_efficiency = 0.0

    def config_path(self, k: int) -> Path:
        path = self.out_dir / f"config-{k}.json"
        doc = {"sampler": "svdd", "nfe": self.size["nfe"], "steps": self.size["steps"],
               "seeds": _seed_list(self.seed, k, self.size["seeds"])}
        path.write_text(json.dumps(doc))
        return path

    def prepare(self) -> None:
        from flowsearch import cli  # noqa: F401  (the CLI user's import)

        harness.load_config(self.config_path(0))

    def _csv(self, k: int, command: str, tag: str) -> Path:
        return self.out_dir / f"{command}-{k}-{tag}.csv"

    def _collect(self, k: int, tag: str, wall: float, codes: list[int],
                 units: list[tuple[float, float]]) -> PassResult:
        """Read both commands' CSVs; each record (its ``wall_ms``) takes
        the probe reading of the command that wrote it."""
        tables, records, failed = [], [], 0
        for command, code, (_, probe) in zip(self.COMMANDS, codes, units):
            path = self._csv(k, command, tag)
            if code != 0 or not path.exists():
                failed += 1
                tables.append([])
                continue
            with path.open(newline="") as fh:
                tables.append(list(csv.reader(fh)))
            records += [(float(r[8]) / 1000.0, probe) for r in tables[-1][1:]
                        if len(r) == len(CSV_HEADER)]
        rows = [r for t in tables for r in t[1:] if len(r) == len(CSV_HEADER)]
        return PassResult(wall, units, records, sum(int(r[7]) for r in rows), tables,
                          attempted=len(self.COMMANDS), failed=failed)

    def run_pass(self, k, tracer=None, clock=None, jobs=None):
        """Both commands as subprocesses with ``jobs`` pool workers; one
        command is the clock's unit."""
        clock = clock or HostClock(probing=False)
        jobs = self.size["jobs"] if jobs is None else jobs
        cfg = self.config_path(k)
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        tag = f"jobs{jobs}"
        codes, units = [], []
        start = time.perf_counter()
        clock.begin()
        for command in self.COMMANDS:
            argv = [sys.executable, "-m", "flowsearch.cli", command, str(cfg),
                    "--out", str(self._csv(k, command, tag)), "--jobs", str(jobs)]
            # A session of its own, so that a hung command is killed together
            # with its pool workers.
            proc = subprocess.Popen(argv, env=env, cwd=self.root, stdout=subprocess.DEVNULL,
                                    stderr=subprocess.PIPE, start_new_session=True)
            deadline = time.monotonic() + CHILD_TIMEOUT_S
            while True:
                try:
                    _, err = proc.communicate(timeout=PROBE_EVERY_S)
                    break
                except subprocess.TimeoutExpired:
                    if time.monotonic() > deadline:
                        os.killpg(proc.pid, signal.SIGKILL)
                        _, err = proc.communicate()
                        err = b"timed out"
                        break
                    clock.sample(concurrent=True)
            if proc.returncode != 0:
                print(f"benchmark: {command} exited {proc.returncode}:\n"
                      f"{err.decode(errors='replace')}", file=sys.stderr)
            codes.append(proc.returncode)
            units.append(clock.lap())
        result = self._collect(k, tag, time.perf_counter() - start, codes, units)
        if k == 0 and jobs == self.size["jobs"]:
            self.pool_pass0 = result
        return result

    def twin_pass(self, k, tracer=None):
        """The same two commands through ``cli.main`` in-process at jobs=1,
        so that the tracer sees every layer."""
        from flowsearch import cli

        cfg = self.config_path(k)
        tag = "traced" if tracer else "inproc"
        clock = HostClock(probing=False)
        codes, units = [], []
        root = tracer.open(ROOT) if tracer else None
        start = time.perf_counter()
        clock.begin()
        for command in self.COMMANDS:
            argv = [command, str(cfg), "--out", str(self._csv(k, command, tag)), "--jobs", "1"]
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.main(argv))
            units.append(clock.lap())
        wall = time.perf_counter() - start
        if tracer:
            tracer.close(root)
        return self._collect(k, tag, wall, codes, units)

    def peak_rss_mb(self) -> float:
        # The largest CLI process (or pool worker) the window waited for.
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def checks(self, passes):
        """Header and row count of every CSV, and a jobs=1 replay of pass 0
        equal to the pooled run except in wall_ms.  A command that exits
        non-zero is already counted as a failed operation of its pass."""
        out = {}
        expected = len(engine.PROCESS_NAMES) * self.size["seeds"]
        for k, p in enumerate(passes):
            for command, table in zip(self.COMMANDS, p.outputs):
                out[f"header[{k},{command}]"] = bool(table) and table[0] == CSV_HEADER
                out[f"rows[{k},{command}]"] = len(table) - 1 == expected
        pool = self.pool_pass0 or self.run_pass(0)
        serial = self.run_pass(0, jobs=1)
        busy = lambda p: sum(elapsed for elapsed, _ in p.units)
        self.parallel_efficiency = busy(serial) / (self.size["jobs"] * busy(pool))
        strip = lambda tables: [[r[:8] for r in t] for t in tables]
        out["jobs1_equals_pool"] = (serial.failed == 0 and pool.failed == 0
                                    and strip(serial.outputs) == strip(pool.outputs))
        return out

    def layer_extras(self):
        return {"harness.parallel_efficiency": self.parallel_efficiency}

    def info(self, passes):
        ablate = [r for p in passes for r in p.outputs[0][1:]]
        if not ablate:
            return {}
        return {
            "best_reward_mean": (float(np.mean([float(r[5]) for r in ablate])), "reward"),
            "nfe_used_frac": (sum(int(r[7]) for r in ablate)
                              / sum(int(r[3]) for r in ablate), "ratio"),
        }

    def digest_lines(self, passes):
        return sorted(",".join(r[:8]) for p in passes for t in p.outputs for r in t[1:])


WORKLOADS = {w.name: w for w in (PaperTable, MarginalTransport, CliAblate)}
