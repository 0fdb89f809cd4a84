"""flowsearch benchmark: seeded workloads, correctness checks, layer traces.

Usage, from the repository root:

    python3 bench/run.py --workload paper-table --seed 1 --seconds 20 --trace 0

Workloads are defined in ``workloads.py``.  A run builds the workload's
inputs from ``--seed``, repeats timed passes for about ``--seconds``
seconds, checks every output, and measures set-up time in fresh
interpreters.  It prints two JSON lines: an information line (environment,
result digest, ungated results such as ``best_reward_mean``, the metrics
from raw wall times) and, last, ``{"correct", "attempted", "failed",
"metrics"}``.  The pass times behind ``wall_s``, ``nfe_per_s`` and
``record_ms_p90`` are taken at the host's reference speed (see
``hostclock.py``).  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` each pass is run once
plain and once with every layer wrapped (see ``spans.py``), and the metrics
are the per-layer ones.  Spans of a traced run are written to
``bench/out/<workload>/spans.npz``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
SRC = REPO / "src"
PROBES = 8
PROBE_TIMEOUT_S = 60

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("nfe_per_s", "1/s"),
    ("record_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)
_SAMPLERS = ("bon", "sop", "smc", "code", "svdd", "rbf")
PER_LAYER = (
    ("setup.import_s", "s"),
    ("analytic_flow.velocity.calls", "count"),
    ("analytic_flow.velocity.rows", "count"),
    ("analytic_flow.velocity.self_s", "s"),
    ("analytic_flow.velocity.us_per_row", "us/row"),
    ("analytic_flow.posterior_mean.calls", "count"),
    ("analytic_flow.posterior_mean.rows", "count"),
    ("analytic_flow.posterior_mean.self_s", "s"),
    ("samplers.oracle_rows_per_nfe", "rows/nfe"),
    ("rng.stream.calls", "count"),
    ("rng.stream.self_s", "s"),
    ("rng.stream.us_per_call", "us/call"),
    ("engine.denoise_interval.calls", "count"),
    ("engine.denoise_interval.rows", "count"),
    ("engine.denoise_interval.self_s", "s"),
    ("engine.run_process.self_s", "s"),
    ("engine.scale_map.calls", "count"),
    ("engine.scale_map.self_s", "s"),
    ("engine.scale_map.hit_ratio", "ratio"),
    ("interpolants.scale_time_transform.calls", "count"),
    ("interpolants.scale_time_transform.self_s", "s"),
    ("rewards.estimate_value.calls", "count"),
    ("rewards.estimate_value.rows", "count"),
    ("rewards.estimate_value.self_s", "s"),
    ("rewards.evaluate_reward.calls", "count"),
    ("rewards.evaluate_reward.self_s", "s"),
    *((f"samplers.{s}.ms_p50", "ms") for s in _SAMPLERS),
    *((f"samplers.{s}.budget_used_frac", "ratio") for s in _SAMPLERS),
    ("samplers.self_s", "s"),
    ("harness.run_experiment.self_s", "s"),
    ("harness.diversity_record.self_s", "s"),
    ("harness.branched_proposals.self_s", "s"),
    ("harness.load_config.self_s", "s"),
    ("harness.write_csv.self_s", "s"),
    ("harness.parallel_efficiency", "ratio"),
    ("cli.main.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.layer_self_s", "s"),
    ("trace_overhead_frac", "ratio"),
)


def _window(seconds: float, one_pass) -> list:
    """Run passes 0, 1, ... while the next one is expected to end within
    ``seconds``; always at least one."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(one_pass(len(results)))
        elapsed = time.perf_counter() - start
        if elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def _probe(name: str, seed: int, out_dir: Path, sizes: dict, count: int):
    """Spawn ``count`` fresh interpreters; return the times at which each
    reported flowsearch imported and its inputs ready, and the failures.
    These are raw wall times: interpreter start and imports do not slow
    with the host the way the host probe does (see ``hostclock.py``)."""
    argv = [sys.executable, str(BENCH / "probe.py"), name, str(seed), str(out_dir),
            json.dumps(sizes)]
    imported, ready, failed = [], [], 0
    for _ in range(count):
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=REPO, stdout=subprocess.PIPE, text=True)
        timer = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            first = proc.stdout.readline()
            t_import = time.perf_counter() - start
            second = proc.stdout.readline()
            t_ready = time.perf_counter() - start
            proc.stdout.read()
        finally:
            proc.stdout.close()
            proc.wait()
            timer.cancel()
        if (first.strip(), second.strip(), proc.returncode) != ("imported", "ready", 0):
            print(f"benchmark: set-up probe failed (exit {proc.returncode})", file=sys.stderr)
            failed += 1
            continue
        imported.append(t_import)
        ready.append(t_ready)
    return imported, ready, failed


def _raw(pairs) -> list[float]:
    """(elapsed, probe) pairs to elapsed seconds as measured."""
    return [elapsed for elapsed, _ in pairs]


def _end_to_end(passes: list, ready: list, peak_rss: float, adjust) -> dict:
    """The end-to-end metrics, with the pass times passed through ``adjust``."""
    import numpy as np

    pass_s = [sum(adjust(p.units)) for p in passes]
    records = adjust([r for p in passes for r in p.records]) or [0.0]
    return {
        "setup_s": statistics.median(ready) if ready else 0.0,
        "wall_s": statistics.fmean(pass_s),
        "nfe_per_s": sum(p.nfe for p in passes) / sum(pass_s),
        "record_ms_p90": 1000.0 * float(np.percentile(records, 90)),
        "peak_rss_mb": peak_rss,
    }


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return list(values)
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [min(values), q1, q2, q3, max(values)]


def _environment(seed: int) -> dict:
    import numpy
    import scipy

    commit = "unknown"
    if (REPO / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(REPO), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": nproc, "commit": commit or "unknown",
            "seed": seed}


def _layer_metrics(tracer, passes: int, traced_wall: float, plain_wall: float) -> dict:
    from spans import ROOT, layer_table

    table, derived = layer_table(tracer)
    empty = {"calls": 0, "rows": 0, "self_s": 0.0, "durations": []}
    layer = lambda name: table.get(name, empty)
    out = {}
    for name, _ in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field in ("calls", "rows", "self_s") and base not in ("samplers", "trace"):
            out[name] = layer(base)[field] / passes
    velocity = layer("analytic_flow.velocity")
    out["analytic_flow.velocity.us_per_row"] = 1e6 * velocity["self_s"] / max(velocity["rows"], 1)
    stream = layer("rng.stream")
    out["rng.stream.us_per_call"] = 1e6 * stream["self_s"] / max(stream["calls"], 1)
    scale_map = layer("engine.scale_map")
    out["engine.scale_map.hit_ratio"] = (
        1.0 - derived["scale_map_misses"] / scale_map["calls"] if scale_map["calls"] else 0.0)
    nfe = sum(used for used, _ in tracer.ledger.values())
    out["samplers.oracle_rows_per_nfe"] = derived["sampler_oracle_rows"] / nfe if nfe else 0.0
    for s in _SAMPLERS:
        durations = layer(f"samplers.{s}")["durations"]
        out[f"samplers.{s}.ms_p50"] = 1000.0 * float(statistics.median(durations)) if len(durations) else 0.0
        used, budget = tracer.ledger[s]
        out[f"samplers.{s}.budget_used_frac"] = used / budget if budget else 0.0
    out["samplers.self_s"] = sum(layer(f"samplers.{s}")["self_s"] for s in _SAMPLERS) / passes
    out["harness.parallel_efficiency"] = 0.0  # measured by cli-ablate only
    out["trace.wall_s"] = traced_wall / passes
    out["trace.layer_self_s"] = sum(v["self_s"] for k, v in table.items() if k != ROOT) / passes
    out["trace_overhead_frac"] = traced_wall / plain_wall - 1.0
    return out


def run(name: str, seed: int, seconds: float, trace: bool, sizes: dict | None = None,
        probes: int = PROBES) -> tuple[dict, dict]:
    """One benchmark run; returns the information line and the result line."""
    from hostclock import PROBE_REF_S, HostClock, at_reference
    from spans import Patches, Tracer, namespace_snapshot, restored
    from workloads import DEFAULT_SIZES, WORKLOADS

    sizes = sizes or DEFAULT_SIZES
    out_dir = BENCH / "out" / name
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    workload = WORKLOADS[name](REPO, out_dir, seed, sizes)
    workload.prepare()

    clock = HostClock()
    if trace:
        tracer = Tracer()
        before = namespace_snapshot()

        def pair(k):
            plain = workload.twin_pass(k)
            with Patches(tracer):
                return plain, workload.twin_pass(k, tracer)

        pairs = _window(seconds, pair)
        passes = [plain for plain, _ in pairs]
    else:
        passes = _window(seconds, lambda k: workload.run_pass(k, clock=clock))
        peak_rss = workload.peak_rss_mb()

    checks = workload.checks(passes)
    if trace:
        checks["wrappers_restored"] = restored(before)
        for k, (plain, traced) in enumerate(pairs):
            checks[f"trace_changes_no_result[{k}]"] = (
                workload.digest_lines([plain]) == workload.digest_lines([traced]))
        tracer.save(out_dir / "spans.npz")
    imported, ready, probe_failed = _probe(name, seed, out_dir, sizes, probes)

    ran = passes + ([t for _, t in pairs] if trace else [])
    attempted = sum(p.attempted for p in ran) + len(checks) + probes
    failed = sum(p.failed for p in ran) + sum(not ok for ok in checks.values()) + probe_failed
    if trace:
        traced_wall = sum(t.wall_s for _, t in pairs)
        values = _layer_metrics(tracer, len(pairs), traced_wall, sum(p.wall_s for p in passes))
        values["setup.import_s"] = statistics.median(imported) if imported else 0.0
        values.update(workload.layer_extras())
        units = dict(PER_LAYER)
    else:
        values = _end_to_end(passes, ready, peak_rss, at_reference)
        units = dict(END_TO_END)
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}

    results = {k: {"value": v, "unit": u} for k, (v, u) in workload.info(passes).items()}
    results["error_frac"] = {"value": failed / attempted, "unit": "ratio"}
    info = {
        "workload": name,
        "trace": int(trace),
        "env": _environment(seed),
        "pass_s": [sum(at_reference(p.units)) for p in passes],
        "raw_pass_s": [sum(_raw(p.units)) for p in passes],
        "host_probe_ms": {"reference": 1e3 * PROBE_REF_S,
                          "quartiles": [1e3 * q for q in _quartiles(clock.readings)]},
        "record_samples": sum(len(p.records) for p in passes),
        "digest": hashlib.sha256("\n".join(workload.digest_lines(passes)).encode()).hexdigest(),
        "results": results,
        "failed_checks": sorted(k for k, ok in checks.items() if not ok),
    }
    if not trace:
        info["raw_metrics"] = _end_to_end(passes, ready, peak_rss, _raw)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return info, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper-table", "marginal-transport", "cli-ablate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "flowsearch" / "__init__.py").is_file():
        print(f"benchmark: no flowsearch sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(1, str(SRC))
    import flowsearch

    if Path(flowsearch.__file__).resolve().parent != (SRC / "flowsearch").resolve():
        print(f"benchmark: imported flowsearch from {flowsearch.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    info, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
