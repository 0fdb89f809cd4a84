import numpy as np
import pytest
from scipy.stats import chi2

from flowsearch.analytic_flow import default_benchmark_gmm
from flowsearch.engine import PROCESS_NAMES, make_plan
from flowsearch.errors import BudgetError, DomainError
from flowsearch.harness import branched_proposals, diversity_mpd
from flowsearch.rewards import evaluate_reward, rare_mode_reward, target_point_reward
from flowsearch.samplers import (
    SAMPLERS,
    SearchBudget,
    _uniform_split,
    best_of_n,
    ess,
    resample_multinomial,
    run_code,
    run_rbf,
    run_smc,
    run_svdd,
    search_over_paths,
)
from flowsearch import rng as streams

GMM = default_benchmark_gmm()
RARE = rare_mode_reward(GMM)


def budget(total=500):
    return SearchBudget(total)


def test_budget_uniform_split():
    quotas = _uniform_split(503, 10)
    assert sum(quotas) == 503
    assert quotas == [51, 51, 51, 50, 50, 50, 50, 50, 50, 50]


@pytest.mark.parametrize("name", ["bon", "sop", "smc", "code", "svdd", "rbf"])
def test_budget_below_plan_steps_is_refused(name):
    # the plan owns the step count; a total that cannot pay one NFE per step
    # is refused before any work
    with pytest.raises(BudgetError, match="cannot cover 10 steps"):
        SAMPLERS[name](make_plan("linear-sde", 10), GMM, RARE, SearchBudget(9), seed=0)
    with pytest.raises(BudgetError):
        SearchBudget(0)


def test_budget_charge_guard():
    # the run owns the ledger: a negative charge, or one past the total,
    # raises and books nothing; the budget holds only its total
    from flowsearch.samplers import _Runner

    r = _Runner(make_plan("linear-sde", 4), GMM, RARE, budget(20), seed=0)
    r.charge(1, 12)
    r.charge(None, 2)
    for n in (-1, 7):
        with pytest.raises(BudgetError):
            r.charge(2, n)
        assert (r.used, r.per_step) == (14, [0, 12, 0, 0])
    r.charge(3, 6)
    assert (r.used, r.per_step) == (20, [0, 12, 0, 6])
    with pytest.raises(BudgetError):
        r.charge(None, 1)
    assert (r.used, r.per_step) == (20, [0, 12, 0, 6])
    b = budget(20)
    with pytest.raises(AttributeError):
        b.total_nfe = 30
    assert vars(b) == {"total_nfe": 20}


@pytest.mark.parametrize("name", ["bon", "sop", "smc", "code", "svdd", "rbf"])
@pytest.mark.parametrize("process", ["linear-sde", "vp-sde"])
def test_one_budget_serves_any_number_of_runs(name, process):
    # a budget holds only its total: two runs sharing one return what a
    # fresh budget gives, ledger and trace included
    plan = make_plan(process, 10)
    fresh = SAMPLERS[name](plan, GMM, RARE, budget(), seed=3)
    shared = budget()
    for _ in range(2):
        res = SAMPLERS[name](plan, GMM, RARE, shared, seed=3)
        np.testing.assert_array_equal(res.best_x, fresh.best_x)
        assert repr(res.best_reward) == repr(fresh.best_reward)
        assert res.nfe_used == fresh.nfe_used
        assert res.per_step_consumption == fresh.per_step_consumption
        np.testing.assert_equal(res.trace, fresh.trace)


def test_ess_examples():
    assert ess([1.0, 1.0, 1.0, 1.0]) == pytest.approx(4.0, abs=1e-15)
    assert ess([1.0, 0.0, 0.0, 0.0]) == pytest.approx(1.0, abs=1e-15)
    assert ess([2.0, 1.0, 1.0]) == pytest.approx(16.0 / 6.0, abs=1e-12)
    with pytest.raises(DomainError):
        ess([0.0, 0.0])


def test_resample_point_mass_and_empty():
    rng = np.random.default_rng(1)
    idx = resample_multinomial([0.0, 1.0, 0.0], 32, rng)
    assert np.all(idx == 1)
    assert resample_multinomial([1.0, 1.0], 0, rng).size == 0


def test_resample_uniform_chi_square():
    # empirical counts of 1e5 uniform draws pass a 99% chi-square test
    rng = np.random.default_rng(2)
    n, k = 100_000, 8
    idx = resample_multinomial(np.ones(k), n, rng)
    counts = np.bincount(idx, minlength=k)
    stat = np.sum((counts - n / k) ** 2 / (n / k))
    assert stat < chi2.ppf(0.99, df=k - 1)


def test_smc_weight_update_value():
    # w' = exp(v'/beta) / exp(v/beta) * w at beta = 0.1: 0.2 -> 0.5 gives e^3
    beta = 0.1
    w = 1.0 * np.exp((0.5 - 0.2) / beta)
    assert w == pytest.approx(np.exp(3.0), rel=1e-12)


def test_best_of_n_batch_size_and_argmax():
    plan = make_plan("linear-ode", 10)
    res = best_of_n(plan, GMM, RARE, budget(500), seed=0)
    assert res.nfe_used == 500  # 50 trajectories x 10 steps
    assert res.per_step_consumption == [50] * 10
    assert res.best_reward == pytest.approx(
        float(np.max([res.best_reward])), abs=0.0
    )
    with pytest.raises(BudgetError):
        best_of_n(plan, GMM, RARE, SearchBudget(5), seed=0)


def test_best_of_n_is_argmax_over_trajectory_endpoints():
    plan = make_plan("linear-ode", 5)
    b = budget(15)  # n = 3 trajectories
    res = best_of_n(plan, GMM, RARE, b, seed=3)
    from flowsearch.engine import run_process
    from flowsearch.analytic_flow import velocity_at

    endpoints = []
    starts = streams.stream(3, streams.INIT).standard_normal((3, 2))  # the run's INIT block
    for i in range(3):
        x1 = starts[i]
        x0, _ = run_process(
            plan, x1, streams.stream(3, streams.PROCESS), lambda x, t: velocity_at(GMM, plan.src_schedule, t, x)
        )
        endpoints.append(x0)
    rewards = [float(evaluate_reward(RARE, e)) for e in endpoints]
    assert res.best_reward == pytest.approx(max(rewards), rel=1e-12)


# Exact results at nfe=100, steps=5, seed 0: best_reward (compared by repr,
# so bit for bit) and nfe_used.  A change that moves a result on purpose
# updates the pin and says so in CHANGES.md.
GOLDEN = {
    ("bon", "linear-ode"): ("-2.727577879042184", 100),
    ("sop", "linear-sde"): ("-14.031786370029689", 80),
    ("sop", "vp-sde"): ("-9.315576311789801", 80),
    ("smc", "linear-sde"): ("-1.8600254807929397", 100),
    ("smc", "vp-sde"): ("-2.068897320303593", 100),
    ("code", "linear-sde"): ("-1.8454209922661522", 100),  # uniform quotas
    ("code", "vp-sde"): ("-2.38512377392743", 100),
    ("svdd", "linear-sde"): ("-1.851169298307521", 100),
    ("svdd", "vp-sde"): ("-2.1069952101992406", 100),
    ("rbf", "linear-sde"): ("-1.8777567371562798", 100),
    ("rbf", "vp-sde"): ("-2.1527418684123307", 100),
    ("smc", "linear-sde-adaptive-time"): ("-1.9056964820218298", 100),
    ("code", "linear-sde-adaptive-time"): ("-1.894311696399193", 100),
    ("svdd", "linear-sde-adaptive-time"): ("-1.924180549335299", 100),
    ("rbf", "linear-sde-adaptive-time"): ("-1.9274334853543098", 100),
    ("smc", "linear-sde-scaled-diffusion"): ("-1.837902729711606", 100),
    ("code", "linear-sde-scaled-diffusion"): ("-1.8510606101531666", 100),
    ("svdd", "linear-sde-scaled-diffusion"): ("-1.8388474092564473", 100),
    ("rbf", "linear-sde-scaled-diffusion"): ("-1.8510606101531666", 100),
}


def test_golden_results():
    got = {}
    for name, process in GOLDEN:
        res = SAMPLERS[name](make_plan(process, 5), GMM, RARE, budget(100), seed=0)
        got[name, process] = (repr(res.best_reward), res.nfe_used)
    assert got == GOLDEN


# Exact results at steps=10, seed 0, in the regime the benchmark runs: nfe
# 1000 is four batches and nfe 300 one, each drawing k=25 per interval.
BENCH_GOLDEN = {
    ("code", "linear-sde", 300): ("-1.8379768802992396", 250),
    ("code", "linear-sde", 1000): ("-1.8378826705227755", 1000),
    ("code", "vp-sde", 300): ("-2.002936183333071", 250),
    ("code", "vp-sde", 1000): ("-1.9154332667148215", 1000),
    ("svdd", "linear-sde", 300): ("-1.8378872797771977", 250),
    ("svdd", "linear-sde", 1000): ("-1.8378872797771977", 1000),
    ("svdd", "vp-sde", 300): ("-2.1629432044588226", 250),
    ("svdd", "vp-sde", 1000): ("-2.1629432044588226", 1000),
}


def test_golden_results_at_benchmark_budgets():
    got = {}
    for name, process, nfe in BENCH_GOLDEN:
        res = SAMPLERS[name](make_plan(process, 10), GMM, RARE, budget(nfe), seed=0)
        got[name, process, nfe] = (repr(res.best_reward), res.nfe_used)
    assert got == BENCH_GOLDEN


# The diversity protocol's exact results at steps=5, seed 0 (by repr): the
# per-branch noise, its cache and the converted kernel, bit for bit.
DIVERSITY_GOLDEN = {
    "linear-ode": "0.0",
    "linear-sde": "6.911347504185696",
    "linear-sde-adaptive-time": "6.075962159842063",
    "linear-sde-scaled-diffusion": "6.419521248622461",
    "vp-sde": "7.00861553072319",
}


def test_golden_diversity():
    got = {p: repr(diversity_mpd(branched_proposals(make_plan(p, 5), GMM, 0)))
           for p in DIVERSITY_GOLDEN}
    assert got == DIVERSITY_GOLDEN


@pytest.mark.parametrize("name", ["bon", "sop", "smc", "code", "svdd", "rbf"])
@pytest.mark.parametrize("process", ["linear-sde", "vp-sde"])
def test_budget_safety_and_determinism(name, process):
    if name == "bon":
        process = "linear-ode"
    plan = make_plan(process, 10)
    res1 = SAMPLERS[name](plan, GMM, RARE, budget(), seed=11)
    res2 = SAMPLERS[name](plan, GMM, RARE, budget(), seed=11)
    assert res1.nfe_used <= 500
    assert res1.nfe_used == sum(res1.per_step_consumption) + (res1.trace or {}).get(
        "init_charges", 0
    )
    np.testing.assert_array_equal(res1.best_x, res2.best_x)
    assert res1.best_reward == res2.best_reward
    res3 = SAMPLERS[name](plan, GMM, RARE, budget(), seed=12)
    if plan.g.any() or name in ("bon", "sop"):
        assert not np.array_equal(res1.best_x, res3.best_x)


def _first_max(values):
    """Per row, the lowest index holding the row's maximum."""
    return [int(np.flatnonzero(v == v.max())[0]) for v in values]


def test_selection_correctness_svdd(monkeypatch):
    # each batch keeps the lowest-index maximum of the values select computed
    from flowsearch.samplers import _Runner

    value, select = _Runner.value, _Runner.select
    valued, kept = [], []

    def value_spy(self, x0):
        out = value(self, x0)
        valued.append(out)
        return out

    def select_spy(self, x, x0):
        out = select(self, x, x0)
        kept.append((x, out[0]))
        return out

    monkeypatch.setattr(_Runner, "value", value_spy)
    monkeypatch.setattr(_Runner, "select", select_spy)
    run_svdd(make_plan("linear-sde", 4), GMM, RARE, budget(40), seed=5, k=10)
    # every selection values its rows, one-draw chains (n == 1) included
    assert len(kept) == len(valued) > 0
    assert any(x.shape[1] == 1 for x, _ in kept)
    for (x, out), values in zip(kept, valued):
        assert values.shape == x.shape[:2]
        np.testing.assert_array_equal(out, x[np.arange(x.shape[0]), _first_max(values)])


def test_tie_break_lowest_index(monkeypatch):
    # tied values scripted through _Runner.value: select keeps the lowest
    # index in every batch; v and -v tie bitwise as the best finals under a
    # target at the origin, and the final pick is the lower index
    from flowsearch.samplers import _Runner

    scripted = np.array([[0.1, 0.9, 0.9, 0.2], [0.5, 0.5, 0.5, 0.5], [-1.0, 0.3, -2.0, 0.3]])
    monkeypatch.setattr(_Runner, "value", lambda self, x0: scripted)
    origin = target_point_reward([0.0, 0.0])
    r = _Runner(make_plan("linear-sde", 4), GMM, origin, budget(), seed=0)
    x = np.random.default_rng(0).standard_normal((3, 4, 2))
    assert _first_max(scripted) == [1, 0, 1]
    np.testing.assert_array_equal(r.select(x, r.query(x, 1))[0], x[[0, 1, 2], [1, 0, 1]])
    finals = np.array([[2.0, 1.0], x[0, 1], -x[0, 1], [1.5, -1.0]])
    values = evaluate_reward(origin, finals)
    assert values[1] == values[2] == values.max() and finals[1, 0] != finals[2, 0]
    res = r.result(finals)
    np.testing.assert_array_equal(res.best_x, x[0, 1])


def test_top_k_tie_break():
    from flowsearch.samplers import _top_k_first

    np.testing.assert_array_equal(_top_k_first(np.array([1.0, 9.0, 4.0, 9.0, 2.0]), 2), [1, 3])


def test_sop_defaults_and_budget():
    plan = make_plan("linear-ode", 10)
    res = search_over_paths(plan, GMM, RARE, budget(), seed=1)
    assert res.nfe_used <= 500
    # 9 rounds of 2*5 particles x 2 ode intervals
    assert res.nfe_used == 180


def test_sop_degenerate_single_branch():
    # k_branch=1 with zero forward noise keeps one path per survivor
    plan = make_plan("linear-ode", 10)
    res = search_over_paths(plan, GMM, RARE, budget(), seed=2, n_keep=1, k_branch=1)
    assert res.nfe_used <= 500


@pytest.mark.parametrize("process", ["vp-sde", "linear-sde-adaptive-time"])
def test_sop_forward_noise_lands_on_the_target_marginal(process):
    # an exact latent at grid point j, re-noised to j - 1, is distributed as
    # the marginal at j - 1 in the latent's own coordinates and clock
    from flowsearch.analytic_flow import GaussianMixtureModel, marginal_at
    from flowsearch.interpolants import eval_schedule
    from flowsearch.samplers import _forward_noise

    prior = GaussianMixtureModel([1.0], [[2.0, -1.0]], [[0.25, 1.0]])
    plan = make_plan(process, 10)
    rng = np.random.default_rng(12)
    n = 200_000
    for j in (5, 8):
        alpha, sigma, _, _ = eval_schedule(plan.schedule, plan.times[j])
        x0 = prior.means[0] + np.sqrt(prior.variances[0]) * rng.standard_normal((n, 2))
        xj = alpha * x0 + sigma * rng.standard_normal((n, 2))
        out = _forward_noise(plan, xj, j, rng.standard_normal((n, 2)))
        want = marginal_at(prior, plan.schedule, plan.times[j - 1])
        np.testing.assert_allclose(out.mean(axis=0), want.means[0], atol=0.01)
        np.testing.assert_allclose(out.std(axis=0), np.sqrt(want.variances[0]), rtol=0.01)


@pytest.mark.parametrize("process", ["linear-sde", "vp-sde", "linear-sde-adaptive-time"])
def test_sop_never_steps_identical_proposals(monkeypatch, process):
    # every round, the noise end included, branches into distinct latents
    import flowsearch.samplers as S

    orig = S._Runner.step
    batches = []

    def spy(self, x, x0, i, z):
        batches.append(np.array(x))
        return orig(self, x, x0, i, z)

    monkeypatch.setattr(S._Runner, "step", spy)
    search_over_paths(make_plan(process, 5), GMM, RARE, budget(100), seed=0)
    assert batches
    for x in batches:
        assert np.unique(x, axis=0).shape[0] == x.shape[0]


def test_smc_uniform_values_never_resample():
    # equal values at every step keep the weights equal, so the ESS stays at
    # N and resampling never triggers
    import flowsearch.samplers as S

    calls = []
    orig_resample = S.resample_multinomial
    orig_value = S._Runner.value

    def spy(w, n, rng):
        calls.append(len(w))
        return orig_resample(w, n, rng)

    def flat_value(self, x0):
        return np.zeros(np.shape(x0)[0])

    S.resample_multinomial = spy
    S._Runner.value = flat_value
    try:
        run_smc(make_plan("linear-sde", 5), GMM, RARE, budget(50), seed=3)
    finally:
        S.resample_multinomial = orig_resample
        S._Runner.value = orig_value
    assert calls == []


@pytest.mark.parametrize("process, steps", [(p, 10) for p in PROCESS_NAMES]
                         + [("linear-sde", 1001)])
def test_smc_resampling_on_uneven_weights_runs_on_every_process(process, steps):
    # ess_threshold_frac=1.0 resamples whenever the weights are uneven: never
    # at the first step (uniform weights: ESS = N), and at the second, where
    # the x̂0 of the values follows the ancestors.  At 1001 steps grid point 1
    # lies above 1 - T_MIN, and its values come from step 1's query all the
    # same.
    res = run_smc(make_plan(process, steps), GMM, RARE, budget(2 * steps), seed=0,
                  ess_threshold_frac=1.0)
    assert res.trace["resampled"][:2] == [False, True]
    assert res.nfe_used == 2 * steps


def test_smc_budget_is_n_per_step():
    plan = make_plan("vp-sde", 10)
    res = run_smc(plan, GMM, RARE, budget(500), seed=4)
    assert res.per_step_consumption == [50] * 10
    assert res.nfe_used == 500


def test_code_defaults_consume_full_budget():
    plan = make_plan("vp-sde", 10)
    res = run_code(plan, GMM, RARE, budget(500), seed=6)
    assert res.nfe_used == 500
    assert sum(res.per_step_consumption) == 500


def test_code_single_terminal_selection_when_interval_exceeds_steps():
    plan = make_plan("linear-sde", 5)
    res = run_code(plan, GMM, RARE, budget(50), seed=7, interval=9, k=10)
    assert res.nfe_used <= 50


def test_code_starved_schedule_is_uniform():
    # one batch below steps * k: quotas (11, 10, ..., 10), and each window
    # of three intervals draws its mean quota, 31 // 3 or 30 // 3
    plan = make_plan("linear-sde", 10)
    res = run_code(plan, GMM, RARE, budget(101), seed=0, interval=3)
    assert res.per_step_consumption == [10] * 10
    assert res.nfe_used == 100


@pytest.mark.parametrize("process", ["linear-sde", "vp-sde"])
def test_svdd_is_code_at_interval_one(process):
    # one starved batch (30, 100), one exact batch (250), four batches (1003)
    plan = make_plan(process, 10)
    for total in (30, 100, 250, 1003):
        for seed in range(3):
            _same(run_svdd(plan, GMM, RARE, budget(total), seed),
                  run_code(plan, GMM, RARE, budget(total), seed, interval=1))


def test_svdd_consumes_quota():
    plan = make_plan("vp-sde", 10)
    res = run_svdd(plan, GMM, RARE, budget(500), seed=8)
    assert res.nfe_used == 500
    assert res.per_step_consumption == [50] * 10  # two batches of 25


def test_svdd_k1_is_plain_trajectory():
    plan = make_plan("linear-sde", 10)
    res = run_svdd(plan, GMM, RARE, budget(10), seed=9, k=1)
    assert res.nfe_used == 10


def test_rbf_hand_traced_rollover():
    # quotas (5,5): improvement at j=2 in step 1 must set step 2's quota to 8
    plan = make_plan("linear-sde", 2)
    res = run_rbf(plan, GMM, RARE, SearchBudget(11), seed=0, batches=1)
    batch = res.trace["batches"][0]
    assert batch["quotas_at_entry"][0][0] == 5
    j = batch["accepted_at"][0]
    if j < 5:  # improvement inside step 1's quota rolls the surplus forward
        assert batch["quotas_at_entry"][1][0] == 5 + (5 - j)
    assert res.nfe_used <= 11


def test_rbf_accounting_and_conservation_fuzz():
    # the NFE spent never exceeds the budget; spent + the quotas still to
    # come is conserved at every step entry
    rng = np.random.default_rng(10)
    for trial in range(60):
        steps = int(rng.integers(2, 7))
        total = int(rng.integers(steps + 1, 8 * steps))
        plan = make_plan("linear-sde", steps)
        res = run_rbf(plan, GMM, RARE, SearchBudget(total), seed=trial, batches=1)
        assert res.nfe_used <= total
        batch = res.trace["batches"][0]
        spent = 1  # init charge
        for i in range(steps):
            assert spent + sum(batch["quotas_at_entry"][i]) == total
            spent += batch["accepted_at"][i]
        assert res.nfe_used == spent


def test_rbf_worst_case_consumes_everything():
    # a reward that never improves forces full quota spend at every step
    class NeverImprove:
        kind = "ring"
        params = {"radius": 1.0}
        kl_temperature = 0.1

    import flowsearch.samplers as samplers_mod

    orig_value = samplers_mod._Runner.value
    counter = {"v": 0.0}

    def declining(self, x0):
        # strictly declining values: the initial estimate is never beaten
        counter["v"] -= 100.0
        return np.full(np.shape(x0)[:-1], counter["v"])

    samplers_mod._Runner.value = declining
    try:
        plan = make_plan("linear-sde", 4)
        res = run_rbf(plan, GMM, RARE, SearchBudget(21), seed=0, batches=1)
    finally:
        samplers_mod._Runner.value = orig_value
    assert res.nfe_used == 21  # 1 init + quotas (5,5,5,5)
    assert res.per_step_consumption == [5, 5, 5, 5]


def test_rbf_immediate_improvement_spends_minimum():
    import flowsearch.samplers as samplers_mod

    orig_value = samplers_mod._Runner.value
    counter = {"v": 0.0}

    def rising(self, x0):
        counter["v"] += 1.0
        return np.full(np.shape(x0)[:-1], counter["v"])

    samplers_mod._Runner.value = rising
    try:
        plan = make_plan("linear-sde", 4)
        res = run_rbf(plan, GMM, RARE, SearchBudget(41), seed=0, batches=1)
    finally:
        samplers_mod._Runner.value = orig_value
    assert res.nfe_used == 1 + 4  # init + one accepted proposal per step


def test_rbf_batch_minimum():
    plan = make_plan("linear-sde", 10)
    with pytest.raises(BudgetError):
        run_rbf(plan, GMM, RARE, SearchBudget(20), seed=0, batches=2)


# --- block noise: one stream per (seed, domain, step, batch), particle = row


def _runner(process="linear-sde", steps=5, seed=0):
    from flowsearch.samplers import _Runner

    return _Runner(make_plan(process, steps), GMM, RARE, SearchBudget(100), seed)


def test_blocks_have_the_prefix_property():
    # the first j rows of a q-row block are the j-row block
    r = _runner()
    for i, b in ((0, 0), (2, 1), (3, 7)):
        full = r.noise(i, b, 40)
        for j in range(1, 41):
            np.testing.assert_array_equal(r.noise(i, b, j), full[:j])
    full = r.initials(40)[0]
    for j in range(1, 41):
        np.testing.assert_array_equal(r.initials(j)[0], full[:j])


def test_block_keys_give_distinct_rows():
    r = _runner(steps=5)
    blocks = [r.noise(i, b, 30) for i in range(4) for b in range(3)]
    rows = np.concatenate(blocks + [r.initials(30)[0]])
    assert np.unique(rows, axis=0).shape[0] == rows.shape[0]
    assert r.noise(4, 0, 30) is None  # the final interval injects no noise
    assert r.noise(0, 0, 1).shape == (1, GMM.dim)


def _record_noise(monkeypatch):
    """Record every noise block the samplers step with, by interval."""
    import flowsearch.samplers as S

    seen = {}
    orig = S._Runner.step

    def spy(self, x, x0, i, z):
        if z is not None:
            seen.setdefault(i, []).append(np.array(z))
        return orig(self, x, x0, i, z)

    monkeypatch.setattr(S._Runner, "step", spy)
    return seen


@pytest.mark.parametrize("name", ["smc", "code", "svdd", "rbf"])
@pytest.mark.parametrize("process", ["linear-sde", "vp-sde"])
def test_no_two_proposals_share_a_noise_row(monkeypatch, name, process):
    seen = _record_noise(monkeypatch)
    SAMPLERS[name](make_plan(process, 5), GMM, RARE, budget(200), seed=2)
    assert len(seen) == 4  # every interval but the final one is noisy
    for blocks in seen.values():
        rows = np.concatenate([z.reshape(-1, GMM.dim) for z in blocks])
        assert np.unique(rows, axis=0).shape[0] == rows.shape[0]


def _step_each_row(monkeypatch):
    """Reference stepping: a proposal block from one parent is stepped one
    row at a time, each with its own ``step(x[None], x0, i, z[j])`` and its
    own oracle query; B parents ``(B, 1, d)`` are stepped one parent at a
    time."""
    import flowsearch.samplers as S

    orig = S._Runner.step

    def per_row(self, x, x0, i, z):
        if z is None or x.shape[-2] != 1:
            return orig(self, x, x0, i, z)
        if x.ndim == 3:
            parts = [per_row(self, xb, x0b, i, zb) for xb, x0b, zb in zip(x, x0, z)]
            return tuple(np.stack(part) for part in zip(*parts))
        parts = [orig(self, x, x0, i, z[j : j + 1]) for j in range(z.shape[0])]
        return tuple(np.concatenate(part) for part in zip(*parts))

    monkeypatch.setattr(S._Runner, "step", per_row)


def _sequential_rbf(plan, gmm, reward, budget, seed, batches=2):
    """rbf as a plain sequential loop: proposal j is stepped (its own
    oracle query, row j of the block) only once j-1 proposals failed."""
    from flowsearch.samplers import _Runner

    r = _Runner(plan, gmm, reward, budget, seed)
    starts, posts = r.initials(batches)
    finals, accepted_at = [], []
    for b, share in enumerate(_uniform_split(budget.total_nfe, batches)):
        quotas = _uniform_split(share - 1, plan.steps)
        x, x0 = starts[b], posts[b]
        r.charge(None, 1)
        r_star = float(r.value(x0))
        for i in range(plan.steps):
            q = quotas[i]
            z = r.noise(i, b, q)
            proposals, values = [], []
            for j in range(q):
                r.charge(i, 1)
                xj, x0j = r.step(x[None, :], x0, i, None if z is None else z[j : j + 1])
                proposals.append((xj[0], x0j[0]))
                values.append(float(r.value(x0j[0])))
                if values[-1] > r_star:
                    break
            if values[-1] > r_star:
                if i + 1 < plan.steps:
                    quotas[i + 1] += q - len(values)
                r_star = values[-1]
                x, x0 = proposals[-1]
            else:
                x, x0 = proposals[int(np.argmax(values))]
            accepted_at.append(len(values))
        finals.append(x)
    return r.result(finals), accepted_at


def _same(a, b):
    np.testing.assert_array_equal(a.best_x, b.best_x)
    assert repr(a.best_reward) == repr(b.best_reward)
    assert a.nfe_used == b.nfe_used
    assert a.per_step_consumption == b.per_step_consumption


@pytest.mark.parametrize("process", ["linear-sde", "vp-sde"])
def test_shared_parent_stepping_matches_per_row_reference(monkeypatch, process):
    # one oracle query per shared parent, broadcast over the noise block,
    # is bitwise the per-proposal loop
    cases = [(run_svdd, {"k": 7}), (run_code, {"k": 7}), (run_code, {"k": 4, "interval": 3})]
    for seed in range(4):
        plan = make_plan(process, 5)
        batched = [fn(plan, GMM, RARE, budget(90), seed, **kw) for fn, kw in cases]
        with monkeypatch.context() as m:
            _step_each_row(m)
            reference = [fn(plan, GMM, RARE, budget(90), seed, **kw) for fn, kw in cases]
        for a, b in zip(batched, reference):
            _same(a, b)


@pytest.mark.parametrize("process", ["linear-sde", "vp-sde"])
def test_rbf_matches_the_sequential_loop(monkeypatch, process):
    # same acceptance index, rollover, charges and winner as stepping and
    # valuing one proposal at a time
    second_calls = 0
    for seed in range(6):
        for total, steps, batches in ((100, 5, 2), (61, 4, 1), (157, 6, 3), (90, 4, 4)):
            plan = make_plan(process, steps)
            with monkeypatch.context() as m:
                log = _spy_oracle(m)
                res = run_rbf(plan, GMM, RARE, SearchBudget(total), seed, batches=batches)
            second_calls += len(log["step"]) - steps
            ref, accepted_at = _sequential_rbf(plan, GMM, RARE, SearchBudget(total),
                                               seed, batches)
            _same(res, ref)
            assert [j for bt in res.trace["batches"] for j in bt["accepted_at"]] == accepted_at
    assert second_calls > 0  # some step read past its own quota


# --- batched selection: svdd and code advance all batches together


def _best_row(r, x, x0):
    """One batch's selection: the argmax-value row of x with its x̂0, lowest
    index on ties; a single row is taken without valuing."""
    j = 0 if x.shape[0] == 1 else int(np.argmax(r.value(x0)))
    return x[j], x0[j]


def _per_batch_svdd(plan, gmm, reward, budget, seed, k=25):
    """svdd one batch at a time: each batch's own share and quotas, its
    parent stepped as ``x[None]`` with its own ``(draws, d)`` block."""
    from flowsearch.samplers import _Runner

    r = _Runner(plan, gmm, reward, budget, seed)
    batches = max(1, budget.total_nfe // (plan.steps * k))
    starts, posts = r.initials(batches)
    finals = []
    for b, share in enumerate(_uniform_split(budget.total_nfe, batches)):
        quotas = _uniform_split(share, plan.steps)
        x, x0 = starts[b], posts[b]
        for i in range(plan.steps):
            draws = min(k, quotas[i])
            r.charge(i, draws)
            x, x0 = _best_row(r, *r.step(x[None, :], x0, i, r.noise(i, b, draws)))
        finals.append(x)
    return r.result(finals)


def _per_batch_code(plan, gmm, reward, budget, seed, interval=2, k=25):
    """code one batch at a time, each with its own share and quotas; a window
    draws its mean quota, at most k."""
    from flowsearch.samplers import _Runner

    r = _Runner(plan, gmm, reward, budget, seed)
    steps = plan.steps
    batches = max(1, budget.total_nfe // (steps * k))
    starts, posts = r.initials(batches)
    finals = []
    for b, share in enumerate(_uniform_split(budget.total_nfe, batches)):
        quotas = _uniform_split(share, steps)
        x, x0, i0 = starts[b], posts[b], 0
        while i0 < steps:
            span = min(interval, steps - i0)
            draws = min(k, sum(quotas[i0:i0 + span]) // span)
            chains = x[None, :]
            for i in range(i0, i0 + span):
                r.charge(i, draws)
                chains, x0 = r.step(chains, x0, i, r.noise(i, b, draws))
            x, x0 = _best_row(r, chains, x0)
            i0 += span
        finals.append(x)
    return r.result(finals)


# (total NFE, steps, options): one batch with quota < k; four batches with
# uneven shares (251, 251, 251, 250); code's interval 3 and interval > steps
BATCH_CASES = [
    ("svdd", 30, 5, {"k": 7}),
    ("svdd", 1003, 10, {"k": 25}),
    ("code", 30, 5, {"k": 7}),
    ("code", 1003, 10, {"k": 25}),
    ("code", 30, 5, {"k": 7, "interval": 3}),
    ("code", 1003, 10, {"k": 25, "interval": 3}),
    ("code", 30, 5, {"k": 7, "interval": 9}),
    ("code", 1003, 10, {"k": 25, "interval": 12}),
]
PER_BATCH = {"svdd": _per_batch_svdd, "code": _per_batch_code}


@pytest.mark.parametrize("process", ["linear-sde", "vp-sde"])
def test_batched_svdd_and_code_match_the_per_batch_loops(process):
    for name, total, steps, opts in BATCH_CASES:
        plan = make_plan(process, steps)
        for seed in range(3):
            res = SAMPLERS[name](plan, GMM, RARE, SearchBudget(total), seed, **opts)
            ref = PER_BATCH[name](plan, GMM, RARE, SearchBudget(total), seed, **opts)
            _same(res, ref)


def _spy_oracle(monkeypatch):
    """Log the samplers' oracle work: the interval of every step (each makes
    at most one oracle query), and the grid point and row count of every
    value call; a value call's grid point is that of the latest query, the
    one that gave its x̂0."""
    import flowsearch.samplers as S

    log = {"step": [], "value": [], "query": []}
    orig_step, orig_value, orig_query = S._Runner.step, S._Runner.value, S._Runner.query

    def step(self, x, x0, i, z):
        log["step"].append(i)
        return orig_step(self, x, x0, i, z)

    def value(self, x0):
        log["value"].append((log["query"][-1], int(np.prod(np.shape(x0)[:-1]))))
        return orig_value(self, x0)

    def query(self, x, k):
        log["query"].append(k)
        return orig_query(self, x, k)

    monkeypatch.setattr(S._Runner, "step", step)
    monkeypatch.setattr(S._Runner, "value", value)
    monkeypatch.setattr(S._Runner, "query", query)
    return log


# rbf's (total NFE, steps, batches); 157 and 90 split into uneven shares, so
# the batches' quotas are ragged from the first step
RBF_CASES = [(1000, 10, 1), (1000, 10, 2), (157, 6, 3), (90, 4, 4)]


@pytest.mark.parametrize("process", ["linear-sde", "vp-sde"])
def test_svdd_and_code_make_one_oracle_call_per_interval(monkeypatch, process):
    # every batch's proposals share one step per interval and one
    # value call per selection, at the per-batch loop's charges
    for name, total, steps, opts in BATCH_CASES:
        plan = make_plan(process, steps)
        ref = PER_BATCH[name](plan, GMM, RARE, SearchBudget(total), 5, **opts)
        with monkeypatch.context() as m:
            log = _spy_oracle(m)
            res = SAMPLERS[name](plan, GMM, RARE, SearchBudget(total), 5, **opts)
        assert sorted(log["step"]) == list(range(steps))
        points = [k for k, _ in log["value"]]
        assert len(points) == len(set(points)) and set(points) <= set(range(1, steps + 1))
        assert (res.nfe_used, res.per_step_consumption) == (
            ref.nfe_used, ref.per_step_consumption)


def _rbf_oracle_log(plan, traces):
    """The ``(step intervals, (grid point, rows) value calls)`` an rbf run
    makes, from its trace: the initial latents in one call; a noisy step
    values each batch's own rows, the step's largest quota before rollover,
    and the rows up to the largest quota in one more call only when some
    batch accepted past them; a noiseless step values one row per batch."""
    batches = len(traces)
    steps_at, values_at = [], [(0, batches)]
    for i in range(plan.steps):
        width = max(bt["quotas_at_entry"][i][0] for bt in traces)
        own = max(bt["quotas_at_entry"][0][i] for bt in traces)  # before rollover
        cuts = [0, 1] if not plan.g[i] else [0, own] + (
            [width] if any(bt["accepted_at"][i] > own for bt in traces) else [])
        for lo, hi in zip(cuts, cuts[1:]):
            steps_at.append(i)
            values_at.append((i + 1, batches * (hi - lo)))
    return steps_at, values_at


@pytest.mark.parametrize("process", ["linear-sde", "vp-sde"])
def test_rbf_values_its_own_quota_then_its_rollover_on_a_miss(monkeypatch, process):
    # every batch together: one value call for the initial latents, one per
    # step over the step's own quota, and one more over the rolled-over rows
    # only when a batch found nothing beating r* in its own rows; charges and
    # the winner are the sequential loop's
    second_calls = 0
    for seed in range(3):
        for total, steps, batches in RBF_CASES:
            plan = make_plan(process, steps)
            ref, _ = _sequential_rbf(plan, GMM, RARE, SearchBudget(total), seed,
                                     batches=batches)
            with monkeypatch.context() as m:
                log = _spy_oracle(m)
                res = run_rbf(plan, GMM, RARE, SearchBudget(total), seed, batches=batches)
            traces = res.trace["batches"]
            assert len(traces) == batches
            assert (log["step"], log["value"]) == _rbf_oracle_log(plan, traces)
            second_calls += len(log["step"]) - steps
            assert (res.nfe_used, res.per_step_consumption) == (
                ref.nfe_used, ref.per_step_consumption)
            assert res.best_reward == ref.best_reward
    assert second_calls > 0


def test_rbf_reads_one_rolled_over_row_on_a_miss(monkeypatch):
    # a hit at index 3 of step 0's five proposals rolls one NFE over, so
    # step 1 holds six: its own five miss r* = 1, so the sixth is stepped and
    # valued in a second call; it wins, and its r* = 2 beats the final 1.5
    import flowsearch.samplers as S

    script = iter([[0.0], [[-1.0, -1.0, -1.0, 1.0, -1.0]], [[0.5] * 5], [[2.0]], [[1.5]]])
    monkeypatch.setattr(S._Runner, "value", lambda self, x0: np.array(next(script)))
    log = _spy_oracle(monkeypatch)
    res = run_rbf(make_plan("linear-sde", 3), GMM, RARE, SearchBudget(16), seed=0, batches=1)
    batch = res.trace["batches"][0]
    assert batch["accepted_at"] == [4, 6, 5]
    assert [q[0] for q in batch["quotas_at_entry"]] == [5, 6, 5]
    assert log["step"] == [0, 1, 1, 2]
    assert log["value"] == [(0, 1), (1, 5), (2, 5), (2, 1), (3, 1)]
    assert (res.nfe_used, res.per_step_consumption) == (16, [4, 6, 5])


# --- one oracle query per latent and grid point: valuing and stepping share x̂0

# Posterior evaluations (``analytic_flow._posterior_mean_unchecked``, which
# every velocity and value query makes) per run at nfe 1000 and 10 steps, in
# PROCESS_NAMES order.  A latent is valued at its next step's query and
# stepped from it, and a final value is the reward of the latent itself, so
# every sampler but sop makes one evaluation per interval; rbf makes one more
# on a step where a batch reads past its own quota, so its count depends on
# the seed (a set: the counts seeds 0-2 read).
ORACLE_CALLS = {
    "bon": (10, 10, 10, 10, 10),
    "sop": (26, 26, 26, 26, 26),
    "smc": (10, 10, 10, 10, 10),
    "code": (10, 10, 10, 10, 10),
    "svdd": (10, 10, 10, 10, 10),
    "rbf": (10, 10, 10, {10, 11}, {10, 11}),
}
# The rows those evaluations take, in the same runs.  On linear-ode a
# noiseless step leaves code's and svdd's draws as copies of one parent,
# so they query one row per batch.  rbf's rows depend on the seed.
ORACLE_ROWS = {
    "bon": (1000,) * 5,
    "sop": (260,) * 5,
    "smc": (1000,) * 5,
    "code": (40, 904, 904, 904, 904),
    "svdd": (40, 904, 904, 904, 904),
}


def _count_posterior(monkeypatch):
    """Count the oracle's posterior evaluations and the rows they take."""
    from flowsearch import analytic_flow

    calls = [0, 0]
    orig = analytic_flow._posterior_mean_unchecked

    def counted(gmm, at, x):
        calls[0] += 1
        calls[1] += x.size // gmm.dim
        return orig(gmm, at, x)

    monkeypatch.setattr(analytic_flow, "_posterior_mean_unchecked", counted)
    return calls


@pytest.mark.parametrize("name", list(ORACLE_CALLS))
def test_oracle_calls_per_run(monkeypatch, name):
    calls = _count_posterior(monkeypatch)
    got, rows = [], []
    for process in PROCESS_NAMES:
        counts, row_counts = set(), set()
        for seed in range(3):
            calls[:] = [0, 0]
            SAMPLERS[name](make_plan(process, 10), GMM, RARE, budget(1000), seed)
            counts.add(calls[0])
            row_counts.add(calls[1])
        got.append(counts.pop() if len(counts) == 1 else counts)
        rows.append(row_counts.pop() if len(row_counts) == 1 else row_counts)
    assert tuple(got) == ORACLE_CALLS[name]
    if name in ORACLE_ROWS:
        assert tuple(rows) == ORACLE_ROWS[name]


@pytest.mark.parametrize("steps, nfe", [(1, 7), (5, 100), (10, 1000), (1001, 2002)])
def test_smc_oracle_rows_equal_its_nfe(monkeypatch, steps, nfe):
    # smc values each particle at its next step's query and steps from it,
    # and values the finals by their reward: one evaluation per interval, and
    # one oracle row per charged NFE, the initial values included
    calls = _count_posterior(monkeypatch)
    for process in PROCESS_NAMES:
        calls[:] = [0, 0]
        res = run_smc(make_plan(process, steps), GMM, RARE, budget(nfe), seed=0)
        assert (calls[0], calls[1]) == (steps, res.nfe_used), process


def test_no_sampler_values_through_estimate_value(monkeypatch):
    import flowsearch.samplers as S

    calls = []
    monkeypatch.setattr(S, "estimate_value", lambda *args: calls.append(args))
    for name in SAMPLERS:
        for process in PROCESS_NAMES:
            SAMPLERS[name](make_plan(process, 5), GMM, RARE, budget(100), seed=0)
    assert calls == []


@pytest.mark.parametrize("process", ["linear-sde", "vp-sde"])
def test_sop_truncated_finish_steps_from_the_selected_x0(monkeypatch, process):
    # a truncated sop finishes its survivors from the x̂0 its last selection
    # valued: bitwise the finish from a fresh query, with one oracle call fewer
    import flowsearch.samplers as S

    plan = make_plan(process, 10)
    calls = _count_posterior(monkeypatch)
    res = search_over_paths(plan, GMM, RARE, budget(100), seed=0)
    reused = calls[0]
    orig, finishing = S._Runner.step, []

    def fresh_finish(self, x, x0, i, z):
        # the finish's first step (the n_keep = 2 survivors) queries them afresh
        if len(x) == 2 and not finishing:
            finishing.append(i)
            x0 = self.query(x, i)
        return orig(self, x, x0, i, z)

    monkeypatch.setattr(S._Runner, "step", fresh_finish)
    calls[0] = 0
    fresh = search_over_paths(plan, GMM, RARE, budget(100), seed=0)
    _same(res, fresh)
    assert res.nfe_used < 180  # a full run spends 180
    assert calls[0] == reused + 1


@pytest.mark.parametrize("process", ["linear-ode", "linear-sde", "linear-sde-adaptive-time",
                                     "linear-sde-scaled-diffusion", "vp-sde"])
def test_step_from_the_held_posterior_mean_is_the_oracle_step(monkeypatch, process):
    # rows kept by select step from the x̂0 select returned with them, bitwise
    # the x̂0-basis step from a fresh posterior query, with no oracle call for
    # the held rows at any grid point, t = 1 included: the step's one call
    # queries the rows it produced, and none is made at the final point
    from flowsearch.analytic_flow import posterior_mean
    from flowsearch.engine import step_from_x0
    from flowsearch.interpolants import SOURCE
    from flowsearch.samplers import _Runner

    plan = make_plan(process, 6)
    r = _Runner(plan, GMM, RARE, budget(), seed=0)

    def oracle_step(x, k, z):
        c, t = plan.intervals[k][0][:2]
        x0 = posterior_mean(GMM, SOURCE, t, x if c is None else x / c)
        return step_from_x0(plan, x, k, z, x0)

    gen = np.random.default_rng(1)
    calls = _count_posterior(monkeypatch)
    for k in range(plan.steps):
        chains = 3.0 * gen.standard_normal((4, 5, GMM.dim))
        z = gen.standard_normal((4, 3, GMM.dim)) if plan.g[k] else None
        x, x0 = r.select(chains, r.query(chains, k))
        assert x0 is not None
        want = oracle_step(x[:, None], k, z)
        calls[0] = 0
        np.testing.assert_array_equal(r.step(x[:, None], x0, k, z)[0], want)
        assert calls[0] == (k + 1 < plan.steps)


def test_vp_sde_values_through_the_source_query(monkeypatch):
    # vp-sde values an interior latent through the kernel's source query
    # (x / c_s at t_s), which agrees with the VP-coordinate posterior mean
    # to 1e-13
    from flowsearch.analytic_flow import posterior_mean
    from flowsearch.interpolants import SOURCE
    from flowsearch.rewards import evaluate_reward
    from flowsearch.samplers import _Runner

    plan = make_plan("vp-sde", 10)
    r = _Runner(plan, GMM, RARE, budget(), seed=0)
    x = 3.0 * np.random.default_rng(2).standard_normal((200, GMM.dim))
    for k in range(1, plan.steps):
        m = plan.maps[k]
        source = posterior_mean(GMM, SOURCE, m.t_s, x / m.c_s)
        vp = posterior_mean(GMM, plan.schedule, plan.grid[k], x)
        assert np.max(np.abs(source - vp)) <= 1e-13 * max(1.0, np.max(np.abs(vp)))
        x0 = r.query(x, k)
        values = r.value(x0)
        np.testing.assert_array_equal(values, evaluate_reward(RARE, source))
        np.testing.assert_array_equal(x0, source)


@pytest.mark.parametrize("process", ["linear-ode", "linear-sde", "linear-sde-adaptive-time",
                                     "linear-sde-scaled-diffusion"])
def test_final_step_returns_the_posterior_mean_bitwise(process):
    # in source coordinates the last interval lands on x̂0 exactly, whether
    # it steps single rows or parents ``(n, 1, d)`` from the x̂0 a query
    # returned
    from flowsearch.analytic_flow import posterior_mean
    from flowsearch.engine import StepPlan
    from flowsearch.interpolants import SOURCE
    from flowsearch.samplers import _Runner

    gen = np.random.default_rng(3)
    for steps in (2, 5, 10, 200):
        plan = StepPlan(process, steps)
        r = _Runner(plan, GMM, RARE, SearchBudget(1000), seed=0)
        k = steps - 1
        x = 3.0 * gen.standard_normal((20, GMM.dim))
        x0 = posterior_mean(GMM, SOURCE, plan.intervals[k][0].t, x)
        assert r.step(x, r.query(x, k), k, None)[0].tobytes() == x0.tobytes()
        valued = r.query(x, k)
        assert r.step(x[:, None], valued, k, None)[0].tobytes() == x0.tobytes()


@pytest.mark.parametrize("process", PROCESS_NAMES)
def test_query_is_one_posterior_call_and_the_latent_at_the_final_point(monkeypatch, process):
    # x̂0 at a grid point k < steps is one posterior_mean call at interval
    # k's query point, t = 1 included; at the final point it is the latent
    # itself, with no oracle call; the initial latents come with their x̂0
    # at step 0's query
    import flowsearch.samplers as S
    from flowsearch.analytic_flow import posterior_mean
    from flowsearch.interpolants import SOURCE

    plan = make_plan(process, 5)
    r = S._Runner(plan, GMM, RARE, budget(), seed=0)

    def fresh(x, k):
        c, t = plan.intervals[k][0][:2]
        return posterior_mean(GMM, SOURCE, t, x if c is None else x / c)

    x = 3.0 * np.random.default_rng(4).standard_normal((7, GMM.dim))
    want = [fresh(x, k) for k in range(plan.steps)]
    mean_calls = []
    monkeypatch.setattr(S, "posterior_mean",
                        lambda *args: mean_calls.append(args) or posterior_mean(*args))
    oracle = _count_posterior(monkeypatch)
    for k in range(plan.steps):
        mean_calls.clear()
        assert r.query(x, k).tobytes() == want[k].tobytes()
        assert len(mean_calls) == 1
    oracle[0] = 0
    assert r.query(x, plan.steps) is x
    assert oracle[0] == 0 and len(mean_calls) == 1
    init, init0 = r.initials(6)
    np.testing.assert_array_equal(init, streams.normals(0, (streams.INIT,), (6, GMM.dim)))
    assert init0.tobytes() == fresh(init, 0).tobytes()


def test_runner_keeps_only_its_inputs_and_ledger(monkeypatch):
    # x̂0 travels with the rows a sampler keeps: after a run the runner
    # holds its inputs and its NFE ledger, and no cache of latents
    from flowsearch.samplers import _Runner

    runners, result = [], _Runner.result

    def spy(self, *args, **kwargs):
        runners.append(self)
        return result(self, *args, **kwargs)

    monkeypatch.setattr(_Runner, "result", spy)
    for name in SAMPLERS:
        SAMPLERS[name](make_plan("vp-sde", 5), GMM, RARE, budget(100), seed=0)
    assert len(runners) == len(SAMPLERS)
    for r in runners:
        assert set(vars(r)) == {"plan", "gmm", "reward", "seed", "total", "used", "per_step"}


@pytest.mark.parametrize("process, seed", [("linear-sde-adaptive-time", 16),
                                           ("linear-sde-scaled-diffusion", 15)])
def test_rbf_exact_final_tie_spends_the_budget(process, seed):
    # the exact final jump makes rbf's last proposal its parent's x̂0, so its
    # value ties r* and never beats it: every batch misses and spends its
    # whole last quota.  A jump that landed within rounding of x̂0 could win
    # the tie and stop early (46 and 85 NFE on these cells); this pins where
    # the budget's handling of such ties starts from.
    from flowsearch.harness import load_config, run_experiment

    config = load_config({"sampler": "rbf", "process": process, "nfe": 100, "steps": 10,
                          "seeds": [seed]})
    assert run_experiment(config, seed, 100).nfe_used == 100
