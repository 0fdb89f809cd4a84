import numpy as np
import pytest
from scipy.stats import chi2

from flowsearch.analytic_flow import default_benchmark_gmm
from flowsearch.engine import make_plan
from flowsearch.errors import BudgetError, DomainError
from flowsearch.rewards import rare_mode_reward, target_point_reward
from flowsearch.samplers import (
    SAMPLERS,
    SearchBudget,
    _uniform_split,
    best_of_n,
    ess,
    log_ess,
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


def budget(total=500, steps=10):
    return SearchBudget.uniform(total, steps)


def test_budget_uniform_split():
    quotas = _uniform_split(503, 10)
    assert sum(quotas) == 503
    assert quotas == [51, 51, 51, 50, 50, 50, 50, 50, 50, 50]
    with pytest.raises(BudgetError):
        SearchBudget.uniform(5, 10)


def test_budget_charge_guard():
    b = budget(20, 10)
    b.charge(20)
    with pytest.raises(BudgetError):
        b.charge(1)


def test_ess_examples():
    assert ess([1.0, 1.0, 1.0, 1.0]) == pytest.approx(4.0, abs=1e-15)
    assert ess([1.0, 0.0, 0.0, 0.0]) == pytest.approx(1.0, abs=1e-15)
    assert ess([2.0, 1.0, 1.0]) == pytest.approx(16.0 / 6.0, abs=1e-12)
    with pytest.raises(DomainError):
        ess([0.0, 0.0])


def test_log_ess_matches_direct_formula():
    rng = np.random.default_rng(0)
    for _ in range(100):
        w = rng.uniform(0.1, 5.0, size=16)
        assert log_ess(np.log(w)) == pytest.approx(ess(w), rel=1e-12)


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
    res = best_of_n(plan, GMM, RARE, budget(500, 10), seed=0)
    assert res.nfe_used == 500  # 50 trajectories x 10 steps
    assert res.per_step_consumption == [50] * 10
    assert res.best_reward == pytest.approx(
        float(np.max([res.best_reward])), abs=0.0
    )
    with pytest.raises(BudgetError):
        best_of_n(plan, GMM, RARE, SearchBudget(5, 10), seed=0)


def test_best_of_n_is_argmax_over_trajectory_endpoints():
    plan = make_plan("linear-ode", 5)
    b = budget(15, 5)  # n = 3 trajectories
    res = best_of_n(plan, GMM, RARE, b, seed=3)
    from flowsearch.engine import run_process
    from flowsearch.analytic_flow import velocity_at
    from flowsearch.rewards import evaluate_reward

    endpoints = []
    for i in range(3):
        x1 = streams.stream(3, streams.INIT, i).standard_normal(2)
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
    ("bon", "linear-ode"): ("-20.12485427721987", 100),
    ("sop", "linear-sde"): ("-2.9264392611226664", 80),
    ("sop", "vp-sde"): ("-28.250806748628847", 80),
    ("smc", "linear-sde"): ("-1.8393714319072958", 100),
    ("smc", "vp-sde"): ("-1.8509025076110377", 100),
    ("code", "linear-sde"): ("-1.849430883132792", 100),
    ("code", "vp-sde"): ("-1.8518221599572553", 100),
    ("svdd", "linear-sde"): ("-1.842601331787596", 100),
    ("svdd", "vp-sde"): ("-2.1973057778194764", 100),
    ("rbf", "linear-sde"): ("-1.8394541270465223", 100),
    ("rbf", "vp-sde"): ("-4.072715103198643", 56),
}


def test_golden_results():
    got = {}
    for name, process in GOLDEN:
        res = SAMPLERS[name](make_plan(process, 5), GMM, RARE, budget(100, 5), seed=0)
        got[name, process] = (repr(res.best_reward), res.nfe_used)
    assert got == GOLDEN


@pytest.mark.parametrize("name", ["bon", "sop", "smc", "code", "svdd", "rbf"])
@pytest.mark.parametrize("process", ["linear-sde", "vp-sde"])
def test_budget_safety_and_determinism(name, process):
    if name == "bon":
        process = "linear-ode"
    plan = make_plan(process, 10)
    res1 = SAMPLERS[name](plan, GMM, RARE, budget(), seed=11)
    res2 = SAMPLERS[name](plan, GMM, RARE, budget(), seed=11)
    assert res1.nfe_used <= 500
    assert res1.nfe_used == sum(res1.per_step_consumption) + (
        res1.trace["init_charges"] if res1.trace else (2 if name == "rbf" else 0)
    )
    np.testing.assert_array_equal(res1.best_x, res2.best_x)
    assert res1.best_reward == res2.best_reward
    res3 = SAMPLERS[name](plan, GMM, RARE, budget(), seed=12)
    if plan.is_stochastic() or name in ("bon", "sop"):
        assert not np.array_equal(res1.best_x, res3.best_x)


def test_selection_correctness_svdd():
    # the kept particle's value must dominate its selection set
    plan = make_plan("linear-sde", 4)
    captured = []
    from flowsearch import samplers as S

    orig = S._argmax_first

    def spy(values):
        idx = orig(values)
        captured.append((np.asarray(values).copy(), idx))
        return idx

    S._argmax_first = spy
    try:
        run_svdd(plan, GMM, RARE, budget(40, 4), seed=5, k=10)
    finally:
        S._argmax_first = orig
    assert captured
    for values, idx in captured:
        assert values[idx] >= values.max()
        assert idx == int(np.argmax(values))


def test_tie_break_lowest_index():
    values = np.array([0.1, 0.9, 0.9])
    assert int(np.argmax(values)) == 1


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

    def flat_value(self, x, s):
        x = np.asarray(x)
        return np.zeros(x.shape[0]) if x.ndim > 1 else 0.0

    S.resample_multinomial = spy
    S._Runner.value = flat_value
    try:
        run_smc(make_plan("linear-sde", 5), GMM, RARE, budget(50, 5), seed=3)
    finally:
        S.resample_multinomial = orig_resample
        S._Runner.value = orig_value
    assert calls == []


def test_smc_budget_is_n_per_step():
    plan = make_plan("vp-sde", 10)
    res = run_smc(plan, GMM, RARE, budget(500, 10), seed=4)
    assert res.per_step_consumption == [50] * 10
    assert res.nfe_used == 500


def test_code_defaults_consume_full_budget():
    plan = make_plan("vp-sde", 10)
    res = run_code(plan, GMM, RARE, budget(500, 10), seed=6)
    assert res.nfe_used == 500
    assert sum(res.per_step_consumption) == 500


def test_code_single_terminal_selection_when_interval_exceeds_steps():
    plan = make_plan("linear-sde", 5)
    res = run_code(plan, GMM, RARE, budget(50, 5), seed=7, interval=9, k=10)
    assert res.nfe_used <= 50


def test_svdd_consumes_quota():
    plan = make_plan("vp-sde", 10)
    res = run_svdd(plan, GMM, RARE, budget(500, 10), seed=8)
    assert res.nfe_used == 500
    assert res.per_step_consumption == [50] * 10  # two batches of 25


def test_svdd_k1_is_plain_trajectory():
    plan = make_plan("linear-sde", 10)
    res = run_svdd(plan, GMM, RARE, budget(10, 10), seed=9, k=1)
    assert res.nfe_used == 10


def test_rbf_hand_traced_rollover():
    # quotas (5,5): improvement at j=2 in step 1 must set step 2's quota to 8
    plan = make_plan("linear-sde", 2)
    res = run_rbf(plan, GMM, RARE, SearchBudget(11, 2), seed=0, batches=1, with_trace=True)
    batch = res.trace["batches"][0]
    assert batch["quotas_at_entry"][0][0] == 5
    j = batch["accepted_at"][0]
    if j < 5:  # improvement inside step 1's quota rolls the surplus forward
        assert batch["quotas_at_entry"][1][0] == 5 + (5 - j)
    assert res.nfe_used <= 11


def test_rbf_accounting_and_conservation_fuzz():
    # consumed never exceeds the budget; consumed + remaining quotas is
    # conserved at every step entry
    rng = np.random.default_rng(10)
    for trial in range(60):
        steps = int(rng.integers(2, 7))
        total = int(rng.integers(steps + 1, 8 * steps))
        plan = make_plan("linear-sde", steps)
        res = run_rbf(
            plan, GMM, RARE, SearchBudget.uniform(total, steps), seed=trial, batches=1, with_trace=True
        )
        assert res.nfe_used <= total
        batch = res.trace["batches"][0]
        consumed = 1  # init charge
        for i in range(steps):
            remaining = sum(batch["quotas_at_entry"][i])
            assert consumed + remaining == total
            consumed += batch["accepted_at"][i]
        assert res.nfe_used == consumed


def test_rbf_worst_case_consumes_everything():
    # a reward that never improves forces full quota spend at every step
    class NeverImprove:
        kind = "ring"
        params = {"radius": 1.0}
        kl_temperature = 0.1

    import flowsearch.samplers as samplers_mod

    orig_value = samplers_mod._Runner.value

    def declining(self, x, s):
        # strictly declining values: the initial estimate is never beaten
        base = -100.0 * (1.0 - s)
        if np.asarray(x).ndim > 1:
            return np.full(np.asarray(x).shape[0], base)
        return base

    samplers_mod._Runner.value = declining
    try:
        plan = make_plan("linear-sde", 4)
        res = run_rbf(plan, GMM, RARE, SearchBudget.uniform(21, 4), seed=0, batches=1, with_trace=True)
    finally:
        samplers_mod._Runner.value = orig_value
    assert res.nfe_used == 21  # 1 init + quotas (5,5,5,5)
    assert res.per_step_consumption == [5, 5, 5, 5]


def test_rbf_immediate_improvement_spends_minimum():
    import flowsearch.samplers as samplers_mod

    orig_value = samplers_mod._Runner.value
    counter = {"v": 0.0}

    def rising(self, x, s):
        counter["v"] += 1.0
        if np.asarray(x).ndim > 1:
            return np.full(np.asarray(x).shape[0], counter["v"])
        return counter["v"]

    samplers_mod._Runner.value = rising
    try:
        plan = make_plan("linear-sde", 4)
        res = run_rbf(plan, GMM, RARE, SearchBudget.uniform(41, 4), seed=0, batches=1)
    finally:
        samplers_mod._Runner.value = orig_value
    assert res.nfe_used == 1 + 4  # init + one accepted proposal per step


def test_rbf_batch_minimum():
    plan = make_plan("linear-sde", 10)
    with pytest.raises(BudgetError):
        run_rbf(plan, GMM, RARE, SearchBudget.uniform(20, 10), seed=0, batches=2)
