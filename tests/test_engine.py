import numpy as np
import pytest

from flowsearch import rng as streams
from flowsearch.analytic_flow import (
    GaussianMixtureModel,
    default_benchmark_gmm,
    mode_assignments,
    score_at,
    velocity_at,
)
from flowsearch.engine import (
    DiffusionCoefficient,
    StepPlan,
    denoise_interval,
    deterministic_plan,
    make_plan,
    make_time_grid,
    run_process,
    score_from_velocity,
)
from flowsearch.errors import DomainError
from flowsearch.interpolants import (
    InterpolantSchedule,
    eval_schedule,
    scale_time_transform,
    vp_schedule,
)

LINEAR = InterpolantSchedule("linear")
VP = vp_schedule()
SINGLE = GaussianMixtureModel([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
GMM = default_benchmark_gmm()


def oracle(gmm):
    return lambda x, t: velocity_at(gmm, LINEAR, t, x)


def constant(u):
    """A velocity field that returns ``u`` everywhere."""
    return lambda x, t: u


def linear_sde_plan(diffusion=None):
    """Unconverted reverse SDE (src = dst = linear) on a 10-step grid."""
    g = DiffusionCoefficient() if diffusion is None else diffusion
    return StepPlan("linear-sde", LINEAR, LINEAR, g, make_time_grid(10))


def test_score_from_velocity_examples():
    x = np.array([1.0, 0.0])
    np.testing.assert_allclose(
        score_from_velocity(LINEAR, 0.5, x, np.zeros(2)), [-2.0, 0.0], atol=1e-14
    )
    np.testing.assert_allclose(
        score_from_velocity(LINEAR, 0.5, np.zeros(2), np.zeros(2)), 0.0, atol=1e-15
    )
    # affine in u: doubling u shifts the output by alpha * du / (sigma * denom)
    u = np.array([0.4, -0.2])
    s1 = score_from_velocity(LINEAR, 0.5, x, u)
    s2 = score_from_velocity(LINEAR, 0.5, x, 2 * u)
    alpha, sigma, alpha_dot, sigma_dot = eval_schedule(LINEAR, 0.5)
    shift = alpha * u / (sigma * (alpha_dot * sigma - alpha * sigma_dot))
    np.testing.assert_allclose(s2 - s1, shift, rtol=1e-12)


@pytest.mark.parametrize("sched", [LINEAR, VP], ids=["linear", "vp"])
def test_score_velocity_identity(sched):
    # Recovering the score from the velocity must match the analytic score.
    rng = np.random.default_rng(0)
    for _ in range(1000):
        t = rng.uniform(1e-3, 1 - 1e-3)
        x = rng.normal(0.0, 3.0, size=2)
        u = velocity_at(GMM, sched, t, x)
        got = score_from_velocity(sched, t, x, u)
        want = score_at(GMM, sched, t, x)
        assert np.linalg.norm(got - want) <= 1e-8 * max(np.linalg.norm(want), 1e-12)


def test_drift_examples():
    # the step is x - f ds with the reverse-SDE drift f; with z = 0 the drift
    # is recovered as (x - x') / ds
    x = np.array([1.0, 0.0])
    u = np.array([0.7, -0.1])
    ds = 0.5 - 0.4
    # g = 0: the drift is u itself, bit for bit
    zero = linear_sde_plan(DiffusionCoefficient.zero())
    out = denoise_interval(zero, x, 0.5, 0.4, np.ones(2), constant(u))
    np.testing.assert_array_equal(out, x - u * ds)
    # g(0.5) = 0.75; u = 0 gives -(g^2/2) * score = (0.5625, 0)
    out = denoise_interval(linear_sde_plan(), x, 0.5, 0.4, np.zeros(2), constant(np.zeros(2)))
    np.testing.assert_allclose((x - out) / ds, [0.5625, 0.0], atol=1e-12)


def test_corollary_diffusion_cancels_score():
    # g^2 = 2(sigma sigma_dot - sigma^2 alpha_dot / alpha) makes the forward
    # drift collapse to (alpha_dot / alpha) x
    rng = np.random.default_rng(1)
    for _ in range(1000):
        t = rng.uniform(1e-3, 1 - 1e-3)
        x = rng.normal(0.0, 3.0, size=2)
        alpha, sigma, alpha_dot, sigma_dot = eval_schedule(LINEAR, t)
        g_sq = 2.0 * (sigma * sigma_dot - sigma**2 * alpha_dot / alpha)
        u = velocity_at(GMM, LINEAR, t, x)
        s = score_at(GMM, LINEAR, t, x)
        resid = u + 0.5 * g_sq * s - (alpha_dot / alpha) * x
        assert np.linalg.norm(resid) <= 1e-8


def test_ode_step():
    plan = make_plan("linear-ode", 10)
    x = np.zeros(2)
    out = denoise_interval(plan, x, 0.5, 0.4, None, constant(np.array([2.0, 0.0])))
    np.testing.assert_allclose(out, [-0.2, 0.0])
    unchanged = denoise_interval(plan, x, 0.5, 0.4, None, constant(np.zeros(2)))
    np.testing.assert_array_equal(unchanged, x)


def test_ode_marginal_variance():
    # 200-step ODE transport of N(0, I) through a standard normal prior
    plan = make_plan("linear-ode", 200)
    x1 = streams.stream(0, streams.INIT).standard_normal((100_000, 2))
    x0, nfe = run_process(plan, x1, streams.stream(0, streams.PROCESS), oracle(SINGLE))
    assert nfe == 200
    assert np.allclose(x0.var(axis=0), 1.0, atol=0.02)


def test_sde_step_mean_and_variance():
    plan = linear_sde_plan()
    diff = plan.diffusion
    x = np.array([1.0, 0.0])
    ds = 0.5 - 0.4
    u = velocity_at(GMM, LINEAR, 0.5, x)
    # z = 0 lands exactly on the proposal mean
    out = denoise_interval(plan, x, 0.5, 0.4, np.zeros(2), oracle(GMM))
    f = u - 0.5 * diff(0.5) ** 2 * score_from_velocity(LINEAR, 0.5, x, u)
    np.testing.assert_allclose(out, x - f * ds, atol=1e-15)
    # g = 0 reduces to the ODE step
    zero = linear_sde_plan(DiffusionCoefficient.zero())
    out0 = denoise_interval(zero, x, 0.5, 0.4, np.ones(2), oracle(GMM))
    np.testing.assert_allclose(out0, x - u * ds, atol=1e-15)
    # Monte-Carlo variance of one step: g^2 dt per dimension within 5%
    rng = np.random.default_rng(2)
    z = rng.standard_normal((10_000, 2))
    xs = denoise_interval(plan, np.tile(x, (10_000, 1)), 0.5, 0.4, z, oracle(GMM))
    want = diff(0.5) ** 2 * ds
    assert np.allclose(xs.var(axis=0), want, rtol=0.05)


def test_transform_velocity_identity():
    # an identity conversion queries the oracle with its arguments untouched
    plan = StepPlan("vp-sde", LINEAR, LINEAR, DiffusionCoefficient.zero(), make_time_grid(10))
    x = np.array([0.3, -1.2])
    queries = []

    def spy(xq, t):
        queries.append((xq, t))
        return velocity_at(GMM, LINEAR, t, xq)

    out = denoise_interval(plan, x, 0.6, 0.5, None, spy)
    assert len(queries) == 1 and queries[0][0] is x and queries[0][1] == 0.6
    np.testing.assert_array_equal(out, x - velocity_at(GMM, LINEAR, 0.6, x) * (0.6 - 0.5))


def test_transform_velocity_vp_closed_form():
    # for an N(0, I) prior the converted velocity equals the vp closed form;
    # a zero-diffusion step s -> 0 is x - u s, so u = (x - x') / s
    plan = deterministic_plan(make_plan("vp-sde", 10))
    rng = np.random.default_rng(3)
    for _ in range(100):
        s = rng.uniform(1e-2, 1.0)
        x = rng.normal(size=2)
        got = (x - denoise_interval(plan, x, s, 0.0, None, oracle(SINGLE))) / s
        alpha, sigma, alpha_dot, sigma_dot = eval_schedule(VP, s)
        want = (alpha_dot * alpha + sigma_dot * sigma) / (alpha**2 + sigma**2) * x
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)


def test_make_time_grid():
    np.testing.assert_allclose(make_time_grid(10), np.linspace(1.0, 0.0, 11))
    with pytest.raises(DomainError):
        make_time_grid(0)


def test_step_plan_validation():
    with pytest.raises(DomainError):
        StepPlan("linear-ode", LINEAR, LINEAR, DiffusionCoefficient(), make_time_grid(10))
    with pytest.raises(DomainError):
        StepPlan("rbf", LINEAR, LINEAR, DiffusionCoefficient(), make_time_grid(4))
    with pytest.raises(DomainError):
        StepPlan(
            "linear-sde-adaptive-time", LINEAR, LINEAR, DiffusionCoefficient(), make_time_grid(4)
        )
    with pytest.raises(DomainError):
        StepPlan(
            "linear-sde", LINEAR, LINEAR, DiffusionCoefficient(), np.array([0.9, 0.5, 0.0])
        )


def test_stoch_denoise_linear_ode_matches_ode_step():
    plan = make_plan("linear-ode", 10)
    x = np.array([0.4, -0.9])
    z = np.full(2, 7.7)  # ignored when g = 0
    calls = []

    def counting(xq, t):
        calls.append(t)
        return velocity_at(GMM, LINEAR, t, xq)

    out = denoise_interval(plan, x, 1.0, 0.9, z, counting)
    u = velocity_at(GMM, LINEAR, 1.0, x)
    np.testing.assert_array_equal(out, x - u * (1.0 - 0.9))
    assert calls == [1.0]


def test_stoch_denoise_vp_zero_noise_matches_closed_form():
    # z = 0: the step lands on x - f ds with f from the converted velocity
    # (c_dot / c) x + c t_dot u_src(x / c, t_s) of the scale-time map
    plan = make_plan("vp-sde", 10)
    x = np.array([0.8, 0.5])
    s = 0.9
    m = scale_time_transform(LINEAR, VP, s)
    u_src = velocity_at(SINGLE, LINEAR, m.t_s, x / m.c_s)
    u_bar = (m.c_dot / m.c_s) * x + (m.c_s * m.t_dot) * u_src
    sc = score_from_velocity(VP, s, x, u_bar)
    f = u_bar - 0.5 * plan.diffusion(s) ** 2 * sc
    out = denoise_interval(plan, x, s, 0.8, np.zeros(2), oracle(SINGLE))
    np.testing.assert_allclose(out, x - f * 0.1, rtol=1e-12)


def test_scaled_diffusion_inflates_early_noise():
    # early on, the rescaled coefficient exceeds g at the matched source time
    plan = make_plan("linear-sde-scaled-diffusion", 10)
    g = plan.grid
    m = plan.scale_map(g[0])
    dt = plan.latent_time(g[0]) - plan.latent_time(g[1])
    ds = g[0] - g[1]
    g_scaled = plan.diffusion(g[0]) / m.c_s * np.sqrt(ds / dt)
    assert g_scaled > plan.diffusion(plan.latent_time(g[0]))
    # and the realised one-step noise is correspondingly larger
    x = np.zeros((2, 2))
    z = np.stack([np.zeros(2), np.ones(2)])
    stepped = denoise_interval(plan, x, g[0], g[1], z, oracle(GMM))
    noise_norm = np.linalg.norm(stepped[1] - stepped[0])
    plain = make_plan("linear-sde-adaptive-time", 10)
    stepped_plain = denoise_interval(plain, x, g[0], g[1], z, oracle(GMM))
    assert noise_norm > np.linalg.norm(stepped_plain[1] - stepped_plain[0])


def test_identity_conversion_bitwise():
    # vp-sde plan with dst = src reproduces linear-sde bit for bit
    sde = make_plan("linear-sde", 10)
    vp_id = StepPlan("vp-sde", LINEAR, LINEAR, DiffusionCoefficient(), make_time_grid(10))
    x1 = streams.stream(5, streams.INIT).standard_normal(2)
    xa, _ = run_process(sde, x1, streams.stream(5, streams.PROCESS), oracle(GMM))
    xb, _ = run_process(vp_id, x1, streams.stream(5, streams.PROCESS), oracle(GMM))
    np.testing.assert_array_equal(xa, xb)


def test_run_process_determinism_and_stochasticity():
    ode = make_plan("linear-ode", 10)
    x1 = streams.stream(6, streams.INIT).standard_normal(2)
    a, _ = run_process(ode, x1, streams.stream(1, streams.PROCESS), oracle(GMM))
    b, _ = run_process(ode, x1, streams.stream(2, streams.PROCESS), oracle(GMM))
    np.testing.assert_array_equal(a, b)
    sde = make_plan("linear-sde", 10)
    c, _ = run_process(sde, x1, streams.stream(1, streams.PROCESS), oracle(GMM))
    d, _ = run_process(sde, x1, streams.stream(2, streams.PROCESS), oracle(GMM))
    assert not np.array_equal(c, d)


def test_nfe_counts_oracle_invocations():
    calls = 0

    def counting(x, t):
        nonlocal calls
        calls += 1
        return velocity_at(GMM, LINEAR, t, x)

    plan = make_plan("linear-sde", 25)
    x1 = streams.stream(7, streams.INIT).standard_normal(2)
    _, nfe = run_process(plan, x1, streams.stream(7, streams.PROCESS), counting)
    assert nfe == 25 and calls == 25


@pytest.mark.parametrize(
    "process", ["linear-ode", "linear-sde", "vp-sde"], ids=str
)
def test_marginal_mode_weights(process):
    # endpoint mode weights match the prior within 0.02 at 1e5 trajectories
    plan = make_plan(process, 200)
    x1 = streams.stream(8, streams.INIT).standard_normal((100_000, 2))
    x0, _ = run_process(plan, x1, streams.stream(8, streams.PROCESS), oracle(GMM))
    counts = np.bincount(mode_assignments(GMM, x0), minlength=4) / len(x0)
    assert np.all(np.abs(counts - GMM.weights) < 0.02)
