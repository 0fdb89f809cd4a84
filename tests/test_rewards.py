import numpy as np
import pytest

from flowsearch.analytic_flow import (
    GaussianMixtureModel,
    default_benchmark_gmm,
    score_at,
)
from flowsearch.errors import DomainError
from flowsearch.interpolants import InterpolantSchedule, eval_schedule
from flowsearch.rewards import (
    RewardSpec,
    estimate_value,
    evaluate_reward,
    guided_score,
    rare_mode_reward,
    reward_gradient_through_posterior,
    ring_reward,
    target_point_reward,
)

LINEAR = InterpolantSchedule("linear")
SINGLE = GaussianMixtureModel([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
GMM = default_benchmark_gmm()


def test_target_point_examples():
    spec = target_point_reward([2.0, 2.0])
    assert evaluate_reward(spec, np.array([2.0, 2.0])) == 0.0
    spec0 = target_point_reward([0.0, 0.0])
    assert evaluate_reward(spec0, np.array([3.0, 4.0])) == -25.0


def test_ring_examples():
    spec = ring_reward(2.0)
    assert evaluate_reward(spec, np.array([2.0, 0.0])) == 0.0
    assert evaluate_reward(spec, np.array([0.0, 3.0])) == -1.0
    with pytest.raises(DomainError):
        ring_reward(-1.0)


def test_rare_mode_reward_is_component_log_density():
    spec = rare_mode_reward(GMM)
    mu = GMM.means[3]
    # maximum at the rare mode's mean, value -log(2 pi) for unit variances
    assert evaluate_reward(spec, mu) == pytest.approx(-np.log(2 * np.pi), rel=1e-12)
    assert evaluate_reward(spec, mu) > evaluate_reward(spec, mu + 1.0)


def test_reward_batching_and_finiteness():
    spec = target_point_reward([0.0, 0.0])
    out = evaluate_reward(spec, np.zeros((5, 3, 2)))
    assert out.shape == (5, 3)
    with pytest.raises(DomainError):
        evaluate_reward(spec, np.array([np.inf, 0.0]))


def test_reward_spec_validation():
    with pytest.raises(DomainError):
        RewardSpec("nearest-cluster")
    with pytest.raises(DomainError):
        RewardSpec("ring", {"radius": 1.0}, kl_temperature=0.0)


def test_estimate_value_at_t0_is_exact_reward():
    for spec in (target_point_reward([1.0, -1.0]), ring_reward(3.0), rare_mode_reward(GMM)):
        x = np.array([0.37, -2.11])
        est = estimate_value(spec, GMM, LINEAR, 0.0, x)
        assert est.value == evaluate_reward(spec, x)
        np.testing.assert_array_equal(est.posterior_mean, x)


def test_estimate_value_halfway():
    # posterior mean of N(0, I) prior at t=0.5 is x itself
    spec = target_point_reward([1.0, 0.0])
    est = estimate_value(spec, SINGLE, LINEAR, 0.5, np.array([1.0, 0.0]))
    assert est.value == pytest.approx(0.0, abs=1e-12)


def test_argmax_invariance_under_affine_reward_scaling():
    # exp((a v + b)/(a beta)) selects the same particle as exp(v / beta)
    rng = np.random.default_rng(0)
    values = rng.normal(size=12)
    beta = 0.1
    a, b = 3.7, -2.0
    weights = np.exp(values / beta)
    scaled = np.exp((a * values + b) / (a * beta))
    assert np.argmax(weights) == np.argmax(scaled)


def test_guided_score_suppressed_at_large_beta():
    spec = target_point_reward([0.0, 0.0], kl_temperature=1e12)
    x = np.array([0.8, -0.4])
    got = guided_score(spec, GMM, LINEAR, 0.5, x)
    plain = score_at(GMM, LINEAR, 0.5, x)
    np.testing.assert_allclose(got, plain, atol=1e-6)


def test_guided_score_example():
    # N(0, I) prior at t=0.5: posterior-mean map is the identity, so the
    # guidance is -2x and the plain score is -2x as well
    spec = target_point_reward([0.0, 0.0], kl_temperature=1.0)
    got = guided_score(spec, SINGLE, LINEAR, 0.5, np.array([1.0, 0.0]))
    np.testing.assert_allclose(got, [-4.0, 0.0], atol=1e-6)


def test_guidance_gradient_matches_chain_rule():
    # analytic oracle: d/dx r(pm(x)) = k * (-2 (pm - target)), with the
    # posterior-mean gain k = alpha v / (alpha^2 v + sigma^2)
    spec = target_point_reward([1.5, -0.5], kl_temperature=1.0)
    rng = np.random.default_rng(1)
    for _ in range(25):
        t = rng.uniform(1e-3, 1 - 1e-3)
        x = rng.normal(0.0, 2.0, size=2)
        alpha, sigma, _, _ = eval_schedule(LINEAR, t)
        gain = alpha / (alpha**2 + sigma**2)
        pm = x * gain
        want = gain * (-2.0) * (pm - np.array([1.5, -0.5]))
        got = reward_gradient_through_posterior(spec, SINGLE, LINEAR, t, x)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-7)


def test_guided_drift_tilts_toward_rare_mode():
    # directional property: guidance raises the rare-mode responsibility of
    # the one-step proposal mean versus the unguided drift
    from flowsearch.analytic_flow import marginal_at, _responsibilities
    from flowsearch.engine import DiffusionCoefficient

    spec = rare_mode_reward(GMM)
    diff = DiffusionCoefficient()
    t, dt = 0.5, 0.1
    rng = np.random.default_rng(2)
    wins = 0
    trials = 1000
    xs = rng.normal(0.0, 1.0, size=(trials, 2))
    from flowsearch.analytic_flow import velocity_at

    params = marginal_at(GMM, LINEAR, t - dt)
    g = diff(t)
    for x in xs:
        u = velocity_at(GMM, LINEAR, t, x)
        plain = u - 0.5 * g * g * score_at(GMM, LINEAR, t, x)
        guided = u - 0.5 * g * g * guided_score(spec, GMM, LINEAR, t, x)
        resp_plain = _responsibilities(params, x - plain * dt)[3]
        resp_guided = _responsibilities(params, x - guided * dt)[3]
        wins += resp_guided > resp_plain
    assert wins > 0.95 * trials


def test_guided_score_domain():
    spec = target_point_reward([0.0, 0.0])
    with pytest.raises(DomainError):
        guided_score(spec, GMM, LINEAR, 0.9999, np.zeros(2))
