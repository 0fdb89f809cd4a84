import itertools
import pickle
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.special import logsumexp

from flowsearch.analytic_flow import (
    GaussianMixtureModel,
    _at_time,
    _columns,
    _component_log_joint,
    _logsumexp,
    default_benchmark_gmm,
    marginal_at,
    mode_assignments,
    posterior_mean,
    rare_component,
    score_at,
    velocity_at,
)
from flowsearch.errors import DomainError
from flowsearch.interpolants import T_MIN, InterpolantSchedule, eval_schedule, vp_schedule

LINEAR = InterpolantSchedule("linear")
VP = vp_schedule()

SINGLE = GaussianMixtureModel([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
SHIFTED = GaussianMixtureModel([1.0], [[4.0, 0.0]], [[1.0, 1.0]])
TWO_MODE = GaussianMixtureModel(
    [0.5, 0.5], [[3.0, 1.0], [-3.0, -1.0]], [[1.0, 1.0], [1.0, 1.0]]
)


def marginal_log_density(gmm, sched, t, x):
    """log p_t(x) under the mixture marginal (a scalar for one point)."""
    x = np.asarray(x, dtype=float)
    log_joint = _component_log_joint(_at_time(gmm, sched, t), _columns(x, gmm.dim))
    return _logsumexp(log_joint)[0].reshape(x.shape[:-1])[()]


def sample_interpolant(gmm, sched, t, n, rng):
    """Exact samples of the time-t marginal: alpha x0 + sigma x1."""
    alpha, sigma, _, _ = eval_schedule(sched, t)
    x0 = gmm.sample(n, rng)
    x1 = rng.standard_normal((n, gmm.dim))
    return alpha * x0 + sigma * x1


def test_gmm_validation():
    with pytest.raises(DomainError):
        GaussianMixtureModel([0.5, 0.4], [[0.0], [1.0]], [[1.0], [1.0]])  # sum != 1
    with pytest.raises(DomainError):
        GaussianMixtureModel([1.0], [[0.0]], [[0.0]])  # zero variance
    with pytest.raises(DomainError):
        GaussianMixtureModel([1.0], [[0.0, 0.0]], [[1.0]])  # shape mismatch


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("field", ["weights", "means", "variances"])
def test_gmm_rejects_non_finite_parameters(field, bad):
    # nan <= 0 and abs(nan - 1) > 1e-12 are both False, so the positivity
    # and sum checks alone would let these through
    params = {"weights": [0.5, 0.5], "means": [[0.0, 0.0], [1.0, 1.0]],
              "variances": [[1.0, 1.0], [1.0, 1.0]]}
    params[field] = np.array(params[field])
    params[field].flat[-1] = bad
    with pytest.raises(DomainError, match=f"{field} must be finite"):
        GaussianMixtureModel(**params)


def test_gmm_pickle_round_trip_stays_read_only():
    # Pool workers under spawn or forkserver receive the mixture pickled;
    # the oracle cache relies on its arrays staying read-only there too.
    gmm = default_benchmark_gmm()
    copy = pickle.loads(pickle.dumps(gmm))
    for name in ("weights", "means", "variances"):
        np.testing.assert_array_equal(getattr(copy, name), getattr(gmm, name))
        assert not getattr(copy, name).flags.writeable


def test_default_benchmark_prior():
    gmm = default_benchmark_gmm()
    assert gmm.dim == 2 and gmm.n_components == 4
    assert gmm.weights.sum() == pytest.approx(1.0, abs=1e-15)
    assert rare_component(gmm) == 3
    assert gmm.weights[3] == 0.03


def test_marginal_at_halfway():
    params = marginal_at(SHIFTED, LINEAR, 0.5)
    np.testing.assert_allclose(params.means_t, [[2.0, 0.0]])
    np.testing.assert_allclose(params.variances_t, [[0.5, 0.5]])


def test_marginal_at_boundaries():
    gmm = default_benchmark_gmm()
    p0 = marginal_at(gmm, LINEAR, 0.0)
    np.testing.assert_array_equal(p0.means_t, gmm.means)
    np.testing.assert_array_equal(p0.variances_t, gmm.variances)
    p1 = marginal_at(gmm, LINEAR, 1.0)
    np.testing.assert_allclose(p1.means_t, 0.0)
    np.testing.assert_allclose(p1.variances_t, 1.0)


def test_score_single_gaussian():
    # marginal at t=0.5 is N(0, 0.5 I): score is -x / 0.5
    np.testing.assert_allclose(
        score_at(SINGLE, LINEAR, 0.5, np.array([1.0, 0.0])), [-2.0, 0.0], atol=1e-12
    )


def test_score_symmetry_and_t0():
    sym = GaussianMixtureModel(
        [0.5, 0.5], [[2.0, 1.0], [-2.0, -1.0]], np.ones((2, 2))
    )
    np.testing.assert_allclose(score_at(sym, LINEAR, 0.4, np.zeros(2)), 0.0, atol=1e-12)
    x = np.array([0.3, -0.7])
    np.testing.assert_allclose(
        score_at(SHIFTED, LINEAR, 0.0, x), -(x - np.array([4.0, 0.0])), atol=1e-12
    )


def test_score_rejects_nonfinite():
    with pytest.raises(DomainError):
        score_at(SINGLE, LINEAR, 0.5, np.array([np.nan, 0.0]))


def test_score_matches_log_density_gradient():
    # independent oracle: central finite differences of the log density
    gmm = default_benchmark_gmm()
    rng = np.random.default_rng(0)
    h = 1e-5
    for _ in range(50):
        t = rng.uniform(0.05, 0.95)
        x = rng.normal(0.0, 3.0, size=2)
        grad = np.empty(2)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            grad[i] = (
                marginal_log_density(gmm, LINEAR, t, x + e)
                - marginal_log_density(gmm, LINEAR, t, x - e)
            ) / (2 * h)
        np.testing.assert_allclose(score_at(gmm, LINEAR, t, x), grad, atol=1e-6)


def test_velocity_examples():
    x = np.array([1.0, 0.0])
    np.testing.assert_allclose(velocity_at(SINGLE, LINEAR, 0.5, x), 0.0, atol=1e-14)
    # (alpha_dot*alpha + sigma_dot*sigma) / (alpha^2 + sigma^2) at t = 0.25
    np.testing.assert_allclose(
        velocity_at(SINGLE, LINEAR, 0.25, x), [-0.8, 0.0], atol=1e-12
    )
    np.testing.assert_allclose(
        velocity_at(TWO_MODE, LINEAR, 0.5, np.zeros(2)), 0.0, atol=1e-12
    )


@pytest.mark.parametrize("sched", [LINEAR, VP], ids=["linear", "vp"])
def test_velocity_closed_form_single_gaussian(sched):
    rng = np.random.default_rng(1)
    for _ in range(50):
        t = rng.uniform(1e-3, 1 - 1e-3)
        x = rng.normal(size=2)
        alpha, sigma, alpha_dot, sigma_dot = eval_schedule(sched, t)
        expected = (alpha_dot * alpha + sigma_dot * sigma) / (alpha**2 + sigma**2) * x
        np.testing.assert_allclose(
            velocity_at(SINGLE, sched, t, x), expected, rtol=1e-10, atol=1e-12
        )


def test_velocity_domain():
    with pytest.raises(DomainError):
        velocity_at(SINGLE, LINEAR, 1e-4, np.zeros(2))
    for x in (np.zeros(1), np.zeros((4, 3)), np.float64(0.0)):
        with pytest.raises(DomainError):
            velocity_at(SINGLE, LINEAR, 0.5, x)  # last axis must be the mixture's d
    # a diverged trajectory is an error, not a point of mode 0
    for x in ([[np.nan, 1.0], [-4.0, -4.0]], [[np.inf, 0.0]], [-np.inf, 0.0]):
        with pytest.raises(DomainError):
            mode_assignments(default_benchmark_gmm(), x)


def test_posterior_mean_examples():
    x = np.array([1.0, 0.0])
    np.testing.assert_allclose(posterior_mean(SINGLE, LINEAR, 0.5, x), x, atol=1e-14)
    gmm = default_benchmark_gmm()
    pts = np.random.default_rng(2).normal(size=(8, 2))
    np.testing.assert_array_equal(posterior_mean(gmm, LINEAR, 0.0, pts), pts)
    # near t=1 the estimate collapses toward the prior mean
    far = posterior_mean(SHIFTED, LINEAR, 1.0 - 1e-3, np.array([50.0, -50.0]))
    np.testing.assert_allclose(far, [4.0, 0.0], atol=0.2)


def test_posterior_mean_domain():
    with pytest.raises(DomainError):
        posterior_mean(SINGLE, LINEAR, 0.9999, np.zeros(2))


def test_tweedie_duality():
    # score form (x + sigma^2 s)/alpha vs velocity form (sd*x - s*u)/(sd*a - s*ad)
    gmm = default_benchmark_gmm()
    rng = np.random.default_rng(3)
    for sched in (LINEAR, VP):
        for _ in range(200):
            t = rng.uniform(1e-3, 1 - 1e-3)
            x = rng.normal(0.0, 3.0, size=2)
            alpha, sigma, alpha_dot, sigma_dot = eval_schedule(sched, t)
            pm = posterior_mean(gmm, sched, t, x)
            score_form = (x + sigma**2 * score_at(gmm, sched, t, x)) / alpha
            u = velocity_at(gmm, sched, t, x)
            vel_form = (sigma_dot * x - sigma * u) / (sigma_dot * alpha - sigma * alpha_dot)
            np.testing.assert_allclose(score_form, pm, rtol=1e-8)
            np.testing.assert_allclose(vel_form, pm, rtol=1e-8)


def test_continuity_equation_1d():
    # d/dt p + d/dx (p u) = 0 for a 1-D single Gaussian, central differences
    gmm = GaussianMixtureModel([1.0], [[1.5]], [[0.8]])
    ht, hx = 1e-5, 1e-4
    xs = np.linspace(-3.0, 4.0, 41)[:, None]
    for t in (0.2, 0.5, 0.8):
        def dens(tt, pts):
            return np.exp(marginal_log_density(gmm, LINEAR, tt, pts))

        dp_dt = (dens(t + ht, xs) - dens(t - ht, xs)) / (2 * ht)
        def flux(pts):
            return dens(t, pts) * velocity_at(gmm, LINEAR, t, pts)[:, 0]

        dflux_dx = (flux(xs + hx) - flux(xs - hx)) / (2 * hx)
        np.testing.assert_allclose(dp_dt + dflux_dx, 0.0, atol=1e-4)


def test_interpolant_sampling_moments():
    # alpha x0 + sigma x1 must match the analytic marginal moments
    gmm = default_benchmark_gmm()
    rng = np.random.default_rng(4)
    n = 100_000
    t = 0.37
    xs = sample_interpolant(gmm, LINEAR, t, n, rng)
    params = marginal_at(gmm, LINEAR, t)
    mean_true = np.sum(params.weights[:, None] * params.means_t, axis=0)
    second_true = np.sum(
        params.weights[:, None] * (params.variances_t + params.means_t**2), axis=0
    )
    var_true = second_true - mean_true**2
    se_mean = np.sqrt(var_true / n)
    assert np.all(np.abs(xs.mean(axis=0) - mean_true) < 3 * se_mean)
    fourth = np.sum(
        params.weights[:, None]
        * (3 * params.variances_t**2 + 6 * params.variances_t * params.means_t**2 + params.means_t**4),
        axis=0,
    )
    se_second = np.sqrt((fourth - second_true**2) / n)
    assert np.all(np.abs((xs**2).mean(axis=0) - second_true) < 3 * se_second)


def test_mode_assignments():
    gmm = default_benchmark_gmm()
    pts = np.array([[4.0, 4.0], [-4.0, 4.1], [-3.8, -4.0], [4.2, -4.0]])
    np.testing.assert_array_equal(mode_assignments(gmm, pts), [0, 1, 2, 3])


@pytest.mark.parametrize("shape", [(4,), (4, 1), (4, 25), (4, 10_000), (4, 3, 7), (33, 5)])
def test_logsumexp_matches_scipy_bitwise(shape):
    # Over the leading (component) axis: ties, -inf entries, all--inf
    # columns and magnitudes 0.1..1e4; the numpy kernel must give scipy's
    # bits and raise no floating warnings.
    rng = np.random.default_rng(sum(shape))
    for scale in (0.1, 1.0, 10.0, 100.0, 1e4):
        for trial in range(12):
            a = scale * rng.standard_normal(shape)
            if trial % 3 == 0:
                a = np.round(a)
            if trial % 4 == 1:
                a[rng.random(shape) < 0.3] = -np.inf
            if trial % 4 == 2:
                a[0] = a[-1]
            if trial % 6 == 5 and a.ndim > 1:
                a[:, 0] = -np.inf
            with np.errstate(divide="ignore"):
                ref = logsumexp(a, axis=0, keepdims=True)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _logsumexp(a)
            assert got.shape == ref.shape
            assert np.array_equal(got, ref), (scale, trial)


def test_marginal_log_density_matches_scipy_bitwise():
    gmm = default_benchmark_gmm()
    x = np.random.default_rng(5).normal(scale=6.0, size=(50, 2))
    log_joint = _component_log_joint(_at_time(gmm, VP, 0.4), _columns(x, 2))
    assert np.array_equal(marginal_log_density(gmm, VP, 0.4, x), logsumexp(log_joint, axis=0))
    one = marginal_log_density(gmm, VP, 0.4, x[0])
    assert np.ndim(one) == 0 and one == logsumexp(log_joint[:, 0])


def _oracle(gmm, sched, t, x):
    return (
        velocity_at(gmm, sched, t, x),
        posterior_mean(gmm, sched, t, x),
        score_at(gmm, sched, t, x),
    )


def test_oracle_cache_hits_equal_cold_calls():
    # A cached (gmm, sched, t) entry must give the bits of a cold call, and
    # entries for two schedules at one t, or two mixtures with different
    # means at one (sched, t), must never stand in for each other.
    shifted = TWO_MODE.means + 1.0
    other = GaussianMixtureModel(TWO_MODE.weights, shifted, TWO_MODE.variances)
    x = np.random.default_rng(6).normal(scale=3.0, size=(8, 2))
    cases = [(g, s, t) for g in (TWO_MODE, other) for s in (LINEAR, VP) for t in (0.3, 0.7)]
    cold = {}
    for case in cases:
        _at_time.cache_clear()
        cold[case] = _oracle(*case, x)
    _at_time.cache_clear()
    for _ in range(2):
        for case in cases:
            for got, want in zip(_oracle(*case, x), cold[case]):
                assert np.array_equal(got, want)
    assert _at_time.cache_info().hits > 0
    with pytest.raises(ValueError):
        TWO_MODE.means[0, 0] = 9.0  # read-only: a cached entry cannot go stale
    shifted[0, 0] = 9.0  # the caller's array stays writable; the mixture holds a copy
    assert other.means[0, 0] == 4.0
    for a, b in [(cases[0], cases[2]), (cases[0], cases[4])]:
        assert not np.array_equal(cold[a][0], cold[b][0])


def test_import_leaves_scipy_unloaded():
    code = "import sys, flowsearch, flowsearch.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# Reference: the row-major (..., K, d) oracle that the component-major one
# replaced, kept as it was (its last-axis log-sum-exp included) so that the
# results can be pinned bit for bit.
def _ref_logsumexp(a):
    m = np.max(a, axis=-1, keepdims=True)
    if not np.isfinite(m).all():
        finite = np.isfinite(m)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            direct = np.log(np.sum(np.exp(a), axis=-1, keepdims=True))
        return np.where(finite, _ref_logsumexp(np.where(finite, a, 0.0)), direct)
    is_max = a == m
    n = np.sum(is_max, axis=-1, keepdims=True, dtype=float)
    s = np.sum(np.exp(np.where(is_max, -np.inf, a) - m), axis=-1, keepdims=True)
    return np.log1p(np.where(s == 0.0, s, s / n)) + np.log(n) + m


def _ref_log_joint(params, x):
    var = params.variances_t
    log_norm = 0.5 * np.sum(np.log(var), axis=-1) + 0.5 * var.shape[-1] * np.log(2.0 * np.pi)
    diff = x[..., None, :] - params.means_t
    quad = np.sum(diff * diff / params.variances_t, axis=-1)
    return (np.log(params.weights) - log_norm) - 0.5 * quad


def _ref_responsibilities(params, x):
    log_joint = _ref_log_joint(params, x)
    return np.exp(log_joint - _ref_logsumexp(log_joint))


def _ref_score(gmm, sched, t, x):
    params = marginal_at(gmm, sched, t)
    per_comp = (params.means_t - x[..., None, :]) / params.variances_t
    return np.sum(_ref_responsibilities(params, x)[..., :, None] * per_comp, axis=-2)


def _ref_posterior_mean(gmm, sched, t, x):
    alpha, sigma, _, _ = eval_schedule(sched, t)
    if sigma == 0.0:
        return x.copy()
    params = marginal_at(gmm, sched, t)
    gain = alpha * gmm.variances / params.variances_t
    comp_mean = gmm.means + gain * (x[..., None, :] - params.means_t)
    return np.sum(_ref_responsibilities(params, x)[..., :, None] * comp_mean, axis=-2)


def _ref_velocity(gmm, sched, t, x):
    alpha, sigma, alpha_dot, sigma_dot = eval_schedule(sched, t)
    x0_hat = _ref_posterior_mean(gmm, sched, t, x)
    x1_hat = (x - alpha * x0_hat) / sigma
    return alpha_dot * x0_hat + sigma_dot * x1_hat


def _ref_mode_assignments(gmm, x):
    return np.argmax(_ref_log_joint(marginal_at(gmm, LINEAR, 0.0), x), axis=-1)


def _assert_same(got, want, equal_nan=False):
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    assert np.array_equal(got, want, equal_nan=equal_nan)


# K=3, d=4, unequal weights and variances: sums over d of more than two terms
WIDE = GaussianMixtureModel(
    [0.2, 0.5, 0.3],
    [[1.0, -2.0, 0.5, 3.0], [-1.5, 0.0, 2.0, -1.0], [0.0, 1.0, -3.0, 0.5]],
    [[0.5, 1.0, 2.0, 0.8], [1.5, 0.3, 1.0, 1.0], [1.0, 2.5, 0.6, 0.4]],
)


@pytest.mark.parametrize("sched", [LINEAR, VP], ids=["linear", "vp"])
def test_component_major_oracle_matches_row_major_reference_bitwise(sched):
    rng = np.random.default_rng(7)
    for gmm in (default_benchmark_gmm(), WIDE):
        d = gmm.dim
        shapes = [(d,), (1, d), (2, d), (25, d), (250, d), (5_000, d), (100_000, d),
                  (5, 5, d), (50, 100, d)]
        # Far from every mode (responsibilities underflow to 0); and, for
        # the benchmark mixture, points whose log joints tie exactly at
        # every alpha: (0, 3) between the equal-weight modes (4, 4) and
        # (-4, 4), and the origin between all three equal-weight modes.
        special = [np.full(d, 300.0), np.r_[-250.0, 400.0, np.zeros(d - 2)],
                   np.r_[0.0, 3.0, np.zeros(d - 2)], np.zeros(d)]
        for shape in shapes:
            x = rng.normal(scale=6.0, size=shape)
            flat = x.reshape(-1, d)
            flat[: len(special)] = special[: len(flat)]
            times = (T_MIN, 0.05, 0.5, 0.9, 1.0 - T_MIN)
            if shape[0] == 100_000:
                times = (0.05, 0.9)  # keeps the test to a few seconds
            for t in times:
                _assert_same(velocity_at(gmm, sched, t, x), _ref_velocity(gmm, sched, t, x))
                _assert_same(posterior_mean(gmm, sched, t, x),
                             _ref_posterior_mean(gmm, sched, t, x))
                _assert_same(score_at(gmm, sched, t, x), _ref_score(gmm, sched, t, x))
            _assert_same(velocity_at(gmm, sched, 1.0, x), _ref_velocity(gmm, sched, 1.0, x))
            _assert_same(mode_assignments(gmm, x), _ref_mode_assignments(gmm, x))
        # One row whose log-joint maximum is not finite: every component's
        # quadratic form overflows, and that row (only) comes out nan.
        x = rng.normal(size=(3, d))
        x[1] = 1e200
        for t in (0.05, 0.5):
            with np.errstate(over="ignore", invalid="ignore"):
                u = velocity_at(gmm, sched, t, x)
                _assert_same(u, _ref_velocity(gmm, sched, t, x), equal_nan=True)
                _assert_same(score_at(gmm, sched, t, x), _ref_score(gmm, sched, t, x),
                             equal_nan=True)
            assert np.isnan(u[1]).all() and np.isfinite(u[[0, 2]]).all()


@pytest.mark.parametrize("sched", [LINEAR, VP], ids=["linear", "vp"])
def test_oracle_rows_are_independent_bitwise(sched):
    # A row's velocity, posterior mean and value do not depend on the other
    # rows in its call or on the batch's shape: an (N, d) call and the same
    # rows as (B, k, d) equal the one-row calls bit for bit.  Batched
    # sampler steps and one value call per selection rest on this.
    from flowsearch.rewards import estimate_value, rare_mode_reward, ring_reward, target_point_reward

    rng = np.random.default_rng(11)
    for gmm, n in itertools.product((default_benchmark_gmm(), WIDE),
                                    (1, 2, 7, 8, 9, 16, 17, 25, 213, 501)):
        rewards = (rare_mode_reward(gmm), ring_reward(2.0), target_point_reward(np.ones(gmm.dim)))
        x = rng.normal(scale=4.0, size=(n, gmm.dim))
        for t in (0.0, T_MIN, 0.1, 0.37, 0.9, 1.0 - T_MIN):
            calls = [lambda y: posterior_mean(gmm, sched, t, y)]
            calls += [lambda y, r=r: estimate_value(r, gmm, sched, t, y) for r in rewards]
            if t >= T_MIN:
                calls.append(lambda y: velocity_at(gmm, sched, t, y))
            for call in calls:
                rows = np.array([call(row) for row in x])
                _assert_same(np.asarray(call(x)), rows)
                for b in {1, n, next((b for b in range(2, n) if n % b == 0), 1)}:
                    _assert_same(np.asarray(call(x.reshape(b, n // b, gmm.dim))),
                                 rows.reshape(b, n // b, *rows.shape[1:]))
