import itertools
import pickle
from typing import NamedTuple

import numpy as np
import pytest
from scipy.special import logsumexp

from flowsearch.analytic_flow import (
    GaussianMixtureModel,
    _at_time,
    _columns,
    _component_log_joint,
    _responsibilities,
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

from child import python

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
    return logsumexp(log_joint, axis=0).reshape(x.shape[:-1])[()]


def sample_interpolant(gmm, sched, t, n, rng):
    """Exact samples of the time-t marginal: alpha x0 + sigma x1."""
    alpha, sigma, _, _ = eval_schedule(sched, t)
    comps = rng.choice(gmm.n_components, size=n, p=gmm.weights)
    eps = rng.standard_normal((n, gmm.dim))
    x0 = gmm.means[comps] + np.sqrt(gmm.variances[comps]) * eps
    x1 = rng.standard_normal((n, gmm.dim))
    return alpha * x0 + sigma * x1


def test_gmm_validation():
    with pytest.raises(DomainError):
        GaussianMixtureModel([0.5, 0.4], [[0.0], [1.0]], [[1.0], [1.0]])  # sum != 1
    with pytest.raises(DomainError):
        GaussianMixtureModel([1.0], [[0.0]], [[0.0]])  # zero variance
    with pytest.raises(DomainError):
        GaussianMixtureModel([1.0], [[0.0, 0.0]], [[1.0]])  # shape mismatch
    with pytest.raises(DomainError, match="dim >= 1"):
        GaussianMixtureModel([1.0], [[]], [[]])  # zero-dimensional


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
    marginal = marginal_at(SHIFTED, LINEAR, 0.5)
    assert isinstance(marginal, GaussianMixtureModel)
    np.testing.assert_array_equal(marginal.weights, SHIFTED.weights)
    np.testing.assert_allclose(marginal.means, [[2.0, 0.0]])
    np.testing.assert_allclose(marginal.variances, [[0.5, 0.5]])


def test_marginal_at_boundaries():
    gmm = default_benchmark_gmm()
    p0 = marginal_at(gmm, LINEAR, 0.0)
    np.testing.assert_array_equal(p0.means, gmm.means)
    np.testing.assert_array_equal(p0.variances, gmm.variances)
    p1 = marginal_at(gmm, LINEAR, 1.0)
    np.testing.assert_allclose(p1.means, 0.0)
    np.testing.assert_allclose(p1.variances, 1.0)


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
    # the domain is [0, 1]: at t = 1 the latent carries no information and
    # x̂0 is the prior mean, and the schedule rejects any time outside it
    from flowsearch.rewards import estimate_value, evaluate_reward, ring_reward

    gmm = default_benchmark_gmm()
    prior = gmm.weights @ gmm.means
    x = 3.0 * np.random.default_rng(4).standard_normal((100, 2))
    got = posterior_mean(gmm, LINEAR, 1.0, x)
    assert np.max(np.abs(got - prior)) <= 1e-15 * np.max(np.abs(gmm.means))
    for t in (1.0 + 1e-12, -1e-12, float("nan")):
        with pytest.raises(DomainError):
            posterior_mean(gmm, LINEAR, t, x)
    reward = ring_reward(2.0)
    np.testing.assert_allclose(estimate_value(reward, gmm, LINEAR, 1.0, x),
                               np.full(100, evaluate_reward(reward, prior)), rtol=0, atol=1e-14)


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
    marginal = marginal_at(gmm, LINEAR, t)
    mean_true = np.sum(marginal.weights[:, None] * marginal.means, axis=0)
    second_true = np.sum(
        marginal.weights[:, None] * (marginal.variances + marginal.means**2), axis=0
    )
    var_true = second_true - mean_true**2
    se_mean = np.sqrt(var_true / n)
    assert np.all(np.abs(xs.mean(axis=0) - mean_true) < 3 * se_mean)
    fourth = np.sum(
        marginal.weights[:, None]
        * (3 * marginal.variances**2 + 6 * marginal.variances * marginal.means**2
           + marginal.means**4),
        axis=0,
    )
    se_second = np.sqrt((fourth - second_true**2) / n)
    assert np.all(np.abs((xs**2).mean(axis=0) - second_true) < 3 * se_second)


def test_mode_assignments():
    gmm = default_benchmark_gmm()
    pts = np.array([[4.0, 4.0], [-4.0, 4.1], [-3.8, -4.0], [4.2, -4.0]])
    np.testing.assert_array_equal(mode_assignments(gmm, pts), [0, 1, 2, 3])


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
    proc = python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_no_module_reaches_into_the_oracles_private_names():
    # the public functions are each module's only entry points, the oracle's
    # included: no flowsearch module imports, or reads as an attribute, a
    # name of another flowsearch module that begins with an underscore
    import ast
    from pathlib import Path

    import flowsearch

    paths = sorted(Path(flowsearch.__file__).parent.glob("*.py"))
    modules = {path.stem for path in paths}
    reached = []
    for path in paths:
        tree = ast.parse(path.read_text())
        aliases = {name: name for name in modules - {path.stem}}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                owner = (node.module or "").split(".")[-1]
                if owner in aliases:
                    reached += [(path.name, owner, a.name) for a in node.names
                                if a.name.startswith("_")]
                aliases |= {a.asname or a.name: a.name for a in node.names
                            if a.name in modules - {path.stem}}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
                owner = node.value
                name = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
                if name in aliases:
                    reached.append((path.name, aliases[name], node.attr))
    assert reached == []


# Reference: the row-major (..., K, d) oracle that the component-major one
# replaced, kept as it was (its last-axis log-sum-exp included).  With
# dtype=np.longdouble the same formulas run in extended precision from the
# same float64 inputs (the mixture, the schedule's coefficients and x),
# which is the yardstick the accuracy test measures both oracles against.
def _ref_logsumexp(a):
    m = np.max(a, axis=-1, keepdims=True)
    if not np.isfinite(m).all():
        finite = np.isfinite(m)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            direct = np.log(np.sum(np.exp(a), axis=-1, keepdims=True))
        return np.where(finite, _ref_logsumexp(np.where(finite, a, 0.0)), direct)
    is_max = a == m
    n = np.sum(is_max, axis=-1, keepdims=True, dtype=a.dtype)
    s = np.sum(np.exp(np.where(is_max, -np.inf, a) - m), axis=-1, keepdims=True)
    return np.log1p(np.where(s == 0.0, s, s / n)) + np.log(n) + m


class _RefMarginal(NamedTuple):
    """The time-t marginal in any dtype (a GaussianMixtureModel is float64)."""

    weights: np.ndarray
    means_t: np.ndarray
    variances_t: np.ndarray


def _ref_marginal(gmm, sched, t, dtype):
    """The schedule's coefficients at t and the time-t marginal, in dtype."""
    coeffs = tuple(dtype(c) for c in eval_schedule(sched, t))
    alpha, sigma = coeffs[:2]
    weights, means, variances = (np.asarray(a, dtype) for a in
                                 (gmm.weights, gmm.means, gmm.variances))
    return coeffs, _RefMarginal(weights, alpha * means, alpha * alpha * variances + sigma * sigma)


class _RefTerms(NamedTuple):
    """The x-dependent pieces at one (gmm, sched, t, x) in one dtype: the
    reference oracle and the rounding scale both read them."""

    coeffs: tuple            # eval_schedule(sched, t) in dtype
    params: _RefMarginal
    x: np.ndarray            # (..., d)
    diff: np.ndarray         # x - alpha mu_k, (..., K, d)
    quad: np.ndarray         # (..., K)
    log_joint: np.ndarray    # (..., K)
    resp: np.ndarray         # (..., K, 1)


def _ref_terms(gmm, sched, t, x, dtype=float):
    x = np.asarray(x, dtype)
    coeffs, params = _ref_marginal(gmm, sched, t, dtype)
    var = params.variances_t
    log_norm = 0.5 * np.sum(np.log(var), axis=-1) + 0.5 * var.shape[-1] * np.log(2.0 * np.pi)
    diff = x[..., None, :] - params.means_t
    quad = np.sum(diff * diff / var, axis=-1)
    log_joint = (np.log(params.weights) - log_norm) - 0.5 * quad
    resp = np.exp(log_joint - _ref_logsumexp(log_joint))[..., :, None]
    return _RefTerms(coeffs, params, x, diff, quad, log_joint, resp)


def _ref_oracle(gmm, terms):
    """(velocity, posterior mean, score) at one (t, x), from one set of
    responsibilities."""
    alpha, sigma, alpha_dot, sigma_dot = terms.coeffs
    params, x, resp = terms.params, terms.x, terms.resp
    dtype = x.dtype
    per_comp = (params.means_t - x[..., None, :]) / params.variances_t
    score = np.sum(resp * per_comp, axis=-2)
    if sigma == 0.0:
        x0_hat = x.copy()
    else:
        gain = alpha * np.asarray(gmm.variances, dtype) / params.variances_t
        comp_mean = np.asarray(gmm.means, dtype) + gain * (x[..., None, :] - params.means_t)
        x0_hat = np.sum(resp * comp_mean, axis=-2)
    x1_hat = (x - alpha * x0_hat) / sigma
    return alpha_dot * x0_hat + sigma_dot * x1_hat, x0_hat, score


def _ref_mode_assignments(gmm, x):
    return np.argmax(_ref_terms(gmm, LINEAR, 0.0, x).log_joint, axis=-1)


def _assert_same(got, want, equal_nan=False):
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    assert np.array_equal(got, want, equal_nan=equal_nan)


def _rounding_scale(gmm, terms):
    """Per entry of (velocity, posterior mean, score), in long double, the
    scale at which float64 rounding enters their formulas to first order.

    A mixture sum_k r_k c_k rounds at the size of the pieces of each c_k,
    plus sum_k r_k |c_k - mean| |lj_k|, since a log joint lj_k is known to
    a few ulps of its own size (and of its quadratic form's) and an error
    there moves r_k relatively by as much; the velocity scales the
    posterior mean's by its coefficients, with the 1/sigma of x1_hat.
    An error of a few ulps of this scale is rounding, not a fault.
    ``terms`` are the long-double ``_ref_terms``."""
    (alpha, sigma, alpha_dot, sigma_dot), params, x, diff, quad, log_joint, resp = terms
    means, variances = (np.asarray(a, np.longdouble) for a in (gmm.means, gmm.variances))
    size = (np.abs(log_joint) + 0.5 * quad)[..., :, None]

    def mixed(per_comp, pieces):
        mean = np.sum(resp * per_comp, axis=-2, keepdims=True)
        return np.sum(resp * (pieces + np.abs(per_comp - mean) * size), axis=-2)

    spread = np.abs(x)[..., None, :] + np.abs(params.means_t)
    score = mixed(-diff / params.variances_t, spread / params.variances_t)
    gain = alpha * variances / params.variances_t
    x0 = mixed(means + gain * diff, np.abs(means) + gain * spread)
    u = abs(alpha_dot) * x0 + abs(sigma_dot) * (np.abs(x) + alpha * x0) / sigma
    return u, x0, score


# The oracle's error may exceed the reference's by this many float64 ulps
# of the rounding scale.  Measured: at most 8.2 over this test's cases,
# while the oracle's own error stays within 28 ulps and the reference's
# reaches 48,000 (its exp(a - lse) carries lse's rounding into every r_k).
ULPS = 16


def _assert_as_accurate(got, ref, exact, scale):
    """|got - exact| <= |ref - exact| + ULPS ulps of ``scale``, per entry."""
    assert got.dtype == np.float64 and got.shape == exact.shape
    excess = np.abs(got - exact) - np.abs(ref - exact)
    assert np.all(excess <= ULPS * np.finfo(float).eps * scale), np.max(excess / scale)


# K=3, d=4, unequal weights and variances: sums over d of more than two terms
WIDE = GaussianMixtureModel(
    [0.2, 0.5, 0.3],
    [[1.0, -2.0, 0.5, 3.0], [-1.5, 0.0, 2.0, -1.0], [0.0, 1.0, -3.0, 0.5]],
    [[0.5, 1.0, 2.0, 0.8], [1.5, 0.3, 1.0, 1.0], [1.0, 2.5, 0.6, 0.4]],
)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble has no more precision than float64 here")
@pytest.mark.parametrize("sched", [LINEAR, VP], ids=["linear", "vp"])
def test_component_major_oracle_as_accurate_as_row_major_reference(sched):
    # The oracle's max-shifted softmax and reciprocal variances round
    # differently from the row-major reference's log-space form, so the two
    # are held to their error against the same formulas in long double.
    rng = np.random.default_rng(7)
    oracles = (velocity_at, posterior_mean, score_at)
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
            times = (T_MIN, 0.05, 0.5, 0.9, 1.0 - T_MIN, 1.0)
            if shape[0] == 100_000:
                times = (0.05, 0.9)  # keeps the test to a few seconds
            for t in times:
                long_terms = _ref_terms(gmm, sched, t, x, np.longdouble)
                checks = zip(oracles, _ref_oracle(gmm, _ref_terms(gmm, sched, t, x)),
                             _ref_oracle(gmm, long_terms), _rounding_scale(gmm, long_terms))
                for oracle, ref, exact, scale in checks:
                    if t < 1.0 or oracle is velocity_at:
                        _assert_as_accurate(oracle(gmm, sched, t, x), ref, exact, scale)
            _assert_same(mode_assignments(gmm, x), _ref_mode_assignments(gmm, x))
        if gmm is not WIDE:
            ties = _columns(np.array(special[2:]), d)
            for t in (T_MIN, 0.05, 0.5, 0.9, 1.0 - T_MIN):
                resp = _responsibilities(_at_time(gmm, sched, t), ties)
                assert resp[0, 0] == resp[1, 0]
                assert resp[0, 1] == resp[1, 1] == resp[2, 1]
        # One row whose log-joint maximum is not finite: every component's
        # quadratic form overflows, and that row (only) comes out nan.
        x = rng.normal(size=(3, d))
        x[1] = 1e200
        for t in (0.05, 0.5):
            with np.errstate(over="ignore", invalid="ignore"):
                for got in (velocity_at(gmm, sched, t, x), score_at(gmm, sched, t, x)):
                    assert np.isnan(got[1]).all() and np.isfinite(got[[0, 2]]).all()


def _many_modes(k):
    """K modes in 2-D with unequal weights and variances."""
    rng = np.random.default_rng(k)
    w = rng.uniform(0.5, 1.5, k)
    return GaussianMixtureModel(w / w.sum(), rng.normal(scale=4.0, size=(k, 2)),
                                rng.uniform(0.5, 2.0, (k, 2)))


# numpy's reduce sums 8 or more contiguous terms pairwise, and a one-row
# call's K terms are contiguous, so with K >= 8 a K-sum by np.add.reduce
# rounds a one-row call differently from a batch.
MANY_MODES = [_many_modes(k) for k in (8, 9, 16, 33)]


@pytest.mark.parametrize("sched", [LINEAR, VP], ids=["linear", "vp"])
def test_oracle_rows_are_independent_bitwise(sched):
    # A row's velocity, posterior mean and value do not depend on the other
    # rows in its call or on the batch's shape: an (N, d) call and the same
    # rows as (B, k, d) equal the one-row calls bit for bit.  Batched
    # sampler steps and one value call per selection rest on this.
    from flowsearch.rewards import estimate_value, rare_mode_reward, ring_reward, target_point_reward

    rng = np.random.default_rng(11)
    cases = [*itertools.product((default_benchmark_gmm(), WIDE),
                                (1, 2, 7, 8, 9, 16, 17, 25, 213, 501)),
             *itertools.product(MANY_MODES, (2, 9))]
    for gmm, n in cases:
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


def test_velocity_and_posterior_mean_meet_their_score_identities():
    # The benchmark's own check, over 40 seeds: u = (a_dot/a) x - (s s_dot -
    # s^2 a_dot/a) score and x0_hat = (x + s^2 score) / a.  At vp t=0.95 the
    # velocity's right side cancels terms of size ~40 down to ~5e-6, which
    # magnifies the score's rounding: with log-space responsibilities it
    # missed rtol=1e-8 at seeds 8 and 9 (3.0e-8, 4.2e-8); with the
    # max-shifted softmax the worst here is 5.9e-9, at seed 9.
    gmm = default_benchmark_gmm()
    for seed in range(40):
        pts = np.random.default_rng([seed, 99]).normal(scale=4.0, size=(64, 2))
        for sched in (LINEAR, VP):
            for t in (0.05, 0.3, 0.7, 0.95):
                a, s, a_dot, s_dot = eval_schedule(sched, t)
                score = score_at(gmm, sched, t, pts)
                u_ref = (a_dot / a) * pts - (s * s_dot - s * s * a_dot / a) * score
                np.testing.assert_allclose(velocity_at(gmm, sched, t, pts), u_ref,
                                           rtol=1e-8, atol=0.0, err_msg=f"{seed} {sched} {t}")
                np.testing.assert_allclose(posterior_mean(gmm, sched, t, pts),
                                           (pts + s * s * score) / a,
                                           rtol=1e-8, atol=0.0, err_msg=f"{seed} {sched} {t}")
