import math
import threading

import numpy as np
import pytest

from flowsearch import engine
from flowsearch import rng as streams
from flowsearch.analytic_flow import (
    GaussianMixtureModel,
    default_benchmark_gmm,
    mode_assignments,
    posterior_mean,
    score_at,
    velocity_at,
)
from flowsearch.engine import (
    G_NORM,
    PROCESS_NAMES,
    StepPlan,
    denoise_interval,
    make_plan,
    run_process,
    step_from_x0,
)
from flowsearch.errors import DomainError
from flowsearch.interpolants import (
    T_MIN,
    InterpolantSchedule,
    eval_schedule,
    scale_time_transform,
    vp_schedule,
)

from reference import score_from_velocity

LINEAR = InterpolantSchedule("linear")
VP = vp_schedule()
SINGLE = GaussianMixtureModel([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
GMM = default_benchmark_gmm()


def oracle(gmm):
    return lambda x, t: velocity_at(gmm, LINEAR, t, x)


def constant(u):
    """A velocity field that returns ``u`` everywhere."""
    return lambda x, t: u


# On the 10-step grid, interval 5 runs from t = 0.5 to t = 0.4 (up to the
# grid's rounding) and interval 4 from 0.6 to 0.5.
HALF = 5


def width(plan, i):
    return plan.times[i] - plan.times[i + 1]


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
    zero = make_plan("linear-ode", 10)
    ds = width(zero, HALF)
    # g = 0: the drift is u itself, bit for bit
    out = denoise_interval(zero, x, HALF, np.ones(2), constant(u))
    np.testing.assert_array_equal(out, x - u * ds)
    # g(0.5) = 0.75; u = 0 gives -(g^2/2) * score = (0.5625, 0)
    sde = make_plan("linear-sde", 10)
    out = denoise_interval(sde, x, HALF, np.zeros(2), constant(np.zeros(2)))
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
    out = denoise_interval(plan, x, HALF, None, constant(np.array([2.0, 0.0])))
    np.testing.assert_allclose(out, [-0.2, 0.0])
    unchanged = denoise_interval(plan, x, HALF, None, constant(np.zeros(2)))
    np.testing.assert_array_equal(unchanged, x)


def test_ode_marginal_variance():
    # 200-step ODE transport of N(0, I) through a standard normal prior
    plan = make_plan("linear-ode", 200)
    x1 = streams.stream(0, streams.INIT).standard_normal((100_000, 2))
    x0, nfe = run_process(plan, x1, streams.stream(0, streams.PROCESS), oracle(SINGLE))
    assert nfe == 200
    assert np.allclose(x0.var(axis=0), 1.0, atol=0.02)


def test_sde_step_mean_and_variance():
    plan = make_plan("linear-sde", 10)
    diff = engine.diffusion
    x = np.array([1.0, 0.0])
    t = plan.times[HALF]
    ds = width(plan, HALF)
    u = velocity_at(GMM, LINEAR, t, x)
    # z = 0 lands exactly on the proposal mean
    out = denoise_interval(plan, x, HALF, np.zeros(2), oracle(GMM))
    f = u - 0.5 * diff(t) ** 2 * score_from_velocity(LINEAR, t, x, u)
    np.testing.assert_allclose(out, x - f * ds, atol=1e-15)
    # g = 0, and z None, reduce to the ODE step
    zero = make_plan("linear-ode", 10)
    out0 = denoise_interval(zero, x, HALF, np.ones(2), oracle(GMM))
    np.testing.assert_allclose(out0, x - u * ds, atol=1e-15)
    flow = denoise_interval(plan, x, HALF, None, oracle(GMM))
    np.testing.assert_allclose(flow, x - u * ds, atol=1e-15)
    # Monte-Carlo variance of one step: g^2 dt per dimension within 5%
    rng = np.random.default_rng(2)
    z = rng.standard_normal((10_000, 2))
    xs = denoise_interval(plan, np.tile(x, (10_000, 1)), HALF, z, oracle(GMM))
    want = diff(t) ** 2 * ds
    assert np.allclose(xs.var(axis=0), want, rtol=0.05)


@pytest.mark.parametrize("process", ["linear-sde", "vp-sde"])
def test_denoise_interval_leaves_the_velocity_result_unchanged(process):
    # The step works in place on its own arrays only: the array the
    # velocity callback returns (a cache, a caller's buffer) must come back
    # as it went out, on identity-map and converted plans, noisy and not.
    plan = make_plan(process, 10)
    assert (plan.maps[3] is None) == (process == "linear-sde")
    x = np.random.default_rng(4).normal(size=(5, 2))
    x_before = x.copy()
    returned = []

    def keep(xq, t):
        u = velocity_at(GMM, LINEAR, t, xq)
        returned.append((u, u.copy()))
        return u

    for i, z in [(3, np.ones((5, 2))), (3, None), (plan.steps - 1, np.ones((5, 2)))]:
        out = denoise_interval(plan, x, i, z, keep)
        u, u_before = returned[-1]
        np.testing.assert_array_equal(u, u_before)
        assert out is not u and out is not x
    np.testing.assert_array_equal(x, x_before)


def test_transform_velocity_identity():
    # an identity conversion queries the oracle with its arguments untouched
    plan = StepPlan("vp-sde", 10, LINEAR)
    x = np.array([0.3, -1.2])
    queries = []

    def spy(xq, t):
        queries.append((xq, t))
        return velocity_at(GMM, LINEAR, t, xq)

    out = denoise_interval(plan, x, 4, None, spy)
    assert plan.maps[4] is None
    assert len(queries) == 1 and queries[0][0] is x and queries[0][1] == 0.6
    np.testing.assert_array_equal(out, x - velocity_at(GMM, LINEAR, 0.6, x) * width(plan, 4))


def test_identity_map_conversion_steps_bitwise():
    # criterion 4's plan applies no map at all; given the exact identity
    # map on every interval, the conversion's arithmetic must still step
    # each interval's latent bit for bit where the unmapped plan puts it:
    # the same query time and step coefficients, and x / c_s is x
    plain = StepPlan("vp-sde", 10, LINEAR)
    t = plain.times.tolist()
    x = streams.stream(0, streams.INIT).standard_normal((1000, 2))
    noise = streams.stream(0, streams.PROCESS)
    for i, g in enumerate(plain.g.tolist()):
        identity = scale_time_transform(LINEAR, max(t[i], T_MIN))
        mapped = engine._interval_steps(LINEAR, t[i], t[i] - t[i + 1], g, identity)
        assert plain.maps[i] is None and identity.c_s == 1.0
        for unmapped, step in zip(plain.intervals[i], mapped):
            assert step.c == 1.0 and step[1:] == unmapped[1:]
        assert (x / identity.c_s).tobytes() == x.tobytes()
        x = denoise_interval(plain, x, i, noise.standard_normal(x.shape) if g else None, oracle(GMM))


def test_transform_velocity_vp_closed_form():
    # for an N(0, I) prior the converted velocity equals the vp closed form
    # at every plan time: a probability-flow step over interval i is
    # x - u (s_i - s_{i+1}), so u = (x - x') / (s_i - s_{i+1})
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(1, 201))
        i = int(rng.integers(n))
        x = rng.normal(size=2)
        plan = make_plan("vp-sde", n)
        s, s_next = plan.grid[i], plan.grid[i + 1]
        got = (x - denoise_interval(plan, x, i, None, oracle(SINGLE))) / (s - s_next)
        alpha, sigma, alpha_dot, sigma_dot = eval_schedule(VP, s)
        want = (alpha_dot * alpha + sigma_dot * sigma) / (alpha**2 + sigma**2) * x
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)


def test_step_plan_validation():
    with pytest.raises(DomainError):
        StepPlan("rbf", 4)
    with pytest.raises(DomainError):
        StepPlan("linear-sde-adaptive-time", 4, LINEAR)
    # a step count is an integer >= 1; a bool or a float is not one
    for steps in (0, -3, 2.5, 3.0, True, False, "3", None):
        with pytest.raises(DomainError):
            make_plan("vp-sde", steps)


def test_make_plan_shares_one_read_only_plan_per_process_and_steps():
    for process in PROCESS_NAMES:
        plan = make_plan(process, 7)
        assert make_plan(process, 7) is plan
        assert make_plan(process, 8) is not plan
        for arr in (plan.grid, plan.times, plan.g):
            with pytest.raises(ValueError):
                arr[0] = 0.5
    # A cached entry never stands in for a malformed step count equal to it.
    make_plan("vp-sde", 3), make_plan("vp-sde", 1)
    for steps in (3.0, True):
        with pytest.raises(DomainError):
            make_plan("vp-sde", steps)


def test_shared_plans_refuse_assignment():
    # one stray assignment would reach every later run of that (process,
    # steps) in the process, so a plan's fields cannot be reassigned
    import dataclasses

    plan = make_plan("vp-sde", 10)
    intervals = plan.intervals
    for name in ("intervals", "g", "steps", "process", "dst_schedule"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(plan, name, ())
    assert make_plan("vp-sde", 10) is plan
    assert plan.intervals is intervals and len(plan.intervals) == 10


def test_stoch_denoise_linear_ode_matches_ode_step():
    plan = make_plan("linear-ode", 10)
    x = np.array([0.4, -0.9])
    z = np.full(2, 7.7)  # ignored when g = 0
    calls = []

    def counting(xq, t):
        calls.append(t)
        return velocity_at(GMM, LINEAR, t, xq)

    out = denoise_interval(plan, x, 0, z, counting)
    u = velocity_at(GMM, LINEAR, 1.0, x)
    np.testing.assert_array_equal(out, x - u * width(plan, 0))
    assert calls == [1.0]


def test_stoch_denoise_vp_zero_noise_matches_closed_form():
    # z = 0: the step lands on x - f ds with f from the converted velocity
    # (c_dot / c) x + c t_dot u_src(x / c, t_s) of the scale-time map
    plan = make_plan("vp-sde", 10)
    x = np.array([0.8, 0.5])
    s = 0.9
    m = scale_time_transform(VP, s)
    u_src = velocity_at(SINGLE, LINEAR, m.t_s, x / m.c_s)
    u_bar = (m.c_dot / m.c_s) * x + (m.c_s * m.t_dot) * u_src
    sc = score_from_velocity(VP, s, x, u_bar)
    f = u_bar - 0.5 * engine.diffusion(s) ** 2 * sc
    out = denoise_interval(plan, x, 1, np.zeros(2), oracle(SINGLE))
    np.testing.assert_allclose(out, x - f * 0.1, rtol=1e-12)


def test_scaled_diffusion_inflates_early_noise():
    # early on, the rescaled coefficient exceeds g at the matched source time
    plan = make_plan("linear-sde-scaled-diffusion", 10)
    g = plan.grid
    m = plan.scale_map(g[0])
    dt = width(plan, 0)
    ds = g[0] - g[1]
    g_scaled = engine.diffusion(g[0]) / m.c_s * np.sqrt(ds / dt)
    assert plan.g[0] == pytest.approx(g_scaled, rel=1e-15)
    assert g_scaled > engine.diffusion(plan.times[0])
    # and the realised one-step noise is correspondingly larger
    x = np.zeros((2, 2))
    z = np.stack([np.zeros(2), np.ones(2)])
    stepped = denoise_interval(plan, x, 0, z, oracle(GMM))
    noise_norm = np.linalg.norm(stepped[1] - stepped[0])
    plain = make_plan("linear-sde-adaptive-time", 10)
    assert plain.g[0] == engine.diffusion(plan.times[0])
    stepped_plain = denoise_interval(plain, x, 0, z, oracle(GMM))
    assert noise_norm > np.linalg.norm(stepped_plain[1] - stepped_plain[0])


def test_identity_conversion_bitwise():
    # vp-sde plan with dst = src reproduces linear-sde bit for bit
    sde = make_plan("linear-sde", 10)
    vp_id = StepPlan("vp-sde", 10, LINEAR)
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


# --- run_process draws each interval's noise one interval ahead on a worker
# thread: the generator must see a serial loop's draws, in the same order


def _serial_state(shape, draws):
    """The PROCESS generator's state, as ``_state``, after a serial loop's
    first ``draws`` blocks of ``shape``."""
    gen = streams.stream(3, streams.PROCESS)
    for _ in range(draws):
        gen.standard_normal(shape)
    return _state(gen)


def _state(gen):
    """The whole state of ``gen``'s bit generator (Philox's counter, key and
    buffered output), comparable with ``==``."""
    return repr(gen.bit_generator.state)


@pytest.mark.parametrize("steps", [10, 1])
@pytest.mark.parametrize("process", PROCESS_NAMES)
def test_run_process_leaves_the_generator_where_a_serial_loop_does(process, steps):
    plan = make_plan(process, steps)
    x1 = streams.stream(3, streams.INIT).standard_normal((64, 2))
    gen = streams.stream(3, streams.PROCESS)
    x0, _ = run_process(plan, x1, gen, oracle(GMM))
    assert _state(gen) == _serial_state(x1.shape, np.count_nonzero(plan.g))
    serial = streams.stream(3, streams.PROCESS)
    x = x1
    for i in range(steps):
        z = serial.standard_normal(x.shape) if plan.g[i] else None
        x = denoise_interval(plan, x, i, z, oracle(GMM))
    np.testing.assert_array_equal(x0, x)


@pytest.mark.parametrize("steps", [10, 1])
@pytest.mark.parametrize("process", PROCESS_NAMES)
def test_run_process_propagates_a_velocity_error_and_joins_its_thread(process, steps):
    plan = make_plan(process, steps)
    fail_at = steps // 2
    error = RuntimeError("oracle failed")
    calls = 0

    def failing(x, t):
        nonlocal calls
        calls += 1
        if calls > fail_at:
            raise error
        return velocity_at(GMM, LINEAR, t, x)

    x1 = streams.stream(3, streams.INIT).standard_normal((64, 2))
    gen = streams.stream(3, streams.PROCESS)
    threads = threading.active_count()
    with pytest.raises(RuntimeError) as raised:
        run_process(plan, x1, gen, failing)
    assert raised.value is error and calls == fail_at + 1
    assert threading.active_count() == threads
    # a serial loop has drawn interval fail_at's block when the oracle
    # raises; the worker has finished the next noisy interval's too
    drawn = np.count_nonzero(plan.g[:fail_at + 1])
    ahead = int(plan.g[fail_at + 1:].any())
    assert _state(gen) == _serial_state(x1.shape, drawn + ahead)


@pytest.mark.parametrize("steps", [10, 1])
def test_run_process_never_draws_on_a_noiseless_plan(steps):
    calls = []

    class Refusing:
        def standard_normal(self, shape):
            calls.append(shape)
            raise AssertionError("a noiseless plan drew noise")

    plan = make_plan("linear-ode", steps)
    x1 = streams.stream(3, streams.INIT).standard_normal((64, 2))
    threads = threading.active_count()
    x0, _ = run_process(plan, x1, Refusing(), oracle(GMM))
    assert calls == [] and threading.active_count() == threads
    x = x1
    for i in range(steps):
        x = denoise_interval(plan, x, i, None, oracle(GMM))
    np.testing.assert_array_equal(x0, x)


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


N41 = GaussianMixtureModel([1.0], [[4.0]], [[1.0]])

# The exact endpoint law (mean, variance) of each plan from N(0, 1) noise to
# the data law N(4, 1), at 10 and 200 steps.  The linear-clock modes keep the
# mean at 4; the three vp-clock modes (matched grid or converted) miss it.
ENDPOINT_LAW = {
    ("linear-ode", 10): (4.0000000000, 0.7726135376),
    ("linear-sde", 10): (4.0000000000, 0.9862091391),
    ("linear-sde-adaptive-time", 10): (3.9960702471, 0.8551413740),
    ("linear-sde-scaled-diffusion", 10): (3.9947021125, 0.8051378901),
    ("vp-sde", 10): (4.0022569536, 1.1160457279),
    ("linear-ode", 200): (4.0000000000, 0.9872281678),
    ("linear-sde", 200): (4.0000000000, 0.9974627531),
    ("linear-sde-adaptive-time", 200): (3.9923344729, 0.9912496719),
    ("linear-sde-scaled-diffusion", 200): (3.9896042737, 0.9893049033),
    ("vp-sde", 200): (3.9916940070, 1.0039998595),
}


def endpoint_law(plan):
    """Mean and variance of the endpoint, propagated exactly.

    With a single Gaussian the velocity is affine in x, so every interval
    maps x to a x + c + s z; a, c and s are read off ``denoise_interval``
    at x in {0, 1} with zero noise (z None would take the probability-flow
    step) and at x = 0 with unit noise.
    """
    velocity = lambda x, t: velocity_at(N41, plan.src_schedule, t, x)
    x = np.array([[0.0], [1.0]])
    mean, var = 0.0, 1.0
    for i in range(plan.steps):
        c, a_plus_c = denoise_interval(plan, x, i, np.zeros((2, 1)), velocity)[:, 0]
        s = denoise_interval(plan, x[:1], i, np.ones((1, 1)), velocity)[0, 0] - c
        a = a_plus_c - c
        mean, var = a * mean + c, a * a * var + s * s
    return mean, var


@pytest.mark.parametrize("process", PROCESS_NAMES)
def test_endpoint_law_of_every_plan(process):
    for steps in (10, 200):
        mean, var = endpoint_law(make_plan(process, steps))
        assert (mean, var) == pytest.approx(ENDPOINT_LAW[process, steps], abs=1e-9)


def test_plan_owns_the_latent_clock():
    # the matched-grid modes step on the source times matched to the grid;
    # the others on the grid itself; no interval after the last injects noise
    for process in PROCESS_NAMES:
        plan = make_plan(process, 10)
        assert plan.times[-1] == 0.0 and plan.g[-1] == 0.0
        assert len(plan.maps) == plan.g.size == plan.steps
        if process in ("linear-sde-adaptive-time", "linear-sde-scaled-diffusion"):
            assert plan.times[0] == pytest.approx(0.99347, abs=1e-5)
            assert plan.schedule == LINEAR and all(m is None for m in plan.maps)
        else:
            np.testing.assert_array_equal(plan.times, plan.grid)
        assert (plan.schedule == VP) == (process == "vp-sde")
        assert all(m is not None for m in plan.maps) == (process == "vp-sde")
        assert plan.g.any() == (process != "linear-ode")


# --- the float-time kernel the index kernel replaced, kept as a reference:
# it re-derives the latent's clock, coordinates, map and noise scale from
# the process name, plan-time floats and the norm of g(t) = norm * t**2 at
# every step.

_MATCHED = ("linear-sde-adaptive-time", "linear-sde-scaled-diffusion")


def _ref_scale_map(plan, s):
    return scale_time_transform(plan.dst_schedule, max(s, T_MIN))


def _ref_latent_time(plan, s):
    if plan.process not in _MATCHED:
        return s
    return 0.0 if s <= 1e-12 else _ref_scale_map(plan, s).t_s


def _ref_noisy(plan, s_right, g_norm):
    return s_right > 1e-12 and plan.process != "linear-ode" and g_norm != 0.0


def reference_interval(plan, x, s_left, s_right, z, velocity, g_norm):
    if plan.process in _MATCHED:
        t_left = _ref_latent_time(plan, s_left)
        dt = t_left - _ref_latent_time(plan, s_right)
        t_eval = max(t_left, T_MIN)
        m = None
        u = velocity(x, t_eval)
        sched = plan.src_schedule
    else:
        t_left = s_left
        dt = s_left - s_right
        t_eval = max(s_left, T_MIN)
        m = _ref_scale_map(plan, s_left)
        if plan.src_schedule == plan.dst_schedule:
            m = None
            u = velocity(x, t_eval)
        else:
            u = velocity(x / m.c_s, m.t_s)
        sched = plan.dst_schedule
    g = 0.0
    if _ref_noisy(plan, s_right, g_norm):
        if plan.process == "linear-sde-adaptive-time":
            g = g_norm * t_left**2.0
        elif plan.process == "linear-sde-scaled-diffusion":
            g = g_norm * s_left**2.0 / _ref_scale_map(plan, s_left).c_s * math.sqrt(
                (s_left - s_right) / dt
            )
        else:
            g = g_norm * s_left**2.0
    # the step's velocity-basis coefficients, derived here from float times
    step = engine._interval_steps(sched, t_left, dt, g, m)[1]
    out = step.a * x + step.b * u
    return out + step.s * z if g else out


def reference_run(plan, x1, rng, velocity, g_norm=G_NORM):
    x = np.asarray(x1, dtype=float)
    grid = plan.grid
    for i in range(plan.steps):
        z = rng.standard_normal(x.shape) if _ref_noisy(plan, grid[i + 1], g_norm) else None
        x = reference_interval(plan, x, grid[i], grid[i + 1], z, velocity, g_norm)
    return x, plan.steps


def _queried_run(run, plan):
    """Endpoint, NFE and every (x, t) the oracle saw along the trajectory."""
    queries = []

    def spy(x, t):
        queries.append((np.array(x), t))
        return velocity_at(GMM, LINEAR, t, x)

    x1 = streams.stream(9, streams.INIT).standard_normal((64, 2))
    x0, nfe = run(plan, x1, streams.stream(9, streams.PROCESS), spy)
    return x0, nfe, queries


# make_plan(p, 10) for every process, as float.hex: the latent's times, the
# per-interval noise scale g, and each interval's scale-time map.
PLAN_PINS = {
    "linear-ode": (
        (  # times
            "0x1.0000000000000p+0 0x1.ccccccccccccdp-1 0x1.999999999999ap-1 "
            "0x1.6666666666666p-1 0x1.3333333333333p-1 0x1.0000000000000p-1 "
            "0x1.9999999999998p-2 0x1.3333333333332p-2 0x1.9999999999998p-3 "
            "0x1.9999999999998p-4 0x0.0p+0"
        ),
        (  # g
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0"
        ),
        (None,) * 10,
    ),
    "linear-sde": (
        (  # times
            "0x1.0000000000000p+0 0x1.ccccccccccccdp-1 0x1.999999999999ap-1 "
            "0x1.6666666666666p-1 0x1.3333333333333p-1 0x1.0000000000000p-1 "
            "0x1.9999999999998p-2 0x1.3333333333332p-2 0x1.9999999999998p-3 "
            "0x1.9999999999998p-4 0x0.0p+0"
        ),
        (  # g
            "0x1.8000000000000p+1 0x1.370a3d70a3d71p+1 0x1.eb851eb851ebap+0 "
            "0x1.7851eb851eb84p+0 0x1.147ae147ae148p+0 0x1.8000000000000p-1 "
            "0x1.eb851eb851eb4p-2 0x1.147ae147ae145p-2 0x1.eb851eb851eb4p-4 0x0.0p+0"
        ),
        (None,) * 10,
    ),
    "linear-sde-adaptive-time": (
        (  # times
            "0x1.fca8410f9f5c4p-1 0x1.f77128de011c1p-1 0x1.ec63b97b1b62fp-1 "
            "0x1.d80a30f56c3dfp-1 0x1.b7da37ab1a758p-1 0x1.8bfa1cfbc4bcbp-1 "
            "0x1.56edf429c44e5p-1 0x1.1ad48864ef69ep-1 0x1.acc6b8f463305p-2 "
            "0x1.03ebeaf2cc1bdp-2 0x0.0p+0"
        ),
        (  # g
            "0x1.7b00924c4c102p+1 0x1.7345343b1113cp+1 0x1.6325ccebd0d38p+1 "
            "0x1.466617da52612p+1 0x1.1b674dd9e2192p+1 0x1.cb5e575a2c1a0p+0 "
            "0x1.58887c2a3108cp+0 0x1.d4b56368d6f3cp-1 0x1.0d4f67c36c3f4p-1 0x0.0p+0"
        ),
        (None,) * 10,
    ),
    "linear-sde-scaled-diffusion": (
        (  # times
            "0x1.fca8410f9f5c4p-1 0x1.f77128de011c1p-1 0x1.ec63b97b1b62fp-1 "
            "0x1.d80a30f56c3dfp-1 0x1.b7da37ab1a758p-1 0x1.8bfa1cfbc4bcbp-1 "
            "0x1.56edf429c44e5p-1 0x1.1ad48864ef69ep-1 0x1.acc6b8f463305p-2 "
            "0x1.03ebeaf2cc1bdp-2 0x0.0p+0"
        ),
        (  # g
            "0x1.2ad65afaba104p+3 0x1.492e1bdbb3707p+2 0x1.77305092dc63ep+1 "
            "0x1.b7254b66f66a7p+0 0x1.0402965412fcep+0 0x1.30082309f3f27p-1 "
            "0x1.52c8d9840ff57p-2 0x1.5409183938bd5p-3 0x1.12359eb86635cp-4 0x0.0p+0"
        ),
        (None,) * 10,
    ),
    "vp-sde": (
        (  # times
            "0x1.0000000000000p+0 0x1.ccccccccccccdp-1 0x1.999999999999ap-1 "
            "0x1.6666666666666p-1 0x1.3333333333333p-1 0x1.0000000000000p-1 "
            "0x1.9999999999998p-2 0x1.3333333333332p-2 0x1.9999999999998p-3 "
            "0x1.9999999999998p-4 0x0.0p+0"
        ),
        (  # g
            "0x1.8000000000000p+1 0x1.370a3d70a3d71p+1 0x1.eb851eb851ebap+0 "
            "0x1.7851eb851eb84p+0 0x1.147ae147ae148p+0 0x1.8000000000000p-1 "
            "0x1.eb851eb851eb4p-2 0x1.147ae147ae145p-2 0x1.eb851eb851eb4p-4 0x0.0p+0"
        ),
        (  # maps: t_s c_s t_dot c_dot
            "0x1.fca8410f9f5c4p-1 0x1.01ad42a763284p+0 0x1.09afa50ac37f5p-4 -0x1.0b673bcef521bp-4",
            "0x1.f77128de011c1p-1 0x1.045069dc7ab3ap+0 0x1.2f3175d10d631p-3 -0x1.341fdee7b5bc2p-3",
            "0x1.ec63b97b1b62fp-1 0x1.09fc2078b6552p+0 0x1.2e9b17af250fap-2 -0x1.3969a29e0ae92p-2",
            "0x1.d80a30f56c3dfp-1 0x1.14ae8ecd695a1p+0 0x1.044b6877a363fp-1 -0x1.1551e8282fd4fp-1",
            "0x1.b7da37ab1a758p-1 0x1.260fb0aff5c44p+0 0x1.7f2a2aa1cb646p-1 -0x1.a111d23c6a505p-1",
            "0x1.8bfa1cfbc4bcbp-1 0x1.3da77fc2917cbp+0 0x1.e99c4111bec2bp-1 -0x1.ff75bf0bd1ca0p-1",
            "0x1.56edf429c44e5p-1 0x1.56d03c0840735p+0 0x1.1ba4a4ee53c03p+0 -0x1.ce9372a9170e4p-1",
            "0x1.1ad48864ef69ep-1 0x1.68110999e1718p+0 0x1.3e3b8919d1342p+0 -0x1.73353291ef174p-2",
            "0x1.acc6b8f463305p-2 0x1.6559404fd9f41p+0 0x1.740fdf2b52d03p+0 0x1.48fcbcde89c7bp-1",
            "0x1.03ebeaf2cc1bdp-2 0x1.44ce6510046a0p+0 0x1.e885591b9fd84p+0 0x1.eb3fd9bd98357p+0",
        ),
    ),
}


# make_plan(p, 1): g is [0], and the matched-grid modes start at the source
# time matched to 1.
ONE_STEP_PINS = {
    "linear-ode": ("0x1.0000000000000p+0 0x0.0p+0", "0x0.0p+0", (None,)),
    "linear-sde": ("0x1.0000000000000p+0 0x0.0p+0", "0x0.0p+0", (None,)),
    "linear-sde-adaptive-time": ("0x1.fca8410f9f5c4p-1 0x0.0p+0", "0x0.0p+0", (None,)),
    "linear-sde-scaled-diffusion": ("0x1.fca8410f9f5c4p-1 0x0.0p+0", "0x0.0p+0", (None,)),
    "vp-sde": (
        "0x1.0000000000000p+0 0x0.0p+0",
        "0x0.0p+0",
        ("0x1.fca8410f9f5c4p-1 0x1.01ad42a763284p+0 0x1.09afa50ac37f5p-4 -0x1.0b673bcef521bp-4",),
    ),
}


def _hexes(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("process", PROCESS_NAMES)
def test_production_plans_pinned_bitwise(process):
    for steps, pins in ((10, PLAN_PINS), (1, ONE_STEP_PINS)):
        times, g, maps = pins[process]
        plan = make_plan(process, steps)
        assert _hexes(plan.times) == times.split()
        assert _hexes(plan.g) == g.split()
        got = [None if m is None else _hexes((m.t_s, m.c_s, m.t_dot, m.c_dot)) for m in plan.maps]
        assert got == [None if m is None else m.split() for m in maps]


def _trajectories_equal(a, b):
    (xa, na, qa), (xb, nb, qb) = a, b
    assert na == nb and len(qa) == len(qb) == na
    for (x_a, t_a), (x_b, t_b) in zip(qa, qb):
        assert t_a == t_b and np.array_equal(x_a, x_b)
    assert np.array_equal(xa, xb)


@pytest.mark.parametrize("steps", [5, 10, 100])
@pytest.mark.parametrize("process", PROCESS_NAMES)
def test_index_kernel_matches_float_time_reference_bitwise(process, steps):
    plan = make_plan(process, steps)
    _trajectories_equal(_queried_run(run_process, plan), _queried_run(reference_run, plan))
    # z None is the probability-flow step: the reference with g = 0

    def flow(plan, x1, rng, velocity):
        x = np.asarray(x1, dtype=float)
        for i in range(plan.steps):
            x = denoise_interval(plan, x, i, None, velocity)
        return x, plan.steps

    def zero_g(plan, x1, rng, velocity):
        return reference_run(plan, x1, rng, velocity, g_norm=0.0)

    _trajectories_equal(_queried_run(flow, plan), _queried_run(zero_g, plan))


# --- the step is affine: both bases against the drift form they replaced


def drift_form_step(plan, x, i, z, u):
    """Interval i's step as the reverse-SDE drift, from the source velocity
    u at the interval's query point: ``x - f dt + g sqrt(dt) z`` with ``f =
    v - (g^2/2) score``, v the latent's velocity through the scale-time map
    and the score recovered from v by ``score_from_velocity``."""
    t = plan.times[i]
    dt = t - plan.times[i + 1]
    m = plan.maps[i]
    v = u if m is None else (m.c_s * m.t_dot) * u + (m.c_dot / m.c_s) * x
    g = plan.g[i]
    if z is None or g == 0.0:
        return x - v * dt
    f = v - 0.5 * g * g * score_from_velocity(plan.schedule, max(t, T_MIN), x, v)
    return x - f * dt + g * math.sqrt(dt) * z


@pytest.mark.parametrize("steps", [5, 10, 100])
@pytest.mark.parametrize("process", PROCESS_NAMES)
def test_both_bases_match_the_drift_form_step(process, steps):
    # every interval, with and without noise: the velocity basis from the
    # same u, and the x̂0 basis from the posterior mean at the same point,
    # within 2e-15 of the result's largest entry
    plan = make_plan(process, steps)
    gen = np.random.default_rng(steps)
    for i, (step, _) in enumerate(plan.intervals):
        x = 3.0 * gen.standard_normal((1000, 2))
        query = x if step.c is None else x / step.c
        u = velocity_at(GMM, LINEAR, step.t, query)
        x0 = posterior_mean(GMM, LINEAR, step.t, query)
        for z in (None, gen.standard_normal(x.shape)):
            want = drift_form_step(plan, x, i, z, u)
            tol = 2e-15 * np.max(np.abs(want))
            assert np.max(np.abs(denoise_interval(plan, x, i, z, constant(u)) - want)) <= tol
            assert np.max(np.abs(step_from_x0(plan, x, i, z, x0) - want)) <= tol


@pytest.mark.parametrize("process", [p for p in PROCESS_NAMES if p != "vp-sde"])
def test_source_final_interval_lands_on_x0_exactly(process):
    # in source coordinates the final, noiseless interval ends at t = 0,
    # where the posterior mean is the latent: its x̂0 coefficients are
    # exactly (0, 1) at every step count
    gen = np.random.default_rng(7)
    for steps in range(1, 201):
        plan = StepPlan(process, steps)
        quiet, noisy = plan.intervals[-1]
        assert (quiet.p, quiet.q) == (0.0, 1.0)
        assert noisy == quiet and quiet.s == 0.0
        x, x0 = gen.standard_normal((2, 50, 2))
        assert step_from_x0(plan, x, steps - 1, None, x0).tobytes() == x0.tobytes()
