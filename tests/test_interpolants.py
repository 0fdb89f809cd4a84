import math

import numpy as np
import pytest
from scipy.integrate import quad

from flowsearch.errors import DomainError
from flowsearch.interpolants import (
    T_MIN,
    InterpolantSchedule,
    eval_schedule,
    scale_time_transform,
    snr_ratio,
    snr_time_inverse,
    vp_schedule,
)

LINEAR = InterpolantSchedule("linear")
VP = vp_schedule()


def test_linear_values():
    assert eval_schedule(LINEAR, 0.25) == (0.75, 0.25, -1.0, 1.0)
    assert eval_schedule(LINEAR, 0.0) == (1.0, 0.0, -1.0, 1.0)
    assert eval_schedule(LINEAR, 1.0) == (0.0, 1.0, -1.0, 1.0)


def test_vp_boundary_against_quadrature():
    # independent oracle: integrate beta numerically, then alpha = exp(-B/2)
    big_b, _ = quad(lambda s: 0.1 + 19.9 * s, 0.0, 1.0)
    assert big_b == pytest.approx(10.05, abs=1e-12)
    alpha_oracle = math.exp(-0.5 * big_b)
    sigma_oracle = math.sqrt(1.0 - math.exp(-big_b))
    alpha, sigma, _, _ = eval_schedule(VP, 1.0)
    assert alpha == pytest.approx(alpha_oracle, rel=1e-12)
    assert sigma == pytest.approx(sigma_oracle, rel=1e-12)
    # frozen values from the oracle
    assert alpha == pytest.approx(6.571586494929619e-3, rel=1e-12)
    assert sigma == pytest.approx(0.9999784068923386, rel=1e-12)


def test_vp_endpoints():
    alpha0, sigma0, _, _ = eval_schedule(VP, 0.0)
    assert alpha0 == 1.0 and sigma0 == 0.0
    # terminal residual of the affine-beta VP schedule: alpha(1) ~ 6.6e-3
    alpha1, sigma1, _, _ = eval_schedule(VP, 1.0)
    assert abs(alpha1) < 1e-2
    assert abs(sigma1 - 1.0) < 1e-4


@pytest.mark.parametrize("sched", [LINEAR, VP], ids=["linear", "vp"])
def test_schedule_monotone_and_derivatives(sched):
    ts = np.linspace(T_MIN, 1.0 - T_MIN, 200)
    h = 1e-6
    for t in ts:
        alpha, sigma, alpha_dot, sigma_dot = eval_schedule(sched, float(t))
        assert alpha_dot < 0.0 and sigma_dot > 0.0
        ap, sp, _, _ = eval_schedule(sched, float(t) + h)
        am, sm, _, _ = eval_schedule(sched, float(t) - h)
        assert (ap - am) / (2 * h) == pytest.approx(alpha_dot, abs=1e-4)
        assert (sp - sm) / (2 * h) == pytest.approx(sigma_dot, abs=1e-4)


def test_eval_schedule_domain():
    with pytest.raises(DomainError):
        eval_schedule(LINEAR, -0.1)
    with pytest.raises(DomainError):
        eval_schedule(VP, 1.1)


def test_log_snr_examples():
    # log-SNR is 2 log(snr_ratio)
    assert math.log(snr_ratio(LINEAR, 0.5)) == 0.0
    assert math.log(snr_ratio(LINEAR, 0.25)) == pytest.approx(math.log(3.0), rel=1e-12)
    # vp sits below linear at matched time
    assert snr_ratio(VP, 0.5) < snr_ratio(LINEAR, 0.5)


@pytest.mark.parametrize("sched", [LINEAR, VP], ids=["linear", "vp"])
def test_log_snr_strictly_decreasing(sched):
    grid = np.linspace(T_MIN, 1.0 - T_MIN, 1000)
    vals = [math.log(snr_ratio(sched, float(t))) for t in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_snr_ratio_domain():
    with pytest.raises(DomainError):
        snr_ratio(LINEAR, 0.0)
    with pytest.raises(DomainError):
        snr_ratio(LINEAR, 1.0 + 1e-12)


def test_snr_time_inverse_closed_form():
    assert snr_time_inverse(LINEAR, 1.0) == pytest.approx(0.5, abs=1e-15)
    assert snr_time_inverse(LINEAR, 3.0) == pytest.approx(0.25, abs=1e-15)


def test_snr_time_inverse_roundtrip_vp():
    t = snr_time_inverse(VP, snr_ratio(VP, 0.3))
    assert t == pytest.approx(0.3, abs=1e-10)


@pytest.mark.parametrize("sched", [LINEAR, VP], ids=["linear", "vp"])
def test_snr_time_inverse_roundtrip_grid(sched):
    for t in np.linspace(T_MIN, 1.0 - T_MIN, 1000):
        back = snr_time_inverse(sched, snr_ratio(sched, float(t)))
        assert abs(back - t) < 1e-9


def test_snr_time_inverse_domain():
    with pytest.raises(DomainError):
        snr_time_inverse(LINEAR, -1.0)
    with pytest.raises(DomainError):
        snr_time_inverse(VP, 1e-9)  # below the vp terminal ratio


def test_scale_time_identity_map():
    for s in np.linspace(T_MIN, 1.0, 1000):
        m = scale_time_transform(LINEAR, LINEAR, float(s))
        assert m.t_s == float(s)
        assert m.c_s == 1.0 and m.t_dot == 1.0 and m.c_dot == 0.0


def test_scale_time_matched_log_snr():
    # half the old log-SNR tolerance: log(snr_ratio) is half the log-SNR
    for s in np.linspace(2e-3, 1.0 - T_MIN, 1000):
        m = scale_time_transform(LINEAR, VP, float(s))
        assert abs(math.log(snr_ratio(LINEAR, m.t_s) / snr_ratio(VP, float(s)))) < 0.5e-9


def test_scale_time_linear_dst_scale():
    # with a linear source, sigma_t = t, so c_s = sigma_bar / t_s
    for s in (0.2, 0.5, 0.9):
        m = scale_time_transform(LINEAR, VP, s)
        _, sigma_bar, _, _ = eval_schedule(VP, s)
        assert m.c_s == pytest.approx(sigma_bar / m.t_s, rel=1e-12)
        assert m.c_s > 0.0


def test_scale_time_rho_bar_unity():
    # find s with snr ratio 1 under vp by bisection, then t_s must be 0.5
    lo, hi = T_MIN, 1.0 - T_MIN
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if snr_ratio(VP, mid) >= 1.0:
            lo = mid
        else:
            hi = mid
    s_star = 0.5 * (lo + hi)
    m = scale_time_transform(LINEAR, VP, s_star)
    assert m.t_s == pytest.approx(0.5, abs=1e-9)


def test_scale_time_derivatives_match_finite_differences():
    h = 1e-6
    for s in (0.1, 0.45, 0.8):
        m0 = scale_time_transform(LINEAR, VP, s)
        mp = scale_time_transform(LINEAR, VP, s + h)
        mm = scale_time_transform(LINEAR, VP, s - h)
        assert (mp.t_s - mm.t_s) / (2 * h) == pytest.approx(m0.t_dot, rel=1e-5)
        assert (mp.c_s - mm.c_s) / (2 * h) == pytest.approx(m0.c_dot, rel=1e-5)


def test_scale_time_domain():
    with pytest.raises(DomainError):
        scale_time_transform(LINEAR, VP, T_MIN / 2)
    with pytest.raises(DomainError):
        scale_time_transform(LINEAR, VP, 1.5)


def test_bad_schedule_kind():
    with pytest.raises(DomainError):
        InterpolantSchedule("cosine")
