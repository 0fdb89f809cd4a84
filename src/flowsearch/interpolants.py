"""Interpolant schedules and the scale-time map between two interpolants.

An interpolant is the coefficient pair ``(alpha_t, sigma_t)`` of the bridge
``x_t = alpha_t * x0 + sigma_t * x1`` between data (t=0) and noise (t=1).
Two instances are provided:

* ``linear``: ``alpha = 1 - t``, ``sigma = t`` (the flow-matching default);
* ``vp``: variance preserving, ``alpha = exp(-B(t)/2)``,
  ``sigma = sqrt(1 - alpha^2)`` with ``B(t) = integral_0^t beta(s) ds`` for
  the standard affine schedule ``beta(s) = beta_min + (beta_max - beta_min)
  * s``, ``beta_min = 0.1`` and ``beta_max = 20``.

The scale-time transform matches a time ``s`` of a target interpolant to the
time ``t_s`` of a source interpolant with equal signal-to-noise ratio, plus
the scale ``c_s`` and the derivatives needed to transport a velocity field
from one interpolant to the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

# Lower time clamp. 1/sigma_t (score from velocity) and sigma_s (scale-time
# map) are singular at time 0, so SNR-related evaluations stop at T_MIN.
T_MIN = 1e-3

# The vp schedule's affine beta(s) runs from VP_BETA_MIN at s=0 to
# VP_BETA_MAX at s=1.
VP_BETA_MIN = 0.1
VP_BETA_MAX = 20.0


@dataclass(frozen=True)
class InterpolantSchedule:
    """One interpolant: ``kind`` is ``"linear"`` or ``"vp"``.

    Instances compare by value; equal source and target schedules are the
    identity conversion.
    """

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in ("linear", "vp"):
            raise DomainError(f"unknown interpolant kind: {self.kind!r}")


def vp_schedule() -> InterpolantSchedule:
    return InterpolantSchedule("vp")


def eval_schedule(sched: InterpolantSchedule, t: float) -> tuple[float, float, float, float]:
    """Return ``(alpha, sigma, alpha_dot, sigma_dot)`` at time ``t``.

    ``t`` must lie in [0, 1].  For the vp schedule, ``sigma_dot`` diverges at
    t=0 and is returned as ``inf`` there.
    """
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"schedule time must be in [0, 1], got {t}")
    if sched.kind == "linear":
        return 1.0 - t, t, -1.0, 1.0
    # vp with affine beta: B(t) = beta_min*t + (beta_max - beta_min)*t^2/2
    bmin, bmax = VP_BETA_MIN, VP_BETA_MAX
    beta_t = bmin + (bmax - bmin) * t
    big_b = t * (bmin + 0.5 * (bmax - bmin) * t)
    alpha = math.exp(-0.5 * big_b)
    alpha_dot = -0.5 * beta_t * alpha
    sigma_sq = max(1.0 - alpha * alpha, 0.0)
    sigma = math.sqrt(sigma_sq)
    if sigma == 0.0:
        sigma_dot = math.inf
    else:
        # d/dt sqrt(1 - alpha^2) = -alpha * alpha_dot / sigma
        sigma_dot = -alpha * alpha_dot / sigma
    return alpha, sigma, alpha_dot, sigma_dot


def snr_ratio(sched: InterpolantSchedule, t: float) -> float:
    """The signal-to-noise ratio ``alpha_t / sigma_t`` (t >= T_MIN)."""
    if t < T_MIN or t > 1.0:
        raise DomainError(f"snr ratio needs t in [{T_MIN}, 1], got {t}")
    alpha, sigma, _, _ = eval_schedule(sched, t)
    return alpha / sigma


def snr_time_inverse(sched: InterpolantSchedule, ratio: float) -> float:
    """Return the time ``t`` with ``alpha_t / sigma_t == ratio``.

    The ratio must lie in the range the schedule attains on [T_MIN, 1].
    Both kinds are inverted in closed form.
    """
    if not math.isfinite(ratio) or ratio < 0.0:
        raise DomainError(f"snr ratio must be finite and >= 0, got {ratio}")
    lo_ratio = snr_ratio(sched, 1.0)
    hi_ratio = snr_ratio(sched, T_MIN)
    if not lo_ratio <= ratio <= hi_ratio:
        raise DomainError(
            f"ratio {ratio} outside attainable range [{lo_ratio}, {hi_ratio}]"
        )
    if sched.kind == "linear":
        # (1 - t)/t = ratio
        return 1.0 / (1.0 + ratio)
    # alpha^2/sigma^2 = ratio^2 gives B(t) = log1p(1/ratio^2); the positive
    # root of the quadratic B(t), written without cancellation.
    big_b = math.log1p(1.0 / (ratio * ratio))
    bmin, bmax = VP_BETA_MIN, VP_BETA_MAX
    return 2.0 * big_b / (bmin + math.sqrt(bmin * bmin + 2.0 * (bmax - bmin) * big_b))


@dataclass(frozen=True)
class ScaleTimeMap:
    """The matched time/scale pair between two interpolants at target time s.

    ``t_s`` is the source time with equal SNR, ``c_s = sigma_bar_s /
    sigma_{t_s}`` the spatial scale, and ``t_dot``/``c_dot`` their time
    derivatives with respect to ``s``.
    """

    t_s: float
    c_s: float
    t_dot: float
    c_dot: float


def scale_time_transform(
    src: InterpolantSchedule, dst: InterpolantSchedule, s: float
) -> ScaleTimeMap:
    """Map target-interpolant time ``s`` onto the source interpolant.

    When the two schedules are identical the exact identity map is returned,
    so that converted processes reproduce unconverted ones bit for bit.
    """
    if s < T_MIN:
        raise DomainError(f"scale-time transform needs s >= {T_MIN}, got {s}")
    if s > 1.0:
        raise DomainError(f"scale-time transform needs s <= 1, got {s}")
    if src == dst:
        return ScaleTimeMap(t_s=s, c_s=1.0, t_dot=1.0, c_dot=0.0)
    a_bar, s_bar, a_bar_dot, s_bar_dot = eval_schedule(dst, s)
    t_s = snr_time_inverse(src, a_bar / s_bar)
    alpha, sigma, alpha_dot, sigma_dot = eval_schedule(src, t_s)
    c_s = s_bar / sigma
    t_dot = (sigma * sigma * (s_bar * a_bar_dot - a_bar * s_bar_dot)) / (
        s_bar * s_bar * (sigma * alpha_dot - alpha * sigma_dot)
    )
    c_dot = (sigma * s_bar_dot - s_bar * sigma_dot * t_dot) / (sigma * sigma)
    return ScaleTimeMap(t_s=t_s, c_s=c_s, t_dot=t_dot, c_dot=c_dot)
