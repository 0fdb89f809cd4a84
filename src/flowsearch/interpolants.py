"""Interpolant schedules and the scale-time map onto the linear source.

An interpolant is the coefficient pair ``(alpha_t, sigma_t)`` of the bridge
``x_t = alpha_t * x0 + sigma_t * x1`` between data (t=0) and noise (t=1).
Two instances are provided:

* ``linear``: ``alpha = 1 - t``, ``sigma = t`` (the flow-matching default);
* ``vp``: variance preserving, ``alpha = exp(-B(t)/2)``,
  ``sigma = sqrt(1 - alpha^2)`` with ``B(t) = integral_0^t beta(s) ds`` for
  the standard affine schedule ``beta(s) = beta_min + (beta_max - beta_min)
  * s``, ``beta_min = 0.1`` and ``beta_max = 20``.

The velocity oracle's interpolant is always linear: that is ``SOURCE``.
The scale-time transform matches a time ``s`` of a target interpolant to the
source time ``t_s`` with equal signal-to-noise ratio, plus the scale ``c_s``
and the derivatives needed to transport the source velocity field onto the
target interpolant.
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

    Instances compare by value.
    """

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in ("linear", "vp"):
            raise DomainError(f"unknown interpolant kind: {self.kind!r}")


# The source interpolant: the one the velocity oracle is trained on.
SOURCE = InterpolantSchedule("linear")


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


@dataclass(frozen=True)
class ScaleTimeMap:
    """The matched time/scale pair from a target interpolant's time s onto
    ``SOURCE``.

    ``t_s`` is the source time with equal SNR, ``c_s = sigma_bar_s /
    sigma_{t_s}`` the spatial scale, and ``t_dot``/``c_dot`` their time
    derivatives with respect to ``s``.
    """

    t_s: float
    c_s: float
    t_dot: float
    c_dot: float


def scale_time_transform(dst: InterpolantSchedule, s: float) -> ScaleTimeMap:
    """Map time ``s`` of the target interpolant ``dst`` onto ``SOURCE``.

    A linear target returns the exact identity map, which only direct
    callers see: a plan whose latent lives in source coordinates applies no
    map at all (``StepPlan`` leaves its ``maps[i]`` None), and that is why
    converted processes reproduce unconverted ones bit for bit.
    """
    if s < T_MIN:
        raise DomainError(f"scale-time transform needs s >= {T_MIN}, got {s}")
    if s > 1.0:
        raise DomainError(f"scale-time transform needs s <= 1, got {s}")
    if dst.kind == "linear":
        return ScaleTimeMap(t_s=s, c_s=1.0, t_dot=1.0, c_dot=0.0)
    a_bar, s_bar, a_bar_dot, s_bar_dot = eval_schedule(dst, s)
    # The linear source's SNR (1 - t)/t equals a_bar/s_bar at this time.
    t_s = 1.0 / (1.0 + a_bar / s_bar)
    alpha, sigma, alpha_dot, sigma_dot = eval_schedule(SOURCE, t_s)
    c_s = s_bar / sigma
    t_dot = (sigma * sigma * (s_bar * a_bar_dot - a_bar * s_bar_dot)) / (
        s_bar * s_bar * (sigma * alpha_dot - alpha * sigma_dot)
    )
    c_dot = (sigma * s_bar_dot - s_bar * sigma_dot * t_dot) / (sigma * sigma)
    return ScaleTimeMap(t_s=t_s, c_s=c_s, t_dot=t_dot, c_dot=c_dot)
