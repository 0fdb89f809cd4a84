"""Generative processes: probability-flow ODE, reverse SDE, and conversions.

Five step modes are supported, named by the exact strings the harness
accepts:

* ``linear-ode``: deterministic Euler steps on the source velocity field.
* ``linear-sde``: Euler-Maruyama on the marginal-preserving reverse SDE,
  drift ``u - (g^2/2) * score`` with the score recovered from the velocity.
* ``vp-sde``: the same SDE after converting the trajectory to a target
  interpolant through the scale-time transform; the latent lives in the
  target coordinates and the velocity oracle is queried at the matched
  source time.
* ``linear-sde-adaptive-time``: linear-sde stepped on the source-time grid
  ``{t_s}`` induced by the uniform target grid (matched log-SNR timesteps).
* ``linear-sde-scaled-diffusion``: the same matched grid, with the
  coefficient rescaled to ``g_s / c_s * sqrt(ds/dt_s)`` so each step injects
  the converted process's noise magnitude in source coordinates.

A trajectory's ``t`` is always the *plan* time (the grid coordinate); for
the matched-grid modes the latent's physical source time is
``latent_time(plan, t)``.

``denoise_interval`` is the single stepping kernel: ``run_process``, the
samplers and the diversity protocol all advance latents through it.  It
makes one velocity-oracle call per step, and ``nfe_used`` counts exactly
those calls.  ``StepPlan.noisy`` decides which intervals inject noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .interpolants import (
    T_MIN,
    InterpolantSchedule,
    ScaleTimeMap,
    eval_schedule,
    scale_time_transform,
)

PROCESS_NAMES = (
    "linear-ode",
    "linear-sde",
    "linear-sde-adaptive-time",
    "linear-sde-scaled-diffusion",
    "vp-sde",
)
# Modes that step in converted (target-interpolant) coordinates.
_CONVERTED = ("vp-sde",)
# Modes that step in source coordinates on the matched time grid.
_MATCHED_GRID = ("linear-sde-adaptive-time", "linear-sde-scaled-diffusion")

_FINAL_EPS = 1e-12


@dataclass(frozen=True)
class DiffusionCoefficient:
    """Power-law noise schedule g(t) = norm * t**exponent."""

    norm: float = 3.0
    exponent: float = 2.0

    def __post_init__(self) -> None:
        if self.norm < 0.0 or self.exponent < 0.0:
            raise DomainError("diffusion coefficient needs norm, exponent >= 0")

    def __call__(self, t: float) -> float:
        return self.norm * t**self.exponent

    @classmethod
    def zero(cls) -> "DiffusionCoefficient":
        return cls(norm=0.0, exponent=2.0)


def make_time_grid(steps: int) -> np.ndarray:
    """Uniform decreasing time grid from 1 to 0 with ``steps`` intervals."""
    if steps < 1:
        raise DomainError(f"steps must be >= 1, got {steps}")
    return np.linspace(1.0, 0.0, steps + 1)


@dataclass(eq=False)
class StepPlan:
    """Everything fixed about a generative run: mode, schedules, noise, grid."""

    process: str
    src_schedule: InterpolantSchedule
    dst_schedule: InterpolantSchedule
    diffusion: DiffusionCoefficient
    grid: np.ndarray
    _maps: dict = field(default_factory=dict, repr=False)
    _times: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.process not in PROCESS_NAMES:
            raise DomainError(f"unknown process: {self.process!r}")
        grid = np.asarray(self.grid, dtype=float)
        if grid.ndim != 1 or grid.size < 2:
            raise DomainError("grid must be a 1-D sequence of at least 2 times")
        if grid[0] != 1.0 or grid[-1] != 0.0 or np.any(np.diff(grid) >= 0.0):
            raise DomainError("grid must decrease strictly from 1 to 0")
        if self.process == "linear-ode" and self.diffusion.norm != 0.0:
            raise DomainError("linear-ode requires a zero diffusion coefficient")
        if self.process in _MATCHED_GRID and self.src_schedule == self.dst_schedule:
            raise DomainError(f"{self.process} needs distinct src/dst schedules")
        self.grid = grid

    @property
    def steps(self) -> int:
        return self.grid.size - 1

    def scale_map(self, s: float) -> ScaleTimeMap:
        """Scale-time map at plan time ``s`` (cached per grid point)."""
        m = self._maps.get(s)
        if m is None:
            m = scale_time_transform(self.src_schedule, self.dst_schedule, max(s, T_MIN))
            self._maps[s] = m
        return m

    def latent_time(self, s: float) -> float:
        """Physical source time of the latent when the plan clock reads s."""
        if self.process not in _MATCHED_GRID:
            return s
        if s <= _FINAL_EPS:
            return 0.0
        t = self._times.get(s)
        if t is None:
            t = self.scale_map(s).t_s
            self._times[s] = t
        return t

    def value_schedule(self) -> InterpolantSchedule:
        """Schedule in whose coordinates the latent lives (for Tweedie)."""
        if self.process in _CONVERTED:
            return self.dst_schedule
        return self.src_schedule

    def is_stochastic(self) -> bool:
        return self.process != "linear-ode" and self.diffusion.norm != 0.0

    def noisy(self, s_right: float) -> bool:
        """Whether the interval ending at plan time ``s_right`` injects noise:
        only stochastic plans do, and never on the final interval."""
        return s_right > _FINAL_EPS and self.is_stochastic()


def make_plan(process: str, steps: int) -> StepPlan:
    """Build a StepPlan with the conventional defaults for each mode."""
    src = InterpolantSchedule("linear")
    dst = InterpolantSchedule("vp") if process in _CONVERTED + _MATCHED_GRID else src
    diffusion = DiffusionCoefficient.zero() if process == "linear-ode" else DiffusionCoefficient()
    return StepPlan(
        process=process,
        src_schedule=src,
        dst_schedule=dst,
        diffusion=diffusion,
        grid=make_time_grid(steps),
    )


def deterministic_plan(plan: StepPlan) -> StepPlan:
    """The probability-flow (g = 0) counterpart of a plan, same grid and
    conversion; used wherever trajectories must be completed without noise."""
    if plan.diffusion.norm == 0.0:
        return plan
    return StepPlan(
        process=plan.process,
        src_schedule=plan.src_schedule,
        dst_schedule=plan.dst_schedule,
        diffusion=DiffusionCoefficient(norm=0.0, exponent=plan.diffusion.exponent),
        grid=plan.grid,
    )


def score_from_velocity(
    sched: InterpolantSchedule, t: float, x: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """Recover grad log p_t from the velocity field at the same point."""
    if not T_MIN <= t <= 1.0:
        raise DomainError(f"score-from-velocity needs t in [{T_MIN}, 1], got {t}")
    alpha, sigma, alpha_dot, sigma_dot = eval_schedule(sched, t)
    denom = alpha_dot * sigma - alpha * sigma_dot
    return (alpha * u - alpha_dot * x) / (sigma * denom)


def denoise_interval(
    plan: StepPlan,
    x: np.ndarray,
    s_left: float,
    s_right: float,
    z: np.ndarray | None,
    velocity,
) -> np.ndarray:
    """Advance the latent over one grid interval; exactly one velocity call.

    This is the only code that steps a latent: every process, sampler and
    protocol goes through it.  ``z`` is read only when ``plan.noisy(s_right)``.
    The final interval (landing at time 0) is integrated with g forced to 0
    and the velocity evaluated no lower than T_MIN: 1/sigma is singular at 0
    and with g ~ t^2 the discarded noise is O(T_MIN^2).
    """
    if plan.process in _MATCHED_GRID:
        # Source coordinates, stepped between matched source times.
        t_left = plan.latent_time(s_left)
        dt = t_left - plan.latent_time(s_right)
        t_eval = max(t_left, T_MIN)
        u = velocity(x, t_eval)
        sched = plan.src_schedule
    else:
        # Conversion family: latent lives in dst coordinates at plan time s.
        dt = s_left - s_right
        t_eval = max(s_left, T_MIN)
        m = plan.scale_map(s_left)
        if m.is_identity:
            u = velocity(x, t_eval)
        else:
            u = (m.c_dot / m.c_s) * x + (m.c_s * m.t_dot) * velocity(x / m.c_s, m.t_s)
        sched = plan.dst_schedule
    if not plan.noisy(s_right):
        return x - u * dt
    if plan.process == "linear-sde-adaptive-time":
        g = plan.diffusion(t_left)
    elif plan.process == "linear-sde-scaled-diffusion":
        g = plan.diffusion(s_left) / plan.scale_map(s_left).c_s * math.sqrt((s_left - s_right) / dt)
    else:
        g = plan.diffusion(s_left)
    # Euler-Maruyama on the reverse SDE, drift u - (g^2/2) * score, with g
    # taken at the interval's left (noisier) end.
    f = u - 0.5 * g * g * score_from_velocity(sched, t_eval, x, u)
    return x - f * dt + g * math.sqrt(dt) * z


def run_process(
    plan: StepPlan,
    x1: np.ndarray,
    rng: np.random.Generator,
    velocity,
) -> tuple[np.ndarray, int]:
    """Integrate the full grid from noise to data.

    ``x1`` may be a single point ``(d,)`` or a batch ``(..., d)``; noise is
    drawn from ``rng`` once per noisy interval for the whole batch.
    Returns the endpoint and the per-trajectory velocity-call count (one per
    grid interval).
    """
    x = np.asarray(x1, dtype=float)
    grid = plan.grid
    for i in range(plan.steps):
        z = rng.standard_normal(x.shape) if plan.noisy(grid[i + 1]) else None
        x = denoise_interval(plan, x, grid[i], grid[i + 1], z, velocity)
    return x, plan.steps
