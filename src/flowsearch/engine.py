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

A plan is its process and its step count: ``StepPlan(process, steps)``
derives the uniform grid, the interpolants and the noise scale, and works
out per grid point and interval the latent's own time, its coordinates,
the noise scale and the scale-time map, so nothing downstream reads the
process name.  Its arrays are read-only, and ``make_plan`` hands out one
shared plan per ``(process, steps)``.
``denoise_interval(plan, x, i, z, velocity)`` is the single stepping
kernel: ``run_process``, the samplers and the diversity protocol all
advance latents through it by interval index.  It makes one velocity call
per step, and ``run_process`` returns that call count; a sampler answers
the call from the x̂0 it valued the latents with where it holds one.  A
sampler's ``nfe_used`` is its budget ledger instead, which charges
proposals, not oracle calls (see ``samplers``).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .interpolants import (
    SOURCE,
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
G_NORM = 3.0


def diffusion(t: float) -> float:
    """The power-law noise scale g(t) = G_NORM * t**2."""
    return G_NORM * t**2.0


@dataclass(eq=False)
class StepPlan:
    """Everything fixed about a generative run, worked out once per interval.

    The mode is read here and nowhere else.  Construction derives:

    * ``grid``: the uniform plan grid, ``steps + 1`` times from 1 to 0;
    * ``src_schedule``: ``SOURCE``, the velocity oracle's linear interpolant;
    * ``dst_schedule``, unless given: vp for the converted and matched-grid
      modes, linear otherwise;
    * ``times[k]``: the latent's own clock at grid point k (the plan grid,
      or the matched source times for the matched-grid modes);
    * ``schedule``: the interpolant in whose coordinates the latent lives;
    * ``g[i]``: interval i's noise scale from ``diffusion``, 0 on the final
      interval and on linear-ode;
    * ``maps[i]``: interval i's scale-time map from the latent's coordinates
      to the velocity oracle's, None when the latent is in source coordinates.
    """

    process: str
    steps: int
    dst_schedule: InterpolantSchedule | None = None
    src_schedule: InterpolantSchedule = field(init=False, repr=False)
    grid: np.ndarray = field(init=False, repr=False)
    times: np.ndarray = field(init=False, repr=False)
    schedule: InterpolantSchedule = field(init=False, repr=False)
    g: np.ndarray = field(init=False, repr=False)
    maps: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.process not in PROCESS_NAMES:
            raise DomainError(f"unknown process: {self.process!r}")
        steps = self.steps
        if isinstance(steps, bool) or not isinstance(steps, numbers.Integral) or steps < 1:
            raise DomainError(f"steps must be an integer >= 1, got {steps!r}")
        matched = self.process in _MATCHED_GRID
        self.src_schedule = SOURCE
        if self.dst_schedule is None:
            converted = self.process in _CONVERTED or matched
            self.dst_schedule = InterpolantSchedule("vp") if converted else self.src_schedule
        if matched and self.src_schedule == self.dst_schedule:
            raise DomainError(f"{self.process} needs distinct src/dst schedules")
        grid = self.grid = np.linspace(1.0, 0.0, steps + 1)
        left = grid[:-1]
        maps = [self.scale_map(s) for s in left]
        if matched:
            # Source coordinates, stepped between matched source times.
            self.schedule = self.src_schedule
            times = [m.t_s for m in maps] + [0.0]
        else:
            # Target coordinates on the plan grid.
            self.schedule = self.dst_schedule
            times = list(grid)
        self.maps = tuple(None if self.schedule == self.src_schedule else m for m in maps)
        if self.process == "linear-ode":
            g = [0.0] * steps
        elif self.process == "linear-sde-adaptive-time":
            g = [diffusion(t) for t in times[:-1]]
        elif self.process == "linear-sde-scaled-diffusion":
            # The converted process's noise magnitude in source coordinates.
            g = [
                diffusion(s) / m.c_s * math.sqrt((s - s_next) / (t - t_next))
                for s, s_next, m, t, t_next in zip(left, grid[1:], maps, times, times[1:])
            ]
        else:
            g = [diffusion(s) for s in left]
        # The final interval lands at time 0, where 1/sigma is singular; it
        # is integrated without noise (with g ~ t^2 the discarded noise is
        # O(T_MIN^2)).
        g[-1] = 0.0
        self.times = np.array(times)
        self.g = np.array(g)
        for arr in (self.grid, self.times, self.g):
            arr.flags.writeable = False

    def scale_map(self, s: float) -> ScaleTimeMap:
        """Scale-time map from the target to the source interpolant at plan
        time ``s`` (clamped to T_MIN)."""
        return scale_time_transform(self.dst_schedule, max(s, T_MIN))


# Typed, so make_plan("vp-sde", 3.0) or (..., True) reaches StepPlan's
# validation instead of hitting the entry for 3 or 1 steps.
@lru_cache(maxsize=16, typed=True)
def make_plan(process: str, steps: int) -> StepPlan:
    """The plan of ``process`` over ``steps`` uniform intervals, one shared
    object per ``(process, steps)``."""
    return StepPlan(process, steps)


def score_from_velocity(
    sched: InterpolantSchedule, t: float, x: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """Recover grad log p_t from the velocity field at the same point."""
    if not T_MIN <= t <= 1.0:
        raise DomainError(f"score-from-velocity needs t in [{T_MIN}, 1], got {t}")
    alpha, sigma, alpha_dot, sigma_dot = eval_schedule(sched, t)
    denom = alpha_dot * sigma - alpha * sigma_dot
    score = alpha * u
    score -= alpha_dot * x
    score /= sigma * denom
    return score


def denoise_interval(
    plan: StepPlan,
    x: np.ndarray,
    i: int,
    z: np.ndarray | None,
    velocity,
) -> np.ndarray:
    """Advance the latent over grid interval i; exactly one velocity call.

    This is the only code that steps a latent: every process, sampler and
    protocol goes through it.  ``z`` None, or ``plan.g[i] == 0``, gives the
    probability-flow step; otherwise it is Euler-Maruyama on the reverse
    SDE, drift ``u - (g^2/2) * score``, with g taken at the interval's left
    (noisier) end.  ``z`` has the result's shape; ``x`` may broadcast to it.
    The velocity is evaluated no lower than T_MIN.  The step is computed in
    place in arrays made here, never in the velocity callback's result.
    """
    t = plan.times[i]
    dt = t - plan.times[i + 1]
    t_eval = max(t, T_MIN)
    m = plan.maps[i]
    if m is None:
        u = velocity(x, t_eval)
    else:
        u = (m.c_s * m.t_dot) * velocity(x / m.c_s, m.t_s)
        u += (m.c_dot / m.c_s) * x
    g = plan.g[i]
    if z is None or g == 0.0:
        step = u * dt
        return np.subtract(x, step, out=step)
    step = score_from_velocity(plan.schedule, t_eval, x, u)
    step *= 0.5 * g * g
    np.subtract(u, step, out=step)  # the drift f
    step *= dt
    np.subtract(x, step, out=step)
    noise = (g * math.sqrt(dt)) * z
    noise += step
    return noise


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
    for i in range(plan.steps):
        z = rng.standard_normal(x.shape) if plan.g[i] else None
        x = denoise_interval(plan, x, i, z, velocity)
    return x, plan.steps
