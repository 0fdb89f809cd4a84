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

``StepPlan`` owns the latent's clock: at construction it works out, per
grid point and interval, the latent's own time, its coordinates, the noise
scale and the scale-time map, so nothing downstream reads the process name.
``denoise_interval(plan, x, i, z, velocity)`` is the single stepping
kernel: ``run_process``, the samplers and the diversity protocol all
advance latents through it by interval index.  It makes one velocity-oracle
call per step, and ``run_process`` returns that call count.  A sampler's
``nfe_used`` is its budget ledger instead, which charges proposals, not
oracle calls (see ``samplers``).
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


@dataclass(frozen=True)
class DiffusionCoefficient:
    """Power-law noise schedule g(t) = norm * t**2."""

    norm: float = 3.0

    def __post_init__(self) -> None:
        if self.norm < 0.0:
            raise DomainError("diffusion coefficient needs norm >= 0")

    def __call__(self, t: float) -> float:
        return self.norm * t**2.0


def make_time_grid(steps: int) -> np.ndarray:
    """Uniform decreasing time grid from 1 to 0 with ``steps`` intervals."""
    if steps < 1:
        raise DomainError(f"steps must be >= 1, got {steps}")
    return np.linspace(1.0, 0.0, steps + 1)


@dataclass(eq=False)
class StepPlan:
    """Everything fixed about a generative run, worked out once per interval.

    The mode is read here and nowhere else.  Construction derives:

    * ``times[k]``: the latent's own clock at grid point k (the plan grid,
      or the matched source times for the matched-grid modes);
    * ``schedule``: the interpolant in whose coordinates the latent lives;
    * ``g[i]``: interval i's noise scale, 0 on the final interval and on
      deterministic plans;
    * ``maps[i]``: interval i's scale-time map from the latent's coordinates
      to the velocity oracle's, None where it is the identity.
    """

    process: str
    src_schedule: InterpolantSchedule
    dst_schedule: InterpolantSchedule
    diffusion: DiffusionCoefficient
    grid: np.ndarray
    times: np.ndarray = field(init=False, repr=False)
    schedule: InterpolantSchedule = field(init=False, repr=False)
    g: np.ndarray = field(init=False, repr=False)
    maps: tuple = field(init=False, repr=False)

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
        matched = self.process in _MATCHED_GRID
        if matched and self.src_schedule == self.dst_schedule:
            raise DomainError(f"{self.process} needs distinct src/dst schedules")
        self.grid = grid
        left = grid[:-1]
        maps = [self.scale_map(s) for s in left]
        if matched:
            # Source coordinates, stepped between matched source times.
            self.schedule = self.src_schedule
            times = [m.t_s for m in maps] + [0.0]
            self.maps = (None,) * self.steps
        else:
            # Target coordinates on the plan grid; the oracle is queried at
            # the matched source point.
            self.schedule = self.dst_schedule
            times = list(grid)
            self.maps = tuple(None if m.is_identity else m for m in maps)
        if self.process == "linear-sde-adaptive-time":
            g = [self.diffusion(t) for t in times[:-1]]
        elif self.process == "linear-sde-scaled-diffusion":
            # The converted process's noise magnitude in source coordinates.
            g = [
                self.diffusion(s) / m.c_s * math.sqrt((s - s_next) / (t - t_next))
                for s, s_next, m, t, t_next in zip(left, grid[1:], maps, times, times[1:])
            ]
        else:
            g = [self.diffusion(s) for s in left]
        # The final interval lands at time 0, where 1/sigma is singular; it
        # is integrated without noise (with g ~ t^2 the discarded noise is
        # O(T_MIN^2)).
        g[-1] = 0.0
        self.times = np.array(times)
        self.g = np.array(g)

    @property
    def steps(self) -> int:
        return self.grid.size - 1

    def scale_map(self, s: float) -> ScaleTimeMap:
        """Scale-time map from the target to the source interpolant at plan
        time ``s`` (clamped to T_MIN)."""
        return scale_time_transform(self.src_schedule, self.dst_schedule, max(s, T_MIN))


def make_plan(process: str, steps: int) -> StepPlan:
    """Build a StepPlan with the conventional defaults for each mode."""
    src = InterpolantSchedule("linear")
    dst = InterpolantSchedule("vp") if process in _CONVERTED + _MATCHED_GRID else src
    diffusion = DiffusionCoefficient(0.0) if process == "linear-ode" else DiffusionCoefficient()
    return StepPlan(
        process=process,
        src_schedule=src,
        dst_schedule=dst,
        diffusion=diffusion,
        grid=make_time_grid(steps),
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
    i: int,
    z: np.ndarray | None,
    velocity,
) -> np.ndarray:
    """Advance the latent over grid interval i; exactly one velocity call.

    This is the only code that steps a latent: every process, sampler and
    protocol goes through it.  ``z`` None, or ``plan.g[i] == 0``, gives the
    probability-flow step; otherwise it is Euler-Maruyama on the reverse
    SDE, drift ``u - (g^2/2) * score``, with g taken at the interval's left
    (noisier) end.  The velocity is evaluated no lower than T_MIN.
    """
    t = plan.times[i]
    dt = t - plan.times[i + 1]
    t_eval = max(t, T_MIN)
    m = plan.maps[i]
    if m is None:
        u = velocity(x, t_eval)
    else:
        u = (m.c_dot / m.c_s) * x + (m.c_s * m.t_dot) * velocity(x / m.c_s, m.t_s)
    g = plan.g[i]
    if z is None or g == 0.0:
        return x - u * dt
    f = u - 0.5 * g * g * score_from_velocity(plan.schedule, t_eval, x, u)
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
    for i in range(plan.steps):
        z = rng.standard_normal(x.shape) if plan.g[i] else None
        x = denoise_interval(plan, x, i, z, velocity)
    return x, plan.steps
