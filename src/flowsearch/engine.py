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

A plan, ``StepPlan(process, steps)``, works out everything fixed about a
run once, so nothing downstream reads the process name; ``make_plan`` hands
out one shared, read-only plan per ``(process, steps)``.

Every step is affine in the latent and in the oracle's one output at the
interval's query point, with coefficients worked out once per interval:
``x' = a x + b u + s z`` in the source velocity (``denoise_interval``),
``x' = p x + q x̂0 + s z`` in the posterior mean (``step_from_x0``, the x0
parameterisation of DDIM and DPM-Solver++, which the samplers use).  In
source coordinates the final step lands on x̂0 bit for bit.

``run_process`` draws the noise one interval ahead on one worker thread, in
the serial order, so the draw overlaps the oracle call and every endpoint
is bitwise a serial loop's.  Its ``velocity`` callback must not draw from
its generator; after an exception the generator is exactly one block
further on than a serial loop would leave it whenever a later interval is
noisy.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from dataclasses import dataclass, field
from functools import lru_cache, partial

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


# An interval's step for one noise case from the query point (x / c, t), c None
# for x: x' = a x + b u + s z in the source velocity, x' = p x + q x̂0 + s z in x̂0.
Step = namedtuple("Step", "c t a b p q s")


def _interval_steps(sched: InterpolantSchedule, t: float, dt: float, g: float,
                    m: ScaleTimeMap | None) -> tuple[Step, Step]:
    """Steps without and with noise over ``dt`` down from time ``t`` of the
    latent's ``sched``, noise scale ``g``, scale-time map ``m``.  The latent's
    velocity v = k u + e x (k = c t_dot, e = c_dot / c) and the score from it
    make the drift affine; u = (D_s x̂0 + sigma_dot_s x / c) / sigma_s."""
    t_eval = max(t, T_MIN)
    c, t_q, k, e = (None, t_eval, 1.0, 0.0) if m is None else (
        m.c_s, m.t_s, m.c_s * m.t_dot, m.c_dot / m.c_s)
    alpha_s, sigma_s, alpha_dot_s, sigma_dot_s = eval_schedule(SOURCE, t_q)
    d_s = alpha_dot_s * sigma_s - alpha_s * sigma_dot_s
    c_sigma = (1.0 if c is None else c) * sigma_s

    def step(h: float, alpha: float, alpha_dot: float, s: float) -> Step:
        w = 1.0 - h * alpha
        a = 1.0 - dt * (w * e + h * alpha_dot)
        b = -dt * (w * k)
        # One denominator: on a final source-coordinate interval p's
        # numerator is t - dt = 0 and D_s is -1, so (p, q) is exactly (0, 1).
        p = (c_sigma * a + b * sigma_dot_s) / c_sigma
        return Step(c, t_q, a, b, p, b * d_s / sigma_s, s)

    quiet = step(0.0, 0.0, 0.0, 0.0)
    if g == 0.0:
        return quiet, quiet
    alpha, sigma, alpha_dot, sigma_dot = eval_schedule(sched, t_eval)
    h = 0.5 * g * g / (sigma * (alpha_dot * sigma - alpha * sigma_dot))
    return quiet, step(h, alpha, alpha_dot, g * math.sqrt(dt))


@dataclass(eq=False, frozen=True)
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
      to the velocity oracle's, None when the latent is in source coordinates;
    * ``intervals[i]``: interval i's ``Step`` without and with noise.
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
    intervals: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.process not in PROCESS_NAMES:
            raise DomainError(f"unknown process: {self.process!r}")
        steps = self.steps
        if isinstance(steps, bool) or not isinstance(steps, numbers.Integral) or steps < 1:
            raise DomainError(f"steps must be an integer >= 1, got {steps!r}")
        matched = self.process in _MATCHED_GRID
        put = partial(object.__setattr__, self)  # frozen: shared plans refuse assignment
        put("src_schedule", SOURCE)
        if self.dst_schedule is None:
            converted = self.process in _CONVERTED or matched
            put("dst_schedule", InterpolantSchedule("vp") if converted else self.src_schedule)
        if matched and self.src_schedule == self.dst_schedule:
            raise DomainError(f"{self.process} needs distinct src/dst schedules")
        put("grid", np.linspace(1.0, 0.0, steps + 1))
        left = self.grid[:-1]
        maps = [self.scale_map(s) for s in left]
        if matched:
            # Source coordinates, stepped between matched source times.
            put("schedule", self.src_schedule)
            times = [m.t_s for m in maps] + [0.0]
        else:
            # Target coordinates on the plan grid.
            put("schedule", self.dst_schedule)
            times = list(self.grid)
        put("maps", tuple(None if self.schedule == self.src_schedule else m for m in maps))
        if self.process == "linear-ode":
            g = [0.0] * steps
        elif self.process == "linear-sde-adaptive-time":
            g = [diffusion(t) for t in times[:-1]]
        elif self.process == "linear-sde-scaled-diffusion":
            # The converted process's noise magnitude in source coordinates.
            g = [
                diffusion(s) / m.c_s * math.sqrt((s - s_next) / (t - t_next))
                for s, s_next, m, t, t_next in zip(left, self.grid[1:], maps, times, times[1:])
            ]
        else:
            g = [diffusion(s) for s in left]
        # The final interval lands at time 0, where 1/sigma is singular; it
        # is integrated without noise (with g ~ t^2 the discarded noise is
        # O(T_MIN^2)).
        g[-1] = 0.0
        put("times", np.array(times))
        put("g", np.array(g))
        for arr in (self.grid, self.times, self.g):
            arr.flags.writeable = False
        t = self.times.tolist()
        put("intervals", tuple(_interval_steps(self.schedule, t[i], t[i] - t[i + 1], g, m)
                               for i, (g, m) in enumerate(zip(self.g.tolist(), self.maps))))

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


def _affine(x: np.ndarray, cx: float, y: np.ndarray, cy: float, z, cz: float) -> np.ndarray:
    """``cx x + cy y + cz z`` (no z term for ``z`` None or ``cz`` 0) in new arrays,
    in the one order tried that slows no process at 10^4 rows under glibc's
    default allocator (tools/transport_split.py)."""
    out = cx * x
    tmp = cy * y
    out = out + tmp
    if z is None or cz == 0.0:
        return out
    if tmp.shape == z.shape:
        out += np.multiply(z, cz, out=tmp)
        return out
    return out + cz * z


def denoise_interval(plan: StepPlan, x: np.ndarray, i: int, z: np.ndarray | None,
                     velocity) -> np.ndarray:
    """Advance the latent over interval i from one velocity call u =
    ``velocity(x / c, t)``: ``x' = a x + b u + s z``, Euler-Maruyama on the
    reverse SDE, or the flow step for ``z`` None or ``plan.g[i] == 0``.  ``x``
    may broadcast to ``z``'s shape; neither ``x`` nor ``u`` is written."""
    step = plan.intervals[i][z is not None]
    u = velocity(x if step.c is None else x / step.c, step.t)
    return _affine(x, step.a, u, step.b, z, step.s)


def step_from_x0(plan: StepPlan, x: np.ndarray, i: int, z: np.ndarray | None,
                 x0_hat: np.ndarray) -> np.ndarray:
    """The same step in the x̂0 basis, ``x' = p x + q x̂0 + s z``, from ``x0_hat``
    = E[x0 | x / c] at the query point of ``plan.intervals[i]``; no oracle call."""
    step = plan.intervals[i][z is not None]
    return _affine(x, step.p, x0_hat, step.q, z, step.s)


def run_process(
    plan: StepPlan,
    x1: np.ndarray,
    rng: np.random.Generator,
    velocity,
) -> tuple[np.ndarray, int]:
    """Integrate the full grid from noise to data.

    ``x1`` may be a single point ``(d,)`` or a batch ``(..., d)``; noise is
    drawn as ``rng.standard_normal(x1.shape)`` once per noisy interval for
    the whole batch.  One worker thread draws each block one interval
    ahead, during the previous interval's ``velocity`` call and step, in the
    serial order: ``rng`` ends where a serial loop leaves it, and the
    endpoint is bitwise the same.  So ``velocity`` must not draw from
    ``rng``; if it raises, ``rng`` is exactly one block further on than a
    serial loop would leave it whenever a later interval is noisy.  No
    thread outlives the call, and a plan without noise (linear-ode, or one
    step) starts none.
    Returns the endpoint and the per-trajectory velocity-call count (one per
    grid interval).
    """
    x = np.asarray(x1, dtype=float)
    noisy = np.flatnonzero(plan.g).tolist()
    # Imported here: at module level it would cost every interpreter ~5 ms.
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=1) as worker:
        ahead = worker.submit(rng.standard_normal, x.shape) if noisy else None
        for i in range(plan.steps):
            z = None
            if plan.g[i]:
                z = ahead.result()
                if i < noisy[-1]:
                    ahead = worker.submit(rng.standard_normal, x.shape)
            x = denoise_interval(plan, x, i, z, velocity)
    return x, plan.steps
