"""The tests' references to the package: closed forms that ``src/`` no
longer calls but the tests check the package against."""

import numpy as np

from flowsearch.errors import DomainError
from flowsearch.interpolants import T_MIN, InterpolantSchedule, eval_schedule


def score_from_velocity(sched: InterpolantSchedule, t: float, x: np.ndarray,
                        u: np.ndarray) -> np.ndarray:
    """Recover grad log p_t from the velocity field at the same point."""
    if not T_MIN <= t <= 1.0:
        raise DomainError(f"score-from-velocity needs t in [{T_MIN}, 1], got {t}")
    alpha, sigma, alpha_dot, sigma_dot = eval_schedule(sched, t)
    return (alpha * u - alpha_dot * x) / (sigma * (alpha_dot * sigma - alpha * sigma_dot))
