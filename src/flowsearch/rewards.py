"""Reward functions, the posterior-mean value estimator, and guidance.

Rewards act on data space.  A latent at time t is valued through its Tweedie
posterior mean, v(x_t) = r(E[x0 | x_t]); at t=0 this is the reward itself.
For differentiable rewards the guided score adds (1/beta) * grad r(x0|t) to
the plain score, with the guidance gradient taken by central finite
differences through the posterior-mean map so reward kinds stay extensible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analytic_flow import GaussianMixtureModel, posterior_mean, rare_component, score_at
from .errors import DomainError
from .interpolants import T_MIN, InterpolantSchedule

REWARD_KINDS = ("target-point", "rare-mode", "ring")

_FD_STEP = 1e-4


@dataclass(frozen=True)
class RewardSpec:
    """A reward function plus the KL temperature used in exponential weights."""

    kind: str
    params: dict = field(default_factory=dict)
    kl_temperature: float = 0.1

    def __post_init__(self) -> None:
        if self.kind not in REWARD_KINDS:
            raise DomainError(f"unknown reward kind: {self.kind!r}")
        if not 0.0 < self.kl_temperature < np.inf:
            raise DomainError(
                f"kl_temperature must be finite and positive, got {self.kl_temperature}"
            )
        if self.kind == "rare-mode":  # the log-density's normaliser, once per spec
            object.__setattr__(self, "_log_norm", np.log(2.0 * np.pi * self.params["variance"]))


def target_point_reward(target, kl_temperature: float = 0.1) -> RewardSpec:
    """r(x) = -||x - target||^2."""
    target = np.asarray(target, dtype=float)
    if not np.all(np.isfinite(target)):
        raise DomainError("target-point target must be finite")
    return RewardSpec("target-point", {"target": target}, kl_temperature)


def ring_reward(radius: float, kl_temperature: float = 0.1) -> RewardSpec:
    """r(x) = -(||x|| - radius)^2."""
    if not 0.0 < radius < np.inf:
        raise DomainError(f"ring radius must be finite and positive, got {radius}")
    return RewardSpec("ring", {"radius": float(radius)}, kl_temperature)


def rare_mode_reward(
    gmm: GaussianMixtureModel,
    component: int | None = None,
    kl_temperature: float = 0.1,
) -> RewardSpec:
    """r(x) = log-density of one (by default the rarest) mixture component."""
    k = rare_component(gmm) if component is None else int(component)
    if not 0 <= k < gmm.n_components:
        raise DomainError(f"component {k} out of range")
    return RewardSpec(
        "rare-mode",
        {"mean": gmm.means[k].copy(), "variance": gmm.variances[k].copy()},
        kl_temperature,
    )


def evaluate_reward(spec: RewardSpec, x) -> np.ndarray | float:
    """Evaluate the reward at ``x`` of shape (d,) or any batch (..., d)."""
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise DomainError("reward argument must be finite")
    # Array methods, not np.sum and np.all: the same reductions without
    # their Python-level dispatch, which dominates at the samplers' few rows.
    if spec.kind == "target-point":
        diff = x - spec.params["target"]
        out = -(diff * diff).sum(axis=-1)
    elif spec.kind == "ring":
        # the same bits alone as in a batch: no BLAS dot (norm) or libm pow (**)
        out = -np.square(np.sqrt((x * x).sum(axis=-1)) - spec.params["radius"])
    else:  # rare-mode: diagonal Gaussian log-density
        diff = x - spec.params["mean"]
        out = -0.5 * (diff * diff / spec.params["variance"] + spec._log_norm).sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def estimate_value(
    spec: RewardSpec,
    gmm: GaussianMixtureModel,
    sched: InterpolantSchedule,
    t: float,
    x_t,
) -> np.ndarray | float:
    """Value of a latent through its posterior mean: r(E[x0 | x_t]).

    The samplers do not call it: a latent carries its x̂0 from its next
    step's ``samplers._Runner.query``, and ``_Runner.value`` is r(x̂0).
    """
    return evaluate_reward(spec, posterior_mean(gmm, sched, t, np.asarray(x_t, dtype=float)))


def reward_gradient_through_posterior(
    spec: RewardSpec,
    gmm: GaussianMixtureModel,
    sched: InterpolantSchedule,
    t: float,
    x_t: np.ndarray,
) -> np.ndarray:
    """grad_x r(posterior_mean(x)) by central differences, batched over x."""
    x = np.asarray(x_t, dtype=float)
    grad = np.empty_like(x)
    for i, shift in enumerate(_FD_STEP * np.eye(x.shape[-1])):
        up = evaluate_reward(spec, posterior_mean(gmm, sched, t, x + shift))
        dn = evaluate_reward(spec, posterior_mean(gmm, sched, t, x - shift))
        grad[..., i] = (np.asarray(up) - np.asarray(dn)) / (2.0 * _FD_STEP)
    return grad


def guided_score(
    spec: RewardSpec,
    gmm: GaussianMixtureModel,
    sched: InterpolantSchedule,
    t: float,
    x_t,
) -> np.ndarray:
    """Score of the reward-tilted marginal: (1/beta) grad r(x0|t) + score."""
    if not T_MIN <= t <= 1.0 - T_MIN:
        raise DomainError(f"guided score needs t in [{T_MIN}, {1.0 - T_MIN}], got {t}")
    x = np.asarray(x_t, dtype=float)
    guidance = reward_gradient_through_posterior(spec, gmm, sched, t, x)
    return guidance / spec.kl_temperature + score_at(gmm, sched, t, x)
