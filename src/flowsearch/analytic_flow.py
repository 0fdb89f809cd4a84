"""Closed-form Gaussian-mixture flow model.

A diagonal-covariance Gaussian mixture is closed under the interpolant
push-forward, so the time-t marginal, its score, the marginal velocity
field, and the Tweedie posterior mean all have exact expressions.  This
module is the stand-in for a pretrained velocity network: every quantity a
sampler queries has an analytic oracle here.

All point evaluations accept ``x`` of shape ``(d,)`` or any batch shape
``(..., d)`` and vectorise over the leading axes.  Mixture responsibilities
are always formed in log space, with this module's own numpy log-sum-exp;
far from a mode the naive ratio underflows and corrupts scores.

Samplers make many small oracle calls at the same few times, so everything
that depends on ``(gmm, sched, t)`` but not on ``x`` is built once per time
and kept in a bounded cache (``_at_time``).  The cache keys the mixture by
identity and holds a reference to it, so keys never collide, and a
mixture's arrays are read-only copies, so an entry never goes stale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .interpolants import T_MIN, InterpolantSchedule, eval_schedule

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True, eq=False)
class GaussianMixtureModel:
    """Mixture of diagonal Gaussians: the data distribution at t=0.

    The arrays are read-only copies of the arguments."""

    weights: np.ndarray   # (K,), positive, sums to 1
    means: np.ndarray     # (K, d)
    variances: np.ndarray  # (K, d), positive

    def __post_init__(self) -> None:
        for name in ("weights", "means", "variances"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.weights.ndim != 1 or self.weights.size < 1:
            raise DomainError("weights must be a non-empty 1-D sequence")
        if self.means.ndim != 2 or self.means.shape[0] != self.weights.size:
            raise DomainError("means must have shape (n_components, dim)")
        if self.variances.shape != self.means.shape:
            raise DomainError("variances must match the shape of means")
        if np.any(self.weights <= 0.0):
            raise DomainError("all mixture weights must be positive")
        if abs(float(self.weights.sum()) - 1.0) > 1e-12:
            raise DomainError("mixture weights must sum to 1 within 1e-12")
        if np.any(self.variances <= 0.0):
            raise DomainError("all variances must be positive")

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @property
    def n_components(self) -> int:
        return self.weights.size

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` exact samples from the mixture."""
        comps = rng.choice(self.n_components, size=n, p=self.weights)
        eps = rng.standard_normal((n, self.dim))
        return self.means[comps] + np.sqrt(self.variances[comps]) * eps


def default_benchmark_gmm() -> GaussianMixtureModel:
    """The default 2-D benchmark prior: four modes at (+-4, +-4), unit
    variance, with one rare mode of weight 0.03 so that high-reward samples
    sit in a low-density region."""
    w = 0.97 / 3.0
    return GaussianMixtureModel(
        weights=np.array([w, w, w, 0.03]),
        means=np.array([[4.0, 4.0], [-4.0, 4.0], [-4.0, -4.0], [4.0, -4.0]]),
        variances=np.ones((4, 2)),
    )


def rare_component(gmm: GaussianMixtureModel) -> int:
    """Index of the lowest-weight component (first on ties)."""
    return int(np.argmin(gmm.weights))


@dataclass(frozen=True, eq=False)
class MarginalParams:
    """The time-t marginal: still a diagonal Gaussian mixture.

    ``log_const`` is derived: log(w_k) minus the log normaliser of component
    k, the x-free part of each component's log joint."""

    weights: np.ndarray      # (K,)
    means_t: np.ndarray      # (K, d): alpha_t * mu_k
    variances_t: np.ndarray  # (K, d): alpha_t^2 * v_k + sigma_t^2
    t: float = field(default=0.0)
    log_const: np.ndarray = field(init=False, repr=False)  # (K,)

    def __post_init__(self) -> None:
        var = self.variances_t
        log_norm = 0.5 * np.sum(np.log(var), axis=-1) + 0.5 * var.shape[-1] * _LOG_2PI
        object.__setattr__(self, "log_const", np.log(self.weights) - log_norm)


def marginal_at(
    gmm: GaussianMixtureModel, sched: InterpolantSchedule, t: float
) -> MarginalParams:
    """Push the mixture forward through the interpolant to time ``t``."""
    alpha, sigma, _, _ = eval_schedule(sched, t)
    return MarginalParams(
        weights=gmm.weights,
        means_t=alpha * gmm.means,
        variances_t=alpha * alpha * gmm.variances + sigma * sigma,
        t=t,
    )


class _AtTime(NamedTuple):
    """The x-free part of every oracle query at one ``(gmm, sched, t)``."""

    coeffs: tuple[float, float, float, float]  # eval_schedule(sched, t)
    params: MarginalParams
    gain: np.ndarray  # (K, d): alpha v_k / (alpha^2 v_k + sigma^2)


# Hits need the same mixture object: 99.9% of queries hit in an in-process
# sampler sweep, none in a CLI diversity record, whose pool task rebuilds it.
@lru_cache(maxsize=256)
def _at_time(gmm: GaussianMixtureModel, sched: InterpolantSchedule, t: float) -> _AtTime:
    coeffs = eval_schedule(sched, t)
    params = marginal_at(gmm, sched, t)
    return _AtTime(coeffs, params, coeffs[0] * gmm.variances / params.variances_t)


def _check_finite(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise DomainError("x must be finite")
    return x


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) over the last axis, kept with size 1.

    The algorithm of ``scipy.special.logsumexp``, step for step, so the bits
    match it (Blanchard, Higham & Higham 2021): the n entries equal to the
    row max m are taken out of the shifted sum s, and the result is
    log1p(s / n) + log(n) + m.  A row whose max is not finite (all -inf, or
    holding +inf or nan) gets the direct log(sum(exp(a))) instead.
    """
    m = np.max(a, axis=-1, keepdims=True)
    if not np.isfinite(m).all():
        finite = np.isfinite(m)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            direct = np.log(np.sum(np.exp(a), axis=-1, keepdims=True))
        return np.where(finite, _logsumexp(np.where(finite, a, 0.0)), direct)
    is_max = a == m
    n = np.sum(is_max, axis=-1, keepdims=True, dtype=float)
    s = np.sum(np.exp(np.where(is_max, -np.inf, a) - m), axis=-1, keepdims=True)
    return np.log1p(np.where(s == 0.0, s, s / n)) + np.log(n) + m


def _component_log_joint(params: MarginalParams, x: np.ndarray) -> np.ndarray:
    """log(w_k) + log N(x; m_k, V_k) for each component, shape (..., K)."""
    diff = x[..., None, :] - params.means_t                      # (..., K, d)
    quad = np.sum(diff * diff / params.variances_t, axis=-1)     # (..., K)
    return params.log_const - 0.5 * quad


def marginal_log_density(params: MarginalParams, x: np.ndarray) -> np.ndarray:
    """log p_t(x) under the mixture marginal (a scalar for one point)."""
    x = _check_finite(x)
    return _logsumexp(_component_log_joint(params, x))[..., 0][()]


def _responsibilities(params: MarginalParams, x: np.ndarray) -> np.ndarray:
    log_joint = _component_log_joint(params, x)
    return np.exp(log_joint - _logsumexp(log_joint))


def score_at(
    gmm: GaussianMixtureModel,
    sched: InterpolantSchedule,
    t: float,
    x: np.ndarray,
) -> np.ndarray:
    """Exact score of the time-t marginal, grad log p_t(x)."""
    x = _check_finite(x)
    params = _at_time(gmm, sched, float(t)).params
    resp = _responsibilities(params, x)                       # (..., K)
    per_comp = (params.means_t - x[..., None, :]) / params.variances_t
    return np.sum(resp[..., :, None] * per_comp, axis=-2)


def posterior_mean(
    gmm: GaussianMixtureModel,
    sched: InterpolantSchedule,
    t: float,
    x: np.ndarray,
) -> np.ndarray:
    """Tweedie posterior mean E[x0 | x_t = x].

    Computed through per-component posteriors, which stays finite on the
    whole clamp domain; equal to (x + sigma^2 * score) / alpha wherever
    alpha > 0.  Times above 1 - T_MIN are rejected: the estimate there
    carries no information beyond the prior mean.
    """
    x = _check_finite(x)
    if not 0.0 <= t <= 1.0 - T_MIN:
        raise DomainError(f"posterior mean needs t in [0, {1.0 - T_MIN}], got {t}")
    return _posterior_mean_unchecked(gmm, _at_time(gmm, sched, float(t)), x)


def _posterior_mean_unchecked(
    gmm: GaussianMixtureModel, at: _AtTime, x: np.ndarray
) -> np.ndarray:
    if at.coeffs[1] == 0.0:
        # Point mass at the data: returning x exactly keeps t=0 values equal
        # to the raw reward bit for bit.
        return x.copy()
    resp = _responsibilities(at.params, x)
    # Per-component posterior over x0, through the cached gain
    comp_mean = gmm.means + at.gain * (x[..., None, :] - at.params.means_t)
    return np.sum(resp[..., :, None] * comp_mean, axis=-2)


def velocity_at(
    gmm: GaussianMixtureModel,
    sched: InterpolantSchedule,
    t: float,
    x: np.ndarray,
) -> np.ndarray:
    """The marginal velocity field u_t(x) that generates p_t.

    u = alpha_dot * E[x0|x] + sigma_dot * E[x1|x]; the conditional-mean form
    is regular on the whole domain [T_MIN, 1] including alpha = 0, and agrees
    with (alpha_dot/alpha) x - (sigma sigma_dot - sigma^2 alpha_dot/alpha)
    * score wherever alpha > 0.
    """
    x = _check_finite(x)
    if not T_MIN <= t <= 1.0:
        raise DomainError(f"velocity needs t in [{T_MIN}, 1], got {t}")
    at = _at_time(gmm, sched, float(t))
    alpha, sigma, alpha_dot, sigma_dot = at.coeffs
    x0_hat = _posterior_mean_unchecked(gmm, at, x)
    x1_hat = (x - alpha * x0_hat) / sigma
    return alpha_dot * x0_hat + sigma_dot * x1_hat


def sample_interpolant(
    gmm: GaussianMixtureModel,
    sched: InterpolantSchedule,
    t: float,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Exact samples of the time-t marginal: alpha x0 + sigma x1."""
    alpha, sigma, _, _ = eval_schedule(sched, t)
    x0 = gmm.sample(n, rng)
    x1 = rng.standard_normal((n, gmm.dim))
    return alpha * x0 + sigma * x1


def mode_assignments(gmm: GaussianMixtureModel, x: np.ndarray) -> np.ndarray:
    """Hard-assign points to mixture components by t=0 responsibility."""
    params = _at_time(gmm, InterpolantSchedule("linear"), 0.0).params
    return np.argmax(_component_log_joint(params, np.asarray(x, dtype=float)), axis=-1)
