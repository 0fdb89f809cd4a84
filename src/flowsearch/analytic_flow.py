"""Closed-form Gaussian-mixture flow model.

A diagonal-covariance Gaussian mixture is closed under the interpolant
push-forward, so the time-t marginal, its score, the marginal velocity
field, and the Tweedie posterior mean all have exact expressions.  This
module is the stand-in for a pretrained velocity network: every quantity a
sampler queries has an analytic oracle here.

All point evaluations accept ``x`` of shape ``(d,)`` or any batch shape
``(..., d)`` and return that shape.  Inside, the oracle is component-major:
the N rows of ``x`` are read as d contiguous columns of length N, and every
per-component quantity is a ``(K, N)`` array, or ``(d, K, N)`` per
coordinate.  d and K are tiny and N may be 10^5, so each numpy operation
is a pass along the rows, never a reduction over a trailing axis of size d
or K.  The results are bitwise those of the row-major ``(..., K, d)``
form: elementwise operations do not depend on the layout, and a sum over
a leading axis of d or K terms adds them left to right, ((a0 + a1) + a2)
+ a3, which is also the order numpy uses for short trailing-axis sums.
Temporaries are updated in place, which keeps a call's peak allocation
down.  Mixture responsibilities are always formed in log space, with this
module's own numpy log-sum-exp; far from a mode the naive ratio underflows
and corrupts scores.

Samplers make many small oracle calls at the same few times, so everything
that depends on ``(gmm, sched, t)`` but not on ``x`` is built once per time
and kept in a bounded cache (``_at_time``).  The cache keys the mixture by
identity and holds a reference to it, so keys never collide, and a
mixture's arrays are read-only copies, so an entry never goes stale; a
pickled mixture is rebuilt through its constructor, so this holds in pool
workers too.
"""

from __future__ import annotations

from dataclasses import dataclass
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
            if not np.all(np.isfinite(arr)):
                raise DomainError(f"{name} must be finite")
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

    def __reduce__(self):
        # Unpickling goes through the constructor, so a copy sent to a pool
        # worker is validated again and its arrays are read-only again.
        return type(self), (self.weights, self.means, self.variances)

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
    """The time-t marginal: still a diagonal Gaussian mixture."""

    weights: np.ndarray      # (K,)
    means_t: np.ndarray      # (K, d): alpha_t * mu_k
    variances_t: np.ndarray  # (K, d): alpha_t^2 * v_k + sigma_t^2


def marginal_at(
    gmm: GaussianMixtureModel, sched: InterpolantSchedule, t: float
) -> MarginalParams:
    """Push the mixture forward through the interpolant to time ``t``."""
    alpha, sigma, _, _ = eval_schedule(sched, t)
    return MarginalParams(
        weights=gmm.weights,
        means_t=alpha * gmm.means,
        variances_t=alpha * alpha * gmm.variances + sigma * sigma,
    )


class _AtTime(NamedTuple):
    """The x-free part of every oracle query at one ``(gmm, sched, t)``.

    The per-component constants are laid out (d, K, 1), coordinate first, so
    they broadcast against x read as (d, 1, N) columns."""

    coeffs: tuple[float, float, float, float]  # eval_schedule(sched, t)
    log_const: np.ndarray    # (K, 1): log w_k minus the log normaliser of component k
    means_t: np.ndarray      # (d, K, 1): alpha mu_k
    variances_t: np.ndarray  # (d, K, 1): alpha^2 v_k + sigma^2
    gain: np.ndarray         # (d, K, 1): alpha v_k / (alpha^2 v_k + sigma^2)
    means: np.ndarray        # (d, K, 1): mu_k


# Hits need the same mixture object, and every task of a harness table
# shares one: 99% of queries hit in a 40-seed diversity table (1,980 of
# 2,000) and 97% in an 8-seed ablation (1,059 of 1,088).
@lru_cache(maxsize=256)
def _at_time(gmm: GaussianMixtureModel, sched: InterpolantSchedule, t: float) -> _AtTime:
    coeffs = eval_schedule(sched, t)
    params = marginal_at(gmm, sched, t)
    var = params.variances_t
    log_norm = 0.5 * np.add.reduce(np.log(var), axis=-1) + 0.5 * var.shape[-1] * _LOG_2PI
    gain = coeffs[0] * gmm.variances / var
    return _AtTime(
        coeffs,
        (np.log(gmm.weights) - log_norm)[:, None],
        *(a.T[:, :, None] for a in (params.means_t, var, gain, gmm.means)),
    )


def _check_finite(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise DomainError("x must be finite")
    return x


def _columns(x: np.ndarray, dim: int) -> np.ndarray:
    """The N rows of ``x``, shape (..., dim), as dim contiguous columns: (dim, 1, N)."""
    if x.ndim == 0 or x.shape[-1] != dim:
        raise DomainError(f"x must have shape (..., {dim}), got {x.shape}")
    return np.ascontiguousarray(x.reshape(-1, dim).T)[:, None, :]


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) over the leading (component) axis, kept with size 1.

    The algorithm of ``scipy.special.logsumexp``, step for step, so the bits
    match it (Blanchard, Higham & Higham 2021): the n entries equal to the
    column max m are taken out of the shifted sum s, and the result is
    log1p(s / n) + log(n) + m.  The entries equal to m are taken out by a
    0/1 factor on exp(a - m), which gives the +0.0 that exp(-inf) would,
    without a masked select.  A column whose max is not finite (all -inf,
    or holding +inf or nan) gets the direct log(sum(exp(a))) instead.
    """
    m = np.maximum.reduce(a, axis=0, keepdims=True)
    if not np.isfinite(m).all():
        finite = np.isfinite(m)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            direct = np.log(np.add.reduce(np.exp(a), axis=0, keepdims=True))
        return np.where(finite, _logsumexp(np.where(finite, a, 0.0)), direct)
    keep = a != m
    e = np.subtract(a, m)
    np.exp(e, out=e)
    e *= keep
    s = np.add.reduce(e, axis=0, keepdims=True)
    n = a.shape[0] - np.add.reduce(keep, axis=0, keepdims=True, dtype=float)
    # n >= 1, so s / n is scipy's where(s == 0, s, s / n) bit for bit
    return np.log1p(s / n) + np.log(n) + m


def _component_log_joint(at: _AtTime, cols: np.ndarray) -> np.ndarray:
    """log(w_k) + log N(x; m_k, V_k) for each component, shape (K, N)."""
    sq = cols - at.means_t                # (d, K, N)
    sq *= sq
    sq /= at.variances_t
    quad = np.add.reduce(sq, axis=0)      # (K, N)
    quad *= 0.5
    return np.subtract(at.log_const, quad, out=quad)


def _responsibilities(at: _AtTime, cols: np.ndarray) -> np.ndarray:
    """p(component k | x), shape (K, N)."""
    log_joint = _component_log_joint(at, cols)
    log_joint -= _logsumexp(log_joint)
    return np.exp(log_joint, out=log_joint)


def _mix(resp: np.ndarray, per_comp: np.ndarray) -> np.ndarray:
    """sum_k resp[k] * per_comp[:, k] as (N, d) rows.

    ``resp`` is (K, N); the (d, K, N) ``per_comp`` is overwritten."""
    per_comp *= resp
    d, _, n = per_comp.shape
    rows = np.empty((n, d))
    np.add.reduce(per_comp, axis=1, out=rows.T)
    return rows


def score_at(
    gmm: GaussianMixtureModel,
    sched: InterpolantSchedule,
    t: float,
    x: np.ndarray,
) -> np.ndarray:
    """Exact score of the time-t marginal, grad log p_t(x)."""
    x = _check_finite(x)
    at = _at_time(gmm, sched, float(t))
    cols = _columns(x, gmm.dim)
    resp = _responsibilities(at, cols)
    per_comp = at.means_t - cols
    per_comp /= at.variances_t
    return _mix(resp, per_comp).reshape(x.shape)


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
    cols = _columns(x, gmm.dim)
    # resp first, so the log joint's (d, K, N) temporary is freed before
    # per_comp is allocated: a lower peak per call means fewer fresh pages.
    resp = _responsibilities(at, cols)
    # Per-component posterior over x0, through the cached gain
    per_comp = cols - at.means_t
    per_comp *= at.gain
    per_comp += at.means
    return _mix(resp, per_comp).reshape(x.shape)


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
    x1_hat = x - alpha * x0_hat
    x1_hat /= sigma
    x1_hat *= sigma_dot
    x0_hat *= alpha_dot
    x0_hat += x1_hat  # u = alpha_dot * x0_hat + sigma_dot * x1_hat
    return x0_hat


def mode_assignments(gmm: GaussianMixtureModel, x: np.ndarray) -> np.ndarray:
    """Hard-assign points to mixture components by t=0 responsibility."""
    x = _check_finite(x)
    at = _at_time(gmm, InterpolantSchedule("linear"), 0.0)
    log_joint = _component_log_joint(at, _columns(x, gmm.dim))
    return np.argmax(log_joint, axis=0).reshape(x.shape[:-1])[()]
