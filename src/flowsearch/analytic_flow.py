"""Closed-form Gaussian-mixture flow model.

A diagonal-covariance Gaussian mixture is closed under the interpolant
push-forward, so the time-t marginal (``marginal_at``, again a
``GaussianMixtureModel``), its score, the marginal velocity field, and the
Tweedie posterior mean all have exact expressions.  This
module is the stand-in for a pretrained velocity network: every quantity a
sampler queries has an analytic oracle here.

All point evaluations accept ``x`` of shape ``(d,)`` or any batch shape
``(..., d)`` and return that shape.  Inside, the oracle is component-major:
the N rows of ``x`` are read as d contiguous columns of length N, and every
per-component quantity is a ``(K, N)`` array, or ``(d, K, N)`` per
coordinate.  d and K are tiny and N may be 10^5, so each numpy operation
is a pass along the rows, never a reduction over a trailing axis of size d
or K.  Sums over d and over K add their terms left to right (numpy's
reduce would sum 8 or more contiguous terms pairwise, and a one-row call's
K terms are contiguous), so each row's result depends on that row alone,
bit for bit, whatever the batch's shape.  Temporaries
are updated in place, which keeps a call's peak allocation down.  Mixture
responsibilities are a max-shifted softmax of the log joint; far from a
mode the naive ratio of densities underflows and corrupts scores.

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
        if self.means.ndim != 2 or self.means.shape[0] != self.weights.size or not self.dim:
            raise DomainError("means must have shape (n_components, dim), dim >= 1")
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


def marginal_at(
    gmm: GaussianMixtureModel, sched: InterpolantSchedule, t: float
) -> GaussianMixtureModel:
    """Push the mixture forward through the interpolant to time ``t``: the
    marginal is again a diagonal Gaussian mixture, with the same weights,
    means ``alpha_t mu_k`` and variances ``alpha_t^2 v_k + sigma_t^2``."""
    alpha, sigma, _, _ = eval_schedule(sched, t)
    return GaussianMixtureModel(
        gmm.weights, alpha * gmm.means, alpha * alpha * gmm.variances + sigma * sigma
    )


class _AtTime(NamedTuple):
    """The x-free part of every oracle query at one ``(gmm, sched, t)``.

    The per-component constants are laid out (d, K, 1), coordinate first, so
    they broadcast against x read as (d, 1, N) columns.  The variances are
    kept as reciprocals, so a query multiplies where it would divide, and
    halved for the log joint's quadratic form."""

    coeffs: tuple[float, float, float, float]  # eval_schedule(sched, t)
    log_const: np.ndarray    # (K, 1): log w_k minus the log normaliser of component k
    means_t: np.ndarray      # (d, K, 1): alpha mu_k
    inv_var: np.ndarray      # (d, K, 1): 1 / (alpha^2 v_k + sigma^2)
    half_inv_var: np.ndarray  # (d, K, 1): 0.5 * inv_var
    gain: np.ndarray         # (d, K, 1): alpha v_k / (alpha^2 v_k + sigma^2)
    means: np.ndarray        # (d, K, 1): mu_k


# Hits need the same mixture object, and every task of a harness table
# shares one: 99% of queries hit in a 40-seed diversity table (1,980 of
# 2,000) and 97% in an 8-seed ablation (1,059 of 1,088).
@lru_cache(maxsize=256)
def _at_time(gmm: GaussianMixtureModel, sched: InterpolantSchedule, t: float) -> _AtTime:
    coeffs = eval_schedule(sched, t)
    marginal = marginal_at(gmm, sched, t)
    var = marginal.variances
    log_norm = 0.5 * np.add.reduce(np.log(var), axis=-1) + 0.5 * var.shape[-1] * _LOG_2PI
    gain = coeffs[0] * gmm.variances / var
    inv_var = 1.0 / var
    return _AtTime(
        coeffs,
        (np.log(gmm.weights) - log_norm)[:, None],
        *(a.T[:, :, None] for a in (marginal.means, inv_var, 0.5 * inv_var, gain, gmm.means)),
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


def _component_log_joint(at: _AtTime, cols: np.ndarray) -> np.ndarray:
    """log(w_k) + log N(x; m_k, V_k) for each component, shape (K, N)."""
    sq = cols - at.means_t                # (d, K, N)
    sq *= sq
    sq *= at.half_inv_var                 # halving first: the same bits, short of subnormals
    # Summed over d left to right by plain adds, which beat np.add.reduce
    # over the short leading axis at 10^4 rows and cost no more at one.
    quad = sum(sq[1:], sq[0])             # (K, N)
    return np.subtract(at.log_const, quad, out=quad)


def _responsibilities(at: _AtTime, cols: np.ndarray) -> np.ndarray:
    """p(component k | x), shape (K, N): exp(log_joint - m) * (1 / s), with
    m the column max and s the column sum, in one exp pass.  The largest
    term is exactly 1, so s lies in [1, K]; exact ties stay exactly equal,
    and a column whose max is not finite (every quadratic form overflowed)
    comes out nan alone."""
    e = _component_log_joint(at, cols)
    e -= np.maximum.reduce(e, axis=0)
    np.exp(e, out=e)
    inv = e[0] + e[1] if len(e) > 1 else e[0].copy()
    for term in e[2:]:
        inv += term
    np.reciprocal(inv, out=inv)
    e *= inv
    return e


def _mix(resp: np.ndarray, per_comp: np.ndarray) -> np.ndarray:
    """sum_k resp[k] * per_comp[:, k] as (N, d) rows, summed over k left
    to right.

    ``resp`` is (K, N); the (d, K, N) ``per_comp`` is overwritten."""
    per_comp *= resp
    terms = per_comp.swapaxes(0, 1)  # (K, d, N)
    total = terms[0]
    for term in terms[1:]:
        total += term
    return total.T.copy()


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
    per_comp *= at.inv_var
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
    u = _posterior_mean_unchecked(gmm, at, x)  # x0_hat, made into u in place
    x1_hat = alpha * u
    np.subtract(x, x1_hat, out=x1_hat)
    x1_hat /= sigma
    x1_hat *= sigma_dot
    u *= alpha_dot
    u += x1_hat
    return u


def mode_assignments(gmm: GaussianMixtureModel, x: np.ndarray) -> np.ndarray:
    """Hard-assign points to mixture components by t=0 responsibility."""
    x = _check_finite(x)
    at = _at_time(gmm, InterpolantSchedule("linear"), 0.0)
    log_joint = _component_log_joint(at, _columns(x, gmm.dim))
    return np.argmax(log_joint, axis=0).reshape(x.shape[:-1])[()]
