"""Inference-time search algorithms under a shared NFE-budget contract.

Six samplers are provided: best-of-n (bon), search-over-paths (sop),
sequential Monte Carlo (smc), interleaved-selection denoising (code),
per-step argmax selection (svdd), and rollover budget forcing (rbf).

Budget accounting
-----------------
The unit of compute is one velocity-field evaluation (NFE).  Producing a
new latent (one denoising or ODE step) is charged 1 NFE, with the query of
that latent, which yields its value and its next step, bundled in.  The
initial latents' query is step 0's, paid for by step 0's charge; rbf's 1
NFE per batch pays for the query its initial value and first step share.
A final latent's value is its reward.
``SearchBudget`` holds only ``total_nfe`` and may be reused: the run keeps
the ledger.  ``_Runner.charge`` is the only place that spends NFE (rbf's
initial valuing is booked on no interval), the plan owns the step count,
and ``_Runner`` refuses a total below ``plan.steps``.  ``nfe_used`` is the
run's own count and never exceeds ``total_nfe``.

Per-step quotas follow one rule, ``_uniform_split``: a share split evenly
over the steps, remainder to the earliest.  svdd is code at interval 1.
code runs ``max(1, total // (steps * k))`` batches of share ``total //
batches``; a window of ``span`` intervals draws ``min(k, sum(quotas[i0:i0 +
span]) // span)`` chains per batch, k whenever two or more batches run.
rbf splits each batch's share, less its initial charge, the same way.

The ledger charges proposals, not oracle rows.  Every selecting sampler
(svdd, code, rbf) advances all its batches together, with one step per
interval and one value call per selection point; proposals that share a
parent share that parent's oracle row while each is charged 1 NFE.  rbf
values each step's own quota (its largest before rollover) first and the
rolled-over rows, padded to the largest batch quota, only on a miss, and
charges each batch up to its accepted index; the rows past it, padding
included, are uncharged, speculative oracle work.

A latent carries x̂0 = E[x0 | x_t], the oracle's one output, at its next
step's query point: ``_Runner.initials`` and ``_Runner.step`` hand out
``(x, x0)`` pairs, a step advances rows from their x̂0
(``engine.step_from_x0``) and queries the rows it produced, a value is
r(x̂0), and a sampler indexes x̂0 with the rows it keeps.  So bon, smc,
code and svdd make one posterior evaluation per interval, 10 a run at 10
steps; rbf one more per step that reads its rollover, and sop one more
per round, its branches' first query (26 at nfe 1000).

Every sampler is built on ``_Runner``, which owns the run's NFE ledger,
per-step noise, stepping, valuing, selection and the final pick; smc and
rbf always return their small trace dicts in ``SearchResult.trace``.

Determinism
-----------
All randomness is drawn from counter-based streams, one per
``(seed, domain, step_index, batch_index)``, a Philox key that hashes
``(seed, domain)`` and a counter that holds the step and batch.  Each is
drawn as a ``(count, d)`` block whose row j belongs to particle j.  A
block's first j rows equal a j-row draw, so no result depends on how many
rows were drawn.  The run's initial latents are one INIT block: bon, sop
and smc take its first rows, and svdd, code and rbf start batch b from row
b.  Results are identical across runs and across any degree of harness
parallelism, and every argmax breaks ties toward the lowest index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng as streams
# Unused here, velocity_at, denoise_interval and estimate_value stay bound for
# bench/'s span wrappers.
from .analytic_flow import GaussianMixtureModel, posterior_mean, velocity_at  # noqa: F401
from .engine import StepPlan, denoise_interval, step_from_x0  # noqa: F401
from .errors import BudgetError, DomainError
from .interpolants import eval_schedule
from .rewards import RewardSpec, estimate_value, evaluate_reward  # noqa: F401

def _uniform_split(total: int, parts: int) -> list[int]:
    """Split ``total`` into ``parts`` integers, remainder to the earliest."""
    base, rem = divmod(total, parts)
    return [base + (1 if i < rem else 0) for i in range(parts)]


@dataclass(frozen=True)
class SearchBudget:
    """A run's total NFE.  The run keeps the ledger, so one budget serves any
    number of runs; the plan owns the step count, and each sampler splits
    the total into per-step quotas itself."""

    total_nfe: int

    def __post_init__(self) -> None:
        if self.total_nfe < 1:
            raise BudgetError("total_nfe must be positive")


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one search run."""

    best_x: np.ndarray
    best_reward: float
    nfe_used: int
    per_step_consumption: list[int]
    trace: dict | None = None


def ess(weights) -> float:
    """Effective sample size (sum w)^2 / sum w^2, in [1, N]."""
    w = np.asarray(weights, dtype=float)
    if w.size == 0 or np.any(w < 0.0):
        raise DomainError("weights must be nonnegative and non-empty")
    total = w.sum()
    if total == 0.0:
        raise DomainError("all-zero weights are degenerate")
    return float(total * total / np.sum(w * w))


def resample_multinomial(weights, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` ancestor indices from the normalised weights."""
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0.0) or w.sum() == 0.0:
        raise DomainError("weights must be nonnegative with positive sum")
    return rng.choice(w.size, size=n, p=w / w.sum())


def _top_k_first(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest values, ties resolved toward lower indices."""
    order = np.argsort(-values, kind="stable")
    return np.sort(order[:k])


class _Runner:
    """The sampler skeleton: initial latents, per-step noise, stepping,
    valuing, the final pick and the run's own NFE ledger: ``used`` of
    ``total``, booked per interval in ``per_step``, spent only through
    ``charge``."""

    def __init__(
        self,
        plan: StepPlan,
        gmm: GaussianMixtureModel,
        reward: RewardSpec,
        budget: SearchBudget,
        seed: int,
    ):
        if budget.total_nfe < plan.steps:
            raise BudgetError(f"total_nfe={budget.total_nfe} cannot cover {plan.steps} steps")
        self.plan = plan
        self.gmm = gmm
        self.reward = reward
        self.seed = seed
        self.total = budget.total_nfe
        self.used = 0
        self.per_step = [0] * plan.steps

    def initials(self, count: int):
        """``(x, x0)``: the first ``count`` rows of the INIT block, x̂0 at step 0."""
        x = streams.normals(self.seed, (streams.INIT,), (count, self.gmm.dim))
        return x, self.query(x, 0)

    def noise(self, i: int, batch: int, count: int) -> np.ndarray | None:
        """Proposal noise of ``batch`` on grid interval i, one ``(count, d)``
        block whose row j is proposal j's; None when the interval injects
        no noise."""
        if not self.plan.g[i]:
            return None
        return streams.normals(self.seed, (streams.PROPOSAL, i, batch), (count, self.gmm.dim))

    def charge(self, i: int | None, n: int) -> None:
        """Spend n NFE and book them on grid interval i (None: on none); a
        negative charge or one past the total raises and books nothing."""
        if n < 0:
            raise BudgetError("cannot charge a negative NFE count")
        if self.used + n > self.total:
            raise BudgetError(f"charge of {n} exceeds budget ({self.used}/{self.total} used)")
        self.used += n
        if i is not None:
            self.per_step[i] += n

    def query(self, x: np.ndarray, k: int) -> np.ndarray:
        """x̂0 = E[x0 | x / c, t] at grid point k: one ``posterior_mean`` call
        (the prior mean at t = 1); at the final point x itself, with no call."""
        if k == self.plan.steps:
            return x
        (c, t, *_), _ = self.plan.intervals[k]
        return posterior_mean(self.gmm, self.plan.src_schedule, t, x if c is None else x / c)

    def value(self, x0: np.ndarray) -> np.ndarray:
        """r(x̂0), bundled with the NFE of the step that queried x̂0."""
        return np.asarray(evaluate_reward(self.reward, x0))

    def select(self, x: np.ndarray, x0: np.ndarray):
        """``(rows, x0)``: per batch, the highest-value latent, lowest index on
        ties, ``(B, n, d)`` to ``(B, d)`` in one value call, and its x̂0."""
        best = np.arange(x.shape[0]), self.value(x0).argmax(axis=1)
        return x[best], x0[best]

    def step(self, x: np.ndarray, x0: np.ndarray, i: int, z: np.ndarray | None):
        """``(x', x0')``: a batch advanced over grid interval i (``z`` None:
        the flow step) from its x̂0, and the ``query`` of x' at i + 1; the
        caller charges it.  Proposals sharing a parent are one step of
        ``x[None, :]`` with their ``(q, d)`` noise (or ``(B, 1, d)`` with
        ``(B, q, d)``), so each parent is queried once."""
        x = step_from_x0(self.plan, x, i, z, x0.reshape(x.shape))
        return x, self.query(x, i + 1)

    def result(self, finals, trace: dict | None = None) -> SearchResult:
        """The highest-reward final latent, lowest index on ties, with the
        run's ledger and ``trace``."""
        x = np.asarray(finals)
        values = np.asarray(evaluate_reward(self.reward, x))
        best = np.argmax(values)
        return SearchResult(
            best_x=x[best],
            best_reward=float(values[best]),
            nfe_used=self.used,
            per_step_consumption=self.per_step,
            trace=trace,
        )


def best_of_n(
    plan: StepPlan,
    gmm: GaussianMixtureModel,
    reward: RewardSpec,
    budget: SearchBudget,
    seed: int,
) -> SearchResult:
    """Run N = total_nfe // steps independent deterministic trajectories and
    return the highest-reward endpoint (rejection sampling)."""
    r = _Runner(plan, gmm, reward, budget, seed)
    n = budget.total_nfe // plan.steps
    x, x0 = r.initials(n)
    for i in range(plan.steps):
        r.charge(i, n)
        x, x0 = r.step(x, x0, i, None)
    return r.result(x)


def _forward_noise(plan: StepPlan, x: np.ndarray, j: int, zeta: np.ndarray) -> np.ndarray:
    """Re-noise latents from grid point j back to j - 1 with the forward
    kernel of the latent's own interpolant and clock (no velocity call)."""
    a_to, s_to, _, _ = eval_schedule(plan.schedule, plan.times[j - 1])
    a_from, s_from, _, _ = eval_schedule(plan.schedule, plan.times[j])
    coef = a_to / a_from
    var = max(s_to * s_to - coef * coef * s_from * s_from, 0.0)
    return coef * x + np.sqrt(var) * zeta


def search_over_paths(
    plan: StepPlan,
    gmm: GaussianMixtureModel,
    reward: RewardSpec,
    budget: SearchBudget,
    seed: int,
    n_keep: int = 2,
    k_branch: int = 5,
) -> SearchResult:
    """Iterate forward-noising by one grid interval, deterministic solving by
    two, and top-``n_keep`` selection, from t=1 until t=0.

    Forward noising is pure noise injection with the forward kernel of the
    latent's own interpolant and clock (``plan.schedule``, ``plan.times``),
    so re-noised latents land on the marginal of the earlier grid point;
    at the noise end (the first round) it draws fresh latents.  It costs no
    NFE; each probability-flow interval costs one per particle.  If the
    budget cannot cover another round plus finishing the survivors, the
    search truncates and the survivors are completed deterministically.
    """
    r = _Runner(plan, gmm, reward, budget, seed)
    if n_keep < 1 or k_branch < 1:
        raise DomainError("n_keep and k_branch must be >= 1")
    steps = plan.steps
    if budget.total_nfe < n_keep * steps:
        raise BudgetError("budget cannot finish the survivors deterministically")
    idx = round_no = 0
    while idx < steps:
        fwd_idx = max(idx - 1, 0)
        db = min(2, steps - fwd_idx)
        cost = n_keep * k_branch * db
        finish_after = n_keep * (steps - (fwd_idx + db))
        if r.total - r.used < cost + finish_after:
            break
        zeta = streams.normals(seed, (streams.FORWARD, round_no), (n_keep * k_branch, gmm.dim))
        branched = zeta  # at the noise end the branches are fresh latents
        if idx:
            branched = _forward_noise(plan, np.repeat(x, k_branch, axis=0), idx, zeta)
        post = r.query(branched, fwd_idx)
        idx = fwd_idx + db
        for pos in range(fwd_idx, idx):
            r.charge(pos, branched.shape[0])
            branched, post = r.step(branched, post, pos, None)
        keep = _top_k_first(r.value(post), n_keep)
        x, x0 = branched[keep], post[keep]
        round_no += 1
    if not round_no:  # no round fits: the initial latents are finished
        x, x0 = r.initials(n_keep)
    while idx < steps:  # deterministic finish after truncation
        r.charge(idx, x.shape[0])
        x, x0 = r.step(x, x0, idx, None)
        idx += 1
    return r.result(x)


def run_smc(
    plan: StepPlan,
    gmm: GaussianMixtureModel,
    reward: RewardSpec,
    budget: SearchBudget,
    seed: int,
    ess_threshold_frac: float = 0.5,
) -> SearchResult:
    """Sequential Monte Carlo with the reverse kernel as proposal.

    Weights are updated by exp((v' - v)/beta) and kept in log space; when
    the effective sample size drops below ``ess_threshold_frac * N`` the
    particles are resampled and the weights reset to one.
    """
    r = _Runner(plan, gmm, reward, budget, seed)
    if not 0.0 <= ess_threshold_frac <= 1.0:
        raise DomainError(f"ess_threshold_frac must be in [0, 1], got {ess_threshold_frac}")
    n = budget.total_nfe // plan.steps
    beta = reward.kl_temperature
    x, x0 = r.initials(n)
    values = r.value(x0)  # step 0's query, charged with that step
    log_w = np.zeros(n)
    trace = {"resampled": [], "weights_after_resample": []}
    for i in range(plan.steps):
        w = np.exp(log_w - log_w.max())
        resampled = ess(w) < ess_threshold_frac * n
        if resampled:
            gen = streams.shared_stream(seed, (streams.RESAMPLE, i))
            ancestors = resample_multinomial(w, n, gen)
            x, x0 = x[ancestors], x0[ancestors]
            values = values[ancestors]
            log_w = np.zeros(n)
        trace["resampled"].append(resampled)
        if resampled:
            trace["weights_after_resample"].append(np.exp(log_w))
        z = r.noise(i, 0, n)
        r.charge(i, n)
        x, x0 = r.step(x, x0, i, z)
        new_values = r.value(x0)
        log_w = log_w + (new_values - values) / beta
        values = new_values
    return r.result(x, trace)


def run_svdd(
    plan: StepPlan,
    gmm: GaussianMixtureModel,
    reward: RewardSpec,
    budget: SearchBudget,
    seed: int,
    k: int = 25,
) -> SearchResult:
    """At every step draw ``k`` proposals from the current latent and keep the
    argmax-value one (the beta -> 0 limit of the soft policy): code with a
    selection every interval."""
    return run_code(plan, gmm, reward, budget, seed, interval=1, k=k)


def run_code(
    plan: StepPlan,
    gmm: GaussianMixtureModel,
    reward: RewardSpec,
    budget: SearchBudget,
    seed: int,
    interval: int = 2,
    k: int = 25,
) -> SearchResult:
    """Interleaved selection: every ``interval`` denoising steps, branch ``k``
    stochastic chains per survivor and keep the argmax-value endpoint.
    Batches and window draws follow the module's quota rule; all batches
    advance together, and the best final sample across them is returned."""
    r = _Runner(plan, gmm, reward, budget, seed)
    for name, opt in (("interval", interval), ("k", k)):
        if opt < 1:
            raise DomainError(f"{name} must be >= 1, got {opt}")
    steps = plan.steps
    batches = max(1, budget.total_nfe // (steps * k))
    quotas = _uniform_split(budget.total_nfe // batches, steps)
    x, x0 = r.initials(batches)
    for i0 in range(0, steps, interval):
        span = min(interval, steps - i0)
        draws = min(k, sum(quotas[i0:i0 + span]) // span)
        chains = x[:, None]  # the draws share x until noise parts them
        for i in range(i0, i0 + span):
            r.charge(i, batches * draws)
            z = np.stack([r.noise(i, b, draws) for b in range(batches)]) if plan.g[i] else None
            chains, x0 = r.step(chains, x0, i, z)
        x, x0 = r.select(chains, x0)
    return r.result(x)


def run_rbf(
    plan: StepPlan,
    gmm: GaussianMixtureModel,
    reward: RewardSpec,
    budget: SearchBudget,
    seed: int,
    batches: int = 2,
) -> SearchResult:
    """Rollover budget forcing.

    Per batch, one NFE is reserved to value the initial noise (the incumbent
    reward r*), and the rest is split uniformly into per-step quotas.  At
    each step, proposals are drawn in order; the first one whose value
    exceeds r* is accepted and the unspent quota rolls over to the next
    step.  If the quota is exhausted the argmax-value proposal is taken
    (without updating r*).

    All batches advance together, as in svdd and code: a step values every
    batch's own quota (the step's largest before rollover) in one step and
    value call, and its rolled-over rows, padded to the largest quota, in
    one more only when a batch missed r* in its own.  Each batch is charged
    up to its accepted proposal; the rows past it, padding included, are
    uncharged, speculative work; a miss accepts the last index, so nothing
    rolls over.
    """
    r = _Runner(plan, gmm, reward, budget, seed)
    if batches < 1:
        raise DomainError("batches must be >= 1")
    steps = plan.steps
    if budget.total_nfe < batches * (steps + 1):
        raise BudgetError("each rbf batch needs at least steps + 1 NFEs")
    quotas = np.array([_uniform_split(share - 1, steps)
                       for share in _uniform_split(budget.total_nfe, batches)])
    own = quotas.max(axis=0).tolist()  # each step's largest quota before rollover
    accepted, entry, rows = np.zeros_like(quotas), [], np.arange(batches)
    x, x0 = r.initials(batches)
    r.charge(None, batches)  # valuing each fresh initial latent costs one call
    r_star = r.value(x0)

    def propose(i, lo, hi):
        """Rows [lo, hi) of each batch's step-i proposals from x, valued."""
        z = np.stack([r.noise(i, b, hi)[lo:] for b in range(batches)]) if plan.g[i] else None
        proposals, post = r.step(x[:, None], x0, i, z)
        return proposals, r.value(post), post

    for i in range(steps):
        q = quotas[:, i]
        entry.append(quotas[:, i:].tolist())
        proposals, values, post = parts = propose(i, 0, own[i])
        if plan.g[i] and np.any((q > own[i]) & ~(values > r_star[:, None]).any(axis=1)):
            rest = propose(i, own[i], int(q.max()))  # only a batch missing r* reads on
            proposals, values, post = (np.concatenate(p, axis=1) for p in zip(parts, rest))
        padding = np.arange(values.shape[1]) >= q[:, None]
        values = np.where(padding, -np.inf, values)  # padding never wins
        beats = values > r_star[:, None]
        hit = beats.any(axis=1)
        j = np.where(hit, beats.argmax(axis=1), q - 1)
        pick = np.where(hit, j, values.argmax(axis=1))
        x, x0 = proposals[rows, pick], post[rows, pick]
        r_star = np.where(hit, values[rows, pick], r_star)
        if i + 1 < steps:
            quotas[:, i + 1] += q - 1 - j
        accepted[:, i] = j + 1
        r.charge(i, int(accepted[:, i].sum()))
    traces = [{"quotas_at_entry": [left[b] for left in entry], "accepted_at": acc}
              for b, acc in enumerate(accepted.tolist())]
    return r.result(x, trace={"batches": traces, "init_charges": batches})


SAMPLERS = {
    "bon": best_of_n,
    "sop": search_over_paths,
    "smc": run_smc,
    "code": run_code,
    "svdd": run_svdd,
    "rbf": run_rbf,
}
SAMPLER_NAMES = tuple(SAMPLERS)
