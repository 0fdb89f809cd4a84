"""Inference-time search algorithms under a shared NFE-budget contract.

Six samplers are provided: best-of-n (bon), search-over-paths (sop),
sequential Monte Carlo (smc), interleaved-selection denoising (code),
per-step argmax selection (svdd), and rollover budget forcing (rbf).

Budget accounting
-----------------
The unit of compute is one velocity-field evaluation (NFE).  Producing a
new latent (one denoising or ODE step) costs exactly 1 NFE; the value of
the produced latent comes bundled with that step, since the same velocity
evaluation yields both the proposal and the Tweedie posterior mean.  Only
valuing a latent nobody stepped to, such as rbf's initial noise, costs an
extra call.  ``nfe_used`` never exceeds ``total_nfe``.

Every sampler is built on ``_Runner``, which owns the per-step ledger
(charge the budget and book the step together), the per-step proposal
noise, stepping through ``engine.denoise_interval`` (the one stepping
kernel), valuing, and the final highest-reward selection.

Determinism
-----------
All randomness is drawn from counter-based streams keyed by
``(seed, domain, step_index, particle_index)``; results are therefore
identical across runs and across any degree of harness parallelism, and
every argmax breaks ties toward the lowest index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rng as streams
from .analytic_flow import GaussianMixtureModel, velocity_at
from .engine import StepPlan, denoise_interval, deterministic_plan
from .errors import BudgetError, DomainError
from .interpolants import T_MIN, eval_schedule
from .rewards import RewardSpec, estimate_value, evaluate_reward

SAMPLER_NAMES = ("bon", "sop", "smc", "code", "svdd", "rbf")


def _uniform_split(total: int, parts: int) -> list[int]:
    """Split ``total`` into ``parts`` integers, remainder to the earliest."""
    base, rem = divmod(total, parts)
    return [base + (1 if i < rem else 0) for i in range(parts)]


@dataclass
class SearchBudget:
    """Total NFE, step count, and the consumed-NFE ledger.

    Each sampler splits the total into per-step quotas itself."""

    total_nfe: int
    steps: int
    consumed: int = 0

    def __post_init__(self) -> None:
        if self.total_nfe < 1 or self.steps < 1:
            raise BudgetError("total_nfe and steps must be positive")
        if self.total_nfe < self.steps:
            raise BudgetError(
                f"total_nfe={self.total_nfe} cannot cover {self.steps} steps"
            )

    @classmethod
    def uniform(cls, total_nfe: int, steps: int) -> "SearchBudget":
        return cls(total_nfe=total_nfe, steps=steps)

    @property
    def remaining(self) -> int:
        return self.total_nfe - self.consumed

    def charge(self, n: int) -> None:
        if n < 0:
            raise BudgetError("cannot charge a negative NFE count")
        if self.consumed + n > self.total_nfe:
            raise BudgetError(
                f"charge of {n} exceeds budget ({self.consumed}/{self.total_nfe} used)"
            )
        self.consumed += n


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


def log_ess(log_weights: np.ndarray) -> float:
    """ESS computed from log-weights without leaving log space."""
    lw = np.asarray(log_weights, dtype=float)
    m = lw.max()
    w = np.exp(lw - m)
    return float(w.sum() ** 2 / np.sum(w * w))


def resample_multinomial(weights, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` ancestor indices from the normalised weights."""
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0.0) or w.sum() == 0.0:
        raise DomainError("weights must be nonnegative with positive sum")
    if n == 0:
        return np.empty(0, dtype=int)
    return rng.choice(w.size, size=n, p=w / w.sum())


def _argmax_first(values: np.ndarray) -> int:
    """Index of the maximum; np.argmax already returns the first on ties."""
    return int(np.argmax(values))


def _top_k_first(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest values, ties resolved toward lower indices."""
    order = np.argsort(-values, kind="stable")
    return np.sort(order[:k])


class _Runner:
    """The sampler skeleton: the velocity oracle, initial latents, per-step
    noise, stepping, valuing, the per-step NFE ledger and the final pick."""

    def __init__(
        self,
        plan: StepPlan,
        gmm: GaussianMixtureModel,
        reward: RewardSpec,
        budget: SearchBudget,
        seed: int,
    ):
        if budget.steps != plan.steps:
            raise BudgetError(
                f"budget has {budget.steps} steps but the plan has {plan.steps}"
            )
        self.plan = plan
        self.gmm = gmm
        self.reward = reward
        self.budget = budget
        self.seed = seed
        self.det_plan = deterministic_plan(plan)
        self.per_step = [0] * plan.steps
        src = plan.src_schedule
        self.velocity = lambda x, t: velocity_at(gmm, src, t, x)

    def initial(self, index: int) -> np.ndarray:
        return streams.stream(self.seed, streams.INIT, index).standard_normal(self.gmm.dim)

    def noise(self, i: int, first: int, count: int) -> np.ndarray | None:
        """Proposal noise of particles ``first .. first+count-1`` on grid
        interval i, one row each; None when the interval injects no noise."""
        if not self.plan.noisy(self.plan.grid[i + 1]):
            return None
        z = np.empty((count, self.gmm.dim))
        for j in range(count):
            z[j] = streams.stream(self.seed, streams.PROPOSAL, i, first + j).standard_normal(
                self.gmm.dim
            )
        return z

    def charge(self, i: int, n: int) -> None:
        """Spend n NFE on grid interval i: charge the budget, book the step."""
        self.budget.charge(n)
        self.per_step[i] += n

    def value(self, x: np.ndarray, s: float):
        """Value of latents at plan time s (bundled with their step's NFE)."""
        t = min(self.plan.latent_time(s), 1.0 - T_MIN)
        sched = self.plan.value_schedule()
        return np.asarray(
            estimate_value(self.reward, self.gmm, sched, t, x).value
        )

    def step_batch(
        self, x: np.ndarray, i: int, z: np.ndarray | None, deterministic: bool = False
    ) -> np.ndarray:
        """Advance a batch over grid interval i; caller charges the budget."""
        plan = self.det_plan if deterministic else self.plan
        g = plan.grid
        return denoise_interval(plan, x, g[i], g[i + 1], z, self.velocity)

    def result(self, finals, values=None, trace: dict | None = None) -> SearchResult:
        """The highest-reward final latent, lowest index on ties; ``values``
        stand in for the rewards when the caller already holds them."""
        x = np.asarray(finals)
        if values is None:
            values = np.asarray(evaluate_reward(self.reward, x))
        best = _argmax_first(values)
        return SearchResult(
            best_x=x[best],
            best_reward=float(evaluate_reward(self.reward, x[best])),
            nfe_used=self.budget.consumed,
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
    n = budget.total_nfe // budget.steps
    if n < 1:
        raise BudgetError("best-of-n needs total_nfe >= steps")
    x = np.stack([r.initial(i) for i in range(n)])
    for i in range(plan.steps):
        r.charge(i, n)
        x = r.step_batch(x, i, None, deterministic=True)
    return r.result(x)


def _forward_noise(
    r: _Runner, x: np.ndarray, t_from: float, t_to: float, zeta: np.ndarray
) -> np.ndarray:
    """Re-noise latents from t_from up to t_to >= t_from with the forward
    kernel of the source interpolant (no velocity call)."""
    a_to, s_to, _, _ = eval_schedule(r.plan.src_schedule, t_to)
    a_from, s_from, _, _ = eval_schedule(r.plan.src_schedule, t_from)
    coef = 0.0 if a_to == 0.0 else a_to / a_from
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

    Forward noising is pure noise injection and costs no NFE; each ODE
    interval costs one per particle.  If the budget cannot cover another
    round plus finishing the survivors, the search truncates and the
    survivors are completed deterministically.
    """
    r = _Runner(plan, gmm, reward, budget, seed)
    if n_keep < 1 or k_branch < 1:
        raise DomainError("n_keep and k_branch must be >= 1")
    steps = plan.steps
    if budget.total_nfe < n_keep * steps:
        raise BudgetError("budget cannot finish the survivors deterministically")
    x = np.stack([r.initial(i) for i in range(n_keep)])
    idx = 0
    round_no = 0
    while idx < steps:
        fwd_idx = max(idx - 1, 0)
        db = min(2, steps - fwd_idx)
        cost = n_keep * k_branch * db
        finish_after = n_keep * (steps - (fwd_idx + db))
        if budget.remaining < cost + finish_after:
            break
        zeta = np.stack(
            [
                streams.stream(seed, streams.FORWARD, round_no, j).standard_normal(gmm.dim)
                for j in range(n_keep * k_branch)
            ]
        )
        branched = _forward_noise(
            r, np.repeat(x, k_branch, axis=0), plan.grid[idx], plan.grid[fwd_idx], zeta
        )
        pos = fwd_idx
        for _ in range(db):
            r.charge(pos, branched.shape[0])
            branched = r.step_batch(branched, pos, None, deterministic=True)
            pos += 1
        values = r.value(branched, plan.grid[pos])
        keep = _top_k_first(values, n_keep)
        x = branched[keep]
        idx = pos
        round_no += 1
    while idx < steps:  # deterministic finish after truncation
        r.charge(idx, x.shape[0])
        x = r.step_batch(x, idx, None, deterministic=True)
        idx += 1
    return r.result(x)


def run_smc(
    plan: StepPlan,
    gmm: GaussianMixtureModel,
    reward: RewardSpec,
    budget: SearchBudget,
    seed: int,
    ess_threshold_frac: float = 0.5,
    with_trace: bool = False,
) -> SearchResult:
    """Sequential Monte Carlo with the reverse kernel as proposal.

    Weights are updated by exp((v' - v)/beta) and kept in log space; when
    the effective sample size drops below ``ess_threshold_frac * N`` the
    particles are resampled and the weights reset to one.
    """
    r = _Runner(plan, gmm, reward, budget, seed)
    n = budget.total_nfe // budget.steps
    if n < 1:
        raise BudgetError("smc needs total_nfe >= steps")
    beta = reward.kl_temperature
    x = np.stack([r.initial(i) for i in range(n)])
    values = r.value(x, plan.grid[0])  # initial noises: uncharged by convention
    log_w = np.zeros(n)
    trace = {"resampled": [], "weights_after_resample": []} if with_trace else None
    for i in range(plan.steps):
        resampled = log_ess(log_w) < ess_threshold_frac * n
        if resampled:
            ancestors = resample_multinomial(
                np.exp(log_w - log_w.max()), n, streams.stream(seed, streams.RESAMPLE, i)
            )
            x = x[ancestors]
            values = values[ancestors]
            log_w = np.zeros(n)
        if with_trace:
            trace["resampled"].append(resampled)
            if resampled:
                trace["weights_after_resample"].append(np.exp(log_w).copy())
        z = r.noise(i, 0, n)
        r.charge(i, n)
        x = r.step_batch(x, i, z)
        new_values = r.value(x, plan.grid[i + 1])
        log_w = log_w + (new_values - values) / beta
        values = new_values
    return r.result(x, values, trace)  # at t=0 the value is the reward itself


def run_svdd(
    plan: StepPlan,
    gmm: GaussianMixtureModel,
    reward: RewardSpec,
    budget: SearchBudget,
    seed: int,
    k: int = 25,
) -> SearchResult:
    """At every step draw ``k`` proposals from the current latent and keep the
    argmax-value one (the beta -> 0 limit of the soft policy).

    The budget is split into ``total // (steps * k)`` independent batches
    (the paper's N); the best final sample across batches is returned.
    """
    r = _Runner(plan, gmm, reward, budget, seed)
    if k < 1:
        raise DomainError("k must be >= 1")
    steps = plan.steps
    batches = max(1, budget.total_nfe // (steps * k))
    finals: list[np.ndarray] = []
    for b, share in enumerate(_uniform_split(budget.total_nfe, batches)):
        quotas = _uniform_split(share, steps)
        x = r.initial(b)
        for i in range(steps):
            draws = min(k, quotas[i])
            if draws < 1:
                raise BudgetError("svdd step quota fell to zero")
            z = r.noise(i, b * k, draws)
            r.charge(i, draws)
            proposals = r.step_batch(np.tile(x, (draws, 1)), i, z)
            if draws == 1:
                x = proposals[0]
                continue
            values = r.value(proposals, plan.grid[i + 1])
            x = proposals[_argmax_first(values)]
        finals.append(x)
    return r.result(finals)


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
    stochastic chains per survivor and keep the argmax-value endpoint."""
    r = _Runner(plan, gmm, reward, budget, seed)
    if interval < 1 or k < 1:
        raise DomainError("interval and k must be >= 1")
    steps = plan.steps
    batches = max(1, budget.total_nfe // (steps * k))
    finals: list[np.ndarray] = []
    for b, share in enumerate(_uniform_split(budget.total_nfe, batches)):
        spent = 0
        x = r.initial(b)
        i0 = 0
        while i0 < steps:
            span = min(interval, steps - i0)
            remaining_blocks = steps - i0 - span
            avail = share - spent - remaining_blocks  # reserve 1-chain finish
            k_eff = max(1, min(k, avail // span))
            chains = np.tile(x, (k_eff, 1))
            for off in range(span):
                i = i0 + off
                z = r.noise(i, b * k, k_eff)
                r.charge(i, k_eff)
                spent += k_eff
                chains = r.step_batch(chains, i, z)
            if k_eff > 1:
                values = r.value(chains, plan.grid[i0 + span])
                x = chains[_argmax_first(values)]
            else:
                x = chains[0]
            i0 += span
        finals.append(x)
    return r.result(finals)


def run_rbf(
    plan: StepPlan,
    gmm: GaussianMixtureModel,
    reward: RewardSpec,
    budget: SearchBudget,
    seed: int,
    batches: int = 2,
    with_trace: bool = False,
) -> SearchResult:
    """Rollover budget forcing.

    Per batch, one NFE is reserved to value the initial noise (the incumbent
    reward r*), and the rest is split uniformly into per-step quotas.  At
    each step, proposals are drawn sequentially; the first one whose value
    exceeds r* is accepted immediately and the unspent quota rolls over to
    the next step.  If the quota is exhausted the argmax-value proposal is
    taken (without updating r*).
    """
    r = _Runner(plan, gmm, reward, budget, seed)
    if batches < 1:
        raise DomainError("batches must be >= 1")
    steps = plan.steps
    shares = _uniform_split(budget.total_nfe, batches)
    if min(shares) < steps + 1:
        raise BudgetError("each rbf batch needs at least steps + 1 NFEs")
    init_charges = 0
    finals: list[np.ndarray] = []
    trace: dict = {"batches": []} if with_trace else None
    for b, share in enumerate(shares):
        quotas = _uniform_split(share - 1, steps)
        batch_trace = {"quotas_at_entry": [], "accepted_at": []} if with_trace else None
        x = r.initial(b)
        budget.charge(1)  # valuing the fresh initial latent costs one call
        init_charges += 1
        r_star = float(r.value(x, plan.grid[0]))
        stride = b * budget.total_nfe  # disjoint particle indices per batch
        for i in range(steps):
            q = quotas[i]
            if q < 1:
                raise BudgetError("rbf step quota fell to zero")
            if with_trace:
                batch_trace["quotas_at_entry"].append(list(quotas[i:]))
            proposals = np.empty((q, gmm.dim))
            values = np.empty(q)
            accepted = None
            spent = 0
            for j in range(1, q + 1):
                z = r.noise(i, stride + j, 1)
                r.charge(i, 1)
                spent = j
                xj = r.step_batch(x[None, :], i, z)[0]
                vj = float(r.value(xj, plan.grid[i + 1]))
                proposals[j - 1] = xj
                values[j - 1] = vj
                if vj > r_star:
                    if i + 1 < steps:
                        quotas[i + 1] += q - j
                    r_star = vj
                    accepted = xj
                    break
            if accepted is None:
                accepted = proposals[_argmax_first(values[:spent])]
            if with_trace:
                batch_trace["accepted_at"].append(spent)
            x = accepted
        finals.append(x)
        if with_trace:
            trace["batches"].append(batch_trace)
    if with_trace:
        trace["init_charges"] = init_charges
    return r.result(finals, trace=trace)


SAMPLERS = {
    "bon": best_of_n,
    "sop": search_over_paths,
    "smc": run_smc,
    "code": run_code,
    "svdd": run_svdd,
    "rbf": run_rbf,
}
