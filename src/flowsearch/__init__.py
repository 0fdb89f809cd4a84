"""Inference-time reward alignment for flow models on analytic benchmarks."""

from .analytic_flow import (
    GaussianMixtureModel,
    MarginalParams,
    default_benchmark_gmm,
    marginal_at,
    posterior_mean,
    score_at,
    velocity_at,
)
from .engine import (
    DiffusionCoefficient,
    StepPlan,
    make_plan,
    make_time_grid,
    run_process,
    score_from_velocity,
)
from .errors import (
    BudgetError,
    ConfigError,
    DomainError,
    FlowSearchError,
    InvariantError,
)
from .harness import (
    ExperimentConfig,
    RunRecord,
    ablate_interpolant,
    diversity_mpd,
    load_config,
    run_experiment,
    sweep,
    write_csv,
)
from .interpolants import (
    InterpolantSchedule,
    ScaleTimeMap,
    eval_schedule,
    log_snr,
    scale_time_transform,
    snr_time_inverse,
    vp_schedule,
)
from .rewards import (
    RewardSpec,
    estimate_value,
    evaluate_reward,
    guided_score,
    rare_mode_reward,
    ring_reward,
    target_point_reward,
)
from .samplers import (
    SearchBudget,
    SearchResult,
    best_of_n,
    ess,
    resample_multinomial,
    run_code,
    run_rbf,
    run_smc,
    run_svdd,
    search_over_paths,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
