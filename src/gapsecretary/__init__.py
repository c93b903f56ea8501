"""Secretary-problem algorithms augmented with a predicted additive gap.

The package bundles the domain types, the per-draw algorithm runners, every
closed-form guarantee, seeded instance generators, a deterministic Monte
Carlo engine, and the acceptance checks tying simulation back to the bounds.
"""

from .algorithms import (
    MultiSelectionOutcome,
    PolicySchedule,
    run_bounded_error,
    run_classical,
    run_exact_gap,
    run_l_selection_gap,
    run_robust_consistent,
    run_strict_classical,
)
from .bounds import (
    FrontierPoint,
    GuaranteeReport,
    TWO_BEST_UPPER_BOUND,
    alpha_exact,
    alpha_exact_values,
    consistency,
    frontier,
    guarantee_bounded_error,
    guarantee_exact_gap,
    l_selection_bound,
    robustness,
    tau_for_k,
    two_three_tie_prob,
)
from .core import (
    ArrivalDraw,
    SelectionOutcome,
    WeightProfile,
    best_so_far,
    normalize,
    true_gap,
)
from .generators import (
    InstanceFamily,
    SeededRng,
    gen_arrivals,
    gen_chi_squared,
    gen_exp_superstar,
    gen_exponential,
    gen_pareto_power,
    load_profiles,
    save_profiles,
)
from .montecarlo import (
    AlgorithmSpec,
    ConfigError,
    ExperimentConfig,
    GapSpec,
    RatioEstimate,
    SweepCell,
    batch_ratio_for_profiles,
    estimate_l_selection,
    estimate_ratio,
    exact_expectation_small_n,
    simulate_fixed_profile,
    simulate_fixed_profile_rules,
    sweep_k,
    sweep_sigma,
)

__version__ = "0.1.0"
