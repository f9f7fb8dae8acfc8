"""Joint (non-marginal) Bayesian multiple testing for AR(1) covariate selection.

The pipeline: simulate an autoregression with time-varying covariates, sample
its posterior by Gibbs, turn posterior draws into joint decisions that account
for dependence between hypotheses, measure posterior and frequentist error
rates, calibrate the rejection penalty to a target level, and check the
exponential decay of the error rates against the model's divergence-rate
exponent.
"""

__version__ = "0.1.0"

from .calibration import (
    CalibrationResult,
    CurvePoint,
    calibrate_penalty,
    feasible_alpha,
    mpbfdr_curve,
)
from .decisions import (
    PosteriorIndicators,
    additive_rule_at_penalty,
    alternative_indicators,
    joint_correct_probs,
    marginal_probs,
    optimize_decisions,
    penalized_objective,
)
from .error_rates import (
    FrequentistErrorReport,
    PosteriorErrorReport,
    RateFit,
    error_shares,
    frequentist_rates,
    posterior_rates,
    rate_fit,
)
from .exceptions import InfeasibleDesign, InvalidSpec, NumericalFailure
from .experiments import (
    DecisionEnsemble,
    RunManifest,
    ScenarioConfig,
    run_scenario,
)
from .hypotheses import (
    ComponentPartition,
    DecisionConfig,
    GroupStructure,
    TestSpec,
    TruthAssignment,
    TruthProportions,
    build_groups,
    connected_components,
    read_group_file,
    truth_from_params,
    truth_proportions,
    write_group_file,
    write_truth_file,
)
from .model_ar1 import (
    Ar1Params,
    CovariateDesign,
    Dataset,
    ErrorExponent,
    PosteriorDraws,
    PriorConfig,
    estimate_error_exponent,
    generate_design,
    gibbs_sample,
    kl_divergence_rate,
    log_likelihood_ratio,
    simulate,
)
