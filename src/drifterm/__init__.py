"""Toolkit for weighted empirical risk minimization under distribution drift.

Provides the three recency-weight families with exact norms and covering
nets, mixing-coefficient machinery for dependent data, nonstationary data
generators with closed-form population optima, weighted ERM fitters for
linear / step-basis / ReLU-network classes, rate-function evaluators with
bound certificates, excess-risk decomposition, and a replicated experiment
harness that verifies the predicted learning-rate exponents empirically.
"""

__version__ = "0.1.0"

from .weights import (
    WeightFamily,
    WeightSpec,
    WeightVector,
    WeightClassConstants,
    make_weights,
    class_constants,
    build_weight_net,
    covering_number_bound,
    class_rate_inputs,
    theta_for_n_eff,
)
from .mixing import (
    MixingProfile,
    m_beta,
    k_rho,
    blocked_bernstein_tail,
)
from .processes import (
    ProcessKind,
    CovariateLaw,
    DriftSpec,
    DependenceCore,
    ProcessSpec,
    SamplePath,
    simulate,
    mixing_profile,
    population_optimum_weighted,
    population_optimum_next,
)
from .hypotheses import (
    HypothesisKind,
    HypothesisClassSpec,
    FittedHypothesis,
    RankDeficientGramError,
    basis_size,
    fit_weighted_erm,
    l2_distance,
    sup_distance,
)
from .rates import (
    RateParameters,
    RateVariant,
    RateFunction,
    ConditionReport,
    complexity_term,
    closed_form_rate,
    check_rate_conditions,
    bound_certificate,
    find_scale_constant,
)
from .risk import (
    RiskReport,
    learning_error,
    drift_error,
    discrepancy,
    discrepancy_sum,
    excess_risk,
    risk_report,
)
from .harness import (
    WeightPolicy,
    ExperimentConfig,
    ExperimentResult,
    run_experiment,
    fit_slope,
    calibrate_ccal,
)
