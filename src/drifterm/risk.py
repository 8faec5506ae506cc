"""Excess-risk decomposition terms and the discrepancy baseline.

For square loss with a conditional-mean target, the out-of-sample excess
risk equals the squared L2 distance between the fit and the target-time
regression function, so every term here reduces to an (exact or Monte
Carlo) squared distance plus population arithmetic that is exact for the
shipped generators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hypotheses import (
    FittedHypothesis,
    HypothesisClassSpec,
    HypothesisKind,
    l2_distance,
)
from .processes import (
    ProcessKind,
    ProcessSpec,
    beta_path,
    population_optimum_next,
    population_optimum_weighted,
    second_moment,
    sigma2_path,
)
from .weights import WeightVector

# Square loss makes the decomposition constant exactly 2 via
# (a + b)^2 <= 2 (a^2 + b^2).
DECOMPOSITION_CONSTANT = 2.0


class RiskError(ValueError):
    """Unsupported population computation for the given spec/class pairing."""


@dataclass(frozen=True)
class RiskReport:
    """All decomposition terms for one fitted hypothesis at one target time.

    ``modes`` maps each Monte-Carlo-capable field to "exact" or
    "monte_carlo"; stderr fields are zero in exact mode.  The discrepancy
    sum is None when the hypothesis class admits no closed form.
    """

    excess_risk: float
    learning_error: float
    drift_error: float
    discrepancy_sum: float | None
    excess_stderr: float
    learning_stderr: float
    modes: dict

    @property
    def decomposition_ok(self) -> bool:
        """excess <= 2 (learning + drift) with a 4-stderr Monte Carlo slack."""
        slack = 4.0 * (self.excess_stderr + DECOMPOSITION_CONSTANT * self.learning_stderr)
        bound = DECOMPOSITION_CONSTANT * (self.learning_error + self.drift_error)
        return self.excess_risk <= bound + slack + 1e-12


def _population_target(spec: ProcessSpec, coef: np.ndarray):
    """Population regression function as a comparison operand."""
    if spec.kind is ProcessKind.DRIFTING_VARIANCE:
        return float(coef[0])
    return np.asarray(coef, dtype=float)


def _distance_to_target(
    fit: FittedHypothesis,
    spec: ProcessSpec,
    coef: np.ndarray,
    draws: int,
    seed: int,
) -> tuple[float, float, str]:
    return l2_distance(
        fit,
        _population_target(spec, coef),
        spec.law,
        p=spec.p,
        second_moment=second_moment(spec),
        draws=draws,
        seed=seed,
    )


def learning_error(
    fit: FittedHypothesis,
    spec: ProcessSpec,
    w: WeightVector,
    *,
    draws: int = 100_000,
    seed: int = 0,
) -> tuple[float, float, str]:
    """Squared L2 distance from the fit to the weighted population optimum.

    Exact quadratic form for linear fits; Monte Carlo with reported
    standard error otherwise.
    """
    target = population_optimum_weighted(spec, w)
    return _distance_to_target(fit, spec, target, draws, seed)


def drift_error(spec: ProcessSpec, w: WeightVector, t: int) -> float:
    """Exact squared distance between the weighted optimum and the time-(t+1) target."""
    a = population_optimum_weighted(spec, w)
    b = population_optimum_next(spec, t)
    if spec.kind is ProcessKind.DRIFTING_VARIANCE:
        return float((a[0] - b[0]) ** 2)
    d = a - b
    return float(d @ second_moment(spec) @ d)


def excess_risk(
    fit: FittedHypothesis,
    spec: ProcessSpec,
    t: int,
    *,
    draws: int = 100_000,
    seed: int = 0,
) -> tuple[float, float, str]:
    """Out-of-sample excess square loss at target time t+1.

    Computed through the bias identity: for square loss against the
    conditional mean, the excess risk is the squared L2 distance to the
    target-time regression function (the noise variance cancels), which
    avoids differencing two Monte Carlo risk estimates.
    """
    target = population_optimum_next(spec, t)
    return _distance_to_target(fit, spec, target, draws, seed)


def discrepancy(
    spec: ProcessSpec,
    class_spec: HypothesisClassSpec,
    s: int,
    t: int,
) -> float | None:
    """Worst-case expected-loss gap sup_h E_s[loss] - E_t[loss] over the class.

    Closed forms: for the constant-mean variance-drift generator the gap
    is variance(s) - variance(t) for every hypothesis (any class); for the
    linear generators the supremum over a coefficient ball or over step
    functions is attained at explicit extremes.  Returns None for network
    classes (no closed form; grid maximization would not certify a sup).
    """
    if not (1 <= s <= spec.n + 1 and 1 <= t <= spec.n + 1):
        raise RiskError("times must lie in 1..n+1")
    if spec.kind is ProcessKind.DRIFTING_VARIANCE:
        var = sigma2_path(spec)
        return float(var[s - 1] - var[t - 1])
    if class_spec.kind is HypothesisKind.RELU_NET:
        return None
    betas = beta_path(spec)
    bs, bt = betas[s - 1], betas[t - 1]
    M = second_moment(spec)
    base = float(bs @ M @ bs - bt @ M @ bt)
    B = class_spec.b_bound
    if class_spec.kind is HypothesisKind.LINEAR_BALL:
        # E_u[(Y - h_beta)^2] = (beta*_u - beta)^T M (beta*_u - beta) + noise;
        # the difference is linear in beta, maximized on the ball boundary.
        return base + 2.0 * B * float(np.linalg.norm(M @ (bs - bt)))
    # step class over a univariate linear generator: per-bin linear sup
    q = class_spec.q
    edges = np.arange(q + 1, dtype=float) / q
    m1 = 0.5 * (edges[1:] ** 2 - edges[:-1] ** 2)  # integral of z over each bin
    gap = float(bs[0] - bt[0])
    return base + 2.0 * B * float(np.sum(np.abs(gap * m1)))


def discrepancy_sum(spec: ProcessSpec, class_spec: HypothesisClassSpec) -> float | None:
    """Sum of consecutive discrepancies over times 2..n+1."""
    total = 0.0
    for t in range(2, spec.n + 2):
        d = discrepancy(spec, class_spec, t, t - 1)
        if d is None:
            return None
        total += d
    return total


def risk_report(
    fit: FittedHypothesis,
    spec: ProcessSpec,
    w: WeightVector,
    t: int,
    *,
    draws: int = 100_000,
    seed: int = 0,
    include_discrepancy: bool = True,
) -> RiskReport:
    """Assemble every decomposition term for one fit at target time t+1."""
    learn, learn_se, learn_mode = learning_error(fit, spec, w, draws=draws, seed=seed)
    exc, exc_se, exc_mode = excess_risk(fit, spec, t, draws=draws, seed=seed + 1)
    drift = drift_error(spec, w, t)
    dis = discrepancy_sum(spec, fit.class_spec) if include_discrepancy else None
    return RiskReport(
        excess_risk=exc,
        learning_error=learn,
        drift_error=drift,
        discrepancy_sum=dis,
        excess_stderr=exc_se,
        learning_stderr=learn_se,
        modes={
            "learning_error": learn_mode,
            "excess_risk": exc_mode,
            "drift_error": "exact",
        },
    )
