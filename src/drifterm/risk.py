"""Excess-risk decomposition terms and the discrepancy baseline.

For square loss with a conditional-mean target, the out-of-sample excess
risk equals the squared L2 distance between the fit and the target-time
regression function, so every term here reduces to a squared distance plus
population arithmetic that is exact for the shipped generators.  The
distance is exact for linear fits on every law and for every fit on the
interval law; only step and network fits on the ball law are Monte Carlo.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hypotheses import (
    MC_DRAWS_DEFAULT,
    FittedHypothesis,
    HypothesisClassSpec,
    HypothesisKind,
    l2_distance,
)
from .processes import (
    CovariateLaw,
    ProcessKind,
    ProcessSpec,
    beta_path,
    population_optimum_next,
    law_second_moment,
    population_optimum_weighted,
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


def learning_error(
    fit: FittedHypothesis,
    spec: ProcessSpec,
    w: WeightVector,
    *,
    draws: int = MC_DRAWS_DEFAULT,
    seed=0,
) -> tuple[float, float, str]:
    """Squared L2 distance from the fit to the weighted population optimum.

    Exact, with stderr 0, wherever ``l2_distance`` has a closed form: linear
    fits on every law, and step and network fits on the interval law (the
    target is linear, or a constant for the variance-drift generator).
    Step and network fits on the ball law are Monte Carlo with reported
    standard error; ``seed`` seeds their draws: an int, for a block also a
    list of per-row ints, or a zero-argument callable that returns one,
    called only where a draw is made.  A ``FitBlock`` gives one value and
    stderr per row, as arrays, against a target computed once for the block.
    """
    target = _population_target(spec, population_optimum_weighted(spec, w))
    return l2_distance(fit, target, spec.law, draws=draws, seed=seed)


def drift_error(spec: ProcessSpec, w: WeightVector, t: int) -> float:
    """Exact squared distance between the weighted optimum and the time-(t+1) target.

    On the variance-drift kind both optima are the same constant mean, so the
    difference is zero and the form is exactly 0.0."""
    d = population_optimum_weighted(spec, w) - population_optimum_next(spec, t)
    return float(d @ law_second_moment(spec.law, spec.p) @ d)


def excess_risk(
    fit: FittedHypothesis,
    spec: ProcessSpec,
    t: int,
    *,
    draws: int = MC_DRAWS_DEFAULT,
    seed=0,
) -> tuple[float, float, str]:
    """Out-of-sample excess square loss at target time t+1.

    Computed through the bias identity: for square loss against the
    conditional mean, the excess risk is the squared L2 distance to the
    target-time regression function (the noise variance cancels), which
    avoids differencing two Monte Carlo risk estimates.  ``seed`` is as in
    ``learning_error``: an int, a list of per-row ints, or a zero-argument
    callable that returns one, called only where a draw is made.
    """
    target = _population_target(spec, population_optimum_next(spec, t))
    return l2_distance(fit, target, spec.law, draws=draws, seed=seed)


def _discrepancy(
    spec: ProcessSpec, class_spec: HypothesisClassSpec, s: int, t: int, chain: bool
) -> float | None:
    """Closed-form sup_h E_s[loss] - E_t[loss], or with ``chain`` the sum of
    the consecutive gaps from time t up to time s.

    For the constant-mean variance-drift generator the gap is
    variance(s) - variance(t) for every hypothesis.  For the linear
    generators E_u[(Y - h)^2] is the quadratic form q(beta*_u) in the
    second-moment matrix M plus terms linear in beta*_u, so the gap is
    q(beta*_s) - q(beta*_t) (a chain telescopes to the same) plus the sup of
    the linear part at each coefficient step d: 2B ||M d|| over the
    coefficient ball, or 2B |d| sum_j int_bin_j z = B |d| over step functions
    clipped to [-B, B], whatever q (the bin integrals of z sum to 1/2).  None
    for a network class on a linear generator; a step class needs the
    interval law.
    """
    if class_spec.kind is HypothesisKind.STEP_BASIS and spec.law is not CovariateLaw.INTERVAL:
        raise RiskError(f"step class needs the interval law, got {spec.law.value}")
    if spec.kind is ProcessKind.DRIFTING_VARIANCE:
        var = sigma2_path(spec)
        return float(var[s - 1] - var[t - 1])
    if class_spec.kind is HypothesisKind.RELU_NET:
        return None
    betas = beta_path(spec)
    bs, bt = betas[s - 1], betas[t - 1]
    M = law_second_moment(spec.law, spec.p)
    d = np.diff(betas[t - 1 : s], axis=0) if chain else (bs - bt)[None]
    if class_spec.kind is HypothesisKind.LINEAR_BALL:
        # row norms as one matvec over the squares: norm(axis=1) is ~10x slower at p = 2
        sup = 2.0 * class_spec.b_bound * np.sqrt(np.square(d @ M) @ np.ones(spec.p))
    else:
        sup = class_spec.b_bound * np.abs(d[:, 0])
    return float(bs @ M @ bs - bt @ M @ bt + np.sum(sup))


def discrepancy(
    spec: ProcessSpec, class_spec: HypothesisClassSpec, s: int, t: int
) -> float | None:
    """Worst-case expected-loss gap sup_h E_s[loss] - E_t[loss] over the class.

    The closed forms are those of ``_discrepancy``.  None only for a network
    class on the drifting-linear kind (no closed form; grid maximization
    would not certify a sup): on the drifting-variance kind every hypothesis
    has the same gap.
    """
    if not (1 <= s <= spec.n + 1 and 1 <= t <= spec.n + 1):
        raise RiskError("times must lie in 1..n+1")
    return _discrepancy(spec, class_spec, s, t, chain=False)


def discrepancy_sum(spec: ProcessSpec, class_spec: HypothesisClassSpec) -> float | None:
    """Sum of the consecutive discrepancies disc(t, t-1) over times t = 2..n+1.

    It telescopes: q(beta*_{n+1}) - q(beta*_1), with q(beta) = beta^T M beta,
    plus the class's linear sup at each coefficient step beta*_t - beta*_{t-1}
    (var_{n+1} - var_1 on the drifting-variance kind).  None only for a
    network class on the drifting-linear kind.
    """
    return _discrepancy(spec, class_spec, spec.n + 1, 1, chain=True)


def risk_report(
    fit: FittedHypothesis,
    spec: ProcessSpec,
    w: WeightVector,
    t: int,
) -> RiskReport:
    """Assemble every decomposition term for one fit at target time t+1, t in 1..n.

    Monte Carlo distances take MC_DRAWS_DEFAULT draws, seeded 0 for the
    learning error and 1 for the excess risk.
    """
    if not 1 <= t <= spec.n:
        raise RiskError(f"t={t} outside 1..n={spec.n}")
    if fit.p != spec.p:
        raise RiskError(f"the fit takes p={fit.p} covariates, the spec has p={spec.p}")
    learn, learn_se, learn_mode = learning_error(fit, spec, w)
    exc, exc_se, exc_mode = excess_risk(fit, spec, t, seed=1)
    drift = drift_error(spec, w, t)
    dis = discrepancy_sum(spec, fit.class_spec)
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
