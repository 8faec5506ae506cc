"""Rate functions, their side conditions, and bound certificates.

Everything here is plain numeric evaluation: the complexity constant
built from covering-number bounds, the two closed-form rate families, a
grid checker for the growth conditions a valid rate must satisfy, and the
high-probability certificate r(||w||)^2 log^2(1/delta) + drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .weights import DEFAULT_EXP_RANGE, WeightFamily, covering_number_bound


class RateError(ValueError):
    """Invalid rate parameters or violated construction preconditions."""


class RatePreconditionError(RateError):
    """A closed-form variant's side condition fails; fall back or enlarge n."""


@dataclass(frozen=True)
class RateParameters:
    """Every constant entering the learning-error bound machinery.

    c1/cw/bw are the weight-class norm extremes, m_beta the coupling block
    length, k_rho the long-run correlation sum, c_p the cross-time L2
    comparability constant, c_inf the sup-norm link (0 if none), c_l the
    loss-curvature constant, alpha the covering growth exponent, ``a`` the
    scale constant of the closed-form rates, ``k`` the Lipschitz budget
    (defaults to a^2 n^2 via :func:`find_scale_constant`), and the two
    log-covering callables: eps -> log N1 for the weight class and
    (eps, w_l2) -> log Ninf for the hypothesis class.
    """

    c1: float
    cw: float
    bw: float
    m_beta: int
    k_rho: float
    c_p: float
    c_inf: float
    c_l: float
    alpha: float
    a: float
    k: float
    delta: float
    n: int
    log_n1_w: Callable[[float], float]
    log_ninf_h: Callable[[float, float], float]

    def __post_init__(self) -> None:
        if self.a < 1 or self.k <= 0:
            raise RateError("need a >= 1 and k > 0")
        if not 0 < self.delta < 1:
            raise RateError("delta must be in (0,1)")
        if not 0 <= self.alpha < 2:
            raise RateError("alpha must be in [0, 2)")
        if self.c_p < 1 or self.c_l <= 0 or self.k_rho < 1 or self.m_beta < 1:
            raise RateError("need c_p >= 1, c_l > 0, k_rho >= 1, m_beta >= 1")
        if not 0 < self.cw <= self.c1:
            raise RateError("need 0 < cw <= c1")

    @property
    def c_beta_rho(self) -> float:
        """Combined dependence constant c_p^2 k_rho + m_beta bw."""
        return self.c_p**2 * self.k_rho + self.m_beta * self.bw

    @property
    def c_beta_inf(self) -> float:
        """Sup-norm dependence constant m_beta bw c_p / c_inf (inf if c_inf = 0)."""
        if self.c_inf <= 0:
            return math.inf
        return self.m_beta * self.bw * self.c_p / self.c_inf


def complexity_term(params: RateParameters, w_l2: float) -> float:
    """Class-complexity constant 4 + log N1(eps_W) + 2 log Ninf(eps_w).

    The discretization scales are eps_W = cw^3 / (64 (1 + c1 k)) for the
    weight class and eps_w = w_l2^2 / (32 c1) for the hypothesis class.
    """
    eps_weights = params.cw**3 / (64.0 * (1.0 + params.c1 * params.k))
    eps_hyp = w_l2**2 / (32.0 * params.c1)
    log_n1 = params.log_n1_w(eps_weights)
    log_ninf = params.log_ninf_h(eps_hyp, w_l2)
    if not (np.isfinite(log_n1) and np.isfinite(log_ninf)):
        raise RateError("covering function undefined at the required scale")
    return 4.0 + log_n1 + 2.0 * log_ninf


class RateVariant(Enum):
    I = "i"
    II = "ii"
    CUSTOM = "custom"


@dataclass(frozen=True)
class RateFunction:
    """An increasing rate function u -> r(u) on [cw, c1]."""

    variant: RateVariant
    params: RateParameters
    evaluate: Callable[[float], float]

    @property
    def domain(self) -> tuple[float, float]:
        return (self.params.cw, self.params.c1)

    def __call__(self, u: float) -> float:
        lo, hi = self.domain
        if not lo - 1e-12 <= u <= hi + 1e-12:
            raise RateError(f"u={u} outside rate domain [{lo}, {hi}]")
        return float(self.evaluate(u))


def closed_form_rate(variant: RateVariant, params: RateParameters) -> RateFunction:
    """The two closed-form rate families.

    Variant I:  r(u) = u^(1-alpha/2) sqrt(a C log n) with the combined
    dependence constant C = c_p^2 k_rho + m_beta bw; requires C <= n.
    Variant II: r(u) = u^(1-alpha/2) sqrt(a c_p^2 k_rho log n)
    + a C' u^(2-alpha) log n with C' = m_beta bw c_p / c_inf; requires
    c_p^2 k_rho <= n and C' <= n (so c_inf must be positive).
    """
    log_n = math.log(params.n)
    if log_n <= 0:
        raise RateError("need n >= 2 for a positive log factor")
    a, alpha = params.a, params.alpha
    if variant is RateVariant.I:
        c = params.c_beta_rho
        if c > params.n:
            raise RatePreconditionError(
                f"combined dependence constant {c:.3g} exceeds n={params.n}"
            )
        scale = math.sqrt(a * c * log_n)
        return RateFunction(variant, params, lambda u: u ** (1.0 - alpha / 2.0) * scale)
    if variant is RateVariant.II:
        if params.c_p**2 * params.k_rho > params.n:
            raise RatePreconditionError("correlation constant exceeds n")
        c_inf_term = params.c_beta_inf
        if not c_inf_term <= params.n:
            raise RatePreconditionError(
                f"sup-norm dependence constant {c_inf_term:.3g} exceeds n={params.n}"
            )
        scale = math.sqrt(a * params.c_p**2 * params.k_rho * log_n)
        coef = a * c_inf_term * log_n

        def evaluate(u: float) -> float:
            return u ** (1.0 - alpha / 2.0) * scale + coef * u ** (2.0 - alpha)

        return RateFunction(variant, params, evaluate)
    raise RateError("custom variants are built directly as RateFunction objects")


@dataclass(frozen=True)
class ConditionPoint:
    u: float
    rate_sq: float
    required_growth: float
    required_approx: float
    growth_ok: bool
    approx_ok: bool


@dataclass(frozen=True)
class ConditionReport:
    points: tuple[ConditionPoint, ...]
    all_pass: bool
    lipschitz_estimate: float
    min_slack: float


def default_condition_grid(params: RateParameters, points: int = 256) -> np.ndarray:
    """256 log-spaced norms on [cw, c1] plus both endpoints."""
    grid = np.geomspace(params.cw, params.c1, points)
    grid[0], grid[-1] = params.cw, params.c1
    return grid


def check_rate_conditions(
    rate: RateFunction,
    params: RateParameters,
    approx_err: Callable[[float], float] | None = None,
    grid: Sequence[float] | None = None,
) -> ConditionReport:
    """Verify the two growth conditions of a candidate rate on a norm grid.

    Growth: r(u)^2 >= K_w(u) u^2 (c_p^2 k_rho + m_beta bw min{2, c_p
    r(u)/c_inf}).  Approximation: r(u)^2 >= 4 c_l approx_err(u)^2, where
    ``approx_err`` maps a weight norm to the sup-norm approximation error
    of the class at that norm (defaults to zero for well-specified
    classes).  Also reports the numerical Lipschitz constant of r and the
    minimal multiplicative slack across the grid.
    """
    if grid is None:
        grid = default_condition_grid(params)
    grid = np.asarray(sorted(grid), dtype=float)
    if grid[0] < params.cw - 1e-12 or grid[-1] > params.c1 + 1e-12:
        raise RateError("grid must lie inside [cw, c1]")
    approx = approx_err if approx_err is not None else (lambda u: 0.0)

    pts = []
    slack = math.inf
    values = np.array([rate(float(u)) for u in grid])
    for u, r in zip(grid, values):
        kw = complexity_term(params, float(u))
        if params.c_inf > 0:
            local = min(2.0, params.c_p * r / params.c_inf)
        else:
            local = 2.0
        required_growth = kw * u**2 * (params.c_p**2 * params.k_rho + params.m_beta * params.bw * local)
        required_approx = 4.0 * params.c_l * approx(float(u)) ** 2
        r_sq = r**2
        growth_ok = r_sq >= required_growth
        approx_ok = r_sq >= required_approx
        required = max(required_growth, required_approx)
        if required > 0:
            slack = min(slack, r_sq / required)
        pts.append(
            ConditionPoint(
                u=float(u),
                rate_sq=float(r_sq),
                required_growth=float(required_growth),
                required_approx=float(required_approx),
                growth_ok=bool(growth_ok),
                approx_ok=bool(approx_ok),
            )
        )
    lipschitz = float(np.max(np.abs(np.diff(values)) / np.diff(grid))) if len(grid) > 1 else 0.0
    all_pass = all(p.growth_ok and p.approx_ok for p in pts)
    return ConditionReport(
        points=tuple(pts),
        all_pass=all_pass,
        lipschitz_estimate=lipschitz,
        min_slack=float(slack) if math.isfinite(slack) else math.inf,
    )


def find_scale_constant(
    variant: RateVariant,
    params: RateParameters,
    approx_err: Callable[[float], float] | None = None,
    grid: Sequence[float] | None = None,
    max_doublings: int = 40,
) -> tuple[RateFunction, ConditionReport]:
    """Double the scale constant from 1 until the rate passes its conditions.

    Each trial ties the Lipschitz budget to the scale via k = a^2 n^2, the
    value under which the closed-form rates' derivatives are provably
    controlled.  Returns the first passing rate with its report.
    """
    a = 1.0
    for _ in range(max_doublings):
        trial = replace(params, a=a, k=a**2 * params.n**2)
        rate = closed_form_rate(variant, trial)
        report = check_rate_conditions(rate, trial, approx_err=approx_err, grid=grid)
        if report.all_pass:
            return rate, report
        a *= 2.0
    raise RateError(f"no passing scale constant within {max_doublings} doublings")


def bound_certificate(
    rate: RateFunction, w_l2: float, delta: float, drift_term: float = 0.0
) -> float:
    """High-probability excess-risk certificate r(w_l2)^2 log^2(1/delta) + drift.

    The hidden multiplicative constant is calibrated separately (see the
    harness) and reported alongside, never folded in here.
    """
    if not 0 < delta < 1:
        raise RateError("delta must be in (0,1)")
    return rate(w_l2) ** 2 * math.log(1.0 / delta) ** 2 + drift_term


# ---------------------------------------------------------------------------
# The weight class's analytic log-covering bound, an input to the complexity
# constant; each hypothesis class gives its own (HypothesisClassSpec.rate_inputs).


def weight_class_log_covering(
    family: WeightFamily,
    scope: str,
    *,
    t: int | None = None,
    n: int | None = None,
    exp_range: float = DEFAULT_EXP_RANGE,
) -> Callable[[float], float]:
    """log of the analytic covering-number bound for a weight class."""

    def log_cover(eps: float) -> float:
        return math.log(
            covering_number_bound(family, scope, eps, t=t, n=n, exp_range=exp_range)
        )

    log_cover(1.0)  # check the scope and its t or n now, not at the first use
    return log_cover
