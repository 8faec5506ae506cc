"""Rate functions, their side conditions, and bound certificates.

Everything here is plain numeric evaluation: the complexity constant
built from covering-number bounds, the two closed-form rate families, a
grid checker for the growth conditions a valid rate must satisfy, and the
high-probability certificate r(||w||)^2 log^2(1/delta) + drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np


class RateError(ValueError):
    """Invalid rate parameters or violated construction preconditions."""


class RatePreconditionError(RateError):
    """A closed-form variant's side condition fails at this n; no rate is built."""


@dataclass(frozen=True)
class RateParameters:
    """Every constant entering the learning-error bound machinery.

    c1/cw/bw are the weight-class norm extremes, m_beta the coupling block
    length, k_rho the long-run correlation sum, c_p the cross-time L2
    comparability constant, c_inf the sup-norm link (0 if none), alpha
    the covering growth exponent, the two log-covering callables: eps ->
    log N1 for the weight class and (eps, w_l2) -> log Ninf for the
    hypothesis class, and approx_err: w_l2 -> the class's sup-norm
    approximation error (None: zero).  log_ninf_h and approx_err work
    elementwise on arrays of norms (a constant result is broadcast): the
    condition grid calls each once on all its norms, and they should call
    libm's log and pow once per element, as a point-by-point evaluation
    would.  The loss is the square loss, whose
    curvature constant is 1.  The scale constant ``a`` belongs to the rate
    (:func:`closed_form_rate`), and the confidence level delta to the
    certificate (:func:`bound_certificate`) and to ``mixing.m_beta``.
    """

    c1: float
    cw: float
    bw: float
    m_beta: int
    k_rho: float
    c_p: float
    c_inf: float
    alpha: float
    n: int
    log_n1_w: Callable[[float], float]
    log_ninf_h: Callable[[float, float], float]
    approx_err: Callable[[float], float] | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.alpha < 2:
            raise RateError("alpha must be in [0, 2)")
        if self.c_p < 1 or self.k_rho < 1 or self.m_beta < 1:
            raise RateError("need c_p >= 1, k_rho >= 1, m_beta >= 1")
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


def _log_n1(params: RateParameters, a: float) -> float:
    """log N1(eps_W) at the weight-class scale eps_W = cw^3 / (64 (1 + c1 k)),
    with the Lipschitz budget k = a^2 n^2 of the scale constant a."""
    k = a**2 * params.n**2
    value = params.log_n1_w(params.cw**3 / (64.0 * (1.0 + params.c1 * k)))
    if not np.isfinite(value):
        raise RateError("covering function undefined at the required scale")
    return value


def _log_ninf(params: RateParameters, w_l2, w_sq):
    """log Ninf(eps_w) at the hypothesis-class scale eps_w = w_l2^2 / (32 c1),
    elementwise over the norms w_l2, whose squares are w_sq."""
    u, value = np.broadcast_arrays(w_l2, params.log_ninf_h(w_sq / (32.0 * params.c1), w_l2))
    undefined = ~np.isfinite(value)
    if undefined.any():
        raise RateError(f"covering function undefined at the required scale, u={u[undefined][0]}")
    return value


def _complexity(log_n1, log_ninf):
    return 4.0 + log_n1 + 2.0 * log_ninf


def complexity_term(params: RateParameters, a: float, w_l2: float) -> float:
    """Class-complexity constant 4 + log N1(eps_W) + 2 log Ninf(eps_w).

    The discretization scales are eps_W = cw^3 / (64 (1 + c1 k)), k = a^2 n^2,
    for the weight class and eps_w = w_l2^2 / (32 c1) for the hypothesis class.
    """
    return _complexity(_log_n1(params, a), _log_ninf(params, w_l2, w_l2**2))


class RateVariant(Enum):
    I = "i"
    II = "ii"


def _power_sum(terms, power):
    """sum_i c_i power(e_i) over the (c_i, e_i) terms, added in order."""
    total = 0.0
    for coef, exponent in terms:
        total = total + coef * power(exponent)
    return total


@dataclass(frozen=True)
class RateFunction:
    """An increasing rate function u -> r(u) = sum_i c_i u^(e_i) on [cw, c1],
    with scale constant ``a`` and its (c_i, e_i) ``terms``."""

    params: RateParameters
    a: float
    terms: tuple[tuple[float, float], ...]

    @property
    def domain(self) -> tuple[float, float]:
        return (self.params.cw, self.params.c1)

    def __call__(self, u: float) -> float:
        lo, hi = self.domain
        if not lo - 1e-12 <= u <= hi + 1e-12:
            raise RateError(f"u={u} outside rate domain [{lo}, {hi}]")
        return float(_power_sum(self.terms, lambda e: u**e))


def closed_form_rate(variant: RateVariant, params: RateParameters, a: float = 1.0) -> RateFunction:
    """The two closed-form rate families.

    Variant I:  r(u) = u^(1-alpha/2) sqrt(a C log n) with the combined
    dependence constant C = c_p^2 k_rho + m_beta bw; requires C <= n.
    Variant II: r(u) = u^(1-alpha/2) sqrt(a c_p^2 k_rho log n)
    + a C' u^(2-alpha) log n with C' = m_beta bw c_p / c_inf; requires
    c_p^2 k_rho <= n, c_inf > 0 and C' <= n.  Needs a >= 1.
    """
    if not a >= 1:
        raise RateError(f"need a >= 1, got {a}")
    log_n = math.log(params.n)
    if log_n <= 0:
        raise RateError("need n >= 2 for a positive log factor")
    alpha = params.alpha
    if variant is RateVariant.I:
        c = params.c_beta_rho
        if c > params.n:
            raise RatePreconditionError(
                f"combined dependence constant {c:.3g} exceeds n={params.n}"
            )
        terms = ((math.sqrt(a * c * log_n), 1.0 - alpha / 2.0),)
    else:
        if params.c_p**2 * params.k_rho > params.n:
            raise RatePreconditionError("correlation constant exceeds n")
        if not params.c_inf > 0:
            raise RatePreconditionError(
                "the class has no sup-norm link (c_inf = 0); variant ii needs c_inf > 0"
            )
        c_inf_term = params.c_beta_inf
        if not c_inf_term <= params.n:
            raise RatePreconditionError(
                f"sup-norm dependence constant {c_inf_term:.3g} exceeds n={params.n}"
            )
        terms = (
            (math.sqrt(a * params.c_p**2 * params.k_rho * log_n), 1.0 - alpha / 2.0),
            (a * c_inf_term * log_n, 2.0 - alpha),
        )
    return RateFunction(params, a, terms)


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
    """The growth conditions of one rate on its norm grid, point by point,
    with the verdict, the numerical Lipschitz constant and the least slack;
    built by :func:`check_rate_conditions`."""

    points: tuple[ConditionPoint, ...]
    all_pass: bool
    lipschitz_estimate: float
    min_slack: float


GRID_POINTS = 256
DOUBLINGS = 40  # the scale search's budget: a = 1, 2, ..., 2^39


def default_condition_grid(params: RateParameters) -> np.ndarray:
    """GRID_POINTS log-spaced norms on [cw, c1], both endpoints exact."""
    grid = np.geomspace(params.cw, params.c1, GRID_POINTS)
    grid[0], grid[-1] = params.cw, params.c1
    return grid


class _ConditionGrid:
    """The growth conditions on one norm grid, with every term that does not
    depend on the scale constant computed once: the points u, u^2, the
    hypothesis log-covering, the approximation requirement and the powers
    u^e of the rate terms.  The covering and the approximation error each
    take the whole grid in one call.  Each pow, log and square is a scalar
    Python call per point (libm's: numpy's SIMD ones differ in the last
    ulp), so the arrays hold the doubles of a point-by-point evaluation;
    numpy only adds, multiplies, divides and compares them.  ``slack`` is
    the scale search's trial, ``report`` the full point-by-point report.
    """

    def __init__(self, params: RateParameters) -> None:
        u = np.unique(default_condition_grid(params))  # sorted, duplicates dropped
        self.u = u
        self.points = u.tolist()
        self.u_sq = _squares(u)
        self.log_ninf = _log_ninf(params, u, self.u_sq)
        approx_err = 0.0 if params.approx_err is None else params.approx_err(u)
        self.required_approx = 4.0 * _squares(np.broadcast_to(approx_err, u.shape))
        self._powers: dict[float, np.ndarray] = {}

    def _power(self, exponent: float) -> np.ndarray:
        if exponent not in self._powers:
            self._powers[exponent] = np.array([x**exponent for x in self.points])
        return self._powers[exponent]

    def _requirements(self, rate: RateFunction):
        """r(u), the growth requirement K_w(u) u^2 (c_p^2 k_rho + m_beta bw
        min{2, c_p r(u)/c_inf}), and the larger of it and the approximation
        requirement 4 approx_err(u)^2."""
        params = rate.params
        values = _power_sum(rate.terms, self._power)
        kw = _complexity(_log_n1(params, rate.a), self.log_ninf)
        local = np.minimum(2.0, params.c_p * values / params.c_inf) if params.c_inf > 0 else 2.0
        growth = kw * self.u_sq * (params.c_p**2 * params.k_rho + params.m_beta * params.bw * local)
        return values, growth, np.maximum(growth, self.required_approx)

    def slack(self, rate: RateFunction) -> float | None:
        """The least slack of a rate that meets both conditions, else None."""
        values, _, required = self._requirements(rate)
        # values * values lies within an ulp of libm's values**2: a point short
        # by more than 1e-12 fails either way, and the trial needs no squares
        if np.any(values * values < (1.0 - 1e-12) * required):
            return None
        rate_sq = _squares(values)
        return _least_slack(rate_sq, required) if np.all(rate_sq >= required) else None

    def report(self, rate: RateFunction) -> ConditionReport:
        values, growth, required = self._requirements(rate)
        rate_sq = _squares(values)
        lipschitz = 0.0
        if len(self.points) > 1:
            lipschitz = float(np.max(np.abs(np.diff(values)) / np.diff(self.u)))
        return ConditionReport(
            points=tuple(
                ConditionPoint(u, r_sq, g, approx, r_sq >= g, r_sq >= approx)
                for u, r_sq, g, approx in zip(
                    self.points, rate_sq.tolist(), growth.tolist(), self.required_approx.tolist()
                )
            ),
            all_pass=bool(np.all(rate_sq >= required)),
            lipschitz_estimate=lipschitz,
            min_slack=_least_slack(rate_sq, required),
        )


def _least_slack(rate_sq: np.ndarray, required: np.ndarray) -> float:
    """min r(u)^2 / required(u) over the norms with a positive requirement (inf if none)."""
    binding = required > 0
    slack = float(np.min(rate_sq[binding] / required[binding])) if binding.any() else math.inf
    return slack if math.isfinite(slack) else math.inf


def _squares(x: np.ndarray) -> np.ndarray:
    """x**2 by libm's pow per element, which numpy's square does not match in the last ulp."""
    return np.array([v**2 for v in x.tolist()])


def check_rate_conditions(rate: RateFunction) -> ConditionReport:
    """Verify the two growth conditions of a candidate rate on the norm grid
    :func:`default_condition_grid` of its parameters.

    Growth: r(u)^2 >= K_w(u) u^2 (c_p^2 k_rho + m_beta bw min{2, c_p
    r(u)/c_inf}).  Approximation: r(u)^2 >= 4 approx_err(u)^2 (square
    loss), with the ``approx_err`` of the rate's parameters.  Also reports
    the numerical Lipschitz constant of r and the minimal multiplicative
    slack across the grid.  This is the one builder of a report; the scale
    search returns only the slack, and ``drifterm rates`` prints the report.
    """
    return _ConditionGrid(rate.params).report(rate)


def find_scale_constant(variant: RateVariant, params: RateParameters) -> tuple[RateFunction, float]:
    """Double the scale constant from 1 until the rate passes its conditions.

    Each trial ties the Lipschitz budget to the scale via k = a^2 n^2, the
    value under which the closed-form rates' derivatives are provably
    controlled.  The grid terms that do not depend on ``a`` are computed
    once; a trial evaluates only the weight covering at its k and the
    rate's scaled terms.  Returns the first passing rate with its least
    slack, the ``min_slack`` of its :func:`check_rate_conditions` report.
    """
    rate = closed_form_rate(variant, params)  # the preconditions, before any covering
    conditions = _ConditionGrid(params)
    for _ in range(DOUBLINGS):
        slack = conditions.slack(rate)
        if slack is not None:
            return rate, slack
        rate = closed_form_rate(variant, params, 2.0 * rate.a)
    raise RateError(f"no passing scale constant within {DOUBLINGS} doublings")


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

