"""Recency-weight families: construction, exact norms, and covering nets.

Three families are supported, each parameterizing a normalized weight
vector over observations 1..t inside a horizon of length n:

* uniform window: mass 1/s on the last s observations,
* exponential smoothing: geometric decay with rate theta > 0,
* Brown double exponential smoothing: signed weights with decay
  theta in (0, 1].

All vectors sum to one; entries past the anchor time t are zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

# Upper end of the exponential-smoothing parameter interval (0, R).
# theta = 10 already puts > 0.9999 of the mass on the last observation.
DEFAULT_EXP_RANGE = 10.0

# Half-width used to approach open interval endpoints on search grids.
_ENDPOINT_EPS = 1e-6

# Points in the geometric parameter grid used for grid-approximate suprema.
_GRID_POINTS = 10_000

# Most (decay rate, lag) entries the Brown constants hold in one array.
_BLOCK_ENTRIES = 1 << 19


class WeightFamily(Enum):
    UNIFORM_WINDOW = "uniform"
    EXPONENTIAL = "exp"
    BROWN_DES = "brown"


# Analytic norm extremes (c1 = sup ||w||_1, bw = sup ||w||_inf / ||w||^2) of
# each family over its whole parameter domain and every anchor time.
ANALYTIC_NORM_BOUNDS = {
    WeightFamily.UNIFORM_WINDOW: (1.0, 1.0),
    WeightFamily.EXPONENTIAL: (1.0, 2.0),
    WeightFamily.BROWN_DES: (3.0, 18.0 * math.e**2),
}

# Upper end of each smoothing family's decay-rate domain: (0, R) for
# exponential smoothing, (0, 1] for Brown smoothing.
_DECAY_SUP = {WeightFamily.EXPONENTIAL: DEFAULT_EXP_RANGE, WeightFamily.BROWN_DES: 1.0}


class WeightDomainError(ValueError):
    """A weight parameter lies outside its family's domain."""


@dataclass(frozen=True)
class WeightSpec:
    """One member of a weight family: (family, anchor time t, horizon n, param).

    ``param`` is the window length s for uniform windows (integer-valued,
    1 <= s <= t) and the decay rate theta for the smoothing families.
    """

    family: WeightFamily
    t: int
    n: int
    param: float

    def __post_init__(self) -> None:
        if not (1 <= self.t <= self.n):
            raise WeightDomainError(f"need 1 <= t <= n, got t={self.t}, n={self.n}")
        p = self.param
        if self.family is WeightFamily.UNIFORM_WINDOW:
            if p != int(p) or not (1 <= p <= self.t):
                raise WeightDomainError(f"window length must be an integer in [1, t], got {p}")
        elif self.family is WeightFamily.EXPONENTIAL:
            if not p > 0:
                raise WeightDomainError(f"exponential decay rate must be > 0, got {p}")
        elif self.family is WeightFamily.BROWN_DES:
            # theta = 1 is the degenerate point mass (decay factor 0).
            if not (0 < p <= 1):
                raise WeightDomainError(f"Brown decay rate must be in (0, 1], got {p}")
        else:  # pragma: no cover
            raise WeightDomainError(f"unknown family {self.family}")


@dataclass(frozen=True)
class WeightVector:
    """A realized weight vector with cached norms.

    ``entries`` has length n; ``sum`` is 1 up to float rounding.
    """

    entries: np.ndarray
    l1: float
    l2sq: float
    linf: float
    sum: float

    @property
    def l2(self) -> float:
        return math.sqrt(self.l2sq)

    @property
    def n_eff(self) -> float:
        """Effective sample size 1 / ||w||^2."""
        return 1.0 / self.l2sq


@dataclass(frozen=True)
class WeightClassConstants:
    """Norm extremes of a weight class.

    c1 = sup ||w||_1, cw = inf ||w||_2, bw = sup ||w||_inf / ||w||_2^2,
    n_eff_max = 1 / cw^2.  ``exact`` is False when any field came from a
    finite parameter grid rather than a closed form.
    """

    c1: float
    cw: float
    bw: float
    n_eff_max: float
    exact: bool


def _from_entries(entries: np.ndarray) -> WeightVector:
    entries = np.asarray(entries, dtype=float)
    entries.flags.writeable = False
    return WeightVector(
        entries=entries,
        l1=float(np.sum(np.abs(entries))),
        l2sq=float(np.dot(entries, entries)),
        linf=float(np.max(np.abs(entries))),
        sum=float(np.sum(entries)),
    )


def _brown_blocks(theta, t: int) -> np.ndarray:
    """Unnormalized Brown weights b_k = (2 - theta (k+1)) (1-theta)^k, k = 0..t-1, a row per rate in theta."""
    k = np.arange(t, dtype=float)
    r = 1.0 - theta
    return (2.0 - theta * (k + 1.0)) * r**k


def make_weights(spec: WeightSpec) -> WeightVector:
    """Realize a weight spec as a normalized length-n vector with cached norms."""
    t, n = spec.t, spec.n
    entries = np.zeros(n)
    if spec.family is WeightFamily.UNIFORM_WINDOW:
        s = int(spec.param)
        entries[t - s : t] = 1.0 / s
    elif spec.family is WeightFamily.EXPONENTIAL:
        lags = np.arange(t - 1, -1, -1, dtype=float)  # t - i for i = 1..t
        raw = np.exp(-spec.param * lags)
        entries[:t] = raw / raw.sum()
    else:  # BROWN_DES
        theta = spec.param
        blocks = _brown_blocks(theta, t)  # index k = t - i
        total = blocks.sum()
        # The closed-form normalizer (1 + r^t (t theta - 1)) / theta is
        # provably positive; a nonpositive value indicates a bug, not a
        # model state.
        closed = (1.0 + (1.0 - theta) ** t * (t * theta - 1.0)) / theta
        if not (total > 0 and closed > 0):
            raise AssertionError(
                f"Brown normalizer must be positive, got sum={total}, closed={closed}"
            )
        entries[:t] = blocks[::-1] / total + 0.0  # clear negative zeros
    return _from_entries(entries)


def exponential_norms(theta: float, t: int) -> tuple[float, float]:
    """Closed-form (||w||^2, ||w||_inf) of exponential weights at anchor t.

    With rho = exp(-theta): ||w||_inf = (1-rho)/(1-rho^t) and
    ||w||^2 = (1-rho)^2 (1-rho^{2t}) / ((1-rho^t)^2 (1-rho^2)).
    Uses expm1 so tiny theta stays accurate.
    """
    if theta <= 0:
        raise WeightDomainError("theta must be > 0")
    one_m_rho = -math.expm1(-theta)
    one_m_rho_t = -math.expm1(-theta * t)
    one_m_rho_2t = -math.expm1(-2.0 * theta * t)
    one_m_rho_2 = -math.expm1(-2.0 * theta)
    linf = one_m_rho / one_m_rho_t
    l2sq = one_m_rho**2 * one_m_rho_2t / (one_m_rho_t**2 * one_m_rho_2)
    return l2sq, linf


def exponential_spikiness(theta: float, t: int) -> float:
    """Closed-form ||w||_inf / ||w||^2 = (1+rho)/(1+rho^t) for exponential weights."""
    rho = math.exp(-theta)
    return (1.0 + rho) / (1.0 + rho**t)


def theta_for_n_eff(n_eff: float, t: int) -> float:
    """Decay rate whose exponential weights at anchor t have 1/||w||^2 = n_eff.
    It must lie below R = DEFAULT_EXP_RANGE, the range the weight covering counts."""
    if not 1.0 <= n_eff <= t:
        raise WeightDomainError(f"reachable n_eff is [1, t], got {n_eff} with t={t}")
    from scipy.optimize import brentq

    def gap(theta: float) -> float:
        l2sq, _ = exponential_norms(theta, t)
        return 1.0 / l2sq - n_eff

    lo, hi = 1e-12, 60.0
    if gap(lo) < 0:  # n_eff above what theta -> 0 reaches (== t): only at the limit
        return lo
    theta = float(brentq(gap, lo, hi, xtol=1e-14, rtol=1e-15))
    if theta >= DEFAULT_EXP_RANGE:
        raise WeightDomainError(f"n_eff={n_eff} needs decay rate {theta:.4g}, not below R = {DEFAULT_EXP_RANGE}")
    return theta


def class_constants(family: WeightFamily, t: int) -> WeightClassConstants:
    """Norm extremes of a family over its whole parameter domain and anchors 1..t.

    Uniform windows have exact constants.  The smoothing families take the
    extremes over a geometric grid of 10^4 decay rates on their domain
    (0, R) with R = DEFAULT_EXP_RANGE, or (0, 1] for Brown, endpoints
    approached to 1e-6, flagged via ``exact=False``.  Brown extremes run
    over 25 anchors, a block of at most _BLOCK_ENTRIES (rate, lag) entries
    at a time (``_brown_blocks`` of a column of rates), so memory does not
    grow with t.
    """
    if family is WeightFamily.UNIFORM_WINDOW:
        # ||w||_1 = 1, ||w||_inf/||w||^2 = 1 for every window; min norm at s = t.
        return WeightClassConstants(
            c1=1.0, cw=1.0 / math.sqrt(t), bw=1.0, n_eff_max=float(t), exact=True
        )
    thetas = np.geomspace(_ENDPOINT_EPS, _DECAY_SUP[family] - _ENDPOINT_EPS, _GRID_POINTS)

    if family is WeightFamily.EXPONENTIAL:
        # Spikiness (1+rho)/(1+rho^t) and 1/||w||^2 both increase with t,
        # so the anchor extremes are attained at t.
        bw = max(exponential_spikiness(th, t) for th in thetas)
        cw = math.sqrt(min(exponential_norms(th, t)[0] for th in thetas))
        return WeightClassConstants(
            c1=1.0, cw=cw, bw=bw, n_eff_max=1.0 / cw**2, exact=False
        )

    # BROWN_DES: realized norms on a theta grid x anchor subgrid.  Every
    # statistic is row-wise, so blocking the rows leaves each value as is.
    t_values = np.unique(np.geomspace(1, t, 25).astype(int))
    c1 = 0.0
    bw = 0.0
    cw = math.inf
    for anchor in t_values:
        rows = max(1, _BLOCK_ENTRIES // anchor)
        for start in range(0, _GRID_POINTS, rows):
            blocks = _brown_blocks(thetas[start : start + rows, None], anchor)  # [theta_j, lag k]
            total = blocks.sum(axis=1)
            l1 = np.abs(blocks).sum(axis=1) / total
            l2sq = (blocks**2).sum(axis=1) / total**2
            linf = np.abs(blocks).max(axis=1) / total
            c1 = max(c1, float(l1.max()))
            bw = max(bw, float((linf / l2sq).max()))
            cw = min(cw, float(np.sqrt(l2sq.min())))
    return WeightClassConstants(c1=c1, cw=cw, bw=bw, n_eff_max=1.0 / cw**2, exact=False)


def build_weight_net(family: WeightFamily, t: int, epsilon: float) -> list[WeightSpec]:
    """Parameter grid whose anchor-t weight vectors form an epsilon-cover in ||.||_1
    of the family over its whole parameter domain.

    The grids use the families' Lipschitz constants in the decay rate:
    (t-1) for exponential smoothing and 20 t for Brown smoothing, with
    midpoint spacing so every parameter sits within half a step of the
    grid.  Uniform windows are enumerated exactly.  At t = 1 every member
    of a smoothing family is the point mass at time 1, so the net is one
    spec.
    """
    if epsilon <= 0:
        raise WeightDomainError(f"epsilon must be > 0, got {epsilon}")

    if family is WeightFamily.UNIFORM_WINDOW:
        return [WeightSpec(family, t=t, n=t, param=float(s)) for s in range(1, t + 1)]

    hi = _DECAY_SUP[family]
    if t == 1:  # every member is the point mass at time 1
        return [WeightSpec(family, t=t, n=t, param=0.5 * hi)]
    lip = float(t - 1) if family is WeightFamily.EXPONENTIAL else 20.0 * t
    step = epsilon / lip
    count = max(1, math.ceil(hi / step))
    params = (np.arange(count) + 0.5) * step
    params = np.minimum(params, hi - 1e-12 * max(1.0, hi))
    return [WeightSpec(family, t=t, n=t, param=float(p)) for p in params]


def covering_number_bound(family: WeightFamily, epsilon: float, n: int) -> float:
    """Analytic upper bound on the ||.||_1 covering number of a weight class:
    the union over anchors 1..n of the family's members at horizon n.

    Bounds: uniform n(n+1)/2, the member count, which a fine cover needs
    since distinct windows lie at least 2/n apart; exponential
    3Rn^2/(2 eps) with R = DEFAULT_EXP_RANGE; Brown 60n^2/eps.  Floored at
    1 since a nonempty class always needs at least one ball.
    """
    if epsilon <= 0:
        raise WeightDomainError(f"epsilon must be > 0, got {epsilon}")
    if family is WeightFamily.UNIFORM_WINDOW:
        bound = n * (n + 1) / 2.0
    elif family is WeightFamily.EXPONENTIAL:
        bound = 3.0 * DEFAULT_EXP_RANGE * n**2 / (2.0 * epsilon)
    else:
        bound = 60.0 * n**2 / epsilon
    return max(1.0, bound)


def class_rate_inputs(family: WeightFamily, n: int) -> dict:
    """The ``RateParameters`` fields that a weight class at horizon n owns,
    by name: c1, cw, bw and log_n1_w (eps -> log N1).

    c1 and bw are the family's ANALYTIC_NORM_BOUNDS.  cw = 1/sqrt(n), since
    ||w||^2 >= 1/n whenever the n entries sum to one.  log N1 is the log of
    :func:`covering_number_bound`, the union over anchors 1..n.
    """
    c1, bw = ANALYTIC_NORM_BOUNDS[family]

    def log_n1(eps: float) -> float:
        return math.log(covering_number_bound(family, eps, n))

    return dict(c1=c1, cw=1.0 / math.sqrt(n), bw=bw, log_n1_w=log_n1)
