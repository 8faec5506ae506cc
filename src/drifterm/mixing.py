"""Mixing coefficients for the supported generators and derived quantities.

A :class:`MixingProfile` carries an analytic beta-coefficient function of
the lag and the geometric decay rate of the rho coefficients.  From it we
derive the block length that makes the blocked-coupling slack fall below
a confidence budget, the long-run correlation sum, and a closed-form
Bernstein-type tail certificate for weighted sums over dependent data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .weights import WeightVector


class MixingError(ValueError):
    """Invalid mixing inputs (bad confidence level, non-summable profile, ...)."""


@dataclass(frozen=True)
class MixingProfile:
    """Analytic beta coefficients and geometric rho coefficients of the lag.

    ``beta(k)`` is any function of the lag; the maximal correlation is
    rho(k) = rho_rate^k for k >= 1 and 1 at k = 0.  Every generator core
    is of this form: rate 0 for i.i.d. data, |phi| for Gaussian AR(1)
    chains and |1 - p01 - p10| for the 2-state chain.
    """

    beta: Callable[[int], float]
    rho_rate: float = 0.0

    def rho(self, k: int) -> float:
        return self.rho_rate**k if k >= 1 else 1.0

    @staticmethod
    def iid() -> "MixingProfile":
        return MixingProfile(beta=lambda k: 0.0 if k >= 1 else 1.0)

    @staticmethod
    def ar1(phi: float, *, chains: int = 1) -> "MixingProfile":
        """Profile for (functions of) stationary Gaussian AR(1) chains.

        rho(k) = |phi|^k is the Gaussian maximal-correlation identity; the
        beta coefficient uses the envelope beta(k) <= |phi|^k per chain,
        multiplied by the number of independent chains driving the
        generator.  ``tests/test_mixing.py::TestAr1BetaEnvelope`` checks the
        per-chain envelope against a quadrature of the exact beta(k) for
        |phi| <= 0.9.
        """
        if not 0 <= abs(phi) < 1:
            raise MixingError(f"need |phi| < 1, got {phi}")
        a = abs(phi)
        return MixingProfile(beta=lambda k: min(1.0, chains * a**k) if k >= 1 else 1.0, rho_rate=a)

    @staticmethod
    def markov2(p01: float, p10: float) -> "MixingProfile":
        """Exact profile of a stationary 2-state Markov chain that leaves
        state 0 with probability p01 and state 1 with probability p10.

        With pi_0 = p10/(p01+p10) and lambda = 1 - p01 - p10, row i of P^k
        is pi + lambda^k (e_i - pi), so the total-variation formula gives
        beta(k) = 2 pi_0 pi_1 |lambda|^k, and rho(k) = |lambda|^k is the
        second-eigenvalue decay, exact for binary state spaces.
        """
        if not (0 <= p01 <= 1 and 0 <= p10 <= 1) or p01 + p10 == 0:
            raise MixingError(f"need flip probabilities in [0, 1], not both 0; got {p01}, {p10}")
        pi0 = p10 / (p01 + p10)
        lam = abs(1.0 - p01 - p10)
        return MixingProfile(beta=lambda k: 2.0 * pi0 * (1.0 - pi0) * lam**k, rho_rate=lam)


class BlockLength(NamedTuple):
    """Block length result; ``satisfied`` is False when no m <= n qualifies."""

    m: int
    satisfied: bool


def m_beta(profile: MixingProfile, n: int, delta: float) -> BlockLength:
    """Smallest m in {1..n} with (n/m) beta(m) <= delta.

    Returns ``BlockLength(n, False)`` when no block length qualifies.
    """
    if not 0 < delta < 1:
        raise MixingError(f"delta must be in (0,1), got {delta}")
    if n < 1:
        raise MixingError(f"n must be >= 1, got {n}")
    for m in range(1, n + 1):
        if (n / m) * profile.beta(m) <= delta:
            return BlockLength(m, True)
    return BlockLength(n, False)


def k_rho(profile: MixingProfile) -> float:
    """Long-run correlation sum 1 + 2 sum_{k>=1} rho(k) in closed form.

    With rho(k) = r^k the geometric series gives (1 + r) / (1 - r); a rate
    r >= 1 (the periodic chain ``markov2(1, 1)``) has no finite sum.
    """
    r = profile.rho_rate
    if not 0 <= r < 1:
        raise MixingError(f"the correlation sum needs a rho rate in [0, 1), got {r}")
    return (1.0 + r) / (1.0 - r)


def blocked_bernstein_tail(
    v: float,
    b: float,
    m: int,
    w: WeightVector,
    k_rho_value: float,
    s: float,
) -> float:
    """Closed-form tail certificate for a blocked weighted centered sum.

    Upper-bounds the probability that the weighted centered sum of a
    function bounded by ``b`` with second moment at most ``v``, computed
    over data coupled into independent blocks of length ``m``, exceeds
    ``s``:  4 exp(-s^2 / (8 v ||w||^2 K_rho + 3 m b ||w||_inf s)), capped
    at 1.
    """
    if v <= 0 or b <= 0 or s <= 0 or m < 1:
        raise MixingError("v, b, s must be positive and m >= 1")
    if k_rho_value < 1:
        raise MixingError(f"long-run correlation sum must be >= 1, got {k_rho_value}")
    denom = 8.0 * v * w.l2sq * k_rho_value + 3.0 * m * b * w.linf * s
    return min(1.0, 4.0 * math.exp(-(s**2) / denom))
