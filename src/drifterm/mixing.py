"""Mixing coefficients for the supported generators and derived quantities.

A :class:`MixingProfile` carries analytic beta- and rho-coefficient
functions of the lag.  From it we derive the block length that makes the
blocked-coupling slack fall below a confidence budget, the long-run
correlation sum, and a closed-form Bernstein-type tail certificate for
weighted sums over dependent data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .weights import WeightVector


class MixingError(ValueError):
    """Invalid mixing inputs (bad confidence level, non-summable profile, ...)."""


@dataclass(frozen=True)
class MixingProfile:
    """Analytic beta/rho coefficient functions of the lag.

    ``rho_tail(k)`` must upper-bound sum_{j > k} rho(j); it is required for
    the long-run sum and must be None only for profiles that are never fed
    to :func:`k_rho`.
    """

    beta: Callable[[int], float]
    rho: Callable[[int], float]
    rho_tail: Callable[[int], float] | None = None

    @staticmethod
    def iid() -> "MixingProfile":
        return MixingProfile(
            beta=lambda k: 0.0 if k >= 1 else 1.0,
            rho=lambda k: 0.0 if k >= 1 else 1.0,
            rho_tail=lambda k: 0.0,
        )

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

        def beta(k: int) -> float:
            return min(1.0, chains * a**k) if k >= 1 else 1.0

        def rho(k: int) -> float:
            return a**k if k >= 1 else 1.0

        def rho_tail(k: int) -> float:
            return a ** (k + 1) / (1.0 - a) if a > 0 else 0.0

        return MixingProfile(beta=beta, rho=rho, rho_tail=rho_tail)

    @staticmethod
    def markov2(transition: np.ndarray) -> "MixingProfile":
        """Exact profile of a stationary 2-state Markov chain.

        beta(k) comes from the total-variation formula; rho(k) = |lambda_2|^k,
        the second-eigenvalue decay, which is exact for binary state spaces.
        """
        P = np.asarray(transition, dtype=float)
        _check_stochastic(P)
        if P.shape != (2, 2):
            raise MixingError("markov2 expects a 2x2 transition matrix")
        pi = stationary_distribution(P)
        lam2 = abs(1.0 - P[0, 1] - P[1, 0])

        def beta(k: int) -> float:
            return beta_markov_exact(P, pi, k)

        def rho(k: int) -> float:
            return lam2**k if k >= 1 else 1.0

        def rho_tail(k: int) -> float:
            return lam2 ** (k + 1) / (1.0 - lam2) if lam2 > 0 else 0.0

        if lam2 >= 1.0:
            rho_tail = None  # periodic/reducible: tail not summable
        return MixingProfile(beta=beta, rho=rho, rho_tail=rho_tail)


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


def k_rho(profile: MixingProfile, truncation_tol: float = 1e-10) -> float:
    """Long-run correlation sum 1 + 2 sum_{k>=1} rho(k), tail included.

    The series is truncated once the analytic tail bound drops below
    ``truncation_tol`` of the running total; the tail bound itself is added
    so the result is an upper bound tight to the tolerance.
    """
    if profile.rho_tail is None:
        raise MixingError("profile has no summable-tail bound; cannot sum rho")
    partial = 0.0
    k = 0
    max_terms = 10_000_000
    while True:
        tail = profile.rho_tail(k)
        if tail < 0:
            raise MixingError("tail bound must be nonnegative")
        if tail <= truncation_tol * max(1.0, 1.0 + 2.0 * partial):
            return 1.0 + 2.0 * (partial + tail)
        k += 1
        if k > max_terms:
            raise MixingError("rho series did not converge within the term budget")
        partial += profile.rho(k)


def _check_stochastic(P: np.ndarray) -> None:
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise MixingError("transition matrix must be square")
    if np.any(P < -1e-15) or not np.allclose(P.sum(axis=1), 1.0, atol=1e-10):
        raise MixingError("rows of the transition matrix must be probabilities summing to 1")


def stationary_distribution(P: np.ndarray) -> np.ndarray:
    """Stationary distribution of an irreducible finite chain (eigenvector method)."""
    P = np.asarray(P, dtype=float)
    _check_stochastic(P)
    vals, vecs = np.linalg.eig(P.T)
    i = int(np.argmin(np.abs(vals - 1.0)))
    pi = np.real(vecs[:, i])
    pi = np.abs(pi)
    return pi / pi.sum()


def beta_markov_exact(
    transition: np.ndarray,
    initial: np.ndarray,
    k: int,
    *,
    max_horizon: int = 1000,
) -> float:
    """Exact beta coefficient at lag k for a finite-state Markov chain.

    Computes sup_t (1/2) sum_i P(X_t = i) sum_j |P^k_{ij} - P(X_{t+k} = j)|
    via matrix powers; the supremum over t is scanned until the marginals
    stabilize (immediately, for a stationary start).
    """
    P = np.asarray(transition, dtype=float)
    _check_stochastic(P)
    mu = np.asarray(initial, dtype=float)
    if mu.shape != (P.shape[0],) or np.any(mu < -1e-15) or abs(mu.sum() - 1.0) > 1e-10:
        raise MixingError("initial must be a distribution over the states")
    if k < 0:
        raise MixingError("lag must be >= 0")

    Pk = np.linalg.matrix_power(P, k)
    best = 0.0
    mu_t = mu.copy()
    for _ in range(max_horizon):
        mu_tk = mu_t @ Pk
        val = 0.5 * float(mu_t @ np.abs(Pk - mu_tk[None, :]).sum(axis=1))
        best = max(best, val)
        mu_next = mu_t @ P
        if np.abs(mu_next - mu_t).sum() < 1e-14:
            break
        mu_t = mu_next
    return best


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
