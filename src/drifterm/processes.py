"""Nonstationary data generators with known marginals and mixing profiles.

Covariates are uniform on a product region (a cube inscribed in the unit
ball, or the unit interval), optionally made serially dependent through a
latent Gaussian AR(1) or a symmetric 2-state Markov chain; the marginal
law stays fixed over time so the weighted population optimum has a closed
form.  Responses follow either a drifting linear model with truncated
noise or a constant-mean model with drifting variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.signal import lfilter
from scipy.special import ndtr

from .mixing import MixingProfile

# Noise is a standard normal conditioned on |x| <= 4, rescaled to unit
# standard deviation; the rescale stretches the support to +-TRUNC_SUPPORT.
TRUNC_LIMIT = 4.0
_PHI4 = math.exp(-TRUNC_LIMIT**2 / 2) / math.sqrt(2 * math.pi)
_Z4 = 2 * float(ndtr(TRUNC_LIMIT)) - 1
TRUNC_SD = math.sqrt(1 - 2 * TRUNC_LIMIT * _PHI4 / _Z4)
TRUNC_SUPPORT = TRUNC_LIMIT / TRUNC_SD


class ProcessKind(Enum):
    DRIFTING_LINEAR = "drifting_linear"
    DRIFTING_VARIANCE = "drifting_variance"
    REGIME_SWITCH = "regime_switch"


class CovariateLaw(Enum):
    BALL = "ball"  # uniform on the cube [-1/sqrt(p), 1/sqrt(p)]^p, inside the unit ball
    INTERVAL = "interval"  # uniform on [0, 1), univariate


class ProcessSpecError(ValueError):
    """Invalid generator configuration."""


@dataclass(frozen=True)
class DriftSpec:
    """Coefficient path t -> beta*_t for the linear kinds.

    Kinds: constant, linear (interpolation between endpoints), switch
    (single change point), sinusoidal (center + amplitude * sin).
    """

    kind: str
    a: tuple[float, ...]
    b: tuple[float, ...] | None = None
    at: int | None = None
    cycles: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "linear", "switch", "sinusoidal"):
            raise ProcessSpecError(f"unknown drift kind {self.kind!r}")
        if self.kind != "constant" and (self.b is None or len(self.b) != len(self.a)):
            raise ProcessSpecError(f"{self.kind} drift needs b with as many entries as a")
        if self.kind == "switch" and self.at is None:
            raise ProcessSpecError("switch drift needs the change point at")

    @staticmethod
    def constant(value) -> "DriftSpec":
        return DriftSpec(kind="constant", a=tuple(float(v) for v in value))

    @staticmethod
    def linear(start, end) -> "DriftSpec":
        return DriftSpec(
            kind="linear",
            a=tuple(float(v) for v in start),
            b=tuple(float(v) for v in end),
        )

    @staticmethod
    def switch(first, second, at: int) -> "DriftSpec":
        return DriftSpec(
            kind="switch",
            a=tuple(float(v) for v in first),
            b=tuple(float(v) for v in second),
            at=int(at),
        )

    @staticmethod
    def sinusoidal(center, amplitude, cycles: float = 1.0) -> "DriftSpec":
        return DriftSpec(
            kind="sinusoidal",
            a=tuple(float(v) for v in center),
            b=tuple(float(v) for v in amplitude),
            cycles=float(cycles),
        )

    @property
    def dim(self) -> int:
        return len(self.a)

    def path(self, n: int) -> np.ndarray:
        """Coefficients for times 1..n+1 as an (n+1, dim) array (row i is time i+1)."""
        a = np.asarray(self.a, dtype=float)
        times = np.arange(1, n + 2, dtype=float)
        if self.kind == "constant":
            return np.tile(a, (n + 1, 1))
        if self.kind == "linear":
            b = np.asarray(self.b, dtype=float)
            frac = (times - 1.0) / n
            return a[None, :] + frac[:, None] * (b - a)[None, :]
        if self.kind == "switch":
            b = np.asarray(self.b, dtype=float)
            out = np.where((times <= self.at)[:, None], a[None, :], b[None, :])
            return out
        b = np.asarray(self.b, dtype=float)  # sinusoidal
        phase = np.sin(2.0 * math.pi * self.cycles * (times - 1.0) / n)
        return a[None, :] + phase[:, None] * b[None, :]

    def bound(self) -> float:
        """Upper bound on ||beta*_t||_2 over the path."""
        a = np.linalg.norm(self.a)
        if self.kind == "constant":
            return float(a)
        b = np.linalg.norm(self.b)
        if self.kind == "sinusoidal":
            return float(a + b)
        return float(max(a, b))  # segment / two levels: extremes at the endpoints


@dataclass(frozen=True)
class DependenceCore:
    """Serial-dependence driver for the covariates (and optionally the noise).

    kind "iid", "ar1" (latent Gaussian AR(1) per coordinate, parameter
    ``phi``), or "markov" (symmetric 2-state chain with flip probability
    ``flip``; symmetry keeps the covariate marginal uniform).
    """

    kind: str = "iid"
    phi: float = 0.0
    flip: float = 0.5
    beta_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("iid", "ar1", "markov"):
            raise ProcessSpecError(f"unknown core kind {self.kind!r}")
        if self.kind == "ar1" and not 0 <= abs(self.phi) < 1:
            raise ProcessSpecError(f"AR(1) needs |phi| < 1, got {self.phi}")
        if self.kind == "markov" and not 0 < self.flip < 1:
            raise ProcessSpecError(f"flip probability must be in (0,1), got {self.flip}")


@dataclass(frozen=True)
class ProcessSpec:
    kind: ProcessKind
    n: int
    p: int
    law: CovariateLaw
    core: DependenceCore
    drift: DriftSpec | None = None
    noise_sd: float = 0.0
    y_bound: float = 1.0
    mean: float = 0.0
    var_start: float = 1.0
    var_end: float = 1.0
    noise_mode: str = "iid"  # "iid" or "ar1" (latent chain independent of covariates)
    noise_phi: float = 0.0

    def __post_init__(self) -> None:
        if self.n < 1 or self.p < 1:
            raise ProcessSpecError("n and p must be >= 1")
        if self.law is CovariateLaw.INTERVAL and self.p != 1:
            raise ProcessSpecError("interval law is univariate")
        if self.noise_mode not in ("iid", "ar1"):
            raise ProcessSpecError(f"unknown noise mode {self.noise_mode!r}")
        if self.noise_mode == "ar1":
            if self.core.kind == "markov":
                raise ProcessSpecError("dependent noise is supported for iid/ar1 cores only")
            if not 0 <= abs(self.noise_phi) < 1:
                raise ProcessSpecError("noise_phi must satisfy |phi| < 1")
        if self.kind is ProcessKind.DRIFTING_VARIANCE:
            if self.var_start <= 0 or self.var_end <= 0:
                raise ProcessSpecError("variances must be positive")
            if self.noise_mode != "iid":
                raise ProcessSpecError("the variance-drift generator uses independent noise")
            required = abs(self.mean) + math.sqrt(max(self.var_start, self.var_end)) * TRUNC_SUPPORT
        else:
            if self.drift is None:
                raise ProcessSpecError("linear kinds need a drift spec")
            if self.drift.dim != self.p:
                raise ProcessSpecError("drift dimension must match p")
            if self.kind is ProcessKind.REGIME_SWITCH and self.drift.kind != "switch":
                raise ProcessSpecError("regime-switch kind needs a switch drift")
            if self.noise_sd < 0:
                raise ProcessSpecError("noise_sd must be >= 0")
            # sup|z| <= 1, so |Y| <= ||beta*_t|| + noise support.
            required = self.drift.bound() + self.noise_sd * TRUNC_SUPPORT
        if self.y_bound < required - 1e-12:
            raise ProcessSpecError(
                f"y_bound={self.y_bound} cannot hold: responses reach {required:.6g}"
            )

    @property
    def is_linear_kind(self) -> bool:
        return self.kind is not ProcessKind.DRIFTING_VARIANCE


@dataclass(frozen=True)
class SamplePath:
    """A realized trajectory of length n+1; row i holds time t = i+1.

    The final row is the held-out target time.  Regeneration from
    (spec, seed) is bit-identical.
    """

    y: np.ndarray
    z: np.ndarray
    seed: int
    spec: ProcessSpec


def second_moment(spec: ProcessSpec) -> np.ndarray:
    """Exact covariate second-moment matrix E[Z Z^T] (time-invariant)."""
    if spec.law is CovariateLaw.BALL:
        return np.eye(spec.p) / (3.0 * spec.p)
    return np.array([[1.0 / 3.0]])


def lambda_min(spec: ProcessSpec) -> float:
    """Smallest eigenvalue of the covariate second-moment matrix."""
    if spec.law is CovariateLaw.BALL:
        return 1.0 / (3.0 * spec.p)
    return 1.0 / 3.0


def beta_path(spec: ProcessSpec) -> np.ndarray:
    if not spec.is_linear_kind:
        raise ProcessSpecError("coefficient path is defined for the linear kinds")
    return spec.drift.path(spec.n)


def sigma2_path(spec: ProcessSpec) -> np.ndarray:
    """Noise variance at times 1..n+1 for the variance-drift generator (linear ramp)."""
    if spec.kind is not ProcessKind.DRIFTING_VARIANCE:
        raise ProcessSpecError("variance path is defined for the variance-drift kind")
    frac = np.arange(spec.n + 1, dtype=float) / spec.n
    return spec.var_start + frac * (spec.var_end - spec.var_start)


def mixing_profile(spec: ProcessSpec) -> MixingProfile:
    """Analytic mixing profile of the generator's dependence drivers.

    The beta envelope of several independent latent chains is the sum of
    the per-chain envelopes; the rho coefficient is the max.
    """
    chains = spec.p if spec.core.kind == "ar1" else 0
    noise_dep = spec.noise_mode == "ar1"
    if spec.core.kind == "markov":
        P = np.array(
            [[1 - spec.core.flip, spec.core.flip], [spec.core.flip, 1 - spec.core.flip]]
        )
        return MixingProfile.markov2(P)
    if spec.core.kind == "iid" and not noise_dep:
        return MixingProfile.iid()
    rate = abs(spec.core.phi) if spec.core.kind == "ar1" else 0.0
    if noise_dep:
        rate = max(rate, abs(spec.noise_phi))
        chains += 1
    return MixingProfile.ar1(rate, chains=max(chains, 1), beta_scale=spec.core.beta_scale)


def _truncated_std_normal(rng: np.random.Generator, size: int) -> np.ndarray:
    """Standard normal conditioned on |x| <= 4 (rejection), unit-sd rescaled."""
    x = rng.standard_normal(size)
    bad = np.abs(x) > TRUNC_LIMIT
    while bad.any():
        x[bad] = rng.standard_normal(int(bad.sum()))
        bad = np.abs(x) > TRUNC_LIMIT
    return x / TRUNC_SD


def _ar1_latent(rng: np.random.Generator, phi: float, shape: tuple[int, int]) -> np.ndarray:
    """Stationary N(0,1)-marginal AR(1) columns: x_t = phi x_{t-1} + sqrt(1-phi^2) e_t."""
    rows, cols = shape
    x0 = rng.standard_normal(cols)
    e = rng.standard_normal((rows, cols)) * math.sqrt(1.0 - phi**2)
    if phi == 0.0:
        out = e
        out[0] = x0  # stationary start
        return out
    out, _ = lfilter([1.0], [1.0, -phi], e, axis=0, zi=(phi * x0)[None, :])
    return out


def _uniform_core(rng: np.random.Generator, spec: ProcessSpec) -> np.ndarray:
    """(n+1, p) uniforms on [0,1) carrying the configured serial dependence."""
    rows = spec.n + 1
    core = spec.core
    if core.kind == "iid":
        return rng.random((rows, spec.p))
    if core.kind == "ar1":
        latent = _ar1_latent(rng, core.phi, (rows, spec.p))
        return ndtr(latent)
    # symmetric 2-state chain drives the first coordinate's half-interval
    s0 = rng.random() < 0.5
    flips = rng.random(rows - 1) < core.flip
    parity = np.concatenate([[0], np.cumsum(flips) % 2])
    states = (int(s0) + parity) % 2
    u = rng.random((rows, spec.p))
    u[:, 0] = (states + u[:, 0]) / 2.0
    return u


def simulate(spec: ProcessSpec, seed: int) -> SamplePath:
    """Generate a trajectory of length n+1; pure function of (spec, seed)."""
    rng = np.random.default_rng(seed)
    u = _uniform_core(rng, spec)
    if spec.law is CovariateLaw.BALL:
        z = (2.0 * u - 1.0) / math.sqrt(spec.p)
    else:
        z = u
    rows = spec.n + 1
    if spec.kind is ProcessKind.DRIFTING_VARIANCE:
        noise = _truncated_std_normal(rng, rows)
        y = spec.mean + np.sqrt(sigma2_path(spec)) * noise
    else:
        betas = beta_path(spec)
        if spec.noise_mode == "ar1" and spec.noise_sd > 0:
            latent = _ar1_latent(rng, spec.noise_phi, (rows, 1))[:, 0]
            eta = spec.noise_sd * np.clip(latent, -TRUNC_LIMIT, TRUNC_LIMIT) / TRUNC_SD
        else:
            eta = spec.noise_sd * _truncated_std_normal(rng, rows)
        y = np.einsum("tp,tp->t", betas, z) + eta
    y.flags.writeable = False
    z.flags.writeable = False
    return SamplePath(y=y, z=z, seed=int(seed), spec=spec)


def population_optimum_weighted(spec: ProcessSpec, w) -> np.ndarray:
    """Measurable minimizer of the weighted population risk.

    With a shared covariate law and weights summing to one, the pointwise
    quadratic is strictly convex even for signed weights, so the optimum
    is the weighted average of the per-time regression coefficients (a
    single constant for the variance-drift generator).
    """
    if spec.kind is ProcessKind.DRIFTING_VARIANCE:
        return np.array([spec.mean])
    entries = w.entries if hasattr(w, "entries") else np.asarray(w, dtype=float)
    if entries.shape[0] != spec.n:
        raise ProcessSpecError(f"weight length {entries.shape[0]} != n={spec.n}")
    return entries @ beta_path(spec)[: spec.n]


def population_optimum_next(spec: ProcessSpec, t: int) -> np.ndarray:
    """Regression coefficients of the target-time conditional expectation at t+1."""
    if not 1 <= t + 1 <= spec.n + 1:
        raise IndexError(f"target time {t + 1} outside 2..n+1")
    if spec.kind is ProcessKind.DRIFTING_VARIANCE:
        return np.array([spec.mean])
    return beta_path(spec)[t]


def sample_covariates(
    law: CovariateLaw, p: int, draws: int, rng: np.random.Generator
) -> np.ndarray:
    """Fresh iid draws from the marginal covariate law (for Monte Carlo integrals)."""
    u = rng.random((draws, p))
    if law is CovariateLaw.BALL:
        return (2.0 * u - 1.0) / math.sqrt(p)
    return u


def write_path_csv(path: SamplePath, stream) -> None:
    """CSV with header t,y,z_1..z_p, times 1..n+1."""
    p = path.z.shape[1]
    header = "t,y," + ",".join(f"z_{j + 1}" for j in range(p))
    stream.write(header + "\n")
    for i in range(path.y.shape[0]):
        zs = ",".join(repr(float(v)) for v in path.z[i])
        stream.write(f"{i + 1},{float(path.y[i])!r},{zs}\n")
