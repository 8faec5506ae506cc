"""Nonstationary data generators with known marginals and mixing profiles.

Covariates are uniform on a product region (a cube inscribed in the unit
ball, or the unit interval), optionally made serially dependent through a
latent Gaussian AR(1) or a symmetric 2-state Markov chain; the marginal
law stays fixed over time so the weighted population optimum has a closed
form.  Responses follow either a drifting linear model or a constant-mean
model with drifting variance on the interval law; the noise is
independent over time and truncated in both.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .mixing import MixingProfile
from .weights import WeightVector

# Noise is a standard normal conditioned on |x| <= 4, rescaled to unit
# standard deviation; the rescale stretches the support to +-TRUNC_SUPPORT.
TRUNC_LIMIT = 4.0
_PHI4 = math.exp(-TRUNC_LIMIT**2 / 2) / math.sqrt(2 * math.pi)
_Z4 = math.erf(TRUNC_LIMIT / math.sqrt(2))  # P(|x| <= 4) for a standard normal
TRUNC_SD = math.sqrt(1 - 2 * TRUNC_LIMIT * _PHI4 / _Z4)
TRUNC_SUPPORT = TRUNC_LIMIT / TRUNC_SD


class ProcessKind(Enum):
    DRIFTING_LINEAR = "drifting_linear"
    DRIFTING_VARIANCE = "drifting_variance"


class CovariateLaw(Enum):
    BALL = "ball"  # uniform on the cube [-1/sqrt(p), 1/sqrt(p)]^p, inside the unit ball
    INTERVAL = "interval"  # uniform on [0, 1), univariate


class ProcessSpecError(ValueError):
    """Invalid generator configuration, or a path file that does not fit it."""


def refuse_unread(spec, unread: dict, what: str, error) -> None:
    """Raise ``error`` if a field that the spec's kind does not read, one of
    ``unread[kind]``, is set away from its default; ``what`` names the object."""
    kind = getattr(spec.kind, "_value_", spec.kind)  # an Enum kind's value, or a str kind
    for name in unread[kind]:
        default = getattr(type(spec), name)  # a dataclass keeps each plain default on the class
        if (value := getattr(spec, name)) != default:
            raise error(f"{kind} {what} does not read {name}: it must keep its default {default!r}, got {value!r}")


@dataclass(frozen=True)
class DriftSpec:
    """Coefficient path t -> beta*_t of the drifting-linear kind.

    Kinds: constant, linear (interpolation between endpoints), switch
    (single change point), sinusoidal (center + amplitude * sin).
    """

    kind: str
    a: tuple[float, ...]
    b: tuple[float, ...] | None = None
    at: int | None = None
    cycles: float = 1.0

    def __post_init__(self) -> None:
        # float tuples keep the spec hashable, so beta_path can be memoised
        object.__setattr__(self, "a", tuple(float(v) for v in self.a))
        if self.b is not None:
            object.__setattr__(self, "b", tuple(float(v) for v in self.b))
        if self.kind not in ("constant", "linear", "switch", "sinusoidal"):
            raise ProcessSpecError(f"unknown drift kind {self.kind!r}")
        if self.kind != "constant" and (self.b is None or len(self.b) != len(self.a)):
            raise ProcessSpecError(f"{self.kind} drift needs b with as many entries as a")
        if self.kind == "switch" and self.at is None:
            raise ProcessSpecError("switch drift needs the change point at")
        refuse_unread(self, {"constant": ("b", "at", "cycles"), "linear": ("at", "cycles"),
                             "switch": ("cycles",), "sinusoidal": ("at",)}, "drift", ProcessSpecError)

    @staticmethod
    def constant(value) -> "DriftSpec":
        return DriftSpec(kind="constant", a=value)

    @staticmethod
    def linear(start, end) -> "DriftSpec":
        return DriftSpec(kind="linear", a=start, b=end)

    @staticmethod
    def switch(first, second, at: int) -> "DriftSpec":
        return DriftSpec(kind="switch", a=first, b=second, at=int(at))

    @staticmethod
    def sinusoidal(center, amplitude, cycles: float = 1.0) -> "DriftSpec":
        return DriftSpec(kind="sinusoidal", a=center, b=amplitude, cycles=float(cycles))

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
    """Serial-dependence driver for the covariates.

    kind "iid", "ar1" (latent Gaussian AR(1) per coordinate, parameter
    ``phi``), or "markov" (symmetric 2-state chain with flip probability
    ``flip``; symmetry keeps the covariate marginal uniform).
    """

    kind: str = "iid"
    phi: float = 0.0
    flip: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in ("iid", "ar1", "markov"):
            raise ProcessSpecError(f"unknown core kind {self.kind!r}")
        if self.kind == "ar1" and not 0 <= abs(self.phi) < 1:
            raise ProcessSpecError(f"AR(1) needs |phi| < 1, got {self.phi}")
        if self.kind == "markov" and not 0 < self.flip < 1:
            raise ProcessSpecError(f"flip probability must be in (0,1), got {self.flip}")
        unread = {"iid": ("phi", "flip"), "ar1": ("flip",), "markov": ("phi",)}
        refuse_unread(self, unread, "core", ProcessSpecError)


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

    def __post_init__(self) -> None:
        if self.n < 1 or self.p < 1:
            raise ProcessSpecError("n and p must be >= 1")
        if self.law is CovariateLaw.INTERVAL and self.p != 1:
            raise ProcessSpecError("interval law is univariate")
        unread = {"drifting_linear": ("mean", "var_start", "var_end"), "drifting_variance": ("drift", "noise_sd")}
        refuse_unread(self, unread, "kind", ProcessSpecError)
        if self.kind is ProcessKind.DRIFTING_VARIANCE:
            if self.law is not CovariateLaw.INTERVAL:
                raise ProcessSpecError(f"the drifting_variance kind needs the interval law, got {self.law.value}")
            if self.var_start <= 0 or self.var_end <= 0:
                raise ProcessSpecError("variances must be positive")
            required = abs(self.mean) + math.sqrt(max(self.var_start, self.var_end)) * TRUNC_SUPPORT
        else:
            if self.drift is None:
                raise ProcessSpecError("the drifting-linear kind needs a drift spec")
            if self.drift.dim != self.p:
                raise ProcessSpecError("drift dimension must match p")
            if self.noise_sd < 0:
                raise ProcessSpecError("noise_sd must be >= 0")
            # sup|z| <= 1, so |Y| <= ||beta*_t|| + noise support.
            required = self.drift.bound() + self.noise_sd * TRUNC_SUPPORT
        if self.y_bound < required - 1e-12:
            raise ProcessSpecError(
                f"y_bound={self.y_bound} cannot hold: responses reach {required:.6g}"
            )


@dataclass(frozen=True)
class SamplePath:
    """A realized trajectory of length n+1; row i holds time t = i+1.

    The final row is the held-out target time.  ``simulate(spec, seed)``
    regenerates it bit for bit.  A block of R paths stacks them, y (R, n+1)
    and z (R, n+1, p), path r in y[r] and z[r]; ``simulate(spec, seeds)``
    makes one.  A NaN or infinity in y or z is refused, naming the field.
    """

    y: np.ndarray
    z: np.ndarray
    spec: ProcessSpec

    def __post_init__(self) -> None:
        for name in ("y", "z"):
            if not np.isfinite(getattr(self, name)).all():
                raise ProcessSpecError(f"{name} has non-finite entries")


@functools.lru_cache(maxsize=16)
def law_second_moment(law: CovariateLaw, p: int) -> np.ndarray:
    """E[Z Z^T] of the p-dimensional covariate law, memoised and read-only."""
    m = np.eye(p) / (3.0 * p) if law is CovariateLaw.BALL else np.array([[1.0 / 3.0]])
    m.flags.writeable = False
    return m


@functools.lru_cache(maxsize=16)
def beta_path(spec: ProcessSpec) -> np.ndarray:
    """Coefficients for times 1..n+1, memoised per spec and returned read-only."""
    if spec.kind is not ProcessKind.DRIFTING_LINEAR:
        raise ProcessSpecError("coefficient path is defined for the drifting-linear kind")
    betas = spec.drift.path(spec.n)
    betas.flags.writeable = False
    return betas


def sigma2_path(spec: ProcessSpec) -> np.ndarray:
    """Noise variance at times 1..n+1 for the variance-drift generator (linear ramp)."""
    if spec.kind is not ProcessKind.DRIFTING_VARIANCE:
        raise ProcessSpecError("variance path is defined for the variance-drift kind")
    frac = np.arange(spec.n + 1, dtype=float) / spec.n
    return spec.var_start + frac * (spec.var_end - spec.var_start)


def mixing_profile(spec: ProcessSpec) -> MixingProfile:
    """Analytic mixing profile of the generator's covariate dependence.

    An AR(1) core drives each of the p coordinates by its own latent chain;
    the beta envelope of independent chains is the sum of the per-chain
    envelopes, and the rho coefficient is the max.
    """
    core = spec.core
    if core.kind == "markov":
        return MixingProfile.markov2(core.flip, core.flip)
    if core.kind == "ar1":
        return MixingProfile.ar1(core.phi, chains=spec.p)
    return MixingProfile.iid()


def _draw(rngs, method: str, shape: tuple) -> np.ndarray:
    """(R, *shape) draws, block r filled by ``rngs[r].<method>``."""
    out = np.empty((len(rngs), *shape))
    for rng, block in zip(rngs, out):
        getattr(rng, method)(out=block)
    return out


def _truncated_std_normal(rngs, rows: int) -> np.ndarray:
    """(R, rows) standard normals conditioned on |x| <= 4, unit-sd rescaled.

    Row r is drawn from rngs[r], redrawing its rejected entries from the
    same generator until none is left."""
    x = _draw(rngs, "standard_normal", (rows,))
    bad = np.abs(x) > TRUNC_LIMIT
    for r in np.flatnonzero(bad.any(axis=1)):
        row, row_bad = x[r], bad[r]
        while row_bad.any():
            row[row_bad] = rngs[r].standard_normal(int(row_bad.sum()))
            row_bad = np.abs(row) > TRUNC_LIMIT
    x /= TRUNC_SD
    return x


def _uniform_core(rngs, spec: ProcessSpec) -> np.ndarray:
    """(R, n+1, p) uniforms on [0,1) carrying the configured serial dependence.

    Each path draws from its own generator; the transforms after the draws
    run once on the whole block."""
    rows, core = spec.n + 1, spec.core
    if core.kind == "iid":
        return _draw(rngs, "random", (rows, spec.p))
    if core.kind == "ar1":
        # Stationary N(0,1)-marginal AR(1) columns: x_t = phi x_{t-1} + sqrt(1-phi^2) e_t.
        x0 = _draw(rngs, "standard_normal", (spec.p,))
        e = _draw(rngs, "standard_normal", (rows, spec.p))
        e *= math.sqrt(1.0 - core.phi**2)
        from scipy.signal import lfilter  # on first use: the slowest import drifterm has
        from scipy.special import ndtr

        latent, _ = lfilter([1.0], [1.0, -core.phi], e, axis=1, zi=(core.phi * x0)[:, None, :])
        return ndtr(latent)
    # symmetric 2-state chain drives the first coordinate's half-interval
    s0 = np.array([rng.random() < 0.5 for rng in rngs])
    flips = _draw(rngs, "random", (rows - 1,)) < core.flip
    u = _draw(rngs, "random", (rows, spec.p))
    parity = np.concatenate([np.zeros((len(rngs), 1), dtype=int), np.cumsum(flips, axis=1) % 2], axis=1)
    states = (s0[:, None].astype(int) + parity) % 2
    u[:, :, 0] = (states + u[:, :, 0]) / 2.0
    return u


def _signal(betas: np.ndarray, z: np.ndarray) -> np.ndarray:
    """beta*_t . z_t for every row of every path of a block, (R, n+1).

    Up to p = 2 the sum has at most two terms, so it is one product per
    coordinate and one add, the same bits as einsum in a third of the time;
    from p = 3 einsum, whose summation order fixes the bits."""
    if betas.shape[1] > 2:
        return np.einsum("tp,rtp->rt", betas, z)
    y = z[..., 0] * betas[:, 0]
    if betas.shape[1] == 2:
        y += z[..., 1] * betas[:, 1]
    return y


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): the entropy
# mixes into a pool of 4 uint32 words through a hash whose constant runs
# INIT_A * MULT_A^i, and the output words hash the pool through INIT_B * MULT_B^i.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


@functools.cache
def _hash_constants(start: int, mult: int, count: int) -> np.ndarray:
    """start * mult^i mod 2^32 for i = 0..count, as uint32, memoised and read-only."""
    constants = [start]
    for _ in range(count):
        constants.append(constants[-1] * mult & 0xFFFFFFFF)
    constants = np.array(constants, dtype=np.uint32)
    constants.flags.writeable = False
    return constants


def _hashmix(value: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of ``value`` under each constant pair along the
    last axis: xor constants[i], multiply by constants[i + 1], fold the top half."""
    value = value ^ constants[:-1]
    value *= constants[1:]
    value ^= value >> 16
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_L - y * _MIX_R
    result ^= result >> 16
    return result


def seed_states(entropy, n_words: int) -> np.ndarray:
    """For each row of the (R, k) uint32 ``entropy``, what
    ``np.random.SeedSequence(row).generate_state(n_words, np.uint64)``
    returns, (R, n_words) uint64.

    The hash constants do not depend on the data, so each step of the hash
    is one uint32 array operation over all R rows.  A row shorter than the
    pool hashes as if padded with zeros, as SeedSequence does; words past
    the pool mix into every pool word.
    """
    entropy = np.asarray(entropy, dtype=np.uint32)
    rows, k = entropy.shape
    constants = _hash_constants(_INIT_A, _MULT_A, _POOL * _POOL + _POOL * max(0, k - _POOL))
    pool = np.zeros((rows, _POOL), dtype=np.uint32)
    pool[:, : min(k, _POOL)] = entropy[:, :_POOL]
    pool = _hashmix(pool, constants[: _POOL + 1])
    at = _POOL
    for src in range(_POOL):  # mix every pool word into every other one
        dst = [d for d in range(_POOL) if d != src]
        pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, src, None], constants[at : at + _POOL]))
        at += _POOL - 1
    for src in range(_POOL, k):  # then each remaining entropy word into every pool word
        pool = _mix(pool, _hashmix(entropy[:, src, None], constants[at : at + _POOL + 1]))
        at += _POOL
    state = _hashmix(pool[:, np.arange(2 * n_words) % _POOL], _hash_constants(_INIT_B, _MULT_B, 2 * n_words))
    # each uint64 is a pair of words, low word first, whatever the byte order
    return state.astype("<u4", order="C").view("<u8").astype(np.uint64)


def _words(value: int) -> list[int]:
    """A non-negative int as SeedSequence reads it: its uint32 words, low word first, at least one."""
    return [value >> shift & 0xFFFFFFFF for shift in range(0, max(value.bit_length(), 1), 32)]


def spawn_seeds(base_seed: int, spawn_keys) -> np.ndarray:
    """uint64: for each non-empty spawn key,
    ``np.random.SeedSequence(base_seed, spawn_key=key).generate_state(1, np.uint64)[0]``,
    hashed together.

    The entropy is the base seed's words, padded with zeros to the pool,
    then the key's words.  Consecutive keys with as many words hash as one
    array; an entry of 2^32 or more has a word more.
    """
    base = _words(base_seed)
    base += [0] * (_POOL - len(base))
    entropy = [  # a key whose entries are all below 2^32 is its own words
        base + (list(key) if max(key) >> 32 == 0 else [word for entry in key for word in _words(entry)])
        for key in spawn_keys
    ]
    return np.concatenate([
        seed_states(np.array(list(rows), dtype=np.uint32), 1)[:, 0]
        for _, rows in itertools.groupby(entropy, len)
    ])


def pcg64_words(seeds) -> np.ndarray:
    """(R, 4) uint64: the words PCG64 seeds itself with from each uint64 seed,
    ``np.random.SeedSequence(seed).generate_state(4, np.uint64)``.

    A seed below 2^32 is one entropy word, which hashes as the two words
    (seed, 0) do."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    entropy = np.stack([seeds & np.uint64(0xFFFFFFFF), seeds >> np.uint64(32)], axis=1)
    return seed_states(entropy, 4)


class _WordSeed(int):
    """An int seed that carries its PCG64 seed words, a numpy ISeedSequence:
    the generator built from it reads the words instead of hashing the int."""

    def __new__(cls, seed: int, words: np.ndarray):
        self = super().__new__(cls, seed)
        self.words = words
        return self

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words == 4 and np.dtype(dtype) == np.uint64:  # what PCG64 asks for
            return self.words
        return np.random.SeedSequence(int(self)).generate_state(n_words, dtype)


@functools.cache
def _register_word_seed() -> None:
    from numpy.random.bit_generator import ISeedSequence  # on first use: set-up never loads numpy.random

    ISeedSequence.register(_WordSeed)


def word_seeds(seeds, words: np.ndarray) -> list:
    """The int ``seeds`` of a block, each carrying its row of ``words``, the
    (R, 4) ``pcg64_words`` of the seeds: ``np.random.default_rng`` builds
    from each the generator the int gives, without hashing it again."""
    _register_word_seed()
    return [_WordSeed(seed, row) for seed, row in zip(seeds, words)]


def simulate(spec: ProcessSpec, seed) -> SamplePath:
    """Generate a trajectory of length n+1; pure function of (spec, seed).

    ``seed`` is an int, or a sequence of ints for a block of paths (path r
    from seed r, bit for bit the path that seed alone gives); an int from
    ``word_seeds`` builds its generator from the words it carries.  Each path
    makes its own draws from its own generator: the covariate core, then the
    noise, then the noise's rejection redraws.  Every transform after the
    draws runs once on the whole block, and a single path is a block of one.
    """
    single = np.ndim(seed) == 0
    rngs = [np.random.default_rng(s) for s in ((seed,) if single else seed)]
    z = _uniform_core(rngs, spec)
    if spec.law is CovariateLaw.BALL:  # (2u - 1) / sqrt(p), in place
        z *= 2.0
        z -= 1.0
        z /= math.sqrt(spec.p)
    noise = _truncated_std_normal(rngs, spec.n + 1)
    if spec.kind is ProcessKind.DRIFTING_VARIANCE:
        y = spec.mean + np.sqrt(sigma2_path(spec)) * noise
    else:
        noise *= spec.noise_sd
        y = _signal(beta_path(spec), z)
        y += noise
    if single:
        y, z = y[0], z[0]
    y.flags.writeable = False
    z.flags.writeable = False
    return SamplePath(y=y, z=z, spec=spec)


def population_optimum_weighted(spec: ProcessSpec, w: WeightVector) -> np.ndarray:
    """Measurable minimizer of the weighted population risk.

    With a shared covariate law and weights summing to one, the pointwise
    quadratic is strictly convex even for signed weights, so the optimum
    is the weighted average of the per-time regression coefficients (a
    single constant for the variance-drift generator).
    """
    if spec.kind is ProcessKind.DRIFTING_VARIANCE:
        return np.array([spec.mean])
    if w.entries.shape[0] != spec.n:
        raise ProcessSpecError(f"weight length {w.entries.shape[0]} != n={spec.n}")
    return w.entries @ beta_path(spec)[: spec.n]


def population_optimum_next(spec: ProcessSpec, t: int) -> np.ndarray:
    """Regression coefficients of the target-time conditional expectation at t+1."""
    if not 1 <= t <= spec.n:
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


def _path_csv_columns(p: int) -> list[str]:
    return ["t", "y"] + [f"z_{j + 1}" for j in range(p)]


def write_path_csv(path: SamplePath, stream) -> None:
    """CSV with header t,y,z_1..z_p, times 1..n+1."""
    stream.write(",".join(_path_csv_columns(path.z.shape[1])) + "\n")
    for i in range(path.y.shape[0]):
        zs = ",".join(repr(float(v)) for v in path.z[i])
        stream.write(f"{i + 1},{float(path.y[i])!r},{zs}\n")


def read_csv(text: str, columns: dict, name: str, error=ProcessSpecError) -> list[list]:
    """The rows of a CSV whose header is the ``columns`` names, each value parsed with its type.

    A wrong header, a line with the wrong number of fields, or a value that
    does not parse or is not finite raises ``error`` naming the line and
    column.  Empty lines are skipped.
    """
    header = ",".join(columns)
    lines = text.split("\n")
    if lines[0] != header:
        raise error(f"{name} line 1: expected the header {header!r}, got {lines[0]!r}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(columns):
            raise error(f"{name} line {lineno}: expected {len(columns)} fields, got {len(parts)}")
        row = []
        for (column, kind), part in zip(columns.items(), parts):
            where = f"{name} line {lineno}: {column}"
            try:
                row.append(kind(part))
            except ValueError:
                raise error(f"{where}: expected {kind.__name__}, got {part!r}") from None
            if not math.isfinite(row[-1]):
                raise error(f"{where}: non-finite {part}")
        rows.append(row)
    return rows


def read_path_csv(text: str, spec: ProcessSpec, name: str) -> SamplePath:
    """The path in a CSV that ``write_path_csv`` wrote, checked against ``spec``:
    the header t,y,z_1..z_p for spec.p, n+1 rows, and finite values."""
    rows = read_csv(text, dict.fromkeys(_path_csv_columns(spec.p), float), name)
    if len(rows) != spec.n + 1:
        raise ProcessSpecError(f"{name}: expected n+1 = {spec.n + 1} rows, got {len(rows)}")
    raw = np.array(rows)
    return SamplePath(y=raw[:, 1].copy(), z=raw[:, 2:].copy(), spec=spec)
