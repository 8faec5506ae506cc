"""Replicated experiment harness: grids, slopes, calibration, persistence.

A config describes a process template, a weight policy, a hypothesis
class, an n grid, and a replication count.  Running it simulates one path
per (n, replication), fits the weighted ERM on it under every weight
parameter of the sweep, measures the decomposition terms, attaches the
rate certificate, and aggregates log-log slopes.  Everything is
deterministic given (config, base_seed): the path seed is derived from the
base seed, the n index and the replication, so the rows of one replication
share their path (common random numbers across the weights); the fit and
Monte Carlo seeds also take the weight index, and a block derives each
stream in one hash for all its rows, only if its fits or its distances
draw from it.

The task unit is a block of replications of one grid n: its paths are
simulated as stacked arrays, and linear and step fits and their distances
are stacked array operations, each row bit for bit what its path alone
gives; only network fits run row by row.  A block whose simulation or any
fit fails is run again path by path.  A block holds at most
BLOCK_PATH_ELEMENTS path rows (replications x (n + 1)), so its memory
stays near a megabyte: 254 replications at n = 128, 3 at n = 8192.
On glibc, freed block arrays stay on the heap for the next block (mmap
threshold 1 MiB, trim threshold 4 MiB, which caps what a process keeps),
so a block does not fault in fresh pages.  With ``jobs > 1`` the blocks
after the first path run in one pool of worker processes per process: the
first pooled call opens it, later calls with the same ``jobs`` reuse it, a
call with another ``jobs`` replaces it, and it is closed at exit.  A worker
keeps only caches and heap between calls.  Results do not depend on any of
that, on the block size, the worker count or the completion order.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import math
import operator
import os
import types
import typing
from dataclasses import dataclass, replace
from enum import Enum
from itertools import chain, islice

import numpy as np

from .hypotheses import HypothesisClassSpec, HypothesisError
from .hypotheses import MC_DRAWS_DEFAULT, fit_weighted_erm
from .mixing import k_rho as k_rho_sum
from .mixing import m_beta
from .processes import ProcessSpec, mixing_profile, read_csv, simulate
from .processes import pcg64_words, spawn_seeds, word_seeds
from .rates import (
    RateParameters,
    RatePreconditionError,
    RateVariant,
    bound_certificate,
    find_scale_constant,
)
from .risk import drift_error, excess_risk, learning_error
from .weights import (
    DEFAULT_EXP_RANGE,
    WeightDomainError,
    WeightFamily,
    WeightSpec,
    class_rate_inputs,
    make_weights,
)

MAX_ROW_FAILURE_FRACTION = 0.01

# Most path rows, replications x (n + 1), in one task's block of replications:
# a block's stacked arrays stay near a megabyte whatever n is.
BLOCK_PATH_ELEMENTS = 2**15

# On glibc, blocks keep their freed arrays on the heap, so the next block
# reuses the pages and does not fault in freshly zeroed ones (a warm linear_iid
# call takes ~27 800 minor faults without this, under 60 with it).  Arrays
# below the mmap threshold come from the heap, and this one lies above the
# largest array a block allocates: its z, BLOCK_PATH_ELEMENTS x p floats, is
# 512 KiB at p = 2.  Free memory at the heap's top goes back to the kernel
# beyond the trim threshold, a few block footprints, which caps what the
# process keeps.
_MMAP_THRESHOLD_BYTES = 32 * BLOCK_PATH_ELEMENTS  # 1 MiB
_TRIM_THRESHOLD_BYTES = 4 * _MMAP_THRESHOLD_BYTES  # 4 MiB

# (pid, jobs, executor, exit finalizer) of the live worker pool, or None:
# opened by the first pooled call, owned by the process that opened it.
_pool = None

# Fewest distinct x values for a log-log slope against each x field.
SLOPE_MIN_POINTS = {"n": 5, "n_eff": 3, "param": 3}
# The Row fields that a slope may take as x and as y.
SLOPE_X_FIELDS = ("n", "n_eff", "param")
SLOPE_Y_FIELDS = ("learning_error", "drift_error", "excess_risk", "certificate")


class HarnessError(RuntimeError):
    """Configuration or execution failure at the experiment level."""


@dataclass(frozen=True)
class WeightPolicy:
    """Which weight vectors each grid cell uses.

    ``params`` is the family parameter sweep, not empty; None means the
    full uniform window (s = n), the unweighted baseline, and needs the
    uniform family.  Weights are always anchored at t = n.  Exponential
    rates must lie below DEFAULT_EXP_RANGE, the R of the class that the
    weight covering counts.
    """

    family: WeightFamily = WeightFamily.UNIFORM_WINDOW
    params: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.params is None and self.family is not WeightFamily.UNIFORM_WINDOW:
            raise HarnessError(f"weights.family: {self.family.value} needs params; null params mean the full uniform window")
        if self.params is not None and len(self.params) == 0:
            raise HarnessError("weights.params: empty sweep; give at least one parameter, or null")

    def specs(self, n: int) -> list[WeightSpec]:
        family, params = self.family, self.params or (float(n),)
        too_fast = [p for p in params if p >= DEFAULT_EXP_RANGE]
        if family is WeightFamily.EXPONENTIAL and too_fast:
            raise WeightDomainError(
                f"exponential decay rate must lie below R = {DEFAULT_EXP_RANGE}, got {too_fast[0]}"
            )
        return [WeightSpec(family, t=n, n=n, param=float(p)) for p in params]


@dataclass(frozen=True)
class ExperimentConfig:
    process: ProcessSpec  # template; n is replaced per grid point
    weights: WeightPolicy
    hypothesis: HypothesisClassSpec
    n_grid: tuple[int, ...]
    replications: int
    delta: float = 0.05
    base_seed: int = 0
    rate_variant: RateVariant = RateVariant.I
    mc_draws: int = MC_DRAWS_DEFAULT
    slope_target: float | None = None
    slope_band: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if len(self.n_grid) == 0 or any(
            b <= a for a, b in zip(self.n_grid, self.n_grid[1:])
        ):
            raise HarnessError("n_grid must be nonempty and strictly increasing")
        if self.replications < 1:
            raise HarnessError("need at least one replication")
        if not 0 < self.delta < 1:
            raise HarnessError("delta must be in (0,1)")
        if self.base_seed < 0:
            raise HarnessError(f"base_seed must be a non-negative integer, got {self.base_seed}")
        if self.mc_draws < 2:  # the fewest draws that give a Monte Carlo stderr
            raise HarnessError(f"mc_draws must be an integer >= 2, got {self.mc_draws}")
        if self.slope_band is not None:
            lo, hi = self.slope_band
            if lo > hi:
                raise HarnessError(f"slope_band: reversed band [{lo}, {hi}]")
            if self.slope_target is not None and not lo <= self.slope_target <= hi:
                raise HarnessError(f"slope_target: {self.slope_target} lies outside slope_band [{lo}, {hi}]")
        try:
            for n in self.n_grid:
                self.weights.specs(n)
        except WeightDomainError as exc:
            raise HarnessError(f"weights.params: {exc}") from exc
        try:
            self.hypothesis.class_spec(self.process, 1.0)
        except HypothesisError as exc:
            raise HarnessError(f"hypothesis: {exc}") from exc
        axis = self._sweep_axis()
        if self.slope_target is not None and axis == "n":
            if self.replications < 30:
                raise HarnessError("slope experiments need >= 30 replications")
            if len(self.n_grid) < SLOPE_MIN_POINTS["n"] or self.n_grid[-1] < 4 * self.n_grid[0]:
                raise HarnessError(f"slope n grids need >= {SLOPE_MIN_POINTS['n']} points spanning >= 2 octaves")
        if self.slope_target is not None and axis == "n_eff" and self._slope_axis() is None:
            raise HarnessError(f"weights.params: an n_eff slope needs >= {SLOPE_MIN_POINTS['n_eff']} distinct params")

    def _sweep_axis(self) -> str | None:
        if len(self.n_grid) > 1:
            return "n"
        if self.weights.params is not None and len(self.weights.params) > 1:
            return "n_eff"
        return None

    def _slope_axis(self) -> str | None:
        """The sweep axis when it has SLOPE_MIN_POINTS points for a log-log
        slope: grid n, or distinct weight params on an n_eff sweep."""
        axis = self._sweep_axis()
        points = {"n": len(self.n_grid), "n_eff": len(set(self.weights.params or ()))}
        return axis if axis is not None and points[axis] >= SLOPE_MIN_POINTS[axis] else None


@dataclass(frozen=True)
class Row:
    n: int
    param: float
    w_l2: float
    seed: int
    learning_error: float
    drift_error: float
    excess_risk: float
    certificate: float

    @property
    def n_eff(self) -> float:
        return 1.0 / self.w_l2**2


# The rows.csv columns are the Row fields, in order; each parses with its type.
_ROW_TYPES = typing.get_type_hints(Row)
_row_values = operator.attrgetter(*_ROW_TYPES)
CSV_HEADER = ",".join(_ROW_TYPES)


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    stderr: float
    r2: float
    x_field: str
    y_field: str


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    rows: tuple[Row, ...]
    slope: SlopeFit | None
    manifest: dict

    @property
    def slope_pass(self) -> bool | None:
        """Whether the slope lies in the config's slope_band (None without either)."""
        return self.manifest.get("slope_pass")


def _row_seeds(base_seed: int, i_n: int, i_param: int, reps, stream: int) -> np.ndarray:
    """The uint64 seeds of one stream for the replications ``reps`` of a cell,
    ``SeedSequence(base_seed, spawn_key=(i_n, i_param, rep, stream)).generate_state(1, uint64)``
    for each rep, hashed together."""
    return spawn_seeds(base_seed, [(i_n, i_param, rep, stream) for rep in reps])


def _block_size(n: int) -> int:
    """Replications per task at grid n: at most BLOCK_PATH_ELEMENTS path rows, at least one."""
    return max(1, BLOCK_PATH_ELEMENTS // (n + 1))


@functools.cache
def _retain_freed_memory() -> bool:
    """On glibc, set the allocator's trim and mmap thresholds to
    _TRIM_THRESHOLD_BYTES and _MMAP_THRESHOLD_BYTES, once per process, and
    return whether both were set.  Elsewhere it sets nothing; it returns
    False there and where ``mallopt`` refuses, and never raises."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return False
        import ctypes  # numpy has loaded it already

        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):  # no confstr name, no libc symbol
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    return bool(mallopt(m_trim_threshold, _TRIM_THRESHOLD_BYTES)
                and mallopt(m_mmap_threshold, _MMAP_THRESHOLD_BYTES))


def _worker_pool(jobs: int):
    """This process's pool of ``jobs`` workers, opened on first use and reused
    after.  A pool of another size is closed first; one inherited through a
    fork is only forgotten, since its manager thread stayed in the parent."""
    global _pool
    if _pool is not None and _pool[:2] != (os.getpid(), jobs):
        _close_pool()
    if _pool is None:
        from concurrent.futures import ProcessPoolExecutor  # imported here: a serial run never pays for it
        from multiprocessing.util import Finalize

        # Closed at exit by multiprocessing's exit hook: an atexit hook here,
        # and the exit path of a multiprocessing child, which runs no atexit
        # hook and would otherwise wait on its workers forever.  Priority 20
        # runs it before the queues' own finalizers (10) stop their feeders.
        _pool = (os.getpid(), jobs, ProcessPoolExecutor(max_workers=jobs),
                 Finalize(None, _close_pool, exitpriority=20))
    return _pool[2]


def _close_pool() -> None:
    """Shut the live pool down, if this process opened it, and forget it."""
    global _pool
    pool, _pool = _pool, None
    if pool is not None and pool[0] == os.getpid():
        _, _, executor, at_exit = pool
        at_exit.cancel()
        executor.shutdown()


def _block_task(payload: tuple) -> list:
    """One block of replications of one grid n: simulate its paths at once,
    then fit and measure them under each weight of the cell.  Outcomes run
    (replication, weight): ``(learning, excess)`` or a failure message.  A
    block whose simulation or any fit fails is run again path by path, so a
    failure stays with its own path's rows, or with its row.  Pure function
    of the payload; it first makes the allocator keep freed block arrays
    (``_retain_freed_memory``), process state that changes no value."""
    _retain_freed_memory()
    spec, path_seeds, words, rep0, weights, class_spec, draws, base_seed, i_n = payload
    reps = range(rep0, rep0 + len(path_seeds))
    try:
        paths = simulate(spec, word_seeds(path_seeds, words))
        per_weight = [
            _fit_outcomes(paths, spec, draws, w, class_spec, (base_seed, i_n, i_param), reps)
            for i_param, w in enumerate(weights)
        ]
    except Exception as err:  # row-level isolation; harness applies the 1% budget
        if len(path_seeds) == 1:
            return [f"{type(err).__name__}: {err}"] * len(weights)
        return [outcome for r in range(len(path_seeds)) for outcome in _block_task(_paths(payload, r, r + 1))]
    return [outcome for rep in zip(*per_weight) for outcome in rep]


def _paths(payload: tuple, start: int, stop: int | None = None) -> tuple:
    """The payload of paths start..stop-1 of a block, as a block of their own."""
    spec, path_seeds, words, rep0, *rest = payload
    return (spec, path_seeds[start:stop], words[start:stop], rep0 + start, *rest)


def _fit_outcomes(paths, spec, draws, w, class_spec, key, reps) -> list:
    """Fit one weight on a block of paths and measure each fit: one outcome
    per path.  A lone path's failure becomes its message; a block's is
    raised, and ``_block_task`` runs the block again path by path.

    ``key`` is the cell's (base_seed, i_n, i_param).  Each stream's seeds go
    in as one callable that hashes those of all ``reps`` at once: stream 2
    for a network's start, stream 1 (plus one, as a Python int, for the
    excess risk) for Monte Carlo covariates, derived only where drawn.
    """
    def seeds(stream: int, plus: int = 0):
        return lambda: [seed + plus for seed in _row_seeds(*key, reps, stream).tolist()]

    try:
        fits = fit_weighted_erm(paths, w, class_spec, seed=seeds(2))
        learn, _, _ = learning_error(fits, spec, w, draws=draws, seed=seeds(1))
        exc, _, _ = excess_risk(fits, spec, spec.n, draws=draws, seed=seeds(1, 1))
        outcomes = list(zip(learn.tolist(), exc.tolist()))
    except Exception as err:  # row-level isolation; harness applies the 1% budget
        if len(reps) > 1:
            raise
        return [f"{type(err).__name__}: {err}"]
    return [
        (learn, exc) if math.isfinite(learn) and math.isfinite(exc)
        else f"non-finite outcome: learning_error={learn!r}, excess_risk={exc!r}"
        for learn, exc in outcomes
    ]


def build_rate(cfg: ExperimentConfig, spec: ProcessSpec):
    """Rate function for one grid n, with the scale constant found by doubling, and
    its least condition slack; a block length that fails its condition is refused
    after the variant's own preconditions."""
    n = spec.n
    profile = mixing_profile(spec)
    block = m_beta(profile, n, cfg.delta)
    params = RateParameters(
        m_beta=block.m,
        k_rho=k_rho_sum(profile),
        c_p=1.0,  # time-invariant covariate law
        n=n,
        **class_rate_inputs(cfg.weights.family, n),
        **cfg.hypothesis.rate_inputs(spec),
    )
    rate, slack = find_scale_constant(cfg.rate_variant, params)
    if not block.satisfied:
        raise RatePreconditionError(f"no block length m <= n={n} has (n/m) beta(m) <= delta={cfg.delta}")
    return rate, slack


def run_experiment(
    cfg: ExperimentConfig, *, jobs: int = 1, out_dir: str | None = None
) -> ExperimentResult:
    """Execute the full grid; deterministic given (config, base_seed).

    The task unit is a block of replications of one grid n, at most
    ``_block_size(n)`` of them, so that a block holds at most
    BLOCK_PATH_ELEMENTS path rows.  A block's paths are simulated at once and
    fitted under every weight of the sweep, each row bit for bit what its
    path alone gives.  With ``jobs > 1`` the first replication runs in this
    process and the rest in a pool of ``jobs`` workers; a pool chunk holds
    about 8 paths.  The pool outlives the call: the first pooled call opens it
    after its first path, so the workers start with what that path imported
    or memoised, and later calls with the same ``jobs`` reuse it.  If the
    pooled part raises, the pool is closed and the error propagates.  A
    cell's path seeds, and the PCG64 seed words that each path's generator
    starts from, are hashed once for all its replications.  The rows do not
    depend on ``jobs``, on the block size or on what earlier calls left in
    the workers.  Rows come in
    (n, weight, replication) order.  Row-level failures (an
    exception, or a non-finite learning or excess value) are recorded in the
    manifest and tolerated up to 1% of the rows; beyond that the run aborts.
    """
    if jobs < 1:
        raise HarnessError(f"jobs must be an integer >= 1, got {jobs}")
    rows: list[Row] = []
    failures: list[dict] = []
    rate_constants: dict[int, float] = {}
    rate_min_slack: dict[int, float] = {}
    payloads = []
    cells = []  # per n: (n, path seeds, per weight (param, w_l2, drift, certificate))

    for i_n, n in enumerate(cfg.n_grid):
        spec = replace(cfg.process, n=n)
        wspecs = cfg.weights.specs(n)
        try:
            rate, rate_min_slack[n] = build_rate(cfg, spec)
        except RatePreconditionError as exc:
            raise HarnessError(f"{wspecs[0].family.value} weights at n={n}: {exc}") from exc
        rate_constants[n] = rate.a
        weights = [make_weights(wspec) for wspec in wspecs]
        meta = []
        for wspec, w in zip(wspecs, weights):
            drift = drift_error(spec, w, n)
            meta.append((float(wspec.param), w.l2, drift,
                         bound_certificate(rate, w.l2, cfg.delta, drift_term=drift)))
        seeds = _row_seeds(cfg.base_seed, i_n, 0, range(cfg.replications), 0)
        path_seeds, words = tuple(seeds.tolist()), pcg64_words(seeds)
        size = _block_size(n)
        payloads.extend(
            (spec, path_seeds[rep0 : rep0 + size], words[rep0 : rep0 + size], rep0,
             weights, cfg.hypothesis, cfg.mc_draws, cfg.base_seed, i_n)
            for rep0 in range(0, cfg.replications, size)
        )
        cells.append((n, path_seeds, meta))

    if jobs > 1:
        # a new pool forks after one path, so no worker imports scipy.signal again
        outcomes = _block_task(_paths(payloads[0], 0, 1))
        tail = _paths(payloads[0], 1)
        rest = ([tail] if tail[1] else []) + payloads[1:]
        paths = sum(len(p[1]) for p in rest)
        chunk = max(1, round(8 * len(rest) / max(1, paths)))  # about 8 paths per chunk
        try:
            outcomes += chain.from_iterable(_worker_pool(jobs).map(_block_task, rest, chunksize=chunk))
        except BaseException:  # a pool in an unknown state is never reused
            _close_pool()
            raise
    else:
        outcomes = [outcome for p in payloads for outcome in _block_task(p)]

    # outcomes run (n, replication, weight); rows run (n, weight, replication)
    outcomes = iter(outcomes)
    for n, path_seeds, meta in cells:
        cell = list(islice(outcomes, len(path_seeds) * len(meta)))
        for i_param, (param, w_l2, drift, certificate) in enumerate(meta):
            for path_seed, outcome in zip(path_seeds, cell[i_param :: len(meta)]):
                if isinstance(outcome, str):
                    failures.append({"n": n, "param": param, "seed": path_seed, "error": outcome})
                    continue
                learn, exc = outcome
                rows.append(Row(n, param, w_l2, path_seed, learn, drift, exc, certificate))

    total = len(rows) + len(failures)
    if failures and len(failures) > MAX_ROW_FAILURE_FRACTION * total:
        raise HarnessError(
            f"{len(failures)}/{total} rows failed (> {MAX_ROW_FAILURE_FRACTION:.0%})"
        )

    axis = cfg._slope_axis()
    slope = None
    if axis is not None:
        slope = fit_slope(rows, axis, "learning_error")

    manifest = build_manifest(cfg, rows, slope, rate_constants, rate_min_slack, failures)
    result = ExperimentResult(config=cfg, rows=tuple(rows), slope=slope, manifest=manifest)
    if out_dir is not None:
        write_result(result, out_dir)
    return result


def _flag_outliers(rows) -> list[dict]:
    """Rows whose learning error sits beyond 6 IQR of their grid cell.

    Flagged for the manifest only; aggregation keeps every row since the
    guarantees under test concern high-probability tails.
    """
    cells: dict[tuple, list[Row]] = {}
    for row in rows:
        cells.setdefault((row.n, row.param), []).append(row)
    flagged = []
    for (n, param), cell in cells.items():
        if len(cell) < 4:
            continue
        values = np.array([r.learning_error for r in cell])
        q1, q3 = np.quantile(values, [0.25, 0.75])
        iqr = q3 - q1
        lo, hi = q1 - 6.0 * iqr, q3 + 6.0 * iqr
        for r in cell:
            if not lo <= r.learning_error <= hi:
                flagged.append(
                    {"n": n, "param": param, "seed": r.seed, "learning_error": r.learning_error}
                )
    return flagged


def fit_slope(
    rows,
    x_field: str,
    y_field: str,
    *,
    min_points: int | None = None,
) -> SlopeFit:
    """OLS slope of log(mean y) against log x over the grid means.

    ``x_field`` is one of SLOPE_X_FIELDS and ``y_field`` one of
    SLOPE_Y_FIELDS, read from each row by name.  Rows are grouped by the x
    value and the y values averaged within each group before taking logs;
    fewer than ``min_points`` distinct x values is an error, by default
    SLOPE_MIN_POINTS of the x field.
    """
    for name, field, allowed in (("x", x_field, SLOPE_X_FIELDS), ("y", y_field, SLOPE_Y_FIELDS)):
        if field not in allowed:
            raise HarnessError(f"slope {name} field {field!r} is not one of {', '.join(allowed)}")
    if min_points is None:
        min_points = SLOPE_MIN_POINTS[x_field]
    groups: dict[float, list[float]] = {}
    for row in rows:
        groups.setdefault(float(getattr(row, x_field)), []).append(float(getattr(row, y_field)))
    if len(groups) < min_points:
        raise HarnessError(f"need >= {min_points} distinct x values, got {len(groups)}")
    xs = np.array(sorted(groups))
    ys = np.array([np.mean(groups[x]) for x in xs])
    if not np.all(np.isfinite(xs) & (xs > 0) & np.isfinite(ys) & (ys > 0)):
        raise HarnessError("log-log slope needs finite, positive x and y")
    lx, ly = np.log(xs), np.log(ys)
    design = np.vstack([np.ones_like(lx), lx]).T
    coef, *_ = np.linalg.lstsq(design, ly, rcond=None)
    pred = design @ coef
    resid = ly - pred
    dof = max(1, len(xs) - 2)
    sigma2 = float(resid @ resid) / dof
    sxx = float(np.sum((lx - lx.mean()) ** 2))
    stderr = math.sqrt(sigma2 / sxx) if sxx > 0 else math.inf
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - float(resid @ resid) / ss_tot if ss_tot > 0 else 1.0
    return SlopeFit(
        slope=float(coef[1]), stderr=stderr, r2=r2, x_field=x_field, y_field=y_field
    )


def calibrate_ccal(rows) -> float:
    """99th percentile of excess risk over the rate part of the certificate.

    ``rows`` are the rows of a run, or the same rows read back from its
    ``rows.csv``.

    The drift term is subtracted from the stored certificate so the ratio
    compares the stochastic error against r(||w||)^2 log^2(1/delta) alone;
    a zero denominator is an error.
    """
    ratios = []
    for row in rows:
        denom = row.certificate - row.drift_error
        if denom <= 0:
            raise HarnessError("certificate rate part must be positive for calibration")
        ratios.append(row.excess_risk / denom)
    if not ratios:
        raise HarnessError("no rows to calibrate on")
    return float(np.quantile(np.asarray(ratios), 0.99))


# ---------------------------------------------------------------------------
# Serialization


def config_to_dict(cfg) -> dict:
    """A config as JSON data, field by field: dataclass -> dict, Enum -> value, tuple -> list."""
    if dataclasses.is_dataclass(cfg):
        return {f.name: config_to_dict(getattr(cfg, f.name)) for f in dataclasses.fields(cfg)}
    if isinstance(cfg, Enum):
        return cfg.value
    if isinstance(cfg, tuple):
        return [config_to_dict(v) for v in cfg]
    return cfg


def config_from_dict(d: dict) -> ExperimentConfig:
    """Decode a config over the dataclass fields and their type hints.

    Omitted keys take the dataclass defaults, an omitted object (``weights``,
    ``hypothesis``, ``process.core``) is built from its own defaults, and an
    omitted ``process.n`` is the largest grid point.  A JSON int in a float
    field is kept as given, so the config hash does not move.  Unknown or
    missing keys, wrong types, bad enum values and a dataclass's own
    validation errors raise HarnessError naming the dotted field path.
    """
    process = d.get("process") if isinstance(d, dict) else None
    if isinstance(process, dict) and "n" not in process and "n_grid" in d:
        n_grid = decode(tuple[int, ...], d["n_grid"], "n_grid")
        if n_grid:
            d = {**d, "process": {**process, "n": max(n_grid)}}
    return decode(ExperimentConfig, d, "")


def decode(tp, value, path: str):
    """The JSON data ``value`` as type ``tp``; a mismatch raises HarnessError naming ``path``.

    ``tp`` is a dataclass, an Enum, ``X | None``, a tuple, a 1-D float
    ``np.ndarray``, or a plain type (a JSON int is accepted for float, a
    NaN or an infinity is not).
    """
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):  # X | None
        if value is None:
            return None
        (tp,) = [a for a in args if a is not type(None)]
        return decode(tp, value, path)
    if dataclasses.is_dataclass(tp):
        return decode_call(tp, value, path)
    if isinstance(tp, type) and issubclass(tp, Enum):
        try:
            return tp(value)
        except ValueError:
            choices = ", ".join(repr(m.value) for m in tp)
            raise HarnessError(f"{path}: {value!r} is not one of {choices}") from None
    if tp is np.ndarray:
        return np.array(decode(tuple[float, ...], value, path), dtype=float)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise HarnessError(f"{path}: expected a list, got {type(value).__name__}")
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise HarnessError(f"{path}: expected {len(args)} items, got {len(value)}")
        return tuple(decode(t, v, f"{path}[{i}]") for i, (t, v) in enumerate(zip(args, value)))
    accepted = (int, float) if tp is float else tp
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise HarnessError(f"{path}: expected {tp.__name__}, got {type(value).__name__} {value!r}")
    if tp is float and not math.isfinite(value):  # json reads NaN and Infinity
        raise HarnessError(f"{path}: non-finite {value}")
    return value


def decode_call(fn, value, path: str, defaults: dict | None = None, given: dict | None = None):
    """``fn``, a dataclass or a function, called with the JSON object ``value`` as keywords.

    Each key must name a parameter of ``fn`` and is decoded against its type
    hint.  ``defaults`` fill the keys that ``value`` omits; ``given`` are
    passed as they are and are not keys.  A parameter with no default is a
    required key, except that an omitted dataclass-typed one is built from
    its own defaults.  A ValueError from ``fn``, such as a dataclass's own
    validation, becomes a HarnessError naming the path.
    """
    where = path or "config"
    if not isinstance(value, dict):
        raise HarnessError(f"{where}: expected an object, got {type(value).__name__}")
    value = {**(defaults or {}), **value}
    given = given or {}
    prefix = f"{path}." if path else ""
    params = {k: p for k, p in inspect.signature(fn).parameters.items() if k not in given}
    hints = typing.get_type_hints(fn)
    for key in value:
        if key not in params:
            import difflib  # only an unknown key pays for it

            close = difflib.get_close_matches(str(key), params, n=1)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            raise HarnessError(f"{prefix}{key}: unknown key{hint}")
    required = [name for name, p in params.items() if p.default is p.empty]
    for name in required:
        if name not in value and not dataclasses.is_dataclass(hints[name]):
            raise HarnessError(f"{prefix}{name}: missing required key")
    kwargs = {
        name: decode(hints[name], value.get(name, {}), prefix + name)
        for name in params
        if name in value or name in required
    }
    try:
        return fn(**kwargs, **given)
    except ValueError as exc:  # fn's own validation
        raise HarnessError(f"{where}: {exc}") from exc


def config_hash(cfg: ExperimentConfig) -> str:
    import hashlib  # set-up, which decodes a config, never hashes one

    canonical = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def build_manifest(cfg, rows, slope, rate_constants, rate_min_slack, failures) -> dict:
    """A run's manifest, the whole of what ``manifest.json`` holds."""
    from . import __version__

    manifest = {
        "config": config_to_dict(cfg),
        "config_sha256": config_hash(cfg),
        "base_seed": cfg.base_seed,
        "code_version": __version__,
        "rate_constants": {str(k): v for k, v in rate_constants.items()},
        "rate_min_slack": {str(k): v for k, v in rate_min_slack.items()},
        "failures": failures,
        "n_rows": len(rows),
        "outliers": _flag_outliers(rows),
    }
    if slope is not None:
        band = cfg.slope_band
        manifest["slope"] = dataclasses.asdict(slope)
        manifest["slope_pass"] = None if band is None else band[0] <= slope.slope <= band[1]
    return manifest


def rows_to_csv(rows) -> str:
    lines = [CSV_HEADER]
    lines.extend(",".join(map(str, _row_values(r))) for r in rows)
    return "\n".join(lines) + "\n"


def rows_from_csv(text: str) -> list[Row]:
    """Rows of a ``rows.csv``; a wrong header, a wrong field count, or a value
    that does not parse or is not finite raises HarnessError naming the line."""
    return [Row(*values) for values in read_csv(text, _ROW_TYPES, "rows.csv", HarnessError)]


def write_result(result: ExperimentResult, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "rows.csv"), "w", encoding="utf-8", newline="\n") as f:
        f.write(rows_to_csv(result.rows))
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as f:
        write_json(result.manifest, f)


def write_json(obj, f) -> None:
    """``obj`` to the text file ``f`` as indented, key-sorted JSON and a newline, as drifterm writes all JSON."""
    json.dump(obj, f, indent=2, sort_keys=True)
    f.write("\n")
