"""Replicated experiment harness: grids, slopes, calibration, persistence.

A config describes a process template, a weight policy, a hypothesis
policy, an n grid, and a replication count.  Running it simulates every
(n, weight parameter, replication) cell, fits the weighted ERM, measures
the decomposition terms, attaches the rate certificate, and aggregates
log-log slopes.  Everything is deterministic given (config, base_seed):
per-row seeds are derived from the base seed and the cell indices, so
results do not depend on worker count or completion order.
"""

from __future__ import annotations

import dataclasses
import difflib
import hashlib
import json
import math
import operator
import os
import types
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .hypotheses import HypothesisClassSpec, HypothesisKind, basis_size, fit_weighted_erm
from .mixing import k_rho as k_rho_sum
from .mixing import m_beta
from .processes import ProcessSpec, lambda_min, mixing_profile, simulate
from .rates import (
    RateParameters,
    RatePreconditionError,
    RateVariant,
    bound_certificate,
    find_scale_constant,
    hypothesis_log_covering,
    weight_class_log_covering,
)
from .risk import drift_error, excess_risk, learning_error
from .weights import (
    ANALYTIC_NORM_BOUNDS,
    DEFAULT_EXP_RANGE,
    WeightDomainError,
    WeightFamily,
    WeightSpec,
    make_weights,
)

MAX_ROW_FAILURE_FRACTION = 0.01


class HarnessError(RuntimeError):
    """Configuration or execution failure at the experiment level."""


@dataclass(frozen=True)
class WeightPolicy:
    """Which weight vectors each grid cell uses.

    ``params`` is the family parameter sweep; None means the full uniform
    window (s = n), the unweighted baseline.  Weights are always anchored
    at t = n.
    """

    family: WeightFamily = WeightFamily.UNIFORM_WINDOW
    params: tuple[float, ...] | None = None
    exp_range: float = DEFAULT_EXP_RANGE

    def _sweep(self, n: int) -> tuple[WeightFamily, tuple[float, ...]]:
        if self.params is None:
            return WeightFamily.UNIFORM_WINDOW, (float(n),)
        return self.family, self.params

    def specs(self, n: int) -> list[WeightSpec]:
        family, params = self._sweep(n)
        return [WeightSpec(family, t=n, n=n, param=float(p)) for p in params]

    def rate_inputs(self, n: int):
        """(c1, bw, eps -> log N1) of the swept weight class at horizon n."""
        family, _ = self._sweep(n)
        c1, bw = ANALYTIC_NORM_BOUNDS[family]
        log_n1 = weight_class_log_covering(family, "union", n=n, exp_range=self.exp_range)
        return c1, bw, log_n1


@dataclass(frozen=True)
class HypothesisPolicy:
    """Hypothesis class per cell: fixed, or sized from the weight norm."""

    kind: HypothesisKind = HypothesisKind.LINEAR_BALL
    b_bound: float = 1.0
    q: int | None = None  # None with STEP_BASIS: q = basis_size(||w||)
    nu: int | None = None
    ell: int | None = None
    param_bound: float | None = None

    def class_spec(self, spec: ProcessSpec, w_l2: float) -> HypothesisClassSpec:
        if self.kind is HypothesisKind.LINEAR_BALL:
            return HypothesisClassSpec.linear(self.b_bound, lambda_min(spec))
        if self.kind is HypothesisKind.STEP_BASIS:
            q = self.q if self.q is not None else basis_size(w_l2)
            return HypothesisClassSpec.step(q, self.b_bound)
        return HypothesisClassSpec.relu(self.nu, self.ell, self.param_bound, self.b_bound)

    def rate_inputs(self, spec: ProcessSpec):
        """(alpha, c_inf, (eps, w_l2) -> log Ninf, approximation error) at horizon spec.n.

        alpha is the covering growth exponent in the weight norm: 2/3 for
        classes sized from ||w||, 0 for fixed ones.  c_inf is the class's
        own sup-norm link at the smallest weight norm 1/sqrt(n).
        """
        n = spec.n
        c_inf = self.class_spec(spec, 1.0 / math.sqrt(n)).c_inf
        if self.kind is HypothesisKind.LINEAR_BALL:
            log_ninf = hypothesis_log_covering("linear", p=spec.p, b_bound=self.b_bound)
            return 0.0, c_inf, log_ninf, None
        if self.kind is HypothesisKind.STEP_BASIS:
            log_ninf = hypothesis_log_covering("step", q=self.q, b_bound=self.b_bound)
            if self.q is not None:
                return 0.0, c_inf, log_ninf, lambda u: 1.0 / self.q  # 1-Lipschitz targets
            return 2.0 / 3.0, c_inf, log_ninf, lambda u: 1.0 / basis_size(u)
        log_ninf = hypothesis_log_covering("relu", n=n, b_bound=self.b_bound)
        return 2.0 / 3.0, c_inf, log_ninf, lambda u: u ** (2.0 / 3.0)


@dataclass(frozen=True)
class ExperimentConfig:
    process: ProcessSpec  # template; n is replaced per grid point
    weights: WeightPolicy
    hypothesis: HypothesisPolicy
    n_grid: tuple[int, ...]
    replications: int
    delta: float = 0.05
    base_seed: int = 0
    rate_variant: RateVariant = RateVariant.I
    mc_draws: int = 100_000
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
        try:
            for n in self.n_grid:
                self.weights.specs(n)
        except WeightDomainError as exc:
            raise HarnessError(f"weights.params: {exc}") from exc
        if self.slope_target is not None and self._sweep_axis() == "n":
            if self.replications < 30:
                raise HarnessError("slope experiments need >= 30 replications")
            if len(self.n_grid) < 5 or self.n_grid[-1] < 4 * self.n_grid[0]:
                raise HarnessError("slope n grids need >= 5 points spanning >= 2 octaves")

    def _sweep_axis(self) -> str | None:
        if len(self.n_grid) > 1:
            return "n"
        if self.weights.params is not None and len(self.weights.params) > 1:
            return "n_eff"
        return None


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
        if self.slope is None or self.config.slope_band is None:
            return None
        lo, hi = self.config.slope_band
        return lo <= self.slope.slope <= hi


def _row_seed(base_seed: int, i_n: int, i_param: int, rep: int, stream: int) -> int:
    ss = np.random.SeedSequence(base_seed, spawn_key=(i_n, i_param, rep, stream))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _row_task(payload: tuple) -> tuple[float, float]:
    """One replication: simulate, fit, measure. Pure function of the payload."""
    spec, w, class_spec, t, path_seed, mc_seed, net_seed, draws = payload
    path = simulate(spec, path_seed)
    fit = fit_weighted_erm(path, w, class_spec, seed=net_seed)
    learn, _, _ = learning_error(fit, spec, w, draws=draws, seed=mc_seed)
    exc, _, _ = excess_risk(fit, spec, t, draws=draws, seed=mc_seed + 1)
    return learn, exc


def build_rate(cfg: ExperimentConfig, spec: ProcessSpec):
    """Rate function for one grid n, with the scale constant found by doubling."""
    n = spec.n
    profile = mixing_profile(spec)
    mb = m_beta(profile, n, cfg.delta).m
    kr = k_rho_sum(profile)
    c1, bw, log_n1 = cfg.weights.rate_inputs(n)
    alpha, c_inf, log_ninf, approx_err = cfg.hypothesis.rate_inputs(spec)
    params = RateParameters(
        c1=c1,
        cw=1.0 / math.sqrt(n),  # ||w||^2 >= 1/n whenever the entries sum to one
        bw=bw,
        m_beta=mb,
        k_rho=kr,
        c_p=1.0,  # time-invariant covariate law
        c_inf=c_inf,
        c_l=1.0,  # square loss
        alpha=alpha,
        a=1.0,
        k=float(n) ** 2,
        delta=cfg.delta,
        n=n,
        log_n1_w=log_n1,
        log_ninf_h=log_ninf,
    )
    rate, report = find_scale_constant(cfg.rate_variant, params, approx_err=approx_err)
    return rate, report


def run_experiment(
    cfg: ExperimentConfig, *, jobs: int = 1, out_dir: str | None = None
) -> ExperimentResult:
    """Execute the full grid; deterministic given (config, base_seed).

    Row-level failures are recorded in the manifest and tolerated up to
    1% of the grid; beyond that the run aborts.
    """
    rows: list[Row] = []
    failures: list[dict] = []
    rate_constants: dict[int, float] = {}
    payloads = []
    meta = []

    for i_n, n in enumerate(cfg.n_grid):
        spec = replace(cfg.process, n=n)
        wspecs = cfg.weights.specs(n)
        try:
            rate, _ = build_rate(cfg, spec)
        except RatePreconditionError as exc:
            raise HarnessError(f"{wspecs[0].family.value} weights at n={n}: {exc}") from exc
        rate_constants[n] = rate.params.a
        for i_param, wspec in enumerate(wspecs):
            w = make_weights(wspec)
            class_spec = cfg.hypothesis.class_spec(spec, w.l2)
            drift = drift_error(spec, w, n)
            certificate = bound_certificate(rate, w.l2, cfg.delta, drift_term=drift)
            for rep in range(cfg.replications):
                path_seed = _row_seed(cfg.base_seed, i_n, i_param, rep, 0)
                mc_seed = _row_seed(cfg.base_seed, i_n, i_param, rep, 1)
                net_seed = _row_seed(cfg.base_seed, i_n, i_param, rep, 2)
                payloads.append(
                    (spec, w, class_spec, n, path_seed, mc_seed, net_seed, cfg.mc_draws)
                )
                meta.append((n, wspec.param, w.l2, path_seed, drift, certificate))

    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_row_task_safe, payloads, chunksize=8))
    else:
        outcomes = [_row_task_safe(p) for p in payloads]

    for (n, param, w_l2, path_seed, drift, certificate), outcome in zip(meta, outcomes):
        if isinstance(outcome, str):
            failures.append({"n": n, "param": param, "seed": path_seed, "error": outcome})
            continue
        learn, exc = outcome
        rows.append(
            Row(
                n=n,
                param=float(param),
                w_l2=w_l2,
                seed=path_seed,
                learning_error=learn,
                drift_error=drift,
                excess_risk=exc,
                certificate=certificate,
            )
        )

    total = len(payloads)
    if failures and len(failures) > MAX_ROW_FAILURE_FRACTION * total:
        raise HarnessError(
            f"{len(failures)}/{total} rows failed (> {MAX_ROW_FAILURE_FRACTION:.0%})"
        )

    outliers = _flag_outliers(rows)

    axis = cfg._sweep_axis()
    slope = None
    if axis == "n" and len(cfg.n_grid) >= 5:
        slope = fit_slope(rows, "n", "learning_error")
    elif axis == "n_eff":
        slope = fit_slope(rows, "n_eff", "learning_error", min_points=3)

    manifest = build_manifest(cfg, rate_constants, failures, len(rows))
    manifest["outliers"] = outliers
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


def _row_task_safe(payload):
    try:
        return _row_task(payload)
    except Exception as exc:  # row-level isolation; harness applies the 1% budget
        return f"{type(exc).__name__}: {exc}"


def fit_slope(
    rows,
    x_field: str,
    y_field: str,
    *,
    min_points: int = 5,
) -> SlopeFit:
    """OLS slope of log(mean y) against log x over the grid means.

    Rows are grouped by the x value and the y values averaged within each
    group before taking logs.  ``min_points`` defaults to 5 distinct x
    values; the effective-sample-size sweeps pass 3.
    """

    def x_of(row) -> float:
        if x_field == "n":
            return float(row.n)
        if x_field == "n_eff":
            return row.n_eff
        if x_field == "param":
            return float(row.param)
        raise HarnessError(f"unknown x field {x_field!r}")

    groups: dict[float, list[float]] = {}
    for row in rows:
        groups.setdefault(x_of(row), []).append(getattr(row, y_field))
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
        n_grid = _decode(tuple[int, ...], d["n_grid"], "n_grid")
        if n_grid:
            d = {**d, "process": {**process, "n": max(n_grid)}}
    return _decode(ExperimentConfig, d, "")


def _decode(tp, value, path: str):
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):  # X | None
        if value is None:
            return None
        (tp,) = [a for a in args if a is not type(None)]
        return _decode(tp, value, path)
    if dataclasses.is_dataclass(tp):
        return _decode_dataclass(tp, value, path)
    if isinstance(tp, type) and issubclass(tp, Enum):
        try:
            return tp(value)
        except ValueError:
            choices = ", ".join(repr(m.value) for m in tp)
            raise HarnessError(f"{path}: {value!r} is not one of {choices}") from None
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise HarnessError(f"{path}: expected a list, got {type(value).__name__}")
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise HarnessError(f"{path}: expected {len(args)} items, got {len(value)}")
        return tuple(_decode(t, v, f"{path}[{i}]") for i, (t, v) in enumerate(zip(args, value)))
    accepted = (int, float) if tp is float else tp
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise HarnessError(f"{path}: expected {tp.__name__}, got {type(value).__name__} {value!r}")
    return value


def _decode_dataclass(cls, value, path: str):
    where = path or "config"
    if not isinstance(value, dict):
        raise HarnessError(f"{where}: expected an object, got {type(value).__name__}")
    prefix = f"{path}." if path else ""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    hints = typing.get_type_hints(cls)
    for key in value:
        if key not in fields:
            close = difflib.get_close_matches(str(key), fields, n=1)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            raise HarnessError(f"{prefix}{key}: unknown key{hint}")
    required = [name for name, f in fields.items() if f.default is dataclasses.MISSING]
    for name in required:
        if name not in value and not dataclasses.is_dataclass(hints[name]):
            raise HarnessError(f"{prefix}{name}: missing required key")
    kwargs = {
        name: _decode(hints[name], value.get(name, {}), prefix + name)
        for name in fields
        if name in value or name in required
    }
    try:
        return cls(**kwargs)
    except ValueError as exc:  # the dataclass's own validation
        raise HarnessError(f"{where}: {exc}") from exc


def config_hash(cfg: ExperimentConfig) -> str:
    canonical = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def build_manifest(cfg, rate_constants, failures, n_rows) -> dict:
    from . import __version__

    return {
        "config": config_to_dict(cfg),
        "config_sha256": config_hash(cfg),
        "base_seed": cfg.base_seed,
        "code_version": __version__,
        "rate_constants": {str(k): v for k, v in rate_constants.items()},
        "failures": failures,
        "n_rows": n_rows,
    }


def rows_to_csv(rows) -> str:
    lines = [CSV_HEADER]
    lines.extend(",".join(map(str, _row_values(r))) for r in rows)
    return "\n".join(lines) + "\n"


def rows_from_csv(text: str) -> list[Row]:
    """Rows of a ``rows.csv``; a wrong header, a wrong field count, or a value
    that does not parse or is not finite raises HarnessError naming the line."""
    lines = text.split("\n")
    if lines[0] != CSV_HEADER:
        raise HarnessError(f"rows.csv line 1: expected the header {CSV_HEADER!r}, got {lines[0]!r}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(_ROW_TYPES):
            raise HarnessError(
                f"rows.csv line {lineno}: expected {len(_ROW_TYPES)} fields, got {len(parts)}"
            )
        values = {}
        for (name, kind), part in zip(_ROW_TYPES.items(), parts):
            where = f"rows.csv line {lineno}: {name}"
            try:
                values[name] = kind(part)
            except ValueError:
                raise HarnessError(f"{where}: expected {kind.__name__}, got {part!r}") from None
            if not math.isfinite(values[name]):
                raise HarnessError(f"{where}: non-finite {part}")
        rows.append(Row(**values))
    return rows


def write_result(result: ExperimentResult, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "rows.csv"), "w", encoding="utf-8", newline="\n") as f:
        f.write(rows_to_csv(result.rows))
    manifest = dict(result.manifest)
    if result.slope is not None:
        manifest["slope"] = dataclasses.asdict(result.slope)
        manifest["slope_pass"] = result.slope_pass
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
