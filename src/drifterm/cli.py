"""Command-line interface.

Subcommands mirror the library surface: ``weights``, ``simulate``,
``fit``, ``risk`` operate on single objects and print JSON; ``mixing``
and ``rates`` print the dependence constants and the certified rate that
``run`` uses for a config, at its ``process.n``; ``run``, ``slopes``,
``calibrate`` drive the experiment harness.  The environment variable
``DRIFTERM_SEED`` overrides the config's base seed for ``run``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import __version__
from .harness import (
    SLOPE_X_FIELDS,
    SLOPE_Y_FIELDS,
    HarnessError,
    build_rate,
    calibrate_ccal,
    config_from_dict,
    config_to_dict,
    decode,
    decode_call,
    fit_slope,
    rows_from_csv,
    run_experiment,
    write_json,
)
from .hypotheses import FittedHypothesis, HypothesisClassSpec, HypothesisError, fit_weighted_erm
from .mixing import MixingError, k_rho, m_beta
from .processes import ProcessSpec, ProcessSpecError, mixing_profile
from .processes import read_path_csv, simulate, write_path_csv
from .rates import RateError, bound_certificate, check_rate_conditions
from .risk import RiskError, risk_report
from .weights import (
    WeightDomainError,
    WeightFamily,
    WeightSpec,
    WeightVector,
    _from_entries,
    build_weight_net,
    class_constants,
    make_weights,
)

# drifterm's own errors: reported as one line on stderr, exit status 1.
_USER_ERRORS = (
    HarnessError,
    ProcessSpecError,
    WeightDomainError,
    HypothesisError,
    RateError,
    MixingError,
    RiskError,
)


def _cmd_weights(args) -> int:
    family = WeightFamily(args.family)
    spec = WeightSpec(family, t=args.t, n=args.n, param=args.param)
    w = make_weights(spec)
    consts = class_constants(family, args.t)
    out = {
        "family": args.family,
        "t": args.t,
        "n": args.n,
        "param": args.param,
        "entries": [float(v) for v in w.entries],
        "l1": w.l1,
        "l2sq": w.l2sq,
        "linf": w.linf,
        "sum": w.sum,
        "n_eff": w.n_eff,
        "class_constants": dataclasses.asdict(consts),
    }
    if args.net_eps is not None:
        net = build_weight_net(family, args.t, args.net_eps)
        out["net"] = {"epsilon": args.net_eps, "size": len(net),
                      "params": [s.param for s in net]}
    write_json(out, sys.stdout)
    return 0


def _cmd_mixing(args) -> int:
    cfg = config_from_dict(_read_json(args.config))
    profile = mixing_profile(cfg.process)
    mb = m_beta(profile, cfg.process.n, cfg.delta)
    write_json({
        "profile": cfg.process.core.kind,
        "n": cfg.process.n,
        "delta": cfg.delta,
        "beta": {str(k): profile.beta(k) for k in range(0, 51)},
        "m_beta": mb.m,
        "m_beta_satisfied": mb.satisfied,
        "k_rho": k_rho(profile),
    }, sys.stdout)
    return 0


def _read_json(file: str):
    with open(file, "r", encoding="utf-8") as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as exc:
            raise HarnessError(f"{file}: {exc}") from None


def _read_spec(file: str) -> ProcessSpec:
    """A config's process, or a bare process object, whose ``n`` is then required."""
    d = _read_json(file)
    if isinstance(d, dict) and "process" in d:
        return config_from_dict(d).process
    return decode(ProcessSpec, d, "process")


def _read_weights(file: str, n: int) -> WeightVector:
    """A WeightSpec object, with ``t`` and ``n`` defaulting to n, or an ``entries`` list summing to one."""
    d = decode(dict, _read_json(file), "weights")
    if "entries" in d:
        w = decode_call(_from_entries, d, "weights")
        if abs(w.sum - 1.0) > 1e-9:
            raise HarnessError(f"weights.entries: must sum to 1, got {w.sum!r}")
        return w
    return make_weights(decode_call(WeightSpec, d, "weights", {"t": n, "n": n}))


def _read_fit(file: str) -> FittedHypothesis:
    """The fit that ``drifterm fit`` wrote: its class, and its coef, bins or layers."""
    d = decode(dict, _read_json(file), "fit")
    layers = decode(tuple[dict, ...] | None, d.get("layers"), "fit.layers") or ()
    return decode_call(
        FittedHypothesis,
        {key: d[key] for key in ("coef", "bins") if key in d},
        "fit",
        given={
            "class_spec": decode(HypothesisClassSpec, d.get("class", {}), "fit.class"),
            "layers": tuple(decode_call(_layer, v, f"fit.layers[{i}]") for i, v in enumerate(layers))
            or None,
        },
    )


def _layer(W: tuple[np.ndarray, ...], b: np.ndarray):
    return np.array(W), b


def _cmd_simulate(args) -> int:
    spec = _read_spec(args.spec)
    path = simulate(spec, args.seed)
    with open(args.out, "w", encoding="utf-8", newline="\n") as f:
        write_path_csv(path, f)
    return 0


def _cmd_fit(args) -> int:
    spec = _read_spec(args.spec)
    klass = decode(HypothesisClassSpec, _read_json(args.klass), "hypothesis")
    with open(args.data, "r", encoding="utf-8") as f:
        path = read_path_csv(f.read(), spec, args.data)
    w = _read_weights(args.weights, spec.n)
    fit = fit_weighted_erm(path, w, klass, seed=args.seed)
    out = {"class": config_to_dict(fit.class_spec), "fit_meta": fit.fit_meta}
    if fit.coef is not None:
        out["coef"] = [float(v) for v in fit.coef]
    if fit.bins is not None:
        out["bins"] = [float(v) for v in fit.bins]
    if fit.layers is not None:
        out["layers"] = [{"W": Wm.tolist(), "b": bv.tolist()} for Wm, bv in fit.layers]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            write_json(out, f)
    else:
        write_json(out, sys.stdout)
    return 0


def _cmd_rates(args) -> int:
    if args.grid < 1:
        raise HarnessError(f"--grid: expected an integer >= 1, got {args.grid}")
    cfg = config_from_dict(_read_json(args.config))
    rate, _ = build_rate(cfg, cfg.process)
    table = [{"u": float(u), "r": rate(float(u)),
              "certificate": bound_certificate(rate, float(u), cfg.delta)}
             for u in np.geomspace(*rate.domain, args.grid)]
    write_json({
        "variant": cfg.rate_variant.value,
        "n": cfg.process.n,
        "a": rate.a,
        "rate_table": table,
        "condition_report": dataclasses.asdict(check_rate_conditions(rate)),
    }, sys.stdout)
    return 0


def _cmd_risk(args) -> int:
    spec = _read_spec(args.spec)
    fit = _read_fit(args.fit)
    w = _read_weights(args.w, spec.n)
    report = risk_report(fit, spec, w, args.t)
    write_json({**dataclasses.asdict(report), "decomposition_ok": report.decomposition_ok}, sys.stdout)
    return 0


def _cmd_run(args) -> int:
    if args.jobs < 1:
        raise HarnessError(f"--jobs: expected an integer >= 1, got {args.jobs}")
    cfg = config_from_dict(_read_json(args.config))
    env_seed = os.environ.get("DRIFTERM_SEED")
    if env_seed is not None:
        try:
            base_seed = int(env_seed)
        except ValueError:
            raise HarnessError(f"DRIFTERM_SEED: expected an integer, got {env_seed!r}") from None
        cfg = dataclasses.replace(cfg, base_seed=base_seed)
    result = run_experiment(cfg, jobs=args.jobs, out_dir=args.out)
    summary = {
        "rows": len(result.rows),
        "config_sha256": result.manifest["config_sha256"],
        "rate_constants": result.manifest["rate_constants"],
    }
    if result.slope is not None:
        summary["slope"] = result.slope.slope
        summary["slope_stderr"] = result.slope.stderr
        summary["r2"] = result.slope.r2
        summary["slope_pass"] = result.slope_pass
    write_json(summary, sys.stdout)
    return 0


def _cmd_slopes(args) -> int:
    with open(args.results, "r", encoding="utf-8") as f:
        rows = rows_from_csv(f.read())
    slope = fit_slope(rows, args.x, args.y, min_points=args.min_points)
    write_json(dataclasses.asdict(slope), sys.stdout)
    return 0


def _cmd_calibrate(args) -> int:
    with open(args.results, "r", encoding="utf-8") as f:
        rows = rows_from_csv(f.read())
    write_json({"c_cal": calibrate_ccal(rows), "rows": len(rows)}, sys.stdout)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="drifterm", description=__doc__)
    parser.add_argument("--version", action="version", version=f"drifterm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    pw = sub.add_parser("weights", help="emit a weight vector and class constants as JSON")
    pw.add_argument("--family", choices=[f.value for f in WeightFamily], required=True)
    pw.add_argument("--t", type=int, required=True)
    pw.add_argument("--n", type=int, required=True)
    pw.add_argument("--param", type=float, required=True)
    pw.add_argument("--net-eps", type=float, default=None)
    pw.set_defaults(func=_cmd_weights)

    pm = sub.add_parser("mixing", help="beta table, block length, correlation sum of a config's process")
    pm.add_argument("--config", required=True)
    pm.set_defaults(func=_cmd_mixing)

    ps = sub.add_parser("simulate", help="write a simulated path as CSV")
    ps.add_argument("--spec", required=True)
    ps.add_argument("--seed", type=int, required=True)
    ps.add_argument("--out", required=True)
    ps.set_defaults(func=_cmd_simulate)

    pf = sub.add_parser("fit", help="weighted ERM fit from CSV data")
    pf.add_argument("--data", required=True)
    pf.add_argument("--weights", required=True)
    pf.add_argument("--class", dest="klass", required=True)
    pf.add_argument("--spec", required=True)
    pf.add_argument("--seed", type=int, default=0)
    pf.add_argument("--out", default=None)
    pf.set_defaults(func=_cmd_fit)

    pr = sub.add_parser("rates", help="rate table, condition report, and found scale of a config")
    pr.add_argument("--config", required=True)
    pr.add_argument("--grid", type=int, default=32)
    pr.set_defaults(func=_cmd_rates)

    pk = sub.add_parser("risk", help="decomposition report for a fit")
    pk.add_argument("--fit", required=True)
    pk.add_argument("--spec", required=True)
    pk.add_argument("--w", required=True)
    pk.add_argument("--t", type=int, required=True)
    pk.set_defaults(func=_cmd_risk)

    pn = sub.add_parser("run", help="run a replicated experiment from a config file")
    pn.add_argument("--config", required=True)
    pn.add_argument("--jobs", type=int, default=1)
    pn.add_argument("--out", default=None)
    pn.set_defaults(func=_cmd_run)

    pl = sub.add_parser("slopes", help="log-log slope from a results CSV")
    pl.add_argument("--results", required=True)
    pl.add_argument("--x", default="n", choices=SLOPE_X_FIELDS)
    pl.add_argument("--y", default="learning_error", choices=SLOPE_Y_FIELDS)
    pl.add_argument("--min-points", type=int, default=None)
    pl.set_defaults(func=_cmd_slopes)

    pc = sub.add_parser("calibrate", help="calibration constant from a results CSV")
    pc.add_argument("--results", required=True)
    pc.set_defaults(func=_cmd_calibrate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:  # simulate and fit
            raise HarnessError(f"--seed: expected a non-negative integer, got {args.seed}")
        code = args.func(args)
        sys.stdout.flush()
        return code
    except _USER_ERRORS as exc:
        raise SystemExit(str(exc)) from None
    except BrokenPipeError:
        # The reader closed stdout early.  Point stdout at devnull so the
        # flush at exit of what is still buffered does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
