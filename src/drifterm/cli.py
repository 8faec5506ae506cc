"""Command-line interface.

Subcommands mirror the library surface: ``weights``, ``mixing``,
``simulate``, ``fit``, ``rates``, ``risk`` operate on single objects and
print JSON; ``run``, ``slopes``, ``calibrate`` drive the experiment
harness.  The environment variable ``DRIFTERM_SEED`` overrides the
config's base seed for ``run``.
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
    HarnessError,
    calibrate_ccal,
    config_from_dict,
    fit_slope,
    rows_from_csv,
    run_experiment,
)
from .hypotheses import (
    FittedHypothesis,
    HypothesisClassSpec,
    HypothesisError,
    HypothesisKind,
    fit_weighted_erm,
)
from .mixing import MixingError, MixingProfile, k_rho, m_beta
from .processes import ProcessSpecError, SamplePath, simulate, write_path_csv
from .rates import (
    RateError,
    RateParameters,
    RateVariant,
    bound_certificate,
    find_scale_constant,
    hypothesis_log_covering,
    weight_class_log_covering,
)
from .risk import RiskError, risk_report
from .weights import (
    DEFAULT_EXP_RANGE,
    WeightDomainError,
    WeightFamily,
    WeightSpec,
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


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _cmd_weights(args) -> int:
    family = WeightFamily(args.family)
    spec = WeightSpec(family, t=args.t, n=args.n, param=args.param)
    w = make_weights(spec)
    if family is WeightFamily.UNIFORM_WINDOW:
        prange = (1.0, float(args.t))
    elif family is WeightFamily.EXPONENTIAL:
        prange = (0.0, DEFAULT_EXP_RANGE)
    else:
        prange = (0.0, 1.0)
    consts = class_constants(family, prange, (1, args.t))
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
        net = build_weight_net(family, prange, args.t, args.net_eps)
        out["net"] = {"epsilon": args.net_eps, "size": len(net),
                      "params": [s.param for s in net]}
    _emit(out)
    return 0


def _cmd_mixing(args) -> int:
    params = args.params or []
    if args.profile == "iid":
        profile = MixingProfile.iid()
    elif args.profile == "ar1":
        if len(params) < 1:
            raise SystemExit("ar1 profile needs --params PHI [CHAINS]")
        chains = int(params[1]) if len(params) > 1 else 1
        profile = MixingProfile.ar1(params[0], chains=chains)
    else:
        if len(params) < 2:
            raise SystemExit("markov profile needs --params P01 P10")
        P = np.array([[1 - params[0], params[0]], [params[1], 1 - params[1]]])
        profile = MixingProfile.markov2(P)
    mb = m_beta(profile, args.n, args.delta)
    out = {
        "profile": args.profile,
        "n": args.n,
        "delta": args.delta,
        "beta": {str(k): profile.beta(k) for k in range(0, 51)},
        "m_beta": mb.m,
        "m_beta_satisfied": mb.satisfied,
        "k_rho": k_rho(profile),
    }
    _emit(out)
    return 0


def _load_process_spec(path: str):
    with open(path, "r", encoding="utf-8") as f:
        d = json.load(f)
    if "process" not in d:
        d = {"process": d, "n_grid": [d.get("n", 100)], "replications": 1}
    cfg = config_from_dict(d)
    return cfg.process


def _cmd_simulate(args) -> int:
    spec = _load_process_spec(args.spec)
    path = simulate(spec, args.seed)
    with open(args.out, "w", encoding="utf-8", newline="\n") as f:
        write_path_csv(path, f)
    return 0


def _read_path_csv(data_file: str, spec) -> SamplePath:
    raw = np.loadtxt(data_file, delimiter=",", skiprows=1)
    y = raw[:, 1].copy()
    z = raw[:, 2:].copy()
    return SamplePath(y=y, z=z, seed=-1, spec=spec)


def _class_spec_from_dict(d: dict) -> HypothesisClassSpec:
    kind = HypothesisKind(d["kind"])
    if kind is HypothesisKind.LINEAR_BALL:
        return HypothesisClassSpec.linear(d["b_bound"], d.get("lambda_min", 1.0))
    if kind is HypothesisKind.STEP_BASIS:
        return HypothesisClassSpec.step(d["q"], d["b_bound"])
    return HypothesisClassSpec.relu(d["nu"], d["ell"], d["param_bound"], d["b_bound"])


def _weights_from_json(path: str, n: int):
    with open(path, "r", encoding="utf-8") as f:
        d = json.load(f)
    if "entries" in d:
        from .weights import _from_entries

        return _from_entries(np.asarray(d["entries"], dtype=float))
    spec = WeightSpec(WeightFamily(d["family"]), t=d.get("t", n), n=d.get("n", n),
                      param=d["param"])
    return make_weights(spec)


def _cmd_fit(args) -> int:
    spec = _load_process_spec(args.spec) if args.spec else None
    with open(args.klass, "r", encoding="utf-8") as f:
        class_spec = _class_spec_from_dict(json.load(f))
    raw = np.loadtxt(args.data, delimiter=",", skiprows=1)
    n = raw.shape[0] - 1
    if spec is None:
        from .processes import CovariateLaw, DependenceCore, DriftSpec, ProcessKind, ProcessSpec

        p = raw.shape[1] - 2
        law = CovariateLaw.INTERVAL if p == 1 and raw[:, 2].min() >= 0 else CovariateLaw.BALL
        spec = ProcessSpec(
            kind=ProcessKind.DRIFTING_LINEAR,
            n=n,
            p=p,
            law=law,
            core=DependenceCore(),
            drift=DriftSpec.constant([0.0] * p),
            noise_sd=0.0,
            y_bound=float(np.abs(raw[:, 1]).max()) + 1.0,
        )
    path = _read_path_csv(args.data, spec)
    w = _weights_from_json(args.weights, n)
    fit = fit_weighted_erm(path, w, class_spec, seed=args.seed)
    out = {
        "kind": class_spec.kind.value,
        "fit_meta": fit.fit_meta,
    }
    if fit.coef is not None:
        out["coef"] = [float(v) for v in fit.coef]
    if fit.bins is not None:
        out["bins"] = [float(v) for v in fit.bins]
    if fit.layers is not None:
        out["layers"] = [
            {"W": Wm.tolist(), "b": bv.tolist()} for Wm, bv in fit.layers
        ]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(out, f, indent=2, sort_keys=True)
            f.write("\n")
    else:
        _emit(out)
    return 0


def _cmd_rates(args) -> int:
    with open(args.params, "r", encoding="utf-8") as f:
        d = json.load(f)
    wc = d["weight_class"]
    hc = d["hypothesis_class"]
    log_n1 = weight_class_log_covering(
        WeightFamily(wc["family"]),
        wc.get("scope", "union"),
        t=wc.get("t"),
        n=wc.get("n", d["n"]),
        exp_range=wc.get("exp_range", DEFAULT_EXP_RANGE),
    )
    log_ninf = hypothesis_log_covering(
        hc["kind"],
        p=hc.get("p"),
        b_bound=hc.get("b_bound", 1.0),
        q=hc.get("q"),
        n=hc.get("n", d["n"]),
        sizing_const=hc.get("sizing_const", 1.0),
    )
    params = RateParameters(
        c1=d["c1"],
        cw=d["cw"],
        bw=d["bw"],
        m_beta=d["m_beta"],
        k_rho=d["k_rho"],
        c_p=d.get("c_p", 1.0),
        c_inf=d.get("c_inf", 0.0),
        c_l=d.get("c_l", 1.0),
        alpha=d.get("alpha", 0.0),
        a=d.get("a", 1.0),
        k=d.get("k", float(d["n"]) ** 2),
        delta=d.get("delta", 0.05),
        n=d["n"],
        log_n1_w=log_n1,
        log_ninf_h=log_ninf,
    )
    variant = RateVariant(args.variant)
    rate, report = find_scale_constant(variant, params)
    grid = np.geomspace(params.cw, params.c1, args.grid)
    table = [{"u": float(u), "r": rate(float(u)),
              "certificate": bound_certificate(rate, float(u), params.delta)}
             for u in grid]
    _emit({
        "variant": args.variant,
        "a": rate.params.a,
        "rate_table": table,
        "condition_report": dataclasses.asdict(report),
    })
    return 0


def _cmd_risk(args) -> int:
    spec = _load_process_spec(args.spec)
    with open(args.fit, "r", encoding="utf-8") as f:
        fd = json.load(f)
    kind = HypothesisKind(fd["kind"])
    if kind is HypothesisKind.LINEAR_BALL:
        coef = np.asarray(fd["coef"], dtype=float)
        class_spec = HypothesisClassSpec.linear(
            max(1.0, float(np.linalg.norm(coef))), 1.0
        )
        fit = FittedHypothesis(class_spec=class_spec, coef=coef)
    elif kind is HypothesisKind.STEP_BASIS:
        bins = np.asarray(fd["bins"], dtype=float)
        class_spec = HypothesisClassSpec.step(len(bins), max(1.0, float(np.abs(bins).max())))
        fit = FittedHypothesis(class_spec=class_spec, bins=bins)
    else:
        raise SystemExit("risk reports support linear and step fits")
    w = _weights_from_json(args.w, spec.n)
    report = risk_report(fit, spec, w, args.t)
    _emit({**dataclasses.asdict(report), "decomposition_ok": report.decomposition_ok})
    return 0


def _cmd_run(args) -> int:
    with open(args.config, "r", encoding="utf-8") as f:
        cfg = config_from_dict(json.load(f))
    env_seed = os.environ.get("DRIFTERM_SEED")
    if env_seed is not None:
        cfg = dataclasses.replace(cfg, base_seed=int(env_seed))
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
    _emit(summary)
    return 0


def _cmd_slopes(args) -> int:
    with open(args.results, "r", encoding="utf-8") as f:
        rows = rows_from_csv(f.read())
    slope = fit_slope(rows, args.x, args.y, min_points=args.min_points)
    _emit(dataclasses.asdict(slope))
    return 0


def _cmd_calibrate(args) -> int:
    with open(args.results, "r", encoding="utf-8") as f:
        rows = rows_from_csv(f.read())
    _emit({"c_cal": calibrate_ccal(rows), "rows": len(rows)})
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

    pm = sub.add_parser("mixing", help="beta table, block length, correlation sum as JSON")
    pm.add_argument("--profile", choices=["iid", "ar1", "markov"], required=True)
    pm.add_argument("--params", type=float, nargs="*", default=[])
    pm.add_argument("--n", type=int, required=True)
    pm.add_argument("--delta", type=float, required=True)
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
    pf.add_argument("--spec", default=None)
    pf.add_argument("--seed", type=int, default=0)
    pf.add_argument("--out", default=None)
    pf.set_defaults(func=_cmd_fit)

    pr = sub.add_parser("rates", help="rate table, condition report, and found scale")
    pr.add_argument("--params", required=True)
    pr.add_argument("--variant", choices=["i", "ii"], required=True)
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
    pl.add_argument("--x", default="n", choices=["n", "n_eff", "param"])
    pl.add_argument("--y", default="learning_error")
    pl.add_argument("--min-points", type=int, default=5)
    pl.set_defaults(func=_cmd_slopes)

    pc = sub.add_parser("calibrate", help="calibration constant from a results CSV")
    pc.add_argument("--results", required=True)
    pc.set_defaults(func=_cmd_calibrate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _USER_ERRORS as exc:
        raise SystemExit(str(exc)) from None


if __name__ == "__main__":
    raise SystemExit(main())
