"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criteria 1, 3, 4 and 9 run the shipped configs in ``configs/``, and
criteria 1 and 4 take their slope band from the config they run.  Slope
bands absorb the logarithmic factors the theory carries; every other
tolerance is stated inline next to its check.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from drifterm.harness import (
    ExperimentConfig,
    WeightPolicy,
    build_rate,
    calibrate_ccal,
    run_experiment,
)
from drifterm.hypotheses import (
    HypothesisClassSpec,
    HypothesisKind,
    basis_size,
    fit_weighted_erm,
)
from drifterm.mixing import MixingProfile, blocked_bernstein_tail, m_beta
from drifterm.processes import (
    CovariateLaw,
    DependenceCore,
    DriftSpec,
    ProcessKind,
    ProcessSpec,
    simulate,
)
from drifterm.rates import (
    RateParameters,
    RateVariant,
    bound_certificate,
    find_scale_constant,
)
from drifterm.risk import discrepancy_sum, drift_error, excess_risk, learning_error, risk_report
from drifterm.weights import (
    WeightFamily,
    WeightSpec,
    build_weight_net,
    class_constants,
    class_rate_inputs,
    exponential_spikiness,
    make_weights,
    theta_for_n_eff,
    _from_entries,
)
from test_configs import load

N_GRID = (128, 256, 512, 1024, 2048, 4096, 8192)

# Calibration constant of the shipped baseline config, computed once from
# its deterministic run and frozen here as a regression pin.
C_CAL_FIXTURE = 0.00046856074917255534


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} {detail}")


@pytest.fixture(scope="module")
def baseline_result():
    cfg = load("linear_rate.json")
    t0 = time.perf_counter()
    result = run_experiment(cfg)
    return cfg, result, time.perf_counter() - t0


def test_criterion_1_linear_class_rate(baseline_result):
    cfg, res, elapsed = baseline_result
    (lo, hi), slope, r2 = cfg.slope_band, res.slope.slope, res.slope.r2
    ok = res.slope_pass and r2 >= 0.98 and elapsed < 120.0
    _report(1, ok, f"slope={slope:.4f} in [{lo},{hi}], r2={r2:.4f} >= 0.98, "
                   f"time={elapsed:.1f}s < 120s")
    assert ok


def test_criterion_2_basis_class_rate():
    t0 = time.perf_counter()
    proc = ProcessSpec(
        kind=ProcessKind.DRIFTING_LINEAR,
        n=N_GRID[0],
        p=1,
        law=CovariateLaw.INTERVAL,
        core=DependenceCore(),
        drift=DriftSpec.constant([1.0]),  # 1-Lipschitz target h(z) = z
        noise_sd=0.3,
        y_bound=2.3,
    )
    cfg = ExperimentConfig(
        process=proc,
        weights=WeightPolicy(),
        hypothesis=HypothesisClassSpec(kind=HypothesisKind.STEP_BASIS, b_bound=1.0, q=None),
        n_grid=N_GRID,
        replications=200,
        base_seed=20260811,
        slope_target=-2 / 3,
        slope_band=(-0.77, -0.57),
    )
    res = run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    slope, r2 = res.slope.slope, res.slope.r2
    # bin counts follow the weight-norm sizing rule
    assert basis_size(1 / math.sqrt(1000)) == 10
    ok = -0.77 <= slope <= -0.57 and r2 >= 0.97 and elapsed < 240.0
    _report(2, ok, f"slope={slope:.4f} in [-0.77,-0.57], r2={r2:.4f} >= 0.97, "
                   f"time={elapsed:.1f}s < 240s")
    assert ok


def test_criterion_3_effective_sample_size_scaling():
    res = run_experiment(load("effective_sample_size.json"))
    realized = sorted({round(r.n_eff, 6) for r in res.rows})
    slope = res.slope.slope
    ok = realized == [16.0, 64.0, 256.0, 1024.0] and -1.15 <= slope <= -0.85
    _report(3, ok, f"n_eff={realized}, slope={slope:.4f} in [-1.15,-0.85]")
    assert ok


def test_criterion_4_dependence_robustness():
    cfg = replace(load("linear_rate_ar1.json"), base_seed=20260813)
    res = run_experiment(cfg)
    (lo, hi), slope = cfg.slope_band, res.slope.slope

    # polynomially mixing comparison: block length from beta(m) = m^-5 at
    # n = 1e4, exponential-union weight class, constant-predictor class
    # (exact sup-norm link 1); each variant's scale found by doubling
    n = 10_000
    prof = MixingProfile(beta=lambda k: k**-5.0 if k >= 1 else 1.0)
    mb = m_beta(prof, n, 0.05)
    interval = ProcessSpec(ProcessKind.DRIFTING_LINEAR, n, 1, CovariateLaw.INTERVAL,
                           DependenceCore(), drift=DriftSpec.constant([0.0]))
    params = RateParameters(
        m_beta=mb.m,
        k_rho=1.0,
        c_p=1.0,
        n=n,
        **class_rate_inputs(WeightFamily.EXPONENTIAL, n),
        # the zero-drift target is a constant: no approximation error
        **{**HypothesisClassSpec.step(1, 1.0).rate_inputs(interval), "approx_err": None},
    )
    rate_i, _ = find_scale_constant(RateVariant.I, params)
    rate_ii, _ = find_scale_constant(RateVariant.II, params)
    u = 1 / math.sqrt(n)
    cert_i = bound_certificate(rate_i, u, 0.05)
    cert_ii = bound_certificate(rate_ii, u, 0.05)
    ok = res.slope_pass and cert_ii < cert_i
    _report(4, ok, f"ar1 slope={slope:.4f} in [{lo},{hi}]; "
                   f"two-term certificate {cert_ii:.4g} < single-term {cert_i:.4g}")
    assert ok


def test_criterion_5_variance_drift_reproduction():
    n = 2000
    spec = ProcessSpec(
        kind=ProcessKind.DRIFTING_VARIANCE,
        n=n,
        p=1,
        law=CovariateLaw.INTERVAL,
        core=DependenceCore(),
        mean=0.5,
        var_start=1.0,
        var_end=11.0,
        y_bound=0.5 + math.sqrt(11.0) * 4.01,
    )
    w = make_weights(WeightSpec(WeightFamily.UNIFORM_WINDOW, t=n, n=n, param=n))
    cls = HypothesisClassSpec.step(1, 1.0)

    drift = drift_error(spec, w, n)
    dis_sum = discrepancy_sum(spec, cls)
    path = simulate(spec, 20260814)
    fit = fit_weighted_erm(path, w, cls)
    learn, _, _ = learning_error(fit, spec, w)
    decomposition_bound = 2.0 * (learn + drift)
    factor = dis_sum / decomposition_bound
    ok = drift == 0.0 and abs(dis_sum - 10.0) <= 1e-9 and factor >= 100.0
    _report(5, ok, f"drift={drift}, discrepancy_sum={dis_sum:.12f} = 10 +- 1e-9, "
                   f"bound smaller by factor {factor:.0f} >= 100")
    assert ok


def test_criterion_6_weight_class_constants():
    t0 = time.perf_counter()
    uni = class_constants(WeightFamily.UNIFORM_WINDOW, 200)
    exact_ok = uni.bw == 1.0 and uni.c1 == 1.0 and uni.exact

    ratio_ok = True
    for theta in np.geomspace(1e-4, 10.0, 50):
        for t in range(1, 201):
            w = make_weights(WeightSpec(WeightFamily.EXPONENTIAL, t=t, n=t, param=float(theta)))
            if abs(w.linf / w.l2sq - exponential_spikiness(float(theta), t)) > 1e-10:
                ratio_ok = False

    ce = class_constants(WeightFamily.EXPONENTIAL, 200)
    cb = class_constants(WeightFamily.BROWN_DES, 200)
    bounds_ok = ce.bw <= 2.0 and cb.bw <= 18.0 * math.e**2 and cb.c1 <= 3.0

    rng = np.random.default_rng(20260815)
    cover_violations = 0
    t = 50
    eps = 0.25
    for family in (WeightFamily.UNIFORM_WINDOW, WeightFamily.EXPONENTIAL, WeightFamily.BROWN_DES):
        net = build_weight_net(family, t, eps)
        params = np.array([s.param for s in net])
        vectors = np.array([make_weights(s).entries for s in net])
        for _ in range(1000):
            if family is WeightFamily.UNIFORM_WINDOW:
                p = float(rng.integers(1, t + 1))
            elif family is WeightFamily.EXPONENTIAL:
                p = float(rng.uniform(1e-9, 10.0))
            else:
                p = float(rng.uniform(1e-9, 1.0))
            w = make_weights(WeightSpec(family, t=t, n=t, param=p)).entries
            j = int(np.argmin(np.abs(params - p)))
            if float(np.abs(w - vectors[j]).sum()) > eps:
                cover_violations += 1
    elapsed = time.perf_counter() - t0
    ok = exact_ok and ratio_ok and bounds_ok and cover_violations == 0 and elapsed < 30.0
    _report(6, ok, f"uniform exact (bw=1, c1=1): {exact_ok}; ratio identity 1e-10: {ratio_ok}; "
                   f"exp bw={ce.bw:.4f} <= 2, brown bw={cb.bw:.2f} <= {18 * math.e**2:.1f}, "
                   f"c1={cb.c1:.3f} <= 3; cover violations={cover_violations}; "
                   f"time={elapsed:.1f}s < 30s")
    assert ok


def test_criterion_7_tail_certificate():
    t0 = time.perf_counter()
    n, reps = 10_000, 10_000
    details = []
    ok = True
    for phi in (0.3, 0.6):
        profile = MixingProfile.ar1(phi)
        block = m_beta(profile, n, 0.05).m
        krho = (1 + phi) / (1 - phi)
        w = make_weights(WeightSpec(WeightFamily.UNIFORM_WINDOW, t=n, n=n, param=n))
        rng = np.random.default_rng(20260816 + int(10 * phi))
        x = rng.standard_normal(reps)
        total = np.clip(x, -1.0, 1.0)
        scale = math.sqrt(1 - phi * phi)
        for _ in range(n - 1):
            x = phi * x + scale * rng.standard_normal(reps)
            total += np.clip(x, -1.0, 1.0)
        weighted = total / n  # bounded 1-Lipschitz test function, zero mean
        for s in (0.05, 0.1, 0.2):
            freq = float(np.mean(np.abs(weighted) > s))
            stderr = math.sqrt(max(freq * (1 - freq), 0.0) / reps)
            bound = blocked_bernstein_tail(1.0, 1.0, block, w, krho, s)
            passed = freq <= bound + 3 * stderr
            ok = ok and passed
            details.append(f"phi={phi} s={s}: {freq:.2e} <= {bound:.2e}+3se")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _report(7, ok, "; ".join(details) + f"; time={elapsed:.1f}s < 60s")
    assert ok


def test_criterion_8_brute_force_oracles():
    rng = np.random.default_rng(20260817)

    # constrained linear ERM vs exhaustive search, n <= 8, binding bound
    linear_gap = 0.0
    spec = ProcessSpec(
        kind=ProcessKind.DRIFTING_LINEAR,
        n=6,
        p=1,
        law=CovariateLaw.BALL,
        core=DependenceCore(),
        drift=DriftSpec.constant([0.9]),
        noise_sd=0.4,
        y_bound=2.6,
    )
    B = 0.35
    grid = np.arange(-B, B + 1e-9, 1e-4)
    for trial in range(40):
        path = simulate(spec, 1000 + trial)
        raw = rng.random(6) + 0.05
        w = _from_entries(raw / raw.sum())
        fit = fit_weighted_erm(path, w, HypothesisClassSpec.linear(B))
        z, y = path.z[:6, 0], path.y[:6]
        risks = ((y[None, :] - grid[:, None] * z[None, :]) ** 2 * w.entries[None, :]).sum(axis=1)
        linear_gap = max(linear_gap, abs(float(grid[np.argmin(risks)]) - float(fit.coef[0])))

    # step-basis ERM vs per-bin exhaustive search, n = 8, q <= 3
    step_gap = 0.0
    spec2 = ProcessSpec(
        kind=ProcessKind.DRIFTING_LINEAR,
        n=8,
        p=1,
        law=CovariateLaw.INTERVAL,
        core=DependenceCore(),
        drift=DriftSpec.constant([0.8]),
        noise_sd=0.3,
        y_bound=2.1,
    )
    B2 = 0.6
    grid2 = np.arange(-B2, B2 + 1e-9, 1e-4)
    for trial in range(40):
        path = simulate(spec2, 2000 + trial)
        raw = rng.random(8) + 0.05
        w = _from_entries(raw / raw.sum())
        q = 1 + trial % 3
        fit = fit_weighted_erm(path, w, HypothesisClassSpec.step(q, B2))
        z, y = path.z[:8, 0], path.y[:8]
        idx = np.clip((z * q).astype(int), 0, q - 1)
        for j in range(q):
            mask = idx == j
            if not mask.any():
                best = 0.0
            else:
                risks = ((y[mask][None, :] - grid2[:, None]) ** 2 * w.entries[mask][None, :]).sum(axis=1)
                best = float(grid2[np.argmin(risks)])
            step_gap = max(step_gap, abs(best - float(fit.bins[j])))

    # decomposition inequality on 1000 randomized exact runs
    holds = 0
    runs = 1000
    for trial in range(runs):
        kind = ["constant", "linear", "switch", "sinusoidal"][trial % 4]
        if kind == "constant":
            drift = DriftSpec.constant(rng.uniform(-0.4, 0.4, 2))
        elif kind == "linear":
            drift = DriftSpec.linear(rng.uniform(-0.4, 0.4, 2), rng.uniform(-0.4, 0.4, 2))
        elif kind == "switch":
            drift = DriftSpec.switch(
                rng.uniform(-0.4, 0.4, 2),
                rng.uniform(-0.4, 0.4, 2),
                at=int(rng.integers(10, 50)),
            )
        else:
            drift = DriftSpec.sinusoidal(
                rng.uniform(-0.2, 0.2, 2), rng.uniform(-0.2, 0.2, 2), cycles=2.0
            )
        rspec = ProcessSpec(
            kind=ProcessKind.DRIFTING_LINEAR,
            n=64,
            p=2,
            law=CovariateLaw.BALL,
            core=DependenceCore(),
            drift=drift,
            noise_sd=0.2,
            y_bound=2.0,
        )
        path = simulate(rspec, int(rng.integers(1, 1_000_000_000)))
        if trial % 2 == 0:
            wv = make_weights(WeightSpec(WeightFamily.UNIFORM_WINDOW, t=64, n=64, param=64))
        else:
            wv = make_weights(
                WeightSpec(WeightFamily.EXPONENTIAL, t=64, n=64, param=float(rng.uniform(0.01, 1.0)))
            )
        fit = fit_weighted_erm(path, wv, HypothesisClassSpec.linear(1.0))
        report = risk_report(fit, rspec, wv, 64)
        holds += report.decomposition_ok
    ok = linear_gap <= 2e-4 and step_gap <= 2e-4 and holds == runs
    _report(8, ok, f"linear oracle gap={linear_gap:.2e} <= 2e-4, "
                   f"step oracle gap={step_gap:.2e} <= 2e-4, "
                   f"decomposition held {holds}/{runs}")
    assert ok


def test_criterion_9_weight_uniform_certificate(baseline_result):
    cfg, res, _ = baseline_result
    c_cal = calibrate_ccal(res.rows)
    pinned = abs(c_cal - C_CAL_FIXTURE) <= 1e-6 * C_CAL_FIXTURE

    # fresh-seed dominance on the baseline config itself
    fresh_baseline = run_experiment(replace(cfg, base_seed=777))
    dominated = np.mean(
        [r.excess_risk <= c_cal * (r.certificate - r.drift_error) for r in fresh_baseline.rows]
    )

    # finite shadow of the weight-uniform quantifier: 50 decay rates x 200 paths
    n = 2048
    spec = replace(cfg.process, n=n)
    rate, _ = build_rate(cfg, spec)
    thetas = np.geomspace(theta_for_n_eff(1024.0, n), theta_for_n_eff(128.0, n), 50)
    weights = [
        make_weights(WeightSpec(WeightFamily.EXPONENTIAL, t=n, n=n, param=float(t)))
        for t in thetas
    ]
    certs = [c_cal * bound_certificate(rate, w.l2, 0.05) for w in weights]
    cls = HypothesisClassSpec.linear(1.0)
    violations = 0
    total = 0
    for rep in range(200):
        path = simulate(spec, 30_000_000 + rep)
        for w, cert in zip(weights, certs):
            fit = fit_weighted_erm(path, w, cls)
            exc, _, _ = excess_risk(fit, spec, n)
            total += 1
            violations += exc > cert
    rate_viol = violations / total
    ok = pinned and dominated >= 0.98 and rate_viol <= 0.02
    _report(9, ok, f"c_cal={c_cal:.6e} (pinned), fresh dominance={dominated:.3f} >= 0.98, "
                   f"violations={rate_viol:.4f} <= 0.02 over {total} pairs")
    assert ok
