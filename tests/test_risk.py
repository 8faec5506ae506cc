import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from drifterm.harness import config_from_dict
from drifterm.hypotheses import (
    FittedHypothesis,
    HypothesisClassSpec,
    HypothesisKind,
    fit_weighted_erm,
)
from drifterm.processes import (
    CovariateLaw,
    DependenceCore,
    DriftSpec,
    ProcessKind,
    ProcessSpec,
    law_second_moment,
    simulate,
)
from drifterm.risk import (
    RiskError,
    discrepancy,
    discrepancy_sum,
    drift_error,
    excess_risk,
    learning_error,
    risk_report,
)
from drifterm.weights import WeightFamily, WeightSpec, make_weights


def linear_spec(n=256, p=2, noise_sd=0.3, drift=None, law=CovariateLaw.BALL, core=None):
    return ProcessSpec(
        kind=ProcessKind.DRIFTING_LINEAR,
        n=n,
        p=p,
        law=law,
        core=core or DependenceCore(),
        drift=drift or DriftSpec.constant([0.3, -0.2][:p]),
        noise_sd=noise_sd,
        y_bound=2.5,
    )


def variance_spec(n=2000, mean=0.0, var_start=1.0, var_end=11.0):
    return ProcessSpec(
        kind=ProcessKind.DRIFTING_VARIANCE,
        n=n,
        p=1,
        law=CovariateLaw.INTERVAL,
        core=DependenceCore(),
        mean=mean,
        var_start=var_start,
        var_end=var_end,
        y_bound=abs(mean) + math.sqrt(max(var_start, var_end)) * 4.01,
    )


def uniform_w(n):
    return make_weights(WeightSpec(WeightFamily.UNIFORM_WINDOW, t=n, n=n, param=n))


def linear_hyp(coef):
    coef = np.asarray(coef, dtype=float)
    return FittedHypothesis(
        class_spec=HypothesisClassSpec.linear(max(1.0, np.linalg.norm(coef))),
        coef=coef,
    )


class TestLearningError:
    def test_noiseless_stationary_zero(self):
        spec = linear_spec(noise_sd=0.0)
        path = simulate(spec, 1)
        w = uniform_w(spec.n)
        fit = fit_weighted_erm(path, w, HypothesisClassSpec.linear(1.0))
        v, se, mode = learning_error(fit, spec, w)
        assert mode == "exact"
        assert v == pytest.approx(0.0, abs=1e-12)

    def test_scalar_quadratic_form(self):
        spec = linear_spec(p=1, drift=DriftSpec.constant([0.4]))
        w = uniform_w(spec.n)
        fit = linear_hyp([0.4 + 0.25])
        v, _, _ = learning_error(fit, spec, w)
        assert v == pytest.approx(0.25**2 * (1 / 3), rel=1e-12)

    def test_matches_high_precision_mc_oracle(self):
        spec = linear_spec(n=32)
        path = simulate(spec, 3)
        w = uniform_w(32)
        fit = fit_weighted_erm(path, w, HypothesisClassSpec.linear(1.0))
        exact, _, _ = learning_error(fit, spec, w)
        rng = np.random.default_rng(999)
        z = (2.0 * rng.random((10_000_000, 2)) - 1.0) / math.sqrt(2)
        diff = z @ (fit.coef - np.array([0.3, -0.2]))
        sq = diff**2
        mc = float(sq.mean())
        se = float(sq.std(ddof=1)) / math.sqrt(len(sq))
        assert abs(exact - mc) <= 3 * se


def reference_fit_step(z, y, w, q, B):
    """The step fitter one path at a time, bin by bin: (bins, empirical risk, concave bins)."""
    idx = np.clip(np.floor(z * q).astype(int), 0, q - 1)
    sw = np.bincount(idx, weights=w, minlength=q)
    sy = np.bincount(idx, weights=w * y, minlength=q)
    values, concave = np.zeros(q), 0
    for j in range(q):
        if sw[j] > 0:
            values[j] = min(max(sy[j] / sw[j], -B), B)
        elif sw[j] < 0:
            lo, hi = sw[j] * B**2 + 2.0 * sy[j] * B, sw[j] * B**2 - 2.0 * sy[j] * B
            values[j] = -B if lo < hi else B
            concave += 1
    return values, float(np.dot(w, (y - values[idx]) ** 2)), concave


class TestStepBlocks:
    """A step block's fits and interval-law distances are, row by row, bit for
    bit those of its paths fitted one at a time."""

    N = 64
    SPECS = {
        "linear": linear_spec(n=N, p=1, drift=DriftSpec.constant([0.8]), law=CovariateLaw.INTERVAL),
        "constant": variance_spec(n=N, mean=0.2, var_start=0.5, var_end=1.5),
    }

    @pytest.mark.parametrize("target", sorted(SPECS))
    @pytest.mark.parametrize("family, param", [("uniform", 48), ("exp", 0.05), ("brown", 0.3)])
    @pytest.mark.parametrize("q", [None, 5, 200], ids=["sized", "q5", "q200"])
    def test_block_rows_are_the_fits_of_their_paths_alone(self, target, family, param, q):
        spec, seeds = self.SPECS[target], list(range(12))
        w = make_weights(WeightSpec(WeightFamily(family), t=self.N, n=self.N, param=param))
        klass = HypothesisClassSpec(kind=HypothesisKind.STEP_BASIS, b_bound=0.6, q=q)
        block = fit_weighted_erm(simulate(spec, seeds), w, klass)
        learn, learn_se, _ = learning_error(block, spec, w)
        exc, exc_se, _ = excess_risk(block, spec, self.N)
        assert len(block) == len(seeds) and not learn_se.any() and not exc_se.any()
        alone_learn, alone_exc, concave, empty = [], [], 0, 0
        for seed, fit in zip(seeds, block):
            path = simulate(spec, seed)
            alone = fit_weighted_erm(path, w, klass)
            assert repr(fit.bins.tolist()) == repr(alone.bins.tolist())
            assert repr(fit.fit_meta) == repr(alone.fit_meta)
            bins, risk, nonconvex = reference_fit_step(path.z[: self.N, 0], path.y[: self.N], w.entries,
                                                       fit.class_spec.q, 0.6)
            assert repr(fit.bins.tolist()) == repr(bins.tolist())
            assert repr((fit.fit_meta["empirical_risk"], fit.fit_meta["nonconvex_bins"])) == repr((risk, nonconvex))
            alone_learn.append(learning_error(alone, spec, w)[0])
            alone_exc.append(excess_risk(alone, spec, self.N)[0])
            concave += nonconvex
            empty += int(np.count_nonzero(bins == 0.0))
        np.testing.assert_array_equal(learn, alone_learn)
        np.testing.assert_array_equal(exc, alone_exc)
        assert (concave > 0) == (family == "brown")
        assert (empty > 0) == (q == 200)


class TestDriftError:
    def test_stationary_zero(self):
        spec = linear_spec()
        assert drift_error(spec, uniform_w(spec.n), spec.n) == pytest.approx(0.0, abs=1e-30)

    def test_variance_kind_always_zero(self):
        spec = variance_spec()
        assert drift_error(spec, uniform_w(spec.n), spec.n) == 0.0
        # both optima are the mean, whatever the weights
        for family, param in [(WeightFamily.EXPONENTIAL, 0.01), (WeightFamily.BROWN_DES, 0.5)]:
            for mean in (0.0, 0.3):
                spec = variance_spec(mean=mean)
                w = make_weights(WeightSpec(family, t=spec.n, n=spec.n, param=param))
                assert drift_error(spec, w, spec.n) == 0.0

    def test_switch_drift_quarter_gap(self):
        spec = ProcessSpec(
            kind=ProcessKind.DRIFTING_LINEAR,
            n=100,
            p=2,
            law=CovariateLaw.BALL,
            core=DependenceCore(),
            drift=DriftSpec.switch([1.0, 0.0], [0.0, 1.0], at=50),
            noise_sd=0.0,
            y_bound=1.5,
        )
        w = uniform_w(100)
        gap = np.array([1.0, -1.0]) / 2.0
        M = law_second_moment(spec.law, spec.p)
        assert drift_error(spec, w, 100) == pytest.approx(float(gap @ M @ gap), rel=1e-12)

    def test_population_level_seed_invariance(self):
        spec = linear_spec(drift=DriftSpec.linear([0.0, 0.0], [0.3, -0.3]))
        w = uniform_w(spec.n)
        assert drift_error(spec, w, spec.n) == drift_error(spec, w, spec.n)


class TestDiscrepancy:
    def test_variance_kind_consecutive(self):
        spec = variance_spec(n=2000, var_start=1.0, var_end=11.0)
        cls = HypothesisClassSpec.step(1, 1.0)
        var = 1.0 + 10.0 * np.arange(2001) / 2000
        for t in (2, 100, 2001):
            assert discrepancy(spec, cls, t, t - 1) == pytest.approx(var[t - 1] - var[t - 2])

    def test_identical_marginals_zero(self):
        spec = linear_spec()
        cls = HypothesisClassSpec.linear(1.0)
        assert discrepancy(spec, cls, 5, 17) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("s, t", [(0, 5), (5, 258)])
    def test_times_outside_the_path_refused(self, s, t):
        with pytest.raises(RiskError, match=r"^times must lie in 1\.\.n\+1$"):
            discrepancy(linear_spec(), HypothesisClassSpec.linear(1.0), s, t)

    def test_telescoping_sum(self):
        spec = variance_spec(var_start=1.0, var_end=11.0)
        cls = HypothesisClassSpec.step(1, 1.0)
        assert discrepancy_sum(spec, cls) == pytest.approx(11.0 - 1.0, abs=1e-9)

    def test_variance_path_makes_discrepancy_thousandfold(self):
        # a steeper variance ramp pushes the summed discrepancy three
        # orders of magnitude beyond the decomposition bound
        spec = variance_spec(n=2000, var_start=1.0, var_end=101.0)
        cls = HypothesisClassSpec.step(1, 1.0)
        w = uniform_w(2000)
        path = simulate(spec, 9)
        fit = fit_weighted_erm(path, w, cls)
        learn, _, _ = learning_error(fit, spec, w)
        bound = 2.0 * (learn + drift_error(spec, w, 2000))
        assert discrepancy_sum(spec, cls) >= 1000.0 * bound

    def test_linear_class_dominates_plugin_hypotheses(self):
        # the closed-form sup is an upper bound for the gap at any fixed h
        spec = linear_spec(drift=DriftSpec.switch([0.5, 0.0], [0.0, 0.5], at=128))
        cls = HypothesisClassSpec.linear(1.0)
        d = discrepancy(spec, cls, 200, 50)
        M = law_second_moment(spec.law, spec.p)
        betas = {50: np.array([0.5, 0.0]), 200: np.array([0.0, 0.5])}
        rng = np.random.default_rng(8)
        for _ in range(200):
            h = rng.uniform(-1, 1, 2)
            h = h / max(1.0, np.linalg.norm(h))
            gap = float(
                (betas[200] - h) @ M @ (betas[200] - h)
                - (betas[50] - h) @ M @ (betas[50] - h)
            )
            assert gap <= d + 1e-12

    def test_relu_class_unavailable(self):
        spec = linear_spec()
        cls = HypothesisClassSpec.relu(4, 1, 1.0)
        assert discrepancy(spec, cls, 2, 1) is None
        assert discrepancy_sum(spec, cls) is None

    def test_variance_kind_relu_class_gets_the_variance_gap(self):
        # var(s) - var(t) is the gap for every hypothesis, networks included
        spec = variance_spec(n=50, var_start=1.0, var_end=3.0)
        cls = HypothesisClassSpec.relu(4, 1, 1.0)
        assert discrepancy_sum(spec, cls) == pytest.approx(2.0, rel=1e-15)
        assert discrepancy(spec, cls, 51, 1) == pytest.approx(2.0, rel=1e-15)

    def test_step_class_off_the_interval_law_refused(self):
        spec = linear_spec(n=12, drift=DriftSpec.linear([0.3, -0.2], [-0.4, 0.5]))
        cls = HypothesisClassSpec.step(5, 1.0)
        with pytest.raises(RiskError, match=r"^step class needs the interval law, got ball$"):
            discrepancy_sum(spec, cls)
        with pytest.raises(RiskError, match=r"^step class needs the interval law, got ball$"):
            discrepancy(spec, cls, 3, 2)


DRIFTS = {
    "constant": lambda a, b: DriftSpec.constant(a),
    "linear": lambda a, b: DriftSpec.linear(a, b),
    "switch": lambda a, b: DriftSpec.switch(a, b, at=7),
    "sinusoidal": lambda a, b: DriftSpec.sinusoidal(a, b, cycles=1.5),
}


def brute_force_ball_gap(M, bs, bt, b_bound, angles=20_000):
    """max over a fine angle grid on the B-circle of E_s[loss] - E_t[loss]."""
    theta = np.linspace(0.0, 2.0 * math.pi, angles, endpoint=False)
    h = b_bound * np.stack([np.cos(theta), np.sin(theta)], axis=1)

    def loss(beta):
        return np.einsum("ij,jk,ik->i", beta - h, M, beta - h)

    return float(np.max(loss(bs) - loss(bt)))


def brute_force_step_gap(q, bs, bt, b_bound):
    """Per-bin max over the endpoints +-B of int_bin (bs z - c)^2 - (bt z - c)^2 dz.

    The bin integrals use two-point Gauss-Legendre quadrature, exact for
    these quadratics.
    """
    nodes, weights = np.polynomial.legendre.leggauss(2)
    total = 0.0
    for j in range(q):
        lo, hi = j / q, (j + 1) / q
        z = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        wz = 0.5 * (hi - lo) * weights
        total += max(
            float(wz @ ((bs * z - c) ** 2 - (bt * z - c) ** 2)) for c in (-b_bound, b_bound)
        )
    return total


class TestDiscrepancySumBruteForce:
    @pytest.mark.parametrize("drift", sorted(DRIFTS))
    def test_linear_ball(self, drift):
        spec = linear_spec(n=12, drift=DRIFTS[drift]([0.3, -0.2], [-0.4, 0.5]))
        cls = HypothesisClassSpec.linear(0.8)
        betas, M = spec.drift.path(spec.n), law_second_moment(spec.law, spec.p)
        brute = sum(
            brute_force_ball_gap(M, betas[t - 1], betas[t - 2], 0.8) for t in range(2, spec.n + 2)
        )
        assert discrepancy_sum(spec, cls) == pytest.approx(brute, rel=1e-6, abs=1e-9)

    @pytest.mark.parametrize("drift", sorted(DRIFTS))
    def test_step(self, drift):
        spec = linear_spec(
            n=12, p=1, law=CovariateLaw.INTERVAL, drift=DRIFTS[drift]([0.3], [-0.6])
        )
        cls = HypothesisClassSpec.step(5, 0.7)
        betas = spec.drift.path(spec.n)[:, 0]
        brute = sum(
            brute_force_step_gap(5, betas[t - 1], betas[t - 2], 0.7) for t in range(2, spec.n + 2)
        )
        assert discrepancy_sum(spec, cls) == pytest.approx(brute, rel=1e-12, abs=1e-14)

    def test_unsized_step_class(self):
        # q = None, as in every step config: the gap does not depend on q
        spec = linear_spec(n=12, p=1, law=CovariateLaw.INTERVAL, drift=DRIFTS["linear"]([0.3], [-0.6]))
        unsized = HypothesisClassSpec(kind=HypothesisKind.STEP_BASIS, b_bound=0.7)
        betas = spec.drift.path(spec.n)[:, 0]
        brute = brute_force_step_gap(5, betas[3], betas[2], 0.7)
        assert discrepancy(spec, unsized, 4, 3) == pytest.approx(brute, rel=1e-12, abs=1e-14)
        assert discrepancy_sum(spec, unsized) == discrepancy_sum(spec, HypothesisClassSpec.step(5, 0.7))

    @pytest.mark.parametrize("cls", [HypothesisClassSpec.step(3, 1.0), HypothesisClassSpec.linear(1.0)])
    def test_variance_sum_telescopes(self, cls):
        spec = variance_spec(n=9, var_start=2.0, var_end=0.5)
        brute = sum(discrepancy(spec, cls, t, t - 1) for t in range(2, 11))
        assert discrepancy_sum(spec, cls) == pytest.approx(brute, abs=1e-14)
        assert discrepancy_sum(spec, cls) == pytest.approx(0.5 - 2.0, abs=1e-14)


ORACLE_CLASSES = {
    "linear_ball": (2, CovariateLaw.BALL, HypothesisClassSpec.linear(0.8)),
    "linear_interval": (1, CovariateLaw.INTERVAL, HypothesisClassSpec.linear(0.8)),
    "step_q5": (1, CovariateLaw.INTERVAL, HypothesisClassSpec.step(5, 0.7)),
    "step_unsized": (1, CovariateLaw.INTERVAL, HypothesisClassSpec(kind=HypothesisKind.STEP_BASIS, b_bound=0.7)),
}


class TestDiscrepancySumOracle:
    """The telescoped sum against the pairwise closed form, one call per step."""

    @staticmethod
    def pairwise_sum(spec, cls):
        return sum(discrepancy(spec, cls, t, t - 1) for t in range(2, spec.n + 2))

    @pytest.mark.parametrize("n", [1, 12, 4096])
    @pytest.mark.parametrize("cls_name", sorted(ORACLE_CLASSES))
    @pytest.mark.parametrize("drift", sorted(DRIFTS))
    def test_linear_kind(self, drift, cls_name, n):
        p, law, cls = ORACLE_CLASSES[cls_name]
        spec = linear_spec(n=n, p=p, law=law, drift=DRIFTS[drift]([0.3, -0.2][:p], [-0.4, 0.5][:p]))
        assert discrepancy_sum(spec, cls) == pytest.approx(self.pairwise_sum(spec, cls), rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("n", [1, 12, 4096])
    def test_variance_kind(self, n):
        spec = variance_spec(n=n, var_start=2.0, var_end=0.5)
        cls = HypothesisClassSpec.step(5, 1.0)
        assert discrepancy_sum(spec, cls) == pytest.approx(self.pairwise_sum(spec, cls), rel=1e-12, abs=1e-14)


DRIFT_REPORT = Path(__file__).resolve().parents[1] / "perfbench" / "workloads" / "drift_report.json"


@pytest.mark.parametrize("n", [4096, 256])
def test_drift_report_workload_pinned_discrepancy_sum(n):
    # the benchmark counts a drift_report call as failed when its sum leaves this pin
    workload = json.loads(DRIFT_REPORT.read_text())
    cfg = config_from_dict({**workload["config"], **(workload["smoke"] if n == 256 else {})})
    assert cfg.n_grid == (n,)
    pinned = workload["pinned_discrepancy_sum"][str(n)]
    spec = dataclasses.replace(cfg.process, n=n)
    assert discrepancy_sum(spec, cfg.hypothesis) == pytest.approx(pinned, rel=1e-9)


class TestExcessRisk:
    def test_bayes_predictor_zero(self):
        spec = linear_spec()
        fit = linear_hyp([0.3, -0.2])
        v, _, mode = excess_risk(fit, spec, spec.n)
        assert v == pytest.approx(0.0, abs=1e-30) and mode == "exact"

    def test_error_vector_quadratic_form(self):
        spec = linear_spec()
        d = np.array([0.1, -0.2])
        fit = linear_hyp(np.array([0.3, -0.2]) + d)
        v, _, _ = excess_risk(fit, spec, spec.n)
        M = law_second_moment(spec.law, spec.p)
        assert v == pytest.approx(float(d @ M @ d), rel=1e-12)

    def test_decomposition_inequality_monte_carlo(self):
        # step fit on a drifting linear target: all three terms Monte Carlo
        # or exact, inequality holds with the 4-stderr slack
        spec = linear_spec(
            n=512, p=1, drift=DriftSpec.linear([0.2], [0.8]), law=CovariateLaw.INTERVAL
        )
        path = simulate(spec, 77)
        w = uniform_w(512)
        fit = fit_weighted_erm(path, w, HypothesisClassSpec.step(5, 1.0))
        report = risk_report(fit, spec, w, 512)
        assert report.decomposition_ok
        assert report.excess_risk >= -4 * report.excess_stderr


class TestRiskReport:
    def test_modes_and_nonnegativity(self):
        spec = linear_spec()
        path = simulate(spec, 13)
        w = uniform_w(spec.n)
        fit = fit_weighted_erm(path, w, HypothesisClassSpec.linear(1.0))
        report = risk_report(fit, spec, w, spec.n)
        assert report.modes["learning_error"] == "exact"
        assert report.learning_error >= 0
        assert report.drift_error >= 0
        assert report.discrepancy_sum == pytest.approx(0.0, abs=1e-12)
        assert report.decomposition_ok

    @pytest.mark.parametrize("t", [0, 51, 100])
    def test_target_time_outside_path_rejected(self, t):
        spec = linear_spec(n=50)
        w = uniform_w(50)
        fit = fit_weighted_erm(simulate(spec, 2), w, HypothesisClassSpec.linear(1.0))
        with pytest.raises(RiskError, match=rf"^t={t} outside 1\.\.n=50$"):
            risk_report(fit, spec, w, t)

    def test_decomposition_identity_randomized(self):
        # for exact linear computations the inequality
        # excess <= 2 (learning + drift) is the parallelogram law in the
        # second-moment norm; exercised over randomized drifts and weights
        from drifterm.hypotheses import RankDeficientGramError

        rng = np.random.default_rng(2024)
        flagged = 0
        for trial in range(200):
            kind = ["constant", "linear", "switch", "sinusoidal"][trial % 4]
            if kind == "constant":
                drift = DriftSpec.constant(rng.uniform(-0.4, 0.4, 2))
            elif kind == "linear":
                drift = DriftSpec.linear(rng.uniform(-0.4, 0.4, 2), rng.uniform(-0.4, 0.4, 2))
            elif kind == "switch":
                drift = DriftSpec.switch(
                    rng.uniform(-0.4, 0.4, 2), rng.uniform(-0.4, 0.4, 2), at=int(rng.integers(10, 50))
                )
            else:
                drift = DriftSpec.sinusoidal(
                    rng.uniform(-0.2, 0.2, 2), rng.uniform(-0.2, 0.2, 2), cycles=2.0
                )
            spec = linear_spec(n=64, drift=drift, noise_sd=0.2)
            path = simulate(spec, int(rng.integers(1, 10_000_000)))
            if trial % 3 == 0:
                w = uniform_w(64)
            elif trial % 3 == 1:
                w = make_weights(
                    WeightSpec(WeightFamily.EXPONENTIAL, t=64, n=64, param=float(rng.uniform(0.01, 1.0)))
                )
            else:
                w = make_weights(
                    WeightSpec(WeightFamily.BROWN_DES, t=64, n=64, param=float(rng.uniform(0.05, 0.9)))
                )
            try:
                fit = fit_weighted_erm(path, w, HypothesisClassSpec.linear(1.0))
            except RankDeficientGramError:
                flagged += 1  # signed weights may lose definiteness: flag, no fit
                continue
            report = risk_report(fit, spec, w, 64)
            assert report.decomposition_ok
        assert flagged < 50  # the flag stays the exception, not the rule
