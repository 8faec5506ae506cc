import json
import math
from dataclasses import replace

import numpy as np
import pytest

from drifterm.harness import (
    CSV_HEADER,
    ExperimentConfig,
    HarnessError,
    HypothesisPolicy,
    Row,
    WeightPolicy,
    build_rate,
    calibrate_ccal,
    config_from_dict,
    config_hash,
    config_to_dict,
    fit_slope,
    rows_from_csv,
    rows_to_csv,
    run_experiment,
)
from drifterm.hypotheses import HypothesisKind
from drifterm.processes import (
    CovariateLaw,
    DependenceCore,
    DriftSpec,
    ProcessKind,
    ProcessSpec,
)
from drifterm.rates import RatePreconditionError
from drifterm.weights import WeightFamily


def small_config(**overrides):
    proc = ProcessSpec(
        kind=ProcessKind.DRIFTING_LINEAR,
        n=64,
        p=2,
        law=CovariateLaw.BALL,
        core=DependenceCore(),
        drift=DriftSpec.constant([0.3, -0.2]),
        noise_sd=0.3,
        y_bound=2.0,
    )
    base = dict(
        process=proc,
        weights=WeightPolicy(),
        hypothesis=HypothesisPolicy(kind=HypothesisKind.LINEAR_BALL, b_bound=1.0),
        n_grid=(64, 128),
        replications=3,
        delta=0.05,
        base_seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_degenerate_config_has_no_slope(self):
        cfg = small_config(n_grid=(64,), replications=1)
        res = run_experiment(cfg)
        assert len(res.rows) == 1
        assert res.slope is None

    def test_row_fields_populated(self):
        res = run_experiment(small_config())
        assert len(res.rows) == 6
        for row in res.rows:
            assert row.certificate > 0
            assert row.learning_error >= 0
            assert row.drift_error == pytest.approx(0.0, abs=1e-28)

    def test_bit_identical_reruns(self, tmp_path):
        cfg = small_config()
        a = run_experiment(cfg, out_dir=str(tmp_path / "a"))
        b = run_experiment(cfg, out_dir=str(tmp_path / "b"))
        assert (tmp_path / "a" / "rows.csv").read_bytes() == (tmp_path / "b" / "rows.csv").read_bytes()

    def test_jobs_do_not_change_output(self, tmp_path):
        cfg = small_config()
        a = run_experiment(cfg, jobs=1, out_dir=str(tmp_path / "a"))
        b = run_experiment(cfg, jobs=3, out_dir=str(tmp_path / "b"))
        assert (tmp_path / "a" / "rows.csv").read_bytes() == (tmp_path / "b" / "rows.csv").read_bytes()

    def test_manifest_regenerates_rows(self, tmp_path):
        cfg = small_config()
        res = run_experiment(cfg, out_dir=str(tmp_path / "a"))
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        cfg2 = config_from_dict(manifest["config"])
        res2 = run_experiment(cfg2)
        assert rows_to_csv(res.rows) == rows_to_csv(res2.rows)
        assert manifest["config_sha256"] == config_hash(cfg2)

    def test_different_seed_changes_rows(self):
        a = run_experiment(small_config(base_seed=1))
        b = run_experiment(small_config(base_seed=2))
        assert rows_to_csv(a.rows) != rows_to_csv(b.rows)


LINEAR_IID = ProcessSpec(
    kind=ProcessKind.DRIFTING_LINEAR,
    n=256,
    p=2,
    law=CovariateLaw.BALL,
    core=DependenceCore(),
    drift=DriftSpec.constant([0.3, -0.2]),
    noise_sd=0.3,
    y_bound=2.0,
)

INTERVAL_AR1 = ProcessSpec(
    kind=ProcessKind.DRIFTING_LINEAR,
    n=256,
    p=1,
    law=CovariateLaw.INTERVAL,
    core=DependenceCore(kind="ar1", phi=0.6),
    drift=DriftSpec.constant([1.0]),
    noise_sd=0.3,
    y_bound=2.3,
)

RATE_CLASSES = {
    "linear": (LINEAR_IID, HypothesisPolicy(kind=HypothesisKind.LINEAR_BALL)),
    "step": (INTERVAL_AR1, HypothesisPolicy(kind=HypothesisKind.STEP_BASIS)),
    "step_q8": (INTERVAL_AR1, HypothesisPolicy(kind=HypothesisKind.STEP_BASIS, q=8)),
    "relu": (
        INTERVAL_AR1,
        HypothesisPolicy(kind=HypothesisKind.RELU_NET, nu=8, ell=2, param_bound=1.0),
    ),
}

# (class, family, n) -> (scale constant, min_slack) found by build_rate.
RATE_PINS = {
    ("linear", "uniform", 256): (16.0, 1.0786582429415734),
    ("linear", "uniform", 1024): (16.0, 1.2619929526108948),
    ("linear", "exp", 256): (32.0, 1.1998357651349008),
    ("linear", "exp", 1024): (32.0, 1.3073617032008829),
    ("linear", "brown", 256): (64.0, 1.836176186881131),
    ("linear", "brown", 1024): (32.0, 1.02330094171669),
    ("step", "uniform", 256): (16.0, 1.5597167154404963),
    ("step", "uniform", 1024): (16.0, 1.7598984919508383),
    ("step", "exp", 256): (32.0, 1.4441920833962605),
    ("step", "exp", 1024): (32.0, 1.60063739891265),
    ("step_q8", "uniform", 256): (64.0, 1.1512659707314117),
    ("step_q8", "uniform", 1024): (64.0, 1.2327123590096296),
    ("step_q8", "exp", 256): (128.0, 1.7958242436268543),
    ("step_q8", "exp", 1024): (128.0, 1.942651384045209),
    ("relu", "uniform", 256): (16.0, 1.0106822494279055),
    ("relu", "uniform", 1024): (16.0, 1.0623818155198466),
    ("relu", "exp", 256): (32.0, 1.1399455828340035),
    ("relu", "exp", 1024): (32.0, 1.2180771447101695),
}


# build_rate reads only the weight family; 1.0 is a valid parameter of all three.
def rate_config(klass: str, family: str, n: int, params=(1.0,)):
    proc, hyp = RATE_CLASSES[klass]
    cfg = ExperimentConfig(
        process=proc,
        weights=WeightPolicy(family=WeightFamily(family), params=params),
        hypothesis=hyp,
        n_grid=(n,),
        replications=1,
    )
    return cfg, replace(proc, n=n)


class TestBuildRate:
    @pytest.mark.parametrize("key", sorted(RATE_PINS), ids=lambda key: "-".join(map(str, key)))
    def test_pinned_scale_and_slack(self, key):
        klass, family, n = key
        rate, report = build_rate(*rate_config(klass, family, n))
        a, slack = RATE_PINS[key]
        assert rate.params.a == a
        assert report.all_pass
        assert report.min_slack == pytest.approx(slack, rel=1e-12)

    @pytest.mark.parametrize("klass", ["step", "step_q8", "relu"])
    def test_brown_weights_exceed_n_on_ar1(self, klass):
        with pytest.raises(RatePreconditionError):
            build_rate(*rate_config(klass, "brown", 256))

    @pytest.mark.parametrize("klass", ["step", "relu"])
    def test_brown_weights_on_ar1_fail_the_run_with_harness_error(self, klass):
        cfg, _ = rate_config(klass, "brown", 256)
        with pytest.raises(
            HarnessError, match=r"brown weights at n=256: .*dependence constant .* exceeds n=256"
        ):
            run_experiment(cfg)

    def test_no_params_means_full_uniform_window(self):
        rate, report = build_rate(*rate_config("linear", "brown", 256, params=None))
        assert rate.params.a == 16.0
        assert report.min_slack == pytest.approx(1.0786582429415734, rel=1e-12)


class TestConfigValidation:
    def test_n_grid_must_increase(self):
        with pytest.raises(HarnessError):
            small_config(n_grid=(128, 64))

    def test_slope_experiments_need_replications(self):
        with pytest.raises(HarnessError):
            small_config(
                n_grid=(64, 128, 256, 512, 1024),
                replications=5,
                slope_target=-1.0,
                slope_band=(-1.2, -0.8),
            )

    def test_slope_experiments_need_wide_grid(self):
        with pytest.raises(HarnessError):
            small_config(
                n_grid=(64, 80, 96, 112, 128),
                replications=30,
                slope_target=-1.0,
            )

    @pytest.mark.parametrize(
        "family, params",
        [("uniform", (0.5,)), ("uniform", (200.0,)), ("exp", (0.1, -1.0)), ("brown", (1.5,))],
    )
    def test_weight_params_checked_against_the_family(self, family, params):
        with pytest.raises(HarnessError, match=r"^weights\.params: "):
            small_config(weights=WeightPolicy(family=WeightFamily(family), params=params))

    def test_config_roundtrip(self):
        cfg = small_config(
            weights=WeightPolicy(family=WeightFamily.EXPONENTIAL, params=(0.1, 0.5)),
        )
        again = config_from_dict(config_to_dict(cfg))
        assert config_hash(cfg) == config_hash(again)


class TestFitSlope:
    def _rows(self, xs, ys):
        return [
            Row(
                n=int(x),
                param=float(x),
                w_l2=1.0 / math.sqrt(x),
                seed=0,
                learning_error=float(y),
                drift_error=0.0,
                excess_risk=float(y),
                certificate=1.0,
            )
            for x, y in zip(xs, ys)
        ]

    def test_exact_square_power(self):
        xs = [2, 4, 8, 16, 32]
        rows = self._rows(xs, [x**2 for x in xs])
        fit = fit_slope(rows, "n", "learning_error")
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_constant_gives_zero(self):
        xs = [2, 4, 8, 16, 32]
        fit = fit_slope(self._rows(xs, [3.0] * 5), "n", "learning_error")
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_noisy_two_thirds_power(self):
        rng = np.random.default_rng(4)
        xs = np.geomspace(10, 10_000, 12)
        ys = xs ** (-2 / 3) * (1.0 + 0.01 * rng.standard_normal(12))
        fit = fit_slope(self._rows(xs, ys), "param", "learning_error")
        assert fit.slope == pytest.approx(-2 / 3, abs=0.02)

    def test_min_points_enforced(self):
        rows = self._rows([2, 4, 8], [1.0, 2.0, 3.0])
        with pytest.raises(HarnessError):
            fit_slope(rows, "n", "learning_error")
        fit_slope(rows, "n", "learning_error", min_points=3)

    def test_replication_means_are_used(self):
        xs = [2, 2, 4, 4, 8, 8, 16, 16, 32, 32]
        ys = [1.0, 3.0, 2.0, 6.0, 4.0, 12.0, 8.0, 24.0, 16.0, 48.0]  # means double with x
        fit = fit_slope(self._rows(xs, ys), "n", "learning_error")
        assert fit.slope == pytest.approx(1.0, abs=1e-12)

    def test_nonpositive_values_rejected(self):
        rows = self._rows([2, 4, 8, 16, 32], [1.0, 1.0, 0.0, 1.0, 1.0])
        with pytest.raises(HarnessError):
            fit_slope(rows, "n", "learning_error")

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_values_rejected(self, bad):
        rows = self._rows([2, 4, 8, 16, 32], [1.0, 1.0, bad, 1.0, 1.0])
        with pytest.raises(HarnessError, match="finite, positive"):
            fit_slope(rows, "n", "learning_error")


class TestCalibration:
    def test_homogeneity(self):
        res = run_experiment(small_config(replications=10))
        c = calibrate_ccal(res.rows)
        doubled = [replace(r, excess_risk=2.0 * r.excess_risk) for r in res.rows]
        assert calibrate_ccal(doubled) == pytest.approx(2.0 * c, rel=1e-12)

    def test_unit_bound_gives_at_most_one(self):
        rows = [
            Row(n=10, param=1.0, w_l2=0.3, seed=0, learning_error=0.1,
                drift_error=0.0, excess_risk=0.5, certificate=1.0)
        ]
        assert calibrate_ccal(rows) <= 1.0

    def test_zero_denominator_rejected(self):
        rows = [
            Row(n=10, param=1.0, w_l2=0.3, seed=0, learning_error=0.1,
                drift_error=1.0, excess_risk=0.5, certificate=1.0)
        ]
        with pytest.raises(HarnessError):
            calibrate_ccal(rows)


class TestOutlierFlagging:
    def test_extreme_row_flagged_but_kept(self):
        from drifterm.harness import _flag_outliers

        rows = [
            Row(n=64, param=64.0, w_l2=0.125, seed=i, learning_error=v,
                drift_error=0.0, excess_risk=v, certificate=1.0)
            for i, v in enumerate([1.0, 1.1, 0.9, 1.05, 0.95, 500.0])
        ]
        flagged = _flag_outliers(rows)
        assert len(flagged) == 1
        assert flagged[0]["learning_error"] == 500.0

    def test_manifest_carries_outliers(self):
        res = run_experiment(small_config(replications=10))
        assert "outliers" in res.manifest


class TestCsvRoundtrip:
    def test_header_and_roundtrip(self):
        res = run_experiment(small_config())
        text = rows_to_csv(res.rows)
        assert CSV_HEADER == "n,param,w_l2,seed,learning_error,drift_error,excess_risk,certificate"
        assert text.splitlines()[0] == CSV_HEADER
        back = rows_from_csv(text)
        assert back == list(res.rows)
        assert rows_to_csv(back) == text

    GOOD = "64,64.0,0.125,7,0.01,0.0,0.02,0.5"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", r"^rows\.csv line 1: expected the header"),
            ("n,param\n", r"^rows\.csv line 1: expected the header"),
            (f"{CSV_HEADER}\n{GOOD}\n64,64.0,0.125\n", r"^rows\.csv line 3: expected 8 fields, got 3"),
            (f"{CSV_HEADER}\n{GOOD},9.0\n", r"^rows\.csv line 2: expected 8 fields, got 9"),
            (f"{CSV_HEADER}\n64,64.0,0.125,7,nan,0.0,0.02,0.5\n", r"^rows\.csv line 2: learning_error: non-finite nan"),
            (f"{CSV_HEADER}\n64,64.0,0.125,7,0.01,0.0,inf,0.5\n", r"^rows\.csv line 2: excess_risk: non-finite inf"),
            (f"{CSV_HEADER}\n64.5,64.0,0.125,7,0.01,0.0,0.02,0.5\n", r"^rows\.csv line 2: n: expected int, got '64\.5'"),
            (f"{CSV_HEADER}\n64,64.0,0.125,7,abc,0.0,0.02,0.5\n", r"^rows\.csv line 2: learning_error: expected float, got 'abc'"),
        ],
        ids=["empty", "bad-header", "short-line", "extra-column", "nan", "inf", "float-n", "text"],
    )
    def test_malformed_rows_rejected(self, text, message):
        with pytest.raises(HarnessError, match=message):
            rows_from_csv(text)

    def test_header_only_gives_no_rows(self):
        assert rows_from_csv(CSV_HEADER + "\n") == []
