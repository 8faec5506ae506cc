import collections
import concurrent.futures
import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from drifterm.harness import (
    CSV_HEADER,
    ExperimentConfig,
    HarnessError,
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
import drifterm
from drifterm import harness, hypotheses, rates
from drifterm.hypotheses import HypothesisClassSpec, HypothesisKind, fit_weighted_erm
from drifterm.processes import (
    CovariateLaw,
    DependenceCore,
    DriftSpec,
    ProcessKind,
    ProcessSpec,
    pcg64_words,
    simulate,
)
from drifterm.rates import RateParameters, RatePreconditionError, RateVariant, check_rate_conditions
from drifterm.risk import excess_risk, learning_error
from drifterm.weights import WeightFamily, WeightSpec, class_rate_inputs, make_weights


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
        hypothesis=HypothesisClassSpec(kind=HypothesisKind.LINEAR_BALL, b_bound=1.0),
        n_grid=(64, 128),
        replications=3,
        delta=0.05,
        base_seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# The fewest grid points that give a slope over n.
SLOPE_GRID = (64, 128, 256, 512, 1024)


@pytest.fixture
def own_pool():
    """No live pool before or after the test: a test that patches the harness
    forks its workers after its patches, and no later test runs on them."""
    harness._close_pool()
    yield
    harness._close_pool()


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

    def test_manifest_json_is_the_run_manifest(self, tmp_path):
        cfg = small_config(n_grid=SLOPE_GRID, slope_band=(-2.0, 0.0))
        res = run_experiment(cfg, out_dir=str(tmp_path))
        assert res.slope is not None
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert {"outliers", "slope", "slope_pass"} <= set(manifest)
        assert manifest == res.manifest

    def test_slope_pass_reads_the_slope_band_alone(self):
        res = run_experiment(small_config(n_grid=SLOPE_GRID))
        slope = res.slope.slope
        assert res.slope_pass is None  # no band
        around = run_experiment(small_config(n_grid=SLOPE_GRID, slope_band=(slope - 0.1, slope + 0.1)))
        assert around.slope.slope == slope
        assert around.slope_pass is True
        assert run_experiment(small_config(n_grid=SLOPE_GRID, slope_band=(0.0, 0.5))).slope_pass is False


POOL_OPENS_AFTER_ROW_0 = """
import concurrent.futures, json, sys
from drifterm import harness

opened = []

class Pool(concurrent.futures.ProcessPoolExecutor):
    def __init__(self, *args, **kwargs):
        opened.append("scipy.signal" in sys.modules)
        super().__init__(*args, **kwargs)

concurrent.futures.ProcessPoolExecutor = Pool
before = "scipy.signal" in sys.modules
harness.run_experiment(harness.config_from_dict(json.load(sys.stdin)), jobs=2)
print(json.dumps([before, opened]))
"""


class TestRowPool:
    def test_workers_fork_after_row_0_imported_scipy_signal(self):
        """On the AR(1) path the pool opens only once row 0 has imported lfilter."""
        ar1 = replace(small_config().process, core=DependenceCore(kind="ar1", phi=0.6))
        cfg = small_config(process=ar1)
        env = {**os.environ, "PYTHONPATH": str(Path(drifterm.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-c", POOL_OPENS_AFTER_ROW_0],
            input=json.dumps(config_to_dict(cfg)),
            env=env, capture_output=True, text=True, check=True,
        )
        assert json.loads(out.stdout) == [False, [True]]

    @pytest.mark.usefixtures("own_pool")
    def test_failing_row_0_gives_the_same_result_for_every_jobs(self, monkeypatch):
        cfg = small_config(n_grid=(64,), replications=100)
        first_seed = seed_sequence_seed(cfg.base_seed, 0, 0, 0, 0)
        real_simulate = harness.simulate

        def simulate(spec, seeds):
            if first_seed in seeds:
                raise RuntimeError("row 0 fails")
            return real_simulate(spec, seeds)

        monkeypatch.setattr(harness, "simulate", simulate)
        a = run_experiment(cfg, jobs=1)
        b = run_experiment(cfg, jobs=2)
        assert a.manifest["failures"] == b.manifest["failures"] == [
            {"n": 64, "param": 64, "seed": first_seed, "error": "RuntimeError: row 0 fails"}
        ]
        assert len(a.rows) == 99
        assert rows_to_csv(a.rows) == rows_to_csv(b.rows)


THREE_EXP = WeightPolicy(family=WeightFamily.EXPONENTIAL, params=(0.2, 0.05, 0.0125))


def three_param_config(**overrides):
    return small_config(weights=THREE_EXP, n_grid=(128, 256), **overrides)


IMPORTS_OF_SETUP = """
import atexit, json, sys, threading
hooks = atexit._ncallbacks()
import drifterm.cli
from drifterm import harness
from drifterm.harness import config_from_dict
config_from_dict(json.load(sys.stdin)["config"])
print(json.dumps([[name for name in ("concurrent.futures", "multiprocessing", "scipy", "numpy.random",
                                    "hashlib", "difflib")
                   if name in sys.modules],
                  harness._retain_freed_memory.cache_info().currsize,
                  harness._pool, threading.active_count(), atexit._ncallbacks() - hooks]))
"""


def test_setup_imports_no_pool_and_no_scipy():
    """Importing the CLI and building a workload config, the set-up that every
    command pays, loads neither the process pool nor scipy nor numpy.random,
    nor hashlib (a config is hashed only when a run writes its manifest) nor
    difflib (only an unknown key needs it), leaves the allocator as it was,
    and opens no pool, starts no thread and registers no exit hook."""
    env = {**os.environ, "PYTHONPATH": str(Path(drifterm.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", IMPORTS_OF_SETUP],
        input=(WORKLOADS / "step_mc.json").read_text(),
        env=env, capture_output=True, text=True, check=True,
    )
    assert json.loads(out.stdout) == [[], 0, None, 1, 0]


class TestSharedPath:
    """One path per (n, replication), fitted under every weight of the sweep."""

    def test_one_simulation_per_path_and_one_fit_per_row(self, monkeypatch):
        """Each call takes a block of paths: count the paths simulated and the rows fitted."""
        calls = {"simulate": 0, "fit": 0}
        real_simulate, real_fit = harness.simulate, harness.fit_weighted_erm

        def simulate(spec, seeds):
            calls["simulate"] += len(seeds)
            return real_simulate(spec, seeds)

        def fit(paths, w, class_spec, *, seed=0):
            calls["fit"] += len(paths.y)
            return real_fit(paths, w, class_spec, seed=seed)

        monkeypatch.setattr(harness, "simulate", simulate)
        monkeypatch.setattr(harness, "fit_weighted_erm", fit)
        cfg = three_param_config()
        res = run_experiment(cfg)
        assert len(res.rows) == 2 * 3 * 3
        assert calls == {"simulate": 2 * 3, "fit": len(res.rows)}

    def test_rows_of_one_replication_share_the_path_seed_in_grid_order(self):
        cfg = three_param_config()
        res = run_experiment(cfg)
        expected = [
            (n, param, seed_sequence_seed(cfg.base_seed, i_n, 0, rep, 0))
            for i_n, n in enumerate(cfg.n_grid)
            for param in THREE_EXP.params
            for rep in range(cfg.replications)
        ]
        assert [(r.n, r.param, r.seed) for r in res.rows] == expected
        assert len({r.seed for r in res.rows}) == len(cfg.n_grid) * cfg.replications

    def test_every_row_rebuilds_from_rows_csv(self):
        cfg = three_param_config()
        res = run_experiment(cfg)
        for row in rows_from_csv(rows_to_csv(res.rows)):
            spec = replace(cfg.process, n=row.n)
            w = make_weights(WeightSpec(THREE_EXP.family, t=row.n, n=row.n, param=row.param))
            fit = fit_weighted_erm(simulate(spec, row.seed), w, cfg.hypothesis)
            assert w.l2 == row.w_l2
            assert learning_error(fit, spec, w)[0] == row.learning_error
            assert excess_risk(fit, spec, row.n)[0] == row.excess_risk

    def test_ar1_n_eff_grid_does_not_depend_on_jobs(self, tmp_path):
        ar1 = replace(small_config().process, core=DependenceCore(kind="ar1", phi=0.6))
        cfg = three_param_config(process=ar1)
        run_experiment(cfg, jobs=1, out_dir=str(tmp_path / "a"))
        run_experiment(cfg, jobs=2, out_dir=str(tmp_path / "b"))
        for name in ("rows.csv", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.usefixtures("own_pool")
class TestSharedPathFailures:
    """A failure stays with its rows: a path's simulation fails all its weights, a fit only its own."""

    cfg = small_config(weights=THREE_EXP, n_grid=(64,), replications=100)

    def seed(self, i_param, rep, stream):
        return seed_sequence_seed(self.cfg.base_seed, 0, i_param, rep, stream)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_simulation_fails_every_row_of_its_path(self, monkeypatch, jobs):
        bad = self.seed(0, 7, 0)
        real = harness.simulate

        def simulate(spec, seeds):
            if bad in seeds:
                raise RuntimeError("path fails")
            return real(spec, seeds)

        monkeypatch.setattr(harness, "simulate", simulate)
        res = run_experiment(self.cfg, jobs=jobs)
        assert res.manifest["failures"] == [
            {"n": 64, "param": p, "seed": bad, "error": "RuntimeError: path fails"}
            for p in THREE_EXP.params
        ]
        assert len(res.rows) == 297
        assert bad not in {r.seed for r in res.rows}

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_fit_fails_only_its_row(self, monkeypatch, jobs):
        path_seed = self.seed(0, 7, 0)
        bad_w = make_weights(WeightSpec(THREE_EXP.family, t=64, n=64, param=THREE_EXP.params[1]))
        bad_y = simulate(replace(self.cfg.process, n=64), path_seed).y
        real = harness.fit_weighted_erm

        def fit(paths, w, class_spec, *, seed=0):
            if any(np.array_equal(y, bad_y) for y in paths.y) and np.array_equal(w.entries, bad_w.entries):
                raise RuntimeError("fit fails")
            return real(paths, w, class_spec, seed=seed)

        monkeypatch.setattr(harness, "fit_weighted_erm", fit)
        res = run_experiment(self.cfg, jobs=jobs)
        assert res.manifest["failures"] == [
            {"n": 64, "param": THREE_EXP.params[1], "seed": path_seed,
             "error": "RuntimeError: fit fails"}
        ]
        assert len(res.rows) == 299
        assert sorted(r.param for r in res.rows if r.seed == path_seed) == sorted(
            [THREE_EXP.params[0], THREE_EXP.params[2]]
        )


    def test_rank_deficient_row_inside_a_block_fails_only_that_row(self, monkeypatch):
        """Signed weights and a path whose second covariate is 0: that row's Gram is
        singular, and the other rows of its block still give their rows."""
        cfg = small_config(weights=WeightPolicy(family=WeightFamily.BROWN_DES, params=(0.1,)),
                           n_grid=(256,), replications=100)
        assert harness._block_size(256) >= cfg.replications
        bad = seed_sequence_seed(cfg.base_seed, 0, 0, 7, 0)
        real = harness.simulate

        def simulate(spec, seeds):
            paths = real(spec, seeds)
            if bad not in seeds:
                return paths
            z = paths.z.copy()
            z[list(seeds).index(bad), :, 1] = 0.0
            return type(paths)(y=paths.y, z=z, spec=spec)

        clean = run_experiment(cfg)
        monkeypatch.setattr(harness, "simulate", simulate)
        res = run_experiment(cfg)
        (failure,) = res.manifest["failures"]
        assert failure["seed"] == bad
        assert failure["error"].startswith("RankDeficientGramError: weighted Gram matrix has eigenvalue")
        assert res.rows == tuple(r for r in clean.rows if r.seed != bad)


class TestSeedsDerivedWhereDrawn:
    """Stream 0 seeds the path, stream 1 the Monte Carlo distances and stream 2
    a network's start; a row derives a stream only where it draws from it."""

    def streams(self, monkeypatch, cfg):
        """(rows, seeds derived per stream, (path.y, fit) per fit) of one run."""
        counts = collections.Counter()
        fits = []
        real_seeds, real_fit = harness._row_seeds, harness.fit_weighted_erm

        def row_seeds(base_seed, i_n, i_param, reps, stream):
            counts[stream] += len(reps)
            return real_seeds(base_seed, i_n, i_param, reps, stream)

        def fit(paths, w, class_spec, *, seed=0):
            block = real_fit(paths, w, class_spec, seed=seed)
            fits.extend(zip(paths.y, block))
            return block

        monkeypatch.setattr(harness, "_row_seeds", row_seeds)
        monkeypatch.setattr(harness, "fit_weighted_erm", fit)
        res = run_experiment(cfg)
        assert res.manifest["failures"] == []
        return len(res.rows), dict(counts), fits

    def test_linear_ball_grid_derives_only_path_seeds(self, monkeypatch):
        cfg = three_param_config()
        rows, counts, _ = self.streams(monkeypatch, cfg)
        assert rows == 2 * 3 * 3
        assert counts == {0: len(cfg.n_grid) * cfg.replications}

    def test_step_interval_grid_derives_only_path_seeds(self, monkeypatch):
        cfg = small_config(
            process=replace(INTERVAL_AR1, core=DependenceCore()),
            hypothesis=HypothesisClassSpec(kind=HypothesisKind.STEP_BASIS),
        )
        rows, counts, _ = self.streams(monkeypatch, cfg)
        assert rows == 6
        assert counts == {0: 6}

    def test_relu_interval_grid_derives_one_network_seed_per_row(self, monkeypatch):
        cfg = small_config(
            process=replace(INTERVAL_AR1, core=DependenceCore()),
            hypothesis=HypothesisClassSpec(kind=HypothesisKind.RELU_NET, nu=4, ell=1, param_bound=1.0),
            n_grid=(32,),
            replications=2,
        )
        rows, counts, fits = self.streams(monkeypatch, cfg)
        assert rows == 2
        assert counts == {0: 2, 2: 2}
        assert len(fits) == cfg.replications
        for rep in range(cfg.replications):
            path_seed = seed_sequence_seed(cfg.base_seed, 0, 0, rep, 0)
            y = simulate(replace(cfg.process, n=32), path_seed).y
            (fit,) = [f for path_y, f in fits if np.array_equal(path_y, y)]
            assert fit.fit_meta["seed"] == seed_sequence_seed(cfg.base_seed, 0, 0, rep, 2)

    def test_relu_ball_grid_derives_both(self, monkeypatch):
        rows, counts, _ = self.streams(monkeypatch, config_from_dict(ROWS_PINS["relu_ball_mc"][0]))
        assert rows == 4
        # stream 1 once for each of the row's two Monte Carlo distances
        assert counts == {0: 4, 1: 2 * 4, 2: 4}


def seed_sequence_seed(base_seed, i_n, i_param, rep, stream) -> int:
    """The row seed as numpy's SeedSequence derives it, the oracle of _row_seeds."""
    ss = np.random.SeedSequence(base_seed, spawn_key=(i_n, i_param, rep, stream))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


# Both sides of the one-word boundary, 2^64 - 1, and 3^90 > 2^128, whose 5 words leave no room to pad.
BASE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 3**90]


class TestRowSeeds:
    """A cell's seeds, hashed together, are the SeedSequence seeds of its rows."""

    @pytest.mark.parametrize("base_seed", BASE_SEEDS)
    @pytest.mark.parametrize("i_n, i_param, stream", [(0, 0, 0), (3, 2, 1), (2**32, 1, 2), (1, 2**40 + 3, 0)])
    def test_every_rep_is_its_seed_sequence_seed(self, base_seed, i_n, i_param, stream):
        """Reps of one and of two words, out of order, hash as runs of equal length."""
        reps = [0, 1, 2, 199, 2**32 - 1, 2**32, 2**33 + 7, 5]
        expected = [seed_sequence_seed(base_seed, i_n, i_param, rep, stream) for rep in reps]
        seeds = harness._row_seeds(base_seed, i_n, i_param, reps, stream)
        assert seeds.dtype == np.uint64 and seeds.tolist() == expected

    def test_a_cell_of_200_reps(self):
        seeds = harness._row_seeds(12345, 2, 0, range(200), 0)
        assert seeds.tolist() == [seed_sequence_seed(12345, 2, 0, rep, 0) for rep in range(200)]

    @pytest.mark.usefixtures("own_pool")
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_row_and_failure_seeds_are_plain_ints(self, monkeypatch, jobs):
        """Rows, failures and outliers carry the int seed, whatever the path was built from."""
        cfg = small_config(n_grid=(64,), replications=100, base_seed=3**90)
        bad = seed_sequence_seed(cfg.base_seed, 0, 0, 7, 0)
        real = harness.simulate

        def simulate(spec, seeds):
            if bad in seeds:
                raise RuntimeError("path fails")
            return real(spec, seeds)

        monkeypatch.setattr(harness, "simulate", simulate)
        res = run_experiment(cfg, jobs=jobs)
        assert [r.seed for r in res.rows] == [seed_sequence_seed(cfg.base_seed, 0, 0, rep, 0)
                                               for rep in range(100) if rep != 7]
        assert {type(r.seed) for r in res.rows} == {int}
        assert [(type(f["seed"]), f["seed"]) for f in res.manifest["failures"]] == [(int, bad)]
        assert {type(o["seed"]) for o in res.manifest["outliers"]} <= {int}
        spec, w = replace(cfg.process, n=64), make_weights(WeightSpec(WeightFamily.UNIFORM_WINDOW, t=64, n=64, param=64))
        for row in res.rows[:3]:  # a row rebuilds from its int seed
            fit = fit_weighted_erm(real(spec, row.seed), w, cfg.hypothesis)
            assert learning_error(fit, spec, w)[0] == row.learning_error


class TestNonFiniteOutcome:
    @pytest.mark.parametrize("measure", ["learning_error", "excess_risk"])
    def test_counts_as_a_row_failure(self, monkeypatch, measure):
        cfg = small_config(n_grid=(64,), replications=100)
        real = getattr(harness, measure)

        def nan_in_the_fifth_row(*args, **kwargs):
            values, se, mode = real(*args, **kwargs)
            assert len(values) == 100  # one block holds every replication
            return np.where(np.arange(100) == 4, math.nan, values), se, mode

        monkeypatch.setattr(harness, measure, nan_in_the_fifth_row)
        res = run_experiment(cfg, jobs=1)
        (failure,) = res.manifest["failures"]
        assert failure["error"].startswith("non-finite outcome: ")
        assert f"{measure}=nan" in failure["error"]
        assert len(res.rows) == 99
        assert "nan" not in rows_to_csv(res.rows)

    def test_beyond_the_budget_the_run_aborts(self, monkeypatch):
        monkeypatch.setattr(harness, "learning_error",
                            lambda fits, *a, **k: (np.full(len(fits), math.inf), np.zeros(len(fits)), "exact"))
        with pytest.raises(HarnessError, match="6/6 rows failed"):
            run_experiment(small_config(), jobs=1)


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
    "linear": (LINEAR_IID, HypothesisClassSpec(kind=HypothesisKind.LINEAR_BALL)),
    "step": (INTERVAL_AR1, HypothesisClassSpec(kind=HypothesisKind.STEP_BASIS)),
    "step_q8": (INTERVAL_AR1, HypothesisClassSpec(kind=HypothesisKind.STEP_BASIS, q=8)),
    "relu": (
        INTERVAL_AR1,
        HypothesisClassSpec(kind=HypothesisKind.RELU_NET, nu=8, ell=2, param_bound=1.0),
    ),
}

# (class, family, n) -> (scale constant, min_slack) found by build_rate.
RATE_PINS = {
    ("linear", "uniform", 256): (16.0, 1.0785815587459853),
    ("linear", "uniform", 1024): (16.0, 1.2619719273927297),
    ("linear", "exp", 256): (32.0, 1.1998357651349008),
    ("linear", "exp", 1024): (32.0, 1.3073617032008829),
    ("linear", "brown", 256): (64.0, 1.836176186881131),
    ("linear", "brown", 1024): (32.0, 1.02330094171669),
    ("step", "uniform", 256): (16.0, 1.5595310173167098),
    ("step", "uniform", 1024): (16.0, 1.7598501531112138),
    ("step", "exp", 256): (32.0, 1.4441920833962605),
    ("step", "exp", 1024): (32.0, 1.60063739891265),
    ("step_q8", "uniform", 256): (64.0, 1.1512404908424418),
    ("step_q8", "uniform", 1024): (64.0, 1.232706375867147),
    ("step_q8", "exp", 256): (128.0, 1.7958242436268543),
    ("step_q8", "exp", 1024): (128.0, 1.942651384045209),
    ("relu", "uniform", 256): (16.0, 1.0106042729632556),
    ("relu", "uniform", 1024): (16.0, 1.062364200344636),
    ("relu", "exp", 256): (32.0, 1.1399455828340035),
    ("relu", "exp", 1024): (32.0, 1.2180771447101695),
}


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads"
INTERVAL = {"kind": "drifting_linear", "p": 1, "law": "interval", "core": {"kind": "iid"},
            "drift": {"kind": "constant", "a": [1.0]}, "noise_sd": 0.3, "y_bound": 2.3}
BALL = {"kind": "drifting_linear", "p": 2, "law": "ball", "core": {"kind": "iid"},
        "drift": {"kind": "constant", "a": [0.3, -0.2]}, "noise_sd": 0.3, "y_bound": 2.0}


def workload_smoke(name: str) -> dict:
    workload = json.loads((WORKLOADS / f"{name}.json").read_text())
    return {**workload["config"], **workload["smoke"]}


# Small grids per hypothesis class -> sha256 of their rows.csv.  The
# certificate column reads every rate input of the class.
ROWS_PINS = {
    "linear": ({"process": BALL, "hypothesis": {"kind": "linear", "b_bound": 1.0},
                "n_grid": [64, 128], "replications": 2, "base_seed": 11},
               "95809c941be0e2e9dc13c577a45b197186d65be4188f2e325d81a1a8fb5b8c0d"),
    "step": ({"process": INTERVAL, "hypothesis": {"kind": "step", "b_bound": 1.0},
              "n_grid": [64, 128], "replications": 2, "base_seed": 11},
             "e0be67069fa8724d7b9c39fdfc64578dd74e4489ef3ff0dc1ceb79c7d545bbdd"),
    "step_q8": ({"process": {**INTERVAL, "core": {"kind": "ar1", "phi": 0.6}},
                 "weights": {"family": "exp", "params": [0.05]},
                 "hypothesis": {"kind": "step", "b_bound": 1.0, "q": 8},
                 "n_grid": [64, 128], "replications": 2, "base_seed": 11},
                "449469420c1b721877e00377f31be8084ad003bb62175f0d30c6db147709b8f2"),
    # three weights fitted on each shared path
    "linear_exp3": ({"process": BALL, "weights": {"family": "exp", "params": [0.2, 0.05, 0.0125]},
                     "hypothesis": {"kind": "linear", "b_bound": 1.0},
                     "n_grid": [64, 128], "replications": 2, "base_seed": 11},
                    "5c7fa88e0f851eaf63c0acd914c2f6276e7e9c0a033a19295b39c82987260181"),
    "relu_cell": (workload_smoke("relu_cell"),
                  "ff69d4fd88ec652b4f81119ef1b40a7c9bdeeb4702d10bbacb80f79e417fa479"),
    # the one pinned grid whose distances draw covariates (Monte Carlo on the ball law)
    "relu_ball_mc": ({"process": BALL,
                      "hypothesis": {"kind": "relu", "nu": 4, "ell": 1, "param_bound": 1.0},
                      "n_grid": [32, 64], "replications": 2, "base_seed": 11, "mc_draws": 2000},
                     "117472d267a95e2e34354ee111c79c6ce10dc34d05c11d5a5ddb9d90d615f4fe"),
}


@pytest.mark.parametrize("key", sorted(ROWS_PINS))
def test_rows_csv_pinned_per_hypothesis_class(key):
    config, digest = ROWS_PINS[key]
    res = run_experiment(config_from_dict(config))
    assert res.manifest["failures"] == []
    assert hashlib.sha256(rows_to_csv(res.rows).encode()).hexdigest() == digest


class TestBlocks:
    """Replications run as blocks of one grid n; no row depends on the block size or on jobs."""

    CONFIGS = {
        **{key: ROWS_PINS[key][0] for key in ("linear", "linear_exp3", "step", "step_q8", "relu_ball_mc")},
        "relu_cell": workload_smoke("relu_cell"),
        "linear_markov": {"process": {**BALL, "core": {"kind": "markov", "flip": 0.2}},
                          "hypothesis": {"kind": "linear", "b_bound": 1.0}, "n_grid": [64, 128]},
        "linear_ar1": {"process": {**BALL, "core": {"kind": "ar1", "phi": 0.6}},
                       "weights": {"family": "exp", "params": [0.2, 0.05]},
                       "hypothesis": {"kind": "linear", "b_bound": 1.0}, "n_grid": [64, 128]},
        "drifting_variance": {"process": {"kind": "drifting_variance", "p": 1, "law": "interval",
                                          "core": {"kind": "iid"}, "mean": 0.2, "var_start": 0.5,
                                          "var_end": 1.5, "y_bound": 6.0},
                              "hypothesis": {"kind": "step", "b_bound": 1.0}, "n_grid": [64, 128]},
        "drifting_variance_linear": {"process": {"kind": "drifting_variance", "p": 1, "law": "interval",
                                                 "core": {"kind": "iid"}, "mean": 0.2, "var_start": 0.5,
                                                 "var_end": 1.5, "y_bound": 6.0},
                                     "hypothesis": {"kind": "linear", "b_bound": 1.0}, "n_grid": [64, 128]},
    }

    @pytest.mark.parametrize("key", sorted(CONFIGS))
    def test_rows_do_not_depend_on_the_block_limit_or_jobs(self, monkeypatch, tmp_path, key):
        replications = 4 if key.startswith("relu") else 7  # the last block is short at a limit of 3
        cfg = config_from_dict({**self.CONFIGS[key], "replications": replications, "base_seed": 11})
        outputs = set()
        for limit in (None, 1, 3):  # None: the default, 254 and 504 replications at n = 128 and 64
            if limit is not None:
                monkeypatch.setattr(harness, "_block_size", lambda n, limit=limit: limit)
            for jobs in (1, 2):
                out = tmp_path / f"{limit}-{jobs}"
                res = run_experiment(cfg, jobs=jobs, out_dir=str(out))
                assert res.manifest["failures"] == []
                outputs.add(tuple((out / name).read_bytes() for name in ("rows.csv", "manifest.json")))
        assert len(outputs) == 1

    def test_step_covariate_outside_the_interval_fails_only_its_row(self, monkeypatch):
        """A step block that fails is run again path by path: the row whose
        covariate is 1.0 fails, and the others keep their clean values."""
        spec = replace(INTERVAL_AR1, core=DependenceCore(), n=64)
        seeds = (3, 4, 5)
        w = make_weights(WeightSpec(WeightFamily.UNIFORM_WINDOW, t=64, n=64, param=64))
        klass = HypothesisClassSpec(kind=HypothesisKind.STEP_BASIS)
        payload = (spec, seeds, pcg64_words(seeds), 0, [w], klass, 1000, 11, 0)
        real = harness.simulate

        def simulate(spec, path_seeds):
            paths = real(spec, path_seeds)
            if 4 not in path_seeds:
                return paths
            z = paths.z.copy()
            z[list(path_seeds).index(4), 10, 0] = 1.0
            return type(paths)(y=paths.y, z=z, spec=spec)

        monkeypatch.setattr(harness, "simulate", simulate)
        outcomes = harness._block_task(payload)
        assert outcomes[1] == "HypothesisError: step basis expects covariates in [0, 1)"
        for r in (0, 2):
            assert outcomes[r] == harness._block_task(harness._paths(payload, r, r + 1))[0]
            assert isinstance(outcomes[r], tuple)

    def test_block_holds_at_most_the_budget_of_path_rows(self):
        assert [harness._block_size(n) for n in (1, 127, 128, 8191, 8192, 40_000)] == [
            16384, 256, 254, 4, 3, 1]

    @pytest.mark.usefixtures("own_pool")
    def test_pool_takes_one_warm_up_path_then_chunks_of_about_8_paths(self, monkeypatch):
        """At n = 8192 a block holds 3 paths; the warm-up before the fork runs one
        replication and each pool chunk holds 3 blocks, 9 paths.  A second call
        takes its warm-up path too, and runs on the same pool."""
        workload = json.loads((WORKLOADS / "neff_ar1_pool.json").read_text())
        cfg = config_from_dict(workload["config"])
        events = []
        real_task = harness._block_task

        def task(payload):
            events.append(("task", len(payload[1])))
            return real_task(payload)

        class Pool:
            def __init__(self, max_workers):
                events.append(("pool", max_workers))

            def map(self, fn, payloads, chunksize):
                events.append(("map", chunksize, [len(p[1]) for p in payloads]))
                return map(fn, payloads)

            def shutdown(self):  # the fixture's close
                pass

        monkeypatch.setattr(harness, "_block_task", task)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        res = run_experiment(cfg, jobs=2)
        assert len(res.rows) == 4 * 200
        assert events[:2] == [("task", 1), ("pool", 2)]
        _, chunk, sizes = events[2]
        assert sizes == [2] + [3] * 65 + [2]
        assert chunk == 3
        del events[:]
        assert run_experiment(cfg, jobs=2).rows == res.rows
        assert events[:2] == [("task", 1), ("map", chunk, sizes)]
        assert {e[0] for e in events[2:]} == {"task"}  # no second pool

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_is_refused(self, jobs):
        with pytest.raises(HarnessError, match=f"^jobs must be an integer >= 1, got {jobs}$"):
            run_experiment(small_config(), jobs=jobs)


def live_workers() -> set[int]:
    """Pids of this process's live pool workers, its only multiprocessing children."""
    return {child.pid for child in multiprocessing.active_children()}


def exited(pid: int) -> bool:
    """Whether the process ``pid`` has exited and been reaped."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def pooled_call_in_child(cfg, expected_csv, conn) -> None:
    """A forked child's pooled call: whether it gives ``expected_csv``, and its workers."""
    res = run_experiment(cfg, jobs=2)
    conn.send((rows_to_csv(res.rows) == expected_csv, sorted(live_workers())))


TWO_POOLED_CALLS = """
import json, multiprocessing, sys
from drifterm import harness
cfg = harness.config_from_dict(json.load(sys.stdin))
first, second = (harness.run_experiment(cfg, jobs=2).rows for _ in range(2))
assert first == second
print(json.dumps(sorted(child.pid for child in multiprocessing.active_children())))
"""


@pytest.mark.usefixtures("own_pool")
class TestWorkerPool:
    """One pool per process: the first pooled call opens it, later calls reuse it."""

    cfg = three_param_config(process=replace(small_config().process, core=DependenceCore(kind="ar1", phi=0.6)))

    def test_two_calls_run_on_the_same_workers(self):
        first = run_experiment(self.cfg, jobs=2)
        workers = live_workers()
        assert run_experiment(self.cfg, jobs=2).rows == first.rows
        assert len(workers) == 2 and live_workers() == workers

    def test_another_jobs_replaces_the_pool(self):
        run_experiment(self.cfg, jobs=2)
        old = live_workers()
        run_experiment(self.cfg, jobs=3)
        new = live_workers()
        assert len(new) == 3 and new.isdisjoint(old)
        assert all(exited(pid) for pid in old)

    def test_a_killed_idle_worker_fails_the_next_call_and_no_later_one(self):
        serial = rows_to_csv(run_experiment(self.cfg, jobs=1).rows)
        run_experiment(self.cfg, jobs=2)
        workers = live_workers()
        os.kill(min(workers), signal.SIGKILL)
        deadline = time.monotonic() + 30
        while not all(exited(pid) for pid in workers):  # the pool sees it and ends the other worker
            assert time.monotonic() < deadline
            time.sleep(0.01)
        with pytest.raises(concurrent.futures.process.BrokenProcessPool):
            run_experiment(self.cfg, jobs=2)
        assert rows_to_csv(run_experiment(self.cfg, jobs=2).rows) == serial
        fresh = live_workers()
        assert len(fresh) == 2 and fresh.isdisjoint(workers)

    def test_a_pooled_map_that_raises_closes_the_pool(self, monkeypatch):
        """A block that cannot be sent to a worker fails its call and closes the
        pool; the next call runs on fresh workers."""
        serial = rows_to_csv(run_experiment(self.cfg, jobs=1).rows)
        run_experiment(self.cfg, jobs=2)
        workers = live_workers()
        real = harness._block_task

        def unsendable(payload):
            return real(payload)

        monkeypatch.setattr(harness, "_block_task", unsendable)
        with pytest.raises((AttributeError, pickle.PicklingError), match="pickle"):
            run_experiment(self.cfg, jobs=2)
        assert harness._pool is None and all(exited(pid) for pid in workers)
        monkeypatch.undo()
        assert rows_to_csv(run_experiment(self.cfg, jobs=2).rows) == serial
        assert live_workers().isdisjoint(workers)

    def test_a_forked_child_opens_a_pool_of_its_own(self):
        expected = rows_to_csv(run_experiment(self.cfg, jobs=2).rows)
        workers = live_workers()
        reader, writer = multiprocessing.Pipe(duplex=False)
        child = multiprocessing.get_context("fork").Process(
            target=pooled_call_in_child, args=(self.cfg, expected, writer))
        child.start()
        try:
            same_rows, child_workers = reader.recv() if reader.poll(60) else (None, [])
            child.join(60)
        finally:
            if child.is_alive():
                child.kill()
                child.join()
        assert child.exitcode == 0 and same_rows
        assert len(child_workers) == 2 and workers.isdisjoint(child_workers)
        assert all(exited(pid) for pid in child_workers)
        assert rows_to_csv(run_experiment(self.cfg, jobs=2).rows) == expected
        assert live_workers() == workers

    def test_rows_do_not_depend_on_pool_history(self, tmp_path):
        """An i.i.d. call opens the pool; an AR(1) call runs on it before and
        after another i.i.d. call on another n grid."""
        iid = small_config(n_grid=(96, 160, 320), replications=5)
        runs = [("iid", iid), ("ar1", self.cfg), ("iid", iid), ("ar1", self.cfg)]
        serial = {}
        for name, cfg in dict(runs).items():
            run_experiment(cfg, jobs=1, out_dir=str(tmp_path / name))
            serial[name] = [(tmp_path / name / f).read_bytes() for f in ("rows.csv", "manifest.json")]
        workers = None
        for i, (name, cfg) in enumerate(runs):
            out = tmp_path / f"{i}-{name}"
            run_experiment(cfg, jobs=2, out_dir=str(out))
            workers = workers or live_workers()
            assert live_workers() == workers
            assert [(out / f).read_bytes() for f in ("rows.csv", "manifest.json")] == serial[name]

    def test_a_fresh_interpreter_exits_clean_and_leaves_no_worker_running(self):
        env = {**os.environ, "PYTHONPATH": str(Path(drifterm.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", TWO_POOLED_CALLS],
                             input=json.dumps(workload_smoke("neff_ar1_pool")),
                             env=env, capture_output=True, text=True, timeout=120)
        assert (out.returncode, out.stderr) == (0, "")
        workers = json.loads(out.stdout)
        assert len(workers) == 2 and all(exited(pid) for pid in workers)


def glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, OSError, ValueError):
        return False


WARM_CALL_PAGE_FAULTS = """
import json, resource, sys
from drifterm import harness
cfg = harness.config_from_dict(json.load(sys.stdin))
harness.run_experiment(cfg)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
harness.run_experiment(cfg)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestFreedMemoryRetained:
    """On glibc a block's freed arrays stay on the heap for the next block; no row depends on it."""

    @pytest.fixture
    def fresh(self):
        harness._retain_freed_memory.cache_clear()
        yield
        harness._retain_freed_memory.cache_clear()

    @staticmethod
    def fake_mallopt(monkeypatch, returns: int) -> list:
        import ctypes

        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return returns

        class Libc:
            def __init__(self, name):
                assert name is None
                self.mallopt = mallopt

        monkeypatch.setattr(ctypes, "CDLL", Libc)
        return calls

    def test_applied_once_per_process(self, fresh, monkeypatch):
        calls = self.fake_mallopt(monkeypatch, 1)
        monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
        for _ in range(2):
            run_experiment(small_config())  # two blocks each
        assert calls == [(-1, 4 << 20), (-3, 1 << 20)]  # M_TRIM_THRESHOLD, M_MMAP_THRESHOLD
        info = harness._retain_freed_memory.cache_info()
        assert (info.misses, info.hits) == (1, 3)

    @pytest.mark.parametrize("libc", [None, "", ValueError("unrecognized configuration name"),
                                      OSError(22, "Invalid argument"), "no confstr"],
                             ids=["none", "empty", "unknown-name", "oserror", "no-confstr"])
    def test_elsewhere_than_glibc_nothing_is_set(self, fresh, monkeypatch, libc):
        calls = self.fake_mallopt(monkeypatch, 1)
        if libc == "no confstr":
            monkeypatch.delattr(os, "confstr")
        else:
            def confstr(name):
                if isinstance(libc, Exception):
                    raise libc
                return libc

            monkeypatch.setattr(os, "confstr", confstr)
        assert harness._retain_freed_memory() is False
        assert calls == []

    def test_refused_mallopt_does_not_raise(self, fresh, monkeypatch):
        calls = self.fake_mallopt(monkeypatch, 0)
        monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
        assert harness._retain_freed_memory() is False
        assert calls == [(-1, 4 << 20)]

    @pytest.mark.parametrize("key", ["linear", "linear_exp3", "step", "step_q8"])
    def test_pinned_rows_on_a_heap_of_freed_nan_arrays(self, key):
        """NaN arrays under the mmap threshold, about 3 MiB, stay on the heap
        once freed, and np.empty hands their memory out again: a buffer read
        before it is written shows as NaN or as changed bytes."""
        retained = harness._retain_freed_memory()
        sizes = [harness._MMAP_THRESHOLD_BYTES >> k for k in range(1, 8)] * 3  # 512 KiB down to 8 KiB
        poison = [np.full(size // 8, np.nan) for size in sizes]
        del poison
        if retained:
            assert np.isnan(np.empty(len(sizes) * 1024)).any()
        test_rows_csv_pinned_per_hypothesis_class(key)

    @pytest.mark.skipif(not glibc(), reason="the allocator thresholds are set on glibc only")
    def test_a_warm_call_faults_in_few_pages(self):
        """A second identical call of a 20-block grid reuses the first call's
        heap: 59-60 minor page faults, against about 4500 with glibc's defaults."""
        cfg = {"process": BALL, "hypothesis": {"kind": "linear", "b_bound": 1.0},
               "n_grid": [4096, 8192], "replications": 40, "base_seed": 11}
        env = {**os.environ, "PYTHONPATH": str(Path(drifterm.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", WARM_CALL_PAGE_FAULTS], input=json.dumps(cfg),
                             env=env, capture_output=True, text=True, check=True)
        assert int(out.stdout) < 450


class TestMonteCarloOnlyWithoutClosedForm:
    """Covariate draws happen only where a distance has no closed form."""

    def test_step_grid_on_interval_law_draws_no_covariates(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("Monte Carlo covariates drawn for a step-vs-linear distance")

        monkeypatch.setattr(hypotheses, "sample_covariates", forbidden)
        cfg = small_config(
            process=replace(INTERVAL_AR1, core=DependenceCore()),
            hypothesis=HypothesisClassSpec(kind=HypothesisKind.STEP_BASIS),
        )
        res = run_experiment(cfg)
        assert len(res.rows) == 6
        assert res.manifest["failures"] == []

    def test_relu_cell_on_interval_law_draws_no_covariates(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("Monte Carlo covariates drawn for a net-vs-linear distance")

        monkeypatch.setattr(hypotheses, "sample_covariates", forbidden)
        cfg = small_config(
            process=replace(INTERVAL_AR1, core=DependenceCore()),
            hypothesis=RATE_CLASSES["relu"][1],
            n_grid=(32,),
            replications=1,
        )
        res = run_experiment(cfg)
        assert len(res.rows) == 1
        assert res.manifest["failures"] == []


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
        rate, slack = build_rate(*rate_config(klass, family, n))
        a, pinned = RATE_PINS[key]
        assert rate.a == a
        assert check_rate_conditions(rate).all_pass
        assert slack == pytest.approx(pinned, rel=1e-12)

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

    @pytest.mark.parametrize("klass", sorted(RATE_CLASSES))
    @pytest.mark.parametrize("family", list(WeightFamily), ids=lambda f: f.value)
    def test_owners_hand_in_every_rate_parameter_by_name(self, klass, family):
        proc, hyp = RATE_CLASSES[klass]
        weight_keys = set(class_rate_inputs(family, 256))
        class_keys = set(hyp.rate_inputs(proc))
        assert not weight_keys & class_keys
        assert weight_keys | class_keys | {"m_beta", "k_rho", "c_p", "n"} == {
            f.name for f in dataclasses.fields(RateParameters)
        }

    def test_block_length_that_fails_its_condition_is_refused(self):
        # AR(1) phi = 0.99 at n = 256: no m <= n has (n/m) beta(m) <= 0.05,
        # and the one-bin class with uniform weights passes variant ii's own
        # preconditions with m_beta = n
        proc = replace(INTERVAL_AR1, core=DependenceCore(kind="ar1", phi=0.99))
        cfg = ExperimentConfig(process=proc, weights=WeightPolicy(),
                               hypothesis=HypothesisClassSpec.step(1, 1.0), n_grid=(256,),
                               replications=1, rate_variant=RateVariant.II)
        message = r"no block length m <= n=256 has \(n/m\) beta\(m\) <= delta=0.05"
        with pytest.raises(RatePreconditionError, match=f"^{message}$"):
            build_rate(cfg, proc)
        with pytest.raises(HarnessError, match=f"^uniform weights at n=256: {message}$"):
            run_experiment(cfg)

    @pytest.mark.parametrize("klass, a, slack", [("step", 64.0, 1.4488515296594362),
                                                 ("relu", 64.0, 1.2593484145248197)])
    def test_brown_norms_above_one_take_one_piece(self, klass, a, slack):
        # on iid data Brown weights pass the preconditions at n = 256, and
        # the condition grid runs up to c1 = 3
        cfg, spec = rate_config(klass, "brown", 256)
        iid = replace(spec, core=DependenceCore())
        rate, found = build_rate(replace(cfg, process=iid), iid)
        assert rate.domain == (1 / 16, 3.0)
        assert rate.a == a
        assert found == pytest.approx(slack, rel=1e-12)

    def test_no_params_means_full_uniform_window(self):
        rate, slack = build_rate(*rate_config("linear", "uniform", 256, params=None))
        assert rate.a == 16.0
        assert slack == pytest.approx(1.0785815587459853, rel=1e-12)

    def test_coverings_evaluated_once_per_point_and_once_per_trial(self, monkeypatch):
        calls = {"log_n1_w": 0, "log_ninf_h": 0}
        search = harness.find_scale_constant

        def counting_search(variant, params):
            def log_n1_w(eps):
                calls["log_n1_w"] += 1
                return params.log_n1_w(eps)

            def log_ninf_h(eps, w_l2):
                calls["log_ninf_h"] += 1
                return params.log_ninf_h(eps, w_l2)

            counted = replace(params, log_n1_w=log_n1_w, log_ninf_h=log_ninf_h)
            return search(variant, counted)

        monkeypatch.setattr(harness, "find_scale_constant", counting_search)
        workload = json.loads((WORKLOADS / "step_mc.json").read_text())
        cfg = config_from_dict(workload["config"])
        rate, _ = build_rate(cfg, replace(cfg.process, n=1024))
        trials = int(math.log2(rate.a)) + 1
        assert trials > 1
        assert calls["log_n1_w"] == trials
        assert calls["log_ninf_h"] == 1  # on the whole grid at once

    def test_run_builds_no_condition_point_and_records_the_slack_per_n(self, monkeypatch):
        built = []
        point = rates.ConditionPoint

        def counted_point(*args, **kwargs):
            built.append(args)
            return point(*args, **kwargs)

        monkeypatch.setattr(rates, "ConditionPoint", counted_point)
        cfg = config_from_dict(workload_smoke("step_mc"))
        res = run_experiment(cfg)
        assert built == []
        assert sorted(res.manifest["rate_min_slack"]) == sorted(res.manifest["rate_constants"])
        for n in cfg.n_grid:
            rate, slack = build_rate(cfg, replace(cfg.process, n=n))
            assert res.manifest["rate_min_slack"][str(n)] == slack == check_rate_conditions(rate).min_slack


class TestConfigValidation:
    def test_n_grid_must_increase(self):
        with pytest.raises(HarnessError):
            small_config(n_grid=(128, 64))

    def test_negative_base_seed_is_refused_at_load(self):
        cfg = config_to_dict(small_config())
        with pytest.raises(HarnessError) as exc:
            config_from_dict({**cfg, "base_seed": -1})
        assert str(exc.value) == "base_seed must be a non-negative integer, got -1"

    @pytest.mark.parametrize("draws", [1, 0, -3])
    def test_mc_draws_below_two_is_refused_at_load(self, draws):
        cfg = config_to_dict(small_config())
        with pytest.raises(HarnessError) as exc:
            config_from_dict({**cfg, "mc_draws": draws})
        assert str(exc.value) == f"mc_draws must be an integer >= 2, got {draws}"

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

    @pytest.mark.parametrize("params", [(0.05, 0.2), (0.05, 0.2, 0.2)])
    def test_n_eff_slope_needs_three_distinct_params(self, params):
        with pytest.raises(HarnessError, match=r"^weights\.params: "):
            small_config(
                weights=WeightPolicy(family=WeightFamily.EXPONENTIAL, params=params),
                n_grid=(128,),
                slope_target=-1.0,
            )

    def test_two_param_n_eff_sweep_runs_without_a_slope(self):
        cfg = config_from_dict({
            "process": INTERVAL,
            "weights": {"family": "exp", "params": [0.05, 0.2]},
            "hypothesis": {"kind": "linear", "b_bound": 1.0},
            "n_grid": [128],
            "replications": 2,
        })
        res = run_experiment(cfg)
        assert len(res.rows) == 4
        assert res.manifest["failures"] == []
        assert res.slope is None

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

    @pytest.mark.parametrize("x", ["n_eff", "param"])
    def test_min_points_default_follows_the_axis(self, x):
        rows = self._rows([2, 4, 8], [1.0, 2.0, 3.0])
        assert fit_slope(rows, x, "learning_error").x_field == x
        with pytest.raises(HarnessError, match=r"need >= 3 distinct x values, got 2"):
            fit_slope(rows[:2], x, "learning_error")

    @pytest.mark.parametrize(
        "x, y, message",
        [
            ("seed", "learning_error", "slope x field 'seed' is not one of n, n_eff, param"),
            ("n", "seed", "slope y field 'seed' is not one of "
             "learning_error, drift_error, excess_risk, certificate"),
            ("n", "foo", "slope y field 'foo' is not one of "
             "learning_error, drift_error, excess_risk, certificate"),
        ],
        ids=["x-seed", "y-seed", "y-foo"],
    )
    def test_fields_must_be_a_sweep_axis_and_an_outcome(self, x, y, message):
        rows = self._rows([2, 4, 8, 16, 32], [1.0, 2.0, 3.0, 4.0, 5.0])
        with pytest.raises(HarnessError) as exc:
            fit_slope(rows, x, y)
        assert str(exc.value) == message

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
