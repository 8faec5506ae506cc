import ast
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import drifterm

from drifterm.cli import main
from drifterm.harness import config_to_dict, decode
from drifterm.hypotheses import HypothesisClassSpec, fit_weighted_erm
from drifterm.mixing import MixingProfile, m_beta
from drifterm.processes import ProcessSpec, simulate
from drifterm.risk import risk_report
from drifterm.weights import WeightFamily, WeightSpec, make_weights
from test_harness import RATE_PINS, WORKLOADS, exited, rate_config


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def drifterm_process(*argv, cwd=None, env=None, stdout=subprocess.PIPE):
    """``drifterm argv`` in a fresh interpreter, as a shell runs it, with ``env`` added."""
    env = {**os.environ, "PYTHONPATH": str(Path(drifterm.__file__).parents[1]), **(env or {})}
    return subprocess.run(
        [sys.executable, "-m", "drifterm.cli", *argv],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=120, cwd=cwd,
    )


PROCESS = {
    "kind": "drifting_linear",
    "n": 50,
    "p": 2,
    "law": "ball",
    "core": {"kind": "iid"},
    "drift": {"kind": "constant", "a": [0.3, -0.2]},
    "noise_sd": 0.3,
    "y_bound": 2.0,
}


@pytest.fixture
def spec_file(tmp_path):
    f = tmp_path / "spec.json"
    f.write_text(json.dumps({"process": PROCESS, "n_grid": [50], "replications": 1}))
    return str(f)


class TestWeightsCommand:
    def test_emits_vector_and_constants(self, capsys):
        code, out = run_cli(
            capsys, "weights", "--family", "exp", "--t", "5", "--n", "6", "--param", "0.7"
        )
        assert code == 0
        d = json.loads(out)
        assert len(d["entries"]) == 6
        assert d["sum"] == pytest.approx(1.0, abs=1e-12)
        assert d["class_constants"]["bw"] <= 2.0

    def test_net_option(self, capsys):
        code, out = run_cli(
            capsys, "weights", "--family", "brown", "--t", "4", "--n", "4",
            "--param", "0.5", "--net-eps", "1.0",
        )
        d = json.loads(out)
        assert d["net"]["size"] <= 60 * 4 / 1.0

    def test_one_window_at_t_1(self, capsys):
        code, out = run_cli(
            capsys, "weights", "--family", "uniform", "--t", "1", "--n", "1", "--param", "1"
        )
        d = json.loads(out)
        assert code == 0
        assert d["entries"] == [1.0]
        assert d["class_constants"] == {
            "c1": 1.0, "cw": 1.0, "bw": 1.0, "n_eff_max": 1.0, "exact": True
        }


def interval_config(core, n, **overrides):
    """A one-point grid config on the interval law at n, with the dependence ``core``."""
    process = {"kind": "drifting_linear", "p": 1, "law": "interval", "core": core,
               "drift": {"kind": "constant", "a": [1.0]}, "noise_sd": 0.3, "y_bound": 2.3}
    return {"process": process, "n_grid": [n], "replications": 1, **overrides}


class TestMixingCommand:
    def mixing(self, capsys, tmp_path, cfg):
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps(cfg))
        code, out = run_cli(capsys, "mixing", "--config", str(f))
        assert code == 0
        return json.loads(out)

    def test_ar1_profile(self, capsys, tmp_path):
        d = self.mixing(capsys, tmp_path, interval_config({"kind": "ar1", "phi": 0.5}, 1000))
        assert d["profile"] == "ar1" and d["n"] == 1000 and d["delta"] == 0.05
        assert d["k_rho"] == pytest.approx(3.0, abs=1e-9)
        assert d["m_beta"] >= 1
        assert len(d["beta"]) == 51

    def test_markov_profile(self, capsys, tmp_path):
        cfg = interval_config({"kind": "markov", "flip": 0.1}, 100, delta=0.1)
        d = self.mixing(capsys, tmp_path, cfg)
        assert d["beta"]["1"] == pytest.approx(0.4, abs=1e-12)

    def test_reads_the_process_n(self, capsys, tmp_path):
        cfg = interval_config({"kind": "ar1", "phi": 0.9}, 4096, delta=0.2)
        cfg["process"]["n"] = 50
        d = self.mixing(capsys, tmp_path, cfg)
        assert d["n"] == 50 and d["delta"] == 0.2
        assert d["m_beta"] == m_beta(MixingProfile.ar1(0.9), 50, 0.2).m

    def test_near_unit_phi_is_summed_and_refused_by_run(self, capsys, tmp_path):
        # |phi| < 1 passes the config check; k_rho is (1 + phi) / (1 - phi),
        # which puts the combined dependence constant far above n
        d = self.mixing(capsys, tmp_path, interval_config({"kind": "ar1", "phi": 0.999999}, 128))
        assert d["k_rho"] == pytest.approx(1999999.0, rel=1e-9)
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")])
        assert exc.value.code == (
            "uniform weights at n=128: combined dependence constant 2e+06 exceeds n=128"
        )
        assert not (tmp_path / "out").exists()


class TestSimulateAndFit:
    def test_simulate_csv_schema(self, capsys, tmp_path, spec_file):
        out_csv = tmp_path / "path.csv"
        code, _ = run_cli(capsys, "simulate", "--spec", spec_file, "--seed", "3",
                          "--out", str(out_csv))
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "t,y,z_1,z_2"
        assert len(lines) == 52  # header + n + 1 rows
        assert lines[1].split(",")[0] == "1"

    def test_fit_roundtrip(self, capsys, tmp_path, spec_file):
        out_csv = tmp_path / "path.csv"
        run_cli(capsys, "simulate", "--spec", spec_file, "--seed", "3", "--out", str(out_csv))
        wfile = tmp_path / "w.json"
        wfile.write_text(json.dumps({"family": "uniform", "t": 50, "n": 50, "param": 50}))
        cfile = tmp_path / "cls.json"
        cfile.write_text(json.dumps({"kind": "linear", "b_bound": 1.0}))
        ofile = tmp_path / "fit.json"
        code, _ = run_cli(
            capsys, "fit", "--data", str(out_csv), "--weights", str(wfile),
            "--class", str(cfile), "--spec", spec_file, "--out", str(ofile),
        )
        fit = json.loads(ofile.read_text())
        assert abs(fit["coef"][0] - 0.3) < 0.2
        assert "empirical_risk" in fit["fit_meta"]

        code, out = run_cli(
            capsys, "risk", "--fit", str(ofile), "--spec", spec_file,
            "--w", str(wfile), "--t", "50",
        )
        report = json.loads(out)
        assert report["drift_error"] == pytest.approx(0.0, abs=1e-20)
        assert report["decomposition_ok"]


@pytest.mark.parametrize("key", sorted(RATE_PINS), ids=lambda key: "-".join(map(str, key)))
def test_rates_reproduces_build_rate_pins(capsys, tmp_path, key):
    """``rates`` on the config of a RATE_PINS case, at its one grid point (the
    process n is omitted, so it is the largest grid point)."""
    cfg = config_to_dict(rate_config(*key)[0])
    del cfg["process"]["n"]
    f = tmp_path / "cfg.json"
    f.write_text(json.dumps(cfg))
    code, out = run_cli(capsys, "rates", "--config", str(f), "--grid", "8")
    d = json.loads(out)
    a, slack = RATE_PINS[key]
    assert code == 0
    assert (d["variant"], d["n"]) == ("i", key[2])
    assert d["a"] == a
    assert d["condition_report"]["all_pass"]
    assert d["condition_report"]["min_slack"] == slack
    assert len(d["rate_table"]) == 8


class TestRunPipeline:
    @pytest.fixture
    def cfg_file(self, tmp_path):
        cfg = {
            "process": {k: v for k, v in PROCESS.items() if k != "n"},
            "weights": {"family": "uniform", "params": None},
            "hypothesis": {"kind": "linear", "b_bound": 1.0},
            "n_grid": [64, 128],
            "replications": 3,
            "delta": 0.05,
            "base_seed": 5,
        }
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps(cfg))
        return str(f)

    def test_run_then_slopes_then_calibrate(self, capsys, tmp_path, cfg_file):
        out_dir = tmp_path / "out"
        code, out = run_cli(capsys, "run", "--config", cfg_file, "--out", str(out_dir))
        assert code == 0
        summary = json.loads(out)
        assert summary["rows"] == 6
        assert (out_dir / "rows.csv").exists()
        assert (out_dir / "manifest.json").exists()

        code, out = run_cli(capsys, "slopes", "--results", str(out_dir / "rows.csv"),
                            "--min-points", "2")
        assert code == 0
        assert "slope" in json.loads(out)

        code, out = run_cli(capsys, "calibrate", "--results", str(out_dir / "rows.csv"))
        assert json.loads(out)["c_cal"] > 0

    def test_rates_gives_the_scale_that_run_writes(self, capsys, tmp_path, cfg_file):
        out_dir = tmp_path / "out"
        run_cli(capsys, "run", "--config", cfg_file, "--out", str(out_dir))
        written = json.loads((out_dir / "manifest.json").read_text())["rate_constants"]
        cfg = json.loads(Path(cfg_file).read_text())
        for n in cfg["n_grid"]:
            at_n = tmp_path / f"cfg_{n}.json"
            at_n.write_text(json.dumps({**cfg, "process": {**cfg["process"], "n": n}}))
            code, out = run_cli(capsys, "rates", "--config", str(at_n))
            assert json.loads(out)["a"] == written[str(n)]

    def test_calibrate_header_only_csv(self, capsys, tmp_path):
        from drifterm.harness import CSV_HEADER

        rows = tmp_path / "rows.csv"
        rows.write_text(CSV_HEADER + "\n")
        with pytest.raises(SystemExit) as exc:
            main(["calibrate", "--results", str(rows)])
        assert exc.value.code == "no rows to calibrate on"

    def test_slopes_rejects_nan_row(self, capsys, tmp_path, cfg_file):
        out_dir = tmp_path / "out"
        run_cli(capsys, "run", "--config", cfg_file, "--out", str(out_dir))
        lines = (out_dir / "rows.csv").read_text().splitlines()
        fields = lines[2].split(",")
        fields[4] = "nan"  # learning_error
        lines[2] = ",".join(fields)
        (out_dir / "rows.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(SystemExit) as exc:
            main(["slopes", "--results", str(out_dir / "rows.csv"), "--min-points", "2"])
        assert exc.value.code == "rows.csv line 3: learning_error: non-finite nan"

    @pytest.mark.parametrize("y", ["foo", "seed"])
    def test_slopes_refuses_a_y_that_is_not_an_outcome(self, capsys, tmp_path, cfg_file, y):
        out_dir = tmp_path / "out"
        run_cli(capsys, "run", "--config", cfg_file, "--out", str(out_dir))
        with pytest.raises(SystemExit) as exc:
            main(["slopes", "--results", str(out_dir / "rows.csv"), "--min-points", "2", "--y", y])
        assert exc.value.code == 2
        assert f"argument --y: invalid choice: '{y}'" in capsys.readouterr().err

    def test_misspelt_key_is_a_one_line_error(self, tmp_path, cfg_file):
        cfg = json.loads(Path(cfg_file).read_text())
        cfg["replicatons"] = cfg.pop("replications")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        proc = drifterm_process("run", "--config", str(bad))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "replicatons: unknown key; did you mean 'replications'?\n"

    def test_env_seed_override(self, capsys, tmp_path, cfg_file, monkeypatch):
        out_a = tmp_path / "a"
        run_cli(capsys, "run", "--config", cfg_file, "--out", str(out_a))
        monkeypatch.setenv("DRIFTERM_SEED", "777")
        out_b = tmp_path / "b"
        run_cli(capsys, "run", "--config", cfg_file, "--out", str(out_b))
        assert (out_a / "rows.csv").read_text() != (out_b / "rows.csv").read_text()

    def test_env_seed_that_is_not_an_integer(self, cfg_file):
        proc = drifterm_process("run", "--config", cfg_file, env={"DRIFTERM_SEED": "abc"})
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "DRIFTERM_SEED: expected an integer, got 'abc'\n"

    def test_negative_env_seed(self, cfg_file, monkeypatch):
        monkeypatch.setenv("DRIFTERM_SEED", "-3")
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", cfg_file])
        assert exc.value.code == "base_seed must be a non-negative integer, got -3"

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_is_refused(self, cfg_file, tmp_path, jobs):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", cfg_file, "--jobs", str(jobs), "--out", str(tmp_path / "out")])
        assert exc.value.code == f"--jobs: expected an integer >= 1, got {jobs}"
        assert not (tmp_path / "out").exists()


def test_slopes_on_an_n_eff_sweep_reproduce_the_run(capsys, tmp_path):
    """``slopes --x n_eff`` needs 3 params by default, as the run's own slope does."""
    workload = json.loads((WORKLOADS / "neff_ar1_pool.json").read_text())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**workload["config"], **workload["smoke"]}))
    out_dir = tmp_path / "out"
    run_cli(capsys, "run", "--config", str(cfg), "--out", str(out_dir))
    manifest = json.loads((out_dir / "manifest.json").read_text())
    code, out = run_cli(capsys, "slopes", "--results", str(out_dir / "rows.csv"), "--x", "n_eff")
    assert code == 0
    assert json.loads(out) == manifest["slope"]


RUN_THEN_LIST_WORKERS = """
import json, multiprocessing, sys
from drifterm.cli import main
code = main(sys.argv[1:])
print(json.dumps(sorted(child.pid for child in multiprocessing.active_children())))
raise SystemExit(code)
"""

# sha256 of the stdout of ``drifterm run --config configs/linear_rate_ar1.json``, at every --jobs.
AR1_RUN_STDOUT = "3d0edc9a6e6d66dbb647b181f2a9be0465622a8e0a1799dedc247dcd34de91d3"


def test_pooled_run_exits_clean_and_leaves_no_worker_running(tmp_path):
    """``drifterm run --jobs 2`` prints what it always printed, writes nothing to
    stderr, and its workers are gone once it has exited."""
    config = Path(__file__).resolve().parents[1] / "configs" / "linear_rate_ar1.json"
    env = {**os.environ, "PYTHONPATH": str(Path(drifterm.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", RUN_THEN_LIST_WORKERS, "run", "--config", str(config),
         "--jobs", "2", "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    *summary, workers = proc.stdout.splitlines(keepends=True)
    assert hashlib.sha256("".join(summary).encode()).hexdigest() == AR1_RUN_STDOUT
    workers = json.loads(workers)
    assert len(workers) == 2 and all(exited(pid) for pid in workers)


FIT = ("fit", "--data", "path.csv", "--weights", "w.json", "--class", "cls.json",
       "--spec", "spec.json", "--out", "fit.json")
RISK = ("risk", "--fit", "fit.json", "--spec", "spec.json", "--w", "w.json")

RATE_CONFIG = interval_config({"kind": "ar1", "phi": 0.6}, 1024,
                              hypothesis={"kind": "step", "b_bound": 1.0},
                              weights={"family": "exp", "params": [0.05]})

# sha256 of the stdout of each command: the weight-class constants and nets
# over each family's whole domain, and rates (every condition_report point)
# for a linear config and for a sized-step config, which has an
# approximation requirement.  config.json is RATE_CONFIG.
WEIGHTS_NET = ("--net-eps", "0.5")
LINEAR_RATE = str(Path(__file__).resolve().parents[1] / "configs" / "linear_rate.json")
STDOUT_PINS = {
    "weights-uniform-t100": (
        ("weights", "--family", "uniform", "--t", "100", "--n", "100", "--param", "10", *WEIGHTS_NET),
        "fbf892a9e0fc7d3679e390c754e3449c66249bd956eefa60538ee3271d28041a"),
    "weights-exp-t100": (
        ("weights", "--family", "exp", "--t", "100", "--n", "100", "--param", "0.05", *WEIGHTS_NET),
        "bdec8d0d3a1d5dce154946f5dd3e06ccd4be5506d03a13fa60ee9034396f9d26"),
    "weights-brown-t100": (
        ("weights", "--family", "brown", "--t", "100", "--n", "100", "--param", "0.1", *WEIGHTS_NET),
        "ccd0656407d844e1a0d7a5c05534332b3c735d78f280a823a0366fac83e66445"),
    "weights-exp-t1": (
        ("weights", "--family", "exp", "--t", "1", "--n", "1", "--param", "0.5", *WEIGHTS_NET),
        "de8378cc151b5689b6ddc107b5526b3dfa3b2cdc4430f1d976d903b20180bdda"),
    "weights-brown-t1": (
        ("weights", "--family", "brown", "--t", "1", "--n", "1", "--param", "0.5", *WEIGHTS_NET),
        "de1e44e5a689b45ea2609d5c3e01ef36a206290b217cda30f6e7cb0ec81ee1a1"),
    "rates-linear-uniform": (
        ("rates", "--config", LINEAR_RATE),
        "7544c250093eaa7f66173084f31f8e17b92854f1bbe258e6a21082e121be40c0"),
    "rates-sized-step-exp": (
        ("rates", "--config", "config.json"),
        "c47a3ba0bddb79c891e29a4cd7e9cebc7529b9a034ca0e8955e52af4b89bf173"),
}


@pytest.mark.parametrize("key", list(STDOUT_PINS))
def test_stdout_pinned(capsys, tmp_path, monkeypatch, key):
    argv, digest = STDOUT_PINS[key]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(RATE_CONFIG))
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.fixture
def inputs(tmp_path, capsys, monkeypatch):
    """Valid CLI input files in the working directory; spec.json is a bare process."""
    monkeypatch.chdir(tmp_path)
    files = {
        "spec.json": PROCESS,
        "w.json": {"family": "uniform", "param": 50},
        "cls.json": {"kind": "linear", "b_bound": 1.0},
        "config.json": RATE_CONFIG,
    }
    for name, d in files.items():
        (tmp_path / name).write_text(json.dumps(d))
    run_cli(capsys, "simulate", "--spec", "spec.json", "--seed", "3", "--out", "path.csv")
    return tmp_path


class TestStrictInputs:
    @pytest.mark.parametrize(
        "argv, name, content, message",
        [
            (("rates", "--config", "config.json"), "config.json", {**RATE_CONFIG, "rate_varaint": "ii"},
             "rate_varaint: unknown key; did you mean 'rate_variant'?"),
            (("rates", "--config", "config.json"), "config.json",
             {**RATE_CONFIG, "rate_variant": "ii",
              "hypothesis": {"kind": "relu", "nu": 8, "ell": 2, "param_bound": 1.0}},
             "the class has no sup-norm link (c_inf = 0); variant ii needs c_inf > 0"),
            (("mixing", "--config", "config.json"), "config.json",
             interval_config({"kind": "ar1", "phi": 1.5}, 64),
             "process.core: AR(1) needs |phi| < 1, got 1.5"),
            (FIT, "cls.json", {"kind": "step", "q": 4, "typo": 3}, "hypothesis.typo: unknown key"),
            (FIT, "w.json", {"family": "uniform", "parm": 10},
             "weights.parm: unknown key; did you mean 'param'?"),
            (FIT, "cls.json", {"kind": "relu"},
             "hypothesis: network class needs nu, ell, param_bound"),
            (FIT, "spec.json", {k: v for k, v in PROCESS.items() if k != "n"},
             "process.n: missing required key"),
            (FIT, "w.json", {"entries": [float("nan")] + [0.02] * 49},
             "weights.entries[0]: non-finite nan"),
            (FIT, "cls.json", {"kind": "step"}, "step class needs the interval law, got ball"),
            (FIT, "w.json", {"entries": [0.8] + [0.0] * 49}, "weights.entries: must sum to 1, got 0.8"),
            (("simulate", "--spec", "spec.json", "--seed", "-1", "--out", "p.csv"), "spec.json", PROCESS,
             "--seed: expected a non-negative integer, got -1"),
            ((*FIT, "--seed", "-2"), "cls.json", {"kind": "relu", "nu": 4, "ell": 1, "param_bound": 1.0},
             "--seed: expected a non-negative integer, got -2"),
        ],
        ids=["rates-misspelt-key", "rates-relu-variant-ii", "mixing-bad-core", "class-unknown-key",
             "weights-misspelt-key", "relu-class-bare", "process-without-n", "nan-weight-entry",
             "step-class-on-ball", "weights-not-summing-to-one", "simulate-negative-seed",
             "fit-negative-seed"],
    )
    def test_bad_input_is_a_one_line_error(self, inputs, argv, name, content, message):
        (inputs / name).write_text(json.dumps(content))
        proc = drifterm_process(*argv, cwd=inputs)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == message + "\n"

    @pytest.mark.parametrize("grid", ["0", "-1"])
    def test_rates_grid_below_one(self, inputs, grid):
        proc = drifterm_process("rates", "--config", "config.json", "--grid", grid, cwd=inputs)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == f"--grid: expected an integer >= 1, got {grid}\n"

    @pytest.mark.parametrize("command", ["rates", "mixing"])
    def test_reader_that_closed_stdout_gets_no_traceback(self, inputs, command):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before drifterm writes
        try:
            proc = drifterm_process(command, "--config", "config.json", cwd=inputs, stdout=write_end)
        finally:
            os.close(write_end)
        assert proc.stderr == ""
        assert proc.returncode == 1

    def test_risk_target_time_beyond_n(self, inputs, capsys):
        run_cli(capsys, *FIT)
        proc = drifterm_process(*RISK, "--t", "100", cwd=inputs)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "t=100 outside 1..n=50\n"

    @pytest.mark.parametrize(
        "fit, message",
        [
            ({"class": {"kind": "linear", "b_bound": 1.0}}, "fit: linear hypothesis needs coef"),
            ({"class": {"kind": "step", "b_bound": 1.0, "q": 3}, "bins": [0.1, 0.2]},
             "fit: step hypothesis needs bins of length q=3"),
            ({"class": {"kind": "relu", "b_bound": 1.0, "nu": 4, "ell": 1, "param_bound": 1.0},
              "coef": [0.1, 0.2]}, "fit: network hypothesis needs layers"),
            ({"class": {"kind": "relu", "b_bound": 1.0, "nu": 4, "ell": 1, "param_bound": 1.0},
              "layers": [{"W": [[0.1, 0.2, 0.3]], "b": [0.0, 0.0, 0.0]},
                         {"W": [[0.1], [0.2]], "b": [0.0]}]},
             "fit: layer 0 has W (1, 3) and b (3,); the class needs W (1, 4) and b (4,)"),
            ({"class": {"kind": "linear", "b_bound": 1.0}, "coef": [0.1, 0.2, 0.3]},
             "the fit takes p=3 covariates, the spec has p=2"),
            ({"class": {"kind": "relu", "b_bound": 1.0, "nu": 2, "ell": 1, "param_bound": 1.0},
              "layers": [{"W": [[0.1, 0.2]], "b": [0.0, 0.0]}, {"W": [[0.1], [0.2]], "b": [0.0]}]},
             "the fit takes p=1 covariates, the spec has p=2"),
            ({"class": {"kind": "linear", "b_bound": 1.0, "c_inf": 0.4}, "coef": [0.1, 0.2]},
             "fit.class.c_inf: unknown key"),
            ({"class": {"kind": "step", "b_bound": 1.0, "q": 2}, "bins": [0.1, 0.4], "coef": [9.0]},
             "fit: step hypothesis does not read coef"),
            ({"class": {"kind": "linear", "b_bound": 1.0}, "coef": [0.1, 0.2], "bins": [0.1]},
             "fit: linear hypothesis does not read bins"),
        ],
        ids=["linear-without-coef", "step-short-bins", "relu-without-layers", "relu-layer-shapes",
             "linear-three-coefs", "relu-one-input", "class-with-c_inf", "step-with-coef", "linear-with-bins"],
    )
    def test_fit_json_without_its_parameters(self, inputs, fit, message):
        (inputs / "fit.json").write_text(json.dumps(fit))
        proc = drifterm_process(*RISK, "--t", "50", cwd=inputs)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == message + "\n"

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda rows: [rows[0].replace("z_2", "z_3")] + rows[1:],
             "path.csv line 1: expected the header 't,y,z_1,z_2', got 't,y,z_1,z_3'"),
            (lambda rows: rows[:2], "path.csv: expected n+1 = 51 rows, got 1"),
            (lambda rows: rows[:2] + ["2,0.5,nan,0.1"] + rows[3:], "path.csv line 3: z_1: non-finite nan"),
            (lambda rows: rows[:2] + ["2,abc,0.1,0.1"] + rows[3:],
             "path.csv line 3: y: expected float, got 'abc'"),
            (lambda rows: rows[:2] + ["2,0.5,0.1"] + rows[3:], "path.csv line 3: expected 4 fields, got 3"),
        ],
        ids=["header", "one-row", "nan-covariate", "text", "short-line"],
    )
    def test_path_csv_is_checked_against_the_spec(self, inputs, edit, message):
        rows = (inputs / "path.csv").read_text().splitlines()
        (inputs / "path.csv").write_text("\n".join(edit(rows)) + "\n")
        with pytest.raises(SystemExit) as exc:
            main(list(FIT))
        assert exc.value.code == message


class TestRiskUsesTheFittedClass:
    def test_linear_b_bound_3_matches_risk_report(self, inputs, capsys):
        process = {**PROCESS, "n": 200,
                   "drift": {"kind": "linear", "a": [0.3, -0.2], "b": [-0.1, 0.4]}}
        (inputs / "spec.json").write_text(json.dumps(process))
        (inputs / "cls.json").write_text(json.dumps({"kind": "linear", "b_bound": 3.0}))
        (inputs / "w.json").write_text(json.dumps({"family": "exp", "param": 0.05}))
        run_cli(capsys, "simulate", "--spec", "spec.json", "--seed", "3", "--out", "path.csv")
        run_cli(capsys, *FIT)
        code, out = run_cli(capsys, *RISK, "--t", "200")
        assert code == 0

        spec = decode(ProcessSpec, process, "process")
        w = make_weights(WeightSpec(WeightFamily.EXPONENTIAL, t=200, n=200, param=0.05))
        class_spec = HypothesisClassSpec(b_bound=3.0).class_spec(spec, w.l2)
        expected = risk_report(fit_weighted_erm(simulate(spec, 3), w, class_spec), spec, w, 200)
        report = json.loads(out)
        assert report["discrepancy_sum"] == expected.discrepancy_sum
        assert report == json.loads(json.dumps(
            {**dataclasses.asdict(expected), "decomposition_ok": expected.decomposition_ok}
        ))

    def test_relu_fit_gets_a_report(self, inputs, capsys):
        klass = {"kind": "relu", "nu": 4, "ell": 1, "param_bound": 2.0}
        (inputs / "cls.json").write_text(json.dumps(klass))
        run_cli(capsys, *FIT)
        fit = json.loads((inputs / "fit.json").read_text())
        assert fit["class"]["kind"] == "relu" and len(fit["layers"]) == 2
        code, out = run_cli(capsys, *RISK, "--t", "50")
        report = json.loads(out)
        assert code == 0
        assert report["discrepancy_sum"] is None
        assert report["modes"]["learning_error"] == "monte_carlo"
        assert report["learning_error"] >= 0


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_cli_walk(tmp_path):
    """The README's mixing, simulate, fit, rates and risk lines run on its example input files."""
    text = README.read_text()
    examples = re.findall(r"```json (\S+)\n(.*?)```", text, flags=re.S)
    assert sorted(name for name, _ in examples) == [
        "cls.json", "config.json", "spec.json", "w.json"
    ]
    for name, body in examples:
        (tmp_path / name).write_text(body)
    commands = re.findall(
        r"^drifterm ((?:mixing|simulate|fit|rates|risk) .*)$", text.replace("\\\n", " "), flags=re.M
    )
    assert [c.split()[0] for c in commands] == ["mixing", "simulate", "fit", "rates", "risk"]
    out = {}
    for command in commands:
        proc = drifterm_process(*command.split(), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        out[command.split()[0]] = proc.stdout
    assert json.loads((tmp_path / "fit.json").read_text())["class"]["b_bound"] == 3.0
    assert json.loads(out["mixing"])["k_rho"] == pytest.approx(4.0)
    rates = json.loads(out["rates"])
    assert (rates["variant"], rates["n"]) == ("ii", 4096)
    assert rates["condition_report"]["all_pass"]
    assert json.loads(out["risk"])["decomposition_ok"]


def test_package_init_imports_nothing():
    # callers import from the modules: the package re-exports none of their names
    tree = ast.parse(Path(drifterm.__file__).read_text(encoding="utf-8"))
    assigned = {t.id for node in ast.walk(tree) if isinstance(node, ast.Assign) for t in node.targets}
    assert assigned == {"__version__"}  # the walk sees the module's statements
    assert [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))] == []
