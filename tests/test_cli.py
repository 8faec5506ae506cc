import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import drifterm

from drifterm.cli import main
from drifterm.harness import decode
from drifterm.hypotheses import HypothesisClassSpec, fit_weighted_erm
from drifterm.processes import ProcessSpec, simulate
from drifterm.risk import risk_report
from drifterm.weights import WeightFamily, WeightSpec, make_weights


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def drifterm_process(*argv, cwd=None):
    """``drifterm argv`` in a fresh interpreter, as a shell runs it."""
    env = {**os.environ, "PYTHONPATH": str(Path(drifterm.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, "-m", "drifterm.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120, cwd=cwd,
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


class TestMixingCommand:
    def test_ar1_profile(self, capsys):
        code, out = run_cli(
            capsys, "mixing", "--profile", "ar1", "--params", "0.5",
            "--n", "1000", "--delta", "0.05",
        )
        d = json.loads(out)
        assert d["k_rho"] == pytest.approx(3.0, abs=1e-9)
        assert d["m_beta"] >= 1
        assert len(d["beta"]) == 51

    def test_markov_profile(self, capsys):
        code, out = run_cli(
            capsys, "mixing", "--profile", "markov", "--params", "0.1", "0.1",
            "--n", "100", "--delta", "0.1",
        )
        d = json.loads(out)
        assert d["beta"]["1"] == pytest.approx(0.4, abs=1e-12)


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


class TestRatesCommand:
    def test_condition_report_and_scale(self, capsys, tmp_path):
        pfile = tmp_path / "rates.json"
        pfile.write_text(json.dumps({
            "n": 10_000, "c1": 1.0, "cw": 0.01, "bw": 2.0, "m_beta": 8,
            "k_rho": 1.0, "c_inf": 1.0, "alpha": 0.0, "delta": 0.05,
            "weight_class": {"family": "exp"},
            "hypothesis_class": {"kind": "step", "q": 1, "b_bound": 1.0},
        }))
        code, out = run_cli(capsys, "rates", "--params", str(pfile), "--variant", "ii",
                            "--grid", "8")
        d = json.loads(out)
        assert d["a"] >= 1.0
        assert d["condition_report"]["all_pass"]
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


RATES = {
    "n": 10_000, "c1": 1.0, "cw": 0.01, "bw": 2.0, "m_beta": 8,
    "k_rho": 1.0, "c_inf": 1.0, "alpha": 0.0, "delta": 0.05,
    "weight_class": {"family": "exp"},
    "hypothesis_class": {"kind": "step", "q": 1, "b_bound": 1.0},
}
FIT = ("fit", "--data", "path.csv", "--weights", "w.json", "--class", "cls.json",
       "--spec", "spec.json", "--out", "fit.json")
RISK = ("risk", "--fit", "fit.json", "--spec", "spec.json", "--w", "w.json")


# (hypothesis_class, alpha) -> (scale constant, min_slack) that ``rates --variant ii``
# finds on the exponential-union weight class at n = 10^4.
RATE_CLASS_PINS = {
    "linear_p2": ({"kind": "linear", "p": 2, "b_bound": 1.0}, 0.0, 16.0, 1.4916337505134118),
    "step_sized": ({"kind": "step", "b_bound": 1.0}, 2 / 3, 4.0, 1.3576457172106486),
    "step_q8": ({"kind": "step", "q": 8, "b_bound": 1.0}, 0.0, 32.0, 1.2674557041983643),
    "relu": ({"kind": "relu", "b_bound": 1.0, "nu": 8, "ell": 2, "param_bound": 1.0}, 2 / 3,
             8.0, 2.5433620378014754),
}


@pytest.mark.parametrize("key", sorted(RATE_CLASS_PINS))
def test_rates_pinned_per_hypothesis_class(capsys, tmp_path, key):
    klass, alpha, a, slack = RATE_CLASS_PINS[key]
    pfile = tmp_path / "rates.json"
    pfile.write_text(json.dumps({**RATES, "alpha": alpha, "hypothesis_class": klass}))
    code, out = run_cli(capsys, "rates", "--params", str(pfile), "--variant", "ii", "--grid", "8")
    report = json.loads(out)
    assert code == 0
    assert report["a"] == a
    assert report["condition_report"]["all_pass"]
    assert report["condition_report"]["min_slack"] == pytest.approx(slack, rel=1e-12)


@pytest.fixture
def inputs(tmp_path, capsys, monkeypatch):
    """Valid CLI input files in the working directory; spec.json is a bare process."""
    monkeypatch.chdir(tmp_path)
    files = {
        "spec.json": PROCESS,
        "w.json": {"family": "uniform", "param": 50},
        "cls.json": {"kind": "linear", "b_bound": 1.0},
        "rates.json": RATES,
    }
    for name, d in files.items():
        (tmp_path / name).write_text(json.dumps(d))
    run_cli(capsys, "simulate", "--spec", "spec.json", "--seed", "3", "--out", "path.csv")
    return tmp_path


class TestStrictInputs:
    @pytest.mark.parametrize(
        "argv, name, content, message",
        [
            (("rates", "--params", "rates.json", "--variant", "ii"), "rates.json",
             {k: v for k, v in RATES.items() if k != "c1"}, "params.c1: missing required key"),
            (("rates", "--params", "rates.json", "--variant", "ii"), "rates.json",
             {**RATES, "a": 2.0}, "params.a: unknown key"),
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
        ],
        ids=["rates-without-c1", "rates-with-scale", "class-unknown-key", "weights-misspelt-key", "relu-class-bare",
             "process-without-n", "nan-weight-entry", "step-class-on-ball"],
    )
    def test_bad_input_is_a_one_line_error(self, inputs, argv, name, content, message):
        (inputs / name).write_text(json.dumps(content))
        proc = drifterm_process(*argv, cwd=inputs)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == message + "\n"

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
        ],
        ids=["linear-without-coef", "step-short-bins", "relu-without-layers", "relu-layer-shapes",
             "linear-three-coefs", "relu-one-input", "class-with-c_inf"],
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

    @pytest.mark.parametrize(
        "nested, message",
        [
            ({"weight_class": {"family": "exp", "scope": "union"}},
             "params.weight_class.scope: unknown key"),
            ({"weight_class": {"family": "exp", "n": 100}},
             "params.weight_class.n: unknown key"),
            ({"hypothesis_class": {"kind": "step", "qq": 1}},
             "params.hypothesis_class.qq: unknown key; did you mean 'q'?"),
        ],
        ids=["scope", "horizon", "covering-key"],
    )
    def test_rates_covering_objects_are_strict(self, inputs, nested, message):
        (inputs / "rates.json").write_text(json.dumps({**RATES, **nested}))
        with pytest.raises(SystemExit) as exc:
            main(["rates", "--params", "rates.json", "--variant", "ii"])
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
    """The README's simulate, fit, rates and risk lines run on its example input files."""
    text = README.read_text()
    examples = re.findall(r"```json (\S+)\n(.*?)```", text, flags=re.S)
    assert sorted(name for name, _ in examples) == [
        "cls.json", "rateparams.json", "spec.json", "w.json"
    ]
    for name, body in examples:
        (tmp_path / name).write_text(body)
    commands = re.findall(
        r"^drifterm ((?:simulate|fit|rates|risk) .*)$", text.replace("\\\n", " "), flags=re.M
    )
    assert [c.split()[0] for c in commands] == ["simulate", "fit", "rates", "risk"]
    out = {}
    for command in commands:
        proc = drifterm_process(*command.split(), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        out[command.split()[0]] = proc.stdout
    assert json.loads((tmp_path / "fit.json").read_text())["class"]["b_bound"] == 3.0
    assert json.loads(out["rates"])["condition_report"]["all_pass"]
    assert json.loads(out["risk"])["decomposition_ok"]
