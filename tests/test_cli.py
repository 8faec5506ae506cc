import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import drifterm

from drifterm.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


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
        cfile.write_text(json.dumps({"kind": "linear", "b_bound": 1.0, "lambda_min": 1 / 6}))
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
            "weight_class": {"family": "exp", "scope": "union"},
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

    def test_misspelt_key_is_a_one_line_error(self, tmp_path, cfg_file):
        cfg = json.loads(Path(cfg_file).read_text())
        cfg["replicatons"] = cfg.pop("replications")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        env = {**os.environ, "PYTHONPATH": str(Path(drifterm.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "drifterm.cli", "run", "--config", str(bad)],
            capture_output=True, text=True, env=env, timeout=120,
        )
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
