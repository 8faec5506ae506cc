"""Tests of the benchmark itself: smoke runs, metric names, determinism, refusal.

Run with ``python3 -m pytest perfbench/test_perfbench.py -q``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    BENCHMARK = json.load(f)


def test_workloads_match_benchmark_file():
    declared = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
    assert sorted(declared) == run.workload_names()
    for name, why in declared.items():
        assert run.load_workload(name, smoke=False)["why"] == why


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.workload_names())
def test_smoke_run_reports_every_metric(workload, trace, tmp_path, capsys):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0",
            "--trace", str(trace), "--smoke", "--out", str(tmp_path)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_pool_gives_same_rows_as_in_process():
    harness = run.import_drifterm()[0]
    cfg = harness.config_from_dict(run.load_workload("neff_ar1_pool", smoke=False)["config"])
    in_process = harness.run_experiment(cfg, jobs=1)
    pooled = harness.run_experiment(cfg, jobs=2)
    assert len(in_process.rows) == 4 * cfg.replications
    assert pooled.rows == in_process.rows


def test_wrong_pin_counts_as_failed(tmp_path):
    spec = run.load_workload("drift_report", smoke=True)
    spec["pinned_discrepancy_sum"] = {"256": 1.0}
    work = run.Workload("drift_report", spec, 3, str(tmp_path), run.import_drifterm())
    work.call(1)
    assert (work.attempted, work.failed) == (1, 1)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "linear_iid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
