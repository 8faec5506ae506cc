"""The shipped experiment configs under ``configs/``, run with ``drifterm run``."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from drifterm.harness import config_from_dict
from drifterm.processes import DependenceCore
from drifterm.weights import WeightFamily, make_weights
from test_acceptance import N_GRID, baseline_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def load(name: str):
    return config_from_dict(json.loads((CONFIGS / name).read_text()))


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.name)
def test_every_config_loads(path):
    config_from_dict(json.loads(path.read_text()))


@pytest.mark.parametrize(
    "name, core",
    [("linear_rate.json", None), ("linear_rate_ar1.json", DependenceCore(kind="ar1", phi=0.6))],
)
def test_linear_rate_is_the_baseline(name, core):
    cfg = load(name)
    assert replace(cfg, process=replace(cfg.process, n=N_GRID[0])) == baseline_config(core)


def test_effective_sample_size_targets():
    cfg = load("effective_sample_size.json")
    (n,) = cfg.n_grid
    assert cfg.weights.family is WeightFamily.EXPONENTIAL
    realized = [make_weights(spec).n_eff for spec in cfg.weights.specs(n)]
    assert realized == pytest.approx([16.0, 64.0, 256.0, 1024.0], rel=1e-9)
