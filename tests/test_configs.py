"""The shipped experiment configs: ``configs/`` and the benchmark's workloads."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import drifterm
from drifterm.harness import config_from_dict, config_hash
from drifterm.processes import DependenceCore
from drifterm.weights import WeightFamily, make_weights
from test_acceptance import N_GRID, baseline_config

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
WORKLOADS = ROOT / "perfbench" / "workloads"


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


# config_sha256 of every shipped config, written before the config codec was
# rebuilt from the dataclass fields; a loader change must not move any of them.
CONFIG_SHA256 = {
    "configs/effective_sample_size.json": "0f62c665455ec7b880feb98d4db2f412fb291070b5b4b63ee61ab1361223e876",
    "configs/linear_rate.json": "53c708f8ec756b8093d6ab394355efed53f988d34ceb6f76d8b50bb2ea1b93a1",
    "configs/linear_rate_ar1.json": "593ebef98dc6b4cccc2aebd4b9bc6963382b96e15d94773ee82f7a48f07cb563",
    "drift_report": "afaa569cb5e7ae9aa49f237b3ad1f94851a1e671d1965146a34416466f6d6ab1",
    "drift_report smoke": "ca40b75148aa6bf7529311c57d6b14330934233050d24012eba3a8e54c7c0e73",
    "linear_iid": "8e5a4bd8121b72367b05b1c24a6acabc072671af9c2e60edc35a146376066951",
    "linear_iid smoke": "8f0147be42019c0e103786ac23f4e0a33eab6daf2d39e574c3b8f8175da12fad",
    "neff_ar1_pool": "a3d07594fb574c2d85f9aa60f53f6829516c528af3f73f57c07803efe956ef88",
    "neff_ar1_pool smoke": "85a8d1d78fe65da2bc0182fb9e3b7f8b4767f0bae00bdb784e679f126d8522f8",
    "relu_cell": "ffd7c5c0ada34222e0fc8d4b507b8884136858df37c7c4c4c08edf153a502895",
    "relu_cell smoke": "220299aab22c44a395944592fce2de5bbc1e082b1cee887592fd09db5118dd04",
    "step_mc": "533ea50454f8b06474c7c09130ca1be5cf04c8b2c11288f6028626bae1ee6cff",
    "step_mc smoke": "47421905fe22cd96ecf55061a2cfca20032a23e1969bb48dd21dcd7c3cdcc76c",
}


def shipped_config(key: str) -> dict:
    """The config dict named by a CONFIG_SHA256 key; workloads merge ``smoke`` as the benchmark does."""
    if key.startswith("configs/"):
        return json.loads((ROOT / key).read_text())
    name, _, smoke = key.partition(" ")
    workload = json.loads((WORKLOADS / f"{name}.json").read_text())
    return {**workload["config"], **workload["smoke"]} if smoke else workload["config"]


def test_pins_cover_every_shipped_config():
    names = [f"configs/{p.name}" for p in CONFIGS.glob("*.json")]
    for p in WORKLOADS.glob("*.json"):
        names += [p.stem, f"{p.stem} smoke"]
    assert sorted(names) == sorted(CONFIG_SHA256)


@pytest.mark.parametrize("key", sorted(CONFIG_SHA256))
def test_config_sha256_pinned(key):
    assert config_hash(config_from_dict(shipped_config(key))) == CONFIG_SHA256[key]


SCIPY_AFTER_LOADING = """
import json, sys
import drifterm.cli
from drifterm.harness import config_from_dict
for d in json.load(sys.stdin):
    config_from_dict(d)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_loading_every_shipped_config_imports_no_scipy():
    """scipy is imported on first use only; the CLI and the config codec never use it."""
    configs = [shipped_config(key) for key in sorted(CONFIG_SHA256)]
    env = {**os.environ, "PYTHONPATH": str(Path(drifterm.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", SCIPY_AFTER_LOADING],
        input=json.dumps(configs), env=env, capture_output=True, text=True, check=True,
    )
    assert json.loads(out.stdout) == []
