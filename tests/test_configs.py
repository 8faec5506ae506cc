"""The shipped experiment configs: ``configs/`` and the benchmark's workloads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import drifterm
from drifterm.harness import config_from_dict, config_hash
from drifterm.weights import WeightFamily, make_weights

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
WORKLOADS = ROOT / "perfbench" / "workloads"


def load(name: str):
    return config_from_dict(json.loads((CONFIGS / name).read_text()))


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.name)
def test_every_config_loads(path):
    config_from_dict(json.loads(path.read_text()))


def test_effective_sample_size_targets():
    cfg = load("effective_sample_size.json")
    (n,) = cfg.n_grid
    assert cfg.weights.family is WeightFamily.EXPONENTIAL
    realized = [make_weights(spec).n_eff for spec in cfg.weights.specs(n)]
    assert realized == pytest.approx([16.0, 64.0, 256.0, 1024.0], rel=1e-9)


# config_sha256 of every shipped config, written before the config codec was
# rebuilt from the dataclass fields; a loader change must not move any of them.
CONFIG_SHA256 = {
    "configs/effective_sample_size.json": "cdf68818c50e5f69a1a484259f6205bc885d71df8a7fada50be491ed0e42e564",
    "configs/linear_rate.json": "89c7ffd8842c68b0ed66bc70d91126047e439e55d6c7527f2f85f7b1119d4504",
    "configs/linear_rate_ar1.json": "1cd6c5a75ac6a88904b982956a9ab67be8ca9eaf340325c48142a1456d6d8eb7",
    "drift_report": "c02b7d298fc5a7f6c049c38277a69728b0c8f54c13b47294427cd4b5878e9238",
    "drift_report smoke": "25106baaed87e03e40c97c4e7104314e2ec56c1b2e26465b18eb39e00eef19f1",
    "linear_iid": "1b974c4aef88d968e23f3d7662cd25f9e2562b2c35f8747a3fa9e081e5cc13d7",
    "linear_iid smoke": "1e8da082ee8887e97d76e1ad593ebadbe124746198ba5305f40203e48c392d1b",
    "neff_ar1_pool": "dd63ceb23dfe8d70e3ff7a63705cf2400e2414f8ddf9977c771dcf4e99678cf0",
    "neff_ar1_pool smoke": "d28971e5aad4ea3c6467c524dd42a600e474c07f13f1558bc7d6b019e00b233b",
    "relu_cell": "dcaeac623f973f8b61c043bd4fd7eeaa29c543fe5bc0a9fda38375f9c9ceddf7",
    "relu_cell smoke": "671353fa0d061c3aefb3ca71dcda861608745ed8fc71d41c59db3b7f239e497d",
    "step_mc": "6fead654a8bc0f99015499e5763c89ad3a28a2438daf0a677c4e49cb22710ce0",
    "step_mc smoke": "017297688923505236330cb31c791ecc2b656e75b472921bd72734215f1bd98d",
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
