"""The config codec: ``config_to_dict`` / ``config_from_dict`` over the dataclass fields."""

import copy
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from drifterm.harness import (
    ExperimentConfig,
    HarnessError,
    HypothesisPolicy,
    WeightPolicy,
    config_from_dict,
    config_hash,
    config_to_dict,
)
from drifterm.hypotheses import HypothesisKind
from drifterm.processes import (
    TRUNC_SUPPORT,
    CovariateLaw,
    DependenceCore,
    DriftSpec,
    ProcessKind,
    ProcessSpec,
)
from drifterm.rates import RateVariant
from drifterm.weights import WeightFamily

BASE = json.loads((Path(__file__).resolve().parents[1] / "configs" / "linear_rate.json").read_text())

finite = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
positive = st.floats(0.01, 5.0, allow_nan=False, allow_infinity=False)
maybe = lambda s: st.none() | s  # noqa: E731


@st.composite
def drift_specs(draw, p: int):
    vec = st.tuples(*[finite] * p)
    kind = draw(st.sampled_from(["constant", "linear", "switch", "sinusoidal"]))
    if kind == "constant":
        return DriftSpec(kind, draw(vec))
    at = draw(st.integers(1, 50)) if kind == "switch" else None
    return DriftSpec(kind, draw(vec), draw(vec), at=at, cycles=draw(positive))


@st.composite
def process_specs(draw):
    core = draw(st.sampled_from(["iid", "ar1", "markov"]))
    core = DependenceCore(
        kind=core,
        phi=draw(st.floats(-0.9, 0.9)),
        flip=draw(st.floats(0.05, 0.95)),
        beta_scale=draw(positive),
    )
    n = draw(st.integers(1, 10_000))
    slack = draw(st.floats(0.0, 3.0))
    if draw(st.booleans()):
        mean, v0, v1 = draw(finite), draw(positive), draw(positive)
        return ProcessSpec(
            ProcessKind.DRIFTING_VARIANCE, n, 1, CovariateLaw.INTERVAL, core,
            mean=mean, var_start=v0, var_end=v1,
            y_bound=abs(mean) + max(v0, v1) ** 0.5 * TRUNC_SUPPORT + slack,
        )
    law = draw(st.sampled_from(CovariateLaw))
    p = 1 if law is CovariateLaw.INTERVAL else draw(st.integers(1, 3))
    drift = draw(drift_specs(p))
    kind = ProcessKind.REGIME_SWITCH if drift.kind == "switch" and draw(st.booleans()) \
        else ProcessKind.DRIFTING_LINEAR
    noise_sd = draw(st.floats(0.0, 1.0))
    noise_mode = "iid" if core.kind == "markov" else draw(st.sampled_from(["iid", "ar1"]))
    return ProcessSpec(
        kind, n, p, law, core, drift=drift, noise_sd=noise_sd,
        y_bound=drift.bound() + noise_sd * TRUNC_SUPPORT + slack,
        noise_mode=noise_mode, noise_phi=draw(st.floats(-0.9, 0.9)),
    )


@st.composite
def experiment_configs(draw):
    n_grid = tuple(sorted(draw(st.sets(st.integers(1, 10_000), min_size=1, max_size=6))))
    family = draw(st.sampled_from(WeightFamily))
    param = {
        WeightFamily.UNIFORM_WINDOW: st.integers(1, n_grid[0]).map(float),
        WeightFamily.EXPONENTIAL: positive,
        WeightFamily.BROWN_DES: st.floats(0.01, 1.0),
    }[family]
    params = draw(maybe(st.lists(param, min_size=1, max_size=4).map(tuple)))
    band = draw(maybe(st.tuples(finite, finite)))
    try:
        return ExperimentConfig(
            process=draw(process_specs()),
            weights=WeightPolicy(family, params, exp_range=draw(positive)),
            hypothesis=HypothesisPolicy(
                kind=draw(st.sampled_from(HypothesisKind)),
                b_bound=draw(positive),
                q=draw(maybe(st.integers(1, 64))),
                nu=draw(maybe(st.integers(1, 16))),
                ell=draw(maybe(st.integers(1, 4))),
                param_bound=draw(maybe(positive)),
            ),
            n_grid=n_grid,
            replications=draw(st.integers(1, 500)),
            delta=draw(st.floats(0.001, 0.999)),
            base_seed=draw(st.integers(0, 2**63)),
            rate_variant=draw(st.sampled_from(RateVariant)),
            mc_draws=draw(st.integers(1, 10**6)),
            slope_target=draw(maybe(finite)),
            slope_band=band,
        )
    except HarnessError:  # e.g. a slope target on a narrow grid
        assume(False)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(experiment_configs())
def test_roundtrip_through_json(cfg):
    data = json.loads(json.dumps(config_to_dict(cfg)))
    again = config_from_dict(data)
    assert again == cfg
    assert config_hash(again) == config_hash(cfg)


def key_paths(d: dict, prefix=()):
    for key, value in d.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from key_paths(value, prefix + (key,))


FUZZ_BASES = [BASE, config_to_dict(config_from_dict(BASE))]
WRONG_VALUES = ["x", "200", True, None, 1.5, -3, 0, [], [1, "a"], {}, {"a": 1}]


@settings(max_examples=300, deadline=None)
@given(
    base=st.sampled_from(FUZZ_BASES),
    data=st.data(),
    action=st.sampled_from(["delete", "rename", "retype"]),
    wrong=st.sampled_from(WRONG_VALUES),
)
def test_mutated_config_loads_or_raises_harness_error(base, data, action, wrong):
    d = copy.deepcopy(base)
    path = data.draw(st.sampled_from(sorted(key_paths(d))))
    parent = d
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if action == "delete":
        del parent[key]
    elif action == "rename":
        parent[key + "x"] = parent.pop(key)
    else:
        parent[key] = copy.deepcopy(wrong)
    try:
        config_from_dict(d)
    except HarnessError:
        pass


def with_key(path: str, value, base=BASE) -> dict:
    d = copy.deepcopy(base)
    *parents, key = path.split(".")
    target = d
    for p in parents:
        target = target[p]
    target[key] = value
    return d


def without_key(path: str, base=BASE) -> dict:
    d = copy.deepcopy(base)
    *parents, key = path.split(".")
    target = d
    for p in parents:
        target = target[p]
    del target[key]
    return d


@pytest.mark.parametrize(
    "data, message",
    [
        (with_key("replicatons", 500), r"^replicatons: unknown key; did you mean 'replications'\?"),
        (with_key("process.noise_sdd", 0.3), r"^process\.noise_sdd: unknown key; did you mean 'noise_sd'\?"),
        (with_key("replications", "200"), r"^replications: expected int, got str '200'"),
        (with_key("weights.family", "expo"), r"^weights\.family: 'expo' is not one of"),
        (without_key("n_grid"), r"^n_grid: missing required key"),
        (with_key("weights.params", [0.5]), r"^weights\.params: window length must be an integer"),
        (with_key("process.drift.a", [0.3, "x"]), r"^process\.drift\.a\[1\]: expected float"),
        (with_key("slope_band", [-1.0]), r"^slope_band: expected 2 items, got 1"),
        (with_key("process.core", "iid"), r"^process\.core: expected an object, got str"),
        (with_key("process.y_bound", 0.5), r"^process: y_bound=0\.5 cannot hold"),
        (with_key("n_grid", [256, 128]), r"^n_grid must be nonempty and strictly increasing"),
        (without_key("process.kind"), r"^process\.kind: missing required key"),
        (with_key("delta", True), r"^delta: expected float, got bool"),
        ([BASE], r"^config: expected an object, got list"),
    ],
)
def test_bad_configs_name_the_field(data, message):
    with pytest.raises(HarnessError, match=message):
        config_from_dict(data)


def test_omitted_keys_take_the_dataclass_defaults():
    d = {"process": {k: v for k, v in BASE["process"].items() if k != "core"},
         "n_grid": [16, 32], "replications": 2}
    cfg = config_from_dict(d)
    assert cfg.process.n == 32  # the largest grid point
    assert cfg.process.core == DependenceCore()
    assert cfg.weights == WeightPolicy()
    assert cfg.hypothesis == HypothesisPolicy()
    assert cfg == ExperimentConfig(
        process=cfg.process, weights=WeightPolicy(), hypothesis=HypothesisPolicy(),
        n_grid=(16, 32), replications=2,
    )


def test_ints_in_float_fields_are_kept_as_given():
    cfg = config_from_dict(with_key("process.y_bound", 2))
    assert type(cfg.process.y_bound) is int
    assert config_to_dict(cfg)["process"]["y_bound"] == 2
    assert config_hash(cfg) != config_hash(config_from_dict(BASE))
