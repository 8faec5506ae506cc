"""The config codec: ``config_to_dict`` / ``config_from_dict`` over the dataclass fields."""

import copy
import json
import math
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from drifterm.harness import (
    ExperimentConfig,
    HarnessError,
    WeightPolicy,
    config_from_dict,
    config_hash,
    config_to_dict,
)
from drifterm.hypotheses import HypothesisClassSpec, HypothesisKind
from drifterm.processes import (
    TRUNC_SUPPORT,
    CovariateLaw,
    DependenceCore,
    DriftSpec,
    ProcessKind,
    ProcessSpec,
)
from drifterm.rates import RateVariant
from drifterm.weights import DEFAULT_EXP_RANGE, WeightFamily

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
    cycles = draw(positive) if kind == "sinusoidal" else 1.0
    return DriftSpec(kind, draw(vec), draw(vec), at=at, cycles=cycles)


@st.composite
def process_specs(draw):
    core = draw(st.one_of(  # each core kind with its own parameter only
        st.just(DependenceCore()),
        st.builds(DependenceCore, kind=st.just("ar1"), phi=st.floats(-0.9, 0.9)),
        st.builds(DependenceCore, kind=st.just("markov"), flip=st.floats(0.05, 0.95)),
    ))
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
    noise_sd = draw(st.floats(0.0, 1.0))
    return ProcessSpec(
        ProcessKind.DRIFTING_LINEAR, n, p, law, core, drift=drift, noise_sd=noise_sd,
        y_bound=drift.bound() + noise_sd * TRUNC_SUPPORT + slack,
    )


def ints(lo: float, hi: float):
    return st.integers(math.ceil(lo), math.ceil(hi) - 1)


def floats(lo: float, hi: float):
    return st.floats(lo, hi, exclude_max=True)


def increasing(lo: float, hi: float, size: int, values):
    """``size`` strictly increasing values, one drawn from each of ``size`` equal
    slices of [lo, hi), so none is filtered out as a duplicate."""
    width = (hi - lo) / size
    return st.tuples(*[values(lo + i * width, lo + (i + 1) * width) for i in range(size)])


@st.composite
def n_grids(draw, slope: bool):
    """A strictly increasing grid; for an n-axis slope, >= 5 points spanning >= 2 octaves."""
    if not slope:
        return draw(increasing(1, 10_001, draw(st.integers(1, 6)), ints))
    lo = draw(st.integers(2, 2_500))
    inner = draw(increasing(lo + 1, 4 * lo, draw(st.integers(3, 4)), ints))
    return (lo, *inner, draw(st.integers(4 * lo, 10_000)))


@st.composite
def experiment_configs(draw):
    """Configs drawn to pass every load check: no draw is thrown away."""
    slope = draw(st.sampled_from([None, "n", "n_eff"]))  # the axis of a slope target
    n_grid = (draw(st.integers(4, 10_000)),) if slope == "n_eff" else draw(n_grids(slope == "n"))
    family = draw(st.sampled_from(WeightFamily))
    lo, hi, values = {  # the family's parameters lie in [lo, hi)
        WeightFamily.UNIFORM_WINDOW: (1, n_grid[0] + 1, lambda a, b: ints(a, b).map(float)),
        WeightFamily.EXPONENTIAL: (0.01, DEFAULT_EXP_RANGE, floats),
        WeightFamily.BROWN_DES: (0.01, 1.0, floats),
    }[family]
    if slope == "n_eff":  # an n_eff slope needs >= 3 distinct params
        params = draw(increasing(lo, hi, draw(st.integers(3, 4)), values))
    else:
        params = draw(maybe(st.lists(values(lo, hi), min_size=1, max_size=4).map(tuple)))
    if params is None:  # null params mean the full uniform window
        family = WeightFamily.UNIFORM_WINDOW
    # the load checks want an ordered band that holds the target
    band = draw(maybe(st.tuples(finite, finite).map(lambda b: tuple(sorted(b)))))
    target = None if slope is None else draw(maybe(finite if band is None else st.floats(*band)))
    process = draw(process_specs())
    kinds = [k for k in HypothesisKind
             if k is not HypothesisKind.STEP_BASIS or process.law is CovariateLaw.INTERVAL]
    kind = draw(st.sampled_from(kinds))
    # each kind's own fields only: b_bound and q for a step class, b_bound
    # for a linear one, and nu, ell and param_bound for a network
    if kind is HypothesisKind.STEP_BASIS:
        own = {"b_bound": draw(positive), "q": draw(maybe(st.integers(1, 64)))}
    elif kind is HypothesisKind.RELU_NET:
        own = {"nu": draw(st.integers(1, 16)), "ell": draw(st.integers(1, 4)), "param_bound": draw(positive)}
    else:
        own = {"b_bound": draw(positive)}
    return ExperimentConfig(
        process=process,
        weights=WeightPolicy(family, params),
        hypothesis=HypothesisClassSpec(kind=kind, **own),
        n_grid=n_grid,
        replications=draw(st.integers(30 if slope == "n" else 1, 500)),
        delta=draw(st.floats(0.001, 0.999)),
        base_seed=draw(st.integers(0, 2**63)),
        rate_variant=draw(st.sampled_from(RateVariant)),
        mc_draws=draw(st.integers(2, 10**6)),
        slope_target=target,
        slope_band=band,
    )


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


RELU = {"kind": "relu", "b_bound": 1.0, "nu": 8, "ell": 2, "param_bound": 1.0}
VARIANCE = {"kind": "drifting_variance", "p": 1, "law": "interval", "mean": 0.5, "var_end": 2.0, "y_bound": 6.5}
UNREAD = r" does not read {}: it must keep its default {}, got {}$"
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
        (with_key("hypothesis", {"kind": "relu"}), r"^hypothesis: network class needs nu, ell, param_bound"),
        (with_key("hypothesis.b_bound", -1.0), r"^hypothesis: b_bound must be positive"),
        (with_key("process.noise_sd", float("nan")), r"^process\.noise_sd: non-finite nan"),
        (with_key("slope_band", [float("-inf"), -0.85]), r"^slope_band\[0\]: non-finite -inf"),
        (with_key("hypothesis", RELU | {"param_bound": -1.0}),
         r"^hypothesis: param_bound must be finite and positive, got -1\.0$"),
        (with_key("hypothesis", RELU | {"param_bound": 0.0}),
         r"^hypothesis: param_bound must be finite and positive, got 0\.0$"),
        (with_key("hypothesis", RELU | {"nu": -2}),
         r"^hypothesis: network class needs nu >= 1 and ell >= 1, got -2, 2$"),
        (with_key("hypothesis", RELU | {"ell": -1}),
         r"^hypothesis: network class needs nu >= 1 and ell >= 1, got 8, -1$"),
        (with_key("hypothesis", RELU | {"ell": 0}),
         r"^hypothesis: network class needs nu >= 1 and ell >= 1, got 8, 0$"),
        (with_key("hypothesis", {"kind": "step", "q": 4}),
         r"^hypothesis: step class needs the interval law, got ball$"),
        (with_key("hypothesis", {"kind": "step", "q": 0}), r"^hypothesis: step class needs q >= 1$"),
        (with_key("rate_variant", "custom"), r"^rate_variant: 'custom' is not one of 'i', 'ii'$"),
        (with_key("slope_band", [-0.85, -1.15]), r"^slope_band: reversed band \[-0\.85, -1\.15\]$"),
        (with_key("slope_target", -2.0), r"^slope_target: -2\.0 lies outside slope_band \[-1\.15, -0\.85\]$"),
        (with_key("slope_target", -0.5), r"^slope_target: -0\.5 lies outside slope_band"),
        (with_key("slope_band", [-0.85, -1.15], with_key("slope_target", None)), r"^slope_band: reversed band"),
        (with_key("weights", {"family": "exp", "params": [0.1, 25.0]}),
         r"^weights\.params: exponential decay rate must lie below R = 10\.0, got 25\.0$"),
        (with_key("weights", {"family": "exp", "params": [10.0]}),
         r"^weights\.params: exponential decay rate must lie below R = 10\.0, got 10\.0$"),
        (with_key("weights.params", []), r"^weights\.params: empty sweep"),
        (with_key("weights", {"family": "exp", "params": None}),
         r"^weights\.family: exp needs params; null params mean the full uniform window$"),
        # a field that the kind does not read keeps its default
        (with_key("process.core.phi", 0.6), r"^process\.core: iid core" + UNREAD.format("phi", r"0\.0", r"0\.6")),
        (with_key("process.core", {"kind": "ar1", "phi": 0.6, "flip": 0.2}),
         r"^process\.core: ar1 core" + UNREAD.format("flip", r"0\.5", r"0\.2")),
        (with_key("process.drift.b", [0.1, 0.1]),
         r"^process\.drift: constant drift" + UNREAD.format("b", "None", r"\(0\.1, 0\.1\)")),
        (with_key("process.drift.cycles", 2.0),
         r"^process\.drift: constant drift" + UNREAD.format("cycles", r"1\.0", r"2\.0")),
        (with_key("process.mean", 0.5), r"^process: drifting_linear kind" + UNREAD.format("mean", r"0\.0", r"0\.5")),
        (with_key("process.var_end", 2.0),
         r"^process: drifting_linear kind" + UNREAD.format("var_end", r"1\.0", r"2\.0")),
        (with_key("process", VARIANCE | {"noise_sd": 0.3}),
         r"^process: drifting_variance kind" + UNREAD.format("noise_sd", r"0\.0", r"0\.3")),
        (with_key("hypothesis.q", 4), r"^hypothesis: linear class" + UNREAD.format("q", "None", "4")),
        (with_key("hypothesis.nu", 8), r"^hypothesis: linear class" + UNREAD.format("nu", "None", "8")),
        (with_key("hypothesis", RELU | {"q": 4}), r"^hypothesis: relu class" + UNREAD.format("q", "None", "4")),
        (with_key("process", VARIANCE | {"p": 2, "law": "ball"}),
         r"^process: the drifting_variance kind needs the interval law, got ball$"),
        # the config owns delta's range; the rate parameters no longer carry it
        (with_key("delta", 0.0), r"^delta must be in \(0,1\)$"),
        # a relu class reads no b_bound: its box is param_bound
        (with_key("hypothesis", RELU | {"b_bound": 2.0}),
         r"^hypothesis: relu class" + UNREAD.format("b_bound", r"1\.0", r"2\.0")),
        (with_key("process.core", {"kind": "garch"}), r"^process\.core: unknown core kind 'garch'$"),
        (with_key("process.core", {"kind": "markov", "flip": 1.0}),
         r"^process\.core: flip probability must be in \(0,1\), got 1\.0$"),
        (with_key("process.n", 0), r"^process: n and p must be >= 1$"),
        (with_key("process.p", 0), r"^process: n and p must be >= 1$"),
        (with_key("process.law", "interval"), r"^process: interval law is univariate$"),
        (with_key("process", VARIANCE | {"var_start": 0.0}), r"^process: variances must be positive$"),
        (with_key("process.noise_sd", -0.1), r"^process: noise_sd must be >= 0$"),
        (with_key("replications", 0), r"^need at least one replication$"),
    ],
)
def test_bad_configs_name_the_field(data, message):
    with pytest.raises(HarnessError, match=message):
        config_from_dict(data)


def test_valid_relu_class_loads():
    cfg = config_from_dict(with_key("hypothesis", RELU))
    assert (cfg.hypothesis.nu, cfg.hypothesis.ell, cfg.hypothesis.param_bound) == (8, 2, 1.0)


def test_omitted_keys_take_the_dataclass_defaults():
    d = {"process": {k: v for k, v in BASE["process"].items() if k != "core"},
         "n_grid": [16, 32], "replications": 2}
    cfg = config_from_dict(d)
    assert cfg.process.n == 32  # the largest grid point
    assert cfg.process.core == DependenceCore()
    assert cfg.weights == WeightPolicy()
    assert cfg.hypothesis == HypothesisClassSpec()
    assert cfg == ExperimentConfig(
        process=cfg.process, weights=WeightPolicy(), hypothesis=HypothesisClassSpec(),
        n_grid=(16, 32), replications=2,
    )


def test_ints_in_float_fields_are_kept_as_given():
    cfg = config_from_dict(with_key("process.y_bound", 2))
    assert type(cfg.process.y_bound) is int
    assert config_to_dict(cfg)["process"]["y_bound"] == 2
    assert config_hash(cfg) != config_hash(config_from_dict(BASE))


def test_slope_target_on_a_band_edge_loads():
    for target in (-1.15, -0.85):
        assert config_from_dict(with_key("slope_target", target)).slope_target == target
    cfg = config_from_dict(with_key("slope_band", [-1.0, -1.0]))
    assert cfg.slope_band == (-1.0, -1.0)
