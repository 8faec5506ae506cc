import hashlib
import itertools
import json
import math
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drifterm.hypotheses import (
    NET_ITERATIONS,
    NET_STEP_SIZE,
    SIZE_EXPONENT,
    FittedHypothesis,
    HypothesisClassSpec,
    HypothesisError,
    HypothesisKind,
    RankDeficientGramError,
    basis_size,
    fit_weighted_erm,
    l2_distance,
    sup_distance,
)
from drifterm.processes import (
    CovariateLaw,
    DependenceCore,
    DriftSpec,
    ProcessKind,
    ProcessSpec,
    ProcessSpecError,
    sample_covariates,
    simulate,
)
from drifterm.harness import config_from_dict
from drifterm.rates import default_condition_grid
from drifterm.weights import WeightFamily, WeightSpec, class_rate_inputs, make_weights, _from_entries


def linear_spec(n, p=2, noise_sd=0.3, law=CovariateLaw.BALL, drift=None):
    return ProcessSpec(
        kind=ProcessKind.DRIFTING_LINEAR,
        n=n,
        p=p,
        law=law,
        core=DependenceCore(),
        drift=drift or DriftSpec.constant([0.3, -0.2][:p]),
        noise_sd=noise_sd,
        y_bound=2.5,
    )


def uniform_w(n):
    return make_weights(WeightSpec(WeightFamily.UNIFORM_WINDOW, t=n, n=n, param=n))


class TestNetClassSpec:
    @pytest.mark.parametrize(
        "nu, ell, param_bound, message",
        [
            (None, 2, 1.0, "network class needs nu, ell, param_bound"),
            (0, 2, 1.0, "network class needs nu >= 1 and ell >= 1, got 0, 2"),
            (8, -1, 1.0, "network class needs nu >= 1 and ell >= 1, got 8, -1"),
            (8, 2, -1.0, "param_bound must be finite and positive, got -1.0"),
            (8, 2, math.inf, "param_bound must be finite and positive, got inf"),
            (8, 2, math.nan, "param_bound must be finite and positive, got nan"),
        ],
    )
    def test_rejected(self, nu, ell, param_bound, message):
        with pytest.raises(HypothesisError, match=f"^{message}$"):
            HypothesisClassSpec.relu(nu, ell, param_bound)

    def test_smallest_class_accepted(self):
        assert HypothesisClassSpec.relu(1, 1, 1e-3).nu == 1


class TestClassSpec:
    def test_sized_step_takes_q_from_the_weight_norm(self):
        sized = HypothesisClassSpec(kind=HypothesisKind.STEP_BASIS)
        interval = linear_spec(64, p=1, law=CovariateLaw.INTERVAL)
        assert sized.class_spec(interval, 1 / 8) == HypothesisClassSpec.step(4, 1.0)
        assert HypothesisClassSpec.step(3, 1.0).class_spec(interval, 1 / 8).q == 3

    def test_step_class_needs_the_interval_law(self):
        with pytest.raises(HypothesisError, match="^step class needs the interval law, got ball$"):
            HypothesisClassSpec.step(3, 1.0).class_spec(linear_spec(64), 1.0)

    @pytest.mark.parametrize("n", [8, 64, 1000])
    def test_unsized_step_class_is_sized_by_the_fitter(self, n):
        spec = linear_spec(n, p=1, law=CovariateLaw.INTERVAL)
        path, w = simulate(spec, 0), uniform_w(n)
        unsized = HypothesisClassSpec(kind=HypothesisKind.STEP_BASIS)
        fit = fit_weighted_erm(path, w, unsized)
        presized = fit_weighted_erm(path, w, unsized.class_spec(spec, w.l2))
        assert fit.class_spec == presized.class_spec
        assert fit.class_spec.q == basis_size(w.l2)
        assert fit.bins.tobytes() == presized.bins.tobytes()
        assert fit.fit_meta == presized.fit_meta

    @pytest.mark.parametrize(
        "klass, law, p, c_inf",
        [
            (HypothesisClassSpec.linear(1.0), CovariateLaw.BALL, 2, math.sqrt(1 / 6)),
            (HypothesisClassSpec.linear(1.0), CovariateLaw.INTERVAL, 1, math.sqrt(1 / 3)),
            (HypothesisClassSpec.step(8, 1.0), CovariateLaw.INTERVAL, 1, 1 / math.sqrt(8)),
            # sized at the smallest weight norm 1/sqrt(n): q = basis_size(1/8) = 4
            (HypothesisClassSpec(kind=HypothesisKind.STEP_BASIS), CovariateLaw.INTERVAL, 1, 0.5),
            (HypothesisClassSpec.relu(8, 2, 1.0), CovariateLaw.INTERVAL, 1, 0.0),
        ],
        ids=["linear-ball", "linear-interval", "step-q8", "step-sized", "relu"],
    )
    def test_c_inf_comes_from_the_kind_and_the_law(self, klass, law, p, c_inf):
        assert klass.rate_inputs(linear_spec(64, p=p, law=law))["c_inf"] == c_inf

    # just below 1/8, where u^(-2/3) rounds to 4.000000000000001 and a bare
    # ceiling would count 5 pieces; 3.0 is a Brown norm above 1
    @pytest.mark.parametrize("u", [1e-3, math.nextafter(0.125, 0.0), 0.3, 1.0, 3.0])
    def test_covering_is_size_times_log_of_scale(self, u):
        # p, q or basis_size(u) pieces at scale 3B; ReLU at scale n
        spec, eps, sized = linear_spec(64, p=1, law=CovariateLaw.INTERVAL), 1e-3, basis_size(min(u, 1.0))
        for klass, size, scale in [
            (HypothesisClassSpec.linear(2.0), 1, 6.0),
            (HypothesisClassSpec.step(5, 2.0), 5, 6.0),
            (HypothesisClassSpec(kind=HypothesisKind.STEP_BASIS, b_bound=2.0), sized, 6.0),
            (HypothesisClassSpec.relu(8, 2, 1.0), sized, 64),
        ]:
            assert klass.rate_inputs(spec)["log_ninf_h"](eps, u) == size * math.log(scale / eps)


class TestBasisSize:
    def test_examples(self):
        assert basis_size(1000**-0.5) == 10
        assert basis_size(1.0) == 1
        assert basis_size(1 / 8) == 4

    def test_domain(self):
        with pytest.raises(HypothesisError):
            basis_size(0.0)
        with pytest.raises(HypothesisError):
            basis_size(1.5)

    @given(u=st.floats(1e-4, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_matches_ceiling(self, u):
        q = basis_size(u)
        assert q >= 1
        # never more than one off the raw ceiling (float-snap guard)
        assert abs(q - math.ceil(u ** (-2 / 3))) <= 1


def reference_basis_size(w_l2: float) -> int:
    """The piece count of one Python float: libm pow, round, abs, compare, ceil."""
    v = w_l2**-SIZE_EXPONENT
    nearest = round(v)
    if abs(v - nearest) < 1e-9 * max(1.0, v):
        return int(nearest)
    return int(math.ceil(v))


def reference_rate_closures(klass: HypothesisClassSpec, spec: ProcessSpec):
    """The class's covering and approximation error, one scalar Python call per norm."""
    sized = lambda u: reference_basis_size(min(u, 1.0))
    if klass.kind is HypothesisKind.LINEAR_BALL:
        size, scale, approx_err = (lambda u: spec.p), 3.0 * klass.b_bound, None
    elif klass.kind is HypothesisKind.STEP_BASIS:
        size = sized if klass.q is None else (lambda u: klass.q)
        scale, approx_err = 3.0 * klass.b_bound, (lambda u: 1.0 / size(u))
    else:
        size, scale, approx_err = sized, spec.n, (lambda u: u**SIZE_EXPONENT)
    return (lambda eps, u: max(0.0, size(u) * math.log(scale / eps))), approx_err


ROOT = Path(__file__).resolve().parents[1]
ORACLE_CLASSES = (
    HypothesisClassSpec.linear(1.0),
    HypothesisClassSpec.step(8, 1.0),
    HypothesisClassSpec(kind=HypothesisKind.STEP_BASIS),
    HypothesisClassSpec.relu(8, 2, 1.0),
)


def shipped_grids():
    """(name, config, n, sorted condition-grid norms, c1) for every grid n of the
    shipped configs and the benchmark workloads."""
    for path in sorted(ROOT.glob("configs/*.json")) + sorted(ROOT.glob("perfbench/workloads/*.json")):
        raw = json.loads(path.read_text())
        cfg = config_from_dict(raw["config"] if "call" in raw else raw)
        for n in cfg.n_grid:
            constants = SimpleNamespace(**class_rate_inputs(cfg.weights.family, n))
            yield path.name, cfg, n, np.unique(default_condition_grid(constants)), constants.c1


def same_bits(array_form, reference) -> bool:
    return np.asarray(array_form, dtype=float).tobytes() == np.array(reference, dtype=float).tobytes()


class TestArrayRateInputsOracle:
    """basis_size, the coverings and approx_err on an array of norms equal the
    scalar point-by-point forms bit for bit."""

    def assert_closures_match(self, klass, spec, u, c1=1.0):
        inputs, (log_ninf, approx_err) = klass.rate_inputs(spec), reference_rate_closures(klass, spec)
        norms = u.tolist()
        eps = np.array([x**2 for x in norms]) / (32.0 * c1)
        assert same_bits(inputs["log_ninf_h"](eps, u),
                         [log_ninf(e, x) for e, x in zip(eps.tolist(), norms)])
        if approx_err is None:
            assert inputs["approx_err"] is None
        else:
            got = np.broadcast_to(inputs["approx_err"](u), u.shape)
            assert same_bits(got, [approx_err(x) for x in norms])

    def test_every_grid_point_of_the_shipped_configs(self):
        seen = set()
        for name, cfg, n, u, c1 in shipped_grids():
            spec = replace(cfg.process, n=n)
            for klass in {cfg.hypothesis, *ORACLE_CLASSES}:
                self.assert_closures_match(klass, spec, u, c1)
            assert same_bits(basis_size(np.minimum(u, 1.0)),
                             [reference_basis_size(min(x, 1.0)) for x in u.tolist()])
            seen.add(name)
        assert len(seen) == 8  # three configs and five workloads

    def test_snap_at_exact_powers_and_their_neighbours(self):
        # u = k^(-3/2) has u^(-2/3) within an ulp or two of k: the 1e-9 snap decides
        exact = [k**-1.5 for k in range(1, 65)]
        u = np.array([x for v in exact for x in (math.nextafter(v, 0.0), v, math.nextafter(v, 1.0)) if x <= 1])
        q = basis_size(u)
        assert q.tolist() == [reference_basis_size(x) for x in u.tolist()]
        assert basis_size(np.array(exact)).tolist() == list(range(1, 65))
        spec = linear_spec(4096, p=1, law=CovariateLaw.INTERVAL)
        for klass in ORACLE_CLASSES:
            self.assert_closures_match(klass, spec, u)

    def test_dense_random_norms_and_scales(self):
        # numpy's SIMD log and pow differ from libm's on ~0.02-5% of inputs:
        # enough points that an array log or pow would show; eps above the
        # scale makes the log negative, where the covering is floored at 0
        rng = np.random.default_rng(20261020)
        u = np.exp(rng.uniform(math.log(1e-3), math.log(3.0), 1 << 14))
        eps = np.exp(rng.uniform(math.log(1e-8), math.log(1e5), u.size))
        spec = linear_spec(8192, p=1, law=CovariateLaw.INTERVAL)
        for klass in ORACLE_CLASSES:
            (log_ninf, approx_err), inputs = reference_rate_closures(klass, spec), klass.rate_inputs(spec)
            assert same_bits(inputs["log_ninf_h"](eps, u),
                             [log_ninf(e, x) for e, x in zip(eps.tolist(), u.tolist())])
            if approx_err is not None:
                got = np.broadcast_to(inputs["approx_err"](u), u.shape)
                assert same_bits(got, [approx_err(x) for x in u.tolist()])

    def test_norms_above_one_take_one_piece(self):
        # Brown weights reach c1 = 3
        u = np.array([0.5, 1.0, math.nextafter(1.0, 2.0), 1.5, 3.0])
        spec = linear_spec(256, p=1, law=CovariateLaw.INTERVAL)
        for klass in ORACLE_CLASSES:
            self.assert_closures_match(klass, spec, u, c1=3.0)
        sized = HypothesisClassSpec(kind=HypothesisKind.STEP_BASIS).rate_inputs(spec)
        eps = np.full(u.shape, 1e-3)
        assert sized["log_ninf_h"](eps, u)[1:].tolist() == [math.log(3.0 / 1e-3)] * 4
        assert sized["approx_err"](u)[1:].tolist() == [1.0] * 4

    @pytest.mark.parametrize("bad, shown", [(0.0, "0.0"), (-0.25, "-0.25"), (math.nan, "nan")])
    def test_norm_outside_the_domain_is_named(self, bad, shown):
        u = np.array([0.5, bad, 0.1])
        message = rf"^weight norm must be in \(0, 1\], got {shown}$"
        with pytest.raises(HypothesisError, match=message):
            basis_size(u)
        with pytest.raises(HypothesisError, match=message):
            basis_size(bad)
        spec = linear_spec(256, p=1, law=CovariateLaw.INTERVAL)
        for klass in (HypothesisClassSpec(kind=HypothesisKind.STEP_BASIS), HypothesisClassSpec.relu(8, 2, 1.0)):
            with pytest.raises(HypothesisError, match=message):
                klass.rate_inputs(spec)["log_ninf_h"](np.full(3, 1e-3), u)


class TestLinearFits:
    def test_noiseless_interpolation(self):
        spec = linear_spec(64, noise_sd=0.0)
        path = simulate(spec, 3)
        fit = fit_weighted_erm(path, uniform_w(64), HypothesisClassSpec.linear(1.0))
        np.testing.assert_allclose(fit.coef, [0.3, -0.2], atol=1e-8)

    def test_weight_length_must_be_n(self):
        path = simulate(linear_spec(64), 3)
        with pytest.raises(HypothesisError, match=r"^weight length 63 != n=64$"):
            fit_weighted_erm(path, uniform_w(63), HypothesisClassSpec.linear(1.0))

    def test_first_order_optimality(self):
        spec = linear_spec(256)
        path = simulate(spec, 5)
        w = uniform_w(256)
        fit = fit_weighted_erm(path, w, HypothesisClassSpec.linear(1.0))
        assert fit.fit_meta["solver"] == "normal_equations"
        z, y = path.z[:256], path.y[:256]
        residual = z.T @ (w.entries * (y - z @ fit.coef))
        assert np.linalg.norm(residual) <= 1e-8

    def test_constrained_solution_on_boundary(self):
        spec = linear_spec(128, noise_sd=0.0, drift=DriftSpec.constant([0.6, -0.5]))
        path = simulate(spec, 7)
        fit = fit_weighted_erm(path, uniform_w(128), HypothesisClassSpec.linear(0.3))
        assert fit.fit_meta["solver"] == "constrained"
        assert np.linalg.norm(fit.coef) == pytest.approx(0.3, abs=1e-10)

    @pytest.mark.parametrize("family, param", [("uniform", 64), ("exp", 0.05), ("brown", 0.1)])
    def test_block_rows_are_the_fits_of_their_paths_alone(self, family, param):
        """Stacked Grams, eigendecompositions and rotations, and the multiplier of each
        constrained row, give every row of a block bit for bit its path's own fit."""
        spec = linear_spec(64, drift=DriftSpec.constant([0.6, -0.5]))
        seeds = list(range(20))
        w = make_weights(WeightSpec(WeightFamily(family), t=64, n=64, param=param))
        klass = HypothesisClassSpec.linear(0.78)
        block = fit_weighted_erm(simulate(spec, seeds), w, klass)
        assert len(block) == len(seeds)
        solvers = set()
        for seed, fit in zip(seeds, block):
            alone = fit_weighted_erm(simulate(spec, seed), w, klass)
            assert fit.coef.tobytes() == alone.coef.tobytes()
            assert fit.fit_meta == alone.fit_meta
            solvers.add(alone.fit_meta["solver"])
        assert block.coef.tobytes() == np.stack([fit.coef for fit in block]).tobytes()
        assert solvers == {"constrained", "normal_equations"}

    def test_constrained_matches_brute_force(self):
        # small instance, p = 1, binding constraint: exhaustive search over
        # the constraint interval at 1e-4 resolution is the oracle.
        rng = np.random.default_rng(15)
        spec = ProcessSpec(
            kind=ProcessKind.DRIFTING_LINEAR, n=6, p=1, law=CovariateLaw.BALL,
            core=DependenceCore(), drift=DriftSpec.constant([0.9]),
            noise_sd=0.4, y_bound=2.6,
        )
        B = 0.35
        grid = np.arange(-B, B + 1e-9, 1e-4)
        for trial in range(20):
            path = simulate(spec, 900 + trial)
            raw = rng.random(6) + 0.05
            w = _from_entries(raw / raw.sum())
            fit = fit_weighted_erm(path, w, HypothesisClassSpec.linear(B))
            z, y = path.z[:6, 0], path.y[:6]
            risks = ((y[None, :] - grid[:, None] * z[None, :]) ** 2 * w.entries[None, :]).sum(axis=1)
            assert abs(grid[np.argmin(risks)] - fit.coef[0]) <= 2e-4

    def test_signed_weights_deficient_gram_flagged(self):
        spec = linear_spec(4, p=2, noise_sd=0.0)
        path = simulate(spec, 1)
        entries = np.array([1.0, -1.0, 1.0, 0.0])  # sums to 1, kills definiteness paths
        z = path.z.copy()
        z.flags.writeable = True
        z[:4] = np.array([[0.1, 0.0], [0.1, 0.0], [-0.1, 0.0], [0.05, 0.0]])
        bad_path = type(path)(y=path.y, z=z, spec=path.spec)
        with pytest.raises(RankDeficientGramError):
            fit_weighted_erm(bad_path, _from_entries(entries), HypothesisClassSpec.linear(1.0))


class TestStepFits:
    def test_single_point_single_bin(self):
        spec = linear_spec(8, p=1, drift=DriftSpec.constant([0.8]), law=CovariateLaw.INTERVAL)
        path = simulate(spec, 2)
        entries = np.zeros(8)
        entries[0] = 1.0
        fit = fit_weighted_erm(path, _from_entries(entries), HypothesisClassSpec.step(1, 1.0))
        assert fit.bins[0] == pytest.approx(min(max(path.y[0], -1.0), 1.0))

    def test_empty_bins_get_zero(self):
        spec = linear_spec(4, p=1, drift=DriftSpec.constant([0.5]), law=CovariateLaw.INTERVAL)
        path = simulate(spec, 3)
        z = path.z.copy()
        z.flags.writeable = True
        z[:4, 0] = [0.05, 0.06, 0.07, 0.08]  # everything in the first of 4 bins
        narrowed = type(path)(y=path.y, z=z, spec=path.spec)
        fit = fit_weighted_erm(narrowed, uniform_w(4), HypothesisClassSpec.step(4, 1.0))
        assert np.all(fit.bins[1:] == 0.0)

    def test_matches_per_bin_brute_force(self):
        rng = np.random.default_rng(77)
        spec = linear_spec(8, p=1, drift=DriftSpec.constant([0.8]), law=CovariateLaw.INTERVAL)
        B = 0.6
        grid = np.arange(-B, B + 1e-9, 1e-4)
        for trial in range(20):
            path = simulate(spec, 300 + trial)
            raw = rng.random(8) + 0.05
            w = _from_entries(raw / raw.sum())
            q = 1 + trial % 3
            fit = fit_weighted_erm(path, w, HypothesisClassSpec.step(q, B))
            z, y = path.z[:8, 0], path.y[:8]
            idx = np.clip((z * q).astype(int), 0, q - 1)
            for j in range(q):
                mask = idx == j
                if not mask.any():
                    expected = 0.0
                else:
                    risks = ((y[mask][None, :] - grid[:, None]) ** 2 * w.entries[mask][None, :]).sum(axis=1)
                    expected = grid[np.argmin(risks)]
                assert abs(expected - fit.bins[j]) <= 2e-4

    @pytest.mark.parametrize("theta", [0.3, 0.5])
    def test_concave_bins_match_brute_force(self, theta):
        # signed Brown weights: bins holding only old observations have a
        # negative weight sum, a concave objective minimised at an endpoint
        n, q, B = 32, 8, 0.6
        spec = linear_spec(n, p=1, drift=DriftSpec.constant([0.8]), law=CovariateLaw.INTERVAL)
        w = make_weights(WeightSpec(WeightFamily.BROWN_DES, t=n, n=n, param=theta))
        grid = np.linspace(-B, B, 12_001)
        concave_seen = 0
        for seed in range(5):
            path = simulate(spec, 500 + seed)
            fit = fit_weighted_erm(path, w, HypothesisClassSpec.step(q, B))
            z, y = path.z[:n, 0], path.y[:n]
            idx = np.clip((z * q).astype(int), 0, q - 1)
            concave = 0
            for j in range(q):
                mask = idx == j
                if not mask.any():
                    assert fit.bins[j] == 0.0
                    continue
                risks = ((y[mask][None, :] - grid[:, None]) ** 2 * w.entries[mask][None, :]).sum(axis=1)
                expected = grid[np.argmin(risks)]
                if w.entries[mask].sum() < 0:
                    concave += 1
                    assert fit.bins[j] == expected  # an endpoint, -B or B
                else:
                    assert abs(expected - fit.bins[j]) <= 2e-4
            assert fit.fit_meta["nonconvex_bins"] == concave
            concave_seen += concave
        assert concave_seen > 0

    def test_clipping(self):
        spec = ProcessSpec(
            kind=ProcessKind.DRIFTING_LINEAR, n=4, p=1, law=CovariateLaw.INTERVAL,
            core=DependenceCore(), drift=DriftSpec.constant([1.0]), noise_sd=0.0, y_bound=1.0,
        )
        path = simulate(spec, 8)
        fit = fit_weighted_erm(path, uniform_w(4), HypothesisClassSpec.step(1, 0.1))
        assert abs(fit.bins[0]) <= 0.1


class TestNetFits:
    def test_tracks_best_linear_on_linear_data(self):
        spec = linear_spec(128, noise_sd=0.0)
        path = simulate(spec, 9)
        w = uniform_w(128)
        lin = fit_weighted_erm(path, w, HypothesisClassSpec.linear(1.0))
        net = fit_weighted_erm(path, w, HypothesisClassSpec.relu(8, 1, 1.0), seed=3)
        assert net.fit_meta["empirical_risk"] <= lin.fit_meta["empirical_risk"] + 0.01

    def test_deterministic_given_seed(self):
        spec = linear_spec(64)
        path = simulate(spec, 10)
        w = uniform_w(64)
        cls = HypothesisClassSpec.relu(4, 1, 1.0)
        a = fit_weighted_erm(path, w, cls, seed=5)
        b = fit_weighted_erm(path, w, cls, seed=5)
        for (Wa, ba), (Wb, bb) in zip(a.layers, b.layers):
            np.testing.assert_array_equal(Wa, Wb)
            np.testing.assert_array_equal(ba, bb)

    def test_seed_list_must_match_the_block(self):
        paths = simulate(linear_spec(64, p=1), [1, 2, 3])
        with pytest.raises(HypothesisError, match=r"^seed: a list of 1 seeds for a block of 3 rows$"):
            fit_weighted_erm(paths, uniform_w(64), HypothesisClassSpec.relu(4, 1, 1.0), seed=[7])

    def test_parameters_stay_in_box(self):
        spec = linear_spec(64)
        path = simulate(spec, 11)
        fit = fit_weighted_erm(path, uniform_w(64), HypothesisClassSpec.relu(4, 2, 0.5), seed=1)
        for W, b in fit.layers:
            assert np.abs(W).max() <= 0.5 + 1e-12
            assert np.abs(b).max() <= 0.5 + 1e-12


# sha256 of the fitted layers' bytes and repr of the achieved risk, for fits
# of (nu, ell, p, weight family, param_bound) at n = 64 and the default step
# count.  The pins hold the fitter to one exact sequence of float operations.
# A faster fitter must agree with reference_fit_net within ORACLE_RISK_RTOL
# and ORACLE_PARAM_ATOL, and then these pins move to its own exact bytes.
# They depend on the BLAS build.
FIT_PINS = [
    (4, 1, 1, "uniform", 1.0, "0.11076416105756046",
     "aa302ce5106dec5d606494d27fd9582a2a77385fb7508b61b840ed8964f3d166"),
    (8, 2, 1, "exp", 1.0, "0.09360010552471279",
     "6ad7fbaa8fffda20478ea2a03a135ef27dc975d4d4593668cd66e391c6dc2505"),
    (8, 3, 2, "uniform", 1.0, "0.04508103599124895",
     "08d552c6451b4896b20faa18ab381ad5c9e6e5dc8268d7f81a53686217979b4f"),
    (4, 2, 2, "exp", 0.3, "0.09046957498734347",
     "e420d78730a31a848d500871f85d6a6a2210b867d83bb760603df1347500895a"),
    (8, 1, 2, "uniform", 0.3, "0.07874701110651075",
     "735ee0bf5c82382c3bfe336d7055891c6e1cd99867ed8bbd4c1c62aca7545cc9"),
    (4, 3, 1, "exp", 1.0, "0.06879550960679962",
     "9e6f066327562642d8ae9787ee97776328e7775bb5b122256f411435030284ea"),
]


def net_fit_case(nu, ell, p, family, param_bound, n, path_seed, seed):
    """(path, weights, fit) of a network on a constant linear target, under
    the interval law at p = 1 and the ball law at p = 2."""
    law = CovariateLaw.INTERVAL if p == 1 else CovariateLaw.BALL
    path = simulate(linear_spec(n, p=p, law=law), path_seed)
    w = uniform_w(n) if family == "uniform" else make_weights(
        WeightSpec(WeightFamily.EXPONENTIAL, t=n, n=n, param=0.05)
    )
    return path, w, fit_weighted_erm(path, w, HypothesisClassSpec.relu(nu, ell, param_bound), seed=seed)


@pytest.mark.parametrize("case", range(len(FIT_PINS)))
def test_net_fit_is_pinned_byte_for_byte(case):
    nu, ell, p, family, param_bound, risk, digest = FIT_PINS[case]
    _, _, fit = net_fit_case(nu, ell, p, family, param_bound, 64, 20 + case, case)
    layer_bytes = b"".join(W.tobytes() + b.tobytes() for W, b in fit.layers)
    assert repr(fit.fit_meta["empirical_risk"]) == risk
    assert hashlib.sha256(layer_bytes).hexdigest() == digest


# The pinned fits and one wider p = 2 fit on the ball law, each as
# (nu, ell, p, weight family, param_bound, n, path seed, fit seed).
ROUND_TRIP_CASES = [
    (*pin[:5], 64, 20 + case, case) for case, pin in enumerate(FIT_PINS)
] + [(16, 2, 2, "exp", 1.0, 256, 7, 7)]


@pytest.mark.parametrize("case", ROUND_TRIP_CASES)
def test_net_fit_risk_is_the_risk_of_its_public_layers(case):
    # the fitter scores stacked [W; b] views in its feature-major loop;
    # predict runs the returned (W, b) layers row-major
    path, w, fit = net_fit_case(*case)
    n = path.spec.n
    risk = float(np.dot(w.entries, (path.y[:n] - fit.predict(path.z[:n])) ** 2))
    assert abs(fit.fit_meta["empirical_risk"] - risk) <= 1e-12 * risk


def reference_fit_net(z, y, w, spec, seed):
    """The row-major projected-GD loop that the network fitter replaced, kept
    as its oracle: (layers, best risk) from the same start, step size, box
    projection, best-iterate rule and step count, with every activation an
    (n, width) array, a separate bias add and a reduced bias gradient."""
    rng = np.random.default_rng(seed)
    n, nu = z.shape[0], spec.nu
    sizes = [z.shape[1]] + [nu] * spec.ell + [1]
    shapes = list(zip(sizes[:-1], sizes[1:]))
    bound = spec.param_bound
    theta = np.zeros(sum(fan_in * fan_out + fan_out for fan_in, fan_out in shapes))
    grad = np.empty_like(theta)

    def views(flat):
        pairs, at = [], 0
        for fan_in, fan_out in shapes:
            W = flat[at:at + fan_in * fan_out].reshape(fan_in, fan_out)
            at += fan_in * fan_out
            pairs.append((W, flat[at:at + fan_out]))
            at += fan_out
        return pairs

    layers, grads = views(theta), views(grad)
    for (fan_in, _), (W, _) in zip(shapes, layers):
        W[...] = np.clip(rng.standard_normal(W.shape) / math.sqrt(fan_in), -bound, bound)
    acts = [z] + [np.empty((n, nu)) for _ in range(spec.ell)]
    d_out = np.empty((n, 1))
    deltas = [None] + [np.empty((n, nu)) for _ in range(spec.ell)]
    active = np.empty((n, nu), dtype=bool)
    out = np.empty((n, 1))
    pred, r, sq = out[:, 0], np.empty(n), np.empty(n)
    w2 = 2.0 * w
    hidden = list(zip(layers[:-1], acts[1:]))
    W_out, b_out = layers[-1]
    d_col = d_out[:, 0]
    backward = [(*grads[i], acts[i], acts[i].T, layers[i][0].T, deltas[i]) for i in range(spec.ell, 0, -1)]
    gW_in, gb_in = grads[0]
    z_t = z.T

    best_risk = math.inf
    best = theta.copy()
    for step in range(NET_ITERATIONS + 1):
        h = z
        for (W, b), a in hidden:
            np.dot(h, W, out=a)
            np.add(a, b, out=a)
            np.maximum(a, 0.0, out=a)
            h = a
        np.dot(h, W_out, out=out)
        np.add(out, b_out, out=out)
        np.subtract(pred, y, out=r)
        np.multiply(r, r, out=sq)
        risk = float(np.dot(w, sq))
        if risk < best_risk:
            best_risk = risk
            best[:] = theta
        if step == NET_ITERATIONS:
            break
        np.multiply(w2, r, out=d_col)
        delta = d_out
        for gW, gb, act, act_t, W_t, back in backward:
            np.dot(act_t, delta, out=gW)
            np.add.reduce(delta, axis=0, out=gb)
            np.dot(delta, W_t, out=back)
            np.greater(act, 0.0, out=active)
            delta = np.multiply(back, active, out=back)
        np.dot(z_t, delta, out=gW_in)
        np.add.reduce(delta, axis=0, out=gb_in)
        grad *= NET_STEP_SIZE
        np.subtract(theta, grad, out=theta)
        np.minimum(np.maximum(theta, -bound, out=theta), bound, out=theta)
    return views(best), best_risk


# The fitter against its oracle on every (nu, ell, n) of the grid, with p,
# the weight family and param_bound alternating so that every pair of levels
# of the six factors appears in some case.
ORACLE_CASES = [
    (nu, ell, 1 + (i + j + k) % 2, ("uniform", "exp")[(i // 2 + j) % 2], (0.3, 1.0)[(i + k) % 2], n)
    for (i, nu), (j, ell), (k, n) in itertools.product(
        enumerate((1, 4, 8, 16)), enumerate((1, 2, 3)), enumerate((32, 64, 256))
    )
]
ORACLE_RISK_RTOL = 1e-12
ORACLE_PARAM_ATOL = 1e-7


def test_oracle_cases_cover_every_pair_of_levels():
    levels = [sorted({case[i] for case in ORACLE_CASES}, key=str) for i in range(6)]
    assert [len(v) for v in levels] == [4, 3, 2, 2, 2, 3]
    for i, j in itertools.combinations(range(6), 2):
        seen = {(case[i], case[j]) for case in ORACLE_CASES}
        assert seen == set(itertools.product(levels[i], levels[j]))


@pytest.mark.parametrize("case", range(len(ORACLE_CASES)))
def test_net_fit_agrees_with_the_reference_loop(case):
    n = ORACLE_CASES[case][5]
    path, w, fit = net_fit_case(*ORACLE_CASES[case], 500 + case, 1000 + case)
    layers, risk = reference_fit_net(path.z[:n], path.y[:n], w.entries, fit.class_spec, 1000 + case)
    assert abs(fit.fit_meta["empirical_risk"] - risk) <= ORACLE_RISK_RTOL * risk
    for (W, b), (W_ref, b_ref) in zip(fit.layers, layers):
        np.testing.assert_allclose(W, W_ref, rtol=0, atol=ORACLE_PARAM_ATOL)
        np.testing.assert_allclose(b, b_ref, rtol=0, atol=ORACLE_PARAM_ATOL)


NONFINITE_CLASSES = {
    "linear": HypothesisClassSpec.linear(1.0),
    "step": HypothesisClassSpec.step(3, 1.0),
    "relu": HypothesisClassSpec.relu(2, 1, 1.0),
}


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("array", ["z", "y", "w"])
    @pytest.mark.parametrize("klass", sorted(NONFINITE_CLASSES))
    def test_rejected_naming_the_array(self, klass, array, bad):
        """A path refuses a non-finite z or y when it is made; the fitter refuses a non-finite weight."""
        spec = linear_spec(8, p=1, drift=DriftSpec.constant([0.5]), law=CovariateLaw.INTERVAL)
        path = simulate(spec, 4)
        z, y, entries = path.z.copy(), path.y.copy(), uniform_w(8).entries.copy()
        {"z": z[:, 0], "y": y, "w": entries}[array][3] = bad
        if array == "w":
            with pytest.raises(HypothesisError, match="^w has non-finite entries$"):
                fit_weighted_erm(path, _from_entries(entries), NONFINITE_CLASSES[klass])
        else:
            with pytest.raises(ProcessSpecError, match=f"^{array} has non-finite entries$"):
                type(path)(y=y, z=z, spec=path.spec)

    @pytest.mark.parametrize("array", ["z", "y"])
    def test_block_with_one_bad_row_is_refused(self, array):
        spec = linear_spec(8, p=1, drift=DriftSpec.constant([0.5]), law=CovariateLaw.INTERVAL)
        block = simulate(spec, [4, 5, 6])
        z, y = block.z.copy(), block.y.copy()
        {"z": z[1, :, 0], "y": y[1]}[array][3] = math.nan
        with pytest.raises(ProcessSpecError, match=f"^{array} has non-finite entries$"):
            type(block)(y=y, z=z, spec=spec)

    def test_held_out_row_is_not_read(self):
        spec = linear_spec(8, p=1, drift=DriftSpec.constant([0.5]), law=CovariateLaw.INTERVAL)
        path = simulate(spec, 4)
        y = path.y.copy()
        y[8] = 1e300
        far = fit_weighted_erm(type(path)(y=y, z=path.z, spec=spec), uniform_w(8), NONFINITE_CLASSES["step"])
        near = fit_weighted_erm(path, uniform_w(8), NONFINITE_CLASSES["step"])
        assert far.bins.tobytes() == near.bins.tobytes()


def linear_fit(coef):
    coef = np.asarray(coef, dtype=float)
    return FittedHypothesis(
        class_spec=HypothesisClassSpec.linear(max(1.0, np.linalg.norm(coef))), coef=coef
    )


def step_fit(values):
    values = np.asarray(values, dtype=float)
    return FittedHypothesis(
        class_spec=HypothesisClassSpec.step(len(values), max(1.0, np.abs(values).max())),
        bins=values,
    )


def net_fit(layers):
    layers = tuple((np.asarray(W, dtype=float), np.asarray(b, dtype=float)) for W, b in layers)
    nu = layers[0][0].shape[1]
    return FittedHypothesis(
        class_spec=HypothesisClassSpec.relu(nu, len(layers) - 1, 1.0), layers=layers
    )


def random_net(rng, nu, ell):
    sizes = [1] + [nu] * ell + [1]
    return net_fit(
        (rng.uniform(-1, 1, (fan_in, fan_out)), rng.uniform(-1, 1, fan_out))
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:])
    )


def net_slope_bound(net):
    """Lipschitz bound of a ReLU net: the product of its layers' spectral norms."""
    return math.prod(np.linalg.norm(W, 2) for W, _ in net.layers)


def difference_on(f, g, z, chunk=200_000):
    """f(z) - g(z) on a 1-D array of covariates, in chunks to bound memory."""
    return np.concatenate([
        f.predict(z[i:i + chunk, None]) - g.predict(z[i:i + chunk, None])
        for i in range(0, z.size, chunk)
    ])


# One-unit net relu(z - 1/2): zero on [0, 1/2), then slope 1.
HINGE = net_fit([([[1.0]], [-0.5]), ([[1.0]], [0.0])])

class TestL2Distance:
    def test_identical_is_zero(self):
        f = linear_fit([0.3, -0.2])
        v, se, mode = l2_distance(f, f, CovariateLaw.BALL)
        assert v == 0.0 and mode == "exact"

    def test_isotropic_scaling(self):
        f, g = linear_fit([0.5, 0.0]), linear_fit([0.1, 0.3])
        lam = 1 / 6  # the ball law's E[Z Z^T] = I / (3p) at p = 2
        v, _, _ = l2_distance(f, g, CovariateLaw.BALL)
        d = np.array([0.4, -0.3])
        assert v == pytest.approx(float(d @ d) * lam)

    def test_step_vs_linear_matches_hand_integral(self):
        # 3-bin step (a1,a2,a3) against slope b on uniform [0,1):
        # integral of (a - b z)^2 over [lo, hi) =
        #   a^2 (hi-lo) - a b (hi^2-lo^2) + b^2 (hi^3-lo^3)/3.
        a = np.array([0.1, 0.5, 0.7])
        b = 0.9
        hand = 0.0
        for j, lo in enumerate([0.0, 1 / 3, 2 / 3]):
            hi = lo + 1 / 3
            hand += a[j] ** 2 * (hi - lo) - a[j] * b * (hi**2 - lo**2) + b**2 * (hi**3 - lo**3) / 3
        v, se, mode = l2_distance(step_fit(a), linear_fit([b]), CovariateLaw.INTERVAL, seed=4)
        assert mode == "exact" and se == 0.0
        assert v == pytest.approx(hand, abs=1e-14)

    def test_step_pairs_exact_on_refinement(self):
        f = step_fit([0.2, 0.8])
        g = step_fit([0.5, 0.1, 0.4])
        v, se, mode = l2_distance(f, g, CovariateLaw.INTERVAL)
        assert mode == "exact" and se == 0.0
        # refinement pieces: [0,1/3): .2-.5, [1/3,1/2): .2-.1, [1/2,2/3): .8-.1, [2/3,1): .8-.4
        hand = (0.3**2) / 3 + (0.1**2) * (1 / 2 - 1 / 3) + (0.7**2) * (2 / 3 - 1 / 2) + (0.4**2) / 3
        assert v == pytest.approx(hand, abs=1e-14)

    def test_constant_operand(self):
        f = step_fit([0.2, 0.8])
        v, _, mode = l2_distance(f, 0.5, CovariateLaw.INTERVAL)
        assert mode == "exact"
        assert v == pytest.approx(0.5 * 0.3**2 + 0.5 * 0.3**2)


    @given(
        q=st.integers(1, 40),
        unit_bins=st.lists(st.floats(-1.0, 1.0), min_size=40, max_size=40),
        b_bound=st.floats(0.1, 3.0),
        slope=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_step_vs_linear_exact_matches_monte_carlo(self, q, unit_bins, b_bound, slope, seed):
        bins = b_bound * np.array(unit_bins[:q])
        step = FittedHypothesis(class_spec=HypothesisClassSpec.step(q, b_bound), bins=bins)
        line = linear_fit([slope])
        forward = l2_distance(step, line, CovariateLaw.INTERVAL)
        backward = l2_distance(line, step, CovariateLaw.INTERVAL)
        assert forward == backward
        value, se, mode = forward
        assert mode == "exact" and se == 0.0
        z = np.random.default_rng(seed).random(1_000_000)
        sq = (bins[np.minimum((z * q).astype(int), q - 1)] - slope * z) ** 2
        mc_se = sq.std(ddof=1) / math.sqrt(z.size)
        assert abs(value - sq.mean()) <= 4.0 * mc_se + 1e-12

    @given(
        nu=st.integers(1, 8),
        ell=st.integers(1, 3),
        against_step=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_net_exact_matches_monte_carlo(self, nu, ell, against_step, seed):
        rng = np.random.default_rng(seed)
        net = random_net(rng, nu, ell)
        other = (step_fit(rng.uniform(-1, 1, rng.integers(1, 20))) if against_step
                 else linear_fit([rng.uniform(-1, 1)]))
        value, se, mode = l2_distance(net, other, CovariateLaw.INTERVAL)
        assert mode == "exact" and se == 0.0
        assert l2_distance(other, net, CovariateLaw.INTERVAL)[0] == value
        sq = difference_on(net, other, rng.random(1_000_000)) ** 2
        mc_se = sq.std(ddof=1) / math.sqrt(sq.size)
        assert abs(value - sq.mean()) <= 4.0 * mc_se + 1e-12

    def test_one_unit_net_matches_hand_integral(self):
        # integral over [1/2, 1) of (z - 1/2)^2 = (1/2)^3 / 3 = 1/24
        value, se, mode = l2_distance(HINGE, 0.0, CovariateLaw.INTERVAL)
        assert mode == "exact" and se == 0.0
        assert value == pytest.approx(1 / 24, rel=1e-15)

    @pytest.mark.parametrize("g", ["linear", "step", "constant", "relu"])
    @pytest.mark.parametrize("f", ["linear", "step", "relu"])
    def test_every_univariate_pairing_exact_on_interval(self, f, g):
        operands = {
            "linear": linear_fit([0.4]),
            "step": step_fit([0.2, -0.1, 0.5]),
            "constant": 0.3,
            "relu": random_net(np.random.default_rng(8), 4, 2),
        }
        _, se, mode = l2_distance(operands[f], operands[g], CovariateLaw.INTERVAL)
        assert mode == "exact" and se == 0.0

    def test_multivariate_operand_rejected_on_interval(self):
        with pytest.raises(HypothesisError, match="univariate"):
            l2_distance(step_fit([0.2, 0.8]), linear_fit([0.5, 0.1]), CovariateLaw.INTERVAL)
        net = net_fit([(np.ones((2, 3)), np.zeros(3)), (np.ones((3, 1)), np.zeros(1))])
        with pytest.raises(HypothesisError, match="univariate"):
            sup_distance(net, 0.0)

    @pytest.mark.parametrize("operand", ["step_q3", "relu", "linear_block"])
    def test_block_against_a_multi_piece_operand_is_each_rows_lone_distance(self, operand):
        """A step block against a step fit of another q or a ReLU fit, and a linear
        block against a step fit, are one stacked piece sum, bit for bit each row's."""
        spec = linear_spec(64, p=1, drift=DriftSpec.constant([0.5]), law=CovariateLaw.INTERVAL)
        rng = np.random.default_rng(5)
        klass, g = {
            "step_q3": (HypothesisClassSpec.step(5, 1.0), step_fit([0.2, -0.1, 0.5])),
            "relu": (HypothesisClassSpec.step(5, 1.0), random_net(rng, 4, 2)),
            "linear_block": (HypothesisClassSpec.linear(1.0), step_fit([0.2, -0.1, 0.5, 0.3])),
        }[operand]
        block = fit_weighted_erm(simulate(spec, list(range(6))), uniform_w(64), klass)
        value, se, mode = l2_distance(block, g, CovariateLaw.INTERVAL)
        assert mode == "exact" and se.tolist() == [0.0] * len(block)
        assert repr(value.tolist()) == repr([l2_distance(fit, g, CovariateLaw.INTERVAL)[0] for fit in block])

    def test_seed_list_must_match_the_block(self):
        # a network block on the ball law is measured row by row, by Monte Carlo
        paths = simulate(linear_spec(64, p=1), [1, 2, 3])
        block = fit_weighted_erm(paths, uniform_w(64), HypothesisClassSpec.relu(4, 1, 1.0), seed=[4, 5, 6])
        with pytest.raises(HypothesisError, match=r"^seed: a list of 2 seeds for a block of 3 rows$"):
            l2_distance(block, 0.0, CovariateLaw.BALL, draws=100, seed=[7, 8])

    def test_step_vs_multivariate_linear_stays_monte_carlo(self):
        f, g = step_fit([0.2, 0.8]), linear_fit([0.5, 0.1])
        _, se, mode = l2_distance(f, g, CovariateLaw.BALL, draws=2000)
        assert mode == "monte_carlo" and se > 0


def net_layers(*sizes):
    """Zero layers chaining ``sizes[i] -> sizes[i + 1]``."""
    return tuple((np.zeros((a, b)), np.zeros(b)) for a, b in zip(sizes[:-1], sizes[1:]))


# One valid parameter of each name, and each kind's class with the one it reads:
# a fit holds its own kind's parameter and no other.
FIT_PARAMETERS = {"coef": np.array([9.0]), "bins": np.array([0.1, 0.4]), "layers": net_layers(1, 4, 1)}
FIT_KINDS = {"linear": (HypothesisClassSpec.linear(1.0), "coef"), "step": (HypothesisClassSpec.step(2, 1.0), "bins"),
             "relu": (HypothesisClassSpec.relu(4, 1, 1.0), "layers")}
FOREIGN_PARAMETERS = [(kind, own, name) for kind, (_, own) in FIT_KINDS.items()
                      for name in FIT_PARAMETERS if name != own]


class TestFittedHypothesisParameters:
    @pytest.mark.parametrize(
        "spec, params, message",
        [
            (HypothesisClassSpec.linear(1.0), {}, "linear hypothesis needs coef"),
            (HypothesisClassSpec.linear(1.0), {"bins": np.zeros(1)}, "linear hypothesis needs coef"),
            (HypothesisClassSpec.step(3, 1.0), {}, "step hypothesis needs bins of length q=3"),
            (HypothesisClassSpec.step(3, 1.0), {"bins": np.zeros(2)},
             "step hypothesis needs bins of length q=3"),
            (HypothesisClassSpec.relu(4, 1, 1.0), {"coef": np.zeros(1)},
             "network hypothesis needs layers"),
            (HypothesisClassSpec.relu(4, 2, 1.0), {"layers": net_layers(1, 4, 1)},
             "network with ell=2 needs 3 layers, got 2"),
            (HypothesisClassSpec.relu(4, 1, 1.0), {"layers": net_layers(1, 3, 1)},
             r"layer 0 has W \(1, 3\) and b \(3,\); the class needs W \(1, 4\) and b \(4,\)"),
            (HypothesisClassSpec.relu(4, 2, 1.0),
             {"layers": net_layers(2, 4) + net_layers(3, 4, 1)},
             r"layer 1 has W \(3, 4\) and b \(4,\); the class needs W \(4, 4\) and b \(4,\)"),
            (HypothesisClassSpec.relu(4, 1, 1.0), {"layers": net_layers(1, 4, 2)},
             r"layer 1 has W \(4, 2\) and b \(2,\); the class needs W \(4, 1\) and b \(1,\)"),
            (HypothesisClassSpec.relu(4, 1, 1.0),
             {"layers": ((np.zeros((1, 4)), np.zeros(3)), (np.zeros((4, 1)), np.zeros(1)))},
             r"layer 0 has W \(1, 4\) and b \(3,\); the class needs W \(1, 4\) and b \(4,\)"),
        ] + [
            (FIT_KINDS[kind][0], {own: FIT_PARAMETERS[own], name: FIT_PARAMETERS[name]},
             f"{kind} hypothesis does not read {name}")
            for kind, own, name in FOREIGN_PARAMETERS
        ],
        ids=["linear-none", "linear-bins-only", "step-none", "step-short", "relu-none",
             "relu-layer-count", "relu-first-width", "relu-chain-break", "relu-last-width",
             "relu-bias-width"] + [f"{kind}-with-{name}" for kind, _, name in FOREIGN_PARAMETERS],
    )
    def test_missing_parameters_rejected(self, spec, params, message):
        with pytest.raises(HypothesisError, match=f"^{message}$"):
            FittedHypothesis(class_spec=spec, **params)


class TestSupDistance:
    def test_linear_pair(self):
        # the ball law's support is the cube [-1/sqrt(p), 1/sqrt(p)]^p: the
        # sup of |d . z| is at a vertex, and no draw from the law exceeds it
        d = np.array([0.3, 0.4])
        value = sup_distance(linear_fit(d), linear_fit([0.0, 0.0]))
        assert value == pytest.approx(0.7 / math.sqrt(2))
        vertices = np.array(list(itertools.product([-1.0, 1.0], repeat=2))) / math.sqrt(2)
        assert value == pytest.approx(np.abs(vertices @ d).max(), rel=1e-15)
        z = sample_covariates(CovariateLaw.BALL, 2, 1_000_000, np.random.default_rng(0))
        assert np.abs(z @ d).max() <= value

    def test_identical_zero(self):
        f = step_fit([0.1, 0.2])
        assert sup_distance(f, f) == 0.0

    def test_lipschitz_step_approximation(self):
        # the best q-bin step approximation of a 1-Lipschitz target stays
        # within 1/q in sup norm; bin midpoints achieve 1/(2q)
        q = 8
        mids = (np.arange(q) + 0.5) / q
        f = step_fit(mids)  # approximates h(z) = z
        assert sup_distance(f, linear_fit([1.0])) <= 1.0 / q

    def test_grid_mode_for_nets(self):
        # the exact sup of a fitted net against a line bounds a fine grid's
        # maximum from above, and exceeds it by at most slope bound x spacing
        spec = linear_spec(64, p=1, drift=DriftSpec.constant([0.5]), law=CovariateLaw.INTERVAL)
        path = simulate(spec, 12)
        net = fit_weighted_erm(path, uniform_w(64), HypothesisClassSpec.relu(4, 1, 1.0), seed=2)
        line = linear_fit([0.5])
        d = sup_distance(net, line)
        points = 8192
        grid_max = np.abs(difference_on(net, line, (np.arange(points) + 0.5) / points)).max()
        assert grid_max - 1e-12 <= d <= grid_max + (net_slope_bound(net) + 0.5) / points

    def test_one_unit_net_sup(self):
        assert sup_distance(HINGE, 0.0) == 0.5
        assert sup_distance(HINGE, step_fit([0.0, 1.0])) == 1.0  # the jump at 1/2

    @pytest.mark.parametrize("case", range(12))
    def test_exact_bounds_brute_force_grid(self, case):
        # grid of 10^6 midpoints: every point of [0, 1) lies within one
        # spacing of a grid point on the same side of any jump, so the
        # exact sup exceeds the grid maximum by at most slope bound x spacing
        rng = np.random.default_rng(100 + case)
        if case % 3 == 2:  # step against line: the slope bound is the line's
            f = step_fit(rng.uniform(-1, 1, rng.integers(1, 40)))
            slope = rng.uniform(-3, 3)
            g, bound = linear_fit([slope]), abs(slope)
        else:  # net against a line or a step
            f = random_net(rng, int(rng.integers(1, 9)), int(rng.integers(1, 4)))
            slope = rng.uniform(-1, 1) if case % 3 == 0 else 0.0
            g = linear_fit([slope]) if case % 3 == 0 else step_fit(rng.uniform(-1, 1, 7))
            bound = net_slope_bound(f) + abs(slope)
        points = 1_000_000
        grid_max = np.abs(difference_on(f, g, (np.arange(points) + 0.5) / points)).max()
        d = sup_distance(f, g)
        assert sup_distance(g, f) == d
        assert grid_max - 1e-12 <= d <= grid_max + bound / points


class TestSupNormLinkConstant:
    def test_linear_class_inequality(self):
        # for 1000 random coefficient pairs, the smallest L2 distance under
        # the law dominates the root of the smallest second-moment
        # eigenvalue times the Euclidean distance
        rng = np.random.default_rng(123)
        lam = 1 / 6
        M = lam * np.eye(2)
        for _ in range(1000):
            a, b = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
            d = a - b
            l2 = math.sqrt(float(d @ M @ d))
            sup = float(np.linalg.norm(d))
            assert l2 >= math.sqrt(lam) * sup - 1e-9

    @given(p=st.integers(1, 4), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_linear_c_inf_on_the_ball_law(self, p, data):
        # sup <= sqrt(L2) / c_inf with sup_distance as the oracle
        spec = linear_spec(64, p=p, drift=DriftSpec.constant([0.1] * p))
        c_inf = HypothesisClassSpec.linear(1.0).rate_inputs(spec)["c_inf"]
        coef = st.lists(st.floats(-1.0, 1.0), min_size=p, max_size=p)
        f, g = linear_fit(data.draw(coef)), linear_fit(data.draw(coef))
        l2, _, _ = l2_distance(f, g, CovariateLaw.BALL)
        assert sup_distance(f, g) <= math.sqrt(l2) / c_inf * (1 + 1e-12) + 1e-15  # d^2 may underflow

    @given(a=st.floats(-1.0, 1.0), b=st.floats(-1.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_linear_c_inf_is_tight_on_the_interval_law(self, a, b):
        spec = linear_spec(64, p=1, law=CovariateLaw.INTERVAL, drift=DriftSpec.constant([0.1]))
        c_inf = HypothesisClassSpec.linear(1.0).rate_inputs(spec)["c_inf"]
        f, g = linear_fit([a]), linear_fit([b])
        l2, _, _ = l2_distance(f, g, CovariateLaw.INTERVAL)
        assert sup_distance(f, g) == pytest.approx(math.sqrt(l2) / c_inf, rel=1e-12, abs=1e-15)

    @given(n=st.integers(2, 8192), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_step_c_inf_up_to_the_sized_q(self, n, data):
        # the sized class's c_inf is 1/sqrt(q) at the smallest norm 1/sqrt(n),
        # so it must hold for every pair with at most that many bins
        spec = linear_spec(n, p=1, law=CovariateLaw.INTERVAL, drift=DriftSpec.constant([0.1]))
        c_inf = HypothesisClassSpec(kind=HypothesisKind.STEP_BASIS).rate_inputs(spec)["c_inf"]
        q = data.draw(st.integers(1, basis_size(1.0 / math.sqrt(n))))
        values = st.lists(st.floats(-1.0, 1.0), min_size=q, max_size=q)
        f, g = step_fit(data.draw(values)), step_fit(data.draw(values))
        l2, _, _ = l2_distance(f, g, CovariateLaw.INTERVAL)
        assert sup_distance(f, g) <= math.sqrt(l2) / c_inf * (1 + 1e-12) + 1e-15

    @pytest.mark.parametrize("q", [1, 3, 8, 20])
    def test_step_c_inf_is_tight_for_a_fixed_q(self, q):
        # a difference on one bin attains sup = sqrt(L2) / c_inf
        spec = linear_spec(256, p=1, law=CovariateLaw.INTERVAL, drift=DriftSpec.constant([0.1]))
        c_inf = HypothesisClassSpec.step(q, 1.0).rate_inputs(spec)["c_inf"]
        f = step_fit(np.full(q, 0.5))
        one_bin = step_fit(np.concatenate([[-0.25], np.full(q - 1, 0.5)]))
        l2, _, _ = l2_distance(f, one_bin, CovariateLaw.INTERVAL)
        assert sup_distance(f, one_bin) == pytest.approx(math.sqrt(l2) / c_inf, rel=1e-12)

    @pytest.mark.parametrize("n", [64, 256, 1024, 8192])
    def test_step_approx_err_covers_the_bin_mean_step_of_the_identity(self, n):
        # the bin-mean step of h(z) = z sits 1/(2q) from h in sup, within
        # the 1/q that the class claims for 1-Lipschitz targets
        spec = linear_spec(n, p=1, law=CovariateLaw.INTERVAL, drift=DriftSpec.constant([0.1]))
        for klass in (HypothesisClassSpec(kind=HypothesisKind.STEP_BASIS), HypothesisClassSpec.step(8, 1.0)):
            approx_err = klass.rate_inputs(spec)["approx_err"]
            for w_l2 in (1.0 / math.sqrt(n), 0.1, 0.5, 1.0):
                q = klass.class_spec(spec, w_l2).q
                gap = sup_distance(step_fit((np.arange(q) + 0.5) / q), linear_fit([1.0]))
                assert gap == pytest.approx(1.0 / (2 * q), rel=1e-12)
                assert gap <= approx_err(w_l2) == 1.0 / q

    def test_step_basis_indicator_moments(self):
        # under the uniform law the bin indicators satisfy
        # E[phi_j phi_k] = 1{j=k}/q, checked by Monte Carlo
        rng = np.random.default_rng(5)
        q, draws = 4, 200_000
        z = rng.random(draws)
        phi = np.stack([(z >= j / q) & (z < (j + 1) / q) for j in range(q)]).astype(float)
        emp = phi @ phi.T / draws
        for j in range(q):
            for k in range(q):
                target = (1.0 / q) if j == k else 0.0
                se = math.sqrt(max(target * (1 - target), 1.0 / q) / draws)
                assert abs(emp[j, k] - target) <= 4 * se
