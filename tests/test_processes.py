import math

import numpy as np
import pytest

from drifterm.mixing import m_beta
from drifterm.processes import (
    CovariateLaw,
    DependenceCore,
    DriftSpec,
    ProcessKind,
    ProcessSpec,
    ProcessSpecError,
    beta_path,
    lambda_min,
    mixing_profile,
    population_optimum_next,
    population_optimum_weighted,
    second_moment,
    sigma2_path,
    simulate,
)
from drifterm.weights import WeightFamily, WeightSpec, make_weights


def linear_spec(n=200, p=2, core=None, noise_sd=0.3, drift=None, law=CovariateLaw.BALL):
    return ProcessSpec(
        kind=ProcessKind.DRIFTING_LINEAR,
        n=n,
        p=p,
        law=law,
        core=core or DependenceCore(),
        drift=drift or DriftSpec.constant([0.3, -0.2][:p]),
        noise_sd=noise_sd,
        y_bound=2.0,
    )


def uniform_w(n):
    return make_weights(WeightSpec(WeightFamily.UNIFORM_WINDOW, t=n, n=n, param=n))


class TestSimulate:
    def test_deterministic_regeneration(self):
        spec = linear_spec()
        a, b = simulate(spec, 123), simulate(spec, 123)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.z, b.z)
        c = simulate(spec, 124)
        assert not np.array_equal(a.y, c.y)

    def test_noiseless_stationary_exact(self):
        spec = linear_spec(noise_sd=0.0)
        path = simulate(spec, 5)
        betas = beta_path(spec)
        np.testing.assert_allclose(path.y, np.einsum("tp,tp->t", betas, path.z), atol=1e-15)

    def test_length_and_bound(self):
        spec = linear_spec(n=500)
        path = simulate(spec, 9)
        assert path.y.shape == (501,)
        assert path.z.shape == (501, 2)
        assert np.abs(path.y).max() <= spec.y_bound
        assert np.sqrt((path.z**2).sum(axis=1)).max() <= 1.0 + 1e-12

    def test_variance_drift_block_means(self):
        spec = ProcessSpec(
            kind=ProcessKind.DRIFTING_VARIANCE,
            n=4000,
            p=1,
            law=CovariateLaw.INTERVAL,
            core=DependenceCore(),
            mean=1.5,
            var_start=1.0,
            var_end=4.0,
            y_bound=1.5 + 2.0 * 4.01,
        )
        path = simulate(spec, 11)
        sd_bound = math.sqrt(spec.var_end)
        for block in np.array_split(path.y, 4):
            se = sd_bound / math.sqrt(len(block))
            assert abs(block.mean() - 1.5) <= 4 * se

    def test_envelope_validation(self):
        with pytest.raises(ProcessSpecError):
            ProcessSpec(
                kind=ProcessKind.DRIFTING_LINEAR,
                n=10,
                p=1,
                law=CovariateLaw.BALL,
                core=DependenceCore(),
                drift=DriftSpec.constant([1.0]),
                noise_sd=1.0,
                y_bound=2.0,  # needs ~1 + 4.002
            )

    @pytest.mark.parametrize(
        "kind, a, b, at",
        [
            ("wobble", (0.1,), None, None),
            ("linear", (0.1,), None, None),
            ("sinusoidal", (0.1,), (0.2, 0.3), None),
            ("switch", (0.1,), (0.2,), None),
        ],
    )
    def test_drift_validation(self, kind, a, b, at):
        with pytest.raises(ProcessSpecError):
            DriftSpec(kind, a, b, at=at)

    def test_covariate_second_moment_matches(self):
        spec = linear_spec(n=100_000, p=3, drift=DriftSpec.constant([0.1, 0.1, 0.1]))
        path = simulate(spec, 21)
        emp = path.z.T @ path.z / path.z.shape[0]
        M = second_moment(spec)
        # var of z_j^2 for uniform on [-a, a] is a^4 * 4/45 with a^2 = 1/p
        se_diag = math.sqrt(4.0 / 45.0) * (1.0 / spec.p) / math.sqrt(path.z.shape[0])
        se_off = (1.0 / (3 * spec.p)) / math.sqrt(path.z.shape[0])
        for i in range(3):
            for j in range(3):
                se = se_diag if i == j else se_off
                assert abs(emp[i, j] - M[i, j]) <= 4 * se

    def test_markov_core_transitions(self):
        spec = linear_spec(
            n=40_000,
            p=1,
            core=DependenceCore(kind="markov", flip=0.2),
            drift=DriftSpec.constant([0.5]),
            law=CovariateLaw.INTERVAL,
        )
        path = simulate(spec, 31)
        states = (path.z[:, 0] >= 0.5).astype(int)
        flips = states[1:] != states[:-1]
        rate = flips.mean()
        se = math.sqrt(0.2 * 0.8 / len(flips))
        assert abs(rate - 0.2) <= 4 * se

    def test_ar1_core_marginal_uniform(self):
        spec = linear_spec(n=50_000, p=1, core=DependenceCore(kind="ar1", phi=0.6),
                           drift=DriftSpec.constant([0.5]), law=CovariateLaw.INTERVAL)
        path = simulate(spec, 41)
        u = path.z[:, 0]
        # moments of U(0,1) within 4 MC standard errors
        assert abs(u.mean() - 0.5) <= 4 * (1 / math.sqrt(12 * len(u)))
        assert abs((u**2).mean() - 1 / 3) <= 4 * math.sqrt(4 / 45 / len(u))
        # positive serial correlation appears through the latent chain
        corr = np.corrcoef(u[:-1], u[1:])[0, 1]
        assert corr > 0.4


class TestPopulationOptima:
    def test_stationary_matches_constant(self):
        spec = linear_spec()
        w = uniform_w(spec.n)
        np.testing.assert_allclose(population_optimum_weighted(spec, w), [0.3, -0.2])

    def test_two_regime_average(self):
        spec = ProcessSpec(
            kind=ProcessKind.REGIME_SWITCH,
            n=100,
            p=2,
            law=CovariateLaw.BALL,
            core=DependenceCore(),
            drift=DriftSpec.switch([1.0, 0.0], [0.0, 1.0], at=50),
            noise_sd=0.0,
            y_bound=1.5,
        )
        w = uniform_w(100)
        np.testing.assert_allclose(population_optimum_weighted(spec, w), [0.5, 0.5])

    def test_point_mass_weight(self):
        spec = linear_spec(drift=DriftSpec.linear([0.0, 0.0], [0.4, -0.4]))
        entries = np.zeros(spec.n)
        entries[-1] = 1.0
        got = population_optimum_weighted(spec, entries)
        np.testing.assert_allclose(got, beta_path(spec)[spec.n - 1])

    def test_next_reads_drift(self):
        spec = ProcessSpec(
            kind=ProcessKind.REGIME_SWITCH,
            n=100,
            p=2,
            law=CovariateLaw.BALL,
            core=DependenceCore(),
            drift=DriftSpec.switch([1.0, 0.0], [0.0, 1.0], at=50),
            noise_sd=0.0,
            y_bound=1.5,
        )
        np.testing.assert_allclose(population_optimum_next(spec, 100), [0.0, 1.0])
        np.testing.assert_allclose(population_optimum_next(spec, 10), [1.0, 0.0])
        with pytest.raises(IndexError):
            population_optimum_next(spec, 101)

    def test_variance_kind_constant_predictor(self):
        spec = ProcessSpec(
            kind=ProcessKind.DRIFTING_VARIANCE,
            n=50,
            p=1,
            law=CovariateLaw.INTERVAL,
            core=DependenceCore(),
            mean=0.7,
            var_start=1.0,
            var_end=2.0,
            y_bound=0.7 + math.sqrt(2) * 4.01,
        )
        w = uniform_w(50)
        assert population_optimum_weighted(spec, w)[0] == 0.7
        assert population_optimum_next(spec, 25)[0] == 0.7

    def test_uniform_weights_match_next_under_stationarity(self):
        spec = linear_spec()
        w = uniform_w(spec.n)
        np.testing.assert_allclose(
            population_optimum_weighted(spec, w), population_optimum_next(spec, spec.n)
        )


class TestMixingProfileOfSpec:
    def test_iid_profile(self):
        prof = mixing_profile(linear_spec())
        assert prof.beta(1) == 0.0
        assert m_beta(prof, 100, 0.05).m == 1

    def test_ar1_profile_envelope_scales_with_chains(self):
        spec = linear_spec(p=2, core=DependenceCore(kind="ar1", phi=0.5))
        prof = mixing_profile(spec)
        assert prof.beta(3) == pytest.approx(min(1.0, 2 * 0.5**3))
        assert prof.rho(3) == pytest.approx(0.5**3)

    def test_markov_profile_exact(self):
        spec = linear_spec(
            p=1,
            core=DependenceCore(kind="markov", flip=0.1),
            drift=DriftSpec.constant([0.5]),
            law=CovariateLaw.INTERVAL,
        )
        prof = mixing_profile(spec)
        assert prof.beta(1) == pytest.approx(0.4, abs=1e-12)


def test_sigma2_path_endpoints():
    spec = ProcessSpec(
        kind=ProcessKind.DRIFTING_VARIANCE,
        n=2000,
        p=1,
        law=CovariateLaw.INTERVAL,
        core=DependenceCore(),
        mean=0.0,
        var_start=1.0,
        var_end=11.0,
        y_bound=math.sqrt(11) * 4.01,
    )
    var = sigma2_path(spec)
    assert var[0] == 1.0 and var[-1] == 11.0
    assert len(var) == 2001


def test_lambda_min_values():
    assert lambda_min(linear_spec(p=2)) == pytest.approx(1 / 6)
    spec = linear_spec(p=1, drift=DriftSpec.constant([0.5]), law=CovariateLaw.INTERVAL)
    assert lambda_min(spec) == pytest.approx(1 / 3)
