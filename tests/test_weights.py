import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drifterm.weights import (
    DEFAULT_EXP_RANGE,
    WeightDomainError,
    WeightFamily,
    WeightSpec,
    build_weight_net,
    class_constants,
    class_rate_inputs,
    covering_number_bound,
    exponential_norms,
    exponential_spikiness,
    make_weights,
    theta_for_n_eff,
)

FAMILIES = [WeightFamily.UNIFORM_WINDOW, WeightFamily.EXPONENTIAL, WeightFamily.BROWN_DES]


def random_spec(rng, family, t, n):
    if family is WeightFamily.UNIFORM_WINDOW:
        param = float(rng.integers(1, t + 1))
    elif family is WeightFamily.EXPONENTIAL:
        param = float(rng.uniform(1e-6, DEFAULT_EXP_RANGE))
    else:
        param = float(rng.uniform(1e-6, 1.0 - 1e-9))
    return WeightSpec(family, t=t, n=n, param=param)


class TestMakeWeights:
    def test_uniform_window_example(self):
        w = make_weights(WeightSpec(WeightFamily.UNIFORM_WINDOW, t=10, n=10, param=4))
        expected = np.zeros(10)
        expected[6:] = 0.25
        np.testing.assert_allclose(w.entries, expected)
        assert w.l2sq == pytest.approx(0.25)
        assert w.linf == pytest.approx(0.25)

    def test_exponential_two_point(self):
        # rho = 1/2: hand-summed series gives (rho, 1)/(1 + rho) = (1/3, 2/3),
        # squared norm 1/9 + 4/9 = 5/9, and spikiness (2/3)/(5/9) = 1.2.
        w = make_weights(WeightSpec(WeightFamily.EXPONENTIAL, t=2, n=2, param=math.log(2)))
        np.testing.assert_allclose(w.entries, [1 / 3, 2 / 3], atol=1e-15)
        assert w.l2sq == pytest.approx(5 / 9, abs=1e-14)
        assert w.linf / w.l2sq == pytest.approx(1.2, abs=1e-12)
        assert exponential_spikiness(math.log(2), 2) == pytest.approx(1.2, abs=1e-14)

    def test_brown_three_point(self):
        # Raw block values for theta = 0.5 at lags 2, 1, 0 are
        # (2 - 0.5*3) * 0.25 = 0.125, (2 - 1) * 0.5 = 0.5, (2 - 0.5) = 1.5,
        # total 2.125; the closed-form normalizer (1 + r^t (t theta - 1))/theta
        # gives the same 2.125.
        w = make_weights(WeightSpec(WeightFamily.BROWN_DES, t=3, n=3, param=0.5))
        np.testing.assert_allclose(
            w.entries, np.array([0.125, 0.5, 1.5]) / 2.125, atol=1e-15
        )
        assert (1 + 0.5**3 * (3 * 0.5 - 1)) / 0.5 == pytest.approx(2.125)

    def test_brown_degenerate_theta_one(self):
        w = make_weights(WeightSpec(WeightFamily.BROWN_DES, t=7, n=7, param=1.0))
        expected = np.zeros(7)
        expected[6] = 1.0
        np.testing.assert_array_equal(w.entries, expected)

    @pytest.mark.parametrize(
        "family,param",
        [
            (WeightFamily.UNIFORM_WINDOW, 0.0),
            (WeightFamily.UNIFORM_WINDOW, 11.0),
            (WeightFamily.UNIFORM_WINDOW, 2.5),
            (WeightFamily.EXPONENTIAL, 0.0),
            (WeightFamily.EXPONENTIAL, -1.0),
            (WeightFamily.BROWN_DES, 0.0),
            (WeightFamily.BROWN_DES, 1.5),
        ],
    )
    def test_domain_errors(self, family, param):
        with pytest.raises(WeightDomainError):
            WeightSpec(family, t=10, n=10, param=param)

    def test_t_beyond_n_rejected(self):
        with pytest.raises(WeightDomainError):
            WeightSpec(WeightFamily.EXPONENTIAL, t=5, n=4, param=1.0)

    @given(
        family=st.sampled_from(FAMILIES),
        t=st.integers(1, 120),
        extra=st.integers(0, 40),
        raw=st.floats(0.01, 0.99),
    )
    @settings(max_examples=150, deadline=None)
    def test_invariants(self, family, t, extra, raw):
        n = t + extra
        if family is WeightFamily.UNIFORM_WINDOW:
            param = 1 + int(raw * (t - 1))
        elif family is WeightFamily.EXPONENTIAL:
            param = raw * DEFAULT_EXP_RANGE
        else:
            param = raw
        w = make_weights(WeightSpec(family, t=t, n=n, param=float(param)))
        assert w.sum == pytest.approx(1.0, abs=1e-12)
        assert np.all(w.entries[t:] == 0.0)
        # cached norms equal norms recomputed from entries
        assert w.l1 == pytest.approx(float(np.abs(w.entries).sum()), abs=1e-12)
        assert w.l2sq == pytest.approx(float((w.entries**2).sum()), abs=1e-12)
        assert w.linf == pytest.approx(float(np.abs(w.entries).max()), abs=1e-12)
        if family is not WeightFamily.BROWN_DES:
            assert np.all(w.entries >= 0)

    @given(t=st.integers(1, 200), s_frac=st.floats(0.0, 1.0))
    @settings(max_examples=80, deadline=None)
    def test_uniform_effective_sample_size_is_s(self, t, s_frac):
        s = 1 + int(s_frac * (t - 1))
        w = make_weights(WeightSpec(WeightFamily.UNIFORM_WINDOW, t=t, n=t, param=float(s)))
        assert w.n_eff == pytest.approx(float(s), rel=1e-12)

    def test_brown_sign_structure(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            t = int(rng.integers(2, 60))
            theta = float(rng.uniform(0.05, 0.95))
            w = make_weights(WeightSpec(WeightFamily.BROWN_DES, t=t, n=t, param=theta))
            for i in range(1, t + 1):
                k = t - i
                front = 2.0 - theta * (k + 1)
                if abs(front) < 1e-12:
                    continue
                assert (w.entries[i - 1] < 0) == (front < 0)

    def test_exponential_ratio_identity_grid(self):
        for theta in np.geomspace(1e-4, 10.0, 40):
            for t in (1, 2, 3, 7, 25, 100, 200):
                w = make_weights(WeightSpec(WeightFamily.EXPONENTIAL, t=t, n=t, param=float(theta)))
                assert w.linf / w.l2sq == pytest.approx(
                    exponential_spikiness(float(theta), t), abs=1e-10
                )


class TestClassConstants:
    def test_uniform_exact(self):
        c = class_constants(WeightFamily.UNIFORM_WINDOW, 50)
        assert c.bw == 1.0 and c.c1 == 1.0 and c.exact
        assert c.n_eff_max == pytest.approx(50.0)

    def test_uniform_reads_no_parameter_range(self):
        c = class_constants(WeightFamily.UNIFORM_WINDOW, 1)
        assert (c.c1, c.cw, c.bw, c.n_eff_max, c.exact) == (1.0, 1.0, 1.0, 1.0, True)

    def test_exponential_bounds(self):
        c = class_constants(WeightFamily.EXPONENTIAL, 100)
        assert c.c1 == 1.0
        assert c.bw <= 2.0
        assert not c.exact

    def test_brown_bounds(self):
        c = class_constants(WeightFamily.BROWN_DES, 100)
        assert c.bw <= 18.0 * math.e**2
        assert c.c1 <= 3.0

    def test_brown_memory_is_bounded_in_t(self):
        # one (10^4 decay rates, t lags) float array is 82 MB at t = 1024
        tracemalloc.start()
        try:
            class_constants(WeightFamily.BROWN_DES, 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6


class TestWeightNets:
    def test_uniform_net_enumerates(self):
        net = build_weight_net(WeightFamily.UNIFORM_WINDOW, 7, 0.01)
        assert len(net) == 7
        assert sorted(s.param for s in net) == [float(s) for s in range(1, 8)]

    def test_exponential_net_size(self):
        net = build_weight_net(WeightFamily.EXPONENTIAL, 11, 0.1)
        assert len(net) <= 3 * DEFAULT_EXP_RANGE * 10 / 0.1

    def test_brown_net_size(self):
        net = build_weight_net(WeightFamily.BROWN_DES, 5, 0.5)
        assert len(net) <= 60 * 5 / 0.5

    @pytest.mark.parametrize("family", [WeightFamily.EXPONENTIAL, WeightFamily.BROWN_DES])
    @pytest.mark.parametrize("eps", [0.5, 0.01])
    def test_t_one_net_is_the_point_mass(self, family, eps):
        # every member at t = 1 is the point mass at time 1
        net = build_weight_net(family, 1, eps)
        assert len(net) == 1
        assert make_weights(net[0]).entries.tolist() == [1.0]

    def test_epsilon_must_be_positive(self):
        with pytest.raises(WeightDomainError):
            build_weight_net(WeightFamily.EXPONENTIAL, 5, 0.0)

    @pytest.mark.parametrize(
        "family,prange,eps",
        [
            (WeightFamily.UNIFORM_WINDOW, (1.0, 40.0), 0.3),
            (WeightFamily.EXPONENTIAL, (0.0, DEFAULT_EXP_RANGE), 0.3),
            (WeightFamily.BROWN_DES, (0.0, 1.0), 0.3),
        ],
    )
    def test_randomized_cover(self, family, prange, eps):
        # the net covers the family's whole domain ``prange`` and stays inside it
        t = 40
        rng = np.random.default_rng(7)
        net = build_weight_net(family, t, eps)
        params = np.array([s.param for s in net])
        assert prange[0] <= params.min() and params.max() <= prange[1]
        vectors = np.array([make_weights(s).entries for s in net])
        for _ in range(1000):
            spec = random_spec(rng, family, t, t)
            w = make_weights(spec).entries
            j = int(np.argmin(np.abs(params - spec.param)))
            assert float(np.abs(w - vectors[j]).sum()) <= eps


class TestCoveringBounds:
    def test_uniform_union(self):
        assert covering_number_bound(WeightFamily.UNIFORM_WINDOW, 0.1, 100) == 5050

    @pytest.mark.parametrize("n", range(1, 11))
    def test_uniform_bounds_count_every_window(self, n):
        # brute force: every window (t, s), 1 <= s <= t <= n, as a length-n
        # vector.  Below half the smallest pairwise l1 distance a ball holds
        # one member, so there the covering number is the member count.
        members = np.array(sorted({
            tuple(make_weights(WeightSpec(WeightFamily.UNIFORM_WINDOW, t=t, n=n, param=s)).entries)
            for t in range(1, n + 1)
            for s in range(1, t + 1)
        }))
        assert len(members) == n * (n + 1) // 2
        gaps = np.abs(members[:, None, :] - members[None, :, :]).sum(axis=2)
        d_min = gaps[~np.eye(len(members), dtype=bool)].min() if len(members) > 1 else 2.0
        assert d_min >= 2.0 / n - 1e-12
        eps = 0.49 * d_min
        assert covering_number_bound(WeightFamily.UNIFORM_WINDOW, eps, n) >= len(members)

    def test_exponential_union(self):
        got = covering_number_bound(WeightFamily.EXPONENTIAL, 0.3, 10)
        assert got == pytest.approx(5000)  # 3 R n^2 / (2 eps) with R = 10

    def test_brown_floor(self):
        assert covering_number_bound(WeightFamily.BROWN_DES, 60.0, 1) == 1.0

    def test_epsilon_validation(self):
        with pytest.raises(WeightDomainError):
            covering_number_bound(WeightFamily.BROWN_DES, -1.0, 1)


# The weight class's rate inputs (c1, cw, bw, log N1 at each PIN_EPS), as
# doubles, for each family and horizon n.
PIN_EPS = (1e-12, 1e-6, 1e-2, 0.3)
CLASS_RATE_PINS = {
    (WeightFamily.UNIFORM_WINDOW, 64): (1.0, 0.125, 1.0, (
        7.640123172695364, 7.640123172695364, 7.640123172695364, 7.640123172695364)),
    (WeightFamily.UNIFORM_WINDOW, 1024): (1.0, 0.03125, 1.0, (
        13.170772516612017, 13.170772516612017, 13.170772516612017, 13.170772516612017)),
    (WeightFamily.UNIFORM_WINDOW, 8192): (1.0, 0.011048543456039804, 1.0, (
        17.32880157686116, 17.32880157686116, 17.32880157686116, 17.32880157686116)),
    (WeightFamily.EXPONENTIAL, 64): (1.0, 0.125, 2.0, (
        38.6568374837501, 24.84132692578583, 15.630986553809645, 12.22978917214749)),
    (WeightFamily.EXPONENTIAL, 1024): (1.0, 0.03125, 2.0, (
        44.202014928229666, 30.386504370265392, 21.17616399828921, 17.77496661662705)),
    (WeightFamily.EXPONENTIAL, 8192): (1.0, 0.011048543456039804, 2.0, (
        48.360898011589335, 34.54538745362506, 25.33504708164888, 21.933849699986723)),
    (WeightFamily.BROWN_DES, 64): (3.0, 0.125, 133.00300978075168, (
        40.04313184486999, 26.22762128690572, 17.017280914929536, 13.61608353326738)),
    (WeightFamily.BROWN_DES, 1024): (3.0, 0.03125, 133.00300978075168, (
        45.58830928934955, 31.77279873138528, 22.5624583594091, 19.16126097774694)),
    (WeightFamily.BROWN_DES, 8192): (3.0, 0.011048543456039804, 133.00300978075168, (
        49.74719237270923, 35.931681814744955, 26.72134144276877, 23.320144061106614)),
}


@pytest.mark.parametrize("family, n", CLASS_RATE_PINS, ids=lambda v: getattr(v, "value", v))
def test_class_rate_inputs_pinned(family, n):
    inputs = class_rate_inputs(family, n)
    want_c1, want_cw, want_bw, want_logs = CLASS_RATE_PINS[family, n]
    assert (inputs["c1"], inputs["cw"], inputs["bw"]) == (want_c1, want_cw, want_bw)
    assert tuple(inputs["log_n1_w"](eps) for eps in PIN_EPS) == want_logs


@pytest.mark.parametrize("target", [1.0, 1.00001])
def test_theta_for_n_eff_refuses_rates_at_or_above_range(target):
    # n_eff = 1.0000908 at theta = R; below it the decay would leave the class
    with pytest.raises(WeightDomainError, match="not below R = 10"):
        theta_for_n_eff(target, 8192)


@pytest.mark.parametrize("target", [0.5, 8193.0])
def test_theta_for_n_eff_refuses_an_unreachable_n_eff(target):
    with pytest.raises(WeightDomainError, match=rf"^reachable n_eff is \[1, t\], got {target} with t=8192$"):
        theta_for_n_eff(target, 8192)


@pytest.mark.parametrize("theta", [0.0, -1.0])
def test_exponential_norms_need_a_positive_theta(theta):
    with pytest.raises(WeightDomainError, match="^theta must be > 0$"):
        exponential_norms(theta, 10)


def test_theta_for_n_eff_roundtrip():

    for target in (16.0, 64.0, 256.0, 1024.0):
        theta = theta_for_n_eff(target, 8192)
        l2sq, _ = exponential_norms(theta, 8192)
        assert 1.0 / l2sq == pytest.approx(target, rel=1e-9)
