import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drifterm.mixing import (
    MixingError,
    MixingProfile,
    blocked_bernstein_tail,
    k_rho,
    m_beta,
)
from drifterm.weights import WeightFamily, WeightSpec, make_weights


class TestMBeta:
    def test_independent_data(self):
        assert m_beta(MixingProfile.iid(), 1000, 0.1).m == 1

    def test_polynomial_example(self):
        # (n/m) m^-5 <= delta  <=>  m^6 >= n/delta = 20000, first at m = 6.
        prof = MixingProfile(beta=lambda k: k**-5.0 if k >= 1 else 1.0)
        assert m_beta(prof, 1000, 0.05) == (6, True)

    def test_exponential_times_m_fixture(self):
        # (n/m) m e^-m = n e^-m <= 0.01 with n = 1e4 forces e^-m <= 1e-6,
        # first integer m = 14 (13.82 = ln 1e6).
        prof = MixingProfile(beta=lambda k: k * math.exp(-k) if k >= 1 else 1.0)
        assert m_beta(prof, 10_000, 0.01) == (14, True)

    def test_unsatisfiable_flagged(self):
        prof = MixingProfile(beta=lambda k: 1.0)
        assert m_beta(prof, 50, 0.5) == (50, False)

    def test_delta_domain(self):
        with pytest.raises(MixingError):
            m_beta(MixingProfile.iid(), 10, 1.5)

    def test_n_below_one(self):
        with pytest.raises(MixingError, match="^n must be >= 1, got 0$"):
            m_beta(MixingProfile.iid(), 0, 0.05)

    @given(
        n1=st.integers(10, 2000),
        n2=st.integers(10, 2000),
        d1=st.floats(0.01, 0.5),
        d2=st.floats(0.01, 0.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotonicity(self, n1, n2, d1, d2):
        prof = MixingProfile.ar1(0.7)
        if d1 > d2:
            d1, d2 = d2, d1
        # non-increasing in delta
        assert m_beta(prof, n1, d1).m >= m_beta(prof, n1, d2).m
        if n1 > n2:
            n1, n2 = n2, n1
        # non-decreasing in n
        assert m_beta(prof, n1, d1).m <= m_beta(prof, n2, d1).m


class TestKRho:
    def test_uncorrelated(self):
        assert k_rho(MixingProfile.iid()) == 1.0

    def test_ar1_geometric(self):
        # geometric series: 1 + 2 * phi/(1-phi) = (1+phi)/(1-phi) = 3 at phi=0.5
        assert k_rho(MixingProfile.ar1(0.5)) == pytest.approx(3.0, abs=1e-9)

    def test_closed_form_is_exact(self):
        # no truncation or rounding drift, however close the rate is to 1
        assert k_rho(MixingProfile.ar1(0.6)) == 4.0
        assert k_rho(MixingProfile.ar1(0.99)) == (1 + 0.99) / (1 - 0.99)
        assert k_rho(MixingProfile.ar1(0.999999)) == pytest.approx(1999999.0, rel=1e-9)

    def test_geometric_rho(self):
        prof = MixingProfile(beta=lambda k: 0.0, rho_rate=0.5)
        assert [prof.rho(k) for k in range(4)] == [1.0, 0.5, 0.25, 0.125]
        assert MixingProfile.iid().rho(1) == 0.0

    @pytest.mark.parametrize("phi", [1.0, -1.5])
    def test_ar1_needs_phi_inside_the_unit_interval(self, phi):
        with pytest.raises(MixingError, match=rf"^need \|phi\| < 1, got {phi}$"):
            MixingProfile.ar1(phi)


def markov_tv_beta(P, k):
    """Oracle: beta(k) of a stationary finite chain by matrix powers,
    (1/2) sum_i pi_i sum_j |P^k_ij - pi_j|, pi the unit left eigenvector."""
    vals, vecs = np.linalg.eig(P.T)
    pi = np.abs(np.real(vecs[:, int(np.argmin(np.abs(vals - 1.0)))]))
    pi = pi / pi.sum()
    Pk = np.linalg.matrix_power(P, k)
    return 0.5 * float(pi @ np.abs(Pk - pi[None, :]).sum(axis=1))


class TestMarkovBeta:
    @pytest.mark.parametrize(
        "p01, p10",
        [(0.1, 0.1), (0.45, 0.45), (0.8, 0.8), (0.3, 0.4), (0.05, 0.6), (0.9, 0.7), (1.0, 0.25)],
    )
    def test_closed_form_matches_matrix_powers(self, p01, p10):
        prof = MixingProfile.markov2(p01, p10)
        P = np.array([[1 - p01, p01], [p10, 1 - p10]])
        k = 0
        while prof.beta(k) > 1e-12:
            assert prof.beta(k) == pytest.approx(markov_tv_beta(P, k), rel=1e-9, abs=1e-15)
            k += 1
        assert k > 1

    def test_below_the_matrix_power_cancellation_floor(self):
        # P^k - pi cancels to ~1e-17 in floating point; the closed form does not
        assert MixingProfile.markov2(0.45, 0.45).beta(20) == pytest.approx(5e-21, rel=1e-12)

    def test_one_step_independence(self):
        assert MixingProfile.markov2(0.5, 0.5).beta(1) == 0.0

    def test_sticky_chain_values(self):
        # beta(k) = 2 (1/2)(1/2) 0.8^k = 0.4, 0.32
        prof = MixingProfile.markov2(0.1, 0.1)
        assert prof.beta(1) == pytest.approx(0.4, abs=1e-12)
        assert prof.beta(2) == pytest.approx(0.32, abs=1e-12)

    def test_periodic_chain_has_no_summable_tail(self):
        prof = MixingProfile.markov2(1.0, 1.0)
        assert prof.beta(7) == 0.5 and prof.rho(7) == 1.0
        with pytest.raises(MixingError, match="rho rate in \\[0, 1\\), got 1.0"):
            k_rho(prof)

    @pytest.mark.parametrize(
        "p01, p10", [(1.2, 0.1), (-0.1, 0.2), (0.3, math.nan), (0.0, 0.0)]
    )
    def test_bad_probabilities_rejected(self, p01, p10):
        with pytest.raises(MixingError, match="flip probabilities"):
            MixingProfile.markov2(p01, p10)

    def test_decreasing_in_lag_and_vanishing(self):
        prof = MixingProfile.markov2(0.3, 0.4)
        values = [prof.beta(k) for k in range(1, 12)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-4

    def test_profile_matches_direct_formula(self):
        prof = MixingProfile.markov2(0.2, 0.2)
        assert prof.beta(2) == pytest.approx(0.5 * 0.6**2, abs=1e-12)
        assert prof.rho(3) == pytest.approx(0.6**3)


def normal_tv(m, s):
    """TV(N(m, s^2), N(0, 1)) for 0 < s < 1.  The densities cross at the two
    roots of (s^2 - 1) y^2 + 2 m y - m^2 - 2 s^2 log s = 0, and the narrower
    one is the larger between them."""
    from scipy.special import ndtr

    half = np.sqrt(s**2 * m**2 + 2.0 * s**2 * (s**2 - 1.0) * math.log(s))
    lo, hi = (m + half) / (1.0 - s**2), (m - half) / (1.0 - s**2)
    lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    return ndtr((hi - m) / s) - ndtr((lo - m) / s) - (ndtr(hi) - ndtr(lo))


def ar1_beta(phi: float, k: int) -> float:
    """beta(k) of a stationary N(0, 1) AR(1) chain: E_x TV(N(phi^k x, 1 - phi^2k), N(0, 1))
    over x ~ N(0, 1), by 200-node Gauss-Hermite quadrature."""
    x, weights = np.polynomial.hermite_e.hermegauss(200)
    a = phi**k
    return float(weights @ normal_tv(a * x, math.sqrt(1.0 - a * a)) / weights.sum())


class TestAr1BetaEnvelope:
    """MixingProfile.ar1's per-chain envelope beta(k) <= |phi|^k against quadrature."""

    def test_closed_form_tv_matches_direct_integration(self):
        y = np.linspace(-15.0, 15.0, 300_001)
        m, s = 0.7, 0.6
        f = np.exp(-((y - m) ** 2) / (2 * s * s)) / (s * math.sqrt(2 * math.pi))
        g = np.exp(-y * y / 2) / math.sqrt(2 * math.pi)
        direct = 0.5 * float(np.sum(np.abs(f - g)) * (y[1] - y[0]))
        assert float(normal_tv(m, s)) == pytest.approx(direct, abs=1e-8)

    @pytest.mark.parametrize("phi", [0.3, 0.6, 0.9])
    def test_envelope_holds(self, phi):
        profile = MixingProfile.ar1(phi)
        for k in (1, 2, 5, 10):
            beta = ar1_beta(phi, k)
            assert 0 < beta <= phi**k
            assert beta <= profile.beta(k) == phi**k


class TestBernsteinTail:
    def test_plug_in_example(self):
        # 4 exp(-0.25 / (8*0.01 + 3*0.015/... )) = 4 exp(-0.25/0.095)
        w = make_weights(WeightSpec(WeightFamily.UNIFORM_WINDOW, t=100, n=100, param=100))
        got = blocked_bernstein_tail(1.0, 1.0, 1, w, 1.0, 0.5)
        assert got == pytest.approx(4.0 * math.exp(-0.25 / 0.095), rel=1e-12)
        assert got == pytest.approx(0.2879, abs=5e-4)

    def test_decreasing_in_s(self):
        w = make_weights(WeightSpec(WeightFamily.UNIFORM_WINDOW, t=50, n=50, param=50))
        values = [blocked_bernstein_tail(1.0, 1.0, 2, w, 1.5, s) for s in np.linspace(0.05, 3, 40)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-5

    @given(krho=st.floats(1.0, 50.0), factor=st.floats(1.0, 10.0), s=st.floats(0.01, 5.0))
    @settings(max_examples=80, deadline=None)
    def test_monotone_in_k_rho(self, krho, factor, s):
        w = make_weights(WeightSpec(WeightFamily.UNIFORM_WINDOW, t=20, n=20, param=20))
        assert blocked_bernstein_tail(1.0, 1.0, 3, w, krho * factor, s) >= blocked_bernstein_tail(
            1.0, 1.0, 3, w, krho, s
        )

    def test_invalid_inputs(self):
        w = make_weights(WeightSpec(WeightFamily.UNIFORM_WINDOW, t=5, n=5, param=5))
        with pytest.raises(MixingError):
            blocked_bernstein_tail(0.0, 1.0, 1, w, 1.0, 0.5)
        with pytest.raises(MixingError):
            blocked_bernstein_tail(1.0, 1.0, 0, w, 1.0, 0.5)
        with pytest.raises(MixingError, match=r"^long-run correlation sum must be >= 1, got 0\.5$"):
            blocked_bernstein_tail(1.0, 1.0, 1, w, 0.5, 0.5)

