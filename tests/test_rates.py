import ast
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drifterm.rates import (
    DOUBLINGS,
    ConditionPoint,
    ConditionReport,
    RateError,
    RateFunction,
    RateParameters,
    RatePreconditionError,
    RateVariant,
    bound_certificate,
    check_rate_conditions,
    closed_form_rate,
    complexity_term,
    default_condition_grid,
    find_scale_constant,
)
from drifterm.hypotheses import HypothesisClassSpec, HypothesisKind
from drifterm.processes import CovariateLaw, DependenceCore, DriftSpec, ProcessKind, ProcessSpec
from drifterm.weights import WeightFamily, class_rate_inputs


def class_inputs(klass: HypothesisClassSpec, p: int = 1, n: int = 10_000) -> dict:
    """The class's rate inputs on a p-dimensional covariate law at horizon n."""
    law = CovariateLaw.INTERVAL if p == 1 else CovariateLaw.BALL
    spec = ProcessSpec(ProcessKind.DRIFTING_LINEAR, n, p, law, DependenceCore(),
                       drift=DriftSpec.constant([0.0] * p))
    return klass.rate_inputs(spec)


def class_covering(klass: HypothesisClassSpec, p: int = 1, n: int = 10_000):
    """The class's (eps, w_l2) -> log Ninf on a p-dimensional covariate law at horizon n."""
    return class_inputs(klass, p, n)["log_ninf_h"]


def make_params(**overrides):
    base = dict(
        c1=1.0,
        cw=0.01,
        bw=1.0,
        m_beta=1,
        k_rho=1.0,
        c_p=1.0,
        c_inf=0.0,
        alpha=0.0,
        n=10_000,
        log_n1_w=lambda eps: 0.0,
        log_ninf_h=lambda eps, w_l2: 0.0,
    )
    base.update(overrides)
    return RateParameters(**base)


class TestComplexityTerm:
    def test_singleton_floor_is_four(self):
        assert complexity_term(make_params(), 1.0, 0.1) == pytest.approx(4.0)

    def test_uniform_union_with_linear_class_fixture(self):
        # plug-in arithmetic for n=1000, p=2, B=1, uniform weights:
        # 4 + log(n(n+1)/2) + 2 p log(3 B * 32 * n)   [eps_w = (1/n)/32]
        n, p = 1000, 2
        params = make_params(
            n=n,
            cw=1 / math.sqrt(n),
            log_n1_w=class_rate_inputs(WeightFamily.UNIFORM_WINDOW, n)["log_n1_w"],
            log_ninf_h=class_covering(HypothesisClassSpec.linear(1.0), p=p),
        )
        expected = 4.0 + math.log(n * (n + 1) / 2) + 2 * p * math.log(3 * 32 * n)
        assert complexity_term(params, 1.0, 1 / math.sqrt(n)) == pytest.approx(expected, rel=1e-12)

    def test_doubling_weight_cover_adds_log_two(self):
        params = make_params()
        base = complexity_term(params, 1.0, 0.1)
        doubled = make_params(log_n1_w=lambda eps: math.log(2.0))
        assert complexity_term(doubled, 1.0, 0.1) == pytest.approx(base + math.log(2.0))

    def test_nonincreasing_in_weight_norm(self):
        params = make_params(
            log_ninf_h=class_covering(HypothesisClassSpec.linear(1.0), p=3)
        )
        us = np.linspace(0.02, 1.0, 50)
        values = [complexity_term(params, 1.0, float(u)) for u in us]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


class TestClosedFormRates:
    def test_linear_scaling_at_alpha_zero(self):
        # alpha=0: r is linear in u, r(u) = u sqrt(a C log n); with unit
        # scale and unit combined constant at log n = 1 it is the identity,
        # checked here through the exact closed form.
        params = make_params(n=3, cw=0.1)
        rate = closed_form_rate(RateVariant.I, params)
        assert rate(0.2) / rate(0.1) == pytest.approx(2.0)
        expected = 0.1 * math.sqrt(params.c_beta_rho * math.log(3))
        assert rate(0.1) == pytest.approx(expected, rel=1e-12)

    def test_unweighted_square_matches_formula(self):
        params = make_params()
        rate = closed_form_rate(RateVariant.I, params)
        u = 1 / math.sqrt(params.n)
        expected = rate.a * params.c_beta_rho * math.log(params.n) / params.n
        assert rate(u) ** 2 == pytest.approx(expected, rel=1e-12)

    def test_variant_ii_needs_positive_sup_link(self):
        with pytest.raises(RatePreconditionError, match=r"no sup-norm link \(c_inf = 0\)"):
            closed_form_rate(RateVariant.II, make_params(c_inf=0.0))

    def test_variant_i_precondition(self):
        with pytest.raises(RatePreconditionError):
            closed_form_rate(RateVariant.I, make_params(m_beta=100_000, n=100, cw=0.1, k_rho=1.0))

    def test_increasing_and_lipschitz_budget(self):
        params = make_params(alpha=2 / 3, c_inf=1.0)
        for variant in (RateVariant.I, RateVariant.II):
            rate = closed_form_rate(variant, params, a=4.0)
            grid = np.geomspace(params.cw, params.c1, 10_000)
            vals = np.array([rate(float(u)) for u in grid])
            assert np.all(np.diff(vals) > 0)
            lipschitz = float(np.max(np.abs(np.diff(vals)) / np.diff(grid)))
            assert lipschitz <= rate.a**2 * params.n**2
            # r(u) >= u everywhere once the growth condition can hold
            assert np.all(vals >= grid - 1e-12)

    @pytest.mark.parametrize(
        "variant, overrides, error, message",
        [
            (RateVariant.I, {"n": 1}, RateError, "need n >= 2 for a positive log factor"),
            (RateVariant.II, {"n": 100, "k_rho": 200.0, "c_inf": 1.0}, RatePreconditionError,
             "correlation constant exceeds n"),
            (RateVariant.II, {"n": 100, "m_beta": 200, "c_inf": 1.0}, RatePreconditionError,
             "sup-norm dependence constant 200 exceeds n=100"),
        ],
    )
    def test_variant_conditions_on_n(self, variant, overrides, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            closed_form_rate(variant, make_params(**overrides))

    @pytest.mark.parametrize("a", [0.5, math.nan])
    def test_scale_below_one_rejected(self, a):
        with pytest.raises(RateError, match="need a >= 1"):
            closed_form_rate(RateVariant.I, make_params(), a=a)

    def test_domain_enforced(self):
        rate = closed_form_rate(RateVariant.I, make_params())
        with pytest.raises(RateError):
            rate(2.0)


class TestConditionChecks:
    def test_found_scale_passes_everywhere(self):
        params = make_params(
            log_n1_w=class_rate_inputs(WeightFamily.EXPONENTIAL, 10_000)["log_n1_w"],
            log_ninf_h=class_covering(HypothesisClassSpec.linear(1.0), p=2),
            c_inf=math.sqrt(1 / 6),
        )
        rate, slack = find_scale_constant(RateVariant.I, params)
        assert check_rate_conditions(rate).all_pass
        assert slack >= 1.0
        assert rate.a >= 1.0

    def test_zero_rate_fails_everywhere(self):
        params = make_params()
        zero = RateFunction(params, 1.0, ((0.0, 1.0),))
        report = check_rate_conditions(zero)
        assert not report.all_pass
        assert all(not p.growth_ok for p in report.points)

    def test_step_sizing_approximation_condition(self):
        # with q(u) = ceil(u^{-2/3}) and a 1-Lipschitz target, the sup-norm
        # approximation error is below 1/q <= u^{2/3}, so the approximation
        # condition holds once the growth condition does; approx_err is 1/q(u)
        step = class_inputs(HypothesisClassSpec(kind=HypothesisKind.STEP_BASIS))
        params = make_params(
            alpha=2 / 3,
            c_inf=1.0,
            log_ninf_h=step["log_ninf_h"],
            approx_err=step["approx_err"],
        )
        rate, _ = find_scale_constant(RateVariant.I, params)
        report = check_rate_conditions(rate)
        assert report.all_pass
        assert all(p.approx_ok for p in report.points)

    def test_default_grid_shape(self):
        grid = default_condition_grid(make_params())
        assert len(grid) == 256
        assert grid[0] == 0.01 and grid[-1] == 1.0

    def test_duplicate_grid_points_dropped(self):
        # cw = c1 makes every point of the default grid the same norm
        params = make_params(cw=0.5, c1=0.5)
        rate = closed_form_rate(RateVariant.I, params)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = check_rate_conditions(rate)
        assert [p.u for p in report.points] == [0.5]
        assert report.lipschitz_estimate == 0.0

    def test_covering_that_is_not_finite_names_the_norm(self):
        # an unbounded linear class covers with log(inf / eps) = inf pieces from
        # the first grid norm cw = 0.01 on
        unbounded = make_params(log_ninf_h=class_covering(HypothesisClassSpec.linear(math.inf)))
        message = "^covering function undefined at the required scale, u="
        with pytest.raises(RateError, match=message + r"0\.01$"):
            find_scale_constant(RateVariant.I, unbounded)
        first = next(u for u in default_condition_grid(unbounded) if u > 0.5)
        blows_up = make_params(log_ninf_h=lambda eps, u: np.where(u > 0.5, math.inf, 0.0))
        with pytest.raises(RateError, match=message + re.escape(str(first)) + "$"):
            check_rate_conditions(closed_form_rate(RateVariant.I, blows_up))
        # a weight covering that is not finite at the scale of the trial's budget
        with pytest.raises(RateError, match="^covering function undefined at the required scale$"):
            find_scale_constant(RateVariant.I, make_params(log_n1_w=lambda eps: math.inf))

    def test_scale_search_gives_up_after_its_doublings(self):
        # an approximation error no rate reaches at any scale constant
        hopeless = make_params(approx_err=lambda u: 1e100)
        with pytest.raises(RateError, match=f"^no passing scale constant within {DOUBLINGS} doublings$"):
            find_scale_constant(RateVariant.I, hopeless)

    def test_preconditions_checked_before_any_covering(self):
        def forbidden(eps, w_l2):
            raise AssertionError("covering evaluated before the preconditions")

        with pytest.raises(RatePreconditionError):
            find_scale_constant(RateVariant.II, make_params(c_inf=0.0, log_ninf_h=forbidden))


def reference_check(rate):
    """The growth conditions point by point: rate(u), complexity_term, min and **2."""
    params = rate.params
    grid = np.asarray(sorted(default_condition_grid(params)), dtype=float)
    approx = params.approx_err if params.approx_err is not None else (lambda u: 0.0)
    values = np.array([rate(float(u)) for u in grid])
    points, slack = [], math.inf
    for u, r in zip(grid, values):
        kw = complexity_term(params, rate.a, float(u))
        local = min(2.0, params.c_p * r / params.c_inf) if params.c_inf > 0 else 2.0
        dependence = params.c_p**2 * params.k_rho + params.m_beta * params.bw * local
        required_growth = kw * u**2 * dependence
        required_approx = 4.0 * approx(float(u)) ** 2
        r_sq = r**2
        required = max(required_growth, required_approx)
        if required > 0:
            slack = min(slack, r_sq / required)
        points.append(ConditionPoint(
            u=float(u), rate_sq=float(r_sq), required_growth=float(required_growth),
            required_approx=float(required_approx), growth_ok=bool(r_sq >= required_growth),
            approx_ok=bool(r_sq >= required_approx),
        ))
    lipschitz = float(np.max(np.abs(np.diff(values)) / np.diff(grid))) if len(grid) > 1 else 0.0
    return ConditionReport(
        points=tuple(points),
        all_pass=all(p.growth_ok and p.approx_ok for p in points),
        lipschitz_estimate=lipschitz,
        min_slack=float(slack) if math.isfinite(slack) else math.inf,
    )


def reference_scale_constant(variant, params):
    """Double a from 1, re-checking the whole grid point by point at each trial."""
    a = 1.0
    for _ in range(40):
        report = reference_check(closed_form_rate(variant, params, a))
        if report.all_pass:
            return a, report
        a *= 2.0
    raise AssertionError("reference search did not pass")


def oracle_setups():
    """name -> params with real weight and hypothesis coverings."""
    from drifterm.hypotheses import basis_size

    n = 4096
    base = dict(
        n=n,
        cw=1 / math.sqrt(n),
        bw=2.0,
        m_beta=3,
        k_rho=2.5,
        log_n1_w=class_rate_inputs(WeightFamily.EXPONENTIAL, n)["log_n1_w"],
    )
    linear = class_covering(HypothesisClassSpec.linear(1.0), p=2, n=n)
    # the classes' own closures: approx_err is 1/basis_size(u) and u^(2/3)
    step = class_inputs(HypothesisClassSpec(kind=HypothesisKind.STEP_BASIS), n=n)
    relu = class_inputs(HypothesisClassSpec(kind=HypothesisKind.RELU_NET, nu=8, ell=2,
                                            param_bound=1.0), n=n)
    return {
        "linear_c_inf_0": make_params(**base, log_ninf_h=linear),
        "linear_c_inf_pos": make_params(**base, c_inf=math.sqrt(1 / 6), log_ninf_h=linear),
        "step_sized": make_params(**base, alpha=2 / 3, c_inf=1 / math.sqrt(basis_size(1 / 64)),
                                  log_ninf_h=step["log_ninf_h"], approx_err=step["approx_err"]),
        "relu": make_params(**base, alpha=2 / 3, log_ninf_h=relu["log_ninf_h"],
                            approx_err=relu["approx_err"]),
    }


class TestSharedEvaluatorOracle:
    """The array evaluator is byte-equal to the point-by-point reference."""

    @pytest.mark.parametrize(
        "name, variant",
        [(name, variant) for name, params in sorted(oracle_setups().items())
         for variant in (RateVariant.I, RateVariant.II)
         if variant is RateVariant.I or params.c_inf > 0],  # II needs a sup-norm link
    )
    def test_scale_search_matches_reference(self, name, variant):
        params = oracle_setups()[name]
        rate, slack = find_scale_constant(variant, params)
        a, expected = reference_scale_constant(variant, params)
        assert rate.a == a
        assert slack == expected.min_slack
        report = check_rate_conditions(rate)
        assert report.points == expected.points
        assert report.min_slack == expected.min_slack
        assert report.lipschitz_estimate == expected.lipschitz_estimate
        assert report == expected

    @pytest.mark.parametrize("name", sorted(oracle_setups()))
    def test_every_trial_matches_reference(self, name):
        params = oracle_setups()[name]
        passed = []
        for a in (2.0**i for i in range(8)):
            rate = closed_form_rate(RateVariant.I, params, a)
            report = check_rate_conditions(rate)
            assert report == reference_check(rate)
            passed.append(report.all_pass)
        assert not passed[0] and passed[-1]  # failing and passing trials both compared

    def test_custom_rate_matches_reference(self):
        params = oracle_setups()["step_sized"]
        custom = RateFunction(params, 1.0, ((3.0, 0.8), (0.01, 0.0)))  # 3u^0.8 + 0.01
        report = check_rate_conditions(custom)
        assert report == reference_check(custom)


class TestCertificates:
    def test_log_one_over_delta_is_one(self):
        params = make_params()
        rate = closed_form_rate(RateVariant.I, params)
        u = 0.1
        assert bound_certificate(rate, u, math.exp(-1.0)) == pytest.approx(rate(u) ** 2)

    @given(d1=st.floats(0.0, 5.0), d2=st.floats(0.0, 5.0), u=st.floats(0.01, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_affine_in_drift(self, d1, d2, u):
        params = make_params()
        rate = closed_form_rate(RateVariant.I, params)
        c1 = bound_certificate(rate, u, 0.1, d1)
        c2 = bound_certificate(rate, u, 0.1, d2)
        assert c1 + d2 - d1 == pytest.approx(c2, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("delta", [0.0, 1.0])
    def test_delta_outside_the_unit_interval_refused(self, delta):
        rate = closed_form_rate(RateVariant.I, make_params())
        with pytest.raises(RateError, match=r"^delta must be in \(0,1\)$"):
            bound_certificate(rate, 0.1, delta)

    def test_unweighted_scale_proportional_to_log_over_n(self):
        ratios = []
        for n in (1000, 4000, 16000):
            params = make_params(n=n, cw=1 / math.sqrt(n))
            rate = closed_form_rate(RateVariant.I, params)
            cert = bound_certificate(rate, 1 / math.sqrt(n), 0.05)
            ratios.append(cert / (math.log(n) / n))
        assert max(ratios) / min(ratios) == pytest.approx(1.0, rel=1e-9)


class TestVariantDominance:
    def test_polynomial_mixing_regime(self):
        # beta(m) = m^-5 at n = 1e4 gives block length 8; with the
        # exponential-union weight class and a constant-predictor
        # hypothesis class (exact sup-norm link 1), the two-term rate's
        # certificate at the unweighted norm is strictly below the
        # single-term rate's.
        from drifterm.mixing import MixingProfile, m_beta

        n = 10_000
        prof = MixingProfile(beta=lambda k: k**-5.0 if k >= 1 else 1.0)
        mb = m_beta(prof, n, 0.05)
        assert mb == (8, True)
        params = make_params(
            cw=1 / math.sqrt(n),
            bw=2.0,
            m_beta=mb.m,
            c_inf=1.0,
            log_n1_w=class_rate_inputs(WeightFamily.EXPONENTIAL, n)["log_n1_w"],
            log_ninf_h=class_covering(HypothesisClassSpec.step(1, 1.0)),
        )
        rate_i, _ = find_scale_constant(RateVariant.I, params)
        rate_ii, _ = find_scale_constant(RateVariant.II, params)
        u = 1 / math.sqrt(n)
        assert bound_certificate(rate_ii, u, 0.05) < bound_certificate(rate_i, u, 0.05)


class TestParameterValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            {"k_rho": 0.5},
            {"alpha": 2.0},
            {"c_p": 0.5},
            {"cw": 0.0},
            {"cw": 2.0},
            {"m_beta": 0},
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(RateError):
            make_params(**bad)


def test_rates_imports_no_drifterm_module():
    # rates is plain numeric evaluation: each weight or hypothesis fact it
    # uses comes in through RateParameters, never by import.
    import drifterm.rates

    tree = ast.parse(Path(drifterm.rates.__file__).read_text(encoding="utf-8"))
    imported = {
        "." * node.level + (node.module or "") if isinstance(node, ast.ImportFrom) else alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert "numpy" in imported  # the walk sees the module's imports
    assert {m for m in imported if m.startswith(".") or m.split(".")[0] == "drifterm"} == set()
