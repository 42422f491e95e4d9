import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import regime_extract as rx
from regime_extract.errors import (AssumptionViolated, CostNotConvex,
                                   CrossCheckFailed, NonPositiveParameter,
                                   OutOfRange)

from conftest import A_KW, FEASIBLE_BOXES, box_midpoint, draw_valid


EXP_COST = rx.CostFunction.exponential(1/3)


def test_validate_accepts_example_set(params_a):
    assert params_a.rho == pytest.approx(1/3)
    assert params_a.cost.kind == "exponential"


def test_validate_rejects_zero_rho():
    with pytest.raises(NonPositiveParameter) as exc:
        rx.validate(**{**A_KW, "rho": 0.0}, cost=EXP_COST)
    assert exc.value.field == "rho"


@pytest.mark.parametrize("field", ["rho", "sigma1", "sigma2", "lambda1",
                                   "lambda2", "c"])
def test_validate_rejects_each_nonpositive_field(field):
    with pytest.raises(NonPositiveParameter) as exc:
        rx.validate(**{**A_KW, field: -1.0}, cost=EXP_COST)
    assert exc.value.field == field


def test_negative_quadratic_cost_not_convex():
    with pytest.raises(CostNotConvex):
        rx.CostFunction.quadratic(-1.0, 1.0)


def test_custom_cost_checked_on_grid():
    ok = rx.CostFunction.custom(f=lambda y: y**4 + y, fprime=lambda y: 4*y**3 + 1)
    assert ok.value(0.0) == 0.0
    # f' = 1 + y^6 is flat in floating point near 0: a sampled f'' > 0
    # would refuse it, the slack and f'(1) > f'(0) do not
    rx.CostFunction.custom(f=lambda y: y**7/7 + y, fprime=lambda y: 1 + y**6)
    with pytest.raises(CostNotConvex):
        rx.CostFunction.custom(f=lambda y: math.sin(y), fprime=math.cos)
    with pytest.raises(CostNotConvex):  # f(0) != 0
        rx.CostFunction.custom(f=lambda y: y + 1.0, fprime=lambda y: 1.0)


@pytest.mark.parametrize("kw", [
    dict(kind="custom", f=lambda y: y + 1.0, fprime=lambda y: 1.0 + 0.0*y),
    dict(kind="custom", f=lambda y: -y*y, fprime=lambda y: -2.0*y),
    dict(kind="custom", f=lambda y: y),
    dict(kind="custom", f=lambda y: y, fprime=lambda y: 1.0 + 0.0*y),
    dict(kind="custom", f=lambda y: 2.0*y, fprime=lambda y: 2.0 + 0.0*y),
    dict(kind="exponential", gamma=-1.0),
    dict(kind="exponential", gamma=math.inf),
    dict(kind="quadratic", alpha=1.0),
    dict(kind="cubic", gamma=1.0),
], ids=["f0_nonzero", "fprime_negative", "no_fprime", "linear", "linear_2y",
        "gamma_negative", "gamma_inf", "beta_missing", "unknown_kind"])
def test_directly_built_cost_checked(kw):
    # every construction path is checked, not only the factories
    with pytest.raises(CostNotConvex):
        rx.validate(**A_KW, cost=rx.CostFunction(**kw))


def test_custom_cost_derivative_inverse_round_trip():
    cost = rx.CostFunction.custom(f=lambda y: y**4 + y, fprime=lambda y: 4*y**3 + 1)
    y = cost.derivative_inverse(cost.derivative(0.37))
    assert y == pytest.approx(0.37, abs=1e-10)


def test_from_derivative_inverts_custom_cost_once():
    calls = [0]

    def fprime(y):
        calls[0] += 1
        return 4*y**3 + 1

    cost = rx.CostFunction.custom(f=lambda y: y**4 + y, fprime=fprime)
    fp = np.array([1.1, 2.5, 4.0])
    calls[0] = 0
    y = cost.derivative_inverse(fp)
    one_inversion = calls[0]
    calls[0] = 0
    y2, fy, fp2 = cost.from_derivative(fp)
    assert calls[0] == one_inversion
    assert np.array_equal(y2, y) and np.array_equal(fy, cost.value(y))
    assert np.array_equal(fp2, fp)   # inside [f'(0), f'(1)]: as given
    for built_in in (rx.CostFunction.exponential(0.4),
                     rx.CostFunction.quadratic(0.3, 0.5)):
        fp = built_in.derivative(np.array([0.0, 0.3, 1.0]))
        y, fy, _ = built_in.from_derivative(fp)
        assert np.allclose(y, [0.0, 0.3, 1.0], atol=1e-14)
        assert np.allclose(fy, built_in.value(y), rtol=1e-14, atol=1e-15)


def test_cost_inverse_stays_in_the_unit_interval():
    # at f'(1) the quadratic closed form gave 1.0000000000000002 for about
    # a third of these costs, and f was taken at the unclipped input
    rng = np.random.default_rng(5)
    for alpha in rng.uniform(0.1, 0.3, 2000):
        cost = rx.CostFunction.quadratic(alpha, 1/3)
        top = cost.derivative(1.0)
        assert 0.0 <= cost.derivative_inverse(top) <= 1.0
        assert cost.derivative_inverse(np.array([top, 2.0*top]))[1] <= 1.0
    # the f' returned is the clipped one, f'(0) and f'(1) here
    y, fy, fp = rx.CostFunction.quadratic(0.2, 1/3).from_derivative(0.0)
    assert (y, fy, fp) == (0.0, 0.0, 1/3)
    exp_cost = rx.CostFunction.exponential(1/3)
    y, fy, fp = exp_cost.from_derivative(10.0)
    assert y == 1.0 and fy == pytest.approx(exp_cost.value(1.0), rel=1e-15)
    assert fp == exp_cost.derivative(1.0)


def test_cost_inverse_of_the_top_marginal_cost_is_exactly_one():
    # f'(1) inverted to 0.9999999999999998 for exponential(0.81) and to
    # 0.9999999999999999 for quadratic(0.25, 1/3), so the b = 1 plateau of
    # b_star and b_sharp read below 1 and compare_boundaries took it for
    # an interior level
    rng = np.random.default_rng(5)
    costs = ([rx.CostFunction.exponential(g) for g in np.arange(1, 500)/100]
             + [rx.CostFunction.quadratic(a, 1/3)
                for a in [0.25, *rng.uniform(0.1, 0.3, 500)]])
    for cost in costs:
        top = cost.derivative(1.0)
        assert cost.derivative_inverse(top) == 1.0, cost
        assert cost.from_derivative(top)[0] == 1.0, cost
        assert cost.derivative_inverse(np.array([top, 2.0*top])).tolist() \
            == [1.0, 1.0], cost


@pytest.mark.parametrize("field,value", [("rho", -1.0), ("sigma2", 0.0),
                                         ("c", math.nan), ("lambda1", math.inf)])
def test_model_params_checked_on_direct_construction(field, value):
    # a negative rho ended check_assumptions and solve_z in ZeroDivisionError
    kw = dict(A_KW, cost=EXP_COST)
    with pytest.raises(NonPositiveParameter) as exc:
        rx.ModelParams(**{**kw, field: value})
    assert exc.value.field == field
    with pytest.raises(NonPositiveParameter):
        dataclasses.replace(rx.ModelParams(**kw), **{field: value})


def test_model_params_need_a_cost_function():
    # "notacost" was accepted and solved
    with pytest.raises(CostNotConvex):
        rx.ModelParams(**A_KW, cost="notacost")
    assert rx.ModelParams(**A_KW, cost=EXP_COST) == \
        rx.validate(**A_KW, cost=EXP_COST)


def test_phi_at_zero_is_rho_plus_lambda(params_a):
    assert rx.phi(params_a, 1, 0.0) == pytest.approx(1/3 + 1.7)
    assert rx.phi(params_a, 2, 0.0) == pytest.approx(1/3 + 0.44)


def test_phi_product_at_quartic_root(params_a, roots_a):
    # hand value near 0.4722 and the defining quartic identity
    assert rx.phi(params_a, 1, roots_a.alpha3) == pytest.approx(2.0172, abs=2e-4)
    prod = rx.phi(params_a, 1, roots_a.alpha3)*rx.phi(params_a, 2, roots_a.alpha3)
    assert prod == pytest.approx(1.7*0.44, abs=1e-12)


@given(st.floats(-8, 8), st.sampled_from([1, 2]))
@settings(max_examples=60, deadline=None)
def test_phi_even_and_decreasing_in_magnitude(alpha, i):
    p = rx.validate(**A_KW, cost=EXP_COST)
    assert rx.phi(p, i, alpha) == pytest.approx(rx.phi(p, i, -alpha), rel=1e-12)
    if abs(alpha) > 1e-6:
        assert rx.phi(p, i, 1.5*alpha) < rx.phi(p, i, alpha) + 1e-15


def test_chat_example_values(params_a):
    assert rx.chat(params_a, 0.0) == pytest.approx(-0.5, abs=1e-14)
    assert rx.chat(params_a, 1.0) == pytest.approx(0.5 - math.e, abs=1e-14)


def test_chat_zero_crossing():
    # f'(y*) = rho*c happens inside [0,1] when gamma < rho*c < gamma*e
    p = rx.validate(rho=1.0, sigma1=0.5, sigma2=1.0, lambda1=1.0, lambda2=1.0,
                    c=0.5, cost=rx.CostFunction.exponential(0.4))
    ystar = math.log(p.rho*p.c/0.4)
    assert rx.chat(p, ystar) == pytest.approx(0.0, abs=1e-14)


def test_chat_strictly_decreasing_on_grid(params_a, params_b):
    ys = np.linspace(0.0, 1.0, 1000)
    for p in (params_a, params_b):
        vals = rx.chat(p, ys)
        assert np.all(np.diff(vals) < 0.0)


def test_chat_bound_by_cost_slope(params_a):
    ys = np.linspace(0.0, 1.0, 1000)
    bound = params_a.c + params_a.cost.derivative(1.0)/params_a.rho
    assert np.all(np.abs(rx.chat(params_a, ys)) <= bound)


def test_chat_rejects_out_of_range(params_a):
    with pytest.raises(OutOfRange):
        rx.chat(params_a, 1.5)


def test_assumptions_pass_for_example_set(params_a):
    rep = rx.check_assumptions(params_a)
    assert rep.all_ok and not rep.case_b
    # hand-checked magnitudes of the condition left-hand sides
    assert rep.values["alpha5"] == pytest.approx(0.65455, abs=1e-5)
    assert rep.values["lhs2"] == pytest.approx(-0.2134, abs=1e-4)
    assert rep.values["lhs3"] == pytest.approx(0.1443, abs=1e-4)
    assert rep.values["a5_cap"] == pytest.approx((1/3)/0.44, rel=1e-12)


@pytest.mark.parametrize("box", FEASIBLE_BOXES)
def test_assumptions_pass_at_box_midpoints(box):
    p = rx.validate(*box_midpoint(box), c=0.5, cost=EXP_COST)
    rep = rx.check_assumptions(p)
    assert rep.solvable_case_a and rep.lemma_signs


def test_equal_volatility_bypasses_flags(params_b):
    rep = rx.check_assumptions(params_b)
    assert rep.case_b and rep.all_ok


def test_eps_margin_rejects_borderline(params_a):
    # enormous eps turns the strict conditions false deterministically
    rep = rx.check_assumptions(params_a, eps=10.0)
    assert not rep.all_ok and not rep.cond2


@pytest.mark.parametrize("eps", [-0.05, -math.inf, math.inf, math.nan])
def test_eps_must_be_finite_and_nonnegative(eps):
    # lhs2 = +0.047 fails cond2; eps = -0.05 turned that into all_ok, so
    # check passed a set that solve refuses, and a NaN eps failed the signs
    p = rx.validate(1.0377812932341557, 0.01501586294833012,
                    1.9406950648487529, 1.104868957215787,
                    0.13938151551701863, 1.0, rx.CostFunction.exponential(1.0))
    rep = rx.check_assumptions(p)
    assert rep.values["lhs2"] == pytest.approx(0.047, abs=1e-3)
    assert not rep.all_ok and not rep.cond2
    with pytest.raises(AssumptionViolated):
        rx.solve_z(p)
    with pytest.raises(OutOfRange):
        rx.check_assumptions(p, eps=eps)


def test_feasibility_scan_matches_scalar_checks():
    s1 = np.linspace(0.01, 0.06, 7)
    s2 = np.linspace(0.5, 1.2, 7)
    feas, caseb = rx.feasibility_scan(0.03, 0.017, 0.016, s1, s2)
    assert not caseb.any()
    for j2 in range(0, 7, 3):
        for j1 in range(0, 7, 3):
            p = rx.validate(0.03, s1[j1], s2[j2], 0.017, 0.016, 0.5, EXP_COST)
            assert feas[j2, j1] == rx.check_assumptions(p).solvable_case_a


def test_feasibility_scan_marks_equal_volatility():
    grid = np.array([0.5, 0.7])
    feas, caseb = rx.feasibility_scan(0.3, 1.0, 1.0, grid, grid)
    assert caseb[0, 0] and caseb[1, 1]
    assert not feas[0, 0] and not feas[1, 1]


def test_config_parsing_round_trip(tmp_path):
    cfg = {"rho": 0.5, "sigma1": 1.0, "sigma2": 1.0, "lambda1": 1.0,
           "lambda2": 1.0, "c": 1.0,
           "cost": {"type": "quad", "alpha": 1.0, "beta": 1.0}}
    p = rx.params_from_config(cfg)
    assert p.cost.kind == "quadratic"
    cfg["cost"] = {"type": "exp", "gamma": 0.25}
    assert rx.params_from_config(cfg).cost.gamma == 0.25
    cfg["cost"] = {"type": "bogus"}
    with pytest.raises(CostNotConvex):
        rx.params_from_config(cfg)


# ---------------------------------------------------------------------------
# characteristic roots and the smooth-fit constants a1..a4

def quartic_oracle(p):
    """Independent root finder: numpy companion-matrix roots of the full
    quartic in alpha (no even-reduction)."""
    p1, p2 = p.rho + p.lambda1, p.rho + p.lambda2
    ao = 0.25*p.sigma1**2*p.sigma2**2
    bo = -0.5*(p.sigma1**2*p2 + p.sigma2**2*p1)
    co = p1*p2 - p.lambda1*p.lambda2
    rr = np.sort(np.roots([ao, 0.0, bo, 0.0, co]).real)
    return rr


# frozen from the oracle at the example parameter set
ALPHA3_A = 0.4722365175654521
ALPHA4_A = 5.326156562976988
ALPHA5_A = 0.6545529160062327
A1_A = -0.8718662111384478


def test_example_roots_match_oracle(params_a, roots_a):
    rr = quartic_oracle(params_a)
    assert -roots_a.alpha4 == pytest.approx(rr[0], rel=1e-12)
    assert -roots_a.alpha3 == pytest.approx(rr[1], rel=1e-12)
    assert roots_a.alpha3 == pytest.approx(ALPHA3_A, rel=1e-12)
    assert roots_a.alpha4 == pytest.approx(ALPHA4_A, rel=1e-12)
    assert roots_a.alpha5 == pytest.approx(ALPHA5_A, rel=1e-12)


def test_root_ordering_and_symmetry(roots_a):
    rt = roots_a
    assert isinstance(rt, rx.Characteristic)
    assert all(type(val) is float for val in rt)
    assert 0.0 < rt.alpha3 < rt.alpha4
    assert rt.alpha3 == np.sqrt(rt.beta2)
    assert rt.alpha4 == np.sqrt(rt.beta1)


def test_quartic_residuals_scaled(params_a, roots_a):
    scale = (params_a.rho + params_a.lambda1)*(params_a.rho + params_a.lambda2)
    for a in (-roots_a.alpha4, -roots_a.alpha3, roots_a.alpha3,
              roots_a.alpha4):
        res = rx.phi(params_a, 1, a)*rx.phi(params_a, 2, a) \
            - params_a.lambda1*params_a.lambda2
        assert abs(res) <= 1e-10*scale


def test_vieta_identities(params_a, roots_a):
    p1 = params_a.rho + params_a.lambda1
    p2 = params_a.rho + params_a.lambda2
    ao = 0.25*params_a.sigma1**2*params_a.sigma2**2
    bo = -0.5*(params_a.sigma1**2*p2 + params_a.sigma2**2*p1)
    co = p1*p2 - params_a.lambda1*params_a.lambda2
    assert roots_a.beta1*roots_a.beta2 == pytest.approx(co/ao, rel=1e-10)
    assert roots_a.beta1 + roots_a.beta2 == pytest.approx(-bo/ao, rel=1e-10)
    vieta = 2.0*(params_a.sigma1**2*p2 + params_a.sigma2**2*p1)/(
        params_a.sigma1**2*params_a.sigma2**2)
    assert roots_a.alpha3**2 + roots_a.alpha4**2 == pytest.approx(
        vieta, rel=1e-10)


def test_equal_volatility_special_roots():
    sigma, rho, l1, l2 = 1.0, 0.5, 1.0, 2.0
    p = rx.validate(rho, sigma, sigma, l1, l2, 1.0,
                    rx.CostFunction.quadratic(1.0, 1.0))
    rt = rx.solve_characteristic(p)
    assert rt.alpha3**2 == pytest.approx(2*rho/sigma**2, rel=1e-12)
    assert rt.alpha4**2 == pytest.approx(2*(rho + l1 + l2)/sigma**2, rel=1e-12)


def test_a1_value_and_signs(params_a, roots_a):
    assert roots_a.a1 == pytest.approx(A1_A, rel=1e-12)
    assert roots_a.a1 == pytest.approx(-0.8719, abs=1e-4)
    assert roots_a.a1 < 0.0 < roots_a.a2 and roots_a.a3 < 0.0 < roots_a.a4
    assert rx.check_assumptions(params_a).lemma_signs


def test_a2_closed_form(params_a, roots_a):
    expected = (rx.phi(params_a, 1, roots_a.alpha3)
                - rx.phi(params_a, 1, roots_a.alpha4))/(
        params_a.lambda1*(roots_a.alpha4 - roots_a.alpha3))
    assert expected > 0
    assert roots_a.a2 == pytest.approx(expected, rel=1e-12)


def test_sign_lemma_on_feasible_row():
    p = rx.validate(0.026, 0.039, 0.645, 0.435, 0.043, 0.5,
                    rx.CostFunction.exponential(1/3))
    rt = rx.solve_characteristic(p)
    assert rt.a1 < 0.0 < rt.a2 and rt.a3 < 0.0 < rt.a4
    assert rx.check_assumptions(p).lemma_signs


def test_a4_lower_bound_chain(params_a, roots_a):
    lower = (0.5*params_a.sigma1**2*(roots_a.alpha3**2 + roots_a.alpha4**2)
             - (params_a.rho + params_a.lambda1))/params_a.lambda1
    assert roots_a.a4 > lower > 0.0


def test_a1_cross_check_rejects_mismatched_roots(params_a, monkeypatch):
    # an a1 off the Vieta form sqrt(c_o/a_o) of alpha3 alpha4 is refused
    real = rx.model.characteristic

    def skewed(*args):
        k = real(*args)
        return k._replace(a1=k.a1*(1.0 + 1e-6))

    monkeypatch.setattr(rx.model, "characteristic", skewed)
    with pytest.raises(CrossCheckFailed):
        rx.solve_characteristic(params_a)


@given(st.integers(0, 10_000))
@example(3871)  # alpha4 ~ 79: failed the residual gate when it was unscaled
@settings(max_examples=80, deadline=None)
def test_random_params_roots_and_signs(seed):
    rng = np.random.default_rng(seed)
    p = draw_valid(rng)
    rt = rx.solve_characteristic(p)
    rr = quartic_oracle(p)
    assert rt.alpha3 == pytest.approx(rr[2], rel=1e-9)
    assert rt.alpha4 == pytest.approx(rr[3], rel=1e-9)
    assert rt.a1 < 0.0 < rt.a2 and rt.a3 < 0.0 < rt.a4
    assert rx.check_assumptions(p).lemma_signs
    a1_alt = (-(0.5*p.sigma1**2*rt.alpha3*rt.alpha4 + p.rho + p.lambda1)
              / p.lambda1 + p.rho/(p.rho + p.lambda2))
    assert rt.a1 == pytest.approx(a1_alt, rel=1e-9)
