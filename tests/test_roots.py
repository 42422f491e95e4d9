import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import regime_extract as rx
from regime_extract.errors import CrossCheckFailed

from conftest import draw_valid


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
    assert roots_a.alpha1 == pytest.approx(rr[0], rel=1e-12)
    assert roots_a.alpha2 == pytest.approx(rr[1], rel=1e-12)
    assert roots_a.alpha3 == pytest.approx(ALPHA3_A, rel=1e-12)
    assert roots_a.alpha4 == pytest.approx(ALPHA4_A, rel=1e-12)
    assert roots_a.alpha5 == pytest.approx(ALPHA5_A, rel=1e-12)


def test_root_ordering_and_symmetry(roots_a):
    rt = roots_a
    assert rt.alpha1 < rt.alpha2 < 0.0 < rt.alpha3 < rt.alpha4
    assert rt.alpha1 == -rt.alpha4 and rt.alpha2 == -rt.alpha3
    assert rt.alpha3 == np.sqrt(rt.beta2)
    assert rt.alpha4 == np.sqrt(rt.beta1)


def test_quartic_residuals_scaled(params_a, roots_a):
    scale = (params_a.rho + params_a.lambda1)*(params_a.rho + params_a.lambda2)
    for a in (roots_a.alpha1, roots_a.alpha2, roots_a.alpha3, roots_a.alpha4):
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


def test_a1_value_and_signs(roots_a):
    assert roots_a.a1 == pytest.approx(A1_A, rel=1e-12)
    assert roots_a.a1 == pytest.approx(-0.8719, abs=1e-4)
    assert rx.check_sign_lemma(roots_a)


def test_a2_closed_form(params_a, roots_a):
    expected = (rx.phi(params_a, 1, roots_a.alpha3)
                - rx.phi(params_a, 1, roots_a.alpha4))/(
        params_a.lambda1*(roots_a.alpha4 - roots_a.alpha3))
    assert expected > 0
    assert roots_a.a2 == pytest.approx(expected, rel=1e-12)


def test_sign_lemma_on_feasible_row():
    p = rx.validate(0.026, 0.039, 0.645, 0.435, 0.043, 0.5,
                    rx.CostFunction.exponential(1/3))
    assert rx.check_sign_lemma(rx.solve_characteristic(p))


def test_a4_lower_bound_chain(params_a, roots_a):
    lower = (0.5*params_a.sigma1**2*(roots_a.alpha3**2 + roots_a.alpha4**2)
             - (params_a.rho + params_a.lambda1))/params_a.lambda1
    assert roots_a.a4 > lower > 0.0


def test_a1_cross_check_rejects_mismatched_roots(params_a, monkeypatch):
    # an a1 off the Vieta form sqrt(c_o/a_o) of alpha3 alpha4 is refused
    real = rx.roots.characteristic

    def skewed(*args):
        k = real(*args)
        return k._replace(a1=k.a1*(1.0 + 1e-6))

    monkeypatch.setattr(rx.roots, "characteristic", skewed)
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
    assert rx.check_sign_lemma(rt)
    a1_alt = (-(0.5*p.sigma1**2*rt.alpha3*rt.alpha4 + p.rho + p.lambda1)
              / p.lambda1 + p.rho/(p.rho + p.lambda2))
    assert rt.a1 == pytest.approx(a1_alt, rel=1e-9)
