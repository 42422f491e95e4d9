import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import integrate

import regime_extract as rx
from regime_extract import control
from regime_extract.errors import (OrderingViolated, OutOfRange,
                                   PreconditionViolated, VerificationFailed)
from regime_extract.model import chat

from conftest import FEASIBLE_BOXES, box_midpoint, draw_from_boxes
from fault_hooks import perturb_u, perturbed


def test_b_star_clamps(cs_a, sol_a):
    for i in (1, 2):
        lo = rx.x_star(sol_a, i, 1.0)
        hi = rx.x_star(sol_a, i, 0.0)
        assert rx.b_star(cs_a, i, lo - 0.7) == 1.0
        assert rx.b_star(cs_a, i, hi + 0.7) == 0.0


def test_b_star_round_trip(cs_a, sol_a):
    for i in (1, 2):
        x = rx.x_star(sol_a, i, 0.37)
        assert rx.b_star(cs_a, i, x) == pytest.approx(0.37, abs=1e-10)
    ys = np.linspace(0.01, 0.99, 25)
    for i in (1, 2):
        back = rx.b_star(cs_a, i, rx.x_star(sol_a, i, ys))
        assert np.allclose(back, ys, atol=1e-10)


def test_b_star_monotone_and_ordered(cs_a):
    xs = np.linspace(-6.0, 4.0, 800)
    b1 = rx.b_star(cs_a, 1, xs)
    b2 = rx.b_star(cs_a, 2, xs)
    assert np.all(np.diff(b1) <= 1e-14)
    assert np.all(np.diff(b2) <= 1e-14)
    assert np.all(b1 <= b2 + 1e-14)


def test_value_zero_at_empty_reserve(cs_a):
    for x in (-3.0, 0.2, 5.0):
        for i in (1, 2):
            assert rx.U(cs_a, x, 0.0, i) == 0.0


def test_value_rejects_bad_reserve(cs_a):
    with pytest.raises(OutOfRange):
        rx.U(cs_a, 0.0, 1.2, 1)


# one regime rule (an integer 1 or 2, not a bool) for every entry point:
# U_report, w and phi took 1.0 and True as regimes 1
@pytest.mark.parametrize("regime", [1.0, True, np.float64(2.0), 3],
                         ids=["float", "bool", "numpy-float", "three"])
@pytest.mark.parametrize("call", [
    lambda cs, i: rx.U_report(cs, 0.6, 0.5, i),
    lambda cs, i: rx.U(cs, 0.6, 0.5, i),
    lambda cs, i: rx.w(cs.stopping, 0.6, i, 0.5),
    lambda cs, i: rx.x_star(cs.stopping, i, 0.5),
    lambda cs, i: rx.b_star(cs, i, 0.6),
    lambda cs, i: rx.phi(cs.params, i, 1.0),
], ids=["U_report", "U", "w", "x_star", "b_star", "phi"])
def test_regime_rule(cs_a, call, regime):
    with pytest.raises(OutOfRange, match="regime"):
        call(cs_a, regime)


def test_regime_rule_takes_numpy_integers(cs_a):
    assert rx.U_report(cs_a, 0.6, 0.5, np.int64(2)) == \
        rx.U_report(cs_a, 0.6, 0.5, 2)
    assert rx.phi(cs_a.params, np.int8(1), 1.0) == rx.phi(cs_a.params, 1, 1.0)


def _exp_twin(cs):
    """cs with its exponential cost written as a custom cost."""
    cost = cs.params.cost
    return rx.solve_control(dataclasses.replace(
        cs.params, cost=rx.CostFunction.custom(cost.value, cost.derivative)))


NAN, INF = math.nan, math.inf


# b_star(cs, 1, nan) returned NaN, and its custom twin bisected its way to
# 0.9999999999999964; compare_boundaries reported NaN or empty tables as
# passes
@pytest.mark.parametrize("call", [
    lambda cs: rx.b_star(cs, 1, NAN),
    lambda cs: rx.b_star(_exp_twin(cs), 1, NAN),
    lambda cs: rx.b_star(cs, 2, np.array([0.1, INF])),
    lambda cs: rx.b_sharp(cs.params, cs.params.sigma1, -INF),
    lambda cs: rx.w(cs.stopping, NAN, 1, 0.5),
    lambda cs: rx.w_x(cs.stopping, np.array([0.2, NAN]), 2, 0.5),
    lambda cs: rx.w_xx(cs.stopping, INF, 2, 0.5, 1),
    lambda cs: rx.v(cs.stopping, NAN, 2, 0.3),
    lambda cs: rx.compare_boundaries(cs, x_range=(NAN, 1.0)),
    lambda cs: rx.compare_boundaries(cs, x_range=(0.0, INF)),
    lambda cs: rx.compare_boundaries(cs, n=0),
], ids=["b_star", "b_star_custom", "b_star_array", "b_sharp", "w", "w_x",
        "w_xx", "v", "compare_nan", "compare_inf", "compare_n0"])
def test_non_finite_prices_are_out_of_range(cs_a, call):
    with pytest.raises(OutOfRange):
        call(cs_a)


@pytest.fixture(scope="module")
def cs_c(params_a):
    cs = rx.solve_control(params_a.swapped())
    assert cs.stopping.case == "C_relabeled"
    return cs


ORACLE_STATES = [(0.6, 0.5, 2), (-1.5, 0.75, 1), (1.2, 0.3, 2), (0.1, 1.0, 1),
                 (-0.4, 0.9, 2), (-3.0, 0.6, 1)]


def test_value_against_quadrature_oracle(cs_a, cs_b, cs_c):
    """scipy.integrate.quad over v, w_x and w_xx, split at the boundary
    inverses, is the independent route for U, U_x and U_xx."""
    for cs in (cs_a, cs_b, cs_c):
        sol = cs.stopping
        integrands = ((rx.U, lambda x, i, z: rx.v(sol, x, i, z)),
                      (rx.U_x, lambda x, i, z: rx.w_x(sol, x, i, z)),
                      (rx.U_xx, lambda x, i, z: rx.w_xx(sol, x, i, z)))
        for (x, y, i) in ORACLE_STATES:
            pts = sorted({rx.b_star(cs, 1, x), rx.b_star(cs, 2, x)})
            for value, integrand in integrands:
                oracle, err = integrate.quad(
                    lambda z: integrand(x, i, z), 0.0, y, epsabs=1e-12,
                    limit=200, points=[p for p in pts if p < y])
                assert err < 1e-9
                assert value(cs, x, y, i) == pytest.approx(oracle, abs=5e-9)


@pytest.mark.parametrize("case", ["A", "B", "C_relabeled"])
def test_array_call_equals_scalar_calls(case, cs_a, cs_b, cs_c):
    cs = {"A": cs_a, "B": cs_b, "C_relabeled": cs_c}[case]
    rng = np.random.default_rng(11)
    xs = rng.uniform(-8.0, 4.0, 60)
    ys = rng.uniform(0.0, 1.0, 60)
    ys[:3] = (0.0, 1.0, 0.0)
    for value in (rx.U, rx.U_x, rx.U_xx):
        for i in (1, 2):
            arr = value(cs, xs, ys, i)
            assert arr.shape == xs.shape
            one = np.array([value(cs, float(x), float(y), i)
                            for x, y in zip(xs, ys)])
            assert np.array_equal(arr, one)
    # broadcasting: one price against a reserve vector, grid shapes kept
    grid = rx.U(cs, xs[:4, None], ys[None, :5], 2)
    assert grid.shape == (4, 5)
    assert grid[2, 3] == rx.U(cs, float(xs[2]), float(ys[3]), 2)
    assert isinstance(rx.U(cs, 0.3, 0.4, 1), float)


@pytest.mark.parametrize("bad", [(math.nan, 0.5), (math.inf, 0.5),
                                 (0.3, math.nan), (-math.inf, 1.0)])
def test_value_rejects_non_finite_state(cs_a, bad):
    x, y = bad
    for value in (rx.U, rx.U_x, rx.U_xx, rx.U_report):
        with pytest.raises(OutOfRange):
            value(cs_a, x, y, 1)
        with pytest.raises(OutOfRange):
            value(cs_a, np.array([0.1, x]), np.array([0.5, y]), 2)


def test_uy_identity(cs_a, sol_a, rng):
    for _ in range(100):
        x = rng.uniform(-8.0, 4.0)
        y = rng.uniform(0.0, 1.0)
        i = int(rng.integers(1, 3))
        rep = rx.U_report(cs_a, x, y, i)
        assert abs(rep.Uy - rx.v(sol_a, x, i, y)) <= 1e-12


def test_ux_uxx_against_finite_differences(cs_a):
    h = 1e-5
    for (x, y, i) in [(0.3, 0.6, 1), (-1.0, 0.9, 2)]:
        ux_fd = (rx.U(cs_a, x + h, y, i) - rx.U(cs_a, x - h, y, i))/(2*h)
        uxx_fd = (rx.U(cs_a, x + h, y, i) - 2*rx.U(cs_a, x, y, i)
                  + rx.U(cs_a, x - h, y, i))/h**2
        assert rx.U_x(cs_a, x, y, i) == pytest.approx(ux_fd, abs=1e-7)
        assert rx.U_xx(cs_a, x, y, i) == pytest.approx(uxx_fd, abs=1e-4)


def test_uxx_has_no_contribution_above_second_boundary(cs_a):
    x = 0.4
    b2 = rx.b_star(cs_a, 2, x)
    assert 0.0 < b2 < 1.0
    for i in (1, 2):
        assert rx.U_xx(cs_a, x, 1.0, i) == pytest.approx(
            rx.U_xx(cs_a, x, b2, i), abs=1e-10)


def test_value_concave_in_reserve(cs_a):
    ys = np.linspace(0.0, 1.0, 101)
    for x in (-2.0, 0.3, 1.5):
        for i in (1, 2):
            u = np.array([rx.U(cs_a, x, float(y), i) for y in ys])
            assert np.all(np.diff(u, 2) <= 1e-8)


def test_gradient_constraint(cs_a, sol_a):
    xs = np.linspace(-8.0, 4.0, 60)
    ys = np.linspace(0.02, 1.0, 25)
    c = cs_a.params.c
    for i in (1, 2):
        for y in ys:
            uy = rx.v(sol_a, xs, i, float(y))
            assert np.all(uy >= xs - c - 1e-9)


def test_derivative_bounds_fitted_once(cs_a):
    # |U| + |Uy| <= C (1+|x|) and |Ux| + |Uxx| <= kappa; constants frozen
    C, kappa = 3.5, 2.5
    for x in np.linspace(-20.0, 20.0, 41):
        for (y, i) in [(0.3, 1), (1.0, 2)]:
            rep = rx.U_report(cs_a, float(x), y, i)
            assert abs(rep.U) + abs(rep.Uy) <= C*(1 + abs(x))
            assert abs(rep.Ux) + abs(rep.Uxx) <= kappa


def test_hjb_residual_small_at_interior_state(cs_a):
    rep = rx.U_report(cs_a, 0.6, 0.5, 2)
    assert abs(rep.hjb_residual) <= 1e-5


def test_uy_equals_payoff_slope_in_action_region(cs_a, sol_a):
    y = 0.5
    x = rx.x_star(sol_a, 2, y) + 1.0  # deep in the selling region
    c = cs_a.params.c
    for i in (1, 2):
        rep = rx.U_report(cs_a, x, y, i)
        assert rep.Uy == pytest.approx(x - c, abs=1e-9)


def test_verify_hjb_small_grid(cs_a):
    rep = rx.verify_hjb(cs_a, nx=50, ny=10)
    assert rep.worst_max_abs <= 1e-5


def test_verify_hjb_case_b(cs_b):
    rep = rx.verify_hjb(cs_b, nx=40, ny=10)
    assert rep.worst_max_abs <= 1e-5


def test_u_memory_per_state(cs_a):
    # the memory that MAX_U_STATES's comment and the README state: near
    # 470 B a state at most for the exponential cost, on a tensor grid,
    # whose Ei arguments repeat, and on distinct states alike
    n = 131_072
    rng = np.random.default_rng(0)
    states = ((np.linspace(-6.0, 4.0, 2048)[:, None],
               np.linspace(0.0, 1.0, 64)),
              (rng.uniform(-6.0, 4.0, n), rng.uniform(0.0, 1.0, n)))
    rx.U(cs_a, 0.2, 0.5, 2)
    for x, y in states:
        tracemalloc.start()
        try:
            rx.U(cs_a, x, y, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak/n <= 470.0


@pytest.mark.parametrize("nx,ny", [(0, 10), (40, 0), (-1, 10)])
def test_verify_hjb_empty_grid_is_out_of_range(cs_a, nx, ny):
    # nx = 0 raised an untyped ValueError from argmax, ny = 0 divided by 0
    with pytest.raises(OutOfRange):
        rx.verify_hjb(cs_a, nx=nx, ny=ny)


def test_verify_hjb_caps_its_states_before_allocating(cs_a, monkeypatch):
    # chat is verify_hjb's first step after the check: reaching it means
    # the grid would be built
    def built(*args):
        raise AssertionError("verify_hjb went past its size check")

    monkeypatch.setattr(control, "chat", built)
    cap = control.MAX_U_STATES
    with pytest.raises(OutOfRange, match="nx\\*ny"):
        rx.verify_hjb(cs_a, nx=cap//64 + 1, ny=64)
    with pytest.raises(AssertionError):   # the cap itself is allowed
        rx.verify_hjb(cs_a, nx=cap//64, ny=64)


@pytest.mark.parametrize("call", [
    lambda cs: rx.verify_fbp(cs.stopping, 0.5, n_points=1000.0),
    lambda cs: rx.verify_hjb(cs, nx=40.0),
    lambda cs: rx.verify_hjb(cs, ny=10.0),
    lambda cs: rx.compare_boundaries(cs, n=50.0),
], ids=["fbp_n_points", "hjb_nx", "hjb_ny", "compare_n"])
def test_grid_sizes_must_be_integers(cs_a, call):
    # numpy raised an untyped TypeError for a float size; the message
    # named only a range, which the float lies in
    with pytest.raises(OutOfRange, match="integer"):
        call(cs_a)


@pytest.mark.parametrize("value", [rx.U, rx.U_x, rx.U_xx])
def test_u_caps_its_states_before_allocating(cs_a, monkeypatch, value):
    # an array state took about 450 B: 10^7 states asked for 4.5 GB.
    # _boundary_inverse is the first step after the check; the states
    # are broadcast views, so the test itself allocates nothing
    def built(*args):
        raise AssertionError("U went past its size check")

    monkeypatch.setattr(control, "_boundary_inverse", built)
    cap = control.MAX_U_STATES
    with pytest.raises(OutOfRange, match="states"):
        value(cs_a, np.broadcast_to(0.5, (cap + 1,)), 0.5, 1)
    with pytest.raises(OutOfRange, match="states"):
        value(cs_a, np.zeros((cap//64 + 1, 1)), np.linspace(0.0, 1.0, 64), 1)
    with pytest.raises(AssertionError):   # the cap itself is allowed
        value(cs_a, np.broadcast_to(0.5, (cap,)), 0.5, 1)


# 40x10 worst residuals of the closed-form U (round-off level; the
# Simpson U read 2.353347794414873e-10 at (-0.4944970292746991, 0.5, 2));
# A's worst state moved from x = -8.976091190763318, a round-off tie, when
# zhat2 became one closed form, which moved z1 and z2 by about 1e-13
HJB_40x10 = {
    "A": ((-7.279772358465319, 1.0, 1), 4.440892098500626e-16,
          4.440892098500626e-16),
    "B": ((3.8461538461538467, 0.8, 1), 8.881784197001252e-16,
          8.881784197001252e-16),
}


@pytest.mark.parametrize("case", ["A", "B"])
def test_verify_hjb_pinned_worst_residuals(case, cs_a, cs_b):
    rep = rx.verify_hjb({"A": cs_a, "B": cs_b}[case], nx=40, ny=10)
    state, max_abs, regional = HJB_40x10[case]
    assert rep.worst_state == state
    assert rep.worst_max_abs == pytest.approx(max_abs, rel=1e-6, abs=1e-15)
    assert rep.worst_regional == pytest.approx(regional, rel=1e-6, abs=1e-15)


def _verify_hjb_loop(cs, nx, ny, tau=1e-5, perturbation=None):
    """Reference: the state-by-state loop over (x, y, i) with scalar calls."""
    sol, p = cs.stopping, cs.params
    pert = perturbation or (lambda *_: 0.0)
    x2_at_0 = sol.z1 + sol.z2 + chat(p, 0.0)
    xs = np.linspace(x2_at_0 - 5.0*sol.z1 - 5.0, x2_at_0 + 5.0, nx)
    worst = (0.0, (xs[0], 1.0/ny, 1))
    excess, regional, fail = -np.inf, 0.0, None
    for x in map(float, xs):
        for y in map(float, np.linspace(1.0/ny, 1.0, ny)):
            u = {j: rx.U(cs, x, y, j) + pert(x, y, j) for j in (1, 2)}
            for i in (1, 2):
                b1r = (0.5*p.sigma(i)**2*rx.U_xx(cs, x, y, i) - p.rho*u[i]
                       + p.lam(i)*(u[3 - i] - u[i]) - p.cost.value(y))
                b2r = (x - p.c) - rx.v(sol, x, i, y)
                if abs(max(b1r, b2r)) > worst[0]:
                    worst = (abs(max(b1r, b2r)), (x, y, i))
                excess = max(excess, b1r, b2r)
                if y <= rx.b_star(cs, i, x):
                    regional = max(regional, abs(b1r))
                if x >= rx.x_star(sol, i, y):
                    regional = max(regional, abs(b2r))
                if fail is None and max(abs(max(b1r, b2r)), b1r, b2r) > tau:
                    fail = (x, y, i)
    return worst, excess, regional, fail


@pytest.mark.parametrize("case", ["A", "B"])
def test_verify_hjb_matches_scalar_loop(monkeypatch, case, cs_a, cs_b):
    cs = {"A": cs_a, "B": cs_b}[case]
    (worst, state), excess, regional, _ = _verify_hjb_loop(cs, 13, 5)
    rep = rx.verify_hjb(cs, nx=13, ny=5)
    assert (rep.worst_max_abs, rep.worst_state) == (worst, state)
    assert rep.worst_branch_excess == excess
    assert rep.worst_regional == regional
    pert = lambda x, y, i: 0.01*x*y + 1e-3*i  # noqa: E731
    *_, fail = _verify_hjb_loop(cs, 9, 4, perturbation=pert)
    perturb_u(monkeypatch, pert)   # after the loop, which adds pert itself
    with pytest.raises(VerificationFailed) as exc:
        rx.verify_hjb(cs, nx=9, ny=4)
    assert str(exc.value).startswith(
        "HJB residual at (x={}, y={}, i={}):".format(*fail))


def test_verify_hjb_detects_perturbation(monkeypatch, cs_a):
    perturb_u(monkeypatch, lambda x, y, i: 0.01*x)
    with pytest.raises(VerificationFailed):
        rx.verify_hjb(cs_a, nx=25, ny=6)


def test_single_regime_boundary_examples(params_b, sol_b):
    # sigma=1, rho=0.5, chat(y) = -1-4y: boundary is -4y
    for y in (0.0, 0.5, 1.0):
        assert rx.single_regime_boundary(params_b, 1.0, y) == pytest.approx(
            -4.0*y, abs=1e-12)
        assert rx.single_regime_boundary(params_b, 1.0, y) == pytest.approx(
            rx.x_star(sol_b, 1, y), abs=1e-12)


def test_single_regime_boundary_zero_crossing(params_b):
    # f'(y) = rho (c + sigma/sqrt(2 rho)) pins the root of the boundary
    target = params_b.rho*(params_b.c + 1.0)
    ystar = (target - 1.0)/2.0  # quadratic cost f' = 2y + 1
    assert rx.single_regime_boundary(params_b, 1.0, ystar) == pytest.approx(
        0.0, abs=1e-12)


def test_b_sharp_matches_b_star_in_equal_case(params_b, cs_b):
    xs = np.linspace(-6.0, 2.0, 50)
    assert np.allclose(rx.b_sharp(params_b, 1.0, xs), rx.b_star(cs_b, 1, xs),
                       atol=1e-12)


def test_boundary_ordering(cs_a):
    rep = rx.compare_boundaries(cs_a, n=1000)
    inner = (rep.b_star_1 > 0) & (rep.b_star_1 < 1)
    assert inner.any()
    assert np.all(rep.b_sharp_1 <= rep.b_star_1 + 1e-12)
    assert np.all(rep.b_star_1 <= rep.b_star_2 + 1e-12)
    assert np.all(rep.b_star_2 <= rep.b_sharp_2 + 1e-12)


def test_boundary_ordering_on_a_quadratic_plateau():
    # set 19 of perfbench's draw_parameter_sets(3, 150): its b = 1 plateaus
    # read an ulp or two below 1, so compare_boundaries took them for
    # interior levels and raised OrderingViolated on the tied curves
    p = rx.validate(0.031782619747378914, 0.02323511898856402,
                    0.7801392516387015, 0.015057364327190098,
                    0.01468239950585739, 0.5,
                    rx.CostFunction.quadratic(0.14373588216540245, 1/3))
    rep = rx.compare_boundaries(rx.from_stopping(rx.solve_z(p)), n=1000)
    curves = (rep.b_sharp_1, rep.b_star_1, rep.b_star_2, rep.b_sharp_2)
    for curve in curves:
        assert curve[0] == 1.0
    assert np.all(np.diff(np.array(curves), axis=0) >= 0.0)


def test_boundary_ordering_collapses_in_equal_case(cs_b):
    rep = rx.compare_boundaries(cs_b, n=200)
    assert np.allclose(rep.b_sharp_1, rep.b_sharp_2, atol=1e-12)
    assert np.allclose(rep.b_star_1, rep.b_star_2, atol=1e-12)


def test_boundary_ordering_clamp_region(cs_a, params_a):
    x_hi = max(rx.single_regime_boundary(params_a, params_a.sigma2, 0.0),
               rx.x_star(cs_a.stopping, 2, 0.0))
    rep = rx.compare_boundaries(cs_a, n=50, x_range=(x_hi + 0.1, x_hi + 2.0))
    for curve in (rep.b_sharp_1, rep.b_star_1, rep.b_star_2, rep.b_sharp_2):
        assert np.all(curve == 0.0)


def test_boundary_ordering_rejects_relabeled(params_a):
    sol = rx.solve_z(params_a.swapped())
    with pytest.raises(PreconditionViolated):
        rx.compare_boundaries(rx.from_stopping(sol))


def test_ordering_violation_reported(sol_a):
    broken = rx.from_stopping(perturbed(sol_a, -1.0))  # pushes b*2 below b*1
    with pytest.raises(OrderingViolated) as exc:
        rx.compare_boundaries(broken, n=300)
    assert exc.value.x is not None


def test_tied_boundaries_reported(sol_a):
    tied = rx.from_stopping(perturbed(sol_a, -sol_a.z2))  # b*2 on b*1
    with pytest.raises(OrderingViolated, match=r"^b\*1 not strictly below "
                       r"b\*2 off the plateaus at x=") as exc:
        rx.compare_boundaries(tied, n=300)
    assert exc.value.x is not None


def test_chat_consistency_with_boundaries(cs_a, sol_a):
    y = 0.4
    p = cs_a.params
    assert rx.x_star(sol_a, 1, y) - chat(p, y) == pytest.approx(
        sol_a.z1, abs=1e-12)


def test_verify_hjb_fails_on_nan(monkeypatch, cs_a):
    perturb_u(monkeypatch, lambda x, y, i: np.full(np.shape(x), np.nan))
    with pytest.raises(VerificationFailed) as exc:
        rx.verify_hjb(cs_a, nx=10, ny=4)
    assert "nan" in str(exc.value)
    assert math.isnan(exc.value.report.worst_max_abs)


def test_verify_hjb_fails_on_its_regional_check_alone(monkeypatch, cs_a):
    # U = 0 and U_y = x - c: every branch maximum is 0, within tau, but
    # where y <= b*_i(x) the continuation branch is -f(y)
    monkeypatch.setattr(control, "_u_surface", lambda cs, x, y, series:
                        np.zeros((len(series),) + np.shape(x)))
    monkeypatch.setattr(control, "v_stop",
                        lambda sol, x, i, y: x - sol.params.c)
    with pytest.raises(VerificationFailed,
                       match=r"^regional residual \S+ > 1e-05$") as exc:
        rx.verify_hjb(cs_a, nx=9, ny=4)
    rep = exc.value.report
    assert rep.worst_max_abs == rep.worst_branch_excess == 0.0
    assert rep.worst_regional == pytest.approx(cs_a.params.cost.value(1.0))


def _quad_oracle(cs, x, y, i):
    """U, U_x, U_xx at one state from scipy.integrate.quad over v, w_x and
    w_xx, split at the boundary inverses."""
    sol = cs.stopping
    pts = [b for b in sorted({rx.b_star(cs, 1, x), rx.b_star(cs, 2, x)})
           if 0.0 < b < y]
    out = []
    for integrand in (rx.v, rx.w_x, rx.w_xx):
        with warnings.catch_warnings():   # 1e-14 is at round-off level
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            val, err = integrate.quad(lambda z: integrand(sol, x, i, z), 0.0,
                                      y, epsabs=1e-14, epsrel=1e-14,
                                      limit=400, points=pts or None)
        assert err < 1e-12
        out.append(val)
    return out


# a state where Simpson doubling stopped early: U_x read 0.28318991686790274
# against quad's 0.2831902649959742 (3.5e-7 off at tol 1e-9)
SIMPSON_TRAP = (dict(rho=0.025452966758740505, sigma1=0.6352166578103934,
                     sigma2=0.03952558792280243, lambda1=0.04356209663170234,
                     lambda2=0.40999595358918073, c=0.5),
                rx.CostFunction.quadratic(0.14669272460939614, 1/3),
                (-14.631446097130073, 0.5, 1))


def test_closed_form_where_simpson_stopped_early():
    kw, cost, (x, y, i) = SIMPSON_TRAP
    cs = rx.solve_control(rx.validate(**kw, cost=cost))
    assert cs.stopping.case == "C_relabeled"
    oracle = _quad_oracle(cs, x, y, i)
    for value, ref in zip((rx.U, rx.U_x, rx.U_xx), oracle):
        assert value(cs, x, y, i) == pytest.approx(ref, abs=1e-12)


def test_closed_form_past_expi_overflow():
    """Exponential cost whose Ei arguments u = a gamma e^z/rho pass 700,
    where e^u alone overflows past 709."""
    p = rx.validate(*box_midpoint(FEASIBLE_BOXES[1]), c=0.5,
                    cost=rx.CostFunction.exponential(1/3))
    cs = rx.solve_control(p)
    sol = cs.stopping
    assert sol.roots.alpha4*p.cost.gamma*math.e/p.rho > 700.0
    for x, y, i in [(rx.x_star(sol, 1, 1.0) - 0.01, 1.0, 2),
                    (rx.x_star(sol, 1, 1.0) - 0.01, 1.0, 1),
                    (rx.x_star(sol, 1, 0.5) - 0.3, 0.5, 1),
                    (0.5*(rx.x_star(sol, 1, 0.5) + rx.x_star(sol, 2, 0.5)),
                     0.5, 2)]:
        oracle = _quad_oracle(cs, x, y, i)
        for value, ref in zip((rx.U, rx.U_x, rx.U_xx), oracle):
            assert value(cs, x, y, i) == pytest.approx(ref, abs=1e-12)


@pytest.mark.parametrize("kind", ["exponential", "quadratic"])
def test_closed_form_matches_simpson(kind):
    """The built-in costs' closed form against the Simpson path, which a
    custom cost with the same f and f' takes, at sweep-like states and
    (quadratic) at SIMPSON_TRAP's state."""
    rng = np.random.default_rng(17)
    cases = []   # (solution, prices, levels, regimes)
    for p in draw_from_boxes(rng, 6):
        cost = (p.cost if kind == "exponential"
                else rx.CostFunction.quadratic(rng.uniform(0.1, 0.3), 1/3))
        exact = rx.solve_control(rx.validate(
            p.rho, p.sigma1, p.sigma2, p.lambda1, p.lambda2, p.c, cost))
        sol = exact.stopping
        lo, hi = sorted((rx.x_star(sol, 1, 0.5), rx.x_star(sol, 2, 0.5)))
        cases.append((exact, np.array([lo - 1.0, 0.5*(lo + hi), hi + 1.0,
                                       lo - 5.0]), (0.3, 1.0), (1, 2)))
    if kind == "quadratic":
        kw, cost, (x, y, i) = SIMPSON_TRAP
        cases.append((rx.solve_control(rx.validate(**kw, cost=cost)),
                      np.array([x]), (y,), (i,)))
    for exact, xs, levels, regimes in cases:
        cost = exact.stopping.iparams.cost
        twin = rx.CostFunction.custom(cost.value, cost.derivative)
        simpson = rx.from_stopping(dataclasses.replace(
            exact.stopping, iparams=dataclasses.replace(
                exact.stopping.iparams, cost=twin)))
        for y in levels:
            for value in (rx.U, rx.U_x, rx.U_xx):
                for i in regimes:
                    a, b = value(exact, xs, y, i), value(simpson, xs, y, i)
                    assert np.all(np.abs(a - b)
                                  <= 2e-9*np.maximum(1.0, np.abs(b)))
