import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import regime_extract as rx
from regime_extract import stopping
from regime_extract.errors import (AssumptionViolated, DomainError,
                                   OutOfRange, PreconditionViolated,
                                   VerificationFailed)
from regime_extract.model import chat
from regime_extract.stopping import FbpReport, _continuation, perturbed

from conftest import NEAR_EQUAL_KW, draw_from_boxes
from fbp_oracle import fbp_table

# frozen solver outputs for the example set (grid-search oracle agrees
# within one 1e-3 cell, see the acceptance suite)
Z1_A = 1.3078217229809854
Z2_A = 0.9070362850103082
ZHAT2_A = 1.7190574227683264
M1_0_A = 0.8130095767749578
M2_0_A = 1.8163108493557811


def test_zhat2_bracketing_endpoint(params_a, roots_a):
    # denominator of M1 is negative at 0 and vanishes exactly at zhat2
    d0 = roots_a.a1 + params_a.lambda2/(params_a.rho + params_a.lambda2)
    assert d0 < 0.0
    r = params_a.rho/(params_a.rho + params_a.lambda2)
    zh = rx.zhat2(params_a, roots_a)
    assert d0 + r*(math.cosh(roots_a.alpha5*zh) - 1.0) == pytest.approx(
        0.0, abs=1e-12)
    assert zh == pytest.approx(ZHAT2_A, rel=1e-12)


def test_zhat2_overflow_is_typed(params_a, roots_a):
    # the cosh target overflows to inf: no finite zhat2, a typed error
    with pytest.raises(PreconditionViolated):
        rx.zhat2(params_a, roots_a._replace(a1=-1e308))


def test_zhat2_requires_negative_denominator(params_a, roots_a):
    bad = roots_a._replace(a1=1.0)
    with pytest.raises(PreconditionViolated):
        rx.zhat2(params_a, bad)


def test_m_functions_at_zero(params_a, roots_a):
    p2 = params_a.rho + params_a.lambda2
    m1_0 = rx.m1(params_a, roots_a, 0.0)
    m2_0 = rx.m2(params_a, roots_a, 0.0)
    assert m1_0 == pytest.approx(-roots_a.a2/(roots_a.a1 + params_a.lambda2/p2),
                                 rel=1e-12)
    assert m2_0 == pytest.approx((-params_a.rho/p2 - roots_a.a4)/roots_a.a3,
                                 rel=1e-12)
    assert m1_0 - m2_0 < 0.0
    assert m1_0 == pytest.approx(M1_0_A, rel=1e-12)
    assert m2_0 == pytest.approx(M2_0_A, rel=1e-12)


def test_m_functions_reject_out_of_domain(params_a, roots_a):
    zh = rx.zhat2(params_a, roots_a)
    with pytest.raises(DomainError):
        rx.m1(params_a, roots_a, zh)
    with pytest.raises(DomainError):
        rx.m2(params_a, roots_a, -0.1)


def test_solve_example_set(sol_a):
    assert sol_a.case == "A" and not sol_a.relabeled
    assert sol_a.z1 == pytest.approx(Z1_A, abs=5e-10)
    assert sol_a.z2 == pytest.approx(Z2_A, abs=5e-10)
    assert 0.0 < sol_a.z2 < sol_a.zhat2
    assert abs(sol_a.g1_residual) <= 1e-10
    assert abs(sol_a.g2_residual) <= 1e-10
    assert sol_a.m1_at_0 < sol_a.z1 < sol_a.m2_at_0


def test_solve_matches_direct_g_evaluation(params_a, sol_a):
    assert rx.g1(params_a, sol_a.roots, sol_a.z1, sol_a.z2) == pytest.approx(
        0.0, abs=1e-10)
    assert rx.g2(params_a, sol_a.roots, sol_a.z1, sol_a.z2) == pytest.approx(
        0.0, abs=1e-10)


def test_relabeled_solution_matches(params_a, sol_a):
    swapped = rx.validate(params_a.rho, params_a.sigma2, params_a.sigma1,
                          params_a.lambda2, params_a.lambda1, params_a.c,
                          params_a.cost)
    sol = rx.solve_z(swapped)
    assert sol.case == "C_relabeled" and sol.relabeled
    assert sol.z1 == pytest.approx(sol_a.z1, abs=1e-9)
    assert sol.z2 == pytest.approx(sol_a.z2, abs=1e-9)
    # boundaries follow the caller's labels: regime 1 is now the volatile one
    y = 0.3
    assert rx.x_star(sol, 1, y) == pytest.approx(rx.x_star(sol_a, 2, y), abs=1e-9)
    assert rx.x_star(sol, 2, y) == pytest.approx(rx.x_star(sol_a, 1, y), abs=1e-9)


def test_both_labelings_failing_raises():
    p = rx.validate(1.0, 0.5, 0.51, 1.0, 1.0, 0.5,
                    rx.CostFunction.exponential(1/3))
    with pytest.raises(AssumptionViolated) as exc:
        rx.solve_z(p)
    assert exc.value.report is not None
    assert exc.value.swapped_report is not None


def test_case_b_closed_form(sol_b):
    assert sol_b.case == "B"
    assert sol_b.z2 == 0.0
    assert sol_b.z1 == pytest.approx(1.0, abs=1e-14)  # sigma/sqrt(2 rho)


def test_equal_vol_shift_candidates_agree_only_there(sol_a, sol_b):
    s_a, s_b = sol_b.m1_at_0, sol_b.m2_at_0
    assert abs(s_a - s_b) <= 1e-10
    assert abs(sol_a.m1_at_0 - sol_a.m2_at_0) > 1e-3
    assert s_a == pytest.approx(1.0, abs=1e-12)


def test_case_b_limit_of_case_a():
    kw = NEAR_EQUAL_KW
    cost = rx.CostFunction.exponential(1/3)
    xb = kw["sigma2"]/math.sqrt(2.0*kw["rho"])
    z2_path = []
    for delta in (0.03, 0.01, 1e-3, 1e-4):
        p = rx.validate(kw["rho"], kw["sigma2"]*(1 - delta), kw["sigma2"],
                        kw["lambda1"], kw["lambda2"], kw["c"], cost)
        sol = rx.solve_z(p)
        assert sol.case == "A"
        z2_path.append(sol.z2)
        if delta == 1e-4:
            for y in (0.0, 0.4, 1.0):
                ch = chat(p, y)
                assert rx.x_star(sol, 1, y) == pytest.approx(xb + ch, abs=1e-3)
                assert rx.x_star(sol, 2, y) == pytest.approx(xb + ch, abs=1e-3)
    assert all(a > b for a, b in zip(z2_path, z2_path[1:]))


def test_x_star_case_b_quadratic_cost(sol_b):
    # rho=0.5, c=1, f=y^2+y: chat(y) = 1 - (2y+1)/0.5 = -1 - 4y
    for y in (0.0, 0.25, 1.0):
        assert rx.x_star(sol_b, 1, y) == pytest.approx(-4.0*y, abs=1e-12)
        assert rx.x_star(sol_b, 2, y) == pytest.approx(-4.0*y, abs=1e-12)


def test_x_star_gap_independent_of_y(sol_a):
    ys = np.linspace(0.0, 1.0, 11)
    gaps = rx.x_star(sol_a, 2, ys) - rx.x_star(sol_a, 1, ys)
    assert np.allclose(gaps, sol_a.z2, atol=1e-13)


def test_x_star_strictly_decreasing(sol_a):
    ys = np.linspace(0.0, 1.0, 1001)
    for i in (1, 2):
        vals = rx.x_star(sol_a, i, ys)
        assert np.all(np.diff(vals) < 0.0)
        assert np.all(vals > chat(sol_a.params, ys))


def _prefactors_at_x1(sol, i, y):
    """(c3, c4) of w_i = c3 e^{a3 (x - x*_1)} + c4 e^{a4 (x - x*_1)} below
    x*_1: the exponentials are 1 at x*_1, so w and w_x there give them."""
    a3, a4 = sol.roots.alpha3, sol.roots.alpha4
    x1 = rx.x_star(sol, 1, y)
    w, wx = rx.w(sol, x1, i, y), rx.w_x(sol, x1, i, y)
    return (a4*w - wx)/(a4 - a3), (wx - a3*w)/(a4 - a3)


def test_w_coefficient_identities(params_a, sol_a):
    c31, c41 = _prefactors_at_x1(sol_a, 1, 0.3)
    c32, c42 = _prefactors_at_x1(sol_a, 2, 0.3)
    phi3 = rx.phi(params_a, 1, sol_a.roots.alpha3)
    phi4 = rx.phi(params_a, 1, sol_a.roots.alpha4)
    assert c32 == pytest.approx(phi3/params_a.lambda1*c31, rel=1e-12)
    assert c42 == pytest.approx(phi4/params_a.lambda1*c41, rel=1e-12)


def test_case_b_coefficient_identities(params_b, sol_b):
    c31, c41 = _prefactors_at_x1(sol_b, 1, 0.6)
    c32, c42 = _prefactors_at_x1(sol_b, 2, 0.6)
    assert c32 == c31
    assert c42 == pytest.approx(
        -(params_b.lambda2/params_b.lambda1)*c41, rel=1e-12)


def test_smooth_fit_system_residuals(params_a, sol_a):
    """All six value-match/smooth-fit equations hold at the boundaries."""
    y = 0.45
    ch = chat(params_a, y)
    x1, x2 = rx.x_star(sol_a, 1, y), rx.x_star(sol_a, 2, y)
    w1, w1x, w2, w2x = _continuation(sol_a, x1, ch,
                                     [(1, 0), (1, 1), (2, 0), (2, 1)])
    b2, b2x = _continuation(sol_a, x1, ch, [(2, 0), (2, 1)], band=True)
    B2, B2x = _continuation(sol_a, x2, ch, [(2, 0), (2, 1)], band=True)
    eqs = [w1 - (x1 - ch), w1x - 1.0, w2 - b2, w2x - b2x,
           B2 - (x2 - ch), B2x - 1.0]
    assert max(abs(r) for r in eqs) <= 1e-9


def test_w_finite_where_x_zero_anchor_overflowed():
    """With alpha4 ~ 24.6 and x*_1(0.9) ~ -29 the old exponential
    coefficients e^{-alpha4 x*_1} overflowed; anchored at the boundaries
    w, the free-boundary check and the value report stay finite."""
    p = rx.validate(0.026, 0.039, 0.645, 0.435, 0.043, 0.5,
                    rx.CostFunction.exponential(1/3))
    sol = rx.solve_z(p)
    cs = rx.from_stopping(sol)
    for y in (0.9, 1.0):
        rep = rx.verify_fbp(sol, y)
        assert all(math.isfinite(v) for v in rep.to_dict().values())
        x1 = rx.x_star(sol, 1, y)
        xs = np.linspace(x1 - 5.0, rx.x_star(sol, 2, y) + 1.0, 101)
        for i in (1, 2):
            assert np.isfinite(rx.w(sol, xs, i, y)).all()
            assert rx.w(sol, x1, i, y) == pytest.approx(
                rx.w(sol, x1 + 1e-9, i, y), abs=1e-8)
            out = rx.U_report(cs, x1 - 1.0, y, i).to_dict()
            assert all(math.isfinite(v) for v in out.values())
            assert abs(out["hjb_residual"]) <= 1e-5


def test_w_equals_payoff_in_stop_region(sol_a):
    y = 0.2
    ch = chat(sol_a.params, y)
    x2 = rx.x_star(sol_a, 2, y)
    xs = np.array([x2, x2 + 0.5, x2 + 5.0])
    for i in (1, 2):
        assert np.allclose(rx.w(sol_a, xs, i, y), xs - ch, atol=1e-12)


def test_w_value_match_and_smooth_fit_at_first_boundary(sol_a):
    y = 0.7
    ch = chat(sol_a.params, y)
    x1 = rx.x_star(sol_a, 1, y)
    assert rx.w(sol_a, x1, 1, y) == pytest.approx(x1 - ch, abs=1e-12)
    h = 1e-7
    left = (rx.w(sol_a, x1, 1, y) - rx.w(sol_a, x1 - h, 1, y))/h
    right = (rx.w(sol_a, x1 + h, 1, y) - rx.w(sol_a, x1, 1, y))/h
    assert left == pytest.approx(1.0, abs=1e-6)
    assert right == pytest.approx(1.0, abs=1e-6)
    assert rx.w_x(sol_a, x1, 1, y) == pytest.approx(1.0, abs=1e-12)


def test_w_convex_below_first_boundary(sol_a):
    y = 0.5
    x1 = rx.x_star(sol_a, 1, y)
    xs = np.linspace(x1 - 12.0, x1, 3000)
    assert np.all(rx.w_xx(sol_a, xs, 1, y) >= -1e-12)


def test_w_second_derivative_one_sided(sol_a):
    y = 0.5
    x1 = rx.x_star(sol_a, 1, y)
    lo = rx.w_xx(sol_a, x1, 1, y, side=-1)
    hi = rx.w_xx(sol_a, x1, 1, y, side=+1)
    assert lo > 0.1 and hi == 0.0  # jump at the boundary


def _assert_side_is_exact_at_x_star(sol):
    """w_xx(x_star, side=s) is the limit from side s: it equals w_xx at
    x_star + s 1e-9 to 1e-3 relative, per level as scalars and as one
    array of 2,001 levels, in both regimes."""
    levels = [np.linspace(0.0, 1.0, 2001), 0.0, 0.2, 0.5, 1.0]
    for y, i, s in itertools.product(levels, (1, 2), (-1, 1)):
        xb = rx.x_star(sol, i, y)
        at = rx.w_xx(sol, xb, i, y, side=s)
        np.testing.assert_allclose(at, rx.w_xx(sol, xb + s*1e-9, i, y, side=s),
                                   rtol=1e-3, atol=0.0,
                                   err_msg=f"regime {i}, side {s}")


def test_w_xx_side_is_exact_at_x_star(any_sol):
    # the cut of regime 2's band was (z1 + chat) + z2, an ulp off x_star's
    # (z1 + z2) + chat on 75 of example.json's 101 levels, so at y = 0.2
    # side=+1 gave the left limit 0.409 where the right one is 0
    _assert_side_is_exact_at_x_star(any_sol)


def test_w_xx_side_is_exact_at_x_star_on_drawn_sets():
    for params in draw_from_boxes(np.random.default_rng(24), 4):
        _assert_side_is_exact_at_x_star(rx.solve_z(params))


def test_regime2_boundary_facts(sol_a):
    # value of the still-running regime at the regime-1 boundary
    y = 0.5
    ch = chat(sol_a.params, y)
    x1 = rx.x_star(sol_a, 1, y)
    assert rx.w(sol_a, x1, 2, y) >= x1 - ch - 1e-12
    assert rx.w_x(sol_a, x1, 2, y) <= 1.0 + 1e-12


def test_v_is_w_shifted(sol_a):
    p = sol_a.params
    y = 0.35
    xs = np.linspace(-3.0, 3.0, 7)
    for i in (1, 2):
        assert np.allclose(rx.v(sol_a, xs, i, y),
                           rx.w(sol_a, xs, i, y) - p.cost.derivative(y)/p.rho,
                           atol=1e-14)
    x2 = rx.x_star(sol_a, 2, y)
    assert rx.v(sol_a, x2 + 1.0, 1, y) == pytest.approx(x2 + 1.0 - p.c,
                                                        abs=1e-12)


def test_v_dominates_liquidation_payoff(sol_a):
    xs = np.linspace(-10.0, 10.0, 501)
    for y in (0.1, 0.6, 1.0):
        for i in (1, 2):
            assert np.all(rx.v(sol_a, xs, i, y) >= xs - sol_a.params.c - 1e-12)


def test_v_linear_growth_bound(sol_a):
    # constant fitted once on the example set and frozen
    K = 3.2
    xs = np.linspace(-25.0, 25.0, 401)
    for y in (0.0, 0.5, 1.0):
        for i in (1, 2):
            assert np.all(np.abs(rx.v(sol_a, xs, i, y)) <= K*(1.0 + np.abs(xs)))


def test_verify_fbp_passes_across_levels(sol_a):
    for y in np.arange(0.1, 0.95, 0.1):
        rep = rx.verify_fbp(sol_a, float(y))
        assert rep.worst_ode <= 1e-7
        assert rep.worst_c1 <= 1e-6


def test_verify_fbp_case_b(sol_b):
    rep = rx.verify_fbp(sol_b, 0.5)
    assert rep.worst_ode <= 1e-7 and rep.worst_c1 <= 1e-6


def test_verify_fbp_detects_broken_smooth_fit(sol_a):
    with pytest.raises(VerificationFailed):
        rx.verify_fbp(perturbed(sol_a, 1e-3), 0.5)


def test_unique_root_on_feasible_draws(rng):
    """M1 - M2 crosses zero exactly once on (0, zhat2) for 200 feasible
    parameter draws (scanned at 1e4 points)."""
    for p in draw_from_boxes(rng, 200):
        sol = rx.solve_z(p)
        rt = sol.roots
        vs = np.linspace(sol.zhat2*1e-9, sol.zhat2*(1 - 1e-9), 10_000)
        m1v = rx.m1(p, rt, vs)
        m2v = rx.m2(p, rt, vs)
        assert np.all(np.diff(m1v) > 0.0)   # increasing, diverging branch
        assert np.all(np.diff(m2v) < 0.0)   # decreasing branch
        dd = m1v - m2v
        assert np.count_nonzero(np.diff(np.sign(dd))) == 1
        assert sol.m1_at_0 < sol.z1 < sol.m2_at_0


@pytest.fixture(scope="module", params=["a", "b", "relabeled"])
def any_sol(request, params_a, sol_a, sol_b):
    return {"a": sol_a, "b": sol_b,
            "relabeled": rx.solve_z(params_a.swapped())}[request.param]


def test_w_over_level_price_grid_equals_per_level_calls(any_sol):
    """w, w_x, w_xx (both sides) and v over an (x, y) grid equal the
    per-level calls bit for bit, boundary points included."""
    sol = any_sol
    ys = np.linspace(0.0, 1.0, 7)
    xs = np.concatenate([np.linspace(-12.0, 4.0, 301),
                         rx.x_star(sol, 1, ys), rx.x_star(sol, 2, ys)])
    evals = [lambda x, i, y: rx.w(sol, x, i, y),
             lambda x, i, y: rx.w_x(sol, x, i, y),
             lambda x, i, y: rx.w_xx(sol, x, i, y, side=-1),
             lambda x, i, y: rx.w_xx(sol, x, i, y, side=1),
             lambda x, i, y: rx.v(sol, x, i, y)]
    for f in evals:
        for i in (1, 2):
            grid = f(xs[:, None], i, ys)
            assert grid.shape == (xs.size, ys.size)
            cols = np.column_stack([f(xs, i, float(y)) for y in ys])
            assert np.array_equal(grid, cols)
            assert f(float(xs[5]), i, float(ys[3])) == grid[5, 3]


def test_verify_fbp_levels_equal_per_level_calls(any_sol):
    levels = [0.1, 0.35, 0.5, 0.9]
    reps = rx.verify_fbp(any_sol, np.array(levels), n_points=3000)
    assert reps == [rx.verify_fbp(any_sol, y, n_points=3000) for y in levels]
    assert rx.verify_fbp(any_sol, levels[:1], n_points=3000) == reps[:1]
    assert isinstance(rx.verify_fbp(any_sol, 0.5), FbpReport)


def test_verify_fbp_levels_raise_first_failing_level(sol_a):
    bad = perturbed(sol_a, 1e-3)
    with pytest.raises(VerificationFailed) as first:
        rx.verify_fbp(bad, 0.2)
    with pytest.raises(VerificationFailed) as batch:
        rx.verify_fbp(bad, [0.2, 0.6])
    assert str(batch.value) == str(first.value)
    assert batch.value.report == first.value.report


def test_verify_fbp_needs_two_points(sol_a):
    with pytest.raises(OutOfRange):
        rx.verify_fbp(sol_a, 0.5, n_points=1)


def test_verify_fbp_caps_its_points_before_allocating(sol_a, monkeypatch):
    def built(*args):
        raise AssertionError("verify_fbp went past its size check")

    monkeypatch.setattr(stopping, "_fbp_table", built)
    cap = stopping.MAX_FBP_POINTS
    for n in (cap + 1, 100_000_000):
        with pytest.raises(OutOfRange, match="n_points"):
            rx.verify_fbp(sol_a, [0.2, 0.5], n_points=n)
    with pytest.raises(AssertionError):   # the cap itself is allowed
        rx.verify_fbp(sol_a, 0.5, n_points=cap)


def test_nan_level_is_out_of_range(sol_a):
    for call in (lambda y: rx.w(sol_a, 0.0, 1, y),
                 lambda y: rx.x_star(sol_a, 2, y),
                 lambda y: rx.v(sol_a, 0.0, 2, y),
                 lambda y: rx.verify_fbp(sol_a, y, n_points=50)):
        for y in (math.nan, np.array([0.5, math.nan])):
            with pytest.raises(OutOfRange):
                call(y)


def test_verify_fbp_fails_on_nan_w(sol_a):
    with pytest.raises(VerificationFailed) as exc:
        rx.verify_fbp(replace(sol_a, z2=math.nan), 0.5, n_points=200)
    assert "nan" in str(exc.value)


def _fbp_outcome(sol, y, **kw):
    """verify_fbp's reports, or the message and report it failed with,
    as a repr: equal reprs mean equal floats bit for bit, NaN included."""
    try:
        return repr(rx.verify_fbp(sol, y, **kw))
    except VerificationFailed as exc:
        return repr((str(exc), exc.report))


def _assert_fbp_equals_oracle(monkeypatch, sol, y, **kw):
    out = _fbp_outcome(sol, y, **kw)
    with monkeypatch.context() as m:
        m.setattr(stopping, "_fbp_table", fbp_table)
        assert out == _fbp_outcome(sol, y, **kw)


def test_verify_fbp_equals_two_table_oracle(any_sol, monkeypatch):
    """One w table per pass gives the two-table verifier's reports and
    failures bit for bit: passing, failing (z2 +- 1e-3) and NaN w."""
    for sol in (any_sol, perturbed(any_sol, 1e-3), perturbed(any_sol, -1e-3),
                replace(any_sol, z2=math.nan)):
        _assert_fbp_equals_oracle(monkeypatch, sol, np.linspace(0.0, 1.0, 11))


def test_verify_fbp_right_limits_at_boundary_grid_points(any_sol, monkeypatch):
    """Grids with a point exactly on x*_1 or x*_2, where w_xx's right
    limit differs from its left one, match the two-table verifier. Each
    grid ends or starts at the boundary, which linspace hits exactly."""
    for sol in (any_sol, perturbed(any_sol, 1e-3), perturbed(any_sol, -1e-3)):
        x1 = sol.z1 + chat(sol.iparams, 0.5)
        for xb in (x1, x1 + sol.z2):
            for grid in ((xb - 2.0, xb), (xb, xb + 2.0)):
                assert xb in np.linspace(*grid, 2001)
                _assert_fbp_equals_oracle(monkeypatch, sol, 0.5,
                                          n_points=2001, grid=grid)


def test_verify_fbp_on_one_region_grids_equals_oracle(any_sol, monkeypatch):
    """Grids wholly below x*_1, wholly stopped (no point where the ODE
    must hold) and starting exactly at x*_2 match the two-table verifier,
    for z2 +- 1e-3 and NaN too: the region cuts fall at 0, at n_points
    and on an empty band."""
    x1 = any_sol.z1 + chat(any_sol.iparams, 0.5)
    x2 = x1 + any_sol.z2
    grids = [(x1 - 3.0, x1 - 1.0), (x2 + 1.0, x2 + 3.0), (x2, x2 + 2.0)]
    rep = rx.verify_fbp(any_sol, 0.5, n_points=501, grid=grids[1])
    assert (rep.worst_ode, rep.worst_ode_x) == (0.0, grids[1][0])
    for sol in (any_sol, perturbed(any_sol, 1e-3), perturbed(any_sol, -1e-3),
                replace(any_sol, z2=math.nan)):
        own_x2 = x1 + sol.z2
        for grid in grids + [(own_x2, own_x2 + 2.0)]*math.isfinite(own_x2):
            _assert_fbp_equals_oracle(monkeypatch, sol, 0.5, n_points=501,
                                      grid=grid)


def test_verify_fbp_cut_past_both_boundaries_equals_oracle(monkeypatch):
    """The rows end at the first point where both regimes stop, which is
    past x*_1, not x*_2, when z2 < 0: with regime 2's boundary 0.3 and 2.0
    below x*_1, on 2- and 3-point and custom grids, drawn sets match the
    two-table verifier, which fills the whole grid."""
    levels = np.array([0.1, 0.5, 0.9])
    for sol in map(rx.solve_z, draw_from_boxes(np.random.default_rng(7), 20)):
        for dz2 in (0.0, -sol.z2 - 0.3, -sol.z2 - 2.0):
            for kw in (dict(n_points=2), dict(n_points=3),
                       dict(n_points=1001), dict(n_points=1001,
                                                 grid=(-5.0, 5.0))):
                _assert_fbp_equals_oracle(monkeypatch, perturbed(sol, dz2),
                                          levels, **kw)


@pytest.mark.parametrize("grid", [
    (1.0, -1.0), (0.5, 0.5), (math.nan, 1.0), (-1.0, math.nan),
    (-math.inf, 1.0), (-1.0, math.inf), (-1e308, 1e308)],
    ids=["reversed", "equal", "nan_lo", "nan_hi", "inf_lo", "inf_hi",
         "overflowing_width"])
def test_verify_fbp_grid_must_ascend_with_finite_ends(sol_a, monkeypatch,
                                                      grid):
    # a NaN end used to be reported as the solver's "ODE residual nan"
    def built(*args):
        raise AssertionError("verify_fbp went past its grid check")

    monkeypatch.setattr(stopping, "_fbp_table", built)
    with pytest.raises(OutOfRange, match="grid"):
        rx.verify_fbp(sol_a, [0.2, 0.5], n_points=50, grid=grid)
    with pytest.raises(AssertionError):
        rx.verify_fbp(sol_a, 0.5, n_points=50, grid=(-1.0, 1.0))


def test_verify_fbp_memory_per_point(sol_a):
    # the memory that MAX_FBP_POINTS's comment and the README state: a
    # level peaks near 88 B a point on a grid wholly below x*_1, where both
    # regimes continue everywhere; the default grid, whose rows end just
    # past x*_2, near 50 B
    x1 = sol_a.z1 + chat(sol_a.iparams, 0.5)
    n = 100_000
    rx.verify_fbp(sol_a, 0.5, n_points=200)
    for grid, most in ((None, 55.0), ((x1 - 3.0, x1 - 1.0), 90.0)):
        tracemalloc.start()
        try:
            rx.verify_fbp(sol_a, 0.5, n_points=n, grid=grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak/n <= most, grid
