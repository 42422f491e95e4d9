import dataclasses
import functools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import regime_extract as rx
from regime_extract import _numerics, model
from regime_extract._numerics import (SLICE_NODES, bisect, expi_scaled,
                                      level_table, scaled_antiderivative)
from regime_extract.errors import NoBracket, QuadratureNotConverged


def test_bisect_finds_root():
    root = bisect(lambda x: x*x - 2.0, 0.0, 2.0, xtol=1e-14)
    assert root == pytest.approx(math.sqrt(2.0), abs=1e-13)


def test_bisect_requires_sign_change():
    with pytest.raises(NoBracket):
        bisect(lambda x: x*x + 1.0, -1.0, 1.0)


def _linear_h(kappa, z, slope=0.4):
    """H(z) of f'(z) = slope z + 1/3 in closed form."""
    k = kappa*slope
    return -np.expm1(-k*z if kappa > 0 else k*(1.0 - z))/k


def _h(fprime, kappa, z):
    """scaled_antiderivative at the levels z from a fresh level_table."""
    z = np.asarray(z, dtype=float)
    table = level_table(fprime, kappa)
    return scaled_antiderivative(lambda k: table, fprime, kappa, z,
                                 kappa*fprime(z))


LINEAR_FP = lambda z: 0.4*z + 1/3   # noqa: E731
EXP_FP = lambda z: np.exp(z)/3.0   # noqa: E731


def _ulps(fprime, kappa):
    """The tables' round-off: a few ulps of the largest |kappa f'|, which
    their logs carry."""
    return 8.0*np.finfo(float).eps*max(1.0, abs(kappa)*fprime(1.0))


@pytest.mark.parametrize("kappa", [20.0, -22.0, 975.8, -3000.0])
def test_level_table_exact_on_linear_fprime(kappa):
    """A linear f' (the quadratic cost) has H in closed form: each level,
    on a panel edge or inside one, to round-off (_ulps) relative."""
    z = np.concatenate([np.linspace(0.0, 1.0, 33), [1e-9, 0.3, 0.7071]])
    assert np.allclose(_h(LINEAR_FP, kappa, z), _linear_h(kappa, z),
                       rtol=_ulps(LINEAR_FP, kappa), atol=0.0)


@pytest.mark.parametrize("kappa", [20.0, -22.0, 975.8, -3000.0])
def test_level_table_matches_ei(kappa):
    """The exponential cost's f' = gamma e^z against its closed form
    e^{-u} (Ei(u) - Ei(u0)), u = kappa f'(z), u0 at the anchor, to
    round-off (_ulps) relative to the largest |H|."""
    z = np.linspace(0.0, 1.0, 41)
    u, u0 = kappa*EXP_FP(z), kappa*EXP_FP(0.0 if kappa > 0 else 1.0)
    want = expi_scaled(u) - np.exp(u0 - u)*expi_scaled(u0)
    got = _h(EXP_FP, kappa, z)
    assert np.all(np.abs(got - want)
                  <= _ulps(EXP_FP, kappa)*np.abs(want).max())


def test_level_table_empty_panel_gives_zero():
    """H is exactly 0 at the anchor, and an empty panel, lo = hi,
    integrates to exactly 0 through exp_integral, wherever it lies."""
    assert _h(EXP_FP, 20.0, [0.0])[0] == _h(EXP_FP, -20.0, [1.0])[0] == 0.0
    cost = rx.CostFunction.custom(lambda y: (np.exp(y) - 1.0)/3.0, EXP_FP)
    ends = np.broadcast_to([0.0, 0.123, 0.5, 1.0], (2, 2, 4))   # lo = hi
    out = cost.exp_integral(np.array([[2.0], [-2.0]]), 0.3, 0.1,
                            np.array([[20.0], [-20.0]]), ends, 10.0)
    assert out.shape == (2, 4) and np.all(out == 0.0)


def test_level_table_finite_past_exp_overflow():
    """kappa f' up to 12,000, far past e^709: the table's logs and H stay
    finite, |H| <= 1, and H matches the closed form of a linear f'."""
    fprime = lambda z: 1.0 + 3.0*z*z   # noqa: E731
    for kappa in (3000.0, -3000.0):
        panels, logs, *_ = level_table(fprime, kappa)
        assert np.isneginf(logs[0]) and np.all(np.isfinite(logs[1:]))
        assert abs(logs[-1]) > 709.0
        h = _h(fprime, kappa, np.linspace(0.0, 1.0, 101))
        assert np.all(np.isfinite(h)) and np.all(np.abs(h) <= 1.0)
    z = np.array([0.5, 1.0])
    assert np.allclose(_h(LINEAR_FP, 1e4, z), _linear_h(1e4, z),
                       rtol=_ulps(LINEAR_FP, 1e4), atol=0.0)


def test_scaled_antiderivative_rows_match_one_row_calls():
    """Each level of a batch, kappa > 0 and < 0 mixed, equals its own
    one-level call bit for bit, and a (4, 10) batch the flat one
    reshaped."""
    rng = np.random.default_rng(3)
    z, kappa = rng.uniform(0.0, 1.0, 40), rng.choice([20.0, -22.0], 40)
    z[::7] = 0.0
    tables = functools.cache(functools.partial(level_table, EXP_FP))
    phi = kappa*EXP_FP(z)
    batch = scaled_antiderivative(tables, EXP_FP, kappa, z, phi)
    rows = [scaled_antiderivative(tables, EXP_FP, kappa[j], z[j:j + 1],
                                  phi[j:j + 1])[0] for j in range(z.size)]
    assert np.array_equal(batch, rows) and np.all(batch[::7][kappa[::7] > 0]
                                                  == 0.0)
    assert np.array_equal(scaled_antiderivative(
        tables, EXP_FP, kappa.reshape(4, 10), z.reshape(4, 10),
        phi.reshape(4, 10)), batch.reshape(4, 10))


def _on_cost(cs, cost):
    """cs's solution with cost in place of its internal cost."""
    return rx.from_stopping(dataclasses.replace(
        cs.stopping, iparams=dataclasses.replace(cs.stopping.iparams,
                                                 cost=cost)))


@pytest.mark.parametrize("f, fprime", [
    (lambda y: y + y**1.5, lambda y: 1.0 + 1.5*np.sqrt(y)),   # f'' = inf at 0
    (lambda y: y + 5e8*y*y, lambda y: 1.0 + 1e9*y),   # kappa f' rises 1e10
], ids=["sqrt", "steep"])
def test_unresolved_custom_cost_raises(cs_a, f, fprime):
    """A custom cost whose level table does not settle within
    NODE_BUDGET raises QuadratureNotConverged from U, in seconds, with no
    NaN or RuntimeWarning on the way: for the sqrt cost the P- and
    2P-panel tables never agree, and their comparison leaves out the
    anchor's -inf."""
    cs = _on_cost(cs_a, rx.CostFunction.custom(f, fprime))
    t0 = time.time()
    with pytest.raises(QuadratureNotConverged, match="needs over"):
        rx.U(cs, 0.3, 0.5, 1)
    assert time.time() - t0 < 5.0


def test_level_table_built_once_per_cost_and_kappa(cs_a):
    """A spy on f': each of the solution's four kappa (cs._terms.a_rho)
    builds its table, one f' call on the table's levels, in the first U
    call; a second U call and a verify_hjb build none."""
    calls = []

    def fprime(y):
        calls.append(np.copy(y))
        return np.exp(y)/3.0

    cost = rx.CostFunction.custom(lambda y: (np.exp(y) - 1.0)/3.0, fprime)
    cs = _on_cost(cs_a, cost)

    def builds():
        # a build's 24 P levels, its two rules' nodes, come in one flat
        # array; a partial panel's are 2-D, verify_hjb's own ny = 4
        out = [a for a in calls if a.ndim == 1 and a.size % 24 == 0]
        calls.clear()
        return out

    calls.clear()
    rx.U(cs, np.linspace(-3.0, 1.0, 7), 0.6, 1)
    assert len(builds()) == np.unique(cs._terms.a_rho).size == 4
    rx.U(cs, 0.2, np.linspace(0.1, 1.0, 5), 2)
    rx.verify_hjb(cs, 12, 4)
    assert builds() == [] and cost._table.cache_info().currsize == 4


@given(st.floats(0.02, 0.98))
@settings(max_examples=40, deadline=None)
def test_boundary_round_trip_property(y):
    p = rx.validate(1/3, 0.38, 1.9, 1.7, 0.44, 0.5,
                    rx.CostFunction.exponential(1/3))
    cs = rx.solve_control(p)
    for i in (1, 2):
        x = rx.x_star(cs.stopping, i, y)
        assert rx.b_star(cs, i, x) == pytest.approx(y, abs=1e-10)


def _expi_mp(u):
    """e^{-u} Ei(u) to 30 digits (mpmath)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        return float(mpmath.exp(-mpmath.mpf(u))*mpmath.ei(mpmath.mpf(u)))


def test_expi_scaled_matches_scipy_on_log_grid():
    """1e-14 relative to scipy.special.expi for 1e-10 <= |u| <= 700, both
    signs. Where scipy itself is off by more than 2e-15 (near Ei's root
    0.3725, and around u = 40, where it is off by up to 2.4e-14) mpmath
    decides."""
    special = pytest.importorskip("scipy.special")
    g = np.geomspace(1e-10, 700.0, 1500)
    for u in (g, -g):
        ref = special.expi(u)*np.exp(-u)
        for j in np.flatnonzero((np.abs(u/0.3725 - 1.0) < 0.1)
                                | ((u > 35.0) & (u < 45.0))):
            mp = _expi_mp(u[j])
            if abs(ref[j] - mp) > 2e-15*abs(mp):
                ref[j] = mp
        got = expi_scaled(u)
        assert np.all(np.isfinite(got))
        assert np.all(np.abs(got - ref) <= 1e-14*np.abs(ref))


def test_expi_scaled_past_exp_overflow():
    """700 < |u| <= 1e4, where e^u overflows: 1e-14 relative to mpmath."""
    for u in np.concatenate([np.geomspace(700.0, 1e4, 60),
                             -np.geomspace(700.0, 1e4, 60)]):
        assert expi_scaled(u) == pytest.approx(_expi_mp(u), rel=1e-14)


def test_expi_scaled_extremes_and_shapes():
    u = np.array([5e-324, -5e-324, 1e-300, -1e-300, 1.7e308, -1.7e308])
    out = expi_scaled(u)
    assert np.all(np.isfinite(out))
    assert out[4] == pytest.approx(1.0/1.7e308) and out[5] < 0.0
    grid = np.linspace(-50.0, 50.0, 40).reshape(8, 5) + 0.25
    assert expi_scaled(grid).shape == (8, 5)
    assert np.array_equal(expi_scaled(grid)[3], expi_scaled(grid[3]))
    assert expi_scaled(np.zeros((0, 3))).shape == (0, 3)
    big = np.linspace(-80.0, 80.0, 40000)   # several slices, no zero
    assert np.array_equal(expi_scaled(big)[::997], expi_scaled(big[::997]))
    assert isinstance(float(expi_scaled(2.0)), float)


def _one_by_one(u):
    """expi_scaled's values evaluated one element at a time."""
    flat = np.asarray(u, dtype=float).reshape(-1)
    return np.array([_numerics._expi_slice(flat[j:j + 1])[0]
                     for j in range(flat.size)]).reshape(np.shape(u))


def _spy_expi(monkeypatch):
    """Records expi_scaled's arguments from model (args) and the sizes of
    the arrays _expi_slice evaluates (evaluated)."""
    args, evaluated = [], []
    real_expi, real_slice = model.expi_scaled, _numerics._expi_slice

    def expi(u):
        args.append(np.copy(u))
        return real_expi(u)

    def expi_slice(u):
        evaluated.append(u.size)
        return real_slice(u)

    monkeypatch.setattr(model, "expi_scaled", expi)
    monkeypatch.setattr(_numerics, "_expi_slice", expi_slice)
    return args, evaluated


def test_expi_scaled_deduplicated_is_bit_identical(cs_a, monkeypatch):
    """Each value evaluated once per distinct argument of a slice and
    gathered back is, bit for bit, the value evaluated alone: on the
    arguments verify_hjb builds, on repeats spanning a slice boundary and
    on small and empty shapes."""
    args, _ = _spy_expi(monkeypatch)
    rx.verify_hjb(cs_a, 40, 10)
    monkeypatch.undo()
    rng = np.random.default_rng(3)
    pool = np.concatenate([rng.uniform(-80.0, 80.0, 300), [1e-3, -1e-3]])
    grid = np.linspace(-50.0, 50.0, 40).reshape(8, 5) + 0.25
    cases = [args[0], rng.choice(pool, SLICE_NODES + 3000),
             np.float64(2.5), np.zeros((0, 3)), grid, np.tile(grid, (5, 8))]
    assert args[0].shape == (2, 4, 400)
    for u in cases:
        got, want = expi_scaled(u), _one_by_one(u)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_expi_scaled_evaluates_each_distinct_value_once(cs_a, monkeypatch):
    """The work the deduplication saves, counted: verify_hjb's 40x10 grid
    on example.json hands Ei 3,200 arguments holding 68 distinct values,
    and at 400x50 no more than each slice's distinct values are
    evaluated."""
    args, evaluated = _spy_expi(monkeypatch)
    rx.verify_hjb(cs_a, 40, 10)
    assert [a.size for a in args] == [3200] and sum(evaluated) == 68
    args.clear()
    evaluated.clear()
    rx.verify_hjb(cs_a, 400, 50)
    flat = args[0].reshape(-1)
    distinct = [np.unique(flat[s:s + SLICE_NODES]).size
                for s in range(0, flat.size, SLICE_NODES)]
    assert flat.size == 160_000 and sum(evaluated) <= sum(distinct) < 1000
