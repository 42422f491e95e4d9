import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import regime_extract as rx
from regime_extract import _numerics, model
from regime_extract._numerics import (SLICE_NODES, adaptive_simpson, bisect,
                                      expi_scaled)
from regime_extract.errors import NoBracket, QuadratureNotConverged


def test_bisect_finds_root():
    root = bisect(lambda x: x*x - 2.0, 0.0, 2.0, xtol=1e-14)
    assert root == pytest.approx(math.sqrt(2.0), abs=1e-13)


def test_bisect_requires_sign_change():
    with pytest.raises(NoBracket):
        bisect(lambda x: x*x + 1.0, -1.0, 1.0)


def test_simpson_exact_on_cubic():
    val = adaptive_simpson(lambda x: x**3 - x, 0.0, 2.0, tol=1e-12)
    assert val == pytest.approx(2.0, abs=1e-12)


def test_simpson_oscillatory_vs_closed_form():
    val = adaptive_simpson(lambda x: np.sin(3.0*x), 0.0, 2.0, tol=1e-11)
    assert val == pytest.approx((1 - math.cos(6.0))/3.0, abs=1e-10)


def test_simpson_empty_interval():
    assert adaptive_simpson(lambda x: x, 1.0, 1.0) == 0.0


def test_simpson_node_budget_stops_default_depth():
    # tol=0 never converges; the node budget ends the doubling (2^17 panels)
    t0 = time.time()
    with pytest.raises(QuadratureNotConverged, match="budget"):
        adaptive_simpson(lambda x: np.sin(50*x), 0.0, 3.0, tol=0.0)
    assert time.time() - t0 < 5.0


def test_simpson_rows_match_one_row_calls():
    """Each row of a batch, one integrand per row, equals its own one-row
    call bit for bit, in a flat batch and in a (4, 10) one."""
    rng = np.random.default_rng(3)
    a = rng.uniform(-1.0, 0.5, 40)
    b = a + rng.uniform(0.0, 1.5, 40)
    b[::7] = a[::7]  # empty intervals integrate to 0
    c = rng.uniform(-6.0, 12.0, 40)
    batches = {}
    for name, g in (("exp", lambda z, c: np.exp(c*z)),
                    ("sin", lambda z, c: np.sin(7.0*z)*c)):
        batch = batches[name] = adaptive_simpson(g, a, b, c)
        assert batch.shape == (40,)
        rows = np.array([adaptive_simpson(g, lo, hi, ci)
                         for lo, hi, ci in zip(a, b, c)])
        assert np.array_equal(batch, rows)
        assert np.array_equal(adaptive_simpson(
            g, a.reshape(4, 10), b.reshape(4, 10), c.reshape(4, 10)),
            batch.reshape(4, 10))
        assert np.all(batch[::7] == 0.0)
    assert batches["exp"][1] == pytest.approx(
        (math.exp(c[1]*b[1]) - math.exp(c[1]*a[1]))/c[1], rel=1e-9)


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
