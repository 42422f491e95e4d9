"""The input rules of regime_extract.model, each tested over every entry
point that takes that kind of input: a count (_count), a finite positive
number (_positive), a price (finite_prices), a price range
(_price_range), the one state cap of U's grids (MAX_U_STATES) and the
cap of compare_boundaries' grid (MAX_BOUNDARY_GRID)."""
import dataclasses
import io
import math
import warnings

import numpy as np
import pytest

import regime_extract as rx
from regime_extract import control
from regime_extract.cli import main
from regime_extract.errors import NonPositiveParameter, OutOfRange

SMALL = rx.SimConfig(dt=1e-2, horizon=0.5, n_paths=8, base_seed=3)


def _trace(cs):
    return rx.simulate_traces(cs, 0.2, 0.5, 2, rx.Policy.reflect_optimal(),
                              SMALL, 8)


# every count field of the API, as a call that takes the value there
COUNTS = {
    "n_paths": lambda cs, v: dataclasses.replace(SMALL, n_paths=v),
    "base_seed": lambda cs, v: dataclasses.replace(SMALL, base_seed=v),
    "batch_pairs": lambda cs, v: dataclasses.replace(SMALL, batch_pairs=v),
    "n_points": lambda cs, v: rx.verify_fbp(cs.stopping, 0.5, n_points=v),
    "nx": lambda cs, v: rx.verify_hjb(cs, nx=v, ny=4),
    "ny": lambda cs, v: rx.verify_hjb(cs, nx=4, ny=v),
    "n": lambda cs, v: rx.compare_boundaries(cs, n=v),
    "path_index": lambda cs, v: rx.trace_to_csv(_trace(cs), io.StringIO(),
                                                v),
}


@pytest.mark.parametrize("value", [True, False, np.bool_(True), 4.0,
                                   np.float64(4.0)],
                         ids=["True", "False", "np_True", "float", "np_float"])
@pytest.mark.parametrize("field", list(COUNTS))
def test_counts_refuse_bools_and_floats(cs_a, field, value):
    # verify_hjb(cs, nx=True, ny=True) returned a report and
    # SimConfig(n_paths=True) was accepted: only the regime refused bools
    COUNTS[field](cs_a, 4)
    COUNTS[field](cs_a, np.int64(4))
    with pytest.raises(OutOfRange, match=f"^{field} must be an integer"):
        COUNTS[field](cs_a, value)


SCAN = dict(rho=0.0315, lambda1=0.016, lambda2=0.015,
            sigma1_grid=[0.0245, 0.03], sigma2_grid=[0.78, 0.8])


@pytest.mark.parametrize("bad", [-0.5, 0.0, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", list(SCAN))
def test_feasibility_scan_refuses_nonpositive_inputs(field, bad):
    # a negative volatility was marked feasible; a negative rho or a zero
    # sigma gave numpy warnings and then False
    kw = dict(SCAN)
    kw[field] = [kw[field][0], bad] if field.endswith("grid") else bad
    with pytest.raises(NonPositiveParameter) as exc:
        rx.feasibility_scan(**kw)
    assert exc.value.field == field
    assert repr(exc.value.value) == repr(bad)   # the first entry refused


@pytest.mark.parametrize("field,bad", [
    ("rho", [0.0315]), ("lambda1", np.array([0.016])), ("lambda2", [[0.015]]),
    ("sigma1_grid", [[0.0245, 0.03]]), ("sigma2_grid", 0.8),
    ("sigma2_grid", [[0.78], [0.8]])])
def test_feasibility_scan_takes_one_number_rates_and_1d_grids(field, bad):
    # rho=[0.03] raised an untyped TypeError, and a 2-D sigma1 grid gave
    # 3-D arrays
    with pytest.raises(OutOfRange, match=f"^{field} must be a"):
        rx.feasibility_scan(**dict(SCAN, **{field: bad}))
    feas, caseb = rx.feasibility_scan(**SCAN)
    assert feas.shape == caseb.shape == (2, 2)


@pytest.mark.parametrize("grid,bad", [
    (["0.025"], "0.025"), ([True], True), ([0.0245, True], True),
    (["x"], "x"), ([0.0245, "0.025"], "0.025"),
    ((0.0245, np.bool_(True)), np.bool_(True))],
    ids=["str", "True", "mixed_bool", "text", "mixed_str", "tuple_np_True"])
@pytest.mark.parametrize("field", ["sigma1_grid", "sigma2_grid"])
def test_feasibility_scan_grids_hold_numbers_as_given(field, grid, bad):
    # ['0.025'] and [True] read as 0.025 and 1.0 and returned a raster, as
    # did [0.0245, True]; ['x'] raised an untyped ValueError
    with pytest.raises(NonPositiveParameter) as exc:
        rx.feasibility_scan(**dict(SCAN, **{field: grid}))
    assert exc.value.field == field
    assert repr(exc.value.value) == repr(bad)


@pytest.mark.parametrize("flag,value", [
    ("--rho", "-0.03"), ("--rho", "0"), ("--lambda1", "-0.017"),
    ("--lambda2", "0"), ("--sigma1-range", "0:0.06"),
    ("--sigma2-range", "-1.2:-0.5"), ("--sigma1-range", "-inf:0.06"),
    ("--sigma2-range", "-1e308:1e308")])
def test_scan_region_refuses_nonpositive_inputs(capsys, flag, value):
    argv = {"--rho": "0.03", "--lambda1": "0.017", "--lambda2": "0.016",
            "--sigma1-range": "0.01:0.06", "--sigma2-range": "0.5:1.2"}
    argv[flag] = value
    with warnings.catch_warnings():   # and without a numpy warning
        warnings.simplefilter("error")
        code = main(["scan-region", "--steps", "3"]
                    + [f"{k}={v}" for k, v in argv.items()])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize("bad", ["0.1", 1j, True, np.bool_(True), -0.1,
                                 math.nan, math.inf, [0.1], np.array([0.1])],
                         ids=["str", "complex", "True", "np_True", "negative",
                              "nan", "inf", "list", "array"])
@pytest.mark.parametrize("field", ["dt", "horizon"])
def test_resolved_horizon_refuses_nonpositive_numbers(params_a, field, bad):
    # dt="0.1" raised an untyped TypeError, and an array dt a ValueError
    cfg = dataclasses.replace(SMALL, **{field: bad})
    with pytest.raises(OutOfRange, match="dt <= horizon"):
        cfg.resolved_horizon(params_a)


def test_hjb_grid_one_state_over_the_cap_is_refused_first(cs_a, monkeypatch):
    # verify_hjb hands its grid to one U call, so U's cap is its cap; past
    # it neither chat nor the meshgrid runs
    def built(*args, **kw):
        raise AssertionError("verify_hjb went past its size check")

    monkeypatch.setattr(control, "chat", built)
    monkeypatch.setattr(control.np, "meshgrid", built)
    nx, ny = 17, 61681
    assert nx*ny == control.MAX_U_STATES + 1
    for size in ((nx, ny), (ny, nx), (np.int64(nx), np.int64(ny))):
        with pytest.raises(OutOfRange, match="nx\\*ny"):
            rx.verify_hjb(cs_a, *size)
    with pytest.raises(OutOfRange, match="nx must"):   # not a wrapped product
        rx.verify_hjb(cs_a, np.int64(2**62 + 1), 4)


def test_compare_boundaries_caps_n_before_allocating(cs_a, monkeypatch):
    # n=2**40 asked numpy for 8 TiB and raised an untyped MemoryError
    def built(*args, **kw):
        raise AssertionError("compare_boundaries went past its size check")

    monkeypatch.setattr(control.np, "linspace", built)
    cap = control.MAX_BOUNDARY_GRID
    for n in (cap + 1, 2**40, np.int64(2**40)):
        with pytest.raises(OutOfRange, match="^n must be an integer"):
            rx.compare_boundaries(cs_a, n=n)
    with pytest.raises(AssertionError):   # the cap itself is allowed
        rx.compare_boundaries(cs_a, n=cap)


# every price input, as a call that takes the value there
PRICES = {
    "U": lambda cs, v: rx.U(cs, v, 0.5, 1),
    "U_x": lambda cs, v: rx.U_x(cs, v, np.array([0.5, 0.7]), 2),
    "U_xx": lambda cs, v: rx.U_xx(cs, v, 0.5, 2),
    "w": lambda cs, v: rx.w(cs.stopping, v, 1, 0.5),
    "w_x": lambda cs, v: rx.w_x(cs.stopping, v, 2, 0.5),
    "v": lambda cs, v: rx.v(cs.stopping, v, 2, 0.3),
    "b_star": lambda cs, v: rx.b_star(cs, 1, v),
    "b_sharp": lambda cs, v: rx.b_sharp(cs.params, cs.params.sigma1, v),
}


@pytest.mark.parametrize("value", ["0.6", True, np.bool_(True), None, 1j,
                                   [0.6, "a"], [[0.6], [0.6, 0.7]]],
                         ids=["str", "True", "np_True", "None", "complex",
                              "mixed_list", "ragged"])
@pytest.mark.parametrize("field", list(PRICES))
def test_prices_are_real_numbers(cs_a, field, value):
    # w(sol, "0.6", 1, 0.5) and b_star(cs, 1, "0.6") raised an untyped
    # TypeError, and U(cs, "0.6", 0.5, 1) read the string as 0.6
    for good in (0.6, 1, np.float64(0.6), [0.6, 0.7], np.array([1, 2])):
        PRICES[field](cs_a, good)
    with pytest.raises(OutOfRange, match="^prices must be finite real"):
        PRICES[field](cs_a, value)


def test_integer_prices_give_the_float_values(cs_a):
    for field, call in PRICES.items():
        assert np.array_equal(call(cs_a, np.array([1, -2])),
                              call(cs_a, np.array([1.0, -2.0]))), field


# every price range, as a call that takes the value there
RANGES = {
    "grid": lambda cs, v: rx.verify_fbp(cs.stopping, 0.5, n_points=50,
                                        grid=v),
    "x_range": lambda cs, v: rx.compare_boundaries(cs, n=10, x_range=v),
}


@pytest.mark.parametrize("value", [
    (0.0, 1.0, 2.0), (1.0,), "ab", "12", (1.0, 0.0), (0.5, 0.5),
    (True, 2.0), ("0", "1"), 3.0, (math.nan, 1.0), (0.0, math.inf),
    (-1e308, 1e308), (0, 10**400), np.array([[0.0, 1.0], [1.0, 2.0]])],
    ids=["triple", "single", "text", "digits", "descending", "equal",
         "bool_end", "str_ends", "number", "nan", "inf",
         "overflowing_width", "huge_int", "rows"])
@pytest.mark.parametrize("field", list(RANGES))
def test_price_ranges_are_pairs_of_numbers(cs_a, monkeypatch, field, value):
    # x_range=(0.0, 1.0, 2.0) and (1.0,) and grid="ab" raised an untyped
    # ValueError, x_range="ab" a TypeError, and a descending x_range ran
    def built(*args, **kw):
        raise AssertionError(f"{field} went past its check")

    monkeypatch.setattr(control.np, "linspace", built)
    for good in ((-1.0, 1.0), [-1, 1], np.array([-1.0, 1.0]),
                 (np.float64(-1.0), np.int64(1))):
        with pytest.raises(AssertionError):
            RANGES[field](cs_a, good)
    with pytest.raises(OutOfRange, match=f"^{field} must be \\(lo, hi\\)"):
        RANGES[field](cs_a, value)
