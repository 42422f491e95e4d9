"""The input rules of regime_extract.model, each tested over every entry
point that takes that kind of input: a count (_count), a finite positive
number (_positive), a price, reserve level or margin (finite_prices),
the one state cap of U's grids (MAX_U_STATES) and the cap of
compare_boundaries' grid (MAX_BOUNDARY_GRID). KINDS declares the kind of
every parameter of the public API, and test_every_wrong_kind_is_refused
feeds each numeric one every wrong value of its kind."""
import dataclasses
import inspect
import io
import json
import math
import os
import warnings

import numpy as np
import pytest

import regime_extract as rx
from conftest import A_KW, B_KW
from regime_extract import control, stopping
from regime_extract.cli import main
from regime_extract.errors import (CostNotConvex, NonPositiveParameter,
                                   OutOfRange, SolverError)
from test_api import PINNED_SIGNATURES

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
    ("sigma2_grid", [[0.78], [0.8]]), ("sigma1_grid", [[0.02], [0.03, 0.04]])])
def test_feasibility_scan_takes_one_number_rates_and_1d_grids(field, bad):
    # rho=[0.03] raised an untyped TypeError, a 2-D sigma1 grid gave 3-D
    # arrays and a ragged one an untyped ValueError from the shape check
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


# every call that takes prices and reserve levels together
STATES = {
    "U": lambda cs, x, y: rx.U(cs, x, y, 1),
    "U_x": lambda cs, x, y: rx.U_x(cs, x, y, 2),
    "U_xx": lambda cs, x, y: rx.U_xx(cs, x, y, 1),
    "w": lambda cs, x, y: rx.w(cs.stopping, x, 1, y),
    "w_x": lambda cs, x, y: rx.w_x(cs.stopping, x, 2, y),
    "w_xx": lambda cs, x, y: rx.w_xx(cs.stopping, x, 1, y),
    "v": lambda cs, x, y: rx.v(cs.stopping, x, 2, y),
}


@pytest.mark.parametrize("field", list(STATES))
def test_prices_and_levels_must_broadcast(cs_a, field):
    # U(cs, [0.1, 0.2, 0.3], [0.5, 0.6], 1) raised numpy's untyped
    # ValueError, as did w and v
    assert STATES[field](cs_a, [[0.1], [0.2], [0.3]], [0.5, 0.6]).shape == \
        (3, 2)
    with pytest.raises(OutOfRange, match=r"^prices of shape \(3,\) and "
                                         r"reserve levels of shape \(2,\)"):
        STATES[field](cs_a, [0.1, 0.2, 0.3], [0.5, 0.6])


# The kind of every parameter of PINNED_SIGNATURES, checked against it both
# ways, so a new public parameter fails here until it is given one. A
# numeric kind names the rule in model that checks it: price(s), level(s)
# and margin (finite_prices; "prices" also covers alpha and the shifts
# u, v, which have no ends either), regime and count (_count; w_xx's side
# is the count -1 or +1), positive(s) (_positive) and flag (a bool).
# The singular kinds take one value.
# "object" is a non-numeric input.
SCALAR_KINDS = {"price", "level", "margin", "regime", "count", "positive",
                "flag"}
NUMERIC_KINDS = SCALAR_KINDS | {"prices", "levels", "positives"}
_RATES = dict(rho="positive", sigma1="positive", sigma2="positive",
              lambda1="positive", lambda2="positive", c="positive",
              cost="object")
_VALUE = dict(cs="object", x="prices", y="levels", i="regime")
_SELLING = dict(sol="object", x="prices", i="regime", y="levels")
_START = dict(cs="object", x0="price", y0="level", i0="regime",
              policy="object", cfg="object")
KINDS = {
    "CostFunction": dict(kind="object", gamma="positive", alpha="positive",
                         beta="positive", f="object", fprime="object"),
    "ModelParams": _RATES,
    "Policy": dict(kind="object", bfun="object"),
    "SimConfig": dict(dt="positive", horizon="positive", n_paths="count",
                      base_seed="count", antithetic="flag",
                      batch_pairs="count"),
    "U": _VALUE,
    "U_report": dict(cs="object", x="price", y="level", i="regime"),
    "U_x": _VALUE,
    "U_xx": _VALUE,
    "b_sharp": dict(params="object", sigma="positive", x="prices"),
    "b_star": dict(cs="object", i="regime", x="prices"),
    "chat": dict(params="object", y="levels"),
    "check_assumptions": dict(params="object", eps="margin"),
    "compare_boundaries": dict(cs="object", n="count"),
    "estimate_value": _START,
    "feasibility_scan": dict(rho="positive", lambda1="positive",
                             lambda2="positive", sigma1_grid="positives",
                             sigma2_grid="positives"),
    "from_stopping": dict(sol="object"),
    "g1": dict(params="object", roots="object", u="prices", v="prices"),
    "g2": dict(params="object", roots="object", u="prices", v="prices"),
    "m1": dict(params="object", roots="object", v="prices"),
    "m2": dict(params="object", roots="object", v="prices"),
    "params_from_config": dict(cfg="object"),
    "phi": dict(params="object", i="regime", alpha="prices"),
    "simulate_traces": dict(_START, n_paths="count"),
    "single_regime_boundary": dict(params="object", sigma="positive",
                                   y="levels"),
    "skorokhod_check": dict(cs="object", trace="object"),
    "solve_characteristic": dict(params="object"),
    "solve_control": dict(params="object"),
    "solve_z": dict(params="object"),
    "trace_to_csv": dict(trace="object", path="object"),
    "v": _SELLING,
    "validate": _RATES,
    "verify_fbp": dict(sol="object", y="levels", n_points="count"),
    "verify_hjb": dict(cs="object", nx="count", ny="count"),
    "w": _SELLING,
    "w_x": _SELLING,
    "w_xx": dict(_SELLING, side="count"),
    "x_star": dict(sol="object", i="regime", y="levels"),
    "zhat2": dict(params="object", roots="object"),
}
# results and errors: the library fills their fields
RECORDS = {"AssumptionReport", "AssumptionViolated", "Characteristic",
           "ControlSolution", "NonPositiveParameter", "OrderingViolated",
           "SRPViolated", "SimOutcome", "StoppingSolution", "Trace",
           "ValueReport", "VerificationFailed"}

EXP = rx.CostFunction.exponential(1/3)
REFLECT = rx.Policy.reflect_optimal()
# a valid call per callable with a numeric parameter, small enough that
# every wrong value runs in well under a second: each numeric parameter
# is a keyword whose default is a valid value of its kind
CALLS = {
    "CostFunction": lambda cs, gamma=1/3, alpha=0.2, beta=1/3: (
        rx.CostFunction("exponential", gamma=gamma),
        rx.CostFunction("quadratic", alpha=alpha, beta=beta)),
    "ModelParams": lambda cs, **kw: rx.ModelParams(**{**A_KW, **kw},
                                                   cost=EXP),
    "SimConfig": lambda cs, dt=1e-2, horizon=0.5, n_paths=8, base_seed=3,
    antithetic=True, batch_pairs=4: rx.estimate_value(
        cs, 0.6, 0.5, 2, REFLECT, rx.SimConfig(dt, horizon, n_paths,
                                               base_seed, antithetic,
                                               batch_pairs)),
    "U": lambda cs, x=0.6, y=0.5, i=1: rx.U(cs, x, y, i),
    "U_report": lambda cs, x=0.6, y=0.5, i=1: rx.U_report(cs, x, y, i),
    "U_x": lambda cs, x=0.6, y=0.5, i=1: rx.U_x(cs, x, y, i),
    "U_xx": lambda cs, x=0.6, y=0.5, i=1: rx.U_xx(cs, x, y, i),
    "b_sharp": lambda cs, sigma=0.5, x=0.6: rx.b_sharp(cs.params, sigma, x),
    "b_star": lambda cs, i=1, x=0.6: rx.b_star(cs, i, x),
    "chat": lambda cs, y=0.5: rx.chat(cs.params, y),
    "check_assumptions": lambda cs, eps=0.0: rx.check_assumptions(cs.params,
                                                                  eps),
    "compare_boundaries": lambda cs, n=10: rx.compare_boundaries(cs, n),
    "estimate_value": lambda cs, x0=0.6, y0=0.5, i0=2: rx.estimate_value(
        cs, x0, y0, i0, REFLECT, SMALL),
    "feasibility_scan": lambda cs, **kw: rx.feasibility_scan(**{**SCAN,
                                                                **kw}),
    "g1": lambda cs, u=1.0, v=0.1: rx.g1(cs.stopping.iparams,
                                         cs.stopping.roots, u, v),
    "g2": lambda cs, u=1.0, v=0.1: rx.g2(cs.stopping.iparams,
                                         cs.stopping.roots, u, v),
    "m1": lambda cs, v=0.0: rx.m1(cs.stopping.iparams, cs.stopping.roots, v),
    "m2": lambda cs, v=0.0: rx.m2(cs.stopping.iparams, cs.stopping.roots, v),
    "phi": lambda cs, i=1, alpha=0.5: rx.phi(cs.params, i, alpha),
    "simulate_traces": lambda cs, x0=0.6, y0=0.5, i0=2, n_paths=2:
        rx.simulate_traces(cs, x0, y0, i0, REFLECT, SMALL, n_paths),
    "single_regime_boundary": lambda cs, sigma=0.5, y=0.5:
        rx.single_regime_boundary(cs.params, sigma, y),
    "v": lambda cs, x=0.6, i=1, y=0.5: rx.v(cs.stopping, x, i, y),
    "validate": lambda cs, **kw: rx.validate(**{**A_KW, **kw}, cost=EXP),
    "verify_fbp": lambda cs, y=0.5, n_points=50: rx.verify_fbp(
        cs.stopping, y, n_points),
    "verify_hjb": lambda cs, nx=4, ny=4: rx.verify_hjb(cs, nx, ny),
    "w": lambda cs, x=0.6, i=1, y=0.5: rx.w(cs.stopping, x, i, y),
    "w_x": lambda cs, x=0.6, i=1, y=0.5: rx.w_x(cs.stopping, x, i, y),
    "w_xx": lambda cs, x=0.6, i=1, y=0.5, side=-1: rx.w_xx(cs.stopping, x,
                                                           i, y, side),
    "x_star": lambda cs, i=1, y=0.5: rx.x_star(cs.stopping, i, y),
}
# the valid values of the callables that take keywords through **kw
VALID = {"ModelParams": A_KW, "validate": A_KW, "feasibility_scan": SCAN}
WRONG = {"str": "x", "bool": True, "None": None, "complex": 0.5j,
         "nan": math.nan, "inf": math.inf, "-inf": -math.inf,
         "object": object()}


def _numeric(name):
    return {param: kind for param, kind in KINDS[name].items()
            if kind in NUMERIC_KINDS}


def _valid(name, param):
    if name in VALID:
        return VALID[name][param]
    return inspect.signature(CALLS[name]).parameters[param].default


def _wrong_values(name, param):
    """(label, value) of every wrong value of param's kind: None is a
    wrong value only where it is not the parameter's own default, a bool
    only where the kind is not a flag, and a scalar kind also gets a 2-D
    array of valid values."""
    kind = KINDS[name][param]
    default = inspect.signature(getattr(rx, name)).parameters[param].default
    out = {label: value for label, value in WRONG.items()
           if not (label == "None" and default is None)
           and not (label == "bool" and kind == "flag")}
    if kind in SCALAR_KINDS:
        out["2d"] = np.full((2, 2), _valid(name, param))
    return out


def test_every_pinned_parameter_has_a_kind():
    assert set(KINDS) | RECORDS == set(PINNED_SIGNATURES)
    assert not set(KINDS) & RECORDS
    for name, kinds in KINDS.items():
        assert tuple(kinds) == PINNED_SIGNATURES[name], name
        assert set(kinds.values()) <= NUMERIC_KINDS | {"object"}, name
    # a valid call for exactly the callables with a numeric parameter,
    # with every such parameter
    assert set(CALLS) == {name for name in KINDS if _numeric(name)}
    for name, call in CALLS.items():
        params = set(inspect.signature(call).parameters) - {"cs", "kw"}
        assert params | set(VALID.get(name, ())) == set(_numeric(name))


@pytest.mark.parametrize("name", list(CALLS))
def test_kind_table_calls_are_valid(cs_a, name):
    CALLS[name](cs_a)


@pytest.mark.parametrize("name,param,label", [
    (name, param, label) for name in CALLS for param in _numeric(name)
    for label in _wrong_values(name, param)])
def test_every_wrong_kind_is_refused(cs_a, name, param, label):
    # before reserve levels and start states had a rule, 167 of these 718
    # calls raised an untyped TypeError or ValueError and 79 returned:
    # levels, the start state, sigma, phi, m1, m2, g1, g2, eps and bools or
    # text in ModelParams and CostFunction among them
    with pytest.raises(SolverError):
        CALLS[name](cs_a, **{param: _wrong_values(name, param)[label]})


def test_reserve_levels_are_real_numbers(cs_a):
    # U(cs, 0.6, "0.5", 2) read the string as 0.5 and U(cs, 0.6, True, 2)
    # the bool as 1.0; estimate_value(cs, "0.6", ...) raised a TypeError
    for bad in ("0.5", True, np.bool_(True), [0.5, "a"]):
        with pytest.raises(OutOfRange, match="^reserve levels must be"):
            rx.U(cs_a, 0.6, bad, 2)
        with pytest.raises(OutOfRange, match="^reserve levels must be one"):
            rx.estimate_value(cs_a, 0.6, bad, 2, REFLECT, SMALL)
        with pytest.raises(OutOfRange, match="^prices must be one"):
            rx.estimate_value(cs_a, bad, 0.5, 2, REFLECT, SMALL)
    # the quadratic cost's f'(y) took a list level as a sequence
    quad = rx.solve_z(rx.validate(**B_KW, cost=rx.CostFunction.quadratic(
        1.0, 1.0)))
    assert np.array_equal(rx.v(quad, 0.5, 1, [0.25, 0.5]),
                          rx.v(quad, 0.5, 1, np.array([0.25, 0.5])))


def test_trace_to_csv_takes_paths_and_streams_only(cs_a, tmp_path):
    # trace_to_csv(trace, 1) wrote the CSV to descriptor 1 and closed it
    trace = _trace(cs_a)
    r, w = os.pipe()
    try:
        for bad in (w, True, np.int64(w), b"out.csv", None):
            with pytest.raises(OutOfRange, match="^path must be"):
                rx.trace_to_csv(trace, bad)
        os.write(w, b"open")   # the descriptor is still open, and empty
        assert os.read(r, 16) == b"open"
    finally:
        os.close(r)
        os.close(w)
    text = io.StringIO()
    rx.trace_to_csv(trace, text)
    for path in (tmp_path/"a.csv", str(tmp_path/"b.csv")):
        rx.trace_to_csv(trace, path)
        assert open(path, newline="").read() == text.getvalue()


CONFIG = dict(A_KW, cost={"type": "exp", "gamma": 1/3})


@pytest.mark.parametrize("change,error", [
    ({"rho": True}, NonPositiveParameter), ({"c": False}, NonPositiveParameter),
    ({"cost": {"type": "exp", "gamma": True}}, CostNotConvex),
    ({"cost": {"type": "quad", "alpha": 0.5, "beta": True}}, CostNotConvex),
    ({"sigma1": "x"}, NonPositiveParameter)],
    ids=["rho_true", "c_false", "gamma_true", "beta_true", "text"])
def test_config_bools_are_not_rates(capsys, tmp_path, change, error):
    # {"rho": true} gave rho = 1.0, and "gamma": true a gamma of 1.0
    with pytest.raises(error):
        rx.params_from_config({**CONFIG, **change})
    path = tmp_path/"bool.json"
    path.write_text(json.dumps({**CONFIG, **change}))
    assert main(["check", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    # numbers as text stay accepted, as a config may write them
    text = {k: str(v) for k, v in A_KW.items()}
    assert rx.params_from_config({**CONFIG, **text}) == \
        rx.params_from_config(CONFIG)


def test_w_xx_side_is_minus_or_plus_one(cs_a):
    # side=0 took the right limit and side="a" raised an untyped TypeError
    sol = cs_a.stopping
    x1 = rx.x_star(sol, 1, 0.5)
    left, right = (rx.w_xx(sol, x1, 1, 0.5, s) for s in (-1, np.int64(1)))
    assert left != right
    for bad in (0, "a", True, 1.0, 2):
        with pytest.raises(OutOfRange,
                           match=r"^side must be -1 or \+1, got "):
            rx.w_xx(sol, x1, 1, 0.5, bad)


@pytest.mark.parametrize("y", [[[0.1, 0.2]], [], np.empty(0),
                               np.full((1, 1), 0.5)],
                         ids=["rows", "empty", "empty_array", "one_by_one"])
def test_verify_fbp_takes_one_level_or_a_1d_array(cs_a, monkeypatch, y):
    # [[0.1, 0.2]] gave two reports, and [] an empty list that read as a pass
    def built(*args, **kw):
        raise AssertionError("verify_fbp went past its level check")

    monkeypatch.setattr(stopping, "_fbp_level", built)
    with pytest.raises(OutOfRange, match="^y must be a level or a non-empty"):
        rx.verify_fbp(cs_a.stopping, y, n_points=50)
