"""Extraction policy surface: reflecting boundaries, value U, HJB verifier.

U(x, y, i) integrates the selling value v(x, i; z) over reserve z in
[0, y]. The integrand switches branch where z crosses the boundary
inverses b_1(x) <= b_2(x) (internal labels), so the integral is split
into panels: the fully stopped one is exact for any cost. On the others
w continues as a sum of exponential terms in x - x*_i(z) (the stopping
module's _branch_form, anchored at the boundaries, so on its panel no
exponential exceeds e^{alpha5 z2}) plus a linear term. The cost
integrates each term over z (CostFunction.exp_integral: in closed form
for the built-in families, by Simpson for a custom cost), so this module
never asks which family it has. Every regime and x-derivative order
weighs the same integrals.
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import (OrderingViolated, PreconditionViolated,
                     VerificationFailed)
from .model import (LEVELS, ModelParams, _count, _price_range,
                    _single_shift, _states, chat, finite_prices)
from .stopping import (StoppingSolution, _branch_form, solve_z,
                       v as v_stop, x_star)

HJB_TAU = 1e-5   # verify_hjb's acceptance tolerance
# most states of a U, U_x, U_xx call or verify_hjb grid; 450-470 B each
MAX_U_STATES = 1 << 20
# most prices of a boundary grid: compare_boundaries' n, near 72 B each,
# and the CLI boundary's --grid, whose two CSVs are built in memory
MAX_BOUNDARY_GRID = 1 << 20


@dataclass(frozen=True)
class ControlSolution:
    """Extraction-problem solution, built on the stopping solution."""

    stopping: StoppingSolution

    @property
    def params(self) -> ModelParams:
        return self.stopping.params

    @cached_property
    def _terms(self) -> "_Terms":
        """The level-free data of U, once per solution (_Terms)."""
        sol = self.stopping
        p = sol.iparams
        forms = (_branch_form(sol), _branch_form(sol, True))
        columns = np.array([(a, s + p.c, max(0.0, a*(sol.z1 - s)), a/p.rho)
                            for rates, _, s, _, _ in forms for a in rates])
        lin, none, weights = forms[1][3], (0.0, 0.0), {}
        for k in (1, 2):
            stop = (1.0, 0.0) if k == 1 else (lin, 1.0 - lin)
            for o, stops in enumerate((stop + none, none + stop, none*2)):
                weights[k, o] = [a**o*fk*pk for rates, pref, _, _, f in forms
                                 for a, fk, pk in zip(rates, f.get(k, none),
                                                      pref)] + list(stops)
        return _Terms(*columns.T[:, :, None], weights,
                      np.array([[sol.shift(k)] for k in (1, 2)]))


# Per branch term of w (stopping._branch_form: a3, a4 below x*_1, a5, -a5
# on the band) as (4, 1) columns: its rate a, s + c for its anchor shift s,
# cap, the most its exponent reaches on its panel, and a/rho. Per
# (internal regime k, order o) the weights of the four term integrals
# (a^o times the regime's factor and the prefactor) and of the stopped
# parts, rows (order 0 | 1, b_k): regime 2 continues on [b1, b2], where
# the band's linear part lin (x - chat) integrates to lin times the
# stopped part at b1 minus that at b2. The boundary shifts (z1, z1 + z2).
_Terms = namedtuple("_Terms", "rate anchor cap a_rho weights shifts")


def solve_control(params: ModelParams) -> ControlSolution:
    return from_stopping(solve_z(params))


def from_stopping(sol: StoppingSolution) -> ControlSolution:
    return ControlSolution(stopping=sol)


def external_shift(cs: ControlSolution, i: int) -> float:
    sol = cs.stopping
    return sol.shift(sol.internal_regime(i))


def _boundary_inverse(params: ModelParams, shift: float, x):
    """Clamped inverse of y -> shift + c - f'(y)/rho, in [0, 1], by the
    cost's derivative_inverse, at float prices x. Scalars give a float."""
    out = params.cost.derivative_inverse(params.rho*(params.c + shift - x))
    return float(out) if np.ndim(out) == 0 else out


def _boundary_span(cs: ControlSolution):
    """Prices (lo, hi) past the four curves b#(sigma1), b*_1, b*_2 and
    b#(sigma2) by 1, in either labeling: a curve of shift s is 1 up to
    s + chat(1) and 0 from s + chat(0)."""
    p = cs.params
    shifts = (_single_shift(p, p.sigma1), _single_shift(p, p.sigma2),
              external_shift(cs, 1), external_shift(cs, 2))
    return min(shifts) + chat(p, 1.0) - 1.0, max(shifts) + chat(p, 0.0) + 1.0


def b_star(cs: ControlSolution, i: int, x):
    """Reflecting reserve boundary: clamped inverse of y -> x*_i(y)
    = shift_i + c - f'(y)/rho. Prices go through finite_prices."""
    return _boundary_inverse(cs.params, external_shift(cs, i),
                             finite_prices(x))


def _u_surface(cs: ControlSolution, x, y, series):
    """U or its x-derivatives at the states (x, y), broadcast as arrays:
    one entry per (regime, order 0..2 of the x-derivative) in series.

    Below b_1(x) both regimes continue, up to b_2(x) only regime 2 does
    (internal labels). There w's branches are sums of four exponential
    terms e^{a (x - s - c) + (a/rho) f'(z)} (cs._terms, prefactors
    apart), whose integrals over the level z the cost gives
    (exp_integral); every series weighs the same four. The stopped panel
    is exact for any cost. Raises OutOfRange on prices and reserve levels
    that finite_prices refuses or, before anything of the broadcast size
    is allocated, on shapes that do not broadcast together or more than
    MAX_U_STATES states.
    """
    x, y = _states(x, y)   # unbroadcast: their sizes
    if x.shape != y.shape:
        x, y = np.broadcast_arrays(x, y)   # views: nothing is built yet
    _count("the number of states", x.size, 0, MAX_U_STATES)
    shape, x, y = x.shape, x.reshape(-1), y.reshape(-1)
    sol = cs.stopping
    series = [(sol.internal_regime(i), o) for i, o in series]
    p, t = sol.iparams, cs._terms
    bs = np.minimum(_boundary_inverse(p, t.shifts, x), y)
    # a perturbed z2 < 0 inverts the band: empty, regime 2 stops at b1
    np.maximum(bs[0], bs[1], out=bs[1])
    # stopped on [b_k, y]: u = x - c + f'(z)/rho; order 0 also carries
    # the -f(y)/rho of U, which leaves -f(b_k)/rho. Rows: (order, b_k).
    yb = y - bs
    stopped = np.concatenate([(x - p.c)*yb - p.cost.value(bs)/p.rho, yb])
    ints = p.cost.exp_integral(t.rate, x, t.anchor, t.a_rho,
                               _panel_ends(x, bs), t.cap)
    weights = np.array([t.weights[s] for s in series])
    # the parts' axis is summed last and contiguous: each state's sum is
    # the same whatever the array
    out = np.multiply(weights[:, None, :], np.concatenate([ints, stopped]).T,
                      order="C").sum(axis=-1)
    return out.reshape((len(series),) + shape)


def _panel_ends(x, bs):
    """(lo/hi, term, state) ends of the four branch terms' panels: [0, b1]
    for a3, a4 and [b1, b2] for a5, -a5 (bs). Passed straight to
    exp_integral, they are freed as soon as it is done with them."""
    ends = np.zeros((2, 4) + x.shape)
    ends[0, 2:] = ends[1, :2] = bs[0]
    ends[1, 2:] = bs[1]
    return ends


def _value(cs: ControlSolution, x, y, i: int, order: int):
    out = _u_surface(cs, x, y, [(i, order)])[0]
    return float(out) if out.ndim == 0 else out


def U(cs: ControlSolution, x, y, i: int):
    """Control value U(x,y,i) = integral_0^y v(x,i;z) dz: in closed form
    for the built-in costs; for a custom cost by Simpson doubling, each
    branch term's integral to SIMPSON_TOL (model). x and y broadcast
    as arrays of at most MAX_U_STATES states; scalars give a float."""
    return _value(cs, x, y, i, 0)


def U_x(cs: ControlSolution, x, y, i: int):
    """First x-derivative of U; closed form and arrays as in U."""
    return _value(cs, x, y, i, 1)


def U_xx(cs: ControlSolution, x, y, i: int):
    """Second x-derivative of U, as in U; the fully stopped panel
    contributes nothing."""
    return _value(cs, x, y, i, 2)


@dataclass(frozen=True)
class ValueReport:
    U: float
    Uy: float
    Ux: float
    Uxx: float
    hjb_residual: float

    def to_dict(self) -> dict:
        return vars(self).copy()   # shares the instance's keys


def _branches(cs: ControlSolution, x, y, i: int, u: dict, uxx: dict, uy,
              pert: Callable):
    """The two HJB branches at regime i; u and uxx map each regime to U and
    U_xx at the states (x, y), uy is U_y = v(x, i; y)."""
    p = cs.params
    ui = u[i] + pert(x, y, i)
    uo = u[3 - i] + pert(x, y, 3 - i)
    b1r = (0.5*p.sigma(i)**2*uxx[i] - p.rho*ui + p.lam(i)*(uo - ui)
           - p.cost.value(y))
    b2r = (x - p.c) - uy
    return b1r, b2r


def U_report(cs: ControlSolution, x: float, y: float, i: int) -> ValueReport:
    """Value, derivatives and the HJB residual at one state (x, y). Uy is
    the selling value v(x,i;y) (the exact derivative of the integral)."""
    x, y = finite_prices(x, one=True), finite_prices(y, *LEVELS, one=True)
    vals = _u_surface(cs, x, y, [(1, 0), (2, 0), (1, 2), (2, 2), (i, 1)])
    u, uxx = {1: vals[0], 2: vals[1]}, {1: vals[2], 2: vals[3]}
    uy = v_stop(cs.stopping, x, i, y)
    b1r, b2r = _branches(cs, x, y, i, u, uxx, uy, lambda *_: 0.0)
    return ValueReport(U=float(u[i]), Uy=float(uy), Ux=float(vals[4]),
                       Uxx=float(uxx[i]), hjb_residual=float(max(b1r, b2r)))


@dataclass(frozen=True)
class HjbReport:
    nx: int
    ny: int
    x_lo: float
    x_hi: float
    tau: float
    worst_max_abs: float
    worst_state: tuple
    worst_branch_excess: float
    worst_regional: float

    def to_dict(self) -> dict:
        return {**vars(self), "worst_state": list(self.worst_state)}


def verify_hjb(cs: ControlSolution, nx: int = 400, ny: int = 50,
               perturbation: Optional[Callable] = None) -> HjbReport:
    """Check the dynamic-programming equation on an nx x ny state grid
    over the prices [x*_2(0) - 5 z1 - 5, x*_2(0) + 5], with x*_2 the
    internal regime 2's boundary, and levels 1/ny, ..., 1.

    At every (x, y, i): both branches of
    max{(G - rho) U - f(y), (x - c) - U_y} are at most tau = HJB_TAU, the
    max lies in [-tau, tau], the first branch vanishes (to tau) where
    y <= b*_i(x) and the second where y >= b*_i(x). The generator uses
    the closed-form piecewise u_xx integrated per panel, so no
    differencing noise enters.
    U and U_xx come from one batched evaluation over the whole grid.
    perturbation(x, y, i), if given, is added to U (test hook); it is
    called with (nx, ny) arrays of x and y and an integer regime i.
    Raises VerificationFailed on the first failing state; a NaN fails,
    and OutOfRange, before anything is allocated, on sizes that are not
    counts or a grid of more than MAX_U_STATES states, U's cap.
    """
    cap = MAX_U_STATES   # each count at most cap: numpy ints cannot wrap
    _count("nx*ny", _count("nx", nx, 1, cap)*_count("ny", ny, 1, cap), 1, cap)
    sol, tau = cs.stopping, HJB_TAU
    x2_at_0 = sol.shift(2) + chat(sol.params, 0.0)
    x_lo, x_hi = x2_at_0 - 5.0*sol.z1 - 5.0, x2_at_0 + 5.0
    xs = np.linspace(x_lo, x_hi, nx)
    ys = np.linspace(1.0/ny, 1.0, ny)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    vals = _u_surface(cs, X, Y, [(1, 0), (2, 0), (1, 2), (2, 2)])
    u, uxx = {1: vals[0], 2: vals[1]}, {1: vals[2], 2: vals[3]}
    pert = perturbation or (lambda *_: 0.0)
    branches, worst_regional = [], 0.0
    for i in (1, 2):
        uy = v_stop(sol, xs[:, None], i, ys)
        r1, r2 = _branches(cs, X, Y, i, u, uxx, uy, pert)
        branches.append((r1, r2))
        # y >= b_i(x) marks the stopped region only off the b = 1
        # plateau; the price-side comparison covers the corner too
        worst_regional = max(
            worst_regional,
            np.abs(r1[Y <= b_star(cs, i, xs)[:, None]]).max(initial=0.0),
            np.abs(r2[X >= x_star(sol, i, ys)]).max(initial=0.0))
    # axes (x, y, i): C order is the order of the grid loops
    b1r, b2r = (np.stack(r, axis=-1) for r in zip(*branches))
    mx = np.abs(np.maximum(b1r, b2r))
    jx, jy, ji = np.unravel_index(np.argmax(mx), mx.shape)
    worst_state = (float(xs[jx]), float(ys[jy]), int(ji) + 1)
    bad = ~((mx <= tau) & (b1r <= tau) & (b2r <= tau))   # NaN fails
    fail = None
    if bad.any():
        jx, jy, ji = np.unravel_index(np.argmax(bad), bad.shape)
        fail = (f"HJB residual at (x={xs[jx]}, y={ys[jy]}, i={ji + 1}): "
                f"branches ({b1r[jx, jy, ji]}, {b2r[jx, jy, ji]})")
    report = HjbReport(nx=nx, ny=ny, x_lo=float(x_lo), x_hi=float(x_hi),
                       tau=tau, worst_max_abs=float(mx.max()),
                       worst_state=worst_state,
                       worst_branch_excess=float(max(b1r.max(), b2r.max())),
                       worst_regional=float(worst_regional))
    if fail is not None or worst_regional > tau:
        raise VerificationFailed(fail or
                                 f"regional residual {worst_regional} > {tau}",
                                 report)
    return report


def single_regime_boundary(params: ModelParams, sigma: float, y):
    """No-switching stopping boundary x#(y) = sigma/sqrt(2 rho) + chat(y)."""
    return _single_shift(params, sigma) + chat(params, y)


def b_sharp(params: ModelParams, sigma: float, x):
    """Clamped inverse of x#: the single-regime reflecting boundary.
    Prices go through finite_prices."""
    return _boundary_inverse(params, _single_shift(params, sigma),
                             finite_prices(x))


@dataclass(frozen=True)
class OrderingReport:
    x: np.ndarray
    b_sharp_1: np.ndarray
    b_star_1: np.ndarray
    b_star_2: np.ndarray
    b_sharp_2: np.ndarray


def compare_boundaries(cs: ControlSolution, n: int = 1000,
                       x_range=None) -> OrderingReport:
    """Tabulate and order-check b#(.;sigma1) <= b*_1 <= b*_2 <= b#(.;sigma2).

    Equality is allowed only on the clamp plateaus (both curves at 0 or
    at 1); in the equal-volatility case all four curves coincide. An n
    that is not an integer in [1, MAX_BOUNDARY_GRID], checked before
    anything is allocated, or an x_range that is not a pair of numbers
    (lo, hi) with lo < hi and a finite width raises OutOfRange.
    """
    _count("n", n, 1, MAX_BOUNDARY_GRID)
    p, sol = cs.params, cs.stopping
    if sol.relabeled:
        raise PreconditionViolated(
            "boundary comparison expects sigma1 < sigma2 labeling")
    span = _boundary_span(cs) if x_range is None else x_range
    xs = np.linspace(*_price_range("x_range", span), n)
    curves = (b_sharp(p, p.sigma1, xs), b_star(cs, 1, xs),
              b_star(cs, 2, xs), b_sharp(p, p.sigma2, xs))
    names = ("b#(sigma1)", "b*1", "b*2", "b#(sigma2)")
    equal_case = sol.case == "B"
    for (lo_c, hi_c), (lo_n, hi_n) in zip(
            zip(curves, curves[1:]), zip(names, names[1:])):
        bad = lo_c > hi_c + 1e-12
        if bad.any():
            j = int(np.argmax(lo_c - hi_c))
            raise OrderingViolated(
                f"{lo_n} > {hi_n} at x={xs[j]}: {lo_c[j]} > {hi_c[j]}",
                x=float(xs[j]))
        if not equal_case:
            interior = (lo_c > 0.0) & (lo_c < 1.0) & (hi_c > 0.0) & (hi_c < 1.0)
            tied = interior & (lo_c >= hi_c)
            if tied.any():
                j = int(np.argmax(tied))
                raise OrderingViolated(
                    f"{lo_n} not strictly below {hi_n} off the plateaus "
                    f"at x={xs[j]}", x=float(xs[j]))
    return OrderingReport(xs, *curves)
