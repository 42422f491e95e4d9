"""Family of optimal selling problems: boundaries, value w, grid verifier.

For each reserve level y the selling problem has regime-dependent stopping
boundaries x*_i(y) = shift_i + chat(y) whose shifts (z1, z1+z2) do not
depend on y. (z1, z2) solve the reduced smooth-fit system G1 = G2 = 0:

    G1(u,v) = (a1 + (l2-rho)/(rho+l2) + r cosh(a5 v)) u
              - (r/a5) (sinh(a5 v) - a5 v cosh(a5 v)) + a2
    G2(u,v) = (a3 - r a5 sinh(a5 v)) u
              - r (a5 v sinh(a5 v) - cosh(a5 v)) + a4,      r = rho/(rho+l2),

obtained by eliminating the exponential coefficients from the six
value-match/smooth-fit equations. Writing kappa = (sigma1^2 a3r a4r / 2
+ rho + l1)/l1 = rho/(rho+l2) - a1, the G1 coefficient of u at v = 0 is
1 - kappa < 0, it vanishes at the unique zhat2 > 0 with
cosh(a5 zhat2) = (kappa (rho+l2) - l2)/rho (zhat2 takes the acosh, the
one place it is computed), and on (0, zhat2) the system
is equivalent to u = M1(v), M1(v) - M2(v) = 0 with M1 increasing to
+infinity and M2 decreasing, so a guarded bisection finds the unique
root. At v = 0, M1(0) and M2(0) reproduce the two equal-volatility
boundary formulas, whose agreement is exactly the sigma1 = sigma2 case.

Where it continues, w is a sum of exponentials (plus a linear term in
regime 2's band between the boundaries). Their weights are written
once, in _branch_form, anchored at x*_1(y) and x*_2(y) with prefactors
that do not depend on y, so no exponential overflows where its branch
applies; the control module integrates the same branches over y.
_reduced writes G1, G2 once; _w_table evaluates w piecewise over (level
x price) arrays, and equal volatilities (case B) are its z2 = 0 case.
verify_fbp checks one level at a time: its grid ascends, so each region
of w is a slice, which _continuation fills directly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._numerics import bisect
from .errors import (AssumptionViolated, DomainError, NoBracket, OutOfRange,
                     PreconditionViolated, VerificationFailed)
from .model import (LEVELS, Characteristic, ModelParams, _count,
                    _price_range, _regime, _single_shift, _states, chat,
                    check_assumptions, finite_prices, solve_characteristic)

# solve_z brackets z2 in [eps, zhat2 (1 - ENDPOINT_EPS)], eps from
# ENDPOINT_EPS down by factors of 100 until M1 - M2 changes sign there
ENDPOINT_EPS = 1e-10
# verify_fbp's acceptance tolerances (ODE residual, operator inequality,
# payoff domination, C1 gap) and the step of its one-sided C1 slopes
ODE_TOL, INEQ_TOL, DOM_TOL, C1_TOL, C1_STEP = 1e-7, 1e-7, 1e-9, 1e-6, 1e-6
# verify_fbp's most points per level; a level peaks near 88 B a point on a
# grid wholly below x*_1 (tracemalloc at 100,000 points; tested at most 90),
# so about 370 MB, and near 50 B on the default grid (tested at most 55)
MAX_FBP_POINTS = 1 << 22


@dataclass(frozen=True)
class StoppingSolution:
    """Solved boundary shifts plus the frames needed to evaluate w.

    params is the caller's parameter set; iparams/roots are the internal
    (possibly label-swapped) frame in which regime 1 is the one satisfying
    the feasibility conditions. z1 = x1* - chat, z2 = x2* - x1* in that
    frame. g1/g2 residuals are the reduced-system values at (z1, z2).
    m1_at_0/m2_at_0 are the equal-volatility candidate shifts M1(0) and
    M2(0); they coincide, at sigma/sqrt(2 rho), iff sigma1 = sigma2.
    """

    case: str                  # "A" | "B" | "C_relabeled"
    z1: float
    z2: float
    zhat2: float
    relabeled: bool
    params: ModelParams
    iparams: ModelParams
    roots: Characteristic
    g1_residual: float
    g2_residual: float
    m1_at_0: float
    m2_at_0: float

    def internal_regime(self, i: int) -> int:
        return 3 - _regime(i) if self.relabeled else _regime(i)

    def shift(self, i_internal: int) -> float:
        """x*_i(y) - chat(y) for internal i; the one place of z1 + z2."""
        return self.z1 if i_internal == 1 else self.z1 + self.z2


def _reduced(params: ModelParams, roots: Characteristic, v):
    """(A1, T1, A2, T2) of the reduced system at v: G1 = A1 u - T1 + a2 and
    G2 = A2 u - T2 + a4, so M1 = (T1 - a2)/A1 and M2 = (T2 - a4)/A2."""
    rho, l2 = params.rho, params.lambda2
    r = rho/(rho + l2)
    a5 = roots.alpha5
    cv, sv = np.cosh(a5*v), np.sinh(a5*v)
    return (roots.a1 + (l2 - rho)/(rho + l2) + r*cv, (r/a5)*(sv - a5*v*cv),
            roots.a3 - r*a5*sv, r*(a5*v*sv - cv))


def g1(params: ModelParams, roots: Characteristic, u, v):
    A1, T1, _, _ = _reduced(params, roots, finite_prices(v, "v"))
    return A1*finite_prices(u, "u") - T1 + roots.a2


def g2(params: ModelParams, roots: Characteristic, u, v):
    _, _, A2, T2 = _reduced(params, roots, finite_prices(v, "v"))
    return A2*finite_prices(u, "u") - T2 + roots.a4


def zhat2(params: ModelParams, roots: Characteristic) -> float:
    """Endpoint where M1 diverges, in closed form: the positive zero of
    its denominator, cosh(a5 v) = (kappa (rho+l2) - l2)/rho.

    Raises PreconditionViolated unless that denominator, a1 + l2/(rho+l2)
    = 1 - kappa at v = 0, is negative (the cosh target above 1) and the
    target is finite; the feasibility conditions imply both.
    """
    rho, l2 = params.rho, params.lambda2
    target = -(roots.a1 + l2/(rho + l2))*(rho + l2)/rho + 1.0
    if not 1.0 < target < math.inf:   # NaN fails too
        raise PreconditionViolated(
            "M1's denominator a1 + lambda2/(rho+lambda2) must be negative at "
            f"0 with a finite zero; the cosh target is {target}")
    return math.acosh(target)/roots.alpha5


def m1(params: ModelParams, roots: Characteristic, v):
    """u-branch of the reduced system; increasing to +inf on [0, zhat2)."""
    zh = zhat2(params, roots)
    va = finite_prices(v, "v")
    if np.any(va < 0.0) or np.any(va >= zh):
        raise DomainError(f"M1 domain is [0, zhat2={zh}), got {v}")
    A1, T1, _, _ = _reduced(params, roots, va)
    out = (T1 - roots.a2)/A1
    return float(out) if out.ndim == 0 else out


def m2(params: ModelParams, roots: Characteristic, v):
    """Second u-branch; decreasing on [0, zhat2] under the feasibility
    conditions (denominator a3 - ... stays negative since a3 < 0)."""
    zh = zhat2(params, roots)
    va = finite_prices(v, "v")
    if np.any(va < 0.0) or np.any(va > zh*(1.0 + 1e-12)):
        raise DomainError(f"M2 domain is [0, zhat2={zh}], got {v}")
    _, _, A2, T2 = _reduced(params, roots, va)
    out = (T2 - roots.a4)/A2
    return float(out) if out.ndim == 0 else out


def solve_z(params: ModelParams) -> StoppingSolution:
    """Solve the smooth-fit system, detecting the case.

    Order: equal volatilities (1e-14 relative) -> Case B closed form
    z1 = sigma/sqrt(2 rho), z2 = 0; otherwise the feasibility conditions
    as labeled -> Case A; if they fail, swap the regime labels and retry
    -> Case C solved by symmetry; if both labelings fail,
    AssumptionViolated (no heuristic fallback).
    """
    report = check_assumptions(params)
    if report.case_b or report.solvable_case_a:
        iparams, case, relabeled = params, "B" if report.case_b else "A", False
    else:
        swapped = params.swapped()
        report_sw = check_assumptions(swapped)
        if not report_sw.solvable_case_a:
            raise AssumptionViolated(
                "feasibility conditions fail in both regime labelings",
                report=report, swapped_report=report_sw)
        iparams, case, relabeled = swapped, "C_relabeled", True

    roots = solve_characteristic(iparams)
    zh = zhat2(iparams, roots)
    m1_0, m2_0 = m1(iparams, roots, 0.0), m2(iparams, roots, 0.0)
    if case == "B":   # both candidate shifts must agree with the closed form
        z1, z2 = _single_shift(iparams, iparams.sigma1), 0.0
        if abs(m1_0 - m2_0) > 1e-10*max(1.0, abs(m1_0)):
            raise NoBracket("equal-volatility shift candidates disagree: "
                            f"{m1_0} vs {m2_0}")
        if abs(m1_0 - z1) > 1e-10*max(1.0, z1):
            raise NoBracket(f"equal-volatility shift {m1_0} differs from "
                            f"sigma/sqrt(2 rho)={z1}")
    else:
        def diff(v):   # M1 - M2 on (0, zhat2)
            A1, T1, A2, T2 = _reduced(iparams, roots, v)
            return (T1 - roots.a2)/A1 - (T2 - roots.a4)/A2

        eps = ENDPOINT_EPS
        lo, hi = eps, zh*(1.0 - ENDPOINT_EPS)
        for _ in range(6):
            if diff(lo) < 0.0 < diff(hi):
                break
            eps *= 1e-2
            lo = eps
        else:
            raise NoBracket("M1 - M2 shows no sign change inside "
                            "(0, zhat2); feasibility checks and solver "
                            "disagree")
        # cheap insurance on the proven shape: one sign change, M2 decreasing
        scan = np.linspace(lo, hi, 65)
        if np.count_nonzero(np.diff(np.sign(diff(scan)))) != 1:
            raise NoBracket("M1 - M2 changes sign more than once on "
                            "(0, zhat2)")
        z2 = bisect(diff, lo, hi)
        z1 = m1(iparams, roots, z2)
    return StoppingSolution(
        case=case, z1=float(z1), z2=float(z2), zhat2=float(zh),
        relabeled=relabeled, params=params, iparams=iparams, roots=roots,
        g1_residual=float(g1(iparams, roots, z1, z2)),
        g2_residual=float(g2(iparams, roots, z1, z2)),
        m1_at_0=m1_0, m2_at_0=m2_0)


def x_star(sol: StoppingSolution, i: int, y):
    """Stopping boundary x*_i(y) = shift_i + chat(y) for the caller's labels."""
    return sol.shift(sol.internal_regime(i)) + chat(sol.params, y)


def _branch_form(sol: StoppingSolution, band: bool = False):
    """w's continuation branches below x*_1 (band: regime 2's on
    [x*_1, x*_2)) as data: the rates (a, b) and level-free prefactors
    (Pa, Pb) of two terms Pa e^{a (x - s - chat)}, Pb e^{b (x - s - chat)}
    anchored at s = shift(1) (x*_1; band shift(2), x*_2), the slope lin of
    the band's linear part lin (x - chat) (0 below x*_1), and each internal
    regime's factors of the two terms.

    Below x*_1 both regimes continue: w_k = f_k3 P3 e^{a3 (x - x*_1)}
    + f_k4 P4 e^{a4 (x - x*_1)}, with f_1 = (1, 1) and f_2 = (phi13/l1,
    phi14/l1) (in case B (1, -l2/l1), and P4 = 0). On the band
    w_2 = P5 e^{a5 (x - x*_2)} + P6 e^{-a5 (x - x*_2)} + the linear part.
    The x-derivative of order o scales a term by its rate^o. w
    (_continuation) and U (control, its integral over the level) both
    take their weights from here.
    """
    p, rt, s = sol.iparams, sol.roots, sol.shift(2 if band else 1)
    a3, a4, a5 = rt.alpha3, rt.alpha4, rt.alpha5
    if band:
        r = p.rho/(p.rho + p.lambda2)
        return ((a5, -a5), (r*(1.0 + a5*s)/(2.0*a5), r*(a5*s - 1.0)/(2.0*a5)),
                s, p.lambda2/(p.rho + p.lambda2), {2: (1.0, 1.0)})
    phi13 = -0.5*p.sigma1**2*a3**2 + p.rho + p.lambda1
    phi14 = -0.5*p.sigma1**2*a4**2 + p.rho + p.lambda1
    return ((a3, a4), ((a4*s - 1.0)/(a4 - a3), (1.0 - a3*s)/(a4 - a3)), s,
            0.0, {1: (1.0, 1.0), 2: (phi13/p.lambda1, phi14/p.lambda1)})


def _continuation(sol: StoppingSolution, x, ch, series, band: bool = False):
    """w's continuation branches (_branch_form) at prices x whose reserve
    levels have chat = ch (broadcast), one row per (internal regime k,
    x-derivative order 0..2) in series, each made as it is taken, so a
    caller that stores them holds one at a time. Anchored at the boundary
    x*_k = shift(k) + chat that closes its region (x*_1 <= x*_2), so there
    no exponential exceeds e^{a5 z2}."""
    (a, b), (pa, pb), shift, lin, f = _branch_form(sol, band)
    xa = shift + ch
    ta, tb = pa*np.exp(a*(x - xa)), pb*np.exp(b*(x - xa))
    if band:   # b = -a: sums and differences of the pair
        terms = {0: lambda: ta + tb + lin*(x - ch),
                 1: lambda: a*(ta - tb) + lin, 2: lambda: a*a*(ta + tb)}
        return (terms[o]() for _, o in series)
    return ((1.0, a, a*a)[o]*f[k][0]*ta + (1.0, b, b*b)[o]*f[k][1]*tb
            for k, o in series)


def _w_table(sol: StoppingSolution, x, y, series, side: int = -1):
    """w and its x-derivatives at prices x and reserve levels y
    (broadcast), one row per (internal regime k, order 0..2) in series:
    the payoff x - chat(y) where stopped, each regime's continuation below
    x*_1 and regime 2's on the band [x*_1, x*_2) (empty when z2 = 0). At
    a boundary point side -1 takes the left limit, +1 the right one."""
    ch = chat(sol.iparams, y)
    x1, x2 = (sol.shift(k) + ch for k in (1, 2))
    lower, upper = (x <= x1, x > x2) if side < 0 else (x < x1, x >= x2)
    shape = lower.shape
    xg, cg = (a if a.shape == shape else np.broadcast_to(a, shape)
              for a in (x, np.asarray(ch)))
    out = np.empty((len(series),) + lower.shape)
    flat = out.reshape(len(series), -1)   # 1-D rows take boolean masks fast
    for j, (_, o) in enumerate(series):
        out[j] = xg - cg if o == 0 else float(o == 1)
    band = [j for j, (k, _) in enumerate(series) if k == 2]
    for in_band, rows in ((False, range(len(series))), (True, band)):
        if not rows:
            continue
        mask = ~lower & ~upper if in_band else lower
        vals = _continuation(sol, xg[mask], cg[mask],
                             [series[j] for j in rows], in_band)
        for j, val in zip(rows, vals):
            flat[j][mask.reshape(-1)] = val
    return out


def _w_value(sol: StoppingSolution, x, i: int, y, order: int, side: int):
    out = _w_table(sol, *_states(x, y),
                   [(sol.internal_regime(i), order)], side)[0]
    return float(out) if out.ndim == 0 else out


def w(sol: StoppingSolution, x, i: int, y):
    """Stopping value w(x, i; y); equals the payoff x - chat(y) once x is
    at or above the regime boundary. x and y broadcast as arrays; OutOfRange
    on an x that finite_prices refuses, y outside [0, 1] or shapes that do
    not broadcast together, as in w_x, w_xx and v."""
    return _w_value(sol, x, i, y, 0, -1)


def w_x(sol: StoppingSolution, x, i: int, y):
    return _w_value(sol, x, i, y, 1, -1)


def w_xx(sol: StoppingSolution, x, i: int, y, side: int = -1):
    """Second derivative; discontinuous at the boundaries, where the side
    picks the limit: -1 the left, +1 the right, else OutOfRange."""
    try:
        ok = _count("side", side, -1, 1) != 0
    except OutOfRange:   # one message for every wrong side
        ok = False
    if not ok:
        raise OutOfRange(f"side must be -1 or +1, got {side!r}")
    return _w_value(sol, x, i, y, 2, side)


def v(sol: StoppingSolution, x, i: int, y):
    """Selling-problem value v = w - f'(y)/rho."""
    p, y = sol.params, finite_prices(y, *LEVELS)
    return w(sol, x, i, y) - p.cost.derivative(y)/p.rho


@dataclass(frozen=True)
class FbpReport:
    y: float
    grid_lo: float
    grid_hi: float
    n_points: int
    worst_ode: float
    worst_ode_x: float
    worst_ineq: float
    worst_ineq_x: float
    worst_dom: float
    worst_dom_x: float
    worst_c1: float
    worst_c1_x: float

    def to_dict(self) -> dict:
        # a copy of the instance dict keeps its shared keys: about 2/3 of
        # the memory of dict(vars(self))
        return vars(self).copy()


# the w rows of the free-boundary check: w_1, w_2, w_1xx, w_2xx
_FBP_ROWS = [(1, 0), (2, 0), (1, 2), (2, 2)]


def _worst(worst, vals, at):
    """The first maximum of vals and its x in at where it is strictly
    above the worst (value, x) so far, else that worst. NaN counts as the
    worst of all: argmax finds the first one."""
    j = int(vals.argmax())
    val = float(vals[j])
    return (val, float(at[j])) if val > worst[0] or val != val else worst


def _fbp_level(sol: StoppingSolution, n_points, y, ch, x1, x2, lo, hi,
               h_cell, c1):
    """The FbpReport of one level, given its C1 check c1: the worst offender
    and x of the ODE, inequality and domination checks on its lo..hi grid.

    The grid ascends, so the regions are slices: both regimes continue on
    the first i1 points (x <= x*_1), regime 2 alone on its band up to i2,
    and w is the payoff on the rest; the ODE must hold on a prefix. Each
    cut is a count of a comparison, so a NaN boundary or grid, which every
    comparison fails, cuts where a mask would. w_xx's right limit differs
    from its left one only at grid points on a boundary, so only there is
    the operator evaluated again.

    The rows end at the first point where both regimes stop, index
    max(i1, i2) (not i2: with z2 < 0 regime 1 continues past x*_2). Past
    it both w are the payoff and both w_xx 0, so the operator is -rho pay,
    which never rises, and pay - w is 0: that point is each check's first
    worst there, so the reports are those of the whole grid. A default
    grid descends only if z2 < -21 z1, and then, as z1 > 0, lies wholly
    below x*_1 and is not cut.
    """
    p = sol.iparams
    xs = np.linspace(lo, hi, n_points)   # the whole grid sets the cuts
    i1 = np.count_nonzero(xs <= x1)
    i2 = n_points - np.count_nonzero(xs > x2)   # band empty if i2 <= i1
    xs = xs[:max(i1, i2) + 1]
    pay = xs - ch   # w where stopped
    w = [pay.copy(), pay.copy(), np.zeros(xs.size), np.zeros(xs.size)]
    for row, val in zip(w, _continuation(sol, xs[:i1], ch, _FBP_ROWS)):
        row[:i1] = val
    w[1][i1:i2], w[3][i1:i2] = _continuation(sol, xs[i1:i2], ch,
                                             _FBP_ROWS[1::2], True)
    on = np.flatnonzero((xs == x1) | (xs == x2))
    if on.size:
        w_hi = _w_table(sol, xs[on], y, _FBP_ROWS[2:], 1)

    # scanned by internal regime, then side
    ode, ineq, dom = (0.0, lo), (-np.inf, lo), (-np.inf, lo)
    for k in (1, 2):
        wk, wo = w[k - 1], w[2 - k]
        sig, lam = p.sigma(k), p.lam(k)
        n_eq = np.count_nonzero(xs < (x1 if k == 1 else x2) - 0.5*h_cell)
        op = 0.5*sig*sig*w[k + 1] - p.rho*wk + lam*(wo - wk)
        for right in range(1 + (on.size > 0)):
            if right:
                op[on] = (0.5*sig*sig*w_hi[k - 1] - p.rho*wk[on]
                          + lam*(wo[on] - wk[on]))
            ineq = _worst(ineq, op, xs)
            if n_eq:
                ode = _worst(ode, np.abs(op[:n_eq]), xs)
        dom = _worst(dom, pay - wk, xs)
    return FbpReport(y, lo, hi, n_points, *ode, *ineq, *dom, *c1)


def _fbp_table(sol: StoppingSolution, ys, n_points, grid):
    """The FbpReport of each level in ys, made as it is taken: the worst
    offender and its x of the ODE, inequality, domination and C1 checks.

    Each level is checked on its own 1-D arrays (_fbp_level), which end
    just past x*_2 on the default grid, short of its last 10 z1. The C1
    stencils of all levels are one small table. The per-level Python work
    costs about 0.1 ms, so below one or two thousand points per level one
    table over all levels would be faster.
    """
    ch = chat(sol.iparams, ys)
    x1, x2 = (sol.shift(k) + ch for k in (1, 2))
    if grid is None:
        lo, hi = ch - 10.0*sol.z1, x2 + 10.0*sol.z1
    else:
        lo, hi = (np.full(ys.shape, g, dtype=float) for g in grid)
    h_cell = (hi - lo)/(n_points - 1)
    # slopes either side of the junctions (1, x*_1), (2, x*_1), (2, x*_2)
    h = C1_STEP
    bs = np.stack([x1, x1, x2], axis=-1)
    sw = _w_table(sol, bs[..., None] + h*np.array([-2.0, -1.0, 0.0, 1.0, 2.0]),
                  ys[:, None, None], _FBP_ROWS[:2], -1)
    d_lo = (3.0*sw[..., 2] - 4.0*sw[..., 1] + sw[..., 0])/(2.0*h)
    d_hi = (-3.0*sw[..., 2] + 4.0*sw[..., 3] - sw[..., 4])/(2.0*h)
    gap = np.abs(d_hi - d_lo)   # gap[regime - 1, level, j]

    levels = zip(*(v.tolist() for v in (ys, ch, x1, x2, lo, hi, h_cell)))
    for l, level in enumerate(levels):
        c1 = (0.0, level[2])
        for k, j in ((1, 0), (2, 1), (2, 2)):
            c1 = _worst(c1, gap[k - 1, l, j:j + 1], bs[l, j:j + 1])
        yield _fbp_level(sol, n_points, *level, c1)


def verify_fbp(sol: StoppingSolution, y, n_points: int = 10000, grid=None):
    """Grid check that w solves the free boundary problem at level y, or
    at each level of a non-empty 1-D array y (then a list of reports).

    Each level is checked at n_points prices, evenly spaced on grid =
    (lo, hi), by default [chat - 10 z1, x*_2 + 10 z1] at that level:
    (i) the coupled ODEs hold to ODE_TOL where equality is required,
    (ii) the operator inequality holds everywhere to INEQ_TOL (one-sided
    at the boundaries), (iii) w dominates the payoff to DOM_TOL, and
    (iv) w is C^1 at the boundaries to C1_TOL, comparing second-order
    one-sided difference slopes with step C1_STEP. Raises
    VerificationFailed with the worst offender of the first failing
    level, before later levels are built; a NaN fails. OutOfRange, before
    any allocation, on any other y, an n_points that is not a count in
    [2, MAX_FBP_POINTS] or a grid that is not (lo, hi), 0 < hi - lo < inf.
    """
    ys = finite_prices(y, *LEVELS)
    if ys.ndim > 1 or not ys.size:
        raise OutOfRange(f"y must be a level or a non-empty 1-D array: {y!r}")
    _count("n_points", n_points, 2, MAX_FBP_POINTS)
    if grid is not None:
        grid = _price_range("grid", grid)
    checks = {"ode": (ODE_TOL, "ODE residual {} at x={}"),
              "ineq": (INEQ_TOL, "operator inequality {} at x={}"),
              "dom": (DOM_TOL, "payoff domination violated by {} at x={}"),
              "c1": (C1_TOL, "C1 fit gap {} at boundary x={}")}
    reports = []
    for report in _fbp_table(sol, ys.reshape(-1), n_points, grid):
        for name, (tol, msg) in checks.items():
            val, x = (getattr(report, f"worst_{name}{s}") for s in ("", "_x"))
            if not val <= tol:   # NaN fails
                raise VerificationFailed(msg.format(val, x), report)
        reports.append(report)
    return reports[0] if ys.ndim == 0 else reports


def perturbed(sol: StoppingSolution, dz2: float) -> StoppingSolution:
    """Copy of sol with z2 shifted (verification-failure test hook)."""
    return replace(sol, z2=sol.z2 + dz2)
