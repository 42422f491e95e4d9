"""Two-table reference for the free-boundary check: w over the whole grid
at both one-sided limits of w_xx, and a separate table for the C1
stencils, scanned by its own _worse. At chat `at` = 0 the grid is one of
u = x - chat, and regime_extract.stopping._fbp_level must equal it bit for
bit; at a level's chat it is that level's grid of x, an independent
check of the report that verify_fbp moves there from u."""
import numpy as np

from regime_extract.stopping import C1_STEP, _w_table


def _worse(worst, vals, at):
    """The first maximum of vals and its x where it is strictly above the
    worst (value, x) so far, else that worst. NaN counts as the worst of
    all: argmax finds the first one, and it stays."""
    j = int(np.argmax(vals))
    val = float(vals[j])
    return (val, float(at[j])) if val > worst[0] or np.isnan(val) else worst


def fbp_level(sol, n_points, lo, hi, at=0.0):
    """The worst (value, x) of the ODE, inequality, domination and C1
    checks on linspace(lo, hi, n_points) at chat = at, as _fbp_level."""
    p = sol.iparams
    x1, x2 = sol.shift(1) + at, sol.shift(2) + at
    xs = np.linspace(lo, hi, n_points)
    h_cell = (hi - lo)/(n_points - 1)
    w_lo = _w_table(sol, xs, at, [(1, 0), (2, 0), (1, 2), (2, 2)], -1)
    wxx_hi = _w_table(sol, xs, at, [(1, 2), (2, 2)], 1)

    # scanned by internal regime, then side
    ode, ineq, dom = (0.0, lo), (-np.inf, lo), (-np.inf, lo)
    for k in (1, 2):
        wk, wo = w_lo[k - 1], w_lo[2 - k]
        sig, lam = p.sigma(k), p.lam(k)
        eq = xs < (x1 if k == 1 else x2) - 0.5*h_cell
        for wxx in (w_lo[k + 1], wxx_hi[k - 1]):
            op = 0.5*sig*sig*wxx - p.rho*wk + lam*(wo - wk)
            ineq = _worse(ineq, op, xs)
            ode = _worse(ode, np.where(eq, np.abs(op), -np.inf), xs)
        dom = _worse(dom, (xs - at) - wk, xs)

    # slopes either side of the junctions (1, x*_1), (2, x*_1), (2, x*_2)
    h, bs = C1_STEP, np.array([x1, x1, x2])
    sw = _w_table(sol, bs[:, None] + h*np.array([-2.0, -1.0, 0.0, 1.0, 2.0]),
                  at, [(1, 0), (2, 0)], -1)
    d_lo = (3.0*sw[..., 2] - 4.0*sw[..., 1] + sw[..., 0])/(2.0*h)
    d_hi = (-3.0*sw[..., 2] + 4.0*sw[..., 3] - sw[..., 4])/(2.0*h)
    gap, c1 = np.abs(d_hi - d_lo), (0.0, x1)   # gap[regime - 1, j]
    for k, j in ((1, 0), (2, 1), (2, 2)):
        c1 = _worse(c1, gap[k - 1, j:j + 1], bs[j:j + 1])
    return ode, ineq, dom, c1
