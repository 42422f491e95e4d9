"""Two-table reference for the free-boundary verifier's table: w over the
grid at both one-sided limits of w_xx, and a separate table for the C1
stencils, every checked level at once, scanned row-wise by its own
_worse, with each level's row made into its FbpReport. An explicit grid
is a range of x, checked at each level's own chat; the default grid is one
row in u = x - chat (chat 0), moved to each level by its chat.
regime_extract.stopping._fbp_table must equal it bit for bit."""
import numpy as np

from regime_extract.model import chat
from regime_extract.stopping import C1_STEP, FbpReport, _w_table


def _worse(worst, vals, at):
    """Per level (row), the first maximum of vals and its x where it is
    strictly above the worst (values, x) so far, else that worst. NaN
    counts as the worst of all: argmax finds the first one, and it stays."""
    j = np.argmax(vals, axis=-1)
    rows = np.arange(j.size)
    up = (vals[rows, j] > worst[0]) | np.isnan(vals[rows, j])
    return (np.where(up, vals[rows, j], worst[0]),
            np.where(up, at[rows, j], worst[1]))


def fbp_table(sol, ys, n_points, grid):
    p = sol.iparams
    ch = chat(p, ys)
    if grid is None:   # one row, in u
        at = np.zeros(1)
        lo, hi = (np.array([u]) for u in (-10.0*sol.z1,
                                          sol.shift(2) + 10.0*sol.z1))
    else:
        at = ch
        lo, hi = (np.full(ys.shape, g, dtype=float) for g in grid)
    x1 = sol.z1 + at
    x2 = sol.shift(2) + at
    xs = np.ascontiguousarray(np.linspace(lo, hi, n_points, axis=-1))
    h_cell = (hi - lo)/(n_points - 1)
    w_lo = _w_table(sol, xs, at[:, None], [(1, 0), (2, 0), (1, 2), (2, 2)], -1)
    wxx_hi = _w_table(sol, xs, at[:, None], [(1, 2), (2, 2)], 1)

    # scanned by internal regime, then side
    ode, ineq, dom = (0.0, lo), (-np.inf, lo), (-np.inf, lo)
    for k in (1, 2):
        wk, wo = w_lo[k - 1], w_lo[2 - k]
        sig, lam = p.sigma(k), p.lam(k)
        eq = xs < ((x1 if k == 1 else x2) - 0.5*h_cell)[:, None]
        for wxx in (w_lo[k + 1], wxx_hi[k - 1]):
            op = 0.5*sig*sig*wxx - p.rho*wk + lam*(wo - wk)
            ineq = _worse(ineq, op, xs)
            ode = _worse(ode, np.where(eq, np.abs(op), -np.inf), xs)
        dom = _worse(dom, (xs - at[:, None]) - wk, xs)

    # slopes either side of the junctions (1, x*_1), (2, x*_1), (2, x*_2)
    h = C1_STEP
    bs = np.stack([x1, x1, x2], axis=-1)
    sw = _w_table(sol, bs[..., None] + h*np.array([-2.0, -1.0, 0.0, 1.0, 2.0]),
                  at[:, None, None], [(1, 0), (2, 0)], -1)
    d_lo = (3.0*sw[..., 2] - 4.0*sw[..., 1] + sw[..., 0])/(2.0*h)
    d_hi = (-3.0*sw[..., 2] + 4.0*sw[..., 3] - sw[..., 4])/(2.0*h)
    gap, c1 = np.abs(d_hi - d_lo), (0.0, x1)   # gap[regime - 1, level, j]
    for k, j in ((1, 0), (2, 1), (2, 2)):
        c1 = _worse(c1, gap[k - 1, :, j:j + 1], bs[:, j:j + 1])
    table = np.stack([lo, hi, *ode, *ineq, *dom, *c1], axis=1)
    if grid is None:   # the u row at each level: grid ends and x's + chat
        moved = np.array([True, True] + [False, True]*4)
        table = np.where(moved, table + ch[:, None], table)
    return [FbpReport(y, *row[:2], n_points, *row[2:])
            for y, row in zip(ys.tolist(), table.tolist())]
