"""Bracketed bisection and batched adaptive Simpson quadrature."""
import numpy as np

from .errors import NoBracket, QuadratureNotConverged


def bisect(fun, lo, hi, xtol=1e-12, max_iter=200):
    """Root of a scalar function on [lo, hi] by plain bisection.

    Requires a sign change on the bracket; raises NoBracket otherwise.
    """
    flo = fun(lo)
    fhi = fun(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo*fhi > 0:
        raise NoBracket(f"no sign change on [{lo}, {hi}] ({flo}, {fhi})")
    for _ in range(max_iter):
        mid = 0.5*(lo + hi)
        if hi - lo < xtol:
            return mid
        fm = fun(mid)
        if fm == 0.0:
            return mid
        if flo*fm < 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5*(lo + hi)


# Most nodes one interval may take: past it Simpson raises instead of
# allocating. Rows reach the integrand in cache-sized slices of nodes.
NODE_BUDGET, SLICE_NODES = 1 << 20, 1 << 14


def adaptive_simpson(g, a, b, *row_data, tol=1e-9, max_depth=40):
    """Integrate g over [a, b] (scalars, or 1-D arrays of rows) by
    composite Simpson from n = 8 panels, doubling n.

    g(z, *row_data) gets a (rows, n + 1) node matrix and row_data as
    columns, and returns (..., rows, n + 1) values, each leading index an
    integrand. Each (integrand, row) keeps the Richardson-extrapolated
    value of the first doubling that moves it by less than tol (absolute),
    as if integrated alone. Returns (..., rows), or a float for scalar a, b
    and one integrand. Raises QuadratureNotConverged past max_depth
    doublings or NODE_BUDGET nodes.
    """
    scalar = np.ndim(a) == 0 and np.ndim(b) == 0
    a, b, *row_data = np.broadcast_arrays(
        np.atleast_1d(np.asarray(a, dtype=float)), np.asarray(b, dtype=float),
        *(np.asarray(d, dtype=float) for d in row_data))
    rows, n = np.flatnonzero(b > a), 8
    s_prev = _composite(g, a, b, row_data, rows, n)
    out = np.zeros(s_prev.shape[:-1] + a.shape)
    pending = np.ones(s_prev.shape, dtype=bool)
    for _ in range(max_depth):
        if rows.size == 0:
            break
        n *= 2
        s = _composite(g, a, b, row_data, rows, n)
        hit = pending & (np.abs(s - s_prev) < tol)
        if hit.any():
            *series, at = hit.nonzero()
            out[(*series, rows[at])] = s[hit] + (s[hit] - s_prev[hit])/15.0
            pending[hit] = False
            live = pending.any(axis=tuple(range(pending.ndim - 1)))
            rows, s, pending = rows[live], s[..., live], pending[..., live]
        s_prev = s
    if rows.size:
        raise QuadratureNotConverged(
            f"Simpson on [{a[rows[0]]}, {b[rows[0]]}] still moving after "
            f"depth {max_depth}")
    out = out[..., 0] if scalar else out
    return float(out) if out.ndim == 0 else out


def _composite(g, a, b, row_data, rows, n):
    """Composite Simpson with n panels on each row, the rows handed to g
    in slices (an empty row set still makes one call, for the shape)."""
    if n + 1 > NODE_BUDGET:
        raise QuadratureNotConverged(
            f"Simpson needs {n + 1} nodes, over the budget of {NODE_BUDGET}")
    step, j, parts = max(1, SLICE_NODES//(n + 1)), np.arange(n + 1), []
    for s in range(0, max(rows.size, 1), step):
        r = rows[s:s + step]
        lo, hi = a[r], b[r]
        z = j*((hi - lo)/n)[:, None] + lo[:, None]   # np.linspace, row-wise
        z[:, -1] = hi
        v = np.asarray(g(z, *(d[r, None] for d in row_data)), dtype=float)
        parts.append((hi - lo)/(3.0*n)*(
            v[..., 0] + v[..., -1] + 4.0*v[..., 1:-1:2].sum(axis=-1)
            + 2.0*v[..., 2:-2:2].sum(axis=-1)))
    return np.concatenate(parts, axis=-1)
