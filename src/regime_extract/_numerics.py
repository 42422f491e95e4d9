"""Bracketed bisection, adaptive Simpson quadrature batched over rows (one
integrand each) and the scaled exponential integral e^{-u} Ei(u)."""
import functools
import math

import numpy as np

from .errors import NoBracket, QuadratureNotConverged

BISECT_MAX_ITER = 200   # halvings before bisect returns the midpoint
# Most nodes one interval may take: past it Simpson raises instead of
# allocating. Rows reach the integrand in cache-sized slices of nodes.
NODE_BUDGET, SLICE_NODES = 1 << 20, 1 << 14


def bisect(fun, lo, hi, xtol=1e-12):
    """Root of a scalar function on [lo, hi] by plain bisection, to xtol.

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
    for _ in range(BISECT_MAX_ITER):
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


def adaptive_simpson(g, a, b, *row_data, tol=1e-9):
    """Integrate g over [a, b], one integrand per row, by composite
    Simpson from n = 8 panels, doubling n: a, b and row_data broadcast to
    the rows' shape, and g(z, *row_data) maps a (rows, n + 1) node matrix
    and row_data as columns to values of that shape. Each row keeps the
    Richardson-extrapolated value of the first doubling that moves it by
    less than tol (absolute), as if integrated alone; b <= a gives 0.
    Scalars give a float. Raises QuadratureNotConverged past NODE_BUDGET
    nodes."""
    data = np.broadcast_arrays(
        *(np.asarray(d, dtype=float) for d in (a, b, *row_data)))
    a, b, *row_data = (d.reshape(-1) for d in data)
    rows, n = np.flatnonzero(b > a), 8
    s_prev = _composite(g, a, b, row_data, rows, n)
    out = np.zeros(a.shape)
    while rows.size:
        n *= 2
        s = _composite(g, a, b, row_data, rows, n)
        hit = np.abs(s - s_prev) < tol
        out[rows[hit]] = s[hit] + (s[hit] - s_prev[hit])/15.0
        rows, s_prev = rows[~hit], s[~hit]
    out = out.reshape(data[0].shape)
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
            v[:, 0] + v[:, -1] + 4.0*v[:, 1:-1:2].sum(axis=-1)
            + 2.0*v[:, 2:-2:2].sum(axis=-1)))
    return np.concatenate(parts)


EULER = 0.5772156649015329
# Ei's positive root x0 = _X0 + _X0_LO (Cody & Thacher)
_X0, _X0_LO = 0.3725074107813666, 1.3140183414386028e-17
_TERMS = 21   # terms kept after the constant
_EXPI_SORT_MIN = 64   # fewest values expi_scaled deduplicates


def _factorials(n):
    return np.array([float(math.factorial(k)) for k in range(n)])


@functools.cache
def _expi_rows():
    """The edges of u's intervals, and one row per interval: the centre
    c of the expansion variable (column 0), -1 and 1 where the row is
    the power series in t = u (1, 2), 1 where it is the asymptotic
    series in t = 1/u (3), the constant term (4) and the coefficients of
    t, ..., t^_TERMS (5 on) of S(u) = e^{-u} Ei(u).

    |u| > 62: (1/u) sum k!/u^k. |u| < 1.12 (u outside [0.33, 0.42]):
    e^{-u} (EULER + log|u| + sum u^n/(n n!)). Otherwise a Taylor series
    of S in t = u - c around the interval's midpoint c (or _X0 on
    [0.33, 0.42], where S(_X0) = -_X0_LO/x0 to double precision), with
    |t| at most |c|/9 and 2: an error in S(c) is one in the e^{-u} of
    S' = 1/u - S, which grows as e^{|t|}. That ODE gives the coefficients
    from S(c), which comes from the power series (c > 0) or the
    continued fraction of e^w E1(w), w = -c > 0. Built on first use."""
    edge = [1.25**0.5]
    while edge[-1] < 62.0:
        edge.append(min(1.25*edge[-1], edge[-1] + 4.0))
    edge = np.array(edge)
    edges = np.concatenate([-edge[::-1], [0.0, 0.33, 0.42], edge])
    mid = list(0.5*(edge[1:] + edge[:-1]))
    rows = ([("asym", 0.0)] + [("taylor", -c) for c in mid[::-1]]
            + [("series", 0.0)]*2 + [("taylor", _X0), ("series", 0.0)]
            + [("taylor", c) for c in mid] + [("asym", 0.0)])
    kind, cen = np.array([k for k, _ in rows]), np.array([c for _, c in rows])
    ser, asym, taylor = kind == "series", kind == "asym", kind == "taylor"
    table = np.zeros((cen.size, _TERMS + 5))
    table[:, :4] = np.stack([cen, -1.0*ser, ser, asym], axis=1)
    n = np.arange(1, _TERMS + 1)
    table[ser, 4] = EULER
    table[ser, 5:] = 1.0/(n*_factorials(_TERMS + 1)[1:])
    table[asym, 5:] = _factorials(_TERMS)
    c = cen[taylor]
    w, f = np.abs(c), np.abs(c) + 801.0
    for m in range(400, 0, -1):
        f = w + (2*m - 1) - m*m/f
    k = np.arange(1, 170)
    ein = np.power(w[:, None], k) @ (1.0/(k*_factorials(170)[1:]))
    s = [np.where(c == _X0, -_X0_LO/_X0, np.where(
        c < 0, -1.0/f, np.exp(-w)*(EULER + np.log(w) + ein)))]
    d = 1.0/c   # (-1)^m/c^(m+1), the Taylor coefficients of 1/u
    for m in range(_TERMS):
        s.append((d - s[-1])/(m + 1))
        d = -d/c
    table[taylor, 4:] = np.stack(s, axis=1)
    return edges, table


def expi_scaled(u):
    """e^{-u} Ei(u), elementwise, for finite u != 0 (Ei(u) = -E1(-u) for
    u < 0): finite everywhere, about 1e-14 relative. Evaluated in slices
    of SLICE_NODES, one row of _expi_rows per distinct value of a slice,
    gathered back: U's arguments repeat (kappa f'(end) at ends shared
    across its grid), and each value is the one it has alone."""
    u = np.asarray(u, dtype=float)
    flat = u.reshape(-1)
    if flat.size <= SLICE_NODES:
        return _expi_distinct(flat).reshape(u.shape)
    return np.concatenate([_expi_distinct(flat[s:s + SLICE_NODES])
                           for s in range(0, flat.size, SLICE_NODES)]
                          ).reshape(u.shape)


def _expi_distinct(u):
    """_expi_slice once per distinct value of u; below _EXPI_SORT_MIN
    values (a single state of U has 8) the sort would cost more than
    the evaluations it saves."""
    if u.size < _EXPI_SORT_MIN:
        return _expi_slice(u)
    vals, back = np.unique(u, return_inverse=True)
    return _expi_slice(vals)[back]


def _expi_slice(u):
    edges, table = _expi_rows()
    row = table[np.searchsorted(edges, u)]
    t = u - row[:, 0]
    np.reciprocal(u, out=t, where=row[:, 3] > 0.0)
    powers = np.cumprod(np.repeat(t[:, None], _TERMS, axis=1), axis=1)
    s = row[:, 4] + (row[:, 5:]*powers).sum(axis=1)
    return np.exp(u*row[:, 1])*(s + row[:, 2]*np.log(np.abs(u)))
