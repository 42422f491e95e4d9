"""Bracketed bisection, the level tables that integrate e^{kappa f'} over
reserve levels for a custom cost, and the scaled exponential integral
e^{-u} Ei(u)."""
import functools
import math

import numpy as np

from .errors import NoBracket, QuadratureNotConverged

BISECT_MAX_ITER = 200   # halvings before bisect returns the midpoint
# a level table's most nodes per try, first mean rise of kappa f' per
# panel and agreement of logs; expi_scaled takes values in cache-sized
# slices
NODE_BUDGET, PANEL_RISE, TABLE_TOL, SLICE_NODES = 1 << 20, 2.0, 1e-13, 1 << 14


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


def level_table(fprime, kappa):
    """(P, logs, t, w): logs[j] = log of the integral of e^{kappa f'}, f'
    increasing, from the anchor (the end of [0, 1] where it is least: 0
    if kappa > 0, else 1) to the level j/P away; logs[0] = -inf. 8-point
    Gauss-Legendre per panel, nodes t and weights w on [0, 1], summed by
    np.logaddexp.accumulate. P/2 starts at the least 8 2^k past |kappa|
    (f'(1) - f'(0))/PANEL_RISE and doubles until the P/2- and P-panel
    logs agree to TABLE_TOL relative to max(1, |log|), else
    QuadratureNotConverged past NODE_BUDGET nodes a try."""
    # made here, not at import: numpy.polynomial costs every process 2 MB
    t, w = 0.5*np.array(np.polynomial.legendre.leggauss(8)) + [[0.5], [0.0]]
    rise = abs(kappa)*(fprime(1.0) - fprime(0.0))/PANEL_RISE
    panels = 8 << max(0, math.ceil(math.log2(rise/8.0)))
    while 24*panels <= NODE_BUDGET:
        sizes = (panels, 2*panels)   # one f' call on both rules' nodes
        s = np.concatenate([((np.arange(n)[:, None] + t)/n).ravel()
                            for n in sizes])
        phi = np.split(kappa*fprime(s if kappa > 0 else 1.0 - s), [8*panels])
        # from the first panel's end on: the anchor's -inf is left out
        logs, half = (np.logaddexp.accumulate(
            (p.reshape(n, 8) + np.log(w/n)).ravel())[7::8]
            for p, n in zip(phi, sizes))
        gap = np.abs(logs - half[1::2])/np.maximum(1.0, np.abs(logs))
        if np.all(gap <= TABLE_TOL):
            return 2*panels, np.concatenate([[-np.inf], half]), t, w
        panels *= 2
    raise QuadratureNotConverged(f"the level table of kappa = {kappa} "
                                 f"needs over {NODE_BUDGET} nodes")


def scaled_antiderivative(tables, fprime, kappa, z, phi):
    """H(z) = e^{-kappa f'(z)} times the integral of e^{kappa f'} from the
    anchor of tables(kappa), a level_table, to z, negated if kappa < 0
    (|H| <= 1), at phi = kappa f'(z), kappa and z broadcast: the table at
    the panel edge below z and the rest of the way by the same rule."""
    kappa, z = np.broadcast_arrays(kappa, z)
    h = np.empty(phi.shape)
    for k in map(float, np.unique(kappa)):
        at = kappa == k
        (panels, logs, t, w), s = tables(k), z[at] if k > 0 else 1.0 - z[at]
        j = np.minimum((s*panels).astype(int), panels - 1)
        width = (s - j/panels)[:, None]   # of the partial panel [j/P, s]
        nodes = z[at][:, None] - np.sign(k)*width*t
        part = width*w*np.exp(k*fprime(nodes) - phi[at][:, None])
        h[at] = np.sign(k)*(np.exp(logs[j] - phi[at]) + part.sum(axis=1))
    return h


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
