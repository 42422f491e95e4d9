"""Whole-array reference for the Skorokhod check: every condition over the
full (K+1, n) trace at once, as the check read before it worked in row
blocks. On a well-formed trace regime_extract.mcsim.skorokhod_check must
pass or raise exactly as this does: same type, step, path and message."""
import numpy as np

from regime_extract.control import _boundary_inverse, external_shift
from regime_extract.errors import SRPViolated
from regime_extract.mcsim import BARRIER_TOL, DNU_TOL


def skorokhod_check(cs, trace) -> bool:
    shift = np.array([np.nan, external_shift(cs, 1), external_shift(cs, 2)])
    b_rows = np.empty_like(trace.X)
    for k in range(0, b_rows.shape[0], 256):
        rows = slice(k, k + 256)
        b_rows[rows] = _boundary_inverse(
            cs.params, shift[trace.regime[rows]], trace.X[rows])
    over = trace.Y > b_rows + BARRIER_TOL
    if over.any():
        k, j = np.unravel_index(int(np.argmax(over)), over.shape)
        raise SRPViolated(
            f"Y={trace.Y[k, j]} above boundary {b_rows[k, j]} "
            f"at step {k}, path {j}", step=int(k), path=int(j))
    moved = trace.dnu[1:] > DNU_TOL
    slack = np.abs(b_rows[1:] - b_rows[:-1]) + BARRIER_TOL
    low = trace.Y[:-1] <= b_rows[1:] - slack
    bad = moved & low
    if trace.switches:
        s_k, s_j, s_i, s_x = trace.switches
        b_sw = _boundary_inverse(cs.params, shift[s_i], s_x)
        fine = trace.Y[s_k - 1, s_j] > b_sw - BARRIER_TOL
        bad[s_k[fine] - 1, s_j[fine]] = False
    if bad.any():
        k, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise SRPViolated(
            f"extraction {trace.dnu[k + 1, j]} at step {k + 1}, path {j} "
            f"with reserve {trace.Y[k, j]} below boundary {b_rows[k + 1, j]}",
            step=int(k + 1), path=int(j))
    init_bad = (trace.dnu[0] > DNU_TOL) & (
        trace.Y[0] + trace.dnu[0] <= b_rows[0] - BARRIER_TOL)
    if init_bad.any():
        j = int(np.argmax(init_bad))
        raise SRPViolated(
            f"initial lump {trace.dnu[0, j]} on path {j} started below "
            f"the boundary {b_rows[0, j]}", step=0, path=j)
    return True
