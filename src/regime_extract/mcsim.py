"""Path simulation of the regime-switching price and extraction policies.

The chain is simulated exactly (exponential holding times); the price is
arithmetic Brownian, so conditional on the chain the Euler increments are
exact as well. Jump instants refine the uniform grid: each step that
contains jumps is split into sub-intervals and the policy is applied at
every jump instant and at the step end. Reflection policies project the
reserve onto the boundary, Delta nu = (Y - b(regime, X))^+, which places
a lump at t = 0 and, because the regime-1 boundary lies below the
regime-2 one, automatic lumps at 2 -> 1 switches.

One batch engine runs every policy. The running cost f(Y) is accrued
lazily, at each extraction and at the horizon, since Y is constant in
between; reflect_optimal triggers on the price threshold x*_i(Y) and
projects in f'-space. Pairs whose reserve is exhausted are compacted
away, which changes the draws the survivors see but not their law.
Recording a trace turns compaction off and settles the running cost at
every grid time.

estimate_value runs path pairs in fixed-size batches whose generators are
seeded from (base_seed, batch_index) and aggregates them in batch order,
so results are bit-reproducible for a given batch size.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .control import ControlSolution, b_star, external_shift, hjb_window
from .errors import OutOfRange, PreconditionViolated, SRPViolated
from .model import ModelParams

DEFAULT_BATCH_PAIRS = 25_000
MAX_STEPS = 10_000_000   # grid steps per path; arrays of K + 1 are made
# skorokhod_check's slack between reserve and boundary, and the least
# step extraction it counts as one
BARRIER_TOL, DNU_TOL = 1e-9, 1e-12


@dataclass(frozen=True)
class SimConfig:
    """Simulation controls. horizon=None resolves to 10/rho at run time
    (discount tail ~ e^-10); the truncation tail bound is reported with
    every outcome so it can be folded into comparison budgets."""

    dt: float = 1e-3
    horizon: Optional[float] = None
    n_paths: int = 100_000
    base_seed: int = 20_240_601
    antithetic: bool = True
    batch_pairs: int = DEFAULT_BATCH_PAIRS

    def resolved_horizon(self, params: ModelParams) -> float:
        T = self.horizon if self.horizon is not None else 10.0/params.rho
        if not (0 < self.dt <= T < math.inf and T/self.dt <= MAX_STEPS):
            raise OutOfRange(f"need 0 < dt <= horizon < inf and at most "
                             f"{MAX_STEPS} steps, got dt={self.dt}, T={T}")
        if self.n_paths < 1:
            raise OutOfRange(f"n_paths must be >= 1, got {self.n_paths}")
        return T


@dataclass(frozen=True)
class Policy:
    """Extraction rule. All kinds produce admissible controls: nu starts
    at zero, never decreases and never drives the reserve negative."""

    kind: str
    bfun: Optional[Callable] = None  # (regime, x_array) -> reserve level

    @staticmethod
    def reflect_optimal() -> "Policy":
        return Policy("reflect_optimal")

    @staticmethod
    def never_extract() -> "Policy":
        return Policy("never_extract")

    @staticmethod
    def extract_all_at_start() -> "Policy":
        return Policy("extract_all_at_start")

    @staticmethod
    def reflect_at_custom_boundary(bfun: Callable) -> "Policy":
        return Policy("reflect_at_custom_boundary", bfun=bfun)

    @property
    def policy_id(self) -> str:
        return self.kind


@dataclass(frozen=True)
class SimOutcome:
    mean: float
    std_error: float
    n_paths: int
    tail_bound: float
    policy_id: str
    dt: float
    horizon: float

    def to_dict(self) -> dict:
        return dict(vars(self))


@dataclass
class Trace:
    """Uniform-grid path record; jump-instant extractions and running
    cost fold into the enclosing step's dnu and disc_inc. Columns follow
    the CSV dump format."""

    t: np.ndarray          # (K+1,)
    regime: np.ndarray     # (K+1, n) int8
    X: np.ndarray          # (K+1, n)
    Y: np.ndarray          # (K+1, n)
    dnu: np.ndarray        # (K+1, n)
    disc_inc: np.ndarray   # (K+1, n)
    dt: float
    policy_id: str
    # in-step regime switches, one entry each in four arrays: the grid
    # step that closes the switch, its column, the new regime and the price
    switches: tuple = ()

    @property
    def n_paths(self) -> int:
        return self.X.shape[1]

    def payoffs(self) -> np.ndarray:
        return self.disc_inc.sum(axis=0)


def tail_bound(cs: ControlSolution, T: float) -> float:
    """e^{-rho T} (f(1)/rho + sup |x - c|) over verify_hjb's price range."""
    p = cs.params
    lo, hi = hjb_window(cs)
    sup = max(abs(lo - p.c), abs(hi - p.c))
    return math.exp(-p.rho*T)*(p.cost.value(1.0)/p.rho + sup)


def _check_state(x0, y0, i0) -> None:
    """Start state: finite price, reserve in [0, 1], regime 1 or 2."""
    if not math.isfinite(x0):
        raise OutOfRange(f"initial price must be finite, got {x0}")
    if not 0.0 <= y0 <= 1.0:
        raise OutOfRange(f"reserve level must lie in [0, 1], got {y0}")
    if i0 not in (1, 2):
        raise OutOfRange(f"regime must be 1 or 2, got {i0}")


def _simulate_batch(cs: ControlSolution, x0, y0, i0, policy: Policy, n_pairs,
                    dt, K, seed, batch_idx, antithetic, record=False,
                    compact_every=256):
    """n_pairs path pairs (single paths without antithetics) seeded from
    (seed, batch_idx): the (m, n_pairs) discounted payoffs, or with
    record=True the Trace of all m*n_pairs paths."""
    p = cs.params
    cost = p.cost
    rho, c = p.rho, p.c
    kind = policy.kind
    shift_tbl = np.array([np.nan, external_shift(cs, 1), external_shift(cs, 2)])
    sig_tbl = np.array([np.nan, p.sigma1, p.sigma2])
    lam_tbl = np.array([np.nan, p.lambda1, p.lambda2])

    ss = np.random.SeedSequence([seed, batch_idx])
    gc, gn = (np.random.Generator(np.random.PCG64(s)) for s in ss.spawn(2))
    m = 2 if antithetic else 1
    n = n_pairs
    disc = np.exp(-rho*dt*np.arange(K + 1))
    sqdt = math.sqrt(dt)

    i = np.full(n, i0, dtype=np.int64)
    R = gc.exponential(1.0/lam_tbl[i0], size=n)
    s_cur = np.full(n, sig_tbl[i0]*sqdt)
    X = np.full((m, n), float(x0))
    Y = np.full((m, n), float(y0))
    fpY = np.full((m, n), float(cost.derivative(y0)))
    fY = np.full((m, n), float(cost.value(y0)))
    pay = np.zeros((m, n))
    dlast = np.ones((m, n))  # discount factor up to which f(Y) is paid
    shift_p = np.full(n, shift_tbl[i0])
    xthr = shift_p + c - fpY/rho  # reflect_optimal's price threshold
    fp_lo, fp_hi = float(cost.derivative(0.0)), float(cost.derivative(1.0))

    if kind == "reflect_optimal":
        def over(mm, idx):
            return X[mm, idx] > xthr[mm, idx], None
    elif kind == "reflect_at_custom_boundary":
        def over(mm, idx):
            b = np.clip(policy.bfun(i[idx], X[mm, idx]), 0.0, 1.0)
            return b < Y[mm, idx], b
    elif kind in ("never_extract", "extract_all_at_start"):
        over = None
    else:
        raise PreconditionViolated(f"unknown policy {kind!r}")

    def extract(mm, sel, d, y_new=None):
        """Lower the reserve of member mm on paths sel to y_new (default:
        the optimal boundary) at discount factor d."""
        Xs = X[mm, sel]
        if y_new is None:
            fp_new = np.clip(rho*(c + shift_p[sel] - Xs), fp_lo, fp_hi)
            y_new, f_new = cost.from_derivative(fp_new)
            fpY[mm, sel] = fp_new
            xthr[mm, sel] = np.where(y_new > 0.0,
                                     shift_p[sel] + c - fp_new/rho, np.inf)
        else:
            f_new = cost.value(y_new)
        dnu = Y[mm, sel] - y_new
        pay[mm, sel] += d*((Xs - c)*dnu) - fY[mm, sel]*(dlast[mm, sel] - d)/rho
        Y[mm, sel] = y_new
        fY[mm, sel] = f_new
        dlast[mm, sel] = d
        if record:
            dnu_row[mm, sel] += dnu

    def project(d, idx=None):
        """Reflect the paths idx (default all) at discount factors d (one
        per path of idx, or a scalar for all)."""
        for mm in range(m):
            trig, b = over(mm, slice(None) if idx is None else idx)
            if trig.any():
                sel = np.flatnonzero(trig)
                extract(mm, sel if idx is None else idx[sel],
                        d if idx is None else d[sel],
                        None if b is None else b[sel])

    if record:
        compact_every = 0
        N = m*n
        trace = Trace(t=dt*np.arange(K + 1),
                      regime=np.empty((K + 1, N), dtype=np.int8),
                      X=np.empty((K + 1, N)), Y=np.empty((K + 1, N)),
                      dnu=np.zeros((K + 1, N)), disc_inc=np.zeros((K + 1, N)),
                      dt=dt, policy_id=policy.policy_id)
        # pay and dnu_row are step k's rows of the trace, seen as (m, n)
        inc_rows = trace.disc_inc.reshape(K + 1, m, n)
        dnu_rows = trace.dnu.reshape(K + 1, m, n)
        pay, dnu_row = inc_rows[0], dnu_rows[0]
        switches = []

        def snapshot(k):
            trace.regime[k] = np.tile(i, m)
            trace.X[k] = X.reshape(-1)
            trace.Y[k] = Y.reshape(-1)

    if kind == "extract_all_at_start":
        for mm in range(m):
            extract(mm, np.arange(n), 1.0, np.zeros(n))
    elif over is not None:
        project(1.0)
    if record:
        snapshot(0)

    pay_done = []
    for k in range(K):
        if record:
            pay, dnu_row = inc_rows[k + 1], dnu_rows[k + 1]
        Z = gn.standard_normal(n)
        inc = Z*s_cur
        X[0] += inc
        if m == 2:
            X[1] -= inc
        jumped = R < dt
        R -= dt
        if jumped.any():
            jj = np.flatnonzero(jumped)
            X[0, jj] -= inc[jj]
            if m == 2:
                X[1, jj] += inc[jj]
            rem = np.full(jj.size, dt)
            Rj = R[jj] + dt
            tloc = np.zeros(jj.size)
            act = np.arange(jj.size)
            while act.size:
                pp = jj[act]
                tau = np.minimum(Rj[act], rem[act])
                Zs = gn.standard_normal(act.size)
                incs = sig_tbl[i[pp]]*np.sqrt(tau)*Zs
                X[0, pp] += incs
                if m == 2:
                    X[1, pp] -= incs
                tloc[act] += tau
                hit = Rj[act] < rem[act]
                rem[act] -= tau
                Rj[act] -= tau
                hp = pp[hit]
                if hp.size:
                    ha = act[hit]
                    i[hp] = 3 - i[hp]
                    newR = gc.exponential(1.0/lam_tbl[i[hp]])
                    Rj[ha] = newR
                    s_cur[hp] = sig_tbl[i[hp]]*sqdt
                    shift_p[hp] = shift_tbl[i[hp]]
                    xthr[:, hp] = np.where(Y[:, hp] > 0.0,
                                           shift_p[hp] + c - fpY[:, hp]/rho,
                                           np.inf)
                    if record:
                        for mm in range(m):
                            switches.append((np.full(hp.size, k + 1),
                                             hp + mm*n, i[hp], X[mm, hp]))
                    if over is not None:
                        project(disc[k]*np.exp(-rho*tloc[ha]), hp)
                keep = rem[act] > 1e-15
                R[pp[~keep]] = Rj[act[~keep]]
                act = act[keep]
        if over is not None:
            project(disc[k + 1])
        if record:
            # settle the running cost so each row is one step's increment
            pay -= fY*(dlast - disc[k + 1])/rho
            dlast[:] = disc[k + 1]
            snapshot(k + 1)
        if compact_every and (k + 1) % compact_every == 0 and n > 64:
            done = (Y == 0.0).all(axis=0)
            if done.mean() > 0.25:
                keep = ~done
                pay_done.append(pay[:, done].copy())
                i, R, s_cur = i[keep], R[keep], s_cur[keep]
                shift_p = shift_p[keep]
                X, Y, fpY, fY = X[:, keep], Y[:, keep], fpY[:, keep], fY[:, keep]
                pay, dlast, xthr = pay[:, keep], dlast[:, keep], xthr[:, keep]
                n = int(keep.sum())
    if record:
        if switches:
            trace.switches = tuple(map(np.concatenate, zip(*switches)))
        return trace
    pay = pay - fY*(dlast - disc[K])/rho
    return np.concatenate(pay_done + [pay], axis=1) if pay_done else pay


def simulate_traces(cs: ControlSolution, x0, y0, i0, policy: Policy,
                    cfg: SimConfig, n_paths: int) -> Trace:
    """Record full uniform-grid traces for n_paths paths (memory permitting)."""
    _check_state(x0, y0, i0)
    T = cfg.resolved_horizon(cs.params)
    K = int(round(T/cfg.dt))
    m = 2 if cfg.antithetic else 1
    if cfg.antithetic and n_paths % 2:
        raise PreconditionViolated("antithetic tracing needs even n_paths")
    need = (K + 1)*n_paths*8*4
    if need > 2**31:
        raise OutOfRange(f"trace would need {need/2**30:.1f} GiB; "
                         "reduce n_paths, dt resolution or horizon")
    return _simulate_batch(cs, x0, y0, i0, policy, n_paths//m, cfg.dt, K,
                           cfg.base_seed, 0, cfg.antithetic, record=True)


def _deterministic_value(cs: ControlSolution, x0, y0, policy: Policy,
                         T: float) -> Optional[float]:
    p = cs.params
    if policy.kind == "never_extract":
        return -p.cost.value(y0)*(1.0 - math.exp(-p.rho*T))/p.rho
    if policy.kind == "extract_all_at_start":
        return (x0 - p.c)*y0
    return None


def estimate_value(cs: ControlSolution, x0, y0, i0, policy: Policy,
                   cfg: SimConfig) -> SimOutcome:
    """Mean discounted payoff and standard error over cfg.n_paths paths.

    With antithetic pairing (default) the independent sampling unit is the
    pair, so std_error = std(pair means)/sqrt(n_pairs). Deterministic
    policies reduce to their closed-form payoff with zero error.
    """
    p = cs.params
    _check_state(x0, y0, i0)
    T = cfg.resolved_horizon(p)
    K = int(round(T/cfg.dt))
    tb = tail_bound(cs, T)

    det = _deterministic_value(cs, x0, y0, policy, T)
    if det is not None:
        return SimOutcome(mean=float(det), std_error=0.0, n_paths=cfg.n_paths,
                          tail_bound=tb, policy_id=policy.policy_id,
                          dt=cfg.dt, horizon=T)

    m = 2 if cfg.antithetic else 1
    if cfg.antithetic and cfg.n_paths % 2:
        raise PreconditionViolated("antithetic estimation needs even n_paths")
    n_units = cfg.n_paths//m
    batch = max(1, min(cfg.batch_pairs, n_units))
    sizes = [batch]*(n_units//batch)
    if n_units % batch:
        sizes.append(n_units % batch)

    pays = [_simulate_batch(cs, x0, y0, i0, policy, size, cfg.dt, K,
                            cfg.base_seed, bidx, cfg.antithetic)
            for bidx, size in enumerate(sizes)]
    samples = np.concatenate([pp.mean(axis=0) for pp in pays])
    mean = float(samples.mean())
    se = (float(samples.std(ddof=1))/math.sqrt(samples.size)
          if samples.size > 1 else float("inf"))
    return SimOutcome(mean=mean, std_error=se, n_paths=cfg.n_paths,
                      tail_bound=tb, policy_id=policy.policy_id,
                      dt=cfg.dt, horizon=T)


def skorokhod_check(cs: ControlSolution, trace: Trace) -> bool:
    """Discrete Skorokhod conditions on a recorded trace (one-step slack).

    (1) after every step the reserve sits at or below the boundary of the
    current regime/price; (2) extraction happens only when the pre-step
    reserve exceeded the boundary (allowing for within-step boundary
    motion, or the boundary of the new regime at the price of a switch
    inside the step, where the engine reflects too). Raises SRPViolated
    with the first offending step.
    """
    b_rows = np.empty_like(trace.X)
    for k in range(0, b_rows.shape[0], 256):
        rows = slice(k, k + 256)
        b_rows[rows] = np.where(trace.regime[rows] == 1,
                                b_star(cs, 1, trace.X[rows]),
                                b_star(cs, 2, trace.X[rows]))
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
        b_sw = np.where(s_i == 1, b_star(cs, 1, s_x), b_star(cs, 2, s_x))
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


def trace_to_csv(trace: Trace, path, path_index: int = 0) -> None:
    """Dump one traced path: columns t, regime, X, Y, dnu, discounted_increment."""
    import csv
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["t", "regime", "X", "Y", "dnu", "discounted_increment"])
        for k in range(trace.t.size):
            wr.writerow([f"{trace.t[k]:.10g}", int(trace.regime[k, path_index]),
                         repr(float(trace.X[k, path_index])),
                         repr(float(trace.Y[k, path_index])),
                         repr(float(trace.dnu[k, path_index])),
                         repr(float(trace.disc_inc[k, path_index]))])
