"""Path simulation of the regime-switching price and extraction policies.

The chain is simulated exactly (exponential holding times); the price is
arithmetic Brownian, so conditional on the chain the Euler increments are
exact as well. Jump instants refine the uniform grid: each step that
contains jumps is split into sub-intervals and the policy is applied at
every jump instant and at the step end. Reflection policies project the
reserve onto the boundary, Delta nu = (Y - b(regime, X))^+, which places
a lump at t = 0 and, because the regime-1 boundary lies below the
regime-2 one, automatic lumps at 2 -> 1 switches.

One batch engine runs every policy; the antithetic members lie on one
axis, moving by +1 and -1 times the shared increments, and one reflect
step serves both. The running cost f(Y) is accrued lazily, at each
extraction and at the horizon, since Y is constant in between;
reflect_optimal triggers on the price threshold x*_i(Y) and projects in
f'-space. Pairs whose reserve is exhausted are compacted away, which
changes the draws the survivors see but not their law; a recorded trace
is never compacted and settles the running cost at every grid time.

estimate_value runs path pairs in fixed-size batches whose generators are
seeded from (base_seed, batch_index) and aggregates them in batch order,
so results are bit-reproducible for a given batch size.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .control import ControlSolution, _boundary_inverse, external_shift
from .errors import OutOfRange, PreconditionViolated, SRPViolated
from .model import ModelParams

DEFAULT_BATCH_PAIRS = 25_000
MAX_STEPS = 10_000_000   # grid steps per path; arrays of K + 1 are made
# skorokhod_check's slack between reserve and boundary, and the least
# step extraction it counts as one
BARRIER_TOL, DNU_TOL = 1e-9, 1e-12
# policies whose payoff estimate_value writes in closed form
_CLOSED_FORM = ("never_extract", "extract_all_at_start")
_KINDS = ("reflect_optimal", "reflect_at_custom_boundary") + _CLOSED_FORM


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

    def payoffs(self) -> np.ndarray:
        return self.disc_inc.sum(axis=0)


def tail_bound(cs: ControlSolution, x0, y0, T: float) -> float:
    """Bound on the payoff a run from (x0, y0) truncated at T leaves out:
    e^{-rho T} (f(y0)/rho + y0 (|x0 - c| + sigma_max (sqrt T + 4/sqrt rho))).

    Any admissible policy has |V(x, y, i)| <= f(y)/rho + y E sup_t
    e^{-rho t} |X_t - c|. At T the reserve is at most y0, and
    |X_{T+t} - c| <= |x0 - c| + |X_T - x0| + |X_{T+t} - X_T| with
    E|X_T - x0| <= sigma_max sqrt T. Doob's L2 inequality on the windows
    [k/rho, (k+1)/rho), where e^{-rho t} <= e^{-k}, bounds
    E sup_t e^{-rho t} |X_{T+t} - X_T| by (2 sigma_max/sqrt rho)
    sum_k e^{-k} sqrt(k+1) < 4 sigma_max/sqrt rho. It is 0 at y0 = 0.
    """
    p = cs.params
    spread = max(p.sigma1, p.sigma2)*(math.sqrt(T) + 4.0/math.sqrt(p.rho))
    return math.exp(-p.rho*T)*(float(p.cost.value(y0))/p.rho
                               + y0*(abs(x0 - p.c) + spread))


def _checked_run(cs: ControlSolution, x0, y0, i0, cfg: SimConfig, n_paths,
                 paired=True):
    """(T, K, m) of a run of n_paths paths, after checking the start state,
    the horizon, n_paths >= 1 and, if paired, its parity under antithetics."""
    if not (math.isfinite(x0) and 0.0 <= y0 <= 1.0 and i0 in (1, 2)):
        raise OutOfRange("need a finite price, a reserve in [0, 1] and "
                         f"regime 1 or 2, got x={x0}, y={y0}, regime={i0}")
    T = cfg.resolved_horizon(cs.params)
    if n_paths < 1:
        raise OutOfRange(f"n_paths must be >= 1, got {n_paths}")
    m = 2 if cfg.antithetic else 1
    if paired and n_paths % m:
        raise PreconditionViolated("antithetic runs need an even n_paths")
    return T, int(round(T/cfg.dt)), m


def _simulate_batch(cs: ControlSolution, x0, y0, i0, policy: Policy, n_pairs,
                    dt, K, seed, batch_idx, antithetic, record=False,
                    compact_every=256):
    """n_pairs path pairs (single paths without antithetics) seeded from
    (seed, batch_idx): the (m, n_pairs) discounted payoffs, or with
    record=True the Trace of all m*n_pairs paths. Row r of every (m, n)
    state array is antithetic member r, which moves by sgn[r] times the
    shared price increments."""
    kind = policy.kind
    if kind not in _KINDS:
        raise PreconditionViolated(f"unknown policy {kind!r}")
    reflecting = kind not in _CLOSED_FORM
    p = cs.params
    cost, rho, c = p.cost, p.rho, p.c
    shift_tbl = np.array([np.nan, external_shift(cs, 1), external_shift(cs, 2)])
    sig_tbl = np.array([np.nan, p.sigma1, p.sigma2])
    lam_tbl = np.array([np.nan, p.lambda1, p.lambda2])

    ss = np.random.SeedSequence([seed, batch_idx])
    gc, gn = (np.random.Generator(np.random.PCG64(s)) for s in ss.spawn(2))
    m = 2 if antithetic else 1
    sgn = np.array([[1.0], [-1.0]])[:m]
    n = n_pairs
    disc = np.exp(-rho*dt*np.arange(K + 1))
    sqdt = math.sqrt(dt)
    every = slice(None)

    i = np.full(n, i0, dtype=np.int64)
    R = gc.exponential(1.0/lam_tbl[i0], size=n)
    s_cur = np.full(n, sig_tbl[i0]*sqdt)
    X, Y = np.full((m, n), float(x0)), np.full((m, n), float(y0))
    fpY = np.full((m, n), float(cost.derivative(y0)))
    fY = np.full((m, n), float(cost.value(y0)))
    pay = np.zeros((m, n))
    dlast = np.ones((m, n))  # discount factor up to which f(Y) is paid
    shift_p = np.full(n, shift_tbl[i0])
    xthr = np.empty((m, n))  # reflect_optimal's price trigger
    fp_lo, fp_hi = float(cost.derivative(0.0)), float(cost.derivative(1.0))

    def threshold(r, col):
        """x*_i(Y) = shift_i + c - f'(Y)/rho on the entries (r, col), or
        infinity once the reserve is exhausted."""
        xthr[r, col] = np.where(Y[r, col] > 0.0,
                                shift_p[col] + c - fpY[r, col]/rho, np.inf)

    def lower(r, col, d, y_new, f_new):
        """Extract the entries (r, col) down to y_new (running cost f_new)
        at discount factor d, settling their running cost up to d."""
        dnu = Y[r, col] - y_new
        pay[r, col] += (d*((X[r, col] - c)*dnu)
                        - fY[r, col]*(dlast[r, col] - d)/rho)
        Y[r, col] = y_new
        fY[r, col] = f_new
        dlast[r, col] = d
        if record:
            dnu_row[r, col] += dnu

    def reflect(d, cols=None):
        """Reflect both members on the paths cols (default all) at the
        discount factors d (one per path of cols, or a scalar for all)."""
        at = every if cols is None else cols
        if kind == "reflect_optimal":
            trig = X[:, at] > xthr[:, at]
        else:
            b = np.clip(policy.bfun(np.tile(i[at], m), X[:, at].reshape(-1)),
                        0.0, 1.0).reshape(m, -1)
            trig = b < Y[:, at]
        hits = np.flatnonzero(trig)  # np.nonzero of a 2-D mask is 10x slower
        if not hits.size:
            return
        r, j = np.divmod(hits, trig.shape[1])
        col = j if cols is None else cols[j]
        d = d if np.ndim(d) == 0 else d[j]
        if kind == "reflect_optimal":
            fp = np.clip(rho*(c + shift_p[col] - X[r, col]), fp_lo, fp_hi)
            fpY[r, col] = fp
            lower(r, col, d, *cost.from_derivative(fp))
            threshold(r, col)
        else:
            lower(r, col, d, b[r, j], cost.value(b[r, j]))

    if record:
        compact_every = 0
        N = m*n
        trace = Trace(t=dt*np.arange(K + 1),
                      regime=np.empty((K + 1, N), dtype=np.int8),
                      X=np.empty((K + 1, N)), Y=np.empty((K + 1, N)),
                      dnu=np.zeros((K + 1, N)), disc_inc=np.zeros((K + 1, N)),
                      dt=dt, policy_id=kind)
        # pay and dnu_row are step k's rows of the trace, seen as (m, n)
        inc_rows = trace.disc_inc.reshape(K + 1, m, n)
        dnu_rows = trace.dnu.reshape(K + 1, m, n)
        pay, dnu_row = inc_rows[0], dnu_rows[0]
        switches = []

        def snapshot(k):
            trace.regime[k] = np.tile(i, m)
            trace.X[k] = X.reshape(-1)
            trace.Y[k] = Y.reshape(-1)

    threshold(every, every)
    if kind == "extract_all_at_start":
        lower(every, every, 1.0, 0.0, cost.value(0.0))
    elif reflecting:
        reflect(1.0)
    if record:
        snapshot(0)

    pay_done = []
    for k in range(K):
        if record:
            pay, dnu_row = inc_rows[k + 1], dnu_rows[k + 1]
        inc = gn.standard_normal(n)*s_cur
        X += sgn*inc
        jumped = R < dt
        R -= dt
        if jumped.any():
            jj = np.flatnonzero(jumped)
            X[:, jj] -= sgn*inc[jj]
            rem = np.full(jj.size, dt)
            Rj = R[jj] + dt
            tloc = np.zeros(jj.size)
            act = np.arange(jj.size)
            while act.size:
                pp = jj[act]
                tau = np.minimum(Rj[act], rem[act])
                X[:, pp] += sgn*(sig_tbl[i[pp]]*np.sqrt(tau)
                                 *gn.standard_normal(act.size))
                tloc[act] += tau
                hit = Rj[act] < rem[act]
                rem[act] -= tau
                Rj[act] -= tau
                hp = pp[hit]
                if hp.size:
                    ha = act[hit]
                    i[hp] = 3 - i[hp]
                    Rj[ha] = gc.exponential(1.0/lam_tbl[i[hp]])
                    s_cur[hp] = sig_tbl[i[hp]]*sqdt
                    shift_p[hp] = shift_tbl[i[hp]]
                    threshold(every, hp)
                    if record:
                        switches += [(np.full(hp.size, k + 1), hp + r*n,
                                      i[hp], X[r, hp]) for r in range(m)]
                    if reflecting:
                        reflect(disc[k]*np.exp(-rho*tloc[ha]), hp)
                keep = rem[act] > 1e-15
                R[pp[~keep]] = Rj[act[~keep]]
                act = act[keep]
        if reflecting:
            reflect(disc[k + 1])
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
                i, R, s_cur, shift_p = (a[keep] for a in (i, R, s_cur, shift_p))
                X, Y, fpY, fY, pay, dlast, xthr = (
                    a[:, keep] for a in (X, Y, fpY, fY, pay, dlast, xthr))
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
    T, K, m = _checked_run(cs, x0, y0, i0, cfg, n_paths)
    need = (K + 1)*n_paths*8*4
    if need > 2**31:
        raise OutOfRange(f"trace would need {need/2**30:.1f} GiB; "
                         "reduce n_paths, dt resolution or horizon")
    return _simulate_batch(cs, x0, y0, i0, policy, n_paths//m, cfg.dt, K,
                           cfg.base_seed, 0, cfg.antithetic, record=True)


def estimate_value(cs: ControlSolution, x0, y0, i0, policy: Policy,
                   cfg: SimConfig) -> SimOutcome:
    """Mean discounted payoff and standard error over cfg.n_paths paths.

    With antithetic pairing (default) the independent sampling unit is the
    pair, so std_error = std(pair means)/sqrt(n_pairs). Deterministic
    policies reduce to their closed-form payoff with zero error.
    """
    p, kind = cs.params, policy.kind
    T, K, m = _checked_run(cs, x0, y0, i0, cfg, cfg.n_paths,
                           paired=kind not in _CLOSED_FORM)
    se = 0.0
    if kind == "never_extract":
        mean = -p.cost.value(y0)*(1.0 - math.exp(-p.rho*T))/p.rho
    elif kind == "extract_all_at_start":
        mean = (x0 - p.c)*y0
    else:
        n_units = cfg.n_paths//m
        batch = max(1, min(cfg.batch_pairs, n_units))
        sizes = [min(batch, n_units - s) for s in range(0, n_units, batch)]
        pays = [_simulate_batch(cs, x0, y0, i0, policy, size, cfg.dt, K,
                                cfg.base_seed, bidx, cfg.antithetic)
                for bidx, size in enumerate(sizes)]
        samples = np.concatenate([pp.mean(axis=0) for pp in pays])
        mean = float(samples.mean())
        se = (float(samples.std(ddof=1))/math.sqrt(samples.size)
              if samples.size > 1 else float("inf"))
    return SimOutcome(mean=float(mean), std_error=se, n_paths=cfg.n_paths,
                      tail_bound=tail_bound(cs, x0, y0, T), policy_id=kind,
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
