"""Path simulation of the regime-switching price and extraction policies.

The chain is simulated exactly (exponential holding times); the price is
arithmetic Brownian, so conditional on the chain the Euler increments are
exact as well. Jump instants refine the uniform grid: each step that
contains jumps is split into sub-intervals and the policy is applied at
every jump instant and at the step end. Reflection policies project the
reserve onto the boundary, Delta nu = (Y - b(regime, X))^+, which places
a lump at t = 0 and, because the regime-1 boundary lies below the
regime-2 one, automatic lumps at 2 -> 1 switches.

One batch engine runs every policy. Its per-member state is flat and
member-major: entry r*n + j is antithetic member r of path j, moving by
+1 (r = 0) or -1 (r = 1) times the shared increments, so the subsets
that jump splitting and reflection touch are 1-D gathers and scatters of
both members at once, and one reflect step serves both. The jump rounds
run on the paths still short of the step end, compressed once a round.
The running cost f(Y) is accrued lazily, at each extraction and at the
horizon, since Y is constant in between; reflect_optimal triggers on the
price threshold x*_i(Y) and projects in f'-space. A custom boundary
bfun(regime, x) is called with two 1-D arrays covering both members and
must return one finite level per price (else PreconditionViolated); the
level is clipped to [0, 1]. Pairs whose reserve is exhausted are
compacted away, which changes the draws the survivors see but not their
law; compaction compresses the (m, n) view of each state array, which
stays C-contiguous, so its flat view is not a second copy. A recorded
trace is never compacted and settles the running cost at every grid time.

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
    record=True the Trace of all m*n_pairs paths. The per-member state is
    flat and member-major: entry r*n + j is antithetic member r of path j,
    which moves by +1 (r = 0) or -1 (r = 1) times the shared increments."""
    kind = policy.kind
    if kind not in _KINDS:
        raise PreconditionViolated(f"unknown policy {kind!r}")
    reflecting, optimal = kind not in _CLOSED_FORM, kind == "reflect_optimal"
    p = cs.params
    cost, rho, c = p.cost, p.rho, p.c
    shift_tbl = np.array([np.nan, external_shift(cs, 1), external_shift(cs, 2)])
    sig_tbl = np.array([np.nan, p.sigma1, p.sigma2])
    hold_tbl = np.array([np.nan, 1.0/p.lambda1, 1.0/p.lambda2])

    ss = np.random.SeedSequence([seed, batch_idx])
    gc, gn = (np.random.Generator(np.random.PCG64(s)) for s in ss.spawn(2))
    m = 2 if antithetic else 1
    n = n_pairs
    disc = np.exp(-rho*dt*np.arange(K + 1))
    sqdt = math.sqrt(dt)
    every = slice(None)

    i = np.full(n, i0, dtype=np.int64)
    R = gc.standard_exponential(n)*hold_tbl[i0]
    s_cur = np.full(n, sig_tbl[i0]*sqdt)
    shift_p = np.full(n, shift_tbl[i0])
    X, Y = np.full(m*n, float(x0)), np.full(m*n, float(y0))
    fpY = np.full(m*n, float(cost.derivative(y0)))
    fY = np.full(m*n, float(cost.value(y0)))
    pay = np.zeros(m*n)
    dlast = np.ones(m*n)  # discount factor up to which f(Y) is paid
    xthr = np.empty(m*n)  # reflect_optimal's price trigger
    fp_lo, fp_hi = float(cost.derivative(0.0)), float(cost.derivative(1.0))

    def members(cols):
        """The flat entries of both members of the paths cols."""
        return cols if m == 1 else np.concatenate((cols, cols + n))

    def signed(v):
        """v per path as the members' moves: +v, and -v for member 1."""
        return v if m == 1 else np.concatenate((v, -v))

    def threshold(e, shift):
        """x*_i(Y) = shift_i + c - f'(Y)/rho on the entries e, whose
        regimes' shifts are shift, or infinity once the reserve is
        exhausted."""
        xthr[e] = np.where(Y[e] > 0.0, shift + c - fpY[e]/rho, np.inf)

    def lower(e, d, y_new, f_new):
        """Extract the entries e down to y_new (running cost f_new) at
        discount factor d, settling their running cost up to d."""
        dnu = Y[e] - y_new
        pay[e] += d*((X[e] - c)*dnu) - fY[e]*(dlast[e] - d)/rho
        Y[e] = y_new
        fY[e] = f_new
        dlast[e] = d
        if record:
            dnu_row[e] += dnu

    def reflect(d, cols=None):
        """Reflect both members of the paths cols (default all) at the
        discount factors d (one per path of cols, or a scalar for all)."""
        e = every if cols is None else members(cols)
        if optimal:
            trig = X[e] > xthr[e]
        else:
            x = X[e]
            b = np.asarray(policy.bfun(np.tile(i if cols is None else i[cols],
                                               m), x))
            if b.shape != x.shape:
                raise PreconditionViolated(
                    f"a custom boundary must act elementwise: {x.size} "
                    f"prices gave an output of shape {b.shape}")
            if not np.isfinite(b).all():
                raise PreconditionViolated(
                    "a custom boundary returned a non-finite reserve level")
            b = np.clip(b, 0.0, 1.0)
            trig = b < Y[e]
        hits = trig.nonzero()[0]
        if not hits.size:
            return
        he = hits if cols is None else e[hits]
        if np.ndim(d):
            d = d[hits % cols.size]
        if optimal:
            shift = shift_p[he % n]
            fp = np.clip(rho*(c + shift - X[he]), fp_lo, fp_hi)
            fpY[he] = fp
            lower(he, d, *cost.from_derivative(fp))
            threshold(he, shift)
        else:
            lower(he, d, b[hits], cost.value(b[hits]))

    if record:
        compact_every = 0
        trace = Trace(t=dt*np.arange(K + 1),
                      regime=np.empty((K + 1, m*n), dtype=np.int8),
                      X=np.empty((K + 1, m*n)), Y=np.empty((K + 1, m*n)),
                      dnu=np.zeros((K + 1, m*n)),
                      disc_inc=np.zeros((K + 1, m*n)), dt=dt, policy_id=kind)
        # pay and dnu_row are step k's rows of the trace
        pay, dnu_row = trace.disc_inc[0], trace.dnu[0]
        switches = []

        def snapshot(k):
            trace.regime[k] = np.tile(i, m)
            trace.X[k] = X
            trace.Y[k] = Y

    if optimal:
        threshold(every, shift_tbl[i0])
    if kind == "extract_all_at_start":
        lower(every, 1.0, 0.0, cost.value(0.0))
    elif reflecting:
        reflect(1.0)
    if record:
        snapshot(0)

    pay_done = []
    for k in range(K):
        if record:
            pay, dnu_row = trace.disc_inc[k + 1], trace.dnu[k + 1]
        inc = gn.standard_normal(n)
        inc *= s_cur
        X[:n] += inc
        if m == 2:
            X[n:] -= inc
        pp = (R < dt).nonzero()[0]
        R -= dt
        if pp.size:
            # split the step at each path's switch instants, in rounds on
            # the paths pp still short of the step end
            X[members(pp)] -= signed(inc[pp])
            rem = np.full(pp.size, dt)
            Rj = R[pp] + dt
            tloc = np.zeros(pp.size)
            while pp.size:
                tau = np.minimum(Rj, rem)
                X[members(pp)] += signed(sig_tbl[i[pp]]*np.sqrt(tau)
                                         * gn.standard_normal(pp.size))
                tloc += tau
                hit = Rj < rem
                rem -= tau
                Rj -= tau
                hp = pp[hit]
                if hp.size:
                    i[hp] = 3 - i[hp]
                    Rj[hit] = gc.standard_exponential(hp.size)*hold_tbl[i[hp]]
                    s_cur[hp] = sig_tbl[i[hp]]*sqdt
                    shift_p[hp] = shift_tbl[i[hp]]
                    e = members(hp)
                    if optimal:
                        threshold(e, shift_p[e % n])
                    if record:
                        switches.append((np.full(e.size, k + 1), e,
                                         i[e % n], X[e]))
                    if reflecting:
                        reflect(disc[k]*np.exp(-rho*tloc[hit]), hp)
                keep = rem > 1e-15
                if not keep.all():
                    R[pp[~keep]] = Rj[~keep]
                    pp, rem, Rj, tloc = (a[keep] for a in (pp, rem, Rj, tloc))
        if reflecting:
            reflect(disc[k + 1])
        if record:
            # settle the running cost so each row is one step's increment
            pay -= fY*(dlast - disc[k + 1])/rho
            dlast[:] = disc[k + 1]
            snapshot(k + 1)
        if compact_every and (k + 1) % compact_every == 0 and n > 64:
            done = (Y.reshape(m, n) == 0.0).all(axis=0)
            if done.mean() > 0.25:
                # compress, unlike a boolean index, keeps the (m, n) view
                # C-contiguous, so reshape(-1) returns a view
                keep = ~done
                pay_done.append(pay.reshape(m, n)[:, done])
                i, R, s_cur, shift_p = (a[keep] for a in (i, R, s_cur, shift_p))
                X, Y, fpY, fY, pay, dlast, xthr = (
                    a.reshape(m, n).compress(keep, axis=1).reshape(-1)
                    for a in (X, Y, fpY, fY, pay, dlast, xthr))
                n = int(keep.sum())
    if record:
        if switches:
            trace.switches = tuple(map(np.concatenate, zip(*switches)))
        return trace
    pay = (pay - fY*(dlast - disc[K])/rho).reshape(m, n)
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
