"""Path simulation of the regime-switching price and extraction policies.

The chain is simulated exactly (exponential holding times); the price is
arithmetic Brownian, so conditional on the chain the Euler increments are
exact as well. Jump instants refine the uniform grid: each step that
contains jumps is split into sub-intervals and the policy is applied at
every jump instant and at the step end. Every policy reflects: it
projects the reserve onto its boundary, Delta nu = (Y - b(regime, X))^+,
which places a lump at t = 0 and, because the regime-1 boundary lies
below the regime-2 one, automatic lumps at 2 -> 1 switches.

One batch engine runs every policy. Its per-member state is flat and
member-major: entry r*n + j is antithetic member r of path j, moving by
+1 (r = 0) or -1 (r = 1) times the shared increments, so the subsets
that jump splitting and reflection touch are 1-D gathers and scatters of
both members at once, and one reflect step serves both. The jump rounds
run on the paths still short of the step end, compressed once a round.
The running cost f(Y) is accrued lazily, at each extraction and at the
horizon, since Y is constant in between. Every policy triggers on a
price threshold x*_i(Y): +inf for never_extract, -inf for
extract_all_at_start and a custom boundary, +inf once the reserve is
exhausted. The built-in policies project in f'-space; a custom boundary
bfun(regime, x) gets 1-D copies of the triggered entries' regimes and
prices and must return one finite level per price (else
PreconditionViolated), clipped to [0, 1]. Pairs whose reserve is
exhausted are compacted away, which changes the draws the survivors see
but not their law; compaction compresses the (m, n) view of each state
array, which stays C-contiguous, so its flat view is not a second copy.
A recorded trace is never compacted and settles the running cost at
every grid time.

estimate_value runs path pairs in fixed-size batches whose generators are
seeded from (base_seed, batch_index) and aggregates them in batch order,
so results are bit-reproducible for a given batch size.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .control import ControlSolution, _boundary_inverse, external_shift
from .errors import OutOfRange, PreconditionViolated, SRPViolated
from .model import LEVELS, ModelParams, _count, _positive, _regime, \
    finite_prices

DEFAULT_BATCH_PAIRS = 25_000
MAX_STEPS = 10_000_000   # grid steps per path; arrays of K + 1 are made
# skorokhod_check's slack between reserve and boundary, and the least
# step extraction it counts as one
BARRIER_TOL, DNU_TOL = 1e-9, 1e-12
# entries in one of skorokhod_check's row blocks (at least one row each)
CHECK_BLOCK_ENTRIES = 2**15
# bytes of a recorded Trace's grid arrays: t, regime, X, Y, dnu, disc_inc
MAX_TRACE_BYTES = 2**31
# the baselines, (threshold shift, mean payoff of a run over [0, T]): at
# +inf nothing triggers; at -inf all of the reserve does at t = 0, where
# the projection onto f'(0) gives Y = 0 and f(Y) = 0 exactly
_CLOSED_FORM = {
    "never_extract": (math.inf, lambda p, x0, y0, T:
                      -p.cost.value(y0)*(1.0 - math.exp(-p.rho*T))/p.rho),
    "extract_all_at_start": (-math.inf, lambda p, x0, y0, T: (x0 - p.c)*y0),
}
_KINDS = ("reflect_optimal", "reflect_at_custom_boundary", *_CLOSED_FORM)


@dataclass(frozen=True)
class SimConfig:
    """Simulation controls, checked when made (OutOfRange naming the
    field) but for dt and horizon, which resolved_horizon checks; a
    horizon of None resolves to 10/rho (discount tail ~ e^-10). Every
    outcome reports the truncation tail bound, for comparison budgets."""

    dt: float = 1e-3
    horizon: Optional[float] = None
    n_paths: int = 100_000
    base_seed: int = 20_240_601
    antithetic: bool = True
    batch_pairs: int = DEFAULT_BATCH_PAIRS

    def __post_init__(self):
        for name, least in dict(n_paths=1, base_seed=0, batch_pairs=1).items():
            _count(name, getattr(self, name), least)
        if not isinstance(self.antithetic, (bool, np.bool_)):
            raise OutOfRange(f"antithetic must be a bool: {self.antithetic!r}")

    def resolved_horizon(self, params: ModelParams) -> float:
        T = self.horizon if self.horizon is not None else 10.0/params.rho
        if not (_positive(self.dt, T) and 1 <= T/self.dt <= MAX_STEPS):
            raise OutOfRange(f"need 0 < dt <= horizon < inf and at most "
                             f"{MAX_STEPS} steps, got dt={self.dt!r}, T={T!r}")
        return T


@dataclass(frozen=True)
class Policy:
    """Extraction rule. All kinds produce admissible controls: nu starts
    at zero, never decreases and never drives the reserve negative."""

    kind: str
    bfun: Optional[Callable] = None  # (regime, x_array) -> reserve level

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise PreconditionViolated(f"unknown policy {self.kind!r}")
        if callable(self.bfun) != (self.kind == "reflect_at_custom_boundary"):
            raise PreconditionViolated(f"bfun must be callable exactly for a "
                                       f"custom boundary, got {self.bfun!r}")

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


def _checked_run(cs: ControlSolution, x0, y0, i0, cfg: SimConfig, units=1):
    """(x0, y0, T, K, m) of a checked run of cfg.n_paths paths from (x0,
    y0, i0), x0 and y0 as floats, of at least units sampling units (pairs
    if antithetic; 0: a closed form). T = K dt is the simulated horizon, K
    the resolved horizon's step count rounded to the nearest integer."""
    _regime(i0)
    x0, y0 = finite_prices(x0, one=True), finite_prices(y0, *LEVELS, one=True)
    T = cfg.resolved_horizon(cs.params)
    m = 2 if cfg.antithetic else 1
    if units and cfg.n_paths % m:
        raise PreconditionViolated("antithetic runs need an even n_paths")
    if cfg.n_paths//m < units:
        raise PreconditionViolated("a simulated estimate needs at least "
                                   f"{units} sampling units")
    K = int(round(T/cfg.dt))
    return x0, y0, K*cfg.dt, K, m


def _simulate_batch(cs: ControlSolution, x0, y0, i0, policy: Policy, n_pairs,
                    dt, K, seed, batch_idx, antithetic, record=False,
                    compact_every=256):
    """n_pairs path pairs (single paths without antithetics) seeded from
    (seed, batch_idx): the (m, n_pairs) discounted payoffs, or with
    record=True the Trace of all m*n_pairs paths. The per-member state is
    flat and member-major: entry r*n + j is antithetic member r of path j,
    which moves by +1 (r = 0) or -1 (r = 1) times the shared increments."""
    closed, custom = _CLOSED_FORM.get(policy.kind), policy.bfun is not None
    p = cs.params
    cost, rho, c = p.cost, p.rho, p.c
    shift_tbl = np.array([np.nan] + [
        closed[0] if closed else -math.inf if custom else external_shift(cs, r)
        for r in (1, 2)])
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
    X, Y = np.full(m*n, float(x0)), np.full(m*n, float(y0))
    fpY = np.full(m*n, float(cost.derivative(y0)))
    fY = np.full(m*n, float(cost.value(y0)))
    pay = np.zeros(m*n)
    dlast = np.ones(m*n)  # discount factor up to which f(Y) is paid
    xthr = np.empty(m*n)  # the price trigger, -inf for a custom boundary

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
        hits = (X[e] > xthr[e]).nonzero()[0]
        if not hits.size:
            return
        he = hits if cols is None else e[hits]
        if np.ndim(d):
            d = d[hits % cols.size]
        shift = shift_tbl[i[he % n]]
        if custom:
            b = np.asarray(policy.bfun(i[he % n], X[he]))
            if b.shape != he.shape or not np.isfinite(b).all():
                raise PreconditionViolated(
                    "a custom boundary must return one finite level per "
                    f"price: {he.size} prices gave {b.shape}")
            b = np.minimum(np.maximum(b, 0.0), 1.0)
            low = b < Y[he]
            lower(he[low], d[low] if np.ndim(d) else d, b[low],
                  cost.value(b[low]))
        else:
            y_new, f_new, fpY[he] = cost.from_derivative(
                rho*(c + shift - X[he]))
            lower(he, d, y_new, f_new)
        threshold(he, shift)

    if record:
        compact_every = 0
        trace = Trace(t=dt*np.arange(K + 1),
                      regime=np.empty((K + 1, m*n), dtype=np.int8),
                      X=np.empty((K + 1, m*n)), Y=np.empty((K + 1, m*n)),
                      dnu=np.zeros((K + 1, m*n)), policy_id=policy.kind,
                      disc_inc=np.zeros((K + 1, m*n)), dt=dt)
        # pay and dnu_row are step k's rows of the trace
        pay, dnu_row = trace.disc_inc[0], trace.dnu[0]
        switches = []

        def snapshot(k):
            trace.regime[k] = np.tile(i, m)
            trace.X[k] = X
            trace.Y[k] = Y

    threshold(every, shift_tbl[i0])
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
                    e = members(hp)
                    threshold(e, shift_tbl[i[e % n]])
                    if record:
                        switches.append((np.full(e.size, k + 1), e,
                                         i[e % n], X[e]))
                    reflect(disc[k]*np.exp(-rho*tloc[hit]), hp)
                keep = rem > 1e-15
                if not keep.all():
                    R[pp[~keep]] = Rj[~keep]
                    pp, rem, Rj, tloc = (a[keep] for a in (pp, rem, Rj, tloc))
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
                i, R, s_cur = (a[keep] for a in (i, R, s_cur))
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
    """Record full uniform-grid traces for n_paths paths. Runs whose grid
    arrays would pass MAX_TRACE_BYTES raise OutOfRange before anything is
    allocated."""
    cfg = replace(cfg, n_paths=n_paths)
    x0, y0, T, K, m = _checked_run(cs, x0, y0, i0, cfg)
    need = (K + 1)*(8 + cfg.n_paths*(4*8 + 1))   # float64 but int8 regime
    if need > MAX_TRACE_BYTES:
        raise OutOfRange(f"trace would need {need/2**30:.1f} GiB; "
                         "reduce n_paths, dt resolution or horizon")
    return _simulate_batch(cs, x0, y0, i0, policy, cfg.n_paths//m, cfg.dt, K,
                           cfg.base_seed, 0, cfg.antithetic, record=True)


def estimate_value(cs: ControlSolution, x0, y0, i0, policy: Policy,
                   cfg: SimConfig) -> SimOutcome:
    """Mean discounted payoff and standard error over cfg.n_paths paths.

    With antithetic pairing (default) the independent sampling unit is the
    pair; std_error = std(unit means)/sqrt(units) needs two units. Deterministic
    policies reduce to their closed-form payoff with zero error. A mean or
    standard error that overflows raises OutOfRange naming the start price.
    """
    kind, closed = policy.kind, _CLOSED_FORM.get(policy.kind)
    x0, y0, T, K, m = _checked_run(cs, x0, y0, i0, cfg,
                                   units=0 if closed else 2)
    if closed:
        mean, se = closed[1](cs.params, x0, y0, T), 0.0
    else:
        n_units, batch = cfg.n_paths//m, cfg.batch_pairs
        sizes = [min(batch, n_units - s) for s in range(0, n_units, batch)]
        pays = [_simulate_batch(cs, x0, y0, i0, policy, size, cfg.dt, K,
                                cfg.base_seed, bidx, cfg.antithetic)
                for bidx, size in enumerate(sizes)]
        with np.errstate(over="ignore", invalid="ignore"):
            samples = np.concatenate([pp.mean(axis=0) for pp in pays])
            mean = float(samples.mean())
            se = float(samples.std(ddof=1))/math.sqrt(samples.size)
    if not (math.isfinite(mean) and math.isfinite(se)):
        raise OutOfRange(f"the payoff from start price {x0!r} overflows")
    return SimOutcome(mean=float(mean), std_error=se, n_paths=cfg.n_paths,
                      tail_bound=tail_bound(cs, x0, y0, T), policy_id=kind,
                      dt=cfg.dt, horizon=T)


def skorokhod_check(cs: ControlSolution, trace: Trace) -> bool:
    """Discrete Skorokhod conditions on a recorded trace (one-step slack).

    (1) after every step the reserve sits at or below the boundary of the
    current regime/price; (2) extraction happens only when the pre-step
    reserve exceeded the boundary (allowing for within-step boundary
    motion, or the boundary of the new regime at the price of a switch
    inside the step, where the engine reflects too); and the lump at
    t = 0 starts at or above the boundary. Raises SRPViolated with the
    first offending step of the first condition that fails, in that order.

    The check is one pass over the trace in row blocks of about
    CHECK_BLOCK_ENTRIES entries, so beyond the trace it holds O(block)
    memory; each block carries the previous one's last boundary row for
    the slack of the step across its edge. A malformed trace raises
    OutOfRange naming the step and path: a non-finite X, Y or dnu, a
    regime other than 1 or 2, or a switch entry outside the trace's steps
    1..K and paths, or with a bad regime or price.
    """
    shifts = external_shift(cs, 1), external_shift(cs, 2)

    def boundary(reg, x):
        """b_reg(x) of regimes reg in {1, 2}, elementwise."""
        return _boundary_inverse(cs.params, np.where(reg == 1, *shifts), x)

    n_rows, n = trace.X.shape
    ex_k, ex_j = _switch_exemptions(boundary, trace)
    rows = max(1, CHECK_BLOCK_ENTRIES//max(n, 1))
    extraction = lump = None   # the first violations of (2) and of the lump
    b_last = np.empty((0, n))  # the boundary row before the block
    for r0 in range(0, n_rows, rows):
        r1 = min(r0 + rows, n_rows)
        reg, X, Y, dnu = (a[r0:r1] for a in (trace.regime, trace.X, trace.Y,
                                             trace.dnu))
        ok = ((reg == 1) | (reg == 2)) & np.isfinite(X)
        ok &= np.isfinite(Y) & np.isfinite(dnu)
        if not ok.all():
            k, j = _first(~ok)
            raise OutOfRange(f"malformed trace at step {r0 + k}, path {j}: "
                             f"regime {reg[k, j]}, X={X[k, j]}, Y={Y[k, j]}, "
                             f"dnu={dnu[k, j]}")
        b = boundary(reg, X)
        over = Y > b + BARRIER_TOL
        if over.any():
            k, j = _first(over)
            raise SRPViolated(f"Y={Y[k, j]} above boundary {b[k, j]} "
                              f"at step {r0 + k}, path {j}",
                              step=r0 + k, path=j)
        if r0 == 0:
            init_bad = (dnu[0] > DNU_TOL) & (
                Y[0] + dnu[0] <= b[0] - BARRIER_TOL)
            if init_bad.any():
                j = int(np.argmax(init_bad))
                lump = SRPViolated(
                    f"initial lump {dnu[0, j]} on path {j} started below "
                    f"the boundary {b[0, j]}", step=0, path=j)
        if extraction is None:
            # step s moves row s - 1 to row s; the block closes steps s0..
            s0 = max(r0, 1)
            b_post = b[s0 - r0:]
            b_pre = np.concatenate((b_last, b[:-1]))
            slack = np.abs(b_post - b_pre) + BARRIER_TOL
            bad = (dnu[s0 - r0:] > DNU_TOL) & (
                trace.Y[s0 - 1:r1 - 1] <= b_post - slack)
            lo, hi = np.searchsorted(ex_k, (s0, r1))
            bad[ex_k[lo:hi] - s0, ex_j[lo:hi]] = False
            if bad.any():
                k, j = _first(bad)
                s = s0 + k
                extraction = SRPViolated(
                    f"extraction {trace.dnu[s, j]} at step {s}, path {j} "
                    f"with reserve {trace.Y[s - 1, j]} below boundary "
                    f"{b_post[k, j]}", step=s, path=j)
        b_last = b[-1:]
    for err in (extraction, lump):
        if err is not None:
            raise err
    return True


def _first(mask):
    """(row, column) of the first True of a 2-D mask in row order."""
    k, j = np.unravel_index(int(np.argmax(mask)), mask.shape)
    return int(k), int(j)


def _switch_exemptions(boundary: Callable, trace: Trace):
    """(steps, paths), sorted by step, of the in-step switches whose new
    boundary(regime, price) lay at or below the pre-step reserve: the
    engine reflects there, so condition (2) exempts them. A malformed
    entry raises OutOfRange."""
    if not trace.switches:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    s_k, s_j, s_i, s_x = trace.switches
    n_rows, n = trace.X.shape
    ok = (s_k >= 1) & (s_k < n_rows) & (s_j >= 0) & (s_j < n)
    ok &= ((s_i == 1) | (s_i == 2)) & np.isfinite(s_x)
    if not ok.all():
        e = int(np.argmin(ok))
        raise OutOfRange(
            f"malformed switch at step {s_k[e]}, path {s_j[e]}: need a step "
            f"in [1, {n_rows - 1}], a path in [0, {n}), regime 1 or 2 and a "
            f"finite price, got regime {s_i[e]}, price {s_x[e]}")
    fine = trace.Y[s_k - 1, s_j] > boundary(s_i, s_x) - BARRIER_TOL
    order = np.argsort(s_k[fine], kind="stable")
    return s_k[fine][order], s_j[fine][order]


def trace_to_csv(trace: Trace, path, path_index: int = 0) -> None:
    """Dump one traced path: columns t, regime, X, Y, dnu, discounted_increment,
    to a str or os.PathLike path or a writable text stream (else
    OutOfRange, before anything is opened); path_index in [0, paths)."""
    import csv
    n = trace.X.shape[1]
    _count("path_index", path_index, 0, n - 1)
    if isinstance(path, (str, os.PathLike)):
        with open(path, "w", newline="") as fh:
            return trace_to_csv(trace, fh, path_index)
    if not hasattr(path, "write"):   # open would take an int for a descriptor
        raise OutOfRange(f"path must be a file path or a stream, got {path!r}")
    wr = csv.writer(path)
    wr.writerow(["t", "regime", "X", "Y", "dnu", "discounted_increment"])
    for k in range(trace.t.size):
        wr.writerow([f"{trace.t[k]:.10g}", int(trace.regime[k, path_index]),
                     repr(float(trace.X[k, path_index])),
                     repr(float(trace.Y[k, path_index])),
                     repr(float(trace.dnu[k, path_index])),
                     repr(float(trace.disc_inc[k, path_index]))])
