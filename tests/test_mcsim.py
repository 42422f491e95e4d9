import dataclasses
import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import regime_extract as rx
import skorokhod_oracle
from regime_extract import mcsim
from regime_extract.errors import OutOfRange, PreconditionViolated, SRPViolated
from regime_extract.mcsim import _simulate_batch, tail_bound
from scalar_oracle import simulate_chain, simulate_path


def test_chain_alternates_and_respects_horizon(params_a, rng):
    jumps = simulate_chain(params_a, 1, 50.0, rng)
    states = [s for _, s in jumps]
    assert states[0] == 2
    assert all(a != b for a, b in zip(states, states[1:]))
    times = [t for t, _ in jumps]
    assert all(0 < t < 50.0 for t in times)
    assert times == sorted(times)


def test_chain_empty_when_horizon_tiny(params_a, rng):
    assert simulate_chain(params_a, 1, 1e-12, rng) == []


def test_holding_times_exponential_mean():
    # symmetric rates: all holding times are Exp(lambda)
    lam = 1.25
    p = rx.validate(0.5, 1.0, 2.0, lam, lam, 0.5,
                    rx.CostFunction.exponential(1/3))
    rng = np.random.default_rng(7)
    holds = []
    while len(holds) < 100_000:
        jumps = simulate_chain(p, 1, 2000.0, rng)
        ts = [0.0] + [t for t, _ in jumps]
        holds.extend(np.diff(ts))
    holds = np.asarray(holds[:100_000])
    se = holds.std(ddof=1)/math.sqrt(holds.size)
    assert abs(holds.mean() - 1/lam) <= 3*se


def test_empty_reserve_pays_nothing(cs_a):
    cfg = rx.SimConfig(dt=1e-2, horizon=1.0, n_paths=4, base_seed=5)
    for pol in (rx.Policy.reflect_optimal(), rx.Policy.never_extract(),
                rx.Policy.extract_all_at_start()):
        assert simulate_path(cs_a, 0.8, 0.0, 2, pol, cfg, 0) == 0.0
        out = rx.estimate_value(cs_a, 0.8, 0.0, 2, pol, cfg)
        assert out.mean == 0.0


def test_never_extract_closed_form(cs_a):
    p = cs_a.params
    y0, T = 0.62, 2.5
    cfg = rx.SimConfig(dt=1e-2, horizon=T, n_paths=6, base_seed=5)
    expected = -p.cost.value(y0)*(1 - math.exp(-p.rho*T))/p.rho
    pay = simulate_path(cs_a, 0.1, y0, 1, rx.Policy.never_extract(), cfg, 2)
    assert pay == pytest.approx(expected, rel=1e-12)
    out = rx.estimate_value(cs_a, 0.1, y0, 1, rx.Policy.never_extract(), cfg)
    assert out.mean == pytest.approx(expected, rel=1e-12)
    assert out.std_error == 0.0


def test_reported_horizon_is_the_simulated_one(cs_a):
    # dt 0.3 does not divide the horizon 1.0: the run takes 3 steps and
    # ends at t = 0.9, so the closed form and the tail bound are taken
    # there, not at 1.0 (the run's tail bound used to read 5.897, below
    # the bound at 0.9, 6.061, and never_extract -0.1839 against -0.1681)
    cfg = rx.SimConfig(dt=0.3, horizon=1.0, n_paths=8, base_seed=5)
    policy = rx.Policy.never_extract()
    tr = rx.simulate_traces(cs_a, 0.6, 0.5, 2, policy, cfg, 8)
    out = rx.estimate_value(cs_a, 0.6, 0.5, 2, policy, cfg)
    assert out.horizon == tr.t[-1] == 3*0.3
    assert out.mean == pytest.approx(tr.payoffs().mean(), rel=0, abs=1e-12)
    assert out.tail_bound == tail_bound(cs_a, 0.6, 0.5, tr.t[-1])
    assert out.tail_bound > tail_bound(cs_a, 0.6, 0.5, 1.0)


def test_extract_all_closed_form(cs_a):
    cfg = rx.SimConfig(dt=1e-2, horizon=1.0, n_paths=6, base_seed=5)
    pay = simulate_path(cs_a, 0.9, 0.4, 2,
                        rx.Policy.extract_all_at_start(), cfg, 1)
    assert pay == pytest.approx((0.9 - 0.5)*0.4, rel=1e-12)
    out = rx.estimate_value(cs_a, 0.9, 0.4, 2,
                            rx.Policy.extract_all_at_start(), cfg)
    assert out.mean == pytest.approx((0.9 - 0.5)*0.4, rel=1e-12)


def test_estimate_is_bit_reproducible(cs_a):
    cfg = rx.SimConfig(dt=2e-3, horizon=1.0, n_paths=2000, base_seed=321)
    pol = rx.Policy.reflect_optimal()
    a = rx.estimate_value(cs_a, 0.6, 0.5, 2, pol, cfg)
    b = rx.estimate_value(cs_a, 0.6, 0.5, 2, pol, cfg)
    assert a.mean == b.mean and a.std_error == b.std_error


def test_antithetic_needs_even_paths(cs_a):
    cfg = rx.SimConfig(dt=1e-2, horizon=1.0, n_paths=7, base_seed=5)
    with pytest.raises(PreconditionViolated):
        rx.estimate_value(cs_a, 0.6, 0.5, 2, rx.Policy.reflect_optimal(), cfg)


def test_sim_config_validation(cs_a):
    with pytest.raises(OutOfRange):
        rx.SimConfig(dt=2.0, horizon=1.0).resolved_horizon(cs_a.params)
    with pytest.raises(OutOfRange):
        rx.estimate_value(cs_a, 0.6, 0.5, 2, rx.Policy.reflect_optimal(),
                          rx.SimConfig(n_paths=0))
    assert rx.SimConfig().resolved_horizon(cs_a.params) == pytest.approx(30.0)


# a compaction interval that no run reaches (K <= MAX_STEPS)
NEVER = mcsim.MAX_STEPS + 1


def _batch(monkeypatch, every, *args):
    """_simulate_batch(*args) with mcsim.COMPACT_EVERY set to every."""
    monkeypatch.setattr(mcsim, "COMPACT_EVERY", every)
    return _simulate_batch(*args)


def b_star_both(cs):
    return lambda i, x: np.where(i == 1, rx.b_star(cs, 1, x),
                                 rx.b_star(cs, 2, x))


def test_custom_boundary_at_b_star_matches_reflect_optimal(cs_a,
                                                           monkeypatch):
    # the price-threshold trigger and the projection onto b* pay the same
    # on every path when compaction keeps the draws aligned
    args = (cs_a, 0.6, 0.5, 2)
    run = (400, 1e-3, 1500, 5, 0, True)
    custom = rx.Policy.reflect_at_custom_boundary(b_star_both(cs_a))
    po = _batch(monkeypatch, NEVER, *args, rx.Policy.reflect_optimal(), *run)
    pc = _batch(monkeypatch, NEVER, *args, custom, *run)
    assert np.abs(po - pc).max() <= 1e-12


@pytest.mark.parametrize("policy", ["reflect_optimal", "custom"])
def test_engine_mean_matches_scalar_oracle(cs_a, policy):
    pol = (rx.Policy.reflect_optimal() if policy == "reflect_optimal" else
           rx.Policy.reflect_at_custom_boundary(
               lambda i, x: np.clip(0.8 - 0.3*np.asarray(x), 0.0, 1.0)))
    cfg = rx.SimConfig(dt=1e-2, horizon=2.0, n_paths=4000, base_seed=47)
    out = rx.estimate_value(cs_a, 0.4, 0.8, 2, pol, cfg)
    ref = np.array([simulate_path(cs_a, 0.4, 0.8, 2, pol, cfg, j)
                    for j in range(400)])
    se_ref = ref.std(ddof=1)/math.sqrt(ref.size)
    assert abs(out.mean - ref.mean()) <= 4*math.hypot(out.std_error, se_ref)


def test_compaction_is_statistically_neutral(cs_a, monkeypatch):
    # dropping exhausted pairs reshuffles which draws the survivors see,
    # so only the distribution (not the path pairing) is preserved
    pol = rx.Policy.reflect_optimal()
    a = _batch(monkeypatch, NEVER, cs_a, 1.0, 0.5, 2, pol, 4000, 2e-3, 1500,
               11, 0, True)
    b = _batch(monkeypatch, 128, cs_a, 1.0, 0.5, 2, pol, 4000, 2e-3, 1500,
               11, 1, True)
    ma, mb = a.mean(), b.mean()
    se = (a.mean(axis=0).std(ddof=1) + b.mean(axis=0).std(ddof=1))/math.sqrt(4000)
    assert abs(ma - mb) <= 4*se
    assert a.size == b.size


def test_mc_matches_closed_form_value(cs_a):
    """The analytic U is the oracle for the reflected policy estimate."""
    cfg = rx.SimConfig(dt=2e-3, horizon=None, n_paths=40_000, base_seed=77)
    for (x0, y0, i0) in [(0.6, 0.5, 2), (1.5, 0.5, 2)]:
        out = rx.estimate_value(cs_a, x0, y0, i0, rx.Policy.reflect_optimal(),
                                cfg)
        uval = rx.U(cs_a, x0, y0, i0)
        budget = out.tail_bound + 0.08*math.sqrt(cfg.dt)
        assert abs(out.mean - uval) <= 3*out.std_error + budget


def test_suboptimal_policies_dominated(cs_a):
    cfg = rx.SimConfig(dt=5e-3, horizon=None, n_paths=8000, base_seed=13)
    for (x0, y0, i0) in [(0.6, 0.5, 2), (-1.5, 0.5, 1)]:
        uval = rx.U(cs_a, x0, y0, i0)
        for pol in (rx.Policy.never_extract(), rx.Policy.extract_all_at_start()):
            out = rx.estimate_value(cs_a, x0, y0, i0, pol, cfg)
            assert out.mean <= uval + 3*out.std_error + 1e-9


def test_custom_boundary_policy_runs_and_is_dominated(cs_a):
    pol = rx.Policy.reflect_at_custom_boundary(
        lambda i, x: np.clip(0.8 - 0.3*np.asarray(x), 0.0, 1.0))
    cfg = rx.SimConfig(dt=5e-3, horizon=2.0, n_paths=2000, base_seed=3)
    out = rx.estimate_value(cs_a, 0.6, 0.5, 2, pol, cfg)
    assert out.policy_id == "reflect_at_custom_boundary"
    assert math.isfinite(out.mean) and out.std_error > 0


def test_martingale_and_variance_sanity(cs_a, params_a):
    cfg = rx.SimConfig(dt=1e-3, horizon=2.0, n_paths=2000, base_seed=21,
                       antithetic=False)
    tr = rx.simulate_traces(cs_a, 0.0, 0.3, 1, rx.Policy.never_extract(),
                            cfg, 2000)
    xT = tr.X[-1]
    se = xT.std(ddof=1)/math.sqrt(xT.size)
    assert abs(xT.mean() - 0.0) <= 3*se
    sig2 = np.where(tr.regime[:-1] == 1, params_a.sigma1**2, params_a.sigma2**2)
    target = (sig2*cfg.dt).sum(axis=0)
    var = xT.var(ddof=1)
    se_var = xT.var(ddof=1)*math.sqrt(2.0/(xT.size - 1))
    assert abs(var - target.mean()) <= 3*se_var + 0.05


def test_trace_increments_sum_to_payoff(cs_a, monkeypatch):
    cfg = rx.SimConfig(dt=2e-3, horizon=1.0, n_paths=64, base_seed=17)
    for pol in (rx.Policy.reflect_optimal(), rx.Policy.never_extract(),
                rx.Policy.extract_all_at_start(),
                rx.Policy.reflect_at_custom_boundary(b_star_both(cs_a))):
        tr = rx.simulate_traces(cs_a, 0.4, 0.7, 2, pol, cfg, 64)
        pay = _batch(monkeypatch, NEVER, cs_a, 0.4, 0.7, 2, pol, 32, cfg.dt,
                     500, cfg.base_seed, 0, True)
        assert np.abs(tr.payoffs() - pay.ravel()).max() <= 1e-12


def test_trace_admissibility(cs_a):
    cfg = rx.SimConfig(dt=2e-3, horizon=1.5, n_paths=100, base_seed=23)
    tr = rx.simulate_traces(cs_a, 0.2, 0.8, 2, rx.Policy.reflect_optimal(),
                            cfg, 100)
    assert np.all(tr.dnu >= 0.0)
    assert np.all(tr.Y >= -1e-15) and np.all(tr.Y <= 0.8 + 1e-15)
    assert np.allclose(tr.Y[0] + tr.dnu[0], 0.8, atol=1e-14)
    drops = tr.Y[:-1] - tr.Y[1:]
    assert np.allclose(drops, tr.dnu[1:], atol=1e-12)


def test_skorokhod_check_passes_reflected_traces(cs_a):
    cfg = rx.SimConfig(dt=1e-3, horizon=1.0, n_paths=200, base_seed=29)
    tr = rx.simulate_traces(cs_a, 0.16, 0.9, 2, rx.Policy.reflect_optimal(),
                            cfg, 200)
    assert rx.skorokhod_check(cs_a, tr)


def test_skorokhod_check_rejects_early_extraction(cs_a, sol_a):
    # full liquidation while strictly below the boundary breaks minimality
    x0 = rx.x_star(sol_a, 2, 0.9) - 0.5  # b2(x0) > 0.9 > y0
    cfg = rx.SimConfig(dt=1e-2, horizon=0.2, n_paths=8, base_seed=31)
    tr = rx.simulate_traces(cs_a, x0, 0.5, 2,
                            rx.Policy.extract_all_at_start(), cfg, 8)
    with pytest.raises(SRPViolated) as exc:
        rx.skorokhod_check(cs_a, tr)
    assert exc.value.step == 0


def test_skorokhod_check_rejects_unreflected_traces(cs_a, sol_a):
    x0 = rx.x_star(sol_a, 2, 0.2) + 0.5  # start above the boundary
    cfg = rx.SimConfig(dt=1e-2, horizon=0.2, n_paths=8, base_seed=37)
    tr = rx.simulate_traces(cs_a, x0, 0.9, 2, rx.Policy.never_extract(),
                            cfg, 8)
    with pytest.raises(SRPViolated):
        rx.skorokhod_check(cs_a, tr)


def test_dt_halving_smoke(cs_a):
    """Weak-convergence smoke: halving dt moves the estimate less than
    quartering it does, up to sampling noise."""
    pol = rx.Policy.reflect_optimal()
    means = {}
    for dt in (8e-3, 4e-3, 2e-3):
        cfg = rx.SimConfig(dt=dt, horizon=6.0, n_paths=30_000, base_seed=43)
        means[dt] = rx.estimate_value(cs_a, 0.16, 0.9, 2, pol, cfg)
    d_coarse = abs(means[8e-3].mean - means[4e-3].mean)
    d_fine = abs(means[4e-3].mean - means[2e-3].mean)
    noise = 3*(means[8e-3].std_error + means[4e-3].std_error
               + means[2e-3].std_error)
    assert d_fine <= d_coarse + noise


def test_tail_bound_formula(cs_a, cs_b):
    # e^{-rho T} (f(y0)/rho + y0 (|x0 - c| + sigma_max (sqrt(T) + 4/sqrt(rho))))
    p = cs_a.params
    tb = tail_bound(cs_a, 0.6, 0.5, 30.0)
    assert tb == pytest.approx(math.exp(-10.0)*(
        p.cost.value(0.5)/p.rho
        + 0.5*(0.1 + 1.9*(math.sqrt(30.0) + 4.0*math.sqrt(3.0)))), rel=1e-12)
    assert tb == pytest.approx(5.67e-4, abs=5e-7)
    assert tail_bound(cs_b, -2.0, 0.3, 40.0) == pytest.approx(1.09e-8,
                                                              abs=5e-11)
    assert tail_bound(cs_a, 0.6, 0.0, 30.0) == 0.0
    # it grows with the distance of the start price from c
    assert tail_bound(cs_a, 3.0, 0.5, 30.0) > tb


def test_trace_csv_format(cs_a, tmp_path):
    cfg = rx.SimConfig(dt=1e-2, horizon=0.1, n_paths=4, base_seed=3,
                       antithetic=False)
    tr = rx.simulate_traces(cs_a, 0.4, 0.5, 1, rx.Policy.reflect_optimal(),
                            cfg, 4)
    out = tmp_path/"trace.csv"
    rx.trace_to_csv(tr, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,regime,X,Y,dnu,discounted_increment"
    assert len(lines) == 12  # header + 11 steps



# estimate_value of reflect_optimal before the simulator's engines were
# merged, (mean, std_error) at dt 0.04 on 3,000 antithetic pairs in
# batches of 1,000; exhausted pairs are compacted away in every batch.
# The "a" entries were re-pinned when zhat2 became one closed form, which
# moved z1 and z2 by about 1e-13.
PINNED_ESTIMATES = {
    ("b", (0.6, 0.5, 2)): (-0.19999999999999996, 1.0136592813758637e-18),
    ("b", (1.5, 0.5, 2)): (0.25, 0.0),
    ("b", (-2.0, 0.3, 1)): (-0.7035740041184463, 0.0005951169111198213),
    ("a", (0.6, 0.5, 2)): (0.11020038856018037, 0.003023186810113297),
    ("a", (0.16, 0.9, 2)): (-0.14854810167475585, 0.004379332160299115),
    ("a", (-1.5, 0.5, 1)): (-0.4068663210251357, 0.0024593212467185982),
}


@pytest.mark.parametrize("key", list(PINNED_ESTIMATES),
                         ids=lambda k: f"{k[0]}({','.join(map(str, k[1]))})")
def test_reflect_optimal_estimates_pinned(cs_a, cs_b, key):
    name, state = key
    cs = cs_a if name == "a" else cs_b
    # horizon 40 on the equal-volatility set lets compaction fire there too
    cfg = rx.SimConfig(dt=0.04, horizon=40.0 if name == "b" else None,
                       n_paths=6000, base_seed=2024, batch_pairs=1000)
    out = rx.estimate_value(cs, *state, rx.Policy.reflect_optimal(), cfg)
    assert (out.mean, out.std_error) == PINNED_ESTIMATES[key]


def test_skorokhod_check_accepts_lump_at_in_step_switch(cs_a):
    # the regime goes 2 -> 1 -> 2 inside step 164 of path 95, and the
    # reserve drops to b*_1 at the switch price, below both grid ends'
    # regime-2 boundary test
    x0 = 0.16
    cfg = rx.SimConfig(dt=1e-3, horizon=3.0, n_paths=1000, base_seed=12011,
                       antithetic=False)
    tr = rx.simulate_traces(cs_a, x0, float(rx.b_star(cs_a, 2, x0)), 2,
                            rx.Policy.reflect_optimal(), cfg, 1000)
    assert tr.regime[163, 95] == tr.regime[164, 95] == 2
    assert rx.skorokhod_check(cs_a, tr)
    s_k, s_j, s_i, s_x = tr.switches
    cell = (s_k == 164) & (s_j == 95)
    assert list(s_i[cell]) == [1, 2]
    doctored = s_x.copy()
    doctored[cell] = -10.0
    tr.switches = (s_k, s_j, s_i, doctored)
    with pytest.raises(SRPViolated) as exc:
        rx.skorokhod_check(cs_a, tr)
    assert (exc.value.step, exc.value.path) == (164, 95)


def _job_trace(cs, **kw):
    """The lump test's set-up, 3,001 steps x 1,000 paths by default: a
    reflect_optimal start on regime 2's boundary, dt 1e-3, horizon 3."""
    kw = dict(dict(dt=1e-3, horizon=3.0, n_paths=1000, base_seed=12011,
                   antithetic=False), **kw)
    x0 = 0.16
    return rx.simulate_traces(cs, x0, float(rx.b_star(cs, 2, x0)), 2,
                              rx.Policy.reflect_optimal(), rx.SimConfig(**kw),
                              kw["n_paths"])


@pytest.fixture(scope="module")
def job_trace(cs_a):
    return _job_trace(cs_a)


def _outcome(check, cs, tr):
    try:
        return check(cs, tr)
    except SRPViolated as exc:
        return type(exc), exc.step, exc.path, str(exc)


def _agreed(cs, tr):
    """The block check's pass or (type, step, path, message), asserted
    equal to the whole-array oracle's."""
    out = _outcome(rx.skorokhod_check, cs, tr)
    assert out == _outcome(skorokhod_oracle.skorokhod_check, cs, tr)
    return out


def test_skorokhod_check_matches_oracle_on_the_job_trace(cs_a, job_trace):
    assert job_trace.X.shape == (3001, 1000)
    assert mcsim.CHECK_BLOCK_ENTRIES//1000 < 3001   # many blocks
    assert _agreed(cs_a, job_trace) is True


@pytest.mark.parametrize("kind, x0, y0, kw, passes", [
    # antithetic, with a lump at t = 0 from above the boundary
    ("reflect_optimal", 0.9, 0.9, dict(horizon=1.0, n_paths=400), True),
    # fewer rows than one block
    ("reflect_optimal", 0.16, 0.9, dict(horizon=0.02, n_paths=1000), True),
    # more than 2^15 columns: each block is one row
    ("reflect_optimal", 0.16, 0.9, dict(dt=1e-2, horizon=0.05,
                                        n_paths=2**15 + 2), True),
    ("never_extract", 1.5, 0.9, dict(horizon=0.2, n_paths=8), False),
    ("extract_all_at_start", -1.0, 0.5, dict(horizon=0.2, n_paths=8), False),
], ids=["antithetic", "short", "wide", "unreflected", "early_lump"])
def test_skorokhod_check_matches_oracle(cs_a, kind, x0, y0, kw, passes):
    cfg = rx.SimConfig(**dict(dict(dt=1e-3, base_seed=41), **kw))
    tr = rx.simulate_traces(cs_a, x0, y0, 2, rx.Policy(kind), cfg, cfg.n_paths)
    assert (_agreed(cs_a, tr) is True) == passes


def _doctor(cs, tr, kind, step):
    """A copy of tr with one entry changed at step, on the first path
    where the boundary b leaves room for it, and that path: "reserve" puts
    a reserve of 1 above b < 0.99; the rest extract 0.01 at step from a
    pre-step reserve of 0 ("extraction", under b > 0.01 at both ends of
    the step), or of b after the step less 0.5 ("in_slack") or 2
    ("past_slack") times b's largest fall over the step."""
    rows = slice(step - 1, step + 1)
    b = np.where(tr.regime[rows] == 1, rx.b_star(cs, 1, tr.X[rows]),
                 rx.b_star(cs, 2, tr.X[rows]))
    Y, dnu = tr.Y.copy(), tr.dnu.copy()
    if kind == "reserve":
        j = int(np.argmax(b[1] < 0.99))
        Y[step, j] = 1.0
        return dataclasses.replace(tr, Y=Y), j
    if kind == "extraction":
        j = int(np.argmax(b.min(axis=0) > 0.01))
        Y[step - 1, j] = 0.0
    else:
        fall = np.where(b[1] > 2*(b[0] - b[1]), b[0] - b[1], 0.0)
        j = int(np.argmax(fall))
        assert fall[j] > 1e-6
        Y[step - 1, j] = b[1, j] - fall[j]*(0.5 if kind == "in_slack" else 2)
    dnu[step, j] = 0.01
    return dataclasses.replace(tr, Y=Y, dnu=dnu), j


# with 1,000 paths a block has 32 rows: rows 63 and 64 are the last of
# one block and the first of the next, and step 64 straddles them
@pytest.mark.parametrize("kind, step", [
    ("reserve", 63), ("reserve", 64), ("extraction", 63), ("extraction", 64),
    ("extraction", 65), ("in_slack", 64), ("past_slack", 64),
    ("in_slack", 96), ("past_slack", 96)])
def test_skorokhod_check_matches_oracle_at_block_edges(cs_a, job_trace, kind,
                                                       step):
    assert mcsim.CHECK_BLOCK_ENTRIES//1000 == 32
    tr, j = _doctor(cs_a, job_trace, kind, step)
    out = _agreed(cs_a, tr)
    assert out is True if kind == "in_slack" else out[1:3] == (step, j)


def test_skorokhod_check_reserve_violation_outranks_earlier_extraction(
        cs_a, job_trace):
    tr, j2 = _doctor(cs_a, job_trace, "extraction", 10)
    assert _agreed(cs_a, tr)[1:3] == (10, j2)
    tr, j1 = _doctor(cs_a, tr, "reserve", 2000)
    assert _agreed(cs_a, tr)[1:3] == (2000, j1)


@pytest.mark.parametrize("rows", [1, 41, 164, 165])
def test_skorokhod_check_switch_exemption_on_block_edges(cs_a, job_trace,
                                                         monkeypatch, rows):
    # the lump test's exempt switch closes step 164, which straddles a
    # block edge for 1, 41 and 164 rows a block and ends a block for 165
    monkeypatch.setattr(mcsim, "CHECK_BLOCK_ENTRIES", rows*1000)
    assert _agreed(cs_a, job_trace) is True
    s_k, s_j, s_i, s_x = job_trace.switches
    doctored = np.where((s_k == 164) & (s_j == 95), -10.0, s_x)
    tr = dataclasses.replace(job_trace, switches=(s_k, s_j, s_i, doctored))
    assert _agreed(cs_a, tr)[1:3] == (164, 95)


def _malformed_x(tr):
    tr.X[5, 3] = np.nan


def _malformed_y(tr):
    tr.Y[5, 3] = np.nan


def _malformed_dnu(tr):
    tr.dnu[5, 3] = np.nan


def _regime_0(tr):
    # regime 0 would look up a NaN shift, so no comparison could fail
    tr.regime[5:, 3] = 0
    tr.Y[5:, 3] = 1.0


def _regime_3(tr):
    tr.regime[5, 3] = 3


def _switch_at_step_0(tr):
    s_k, s_j, s_i, s_x = (a.copy() for a in tr.switches)
    s_k[0], s_j[0] = 0, 3
    tr.switches = (s_k, s_j, s_i, s_x)


@pytest.mark.parametrize("doctor", [_malformed_x, _malformed_y, _malformed_dnu,
                                    _regime_0, _regime_3, _switch_at_step_0])
def test_skorokhod_check_refuses_malformed_traces(cs_a, doctor):
    tr = _job_trace(cs_a, dt=1e-2, horizon=1.0, n_paths=200)
    assert tr.switches and rx.skorokhod_check(cs_a, tr)
    doctor(tr)
    step = 0 if doctor is _switch_at_step_0 else 5
    with pytest.raises(OutOfRange, match=rf"at step {step}, path 3\b"):
        rx.skorokhod_check(cs_a, tr)


def test_skorokhod_check_memory_is_one_block(cs_a, job_trace):
    """Beyond the trace, the check holds a few blocks, not whole-trace
    temporaries: the whole-array oracle peaks near 77 MiB here."""
    tracemalloc.start()
    try:
        assert rx.skorokhod_check(cs_a, job_trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8*2**20


def test_trace_cap_counts_every_grid_array(cs_a, monkeypatch):
    pol = rx.Policy.reflect_optimal()
    cfg = rx.SimConfig(dt=1e-2, horizon=0.1, n_paths=6, base_seed=5)
    tr = rx.simulate_traces(cs_a, 0.4, 0.5, 2, pol, cfg, 6)
    size = sum(a.nbytes for a in (tr.t, tr.regime, tr.X, tr.Y, tr.dnu,
                                  tr.disc_inc))
    monkeypatch.setattr(mcsim, "MAX_TRACE_BYTES", size)
    assert rx.simulate_traces(cs_a, 0.4, 0.5, 2, pol, cfg, 6).X.shape == (11, 6)
    monkeypatch.setattr(mcsim, "MAX_TRACE_BYTES", size - 1)
    with pytest.raises(OutOfRange, match="trace would need"):
        rx.simulate_traces(cs_a, 0.4, 0.5, 2, pol, cfg, 6)


def test_trace_one_step_over_the_cap_allocates_nothing(cs_a, monkeypatch):
    def engine(*args, **kw):
        raise AssertionError("the engine ran past the trace cap")

    monkeypatch.setattr(mcsim, "_simulate_batch", engine)
    n, dt = 1000, 2.0**-10
    K = mcsim.MAX_TRACE_BYTES//(8 + 33*n)   # K + 1 rows pass the cap
    cfg = rx.SimConfig(dt=dt, horizon=K*dt, n_paths=n, antithetic=False)
    tracemalloc.start()
    try:
        with pytest.raises(OutOfRange, match="trace would need 2.0 GiB"):
            rx.simulate_traces(cs_a, 0.4, 0.5, 2, rx.Policy.reflect_optimal(),
                               cfg, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("x0, y0, i0", [(0.2, 1.5, 2), (0.2, 0.5, 7),
                                        (math.nan, 0.5, 2),
                                        (math.inf, 0.5, 1)])
def test_simulator_rejects_invalid_states(cs_a, x0, y0, i0):
    cfg = rx.SimConfig(dt=1e-2, horizon=0.5, n_paths=8, base_seed=3)
    pol = rx.Policy.reflect_optimal()
    with pytest.raises(OutOfRange):
        rx.simulate_traces(cs_a, x0, y0, i0, pol, cfg, 8)
    with pytest.raises(OutOfRange):
        rx.estimate_value(cs_a, x0, y0, i0, pol, cfg)


@pytest.mark.parametrize("field,value", [
    ("base_seed", -1), ("base_seed", 2.5), ("batch_pairs", 0),
    ("batch_pairs", -5), ("batch_pairs", 2.5)])
def test_sim_config_seed_and_batch_checked(cs_a, field, value):
    # batch_pairs 0 and -5 ran as 1-pair batches; a negative seed failed
    # in SeedSequence with an untyped ValueError. SimConfig checks them
    # when it is made, so no run can take them.
    with pytest.raises(OutOfRange, match=field):
        dataclasses.replace(
            rx.SimConfig(dt=1e-2, horizon=0.5, n_paths=8, base_seed=3),
            **{field: value})


@pytest.mark.parametrize("n_paths", [0, -2])
def test_simulate_traces_checks_its_path_count(cs_a, n_paths):
    # the n_paths argument is what runs; cfg.n_paths is not used here
    cfg = rx.SimConfig(dt=1e-2, horizon=0.5, n_paths=8, base_seed=3)
    with pytest.raises(OutOfRange):
        rx.simulate_traces(cs_a, 0.2, 0.5, 2, rx.Policy.reflect_optimal(),
                           cfg, n_paths)


def test_simulate_traces_ignores_cfg_n_paths(cs_a):
    cfg = rx.SimConfig(dt=0.01, horizon=0.5, n_paths=4)
    tr = rx.simulate_traces(cs_a, 0.2, 0.5, 2, rx.Policy.reflect_optimal(),
                            cfg, 8)
    assert tr.X.shape == (51, 8)


def test_closed_form_policies_take_odd_path_counts(cs_a):
    cfg = rx.SimConfig(dt=1e-2, horizon=1.0, n_paths=7, base_seed=5)
    for pol in (rx.Policy.never_extract(), rx.Policy.extract_all_at_start()):
        assert rx.estimate_value(cs_a, 0.6, 0.5, 2, pol, cfg).n_paths == 7
        with pytest.raises(PreconditionViolated):
            rx.simulate_traces(cs_a, 0.6, 0.5, 2, pol, cfg, 7)


@pytest.mark.parametrize("bfun", [
    lambda i, x: np.where(x > 0.5, np.nan, 0.3),
    lambda i, x: np.full(x.shape, np.inf),
    lambda i, x: 0.3,
    lambda i, x: np.full((2, x.size), 0.3),
], ids=["nan", "inf", "scalar", "wrong-shape"])
def test_custom_boundary_output_checked(cs_a, bfun):
    # a NaN boundary would otherwise run as never_extract, and a
    # non-elementwise one would fail inside numpy
    cfg = rx.SimConfig(dt=0.01, horizon=0.5, n_paths=8, base_seed=3)
    pol = rx.Policy.reflect_at_custom_boundary(bfun)
    with pytest.raises(PreconditionViolated):
        rx.estimate_value(cs_a, 0.6, 0.5, 2, pol, cfg)
    with pytest.raises(PreconditionViolated):
        rx.simulate_traces(cs_a, 0.6, 0.5, 2, pol, cfg, 8)


def test_custom_boundary_sees_only_paths_holding_reserve(cs_a):
    # a boundary at 0 empties every path at t = 0; bfun was then called on
    # every exhausted entry at every later step end and switch instant
    calls = []

    def bfun(i, x):
        calls.append(x.size)
        return np.zeros(x.shape)

    pol = rx.Policy.reflect_at_custom_boundary(bfun)
    pay = _simulate_batch(cs_a, 0.16, 0.9, 2, pol, 50, 0.01, 100, 7, 0, True)
    assert calls == [100]
    assert np.all(pay == (0.16 - cs_a.params.c)*0.9)


def test_custom_boundary_gets_copies(cs_a):
    # bfun may write to its regimes and prices: the engine's state is
    # not touched
    def scribble(i, x):
        b = b_star_both(cs_a)(i, x)
        i[:], x[:] = 1, np.nan
        return b

    run = (cs_a, 0.6, 0.5, 2)
    args = (200, 0.01, 300, 11, 0, True)
    pay = _simulate_batch(*run, rx.Policy.reflect_at_custom_boundary(
        scribble), *args)
    ref = _simulate_batch(*run, rx.Policy.reflect_at_custom_boundary(
        b_star_both(cs_a)), *args)
    assert np.array_equal(pay, ref)


def test_overflowing_estimate_is_out_of_range(cs_a):
    # each member's payoff, about 5e307, is finite, but the pairs' mean
    # overflowed and came back as mean = std_error = inf
    cfg = rx.SimConfig(dt=0.1, horizon=1.0, n_paths=8, base_seed=1)
    for pol in (rx.Policy.reflect_optimal(),
                rx.Policy.reflect_at_custom_boundary(b_star_both(cs_a))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfRange, match=r"start price 1e\+308"):
                rx.estimate_value(cs_a, 1e308, 0.5, 1, pol, cfg)


def _small_cfg(**kw):
    return rx.SimConfig(**{**dict(dt=1e-2, horizon=0.5, n_paths=8,
                                  base_seed=3), **kw})


# each input is checked once, where it is made; these inputs used to fail
# later with an untyped error or run on regardless
@pytest.mark.parametrize("make, error", [
    (lambda cs: rx.Policy.reflect_at_custom_boundary(None),
     PreconditionViolated),
    (lambda cs: rx.Policy("reflect_optimal", bfun=lambda i, x: x),
     PreconditionViolated),
    (lambda cs: _small_cfg(n_paths=8.0), OutOfRange),
    (lambda cs: rx.simulate_traces(cs, 0.2, 0.5, 2,
                                   rx.Policy.reflect_optimal(),
                                   _small_cfg(), 8.0), OutOfRange),
    (lambda cs: rx.estimate_value(cs, 0.2, 0.5, 1.0,
                                  rx.Policy.reflect_optimal(), _small_cfg()),
     OutOfRange),
    (lambda cs: rx.estimate_value(cs, 0.2, 0.5, True,
                                  rx.Policy.reflect_optimal(), _small_cfg()),
     OutOfRange),
    (lambda cs: _small_cfg(antithetic="no"), OutOfRange),
    (lambda cs: rx.estimate_value(cs, 0.2, 0.5, 2,
                                  rx.Policy.reflect_optimal(),
                                  _small_cfg(n_paths=2)),
     PreconditionViolated),
    (lambda cs: rx.estimate_value(cs, 0.2, 0.5, 2,
                                  rx.Policy.reflect_optimal(),
                                  _small_cfg(n_paths=1, antithetic=False)),
     PreconditionViolated),
], ids=["custom-boundary-none", "bfun-on-optimal", "config-float-paths",
        "traces-float-paths", "regime-float", "regime-bool",
        "antithetic-str", "one-pair-estimate", "one-path-estimate"])
def test_simulator_input_checked_where_made(cs_a, make, error):
    with pytest.raises(error):
        make(cs_a)


def test_sim_config_takes_numpy_integers(cs_a):
    cfg = _small_cfg(n_paths=np.int64(8), base_seed=np.uint32(3),
                     batch_pairs=np.int32(2), antithetic=np.bool_(True))
    out = rx.estimate_value(cs_a, 0.2, 0.5, np.int64(2),
                            rx.Policy.reflect_optimal(), cfg)
    assert out.mean == rx.estimate_value(
        cs_a, 0.2, 0.5, 2, rx.Policy.reflect_optimal(),
        _small_cfg(batch_pairs=2)).mean


@pytest.mark.parametrize("path_index", [99, 8, -1, 1.0, None])
def test_trace_to_csv_checks_path_index(cs_a, tmp_path, path_index):
    tr = rx.simulate_traces(cs_a, 0.2, 0.5, 2, rx.Policy.reflect_optimal(),
                            _small_cfg(), 8)
    out = tmp_path/"t.csv"
    with pytest.raises(OutOfRange, match="path_index"):
        rx.trace_to_csv(tr, out, path_index)
    assert not out.exists()


def test_unknown_policy_rejected(cs_a):
    with pytest.raises(PreconditionViolated):
        _simulate_batch(cs_a, 0.6, 0.5, 2, rx.Policy("sell_on_tuesdays"),
                        4, 0.01, 10, 1, 0, True)


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["reflect_optimal", "never_extract",
                             "extract_all_at_start", "custom"]),
       x0=st.floats(-2.0, 2.0), y0=st.floats(0.0, 1.0),
       i0=st.sampled_from([1, 2]), seed=st.integers(0, 2**32 - 1),
       antithetic=st.booleans())
def test_trace_control_is_admissible(cs_a, kind, x0, y0, i0, seed,
                                     antithetic):
    pol = (rx.Policy.reflect_at_custom_boundary(
               lambda i, x: 0.9 - 0.2*i - 0.3*np.asarray(x))
           if kind == "custom" else getattr(rx.Policy, kind)())
    cfg = rx.SimConfig(dt=0.02, horizon=1.0, n_paths=8, base_seed=seed,
                       antithetic=antithetic)
    tr = rx.simulate_traces(cs_a, x0, y0, i0, pol, cfg, 8)
    assert np.all(tr.dnu >= 0.0)
    assert np.all(tr.Y[1:] <= tr.Y[:-1])
    assert np.all((tr.Y >= 0.0) & (tr.Y <= y0))
    assert np.allclose(tr.Y[0] + tr.dnu[0], y0, rtol=0.0, atol=1e-12)
    assert np.allclose(tr.Y[:-1] - tr.Y[1:], tr.dnu[1:], rtol=0.0, atol=1e-12)


def test_reflect_optimal_custom_cost_matches_builtin(params_a, cs_a,
                                                     monkeypatch):
    # a custom cost equal to the exponential family takes the same
    # threshold trigger and f'-space projection, inverted by bisection
    g = params_a.cost.gamma
    cost = rx.CostFunction.custom(lambda y: g*(np.exp(y) - 1.0),
                                  lambda y: g*np.exp(y))
    kw = {k: getattr(params_a, k) for k in ("rho", "sigma1", "sigma2",
                                            "lambda1", "lambda2", "c")}
    cs_c = rx.from_stopping(rx.solve_z(rx.validate(**kw, cost=cost)))
    run = (0.6, 0.5, 2, rx.Policy.reflect_optimal(), 200, 0.01, 300, 3, 0,
           True)
    pa = _batch(monkeypatch, NEVER, cs_a, *run)
    pc = _batch(monkeypatch, NEVER, cs_c, *run)
    assert np.abs(pa - pc).max() <= 1e-12


def _sha(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _pin_policy(kind):
    if kind == "custom":
        return rx.Policy.reflect_at_custom_boundary(
            lambda i, x: 1.05 - 0.15*i - 0.3*np.asarray(x))
    return getattr(rx.Policy, kind)()


def _exp_cost_twin(params):
    """params with its exponential cost written as a custom cost."""
    g = params.cost.gamma
    cost = rx.CostFunction.custom(lambda y: g*(np.exp(y) - 1.0),
                                  lambda y: g*np.exp(y))
    kw = {k: getattr(params, k) for k in ("rho", "sigma1", "sigma2",
                                          "lambda1", "lambda2", "c")}
    return rx.from_stopping(rx.solve_z(rx.validate(**kw, cost=cost)))


# sha256 of recorded traces (t, regime, X, Y, dnu, disc_inc and the four
# switches arrays), recorded before the reflection step was written once;
# 64 paths on example.json from (0.16, 0.9, 2) over 2 time units, where
# paths switch regime inside steps; reflect_optimal's were re-pinned when
# zhat2 became one closed form, which moved z1 and z2 by about 1e-13
PINNED_TRACES = {
    ("reflect_optimal", True): (
        "250b610df92fcffa6fabdaba19a43bc2"
        "66818cd78ece0ddaccee6342d10e8ec4"),
    ("reflect_optimal", False): (
        "7316e06e73225f3f2a6446db882ade53"
        "4061290aa5c75c66c5554db927e06279"),
    ("never_extract", True): (
        "f5d82ca61a89ef26d2a79389ab30f4e9"
        "15dbf1aebb29e0215ba900de3dd3dcd3"),
    ("never_extract", False): (
        "344ca1c6157c19fb1f6509fb2a46a068"
        "9f83def027bb2f7615ea74a43718dc7a"),
    ("extract_all_at_start", True): (
        "81861898f365c6cca63490d2824dfcec"
        "5337661c8f2007823df8a6dc9bb27327"),
    ("extract_all_at_start", False): (
        "def8d1e235e417d2bc7705fbcbebe1c7"
        "b9a820f54a56dbcff379c6e8aa0ce3a9"),
    ("custom", True): (
        "b313216513559c7604d6d619314ef02d"
        "abfb2dddc6b2d2319a9a8d5ae2cc3717"),
    ("custom", False): (
        "372a939f8e16225e3f5b48159cafde19"
        "1a3aefd48fac4eb81c389510411140b0"),
}


@pytest.mark.parametrize("key", list(PINNED_TRACES),
                         ids=lambda k: f"{k[0]}-{'anti' if k[1] else 'plain'}")
def test_trace_pinned(cs_a, key):
    kind, antithetic = key
    cfg = rx.SimConfig(dt=0.01, horizon=2.0, n_paths=64, base_seed=4242,
                       antithetic=antithetic)
    tr = rx.simulate_traces(cs_a, 0.16, 0.9, 2, _pin_policy(kind), cfg, 64)
    assert tr.switches and tr.switches[0].size > 0
    assert _sha(tr.t, tr.regime, tr.X, tr.Y, tr.dnu, tr.disc_inc,
                *tr.switches) == PINNED_TRACES[key]


@pytest.fixture(scope="module")
def cs_cubic(params_a):
    """example.json's market with the custom cost f(y) = y + y^3."""
    cost = rx.CostFunction.custom(lambda y: y + y**3,
                                  lambda y: 1.0 + 3.0*np.square(y))
    return rx.from_stopping(rx.solve_z(dataclasses.replace(params_a,
                                                           cost=cost)))


@pytest.mark.parametrize("antithetic", [True, False],
                         ids=["anti", "plain"])
@pytest.mark.parametrize("family", ["quadratic", "custom"])
def test_baselines_reflect_exactly_in_every_cost_family(cs_b, cs_cubic,
                                                        family, antithetic):
    # the baselines reflect at the thresholds -inf and +inf: the whole
    # reserve goes at t = 0, projected onto f'(0), which must give Y = 0
    # and f(Y) = 0 exactly; +inf never triggers, at a switch either
    cs = cs_b if family == "quadratic" else cs_cubic
    p, (x0, y0) = cs.params, (0.16, 0.9)
    cfg = rx.SimConfig(dt=0.01, horizon=2.0, n_paths=16, base_seed=4242,
                       antithetic=antithetic)
    tr = rx.simulate_traces(cs, x0, y0, 2, rx.Policy.extract_all_at_start(),
                            cfg, 16)
    assert tr.switches and tr.switches[0].size > 0
    assert np.all(tr.dnu[0] == y0) and np.all(tr.Y == 0.0)
    assert np.all(tr.disc_inc[0] == (x0 - p.c)*y0)
    assert np.all(tr.disc_inc[1:] == 0.0)
    tr = rx.simulate_traces(cs, x0, y0, 2, rx.Policy.never_extract(), cfg, 16)
    assert np.all(tr.dnu == 0.0) and np.all(tr.Y == y0)
    closed = -p.cost.value(y0)*(1.0 - math.exp(-p.rho*tr.t[-1]))/p.rho
    assert np.abs(tr.payoffs() - closed).max() <= 1e-12


# sha256 of _simulate_batch's (m, n_pairs) payoffs with compaction every
# 64 steps, recorded before the reflection step was written once; the
# reflect_optimal ones were re-pinned when zhat2 became one closed form
PINNED_BATCHES = {
    "reflect_optimal": (
        "20143b33b8a8181a75e09b945c7f67d3"
        "5e8627ed6817cff4c40bd2f6567fed9c"),
    "custom": (
        "1105be92c96043e4abdebb962dd8f9d2"
        "ac557a95941a18092789c33448b8020b"),
    "custom_cost": (
        "9ee7848cefda46bca7afb9072e6256ed"
        "3146660345f2342811708f68ac6fa65b"),
}


@pytest.mark.parametrize("name", list(PINNED_BATCHES))
def test_compacted_batch_pinned(params_a, cs_a, monkeypatch, name):
    cs = _exp_cost_twin(params_a) if name == "custom_cost" else cs_a
    pol = _pin_policy("custom" if name == "custom" else "reflect_optimal")
    run = (1.0, 0.5, 2, pol, 300, 0.01, 400, 19, 3, True)
    pay = _batch(monkeypatch, 64, cs, *run)
    # compaction fired: it reshuffles the draws the survivors see
    assert not np.array_equal(pay, _batch(monkeypatch, NEVER, cs, *run))
    assert _sha(pay) == PINNED_BATCHES[name]


# (mean, std_error) recorded before the reflection step was written once:
# reflect_optimal without antithetics, and a custom boundary with them;
# "plain" was re-pinned when zhat2 became one closed form
PINNED_OTHER_ESTIMATES = {
    "plain": (0.1030377317197394, 0.007428951083099141),
    "custom": (0.08318367012454363, 0.00378437648314732),
}


@pytest.mark.parametrize("name", list(PINNED_OTHER_ESTIMATES))
def test_other_estimates_pinned(cs_a, name):
    plain = name == "plain"
    cfg = rx.SimConfig(dt=0.04, n_paths=3000, base_seed=2025,
                       batch_pairs=1000, antithetic=not plain)
    pol = _pin_policy("reflect_optimal" if plain else "custom")
    out = rx.estimate_value(cs_a, 0.6, 0.5, 2, pol, cfg)
    assert (out.mean, out.std_error) == PINNED_OTHER_ESTIMATES[name]


def _high_switching_cs():
    """equal_vol.json with fast, unequal switching rates: at dt 0.04 many
    steps hold two or more switches, so three or more jump-split rounds.
    Unequal volatilities fail the solvability conditions at these rates,
    so _regime_boundary lets the regime reach the payoffs."""
    return rx.from_stopping(rx.solve_z(rx.validate(
        rho=0.5, sigma1=1.0, sigma2=1.0, lambda1=25.0, lambda2=20.0, c=1.0,
        cost=rx.CostFunction.quadratic(1.0, 1.0))))


def _regime_boundary(i, x):
    return np.clip(0.4 - 0.1*i - 0.2*np.asarray(x), 0.0, 1.0)


def _engine_run(name, cs_a, cs_b):
    """(cs, _simulate_batch arguments after cs) of each PINNED_ENGINE_RUNS
    entry; every run compacts every 64 steps."""
    opt = rx.Policy.reflect_optimal()
    if name == "plain":
        return cs_a, (1.0, 0.5, 2, opt, 600, 0.01, 400, 19, 3, False)
    if name == "plain_custom":
        return cs_a, (1.0, 0.5, 2, _pin_policy("custom"), 600, 0.01, 400, 19,
                      4, False)
    if name == "quadratic":
        return cs_b, (-1.0, 0.3, 1, opt, 300, 0.04, 1000, 23, 5, True)
    pol = (opt if name == "switching" else
           rx.Policy.reflect_at_custom_boundary(_regime_boundary))
    return _high_switching_cs(), (-0.5, 0.4, 2, pol, 300, 0.04, 500, 29, 6,
                                  True)


# sha256 of _simulate_batch's payoffs, recorded before the engine moved to
# flat member-major indexing: single paths (m = 1), the quadratic cost of
# equal_vol.json, and a high-switching set under both policy kinds;
# "plain" was re-pinned when zhat2 became one closed form
PINNED_ENGINE_RUNS = {
    "plain": (
        "2cb4958ca2df53d39a1ce6635eead125"
        "f0f4c34233df7685a896f8ea1b521961"),
    "plain_custom": (
        "92333d769a80bb1a0464553d392908b2"
        "dd71fecf34022473e11aafe60a1ca6d4"),
    "quadratic": (
        "8a347beb8c5ff6cee73134b7307805fe"
        "26fa124a19880f3f537e327412579cac"),
    "switching": (
        "d53fdca6fbed75d4523510dbcc2a2c55"
        "b485acae855de9c76d770e84da6a9e8f"),
    "switching_custom": (
        "0c7373900684a6fe6005b92280114364"
        "1ee5b9de665c58694ad6fb000b2adf87"),
}


@pytest.mark.parametrize("name", list(PINNED_ENGINE_RUNS))
def test_engine_run_pinned(cs_a, cs_b, monkeypatch, name):
    cs, run = _engine_run(name, cs_a, cs_b)
    pay = _batch(monkeypatch, 64, cs, *run)
    # (m, n_pairs): one member per path without antithetics
    assert pay.shape == (2 if run[-1] else 1, run[4])
    # compaction fired
    assert not np.array_equal(pay, _batch(monkeypatch, NEVER, cs, *run))
    assert _sha(pay) == PINNED_ENGINE_RUNS[name]


# sha256 of a recorded trace on the high-switching set, recorded with
# PINNED_ENGINE_RUNS
PINNED_SWITCHING_TRACE = (
    "357465d53c3653e839596f4c38c1aaaf"
    "eb9edcb959cabd75bcde2fac2d09f716")


def test_high_switching_trace_pinned():
    cfg = rx.SimConfig(dt=0.04, horizon=4.0, n_paths=64, base_seed=31)
    tr = rx.simulate_traces(_high_switching_cs(), -0.5, 0.4, 2,
                            rx.Policy.reflect_at_custom_boundary(
                                _regime_boundary), cfg, 64)
    s_k, s_j = tr.switches[:2]
    # one cell's switches per member: two or more need three or more rounds
    _, per_cell = np.unique(s_k*tr.X.shape[1] + s_j, return_counts=True)
    assert (per_cell >= 2).sum() >= 1000
    assert _sha(tr.t, tr.regime, tr.X, tr.Y, tr.dnu, tr.disc_inc,
                *tr.switches) == PINNED_SWITCHING_TRACE
