import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import regime_extract as rx
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


def b_star_both(cs):
    return lambda i, x: np.where(i == 1, rx.b_star(cs, 1, x),
                                 rx.b_star(cs, 2, x))


def test_custom_boundary_at_b_star_matches_reflect_optimal(cs_a):
    # the price-threshold trigger and the projection onto b* pay the same
    # on every path when compaction keeps the draws aligned
    args = (cs_a, 0.6, 0.5, 2)
    run = (400, 1e-3, 1500, 5, 0, True)
    po = _simulate_batch(*args, rx.Policy.reflect_optimal(), *run,
                         compact_every=0)
    pc = _simulate_batch(*args, rx.Policy.reflect_at_custom_boundary(
        b_star_both(cs_a)), *run, compact_every=0)
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


def test_compaction_is_statistically_neutral(cs_a):
    # dropping exhausted pairs reshuffles which draws the survivors see,
    # so only the distribution (not the path pairing) is preserved
    pol = rx.Policy.reflect_optimal()
    a = _simulate_batch(cs_a, 1.0, 0.5, 2, pol, 4000, 2e-3, 1500, 11, 0, True,
                        compact_every=0)
    b = _simulate_batch(cs_a, 1.0, 0.5, 2, pol, 4000, 2e-3, 1500, 11, 1, True,
                        compact_every=128)
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


def test_trace_increments_sum_to_payoff(cs_a):
    cfg = rx.SimConfig(dt=2e-3, horizon=1.0, n_paths=64, base_seed=17)
    for pol in (rx.Policy.reflect_optimal(), rx.Policy.never_extract(),
                rx.Policy.extract_all_at_start(),
                rx.Policy.reflect_at_custom_boundary(b_star_both(cs_a))):
        tr = rx.simulate_traces(cs_a, 0.4, 0.7, 2, pol, cfg, 64)
        pay = _simulate_batch(cs_a, 0.4, 0.7, 2, pol, 32, cfg.dt, 500,
                              cfg.base_seed, 0, True, compact_every=0)
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
# batches of 1,000; exhausted pairs are compacted away in every batch
PINNED_ESTIMATES = {
    ("b", (0.6, 0.5, 2)): (-0.19999999999999996, 1.0136592813758637e-18),
    ("b", (1.5, 0.5, 2)): (0.25, 0.0),
    ("b", (-2.0, 0.3, 1)): (-0.7035740041184463, 0.0005951169111198213),
    ("a", (0.6, 0.5, 2)): (0.11020038856017789, 0.0030231868101133837),
    ("a", (0.16, 0.9, 2)): (-0.1485481016747618, 0.004379332160299285),
    ("a", (-1.5, 0.5, 1)): (-0.4068663210251366, 0.002459321246718727),
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


@pytest.mark.parametrize("n_paths", [0, -2])
def test_simulate_traces_checks_its_path_count(cs_a, n_paths):
    # the n_paths argument is what runs; cfg.n_paths is not used here
    cfg = rx.SimConfig(dt=1e-2, horizon=0.5, n_paths=8, base_seed=3)
    with pytest.raises(OutOfRange):
        rx.simulate_traces(cs_a, 0.2, 0.5, 2, rx.Policy.reflect_optimal(),
                           cfg, n_paths)


def test_simulate_traces_ignores_cfg_n_paths(cs_a):
    cfg = rx.SimConfig(dt=0.01, horizon=0.5, n_paths=0)
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


def test_reflect_optimal_custom_cost_matches_builtin(params_a, cs_a):
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
    pa = _simulate_batch(cs_a, *run, compact_every=0)
    pc = _simulate_batch(cs_c, *run, compact_every=0)
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
# paths switch regime inside steps
PINNED_TRACES = {
    ("reflect_optimal", True): (
        "9a1f93b75917a101fdfc2218399e5b25"
        "14e4594d6b7072bc42c1a5a36a742af2"),
    ("reflect_optimal", False): (
        "9955efa0bf03e527ae396348090c5efa"
        "e4257bd81794b0bb28e278ad402cd65a"),
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


# sha256 of _simulate_batch's (m, n_pairs) payoffs with compaction every
# 64 steps, recorded before the reflection step was written once
PINNED_BATCHES = {
    "reflect_optimal": (
        "7af9f230c09c2e78ff4b2120a19bdc51"
        "866dc717c35b1b35906803f4c02327f0"),
    "custom": (
        "1105be92c96043e4abdebb962dd8f9d2"
        "ac557a95941a18092789c33448b8020b"),
    "custom_cost": (
        "337410d80ff0c8edfb87fcc6c5a2e909"
        "e6b77b00a0d77f46e491fd15305d8897"),
}


@pytest.mark.parametrize("name", list(PINNED_BATCHES))
def test_compacted_batch_pinned(params_a, cs_a, name):
    cs = _exp_cost_twin(params_a) if name == "custom_cost" else cs_a
    pol = _pin_policy("custom" if name == "custom" else "reflect_optimal")
    run = (1.0, 0.5, 2, pol, 300, 0.01, 400, 19, 3, True)
    pay = _simulate_batch(cs, *run, compact_every=64)
    # compaction fired: it reshuffles the draws the survivors see
    assert not np.array_equal(pay, _simulate_batch(cs, *run, compact_every=0))
    assert _sha(pay) == PINNED_BATCHES[name]


# (mean, std_error) recorded before the reflection step was written once:
# reflect_optimal without antithetics, and a custom boundary with them
PINNED_OTHER_ESTIMATES = {
    "plain": (0.10303773171973866, 0.007428951083099776),
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
# equal_vol.json, and a high-switching set under both policy kinds
PINNED_ENGINE_RUNS = {
    "plain": (
        "e70f83dece647e60af4c885eb15536e4"
        "579287512f2905764b4009f8114288ff"),
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
def test_engine_run_pinned(cs_a, cs_b, name):
    cs, run = _engine_run(name, cs_a, cs_b)
    pay = _simulate_batch(cs, *run, compact_every=64)
    # (m, n_pairs): one member per path without antithetics
    assert pay.shape == (2 if run[-1] else 1, run[4])
    # compaction fired
    assert not np.array_equal(pay, _simulate_batch(cs, *run, compact_every=0))
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
