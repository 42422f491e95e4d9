"""Seeded workloads: inputs, jobs and the checks on every output.

A workload builds its inputs once from the seed, then hands out the jobs
of one round. A round is the workload's fixed work; the benchmark runs
it once to warm up and then again and again, one job at a time (closed
loop). A job calls the public API or the CLI of regime_extract, checks
everything it gets back and returns a value that must repeat bit for bit
when the job runs again.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import regime_extract as rx
from regime_extract import cli

# Default tolerances of verify_fbp and verify_hjb at the time the benchmark
# was written. The checks keep these even if the defaults change.
FBP_TOL = {"worst_ode": 1e-7, "worst_ineq": 1e-7, "worst_dom": 1e-9,
           "worst_c1": 1e-6}
HJB_TAU = 1e-5
G_TOL = 1e-10

# Parameter boxes known to satisfy the case-A solvability conditions
# (rho, sigma1, sigma2, lambda1, lambda2); the same boxes as the test suite.
FEASIBLE_BOXES = (
    ((0.030, 0.033), (0.023, 0.026), (0.76, 0.80), (0.015, 0.017), (0.014, 0.016)),
    ((0.025, 0.027), (0.038, 0.040), (0.63, 0.66), (0.40, 0.47), (0.042, 0.044)),
    ((0.32, 0.35), (0.18, 0.38), (1.6, 1.9), (1.5, 1.7), (0.42, 0.44)),
)

# AC09 states: (x, y, regime) on example.json.
AC09_STATES = ((-1.5, 0.5, 1), (0.6, 0.5, 1), (0.6, 0.5, 2), (1.5, 0.5, 2),
               (0.16, 0.9, 2))
BAND_STATE = (0.6, 0.5, 2)
EQUAL_VOL_STATE = (-2.0, 0.3, 1)   # b*(-2) = 0.5 on equal_vol.json


@dataclass(frozen=True)
class Sizes:
    hjb_nx: int = 40
    hjb_ny: int = 10
    sim_dt: float = 0.04
    sim_paths: int = 20_000        # one batch of 10,000 antithetic pairs
    half_paths: int = 8_000        # dt/2 run for the discretisation budget
    trace_paths: int = 1_000       # AC10 set-up: dt 1e-3, horizon 3
    trace_dt: float = 1e-3
    trace_horizon: float = 3.0
    sweep_sets: int = 150


TOY = Sizes(hjb_nx=6, hjb_ny=3, sim_dt=0.1, sim_paths=400, half_paths=400,
            trace_paths=40, trace_dt=1e-2, trace_horizon=1.0, sweep_sets=12)


class CheckFailed(Exception):
    """An output of the program is wrong; layer is the one that made it."""

    def __init__(self, layer: str, message: str):
        super().__init__(message)
        self.layer = layer


def check(ok, layer: str, message: str) -> None:
    if not ok:
        raise CheckFailed(layer, message)


def _within(value, tol) -> bool:
    # written so that NaN fails
    return value <= tol


@dataclass(frozen=True)
class Job:
    id: str
    run: Callable[[], object]


@dataclass
class Workload:
    name: str
    setup_configs: list      # configs the set-up measurement solves
    inputs: object           # everything the seed decided, for the fingerprint
    round_jobs: Callable[[], list]
    uses_seed: bool = True


def _load_params(path: Path):
    with open(path) as fh:
        return rx.params_from_config(json.load(fh))


def _solve(params):
    sol = rx.solve_z(params)
    check(_within(abs(sol.g1_residual), G_TOL)
          and _within(abs(sol.g2_residual), G_TOL), "stopping",
          f"smooth-fit residuals ({sol.g1_residual}, {sol.g2_residual})")
    return sol


# ---------------------------------------------------------------------------
# verify: the CLI verify command, in process, on both shipped configs.
# Most of its time is control.U / control.U_xx quadrature.

def _strict_json(text: str):
    def refuse(const):
        raise CheckFailed("cli", f"non-finite number {const} in CLI output")
    try:
        return json.loads(text, parse_constant=refuse)
    except json.JSONDecodeError as exc:
        raise CheckFailed("cli", f"CLI output is not JSON: {exc}") from None


def _verify_job(config: Path, nx: int, ny: int):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["verify", "--config", str(config),
                         "--hjb-nx", str(nx), "--hjb-ny", str(ny)])
    text = buf.getvalue()
    check(code == 0, "cli", f"verify exited {code}: {text[-300:]}")
    out = _strict_json(text)
    check(out.get("status") == "pass", "cli", f"status {out.get('status')}")
    check(len(out["fbp"]) == 9, "cli", "expected 9 FBP reserve levels")
    for rep in out["fbp"]:
        for key, tol in FBP_TOL.items():
            check(_within(rep[key], tol), "stopping",
                  f"FBP {key}={rep[key]} at y={rep['y']} exceeds {tol}")
    hjb = out["hjb"]
    check((hjb["nx"], hjb["ny"]) == (nx, ny), "cli", "HJB grid mismatch")
    check(_within(hjb["worst_max_abs"], HJB_TAU)
          and _within(hjb["worst_regional"], HJB_TAU)
          and _within(hjb["worst_branch_excess"], HJB_TAU), "control",
          f"HJB residuals {hjb['worst_max_abs']}, {hjb['worst_regional']}")
    return text


def verify_workload(configs: Path, seed: int, sizes: Sizes) -> Workload:
    """No seed: the inputs are the two shipped configs at a fixed grid."""
    paths = [configs/"example.json", configs/"equal_vol.json"]
    inputs = {"configs": [p.read_text() for p in paths],
              "nx": sizes.hjb_nx, "ny": sizes.hjb_ny}

    def round_jobs():
        return [Job(p.stem, lambda p=p: _verify_job(p, sizes.hjb_nx,
                                                    sizes.hjb_ny))
                for p in paths]

    return Workload("verify", paths, inputs, round_jobs, uses_seed=False)


# ---------------------------------------------------------------------------
# simulate: Monte Carlo estimates checked against U, the generic engine
# against the fast one, and a recorded trace against the Skorokhod
# conditions. Almost all of its time is in mcsim.

def _mc_gate(cs, state, out, c_d: float, dt: float) -> float:
    """|mc - U| / (3 se + tail bound + AC09 discretisation budget)."""
    u = rx.U(cs, *state)
    gate = 3.0*out.std_error + out.tail_bound + c_d*math.sqrt(dt)
    gap = abs(out.mean - u)
    check(math.isfinite(out.mean) and math.isfinite(out.std_error)
          and _within(gap, gate), "mcsim",
          f"state {state}: |mc-U|={gap} > gate {gate}")
    return gap/gate


def simulate_workload(configs: Path, seed: int, sizes: Sizes) -> Workload:
    """The seed sets every Monte Carlo base seed."""
    ex, eq = configs/"example.json", configs/"equal_vol.json"
    base = 1000*seed
    inputs = {"base_seed": base, "sizes": repr(sizes)}
    dt = sizes.sim_dt
    width = sizes.sim_paths//2

    def cfg(n_paths, k, step=dt):
        return rx.SimConfig(dt=step, n_paths=n_paths, base_seed=base + k,
                            batch_pairs=width)

    def round_jobs():
        st = {}

        def solve():
            st["a"] = rx.from_stopping(_solve(_load_params(ex)))
            st["b"] = rx.from_stopping(_solve(_load_params(eq)))
            return (st["a"].stopping.z1, st["a"].stopping.z2,
                    st["b"].stopping.z1)

        def band():
            # the AC09 dt-halving at the band state sets the budget constant
            cs = st["a"]
            main = rx.estimate_value(cs, *BAND_STATE, rx.Policy.reflect_optimal(),
                                     cfg(sizes.sim_paths, 2))
            half = rx.estimate_value(cs, *BAND_STATE, rx.Policy.reflect_optimal(),
                                     cfg(sizes.half_paths, 99, step=dt/2))
            st["main"] = main
            st["c_d"] = ((abs(main.mean - half.mean)
                          + 3.0*(main.std_error + half.std_error))
                         / (math.sqrt(dt)*(1.0 - 1.0/math.sqrt(2.0))))
            return {"mean": main.mean, "se": main.std_error,
                    "half_mean": half.mean, "half_se": half.std_error,
                    "gap_over_gate": _mc_gate(cs, BAND_STATE, main, st["c_d"],
                                              dt)}

        def reflect(key, state, k):
            def run():
                cs = st[key]
                out = rx.estimate_value(cs, *state, rx.Policy.reflect_optimal(),
                                        cfg(sizes.sim_paths, k))
                return {"mean": out.mean, "se": out.std_error,
                        "gap_over_gate": _mc_gate(cs, state, out, st["c_d"],
                                                  dt)}
            return run

        def generic():
            cs = st["a"]

            def bfun(i, x):
                return np.where(i == 1, rx.b_star(cs, 1, x), rx.b_star(cs, 2, x))

            # the same seed and batches as the band estimate: identical paths
            out = rx.estimate_value(cs, *BAND_STATE,
                                    rx.Policy.reflect_at_custom_boundary(bfun),
                                    cfg(sizes.sim_paths, 2))
            fast = st["main"]
            se = math.hypot(out.std_error, fast.std_error)
            check(_within(abs(out.mean - fast.mean), 3.0*se), "mcsim",
                  f"generic {out.mean} vs fast {fast.mean}, 3 se = {3*se}")
            return (out.mean, out.std_error)

        def traces():
            cs = st["a"]
            x0 = 0.16
            y0 = float(rx.b_star(cs, 2, x0))
            tcfg = rx.SimConfig(dt=sizes.trace_dt, horizon=sizes.trace_horizon,
                                n_paths=sizes.trace_paths, base_seed=base + 11,
                                antithetic=False)
            tr = rx.simulate_traces(cs, x0, y0, 2, rx.Policy.reflect_optimal(),
                                    tcfg, sizes.trace_paths)
            check(rx.skorokhod_check(cs, tr) is True, "mcsim",
                  "skorokhod_check did not return True")
            pay = tr.payoffs()
            check(bool(np.isfinite(pay).all()), "mcsim", "non-finite payoff")
            return float(pay.mean())

        return ([Job("solve", solve), Job("band", band)]
                + [Job(f"state{k}", reflect("a", s, k))
                   for k, s in enumerate(AC09_STATES) if s != BAND_STATE]
                + [Job("equal_vol", reflect("b", EQUAL_VOL_STATE, 10)),
                   Job("generic", generic), Job("traces", traces)])

    return Workload("simulate", [ex, eq], inputs, round_jobs)


# ---------------------------------------------------------------------------
# sweep: many freshly solved parameter sets, a handful of states each.
# The only workload where roots, stopping and model do a real share.

FBP_LEVELS = (0.1, 0.5, 0.9)
REPORT_Y = 0.5
PRICE_OFFSET = 1.0


def draw_parameter_sets(seed: int, n: int):
    """n seeded sets from the feasible boxes, stratified so that the mix
    does not depend on the seed: set k goes to box (k mod 6)//2 with
    exponential cost for even k and quadratic cost for odd k, and within
    each of those six cells one set in six has sigma1 = sigma2 (case B)
    and one in six has its regime labels swapped. Only draws infeasible
    in both labelings are redrawn; they are invalid input, not program
    failures."""
    rng = np.random.default_rng([seed, 7])
    out = []
    for k in range(n):
        box = FEASIBLE_BOXES[(k % 6)//2]
        variant = "BCAAAA"[(k//6) % 6]
        while True:
            rho, s1, s2, l1, l2 = (rng.uniform(lo, hi) for lo, hi in box)
            if variant == "B":
                s2 = s1
            elif variant == "C":
                s1, s2, l1, l2 = s2, s1, l2, l1
            if k % 2 == 0:
                cost = rx.CostFunction.exponential(1/3)
            else:
                # marginal cost over [1/3, 1/3 + 2 alpha], as the exponential's
                cost = rx.CostFunction.quadratic(rng.uniform(0.1, 0.3), 1/3)
            p = rx.validate(rho, s1, s2, l1, l2, 0.5, cost)
            if variant == "B":
                case = "B"
            elif rx.check_assumptions(p).solvable_case_a:
                case = "A"
            elif rx.check_assumptions(p.swapped()).solvable_case_a:
                case = "C_relabeled"
            else:
                continue
            out.append((p, case))
            break
    return out


def _finite_report(rep) -> dict:
    d = rep.to_dict()
    check(all(math.isfinite(v) for v in d.values()), "control",
          f"U_report not finite: {d}")
    return d


def _sweep_job(params, case: str):
    rx.check_assumptions(params)
    sol = _solve(params)
    check(sol.case == case, "stopping", f"case {sol.case}, expected {case}")
    cs = rx.from_stopping(sol)
    fbp = []
    for y in FBP_LEVELS:
        rep = rx.verify_fbp(sol, y).to_dict()
        for key, tol in FBP_TOL.items():
            check(_within(rep[key], tol), "stopping",
                  f"FBP {key}={rep[key]} at y={y} exceeds {tol}")
        fbp.append(rep)
    lo, hi = sorted((rx.x_star(sol, 1, REPORT_Y), rx.x_star(sol, 2, REPORT_Y)))
    prices = (lo - PRICE_OFFSET, 0.5*(lo + hi), hi + PRICE_OFFSET)
    reports = [_finite_report(rx.U_report(cs, x, REPORT_Y, i))
               for x in prices for i in (1, 2)]
    return (sol.z1, sol.z2, fbp, reports)


def sweep_workload(configs: Path, seed: int, sizes: Sizes) -> Workload:
    """The seed draws the parameter sets."""
    sets = draw_parameter_sets(seed, sizes.sweep_sets)
    inputs = [(repr(p), case) for p, case in sets]

    def round_jobs():
        return [Job(f"set{k:03d}", lambda p=p, c=c: _sweep_job(p, c))
                for k, (p, c) in enumerate(sets)]

    return Workload("sweep", [configs/"example.json"], inputs, round_jobs)


WORKLOADS = {"verify": verify_workload, "simulate": simulate_workload,
             "sweep": sweep_workload}
