"""Scalar reference simulator: one path at a time, an independent oracle
for the batch engine in regime_extract.mcsim."""
import math

import numpy as np

import regime_extract as rx
from regime_extract.errors import OutOfRange


def simulate_chain(params, i0: int, T: float, rng) -> list:
    """Exact event times of the two-state chain: [(time, new_state), ...]."""
    if T <= 0:
        raise OutOfRange(f"horizon must be positive, got {T}")
    out = []
    t, i = 0.0, i0
    while True:
        t += rng.exponential(1.0/params.lam(i))
        if t >= T:
            return out
        i = 3 - i
        out.append((t, i))


def _boundary(cs, policy):
    if policy.kind == "reflect_optimal":
        return lambda i, x: rx.b_star(cs, i, x)
    if policy.kind == "reflect_at_custom_boundary":
        return lambda i, x: float(np.clip(
            policy.bfun(np.array([i]), np.array([x]))[0], 0.0, 1.0))
    return None


def simulate_path(cs, x0, y0, i0, policy, cfg, path_index: int) -> float:
    """One path, scalar loop, seeded from (base_seed, path_index)."""
    p = cs.params
    if not 0.0 <= y0 <= 1.0:
        raise OutOfRange(f"reserve level must lie in [0, 1], got {y0}")
    T = cfg.resolved_horizon(p)
    K = int(round(T/cfg.dt))
    ss = np.random.SeedSequence([cfg.base_seed, path_index])
    gchain, gnoise = (np.random.Generator(np.random.PCG64(s))
                      for s in ss.spawn(2))
    jumps = simulate_chain(p, i0, T, gchain)
    events = sorted({round(k*cfg.dt, 12) for k in range(K + 1)}
                    | {t for t, _ in jumps})
    jump_at = dict(jumps)
    bound = _boundary(cs, policy)

    x, y, i = float(x0), float(y0), int(i0)
    pay = 0.0

    def extract_now(t):
        nonlocal y, pay
        if policy.kind == "never_extract":
            return
        if policy.kind == "extract_all_at_start":
            dnu = y if t == 0.0 else 0.0
        else:
            dnu = max(y - bound(i, x), 0.0)
        if dnu > 0.0:
            pay += math.exp(-p.rho*t)*(x - p.c)*dnu
            y -= dnu

    extract_now(0.0)
    t_prev = 0.0
    for t in events[1:]:
        tau = t - t_prev
        if tau > 0:
            x += p.sigma(i)*math.sqrt(tau)*gnoise.standard_normal()
            pay -= p.cost.value(y)*(
                math.exp(-p.rho*t_prev) - math.exp(-p.rho*t))/p.rho
        if t in jump_at:
            i = jump_at[t]
            if bound is not None:
                extract_now(t)
        else:
            extract_now(t)
        t_prev = t
    return pay
