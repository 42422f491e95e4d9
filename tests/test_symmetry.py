"""The problem's exact symmetries, checked with no derivation: a
transformed problem must have the same solution as the original.

- Translation: prices x and the extraction cost c shifted by the same a.
  The payoff per unit extracted is x - c, so nothing moves.
- Time scale: rho, lambda1, lambda2 and f multiplied by k, and sigma_i by
  sqrt(k). This is the same problem on a clock k times as fast, so
  nothing moves either.

Neither may change z1, z2, U, U_x, U_xx or b*_i. Price scale (x, c, sigma
and f times s) is left out: the paper's feasibility flags are not
invariant under it, and solve_z refuses most scaled sets.
"""
import json
import math
from pathlib import Path

import numpy as np
import pytest

import regime_extract as rx

CONFIGS = Path(__file__).resolve().parents[1]/"configs"
# worst measured on this grid: z 1.7e-15 relative; U 6.2e-16, U_x 7.8e-16
# and U_xx 1.3e-14 of their largest magnitude; b* 2.2e-15
TOL = 1e-13
XS = np.linspace(-3.0, 3.0, 61)
YS = np.linspace(0.05, 1.0, 20)


@pytest.fixture(scope="module", params=["example.json", "equal_vol.json"])
def base(request):
    cfg = json.loads((CONFIGS/request.param).read_text())
    return rx.params_from_config(cfg)


def _solved(p):
    return rx.from_stopping(rx.solve_z(p))


def _scaled_cost(cost, k):
    if cost.kind == "exponential":
        return rx.CostFunction.exponential(k*cost.gamma)
    return rx.CostFunction.quadratic(k*cost.alpha, k*cost.beta)


def _off(got, ref):
    """max |got - ref| over max |ref|"""
    return np.abs(got - ref).max()/np.abs(ref).max()


def _assert_same(cs, twin, shift=0.0):
    """twin at prices x + shift has cs's solution at x"""
    z = np.array([cs.stopping.z1, cs.stopping.z2])
    assert _off(np.array([twin.stopping.z1, twin.stopping.z2]), z) <= TOL
    assert twin.stopping.case == cs.stopping.case
    x, y = np.meshgrid(XS, YS)
    for i in (1, 2):
        for fn in (rx.U, rx.U_x, rx.U_xx):
            assert _off(fn(twin, x + shift, y, i), fn(cs, x, y, i)) <= TOL, \
                (fn.__name__, i)
        b = rx.b_star(cs, i, XS)
        assert np.abs(rx.b_star(twin, i, XS + shift) - b).max() <= TOL, i


@pytest.mark.parametrize("a", [0.25, 2.0])
def test_translation_leaves_the_solution_unchanged(base, a):
    p = base
    twin = rx.validate(p.rho, p.sigma1, p.sigma2, p.lambda1, p.lambda2,
                       p.c + a, p.cost)
    _assert_same(_solved(p), _solved(twin), shift=a)


@pytest.mark.parametrize("k", [2.0, 0.37])
def test_time_scale_leaves_the_solution_unchanged(base, k):
    p, r = base, math.sqrt(k)
    twin = rx.validate(k*p.rho, r*p.sigma1, r*p.sigma2, k*p.lambda1,
                       k*p.lambda2, p.c, _scaled_cost(p.cost, k))
    _assert_same(_solved(p), _solved(twin))
