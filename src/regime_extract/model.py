"""Problem parameters, maintenance-cost families, the characteristic
constants and the feasibility conditions.

Price follows an arithmetic Brownian motion whose volatility is modulated
by a two-state Markov chain (rates lambda1, lambda2 of leaving states 1, 2).
Extraction pays X - c per unit; holding a reserve level y costs f(y) per
unit time, with f strictly increasing, strictly convex and f(0) = 0.
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ._numerics import adaptive_simpson, bisect, expi_scaled
from .errors import (CostNotConvex, CrossCheckFailed,
                     DegenerateDiscriminant, NonPositiveParameter,
                     OutOfRange)


def _vectorized(fn: Callable) -> Callable:
    """fn as-is when it accepts arrays, else a numpy-vectorized wrapper."""
    try:
        out = fn(np.array([0.0, 0.5]))
        if np.shape(out) == (2,):
            return fn
    except Exception:
        pass
    wrapped = np.vectorize(fn, otypes=[float])

    def call(y):
        out = wrapped(y)
        return float(out) if np.ndim(y) == 0 else out

    return call


# grid over [0, 1] and slack of f'' on which a custom cost is checked
CUSTOM_GRID, CUSTOM_CONVEX_TOL = 1001, 1e-9
SIMPSON_TOL = 1e-9   # absolute, per integral of a custom cost


@dataclass(frozen=True)
class CostFunction:
    """Reserve maintenance cost f with closed-form derivative.

    Built-in families: exponential f(y) = gamma*(e^y - 1) and quadratic
    f(y) = alpha*y^2 + beta*y. Any other (f, f') pair can be supplied
    through `custom`; its derivative inverse then falls back to bisection.
    Every construction path is checked (CostNotConvex): finite positive
    family parameters; f(0) = 0, f' > 0 and convexity on a grid if custom.
    The family is decided here only: other modules use f, f', its inverse
    and exp_integral, never kind or the family parameters.
    """

    kind: str
    gamma: Optional[float] = None
    alpha: Optional[float] = None
    beta: Optional[float] = None
    f: Optional[Callable] = None
    fprime: Optional[Callable] = None

    def __post_init__(self):
        family = {"exponential": ("gamma",), "quadratic": ("alpha", "beta")}
        for name in family.get(self.kind, ()):
            val = getattr(self, name)
            if not _positive(num := _config_number(val)):
                raise CostNotConvex(
                    f"{self.kind} cost needs {name} > 0, got {val!r}")
            object.__setattr__(self, name, float(num))
        if self.kind == "custom":
            if not (callable(self.f) and callable(self.fprime)):
                raise CostNotConvex("custom cost needs callable f and fprime")
            object.__setattr__(self, "f", _vectorized(self.f))
            object.__setattr__(self, "fprime", _vectorized(self.fprime))
            self._check_custom()
        elif self.kind not in family:
            raise CostNotConvex(f"unknown cost kind {self.kind!r}")
        object.__setattr__(self, "_fp_range",
                           (self.derivative(0.0), self.derivative(1.0)))

    @staticmethod
    def exponential(gamma: float) -> "CostFunction":
        return CostFunction(kind="exponential", gamma=gamma)

    @staticmethod
    def quadratic(alpha: float, beta: float) -> "CostFunction":
        return CostFunction(kind="quadratic", alpha=alpha, beta=beta)

    @staticmethod
    def custom(f: Callable, fprime: Callable) -> "CostFunction":
        return CostFunction(kind="custom", f=f, fprime=fprime)

    def value(self, y):
        if self.kind == "exponential":
            return self.gamma*(np.exp(y) - 1.0)
        if self.kind == "quadratic":
            return self.alpha*np.square(y) + self.beta*y
        return self.f(y)

    def derivative(self, y):
        if self.kind == "exponential":
            return self.gamma*np.exp(y)
        if self.kind == "quadratic":
            return 2.0*self.alpha*y + self.beta
        return self.fprime(y)

    def derivative_inverse(self, fp):
        """y in [0, 1] with f'(y) = fp; closed form for the built-in
        families. Input is clipped to [f'(0), f'(1)], the closed forms'
        round-off to [0, 1], and f'(1) gives exactly 1."""
        return self._inverse(self._clipped(fp))

    def from_derivative(self, fp):
        """(y, f(y), f'(y)) at the y with f'(y) = fp clipped as in
        derivative_inverse, from one inversion; f'(y) is the clipped fp and
        the built-in families give f(y) without a transcendental call."""
        fp = self._clipped(fp)
        y = self._inverse(fp)
        if self.kind == "exponential":
            return y, fp - self.gamma, fp
        if self.kind == "quadratic":
            return y, (np.square(fp) - self.beta**2)/(4.0*self.alpha), fp
        return y, self.value(y), fp

    def exp_integral(self, rate, x, anchor, kappa, ends, cap):
        """The integrals over z in [lo, hi] = ends of e^E, E(z) = rate
        (x - anchor) + kappa f'(z), kappa != 0, broadcast as arrays.
        Quadratic: E is linear in z, so the integral is e^{E(end)} (1 -
        e^{-k (hi - lo)})/k, k = 2 alpha |kappa|, at the end where E is
        largest. Exponential: u = kappa gamma e^z makes it the integral of
        e^{rate (x - anchor)} e^u/u du, [e^E e^{-u} Ei(u)] from lo to hi.
        Custom: Simpson doubling, one row per entry, to SIMPSON_TOL. The
        closed forms cap E at cap, the most it reaches on [lo, hi], to
        keep empty intervals finite; Simpson takes E only inside."""
        if self.kind == "custom":   # fp as a default: no closure cell per call
            return adaptive_simpson(
                lambda z, a, xr, s, k, fp=self.fprime:
                    np.exp(a*(xr - s) + k*fp(z)),
                *ends, rate, x, anchor, kappa, tol=SIMPSON_TOL)
        u = kappa*self.derivative(ends)
        expo = np.minimum(rate*(x - anchor) + u, cap)
        if self.kind == "quadratic":
            k = 2.0*self.alpha*np.abs(kappa)
            return (np.exp(np.where(kappa > 0.0, expo[1], expo[0]))
                    * np.expm1(-k*(ends[1] - ends[0]))/-k)
        ends = np.exp(expo)*expi_scaled(u)
        return ends[1] - ends[0]

    def _clipped(self, fp):
        lo, hi = self._fp_range   # f'(0), f'(1)
        return np.minimum(np.maximum(fp, lo), hi)

    def _inverse(self, fp):
        """derivative_inverse of an fp in [f'(0), f'(1)]."""
        if self.kind == "custom":
            vals = np.asarray(fp, dtype=float)
            out = np.array([bisect(lambda y, t=t: self.fprime(y) - t, 0.0,
                                   1.0, xtol=1e-14) for t in vals.ravel()])
            return out.reshape(vals.shape)[()]
        if self.kind == "exponential":
            y = np.log(fp/self.gamma)
        else:
            y = (fp - self.beta)/(2.0*self.alpha)
        # the floor is 1 at f'(1), which the closed forms round a few ulps off
        return np.minimum(np.maximum(y, fp == self._fp_range[1]), 1.0)

    def _check_custom(self) -> None:
        if self.value(0.0) != 0.0:
            raise CostNotConvex(f"f(0) must be exactly 0, got {self.value(0.0)}")
        ys = np.linspace(0.0, 1.0, CUSTOM_GRID)
        fp = self.derivative(ys)
        if not np.all(fp > 0):
            raise CostNotConvex("f' must be strictly positive on [0, 1]")
        # convexity from second differences of f' (f'' not required)
        d2 = np.diff(fp)/(ys[1] - ys[0])
        if not np.all(d2 > -CUSTOM_CONVEX_TOL):
            raise CostNotConvex("sampled f'' is negative on [0, 1]")
        if not fp[-1] > fp[0]:   # linear: f' has no level to invert to
            raise CostNotConvex("f is linear on [0, 1]: f'(1) <= f'(0)")


@dataclass(frozen=True)
class ModelParams:
    """Market and cost parameters, valid by construction: each rate and c
    must be finite and positive (NonPositiveParameter, never clamped) and
    cost a CostFunction (CostNotConvex)."""

    rho: float
    sigma1: float
    sigma2: float
    lambda1: float
    lambda2: float
    c: float
    cost: CostFunction

    def __post_init__(self):
        for name in ("rho", "sigma1", "sigma2", "lambda1", "lambda2", "c"):
            val = getattr(self, name)
            if not _positive(num := _config_number(val)):
                raise NonPositiveParameter(name, val)
            object.__setattr__(self, name, float(num))
        if not isinstance(self.cost, CostFunction):
            raise CostNotConvex(
                f"cost must be a CostFunction, got {type(self.cost)}")

    def sigma(self, i: int) -> float:
        return self.sigma1 if i == 1 else self.sigma2

    def lam(self, i: int) -> float:
        return self.lambda1 if i == 1 else self.lambda2

    def swapped(self) -> "ModelParams":
        """Regime labels exchanged (used to reduce Case C to Case A)."""
        return ModelParams(self.rho, self.sigma2, self.sigma1,
                           self.lambda2, self.lambda1, self.c, self.cost)


def validate(rho, sigma1, sigma2, lambda1, lambda2, c, cost) -> ModelParams:
    """Build ModelParams, rejecting (never clamping) bad inputs."""
    return ModelParams(rho, sigma1, sigma2, lambda1, lambda2, c, cost)


def params_from_config(cfg: dict) -> ModelParams:
    """ModelParams from the JSON config schema.

    Schema: {"rho","sigma1","sigma2","lambda1","lambda2","c",
             "cost": {"type":"exp","gamma":g} | {"type":"quad","alpha":a,"beta":b}}
    """
    try:
        cost_cfg = cfg["cost"]
        ctype = cost_cfg["type"]
    except (KeyError, TypeError) as exc:
        raise KeyError(f"config missing cost section: {exc}") from exc
    if ctype in ("exp", "exponential"):
        cost = CostFunction.exponential(cost_cfg.get("gamma"))
    elif ctype in ("quad", "quadratic"):
        cost = CostFunction.quadratic(cost_cfg.get("alpha"), cost_cfg.get("beta"))
    else:
        raise CostNotConvex(f"unknown cost type {ctype!r}")
    return validate(cfg["rho"], cfg["sigma1"], cfg["sigma2"],
                    cfg["lambda1"], cfg["lambda2"], cfg["c"], cost)


def _count(name: str, value, least: int, most=math.inf):
    """value, checked as a count: an integer (numpy integers count), never
    a bool, in [least, most]; else OutOfRange naming it."""
    if not (isinstance(value, (int, np.integer)) and type(value) is not bool
            and least <= value <= most):
        raise OutOfRange(f"{name} must be an integer in [{least}, {most}], "
                         f"got {value!r}")
    return value


def _regime(i) -> int:
    """i, checked: the integer 1 or 2 (numpy integers too), never a bool."""
    return _count("regime", i, 1, 2)


def _positive(*vals) -> bool:
    """Whether every entry of vals is one finite real number > 0: numpy
    numbers count; arrays, bools, strings, complex, NaN and None fail."""
    nums = (v.item() if isinstance(v, (np.ndarray, np.generic)) and not v.ndim
            else v for v in vals)   # numpy numbers as Python's
    return all(isinstance(v, (int, float)) and type(v) is not bool
               and 0.0 < v < math.inf for v in nums)


def _config_number(val):
    """The float of text such as a config's "0.03"; any other val as is."""
    try:
        return float(val) if isinstance(val, str) else val
    except ValueError:   # text that is not a number
        return val


def phi(params: ModelParams, i: int, alpha) -> float:
    """Phi_i(alpha) = -sigma_i^2 alpha^2 / 2 + rho + lambda_i."""
    i, alpha = _regime(i), finite_prices(alpha, "alpha")
    return -0.5*params.sigma(i)**2*np.square(alpha) + params.rho + params.lam(i)


LEVELS = ("reserve levels", 0.0, 1.0)   # finite_prices' name, lo and hi


def finite_prices(x, name="prices", lo=-math.inf, hi=math.inf, one=False):
    """x as floats (an array; a numpy float if 0-d; a float if one, which
    takes no array) after the one check of every real-valued input: numpy
    integer or float values, each finite and in [lo, hi], else OutOfRange
    naming it. Prices have no ends, reserve levels lie in [0, 1] (LEVELS)."""
    try:
        a = np.asarray(x)
        ok = a.dtype.kind in "iuf" and not (one and a.ndim)
    except ValueError:   # ragged
        ok = False
    if ok and a.size:   # NaN carries through min and max
        least, most = (a.min(), a.max()) if a.ndim else (float(a),)*2
        ok = (lo <= least and most <= hi
              and math.isfinite(least) and math.isfinite(most))
    if not ok:
        what = "one finite real number" if one else "finite real numbers"
        ends = "" if lo == -hi == -math.inf else f" in [{lo:g}, {hi:g}]"
        raise OutOfRange(f"{name} must be {what}{ends}, got {x!r}")
    return float(a) if one else a.astype(float, copy=False)[()]


def _states(x, y):
    """Prices x and reserve levels y, each as finite_prices gives it and
    unbroadcast, once their shapes are known to broadcast together; else
    OutOfRange, before anything of the broadcast shape is made."""
    x, y = finite_prices(x), finite_prices(y, *LEVELS)
    try:
        np.broadcast(x, y)   # an iterator: it allocates no array
    except ValueError:
        raise OutOfRange(f"prices of shape {x.shape} and reserve levels of "
                         f"shape {y.shape} do not broadcast together") from None
    return x, y


def _price_range(name: str, value):
    """(lo, hi) from value as floats: a pair of prices (finite_prices)
    with lo < hi and a finite width hi - lo, else OutOfRange naming it,
    before a caller makes its grid."""
    try:
        lo, hi = value
        lo, hi = finite_prices(lo, one=True), finite_prices(hi, one=True)
    except (TypeError, ValueError, OutOfRange):   # not a pair of prices
        lo = hi = math.nan
    if not _positive(hi - lo):
        raise OutOfRange(f"{name} must be (lo, hi) with lo < hi and a "
                         f"finite width, got {value!r}")
    return lo, hi


def chat(params: ModelParams, y) -> float:
    """Effective selling cost c - f'(y)/rho, strictly decreasing in y."""
    y = finite_prices(y, *LEVELS)
    out = params.c - params.cost.derivative(y)/params.rho
    return float(out) if out.ndim == 0 else out


def _single_shift(params: ModelParams, sigma) -> float:
    """sigma/sqrt(2 rho), the boundary shift of a regime that never switches
    (case B's z1); NonPositiveParameter unless sigma is one number > 0."""
    if not _positive(sigma):
        raise NonPositiveParameter("sigma", sigma)
    return sigma/math.sqrt(2.0*params.rho)


@dataclass(frozen=True)
class AssumptionReport:
    """Numeric record of the solvability conditions.

    a5_le_1, cond2, cond3, cond4 are the four sufficient conditions for the
    smooth-fit system to have a unique solution; assm2 is the stronger
    volatility restriction used by the candidate-value verification;
    lemma_signs records the (unconditional) sign pattern of a1..a4.
    all_ok is the conjunction of the five condition flags. In the equal
    volatility case the conditions are not required: flags are bypassed and
    case_b is set.
    """

    a5_le_1: bool
    cond2: bool
    cond3: bool
    cond4: bool
    assm2: bool
    lemma_signs: bool
    all_ok: bool
    case_b: bool = False
    values: dict = field(default_factory=dict)

    @property
    def solvable_case_a(self) -> bool:
        """The four conditions the smooth-fit solver itself needs; the
        stronger volatility cap (assm2) matters only for verification."""
        return self.a5_le_1 and self.cond2 and self.cond3 and self.cond4

    def to_dict(self) -> dict:
        return {**vars(self),
                "values": {k: float(v) for k, v in self.values.items()}}


Characteristic = namedtuple(
    "Characteristic", "disc beta1 beta2 alpha3 alpha4 alpha5 a1 a2 a3 a4")


def characteristic(rho, sigma1, sigma2, lambda1, lambda2) -> Characteristic:
    """Roots of Phi_1(alpha) Phi_2(alpha) = lambda1 lambda2 and the
    smooth-fit constants a1..a4, vectorized over the parameters.

    Returns disc = b_o^2 - 4 a_o c_o, the roots beta1 > beta2 > 0 of the
    reduced quadratic, alpha3 = sqrt(beta2) < alpha4 = sqrt(beta1), the
    middle-region rate alpha5 = sqrt(2 (rho+lambda2) / sigma2^2) and a1..a4.
    With beta = alpha^2 the quartic is a_o beta^2 + b_o beta + c_o = 0,
    a_o = sigma1^2 sigma2^2 / 4, b_o = -(sigma1^2 (rho+lambda2)
    + sigma2^2 (rho+lambda1)) / 2, c_o = (rho+lambda1)(rho+lambda2)
    - lambda1 lambda2, solved branch-free: the larger-magnitude root
    first, its companion through the product (no cancellation).
    """
    p1 = rho + lambda1
    p2 = rho + lambda2
    ao = 0.25*sigma1**2*sigma2**2
    bo = -0.5*sigma1**2*p2 - 0.5*sigma2**2*p1
    co = p1*p2 - lambda1*lambda2
    disc = bo*bo - 4.0*ao*co
    q = 0.5*(-bo + np.sqrt(disc))
    beta1 = q/ao
    beta2 = co/q
    alpha3, alpha4 = np.sqrt(beta2), np.sqrt(beta1)
    alpha5 = np.sqrt(2.0*p2/sigma2**2)
    phi13 = -0.5*sigma1**2*np.square(alpha3) + rho + lambda1
    phi14 = -0.5*sigma1**2*np.square(alpha4) + rho + lambda1
    denom = lambda1*(alpha4 - alpha3)
    a1 = -(alpha4*phi13 - alpha3*phi14)/denom + rho/p2
    a2 = (phi13 - phi14)/denom
    a3 = alpha3*alpha4*(phi14 - phi13)/denom
    a4 = (alpha3*phi13 - alpha4*phi14)/denom + lambda2/p2
    return Characteristic(disc, beta1, beta2, alpha3, alpha4, alpha5,
                          a1, a2, a3, a4)


RESIDUAL_TOL, CROSS_TOL = 1e-10, 1e-9   # solve_characteristic's gates


def solve_characteristic(params: ModelParams) -> Characteristic:
    """characteristic at params, as Python floats, with its invariants
    enforced; the negative roots are -alpha4 < -alpha3.

    Quartic residuals at +-alpha3 and +-alpha4 (relative to the terms
    that cancel) and the Vieta sum must hold to RESIDUAL_TOL, else
    DegenerateDiscriminant. a1 is cross-checked against the simplified
    form -(sigma1^2 alpha3 alpha4 / 2 + rho + lambda1)/lambda1
    + rho/(rho+lambda2), taking alpha3 alpha4 as the Vieta product
    sqrt(c_o/a_o) straight from the parameters, so the two routes share
    no root extraction; beyond CROSS_TOL they raise CrossCheckFailed.
    """
    rho, l1, l2 = params.rho, params.lambda1, params.lambda2
    k = Characteristic(*map(float, characteristic(
        rho, params.sigma1, params.sigma2, l1, l2)))
    if not k.disc > 0.0:
        raise DegenerateDiscriminant(
            f"b_o^2 - 4 a_o c_o = {k.disc} <= 0 for valid parameters")
    p1, p2 = rho + l1, rho + l2
    for a in (k.alpha3, k.alpha4, -k.alpha3, -k.alpha4):
        res = phi(params, 1, a)*phi(params, 2, a) - l1*l2
        # relative to the size of the terms that cancel in Phi_1 Phi_2
        scale = RESIDUAL_TOL*(0.5*params.sigma1**2*a*a + p1)*(
            0.5*params.sigma2**2*a*a + p2)
        if abs(res) > scale:
            raise DegenerateDiscriminant(
                f"quartic residual {res} at root {a} exceeds {scale}")
    vieta = 2.0*(params.sigma1**2*p2 + params.sigma2**2*p1)/(
        params.sigma1**2*params.sigma2**2)
    if abs(k.beta1 + k.beta2 - vieta) > RESIDUAL_TOL*vieta:
        raise DegenerateDiscriminant("Vieta sum check failed")
    prod_vieta = 2.0*math.sqrt(
        (p1*p2 - l1*l2)/(params.sigma1**2*params.sigma2**2))
    a1_alt = -(0.5*params.sigma1**2*prod_vieta + p1)/l1 + rho/p2
    if abs(k.a1 - a1_alt) > CROSS_TOL*max(abs(k.a1), abs(a1_alt)):
        raise CrossCheckFailed(
            f"a1 mismatch: ratio form {k.a1} vs simplified form {a1_alt}")
    return k


Conditions = namedtuple("Conditions", "k lhs2 lhs3 lhs4 a5_cap case_a case_b")


def condition_values(rho, sigma1, sigma2, lambda1, lambda2, eps=0.0
                     ) -> Conditions:
    """The feasibility conditions, vectorized: the one place the
    solvability rule is decided. k holds the characteristic constants,
    lhs2 = a1 + rho/(alpha5 (rho+lambda2)),
    lhs3 = a1 + cosh(1) rho/(alpha5 (rho+lambda2)),
    lhs4 = (rho/(rho+lambda2) + a4)/a3 - a2/lhs2,
    a5_cap = min(lambda2, rho)/lambda2, case_a the four flags the
    smooth-fit solver needs (alpha5 <= 1, lhs2 < -eps, lhs3 >= 0,
    lhs4 < -eps) and case_b marks equal volatilities (1e-14 relative),
    where the conditions are not required.
    """
    k = characteristic(rho, sigma1, sigma2, lambda1, lambda2)
    p2 = rho + lambda2
    r5 = rho/(k.alpha5*p2)
    lhs2 = k.a1 + r5
    lhs3 = k.a1 + np.cosh(1.0)*r5
    lhs4 = (rho/p2 + k.a4)/k.a3 - k.a2/lhs2
    a5_cap = np.minimum(lambda2, rho)/lambda2
    case_a = (k.alpha5 <= 1.0, lhs2 < -eps, lhs3 >= 0.0, lhs4 < -eps)
    case_b = np.abs(sigma1 - sigma2) <= 1e-14*np.maximum(sigma1, sigma2)
    return Conditions(k, lhs2, lhs3, lhs4, a5_cap, case_a, case_b)


def check_assumptions(params: ModelParams, eps: float = 0.0
                      ) -> AssumptionReport:
    """Evaluate every feasibility condition with exact inequality directions.

    eps > 0 tightens the strict inequalities so borderline inputs are
    rejected deterministically; an eps that is negative or not finite,
    which would loosen them, raises OutOfRange. Otherwise a report is
    always produced.
    """
    eps = finite_prices(eps, "eps", 0.0, one=True)
    cv = condition_values(params.rho, params.sigma1, params.sigma2,
                          params.lambda1, params.lambda2, eps)
    k = cv.k
    lemma = bool(k.a1 < -eps and k.a2 > eps and k.a3 < -eps and k.a4 > eps)
    values = {"alpha5": k.alpha5, "lhs2": cv.lhs2, "lhs3": cv.lhs3,
              "lhs4": cv.lhs4, "a5_cap": cv.a5_cap, "a1": k.a1, "a2": k.a2,
              "a3": k.a3, "a4": k.a4}
    flags = [bool(f | cv.case_b)   # equal volatilities need no condition
             for f in (*cv.case_a, k.alpha5 <= cv.a5_cap)]
    return AssumptionReport(*flags, lemma, all_ok=all(flags),
                            case_b=bool(cv.case_b), values=values)


def feasibility_scan(rho, lambda1, lambda2, sigma1_grid, sigma2_grid):
    """Rasterized Assumption-3.3-style feasibility over a volatility box.

    Returns boolean arrays (feasible, case_b) of shape
    (len(sigma2_grid), len(sigma1_grid)). Equal-volatility cells are
    marked case_b and excluded from feasible/infeasible classification.
    Each rate must be one number and each grid 1-D (OutOfRange), and
    every rate and volatility finite and > 0 (NonPositiveParameter), a
    list's entries as given: a bool or a string is not a number.
    """
    for name, val, ndim in (("rho", rho, 0), ("lambda1", lambda1, 0),
                            ("lambda2", lambda2, 0),
                            ("sigma1_grid", sigma1_grid, 1),
                            ("sigma2_grid", sigma2_grid, 1)):
        try:
            got = f"shape {np.shape(val)}" if np.ndim(val) != ndim else ""
        except ValueError:   # a ragged list has no shape
            got = "a ragged list"
        if got:
            raise OutOfRange(f"{name} must be "
                             f"{('a number', 'a 1-D grid')[ndim]}, got {got}")
        # a list's own entries, which numpy would coerce to one type
        entries = (val if isinstance(val, (list, tuple))
                   else np.ravel(val).tolist())
        bad = [v for v in entries if not _positive(v)]
        if bad:   # named by its first entry that is not
            raise NonPositiveParameter(name, bad[0])
    s1, s2 = (np.asarray(g, dtype=float) for g in (sigma1_grid, sigma2_grid))
    cv = condition_values(rho, s1[None, :], s2[:, None], lambda1, lambda2)
    f1, f2, f3, f4 = cv.case_a
    return f1 & f2 & f3 & f4 & ~cv.case_b, cv.case_b
