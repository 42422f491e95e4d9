"""Characteristic roots of the coupled ODE system and derived constants.

The joint-continuation ODE pair has exponential solutions e^{alpha x} with
alpha solving the even quartic Phi_1(alpha) Phi_2(alpha) = lambda1 lambda2.
model.characteristic computes the roots and a1..a4; this module checks
them and packs them for one parameter set.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CrossCheckFailed, DegenerateDiscriminant
from .model import ModelParams, characteristic, phi


@dataclass(frozen=True)
class RootSet:
    """Quartic roots alpha1 < alpha2 < 0 < alpha3 < alpha4 (alpha1 = -alpha4,
    alpha2 = -alpha3), beta_j = alpha^2 roots of the reduced quadratic,
    the middle-region rate alpha5 = sqrt(2 (rho+lambda2) / sigma2^2), and
    the smooth-fit constants a1 < 0, a2 > 0, a3 < 0, a4 > 0."""

    alpha1: float
    alpha2: float
    alpha3: float
    alpha4: float
    alpha5: float
    beta1: float
    beta2: float
    a1: float
    a2: float
    a3: float
    a4: float


RESIDUAL_TOL, CROSS_TOL = 1e-10, 1e-9   # solve_characteristic's gates


def solve_characteristic(params: ModelParams) -> RootSet:
    """Roots and constants for params, with structural invariants enforced.

    Quartic residuals (relative to the terms that cancel) and the Vieta
    sum must hold to RESIDUAL_TOL, else DegenerateDiscriminant. a1 is
    cross-checked against the simplified form -(sigma1^2 alpha3 alpha4 / 2
    + rho + lambda1)/lambda1 + rho/(rho+lambda2), taking alpha3 alpha4 as
    the Vieta product sqrt(c_o/a_o) straight from the parameters, so the
    two routes share no root extraction; beyond CROSS_TOL they raise
    CrossCheckFailed.
    """
    rho, l1, l2 = params.rho, params.lambda1, params.lambda2
    k = characteristic(rho, params.sigma1, params.sigma2, l1, l2)
    if not k.disc > 0.0:
        raise DegenerateDiscriminant(
            f"b_o^2 - 4 a_o c_o = {k.disc} <= 0 for valid parameters")
    alpha3, alpha4 = float(k.alpha3), float(k.alpha4)
    p1, p2 = rho + l1, rho + l2
    for a in (alpha3, alpha4, -alpha3, -alpha4):
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
    return RootSet(-alpha4, -alpha3, alpha3, alpha4, float(k.alpha5),
                   float(k.beta1), float(k.beta2),
                   *(float(a) for a in (k.a1, k.a2, k.a3, k.a4)))


def check_sign_lemma(roots: RootSet) -> bool:
    """True iff a1 < 0, a2 > 0, a3 < 0 and a4 > 0 strictly."""
    return roots.a1 < 0.0 and roots.a2 > 0.0 and roots.a3 < 0.0 and roots.a4 > 0.0
