"""Model parameters and the closed-form objects of the profile equation.

The self-similar profile equation for the constant-kernel coagulation model
with mean-field drift reads

    -(z(1-v) + 1) F'(z) = (2 - v - 2*m0) F(z) + int_0^z F(z-y) F(y) dy

with m0 = int F and the mean-field scaling v in (0, 1).  This module holds
the parameter pair (v, m0), the constants derived from it, the explicit
exponentially decaying solution family, the algebraically decaying
supersolution, and the admissibility threshold for the constant barrier used
by the monotone iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterDomainError, ThresholdExceededError

# sigma * 2^-sigma is unimodal with its maximum at 1/ln 2, so this brackets
# every admissible barrier slack.
SIGMA_MAX = 1.0 / math.log(2.0)
SIGMA_BISECTION_TOL = 1e-12

__all__ = [
    "ModelParams",
    "DerivedConstants",
    "derive_constants",
    "exponential_profile",
    "supersolution_value",
    "admissible_threshold",
]


@dataclass(frozen=True)
class ModelParams:
    """Parameter pair of the self-similar system.

    ``v`` is the mean-field scaling parameter, ``m0`` the zeroth moment of
    the profile.  Construction only enforces the basic domain v in (0,1),
    m0 in (0,1); the stricter smallness condition m0 < v/2 required by the
    fat-tail machinery is checked in :func:`derive_constants`, because the
    residual evaluator and the evolution oracle must also accept the
    exponential family (m0 = 1 - v), which can violate it.
    """

    v: float
    m0: float

    def __post_init__(self):
        if not (0.0 < self.v < 1.0):
            raise ParameterDomainError(f"v must lie in (0, 1), got {self.v}")
        if not (0.0 < self.m0 < 1.0):
            raise ParameterDomainError(f"m0 must lie in (0, 1), got {self.m0}")

    @property
    def tau_inf(self) -> float:
        """Limiting tail exponent (2 - v)/(1 - v) of the fat-tail family."""
        return (2.0 - self.v) / (1.0 - self.v)

    @property
    def linear_coefficient(self) -> float:
        """Coefficient 2 - v - 2*m0 of the linear term of the profile equation."""
        return 2.0 - self.v - 2.0 * self.m0

    def require_fat_tail_regime(self) -> None:
        """Raise unless m0 < v/2 (standing assumption of the fat-tail solver)."""
        if not (self.m0 < 0.5 * self.v):
            raise ParameterDomainError(
                f"fat-tail regime requires m0 < v/2, got m0={self.m0}, v/2={0.5 * self.v}"
            )


@dataclass(frozen=True)
class DerivedConstants:
    """Constants derived from (v, m0).

    alpha      supersolution decay exponent (2 - v - 2*m0)/(1 - v), in (2, inf)
    tau_inf    limiting tail exponent (2 - v)/(1 - v)
    b_m0       2*m0/(1 - v)
    sigma_star smallest sigma > 0 with b_m0 * 2^(tau_inf + sigma) <= sigma
    tau_star   constant barrier tau_inf + sigma_star for the monotone iteration
    m0_bar     largest m0 for which such a sigma exists at this v
    """

    alpha: float
    tau_inf: float
    b_m0: float
    sigma_star: float
    tau_star: float
    m0_bar: float


def admissible_threshold(v: float) -> float:
    """Largest admissible m0 for this v.

    The constant barrier needs some sigma > 0 with
    b_m0 * 2^a_0 <= sigma * 2^-sigma, whose right-hand side is maximal at
    sigma = 1/ln 2 with value 1/(e ln 2).  For small v that bound exceeds
    the standing smallness assumption m0 < v/2, which then binds instead;
    the result is always strictly below v/2 (the supremum v/2 itself is
    out of regime, so the largest representable value below it is used).
    Where 2^a_0 lies beyond the float range (v above about 0.9990) the
    bound underflows and the result is 0: every m0 is inadmissible.
    """
    if not (0.0 < v < 1.0):
        raise ParameterDomainError(f"v must lie in (0, 1), got {v}")
    a_0 = (2.0 - v) / (1.0 - v)
    peak = 1.0 / (math.e * math.log(2.0))
    try:
        barrier_bound = (1.0 - v) * peak / (2.0 * 2.0**a_0)
    except OverflowError:
        return 0.0
    return min(barrier_bound, math.nextafter(0.5 * v, 0.0))


def _smallest_sigma(b_m0: float, a_0: float) -> float | None:
    """Smallest sigma in (0, 1/ln2] with b_m0 * 2^(a_0 + sigma) <= sigma.

    sigma * 2^-sigma increases on the bracket, so the admissible set is an
    upper sub-interval and plain bisection applies.  Returns a sigma at which
    the inequality is certified to hold, or None when even sigma = 1/ln2
    fails (m0 above threshold).  The predicate carries a rounding-scale
    relative slack so m0 exactly at the threshold (a tangency) is accepted;
    the slack stays at the level the monotone iteration absorbs anyway.
    A power 2^(a_0 + sigma) beyond the float range fails the predicate.
    """

    def holds(sigma: float) -> bool:
        try:
            return b_m0 * 2.0 ** (a_0 + sigma) <= sigma * (1.0 + 1e-13)
        except OverflowError:
            return False

    hi = SIGMA_MAX
    if not holds(hi):
        return None
    lo = 0.0
    while hi - lo > SIGMA_BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


def derive_constants(params: ModelParams) -> DerivedConstants:
    """Compute all derived constants; fails if the barrier does not exist."""
    params.require_fat_tail_regime()
    v, m0 = params.v, params.m0
    alpha = (2.0 - v - 2.0 * m0) / (1.0 - v)
    a_0 = (2.0 - v) / (1.0 - v)
    b_m0 = 2.0 * m0 / (1.0 - v)
    m0_bar = admissible_threshold(v)
    sigma = _smallest_sigma(b_m0, a_0)
    if sigma is None:
        raise ThresholdExceededError(
            f"no barrier slack exists: m0={m0} exceeds threshold {m0_bar} at v={v}",
            m0_bar=m0_bar,
        )
    return DerivedConstants(
        alpha=alpha,
        tau_inf=a_0,
        b_m0=b_m0,
        sigma_star=sigma,
        tau_star=a_0 + sigma,
        m0_bar=m0_bar,
    )


def exponential_profile(v: float, z):
    """Exponentially decaying solution family (1-v) * v * e^(-v z).

    Solves the profile equation exactly with m0 = 1 - v; its moments give
    M0 = 1 - v and M1 = (1-v)/v, hence v = M0/M1.
    """
    if not (0.0 < v < 1.0):
        raise ParameterDomainError(f"v must lie in (0, 1), got {v}")
    z = np.asarray(z, dtype=float)
    if np.any(z < 0.0):
        raise ParameterDomainError("z must be nonnegative")
    out = (1.0 - v) * v * np.exp(-v * z)
    return out if out.ndim else float(out)


def supersolution_value(params: ModelParams, z):
    """Algebraically decaying barrier m0 * (1 + (1-v) z)^(-alpha).

    Solves -(z(1-v)+1) Fbar' = (2-v-2m0) Fbar with Fbar(0) = m0 and
    dominates every nonnegative solution with F(0) <= m0.
    """
    params.require_fat_tail_regime()
    alpha = (2.0 - params.v - 2.0 * params.m0) / (1.0 - params.v)
    z = np.asarray(z, dtype=float)
    if np.any(z < 0.0):
        raise ParameterDomainError("z must be nonnegative")
    out = params.m0 * (1.0 + (1.0 - params.v) * z) ** (-alpha)
    return out if out.ndim else float(out)
