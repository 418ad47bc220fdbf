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

# Barrier of exploratory runs above the admissibility threshold, where
# tau_star does not exist; twice the limiting tail exponent.
OVERRIDE_CAP_FACTOR = 2.0

__all__ = [
    "ModelParams",
    "DerivedConstants",
    "derive_constants",
    "iteration_barrier",
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
    def alpha(self) -> float:
        """Decay exponent (2 - v - 2*m0)/(1 - v) of the supersolution."""
        return self.linear_coefficient / (1.0 - self.v)

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
    """Barrier constants of (v, m0); the exponents alpha and tau_inf are
    ``ModelParams`` properties.

    sigma_star smallest sigma > 0 with 2*m0/(1 - v) * 2^(tau_inf + sigma) <= sigma
    tau_star   constant barrier tau_inf + sigma_star for the monotone iteration
    """

    sigma_star: float
    tau_star: float


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
    Where the power 2^(a_0 + sigma) lies beyond the float range (a_0 near
    1024, with b_m0 small enough to compensate) the predicate is compared
    in log2 form instead.
    """

    def holds(sigma: float) -> bool:
        bound = sigma * (1.0 + 1e-13)
        try:
            return b_m0 * 2.0 ** (a_0 + sigma) <= bound
        except OverflowError:
            return math.log2(b_m0) + a_0 + sigma <= math.log2(bound)

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
    """Barrier constants of params; fails if the barrier does not exist."""
    params.require_fat_tail_regime()
    v, m0 = params.v, params.m0
    sigma = _smallest_sigma(2.0 * m0 / (1.0 - v), params.tau_inf)
    if sigma is None:
        m0_bar = admissible_threshold(v)
        raise ThresholdExceededError(
            f"no barrier slack exists: m0={m0} exceeds threshold {m0_bar} at v={v}",
            m0_bar=m0_bar,
        )
    return DerivedConstants(sigma_star=sigma, tau_star=params.tau_inf + sigma)


def iteration_barrier(params: ModelParams, force: bool = False) -> tuple[float, bool]:
    """Constant barrier the monotone iteration starts from, and whether it
    is certified: (tau_star, True) where it exists.  Otherwise, above the
    admissibility threshold or outside m0 < v/2, the error of
    :func:`derive_constants` is raised, or with ``force`` the uncertified
    cap OVERRIDE_CAP_FACTOR * tau_inf is returned with False."""
    try:
        return derive_constants(params).tau_star, True
    except (ThresholdExceededError, ParameterDomainError):
        if not force:
            raise
        return OVERRIDE_CAP_FACTOR * params.tau_inf, False


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
    z = np.asarray(z, dtype=float)
    if np.any(z < 0.0):
        raise ParameterDomainError("z must be nonnegative")
    out = params.m0 * (1.0 + (1.0 - params.v) * z) ** (-params.alpha)
    return out if out.ndim else float(out)
