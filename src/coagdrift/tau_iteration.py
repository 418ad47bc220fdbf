"""Monotone fixed-point iteration for the log-derivative of the profile.

For a frozen datum G the auxiliary problem

    -( (1-v) z + 1 ) F'(z) = (2 - v - 2 m0) F(z) + 2 int_0^{z/2} F(z-y) G(y) dy

is solved in the variable tau(z) = -z F'(z)/F(z), where it becomes the fixed
point equation

    tau(z) = z / ((1-v) z + 1) * (2 - v - 2 m0 + h(z)),
    h(z)   = 2 int_0^{z/2} G(y) exp( int_{z-y}^{z} tau(s)/s ds ) dy.

The map is order preserving in tau and admits the constant barrier
tau_star = tau_inf + sigma_star whenever m0 stays below the admissibility
threshold, so the sweep started at the barrier decreases pointwise and
converges.  Every quadrature weight on this path is nonnegative (plain
trapezoid, convex-combination interpolation), which is what makes the
pointwise monotonicity checkable to rounding slack.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    DivergentMomentError,
    GridMismatchError,
    NumericalConsistencyError,
    ParameterDomainError,
    ThresholdExceededError,
)
from .grids import (
    GridFunction,
    TauFunction,
    cumulative_log_integral,
    moment,
    sample_on_plan,
)
from .model import ModelParams, derive_constants

__all__ = [
    "InnerSolveOptions",
    "InnerSolveResult",
    "apply_tau_operator",
    "inner_solve",
    "reconstruct_profile",
]

# Absolute rounding slack, in units of the barrier, for the pointwise
# monotonicity assertions; trapezoid sums and exponentials commit this much
# noise but no more.
MONOTONICITY_SLACK = 1e-13

# Barrier used in exploratory runs above the admissibility threshold, where
# tau_star does not exist; twice the limiting tail exponent.
OVERRIDE_CAP_FACTOR = 2.0

_M0_MATCH_RTOL = 1e-6


@dataclass(frozen=True)
class InnerSolveOptions:
    """Stopping control for the monotone sweep."""

    tol: float = 1e-10
    max_iter: int = 500

    def __post_init__(self):
        if not self.tol > 0.0:
            raise ParameterDomainError("tol must be positive")
        if self.max_iter < 1:
            raise ParameterDomainError("max_iter must be at least 1")


@dataclass
class InnerSolveResult:
    """Converged tau plus iteration diagnostics."""

    tau: TauFunction
    iterations: int
    residual: float
    barrier: float
    certified: bool


def _sweep(grid, plan, weighted_g, cum, linear_coeff, v):
    """One application of the tau update, vectorized over all nodes.

    ``cum`` is the plain (uncorrected) cumulative log-integral table of the
    current tau.  The kernel exp(I(z_j) - I(z_j - y)) interpolates the table
    linearly in w: for a point in interval a with w fraction lam its
    exponent is (c_j - c_a) + lam (c_a - c_{a+1}), where the first
    difference is formed once per plan pair, the second once per interval,
    and the point only adds its fraction.
    The exponent equals c_j - ((1 - lam) c_a + lam c_{a+1}), the same convex
    combination as a per-point interpolation, so order in tau is preserved.
    """
    base = cum[plan.pair_row]
    base -= cum[plan.pair_a]  # in place: one pair-length array, not two
    contrib = plan.pair_exp(base, cum[:-1] - cum[1:], plan.x_lam_w)
    contrib *= weighted_g
    h = plan.row_sums(contrib)
    z = grid.nodes
    out = np.empty(grid.n)
    out[0] = 0.0
    out[1:] = z[1:] / ((1.0 - v) * z[1:] + 1.0) * (linear_coeff + h[1:])
    return out, h


def apply_tau_operator(
    G: GridFunction, tau: TauFunction, params: ModelParams
) -> TauFunction:
    """Single application of the fixed-point map to tau with datum G.

    The output vanishes at z = 0, has slope 2 - v - 2 m0 there, is
    nonnegative for any admissible input, and preserves pointwise order in
    tau.
    """
    if not (G.grid is tau.grid or np.array_equal(G.grid.nodes, tau.grid.nodes)):
        raise GridMismatchError("datum and tau must share a grid")
    grid = G.grid
    plan = grid.half_range_plan()
    weighted_g = plan.weights * sample_on_plan(plan, G)
    cum = cumulative_log_integral(tau, corrected=False)
    vals, _ = _sweep(grid, plan, weighted_g, cum, params.linear_coefficient, params.v)
    return TauFunction(
        grid=grid,
        values=vals,
        slope0=params.linear_coefficient,
        limit_inf=params.tau_inf,
    )


def inner_solve(
    G: GridFunction,
    params: ModelParams,
    opts: InnerSolveOptions = InnerSolveOptions(),
    *,
    force: bool = False,
) -> InnerSolveResult:
    """Monotone iteration from the constant barrier down to the fixed point.

    Starts at tau_star (or, with ``force`` above the threshold, at the
    uncertified cap 2 * tau_inf) and applies the update until the sup-norm
    of the sweep falls below ``opts.tol``.  Iterates are verified to
    decrease pointwise within rounding slack and are clamped to the barrier
    interval afterwards; a violation beyond slack aborts with a consistency
    error unless the run is forced, in which case it downgrades to a
    warning.
    """
    m0_actual = moment(G, 0)
    if abs(m0_actual - params.m0) > _M0_MATCH_RTOL * max(params.m0, 1e-300):
        raise ParameterDomainError(
            f"datum has M0 = {m0_actual}, expected m0 = {params.m0}"
        )
    certified = True
    try:
        constants = derive_constants(params)
        cap = constants.tau_star
    except (ThresholdExceededError, ParameterDomainError):
        # above the admissibility threshold (or even outside m0 < v/2)
        if not force:
            raise
        certified = False
        cap = OVERRIDE_CAP_FACTOR * params.tau_inf
        warnings.warn(
            "m0 above the admissibility threshold: iterating from an "
            "uncertified cap, monotonicity checks downgraded to warnings",
            RuntimeWarning,
            stacklevel=2,
        )

    grid = G.grid
    plan = grid.half_range_plan()
    weighted_g = plan.weights * sample_on_plan(plan, G)
    slack = MONOTONICITY_SLACK * cap
    linear_coeff = params.linear_coefficient

    tau = TauFunction(
        grid=grid,
        values=np.full(grid.n, cap),
        slope0=linear_coeff,
        limit_inf=cap,
    )

    residual = np.inf
    warned = False
    for iteration in range(1, opts.max_iter + 1):
        cum = cumulative_log_integral(tau, corrected=False)
        with np.errstate(over="ignore", invalid="ignore"):
            new_vals, _ = _sweep(grid, plan, weighted_g, cum, linear_coeff, params.v)
        if not np.all(np.isfinite(new_vals)):
            raise NumericalConsistencyError(
                f"sweep {iteration} left the float range: the kernel exp(I(z) - I(z-y)) "
                f"under the barrier {cap:.6g} overflows on this {grid.n}-node grid"
            )
        low = float(np.min(new_vals))
        rise = float(np.max(new_vals - tau.values))
        if low < -slack or rise > slack:
            msg = (
                f"monotone sweep violated at iteration {iteration}: "
                f"min={low:.3e}, max increase={rise:.3e}, slack={slack:.3e}"
            )
            if certified:
                raise NumericalConsistencyError(msg)
            if not warned:
                warnings.warn(msg, RuntimeWarning, stacklevel=2)
                warned = True
        residual = float(np.max(np.abs(new_vals - tau.values)))
        np.clip(new_vals, 0.0, cap, out=new_vals)
        tau = TauFunction(
            grid=grid,
            values=new_vals,
            slope0=linear_coeff,
            limit_inf=params.tau_inf,
        )
        if residual <= opts.tol:
            return InnerSolveResult(
                tau=tau,
                iterations=iteration,
                residual=residual,
                barrier=cap,
                certified=certified,
            )
    raise ConvergenceError(
        f"inner iteration did not reach tol={opts.tol} in {opts.max_iter} sweeps "
        f"(last residual {residual:.3e})",
        residual=residual,
        best=tau,
    )


def reconstruct_profile(tau: TauFunction, params: ModelParams) -> GridFunction:
    """Profile F from its log-derivative, normalized so the zeroth moment
    equals m0 exactly under the package quadrature.

    The shape exp(-int_0^z tau/s ds) uses the endpoint-corrected cumulative
    table; the tail beyond the grid decays with exponent ``tau.limit_inf``.
    """
    if not tau.limit_inf > 1.0:
        raise DivergentMomentError(
            f"normalization integral diverges: tail exponent {tau.limit_inf} <= 1"
        )
    if np.min(tau.values) < 0.0:
        raise ParameterDomainError("tau must be nonnegative")
    shape_vals = np.exp(-cumulative_log_integral(tau, corrected=True))
    shape = GridFunction(tau.grid, shape_vals, tail_exponent=tau.limit_inf)
    m0_shape = moment(shape, 0)
    return GridFunction(
        tau.grid,
        (params.m0 / m0_shape) * shape_vals,
        tail_exponent=tau.limit_inf,
    )
