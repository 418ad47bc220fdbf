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
converges.  h comes from the pair rules of the half-range plan in ``grids``;
every quadrature weight on this path is nonnegative (plain trapezoid, convex
interpolation, and per plan pair a two-node Gauss rule of a nonnegative
measure), which makes the pointwise monotonicity checkable to rounding slack.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NumericalConsistencyError, ParameterDomainError
from .grids import (
    GridFunction,
    TauFunction,
    _with_mass,
    cumulative_log_integral,
    moment,
)
from .model import ModelParams, iteration_barrier

__all__ = [
    "InnerSolveOptions",
    "InnerSolveResult",
    "inner_solve",
    "reconstruct_profile",
]

# Absolute rounding slack, in units of the barrier, for the pointwise
# monotonicity assertions; trapezoid sums and exponentials commit this much
# noise but no more.
MONOTONICITY_SLACK = 1e-13

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
    """Converged tau plus iteration diagnostics: the sweep count and the
    sup-norm of the last sweep.  The barrier the sweep started from is
    ``model.iteration_barrier``'s."""

    tau: TauFunction
    iterations: int
    residual: float


def _step(rule, tau: TauFunction, params: ModelParams) -> np.ndarray:
    """One application of the fixed-point map to tau with the plan's pair
    rule ``rule``: order preserving, as h is (``kernel_sums``) and enters with
    a positive factor.  A kernel that overflows is a consistency error."""
    cum = cumulative_log_integral(tau, corrected=False)
    grid, z = tau.grid, tau.grid.nodes
    vals = np.zeros(grid.n)
    with np.errstate(over="ignore", invalid="ignore"):
        h = rule.kernel_sums(cum)
        vals[1:] = z[1:] / ((1.0 - params.v) * z[1:] + 1.0) * (params.linear_coefficient + h[1:])
    if not np.all(np.isfinite(vals)):
        raise NumericalConsistencyError(
            f"a sweep left the float range: the kernel exp(I(z) - I(z-y)) under "
            f"tau <= {float(np.max(tau.values)):.6g} overflows on this {grid.n}-node grid"
        )
    return vals


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
    cap, certified = iteration_barrier(params, force)
    if not certified:
        warnings.warn(
            "m0 above the admissibility threshold: iterating from an "
            "uncertified cap, monotonicity checks downgraded to warnings",
            RuntimeWarning,
            stacklevel=2,
        )

    grid = G.grid
    rule = grid.half_range_plan().pair_rule(G)
    slack = MONOTONICITY_SLACK * cap
    linear_coeff = params.linear_coefficient

    tau = TauFunction(grid=grid, values=np.full(grid.n, cap), slope0=linear_coeff)

    residual = np.inf
    warned = False
    for iteration in range(1, opts.max_iter + 1):
        new_vals = _step(rule, tau, params)
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
        tau = TauFunction(grid=grid, values=new_vals, slope0=linear_coeff)
        if residual <= opts.tol:
            return InnerSolveResult(tau=tau, iterations=iteration, residual=residual)
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
    table; the tail beyond the grid decays with exponent ``params.tau_inf``,
    which is at least 2 for every v in (0, 1), so the mass is finite.
    """
    if np.min(tau.values) < 0.0:
        raise ParameterDomainError("tau must be nonnegative")
    shape_vals = np.exp(-cumulative_log_integral(tau, corrected=True))
    return _with_mass(GridFunction(tau.grid, shape_vals, tail_exponent=params.tau_inf), params.m0)
