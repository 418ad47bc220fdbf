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

The map is also causal, of Volterra type: the image at z reads tau on
[z/2, z] only.  The discrete map keeps this, because the plain log-integral
table is a prefix sum and the rules of row j read it at nodes up to j only
(``grids._PairRule.kernel_sums``).  So ``inner_solve`` marches the pair
blocks of the plan in row order, and a block is swept only once the rows
before it are final; only that block's rule is alive.  The barrier argument
holds per block.  The earlier rows end in [0, cap], so the cap on the
block's rows maps below the image of the constant cap on all rows, which is
at most the cap; the block's map is order preserving, so its sweep from the
cap decreases pointwise.  Its limit is the fixed point of the block with
the earlier rows at theirs, block by block the fixed point of the all-rows
iteration.

The barrier is only the one start known in advance.  Any tau in [0, cap]
that the map sends below itself is a supersolution too, and the sweep from
it decreases to a fixed point below it.  So ``inner_solve`` takes a start,
in the outer solve the previous step's tau raised by a margin
(``profiles._picard``), and keeps it on a block only if the block's first
sweep does not rise; otherwise the block restarts at the barrier.  Both
starts reach the same tau if the discrete fixed point in [0, cap] is
unique, which the sweeps assume and the tests check.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NumericalConsistencyError, ParameterDomainError
from .grids import (
    GridFunction,
    TauFunction,
    _continue_log_integral,
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
    """Converged tau plus iteration diagnostics: the most sweeps any pair
    block took, a wasted one included, the largest sup-norm of a block's
    last sweep, and the number of blocks whose start was no supersolution
    and that restarted at the barrier, each after one wasted sweep.  The
    barrier is ``model.iteration_barrier``'s."""

    tau: TauFunction
    iterations: int
    residual: float
    restarts: int


def _step(rule, tau: TauFunction, cum: np.ndarray, params: ModelParams) -> np.ndarray:
    """One application of the fixed-point map to tau on the rows of the pair
    block ``rule``: the image at the nodes rows.start + 1 to rows.stop, from
    the plain log-integral table ``cum`` of tau, which the block reads up to
    node rows.stop + 1.  Order preserving, as h is (``kernel_sums``) and
    enters with a positive factor.  A kernel that overflows is a consistency
    error."""
    grid = tau.grid
    z = grid.nodes[rule.rows.start + 1:rule.rows.stop + 1]
    with np.errstate(over="ignore", invalid="ignore"):
        vals = z / ((1.0 - params.v) * z + 1.0) * (params.linear_coefficient
                                                    + rule.kernel_sums(cum))
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
    start: TauFunction | None = None,
) -> InnerSolveResult:
    """Monotone iteration from a supersolution down to the fixed point, one
    pair block at a time.

    The barrier is tau_star (or, with ``force`` above the threshold, the
    uncertified cap 2 * tau_inf).  The blocks of the plan's ``pair_rule``
    are solved in row order: with the rows before it final, a block's rows
    are swept until the sup-norm of the sweep falls below ``opts.tol``, in
    at most ``opts.max_iter`` sweeps, and then its rule is dropped.  Each
    block starts at the barrier, or, given ``start``, at
    min(cap, max(start, 0)).  A warm start is kept only if the block's first
    sweep rises nowhere beyond slack, so that it is a supersolution of the
    block's map; otherwise that sweep is wasted and the block restarts at
    the barrier (``restarts`` counts these blocks).  Iterates are verified
    to decrease pointwise within rounding slack and are clamped to the
    barrier interval afterwards; a violation beyond slack aborts with a
    consistency error unless the run is forced, in which case it downgrades
    to a warning.

    A kept start s lies above the fixed point: the block's map T is order
    preserving, so T(s) <= s gives a decreasing sweep whose limit is a fixed
    point below s (the sub- and supersolution method; Amann, SIAM Review 18
    (1976)).  It is the barrier start's fixed point if the block's discrete
    map has only one fixed point in [0, cap], which the sweeps assume: in
    the continuum, for a fixed datum the auxiliary problem is linear in F,
    so its tau is unique, and the tests check that the iterations from 0
    and from the cap meet.
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
    slack = MONOTONICITY_SLACK * cap
    tau = TauFunction(grid=grid, values=np.full(grid.n, cap), slope0=params.linear_coefficient)
    values = tau.values  # swept in place, one block of rows at a time
    if start is not None:
        np.clip(start.values, 0.0, cap, out=values)
    values[0] = 0.0  # the image at z = 0, where no row reads tau
    cum = np.zeros(grid.n)
    stale = 1  # cum holds the plain log-integral table of tau below this node

    iterations, residual, restarts = 0, 0.0, 0
    warned = False
    for rule in grid.half_range_plan().pair_rule(G):
        block = slice(rule.rows.start + 1, rule.rows.stop + 1)
        reads = min(block.stop + 1, grid.n)  # the last row reads cum at node block.stop
        warm = start is not None  # the first sweep tests the start of the block
        wasted = 0
        for sweep in range(1, opts.max_iter + 2):
            _continue_log_integral(cum, tau, stale, reads)
            stale = block.start
            new_vals = _step(rule, tau, cum, params)
            change = new_vals - values[block]
            low = float(np.min(new_vals))
            rise = float(np.max(change))
            if warm:
                warm = False
                if rise > slack:  # the start is no supersolution: restart at the barrier
                    values[block] = cap
                    wasted = 1
                    continue
            if low < -slack or rise > slack:
                msg = (
                    f"monotone sweep violated at sweep {sweep} of nodes {block.start} "
                    f"to {block.stop - 1}: min={low:.3e}, max increase={rise:.3e}, "
                    f"slack={slack:.3e}"
                )
                if certified:
                    raise NumericalConsistencyError(msg)
                if not warned:
                    warnings.warn(msg, RuntimeWarning, stacklevel=2)
                    warned = True
            step = float(np.max(np.abs(change)))
            np.clip(new_vals, 0.0, cap, out=values[block])
            if step <= opts.tol:
                break
            if sweep - wasted == opts.max_iter:
                raise ConvergenceError(
                    f"inner iteration did not reach tol={opts.tol} in {opts.max_iter} sweeps "
                    f"on nodes {block.start} to {block.stop - 1} (last residual {step:.3e})",
                    residual=step,
                    best=tau,
                )
        iterations = max(iterations, sweep)
        residual = max(residual, step)
        restarts += wasted
    return InnerSolveResult(tau=tau, iterations=iterations, residual=residual, restarts=restarts)


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
