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
trapezoid, convex-combination interpolation, and within each plan pair a
two-node Gauss rule of a nonnegative measure), which is what makes the
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
)
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
    "apply_tau_operator",
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
    """Converged tau plus iteration diagnostics."""

    tau: TauFunction
    iterations: int
    residual: float
    barrier: float
    certified: bool


def _moments(dlam, omega, starts) -> np.ndarray:
    """Moments 0-3 of the measures sum_k omega_k delta(dlam_k), one per
    run of points from each of ``starts`` to the next, as an array of shape
    (4, runs).  ``omega`` is overwritten by the running product."""
    moments = np.empty((4, starts.size))
    np.add.reduceat(omega, starts, out=moments[0])
    for k in (1, 2, 3):
        omega *= dlam
        np.add.reduceat(omega, starts, out=moments[k])
    return moments


# A pair measure whose variance is at most this fraction of its second
# moment about the first point is one atom up to rounding; its Gauss rule
# is the one node at the mean (two nodes would land anywhere, even outside
# [0, 1]).
_ONE_NODE_VARIANCE = 1e-14


def _two_node_rule(lam0, moments):
    """Nodes and weights, each of shape (2, pairs), of the two-node Gauss
    rule of each measure mu_p on [0, 1] whose moments 0-3 about ``lam0[p]``
    are ``moments[:, p]`` (overwritten).

    With the central moments c2, c3 and q = c3/c2 the nodes are
    mean + (q -/+ sqrt(q^2 + 4 c2))/2, the roots of the degree-2 orthogonal
    polynomial, and the weights m0 x2/(x2 - x1) and -m0 x1/(x2 - x1) solve
    the moment-0 and -1 equations.  For a nonnegative measure the nodes lie
    in the hull of its support and the weights are nonnegative and sum to
    the mass, so the rule is a convex combination; rounding is clipped
    back to [0, 1].  A measure of at most two atoms is reproduced: two atoms
    give back themselves, one atom (or a variance at rounding level) the
    single node at the mean with the whole mass, and a zero mass zero
    weights.
    """
    m0 = moments[0]
    moments[1:] /= np.where(m0 > 0.0, m0, 1.0)  # a zero mass stays a zero measure
    mean, s2, s3 = moments[1:]
    c2 = s2 - mean * mean
    c3 = s3 - mean * (3.0 * s2 - 2.0 * mean * mean)
    two = c2 > _ONE_NODE_VARIANCE * s2
    # a one-node measure runs the two-node formulas with c2 = 1 and then
    # takes the node at the mean with the whole mass instead
    c2 = np.where(two, c2, 1.0)
    q = c3 / c2
    r = np.sqrt(q * q + 4.0 * c2)
    nodes = np.stack((q - r, q + r))
    nodes *= 0.5
    scale = m0 / (nodes[1] - nodes[0])
    weights = np.stack((np.where(two, nodes[1] * scale, m0),
                        np.where(two, -nodes[0] * scale, 0.0)))
    nodes *= two
    nodes += lam0 + mean
    return np.clip(nodes, 0.0, 1.0, out=nodes), weights


@dataclass(eq=False)
class _PairRule:
    """Two-node Gauss rules of the plan pairs of positive mass (``_pair_rule``):
    pair p lies in the row of node ``row[p]`` and grid interval ``a[p]``; its
    measure becomes the ``weights[:, p]`` at the w fractions ``nodes[:, p]``."""

    row: np.ndarray
    a: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray


def _pair_rule(G: GridFunction) -> _PairRule:
    """The Gauss rules of the half-range plan pairs for datum G, fixed for a
    whole inner solve: each pair's measure carries the point weights
    trapezoid weight * G(y), whose moments 0-3 are taken one plan block at
    a time.  Pairs of zero mass are left out: they contribute 0."""
    plan = G.grid.half_range_plan()
    nodes = np.empty((2, plan.pair_count.size))
    weights = np.empty_like(nodes)
    for _, pairs, points, omega in plan.blocks(G):
        count = plan.pair_count[pairs]
        moments = _moments(plan.x_dlam_w[points], omega, np.cumsum(count) - count)
        nodes[:, pairs], weights[:, pairs] = _two_node_rule(plan.pair_lam_w[pairs], moments)
    live = np.any(weights > 0.0, axis=0)
    if live.all():
        live = slice(None)  # views, no copies
    return _PairRule(plan.pair_row[live], plan.pair_a[live], nodes[:, live], weights[:, live])


def _sweep(grid, rule, cum, linear_coeff, v):
    """One application of the tau update, vectorized over all nodes.

    ``cum`` is the plain (uncorrected) cumulative log-integral table of the
    current tau.  The kernel exp(I(z_j) - I(z_j - y)) interpolates the table
    linearly in w, so within a plan pair in interval a its exponent is
    (c_j - c_a) + lam (c_a - c_{a+1}) at the w fraction lam, and the pair's
    sum over its points is the integral of that exponential against the
    pair's measure on [0, 1].  ``rule`` replaces each measure by its
    two-node Gauss rule: per pair the two differences are formed once and
    each node costs one exp.  Every node is a convex fraction lam in [0, 1]
    with a nonnegative weight, and its exponent equals
    c_j - ((1 - lam) c_a + lam c_{a+1}), a convex combination of
    differences that grow with tau, so order in tau is preserved.
    """
    slope = cum[rule.a]
    base = cum[rule.row]
    base -= slope
    slope -= cum[1:][rule.a]  # in place: c_a - c_{a+1}
    terms = rule.nodes * slope
    terms += base
    np.exp(terms, out=terms)
    terms *= rule.weights
    h = 2.0 * np.bincount(rule.row, weights=terms[0] + terms[1], minlength=grid.n)
    z = grid.nodes
    out = np.empty(grid.n)
    out[0] = 0.0
    out[1:] = z[1:] / ((1.0 - v) * z[1:] + 1.0) * (linear_coeff + h[1:])
    return out, h


def _step(grid, rule, tau: TauFunction, params: ModelParams) -> np.ndarray:
    """The values of one application of the fixed-point map to tau with the
    pair rule ``rule``; a kernel that overflows is a consistency error."""
    cum = cumulative_log_integral(tau, corrected=False)
    with np.errstate(over="ignore", invalid="ignore"):
        vals, _ = _sweep(grid, rule, cum, params.linear_coefficient, params.v)
    if not np.all(np.isfinite(vals)):
        raise NumericalConsistencyError(
            f"a sweep left the float range: the kernel exp(I(z) - I(z-y)) under "
            f"tau <= {float(np.max(tau.values)):.6g} overflows on this {grid.n}-node grid"
        )
    return vals


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
    return TauFunction(
        grid=G.grid,
        values=_step(G.grid, _pair_rule(G), tau, params),
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
    cap, certified = iteration_barrier(params, force)
    if not certified:
        warnings.warn(
            "m0 above the admissibility threshold: iterating from an "
            "uncertified cap, monotonicity checks downgraded to warnings",
            RuntimeWarning,
            stacklevel=2,
        )

    grid = G.grid
    rule = _pair_rule(G)
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
        new_vals = _step(grid, rule, tau, params)
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
    return _with_mass(GridFunction(tau.grid, shape_vals, tail_exponent=tau.limit_inf), params.m0)
