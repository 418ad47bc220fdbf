"""Outer fixed-point solve of the full self-similar system and its
certification diagnostics (residual, moments, tail-exponent fit).

The outer solve is seeded from a ladder of coarser solves of the same zmax,
each with (n-1)//4 + 1 nodes of the one above (``_ladder_seed``).  The tau
sweep's quadrature is of order 2 in dw, so the log-profile on a grid of
step h errs by about C h^2, and the two rungs below a grid give, by one
Richardson step, its solution up to O(h^4).  Within a level, every inner
solve starts from the tau of the step before, raised to lie above its
next fixed point (``_picard``); a start that does not is detected by its
first sweep and replaced by the barrier (``inner_solve``).  A level also
stops when the contraction bound on its distance to the fixed point
reaches the tolerance, with the contraction estimated on its own steps and
on the rungs below it, so the first iterate on a well-seeded grid can be
its last.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import CoagDriftError, ConvergenceError, ParameterDomainError
from .grids import (
    Grid,
    GridFunction,
    TauFunction,
    _derivative_uniform,
    _with_mass,
    build_grid,
    half_convolution_at_nodes,
    moment,
)
from .model import ModelParams, iteration_barrier, supersolution_value
from .tau_iteration import InnerSolveOptions, inner_solve, reconstruct_profile

__all__ = [
    "SolveReport",
    "Certification",
    "OuterSolveOptions",
    "TailFit",
    "exponential_grid_function",
    "seed_profile",
    "outer_solve",
    "recover_tau",
    "residual_selfsimilar",
    "weighted_residual_norm",
    "tail_exponent_fit",
    "certification_checks",
]

# Default certification bound on the weighted residual norm of a converged
# profile; the default grid (2049 nodes, zmax 1e6) lands two orders below it.
DEFAULT_RESIDUAL_TOL = 1e-5

# Certification check tolerances.  F(0) = m0 (1 - m0), M0 = m0 and
# M1 = m0/v are identities of the solution; the tail exponent must fit
# (2-v)/(1-v) within a percent, the M1 bound is tail-closure limited.
CERT_F0_RTOL = 1e-6
CERT_M0_RTOL = 1e-6
CERT_M1_RTOL = 5e-3
CERT_TAIL_RTOL = 1e-2
NON_POWER_LAW_DEVIATION = 0.05

# Smallest coarse grid that seeds the outer solve; below it the solve starts
# from the exponential seed.  Timed cold, a 65-node coarse level makes the
# 257-node solve up to 19% slower, a 129-node one the 513-node solve 1% slower
# to 13% faster, and a 257-node one the 1025-node solve 10-22% faster.
_MIN_COARSE_NODES = 129

# The quadrature of the tau sweep is of order 2 in dw (plain trapezoid and
# interpolation linear in log F): the order of the ladder's Richardson step.
_SWEEP_ORDER = 2

# Relative margin over the recovered tau of a Richardson seed, the first
# inner solve's start.  Measured at 2049 nodes, that solve's tau exceeds
# the recovered one by at most 2.3e-7 relative on 15 unforced points
# (v 0.05-0.9, m0/m0_bar 0.1-0.9) and by 1.6e-6 on a forced run at
# (0.5, 0.1); 1e-5 covers them for about one more sweep than the tight
# margin.  A start still below its fixed point costs a block one sweep and
# a restart at the barrier: the forced run at (0.5, 0.45) needs 6.5e-5, and
# one of its 15 blocks restarts.
_SEED_MARGIN = 1e-5

# Safety factor on a level's contraction estimate (the largest ratio of
# successive falling update norms, over its own steps and the converged
# rungs below it) before the contraction bound q/(1-q) * update norm is
# trusted.  Measured on 29 points at 1025-4097 nodes, the fine level's own
# first ratio exceeds the estimate carried up the ladder by at most 1.18x
# (v ~ 0.7 at half the threshold); 10 keeps over 5x margin on that.  From
# q = 0.5 on, that is steps that shrink by less than 20x, the bound is no
# tighter than the update norm, so the forced runs at v = 0.5 and
# m0 = 0.1 to 0.45 (ratios 0.064 to 0.34) stop as they did without it.
_CONTRACTION_SAFETY = 10.0

# The tail fit window: the top two decades of the grid.
_TAIL_FIT_DECADES = 2.0


@dataclass
class SolveReport:
    """Convergence and certification diagnostics of one solve.

    The iteration counts are those of the solve's own grid; ``seed_nodes``
    is the node count of the coarse solve that seeded it, 0 for the
    exponential seed.  ``fp_residual`` is the quantity compared with the
    outer tolerance: the contraction bound on the distance to the fixed
    point where the solve stopped on it, the last update norm elsewhere
    (see ``_picard``).
    """

    outer_iterations: int
    inner_iterations_total: int
    inner_restarts: int
    fp_residual: float
    model_residual_norm: float
    F0: float
    M0: float
    M1: float
    tail_exponent_fit: float
    tail_fit_deviation: float
    tail_prefactor_fit: float
    certified: bool
    forced: bool
    seed_nodes: int

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class _Level:
    """One grid solved by ``_picard``: its last iterate, the outer and inner
    iteration counts, the pair blocks that restarted at the barrier (each
    after one wasted sweep), the quantity compared with the tolerance (the
    contraction bound where the level stopped on it, else the last update
    norm), whether it reached the tolerance, and the contraction estimate
    (the largest ratio of successive falling update norms over the level's
    steps and the rungs it was handed; None if there were none)."""

    F: GridFunction
    outer_iterations: int
    inner_iterations: int
    restarts: int
    update_norm: float
    converged: bool
    contraction: float | None


@dataclass(frozen=True)
class OuterSolveOptions:
    """Grid specification plus outer iteration control.

    The update norm is the sup over nodes of the iterate difference times
    (1+z)^(tau_inf - 1/2), which keeps the tail visible where the plain
    sup-norm is blind.  ``tol`` bounds the estimated distance to the fixed
    point: the iteration stops when the update norm, or the contraction
    bound on that distance (see ``_picard``), reaches ``tol``, when the
    norm does not fall below the previous one (a stall, or an infinite or
    NaN norm), or after ``max_outer`` iterations.
    """

    zmax: float = 1e6
    nodes: int = 2049
    tol: float = 1e-9
    max_outer: int = 80
    inner: InnerSolveOptions = field(default_factory=InnerSolveOptions)
    tol_residual: float = DEFAULT_RESIDUAL_TOL
    force: bool = False

    def __post_init__(self):
        if not self.tol > 0.0:
            raise ParameterDomainError("tol must be positive")
        if self.max_outer < 1:
            raise ParameterDomainError("max_outer must be at least 1")


def exponential_grid_function(v: float, grid: Grid) -> GridFunction:
    """The exponential solution family (1-v) v e^(-v z) sampled on the grid.

    It solves the profile equation exactly with m0 = 1 - v; its moments are
    M0 = 1 - v and M1 = (1-v)/v, hence v = M0/M1.  Its tail decays faster
    than any power, so the tail exponent is infinite.
    """
    if not (0.0 < v < 1.0):
        raise ParameterDomainError(f"v must lie in (0, 1), got {v}")
    return GridFunction(grid, (1.0 - v) * v * np.exp(-v * grid.nodes), tail_exponent=math.inf)


def seed_profile(params: ModelParams, grid: Grid) -> GridFunction:
    """Outer initial guess m0 * v * e^(-v z), scaled so that M0 = m0 under
    the package quadrature (on a coarse or short grid the quadrature of the
    exact profile misses m0 by more than the inner solve tolerates)."""
    vals = params.m0 * params.v * np.exp(-params.v * grid.nodes)
    return _with_mass(GridFunction(grid, vals, tail_exponent=math.inf), params.m0)


def _tail_weight(grid: Grid, exponent: float) -> np.ndarray:
    """(1+z)^exponent at the nodes, inf where it overflows."""
    with np.errstate(over="ignore"):
        return (1.0 + grid.nodes) ** exponent


def _weighted_sup(values: np.ndarray, weight: np.ndarray) -> float:
    """sup over nodes of |values| * weight, where a zero entry weighs 0 even
    under an infinite weight, so finite values never give NaN."""
    a = np.abs(values)
    with np.errstate(over="ignore"):
        return float(np.max(np.multiply(a, weight, out=np.zeros_like(a), where=a != 0.0)))


def _relative_update(before: TauFunction, after: TauFunction) -> float:
    """sup over the nodes z > 0 of |after - before| / after; tau is positive
    there after a sweep."""
    return float(np.max(np.abs(after.values[1:] - before.values[1:]) / after.values[1:]))


def _picard(params: ModelParams, G: GridFunction, opts: OuterSolveOptions,
            start: TauFunction | None = None, contraction: float | None = None):
    """Picard iteration of the auxiliary solution map from the datum G, on
    G's grid.  It stops as soon as the update norm does not fall below the
    previous one, or after ``opts.max_outer`` iterations, and else when the
    update norm reaches ``opts.tol`` or the contraction bound does.

    The bound is the a-posteriori one of the contraction mapping principle,
    dist(F, F*) <= q/(1-q) * update norm for a map of contraction q < 1.
    q is ``_CONTRACTION_SAFETY`` times the estimate: the largest ratio of
    successive falling update norms over this level's steps and
    ``contraction``, the estimate of the converged rungs below (None for
    none).  The bound only counts where it is below the update norm, that
    is for q < 1/2.

    Every inner solve starts, per pair block, at min(cap, s (1 + delta)),
    where s and delta are known (see ``inner_solve``): s is the previous
    step's tau and delta the largest relative update of tau in that step,
    which the contracting outer iteration does not reach again (measured
    on 18 points at 2049 nodes, the next update is at least 50 times
    smaller unforced and 2 times forced at m0 = 0.45); for the first
    step, s is ``start`` (the recovered tau of a Richardson seed) and
    delta ``_SEED_MARGIN``.  The first step without a start, and the step
    after it, start at the barrier.

    Returns the ``_Level`` of G's grid, with its contraction estimate.
    """
    grid = G.grid
    weight = _tail_weight(grid, params.tau_inf - 0.5)
    prev_norm = math.inf
    inner_total = restarts = 0
    last, margin = start, None if start is None else _SEED_MARGIN
    for outer_iterations in range(1, opts.max_outer + 1):
        warm = None
        if margin is not None:
            warm = TauFunction(grid, (1.0 + margin) * last.values, slope0=last.slope0)
        result = inner_solve(G, params, opts.inner, force=opts.force, start=warm)
        inner_total += result.iterations
        restarts += result.restarts
        margin = None if last is None else _relative_update(last, result.tau)
        last = result.tau
        F = reconstruct_profile(last, params)
        delta = F.values - G.values
        update_norm = _weighted_sup(delta, weight)
        if not update_norm < prev_norm:
            break
        if prev_norm < math.inf:
            contraction = max(contraction or 0.0, update_norm / prev_norm)
        if update_norm <= opts.tol:
            break
        if contraction is not None and (q := _CONTRACTION_SAFETY * contraction) < 0.5:
            if (bound := q / (1.0 - q) * update_norm) <= opts.tol:
                update_norm = bound
                break
        prev_norm = update_norm
        G = _with_mass(GridFunction(grid, G.values + delta, tail_exponent=params.tau_inf),
                       params.m0)
    return _Level(F, outer_iterations, inner_total, restarts, update_norm,
                  converged=update_norm <= opts.tol, contraction=contraction)


def _prolong_log(F: GridFunction, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """log F carried from its rung to the nodes of ``grid``, a grid of the
    same zmax and v, both uniform in w: 4-point Lagrange interpolation in
    w, exact on exp(cubic in w) and at the nodes the grids share.  Returns
    the logs and the mask of the nodes whose stencil holds only positive
    samples; the log is 0 elsewhere.  This rule only carries a rung up the
    ladder; the quadrature's is ``GridFunction._interpolant``."""
    n, N = F.grid.n, grid.n
    idx, rem = np.divmod(np.arange(N) * (n - 1), N - 1)  # w_i in rung steps, exactly
    first = np.clip(idx - 1, 0, n - 4)
    t = (idx - first) + rem / (N - 1)  # the position in the stencil first .. first + 3
    samples = F.values[first[:, None] + np.arange(4)]
    ok = np.all(samples > 0.0, axis=1)
    logs = np.log(samples, out=np.zeros_like(samples), where=ok[:, None])
    weights = np.stack([-(t - 1.0) * (t - 2.0) * (t - 3.0) / 6.0,
                        t * (t - 2.0) * (t - 3.0) / 2.0,
                        -t * (t - 1.0) * (t - 3.0) / 2.0,
                        t * (t - 1.0) * (t - 2.0) / 6.0], axis=1)
    return np.einsum("ij,ij->i", logs, weights), ok


def _richardson_weight(N: int, n: int, n2: int) -> float:
    """Weight c of the step L(n) + c (L(n) - L(n2)) that carries the
    solution on n nodes to the one on N, for an error of order
    _SWEEP_ORDER in dw: 1/16 for rungs 4x apart."""
    e = [(m - 1.0) ** -_SWEEP_ORDER for m in (N, n, n2)]
    return (e[0] - e[1]) / (e[1] - e[2])


def _seed_from(params: ModelParams, grid: Grid, below: list[GridFunction]):
    """Seed of the solve on ``grid`` from the converged rungs ``below`` (at
    most two, finest last), scaled to mass m0, and the first inner solve's
    start, if the seed gives one.

    From two rungs the seed is exp of the Richardson step of their log F,
    both carried up by ``_prolong_log``, towards the solution on ``grid``,
    and its start is the seed's recovered tau.  Log-linear interpolation
    errs by O(dw^2), the order the step removes, hence the 4-point rule.
    Wherever a stencil holds a nonpositive sample, and from one rung
    alone, the seed is the finest rung's F(nodes), whose kinked log gives
    no start; with no rung it is the exponential seed.
    """
    if not below:
        return seed_profile(params, grid), None
    vals = below[-1](grid.nodes)
    if len(below) == 1:
        return _with_mass(GridFunction(grid, vals, tail_exponent=params.tau_inf), params.m0), None
    log_f, ok = _prolong_log(below[1], grid)
    log_2, ok_2 = _prolong_log(below[0], grid)
    ok &= ok_2
    log_f += _richardson_weight(grid.n, below[1].grid.n, below[0].grid.n) * (log_f - log_2)
    np.exp(log_f, out=vals, where=ok)
    seed = _with_mass(GridFunction(grid, vals, tail_exponent=params.tau_inf), params.m0)
    return seed, recover_tau(seed)


def _ladder_seed(params: ModelParams, grid: Grid, opts: OuterSolveOptions):
    """Seed of the solve on ``grid``, the first inner solve's start (or
    None), the node count of the rung it came from and the contraction
    estimate of the rungs (or None).

    The rungs have (n-1)//4 + 1 nodes of the same zmax, down from the
    grid's n while a rung keeps at least _MIN_COARSE_NODES.  From the
    coarsest up, each is solved by ``_picard``, forced or not as the fine
    solve, from the seed of ``_seed_from`` on the rungs below it that
    converged: the two finest give the Richardson step, one alone its F at
    the nodes, and none the exponential seed.  Each is handed the
    contraction estimate of the converged rungs below it and returns it
    raised by its own steps.  A rung that does not converge, or raises,
    leaves the next rung the exponential seed and no estimate, and a grid
    seeded so gets seed_nodes 0.  Only the two finest converged rungs
    outlive their solve, and nothing of a rung but its estimate outlives
    the call."""
    sizes, n = [], grid.n
    while (n := (n - 1) // 4 + 1) >= _MIN_COARSE_NODES:
        sizes.append(n)
    below, contraction = [], None
    for n in reversed(sizes):
        try:
            G, start = _seed_from(params, build_grid(opts.zmax, n, params.v), below)
            rung = _picard(params, G, opts, start, contraction)
            below = [*below[-1:], rung.F] if rung.converged else []
            contraction = rung.contraction if rung.converged else None
        except CoagDriftError:
            below, contraction = [], None
    try:
        return (*_seed_from(params, grid, below), below[-1].grid.n if below else 0, contraction)
    except CoagDriftError:
        return seed_profile(params, grid), None, 0, None


def outer_solve(
    params: ModelParams, opts: OuterSolveOptions = OuterSolveOptions()
) -> tuple[GridFunction, SolveReport]:
    """Picard iteration of the auxiliary solution map to its fixed point,
    with residual certification of the result.

    The iteration starts from the seed of the ladder of coarser grids (see
    ``_ladder_seed``), forced or not, with the rungs' contraction estimate.
    Raises a convergence error carrying the last iterate when the iteration
    stops short of ``opts.tol`` (see ``_picard``).  Above the
    admissibility threshold the solve refuses to run unless ``opts.force``
    is set, and a forced run is only certified if the residual test passes.
    """
    forced = not iteration_barrier(params, opts.force)[1]
    grid = build_grid(opts.zmax, opts.nodes, params.v)
    G, start, seed_nodes, contraction = _ladder_seed(params, grid, opts)
    level = _picard(params, G, opts, start, contraction)
    F, norm, steps = level.F, level.update_norm, level.outer_iterations
    cert = certification_checks(F, params, opts.tol_residual)
    fit = cert.fit or TailFit(math.nan, math.nan, math.nan, 0)
    report = SolveReport(
        outer_iterations=steps,
        inner_iterations_total=level.inner_iterations,
        inner_restarts=level.restarts,
        fp_residual=norm,
        model_residual_norm=cert.residual_norm,
        F0=float(F.values[0]),
        M0=cert.M0,
        M1=cert.M1,
        tail_exponent_fit=fit.exponent,
        tail_fit_deviation=fit.max_deviation,
        tail_prefactor_fit=fit.prefactor,
        certified=level.converged and cert.ok,
        forced=forced,
        seed_nodes=seed_nodes,
    )
    if not level.converged:
        if math.isfinite(norm):
            msg = (f"outer iteration stopped short of tol={opts.tol} at iteration "
                   f"{steps} (cap {opts.max_outer}): last update norm {norm:.3e}")
        else:
            msg = (f"update norm {norm} at outer iteration {steps}: the tail weight "
                   f"(1+z)^{params.tau_inf - 0.5:.6g} overflows on this grid; lower "
                   f"zmax (now {opts.zmax:g})")
        raise ConvergenceError(msg, residual=norm, best=F, report=report)
    return F, report


@dataclass(frozen=True)
class Certification:
    """Certification figures of a profile and its named checks.

    ``checks`` lists ``(name, ok, detail)`` for residual, M0, M1, F0,
    tail, monotone and, inside the fat-tail regime, barrier.  ``fit`` is
    None when the tail could not be fitted (the tail check then fails).
    """

    residual_norm: float
    M0: float
    M1: float
    fit: TailFit | None
    checks: list[tuple[str, bool, str]]

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def _relative_check(name, value, target, rtol):
    err = abs(value - target)
    return name, err <= rtol * target, f"{name}={value:.10g} rel_err={err / target:.2e}"


def _tail_check(F: GridFunction, fit: TailFit | None, why: str, tau_inf: float):
    """The tail the profile declares: a finite ``tail_exponent`` must fit a
    power law with exponent tau_inf, an infinite one must not fit any.  A
    tail that underflows to zero in the fit window is no power law."""
    if fit is None:
        if math.isinf(F.tail_exponent) and why == _NONPOSITIVE_WINDOW:
            return "tail", True, f"declared exponential, fit is non-power-law ({why})"
        return "tail", False, f"no power-law fit ({why})"
    power_law = fit.max_deviation <= NON_POWER_LAW_DEVIATION
    shape = (f"{'power law' if power_law else 'non-power-law'} "
             f"(log deviation {fit.max_deviation:.3f})")
    if math.isinf(F.tail_exponent):
        return "tail", not power_law, f"declared exponential, fit is {shape}"
    err = abs(fit.exponent - tau_inf)
    return "tail", power_law and err <= CERT_TAIL_RTOL * tau_inf, (
        f"exponent={fit.exponent:.5f} target={tau_inf:.5f} rel_err={err / tau_inf:.2e}, {shape}")


def certification_checks(
    F: GridFunction, params: ModelParams, tol_residual: float = DEFAULT_RESIDUAL_TOL
) -> Certification:
    """Numerical acceptance checks of a computed profile: residual,
    moments, F(0), tail-exponent fit, monotonicity, and (inside the
    fat-tail regime) domination by the closed-form barrier.  The one
    certification rule shared by ``outer_solve`` and ``verify``.  Samples so
    large that a moment overflows fail its check, silently: an infinite or
    NaN moment passes no comparison."""
    rnorm = weighted_residual_norm(residual_selfsimilar(F, params), params)
    with np.errstate(over="ignore", invalid="ignore"):
        m0_num = moment(F, 0)
        m1_num = moment(F, 1)
    try:
        fit, why = tail_exponent_fit(F), ""
    except ParameterDomainError as exc:
        fit, why = None, str(exc)
    rise = float(np.max(np.diff(F.values)))
    checks = [
        ("residual", rnorm <= tol_residual, f"{rnorm:.3e} <= {tol_residual:.1e}"),
        _relative_check("M0", m0_num, params.m0, CERT_M0_RTOL),
        _relative_check("M1", m1_num, params.m0 / params.v, CERT_M1_RTOL),
        _relative_check("F0", float(F.values[0]), params.m0 * (1.0 - params.m0), CERT_F0_RTOL),
        _tail_check(F, fit, why, params.tau_inf),
        ("monotone", rise <= 0.0, f"largest increase {max(rise, 0.0):.3e}"),
    ]
    if params.m0 < 0.5 * params.v:
        excess = F.values - supersolution_value(params, F.grid.nodes) * (1.0 + 1e-12)
        worst = float(np.max(excess))
        checks.append(("barrier", worst <= 0.0, f"largest excess {max(worst, 0.0):.3e}"))
    return Certification(rnorm, m0_num, m1_num, fit, checks)


# ----------------------------------------------------------------------
# residual of the profile equation
# ----------------------------------------------------------------------

def recover_tau(F: GridFunction) -> TauFunction:
    """Log-derivative -z F'/F recovered from samples by fourth-order
    differencing of log F on the uniform w grid.

    Profiles may underflow to zero in the far tail; a contiguous block of
    trailing nonpositive samples is accepted (the log-derivative term is
    zero there), nonpositive samples elsewhere are rejected.
    """
    vals = F.values
    pos = vals > 0.0
    if not pos[0]:
        raise ParameterDomainError("profile must be positive at z = 0")
    j0 = int(np.argmin(pos)) if not pos.all() else vals.size
    if np.any(vals[j0:] > 0.0):
        raise ParameterDomainError(
            "residual undefined: nonpositive sample before the last positive one"
        )
    if j0 < 2:
        raise ParameterDomainError("residual undefined: profile is zero after z = 0")
    grid = F.grid
    dlog = np.zeros(grid.n)
    dlog[:j0] = _derivative_uniform(np.log(vals[:j0]), grid.dw)
    z = grid.nodes
    tau_vals = np.zeros(grid.n)
    tau_vals[1:j0] = -z[1:j0] * (1.0 - grid.v) / (1.0 + (1.0 - grid.v) * z[1:j0]) * dlog[1:j0]
    slope0 = -(1.0 - grid.v) * dlog[0]
    return TauFunction(grid, tau_vals, slope0=slope0)


def residual_selfsimilar(F: GridFunction, params: ModelParams) -> GridFunction:
    """Pointwise residual of the profile equation,

        R(z) = ((1-v) z + 1) tau_F(z) F(z)/z - (2-v-2m0) F(z) - (F*F)(z),

    where (F*F) is the symmetric half-range convolution (equal to the full
    one) and R(0) is the z -> 0 limit.  Zero residual characterizes
    solutions; the exponential family evaluates to quadrature noise.
    Entries beyond the float range (an overflow, or inf - inf) saturate at
    the largest float, so the residual of such a profile is large, not
    undefined.
    """
    tau = recover_tau(F)
    grid = F.grid
    z = grid.nodes
    with np.errstate(over="ignore", invalid="ignore"):
        conv = half_convolution_at_nodes(F)
        lin = np.empty(grid.n)
        lin[0] = tau.slope0 * F.values[0]
        lin[1:] = ((1.0 - params.v) * z[1:] + 1.0) * tau.values[1:] * F.values[1:] / z[1:]
        residual = lin - params.linear_coefficient * F.values - conv
    np.nan_to_num(residual, copy=False, nan=np.finfo(float).max)
    return GridFunction(grid, residual, tail_exponent=math.inf)


def weighted_residual_norm(residual: GridFunction, params: ModelParams) -> float:
    """Sup-norm of the residual weighted by (1+z)^tau_inf, the scale on
    which the algebraic tail lives."""
    return _weighted_sup(residual.values, _tail_weight(residual.grid, params.tau_inf))


# ----------------------------------------------------------------------
# tail exponent fit
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TailFit:
    """Least-squares power-law fit of the profile tail in log-log scale."""

    exponent: float
    prefactor: float
    max_deviation: float
    n_nodes: int


_NONPOSITIVE_WINDOW = "fit window contains nonpositive samples"


def tail_exponent_fit(F: GridFunction) -> TailFit:
    """Fit log F = log c - p log z over the top two decades of the grid;
    returns the fitted exponent and the maximum log-space deviation, which
    flags non-power-law behaviour."""
    grid = F.grid
    zlow = grid.zmax / 10.0**_TAIL_FIT_DECADES
    sel = grid.nodes >= zlow
    sel[0] = False
    if int(np.count_nonzero(sel)) < 4:
        raise ParameterDomainError("fit window holds fewer than 4 nodes")
    if np.any(F.values[sel] <= 0.0):
        raise ParameterDomainError(_NONPOSITIVE_WINDOW)
    x = np.log(grid.nodes[sel])
    y = np.log(F.values[sel])
    slope, intercept = np.polyfit(x, y, 1)
    deviation = float(np.max(np.abs(y - (slope * x + intercept))))
    return TailFit(
        exponent=float(-slope),
        prefactor=float(np.exp(intercept)),
        max_deviation=deviation,
        n_nodes=int(np.count_nonzero(sel)),
    )
