"""Outer fixed-point solve of the full self-similar system and its
certification diagnostics (residual, moments, tail-exponent fit)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict, replace

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
from .model import ModelParams, exponential_profile, iteration_barrier, supersolution_value
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

_MAX_DAMPING_HALVINGS = 4

# Smallest coarse grid that seeds the outer solve; below it the solve starts
# from the exponential seed.  Timed cold, a 65-node coarse level makes the
# 257-node solve up to 19% slower, a 129-node one the 513-node solve 1% slower
# to 13% faster, and a 257-node one the 1025-node solve 10-22% faster.
_MIN_COARSE_NODES = 129

# Outer iterations the coarse level may take before the solve falls back to
# the exponential seed.  Over v in [0.05, 0.99], m0/m0_bar in [0.1, 1] and
# zmax in [1e2, 1e10], coarse levels of 129 to 513 nodes that converge do so
# in 2-7 iterations; the rest (v >= 0.95) never converge in 80.
_MAX_COARSE_OUTER = 12

# The tail fit window: the top two decades of the grid.
_TAIL_FIT_DECADES = 2.0


@dataclass
class SolveReport:
    """Convergence and certification diagnostics of one solve.

    The iteration counts are those of the solve's own grid; ``seed_nodes``
    is the node count of the coarse solve that seeded it, 0 for the
    exponential seed.
    """

    outer_iterations: int
    inner_iterations_total: int
    fp_residual: float
    model_residual_norm: float
    F0: float
    M0: float
    M1: float
    tail_exponent_fit: float
    tail_fit_deviation: float
    tail_prefactor_fit: float
    v_effective: float
    certified: bool
    damping_final: float
    forced: bool
    seed_nodes: int

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class OuterSolveOptions:
    """Grid specification plus outer iteration control.

    The update norm is the sup over nodes of the iterate difference times
    (1+z)^(tau_inf - 1/2), which keeps the tail visible where the plain
    sup-norm is blind.  Damping starts at 1 and is halved (at most four
    times) whenever the update norm rises.
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
    """Exponential solution family sampled on the grid (tail decays faster
    than any power, so the tail exponent is infinite)."""
    return GridFunction(grid, exponential_profile(v, grid.nodes), tail_exponent=math.inf)


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


def _picard(params: ModelParams, G: GridFunction, opts: OuterSolveOptions, forced: bool):
    """Damped Picard iteration of the auxiliary solution map from the datum
    G, on G's grid, for at most ``opts.max_outer`` steps.

    Returns the last iterate, the outer and inner iteration counts, the
    last update norm, the damping and whether the norm reached ``opts.tol``.
    """
    grid = G.grid
    weight = _tail_weight(grid, params.tau_inf - 0.5)
    theta = 1.0
    halvings = 0
    prev_norm = math.inf
    inner_total = 0
    F = G
    update_norm = math.inf
    converged = False
    outer_iterations = 0
    for outer_iterations in range(1, opts.max_outer + 1):
        result = inner_solve(G, params, opts.inner, force=forced)
        inner_total += result.iterations
        F = reconstruct_profile(result.tau, params)
        delta = F.values - G.values
        update_norm = _weighted_sup(delta, weight)
        if update_norm <= opts.tol:
            converged = True
            break
        if not math.isfinite(update_norm):
            break
        if update_norm > prev_norm and halvings < _MAX_DAMPING_HALVINGS:
            theta *= 0.5
            halvings += 1
        prev_norm = update_norm
        mixed = GridFunction(grid, G.values + theta * delta, tail_exponent=params.tau_inf)
        G = _with_mass(mixed, params.m0)
    return F, outer_iterations, inner_total, update_norm, theta, converged


def _coarse_seed(params: ModelParams, grid: Grid, opts: OuterSolveOptions):
    """Seed of the solve on ``grid`` and the node count it came from: the
    converged profile on (n-1)//4 + 1 nodes of the same zmax, evaluated at
    the nodes of ``grid`` with tail exponent tau_inf and scaled to mass m0.
    Falls back to the exponential seed (0 nodes) where the coarse grid has
    fewer than _MIN_COARSE_NODES nodes, or its solve does not converge
    within _MAX_COARSE_OUTER outer iterations or raises.  Nothing of the
    coarse grid, or its plan, outlives the call."""
    n = (grid.n - 1) // 4 + 1
    if n >= _MIN_COARSE_NODES:
        coarse_opts = replace(opts, max_outer=min(opts.max_outer, _MAX_COARSE_OUTER))
        try:
            coarse = build_grid(opts.zmax, n, params.v)
            F, *_, converged = _picard(params, seed_profile(params, coarse), coarse_opts, False)
            if converged:
                seed = GridFunction(grid, F(grid.nodes), tail_exponent=params.tau_inf)
                return _with_mass(seed, params.m0), n
        except CoagDriftError:
            pass
    return seed_profile(params, grid), 0


def outer_solve(
    params: ModelParams, opts: OuterSolveOptions = OuterSolveOptions()
) -> tuple[GridFunction, SolveReport]:
    """Damped Picard iteration of the auxiliary solution map to its fixed
    point, with residual certification of the result.

    The iteration starts from the converged profile of a 4x coarser grid
    (see ``_coarse_seed``); a forced run starts from the exponential seed.
    Raises a convergence error carrying the best iterate when the cap is
    hit.  Above the admissibility threshold the solve refuses to run unless
    ``opts.force`` is set, and a forced run is only certified if the
    residual test passes.
    """
    forced = not iteration_barrier(params, opts.force)[1]
    grid = build_grid(opts.zmax, opts.nodes, params.v)
    if forced:
        G, seed_nodes = seed_profile(params, grid), 0
    else:
        G, seed_nodes = _coarse_seed(params, grid, opts)
    F, outer_iterations, inner_total, update_norm, theta, converged = _picard(
        params, G, opts, forced)

    report = _certify(F, params, opts, outer_iterations, inner_total,
                      update_norm, theta, forced, converged, seed_nodes)
    if not converged:
        if math.isfinite(update_norm):
            msg = (f"outer iteration did not reach tol={opts.tol} in {opts.max_outer} "
                   f"steps (last update norm {update_norm:.3e})")
        else:
            msg = (f"update norm {update_norm} at outer iteration {outer_iterations}: "
                   f"the tail weight (1+z)^{params.tau_inf - 0.5:.6g} overflows on this "
                   f"grid; lower zmax (now {opts.zmax:g})")
        raise ConvergenceError(
            msg,
            residual=update_norm,
            best=F,
            report=report,
        )
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


def _certify(F, params, opts, outer_iterations, inner_total, fp_residual,
             theta, forced, converged, seed_nodes) -> SolveReport:
    cert = certification_checks(F, params, opts.tol_residual)
    fit = cert.fit or TailFit(math.nan, math.nan, math.nan, 0)
    return SolveReport(
        outer_iterations=outer_iterations,
        inner_iterations_total=inner_total,
        fp_residual=fp_residual,
        model_residual_norm=cert.residual_norm,
        F0=float(F.values[0]),
        M0=cert.M0,
        M1=cert.M1,
        tail_exponent_fit=fit.exponent,
        tail_fit_deviation=fit.max_deviation,
        tail_prefactor_fit=fit.prefactor,
        v_effective=cert.M0 / cert.M1,
        certified=bool(converged and fp_residual <= opts.tol and cert.ok),
        damping_final=theta,
        forced=forced,
        seed_nodes=seed_nodes,
    )


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
    return TauFunction(grid, tau_vals, slope0=slope0, limit_inf=float(tau_vals[j0 - 1]))


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
