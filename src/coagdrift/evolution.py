"""Direct finite-volume integration of the time-dependent model.

The number density f(t, x) obeys

    d/dt f + d/dx ( (x u(t) - 1) f ) = (f*f)(x) - 2 f(t, x) M0(f),
    u(t) = M0(f) / m1,

with the first moment m1 fixed by the initial state.  The scheme is a
first-order conservative upwind flux for the drift plus explicit Euler in
time, chosen for positivity and a transparent stability bound rather than
accuracy: the module serves as an independent oracle for the self-similar
ansatz f(t, x) = t^-2 F(x/t).

Boundary behaviour: the characteristic speed at x = 0 is -1, so mass leaves
through the left boundary (pure outflow, no re-injection); inflow is zero at
both ends and outflow at the right cutoff is accepted and visible in the
diagnostics.

Memory: a step allocates only the cell averages of the state it returns.
Its flux, right-hand side and FFT buffers live in a workspace of scratch
buffers for the cell grid, which every state stepped from a state shares
with it.  So one run must not be stepped from several threads at once;
each ``simulate`` call steps on a workspace of its own.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ParameterDomainError, SchemeFailureError, StepSizeError
from .grids import GridFunction, moment

__all__ = [
    "EvolutionState",
    "init_from_profile",
    "step",
    "simulate",
    "default_domain_cutoff",
]

# Tolerated undershoot (relative to max f) before the scheme is declared
# broken; explicit upwind under the stated bounds stays above this.
_NEGATIVITY_SLACK = 1e-14

# Share of the profile's first moment that the initial state and the
# default cutoff must hold.
_MASS_COVERAGE = 0.999

# Sample points of the comparison window of the self-similar error.
_WINDOW_SAMPLES = 2001

# Step cap of one simulate call, a guard against a step size driven to 0.
_MAX_STEPS = 20_000_000


@dataclass(eq=False)
class EvolutionState:
    """Cell averages of f on a uniform grid and the conserved first moment
    ``m1_target`` of the mean-field closure u = M0(f) / m1_target."""

    edges: np.ndarray
    f: np.ndarray
    t: float
    m1_target: float

    def __post_init__(self):
        self.edges = np.ascontiguousarray(self.edges, dtype=float)
        self.f = np.ascontiguousarray(self.f, dtype=float)
        if self.edges.ndim != 1 or self.edges.size != self.f.size + 1:
            raise ParameterDomainError("edges must have one more entry than cells")
        if self.edges[0] != 0.0 or np.any(np.diff(self.edges) <= 0.0):
            raise ParameterDomainError("edges must increase strictly from 0")
        if not self.m1_target > 0.0:
            raise ParameterDomainError("m1_target must be positive")
        self._work = None

    def _successor(self, f: np.ndarray, t: float, work) -> "EvolutionState":
        """Cell averages ``f`` at time ``t`` on this state's edges and
        ``m1_target``, which were checked when this state was built, with
        the workspace ``work``."""
        new = object.__new__(EvolutionState)
        new.edges, new.f, new.t, new.m1_target, new._work = (
            self.edges, f, t, self.m1_target, work)
        return new

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    @property
    def dx(self) -> float:
        return float(self.edges[1] - self.edges[0])

    @property
    def xmax(self) -> float:
        return float(self.edges[-1])

    def m0(self) -> float:
        return float(np.sum(self.f) * self.dx)

    @property
    def u(self) -> float:
        return self.m0() / self.m1_target


def init_from_profile(
    F: GridFunction,
    t0: float,
    cells: int,
    xmax: float,
    *,
    strict: bool = True,
) -> EvolutionState:
    """State t0^-2 F(x/t0) sampled at cell centers on a uniform grid.

    The conserved first moment is taken from the initialized state itself.
    If the sampled state carries less than 99.9% of the profile's first
    moment, because the cutoff is too small or the cells too coarse, the
    initialization warns, or raises when ``strict``.
    """
    if t0 <= 0.0:
        raise ParameterDomainError("t0 must be positive")
    if cells < 2 or xmax <= 0.0:
        raise ParameterDomainError("need at least 2 cells and a positive cutoff")
    edges = np.linspace(0.0, xmax, cells + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    f = F(centers / t0) / t0**2
    state_m1 = float(np.sum(centers * f) * (edges[1] - edges[0]))
    if state_m1 <= 0.0:
        raise ParameterDomainError("initial state carries no volume (m1 = 0)")
    profile_m1 = moment(F, 1)
    captured = state_m1 / profile_m1
    if captured < _MASS_COVERAGE:
        msg = (
            f"{cells} cells up to xmax={xmax} capture only {captured:.4%} of the "
            f"profile's first moment at t0={t0}: too few cells or too small a cutoff"
        )
        if strict:
            raise ParameterDomainError(msg)
        warnings.warn(msg, RuntimeWarning, stacklevel=2)
    return EvolutionState(edges=edges, f=f, t=t0, m1_target=state_m1)


class _Workspace:
    """Scratch buffers of one step on a grid of ``cells`` cells: the drift
    speed, then the flux, at the edges; the right-hand side; the gain and
    loss terms; the spectrum and inverse transform of the gain's FFT."""

    def __init__(self, cells: int):
        # the smallest power of two that holds the 2 cells - 1 terms of the
        # full convolution sum
        self.n = 1 << (2 * cells - 2).bit_length()
        self.edge = np.empty(cells + 1)
        self.rhs = np.empty(cells)
        self.gain = np.empty(cells)
        self.loss = np.empty(cells)
        self.spectrum = np.empty(self.n // 2 + 1, dtype=complex)
        self.conv = np.empty(self.n)


def _gain_term(f: np.ndarray, dx: float, work: _Workspace) -> np.ndarray:
    """Coagulation gain (f*f)(x_i) at cell centers, written into
    ``work.gain``.

    The midpoint convolution sum dx * sum_{j+k=n} f_j f_k lands on cell
    edges; averaging adjacent edge values (a trapezoid in disguise) centers
    it.  The sum is one real FFT of f, squared and transformed back, at the
    smallest power of two that holds the 2m - 1 terms of the full sum; it
    agrees with the direct sum to 1e-12 relative.
    """
    m = f.size
    spectrum = np.fft.rfft(f, work.n, out=work.spectrum)
    np.multiply(spectrum, spectrum, out=spectrum)
    c = np.fft.irfft(spectrum, work.n, out=work.conv)
    gain = work.gain
    gain[0] = c[0]
    np.add(c[:m - 1], c[1:m], out=gain[1:])
    gain *= 0.5 * dx
    return gain


def _max_speed(a: float, edges: np.ndarray) -> float:
    """max |a x - 1| over the edges, for a >= 0: taken at an end edge,
    since a x - 1 rises with x from -1 at x = 0."""
    return max(1.0, abs(a * float(edges[-1]) - 1.0))


def step(
    state: EvolutionState,
    dt: float,
    *,
    drift: bool = True,
    coagulation: bool = True,
) -> EvolutionState:
    """One explicit Euler step; returns a new state.

    Enforces the hard stability bounds dt * max|x u - 1| <= dx (when the
    drift is active) and dt * 2 M0 <= 0.5 (when coagulation is active); a
    violation raises a step-size error.  Cell averages must stay above
    -1e-14 * max f, anything lower is a scheme failure.

    The step allocates only the returned state's cell averages and writes
    its intermediates into the workspace of the input's cell grid.  The
    returned state shares that workspace, the edges and ``m1_target`` with
    the input, so one run must not be stepped from several threads at once.
    """
    if dt <= 0.0:
        raise StepSizeError("dt must be positive")
    f = state.f
    m = f.size
    dx = state.dx
    m0 = state.m0()
    a = m0 / state.m1_target
    if drift:
        smax = _max_speed(a, state.edges)
        if dt * smax > dx * (1.0 + 1e-12):
            raise StepSizeError(
                f"dt={dt} violates the transport bound dx/max|s| = {dx / smax}"
            )
    if coagulation and dt * 2.0 * m0 > 0.5:
        raise StepSizeError(
            f"dt={dt} violates the loss bound 0.25/M0 = {0.25 / m0}"
        )
    work = state._work
    if work is None:
        work = state._work = _Workspace(m)

    rhs = work.rhs
    if drift:
        # upwind flux s f at the edges, s = a x - 1: the cell right of an
        # edge up to the single sign change of s, the cell left of it after;
        # no cell lies beyond either end, and s = -1 at x = 0
        flux = np.multiply(state.edges, a, out=work.edge)
        flux -= 1.0
        k = max(int(np.searchsorted(flux, 0.0, side="right")), 1)  # first s > 0
        right = min(k, m)
        flux[:right] *= f[:right]
        flux[right:k] = 0.0
        flux[k:] *= f[k - 1:]
        np.subtract(flux[:-1], flux[1:], out=rhs)
        rhs /= dx
    else:
        rhs.fill(0.0)
    if coagulation:
        gain = _gain_term(f, dx, work)
        gain -= np.multiply(f, 2.0 * m0, out=work.loss)
        rhs += gain

    rhs *= dt
    f_new = f + rhs
    lowest = float(np.min(f_new))
    if lowest <= 0.0:  # else no cell needs the check or the clip to 0
        fmax = float(np.max(f))
        if fmax > 0.0 and lowest < -_NEGATIVITY_SLACK * fmax:
            raise SchemeFailureError(
                f"negative cell average {lowest:.3e} after step at t={state.t}"
            )
        np.clip(f_new, 0.0, None, out=f_new)
    return state._successor(f_new, state.t + dt, work)


def _window(F: GridFunction, z_window: float, state: EvolutionState, t_last: float):
    """Sample points z of the comparison window [0, z_window] and F(z), for
    the times from the state's to ``t_last``: the state time must be
    positive and the window at ``t_last`` must fit the domain."""
    if state.t <= 0.0:
        raise ParameterDomainError("state time must be positive")
    if t_last * z_window > state.xmax:
        raise ParameterDomainError(
            f"comparison window t*z = {t_last * z_window} exceeds the domain {state.xmax}"
        )
    z = np.linspace(0.0, z_window, _WINDOW_SAMPLES)
    return z, F(z)


def _window_error(state: EvolutionState, centers: np.ndarray, z: np.ndarray,
                  F_z: np.ndarray) -> float:
    """sup over the window points z of |t^2 f(t, t z) - F(z)|, with f read
    off the cells, whose ``centers`` are given, by linear interpolation."""
    f_at = np.interp(state.t * z, centers, state.f)
    return float(np.max(np.abs(state.t**2 * f_at - F_z)))


def simulate(
    state: EvolutionState,
    t_end: float,
    *,
    cfl: float = 0.5,
    profile: GridFunction | None = None,
    z_window: float = 10.0,
    snapshot_times: tuple[float, ...] = (),
    record_every: int = 1,
):
    """March the state to ``t_end`` with automatic step-size selection.

    Returns ``(state, diagnostics, snapshots)``: diagnostics is a list of
    rows (t, m0, m1, u, self_similar_error) at the start, every
    ``record_every`` accepted steps and at ``t_end``.  The self-similar
    error of a row is the sup over z in [0, z_window] of
    |t^2 f(t, t z) - F(z)| for the reference ``profile`` F, with f read
    off the cells by linear interpolation, and NaN without a profile;
    ``simulate(state, state.t, profile=F)`` gives it for one state.
    Snapshots maps each requested time to the state at that time
    (steps are clipped to land on them exactly).  Snapshot times must lie
    in [state.t, t_end].  With a profile, the comparison window must fit
    the domain at ``t_end``; this is checked before the first step, and F
    is sampled on the window once.
    """
    if t_end < state.t:
        raise ParameterDomainError("t_end must not precede the state time")
    if not (0.0 < cfl <= 1.0):
        raise ParameterDomainError("cfl must lie in (0, 1]")
    requested = {float(ts) for ts in snapshot_times}
    outside = sorted(ts for ts in requested if not state.t <= ts <= t_end)
    if outside:
        raise ParameterDomainError(
            f"snapshot times {outside} lie outside [{state.t:g}, {t_end:g}]")
    events = sorted(ts for ts in requested if ts > state.t)
    events.append(t_end)
    snapshots = {ts: state for ts in requested if ts == state.t}
    window = _window(profile, z_window, state, t_end) if profile is not None else None

    # the run steps on a workspace of its own, so that runs from one state
    # may go on in several threads
    state = state._successor(state.f, state.t, _Workspace(state.f.size))
    centers = state.centers
    weighted = np.empty_like(centers)

    def _row(s: EvolutionState) -> tuple:
        err = _window_error(s, centers, *window) if window is not None else math.nan
        m0 = s.m0()
        m1 = float(np.sum(np.multiply(centers, s.f, out=weighted)) * s.dx)
        return (s.t, m0, m1, m0 / s.m1_target, err)

    diagnostics = [_row(state)]
    m0 = diagnostics[0][1]  # M0 of the current state, once known
    steps = 0
    try:
        for target in events:
            while state.t < target:
                if steps >= _MAX_STEPS:
                    raise SchemeFailureError(f"exceeded {_MAX_STEPS} steps at t={state.t}")
                if m0 is None:
                    m0 = state.m0()
                speed = _max_speed(m0 / state.m1_target, state.edges)
                dt = min(target - state.t, cfl * state.dx / speed)
                if m0 > 0.0:
                    dt = min(dt, 0.25 / m0)
                state = step(state, dt)
                steps += 1
                m0 = None
                if steps % record_every == 0:
                    diagnostics.append(_row(state))
                    m0 = diagnostics[-1][1]
            if target in requested:
                snapshots[target] = state
    except SchemeFailureError as exc:
        exc.state, exc.diagnostics, exc.snapshots = state, diagnostics, snapshots
        raise
    if diagnostics[-1][0] != state.t:
        diagnostics.append(_row(state))
    return state, diagnostics, snapshots


def default_domain_cutoff(F: GridFunction, t1: float) -> float:
    """Cutoff so the profile tail beyond it carries less than 0.1% of the
    first moment throughout a run ending at time t1."""
    if t1 <= 0.0:
        raise ParameterDomainError("t1 must be positive")
    z = F.grid.nodes
    g = z * F.values
    partial = np.concatenate(([0.0], np.cumsum(0.5 * np.diff(z) * (g[1:] + g[:-1]))))
    total = moment(F, 1)
    idx = np.searchsorted(partial, _MASS_COVERAGE * total)
    if idx >= z.size:
        return t1 * F.grid.zmax
    return t1 * float(z[idx])
