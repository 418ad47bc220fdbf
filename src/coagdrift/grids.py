"""Graded semi-infinite grids, profile containers, quadrature and convolution.

Grids are uniform in the transformed variable w = log(1 + (1-v) z), which
follows the natural scale of the algebraically decaying barrier.  Profiles
live on the grid with an algebraic tail model beyond the last node; values
between nodes are interpolated linearly in log-value (exact on the
exponential solution family) and linearly where a sample is zero.

Quadrature conventions:

* moments and the cumulative log-integral use the composite trapezoid in w
  with an Euler-Maclaurin endpoint correction (effective order 4); the
  correction is needed to certify F(0) and the moments at the default grid
  resolution;
* the half-range convolution and everything feeding the monotone fixed-point
  iteration use the plain trapezoid with nonnegative weights only, so the
  pointwise comparison arguments of the iteration survive discretization.

The half-range quadrature at all nodes is precomputed once per grid as a
plan of O(N^2) points.  Consecutive points of one row z_j whose argument
z_j - y falls in the same grid interval form a pair; the plan keeps per point
only the trapezoid weight, the sample index and the two interpolation
fractions, and per pair the row, the interval and the run length.  Operators
gather node data once per pair and spend one exp per point.  The plan is
built in blocks of rows, so the build needs little memory beyond the plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DivergentMomentError,
    GridMismatchError,
    ParameterDomainError,
)

__all__ = [
    "Grid",
    "GridFunction",
    "TauFunction",
    "build_grid",
    "moment",
    "half_convolution_at_nodes",
    "cumulative_log_integral",
]


# ----------------------------------------------------------------------
# grid
# ----------------------------------------------------------------------

@dataclass(eq=False)
class Grid:
    """Strictly increasing nodes z_0 = 0 < ... < z_{N-1} = zmax, graded so
    that log(1 + (1-v) z) is uniform."""

    nodes: np.ndarray
    v: float
    _plan: "_HalfRangePlan | None" = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.nodes = np.ascontiguousarray(self.nodes, dtype=float)
        if self.nodes.ndim != 1 or self.nodes.size < 2:
            raise ParameterDomainError("grid needs at least two nodes")
        if self.nodes[0] != 0.0 or np.any(np.diff(self.nodes) <= 0.0):
            raise ParameterDomainError("nodes must be strictly increasing from 0")
        if not (0.0 < self.v < 1.0):
            raise ParameterDomainError(f"v must lie in (0, 1), got {self.v}")

    @property
    def n(self) -> int:
        return self.nodes.size

    @property
    def zmax(self) -> float:
        return float(self.nodes[-1])

    @property
    def dw(self) -> float:
        return float(np.log1p((1.0 - self.v) * self.zmax) / (self.n - 1))

    def w_of(self, z):
        return np.log1p((1.0 - self.v) * np.asarray(z, dtype=float))

    def sprime(self, z):
        """dz/dw = (1 + (1-v) z)/(1-v)."""
        return (1.0 + (1.0 - self.v) * np.asarray(z, dtype=float)) / (1.0 - self.v)

    def bracket(self, z):
        """Bracketing interval index and both interpolation fractions.

        Returns (idx, lam_z, lam_w) with nodes[idx] <= z <= nodes[idx+1]
        (clipped at the ends), lam_z the linear fraction in z and lam_w the
        linear fraction in w.  The w grid is uniform, so the index is a
        single floor division.
        """
        z = np.asarray(z, dtype=float)
        w = self.w_of(z)
        dw = self.dw
        idx = np.clip((w / dw).astype(np.int64), 0, self.n - 2)
        zl = self.nodes[idx]
        zr = self.nodes[idx + 1]
        lam_z = np.clip((z - zl) / (zr - zl), 0.0, 1.0)
        lam_w = np.clip(w / dw - idx, 0.0, 1.0)
        return idx, lam_z, lam_w

    def half_range_plan(self) -> "_HalfRangePlan":
        if self._plan is None:
            self._plan = _build_half_range_plan(self)
        return self._plan


def build_grid(zmax: float, n: int, v: float) -> Grid:
    """Grid with n nodes uniform in log(1 + (1-v) z), from 0 to zmax."""
    if not np.isfinite(zmax) or zmax <= 0.0:
        raise ParameterDomainError(f"zmax must be positive, got {zmax}")
    if n < 2:
        raise ParameterDomainError(f"need at least 2 nodes, got {n}")
    if not (0.0 < v < 1.0):
        raise ParameterDomainError(f"v must lie in (0, 1), got {v}")
    w = np.linspace(0.0, math.log1p((1.0 - v) * zmax), n)
    nodes = np.expm1(w) / (1.0 - v)
    nodes[0] = 0.0
    nodes[-1] = zmax
    return Grid(nodes=nodes, v=v)


def _same_grid(a: Grid, b: Grid) -> bool:
    return a is b or (a.n == b.n and a.v == b.v and np.array_equal(a.nodes, b.nodes))


# ----------------------------------------------------------------------
# grid functions
# ----------------------------------------------------------------------

@dataclass(eq=False)
class GridFunction:
    """Samples F(z_j) plus an algebraic tail F(z) = F(zmax) (z/zmax)^-p
    for z beyond the grid.

    ``tail_exponent`` may be ``inf`` for profiles that decay faster than any
    power (the exponential family).  Values are not forced nonnegative here:
    the container is also used for signed residual fields; solver paths
    assert positivity where the theory provides it.
    """

    grid: Grid
    values: np.ndarray
    tail_exponent: float = math.inf

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n,):
            raise ParameterDomainError(
                f"values shape {self.values.shape} does not match grid size {self.grid.n}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ParameterDomainError("values must be finite")

    def interp_at_brackets(self, idx, lam_z) -> np.ndarray:
        """Interpolate at points described by precomputed brackets.

        Linear in log-value when both bracketing samples are positive,
        linear in the value otherwise.
        """
        va = self.values[idx]
        vb = self.values[idx + 1]
        pos = (va > 0.0) & (vb > 0.0)
        la = np.log(np.where(pos, va, 1.0))
        lb = np.log(np.where(pos, vb, 1.0))
        loglin = np.exp((1.0 - lam_z) * la + lam_z * lb)
        lin = (1.0 - lam_z) * va + lam_z * vb
        return np.where(pos, loglin, lin)

    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        scalar = z.ndim == 0
        z = np.atleast_1d(z)
        if np.any(z < 0.0):
            raise ParameterDomainError("evaluation points must be nonnegative")
        out = np.empty_like(z)
        inside = z <= self.grid.zmax
        if np.any(inside):
            idx, lam_z, _ = self.grid.bracket(z[inside])
            out[inside] = self.interp_at_brackets(idx, lam_z)
        if np.any(~inside):
            f_end = self.values[-1]
            if f_end == 0.0:
                out[~inside] = 0.0
            else:
                out[~inside] = f_end * (z[~inside] / self.grid.zmax) ** (-self.tail_exponent)
        return float(out[0]) if scalar else out


@dataclass(eq=False)
class TauFunction:
    """Log-derivative representation tau(z) = -z F'(z)/F(z) of a profile.

    ``slope0`` is the limit of tau(s)/s as s -> 0 (the integrand of the
    log-integral is continued with it) and ``limit_inf`` the asserted limit
    at infinity.
    """

    grid: Grid
    values: np.ndarray
    slope0: float
    limit_inf: float

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n,):
            raise ParameterDomainError(
                f"values shape {self.values.shape} does not match grid size {self.grid.n}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ParameterDomainError("tau values must be finite")

    def integrand_scaled(self) -> np.ndarray:
        """tau(s)/s * ds/dw sampled on the grid, with the s = 0 value
        continued as slope0 * s'(0)."""
        z = self.grid.nodes
        out = np.empty_like(z)
        out[0] = self.slope0 / (1.0 - self.grid.v)
        out[1:] = self.values[1:] * self.grid.sprime(z[1:]) / z[1:]
        return out


# ----------------------------------------------------------------------
# quadrature
# ----------------------------------------------------------------------

def _derivative_uniform(g: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order finite-difference derivative on a uniform grid."""
    n = g.size
    d = np.empty_like(g)
    if n < 5:
        return np.gradient(g, h)
    d[2:-2] = (g[:-4] - 8.0 * g[1:-3] + 8.0 * g[3:-1] - g[4:]) / (12.0 * h)
    d[0] = (-25.0 * g[0] + 48.0 * g[1] - 36.0 * g[2] + 16.0 * g[3] - 3.0 * g[4]) / (12.0 * h)
    d[1] = (-3.0 * g[0] - 10.0 * g[1] + 18.0 * g[2] - 6.0 * g[3] + g[4]) / (12.0 * h)
    d[-2] = (3.0 * g[-1] + 10.0 * g[-2] - 18.0 * g[-3] + 6.0 * g[-4] - g[-5]) / (12.0 * h)
    d[-1] = (25.0 * g[-1] - 48.0 * g[-2] + 36.0 * g[-3] - 16.0 * g[-4] + 3.0 * g[-5]) / (12.0 * h)
    return d


def _corrected_trapezoid_w(grid: Grid, g: np.ndarray) -> float:
    """Trapezoid of g(w) over the uniform w grid with Euler-Maclaurin
    endpoint correction (order 4 when at least 5 nodes are available)."""
    dw = grid.dw
    total = dw * (np.sum(g) - 0.5 * (g[0] + g[-1]))
    if grid.n >= 5:
        dg = _derivative_uniform(g, dw)
        total -= dw * dw / 12.0 * (dg[-1] - dg[0])
    return float(total)


def moment(F: GridFunction, k: int) -> float:
    """k-th moment int z^k F(z) dz, grid quadrature plus the closed-form
    tail integral F(zmax) zmax^(k+1) / (p - k - 1).

    Divergence is reported when the stored tail exponent p satisfies
    p <= k + 1 while the last sample is nonzero.
    """
    if k not in (0, 1):
        raise ParameterDomainError(f"moment order must be 0 or 1, got {k}")
    grid = F.grid
    f_end = float(F.values[-1])
    p = F.tail_exponent
    if f_end != 0.0 and not p > k + 1:
        raise DivergentMomentError(
            f"moment of order {k} diverges: tail exponent {p} <= {k + 1}"
        )
    z = grid.nodes
    g = z**k * F.values * grid.sprime(z)
    body = _corrected_trapezoid_w(grid, g)
    if f_end == 0.0 or math.isinf(p):
        tail = 0.0
    else:
        tail = f_end * grid.zmax ** (k + 1) / (p - k - 1)
    return body + tail


# ----------------------------------------------------------------------
# half-range convolution
# ----------------------------------------------------------------------

@dataclass(eq=False)
class _HalfRangePlan:
    """Precomputed quadrature layout for 2 int_0^{z_j/2} A(z_j - y) B(y) dy
    at every node z_j, j >= 1.

    The y sub-grid of segment j is (z_0, ..., z_{k_j - 1}, z_j/2); the flat
    per-point arrays concatenate all segments.  ``y_node_idx`` is -1 at the
    half endpoint, where the B factor needs interpolation.

    Within a segment x = z_j - y decreases, so the points whose x falls in
    one grid interval [z_a, z_{a+1}] form a contiguous run.  The runs are the
    pairs: pair p covers the next ``pair_count[p]`` points, all in the
    segment of node ``pair_row[p]`` and bracketed by interval ``pair_a[p]``.
    Operators gather the A data once per pair and interpolate per point with
    the stored fractions ``x_lam_z`` (in z) and ``x_lam_w`` (in w), through
    ``pair_exp`` (pairs to points) and ``row_sums`` (points to nodes).
    """

    starts: np.ndarray
    counts: np.ndarray
    weights: np.ndarray
    y_node_idx: np.ndarray
    x_lam_z: np.ndarray
    x_lam_w: np.ndarray
    pair_row: np.ndarray
    pair_a: np.ndarray
    pair_count: np.ndarray
    half_idx: np.ndarray
    half_lam_z: np.ndarray

    @property
    def size(self) -> int:
        return self.weights.size

    def pair_exp(self, base, slope, lam, loglin=None) -> np.ndarray:
        """exp(base_p + lam_k slope_a) at every point k of every pair p, as a
        new array, with a = ``pair_a[p]`` the pair's grid interval: ``base``
        holds one value per pair, ``slope`` and ``loglin`` one per interval.
        Intervals where ``loglin`` is False keep the linear value.  Taking
        slope per interval leaves ``base`` the only pair-length array alive
        next to the points."""
        out = np.repeat(slope[self.pair_a], self.pair_count)
        out *= lam
        out += np.repeat(base, self.pair_count)
        if loglin is None:
            return np.exp(out, out=out)
        return np.exp(out, out=out, where=np.repeat(loglin[self.pair_a], self.pair_count))

    def row_sums(self, contrib) -> np.ndarray:
        """Twice the sum of the point values of each row, at every node (0 at
        z_0, which has no row)."""
        out = np.empty(self.starts.size + 1)
        out[0] = 0.0
        out[1:] = 2.0 * np.add.reduceat(contrib, self.starts)
        return out


# Points per block of rows while building a plan.  The build's transient
# memory is a dozen arrays of this length (about 13 MB), small next to the
# plan itself at any grid size where the build is costly.
_PLAN_BLOCK_POINTS = 1 << 17


def _build_half_range_plan(grid: Grid) -> _HalfRangePlan:
    z = grid.nodes
    n = grid.n
    half = 0.5 * z[1:]
    ks = np.searchsorted(z, half, side="left")  # nodes strictly below z_j/2
    counts = ks + 1
    starts = np.zeros(n - 1, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    ends = starts + counts
    total = int(ends[-1])

    # trapezoid weight of each node between its two gaps; in a segment only
    # the last node and the half endpoint see the gap up to z_j/2 instead
    gap = np.diff(z, prepend=0.0, append=z[-1])  # zero beyond both ends
    node_w = 0.5 * (gap[:-1] + gap[1:])

    weights = np.empty(total)
    y_node_idx = np.empty(total, dtype=np.int64)
    x_lam_z = np.empty(total)
    x_lam_w = np.empty(total)
    pair_row, pair_a, pair_count = [], [], []
    r0 = 0
    while r0 < n - 1:
        r1 = max(r0 + 1, int(np.searchsorted(ends, starts[r0] + _PLAN_BLOCK_POINTS, side="right")))
        base, size = int(starts[r0]), int(ends[r1 - 1] - starts[r0])
        k = ks[r0:r1]
        seg = starts[r0:r1] - base
        last = seg + k  # local positions of the half endpoints
        out = slice(base, base + size)

        pos = np.arange(size) - np.repeat(seg, counts[r0:r1])
        row = np.repeat(np.arange(r0 + 1, r1 + 1), counts[r0:r1])
        y = z[pos]
        y[last] = half[r0:r1]
        idx, x_lam_z[out], x_lam_w[out] = grid.bracket(z[row] - y)

        w = node_w[pos]
        tail = half[r0:r1] - z[k - 1]
        w[last - 1] = 0.5 * (gap[k - 1] + tail)
        w[last] = 0.5 * tail
        weights[out] = w
        pos[last] = -1
        y_node_idx[out] = pos

        opens = np.empty(size, dtype=bool)  # a point that starts a pair
        np.not_equal(idx[1:], idx[:-1], out=opens[1:])
        opens[seg] = True  # every row start, so a pair never crosses a row
        first = np.flatnonzero(opens)
        pair_row.append(row[first])
        pair_a.append(idx[first])
        pair_count.append(np.diff(first, append=size))
        r0 = r1

    half_idx, half_lam_z, _ = grid.bracket(half)
    return _HalfRangePlan(
        starts=starts,
        counts=counts,
        weights=weights,
        y_node_idx=y_node_idx,
        x_lam_z=x_lam_z,
        x_lam_w=x_lam_w,
        pair_row=np.concatenate(pair_row),
        pair_a=np.concatenate(pair_a),
        pair_count=np.concatenate(pair_count),
        half_idx=half_idx,
        half_lam_z=half_lam_z,
    )


def sample_on_plan(plan: _HalfRangePlan, B: GridFunction) -> np.ndarray:
    """Values of B at every y node of the plan (grid samples are exact, the
    half endpoints are interpolated)."""
    out = B.values[plan.y_node_idx]
    out[plan.starts + plan.counts - 1] = B.interp_at_brackets(plan.half_idx, plan.half_lam_z)
    return out


def half_convolution_at_nodes(F: GridFunction, G: GridFunction) -> np.ndarray:
    """2 int_0^{z_j/2} F(z_j - y) G(y) dy at every grid node, vectorized.

    For F = G this is the full convolution int_0^z F(z-y) F(y) dy by
    symmetry, and it is the form used everywhere a convolution of identical
    arguments occurs.  F(z_j - y) is interpolated as in
    ``GridFunction.interp_at_brackets``: per grid interval a the base
    log F(z_a) and the increment log F(z_{a+1}) - log F(z_a) are formed
    once, and each point of a pair in interval a adds its z fraction of the
    increment before one exp.  Intervals with a nonpositive endpoint
    interpolate the values linearly instead.
    """
    if not _same_grid(F.grid, G.grid):
        raise GridMismatchError(
            "half_convolution_at_nodes requires both functions on one grid")
    plan = F.grid.half_range_plan()
    va = F.values[:-1]
    vb = F.values[1:]
    loglin = (va > 0.0) & (vb > 0.0)
    la = np.log(va, out=np.zeros_like(va), where=loglin)
    lb = np.log(vb, out=np.zeros_like(vb), where=loglin)
    base = np.where(loglin, la, va)
    slope = np.where(loglin, lb - la, vb - va)
    contrib = plan.pair_exp(base[plan.pair_a], slope, plan.x_lam_z, loglin)
    contrib *= plan.weights
    contrib *= sample_on_plan(plan, G)
    return plan.row_sums(contrib)


# ----------------------------------------------------------------------
# log-integral of tau(s)/s
# ----------------------------------------------------------------------

def cumulative_log_integral(tau: TauFunction, corrected: bool = True) -> np.ndarray:
    """Cumulative I(z_j) = int_0^{z_j} tau(s)/s ds on the grid.

    Computed as the uniform trapezoid in w of tau/s * ds/dw; with
    ``corrected`` the Euler-Maclaurin endpoint term is subtracted at every
    prefix, giving pointwise order 4.  The uncorrected variant keeps every
    quadrature weight nonnegative and is the one the monotone fixed-point
    sweep must use.
    """
    grid = tau.grid
    g = tau.integrand_scaled()
    dw = grid.dw
    out = np.empty(grid.n)
    out[0] = 0.0
    np.cumsum(0.5 * dw * (g[1:] + g[:-1]), out=out[1:])
    if corrected and grid.n >= 5:
        dg = _derivative_uniform(g, dw)
        out -= dw * dw / 12.0 * (dg - dg[0])
    return out
