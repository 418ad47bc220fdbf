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

The half-range quadrature at all nodes has one row of points per node.  The
tau sweep reads it through a plan of O(N^2) points, built once per grid:
consecutive points of one row z_j whose argument z_j - y falls in the same
grid interval form a pair, and the plan keeps per point only the w
interpolation fraction, as an offset from the pair's first one (one float,
8 bytes), and per pair the row, the interval, the run length and that first
w fraction.  A point's sample index and trapezoid weight follow from its
row.  The build and the Gauss rules of the pairs walk the points in
cache-sized blocks of rows, and the kernel sums (at most two exp per pair)
blocks of whole rows of pairs; none forms another plan-length array.  The
convolution builds no plan: it runs once per solve and in ``verify``, and
forms the brackets of each block of rows itself (one log1p and one exp per
point).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergentMomentError, ParameterDomainError

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
        idx, t = self._interval(z)
        return idx, self._lam_z(z, idx), np.clip(t - idx, 0.0, 1.0)

    def _interval(self, z):
        """Bracketing interval index of z (clipped at the ends) and w(z)/dw."""
        t = self.w_of(z) / self.dw
        return np.clip(t.astype(np.int64), 0, self.n - 2), t

    def _lam_z(self, z, idx):
        """Linear fraction in z of z in interval ``idx``, clipped to [0, 1]."""
        return np.clip((z - self.nodes[idx]) / np.diff(self.nodes)[idx], 0.0, 1.0)

    def half_range_plan(self) -> "_HalfRangePlan":
        if self._plan is None:
            self._plan = _build_half_range_plan(self)
        return self._plan


def _smallest_zmax(n: int, v: float) -> float:
    """Smallest zmax whose n-node grid the moment quadrature survives.

    A profile of mass below 1 on [0, zmax] with zmax < 1 has samples of
    F dz/dw up to about 1/((1-v) zmax).  The endpoint correction of the
    moments divides differences of such samples by 12 dw, and on a tiny grid
    those differences are rounding: up to 128 ulps in the one-sided stencil
    of ``_derivative_uniform``.  With dw = (1-v) zmax/(n-1) there, the
    quotient stays below the largest float for zmax at least this bound.
    """
    eps, big = np.finfo(float).eps, np.finfo(float).max
    return math.sqrt(128.0 * eps / 12.0 * (n - 1)) / math.sqrt(big) / (1.0 - v)


def build_grid(zmax: float, n: int, v: float) -> Grid:
    """Grid with n nodes uniform in log(1 + (1-v) z), from 0 to zmax."""
    if not np.isfinite(zmax) or zmax <= 0.0:
        raise ParameterDomainError(f"zmax must be positive, got {zmax}")
    if n < 2:
        raise ParameterDomainError(f"need at least 2 nodes, got {n}")
    if not (0.0 < v < 1.0):
        raise ParameterDomainError(f"v must lie in (0, 1), got {v}")
    smallest = _smallest_zmax(n, v)
    if zmax < smallest:
        raise ParameterDomainError(
            f"zmax = {zmax:g} is too small for {n} nodes at v = {v:g}: the moment "
            f"quadrature would overflow; use zmax >= {smallest:.3g}")
    w = np.linspace(0.0, math.log1p((1.0 - v) * zmax), n)
    nodes = np.expm1(w) / (1.0 - v)
    nodes[0] = 0.0
    nodes[-1] = zmax
    return Grid(nodes=nodes, v=v)


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


def _with_mass(F: GridFunction, m0: float) -> GridFunction:
    """F scaled so that its zeroth moment is m0 under the package quadrature."""
    mass = moment(F, 0)
    if not mass > 0.0:
        raise ParameterDomainError(
            f"profile mass underflows to zero at v={F.grid.v:g}, m0={m0:g}")
    return GridFunction(F.grid, (m0 / mass) * F.values, tail_exponent=F.tail_exponent)


# ----------------------------------------------------------------------
# half-range quadrature: the convolution and the pair rules of the tau sweep
# ----------------------------------------------------------------------

@dataclass(eq=False)
class _RowLayout:
    """Rows of the quadrature 2 int_0^{z_j/2} A(z_j - y) B(y) dy at every
    node z_j, j >= 1.

    Row j - 1 holds the y sub-grid (z_0, ..., z_{k_j - 1}, z_j/2) of node
    z_j, so a point's sample index is its offset in its row, and B is
    interpolated only at the half endpoint.  Its trapezoid weight is the
    node's ``node_w``, except at the row's last node and half endpoint,
    whose gaps end at z_j/2 (``last_w`` and ``half_w`` per row).  The
    plan build, the convolution and ``pair_rule`` share this layout:
    ``blocks`` gathers the point weights and ``x_at`` the arguments.
    """

    counts: np.ndarray
    node_w: np.ndarray
    last_w: np.ndarray
    half_w: np.ndarray

    def blocks(self, G: GridFunction):
        """(rows, points, omega) of each block of ``_row_blocks``: its rows,
        their points, and omega, the trapezoid weight times G(y) at each of
        the points.  The products are formed once per node and per row,
        then gathered per block."""
        node = self.node_w * G.values
        last = self.last_w * G.values[self.counts - 2]
        half = self.half_w * G(0.5 * G.grid.nodes[1:])
        for rows, points in _row_blocks(self.counts):
            yield rows, points, _row_points(self.counts[rows], node, last[rows], half[rows])

    def x_at(self, z: np.ndarray, rows: slice) -> np.ndarray:
        """x = z_j - y, the argument of A, at every point of ``rows``."""
        counts = self.counts[rows]
        zj = z[rows.start + 1:rows.stop + 1]
        x = np.repeat(zj, counts)
        x -= _row_points(counts, z, z[counts - 2], 0.5 * zj)
        return x


def _row_layout(grid: Grid) -> _RowLayout:
    z = grid.nodes
    half = 0.5 * z[1:]
    ks = np.searchsorted(z, half, side="left")  # nodes strictly below z_j/2
    # trapezoid weight of each node between its two gaps; in a row only
    # the last node and the half endpoint see the gap up to z_j/2 instead
    gap = np.diff(z, prepend=0.0, append=z[-1])  # zero beyond both ends
    tail = half - z[ks - 1]
    return _RowLayout(counts=ks + 1, node_w=0.5 * (gap[:-1] + gap[1:]),
                      last_w=0.5 * (gap[ks - 1] + tail), half_w=0.5 * tail)


def _row_points(counts, node, last, half) -> np.ndarray:
    """Values at every point of consecutive rows of ``counts`` points.  The
    i-th point of a row lies at node z_i and takes ``node[i]``, except that
    each row's last node takes its ``last`` and its half endpoint its
    ``half``."""
    end = np.cumsum(counts) - 1  # the half endpoints
    out = node[np.arange(end[-1] + 1) - np.repeat(end - (counts - 1), counts)]
    out[end - 1] = last
    out[end] = half
    return out


# Points (or pairs) per block of rows in the plan build and in every pass
# over the points or pairs.  A block's dozen temporaries take about 3 MB,
# near a 2 MB L2 cache; blocks of 2^15 to 2^17 points time within 10% of
# each other.
_PLAN_BLOCK_POINTS = 1 << 15


def _row_blocks(counts):
    """(rows, points) slices of consecutive blocks of whole rows, of at most
    ``_PLAN_BLOCK_POINTS`` points each; a longer row is a block of its own."""
    ends = np.cumsum(counts)
    r0 = 0
    while r0 < counts.size:
        start = int(ends[r0] - counts[r0])
        r1 = max(r0 + 1, int(np.searchsorted(ends, start + _PLAN_BLOCK_POINTS, side="right")))
        yield slice(r0, r1), slice(start, int(ends[r1 - 1]))
        r0 = r1


def half_convolution_at_nodes(F: GridFunction) -> np.ndarray:
    """Self-convolution int_0^{z_j} F(z_j - y) F(y) dy at every grid node,
    vectorized, as its symmetric half-range form 2 int_0^{z_j/2}.

    F(z_j - y) is interpolated as in ``GridFunction.interp_at_brackets``:
    per grid interval a the base log F(z_a) and the increment
    log F(z_{a+1}) - log F(z_a) are formed once, and each point in
    interval a adds its z fraction of the increment before one exp.
    Intervals with a nonpositive endpoint interpolate the values linearly
    instead.  One block of rows at a time, the points' intervals and z
    fractions are formed by the rule of ``Grid.bracket``, weighted by
    ``blocks(F)``'s omega and summed per row: no plan is built or kept.
    """
    grid = F.grid
    layout = _row_layout(grid)
    va = F.values[:-1]
    vb = F.values[1:]
    loglin = (va > 0.0) & (vb > 0.0)
    la = np.log(va, out=np.zeros_like(va), where=loglin)
    lb = np.log(vb, out=np.zeros_like(vb), where=loglin)
    base = np.where(loglin, la, va)
    slope = np.where(loglin, lb - la, vb - va)
    out = np.zeros(grid.n)
    for rows, _, omega in layout.blocks(F):
        x = layout.x_at(grid.nodes, rows)
        a, _ = grid._interval(x)
        contrib = slope[a]
        contrib *= grid._lam_z(x, a)
        contrib += base[a]
        np.exp(contrib, out=contrib, where=loglin[a])
        contrib *= omega
        first = np.cumsum(layout.counts[rows]) - layout.counts[rows]  # of each row, in the block
        out[rows.start + 1:rows.stop + 1] = np.add.reduceat(contrib, first)
    out *= 2.0
    return out


@dataclass(eq=False)
class _HalfRangePlan(_RowLayout):
    """The pairs of the half-range quadrature on its rows, for the tau sweep.

    Within a row x = z_j - y decreases, so the points whose x falls in one
    grid interval [z_a, z_{a+1}] form a contiguous run.  The runs are the
    pairs: pair p covers the next ``pair_count[p]`` points, all in the
    row of node ``pair_row[p]`` and bracketing interval ``pair_a[p]``.
    The w fraction of x in its interval is ``pair_lam_w[p] + x_dlam_w``,
    the pair's first fraction plus the point's offset from it: the one
    fraction (8 bytes) the plan stores per point.  It is stored, not formed
    per pass, because it costs one log1p per point and ``pair_rule`` runs
    several times per solve.  ``pair_rule`` walks ``blocks``, so its
    temporaries stay block-sized.
    """

    x_dlam_w: np.ndarray
    pair_row: np.ndarray
    pair_a: np.ndarray
    pair_count: np.ndarray
    pair_lam_w: np.ndarray

    @property
    def size(self) -> int:
        return self.x_dlam_w.size

    def pair_rule(self, G: GridFunction) -> "_PairRule":
        """The Gauss rules of the pairs for datum G, fixed for a whole inner
        solve: each pair's measure carries the point weights trapezoid
        weight * G(y), whose moments 0-3 are taken one block at a time.
        Pairs of zero mass are left out: they contribute 0."""
        nodes = np.empty((2, self.pair_count.size))
        weights = np.empty_like(nodes)
        p0 = 0
        for rows, points, omega in self.blocks(G):
            pairs = slice(p0, int(np.searchsorted(self.pair_row, rows.stop, side="right")))
            count = self.pair_count[pairs]
            moments = _moments(self.x_dlam_w[points], omega, np.cumsum(count) - count)
            nodes[:, pairs], weights[:, pairs] = _two_node_rule(self.pair_lam_w[pairs], moments)
            p0 = pairs.stop
        live = np.any(weights > 0.0, axis=0)
        if live.all():
            live = slice(None)  # views, no copies
        row = self.pair_row[live]
        return _PairRule(row, np.bincount(row - 1, minlength=self.counts.size),
                         self.pair_a[live], nodes[:, live], weights[:, live])


def _build_half_range_plan(grid: Grid) -> _HalfRangePlan:
    layout = _row_layout(grid)
    x_dlam_w = np.empty(int(layout.counts.sum()))
    pair_row, pair_a, pair_count, pair_lam_w = [], [], [], []
    for rows, out in _row_blocks(layout.counts):
        idx, t = grid._interval(layout.x_at(grid.nodes, rows))
        lam_w = np.clip(t - idx, 0.0, 1.0)

        starts = np.cumsum(layout.counts[rows]) - layout.counts[rows]  # of each row, in the block
        opens = np.empty(idx.size, dtype=bool)  # a point that starts a pair
        np.not_equal(idx[1:], idx[:-1], out=opens[1:])
        opens[starts] = True  # no pair crosses a row
        first = np.flatnonzero(opens)
        count = np.diff(first, append=idx.size)
        pair_row.append(np.searchsorted(starts, first, side="right") + rows.start)
        pair_a.append(idx[first])
        pair_count.append(count)
        pair_lam_w.append(lam_w[first])
        x_dlam_w[out] = lam_w - np.repeat(lam_w[first], count)

    return _HalfRangePlan(
        **vars(layout),
        x_dlam_w=x_dlam_w,
        pair_row=np.concatenate(pair_row),
        pair_a=np.concatenate(pair_a),
        pair_count=np.concatenate(pair_count),
        pair_lam_w=np.concatenate(pair_lam_w),
    )


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
    """Two-node Gauss rules of the plan pairs of positive mass (``pair_rule``):
    pair p lies in the row of node ``row[p]`` and grid interval ``a[p]``; its
    measure becomes the ``weights[:, p]`` at the w fractions ``nodes[:, p]``.
    Row j - 1 holds ``counts[j - 1]`` of the pairs."""

    row: np.ndarray
    counts: np.ndarray
    a: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray

    def kernel_sums(self, cum) -> np.ndarray:
        """h(z_j) = 2 int_0^{z_j/2} G(y) exp(I(z_j) - I(z_j - y)) dy at every
        node, from the plain cumulative log-integral table ``cum`` of tau.

        The kernel interpolates the table linearly in w, so within a pair in
        interval a its exponent is (c_j - c_a) + lam (c_a - c_{a+1}) at the w
        fraction lam: per pair the two differences are formed once and each
        of the two nodes costs one exp.  Every node is a convex fraction lam
        in [0, 1] with a nonnegative weight, and its exponent equals
        c_j - ((1 - lam) c_a + lam c_{a+1}), a convex combination of
        differences that grow with tau, so h preserves order in tau.  The
        pairs are summed per row in blocks of whole rows, so a row's sum
        does not depend on the block size.
        """
        out = np.zeros(cum.size)
        for rows, pairs in _row_blocks(self.counts):
            row = self.row[pairs]
            a = self.a[pairs]
            slope = cum[a]
            base = cum[row]
            base -= slope
            slope -= cum[1:][a]  # in place: c_a - c_{a+1}
            terms = self.nodes[:, pairs] * slope
            terms += base
            np.exp(terms, out=terms)
            terms *= self.weights[:, pairs]
            out[rows.start + 1:rows.stop + 1] = np.bincount(
                row - (rows.start + 1), weights=terms[0] + terms[1],
                minlength=rows.stop - rows.start)
        out *= 2.0
        return out


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
