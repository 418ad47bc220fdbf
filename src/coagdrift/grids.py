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

The half-range quadrature at all nodes has one row of points per node,
O(N^2) points in all.  The points of one row z_j whose argument z_j - y
falls in the same grid interval are a run of consecutive y nodes and form
a pair.  The plan of a grid holds only per-row and per-node arrays: the
points per row, the trapezoid weights and the candidate intervals per row.
It is built in O(N) on every call, and no grid caches one.  Every pass
over the pairs walks the blocks of whole rows of ``_row_blocks``, of at
most 2^16 points each (122 blocks at 4097 nodes), and none keeps a pair
list: per block, ``_block_pairs`` finds per pair its interval, first point
and point count by searchsorted on node ranges, and per row its number of
pairs.  The z fraction of the argument is affine in y along a pair, so the
Gauss rule of a pair, per datum, takes its moments from a disjoint sparse
table of node moments (about 2 MB at 4097 nodes).  The pair rule yields the
rule of one block's live pairs at a time, and a block's kernel sums take at
most two exp per pair.  Row j reads the log-integral table at nodes up to j
only, and at node j + 1 only through the pair of the point y = 0, at w
fraction 0 exactly: the tau sweep can finish a block's rows before it asks
for the next block's rule, and keeps one rule alive.  The convolution runs
once per solve and in ``verify``: it forms one exponent per pair and one
exp per point.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DivergentMomentError, NumericalConsistencyError, ParameterDomainError

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

    def __post_init__(self):
        self.nodes = np.ascontiguousarray(self.nodes, dtype=float)
        if self.nodes.ndim != 1 or self.nodes.size < 2:
            raise ParameterDomainError("grid needs at least two nodes")
        if not np.all(np.isfinite(self.nodes)):
            raise ParameterDomainError("nodes must be finite")
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

    @cached_property
    def dw(self) -> float:
        return float(np.log1p((1.0 - self.v) * self.zmax) / (self.n - 1))

    def sprime(self, z):
        """dz/dw = (1 + (1-v) z)/(1-v)."""
        return (1.0 + (1.0 - self.v) * np.asarray(z, dtype=float)) / (1.0 - self.v)

    def bracket(self, z):
        """Bracketing interval index and linear fraction in z.

        Returns (idx, lam_z) with nodes[idx] <= z < nodes[idx+1] (clipped at
        the ends, so zmax lies in the last interval at fraction 1): the
        interval rule of the half-range pairs.
        """
        z = np.asarray(z, dtype=float)
        idx = np.clip(np.searchsorted(self.nodes, z, side="right") - 1, 0, self.n - 2)
        lam_z = np.clip((z - self.nodes[idx]) / np.diff(self.nodes)[idx], 0.0, 1.0)
        return idx, lam_z

    def half_range_plan(self) -> "_HalfRangePlan":
        """The rows of the half-range quadrature, built anew on every call:
        O(N), and no grid caches a plan."""
        z = self.nodes
        half = 0.5 * z[1:]
        ks = np.searchsorted(z, half, side="left")  # nodes strictly below z_j/2
        # trapezoid weight of each node between its two gaps; in a row only
        # the last node and the half endpoint see the gap up to z_j/2 instead
        gap = np.diff(z, prepend=0.0, append=z[-1])  # zero beyond both ends
        tail = half - z[ks - 1]
        top = np.minimum(np.arange(1, self.n), self.n - 2)  # the interval of x = z_j
        return _HalfRangePlan(counts=ks + 1, node_w=0.5 * (gap[:-1] + gap[1:]),
                              last_w=0.5 * (gap[ks - 1] + tail), half_w=0.5 * tail,
                              spans=top - ks + 2)


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

    def _interpolant(self, idx):
        """The interpolation rule on the grid intervals ``idx``: (loglin, a,
        b), where ``loglin`` marks the intervals whose two samples are
        positive, and a and b are the log-values of the interval's two
        samples where ``loglin`` holds and the values elsewhere.  At z
        fraction lam the interpolant is (1 - lam) a + lam b, exponentiated
        where ``loglin`` holds: linear in log-value, exact on the exponential
        family, and linear in the value at a sample that is not positive."""
        a = self.values[idx]
        b = self.values[idx + 1]
        loglin = (a > 0.0) & (b > 0.0)
        np.log(a, out=a, where=loglin)
        np.log(b, out=b, where=loglin)
        return loglin, a, b

    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        scalar = z.ndim == 0
        z = np.atleast_1d(z)
        if not np.all(z >= 0.0):
            raise ParameterDomainError("evaluation points must be nonnegative")
        out = np.empty_like(z)
        inside = z <= self.grid.zmax
        if np.any(inside):
            idx, lam_z = self.grid.bracket(z[inside])
            loglin, a, b = self._interpolant(idx)
            a *= 1.0 - lam_z
            b *= lam_z
            a += b
            out[inside] = np.exp(a, out=a, where=loglin)
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
    log-integral is continued with it).  It carries no tail exponent: the
    tail of a reconstructed profile decays with ``ModelParams.tau_inf``.
    """

    grid: Grid
    values: np.ndarray
    slope0: float

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n,):
            raise ParameterDomainError(
                f"values shape {self.values.shape} does not match grid size {self.grid.n}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ParameterDomainError("tau values must be finite")

    def _integrand_on(self, start: int, stop: int) -> np.ndarray:
        """tau(s)/s * ds/dw on the nodes [start, stop), with the s = 0 value
        continued as slope0 * s'(0)."""
        skip = int(start == 0)  # node 0, where tau(s)/s is continued
        z = self.grid.nodes[start + skip:stop]
        out = np.empty(stop - start)
        out[skip:] = self.values[start + skip:stop] * self.grid.sprime(z) / z
        if skip:
            out[0] = self.slope0 / (1.0 - self.grid.v)
        return out


# ----------------------------------------------------------------------
# quadrature
# ----------------------------------------------------------------------

def _derivative_uniform(g: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order finite-difference derivative on a uniform grid."""
    if g.size < 5:
        return np.gradient(g, h)
    d = np.empty_like(g)
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

# Points per block of rows of ``_row_blocks``, the one blocking of every
# pass over the points or pairs, where a candidate interval counts as four
# points.  At 4097 nodes (7.6M points, 0.81M candidate intervals) there are
# 122 blocks.  The tau sweep keeps one block's rule, so the block size sets
# the solve's peak: traced, an inner solve of the README pair there peaks at
# 3.0, 3.8 and 5.3 MB in blocks of 2^15, 2^16 and 2^17 points, and the
# convolution at 1.3, 2.2 and 3.9 MB.  Each block costs a fixed number of
# numpy calls in the rule build and in every sweep: one rule build, four
# sweeps and two convolutions there take 0.38, 0.34 and 0.35 s (medians of
# 3 in-process runs on 2 shared vCPUs).
_PLAN_BLOCK_POINTS = 1 << 16


def _row_blocks(plan: _HalfRangePlan) -> list[slice]:
    """The blocks of whole rows of ``plan``, in row order, that every pass
    over its points or pairs walks.  A block holds at most
    ``_PLAN_BLOCK_POINTS`` points, a candidate interval counting as four; a
    longer row is a block of its own."""
    ends = np.maximum(plan.counts, 4 * plan.spans).cumsum().tolist()
    blocks, start, before = [], 0, 0
    while start < len(ends):
        stop = max(start + 1, bisect.bisect_right(ends, before + _PLAN_BLOCK_POINTS, start))
        blocks.append(slice(start, stop))
        start, before = stop, ends[stop - 1]
    return blocks


def _block_pairs(grid: Grid, plan: _HalfRangePlan, rows: slice):
    """The pairs of the block ``rows`` of ``_row_blocks``: pairs per row,
    and per pair its interval, first point and point count, from node
    ranges with no pass over the points.  In row j the nodes y_i with
    x = z_j - y_i in [z_a, z_{a+1}) run from the first with
    y_i > z_j - z_{a+1} to the first with y_i > z_j - z_a, for the row's
    candidate intervals a from min(j, n - 2) down to k_j - 1: one
    searchsorted per interval, and intervals without a point are skipped.
    The candidate-sized temporaries end with the call."""
    z = grid.nodes
    k = plan.counts[rows] - 1
    span = plan.spans[rows]
    row_end = span.cumsum() - 1  # each row's interval k_j - 1, in the block
    row_start = row_end - span + 1
    b = (k + span - 1 + row_start).repeat(span) - np.arange(row_end[-1] + 1)  # a + 1
    first = z.searchsorted(z[rows.start + 1:rows.stop + 1].repeat(span) - z[b], side="right")
    first[row_start] = 0  # x = zmax lies in the last interval
    np.minimum(first, k.repeat(span), out=first)  # z_j/2 may be a node
    count = np.empty_like(first)
    np.subtract(first[1:], first[:-1], out=count[:-1])
    count[row_end] = k - first[row_end] + 1  # the last nodes and the half endpoint
    live = count > 0
    return np.add.reduceat(live, row_start, dtype=k.dtype), b[live] - 1, first[live], count[live]


def _z_fraction(z, dz, rows, per_row, a, y):
    """The z fraction (z_j - y - z_a)/dz_a of x = z_j - y in interval a, per
    pair of the rows ``rows`` (``per_row`` pairs each), at the position
    ``y`` in each pair."""
    lam = z[rows.start + 1:rows.stop + 1].repeat(per_row)
    lam -= y
    lam -= z[a]
    lam /= dz[a]
    return lam


def half_convolution_at_nodes(F: GridFunction) -> np.ndarray:
    """Self-convolution int_0^{z_j} F(z_j - y) F(y) dy at every grid node,
    vectorized, as its symmetric half-range form 2 int_0^{z_j/2}.

    F(z_j - y) is interpolated by the rule of ``GridFunction._interpolant``,
    in the interval of the pair that holds the point: per grid interval a
    the base log F(z_a), the increment log F(z_{a+1}) - log F(z_a) and its
    rate per unit z are formed once.  Per pair the exponent E at its first
    point y_0 is formed once, and along the pair it is E - rate (y - y_0),
    one exp per point.  Intervals with a nonpositive endpoint interpolate
    the values linearly instead.  The pairs are found per block of
    ``_row_blocks`` (``_block_pairs``), and the points weighted by trapezoid
    weight * F(y) and summed per row, a block of rows at a time; a block's
    temporaries end before the next block's pairs are found.
    """
    grid = F.grid
    z = grid.nodes
    layout = grid.half_range_plan()
    loglin, base, slope = F._interpolant(np.arange(grid.n - 1))
    slope -= base
    dz = np.diff(z)
    rate = slope / dz
    node = layout.node_w * F.values
    last, half = layout.end_masses(F)
    half_z = 0.5 * z[1:]
    all_loglin = bool(loglin.all())

    def row_sums(rows):
        """Half the convolution at the block's nodes; its temporaries end
        with the call."""
        per_row, a, _, count = _block_pairs(grid, layout, rows)
        counts = layout.counts[rows]
        end = np.cumsum(counts) - 1  # the half endpoints, in the block
        y = np.concatenate([z[:c] for c in counts.tolist()])  # the points of each row
        y[end] = half_z[rows]
        y0 = y[np.cumsum(count) - count]  # the pairs tile the points in order
        lam = _z_fraction(z, dz, rows, per_row, a, y0)
        lam.clip(0.0, 1.0, out=lam)
        lam *= slope[a]
        lam += base[a]  # the exponent at y_0 (the value, in a linear interval)
        y -= y0.repeat(count)
        y *= rate[a].repeat(count)
        np.subtract(lam.repeat(count), y, out=y)
        np.exp(y, out=y, where=all_loglin or loglin[a].repeat(count))  # a mask if needed
        omega = np.concatenate([node[:c] for c in counts.tolist()])
        omega[end - 1] = last[rows]
        omega[end] = half[rows]
        y *= omega
        return np.add.reduceat(y, end - (counts - 1))

    out = np.zeros(grid.n)
    for rows in _row_blocks(layout):
        out[rows.start + 1:rows.stop + 1] = row_sums(rows)
    out *= 2.0
    return out


@dataclass(eq=False)
class _HalfRangePlan:
    """Rows of the quadrature 2 int_0^{z_j/2} A(z_j - y) B(y) dy at every
    node z_j, j >= 1, and the pairs of the tau sweep on them.

    Row j - 1 holds the y sub-grid (z_0, ..., z_{k_j - 1}, z_j/2) of node
    z_j, so a point's sample index is its offset in its row, and B is
    interpolated only at the half endpoint.  Its trapezoid weight is the
    node's ``node_w``, except at the row's last node and half endpoint,
    whose gaps end at z_j/2 (``last_w`` and ``half_w`` per row).

    Within a row x = z_j - y decreases, so the points whose x falls in one
    grid interval [z_a, z_{a+1}) are a run of consecutive y nodes: the
    pairs.  The interval is that of ``Grid.bracket``.  Row j - 1 has
    ``spans[j - 1]`` candidate intervals, from min(j, n - 2), where x = z_j
    lies, down to k_j - 1, where the half endpoint ends the row's last pair
    (at fraction 1 if z_j/2 is the node z_{k_j}); they bound its pairs.
    The plan holds per-row and per-node arrays only: ``_block_pairs``
    finds the pairs one block of rows at a time, and the z fraction of x
    is affine in y along a pair, so ``pair_rule`` takes each pair's moments
    from sums over its node range.
    """

    counts: np.ndarray
    node_w: np.ndarray
    last_w: np.ndarray
    half_w: np.ndarray
    spans: np.ndarray

    @property
    def size(self) -> int:
        """The number of points of the quadrature."""
        return int(self.counts.sum())

    def pair_rule(self, G: GridFunction):
        """The Gauss rules of the pairs for datum G, one ``_PairRule`` per
        block of ``_row_blocks``, in row order and built lazily: a block's
        rule is formed when the caller asks for it, so a caller that drops
        each rule before it asks for the next keeps one block's rule alive.

        A pair's measure carries the point weights trapezoid weight * G(y)
        at the z fractions lam = (z_j - y - z_a)/dz_a of its points.  Its
        moments 0-3 are the table's moments of its nodes that take
        ``node_w`` (``_moment_table``), about a point of the pair and scaled
        from y to lam, plus the row's last node (``last_w``) and half
        endpoint (``half_w``).  The two-node rule is formed in lam, and its
        nodes are mapped to w fractions exactly, one log1p each.  Pairs of
        zero mass are left out: they contribute 0.  A rule that is not
        finite is a consistency error, not a pair to drop.
        """
        grid = G.grid
        z = grid.nodes
        dz = np.diff(z)
        # the w fraction of z fraction lam in interval a is log1p(lam stretch_a)/dw
        stretch = (1.0 - grid.v) * dz / (1.0 + (1.0 - grid.v) * z[:-1])
        k = self.counts - 1  # nodes below z_j/2, per row
        table = _moment_table(self.node_w[:k[-1]] * G.values[:k[-1]], z[:k[-1]])
        ends = self.end_masses(G)
        for rows in _row_blocks(self):
            yield self._block_rule(grid, dz, stretch, table, ends, rows)

    def _block_rule(self, grid, dz, stretch, table, ends, rows):
        """The ``_PairRule`` of the block ``rows`` of ``_row_blocks``; its
        pairs and build temporaries end with the call, and each temporary
        is dropped or overwritten once spent."""
        per_row, a, moments, origin, width = self._pair_moments(grid, table, ends, rows)
        lam0 = _z_fraction(grid.nodes, dz, rows, per_row, a, origin)
        del origin
        lam, w = _z_fraction_rule(moments, lam0, dz[a], width)
        del moments, lam0, width  # overwritten by the rule
        lam *= stretch[a]
        np.log1p(lam, out=lam)
        lam /= grid.dw
        if not (np.isfinite(lam).all() and np.isfinite(w).all()):
            raise NumericalConsistencyError(
                f"a pair rule of the half-range quadrature is not finite on this "
                f"{grid.n}-node grid (rows {rows.start + 1} to {rows.stop})")
        lam.clip(0.0, 1.0, out=lam)
        live = w[0] > 0.0
        live |= w[1] > 0.0
        # compress keeps the (2, pairs) arrays in C order; a [:, live] index
        # would return them in F order, and kernel_sums then takes about 1.7
        # times as long.  Rebinding w frees the moments it was formed in.
        w = w.compress(live, axis=1)
        lam = lam.compress(live, axis=1)
        row = np.arange(rows.stop - rows.start, dtype=a.dtype).repeat(per_row)
        return _PairRule(rows, row[live], a[live], lam, w)

    def end_masses(self, G: GridFunction):
        """Per row the masses trapezoid weight * G(y) of the last node and of
        the half endpoint."""
        return self.last_w * G.values[self.counts - 2], self.half_w * G(0.5 * G.grid.nodes[1:])

    def _pair_moments(self, grid, table, ends, rows):
        """The pairs of the block ``rows`` (``_block_pairs``: pairs per row,
        and per pair its interval) and the moments 0-3 in y of their
        measures, about a position ``origin`` in each pair, and each pair's
        width in y.  ``ends`` holds per row the masses of the last node and
        of the half endpoint, which ``table`` leaves out."""
        z = grid.nodes
        per_row, a, first, count = _block_pairs(grid, self, rows)
        k = self.counts[rows] - 1
        half_z = 0.5 * z[rows.start + 1:rows.stop + 1]
        last_pair = per_row.cumsum() - 1  # of each row, in the block
        only_half = count[last_pair] == 1  # a last pair of the half endpoint alone
        holds_last = last_pair - only_half  # the pair of the row's last node
        last_node = count  # count is spent: first + count - 1, in place
        last_node += first
        last_node -= 1
        last_node[last_pair] -= 1
        in_table = last_node.copy()  # the last node takes last_w, not node_w
        in_table[holds_last] -= 1
        empty = in_table < first
        in_table[empty] = table.zero
        moments, origin = _range_moments(table, np.where(empty, table.zero, first), in_table)
        del in_table
        y0 = z[first]
        del first
        y0[last_pair[only_half]] = half_z[only_half]
        np.copyto(origin, y0, where=empty)
        for at, mass, y in ((holds_last, ends[0][rows], z[k - 1]),
                            (last_pair, ends[1][rows], half_z)):
            d = y - origin[at]
            moments[:, at] += mass * d ** _POWERS
        width = z[last_node]
        del last_node
        width[last_pair] = half_z
        width -= y0
        return per_row, a, moments, origin, width


# The powers 0-3, a column for broadcasting against positions.
_POWERS = np.arange(4.0)[:, None]


@dataclass(frozen=True)
class _MomentTable:
    """Disjoint sparse table of the moments 0-3 of node masses m_i at
    positions y_i.

    On level h the nodes are split into blocks of 2^(h+1), and each node
    holds the moments about its block's middle node y_c of the masses
    between itself and the middle: suffix sums on the left half, prefix
    sums on the right, so each sum is one-signed.  A range [l, r] whose
    ends differ first in bit h takes one entry of each end on that level.
    After the levels, ``sums`` holds a level of each node's own moments
    about itself, for a range of one node, and a level of zeros.  The
    table ends in a node of zero mass, for an empty range.  The look-ups
    ``lo``, ``hi`` and ``centre`` are indexed by l XOR r: the row offsets
    of the two entries, and the bits of r that the centre keeps.
    """

    sums: np.ndarray  # (4, entries)
    y: np.ndarray
    zero: int  # the node of zero mass
    lo: np.ndarray
    hi: np.ndarray
    centre: np.ndarray


def _moment_table(mass: np.ndarray, y: np.ndarray) -> _MomentTable:
    levels = mass.size.bit_length()  # room for the zero node at index mass.size
    size = 1 << levels
    m = np.zeros(size)
    m[:mass.size] = mass
    yp = np.full(size, y[-1])
    yp[:y.size] = y
    sums = np.zeros((4, (levels + 2) * size))
    sums[0, levels * size:(levels + 1) * size] = m
    for h in range(levels):
        shape = (size >> (h + 1), 2, 1 << h)
        d = yp.reshape(shape)
        d = d - d[:, 1:, :1]  # about each block's middle node
        term = np.stack([m.reshape(shape)] * 4)
        term[1] *= d
        term[2] = term[1] * d
        term[3] = term[2] * d
        level = sums[:, h * size:(h + 1) * size].reshape((4,) + shape)
        np.cumsum(term[:, :, 0, ::-1], axis=2, out=level[:, :, 0, ::-1])
        np.cumsum(term[:, :, 1], axis=2, out=level[:, :, 1])
    top = np.zeros(size, dtype=np.intp)  # the highest set bit of l XOR r
    top[0] = levels
    top[1:] = np.frexp(np.arange(1, size))[1] - 1
    lo = top * size
    hi = lo.copy()
    hi[0] += size  # a one-node range: its own moments and zeros
    centre = ~((1 << top) - 1)
    centre[0] = -1
    return _MomentTable(sums, yp, mass.size, lo, hi, centre)


def _range_moments(table: _MomentTable, first, last):
    """Moments 0-3 of the table's masses of the node ranges [first, last],
    as an array of shape (4, ranges), and the position each is taken about:
    the middle node of the level on which the range splits, or a one-node
    range's node.  That position lies in the range, so each moment carries
    rounding of about eps * mass * width^s."""
    split = first ^ last
    at = table.lo.take(split)
    at += first
    moments = table.sums.take(at, axis=1)
    at = table.hi.take(split)
    at += last
    for s, row in enumerate(table.sums):  # row by row: no second (4, ranges) array
        moments[s] += row.take(at)
    at = table.centre.take(split)
    at &= last
    return moments, table.y.take(at)


def _z_fraction_rule(moments, lam0, dz, width):
    """Two-node rules in the z fraction lam = lam0 - (y - y_0)/dz of pairs
    whose masses have the moments 0-3 ``moments`` in y about the point y_0
    at fraction ``lam0``, and spread over ``width`` in y; ``moments``,
    ``lam0`` and ``width`` are overwritten."""
    width /= dz
    dz = -1.0 / dz  # the scale from y to lam, which falls as y rises
    moments[1] *= dz
    moments[2] *= dz * dz
    moments[3] *= dz * dz * dz
    del dz  # spent before the rule's own temporaries
    return _two_node_rule(lam0, moments, width)


# A pair measure whose variance is at most this fraction of the square of
# its width, the distance from its first point to its last, is one atom up
# to rounding; its Gauss rule is the one node at the mean.  The table's
# moments carry rounding of about eps * mass * width^s whatever the spread
# of the mass, so a smaller variance is no information, and two nodes
# formed from it would land anywhere (q = c3/c2 below may even overflow).
_ONE_NODE_VARIANCE = 1e-14


def _two_node_rule(lam0, moments, width):
    """Nodes and weights, each of shape (2, pairs), of the two-node Gauss
    rule of each measure mu_p on [0, 1] whose moments 0-3 about ``lam0[p]``
    are ``moments[:, p]`` and whose support spans ``width[p]``; ``moments``
    and ``lam0`` are overwritten, and the weights are rows of ``moments``.

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
    # c2 = s2 - mean^2 and c3 = s3 - mean (3 s2 - 2 mean^2), each operation
    # on the same operands as in that form, in place where one is spent
    c2 = mean * mean
    np.subtract(s2, c2, out=c2)  # s2 - mean^2
    c3 = 2.0 * mean
    c3 *= mean
    np.subtract(3.0 * s2, c3, out=c3)
    c3 *= mean
    np.subtract(s3, c3, out=c3)  # s3 - mean (3 s2 - 2 mean^2)
    two = c2 > _ONE_NODE_VARIANCE * width * width
    # a one-node measure runs the two-node formulas with c2 = 1 and then
    # takes the node at the mean with the whole mass instead
    one = ~two
    c2[one] = 1.0
    q = c3
    q /= c2
    r = c2
    r *= 4.0
    r += q * q
    np.sqrt(r, out=r)
    nodes = np.empty((2, q.size))
    np.subtract(q, r, out=nodes[0])
    np.add(q, r, out=nodes[1])
    nodes *= 0.5
    scale = np.subtract(nodes[1], nodes[0], out=q)
    np.divide(m0, scale, out=scale)
    weights = moments[2:]  # s2 and s3 are spent
    np.multiply(nodes[1], scale, out=weights[0])
    np.negative(nodes[0], out=weights[1])
    weights[1] *= scale
    np.copyto(weights[0], m0, where=one)
    weights[1][one] = 0.0
    nodes *= two
    lam0 += mean
    nodes += lam0
    return nodes.clip(0.0, 1.0, out=nodes), weights


@dataclass(eq=False)
class _PairRule:
    """Two-node Gauss rules of the plan pairs of positive mass in one block
    of whole rows of ``_row_blocks`` (``pair_rule``): the block's rows, and
    per live pair its row in the block, its grid interval a, and the w
    fractions of its two nodes and their weights, each of shape (2, pairs)."""

    rows: slice
    row: np.ndarray
    a: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray

    def kernel_sums(self, cum) -> np.ndarray:
        """h(z_j) = 2 int_0^{z_j/2} G(y) exp(I(z_j) - I(z_j - y)) dy at the
        block's nodes z_j, j from rows.start + 1 to rows.stop, from the plain
        cumulative log-integral table ``cum`` of tau.

        The kernel interpolates the table linearly in w, so within a pair in
        interval a its exponent is (c_j - c_a) + lam (c_a - c_{a+1}) at the w
        fraction lam: per pair the two differences are formed once and each
        of the two nodes costs one exp.  Every node is a convex fraction lam
        in [0, 1] with a nonnegative weight, and its exponent equals
        c_j - ((1 - lam) c_a + lam c_{a+1}), a convex combination of
        differences that grow with tau, so h preserves order in tau.  Row j
        reads the table at nodes a <= j and a + 1 <= j + 1, and at j + 1 only
        in the pair of interval j, whose one point y = 0 sits at lam = 0
        exactly: h at z_j does not depend on c_{j+1} in any bit.
        ``bincount`` sums a row's pairs in order, so a row's sum does not
        depend on the block size.
        """
        rows = self.rows
        slope = cum[self.a]
        base = cum[rows.start + 1:rows.stop + 1][self.row]
        base -= slope
        slope -= cum[1:][self.a]  # in place: c_a - c_{a+1}
        terms = self.nodes * slope
        terms += base
        np.exp(terms, out=terms)
        terms *= self.weights
        out = np.bincount(self.row, weights=terms[0] + terms[1],
                          minlength=rows.stop - rows.start)
        out *= 2.0
        return out


# ----------------------------------------------------------------------
# log-integral of tau(s)/s
# ----------------------------------------------------------------------

def cumulative_log_integral(tau: TauFunction) -> np.ndarray:
    """Cumulative I(z_j) = int_0^{z_j} tau(s)/s ds on the grid.

    Computed as the uniform trapezoid in w of tau/s * ds/dw with the
    Euler-Maclaurin endpoint term subtracted at every prefix, giving
    pointwise order 4.
    """
    grid = tau.grid
    out = np.zeros(grid.n)
    _continue_log_integral(out, tau, 1, grid.n)
    if grid.n >= 5:
        dw = grid.dw
        dg = _derivative_uniform(tau._integrand_on(0, grid.n), dw)
        out -= dw * dw / 12.0 * (dg - dg[0])
    return out


def _continue_log_integral(cum, tau: TauFunction, start: int, stop: int):
    """Bring the plain table ``cum`` of tau up to date on the nodes
    [start, stop), in place, from its entry at node start - 1: the trapezoid
    increments in w of tau(s)/s * ds/dw added one after another, so that
    each entry has the bits of the whole table summed from node 0.  The
    plain table, without the endpoint correction of
    ``cumulative_log_integral``, keeps every quadrature weight nonnegative,
    which the monotone fixed-point sweep needs."""
    g = tau._integrand_on(start - 1, stop)
    inc = cum[start:stop]
    np.add(g[1:], g[:-1], out=inc)
    inc *= 0.5 * tau.grid.dw
    np.cumsum(cum[start - 1:stop], out=cum[start - 1:stop])
