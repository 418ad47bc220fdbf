"""Oracles of the plan-based operators, sharing no code with the plan, and
a stand-in for the process pool of ``sweep``.

The single-point convolution quadratures check ``half_convolution_at_nodes``:
each builds its own y sub-grid and interpolates F through ``GridFunction``.
``tau_map`` is one application of the fixed-point map, through the step of
``inner_solve``; ``barrier_sweeps`` checks ``inner_solve`` step by step.  ``reference_plan``
rebuilds the half-range plan one row at a time, with per-point weights and
sample indices.  ``RecordingPool``
replaces ``cli.ProcessPoolExecutor`` so that ``sweep`` starts no process.
"""

import numpy as np

import coagdrift as cd
from coagdrift.tau_iteration import _step

_trapz = getattr(np, "trapezoid", None) or np.trapz


def half_convolution(F, G, z: float) -> float:
    """2 int_0^{z/2} F(z - y) G(y) dy at one point z >= 0, by the trapezoid
    over the nodes below z/2 and the half endpoint."""
    if z == 0.0:
        return 0.0
    nodes = F.grid.nodes
    half = 0.5 * z
    k = int(np.searchsorted(nodes, half, side="left"))
    y = np.concatenate([nodes[:k], [half]])
    b = np.concatenate([G.values[:k], [G(half)]])
    return 2.0 * float(_trapz(F(z - y) * b, y))


def full_convolution_quadrature(F, z: float) -> float:
    """int_0^z F(z - y) F(y) dy at one point z >= 0, by the trapezoid over
    the whole range, which cross-checks the half-range form."""
    if z == 0.0:
        return 0.0
    nodes = F.grid.nodes
    k = int(np.searchsorted(nodes, z, side="left"))
    y = np.concatenate([nodes[:k], [z]])
    b = np.concatenate([F.values[:k], [F(z)]])
    return float(_trapz(F(z - y) * b, y))


def tau_map(G, tau, params):
    """Single application of the fixed-point map to tau with datum G, as
    ``inner_solve`` applies it: with the pair rule of G's half-range plan."""
    values = _step(G.grid.half_range_plan().pair_rule(G), tau, params)
    return cd.TauFunction(G.grid, values, slope0=params.linear_coefficient,
                          limit_inf=params.tau_inf)


def barrier_sweeps(G, params, cap, opts):
    """The iteration of ``inner_solve`` rebuilt from single applications of
    the fixed-point map: start at the constant barrier ``cap``, clip each
    image to [0, cap], stop once a step moves tau by at most ``opts.tol``.

    Returns the steps as (iterate, image) value pairs, the image before
    clipping, and the last iterate after clipping.
    """
    tau = cd.TauFunction(G.grid, np.full(G.grid.n, cap),
                         slope0=params.linear_coefficient, limit_inf=cap)
    steps = []
    for _ in range(opts.max_iter):
        image = tau_map(G, tau, params)
        steps.append((tau.values, image.values.copy()))
        residual = float(np.max(np.abs(image.values - tau.values)))
        np.clip(image.values, 0.0, cap, out=image.values)
        tau = image
        if residual <= opts.tol:
            break
    return steps, tau.values


def reference_plan(grid):
    """The half-range plan built one row at a time, as flat per-point arrays:
    trapezoid weights, sample indices (-1 at the half endpoint, where G is
    interpolated) and the brackets of x = z_j - y."""
    z = grid.nodes
    half = 0.5 * z[1:]
    ks = np.searchsorted(z, half, side="left")
    starts = np.concatenate([[0], np.cumsum(ks + 1)[:-1]])
    weights, y_node_idx, x_flat = [], [], []
    for j in range(1, grid.n):
        k = ks[j - 1]
        y = np.concatenate([z[:k], [half[j - 1]]])
        dy = np.diff(y)
        w = np.empty(k + 1)
        w[0] = 0.5 * dy[0]
        w[-1] = 0.5 * dy[-1]
        if k > 1:
            w[1:-1] = 0.5 * (dy[1:] + dy[:-1])
        weights.append(w)
        y_node_idx.append(np.append(np.arange(k), -1))
        x_flat.append(z[j] - y)
    x_idx, x_lam_z, x_lam_w = grid.bracket(np.concatenate(x_flat))
    return dict(starts=starts, counts=ks + 1, weights=np.concatenate(weights),
                y_node_idx=np.concatenate(y_node_idx), x_idx=x_idx,
                x_lam_z=x_lam_z, x_lam_w=x_lam_w)


def reference_samples(ref, G):
    """G at every point of the reference plan ``ref``: the grid sample at a
    node, the interpolant at a half endpoint."""
    node = ref["y_node_idx"] >= 0
    out = np.empty(node.size)
    out[node] = G.values[ref["y_node_idx"][node]]
    out[~node] = G(0.5 * G.grid.nodes[1:])
    return out


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and answers
    every job in-process without solving, so no process is started."""

    created: list = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return [(job["m0"], 0, job["out"]) for job in jobs]
