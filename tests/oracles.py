"""Oracles of the plan-based operators, sharing no code with the plan, and
a stand-in for the process pool of ``sweep``.

The single-point convolution quadratures check ``half_convolution_at_nodes``:
each builds its own y sub-grid and interpolates F through ``GridFunction``.
``tau_map`` is one application of the fixed-point map on every row, through
the block step of ``inner_solve``; ``barrier_sweeps`` checks the block march
of ``inner_solve`` step by step, and ``global_sweeps`` is the iteration of
all rows at once, whose fixed point the march must reach.  ``reference_plan``
rebuilds the half-range plan one row at a time, with per-point weights and
sample indices.  ``reference_step`` and ``reference_run`` are the explicit
Euler step and the march of ``simulate`` with a fresh array for every
intermediate.  ``RecordingPool``
replaces ``cli.ProcessPoolExecutor`` so that ``sweep`` starts no process.
"""

import numpy as np

import coagdrift as cd
from coagdrift.evolution import _WINDOW_SAMPLES
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


def tau_map(G, tau, params, rules=None):
    """Single application of the fixed-point map to tau with datum G on
    every row, as ``inner_solve`` applies it to one block of rows: with the
    block rules ``rules`` of G's half-range plan, by default built anew."""
    if rules is None:
        rules = G.grid.half_range_plan().pair_rule(G)
    cum = cd.cumulative_log_integral(tau, corrected=False)
    values = np.zeros(G.grid.n)
    for rule in rules:
        values[rule.rows.start + 1:rule.rows.stop + 1] = _step(rule, tau, cum, params)
    return cd.TauFunction(G.grid, values, slope0=params.linear_coefficient)


def kernel_sums(plan, G, cum):
    """h at every node, 0 at z = 0, from the block rules of ``plan`` for
    datum G and the plain log-integral table ``cum``."""
    h = np.zeros(G.grid.n)
    for rule in plan.pair_rule(G):
        h[rule.rows.start + 1:rule.rows.stop + 1] = rule.kernel_sums(cum)
    return h


def barrier_sweeps(G, params, cap, opts):
    """The march of ``inner_solve`` rebuilt from whole applications of the
    fixed-point map: the blocks of G's pair rule in row order, each started
    at the constant barrier ``cap`` with the rows before it final.  A step
    applies ``tau_map`` to all of tau, keeps the image on the block's rows,
    clips it to [0, cap], and the block stops once a step moves its rows by
    at most ``opts.tol``.  Tau is 0 at z = 0, the map's image there.

    Returns per block its steps as (iterate, image) value pairs on the
    block's nodes, the image before clipping, and the last iterate after
    clipping.
    """
    rules = list(G.grid.half_range_plan().pair_rule(G))
    values = np.full(G.grid.n, cap)
    values[0] = 0.0
    blocks = []
    for rule in rules:
        nodes = slice(rule.rows.start + 1, rule.rows.stop + 1)
        steps = []
        for _ in range(opts.max_iter):
            tau = cd.TauFunction(G.grid, values.copy(), slope0=params.linear_coefficient)
            image = tau_map(G, tau, params, rules).values[nodes]
            steps.append((values[nodes].copy(), image.copy()))
            residual = float(np.max(np.abs(image - values[nodes])))
            values[nodes] = np.clip(image, 0.0, cap)
            if residual <= opts.tol:
                break
        blocks.append(steps)
    return blocks, values


def global_sweeps(G, params, cap, opts, start=None):
    """The all-rows iteration: start at the constant barrier ``cap`` (or at
    the values ``start``), apply the map to every row at once, clip each
    image to [0, cap], and stop once a step moves tau by at most
    ``opts.tol``.  Returns the step count and the last iterate."""
    rules = list(G.grid.half_range_plan().pair_rule(G))
    values = np.full(G.grid.n, cap) if start is None else start
    tau = cd.TauFunction(G.grid, values, slope0=params.linear_coefficient)
    for iteration in range(1, opts.max_iter + 1):
        image = tau_map(G, tau, params, rules)
        residual = float(np.max(np.abs(image.values - tau.values)))
        np.clip(image.values, 0.0, cap, out=image.values)
        tau = image
        if residual <= opts.tol:
            break
    return iteration, tau.values


def reference_plan(grid):
    """The half-range quadrature built one row at a time, as flat per-point
    arrays: trapezoid weights, sample indices (-1 at the half endpoint, where
    G is interpolated), x = z_j - y, its bracket by ``Grid.bracket`` and its
    fraction in w in that interval."""
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
    x = np.concatenate(x_flat)
    x_idx = grid.bracket(x)[0]
    w = np.log1p((1.0 - grid.v) * z)
    x_lam_w = np.clip((np.log1p((1.0 - grid.v) * x) - w[x_idx]) / np.diff(w)[x_idx], 0.0, 1.0)
    return dict(starts=starts, counts=ks + 1, weights=np.concatenate(weights),
                y_node_idx=np.concatenate(y_node_idx), x=x, x_idx=x_idx, x_lam_w=x_lam_w)


def reference_samples(ref, G):
    """G at every point of the reference plan ``ref``: the grid sample at a
    node, the interpolant at a half endpoint."""
    node = ref["y_node_idx"] >= 0
    out = np.empty(node.size)
    out[node] = G.values[ref["y_node_idx"][node]]
    out[~node] = G(0.5 * G.grid.nodes[1:])
    return out


def reference_step(state, dt, *, drift=True, coagulation=True):
    """Cell averages after one explicit Euler step of ``state``, without
    the step-size and sign checks: the upwind flux by ``np.where`` over f
    padded with an empty cell at each end, a zero-filled right-hand side,
    and the gain by ``rfft`` and ``irfft`` into new arrays."""
    f, edges, m1_target = state.f, state.edges, state.m1_target
    dx = float(edges[1] - edges[0])
    m0 = float(np.sum(f) * dx)
    rhs = np.zeros_like(f)
    if drift:
        s = m0 / m1_target * edges - 1.0
        left = np.concatenate(([0.0], f))
        right = np.concatenate((f, [0.0]))
        flux = np.where(s > 0.0, left, right) * s
        rhs -= (flux[1:] - flux[:-1]) / dx
    if coagulation:
        m = f.size
        n = 1 << (2 * m - 2).bit_length()
        spectrum = np.fft.rfft(f, n)
        c = np.fft.irfft(spectrum * spectrum, n)[:m]
        gain = np.empty(m)
        gain[0] = 0.5 * dx * c[0]
        gain[1:] = 0.5 * dx * (c[:-1] + c[1:])
        rhs += gain - 2.0 * f * m0
    return np.clip(f + dt * rhs, 0.0, None)


def reference_run(state, t_end, F, z_window, cfl=0.5):
    """``simulate(state, t_end, cfl=cfl, profile=F, z_window=z_window)``
    rebuilt from ``reference_step``: the final cell averages and a
    diagnostics row (t, m0, m1, u, self-similar error) after every step."""
    edges, f, t, m1_target = state.edges, state.f, state.t, state.m1_target
    dx = float(edges[1] - edges[0])
    centers = 0.5 * (edges[:-1] + edges[1:])
    z = np.linspace(0.0, z_window, _WINDOW_SAMPLES)
    F_z = F(z)

    def row(f, t):
        m0 = float(np.sum(f) * dx)
        err = float(np.max(np.abs(t**2 * np.interp(t * z, centers, f) - F_z)))
        return (t, m0, float(np.sum(centers * f) * dx), m0 / m1_target, err)

    rows = [row(f, t)]
    while t < t_end:
        m0 = float(np.sum(f) * dx)
        speed = float(np.max(np.abs(m0 / m1_target * edges - 1.0)))
        dt = min(t_end - t, cfl * dx / speed)
        if m0 > 0.0:
            dt = min(dt, 0.25 / m0)
        f = reference_step(cd.EvolutionState(edges=edges, f=f, t=t, m1_target=m1_target), dt)
        t = t + dt
        rows.append(row(f, t))
    return f, rows


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
