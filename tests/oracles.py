"""Oracles of the plan-based operators, sharing no code with the plan.

The single-point convolution quadratures check ``half_convolution_at_nodes``:
each builds its own y sub-grid and interpolates F through ``GridFunction``.
``barrier_sweeps`` checks ``inner_solve`` step by step.
"""

import numpy as np

import coagdrift as cd

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
        image = cd.apply_tau_operator(G, tau, params)
        steps.append((tau.values, image.values.copy()))
        residual = float(np.max(np.abs(image.values - tau.values)))
        np.clip(image.values, 0.0, cap, out=image.values)
        tau = image
        if residual <= opts.tol:
            break
    return steps, tau.values
