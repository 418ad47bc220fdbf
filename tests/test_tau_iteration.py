import dataclasses
import math
import warnings
import weakref

import numpy as np
import pytest

import coagdrift as cd
from coagdrift import grids, tau_iteration
from coagdrift.model import iteration_barrier
from oracles import (TOL_INNER, barrier_sweeps, global_sweeps, kernel_sums, plain_log_integral,
                     reference_plan, reference_samples, tau_map)


@pytest.fixture(scope="module")
def setup():
    params = cd.ModelParams(0.5, 0.005)
    grid = cd.build_grid(1e5, 1025, 0.5)
    seed = cd.seed_profile(params, grid)
    constants = cd.derive_constants(params)
    return params, grid, seed, constants


def _const_tau(grid, value, slope0):
    return cd.TauFunction(grid, np.full(grid.n, value), slope0=slope0)


def test_operator_positivity_and_zero_at_origin(setup):
    params, grid, seed, constants = setup
    tau = _const_tau(grid, constants.tau_star, params.linear_coefficient)
    out = tau_map(seed, tau, params)
    assert out.values[0] == 0.0
    assert np.all(out.values >= 0.0)
    assert out.slope0 == pytest.approx(params.linear_coefficient)


def test_operator_monotone_in_tau(setup):
    params, grid, seed, _ = setup
    lo = cd.TauFunction(grid, 0.5 * grid.nodes / (1.0 + grid.nodes) * 3.0, slope0=1.5)
    hi = cd.TauFunction(grid, lo.values + 0.3, slope0=1.5)
    out_lo = tau_map(seed, lo, params)
    out_hi = tau_map(seed, hi, params)
    assert np.all(out_lo.values <= out_hi.values + 1e-14)


def test_operator_far_field_limits(setup):
    # h -> 2 m0 and the update -> (2-v)/(1-v) far out
    params, grid, seed, constants = setup
    tau = _const_tau(grid, 3.0, params.linear_coefficient)
    out = tau_map(seed, tau, params)
    z_end = grid.nodes[-1]
    h_end = out.values[-1] * ((1.0 - params.v) * z_end + 1.0) / z_end \
        - params.linear_coefficient
    assert h_end == pytest.approx(2.0 * params.m0, rel=1e-3)
    assert out.values[-1] == pytest.approx(params.tau_inf, rel=1e-3)


def test_operator_barrier_property(setup):
    # with M0(G) <= m0_bar the constant barrier maps below itself
    params, grid, seed, constants = setup
    barrier = _const_tau(grid, constants.tau_star, params.linear_coefficient)
    out = tau_map(seed, barrier, params)
    assert np.all(out.values <= constants.tau_star * (1.0 + 1e-13))


def test_operator_h_upper_bound(setup):
    # h[G, tau](z) <= 2 m0 2^(sup tau)
    params, grid, seed, _ = setup
    tau = _const_tau(grid, 2.0, params.linear_coefficient)
    out = tau_map(seed, tau, params)
    z = grid.nodes[1:]
    h = out.values[1:] * ((1.0 - params.v) * z + 1.0) / z - params.linear_coefficient
    assert np.max(h) <= 2.0 * params.m0 * 2.0**2.0 * (1.0 + 1e-9)


def test_inner_solve_monotone_decrease(setup):
    params, grid, seed, constants = setup
    result = cd.inner_solve(seed, params, TOL_INNER)
    slack = 1e-13 * constants.tau_star
    blocks, last = barrier_sweeps(seed, params, constants.tau_star, TOL_INNER)
    assert len(blocks) > 1
    assert max(map(len, blocks)) == result.iterations
    assert np.array_equal(last, result.tau.values)
    for prev, image in (step for steps in blocks for step in steps):
        assert np.all(image <= prev + slack)
        assert np.all(image >= -slack)
    assert np.all(result.tau.values <= constants.tau_star)
    assert np.all(result.tau.values >= 0.0)
    # the stop rule: each block's last sweep moved it by at most the
    # tolerance, so one more sweep from the returned tau moves no row by
    # more (measured: 7.5e-14, the tolerance over 1300)
    moved = tau_map(seed, result.tau, params).values - result.tau.values
    assert np.max(np.abs(moved)) <= TOL_INNER
    # tau approaches the limiting tail exponent at the far end
    assert result.tau.values[-1] == pytest.approx(3.0, rel=1e-3)


def test_inner_solve_holds_one_pair_rule(setup, monkeypatch):
    # the march drops each block's rule before it asks for the next, so no
    # other _PairRule is alive while a block's rule is built: the block size
    # alone sets the solve's peak
    params, grid, seed, _ = setup
    alive = weakref.WeakSet()
    others = []
    block_rule = grids._HalfRangePlan._block_rule

    def counted(plan, *args):
        others.append(len(alive))
        rule = block_rule(plan, *args)
        alive.add(rule)
        return rule

    monkeypatch.setattr(grids._HalfRangePlan, "_block_rule", counted)
    cd.inner_solve(seed, params, TOL_INNER)
    assert len(others) > 3 and max(others) == 0


@pytest.mark.parametrize("n, m0, force", [(1025, 0.005, False), (2049, 0.005, False),
                                         (1025, 0.3, True)])
def test_march_reaches_the_global_fixed_point(n, m0, force):
    # inner_solve sweeps one pair block at a time, each from the barrier
    # with the rows before it final; the all-rows iteration from the same
    # barrier takes as many sweeps and stops at the same tau up to its
    # tolerance.  Measured: 6, 6 and 23 sweeps on both sides, and tau apart
    # by at most 7.5e-16 relative on the README pair and 4.0e-15 on the
    # forced run, so the bound 1e-13 leaves a factor 25
    params = cd.ModelParams(0.5, m0)
    seed = cd.seed_profile(params, cd.build_grid(1e6, n, 0.5))
    with warnings.catch_warnings():
        # the forced cap is no supersolution here: the run warns, as stated
        warnings.filterwarnings("ignore", "m0 above the admissibility|monotone sweep violated",
                                RuntimeWarning)
        result = cd.inner_solve(seed, params, TOL_INNER, force=force)
    iterations, tau = global_sweeps(seed, params, iteration_barrier(params, force)[0], TOL_INNER)
    assert result.iterations == iterations
    assert result.tau.values[0] == tau[0] == 0.0
    np.testing.assert_allclose(result.tau.values[1:], tau[1:], rtol=1e-13, atol=0.0)


def _first_iterate(n, m0, force):
    """The datum of a second Picard step at (v, m0) = (0.5, m0) on n nodes,
    and the barrier's inner solve of it."""
    params = cd.ModelParams(0.5, m0)
    seed = cd.seed_profile(params, cd.build_grid(1e6, n, 0.5))
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "m0 above the admissibility|monotone sweep violated",
                                RuntimeWarning)
        tau = cd.inner_solve(seed, params, TOL_INNER, force=force).tau
        G = cd.reconstruct_profile(tau, params)
        return params, G, cd.inner_solve(G, params, TOL_INNER, force=force)


def _warm_solve(G, params, force, factor, base):
    start = cd.TauFunction(G.grid, factor * base.tau.values, slope0=base.tau.slope0)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "m0 above the admissibility|monotone sweep violated",
                                RuntimeWarning)
        return cd.inner_solve(G, params, TOL_INNER, force=force, start=start)


@pytest.mark.parametrize("m0, force, rtol", [(0.005, False, 1e-12), (0.3, True, 5e-11)])
def test_warm_start_above_the_fixed_point_is_kept(m0, force, rtol):
    # a start above the fixed point is a supersolution: no block restarts,
    # and the sweep reaches the barrier start's tau in fewer sweeps.
    # Measured: 3 against 6 sweeps on the README pair, tau apart by 7.1e-14
    # relative; 10 against 21 forced, 7.5e-12 apart, since the forced
    # sweep contracts by only about 0.3 and the stopping tolerance 1e-10
    # leaves either end up to 4e-11 from the fixed point
    params, G, barrier = _first_iterate(1025, m0, force)
    warm = _warm_solve(G, params, force, 1.0 + 1e-6, barrier)
    assert warm.restarts == 0
    assert warm.iterations < barrier.iterations
    assert warm.tau.values[0] == 0.0
    np.testing.assert_allclose(warm.tau.values[1:], barrier.tau.values[1:], rtol=rtol, atol=0.0)


@pytest.mark.parametrize("m0, force", [(0.005, False), (0.3, True)])
def test_warm_start_below_the_fixed_point_restarts(m0, force):
    # a start below the fixed point rises on the first sweep of every block:
    # each block wastes that sweep and restarts at the barrier, and the march
    # then repeats the barrier start's, bit for bit
    params, G, barrier = _first_iterate(1025, m0, force)
    blocks = len(list(G.grid.half_range_plan().pair_rule(G)))
    warm = _warm_solve(G, params, force, 1.0 - 1e-3, barrier)
    assert warm.restarts == blocks > 1
    assert warm.iterations == barrier.iterations + 1
    assert np.array_equal(warm.tau.values, barrier.tau.values)


@pytest.mark.parametrize("m0, force", [(0.005, False), (0.3, True)])
def test_fixed_point_is_unique_below_the_barrier(m0, force):
    # a warm start and the barrier reach the same tau only if the discrete
    # fixed point in [0, cap] is unique.  The map is order preserving, so
    # the iteration from 0 rises to the least fixed point in [0, cap] and
    # the one from the cap falls to the greatest; every fixed point lies
    # between the two, and they meet (measured at a tolerance of 1e-13:
    # 1.9e-16 apart on the README pair and 2.6e-15 forced)
    params, G, _ = _first_iterate(1025, m0, force)
    cap = iteration_barrier(params, force)[0]
    _, low = global_sweeps(G, params, cap, 1e-13, start=np.zeros(G.grid.n))
    _, high = global_sweeps(G, params, cap, 1e-13)
    np.testing.assert_allclose(low[1:], high[1:], rtol=1e-13, atol=0.0)


def test_inner_solve_iteration_cap(setup, monkeypatch):
    params, _, seed, _ = setup
    monkeypatch.setattr(tau_iteration, "MAX_SWEEPS", 1)
    with pytest.raises(cd.ConvergenceError, match=r"did not reach tol=.* in 1 sweeps "
                       r"on nodes 1 to \d+ \(last residual \d\.\d{3}e[+-]\d+\)"):
        cd.inner_solve(seed, params, TOL_INNER)


def test_inner_solve_rejects_wrong_mass(setup):
    params, grid, _, _ = setup
    bad = cd.GridFunction(grid, 2.0 * cd.seed_profile(params, grid).values,
                          tail_exponent=math.inf)
    with pytest.raises(cd.ParameterDomainError):
        cd.inner_solve(bad, params, TOL_INNER)


def test_inner_solve_options_validation(setup):
    # the inner tolerance is an outer solve option, validated there and by
    # inner_solve, which takes it as a float
    params, _, seed, _ = setup
    for tol in (0.0, -1e-10, math.nan):
        with pytest.raises(cd.ParameterDomainError, match="tol_inner"):
            cd.OuterSolveOptions(tol_inner=tol)
        with pytest.raises(cd.ParameterDomainError, match="tol must be positive"):
            cd.inner_solve(seed, params, tol)


def test_reconstruct_exponential_tau():
    # tau(z) = v z reconstructs to m0 v e^(-v z) after normalization
    v, m0 = 0.5, 0.4
    params = cd.ModelParams(v, m0)
    grid = cd.build_grid(1e3, 2049, v)
    tau = cd.TauFunction(grid, v * grid.nodes, slope0=v)
    F = cd.reconstruct_profile(tau, params)
    # the tail exponent is the model's, not one the tau carries
    assert F.tail_exponent == params.tau_inf
    sel = grid.nodes < 40.0
    want = m0 * v * np.exp(-v * grid.nodes[sel])
    np.testing.assert_allclose(F.values[sel], want, rtol=1e-6)
    assert cd.moment(F, 0) == pytest.approx(m0, rel=1e-14)
    assert np.all(np.diff(F.values) <= 0.0)


def test_forced_inner_solve_above_threshold():
    params = cd.ModelParams(0.5, 0.02)  # above m0_bar(0.5) ~ 0.0166
    grid = cd.build_grid(1e4, 513, 0.5)
    seed = cd.seed_profile(params, grid)
    with pytest.raises(cd.ThresholdExceededError):
        cd.inner_solve(seed, params, TOL_INNER)
    with pytest.warns(RuntimeWarning):
        result = cd.inner_solve(seed, params, TOL_INNER, force=True)
    cap, certified = iteration_barrier(params, True)
    assert not certified and cap == pytest.approx(2.0 * params.tau_inf)
    assert np.all(result.tau.values >= 0.0) and np.all(result.tau.values <= cap)


def _reference_sweep(grid, G, cum, linear_coeff, v):
    """The tau update with the log-integral interpolated point by point, on
    the reference plan's points and weights."""
    ref = reference_plan(grid)
    g = reference_samples(ref, G)
    x_idx, x_lam_w = ref["x_idx"], ref["x_lam_w"]
    ix = cum[x_idx] * (1.0 - x_lam_w) + cum[x_idx + 1] * x_lam_w
    iz = np.repeat(cum[1:], ref["counts"])
    h = np.zeros(grid.n)
    h[1:] = 2.0 * np.add.reduceat(ref["weights"] * g * np.exp(iz - ix), ref["starts"])
    z = grid.nodes
    out = np.zeros(grid.n)
    out[1:] = z[1:] / ((1.0 - v) * z[1:] + 1.0) * (linear_coeff + h[1:])
    return out, h


@pytest.mark.parametrize("tau_case", ["barrier", "converged"])
@pytest.mark.parametrize("zero_tail", [False, True])
def test_sweep_matches_per_point(setup, tau_case, zero_tail):
    params, grid, seed, constants = setup
    G = seed
    if zero_tail:
        # datum whose far tail is exactly zero
        G = cd.GridFunction(grid, np.where(grid.nodes > 60.0, 0.0, seed.values))
        assert np.any(G.values == 0.0)
    if tau_case == "barrier":
        tau = _const_tau(grid, constants.tau_star, params.linear_coefficient)
    else:
        tau = cd.inner_solve(seed, params, TOL_INNER).tau
    cum = plain_log_integral(tau)
    got_tau = tau_map(G, tau, params).values
    got_h = kernel_sums(grid.half_range_plan(), G, cum)
    want_tau, want_h = _reference_sweep(grid, G, cum, params.linear_coefficient, params.v)
    assert got_tau[0] == 0.0 and got_h[0] == 0.0
    # the two-node rule per pair against every point: measured on this
    # 1025-node grid, h is off by at most 3.5e-10 relative (at z ~ 25, where
    # the rows hold the widest pairs) and tau, where h is a small share
    # next to the linear coefficient, by 3.7e-12
    np.testing.assert_allclose(got_h[1:], want_h[1:], rtol=2e-9, atol=0.0)
    np.testing.assert_allclose(got_tau[1:], want_tau[1:], rtol=2e-11, atol=0.0)


@pytest.mark.parametrize("dropped", [("last_w",), ("half_w",), ("last_w", "half_w")])
def test_sweep_without_row_end_weights_fails(setup, dropped):
    # a pair rule that drops the row-end weights (the row's last node and
    # half endpoint take last_w and half_w, not node_w) misses the
    # per-point sweep of test_sweep_matches_per_point by far more than its
    # 2e-9: measured, h is off by up to 0.91, 0.69 and 1.0 relative
    params, grid, seed, constants = setup
    plan = grid.half_range_plan()
    mutant = dataclasses.replace(
        plan, **{name: np.zeros_like(getattr(plan, name)) for name in dropped})
    tau = _const_tau(grid, constants.tau_star, params.linear_coefficient)
    cum = plain_log_integral(tau)
    _, want_h = _reference_sweep(grid, seed, cum, params.linear_coefficient, params.v)
    got_h = kernel_sums(mutant, seed, cum)
    assert np.max(np.abs(got_h[1:] / want_h[1:] - 1.0)) > 1e-2


def test_inner_solve_kernel_overflow_is_typed():
    # a barrier near 1022 on a 3-node grid up to z = 10, where the kernel
    # exp(I(z) - I(z-y)) of the last row reaches e^767 at points of positive
    # mass, and the forced cap 2 tau_inf = 2224 at v = 0.9991, overflow in
    # the first sweep; the solve stops with a consistency error instead of
    # a NaN tau
    for v, m0, zmax, force in ((0.99902, 1e-312, 10.0, False), (0.9991, 0.4, 1e6, True)):
        params = cd.ModelParams(v, m0)
        seed = cd.seed_profile(params, cd.build_grid(zmax, 3, v))
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "m0 above the admissibility", RuntimeWarning)
            with pytest.raises(cd.NumericalConsistencyError, match="left the float range"):
                cd.inner_solve(seed, params, TOL_INNER, force=force)
    # one application of the map at the barrier of the first case overflows
    # the same way, typed and without a RuntimeWarning
    params = cd.ModelParams(0.99902, 1e-312)
    grid = cd.build_grid(10.0, 3, params.v)
    tau = _const_tau(grid, cd.derive_constants(params).tau_star, params.linear_coefficient)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(cd.NumericalConsistencyError, match="left the float range"):
            tau_map(cd.seed_profile(params, grid), tau, params)
    # up to z = 1e6 the datum of m0 = 1e-320 underflows to zero at every
    # point whose kernel overflows; pairs of zero mass are left out of the
    # sweep, so the solve ends below the barrier
    params = cd.ModelParams(0.99902, 1e-320)
    result = cd.inner_solve(cd.seed_profile(params, cd.build_grid(1e6, 3, 0.99902)), params,
                            TOL_INNER)
    cap = iteration_barrier(params)[0]
    assert np.all(result.tau.values >= 0.0) and np.all(result.tau.values <= cap)
