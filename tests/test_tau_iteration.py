import dataclasses
import math
import warnings

import numpy as np
import pytest

import coagdrift as cd
from coagdrift.model import iteration_barrier
from oracles import barrier_sweeps, reference_plan, reference_samples, tau_map


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
    result = cd.inner_solve(seed, params)
    slack = 1e-13 * constants.tau_star
    steps, last = barrier_sweeps(seed, params, constants.tau_star, cd.InnerSolveOptions())
    assert len(steps) == result.iterations
    assert np.array_equal(last, result.tau.values)
    for prev, image in steps:
        assert np.all(image <= prev + slack)
        assert np.all(image >= -slack)
    assert np.all(result.tau.values <= constants.tau_star)
    assert np.all(result.tau.values >= 0.0)
    assert result.residual <= 1e-10
    # tau approaches the limiting tail exponent at the far end
    assert result.tau.values[-1] == pytest.approx(3.0, rel=1e-3)


def test_inner_solve_iteration_cap(setup):
    params, _, seed, _ = setup
    with pytest.raises(cd.ConvergenceError) as err:
        cd.inner_solve(seed, params, cd.InnerSolveOptions(tol=1e-10, max_iter=1))
    assert err.value.residual > 0.0
    assert err.value.best is not None


def test_inner_solve_rejects_wrong_mass(setup):
    params, grid, _, _ = setup
    bad = cd.GridFunction(grid, 2.0 * cd.seed_profile(params, grid).values,
                          tail_exponent=math.inf)
    with pytest.raises(cd.ParameterDomainError):
        cd.inner_solve(bad, params)


def test_inner_solve_options_validation():
    with pytest.raises(cd.ParameterDomainError):
        cd.InnerSolveOptions(tol=0.0)
    with pytest.raises(cd.ParameterDomainError):
        cd.InnerSolveOptions(max_iter=0)


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
        cd.inner_solve(seed, params)
    with pytest.warns(RuntimeWarning):
        result = cd.inner_solve(seed, params, force=True)
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
    from coagdrift.tau_iteration import _step

    params, grid, seed, constants = setup
    G = seed
    if zero_tail:
        # datum whose far tail is exactly zero
        G = cd.GridFunction(grid, np.where(grid.nodes > 60.0, 0.0, seed.values))
        assert np.any(G.values == 0.0)
    if tau_case == "barrier":
        tau = _const_tau(grid, constants.tau_star, params.linear_coefficient)
    else:
        tau = cd.inner_solve(seed, params).tau
    cum = cd.cumulative_log_integral(tau, corrected=False)
    rule = grid.half_range_plan().pair_rule(G)
    got_tau, got_h = _step(rule, tau, params), rule.kernel_sums(cum)
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
    cum = cd.cumulative_log_integral(tau, corrected=False)
    _, want_h = _reference_sweep(grid, seed, cum, params.linear_coefficient, params.v)
    got_h = mutant.pair_rule(seed).kernel_sums(cum)
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
                cd.inner_solve(seed, params, force=force)
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
    result = cd.inner_solve(cd.seed_profile(params, cd.build_grid(1e6, 3, 0.99902)), params)
    cap = iteration_barrier(params)[0]
    assert np.all(result.tau.values >= 0.0) and np.all(result.tau.values <= cap)
