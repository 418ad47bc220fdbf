import dataclasses
import math
import warnings
import weakref

import numpy as np
import pytest

import coagdrift as cd
from coagdrift import profiles
from coagdrift.profiles import certification_checks
from oracles import TOL_INNER


def test_recover_tau_exponential():
    grid = cd.build_grid(50.0, 1025, 0.5)
    F = cd.exponential_grid_function(0.5, grid)
    tau = cd.recover_tau(F)
    sel = (grid.nodes > 0.1) & (grid.nodes < 40.0)
    np.testing.assert_allclose(tau.values[sel], 0.5 * grid.nodes[sel], rtol=1e-8)
    assert tau.slope0 == pytest.approx(0.5, rel=1e-8)


def test_recover_tau_rejects_interior_zeros():
    grid = cd.build_grid(10.0, 64, 0.5)
    vals = np.exp(-grid.nodes)
    vals[10] = 0.0
    F = cd.GridFunction(grid, vals, tail_exponent=math.inf)
    with pytest.raises(cd.ParameterDomainError):
        cd.recover_tau(F)
    # zero after z_0 leaves one sample, no derivative; two are enough
    vals[1:] = 0.0
    with pytest.raises(cd.ParameterDomainError, match="zero after z = 0"):
        cd.recover_tau(cd.GridFunction(grid, vals, tail_exponent=math.inf))
    vals[1] = 0.5
    assert cd.recover_tau(cd.GridFunction(grid, vals, tail_exponent=math.inf)).values[1] > 0.0


@pytest.mark.parametrize("j", [1, 300, 1024])
@pytest.mark.parametrize("huge", [1e300, 1.7e308])
def test_certification_huge_sample_fails_residual(j, huge):
    # one finite sample near the float range: the residual (and, at the
    # largest value, the moments) overflow, the residual saturates instead
    # of turning NaN, and the checks fail with no RuntimeWarning
    params = cd.ModelParams(0.5, 0.25)
    grid = cd.build_grid(50.0, 1025, 0.5)
    vals = cd.exponential_grid_function(0.5, grid).values
    vals[j] = huge
    F = cd.GridFunction(grid, vals, tail_exponent=math.inf)
    cert = certification_checks(F, params)
    checks = {name: ok for name, ok, _ in cert.checks}
    assert not checks["residual"] and not checks["M0"]
    assert cert.residual_norm > 1e290
    residual = cd.residual_selfsimilar(F, params)
    assert np.all(np.isfinite(residual.values))


def test_residual_exponential_family():
    for v in (0.25, 0.75):
        grid = cd.build_grid(1e4, 1025, v)
        F = cd.exponential_grid_function(v, grid)
        params = cd.ModelParams(v, 1.0 - v)
        R = cd.residual_selfsimilar(F, params)
        assert cd.weighted_residual_norm(R, params) < 1e-6


def test_residual_supersolution_reduces_to_convolution():
    # the linear part of the residual cancels exactly on the barrier, so
    # R = -(F*F); its log-derivative is linear in w, where the recovery
    # stencils are exact
    params = cd.ModelParams(0.5, 0.01)
    grid = cd.build_grid(1e4, 1025, 0.5)
    F = cd.GridFunction(grid, cd.supersolution_value(params, grid.nodes),
                        tail_exponent=2.96)
    R = cd.residual_selfsimilar(F, params)
    conv = cd.half_convolution_at_nodes(F)
    np.testing.assert_allclose(R.values, -conv, atol=1e-14, rtol=1e-9)
    assert np.all(R.values[1:] < 0.0)


def test_residual_constant_floor():
    # constant F = eps has tau = 0, so R = -(2-v-2m0) eps - eps^2 z exactly
    params = cd.ModelParams(0.5, 0.005)
    grid = cd.build_grid(100.0, 257, 0.5)
    eps = 1e-3
    F = cd.GridFunction(grid, np.full(grid.n, eps), tail_exponent=math.inf)
    R = cd.residual_selfsimilar(F, params)
    want = -params.linear_coefficient * eps - eps**2 * grid.nodes
    np.testing.assert_allclose(R.values, want, rtol=1e-12)


def test_tail_fit_power_law():
    grid = cd.build_grid(1e6, 1025, 0.5)
    F = cd.GridFunction(grid, (1.0 + grid.nodes) ** -3, tail_exponent=3.0)
    fit = cd.tail_exponent_fit(F)
    assert fit.exponent == pytest.approx(3.0, abs=5e-3)
    assert fit.max_deviation < 1e-3


def test_tail_fit_flags_exponential():
    grid = cd.build_grid(50.0, 513, 0.5)
    F = cd.exponential_grid_function(0.5, grid)
    fit = cd.tail_exponent_fit(F)
    assert fit.max_deviation > 0.05  # clearly not a power law


def test_tail_fit_errors():
    grid = cd.build_grid(1e4, 5, 0.5)  # 3 nodes in the top two decades
    F = cd.GridFunction(grid, (1.0 + grid.nodes) ** -3, tail_exponent=3.0)
    with pytest.raises(cd.ParameterDomainError, match="fewer than 4 nodes"):
        cd.tail_exponent_fit(F)
    grid2 = cd.build_grid(1e4, 257, 0.5)
    G = cd.exponential_grid_function(0.5, grid2)  # underflows inside window
    with pytest.raises(cd.ParameterDomainError):
        cd.tail_exponent_fit(G)


def test_weighted_norm_zero_entry_under_overflowing_weight():
    # at v = 0.99 the weight (1+z)^tau_inf overflows near zmax = 1e6: a
    # zero residual entry weighs 0 there, a nonzero one makes the norm
    # infinite, and neither warns
    params = cd.ModelParams(0.99, 1e-35)
    grid = cd.build_grid(1e6, 65, 0.99)
    vals = np.zeros(grid.n)
    vals[0] = 1e-3
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cd.weighted_residual_norm(cd.GridFunction(grid, vals), params) == 1e-3
        vals[-1] = 1e-300
        assert cd.weighted_residual_norm(cd.GridFunction(grid, vals), params) == math.inf


def test_auxiliary_solve_contract():
    # the auxiliary map: monotone tau solve, then reconstruction
    params = cd.ModelParams(0.5, 0.01)
    grid = cd.build_grid(1e5, 1025, 0.5)
    seed = cd.seed_profile(params, grid)
    F = cd.reconstruct_profile(cd.inner_solve(seed, params, TOL_INNER).tau, params)
    assert cd.moment(F, 0) == pytest.approx(params.m0, rel=1e-13)
    assert 0.0098 <= F.values[0] <= 0.01  # m0 - 2 m0^2 <= F(0) <= m0
    barrier = cd.supersolution_value(params, grid.nodes)
    assert np.all(F.values <= barrier * (1.0 + 1e-12))
    assert np.all(np.diff(F.values) <= 0.0)


def test_outer_solve_report(solved, default_params):
    F, report, _ = solved
    params = default_params
    assert report.certified
    assert report.fp_residual <= 1e-9
    assert report.model_residual_norm <= 1e-5
    assert report.M0 == pytest.approx(params.m0, rel=1e-12)
    assert report.M1 == pytest.approx(params.m0 / params.v, rel=5e-3)
    assert report.F0 == pytest.approx(params.m0 * (1 - params.m0), rel=1e-6)
    assert report.M0 / report.M1 == pytest.approx(params.v, rel=5e-3)
    assert report.tail_prefactor_fit > 0.0
    assert report.outer_iterations >= 1
    assert report.inner_iterations_total >= report.outer_iterations


def test_outer_solve_fixed_point_consistency(solved, default_params):
    # one more application of the solution map barely moves the profile
    F, report, _ = solved
    tau = cd.inner_solve(F, default_params, TOL_INNER).tau
    F2 = cd.reconstruct_profile(tau, default_params)
    weight = (1.0 + F.grid.nodes) ** (default_params.tau_inf - 0.5)
    assert float(np.max(np.abs(F2.values - F.values) * weight)) <= 5e-9


def test_outer_solve_derivative_bound(solved, default_params):
    # |F'| = tau F / z stays below (2 - v + 2 m0) m0
    F, _, _ = solved
    params = default_params
    tau = cd.recover_tau(F)
    z = F.grid.nodes[1:]
    deriv = tau.values[1:] * F.values[1:] / z
    deriv0 = tau.slope0 * F.values[0]
    bound = (2.0 - params.v + 2.0 * params.m0) * params.m0
    assert max(float(np.max(deriv)), deriv0) <= bound * (1.0 + 1e-6)


def test_certification_checks_pass(solved, default_params):
    F, report, _ = solved
    cert = certification_checks(F, default_params)
    assert [name for name, _, _ in cert.checks] == [
        "residual", "M0", "M1", "F0", "tail", "monotone", "barrier"]
    assert cert.ok and all(ok for _, ok, _ in cert.checks)
    # the report carries the same figures
    assert cert.residual_norm == report.model_residual_norm
    assert (cert.M0, cert.M1) == (report.M0, report.M1)
    assert cert.fit.exponent == report.tail_exponent_fit


def test_certification_tail_follows_declared_tail():
    # the exponential family passes only when its tail is declared
    # exponential; declared algebraic, it fails the power-law fit
    v = 0.5
    grid = cd.build_grid(50.0, 1025, v)
    F = cd.exponential_grid_function(v, grid)
    params = cd.ModelParams(v, 1.0 - v)
    checks = {name: ok for name, ok, _ in certification_checks(F, params).checks}
    assert checks["tail"]
    declared = cd.GridFunction(grid, F.values, tail_exponent=params.tau_inf)
    checks = {name: ok for name, ok, _ in certification_checks(declared, params).checks}
    assert not checks["tail"]


def test_certification_unfittable_tail_fails_without_raising():
    # a far tail that underflows to zero cannot be fitted in log-log scale;
    # declared algebraic, that fails the tail check
    v = 0.5
    grid = cd.build_grid(1e4, 257, v)
    params = cd.ModelParams(v, 1.0 - v)
    F = cd.exponential_grid_function(v, grid)
    assert F.values[-1] == 0.0
    declared = cd.GridFunction(grid, F.values, tail_exponent=params.tau_inf)
    cert = certification_checks(declared, params)
    assert cert.fit is None and not cert.ok
    name, ok, detail = cert.checks[4]
    assert name == "tail" and not ok and "no power-law fit" in detail


@pytest.mark.parametrize("zmax", [1e4, 1e6])
def test_certification_underflowed_exponential_tail_passes(zmax):
    # the exponential family underflows to exactly 0 above z ~ 1.5e3 at
    # v = 0.5; declared exponential, an unfittable window is no power law
    v = 0.5
    grid = cd.build_grid(zmax, 1025, v)
    F = cd.exponential_grid_function(v, grid)
    assert math.isinf(F.tail_exponent) and F.values[-1] == 0.0
    cert = certification_checks(F, cd.ModelParams(v, 1.0 - v))
    checks = {name: ok for name, ok, _ in cert.checks}
    assert cert.fit is None and checks["tail"]


def test_convolution_mass_bound(solved, default_params):
    # 0 <= M0(F*G) <= 2 m0^2 for the solution pair (here G = F)
    F, _, _ = solved
    conv = cd.GridFunction(F.grid, cd.half_convolution_at_nodes(F),
                           tail_exponent=default_params.tau_inf)
    mass = cd.moment(conv, 0)
    assert 0.0 <= mass <= 2.0 * default_params.m0**2 * (1.0 + 1e-9)


def test_outer_solve_iteration_cap(default_params):
    opts = cd.OuterSolveOptions(zmax=1e4, nodes=257, max_outer=1)
    with pytest.raises(cd.ConvergenceError) as err:
        cd.outer_solve(default_params, opts)
    assert err.value.best is not None
    assert err.value.report is not None
    assert not err.value.report.certified


def test_outer_solve_threshold_gate():
    params = cd.ModelParams(0.5, 0.02)
    with pytest.raises(cd.ThresholdExceededError):
        cd.outer_solve(params, cd.OuterSolveOptions(zmax=1e4, nodes=257))
    with pytest.warns(RuntimeWarning):
        F, report = cd.outer_solve(
            params, cd.OuterSolveOptions(zmax=1e4, nodes=257, force=True)
        )
    assert report.forced
    assert cd.moment(F, 0) == pytest.approx(params.m0, rel=1e-12)


def test_solve_options_validation():
    with pytest.raises(cd.ParameterDomainError):
        cd.OuterSolveOptions(tol=-1.0)


def _from_exponential_seed(params, opts):
    """The level of the outer iteration on the grid of ``opts`` started at
    seed_profile."""
    grid = cd.build_grid(opts.zmax, opts.nodes, params.v)
    return profiles._picard(params, cd.seed_profile(params, grid), opts)


def _cubic_in_w(grid, coefficients):
    w = np.log1p((1.0 - grid.v) * grid.nodes)
    return np.polynomial.polynomial.polyval(w, coefficients)


@pytest.mark.parametrize("n, N", [(129, 513), (129, 2049), (250, 1000)])
def test_prolongation_is_exact_on_exp_cubic_in_w(n, N):
    # 4-point Lagrange in w reproduces a cubic log-profile at every node of
    # the finer grid, also where the two grids share no step ratio, and
    # leaves a stencil with a nonpositive sample to the fallback
    coefficients = (0.3, -0.9, 0.08, -0.004)
    rung, fine = cd.build_grid(1e6, n, 0.5), cd.build_grid(1e6, N, 0.5)
    F = cd.GridFunction(rung, np.exp(_cubic_in_w(rung, coefficients)))
    logs, ok = profiles._prolong_log(F, fine)
    assert ok.all()
    got = np.exp(logs)
    want = np.exp(_cubic_in_w(fine, coefficients))
    assert np.max(np.abs(got - want) / want) <= 1e-12
    F.values[60] = 0.0
    _, ok = profiles._prolong_log(F, fine)
    w_steps = np.arange(N) * (n - 1) / (N - 1)  # the fine nodes in rung steps
    assert np.array_equal(~ok, (w_steps >= 58) & (w_steps < 62))  # stencils idx - 1 .. idx + 2


def test_richardson_seed_carries_order_2_errors_to_the_grid():
    # rungs whose log-profiles err by c(w) h^2, with p and c cubic in w:
    # the seed from the two rungs below is the profile with the error of
    # the grid's own step, up to the mass scaling (a constant in log F).
    # The step towards the limit h -> 0 (weight 1/15) misses it by
    # c(w) h^2/16 at the rung's step h, and a weight of 1/3 by more
    params = cd.ModelParams(0.5, 0.005)
    p, c = (0.3, -0.9, 0.08, -0.004), (1.0, 0.5, -0.1, 0.003)

    def level(n):
        grid = cd.build_grid(1e6, n, 0.5)
        return grid, _cubic_in_w(grid, p) + _cubic_in_w(grid, c) / (n - 1.0) ** 2

    fine, want = level(2049)
    below = [cd.GridFunction(grid, np.exp(logs)) for grid, logs in (level(129), level(513))]
    assert profiles._richardson_weight(2049, 513, 129) == pytest.approx(1.0 / 16.0, rel=1e-15)
    seed, start = profiles._seed_from(params, fine, below)
    offset = np.log(seed.values) - want
    assert np.ptp(offset) <= 1e-11
    assert cd.moment(seed, 0) == pytest.approx(params.m0, rel=1e-14)
    assert np.array_equal(start.values, cd.recover_tau(seed).values)


@pytest.fixture(scope="module")
def default_points():
    """The benchmark's three point types solved at the default 2049 nodes,
    each with the node counts of the levels ``_picard`` solved."""
    points, levels, picard = [], [], profiles._picard

    def recording_picard(params, G, *args):
        levels.append(G.grid.n)
        return picard(params, G, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(profiles, "_picard", recording_picard)
        for v, m0 in ((0.3, 0.5 * cd.admissible_threshold(0.3)), (0.5, 0.005),
                      (0.7, 0.5 * cd.admissible_threshold(0.7))):
            params = cd.ModelParams(v, m0)
            points.append((params, *cd.outer_solve(params), levels[:]))
            levels.clear()
    return points


def test_default_points_take_one_fine_picard_step(default_points):
    # the ladder solves 129 and 513 nodes, and the Richardson seed leaves
    # a first fine update of 1.1e-9 to 8e-9, above tol; the rungs' update
    # norms fall by 1e-3 to 1.1e-2 per step, so the contraction bound puts
    # that iterate within tol and the grid takes one Picard step (two
    # before), none of whose blocks restarts
    for _, _, report, levels in default_points:
        assert levels == [129, 513, 2049]
        assert (report.outer_iterations, report.seed_nodes) == (1, 513)
        assert report.inner_restarts == 0 and report.certified
        assert report.fp_residual <= cd.OuterSolveOptions().tol


def test_contraction_bound_stop_is_honest(default_points):
    # one more Picard step from the iterate a default point stopped at moves
    # it by at most tol: the bound did not stop it early
    opts = cd.OuterSolveOptions(max_outer=1)
    for params, F, _, _ in default_points:
        G = profiles._with_mass(
            cd.GridFunction(F.grid, F.values, tail_exponent=params.tau_inf), params.m0)
        level = profiles._picard(params, G, opts)
        assert level.fp_residual <= opts.tol


def test_forced_run_keeps_its_fine_picard_steps():
    # forced at m0 = 0.1 the update norms fall by about 0.064 per step, so
    # ten times that (q = 0.64) leaves a bound above the update norm: the
    # grid takes its 4 steps as it did without the bound
    params = cd.ModelParams(0.5, 0.1)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "m0 above the admissibility", RuntimeWarning)
        _, report = cd.outer_solve(params, cd.OuterSolveOptions(force=True))
    assert (report.outer_iterations, report.seed_nodes) == (4, 513)


def test_outer_solve_seeds_from_coarse_grid(default_params, monkeypatch):
    # the README pair at 1025 nodes starts from the 257-node solution, needs
    # at most two outer iterations, and certifies; the coarse grid is gone
    # before the fine grid's first plan is built
    grids = []
    build = profiles.build_grid

    def recording_build(*args):
        grid = build(*args)
        grids.append(weakref.ref(grid))
        return grid

    monkeypatch.setattr(profiles, "build_grid", recording_build)
    alive_at_plan, planned = [], weakref.WeakSet()
    plan = cd.Grid.half_range_plan

    def recording_plan(grid):
        if grid not in planned:  # the grid's first plan
            planned.add(grid)
            alive_at_plan.append(sum(ref() is not None for ref in grids))
        return plan(grid)

    monkeypatch.setattr(cd.Grid, "half_range_plan", recording_plan)
    F, report = cd.outer_solve(default_params, cd.OuterSolveOptions(zmax=1e5, nodes=1025))
    assert report.seed_nodes == 257
    assert report.outer_iterations <= 2
    assert report.certified
    assert [ref().n for ref in grids if ref() is not None] == [1025]
    assert alive_at_plan == [2, 1]  # the coarse plan with both grids, the fine with one


@pytest.mark.parametrize("v, m0, opts", [
    # the coarse grid would hold 65 < 129 nodes
    (0.5, 0.005, cd.OuterSolveOptions(zmax=1e5, nodes=257)),
])
def test_outer_solve_exponential_seed_paths(v, m0, opts):
    params = cd.ModelParams(v, m0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        F, report = cd.outer_solve(params, opts)
        level = _from_exponential_seed(params, opts)
    assert report.seed_nodes == 0
    # every field of the level is its report counterpart; outer_solve
    # raises unless the level converged
    assert [f.name for f in dataclasses.fields(level)] == [
        "F", "outer_iterations", "inner_iterations", "restarts", "fp_residual", "converged",
        "contraction"]
    assert np.array_equal(F.values, level.F.values)
    assert (report.outer_iterations, report.inner_iterations_total, report.inner_restarts,
            report.fp_residual) == (
        level.outer_iterations, level.inner_iterations, level.restarts, level.fp_residual)
    assert level.converged


def test_outer_solve_unconverged_coarse_level_falls_back(default_params):
    # one outer step leaves the coarse level unconverged: the fine solve
    # takes the same single step from the exponential seed
    opts = cd.OuterSolveOptions(zmax=1e5, nodes=1025, max_outer=1)
    with pytest.raises(cd.ConvergenceError) as err:
        cd.outer_solve(default_params, opts)
    ref = _from_exponential_seed(default_params, opts)
    assert np.array_equal(err.value.best.values, ref.F.values)
    assert err.value.report.seed_nodes == 0 and ref.outer_iterations == 1


def test_outer_solve_coarse_level_that_raises_falls_back(default_params, monkeypatch):
    opts = cd.OuterSolveOptions(zmax=1e5, nodes=1025)
    ref = _from_exponential_seed(default_params, opts)
    inner = profiles.inner_solve

    def failing_on_coarse(error):
        def inner_solve(G, *args, **kwargs):
            if G.grid.n == 257:
                raise error("coarse level fails")
            return inner(G, *args, **kwargs)
        return inner_solve

    monkeypatch.setattr(profiles, "inner_solve", failing_on_coarse(cd.NumericalConsistencyError))
    F, report = cd.outer_solve(default_params, opts)
    assert report.seed_nodes == 0 and report.outer_iterations == ref.outer_iterations
    assert np.array_equal(F.values, ref.F.values)
    # an error from outside the package is not a fallback
    monkeypatch.setattr(profiles, "inner_solve", failing_on_coarse(ArithmeticError))
    with pytest.raises(ArithmeticError):
        cd.outer_solve(default_params, opts)


def _record_levels(monkeypatch):
    """Patch ``profiles._picard`` to record, per level, its node count,
    outer iterations, whether it converged and the contraction estimate it
    was handed."""
    calls = []
    picard = profiles._picard

    def recording_picard(params, G, opts, start=None, contraction=None):
        level = picard(params, G, opts, start, contraction)
        calls.append((G.grid.n, level.outer_iterations, level.converged, contraction))
        return level

    monkeypatch.setattr(profiles, "_picard", recording_picard)
    return calls


def test_outer_solve_gives_up_a_nonconverging_coarse_level_early(default_params, monkeypatch):
    # the 257-node rung's third iterate is pushed away from its second, so
    # its update norms run 8.5e-3, 2.3e-5 and then rise: the rung stops
    # there, unconverged, and the fine solve runs from the exponential seed,
    # with no contraction estimate from the rung (the rung has one, from
    # its two falling steps)
    opts = cd.OuterSolveOptions(zmax=1e5, nodes=1025)
    rung_steps = []
    reconstruct = profiles.reconstruct_profile

    def pushed_away(tau, params):
        F = reconstruct(tau, params)
        if F.grid.n == 257:
            rung_steps.append(F)
            if len(rung_steps) == 3:
                return cd.GridFunction(F.grid, 10.0 * F.values, tail_exponent=F.tail_exponent)
        return F

    monkeypatch.setattr(profiles, "reconstruct_profile", pushed_away)
    calls = _record_levels(monkeypatch)
    F, report = cd.outer_solve(default_params, opts)
    (coarse_n, coarse_iterations, coarse_converged, _), fine = calls
    assert (coarse_n, coarse_iterations, coarse_converged) == (257, 3, False)
    assert fine[3] is None
    assert report.seed_nodes == 0
    monkeypatch.undo()
    ref = _from_exponential_seed(default_params, opts)
    assert np.array_equal(F.values, ref.F.values)
    assert report.outer_iterations == ref.outer_iterations == fine[1]


def test_outer_solve_large_v_rung_converges_and_seeds_the_grid(monkeypatch):
    # at v = 0.95 each Picard step feeds its own profile back, and the
    # third step's tau repeats the second's bit for bit, so its update norm
    # is exactly 0: the 257-node rung converges in 3 steps and seeds the
    # grid, which converges too.  The weighted residual, about 2.3e5 under
    # the weight (1+z)^21, leaves it uncertified.
    params = cd.ModelParams(0.95, 0.1 * cd.admissible_threshold(0.95))
    calls = _record_levels(monkeypatch)
    F, report = cd.outer_solve(params, cd.OuterSolveOptions(zmax=1e6, nodes=1025))
    assert [call[:3] for call in calls] == [(257, 3, True), (1025, 3, True)]
    assert report.seed_nodes == 257
    assert (report.outer_iterations, report.fp_residual) == (3, 0.0)
    assert not report.certified


def test_outer_solve_large_v_takes_one_fine_step_from_an_exact_rung():
    # at v = 0.99 and zmax 1e2 the 129-node rung's second update is exactly
    # 0, a contraction estimate of 0, so the 513-node grid stops on the
    # contraction bound after one step, uncertified, not at max_outer
    params = cd.ModelParams(0.99, 0.1 * cd.admissible_threshold(0.99))
    F, report = cd.outer_solve(params, cd.OuterSolveOptions(zmax=1e2, nodes=513))
    assert (report.seed_nodes, report.outer_iterations, report.fp_residual) == (129, 1, 0.0)
    assert not report.certified


def test_outer_solve_stops_at_a_rising_update_norm(default_params, monkeypatch):
    # the second iterate is pushed away from the first, so the second update
    # norm exceeds the first: the loop ends there, unconverged
    opts = cd.OuterSolveOptions(zmax=1e4, nodes=257)
    norms = []
    reconstruct = profiles.reconstruct_profile
    weighted_sup = profiles._weighted_sup

    def pushed_away(*args):
        F = reconstruct(*args)
        if len(norms) == 1:
            return cd.GridFunction(F.grid, 10.0 * F.values, tail_exponent=F.tail_exponent)
        return F

    def recording_sup(*args):
        norms.append(weighted_sup(*args))
        return norms[-1]

    monkeypatch.setattr(profiles, "reconstruct_profile", pushed_away)
    monkeypatch.setattr(profiles, "_weighted_sup", recording_sup)
    level = _from_exponential_seed(default_params, opts)
    assert norms[1] > norms[0]
    assert (level.outer_iterations, level.fp_residual, level.converged) == (2, norms[1], False)


def test_outer_solve_large_v_falls_back_without_warning():
    # at v = 0.99 the tail weight overflows on the coarse grid too: the
    # coarse level ends unconverged, and the fine solve stops at its first
    # infinite update norm, as from the exponential seed
    params = cd.ModelParams(0.99, 0.5 * cd.admissible_threshold(0.99))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(cd.ConvergenceError, match="zmax") as err:
            cd.outer_solve(params, cd.OuterSolveOptions(nodes=1025))
    assert err.value.report.seed_nodes == 0
    assert err.value.report.outer_iterations == 1
