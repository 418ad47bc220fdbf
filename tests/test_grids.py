import math

import numpy as np
import pytest

import coagdrift as cd
from coagdrift.grids import _smallest_zmax
from oracles import (full_convolution_quadrature, half_convolution, reference_plan,
                     reference_samples)


def exp_sum(grid, v1=0.5, v2=0.25):
    """The two-member sum F = (1-v1) v1 e^(-v1 z) + (1-v2) v2 e^(-v2 z) of
    the exponential family on one grid, and its self-convolution in closed
    form: its log is curved, so the quadrature error is genuine."""
    c1, c2 = (1.0 - v1) * v1, (1.0 - v2) * v2
    F = cd.GridFunction(grid, c1 * np.exp(-v1 * grid.nodes) + c2 * np.exp(-v2 * grid.nodes),
                        tail_exponent=math.inf)

    def exact(z):
        return (c1**2 * z * np.exp(-v1 * z) + c2**2 * z * np.exp(-v2 * z)
                + 2.0 * c1 * c2 * (np.exp(-v2 * z) - np.exp(-v1 * z)) / (v1 - v2))

    return F, exact


def test_build_grid_basics():
    grid = cd.build_grid(10.0, 2, 0.5)
    np.testing.assert_allclose(grid.nodes, [0.0, 10.0])
    grid = cd.build_grid(1e6, 1025, 0.5)
    assert np.all(np.diff(grid.nodes) > 0.0)
    assert grid.nodes[0] == 0.0 and grid.nodes[-1] == 1e6
    # uniform in log(1 + (1-v) z)
    w = np.log1p(0.5 * grid.nodes)
    dws = np.diff(w)
    assert np.max(np.abs(dws - dws[0])) < 1e-12 * dws[0]


def test_build_grid_errors():
    with pytest.raises(cd.ParameterDomainError):
        cd.build_grid(-1.0, 100, 0.5)
    with pytest.raises(cd.ParameterDomainError):
        cd.build_grid(10.0, 1, 0.5)
    with pytest.raises(cd.ParameterDomainError):
        cd.build_grid(10.0, 100, 1.5)


@pytest.mark.parametrize("n", [5, 65, 2049])
@pytest.mark.parametrize("v", [0.05, 0.5, 0.95])
def test_build_grid_smallest_zmax(n, v):
    # at the bound, a profile of any mass below 1 gets its moments without
    # overflow (RuntimeWarnings are errors here); below it the grid is
    # refused by name
    zmax = _smallest_zmax(n, v)
    grid = cd.build_grid(zmax, n, v)
    for m0 in (0.001, 0.99):
        seed = cd.seed_profile(cd.ModelParams(v, m0), grid)
        assert cd.moment(seed, 0) == pytest.approx(m0, rel=1e-14)
        assert math.isfinite(cd.moment(seed, 1))
    with pytest.raises(cd.ParameterDomainError, match="zmax"):
        cd.build_grid(0.5 * zmax, n, v)


def test_grid_function_validation():
    grid = cd.build_grid(10.0, 16, 0.5)
    with pytest.raises(cd.ParameterDomainError):
        cd.GridFunction(grid, np.ones(5))
    with pytest.raises(cd.ParameterDomainError):
        cd.GridFunction(grid, np.full(16, np.nan))


def test_interpolation_exact_on_exponentials():
    grid = cd.build_grid(100.0, 257, 0.5)
    F = cd.exponential_grid_function(0.5, grid)
    z = np.linspace(0.0, 99.0, 777)
    np.testing.assert_allclose(F(z), 0.25 * np.exp(-0.5 * z), rtol=1e-12)
    # exact at the nodes up to the exp(log(x)) round trip
    np.testing.assert_allclose(F(grid.nodes), F.values, rtol=1e-14)


def test_interpolation_tail_model():
    grid = cd.build_grid(10.0, 64, 0.5)
    F = cd.GridFunction(grid, (1.0 + grid.nodes) ** -3, tail_exponent=3.0)
    f_end = F.values[-1]
    assert F(20.0) == pytest.approx(f_end * (20.0 / 10.0) ** -3, rel=1e-14)
    G = cd.GridFunction(grid, np.exp(-grid.nodes), tail_exponent=math.inf)
    assert G(20.0) == 0.0


def test_moment_zero_function():
    grid = cd.build_grid(10.0, 32, 0.5)
    F = cd.GridFunction(grid, np.zeros(32), tail_exponent=3.0)
    assert cd.moment(F, 0) == 0.0
    assert cd.moment(F, 1) == 0.0


def test_moment_divergence_error():
    grid = cd.build_grid(10.0, 32, 0.5)
    F = cd.GridFunction(grid, (1.0 + grid.nodes) ** -2, tail_exponent=1.5)
    with pytest.raises(cd.DivergentMomentError):
        cd.moment(F, 1)
    with pytest.raises(cd.ParameterDomainError):
        cd.moment(F, 2)


def test_moment_convergence_order():
    # quadrature error must drop at least 3.5x per node doubling (order >= 2)
    errors = []
    for n in (129, 257, 513):
        grid = cd.build_grid(300.0, n, 0.5)
        F = cd.exponential_grid_function(0.5, grid)
        errors.append(abs(cd.moment(F, 0) - 0.5))
    assert errors[0] / errors[1] > 3.5
    assert errors[1] / errors[2] > 3.5


def test_half_convolution_zero_point():
    grid = cd.build_grid(50.0, 129, 0.5)
    F = cd.exponential_grid_function(0.5, grid)
    assert cd.half_convolution_at_nodes(F)[0] == 0.0


def test_half_convolution_exponential_identity():
    # for F = G = (1-v) v e^(-vz) the half-range form equals the analytic
    # self-convolution (m0 v)^2 z e^(-vz)
    grid = cd.build_grid(200.0, 2049, 0.5)
    F = cd.exponential_grid_function(0.5, grid)
    sel = (grid.nodes >= 0.2) & (grid.nodes <= 20.0)
    z = grid.nodes[sel]
    want = 0.25**2 * z * np.exp(-0.5 * z)
    np.testing.assert_allclose(cd.half_convolution_at_nodes(F)[sel], want, rtol=1e-9)


def test_half_convolution_at_nodes_matches_scalar():
    grid = cd.build_grid(100.0, 257, 0.5)
    F, _ = exp_sum(grid)
    at_nodes = cd.half_convolution_at_nodes(F)
    for j in (1, 17, 100, 256):
        assert at_nodes[j] == pytest.approx(
            half_convolution(F, F, float(grid.nodes[j])), rel=1e-13
        )
    assert at_nodes[0] == 0.0


def test_half_convolution_convergence_order():
    # the two-member sum has a curved log, so the integrand is not
    # reproduced by the interpolation: the trapezoid error is genuine and
    # must shrink at 2nd order
    def max_err(n):
        grid = cd.build_grid(60.0, n, 0.5)
        F, exact = exp_sum(grid)
        sel = (grid.nodes >= 0.5) & (grid.nodes <= 12.0)
        want = exact(grid.nodes[sel])
        return float(np.max(np.abs(cd.half_convolution_at_nodes(F)[sel] - want) / want))

    e1, e2 = max_err(257), max_err(513)
    assert e1 / e2 > 3.5


def test_half_convolution_upper_bound():
    # conv(F, G, z) <= 2 M0(G) max_{[z/2, z]} F for non-increasing F
    params = cd.ModelParams(0.5, 0.01)
    grid = cd.build_grid(1e4, 513, 0.5)
    F = cd.GridFunction(grid, cd.supersolution_value(params, grid.nodes), tail_exponent=2.96)
    m0g = cd.moment(F, 0)
    bound = 2.0 * m0g * F(grid.nodes / 2.0)
    assert np.all(cd.half_convolution_at_nodes(F) <= bound * (1.0 + 1e-9))


def test_full_convolution_quadrature_agrees():
    params = cd.ModelParams(0.5, 0.01)
    grid = cd.build_grid(1e4, 1025, 0.5)
    F = cd.GridFunction(grid, cd.supersolution_value(params, grid.nodes), tail_exponent=2.96)
    half = cd.half_convolution_at_nodes(F)
    for j in (5, 50, 300, 700):
        full = full_convolution_quadrature(F, float(grid.nodes[j]))
        assert half[j] == pytest.approx(full, abs=1e-8, rel=1e-6)


def _tau_linear(grid, v, limit=5.0):
    # tau(s) = v s, the exponential family's log-derivative
    return cd.TauFunction(grid, v * grid.nodes, slope0=v, limit_inf=limit)


def test_log_integral_constant_tau():
    grid = cd.build_grid(1e3, 1025, 0.5)
    tau = cd.TauFunction(grid, np.full(grid.n, 2.0), slope0=2.0, limit_inf=2.0)
    # node differences of the endpoint-corrected cumulative table
    cum = cd.cumulative_log_integral(tau)
    z1, z2 = float(grid.nodes[100]), float(grid.nodes[800])
    assert cum[800] - cum[100] == pytest.approx(2.0 * math.log(z2 / z1), rel=1e-10)
    assert cum[0] == 0.0


def test_log_integral_linear_tau():
    grid = cd.build_grid(1e3, 1025, 0.5)
    tau = _tau_linear(grid, 0.5)
    # integrand tau(s)/s = v, so the integral from 0 is exactly v z
    cum = cd.cumulative_log_integral(tau)
    assert cum[700] == pytest.approx(0.5 * grid.nodes[700], rel=1e-9)
    j = int(np.argmin(np.abs(grid.nodes - 7.3)))
    assert cum[j] == pytest.approx(0.5 * grid.nodes[j], rel=1e-8)


def test_log_integral_additivity_on_nodes():
    grid = cd.build_grid(1e3, 257, 0.5)
    tau = _tau_linear(grid, 0.5)
    cum = cd.cumulative_log_integral(tau)
    a, b, c = 10, 100, 200
    left = (cum[b] - cum[a]) + (cum[c] - cum[b])
    assert left == pytest.approx(cum[c] - cum[a], rel=1e-13)


# ----------------------------------------------------------------------
# half-range plan: pair layout against the per-row reference
# ----------------------------------------------------------------------

PLAN_SIZES = (2, 3, 5, 65, 2049)


@pytest.mark.parametrize("n", PLAN_SIZES)
def test_half_range_plan_matches_row_loop(n):
    grid = cd.build_grid(1e6, n, 0.5)
    ref = reference_plan(grid)
    plan = grid.half_range_plan()
    for name in ("counts", "x_lam_z"):
        assert np.array_equal(getattr(plan, name), ref[name]), name
    # the point weights trapezoid weight * G(y) are derived per block from
    # the row layout: G = 1 gives the weights, distinct samples of G the
    # sample indices too
    one = cd.GridFunction(grid, np.ones(n))
    G = cd.GridFunction(grid, np.exp(-np.arange(n) / n))
    assert np.array_equal(np.concatenate([o for *_, o in plan.blocks(one)]), ref["weights"])
    assert np.array_equal(np.concatenate([o for *_, o in plan.blocks(G)]),
                          ref["weights"] * reference_samples(ref, G))
    # the w fraction is stored as the pair's first one plus an offset
    first = np.concatenate([[0], np.cumsum(plan.pair_count)[:-1]])
    assert np.array_equal(plan.pair_lam_w, ref["x_lam_w"][first])
    assert np.array_equal(plan.x_dlam_w,
                          ref["x_lam_w"] - np.repeat(ref["x_lam_w"][first], plan.pair_count))


def test_half_range_plan_covers_short_segments():
    # segments with a single node below z_j/2 (k = 1) occur in the sizes above
    ks = [reference_plan(cd.build_grid(1e6, n, 0.5))["counts"] - 1 for n in PLAN_SIZES]
    assert np.any(np.concatenate(ks) == 1)


@pytest.mark.parametrize("n", PLAN_SIZES)
def test_half_range_plan_pairs_tile_rows(n):
    grid = cd.build_grid(1e6, n, 0.5)
    ref = reference_plan(grid)
    plan = grid.half_range_plan()
    # the pairs tile [0, size) once, in order
    assert np.all(plan.pair_count >= 1)
    offsets = np.concatenate([[0], np.cumsum(plan.pair_count)])
    assert offsets[-1] == plan.size
    # no pair crosses a row: it lies inside the segment of its node
    seg_start = (np.cumsum(plan.counts) - plan.counts)[plan.pair_row - 1]
    seg_end = seg_start + plan.counts[plan.pair_row - 1]
    assert np.all(plan.pair_row >= 1) and np.all(plan.pair_row <= n - 1)
    assert np.all(np.diff(plan.pair_row) >= 0)
    assert np.all(offsets[:-1] >= seg_start) and np.all(offsets[1:] <= seg_end)
    # every point of a pair has the pair's bracketing interval, and
    # neighbouring pairs of one row have different ones
    assert np.array_equal(np.repeat(plan.pair_a, plan.pair_count), ref["x_idx"])
    same_row = plan.pair_row[1:] == plan.pair_row[:-1]
    assert np.all(plan.pair_a[1:][same_row] != plan.pair_a[:-1][same_row])


def _plan_data(grid):
    """A datum G whose far tail is exactly zero, so that G leaves plan
    pairs of zero mass."""
    barrier = cd.supersolution_value(cd.ModelParams(0.5, 0.005), grid.nodes)
    return cd.GridFunction(grid, np.where(grid.nodes > 1e3, 0.0, barrier))


@pytest.mark.parametrize("n, block", [(65, 7), (65, 300), (2049, 50_000)])
def test_half_range_plan_blocked_build(monkeypatch, n, block):
    from coagdrift import grids

    def build_and_pass():
        grid = cd.build_grid(1e6, n, 0.5)
        G = _plan_data(grid)
        plan = grid.half_range_plan()
        return plan, plan.pair_rule(G), cd.half_convolution_at_nodes(G)

    whole, whole_rule, whole_conv = build_and_pass()
    monkeypatch.setattr(grids, "_PLAN_BLOCK_POINTS", block)
    assert whole.size > 3 * block  # several blocks
    assert whole.counts.max() > block or block > 7  # and rows longer than one
    blocked, rule, conv = build_and_pass()
    for name, value in vars(whole).items():
        assert np.array_equal(getattr(blocked, name), value), name
    assert whole_rule.row.size < whole.pair_row.size  # the zero tail left pairs out
    for name, value in vars(whole_rule).items():
        assert np.array_equal(getattr(rule, name), value), name
    assert np.array_equal(conv, whole_conv)
    # the blocks tile rows, pairs and points in order, each pair in its rows
    G = _plan_data(cd.build_grid(1e6, n, 0.5))
    blocks = list(blocked.blocks(G))
    assert len(blocks) > 3
    for (rows, pairs, points, omega), nxt in zip(blocks, blocks[1:] + [None]):
        assert blocked.counts[rows].sum() == blocked.pair_count[pairs].sum() == points.stop - points.start
        assert omega.size == points.stop - points.start
        assert np.all((blocked.pair_row[pairs] > rows.start) & (blocked.pair_row[pairs] <= rows.stop))
        if nxt is not None:
            assert (rows.stop, pairs.stop, points.stop) == (nxt[0].start, nxt[1].start, nxt[2].start)
    assert (rows.stop, pairs.stop, points.stop) == (n - 1, blocked.pair_row.size, blocked.size)


@pytest.mark.parametrize("call, bound", [("convolution", 0.5), ("pair_rule", 1.25)])
def test_plan_passes_stream_in_blocks(call, bound):
    # the passes over the points hold block-sized temporaries, not arrays
    # as long as the plan: traced peak in units of one point-length float
    # array, on a built plan of the README pair (measured: convolution
    # 0.12, pair rule 0.89; 2.11 and 1.63 when whole point arrays were
    # formed)
    import tracemalloc

    params = cd.ModelParams(0.5, 0.005)
    seed = cd.seed_profile(params, cd.build_grid(1e6, 2049, 0.5))
    plan = seed.grid.half_range_plan()
    tracemalloc.start()
    try:
        if call == "convolution":
            cd.half_convolution_at_nodes(seed)
        else:
            plan.pair_rule(seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8.0 * plan.size) < bound


def _reference_half_convolution(F, G):
    """Per-point interpolation of F (the GridFunction rule) on the
    reference plan."""
    ref = reference_plan(F.grid)
    a = F.interp_at_brackets(ref["x_idx"], ref["x_lam_z"])
    out = np.zeros(F.grid.n)
    out[1:] = 2.0 * np.add.reduceat(ref["weights"] * a * reference_samples(ref, G),
                                    ref["starts"])
    return out


def _tail_cut(values, grid, zcut):
    out = values.copy()
    out[grid.nodes > zcut] = 0.0
    return out


@pytest.mark.parametrize("case", ["barrier", "zero_tail"])
def test_half_convolution_at_nodes_matches_per_point(case):
    params = cd.ModelParams(0.5, 0.01)
    grid = cd.build_grid(1e4, 1025, 0.5)
    barrier = cd.supersolution_value(params, grid.nodes)
    F = cd.GridFunction(grid, barrier, tail_exponent=2.96)
    if case == "zero_tail":
        # the far tail is exactly zero: pairs there take the linear branch
        F = cd.GridFunction(grid, _tail_cut(barrier, grid, 50.0))
        assert np.any(F.values == 0.0)
    got = cd.half_convolution_at_nodes(F)
    want = _reference_half_convolution(F, F)
    assert got[0] == 0.0
    scale = np.where(want == 0.0, 1.0, np.abs(want))
    assert np.max(np.abs(got - want) / scale) <= 1e-14
