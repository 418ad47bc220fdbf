import math

import numpy as np
import pytest

import coagdrift as cd
from coagdrift import grids
from coagdrift.grids import _smallest_zmax
from oracles import (TOL_INNER, full_convolution_quadrature, half_convolution,
                     plain_log_integral, reference_plan, reference_samples)


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
    # NaN passes no ordering test, so a NaN node would pass diff <= 0 and an
    # infinite one would give an infinite dw
    for nodes in ([0.0, np.nan, 2.0], [0.0, 1.0, np.inf]):
        with pytest.raises(cd.ParameterDomainError, match="finite"):
            cd.Grid(nodes=nodes, v=0.5)
    # a NaN evaluation point is refused like a negative one; +inf is the tail
    F = cd.GridFunction(grid, np.exp(-grid.nodes), tail_exponent=3.0)
    for z in (-1.0, np.nan, [1.0, np.nan]):
        with pytest.raises(cd.ParameterDomainError, match="nonnegative"):
            F(z)
    assert F(np.inf) == 0.0


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


def _tau_linear(grid, v):
    # tau(s) = v s, the exponential family's log-derivative
    return cd.TauFunction(grid, v * grid.nodes, slope0=v)


def test_log_integral_constant_tau():
    grid = cd.build_grid(1e3, 1025, 0.5)
    tau = cd.TauFunction(grid, np.full(grid.n, 2.0), slope0=2.0)
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


def _blocks(grid, plan):
    """Per block of ``_row_blocks`` of ``plan``: its rows, and the pairs
    that ``_block_pairs`` finds there (pairs per row, and per pair its
    interval, first point and point count)."""
    return [(rows, *grids._block_pairs(grid, plan, rows)) for rows in grids._row_blocks(plan)]


def _pairs(grid):
    """The pairs of the grid's plan, all blocks concatenated: pairs per row,
    and per pair its interval, first point and point count."""
    blocks = _blocks(grid, grid.half_range_plan())
    return [np.concatenate([b[i] for b in blocks]) for i in range(1, 5)]


@pytest.mark.parametrize("n", PLAN_SIZES)
def test_half_range_plan_matches_row_loop(n):
    grid = cd.build_grid(1e6, n, 0.5)
    ref = reference_plan(grid)
    plan = grid.half_range_plan()
    assert np.array_equal(plan.counts, ref["counts"])
    assert plan.size == ref["x"].size
    # the convolution weighs each point by its trapezoid weight * F(y) and
    # interpolates F(z_j - y) as the reference does, for distinct samples
    _assert_matches_reference(cd.GridFunction(grid, np.exp(-np.arange(n) / n)))
    # per point, the pair's interval is that of Grid.bracket: x in
    # [z_a, z_{a+1}), and x = zmax in the last interval
    _, a, _, count = _pairs(grid)
    a = np.repeat(a, count)
    x, z = ref["x"], grid.nodes
    assert np.array_equal(a, ref["x_idx"])
    assert np.all(z[a] <= x)
    assert np.all((x < z[a + 1]) | ((x == z[-1]) & (a == n - 2)))
    firsts = np.cumsum(plan.counts) - plan.counts
    assert np.all(z[a][firsts[:-1]] == z[1:-1])  # x = z_j at fraction 0


def test_half_range_plan_covers_short_segments():
    # segments with a single node below z_j/2 (k = 1) occur in the sizes above
    ks = [reference_plan(cd.build_grid(1e6, n, 0.5))["counts"] - 1 for n in PLAN_SIZES]
    assert np.any(np.concatenate(ks) == 1)


@pytest.mark.parametrize("n", PLAN_SIZES)
def test_half_range_plan_pairs_tile_rows(n):
    _check_pairs_tile_rows(cd.build_grid(1e6, n, 0.5))


def test_half_range_plan_half_endpoint_on_a_node():
    # z_j/2 is the node z_{k_j} at j = 2, 4 and 6: the half endpoint still
    # ends its row's last pair, in interval k_j - 1 at fraction 1
    grid = cd.Grid(nodes=np.array([0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0]), v=0.5)
    assert np.isin(0.5 * grid.nodes[[2, 4, 6]], grid.nodes).all()
    _check_pairs_tile_rows(grid)
    row_pairs, _, _, pair_count = _pairs(grid)
    assert np.array_equal(pair_count[np.cumsum(row_pairs)[[1, 3, 5]] - 1], [1, 1, 1])
    # the convolution matches the per-point reference on these nodes, which
    # are not uniform in w, and F is interpolated in the interval that holds
    # the point.  F(8) = 0 makes the last interval linear.
    F = cd.GridFunction(grid, np.array([1.0, 0.6, 0.5, 0.3, 0.2, 0.05, 0.0]))
    assert F(1.5) == pytest.approx(math.sqrt(0.6 * 0.5), rel=1e-15)
    _assert_matches_reference(F)


def _check_pairs_tile_rows(grid):
    plan = grid.half_range_plan()
    row_pairs, pair_a, pair_first, pair_count = _pairs(grid)
    n = grid.n
    k = plan.counts - 1
    assert np.all(pair_count >= 1) and np.all(row_pairs >= 1)
    assert row_pairs.size == n - 1 and row_pairs.sum() == pair_count.size
    assert np.all(row_pairs <= plan.spans)  # at most one pair per candidate interval
    # each row's pairs tile its points in order: the nodes from 0 to
    # k_j - 1, then the half endpoint (point k_j), which ends the last pair
    row = np.repeat(np.arange(n - 1), row_pairs)
    row_first = np.cumsum(row_pairs) - row_pairs
    row_last = row_first + row_pairs - 1
    assert np.all(pair_first[row_first] == 0)
    after = pair_first + pair_count
    assert np.array_equal(after[:-1][np.diff(row) == 0], pair_first[1:][np.diff(row) == 0])
    assert np.array_equal(after[row_last], k + 1)
    # intervals fall along a row, and its last pair lies in k_j - 1
    assert np.all(np.diff(pair_a)[np.diff(row) == 0] < 0)
    assert np.array_equal(pair_a[row_last], k - 1)


def test_half_range_plan_holds_no_point_array():
    # every array of the plan is per node or per row; its pairs are
    # streamed: at 2049 nodes the plan has 1.9M points in 205k pairs
    grid = cd.build_grid(1e6, 2049, 0.5)
    plan = grid.half_range_plan()
    assert 9 * _pairs(grid)[1].size < plan.size
    for name, value in vars(plan).items():
        assert value.size in (grid.n, grid.n - 1), name


def _plan_data(grid):
    """A datum G whose far tail is exactly zero, so that G leaves plan
    pairs of zero mass."""
    barrier = cd.supersolution_value(cd.ModelParams(0.5, 0.005), grid.nodes)
    return cd.GridFunction(grid, np.where(grid.nodes > 1e3, 0.0, barrier))


def _kernel_table(grid):
    """The plain cumulative log-integral table of tau = 3, for kernel_sums."""
    tau = cd.TauFunction(grid, np.full(grid.n, 3.0), slope0=1.0)
    return plain_log_integral(tau)


def _check_blocks(grid, points):
    """The pair blocks tile the rows and each block's pairs its points; a
    block holds at most ``points`` points and a quarter as many pairs, or a
    single row."""
    plan = grid.half_range_plan()
    blocks = _blocks(grid, plan)
    assert np.array_equal(np.concatenate([np.arange(grid.n - 1)[rows] for rows, *_ in blocks]),
                          np.arange(grid.n - 1))
    for rows, per_row, a, first, count in blocks:
        assert per_row.sum() == a.size == first.size == count.size
        assert count.sum() == plan.counts[rows].sum()
        assert (count.sum() <= points and 4 * a.size <= points) or rows.stop == rows.start + 1
    return blocks


@pytest.mark.parametrize("n, block", [(65, 7), (65, 300), (2049, 50_000)])
def test_half_range_plan_blocked_build(monkeypatch, n, block):
    def build_and_pass():
        grid = cd.build_grid(1e6, n, 0.5)
        G = _plan_data(grid)
        plan = grid.half_range_plan()
        return plan, list(plan.pair_rule(G)), cd.half_convolution_at_nodes(G)

    whole, whole_rules, whole_conv = build_and_pass()
    grid = cd.build_grid(1e6, n, 0.5)
    _check_blocks(grid, grids._PLAN_BLOCK_POINTS)
    monkeypatch.setattr(grids, "_PLAN_BLOCK_POINTS", block)
    assert whole.size > 3 * block  # several blocks
    assert whole.counts.max() > block or block > 7  # and rows longer than one
    blocked, rules, conv = build_and_pass()
    for name, value in vars(whole).items():
        assert np.array_equal(getattr(blocked, name), value), name
    # pair_rule yields one rule per block of _row_blocks, in row order,
    # and the rules concatenated (rows, intervals, nodes and weights) keep
    # their bits
    assert [r.rows for r in rules] == [rows for rows, *_ in _check_blocks(grid, block)]
    assert len(rules) > 3 and len(whole_rules) < len(rules)

    def concatenated(rules):
        return [np.concatenate([r.rows.start + r.row for r in rules])] + [
            np.concatenate([getattr(r, name) for r in rules], axis=-1)
            for name in ("a", "nodes", "weights")]

    whole_pairs, pairs = concatenated(whole_rules), concatenated(rules)
    for name, want, got in zip(("row", "a", "nodes", "weights"), whole_pairs, pairs):
        assert np.array_equal(got, want), name
    assert np.bincount(whole_pairs[0]).max() > 3  # rows of several pairs
    assert whole_pairs[1].size < _pairs(grid)[1].size  # the zero tail left pairs out
    assert np.array_equal(conv, whole_conv)
    # a row's pairs are summed in order, so the kernel sums keep their bits
    # across the block sizes
    cum = _kernel_table(grid)
    assert np.array_equal(np.concatenate([r.kernel_sums(cum) for r in rules]),
                          np.concatenate([r.kernel_sums(cum) for r in whole_rules]))


def test_pair_rule_arrays_are_their_own():
    # a rule keeps only its block's live pairs: no array of it is a view of
    # a buffer sized by the candidate intervals, which would keep the dead
    # tail of that buffer alive with the rule; and each is in C order, in
    # which kernel_sums reads it fastest
    grid = cd.build_grid(1e6, 2049, 0.5)
    found = 0
    for rule in grid.half_range_plan().pair_rule(_plan_data(grid)):
        for x in (value for value in vars(rule).values() if isinstance(value, np.ndarray)):
            assert x.base is None or x.base.nbytes == x.nbytes
            assert x.flags.c_contiguous
            found += 1
    assert found > 4


@pytest.mark.parametrize("call, bound", [
    ("convolution", 0.16), ("pair_rule", 0.27), ("kernel_sums", 0.05), ("inner_solve", 0.22)])
def test_plan_passes_stream_in_blocks(call, bound):
    # the passes over the points and pairs hold block-sized temporaries, not
    # arrays as long as the points or pairs: traced peak in units of one
    # point-length float array, on a built plan of the README pair at 2049
    # nodes and the first Picard iterate from its seed, whose fat tail
    # leaves all 205k pairs live, in blocks of 2^16 points (measured:
    # convolution 0.132; 0.186 when a block's temporaries outlived the
    # search of the next block's pairs, 0.331 in blocks of 2^17 points.
    # The pair rule walked block by block, each rule dropped once the walk
    # holds the next, 0.222; 0.355 when a build kept each temporary to its
    # end, 0.570 in blocks of 2^17.  The kernel sums of the largest block,
    # 16k pairs, 0.043; 0.087 for 33k pairs in blocks of 2^17.  A whole
    # inner solve, which marches the blocks and drops each rule before the
    # next is built, 0.179; 0.231 when it kept the last rule during the
    # build, 0.579 in blocks of 2^17 with the old build)
    import tracemalloc

    params = cd.ModelParams(0.5, 0.005)
    seed = cd.seed_profile(params, cd.build_grid(1e6, 2049, 0.5))
    G = cd.reconstruct_profile(cd.inner_solve(seed, params, TOL_INNER).tau, params)
    plan = G.grid.half_range_plan()
    rule = max(plan.pair_rule(G), key=lambda r: r.a.size)
    cum = _kernel_table(G.grid)

    def walk():
        for _ in plan.pair_rule(G):
            pass

    run = {"convolution": lambda: cd.half_convolution_at_nodes(G),
           "pair_rule": walk,
           "kernel_sums": lambda: rule.kernel_sums(cum),
           "inner_solve": lambda: cd.inner_solve(G, params, TOL_INNER)}[call]
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8.0 * plan.size) < bound


def test_pair_rule_refuses_a_rule_that_is_not_finite():
    # a datum whose node moments overflow gives rules of NaN weight: the
    # plan raises instead of leaving those pairs out as of zero mass
    grid = cd.build_grid(1e6, 65, 0.5)
    G = cd.GridFunction(grid, np.full(grid.n, 1e308))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(cd.NumericalConsistencyError, match="not finite"):
            list(grid.half_range_plan().pair_rule(G))


def _reference_half_convolution(F, G):
    """Per-point interpolation of F (the GridFunction rule) on the
    reference plan."""
    ref = reference_plan(F.grid)
    a = F(ref["x"])
    out = np.zeros(F.grid.n)
    out[1:] = 2.0 * np.add.reduceat(ref["weights"] * a * reference_samples(ref, G),
                                    ref["starts"])
    return out


def _assert_matches_reference(F):
    got = cd.half_convolution_at_nodes(F)
    want = _reference_half_convolution(F, F)
    scale = np.where(want == 0.0, 1.0, np.abs(want))
    assert np.max(np.abs(got - want) / scale) <= 1e-14


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
    assert set(vars(grid)) == {"nodes", "v"}  # no grid caches a plan
    want = _reference_half_convolution(F, F)
    assert got[0] == 0.0
    scale = np.where(want == 0.0, 1.0, np.abs(want))
    assert np.max(np.abs(got - want) / scale) <= 1e-14


@pytest.mark.parametrize("mutant", ["last_w", "half_w", "interval"])
def test_convolution_mutants_fail(monkeypatch, mutant):
    # a convolution that drops a row-end weight (the row's last node and
    # half endpoint take last_w and half_w, not node_w), or that puts each
    # pair one interval lower, misses the per-point reference of
    # test_half_convolution_at_nodes_matches_per_point by far more than its
    # 1e-14: measured, by up to 0.50, 0.50 and 0.025 relative
    if mutant == "interval":
        block_pairs = grids._block_pairs

        def lower(grid, layout, rows):
            per_row, a, first, count = block_pairs(grid, layout, rows)
            return per_row, np.maximum(a - 1, 0), first, count

        monkeypatch.setattr(grids, "_block_pairs", lower)
    else:
        half_range_plan = cd.Grid.half_range_plan

        def dropped(grid):
            layout = half_range_plan(grid)
            setattr(layout, mutant, np.zeros_like(getattr(layout, mutant)))
            return layout

        monkeypatch.setattr(cd.Grid, "half_range_plan", dropped)
    grid = cd.build_grid(1e4, 1025, 0.5)
    F = cd.GridFunction(grid, cd.supersolution_value(cd.ModelParams(0.5, 0.01), grid.nodes),
                        tail_exponent=2.96)
    got = cd.half_convolution_at_nodes(F)
    want = _reference_half_convolution(F, F)
    assert np.max(np.abs(got[1:] / want[1:] - 1.0)) > 1e-3
