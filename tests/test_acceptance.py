"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
are produced.  Criteria 5-8 share the session-scoped certified solve from
``conftest.py``.
"""

import math
import time
import warnings

import numpy as np
import pytest

import coagdrift as cd
from oracles import barrier_sweeps, full_convolution_quadrature, half_convolution, tau_map


def _criterion(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_exponential_residual():
    # weighted residual of the closed-form exponential solutions on the
    # default grid; quadrature-limited, <= 1e-6, under a second per case
    worst = 0.0
    slowest = 0.0
    for v in (0.25, 0.5, 0.75):
        start = time.perf_counter()
        grid = cd.build_grid(1e6, 2049, v)
        F = cd.exponential_grid_function(v, grid)
        params = cd.ModelParams(v, 1.0 - v)
        norm = cd.weighted_residual_norm(cd.residual_selfsimilar(F, params), params)
        elapsed = time.perf_counter() - start
        worst = max(worst, norm)
        slowest = max(slowest, elapsed)
    ok = worst <= 1e-6 and slowest < 1.0
    _criterion(1, ok, f"max weighted residual {worst:.3e} (<= 1e-6), "
                      f"slowest case {slowest:.2f}s (< 1s)")


def _exp_member(v, z):
    # member of the exponential family, F(z) = (1-v) v e^(-vz), m0 = 1 - v
    return (1.0 - v) * v * np.exp(-v * z)


def _criterion_2_errors(n, values, exact):
    # max relative error of both half-range convolutions of the grid
    # function with samples values(nodes) against exact(z): the scalar
    # quadrature at 50 points in [0.2, 20], and the plan-based operator
    # that inner_solve and the residual use at the nodes in [0.2, 20]
    def rel_err(got, z):
        return float(np.max(np.abs(got - exact(z)) / exact(z)))

    grid = cd.build_grid(200.0, n, 0.5)
    F = cd.GridFunction(grid, values(grid.nodes), tail_exponent=math.inf)
    zs = np.linspace(0.2, 20.0, 50)
    scalar = np.array([half_convolution(F, F, float(z)) for z in zs])
    on_nodes = (grid.nodes >= 0.2) & (grid.nodes <= 20.0)
    plan = cd.half_convolution_at_nodes(F)[on_nodes]
    return rel_err(scalar, zs), rel_err(plan, grid.nodes[on_nodes])


def test_criterion_2_convolution_oracle():
    # Half-range self-convolution against analytic oracles from the
    # exponential family.  A single member has a constant integrand
    # F(z-y) F(y), which log-linear interpolation reproduces exactly, so it
    # carries the accuracy clause (relative error <= 1e-6 at 2049 nodes)
    # but has no discretization error to shrink.  The sum of two members
    # has a curved log, so its quadrature error is genuine: it carries the
    # order clause (>= 3.5x decrease when nodes double) with the 2049-node
    # error held above 1e-9, so the ratio is never taken on rounding noise.
    v1, v2 = 0.5, 0.25
    c1, c2 = (1.0 - v1) * v1, (1.0 - v2) * v2

    def single_exact(z):
        # (m0 v)^2 z e^(-vz) for the member v = v1
        return c1**2 * z * np.exp(-v1 * z)

    def pair(z):
        return _exp_member(v1, z) + _exp_member(v2, z)

    def pair_exact(z):
        return (single_exact(z) + c2**2 * z * np.exp(-v2 * z)
                + 2.0 * c1 * c2 * (np.exp(-v2 * z) - np.exp(-v1 * z)) / (v1 - v2))

    single = _criterion_2_errors(2049, lambda z: _exp_member(v1, z), single_exact)
    pair_n = _criterion_2_errors(2049, pair, pair_exact)
    pair_2n = _criterion_2_errors(4097, pair, pair_exact)
    ratios = [e_n / e_2n if e_2n > 0.0 else math.inf
              for e_n, e_2n in zip(pair_n, pair_2n)]
    ok = (max(single) <= 1e-6 and all(1e-9 <= e <= 1e-6 for e in pair_n)
          and min(ratios) >= 3.5)
    _criterion(2, ok, "single member max rel err "
                      f"{single[0]:.3e}/{single[1]:.3e} (<= 1e-6) at 2049 nodes; "
                      f"two-member sum {pair_n[0]:.3e}/{pair_n[1]:.3e} "
                      "(in [1e-9, 1e-6]) at 2049 nodes, doubling ratio "
                      f"{ratios[0]:.2f}/{ratios[1]:.2f} (>= 3.5) "
                      "[oracle half_convolution/half_convolution_at_nodes]")


def test_criterion_3_threshold_constants():
    from scipy import optimize

    got_bar = cd.admissible_threshold(0.5)
    res = optimize.minimize_scalar(lambda s: -s * 2.0 ** (-s), bounds=(1e-6, 10.0),
                                   method="bounded", options={"xatol": 1e-14})
    oracle_bar = (1.0 - 0.5) * (-res.fun) / (2.0 * 2.0**3)
    constants = cd.derive_constants(cd.ModelParams(0.5, 0.01))
    oracle_root = optimize.brentq(
        lambda s: 0.04 * 2.0 ** (3.0 + s) - s, 1e-12, 1.0 / math.log(2.0), xtol=1e-15
    )
    bar_err = abs(got_bar - oracle_bar)
    tau_err = abs(constants.tau_star - (3.0 + oracle_root))
    ok = bar_err <= 1e-9 and tau_err <= 1e-9
    _criterion(3, ok, f"m0_bar {got_bar:.12f} (oracle diff {bar_err:.2e} <= 1e-9), "
                      f"tau_star {constants.tau_star:.12f} (oracle diff {tau_err:.2e} <= 1e-9)")


def test_criterion_4_monotone_inner_iteration(default_params):
    # the fixed-point map, applied by hand from the barrier one pair block
    # at a time, decreases pointwise at every step within the rounding
    # slack and ends bit for bit on the tau of inner_solve, where one more
    # application of the map moves it by at most the tolerance
    grid = cd.build_grid(1e6, 2049, default_params.v)
    seed = cd.seed_profile(default_params, grid)
    constants = cd.derive_constants(default_params)
    start = time.perf_counter()
    result = cd.inner_solve(seed, default_params, 1e-10)
    elapsed = time.perf_counter() - start
    residual = float(np.max(np.abs(tau_map(seed, result.tau, default_params).values
                                   - result.tau.values)))
    slack = 1e-13 * constants.tau_star
    blocks, last = barrier_sweeps(seed, default_params, constants.tau_star, 1e-10)
    monotone = all(
        np.all(image <= prev + slack) and np.all(image >= -slack)
        for steps in blocks for prev, image in steps
    )
    same = (max(map(len, blocks)) == result.iterations
            and np.array_equal(last, result.tau.values))
    bounded = bool(
        np.all(result.tau.values >= 0.0)
        and np.all(result.tau.values <= constants.tau_star)
    )
    ok = (monotone and same and bounded and result.iterations <= 500
          and residual <= 1e-10 and elapsed < 30.0)
    _criterion(4, ok, f"{result.iterations} sweeps, residual {residual:.2e} "
                      f"(<= 1e-10), monotone={monotone}, same as by hand={same}, "
                      f"bounded={bounded}, {elapsed:.1f}s (< 30s)")


def test_criterion_5_fat_tail_certification(solved, default_params):
    F, report, elapsed = solved
    params = default_params
    f0_rel = abs(report.F0 - params.m0 * (1 - params.m0)) / (params.m0 * (1 - params.m0))
    m1_rel = abs(report.M1 - params.m0 / params.v) / (params.m0 / params.v)
    tail_rel = abs(report.tail_exponent_fit - 3.0) / 3.0
    barrier = cd.supersolution_value(params, F.grid.nodes)
    dominated = bool(np.all(F.values <= barrier * (1.0 + 1e-12)))
    monotone = bool(np.all(np.diff(F.values) <= 0.0))
    ok = (report.certified and f0_rel <= 1e-6 and m1_rel <= 5e-3
          and tail_rel <= 1e-2 and dominated and monotone and elapsed < 120.0)
    _criterion(5, ok, f"certified={report.certified}, F0 rel {f0_rel:.2e} (<= 1e-6), "
                      f"M1 rel {m1_rel:.2e} (<= 5e-3), tail rel {tail_rel:.2e} (<= 1e-2), "
                      f"F<=barrier={dominated}, non-increasing={monotone}, "
                      f"{elapsed:.0f}s (< 120s)")


def test_criterion_6_half_full_equivalence(solved):
    F, _, _ = solved
    half = cd.half_convolution_at_nodes(F)
    # by construction the full form of identical arguments IS the half form;
    # the quadratured full-range integral must agree independently
    worst = 0.0
    for j in range(1, F.grid.n):
        full = full_convolution_quadrature(F, float(F.grid.nodes[j]))
        worst = max(worst, abs(half[j] - full))
    ok = worst <= 1e-8
    _criterion(6, ok, f"construction gap 0 (same operator), "
                      f"independent quadrature sup-difference {worst:.3e} (<= 1e-8)")


def _evolve_exponential(cells: int):
    grid = cd.build_grid(1e6, 2049, 0.5)
    F = cd.exponential_grid_function(0.5, grid)
    state = cd.init_from_profile(F, 1.0, cells, 50.0)
    state, diag, _ = cd.simulate(state, 2.0, cfl=0.5, profile=F, record_every=10)
    diag = np.array(diag)
    err = diag[-1, 4]
    ut_dev = float(np.max(np.abs(diag[:, 0] * diag[:, 3] - 0.5) / 0.5))
    m1_drift = float(np.max(np.abs(diag[:, 2] - diag[0, 2]) / diag[0, 2]))
    return err, ut_dev, m1_drift


def test_criterion_7_evolution_exponential():
    err_a, ut_dev, m1_drift = _evolve_exponential(4096)
    err_b, _, _ = _evolve_exponential(8192)
    ratio = err_a / err_b
    budget = 5e-3 * 0.25  # 5e-3 * max F
    ok = (err_a <= budget and 1.6 <= ratio <= 2.4
          and ut_dev <= 1e-2 and m1_drift <= 1e-3)
    _criterion(7, ok, f"deviation {err_a:.3e} (<= {budget:.2e}), halving ratio "
                      f"{ratio:.2f} (in [1.6, 2.4]), u*t dev {ut_dev:.2e} (<= 1e-2), "
                      f"m1 drift {m1_drift:.2e} (<= 1e-3)")


def test_criterion_8_evolution_fat_tail(solved):
    # same protocol on the certified profile; no closed form, so the check
    # is first-order self-convergence of the deviation.  The cutoff is
    # picked so the truncated tail (fixed modelling bias ~ 1/xmax) stays
    # below the discretization error at the finest grid.
    F, _, _ = solved
    errs = []
    for cells in (1024, 2048, 4096):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            state = cd.init_from_profile(F, 1.0, cells, 200.0, strict=False)
        _, diag, _ = cd.simulate(state, 2.0, cfl=0.5, profile=F, record_every=10**9)
        errs.append(diag[-1][4])
    r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
    ok = 1.5 <= r1 <= 3.0 and 1.5 <= r2 <= 3.0
    _criterion(8, ok, f"deviations {errs[0]:.3e}/{errs[1]:.3e}/{errs[2]:.3e}, "
                      f"halving ratios {r1:.2f}, {r2:.2f} (first-order decay in [1.5, 3])")


def test_criterion_9_coagulation_only_moment_law():
    grid = cd.build_grid(1e6, 2049, 0.5)
    F = cd.exponential_grid_function(0.5, grid)
    state = cd.init_from_profile(F, 1.0, 4096, 60.0)
    m0_start = state.m0()
    t_end = state.t + 1.0
    while state.t < t_end - 1e-12:
        state = cd.step(state, min(1e-3, t_end - state.t), drift=False)
    want = m0_start / (1.0 + m0_start * 1.0)
    rel = abs(state.m0() - want) / want
    ok = rel <= 1e-2
    _criterion(9, ok, f"M0(t=1) {state.m0():.6f} vs {want:.6f}, rel {rel:.2e} (<= 1e-2)")
