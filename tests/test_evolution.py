import numpy as np
import pytest

import coagdrift as cd

from oracles import reference_run, reference_step


@pytest.fixture(scope="module")
def exp_profile():
    grid = cd.build_grid(2e3, 2049, 0.5)
    return cd.exponential_grid_function(0.5, grid)


def _m1(state):
    """First moment of the cell averages of ``state``."""
    return float(np.sum(state.centers * state.f) * state.dx)


def test_init_mean_field(exp_profile):
    state = cd.init_from_profile(exp_profile, 1.0, 1024, 60.0)
    assert state.u == pytest.approx(0.5, rel=1e-4)  # u(1) = M0/M1 = v
    assert state.u * state.m1_target == pytest.approx(state.m0(), rel=1e-14)


def test_init_scaling_with_t0(exp_profile):
    # f(x) = t0^-2 F(x/t0): M0 scales as 1/t0, M1 is invariant
    s1 = cd.init_from_profile(exp_profile, 1.0, 2048, 60.0)
    s2 = cd.init_from_profile(exp_profile, 2.0, 2048, 120.0)
    assert s2.m0() == pytest.approx(s1.m0() / 2.0, rel=1e-4)
    assert _m1(s2) == pytest.approx(_m1(s1), rel=1e-4)


def test_init_rejects_empty_profile():
    grid = cd.build_grid(10.0, 32, 0.5)
    zero = cd.GridFunction(grid, np.zeros(32), tail_exponent=3.0)
    with pytest.raises(cd.ParameterDomainError):
        cd.init_from_profile(zero, 1.0, 64, 10.0)


def test_init_truncation_strictness(exp_profile):
    with pytest.raises(cd.ParameterDomainError):
        cd.init_from_profile(exp_profile, 1.0, 256, 5.0)
    with pytest.warns(RuntimeWarning):
        cd.init_from_profile(exp_profile, 1.0, 256, 5.0, strict=False)


def test_step_keeps_zero_state():
    edges = np.linspace(0.0, 10.0, 65)
    state = cd.EvolutionState(edges=edges, f=np.zeros(64), t=1.0, m1_target=1.0)
    out = cd.step(state, 1e-3)
    assert np.all(out.f == 0.0)
    assert out.t == pytest.approx(1.001)
    # u = M0 / m1_target is derived, so the conserved moment must be positive
    with pytest.raises(cd.ParameterDomainError):
        cd.EvolutionState(edges=edges, f=np.zeros(64), t=1.0, m1_target=0.0)


def test_step_size_errors(exp_profile):
    state = cd.init_from_profile(exp_profile, 1.0, 256, 60.0)
    with pytest.raises(cd.StepSizeError):
        cd.step(state, 1.0)  # violates the transport bound
    with pytest.raises(cd.StepSizeError):
        cd.step(state, -0.1)
    with pytest.raises(cd.StepSizeError):
        # loss bound: dt * 2 M0 > 0.5 with drift disabled
        cd.step(state, 0.6 / (2.0 * state.m0()), drift=False)


def test_transport_only_mass_accounting(exp_profile):
    # coagulation off, mean-field u: mass leaves through x = 0 at f_0 and
    # through the right edge at s_R f_last per unit time, s_R = u xmax - 1
    # the drift speed there, matching the outflow flux accounting; at this
    # cutoff the right-edge term is about 4e-4 of the total
    state = cd.init_from_profile(exp_profile, 1.0, 512, 20.0)
    for _ in range(20):
        m0_before = state.m0()
        s_right = state.u * state.xmax - 1.0
        dt = 0.5 * state.dx / float(np.max(np.abs(state.u * state.edges - 1.0)))
        outflow = state.f[0] + s_right * state.f[-1]
        state = cd.step(state, dt, coagulation=False)
        assert np.all(state.f >= 0.0)
        assert state.m0() - m0_before == pytest.approx(-dt * outflow, rel=1e-12)


def test_coagulation_only_moment_law(exp_profile):
    # dM0/dt = -M0^2 without drift: M0(t) = M0(0)/(1 + M0(0) t)
    state = cd.init_from_profile(exp_profile, 1.0, 1024, 40.0)
    m0_start = state.m0()
    t_end = state.t + 1.0
    while state.t < t_end - 1e-12:
        state = cd.step(state, min(2e-3, t_end - state.t), drift=False)
    want = m0_start / (1.0 + m0_start * 1.0)
    assert state.m0() == pytest.approx(want, rel=2e-2)


def test_closure_invariant_along_run(exp_profile):
    state = cd.init_from_profile(exp_profile, 1.0, 512, 60.0)
    for _ in range(10):
        state = cd.step(state, 2e-4)
        assert state.u * state.m1_target == pytest.approx(state.m0(), rel=1e-13)


def test_fft_matches_direct(exp_profile):
    # the FFT gain term against the direct convolution sum, centered on
    # the cells by averaging adjacent edge values, at a power-of-two cell
    # count and at one that leaves the padded transform partly empty; on
    # [0, 5] f stays above 8% of its maximum, so a transform too short for
    # the full sum would wrap visible mass around
    dt = 1e-4
    for cells in (2048, 1000):
        edges = np.linspace(0.0, 5.0, cells + 1)
        f = exp_profile(0.5 * (edges[:-1] + edges[1:]))
        state = cd.EvolutionState(edges=edges, f=f, t=1.0, m1_target=1.0)
        dx, m0 = state.dx, state.m0()
        c = np.convolve(f, f)[:f.size]
        gain = 0.5 * dx * (np.concatenate(([0.0], c[:-1])) + c)
        want = f + dt * (gain - 2.0 * f * m0)
        got = cd.step(state, dt, drift=False).f
        assert float(np.max(np.abs(got - want))) <= 1e-12 * float(np.max(np.abs(want)))


def test_self_similar_error_after_init(exp_profile):
    state = cd.init_from_profile(exp_profile, 1.0, 4096, 60.0)
    # dominated by the flat extension below the first cell center,
    # |F'(0)| dx / 2, a first-order boundary term
    boundary = 0.125 * state.dx / 2.0
    assert cd.simulate(state, state.t, profile=exp_profile)[1][-1][4] < 1.5 * boundary
    with pytest.raises(cd.ParameterDomainError):
        cd.simulate(state, state.t, profile=exp_profile, z_window=100.0)


def test_short_exponential_evolution_accuracy(exp_profile):
    errs = {}
    for cells in (1024, 2048):
        state = cd.init_from_profile(exp_profile, 1.0, cells, 50.0)
        state, diag, _ = cd.simulate(
            state, 1.5, cfl=0.5, profile=exp_profile,
            record_every=10**9,
        )
        errs[cells] = diag[-1][4]
    assert errs[1024] < 4e-3    # first-order error at this coarse resolution
    assert 1.4 <= errs[1024] / errs[2048] <= 3.0  # roughly first order


def test_simulate_snapshots_and_diagnostics(exp_profile):
    state = cd.init_from_profile(exp_profile, 1.0, 512, 60.0)
    state, diag, snaps = cd.simulate(
        state, 1.1, profile=exp_profile,
        snapshot_times=(1.05,), record_every=5,
    )
    assert state.t == pytest.approx(1.1)
    assert 1.05 in snaps and snaps[1.05].t == pytest.approx(1.05)
    start = cd.init_from_profile(exp_profile, 1.0, 512, 60.0)
    _, _, snaps = cd.simulate(start, 1.01, snapshot_times=(1.0, 1.01))
    assert snaps[1.0] is start and snaps[1.01].t == 1.01
    for outside in ((0.5,), (1.05, 1.2)):
        with pytest.raises(cd.ParameterDomainError, match="outside"):
            cd.simulate(start, 1.1, snapshot_times=outside)
    diag = np.array(diag)
    assert diag.shape[1] == 5
    assert np.all(np.diff(diag[:, 0]) > 0.0)
    # m1 stays flat at the scheme's accuracy over this short run
    assert np.max(np.abs(diag[:, 2] - diag[0, 2])) / diag[0, 2] < 1e-3


def test_simulate_checks_the_window_before_the_first_step(exp_profile, monkeypatch):
    # t*z_window = 50 fits the 60 domain at t0 = 1 but not at t_end = 1.5:
    # the run stops before it steps, not at the first row past t = 1.2
    from coagdrift import evolution

    calls = []
    step = evolution.step

    def counting_step(*args, **kwargs):
        calls.append(args[0].t)
        return step(*args, **kwargs)

    monkeypatch.setattr(evolution, "step", counting_step)
    state = cd.init_from_profile(exp_profile, 1.0, 256, 60.0)
    assert cd.simulate(state, state.t, profile=exp_profile, z_window=50.0)[1][-1][4] >= 0.0
    with pytest.raises(cd.ParameterDomainError, match="exceeds the domain"):
        cd.simulate(state, 1.5, profile=exp_profile, z_window=50.0)
    assert calls == []
    # without a profile there is no window to check
    cd.simulate(state, 1.01, z_window=50.0)
    assert calls


def test_default_domain_cutoff(exp_profile):
    cut = cd.default_domain_cutoff(exp_profile, 2.0)
    assert 25.0 <= cut <= 80.0
    state = cd.init_from_profile(exp_profile, 1.0, 512, cut)
    assert _m1(state) >= 0.999 * cd.moment(exp_profile, 1)


def _sampled_state(F, cells, xmax, m1_target=None):
    """F sampled at the cell centers of [0, xmax] at t = 1; the conserved
    moment is the state's own unless given."""
    edges = np.linspace(0.0, xmax, cells + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    f = F(centers)
    if m1_target is None:
        m1_target = float(np.sum(centers * f) * (edges[1] - edges[0]))
    return cd.EvolutionState(edges=edges, f=f, t=1.0, m1_target=m1_target)


def _half_bound_dt(state):
    speed = max(1.0, abs(state.u * state.xmax - 1.0))
    return 0.5 * min(state.dx / speed, 0.25 / state.m0())


# 1000 cells leave the padded transform partly empty
@pytest.mark.parametrize("cells", [512, 1000, 4096])
def test_step_matches_the_reference_step(exp_profile, cells):
    # on [0, 1.5] with m1_target = 1, u xmax < 1: the drift points left at
    # every edge, and the right end edge has no cell beyond it
    for xmax, m1_target in ((60.0, None), (1.5, 1.0)):
        state = _sampled_state(exp_profile, cells, xmax, m1_target)
        dt = _half_bound_dt(state)
        for flags in ({}, {"drift": False}, {"coagulation": False}):
            got = cd.step(state, dt, **flags)
            assert np.array_equal(got.f, reference_step(state, dt, **flags)), flags
            assert got.t == state.t + dt


@pytest.mark.parametrize("cells", [512, 1000, 4096])
def test_simulate_matches_the_reference_run(exp_profile, cells):
    state = cd.init_from_profile(exp_profile, 1.0, cells, 60.0)
    want_f, want_rows = reference_run(state, 1.02, exp_profile, 10.0)
    final, diag, _ = cd.simulate(state, 1.02, profile=exp_profile)
    assert np.array_equal(final.f, want_f)
    assert diag == want_rows
    # rows every third step: the steps between them read M0 off the state
    final, diag, _ = cd.simulate(state, 1.02, profile=exp_profile, record_every=3)
    assert np.array_equal(final.f, want_f)
    assert diag == want_rows[::3] + ([want_rows[-1]] if (len(want_rows) - 1) % 3 else [])


def test_no_state_aliases_the_workspace(exp_profile, monkeypatch):
    from coagdrift import evolution

    start = cd.init_from_profile(exp_profile, 1.0, 512, 60.0)
    start_f = start.f.copy()
    dt = _half_bound_dt(start)
    once, twice = cd.step(start, dt), cd.step(start, dt)
    assert np.array_equal(start.f, start_f)
    assert np.array_equal(once.f, twice.f) and not np.shares_memory(once.f, twice.f)
    buffers = [b for b in vars(once._work).values() if isinstance(b, np.ndarray)]
    assert once._work is start._work and buffers
    assert not any(np.shares_memory(s.f, b) for s in (start, once, twice) for b in buffers)

    # a snapshot keeps its values while the run goes on past it
    _, _, snaps = cd.simulate(start, 1.02, snapshot_times=(1.01,))
    apart, _, _ = cd.simulate(start, 1.01)
    assert np.array_equal(snaps[1.01].f, apart.f)

    # so does the state a failed run hands back, when it is run on
    with monkeypatch.context() as patch:
        patch.setattr(evolution, "_MAX_STEPS", 3)
        with pytest.raises(cd.SchemeFailureError) as failure:
            cd.simulate(start, 1.02)
    failed = failure.value.state
    failed_f = failed.f.copy()
    cd.simulate(failed, 1.02)
    assert np.array_equal(failed.f, failed_f)
    state = start
    for _ in range(3):  # simulate's step sizes at cfl = 0.5
        speed = max(1.0, abs(state.u * state.xmax - 1.0))
        state = cd.step(state, min(0.5 * state.dx / speed, 0.25 / state.m0()))
    assert state.t == failed.t and np.array_equal(failed.f, state.f)


def test_interleaved_runs_match_runs_done_apart(exp_profile):
    def run(state, steps):
        for _ in range(steps):
            state = cd.step(state, _half_bound_dt(state))
            yield state.f

    starts = [cd.init_from_profile(exp_profile, 1.0, cells, 60.0) for cells in (512, 1000)]
    apart = [list(run(s, 20)) for s in starts]
    interleaved = list(zip(*(run(s, 20) for s in starts)))
    for k, (a, b) in enumerate(interleaved):
        assert np.array_equal(a, apart[0][k]) and np.array_equal(b, apart[1][k])


def test_step_allocates_only_the_new_state():
    # after one warm-up step the workspace exists: a step's tracemalloc
    # peak is then the new state's cell averages plus small objects
    import tracemalloc

    grid = cd.build_grid(2e3, 2049, 0.5)
    F = cd.exponential_grid_function(0.5, grid)
    state = cd.init_from_profile(F, 1.0, 4096, 60.0)
    dt = _half_bound_dt(state)
    state = cd.step(state, dt)
    tracemalloc.start()
    try:
        cd.step(state, dt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * state.f.nbytes


def test_runs_from_one_state_in_threads_match_a_run_alone(exp_profile):
    # each simulate call steps on a workspace of its own; a short switch
    # interval makes the threads interleave inside their steps
    import sys
    import threading

    start = cd.init_from_profile(exp_profile, 1.0, 512, 60.0)
    cd.step(start, _half_bound_dt(start))  # gives start a workspace to share
    alone, _, _ = cd.simulate(start, 1.1)
    results = [None] * 8
    ready = threading.Barrier(len(results))

    def run(i):
        ready.wait(timeout=60.0)
        results[i] = cd.simulate(start, 1.1)[0].f

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(results))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(f is not None and np.array_equal(f, alone.f) for f in results)
