import math

import numpy as np
import pytest
from scipy import optimize
from scipy.integrate import quad

import coagdrift as cd

# frozen oracle values (scipy brentq / minimize_scalar / quad, see the
# in-test recomputations below)
TAU_STAR_05_001 = 3.4315901994853877
M0_BAR_05 = 0.016585557669470095
FBAR_05_001_AT_2 = 0.0012851422833200833
M0_FBAR_05_001 = 0.010204081632653062


def test_params_domain():
    cd.ModelParams(0.5, 0.005)
    with pytest.raises(cd.ParameterDomainError):
        cd.ModelParams(0.0, 0.1)
    with pytest.raises(cd.ParameterDomainError):
        cd.ModelParams(1.0, 0.1)
    with pytest.raises(cd.ParameterDomainError):
        cd.ModelParams(1.5, 0.1)
    with pytest.raises(cd.ParameterDomainError):
        cd.ModelParams(0.5, 0.0)
    with pytest.raises(cd.ParameterDomainError):
        cd.ModelParams(0.5, 1.0)


def test_fat_tail_regime_check():
    # the exponential family (m0 = 1 - v) may violate m0 < v/2 and must
    # still construct; only the fat-tail machinery rejects it
    params = cd.ModelParams(0.5, 0.5)
    with pytest.raises(cd.ParameterDomainError):
        cd.derive_constants(params)


def test_alpha_formula():
    params = cd.ModelParams(0.5, 0.01)
    assert params.alpha == pytest.approx(2.96, abs=1e-12)
    assert params.alpha > 2.0
    assert params.tau_inf == pytest.approx(3.0, abs=1e-12)
    b_m0 = 2.0 * params.m0 / (1.0 - params.v)
    assert b_m0 == pytest.approx(0.04, abs=1e-15)


def test_tau_star_against_independent_bisection():
    constants = cd.derive_constants(cd.ModelParams(0.5, 0.01))
    # independent scalar solve of b * 2^(a0 + s) = s (smallest root)
    b, a0 = 0.04, 3.0
    root = optimize.brentq(
        lambda s: b * 2.0 ** (a0 + s) - s, 1e-12, 1.0 / math.log(2.0), xtol=1e-15
    )
    assert constants.sigma_star == pytest.approx(root, abs=1e-9)
    assert constants.tau_star == pytest.approx(TAU_STAR_05_001, abs=1e-9)
    assert constants.tau_star == pytest.approx(a0 + root, abs=1e-9)
    # the barrier satisfies its defining inequality within rounding slack
    assert b * 2.0 ** (a0 + constants.sigma_star) <= constants.sigma_star * (1.0 + 2e-13)


def test_tau_star_invariants():
    for v, m0 in [(0.25, 0.02), (0.5, 0.01), (0.75, 0.001)]:
        params = cd.ModelParams(v, m0)
        constants = cd.derive_constants(params)
        assert constants.tau_star >= params.tau_inf > 2.0
        assert params.alpha > 2.0


def test_admissible_threshold_value():
    got = cd.admissible_threshold(0.5)
    assert got == pytest.approx(M0_BAR_05, abs=1e-9)
    # independent scalar maximization of sigma * 2^-sigma
    res = optimize.minimize_scalar(
        lambda s: -s * 2.0 ** (-s), bounds=(1e-6, 10.0), method="bounded",
        options={"xatol": 1e-14},
    )
    oracle = 0.5 * (-res.fun) / (2.0 * 2.0**3)
    assert got == pytest.approx(oracle, abs=1e-9)


def test_admissible_threshold_shape():
    # below v ~ 0.11 the regime bound v/2 binds instead of the barrier
    # formula, so strict decrease holds on the formula branch only
    vs = np.linspace(0.15, 0.95, 17)
    bars = np.array([cd.admissible_threshold(v) for v in vs])
    assert np.all(np.diff(bars) < 0.0)          # strictly decreasing in v
    all_vs = np.linspace(0.02, 0.98, 49)
    all_bars = np.array([cd.admissible_threshold(v) for v in all_vs])
    assert np.all(all_bars < all_vs / 2.0)      # always below v/2
    assert cd.admissible_threshold(0.999) < 1e-90   # a_0 -> inf kills it
    assert cd.admissible_threshold(0.9991) == 0.0   # 2^a_0 beyond the float range
    # at a_0 = 1022.97 the bound is still positive, and every m0 up to it
    # has a barrier although 2^(a_0 + 1/ln 2) overflows in the sigma search
    bar = cd.admissible_threshold(0.9990215)
    assert 2.9e-312 < bar < 3.0e-312
    for m0 in (1.47e-312, bar):
        constants = cd.derive_constants(cd.ModelParams(0.9990215, m0))
        assert 0.0 < constants.sigma_star <= 1.0 / math.log(2.0)
        b_m0 = 2.0 * m0 / (1.0 - 0.9990215)
        assert constants.tau_star + math.log2(b_m0) \
            <= math.log2(constants.sigma_star) + 1e-9
    with pytest.raises(cd.ParameterDomainError):
        cd.admissible_threshold(1.5)


def _named_threshold(err) -> float:
    """The threshold that a ThresholdExceededError's message names."""
    return float(str(err.value).split(" exceeds threshold ")[1].split(" ")[0])


def test_threshold_exceeded_carries_bar():
    # the message names m0, the threshold and v
    with pytest.raises(cd.ThresholdExceededError, match=r"m0=0\.02 .* at v=0\.5$") as err:
        cd.derive_constants(cd.ModelParams(0.5, 0.02))
    assert _named_threshold(err) == pytest.approx(M0_BAR_05, abs=1e-9)
    # at a_0 = 1022.97 the power 2^(a_0 + sigma) overflows inside the sigma
    # search: no barrier, although m0_bar itself is still positive
    with pytest.raises(cd.ThresholdExceededError) as err:
        cd.derive_constants(cd.ModelParams(0.9990215, 1e-5))
    assert _named_threshold(err) > 0.0
    with pytest.raises(cd.ThresholdExceededError) as err:
        cd.derive_constants(cd.ModelParams(0.9991, 1e-5))
    assert _named_threshold(err) == 0.0


def test_threshold_boundary_accepted():
    # closed interval: m0 = m0_bar still admits a barrier (sigma -> 1/ln 2)
    m0_bar = cd.admissible_threshold(0.5)
    constants = cd.derive_constants(cd.ModelParams(0.5, m0_bar))
    assert constants.sigma_star == pytest.approx(1.0 / math.log(2.0), abs=1e-5)
    with pytest.raises(cd.ThresholdExceededError):
        cd.derive_constants(cd.ModelParams(0.5, m0_bar * (1.0 + 1e-9)))


def test_iteration_barrier_policy():
    from coagdrift.model import iteration_barrier

    # below the threshold: the certified barrier tau_star, forced or not
    params = cd.ModelParams(0.5, 0.01)
    for force in (False, True):
        cap, certified = iteration_barrier(params, force)
        assert cap == cd.derive_constants(params).tau_star and certified is True
    # above it: the uncertified cap 2 tau_inf with force, else the threshold error
    params = cd.ModelParams(0.5, 0.02)
    assert iteration_barrier(params, True) == (2.0 * params.tau_inf, False)
    with pytest.raises(cd.ThresholdExceededError) as err:
        iteration_barrier(params)
    assert _named_threshold(err) == pytest.approx(M0_BAR_05, abs=1e-9)
    # outside m0 < v/2 the same cap with force, else the domain error
    params = cd.ModelParams(0.5, 0.3)
    assert iteration_barrier(params, True) == (2.0 * params.tau_inf, False)
    with pytest.raises(cd.ParameterDomainError, match="m0 < v/2") as err:
        iteration_barrier(params)
    assert not isinstance(err.value, cd.ThresholdExceededError)


@pytest.mark.parametrize("v, m0", [(0.5, 0.01), (0.2984823698131839, 0.017280088697511634),
                                   (0.699172594407286, 0.0019909511577147214), (0.1, 1e-300)])
def test_alpha_property_matches_derived_constants(v, m0):
    params = cd.ModelParams(v, m0)
    assert params.alpha == (2.0 - v - 2.0 * m0) / (1.0 - v)


def test_exponential_profile_values():
    grid = cd.build_grid(2.0, 3, 0.5)
    F = cd.exponential_grid_function(0.5, grid)
    assert F.values[0] == pytest.approx(0.25, abs=1e-15)
    np.testing.assert_allclose(F.values, 0.25 * np.exp(-0.5 * grid.nodes), rtol=1e-15)
    assert F.tail_exponent == math.inf
    with pytest.raises(cd.ParameterDomainError):
        cd.exponential_grid_function(1.2, grid)


def test_exponential_profile_moments():
    # M0 = 1 - v and M1 = (1-v)/v, hence v = M0/M1
    grid = cd.build_grid(2e3, 4097, 0.5)
    F = cd.exponential_grid_function(0.5, grid)
    m0 = cd.moment(F, 0)
    m1 = cd.moment(F, 1)
    assert m0 == pytest.approx(0.5, rel=1e-6)
    assert m1 == pytest.approx(1.0, rel=1e-6)
    assert m0 / m1 == pytest.approx(0.5, rel=1e-6)


def test_supersolution_values():
    params = cd.ModelParams(0.5, 0.01)
    assert cd.supersolution_value(params, 0.0) == pytest.approx(0.01, abs=1e-18)
    assert cd.supersolution_value(params, 2.0) == pytest.approx(
        FBAR_05_001_AT_2, rel=1e-12
    )
    z = np.linspace(0.0, 50.0, 101)
    vals = cd.supersolution_value(params, z)
    assert np.all(np.diff(vals) < 0.0)


def test_supersolution_moment():
    # the supersolution's zeroth moment has the closed form m0/(1 - 2 m0)
    params = cd.ModelParams(0.5, 0.01)
    closed_form = params.m0 / (1.0 - 2.0 * params.m0)
    assert closed_form == pytest.approx(M0_FBAR_05_001, rel=1e-12)
    grid = cd.build_grid(1e6, 4097, 0.5)
    F = cd.GridFunction(
        grid, cd.supersolution_value(params, grid.nodes), tail_exponent=2.96
    )
    assert cd.moment(F, 0) == pytest.approx(M0_FBAR_05_001, rel=1e-6)
    # cross-check the closed form against adaptive quadrature
    oracle = quad(lambda s: cd.supersolution_value(params, s), 0.0, np.inf)[0]
    assert closed_form == pytest.approx(oracle, rel=1e-7)


def test_supersolution_satisfies_its_ode():
    # (z(1-v)+1) * (-Fbar') = (2-v-2m0) * Fbar, checked by central differences
    params = cd.ModelParams(0.5, 0.01)
    z = np.linspace(0.0, 20.0, 20001)
    h = z[1] - z[0]
    f = cd.supersolution_value(params, z)
    df = (f[2:] - f[:-2]) / (2.0 * h)
    zi, fi = z[1:-1], f[1:-1]
    lhs = -(zi * (1.0 - params.v) + 1.0) * df
    rhs = (2.0 - params.v - 2.0 * params.m0) * fi
    assert np.max(np.abs(lhs - rhs)) < 10.0 * h * h
