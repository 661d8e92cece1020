"""Unit tests for the classical oracles: power series, RK4 marching, shooting."""

import numpy as np
import pytest

from blasius_net.oracles import (
    IntegrationError,
    SeriesNotConvergedError,
    rk4_profile,
    series_coefficients,
    series_eval,
    series_tail_estimate,
    shoot,
)

from helpers import SIGMA_REF


@pytest.fixture(scope="module")
def sigma():
    return shoot()


def test_series_coefficients_exact_integers():
    coeffs = series_coefficients(5)
    assert coeffs == (1, 1, 11, 375, 27897, 3817137)
    assert all(isinstance(value, int) for value in coeffs)
    assert series_coefficients(1) == (1, 1)


def test_series_coefficients_validation():
    with pytest.raises(ValueError):
        series_coefficients(0)


def test_series_recurrence_consistency():
    # each coefficient must satisfy the convolution that generated it
    from math import comb

    a = series_coefficients(8)
    for k in range(1, 9):
        total = sum(comb(3 * k - 1, 3 * r) * a[r] * a[k - 1 - r] for r in range(k))
        assert a[k] == total


def test_series_near_wall_value():
    # truncated wall curvature: published profile value at eta = 0.2
    value = series_eval(0.33205670, 0.2, 10)
    assert abs(value - 0.0066410) <= 1e-7


def test_series_mid_range_value(sigma):
    value = series_eval(sigma, 2.0, 25)
    assert abs(value - 0.650024) <= 1e-5


def test_series_agrees_with_rk4(sigma):
    profile = rk4_profile(sigma, 2.0, step=1e-3)
    for eta in np.arange(0.2, 2.01, 0.2):
        eta = round(float(eta), 10)
        from_series = series_eval(sigma, eta, 25)
        from_rk4 = profile.f[profile.index_of(eta)]
        assert abs(from_series - from_rk4) <= 1e-6


def test_series_tail_gate(sigma):
    # the series has a finite convergence radius; far outside it the last
    # retained term is no longer negligible and evaluation must refuse
    with pytest.raises(SeriesNotConvergedError):
        series_eval(sigma, 6.0, 25)
    assert series_tail_estimate(sigma, 2.0, 25) <= 1e-30


def test_series_validation(sigma):
    with pytest.raises(ValueError):
        series_eval(sigma, -0.1, 10)
    with pytest.raises(ValueError):
        series_eval(sigma, 1.0, 0)
    assert series_eval(sigma, 0.0, 1) == 0.0


def test_rk4_initial_conditions_and_grid():
    profile = rk4_profile(0.3, 1.0, step=0.25)
    assert np.allclose(profile.eta, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert profile.f[0] == 0.0
    assert profile.fp[0] == 0.0
    assert profile.fpp[0] == 0.3
    # a non-multiple horizon gets one shortened tail row
    tail = rk4_profile(0.3, 1.0, step=0.3)
    assert np.allclose(tail.eta, [0.0, 0.3, 0.6, 0.9, 1.0])


def test_rk4_published_spot_value():
    profile = rk4_profile(0.332056697, 5.0, step=1e-3)
    assert abs(profile.f[profile.index_of(5.0)] - 3.283267477016) <= 1e-5


def test_rk4_step_halving_agreement():
    # each profile's last row is eta = 5
    coarse, fine = (rk4_profile(SIGMA_REF, 5.0, step=step).f[-1] for step in (2e-3, 1e-3))
    assert abs(coarse - fine) <= 1e-10


def test_rk4_zero_curvature_stays_at_rest():
    profile = rk4_profile(0.0, 3.0, step=0.1)
    assert np.all(profile.f == 0.0)
    assert np.all(profile.fp == 0.0)
    assert np.all(profile.fpp == 0.0)


def test_rk4_far_field_slope_approaches_one(sigma):
    profile = rk4_profile(sigma, 10.0, step=1e-3)
    assert abs(profile.fp[profile.index_of(10.0)] - 1.0) <= 1e-6


def test_rk4_validation():
    with pytest.raises(ValueError):
        rk4_profile(-0.1, 1.0)
    with pytest.raises(ValueError):
        rk4_profile(0.3, 0.0)
    with pytest.raises(ValueError):
        rk4_profile(0.3, 1.0, step=0.0)
    with pytest.raises(ValueError):
        rk4_profile(np.inf, 1.0)


def test_rk4_blowup_raises():
    with pytest.raises(IntegrationError):
        rk4_profile(1e160, 2.0, step=0.1)


def test_shoot_matches_reference(sigma):
    assert abs(sigma - SIGMA_REF) <= 5e-6
    # one fixed-step RK4 run and a power: fully deterministic
    assert abs(sigma - 0.3320573372067884) <= 1e-9
    assert shoot() == sigma
    # Boyd, "The Blasius function in the complex plane", Exp. Math. 1999
    assert abs(sigma - 0.332057336215196) <= 1e-12
    # RK4's h^4 error at a ten times coarser step stays below 1e-11
    assert abs(shoot(step=1e-2) - sigma) <= 1e-11


def test_shoot_bracket_is_monotone():
    low = rk4_profile(0.1, 10.0, step=1e-2)
    high = rk4_profile(1.0, 10.0, step=1e-2)
    assert low.fp[-1] < 1.0 < high.fp[-1]


def test_shoot_validation():
    with pytest.raises(ValueError):
        shoot(eta_far=5.0)
    with pytest.raises(ValueError):
        shoot(tol=0.0)
    with pytest.raises(ValueError):
        shoot(step=-1e-3)
    # too coarse a step leaves |f''(eta_far)| far above tol: refused, not returned
    with pytest.raises(IntegrationError, match="far field not settled"):
        shoot(step=0.5)


def test_rk4_against_scipy_integrator(sigma):
    scipy_integrate = pytest.importorskip("scipy.integrate")

    def rhs(_eta, state):
        f, g, h = state
        return [g, h, -0.5 * f * h]

    solution = scipy_integrate.solve_ivp(
        rhs, (0.0, 5.0), [0.0, 0.0, sigma], method="RK45",
        rtol=1e-11, atol=1e-12, dense_output=True,
    )
    assert solution.success
    ours = rk4_profile(sigma, 5.0, step=1e-3)
    for eta in (1.0, 2.5, 5.0):
        reference = solution.sol(eta)[0]
        assert abs(ours.f[ours.index_of(eta)] - reference) <= 1e-8
