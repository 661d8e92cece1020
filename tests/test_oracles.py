"""Unit tests for the classical oracles: power series, RK4 marching, shooting."""

import hashlib
import math
import warnings

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


def test_series_gate_respects_the_convergence_radius(sigma):
    # the wall series converges for |eta| below ~5.69 at sigma ~ 0.332 (Boyd,
    # "The Blasius function in the complex plane", Exp. Math. 1999): outside,
    # the last term grows with k_max; inside, it shrinks
    outside = [series_tail_estimate(sigma, 5.8, k_max) for k_max in (25, 60, 120)]
    inside = [series_tail_estimate(sigma, 5.5, k_max) for k_max in (25, 60, 120)]
    assert outside == pytest.approx([13.8, 103.0, 3.23e3], rel=1e-2)
    assert inside == pytest.approx([0.232, 6.53e-3, 1.44e-5], rel=1e-2)
    for k_max in (25, 60, 120):
        with pytest.raises(SeriesNotConvergedError):
            series_eval(sigma, 5.8, k_max)


def test_series_validation(sigma):
    with pytest.raises(ValueError):
        series_eval(sigma, -0.1, 10)
    with pytest.raises(ValueError):
        series_eval(sigma, 1.0, 0)
    assert series_eval(sigma, 0.0, 1) == 0.0
    for bad_sigma, bad_eta in ((sigma, np.nan), (sigma, np.inf), (np.nan, 1.0), (-np.inf, 1.0)):
        for fn in (series_eval, series_tail_estimate):
            with pytest.raises(ValueError, match="sigma must be finite, and eta finite"):
                fn(bad_sigma, bad_eta, 10)


@pytest.mark.parametrize("sigma0, eta, k_max, term", [
    (None, 1e10, 25, 10),   # eta ** (3k + 2) overflows
    (None, 6.0, 200, 132),  # a far term, outside the convergence radius
    (1e200, 2.0, 25, 1),    # sigma ** (k + 1) overflows
    (1e200, 1e60, 25, 0),   # both powers are finite, their product is not
])
def test_series_term_overflow_is_named(sigma, sigma0, eta, k_max, term):
    sigma = sigma if sigma0 is None else sigma0
    message = f"series term {term} overflows at eta = {eta}"
    for fn in (series_eval, series_tail_estimate):
        with pytest.raises(SeriesNotConvergedError) as excinfo:
            fn(sigma, eta, k_max)
        assert str(excinfo.value) == message


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
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="eta_max must be finite and positive"):
            rk4_profile(0.3, bad)
        with pytest.raises(ValueError, match="step must be finite and positive"):
            rk4_profile(0.3, 1.0, step=bad)


@pytest.mark.parametrize("sigma0, eta_max, step, digest", [
    (None, 10.0, 1e-3, "a690db219bb0049c7c5a2541210b7377a4132224d78134fecebe13dd15307815"),
    # 12 rows, the last a short tail step
    (0.33, 7.3, 0.7, "d362e954983ebc86028a9066b069d217466ff27d89fbe1407580b132bef993d5"),
    (1.0, 9.9999, 1e-3, "ff8e7a10ecfebbc26cf07d53a562bb5fd582c53cfd28636065b66383738843f1"),
], ids=["shoot", "short-tail", "unit-curvature"])
def test_rk4_profile_bits_are_pinned(sigma, sigma0, eta_max, step, digest):
    # any reordered operation in the RK4 loop moves these digests
    profile = rk4_profile(sigma if sigma0 is None else sigma0, eta_max, step)
    columns = (profile.eta, profile.f, profile.fp, profile.fpp)
    assert hashlib.sha256(b"".join(col.tobytes() for col in columns)).hexdigest() == digest


def test_rk4_blowup_raises():
    cases = [
        ((1e160, 2.0, 0.1), "state non-finite near eta = 0.1"),
        # row 1318, past the first block of stored steps
        ((2e5, 10.0, 1e-3), "state non-finite near eta = 1.318"),
        # the only row is the short tail step, which ends at eta_max, not at one step
        ((1e160, 0.05, 0.1), "state non-finite near eta = 0.05"),
    ]
    for args, message in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError) as excinfo:
                rk4_profile(*args)
        assert str(excinfo.value) == message


def test_shoot_matches_reference(sigma):
    assert abs(sigma - SIGMA_REF) <= 1e-11
    # one fixed-step RK4 run and a power: fully deterministic
    assert abs(sigma - 0.3320573372067884) <= 1e-9
    assert shoot() == sigma
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
    # NaN fails every comparison, so each gate must reject it by name
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="eta_far must be finite and at least 8"):
            shoot(eta_far=bad)
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            shoot(tol=bad)
        with pytest.raises(ValueError, match="step must be finite and positive"):
            shoot(step=bad)
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
