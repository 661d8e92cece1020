"""Unit tests for the classical oracles: power series, RK4 marching, shooting."""

import hashlib
import inspect
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from blasius_net import oracles
from blasius_net.oracles import (
    RK4_MAX_STEPS,
    SERIES_MAX_K,
    IntegrationError,
    SeriesNotConvergedError,
    _series_terms,
    rk4_blocks,
    rk4_profile,
    series_coefficients,
    series_eval,
    series_tail_estimate,
    shoot,
)
from blasius_net.profiles import CSV_BLOCK

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
    # the cap is checked before any big-integer coefficient is built
    with pytest.raises(ValueError, match=f"k_max 181 exceeds SERIES_MAX_K = {SERIES_MAX_K}"):
        series_coefficients(SERIES_MAX_K + 1)


def test_series_cap_is_where_prefactors_vanish():
    # the last admitted prefactor is still a nonzero double; the next one, with
    # A_181 from the same recurrence, rounds to 0.0
    a = list(series_coefficients(SERIES_MAX_K))
    k = SERIES_MAX_K + 1
    a.append(sum(math.comb(3 * k - 1, 3 * r) * a[r] * a[k - r - 1] for r in range(k)))
    prefactors = [float(Fraction(a[j], 2**j * math.factorial(3 * j + 2))) for j in (k - 1, k)]
    assert prefactors[0] != 0.0
    assert prefactors[1] == 0.0


def test_series_prefactors_are_the_rounded_fractions():
    # at sigma = eta = 1 each term is its prefactor; the exact Fraction,
    # rounded once, is the reference, bit for bit and sign included
    a = series_coefficients(SERIES_MAX_K)
    reference = [float(Fraction((-1) ** k * a[k], 2**k * math.factorial(3 * k + 2)))
                 for k in range(SERIES_MAX_K + 1)]
    terms = _series_terms(1.0, 1.0, SERIES_MAX_K)
    assert [t.hex() for t in terms] == [r.hex() for r in reference]


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
    (None, 6.0, 180, 132),  # a far term, outside the convergence radius
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
    # the step count is checked before any row is allocated, overflow included
    for eta_max, step, count in ((0.5, 1e-9, "5e\\+08"), (1.0, 1e-320, "inf")):
        with pytest.raises(ValueError, match=f"asks for {count} RK4 steps, "
                                             f"over RK4_MAX_STEPS = {RK4_MAX_STEPS}"):
            rk4_profile(0.3, eta_max, step)


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


@pytest.mark.parametrize("eta_max, step, sizes", [
    (10.0, 1e-3, [CSV_BLOCK] * 9 + [785]),
    (7.3, 0.7, [11, 1]),  # the short tail step is a block of its own
    (20.48, 0.01, [CSV_BLOCK, CSV_BLOCK, 1]),
], ids=["shoot", "short-tail", "whole-blocks"])
def test_rk4_blocks_are_consecutive_and_join_to_the_profile(eta_max, step, sizes):
    blocks = list(rk4_blocks(0.33, eta_max, step))
    assert [len(block) for block in blocks] == sizes
    whole = rk4_profile(0.33, eta_max, step)
    for name in ("eta", "f", "fp", "fpp"):
        joined = np.concatenate([getattr(block, name) for block in blocks])
        assert joined.tobytes() == getattr(whole, name).tobytes()
    assert whole.eta[-1] == eta_max


def test_rk4_blocks_check_arguments_on_the_call():
    # before any step, so a caller that writes the blocks out opens nothing
    with pytest.raises(ValueError, match="eta_max must be finite and positive"):
        rk4_blocks(0.3, math.nan)
    with pytest.raises(ValueError, match="over RK4_MAX_STEPS"):
        rk4_blocks(0.3, 0.5, 1e-9)


def test_rk4_blocks_yield_the_finite_blocks_before_a_blowup():
    blocks = rk4_blocks(2e5, 10.0, 1e-3)
    with np.errstate(all="ignore"):
        first = next(blocks)
        assert len(first) == CSV_BLOCK and first.eta[-1] < 1.318
        with pytest.raises(IntegrationError, match="near eta = 1.318"):
            next(blocks)


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
    # RK4's h^4 error at a ten times coarser step stays below 1e-11: shoot's run at step 1e-2
    assert abs(rk4_profile(1.0, 10.0, 1e-2).fp[-1] ** -1.5 - sigma) <= 1e-11


def test_shoot_bracket_is_monotone():
    low = rk4_profile(0.1, 10.0, step=1e-2)
    high = rk4_profile(1.0, 10.0, step=1e-2)
    assert low.fp[-1] < 1.0 < high.fp[-1]


def test_shoot_far_field_has_settled():
    # shoot's fixed run: its far curvature is far below anything a longer run could move
    assert not inspect.signature(shoot).parameters
    assert abs(rk4_profile(1.0, 10.0, 1e-3).fpp[-1]) <= 1e-17


def test_shoot_integrates_once_per_process(monkeypatch):
    # sigma is a constant: only the first call after cache_clear runs its RK4 integration
    runs = []
    original = oracles.rk4_blocks

    def counting(*args, **kwargs):
        runs.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(oracles, "rk4_blocks", counting)
    shoot.cache_clear()
    first = shoot()
    assert runs == [(1.0, 10.0, 1e-3)]
    second = shoot()
    assert runs == [(1.0, 10.0, 1e-3)]
    assert second.hex() == first.hex() == (0.3320573362152005).hex()


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
