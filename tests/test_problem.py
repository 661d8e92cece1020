"""Unit tests for the residual, collocation grid and collocation loss."""

import math

import numpy as np
import pytest

from blasius_net.network import NetworkParams
from blasius_net.oracles import rk4_profile
from blasius_net.problem import CollocationGrid, LossEvaluator, loss, loss_gradient
from blasius_net.trial import TrialMode, TrialSpec

from helpers import (
    SIGMA_REF,
    fd_param_triple,
    max_normalized_diff,
    random_params,
    ref_trial_derivative,
)

PAPER = TrialSpec(TrialMode.PAPER, 6.0)
PENALTY = TrialSpec(TrialMode.PENALTY, 6.0)


def zero_net(hidden=3):
    return NetworkParams(np.zeros(hidden), np.ones(hidden), np.ones(hidden))


def test_residual_vanishes_on_true_solution():
    # differentiate the RK4 curvature column numerically: the resulting
    # third derivative must cancel 0.5 * f * f'' to truncation error
    profile = rk4_profile(SIGMA_REF, 8.0, step=1e-2)
    f, fpp = profile.f, profile.fpp
    h = profile.eta[1] - profile.eta[0]
    fppp = (fpp[2:] - fpp[:-2]) / (2.0 * h)
    residual = fppp + 0.5 * f[1:-1] * fpp[1:-1]
    assert np.max(np.abs(residual)) <= 1e-3


def ref_residual(spec, params, x):
    """y''' + y y'' / 2 at x from the scalar Leibniz reference."""
    y, y2, y3 = (ref_trial_derivative(spec, params, x, order) for order in (0, 2, 3))
    return y3 + 0.5 * y * y2


def test_grid_construction_and_validation():
    grid = CollocationGrid.equidistant(10, 6.0)
    assert np.allclose(grid.points, np.linspace(0.0, 6.0, 10))
    assert len(grid.points) == 10
    single = CollocationGrid(np.array([0.0]))
    assert single.points[0] == 0.0
    with pytest.raises(ValueError):
        CollocationGrid.equidistant(1, 6.0)
    with pytest.raises(ValueError):
        CollocationGrid(np.array([]))
    with pytest.raises(ValueError):
        CollocationGrid(np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        CollocationGrid(np.array([1.0, 0.5]))
    with pytest.raises(ValueError):
        CollocationGrid(np.array([-0.5, 1.0]))
    with pytest.raises(ValueError):
        CollocationGrid(np.array([0.0, np.inf]))


def test_grid_points_are_locked():
    grid = CollocationGrid.equidistant(5, 6.0)
    with pytest.raises(ValueError):
        grid.points[0] = 3.0


def test_loss_paper_silent_network_origin_grid():
    # y = x**3 + x**2: at x = 0, y''' + y y''/2 = 6 + 0 * 2 / 2 = 6; at x = 1,
    # 6 + 2 * 8 / 2 = 14; so the loss is 36 + 196
    report = loss(PAPER, zero_net(), CollocationGrid(np.array([0.0, 1.0])))
    assert report.total == 232.0
    assert report.penalty_term == 0.0
    assert np.array_equal(report.residuals, [6.0, 14.0])


def test_loss_penalty_silent_network():
    # y identically zero: residuals vanish, slope misses 1 by exactly 1
    grid = CollocationGrid(np.array([0.0]))
    report = loss(PENALTY, zero_net(), grid, penalty_weight=1.0)
    assert report.total == 1.0
    assert report.penalty_term == 1.0
    report10 = loss(PENALTY, zero_net(), grid, penalty_weight=10.0)
    assert report10.total == 10.0
    assert report10.penalty_term == 10.0


def test_penalty_weight_zero_disables_penalty():
    grid = CollocationGrid.equidistant(5, 6.0)
    rng = np.random.default_rng(37)
    params = random_params(rng, 3)
    report = loss(PENALTY, params, grid, penalty_weight=0.0)
    assert report.penalty_term == 0.0
    brute = math.fsum(ref_residual(PENALTY, params, x) ** 2 for x in grid.points)
    assert report.total == pytest.approx(brute, rel=1e-12)


def test_paper_mode_never_applies_penalty():
    grid = CollocationGrid.equidistant(5, 6.0)
    rng = np.random.default_rng(41)
    params = random_params(rng, 3)
    report = loss(PAPER, params, grid, penalty_weight=10.0)
    assert report.penalty_term == 0.0


def test_loss_matches_bruteforce_recomputation():
    rng = np.random.default_rng(47)
    grid = CollocationGrid.equidistant(7, 6.0)
    for spec, weight in ((PAPER, 10.0), (PENALTY, 10.0), (PENALTY, 2.5)):
        for _ in range(10):
            params = random_params(rng, 5)
            report = loss(spec, params, grid, penalty_weight=weight)
            residuals = [ref_residual(spec, params, x) for x in grid.points]
            expected = math.fsum(r * r for r in residuals)
            if spec.mode is TrialMode.PENALTY:
                slope_err = ref_trial_derivative(spec, params, spec.domain_end, 1) - 1.0
                expected += weight * slope_err * slope_err
            assert report.total == pytest.approx(expected, rel=1e-12)
            assert np.allclose(report.residuals, residuals, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("spec", [PAPER, PENALTY], ids=["paper", "penalty"])
@pytest.mark.parametrize("weight", [0.0, 2.5, 10.0])
@pytest.mark.parametrize("points", [5, 10, 31])
def test_loss_report_parts_sum_to_total_bit_for_bit(spec, weight, points):
    # the LossReport identity: squares added left to right in grid order, then the penalty
    rng = np.random.default_rng(points * 100 + int(weight * 10))
    evaluator = LossEvaluator(spec, CollocationGrid.equidistant(points, 6.0), weight)
    for _ in range(20):
        report = evaluator.report(random_params(rng, 5, scale=2.0))
        total = 0.0
        for r in report.residuals.tolist():
            total += r * r
        assert total + report.penalty_term == report.total


def test_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(53)
    grid = CollocationGrid.equidistant(10, 6.0)
    for spec in (PAPER, PENALTY):
        for _ in range(8):
            params = random_params(rng, 3)
            analytic = loss_gradient(spec, params, grid)
            numeric = fd_param_triple(lambda p: loss(spec, p, grid).total, params)
            assert max_normalized_diff(analytic, numeric) <= 1e-5


def test_loss_report_is_locked():
    report = loss(PAPER, zero_net(), CollocationGrid(np.array([0.0, 3.0])))
    with pytest.raises(ValueError):
        report.residuals[0] = 0.0


def test_evaluator_validation():
    grid = CollocationGrid.equidistant(5, 6.0)
    with pytest.raises(ValueError):
        LossEvaluator(PENALTY, grid, penalty_weight=-1.0)
    with pytest.raises(ValueError):
        LossEvaluator(PENALTY, grid, penalty_weight=np.inf)
    wide = CollocationGrid(np.array([0.0, 7.0]))
    with pytest.raises(ValueError):
        LossEvaluator(PAPER, wide)
