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
    python_totals,
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
    assert CollocationGrid.equidistant(2, 3.0).points.tolist() == [0.0, 3.0]
    for count in (1, 0, -1):
        with pytest.raises(ValueError, match="at least two points"):
            CollocationGrid.equidistant(count, 6.0)


def test_grid_points_are_locked():
    grid = CollocationGrid.equidistant(5, 6.0)
    with pytest.raises(ValueError):
        grid.points[0] = 3.0


def test_loss_paper_silent_network_origin_grid():
    # y = x**3 + x**2: at x = 0, y''' + y y''/2 = 6 + 0 * 2 / 2 = 6; at x = 1,
    # 6 + 2 * 8 / 2 = 14; so the loss is 36 + 196
    assert loss(PAPER, zero_net(), CollocationGrid.equidistant(2, 1.0)).total == 232.0


def test_loss_penalty_silent_network():
    # y identically zero: residuals vanish, slope misses 1 by exactly 1
    grid = CollocationGrid.equidistant(2, 6.0)
    assert loss(PENALTY, zero_net(), grid, penalty_weight=1.0).total == 1.0
    assert loss(PENALTY, zero_net(), grid, penalty_weight=10.0).total == 10.0


def test_penalty_weight_zero_disables_penalty():
    grid = CollocationGrid.equidistant(5, 6.0)
    rng = np.random.default_rng(37)
    params = random_params(rng, 3)
    brute = math.fsum(ref_residual(PENALTY, params, x) ** 2 for x in grid.points)
    assert loss(PENALTY, params, grid, penalty_weight=0.0).total == pytest.approx(brute, rel=1e-12)


def test_paper_mode_never_applies_penalty():
    grid = CollocationGrid.equidistant(5, 6.0)
    rng = np.random.default_rng(41)
    params = random_params(rng, 3)
    free = loss(PAPER, params, grid, penalty_weight=0.0).total
    assert loss(PAPER, params, grid, penalty_weight=10.0).total.hex() == free.hex()


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


@pytest.mark.parametrize("spec", [PAPER, PENALTY], ids=["paper", "penalty"])
@pytest.mark.parametrize("weight", [0.0, 2.5, 10.0])
@pytest.mark.parametrize("points", [5, 10, 31])
def test_loss_report_parts_sum_to_total_bit_for_bit(spec, weight, points):
    # loss() is a stack of one through LossEvaluator, whose total is the squared
    # residuals added left to right in grid order, then the penalty
    rng = np.random.default_rng(points * 100 + int(weight * 10))
    grid = CollocationGrid.equidistant(points, 6.0)
    evaluator = LossEvaluator(spec, grid, weight)
    for _ in range(20):
        params = random_params(rng, 5, scale=2.0)
        (total,), _ = evaluator.evaluate(params.weights[None])
        (parts,) = python_totals(evaluator, evaluator.penalty_weight)
        assert loss(spec, params, grid, weight).total.hex() == total.hex() == parts.hex()


def test_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(53)
    grid = CollocationGrid.equidistant(10, 6.0)
    for spec in (PAPER, PENALTY):
        for _ in range(8):
            params = random_params(rng, 3)
            analytic = loss_gradient(spec, params, grid)
            numeric = fd_param_triple(lambda p: loss(spec, p, grid).total, params)
            assert max_normalized_diff(analytic, numeric) <= 1e-5


def test_evaluator_validation():
    grid = CollocationGrid.equidistant(5, 6.0)
    with pytest.raises(ValueError):
        LossEvaluator(PENALTY, grid, penalty_weight=-1.0)
    with pytest.raises(ValueError):
        LossEvaluator(PENALTY, grid, penalty_weight=np.inf)
    wide = CollocationGrid.equidistant(2, 7.0)
    with pytest.raises(ValueError):
        LossEvaluator(PAPER, wide)
