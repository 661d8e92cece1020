"""Byte pins of the training step's elementwise part, independent of the BLAS kernels.

The fingerprint tests hold for one OpenBLAS kernel set.  These compare the
hot path's 0-d constant operands, the in-place momentum step and the loss's
running sums with plain formulas on the same inputs, so they hold on any
kernel set: no matrix product sits between a value and its reference.
"""

import numpy as np
import pytest

from blasius_net import cli, network, training
from blasius_net.network import NETWORK_MAX_HIDDEN, _sigmoid_stack
from blasius_net.problem import CollocationGrid, LossEvaluator
from blasius_net.training import MOMENTUM_COEFF, SWEEP_MAX_RUNS, TrainingConfig, seed_sweep
from blasius_net.trial import TrialMode, TrialSpec

from helpers import python_totals

CONSTANTS = {
    "_HALF": 0.5,
    "_ONE": 1.0,
    "_TWO": 2.0,
    "_THREE": 3.0,
    "_MINUS_TWO": -2.0,
    "_MINUS_SIX": -6.0,
    "_MINUS_TWELVE": -12.0,
}
GRID = CollocationGrid.equidistant(10, 6.0)


@pytest.mark.parametrize("name", sorted(CONSTANTS))
def test_shared_constants_are_locked_0d_float64(name):
    const = getattr(network, name)
    assert isinstance(const, np.ndarray)
    assert const.shape == () and const.dtype == np.float64
    assert float(const) == CONSTANTS[name]
    with pytest.raises(ValueError):
        const[...] = 0.0
    with pytest.raises(ValueError):
        np.add(const, 1.0, const)


def test_sigmoid_stack_equals_its_python_float_formula():
    z = np.array([0.0, -0.0, 1e-300, -1e-300, 30.0, -30.0, 710.0, -710.0,
                  1e308, -1e308, np.inf, -np.inf, np.nan])
    with np.errstate(all="ignore"):
        stack = _sigmoid_stack(z, np.empty((5,) + z.shape))
        s = (np.tanh(z * 0.5) + 1.0) * 0.5
        t = (1.0 - s) * s
        g2 = (s * -2.0 + 1.0) * t
        g3 = (t * -6.0 + 1.0) * t
        g4 = (t * -12.0 + 1.0) * g2
    for order, expected in enumerate((s, t, g2, g3, g4)):
        assert stack[order].tobytes() == expected.tobytes(), order


@pytest.mark.parametrize("stack", [1, 3, 20])
def test_momentum_step_equals_its_formula(stack):
    rng = np.random.default_rng(stack)
    shape = (stack, 3, 5)
    for lr in (1e-4, 3e-4, 0.37):
        theta = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
        velocity = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
        grad = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
        expected_velocity = velocity * 0.9 + lr * grad
        expected_theta = theta - expected_velocity
        training._momentum_step(theta, velocity, grad,
                                np.array(MOMENTUM_COEFF), np.array(lr))
        assert velocity.tobytes() == expected_velocity.tobytes()
        assert theta.tobytes() == expected_theta.tobytes()


def float_bytes(values):
    return np.array(values, dtype=np.float64).tobytes()


@pytest.mark.parametrize("mode,lam", [(TrialMode.PAPER, 10.0), (TrialMode.PENALTY, 10.0),
                                      (TrialMode.PENALTY, 0.0), (TrialMode.PENALTY, 2.5)])
@pytest.mark.parametrize("stack", [1, 2, 20, 300])
def test_evaluate_totals_are_an_in_order_python_sum(mode, lam, stack):
    rng = np.random.default_rng(stack)
    for points in (5, 10, 31):
        evaluator = LossEvaluator(TrialSpec(mode, 6.0), CollocationGrid.equidistant(points, 6.0),
                                  lam)
        theta = rng.uniform(-2.0, 2.0, (stack, 3, 5))
        with np.errstate(all="ignore"):
            totals, _ = evaluator.evaluate(theta)
        assert len(totals) == stack
        assert float_bytes(totals) == float_bytes(
            python_totals(evaluator, evaluator.penalty_weight)), points


@pytest.mark.parametrize("mode", [TrialMode.PAPER, TrialMode.PENALTY])
def test_a_non_finite_total_leaves_its_neighbours_bytes(mode):
    evaluator = LossEvaluator(TrialSpec(mode, 6.0), GRID)
    rng = np.random.default_rng(5)
    theta = rng.uniform(-1.0, 1.0, (5, 3, 5))
    with np.errstate(all="ignore"):
        clean, _ = evaluator.evaluate(theta)
        for blowup in (1e200, np.inf):
            theta[2, 0] = blowup  # output weights that overflow entry 2's residuals
            totals, _ = evaluator.evaluate(theta)
            expected = python_totals(evaluator, evaluator.penalty_weight)
            assert not np.isfinite(totals[2]) and not np.isfinite(expected[2])
            neighbours = [0, 1, 3, 4]
            assert float_bytes([totals[i] for i in neighbours]) == float_bytes(
                [clean[i] for i in neighbours])
            assert float_bytes([totals[i] for i in neighbours]) == float_bytes(
                [expected[i] for i in neighbours])


def refuse_draws(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a weight was drawn")
    monkeypatch.setattr(training.XorShift64Star, "__init__", refuse)


def test_seed_sweep_refuses_runs_past_the_cap_before_drawing(monkeypatch):
    refuse_draws(monkeypatch)
    with pytest.raises(ValueError, match=f"SWEEP_MAX_RUNS = {SWEEP_MAX_RUNS}, got {SWEEP_MAX_RUNS + 1}"):
        seed_sweep(TrainingConfig(), SWEEP_MAX_RUNS + 1)


def test_solve_names_runs_past_the_cap(monkeypatch, capsys):
    refuse_draws(monkeypatch)
    assert cli.run_cli(["solve", "--runs", str(SWEEP_MAX_RUNS + 1)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: --runs must be between 1 and SWEEP_MAX_RUNS = "
                            f"{SWEEP_MAX_RUNS}, got {SWEEP_MAX_RUNS + 1}\n")


@pytest.mark.parametrize("flag,low,cap_name,cap", [
    ("--hidden", 1, "NETWORK_MAX_HIDDEN", NETWORK_MAX_HIDDEN),
    ("--points", 2, "SOLVE_MAX_POINTS", cli.SOLVE_MAX_POINTS),
])
def test_solve_names_hidden_and_points_past_their_caps(flag, low, cap_name, cap, monkeypatch,
                                                       capsys):
    refuse_draws(monkeypatch)

    def refuse_grid(*args, **kwargs):
        raise AssertionError("a grid was allocated")
    monkeypatch.setattr(CollocationGrid, "equidistant", refuse_grid)
    assert cli.run_cli(["solve", flag, str(cap + 1)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {flag} must be between {low} and {cap_name} = {cap}, "
                            f"got {cap + 1}\n")


@pytest.mark.parametrize("argv, message", [
    # 41 * 1024 * 200 = 8 396 800, just over 2**23 = 8 388 608
    (["--runs", "41", "--points", "1023", "--hidden", "200"],
     f"--runs * (--points + 1) * --hidden must be at most SOLVE_MAX_JET = {cli.SOLVE_MAX_JET}, "
     "got 8396800"),
    (["--runs", "40", "--points", "1023", "--hidden", "200"], "a weight was drawn"),
    # the last seed would be 2**64, which XorShift64Star reads as seed 0
    (["--seed", str(2**64 - 1), "--runs", "2"],
     f"--seed + --runs must be at most SEED_END = 2**64, got {2**64 + 1}"),
    (["--seed", str(2**64 - 2), "--runs", "2"], "a weight was drawn"),
    # paper mode pins its far end, so a penalty weight would change nothing
    (["--mode", "paper", "--penalty", "1"],
     "--penalty has no effect in paper mode, which pins its far end"),
    (["--mode", "paper"], "a weight was drawn"),
    (["--penalty", "1"], "a weight was drawn"),
], ids=["jet", "jet-inside", "seed", "seed-at-bound", "paper-penalty", "paper", "penalty"])
def test_solve_refuses_flags_that_cannot_run_as_given(argv, message, monkeypatch, capsys):
    # an admitted set of flags gets as far as the first draw
    refuse_draws(monkeypatch)
    assert cli.run_cli(["solve", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
