"""Batch invariance: a stacked evaluation gives every entry the bits it gets alone.

seed_sweep trains all its seeds as one (S, 3, H) stack, and the gradient
audit pushes a block of draws, their own weights and all 2 * 3H
finite-difference perturbations of each, through one call with an abscissa
per entry.  These properties pin both to the one-at-a-time results, bit for
bit.  The loss evaluator's jet puts its end row's cotangent on other outputs
than its grid rows'; per-row cotangent orders are pinned to the one-tuple
form and to a sum of one-row jets.
"""

import dataclasses
from contextlib import contextmanager
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blasius_net import training
from blasius_net.gradcheck import FD_STEP, fd_param_gradient
from blasius_net.network import NetworkJet, NetworkParams
from blasius_net.problem import CollocationGrid, LossEvaluator
from blasius_net.training import TrainingConfig, TrainingDivergedError, seed_sweep, train
from blasius_net.trial import TrialMode, TrialSpec, trial_jet

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)

# neighbourhoods: plain runs; lr = 3e-4, where seeds 0 and 5 of 0..7 diverge
# (seed 0 at iteration 6); loss target 0.05, which seeds 1, 3 and 6 reach early
CONFIGS = {
    "plain": TrainingConfig(max_iterations=40),
    "diverging": TrainingConfig(lr=3e-4, max_iterations=40),
    "early_stop": TrainingConfig(max_iterations=160),
    "paper": TrainingConfig(trial=TrialSpec(TrialMode.PAPER, 6.0), max_iterations=20),
}
LOSS_TARGETS = {"early_stop": 0.05}  # the others train to training.LOSS_TARGET


@contextmanager
def loss_target_of(name):
    """training.LOSS_TARGET set for the named neighbourhood, restored on exit."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(training, "LOSS_TARGET", LOSS_TARGETS.get(name, training.LOSS_TARGET))
        yield


def outcome_alone(cfg):
    try:
        return train(cfg)
    except TrainingDivergedError:
        return None


def same_run(left, right):
    if left is None or right is None:
        return left is None and right is None
    return (left.final_loss == right.final_loss
            and left.initial_loss == right.initial_loss
            and left.iterations_used == right.iterations_used
            and left.final_params.weights.tobytes() == right.final_params.weights.tobytes())


def test_neighbourhoods_hold_what_they_promise():
    diverging = seed_sweep(CONFIGS["diverging"], 8)
    assert [run is None for run in diverging] == [i in (0, 5) for i in range(8)]
    try:
        train(CONFIGS["diverging"])
    except TrainingDivergedError as exc:
        assert exc.iteration == 6
    else:
        raise AssertionError("seed 0 should diverge")
    with loss_target_of("early_stop"):
        early = seed_sweep(CONFIGS["early_stop"], 8)
    stopped = [i for i, run in enumerate(early) if run.iterations_used < 160]
    assert stopped == [1, 3, 6]
    # the target is read when the sweep runs: at the default none of them stops early
    assert all(run.iterations_used == 160 for run in seed_sweep(CONFIGS["early_stop"], 8))


@PROPERTY
@given(name=st.sampled_from(sorted(CONFIGS)), hidden=st.sampled_from([1, 2, 5]),
       start=st.integers(0, 6), data=st.data())
def test_seed_runs_alike_alone_and_in_any_sweep_position(name, hidden, start, data):
    cfg = dataclasses.replace(CONFIGS[name], hidden_count=hidden, seed=start)
    count = data.draw(st.integers(1, 20), label="run_count")
    position = data.draw(st.integers(0, count - 1), label="position")
    with loss_target_of(name):
        swept = seed_sweep(cfg, count)
        alone = outcome_alone(dataclasses.replace(cfg, seed=start + position))
    assert len(swept) == count
    assert same_run(swept[position], alone)


def test_full_width_sweep_matches_every_seed_alone():
    cfg = CONFIGS["diverging"]
    swept = seed_sweep(cfg, 20)
    for seed, run in enumerate(swept):
        assert same_run(run, outcome_alone(dataclasses.replace(cfg, seed=seed)))


def per_perturbation_gradient(objective, params):
    """The central difference one perturbed weight set at a time, at the audit's FD_STEP."""
    grad = np.empty(params.weights.shape)
    for group in range(3):
        for i in range(params.hidden_count):
            shifted = []
            for delta in (+FD_STEP, -FD_STEP):
                weights = params.weights.copy()
                weights[group, i] += delta
                shifted.append(objective(NetworkParams(*weights)))
            grad[group, i] = (shifted[0] - shifted[1]) / (2.0 * FD_STEP)
    return grad


weights_strategy = st.integers(1, 6).flatmap(
    lambda h: st.lists(st.floats(-2.0, 2.0), min_size=3 * h, max_size=3 * h))


def as_params(flat):
    h = len(flat) // 3
    return NetworkParams(flat[:h], flat[h:2 * h], flat[2 * h:])


@PROPERTY
@given(flat=weights_strategy, x=st.floats(0.0, 6.0), order=st.integers(0, 3),
       mode=st.sampled_from([None, TrialMode.PAPER, TrialMode.PENALTY]))
def test_fd_param_gradient_equals_per_perturbation_differences(flat, x, order, mode):
    params = as_params(flat)
    jet = NetworkJet.bare([x]) if mode is None else trial_jet(TrialSpec(mode, 6.0), [x])
    (stacked,) = fd_param_gradient(lambda stack: jet.forward(stack)[:, 0, order],
                                   params.weights[None])
    single = per_perturbation_gradient(lambda p: jet.forward(p.weights[None])[0, 0, order],
                                       params)
    assert stacked.tobytes() == single.tobytes()


@PROPERTY
@given(flat=weights_strategy, mode=st.sampled_from([TrialMode.PAPER, TrialMode.PENALTY]))
def test_fd_loss_gradient_equals_per_perturbation_differences(flat, mode):
    params = as_params(flat)
    evaluator = LossEvaluator(TrialSpec(mode, 6.0), CollocationGrid.equidistant(10, 6.0))
    (stacked,) = fd_param_gradient(lambda stack: evaluator.evaluate(stack)[0],
                                   params.weights[None])
    single = per_perturbation_gradient(lambda p: evaluator.evaluate(p.weights[None])[0][0],
                                       params)
    assert stacked.tobytes() == single.tobytes()


@PROPERTY
@given(flat=weights_strategy, count=st.integers(1, 12), data=st.data())
def test_evaluator_entry_matches_stack_of_one(flat, count, data):
    params = as_params(flat)
    position = data.draw(st.integers(0, count - 1), label="position")
    rng = np.random.default_rng(count)
    stack = rng.uniform(-2.0, 2.0, (count,) + params.weights.shape)
    stack[position] = params.weights
    evaluator = LossEvaluator(TrialSpec(TrialMode.PENALTY, 6.0),
                              CollocationGrid.equidistant(10, 6.0))
    totals, grad = evaluator.evaluate(stack)
    alone_totals, alone_grad = evaluator.evaluate(params.weights[None])
    assert totals[position] == alone_totals[0]
    assert grad[position].tobytes() == alone_grad[0].tobytes()


def jet_builder(kind):
    if kind == "bare":
        return NetworkJet.bare
    return partial(trial_jet, TrialSpec(TrialMode(kind), 6.0))


@PROPERTY
@given(kind=st.sampled_from(["bare", "paper", "penalty"]), hidden=st.integers(1, 6),
       count=st.integers(1, 12), rows=st.integers(1, 3), order=st.integers(0, 3),
       data=st.data())
def test_per_entry_abscissae_match_shared_stack_of_one(kind, hidden, count, rows, order, data):
    build = jet_builder(kind)
    flat = data.draw(st.lists(st.floats(0.0, 6.0), min_size=count * rows,
                              max_size=count * rows), label="xs")
    xs = np.array(flat).reshape(count, rows)
    seed = data.draw(st.integers(0, 2**32 - 1), label="weights_seed")
    theta = np.random.default_rng(seed).uniform(-2.0, 2.0, (count, 3, hidden))
    jet = build(xs, (order,))
    values = jet.forward(theta).copy()
    grads = jet.gradient(theta)
    for entry in range(count):
        params = NetworkParams(*theta[entry])
        alone = build(xs[entry], (order,))
        assert values[entry].tobytes() == alone.forward(params.weights[None])[0].tobytes()
        assert grads[entry].tobytes() == alone.gradient(params.weights[None])[0].tobytes()


def jet_case(data, per_entry, count, rows):
    """Abscissae for a count-entry stack, shared or per entry, and a random theta stack."""
    shape = (count, rows) if per_entry else (rows,)
    flat = data.draw(st.lists(st.floats(0.0, 6.0), min_size=int(np.prod(shape)),
                              max_size=int(np.prod(shape))), label="xs")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    return np.array(flat).reshape(shape), rng.uniform(-2.0, 2.0, (count, 3, 4)), rng


def pulled(jet, theta, cotangent):
    values = jet.forward(theta).copy()
    jet.cotangent[...] = cotangent
    return values, jet.pull()


def orders_of(width):
    return st.lists(st.integers(0, 3), min_size=width, max_size=width, unique=True).map(tuple)


@PROPERTY
@given(kind=st.sampled_from(["bare", "paper", "penalty"]), per_entry=st.booleans(),
       count=st.integers(1, 6), rows=st.integers(1, 4),
       orders=st.integers(1, 4).flatmap(orders_of), data=st.data())
def test_equal_per_row_orders_match_the_tuple_form(kind, per_entry, count, rows, orders, data):
    xs, theta, rng = jet_case(data, per_entry, count, rows)
    cotangent = rng.uniform(-2.0, 2.0, (count, rows, len(orders)))
    build = jet_builder(kind)
    values, grad = pulled(build(xs, orders), theta, cotangent)
    row_values, row_grad = pulled(build(xs, (orders,) * rows), theta, cotangent)
    assert row_values.tobytes() == values.tobytes()
    assert row_grad.tobytes() == grad.tobytes()


@PROPERTY
@given(kind=st.sampled_from(["bare", "paper", "penalty"]), per_entry=st.booleans(),
       count=st.integers(1, 6), rows=st.integers(2, 4), width=st.integers(1, 3),
       data=st.data())
def test_per_row_orders_pull_the_sum_of_one_row_jets(kind, per_entry, count, rows, width, data):
    xs, theta, rng = jet_case(data, per_entry, count, rows)
    per_row = [data.draw(orders_of(width), label=f"orders {r}") for r in range(rows)]
    cotangent = rng.uniform(-2.0, 2.0, (count, rows, width))
    build = jet_builder(kind)
    _, grad = pulled(build(xs, per_row), theta, cotangent)
    expected = sum(pulled(build(xs[..., r:r + 1], per_row[r]), theta, cotangent[:, r:r + 1])[1]
                   for r in range(rows))
    assert np.max(np.abs(grad - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_per_entry_jet_takes_stacks_of_its_own_size():
    jet = NetworkJet.bare([[0.5], [1.5]])
    jet.forward(np.zeros((2, 3, 4)))
    with pytest.raises(ValueError, match="takes stacks of 2, got 3"):
        jet.forward(np.zeros((3, 3, 4)))


@PROPERTY
@given(kind=st.sampled_from(["bare", "paper", "penalty", "loss"]), hidden=st.integers(1, 6),
       count=st.integers(1, 5), x=st.floats(0.0, 6.0), order=st.integers(0, 3),
       seed=st.integers(0, 2**32 - 1))
def test_fd_param_gradient_of_a_stack_equals_single_calls(kind, hidden, count, x, order, seed):
    if kind == "loss":
        evaluator = LossEvaluator(TrialSpec(TrialMode.PENALTY, 6.0),
                                  CollocationGrid.equidistant(10, 6.0))
        objective = lambda stack: evaluator.evaluate(stack)[0]  # noqa: E731
    else:
        jet = jet_builder(kind)([x])
        objective = lambda stack: jet.forward(stack)[:, 0, order]  # noqa: E731
    stack = np.random.default_rng(seed).uniform(-2.0, 2.0, (count, 3, hidden))
    stacked = fd_param_gradient(objective, stack)
    assert stacked.shape == stack.shape
    for weights, grad in zip(stack, stacked):
        (single,) = fd_param_gradient(objective, weights[None])
        assert grad.tobytes() == single.tobytes()
