"""The batched jet kernel against the scalar per-unit references in helpers, and its buffers."""

from functools import partial

import numpy as np
import pytest

from blasius_net.gradcheck import run_gradient_checks
from blasius_net.network import NetworkJet, input_derivative, param_gradient
from blasius_net.problem import CollocationGrid, LossEvaluator
from blasius_net.report import evaluate_profile
from blasius_net.training import TrainingConfig, seed_sweep, train
from blasius_net.trial import (
    TrialMode,
    TrialSpec,
    trial_derivative,
    trial_jet,
    trial_param_gradient,
    trial_value,
)

from helpers import (
    random_params,
    ref_input_derivative,
    ref_param_gradient,
    ref_trial_derivative,
    ref_trial_param_gradient,
)

# fixed before the comparison was first run
RTOL = ATOL = 1e-12
SPECS = (TrialSpec(TrialMode.PAPER, 6.0), TrialSpec(TrialMode.PENALTY, 6.0))


def close(actual, expected):
    np.testing.assert_allclose(actual, expected, rtol=RTOL, atol=ATOL)


def draws(seed, count=20, hidden=5):
    """Random (params, abscissae) pairs with the domain ends included."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        xs = np.concatenate(([0.0, 6.0], rng.uniform(0.0, 6.0, 5)))
        yield random_params(rng, hidden, scale=2.0), xs


def test_bare_jet_matches_per_unit_sums():
    for params, xs in draws(101):
        values = NetworkJet.bare(xs).forward(params.weights[None])[0]
        expected = [[ref_input_derivative(params, x, k) for k in range(4)] for x in xs.tolist()]
        close(values, expected)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.mode.value)
def test_trial_jet_matches_leibniz_loop(spec):
    for params, xs in draws(103):
        values = trial_jet(spec, xs).forward(params.weights[None])[0]
        expected = [[ref_trial_derivative(spec, params, x, k) for k in range(4)]
                    for x in xs.tolist()]
        close(values, expected)


def test_bare_pullback_matches_per_unit_gradients():
    orders = (0, 1, 3)
    for params, xs in draws(107):
        got = NetworkJet.bare(xs, orders).gradient(params.weights[None])[0]
        expected = [sum(ref_param_gradient(params, x, k)[group] for x in xs.tolist() for k in orders)
                    for group in range(3)]
        for part, ref in zip(got, expected):
            close(part, ref)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.mode.value)
def test_trial_pullback_matches_leibniz_gradients(spec):
    orders = (0, 2, 3)
    for params, xs in draws(109):
        got = trial_jet(spec, xs, orders).gradient(params.weights[None])[0]
        expected = [sum(ref_trial_param_gradient(spec, params, x, k)[group]
                        for x in xs.tolist() for k in orders)
                    for group in range(3)]
        for part, ref in zip(got, expected):
            close(part, ref)


def test_scalar_wrappers_match_references():
    for params, xs in draws(113, count=5):
        for x in xs.tolist():
            for k in range(4):
                close(input_derivative(params, x, k), ref_input_derivative(params, x, k))
                close(param_gradient(params, x, k),
                      ref_param_gradient(params, x, k))
                for spec in SPECS:
                    value = trial_value(spec, params, x) if k == 0 else trial_derivative(spec, params, x, k)
                    close(value, ref_trial_derivative(spec, params, x, k))
                    close(trial_param_gradient(spec, params, x, k),
                          ref_trial_param_gradient(spec, params, x, k))


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.mode.value)
def test_evaluate_profile_matches_per_point_wrappers(spec):
    for params, xs in draws(127, count=5):
        etas = np.sort(xs)
        profile = evaluate_profile(spec, params, etas)
        close(profile.f, [trial_value(spec, params, x) for x in etas.tolist()])
        close(profile.fp, [trial_derivative(spec, params, x, 1) for x in etas.tolist()])
        close(profile.fpp, [trial_derivative(spec, params, x, 2) for x in etas.tolist()])
        # the wall conditions survive the batched path exactly
        assert profile.f[0] == 0.0 and profile.fp[0] == 0.0


def test_jet_reuses_buffers_across_hidden_counts():
    jet = NetworkJet.bare([0.5, 1.5])
    for hidden in (3, 7, 3):
        params = random_params(np.random.default_rng(hidden), hidden)
        close(jet.forward(params.weights[None])[0],
              [[ref_input_derivative(params, x, k) for k in range(4)] for x in (0.5, 1.5)])



def test_forward_returns_one_stored_buffer_per_stack_shape():
    jet = NetworkJet.bare([0.5, 1.5, 2.5], (0, 2))
    theta = np.random.default_rng(3).uniform(-1.0, 1.0, (2, 3, 4))
    y = jet.forward(theta)
    first = y.copy()
    assert y.shape == (2, 3, 4) and jet.cotangent.shape == (2, 3, 2)
    assert jet.forward(2.0 * theta) is y
    assert not np.array_equal(y, first)  # overwritten in place
    smaller = jet.forward(theta[:1])
    assert smaller is not y and smaller.shape == (1, 3, 4)
    assert jet.forward(theta[1:]) is smaller


@pytest.mark.parametrize("mode", [TrialMode.PAPER, TrialMode.PENALTY])
def test_evaluator_views_share_the_jets_buffers(mode):
    # a view that silently became a copy would leave evaluate reading stale values
    evaluator = LossEvaluator(TrialSpec(mode, 6.0), CollocationGrid.equidistant(10, 6.0))
    rng = np.random.default_rng(7)
    for stack in (3, 1):
        evaluator.evaluate(rng.uniform(-1.0, 1.0, (stack, 3, 5)))
        jet = evaluator._jet
        views = {"y": [evaluator._y0, evaluator._y2, evaluator._y3],
                 "cotangent": [evaluator._c_y0, evaluator._c_y2, evaluator._c_y3]}
        if evaluator.penalty_active:
            views["y"].append(evaluator._y1_end)
            views["cotangent"].append(evaluator._c_y1_end)
        for buffer, bound in views.items():
            for view in bound:
                assert np.shares_memory(view, getattr(jet, buffer)), buffer


def nan_empty(real_empty):
    """np.empty whose float arrays come filled with NaN, so a read before a write shows."""
    def empty(*args, **kwargs):
        out = real_empty(*args, **kwargs)
        if out.dtype.kind in "fc":
            out.fill(np.nan)
        return out
    return empty


def hot_path_bytes():
    """The bytes of a seed sweep, a single run and a small gradient audit."""
    runs = seed_sweep(TrainingConfig(max_iterations=200), 20)
    run = train(TrainingConfig(max_iterations=300))
    audit = run_gradient_checks(draws=3, seed=0)
    return ([(r.final_loss, r.final_params.weights.tobytes()) for r in runs + [run]],
            [r.max_rel_error for r in audit])


def test_no_scratch_buffer_is_read_before_it_is_written(monkeypatch):
    # the jet and the evaluator reuse np.empty scratch across calls and stack
    # shapes; a buffer read before it is written would carry NaN into the bytes
    expected = hot_path_bytes()
    monkeypatch.setattr(np, "empty", nan_empty(np.empty))
    assert hot_path_bytes() == expected


def jet_outputs(jet, theta):
    """Values and pulled gradient of one call, with a cotangent fixed by the shapes."""
    values = jet.forward(theta).copy()
    jet.cotangent[...] = np.linspace(-1.0, 1.0, jet.cotangent.size).reshape(jet.cotangent.shape)
    return values.tobytes(), jet.pull().tobytes()


@pytest.mark.parametrize("kind", ["bare", "penalty"])
def test_each_stack_shape_gets_its_own_scratch(kind):
    # one object moved through stack shapes gives, at each, a fresh object's
    # bytes: the repeated operands and every other buffer follow the shape
    build = NetworkJet.bare if kind == "bare" else partial(trial_jet, SPECS[1])
    rng = np.random.default_rng(11)
    shared = np.linspace(0.0, 6.0, 7)
    jet = build(shared, (0, 2, 3))
    evaluator = LossEvaluator(SPECS[1], CollocationGrid.equidistant(10, 6.0))
    for stack in (1, 20, 1, 3):
        theta = rng.uniform(-2.0, 2.0, (stack, 3, 5))
        assert jet_outputs(jet, theta) == jet_outputs(build(shared, (0, 2, 3)), theta)
        totals, grad = evaluator.evaluate(theta)
        fresh_totals, fresh_grad = LossEvaluator(
            SPECS[1], CollocationGrid.equidistant(10, 6.0)).evaluate(theta)
        assert totals == fresh_totals and grad.tobytes() == fresh_grad.tobytes()
    # abscissae per entry fix the stack size, so their jet moves through hidden counts
    per_entry = rng.uniform(0.0, 6.0, (3, 4))
    jet = build(per_entry, (1, 3))
    for hidden in (1, 20, 1, 3):
        theta = rng.uniform(-2.0, 2.0, (3, 3, hidden))
        assert jet_outputs(jet, theta) == jet_outputs(build(per_entry, (1, 3)), theta)
