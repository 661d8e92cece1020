"""The batched jet kernel against the scalar per-unit references in helpers."""

import numpy as np
import pytest

from blasius_net import (
    TrialMode,
    TrialSpec,
    evaluate_profile,
    input_derivative,
    param_gradient,
    trial_derivative,
    trial_param_gradient,
    trial_value,
)
from blasius_net.network import NetworkJet
from blasius_net.trial import trial_jet

from helpers import (
    gradient_triple,
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
        values = NetworkJet.bare(xs).values(params)
        expected = [[ref_input_derivative(params, x, k) for k in range(4)] for x in xs.tolist()]
        close(values, expected)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.mode.value)
def test_trial_jet_matches_leibniz_loop(spec):
    for params, xs in draws(103):
        values = trial_jet(spec, xs).values(params)
        expected = [[ref_trial_derivative(spec, params, x, k) for k in range(4)]
                    for x in xs.tolist()]
        close(values, expected)


def test_bare_pullback_matches_per_unit_gradients():
    orders = (0, 1, 3)
    for params, xs in draws(107):
        got = gradient_triple(NetworkJet.bare(xs, orders).gradient(params))
        expected = [sum(ref_param_gradient(params, x, k)[group] for x in xs.tolist() for k in orders)
                    for group in range(3)]
        for part, ref in zip(got, expected):
            close(part, ref)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.mode.value)
def test_trial_pullback_matches_leibniz_gradients(spec):
    orders = (0, 2, 3)
    for params, xs in draws(109):
        got = gradient_triple(trial_jet(spec, xs, orders).gradient(params))
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
                close(gradient_triple(param_gradient(params, x, k)),
                      ref_param_gradient(params, x, k))
                for spec in SPECS:
                    value = trial_value(spec, params, x) if k == 0 else trial_derivative(spec, params, x, k)
                    close(value, ref_trial_derivative(spec, params, x, k))
                    close(gradient_triple(trial_param_gradient(spec, params, x, k)),
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
        close(jet.values(params),
              [[ref_input_derivative(params, x, k) for k in range(4)] for x in (0.5, 1.5)])

