"""Unit tests for the two trial-solution families and their derivatives."""

import numpy as np
import pytest

from blasius_net import (
    NetworkParams,
    TrialMode,
    TrialSpec,
    input_derivative,
    trial_derivative,
    trial_param_gradient,
    trial_value,
)
from blasius_net.trial import PAPER_NODE, envelope_terms, offset_terms

from helpers import central_diff, fd_param_triple, gradient_triple, max_normalized_diff, random_params

PAPER = TrialSpec(TrialMode.PAPER, 6.0)
PENALTY = TrialSpec(TrialMode.PENALTY, 6.0)


def zero_net(hidden=3):
    return NetworkParams(np.zeros(hidden), np.ones(hidden), np.ones(hidden))


def test_trial_spec_validation():
    with pytest.raises(TypeError):
        TrialSpec("paper", 6.0)
    with pytest.raises(ValueError):
        TrialSpec(TrialMode.PAPER, 0.0)
    with pytest.raises(ValueError):
        TrialSpec(TrialMode.PENALTY, -1.0)
    assert TrialSpec(TrialMode.PENALTY).domain_end == 6.0


def test_paper_offset_polynomial_with_silent_network():
    # with all output weights zero the paper form reduces to x**3 + x**2
    params = zero_net()
    for x in (0.0, 0.5, 1.0, 3.7, 6.0):
        assert trial_value(PAPER, params, x) == pytest.approx(x**3 + x**2, rel=1e-15)
        assert trial_derivative(PAPER, params, x, 1) == pytest.approx(3 * x**2 + 2 * x, rel=1e-15)
        assert trial_derivative(PAPER, params, x, 2) == pytest.approx(6 * x + 2, rel=1e-15)
        assert trial_derivative(PAPER, params, x, 3) == pytest.approx(6.0, rel=1e-15)


def test_penalty_form_with_silent_network_is_zero():
    params = zero_net()
    for x in (0.0, 1.0, 6.0):
        assert trial_value(PENALTY, params, x) == 0.0
        for order in (1, 2, 3):
            assert trial_derivative(PENALTY, params, x, order) == 0.0


def test_paper_value_pinned_at_node():
    rng = np.random.default_rng(3)
    for _ in range(50):
        params = random_params(rng, 6, scale=2.0)
        assert trial_value(PAPER, params, 6.0) == 252.0


def test_boundary_conditions_hold_for_any_network():
    rng = np.random.default_rng(5)
    for spec in (PAPER, PENALTY):
        for _ in range(200):
            params = random_params(rng, 5, scale=3.0)
            assert abs(trial_value(spec, params, 0.0)) <= 1e-12
            assert abs(trial_derivative(spec, params, 0.0, 1)) <= 1e-12


def test_trial_forms_match_direct_expressions():
    rng = np.random.default_rng(13)
    for _ in range(30):
        params = random_params(rng, 4)
        x = rng.uniform(0.0, 6.0)
        n = input_derivative(params, x, 0)
        paper = (x**3 + x**2) + x**2 * (x - 6.0) ** 2 * n
        penalty = x**2 * n
        assert trial_value(PAPER, params, x) == pytest.approx(paper, rel=1e-13, abs=1e-13)
        assert trial_value(PENALTY, params, x) == pytest.approx(penalty, rel=1e-13, abs=1e-13)


def test_trial_derivatives_match_finite_differences():
    rng = np.random.default_rng(17)
    for spec in (PAPER, PENALTY):
        for order in (1, 2, 3):
            for _ in range(40):
                params = random_params(rng, 4)
                x = rng.uniform(0.1, 5.9)
                if order == 1:
                    target = lambda t: trial_value(spec, params, t)
                else:
                    target = lambda t: trial_derivative(spec, params, t, order - 1)
                numeric = central_diff(target, x)
                analytic = trial_derivative(spec, params, x, order)
                scale = max(abs(analytic), abs(numeric), 1.0)
                assert abs(analytic - numeric) / scale <= 1e-6


def test_trial_param_gradients_match_finite_differences():
    rng = np.random.default_rng(19)
    for spec in (PAPER, PENALTY):
        for order in range(4):
            for _ in range(10):
                params = random_params(rng, 4)
                x = rng.uniform(0.1, 5.9)
                if order == 0:
                    objective = lambda p: trial_value(spec, p, x)
                else:
                    objective = lambda p: trial_derivative(spec, p, x, order)
                analytic = gradient_triple(trial_param_gradient(spec, params, x, order))
                numeric = fd_param_triple(objective, params)
                assert max_normalized_diff(analytic, numeric) <= 1e-5


def test_offset_terms_closed_values():
    x = np.array([0.0, 1.0, 6.0])
    a0, a1, a2, a3 = offset_terms(TrialMode.PAPER, x)
    assert np.array_equal(a0, [0.0, 2.0, 252.0])
    assert np.array_equal(a1, [0.0, 5.0, 120.0])
    assert np.array_equal(a2, [2.0, 8.0, 38.0])
    assert np.array_equal(a3, [6.0, 6.0, 6.0])
    for term in offset_terms(TrialMode.PENALTY, x):
        assert np.array_equal(term, np.zeros(3))


def test_envelope_terms_closed_values():
    x = np.array([0.0, 1.0, 6.0])
    f0, f1, f2, f3 = envelope_terms(TrialMode.PAPER, x)
    assert np.array_equal(f0, [0.0, 25.0, 0.0])
    assert np.array_equal(f1, [0.0, 40.0, 0.0])
    assert np.array_equal(f2, [72.0, 12.0, 72.0])
    assert np.array_equal(f3, [-72.0, -48.0, 72.0])
    g0, g1, g2, g3 = envelope_terms(TrialMode.PENALTY, x)
    assert np.array_equal(g0, x**2)
    assert np.array_equal(g1, 2 * x)
    assert np.array_equal(g2, np.full(3, 2.0))
    assert np.array_equal(g3, np.zeros(3))
    assert PAPER_NODE == 6.0


def test_domain_and_order_validation():
    params = zero_net()
    with pytest.raises(ValueError):
        trial_value(PAPER, params, -0.001)
    with pytest.raises(ValueError):
        trial_value(PAPER, params, 6.001)
    with pytest.raises(ValueError):
        trial_derivative(PAPER, params, 1.0, 0)
    with pytest.raises(ValueError):
        trial_derivative(PAPER, params, 1.0, 4)
    with pytest.raises(ValueError):
        trial_param_gradient(PAPER, params, 1.0, 4)
