"""Unit tests for the finite-difference gradient audit."""

import numpy as np
import pytest

from blasius_net import NetworkParams, input_derivative, param_gradient
from blasius_net.gradcheck import (
    GradCheckResult,
    fd_param_gradient,
    gradient_discrepancy,
    run_gradient_checks,
)


def test_fd_param_gradient_matches_analytic_forward():
    params = NetworkParams([0.4, -0.9], [0.2, 0.1], [1.1, -0.3])
    numeric = fd_param_gradient(lambda p: input_derivative(p, 1.3, 0), params)
    analytic = param_gradient(params, 1.3, 0)
    assert np.allclose(numeric[0], analytic.d_output_weights, atol=1e-8)
    assert np.allclose(numeric[1], analytic.d_hidden_biases, atol=1e-8)
    assert np.allclose(numeric[2], analytic.d_input_weights, atol=1e-8)


def test_gradient_discrepancy_metric():
    a = (np.array([1.0, 2.0]),)
    assert gradient_discrepancy(a, (np.array([1.0, 2.0]),)) == 0.0
    near = (np.array([1.0, 2.0 * (1.0 + 1e-6)]),)
    assert gradient_discrepancy(a, near) == pytest.approx(1e-6, rel=1e-3)
    far = (np.array([1.0, 3.0]),)
    assert gradient_discrepancy(a, far) == pytest.approx(1.0 / 3.0, rel=1e-12)
    # the floor keeps tiny vectors from dividing by almost zero
    tiny = (np.array([0.0]),)
    assert gradient_discrepancy(tiny, (np.array([1e-9]),)) == pytest.approx(1e-3, rel=1e-6)


def test_run_gradient_checks_all_pass():
    results = run_gradient_checks(draws=10, seed=1)
    # 4 network orders + 2 modes x 4 trial orders + 2 loss modes
    assert len(results) == 14
    names = [r.name for r in results]
    assert len(set(names)) == 14
    for res in results:
        assert isinstance(res, GradCheckResult)
        assert res.draws == 10
        assert res.passed
        assert res.max_rel_error <= 1e-5


def test_run_gradient_checks_is_deterministic():
    first = run_gradient_checks(draws=5, seed=3)
    second = run_gradient_checks(draws=5, seed=3)
    assert [r.max_rel_error for r in first] == [r.max_rel_error for r in second]
