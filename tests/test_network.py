"""Unit tests for the sigmoid network: values, input and parameter derivatives."""

import numpy as np
import pytest

from blasius_net.network import (
    MAX_DERIVATIVE_ORDER,
    NetworkParams,
    _sigmoid_stack,
    input_derivative,
    param_gradient,
)

from helpers import (
    central_diff,
    fd_param_triple,
    max_normalized_diff,
    random_params,
    ref_input_derivative,
    ref_sigmoid,
)

TOP = MAX_DERIVATIVE_ORDER + 1  # the stack goes one order past the input derivatives


def sigmoid_stack(z):
    """sigma and its first four derivatives on z, as a (5,) + z.shape array."""
    z = np.asarray(z, dtype=np.float64)
    return _sigmoid_stack(z, np.empty((TOP + 1,) + z.shape))


def test_sigmoid_midpoint_values():
    assert sigmoid_stack([0.0])[:, 0].tolist() == [0.5, 0.25, 0.0, -0.125, 0.0]


def test_sigmoid_saturates_without_overflow():
    with np.errstate(all="raise"):
        stack = sigmoid_stack([1000.0, -1000.0])
    assert stack[0].tolist() == [1.0, 0.0]
    assert np.all(stack[1:] == 0.0)


def test_sigmoid_symmetry():
    rng = np.random.default_rng(7)
    z = rng.uniform(-8.0, 8.0, 50)
    plus = sigmoid_stack(z)
    minus = sigmoid_stack(-z)
    np.testing.assert_allclose(minus[0], 1.0 - plus[0], rtol=0, atol=1e-15)
    # odd-order derivatives are even functions, even-order ones odd
    for order in range(1, TOP + 1):
        sign = 1.0 if order % 2 else -1.0
        atol = 1e-16 if order <= 2 else 1e-15
        np.testing.assert_allclose(minus[order], sign * plus[order], rtol=0, atol=atol)


def test_sigmoid_derivatives_match_finite_differences():
    rng = np.random.default_rng(11)
    z = rng.uniform(-6.0, 6.0, 100)
    analytic = sigmoid_stack(z)
    for order in range(1, TOP + 1):
        numeric = central_diff(lambda t: sigmoid_stack(t)[order - 1], z)
        np.testing.assert_allclose(analytic[order], numeric, atol=1e-9, rtol=1e-7)


def test_forward_single_saturating_unit():
    # w = 0 makes the unit constant: 2 * sigmoid(0) = 1 for any input
    params = NetworkParams([2.0], [0.0], [0.0])
    assert input_derivative(params, 7.3, 0) == 1.0
    assert input_derivative(params, -2.0, 0) == 1.0


def test_forward_matches_manual_sum():
    rng = np.random.default_rng(23)
    for _ in range(25):
        params = random_params(rng, 7)
        x = rng.uniform(-3.0, 3.0)
        manual = sum(
            v * ref_sigmoid(w * x + u, 0)
            for v, u, w in zip(*params.weights)
        )
        assert input_derivative(params, x, 0) == pytest.approx(manual, rel=1e-14, abs=1e-14)


def test_input_derivative_order_zero_is_forward():
    rng = np.random.default_rng(31)
    params = random_params(rng, 5)
    for x in rng.uniform(-2.0, 6.0, 10):
        assert input_derivative(params, x, 0) == pytest.approx(
            ref_input_derivative(params, x, 0), rel=1e-14, abs=1e-14)


def test_input_derivative_single_unit_closed_form():
    params = NetworkParams([1.5], [0.3], [-0.7])
    x = 1.2
    z = -0.7 * x + 0.3
    for order in range(MAX_DERIVATIVE_ORDER + 1):
        expected = 1.5 * (-0.7) ** order * ref_sigmoid(z, order)
        assert input_derivative(params, x, order) == pytest.approx(expected, rel=1e-15)


def test_input_derivatives_match_finite_differences():
    rng = np.random.default_rng(43)
    for order in range(1, MAX_DERIVATIVE_ORDER + 1):
        for _ in range(60):
            params = random_params(rng, 4)
            x = rng.uniform(-2.0, 6.0)
            numeric = central_diff(lambda t: input_derivative(params, t, order - 1), x)
            analytic = input_derivative(params, x, order)
            assert analytic == pytest.approx(numeric, abs=1e-8, rel=1e-6)


def test_input_derivative_order_validation():
    params = NetworkParams([1.0], [0.0], [1.0])
    with pytest.raises(ValueError):
        input_derivative(params, 0.5, MAX_DERIVATIVE_ORDER + 1)
    with pytest.raises(TypeError):
        input_derivative(params, 0.5, False)


def test_param_gradient_matches_finite_differences():
    rng = np.random.default_rng(59)
    for order in range(MAX_DERIVATIVE_ORDER + 1):
        for _ in range(15):
            params = random_params(rng, 4)
            x = rng.uniform(0.05, 5.95)
            analytic = param_gradient(params, x, order)
            numeric = fd_param_triple(lambda p: input_derivative(p, x, order), params)
            assert max_normalized_diff(analytic, numeric) <= 1e-5


def test_param_gradient_finite_at_zero_input_weight():
    # the w-gradient of the k-th derivative has a k * w**(k-1) factor that
    # must be treated as exactly zero at k = 0, not 0 * w**-1
    params = NetworkParams([0.8, -0.4], [0.1, -0.2], [0.0, 0.0])
    for order in range(MAX_DERIVATIVE_ORDER + 1):
        grad = param_gradient(params, 1.3, order)
        for part in grad:
            assert np.all(np.isfinite(part))
    analytic = param_gradient(params, 1.3, 0)
    numeric = fd_param_triple(lambda p: input_derivative(p, 1.3, 0), params)
    assert max_normalized_diff(analytic, numeric) <= 1e-5


def test_param_gradient_shapes_and_lock():
    params = NetworkParams([1.0, 2.0, 3.0], [0.0, 0.1, 0.2], [0.5, -0.5, 1.0])
    grad = param_gradient(params, 0.7, 1)
    # one plain (3, H) float64 array, rows d_v, d_u, d_w
    assert type(grad) is np.ndarray
    assert grad.shape == (3, 3)
    assert grad.dtype == np.float64
    # not locked but fresh: no call shares memory with another call's result
    again = param_gradient(params, 0.7, 1)
    assert np.array_equal(grad, again)
    assert not np.shares_memory(grad, again)
    again[2, 1] = 99.0
    assert grad[2, 1] != 99.0


def test_network_params_validation():
    with pytest.raises(ValueError):
        NetworkParams([1.0, 2.0], [0.0], [1.0])
    with pytest.raises(ValueError):
        NetworkParams([np.nan], [0.0], [1.0])
    with pytest.raises(ValueError):
        NetworkParams([np.inf], [0.0], [1.0])
    with pytest.raises(ValueError):
        NetworkParams([], [], [])
    with pytest.raises(ValueError):
        NetworkParams([[1.0, 2.0]], [[0.0, 0.0]], [[1.0, 1.0]])


def test_network_params_are_immutable():
    params = NetworkParams([1.0], [0.0], [2.0])
    assert params.hidden_count == 1
    with pytest.raises(ValueError):
        params.weights[0, 0] = 5.0
    # one (3, H) array, rows v, u, w
    wide = NetworkParams([1.0, 2.0], [0.0, 0.1], [2.0, -2.0])
    assert wide.weights.shape == (3, 2)
    assert wide.weights.tolist() == [[1.0, 2.0], [0.0, 0.1], [2.0, -2.0]]
    with pytest.raises(ValueError):
        wide.weights[1, 0] = 5.0
    source = np.array([1.0, 2.0])
    copied = NetworkParams(source, source.copy(), source.copy())
    source[0] = 77.0  # later mutation of the source must not leak in
    assert copied.weights[0, 0] == 1.0


def test_network_params_compare_by_identity():
    # an elementwise array comparison has no single truth value, so == and
    # hash fall back to identity instead of raising for H > 1
    a = NetworkParams([1.0, 2.0, 3.0], [0.0, 0.1, 0.2], [0.5, -0.5, 1.0])
    b = NetworkParams([1.0, 2.0, 3.0], [0.0, 0.1, 0.2], [0.5, -0.5, 1.0])
    assert a == a
    assert (a == b) is False
    assert a != b
    assert {a} == {a}
    assert len({a, b, a}) == 2
