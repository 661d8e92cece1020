"""Single-hidden-layer sigmoid network with closed-form derivatives.

The network is N(x) = sum_i v_i * sigmoid(w_i * x + u_i), a 1-H-1 feed-forward
map.  Because the logistic sigmoid satisfies s' = s(1 - s), every derivative of
N with respect to the input x, and every gradient of those derivatives with
respect to the parameters (v, u, w), has a short closed form in the activation
values themselves.  No autodiff is involved anywhere.

With t = s(1 - s) the derivative chain used below is

    s'    = t
    s''   = t (1 - 2s)
    s'''  = t (1 - 6t)
    s'''' = t (1 - 2s)(1 - 12t)

_sigmoid_stack is the only place these formulas appear.  The fourth
derivative never leaves this module: it only feeds the parameter gradients of
the third input derivative.

NetworkJet is the one implementation of the rest.  It evaluates n_0..n_3 at
fixed abscissae, maps them per row through a fixed linear map (a trial
solution's Leibniz rule, or the identity for the bare network), and pulls
cotangents on the mapped values back onto (v, u, w).  input_derivative and
param_gradient are one-row wrappers around it, too slow for any hot loop.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "NetworkParams",
    "ParamGradient",
    "NetworkJet",
    "input_derivative",
    "param_gradient",
]

MAX_DERIVATIVE_ORDER = 3


def _locked_vector(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a one-dimensional vector")
    if arr.size == 0:
        raise ValueError(f"{name} must not be empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    arr.flags.writeable = False
    return arr


def _lock_fields(obj, mismatch: str) -> None:
    """Replace every field of a frozen dataclass by a locked copy; all must share one length."""
    arrays = {f.name: _locked_vector(getattr(obj, f.name), f.name) for f in fields(obj)}
    if len({arr.shape for arr in arrays.values()}) != 1:
        raise ValueError(mismatch)
    for name, arr in arrays.items():
        object.__setattr__(obj, name, arr)


@dataclass(frozen=True)
class NetworkParams:
    """Weights of the network: output weights v, hidden biases u, input weights w.

    All three vectors share one length H (the hidden-unit count).  Arrays are
    copied and locked read-only on construction; build a new instance to change
    anything.
    """

    output_weights: np.ndarray
    hidden_biases: np.ndarray
    input_weights: np.ndarray

    def __post_init__(self):
        _lock_fields(self, "output_weights, hidden_biases and input_weights must share one length")

    @property
    def hidden_count(self) -> int:
        return int(self.output_weights.shape[0])


@dataclass(frozen=True)
class ParamGradient:
    """Gradient of some scalar with respect to (v, u, w), in that order."""

    d_output_weights: np.ndarray
    d_hidden_biases: np.ndarray
    d_input_weights: np.ndarray

    def __post_init__(self):
        _lock_fields(self, "gradient components must share one length")


def _check_order(order: int, top: int) -> None:
    if not isinstance(order, int) or isinstance(order, bool):
        raise TypeError("order must be an integer")
    if not 0 <= order <= top:
        raise ValueError(f"order must be in 0..{top}, got {order}")


def _sigmoid_stack(z: np.ndarray, max_order: int, out=None):
    """[sigma, sigma', ..., sigma^(max_order)] elementwise on the array z, max_order in 0..4.

    out holds five arrays shaped like z (a (5,) + z.shape array or a sequence
    of five views; allocated when None); entries 0..max_order are written
    and out is returned.  The tanh form of sigma is overflow-free for any z.
    """
    _check_order(max_order, MAX_DERIVATIVE_ORDER + 1)
    if out is None:
        out = np.empty((MAX_DERIVATIVE_ORDER + 2,) + z.shape)
    mul = np.multiply
    add = np.add
    s, t, g2, g3, g4 = out
    mul(z, 0.5, s)
    np.tanh(s, s)
    add(s, 1.0, s)
    mul(s, 0.5, s)
    if max_order >= 1:
        np.subtract(1.0, s, t)
        mul(t, s, t)
    if max_order >= 2:
        mul(s, -2.0, g2)
        add(g2, 1.0, g2)
        mul(g2, t, g2)
    if max_order >= 3:
        mul(t, -6.0, g3)
        add(g3, 1.0, g3)
        mul(g3, t, g3)
    if max_order >= 4:
        mul(t, -12.0, g4)
        add(g4, 1.0, g4)
        mul(g4, g2, g4)
    return out


class NetworkJet:
    """Network input derivatives at fixed abscissae, mapped row by row through a linear map.

    At each abscissa x_r the network's input derivatives are
    n_l = sum_h v_h w_h^l sigma^(l)(w_h x_r + u_h) for l = 0..3, and the jet
    holds y_k = offset[r, k] + sum_l linear[r, k, l] n_l for k = 0..3.  A
    trial solution supplies offset and linear from the Leibniz rule; the
    bare network (NetworkJet.bare) has linear = I and offset = 0.

    The adjoint takes a cotangent on the outputs y_k with k in
    cotangent_orders, one column per order, back onto n and then onto
    (v, u, w).  Its table is the selected rows of linear, transposed once at
    construction.  Scratch buffers are reused between calls, so the arrays
    that forward and pull_to_network return are overwritten by the next
    call; pull_to_params needs a preceding forward with need_grad=True.
    """

    def __init__(self, xs, offset, linear, cotangent_orders=(0,)):
        xs = np.array(xs, dtype=np.float64)
        rows = xs.size
        self.xs = xs
        self.linear = np.array(linear, dtype=np.float64)
        self._xs_col = xs[:, None]
        self._xs_row = xs[None, :]
        self._offset = np.array(offset, dtype=np.float64)[:, :, None]
        self._adj = np.ascontiguousarray(self.linear[:, cotangent_orders, :].transpose(0, 2, 1))
        self.y = np.empty((rows, 4, 1))
        self.cotangent = np.empty((rows, len(cotangent_orders), 1))
        self._kt = np.empty((rows, 4, 1))
        self._kt_rows = self._kt[:, :, 0].T
        self._k = np.zeros((2, 4, rows))
        self._k_rows = self._k[0]
        self._k_scaled = self._k[1]
        self._k_lhs = self._k[0][:, None, :]
        self._k_both = self._k.reshape(2, 4, 1, rows)
        self._hidden = 0

    @classmethod
    def bare(cls, xs, cotangent_orders=(0,)) -> "NetworkJet":
        """The network's own derivatives: y_k = n_k."""
        rows = np.size(xs)
        return cls(xs, np.zeros((rows, 4)), np.broadcast_to(np.eye(4), (rows, 4, 4)),
                   cotangent_orders)

    def _ensure_scratch(self, hidden: int) -> None:
        if hidden == self._hidden:
            return
        rows = self.xs.size
        self._hidden = hidden
        self._z = np.empty((rows, hidden))
        self._sig = np.empty((5, rows, hidden))
        self._sig_parts = tuple(self._sig)
        self._sig_lo = self._sig[:4]
        self._sig_hi = self._sig[1:]
        # _wstack[0] holds w^0..w^3, _wstack[1] their w-derivatives 0,1,2w,3w^2
        self._wstack = np.zeros((2, 4, hidden))
        self._wstack[0, 0] = self._wstack[1, 1] = 1.0
        self._wpow = wpow = self._wstack[0]
        self._w1, self._w2, self._w3 = wpow[1], wpow[2], wpow[3]
        self._dw2, self._dw3 = self._wstack[1, 2], self._wstack[1, 3]
        self._vw = np.empty((4, hidden, 1))
        self._vw_rows = self._vw[:, :, 0]
        self._n = np.empty((4, rows, 1))
        self._n_t = self._n.transpose(1, 0, 2)
        self._s = np.empty((4, 1, hidden))
        self._s_rows = self._s[:, 0, :]
        self._tx = np.empty((2, 4, 1, hidden))
        self._tx_rows = self._tx[:, :, 0, :]
        self._prod_s = np.empty((2, 4, hidden))
        self._prod_tx = np.empty((2, 4, hidden))
        self._sum_s = np.empty((2, hidden))
        self._sum_tx = np.empty((2, hidden))

    def forward(self, v: np.ndarray, u: np.ndarray, w: np.ndarray,
                need_grad: bool = False) -> np.ndarray:
        """Fill and return the (rows, 4, 1) buffer y for raw float64 weight vectors."""
        # hot path: out arguments are positional, since training runs this
        # once per iteration
        mul = np.multiply
        self._ensure_scratch(v.shape[0])
        z = self._z
        mul(self._xs_col, w, z)
        np.add(z, u, z)
        _sigmoid_stack(z, 4 if need_grad else 3, self._sig_parts)

        # n_l = sum_h v_h w_h^l sigma^(l), batched over l = 0..3
        np.copyto(self._w1, w)
        mul(w, w, self._w2)
        mul(self._w2, w, self._w3)
        mul(v, self._wpow, self._vw_rows)
        np.matmul(self._sig_lo, self._vw, self._n)

        y = self.y
        np.matmul(self.linear, self._n_t, y)
        np.add(y, self._offset, y)
        return y

    def pull_to_network(self) -> np.ndarray:
        """Map the cotangent buffer onto n: the (4, rows) buffer k, writable by the caller."""
        np.matmul(self._adj, self.cotangent, self._kt)
        k_rows = self._k_rows
        np.copyto(k_rows, self._kt_rows)
        return k_rows

    def pull_to_params(self, v: np.ndarray):
        """Map the cotangent k on n onto fresh gradients (d_v, d_u, d_w).

        For z = w x + u: d/dv = sum_l w^l s_l, d/du = v sum_l w^l t_l and
        d/dw = v sum_l (l w^(l-1) s_l + w^l x_l), where s_l = k_l . sigma^(l),
        t_l = k_l . sigma^(l+1) and x_l = (k_l x) . sigma^(l+1), summed over rows.
        """
        mul = np.multiply
        add = np.add
        mul(self._k_rows, self._xs_row, self._k_scaled)
        np.matmul(self._k_lhs, self._sig_lo, self._s)
        np.matmul(self._k_both, self._sig_hi, self._tx)

        mul(self._w1, 2.0, self._dw2)
        mul(self._w2, 3.0, self._dw3)
        sum_s = self._sum_s
        sum_tx = self._sum_tx
        mul(self._wstack, self._s_rows, self._prod_s)
        add.reduce(self._prod_s, 1, None, sum_s)
        mul(self._tx_rows, self._wpow, self._prod_tx)
        add.reduce(self._prod_tx, 1, None, sum_tx)

        d_v = sum_s[0].copy()
        d_u = mul(sum_tx[0], v)
        d_w = add(sum_s[1], sum_tx[1])
        mul(d_w, v, d_w)
        return d_v, d_u, d_w

    def values(self, params: NetworkParams) -> np.ndarray:
        """y_0..y_3 at every abscissa, as a fresh (rows, 4) array."""
        y = self.forward(params.output_weights, params.hidden_biases, params.input_weights)
        return y[:, :, 0].copy()

    def gradient(self, params: NetworkParams) -> ParamGradient:
        """Gradient of the selected outputs y_k, summed over rows and orders."""
        v = params.output_weights
        self.forward(v, params.hidden_biases, params.input_weights, need_grad=True)
        self.cotangent.fill(1.0)
        self.pull_to_network()
        return ParamGradient(*self.pull_to_params(v))


def input_derivative(params: NetworkParams, x: float, order: int) -> float:
    """d^k N / dx^k at x: sum_i v_i w_i^k sigma^(k)(w_i x + u_i), k in 0..3."""
    _check_order(order, MAX_DERIVATIVE_ORDER)
    return float(NetworkJet.bare([x]).values(params)[0, order])


def param_gradient(params: NetworkParams, x: float, order: int) -> ParamGradient:
    """Gradient of the k-th input derivative with respect to every parameter.

    For z_i = w_i x + u_i:

        d/dv_i = w_i^k sigma^(k)(z_i)
        d/du_i = v_i w_i^k sigma^(k+1)(z_i)
        d/dw_i = v_i (k w_i^(k-1) sigma^(k)(z_i) + w_i^k x sigma^(k+1)(z_i))
    """
    _check_order(order, MAX_DERIVATIVE_ORDER)
    return NetworkJet.bare([x], (order,)).gradient(params)
