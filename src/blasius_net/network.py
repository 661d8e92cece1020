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

The parameters of one network travel as one (3, H) float64 array with rows
v, u, w: NetworkParams stores it, locked, as ``weights``, and every gradient
of some scalar with respect to (v, u, w) is a plain, fresh (3, H) ndarray in
the same layout, rows d_v, d_u, d_w.

NetworkJet is the one implementation of the rest.  It evaluates n_0..n_3 at
fixed abscissae, maps them per row through a fixed linear map (a trial
solution's Leibniz rule, or the identity for the bare network), and pulls
cotangents on the mapped values back onto the weights: forward fills
(S, rows, 4) from a stack theta of S networks, (S, 3, H), the caller
writes the (S, rows, orders) cotangent buffer, and pull returns the
(S, 3, H) gradient, each entry bit-identical to a stack of one; gradient
does all three with a cotangent of ones.  The abscissae are shared by
every entry, xs of shape (rows,), or given per entry, xs of shape (S, rows)
with the map's offset and linear parts per entry too; an entry's bits are
the same either way.  Training stacks its seeds on shared abscissae; the
gradient audit stacks each block of draws, every draw's own weights and
perturbations at that draw's abscissa.  input_derivative and
param_gradient are stacks of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "NETWORK_MAX_HIDDEN",
    "NetworkParams",
    "NetworkJet",
    "input_derivative",
    "param_gradient",
]

MAX_DERIVATIVE_ORDER = 3
# 5x the largest network the roadmap's recipes use (H = 80).  At the cap,
# solve, profile and compare at their defaults peak at ~30 MB, the
# interpreter's own; a profile's jet block (profiles.CSV_BLOCK rows) adds
# ~50 KB per hidden unit, ~20 MB
NETWORK_MAX_HIDDEN = 400


def _constant(value: float) -> np.ndarray:
    const = np.array(value, dtype=np.float64)
    const.flags.writeable = False
    return const


# The hot path's constant operands, as locked 0-d float64 arrays: a ufunc
# converts a Python float operand on every call (about 0.25 us a call with
# numpy 2.4), a 0-d array it takes as it is.  Against float64 arrays both
# select the same DOUBLE loop, so the bits are the same.
# problem.LossEvaluator shares them.
_HALF = _constant(0.5)
_ONE = _constant(1.0)
_TWO = _constant(2.0)
_THREE = _constant(3.0)
_MINUS_TWO = _constant(-2.0)
_MINUS_SIX = _constant(-6.0)
_MINUS_TWELVE = _constant(-12.0)


@dataclass(frozen=True, init=False, eq=False)
class NetworkParams:
    """Weights of the network: output weights v, hidden biases u, input weights w.

    weights holds them as rows 0, 1, 2 of one (3, H) array (H = hidden-unit
    count), read as weights[0], weights[1] and weights[2].  The vectors are
    copied and locked on construction; build a new instance to change
    anything.  Instances compare and hash by identity: an elementwise
    array comparison has no single truth value.
    """

    weights: np.ndarray

    def __init__(self, output_weights, hidden_biases, input_weights):
        try:
            weights = np.array((output_weights, hidden_biases, input_weights), dtype=np.float64)
        except ValueError as exc:  # ragged rows, or an entry that is no number
            raise ValueError(f"weight groups must be numeric vectors of one length: {exc}") from None
        if weights.ndim != 2:
            raise ValueError("weight groups must be one-dimensional vectors")
        if weights.shape[1] == 0:
            raise ValueError("weight groups must not be empty")
        if not np.all(np.isfinite(weights)):
            raise ValueError("weights contain non-finite entries")
        weights.flags.writeable = False
        object.__setattr__(self, "weights", weights)

    @property
    def hidden_count(self) -> int:
        return int(self.weights.shape[1])


def _check_order(order: int, top: int, low: int = 0) -> None:
    if not isinstance(order, int) or isinstance(order, bool):
        raise TypeError("order must be an integer")
    if not low <= order <= top:
        raise ValueError(f"order must be in {low}..{top}, got {order}")


def _sigmoid_stack(z: np.ndarray, out):
    """[sigma, sigma', ..., sigma^(4)] elementwise on the array z.

    out holds five arrays shaped like z (a (5,) + z.shape array or a sequence
    of five views); all five are written and out is returned.  z is read
    only before out[0] is written, so it may share memory with out.  The
    tanh form of sigma is overflow-free for any z.
    """
    mul = np.multiply
    add = np.add
    s, t, g2, g3, g4 = out
    mul(z, _HALF, s)
    np.tanh(s, s)
    add(s, _ONE, s)
    mul(s, _HALF, s)
    np.subtract(_ONE, s, t)
    mul(t, s, t)
    mul(s, _MINUS_TWO, g2)
    add(g2, _ONE, g2)
    mul(g2, t, g2)
    mul(t, _MINUS_SIX, g3)
    add(g3, _ONE, g3)
    mul(g3, t, g3)
    mul(t, _MINUS_TWELVE, g4)
    add(g4, _ONE, g4)
    mul(g4, g2, g4)
    return out


class NetworkJet:
    """Network input derivatives at fixed abscissae, mapped row by row through a linear map.

    At each abscissa x_r the network's input derivatives are
    n_l = sum_h v_h w_h^l sigma^(l)(w_h x_r + u_h) for l = 0..3, and the jet
    holds y_k = offset[r, k] + sum_l linear[r, k, l] n_l for k = 0..3.  A
    trial solution supplies offset and linear from the Leibniz rule; the
    bare network (NetworkJet.bare) has linear = I and offset = 0.

    Every call takes a stack of S weight sets, a float64 (S, 3, H) theta,
    and treats its entries independently: each matrix product sees one
    entry's slice with the shape and strides of a stack of one, and every
    sum runs in a fixed order, so an entry's results do not depend on S or
    on its position in the stack.  xs is (rows,), shared by any stack, with
    offset (rows, 4) and linear (rows, 4, 4); or it is (S, rows), one row of
    abscissae per entry, with offset (S, rows, 4) and linear
    (S, rows, 4, 4), and the jet then takes stacks of exactly S.

    The protocol is forward, write the (S, rows, orders) buffer cotangent,
    pull.  cotangent_orders is one tuple of orders for every row
    or one tuple per row, all of one length; column j of row r's cotangent
    sits on y_k, k = cotangent_orders[r][j].  pull maps it onto n through
    those rows of linear, transposed once at construction, then onto theta.
    Scratch buffers (y, cotangent and the rest) are allocated for one
    (S, H) at a time and reused while it stays: forward returns the same y
    on every call, overwritten, and pull reads the activations of the last
    forward.

    The per-call elementwise operations that broadcast or stride the most
    take same-shape, contiguous operands instead.  On arrays this small a
    call costs its overhead, and numpy runs an operand broadcast along an
    inner axis, or a strided one, as one short loop per row, where
    same-shape contiguous operands take one flat loop: about three times
    the cost at S = 1.  So the scratch holds the abscissae repeated over
    the units for z = x w + u and to k's shape for the pull, forward repeats
    u and w over the rows by one slice copy, and theta and the pull's sums
    are stored with the weight row leading, each of v, u, w and d_v, d_u,
    d_w a contiguous (S, H) block.  The layout moves no value: each is the
    same product or sum of the same numbers, and the matrix products take
    the operands they would take without it.
    """

    def __init__(self, xs, offset, linear, cotangent_orders=(0,)):
        xs = np.array(xs, dtype=np.float64)
        if xs.ndim not in (1, 2):
            raise ValueError("xs must be (rows,) or (S, rows)")
        self.xs = xs
        linear = np.array(linear, dtype=np.float64)
        # shared abscissae get leading axes of one: a stack of one then meets
        # no broadcasting
        lead = xs.shape[:-1] or (1,)
        self._linear_b = linear.reshape(lead + linear.shape[-3:])
        self._offset = np.array(offset, dtype=np.float64).reshape(self._linear_b.shape[:-1])[..., None]
        orders = np.array(cotangent_orders, dtype=np.intp)
        rows, self._orders = xs.shape[-1], orders.shape[-1]
        orders = np.broadcast_to(orders, (rows, self._orders))
        # row r's adjoint is linear[r, orders[r]] transposed, (4, orders)
        adj = self._linear_b[:, np.arange(rows)[:, None], orders]
        self._adj = np.ascontiguousarray(adj.transpose(0, 1, 3, 2))
        self._shape = None

    @classmethod
    def bare(cls, xs, cotangent_orders=(0,)) -> "NetworkJet":
        """The network's own derivatives: y_k = n_k."""
        shape = np.shape(xs)
        return cls(xs, np.zeros(shape + (4,)), np.broadcast_to(np.eye(4), shape + (4, 4)),
                   cotangent_orders)

    def _ensure_scratch(self, shape: tuple) -> None:
        if shape == self._shape:
            return
        stack, _, hidden = shape
        if self.xs.ndim == 2 and stack != self.xs.shape[0]:
            raise ValueError(f"a jet with abscissae per entry takes stacks of {self.xs.shape[0]}, "
                             f"got {stack}")
        rows = self.xs.shape[-1]
        self._shape = shape
        # y and cotangent view the (..., 1) columns that np.matmul takes
        self._y_col = np.empty((stack, rows, 4, 1))
        self._cotangent_col = np.empty((stack, rows, self._orders, 1))
        self.y, self.cotangent = self._y_col[..., 0], self._cotangent_col[..., 0]
        # forward copies theta into rows v, u, w, each a contiguous (S, H) block
        theta_rows = np.empty((3, stack, hidden))
        self._theta = theta_rows.transpose(1, 0, 2)
        self._v, _, self._w = theta_rows
        self._sig = np.empty((5, stack, rows, hidden))
        # z = x w + u from the abscissae repeated over the units, and u and w
        # repeated over the rows by forward.  u, w and z are staged in the
        # orders 1, 2 and 4 of sig, which _sigmoid_stack writes only after it
        # has read z
        self._xs_rep = np.empty((stack, rows, hidden))
        self._xs_rep[...] = self.xs[..., None]
        self._uw_rep = self._sig[1:3]
        self._u_rep, self._w_rep = self._uw_rep
        self._uw_src = theta_rows[1:, :, None]
        self._z = self._sig[4]
        self._sig_parts = tuple(self._sig)
        self._sig_lo = self._sig[:4]
        self._sig_hi = self._sig[1:, None]
        # _wstack[0] holds w^0..w^3, _wstack[1] their w-derivatives 0,1,2w,3w^2
        self._wstack = np.zeros((2, 4, stack, hidden))
        self._wstack[0, 0] = self._wstack[1, 1] = 1.0
        self._wpow = wpow = self._wstack[0]
        self._w1, self._w2, self._w3 = wpow[1:]
        self._dw2, self._dw3 = self._wstack[1, 2:]
        self._vw = np.empty((4, stack, hidden, 1))
        self._vw_rows = self._vw[..., 0]
        # n is (S, 4, rows, 1): each entry's n_t column has the stride of a stack of one
        n = np.empty((stack, 4, rows, 1))
        self._n_out = n.transpose(1, 0, 2, 3)
        self._n_t = n.transpose(0, 2, 1, 3)
        # k[0, l] is the cotangent on n_l, k[1, l] the same scaled by x
        k = np.empty((2, 4, stack, rows))
        self._k, self._k_scaled = k
        # the abscissae repeated to k's shape, for k x in pull
        self._xs_k = np.empty((4, stack, rows))
        self._xs_k[...] = self.xs
        self._k_out = self._k.transpose(1, 2, 0)[..., None]
        self._k_lhs = self._k[:, :, None, :]
        self._k_both = k.transpose(1, 0, 2, 3)[:, :, :, None, :]
        self._s = np.empty((4, stack, 1, hidden))
        self._tx = np.empty((4, 2, stack, 1, hidden))
        # the products for the sums over l, with l leading so that no sum runs
        # along a contiguous axis: columns w^l s_l, w^l t_l, l w^(l-1) s_l and
        # w^l x_l, so that one reduction gives the sums in gradient order
        self._wstack_l = self._wstack.transpose(1, 0, 2, 3)
        self._wpow_b = wpow[:, None]
        self._s_b = self._s[:, None, :, 0]
        self._tx_rows = self._tx[:, :, :, 0]
        prod = self._prod = np.empty((4, 4, stack, hidden))
        self._prod_s, self._prod_tx = prod[:, 0::2], prod[:, 1::2]
        # sums[0..2] become d_v, d_u, d_w in place; sums[3] is w^l x_l.  Each
        # is a contiguous (S, H) block, returned as one (S, 3, H) copy
        self._sums = np.empty((4, stack, hidden))
        self._sum_parts = tuple(self._sums)
        self._grad = self._sums[:3].transpose(1, 0, 2)

    def forward(self, theta: np.ndarray) -> np.ndarray:
        """Fill and return the (S, rows, 4) buffer y for a float64 (S, 3, H) theta."""
        # hot path: out arguments are positional, constants are the 0-d
        # operands above and copies are slice assignments (np.copyto
        # dispatches through Python), since training runs this once per
        # iteration
        mul = np.multiply
        self._ensure_scratch(theta.shape)
        self._theta[...] = theta
        w = self._w
        z = self._z
        self._uw_rep[...] = self._uw_src
        mul(self._xs_rep, self._w_rep, z)
        np.add(z, self._u_rep, z)
        _sigmoid_stack(z, self._sig_parts)

        # n_l = sum_h v_h w_h^l sigma^(l), batched over l = 0..3
        self._w1[...] = w
        mul(w, w, self._w2)
        mul(self._w2, w, self._w3)
        mul(self._v, self._wpow, self._vw_rows)
        np.matmul(self._sig_lo, self._vw, self._n_out)

        y = self._y_col
        np.matmul(self._linear_b, self._n_t, y)
        np.add(y, self._offset, y)
        return self.y

    def pull(self) -> np.ndarray:
        """Pull the cotangent back onto a fresh (S, 3, H) gradient at the last forward's theta.

        The adjoint of the map puts a cotangent k_l on each n_l.  Then, rows
        d_v, d_u, d_w, for z = w x + u: d/dv = sum_l w^l s_l,
        d/du = v sum_l w^l t_l and d/dw = v sum_l (l w^(l-1) s_l + w^l x_l),
        where s_l = k_l . sigma^(l), t_l = k_l . sigma^(l+1) and
        x_l = (k_l x) . sigma^(l+1), summed over rows.
        """
        mul = np.multiply
        add = np.add
        np.matmul(self._adj, self._cotangent_col, self._k_out)
        mul(self._k, self._xs_k, self._k_scaled)
        np.matmul(self._k_lhs, self._sig_lo, self._s)
        np.matmul(self._k_both, self._sig_hi, self._tx)

        mul(self._w1, _TWO, self._dw2)
        mul(self._w2, _THREE, self._dw3)
        mul(self._wstack_l, self._s_b, self._prod_s)
        mul(self._tx_rows, self._wpow_b, self._prod_tx)
        add.reduce(self._prod, 0, None, self._sums)

        v = self._v
        _, d_u, d_w, sum_tx = self._sum_parts
        mul(d_u, v, d_u)
        add(d_w, sum_tx, d_w)
        mul(d_w, v, d_w)
        return self._grad.copy()

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        """Fresh (S, 3, H) gradient of the sum of each entry's selected outputs."""
        self.forward(theta)
        self.cotangent.fill(1.0)
        return self.pull()


# shims that perfbench/tracing.py patches by name; ROADMAP item 3 deletes
# them with the benchmark change that unpins them
def input_derivative(params: NetworkParams, x: float, order: int) -> float:
    """d^k N / dx^k at x: sum_i v_i w_i^k sigma^(k)(w_i x + u_i), k in 0..3."""
    _check_order(order, MAX_DERIVATIVE_ORDER)
    return float(NetworkJet.bare([x]).forward(params.weights[None])[0, 0, order])


def param_gradient(params: NetworkParams, x: float, order: int) -> np.ndarray:
    """(3, H) gradient of the k-th input derivative with respect to (v, u, w).

    For z_i = w_i x + u_i:

        d/dv_i = w_i^k sigma^(k)(z_i)
        d/du_i = v_i w_i^k sigma^(k+1)(z_i)
        d/dw_i = v_i (k w_i^(k-1) sigma^(k)(z_i) + w_i^k x sigma^(k+1)(z_i))
    """
    _check_order(order, MAX_DERIVATIVE_ORDER)
    return NetworkJet.bare([x], (order,)).gradient(params.weights[None])[0]
