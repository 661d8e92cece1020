"""Trial solutions y(x) = A(x) + F(x) * N(x) built around the sigmoid network.

A and F are fixed polynomials chosen so the wall conditions y(0) = 0 and
y'(0) = 0 hold identically, whatever the network does.  Two families:

* ``paper``:   A = x^3 + x^2,  F = x^2 (x - 6)^2.  The envelope vanishes (with
  its first derivative) at both x = 0 and x = 6, so y(6) = 252 is pinned no
  matter the parameters.  The node is the domain end: L must be 6.
* ``penalty``: A = 0,  F = x^2.  Nothing pins the far end; the far-field slope
  is enforced by a penalty term in the training loss instead.

Derivatives of y follow from the Leibniz rule on F * N; A and F derivatives
are hand-coded closed forms.  trial_jet turns both into the per-row linear
map y_k = A^(k) + sum_j C(k, j) F^(j) N^(k-j) of a NetworkJet, which every
trial-solution path evaluates.  It builds the map for abscissae of any
shape the jet takes: (rows,), shared by a whole stack, or (S, rows), one
row per stack entry.  The scalar functions below are one-row wrappers
around it, and trial_param_gradient returns a plain (3, H) array, rows
d_v, d_u, d_w.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .network import NetworkJet, NetworkParams, _check_order

__all__ = [
    "TrialMode",
    "TrialSpec",
    "trial_jet",
    "trial_value",
    "trial_derivative",
    "trial_param_gradient",
]

PAPER_NODE = 6.0  # fixed F-vanishing point of the "paper" family

# binomial rows for the Leibniz expansion up to third order
_BINOM = ((1.0,), (1.0, 1.0), (1.0, 2.0, 1.0), (1.0, 3.0, 3.0, 1.0))


class TrialMode(enum.Enum):
    PAPER = "paper"
    PENALTY = "penalty"


@dataclass(frozen=True)
class TrialSpec:
    """Trial family plus the right end L of the domain [0, L]; paper mode needs L = 6."""

    mode: TrialMode
    domain_end: float

    def __post_init__(self):
        if not isinstance(self.mode, TrialMode):
            raise TypeError("mode must be a TrialMode")
        end = float(self.domain_end)
        if not np.isfinite(end) or end <= 0.0:
            raise ValueError("domain_end must be finite and positive")
        if self.mode is TrialMode.PAPER and end != PAPER_NODE:
            raise ValueError(f"paper mode needs domain_end = {PAPER_NODE}, the node of its "
                             f"envelope; got {end}")
        object.__setattr__(self, "domain_end", end)


def offset_terms(mode: TrialMode, x: np.ndarray) -> tuple[np.ndarray, ...]:
    """A(x) and its first three derivatives, each shaped like x."""
    x = np.asarray(x, dtype=np.float64)
    if mode is TrialMode.PAPER:
        return (
            x**3 + x**2,
            3.0 * x**2 + 2.0 * x,
            6.0 * x + 2.0,
            np.full_like(x, 6.0),
        )
    zero = np.zeros_like(x)
    return (zero, zero, zero, zero)


def envelope_terms(mode: TrialMode, x: np.ndarray) -> tuple[np.ndarray, ...]:
    """F(x) and its first three derivatives, each shaped like x."""
    x = np.asarray(x, dtype=np.float64)
    if mode is TrialMode.PAPER:
        # x^2 (x-6)^2 = x^4 - 12 x^3 + 36 x^2
        return (
            x**2 * (x - PAPER_NODE) ** 2,
            4.0 * x**3 - 36.0 * x**2 + 72.0 * x,
            12.0 * x**2 - 72.0 * x + 72.0,
            24.0 * x - 72.0,
        )
    return (x**2, 2.0 * x, np.full_like(x, 2.0), np.zeros_like(x))


def trial_jet(spec: TrialSpec, xs, cotangent_orders=(0,)) -> NetworkJet:
    """NetworkJet of y, y', y'', y''' at the abscissae xs, which must lie in [0, L].

    xs is (rows,) or (S, rows), as NetworkJet takes it.  Row k of the
    Leibniz map puts C(k, j) F^(j) on N^(k-j); the offset row holds A and
    its derivatives.
    """
    xs = np.array(xs, dtype=np.float64)
    outside = ~((xs >= 0.0) & (xs <= spec.domain_end))  # NaN counts as outside
    if outside.any():
        raise ValueError(f"x = {xs[outside][0]} outside the trial domain [0, {spec.domain_end}]")
    f = envelope_terms(spec.mode, xs)
    linear = np.zeros(xs.shape + (4, 4))
    for k, row in enumerate(_BINOM):
        for j, coeff in enumerate(row):
            linear[..., k, k - j] = coeff * f[j]
    offset = np.stack(offset_terms(spec.mode, xs), axis=-1)
    return NetworkJet(xs, offset, linear, cotangent_orders)


# shims that perfbench/tracing.py patches by name; ROADMAP item 3 deletes
# them with the benchmark change that unpins them
def trial_value(spec: TrialSpec, params: NetworkParams, x: float) -> float:
    """y(x) = A(x) + F(x) N(x)."""
    return float(trial_jet(spec, [x]).forward(params.weights[None])[0, 0, 0])


def trial_derivative(spec: TrialSpec, params: NetworkParams, x: float, order: int) -> float:
    """k-th derivative of the trial solution at x, for k in 1..3 (Leibniz on F N)."""
    _check_order(order, 3, 1)
    return float(trial_jet(spec, [x]).forward(params.weights[None])[0, 0, order])


def trial_param_gradient(spec: TrialSpec, params: NetworkParams, x: float, order: int) -> np.ndarray:
    """(3, H) gradient of the k-th trial derivative (k = 0 means the value) w.r.t. (v, u, w).

    The offset A drops out; each Leibniz term contributes F^(j) times the
    parameter gradient of the matching network derivative.
    """
    _check_order(order, 3)
    return trial_jet(spec, [x], (order,)).gradient(params.weights[None])[0]
