"""Collocation residual and training loss for the boundary-layer ODE.

The equation solved is y''' + (1/2) y y'' = 0 on [0, L].  The loss is the sum
of squared residuals over a fixed collocation grid; the ``penalty`` trial
family adds lambda * (y'(L) - 1)^2 to pull the far-field slope to one.  The
``paper`` family pins the far end through its envelope instead, so the penalty
weight is forced to zero there.

LossEvaluator builds the trial jet (trial.trial_jet) of the grid once and
returns loss and exact parameter gradient in one fused pass.  Training hits
this path tens of thousands of times, so it works on the raw (3, H) weight
array theta (rows v, u, w, the layout of NetworkParams.weights).  Every
gradient, here and in the module-level loss_gradient wrapper, is a fresh
(3, H) ndarray in that layout, rows d_v, d_u, d_w.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import NetworkParams
from .trial import TrialSpec, TrialMode, trial_jet

__all__ = [
    "DEFAULT_PENALTY_WEIGHT",
    "CollocationGrid",
    "LossReport",
    "LossEvaluator",
    "loss",
    "loss_gradient",
]

DEFAULT_PENALTY_WEIGHT = 10.0


@dataclass(frozen=True)
class CollocationGrid:
    """Strictly increasing, non-negative training abscissae."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=np.float64)
        if pts.ndim != 1 or pts.size < 1:
            raise ValueError("grid needs at least one point")
        if not np.all(np.isfinite(pts)):
            raise ValueError("grid points must be finite")
        if np.any(pts < 0.0):
            raise ValueError("grid points must be non-negative")
        if pts.size > 1 and np.any(np.diff(pts) <= 0.0):
            raise ValueError("grid points must be strictly increasing")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @classmethod
    def equidistant(cls, count: int = 10, domain_end: float = 6.0) -> "CollocationGrid":
        if count < 2:
            raise ValueError("equidistant grid needs at least two points")
        return cls(np.linspace(0.0, domain_end, count))

    def __len__(self) -> int:
        return int(self.points.size)


@dataclass(frozen=True)
class LossReport:
    """Loss total with its parts.

    penalty_term is the lambda-weighted far-slope contribution, so
    total == sum(residuals**2) + penalty_term holds exactly as summed
    (left-to-right, in grid order).
    """

    total: float
    residuals: np.ndarray
    penalty_term: float

    def __post_init__(self):
        res = np.array(self.residuals, dtype=np.float64)
        res.flags.writeable = False
        object.__setattr__(self, "residuals", res)


def _ordered_square_sum(values: np.ndarray) -> float:
    total = 0.0
    for val in values.tolist():
        total += val * val
    return total


class LossEvaluator:
    """Fused loss / gradient evaluation on a fixed grid.

    The trial jet (trial.trial_jet) evaluates y, y'' and y''' at the grid
    points, plus y' at the domain end in penalty mode, and pulls the
    residual cotangent (dL/dy0, dL/dy2, dL/dy3) back onto the weights.  This
    class adds the residual, the penalty and that cotangent, so one
    evaluate() call is a fixed handful of batched array operations.  Scratch
    arrays are reused between calls to keep the training loop cheap;
    everything returned is a fresh copy.
    """

    def __init__(self, spec: TrialSpec, grid: CollocationGrid,
                 penalty_weight: float = DEFAULT_PENALTY_WEIGHT):
        lam = float(penalty_weight)
        if not np.isfinite(lam) or lam < 0.0:
            raise ValueError("penalty_weight must be finite and non-negative")
        pts = grid.points
        self.spec = spec
        self.grid = grid
        self.point_count = m = pts.size
        # the paper family pins the far end through its envelope: no penalty
        self.penalty_active = spec.mode is TrialMode.PENALTY and lam > 0.0
        self.penalty_weight = lam if spec.mode is TrialMode.PENALTY else 0.0
        xs = np.append(pts, spec.domain_end) if self.penalty_active else pts
        jet = self._jet = trial_jet(spec, xs, (0, 2, 3))
        self._y0 = jet.y[:, 0, 0]
        self._y2 = jet.y[:, 2, 0]
        self._y3 = jet.y[:, 3, 0]
        self._r = np.empty(xs.size)
        self._c_y0 = jet.cotangent[:, 0, 0]
        self._c_y2 = jet.cotangent[:, 1, 0]
        self._c_y3 = jet.cotangent[:, 2, 0]
        if self.penalty_active:
            # the end row's cotangent sits on y' = F' N + F N'
            self._f1_end, self._f0_end = jet.linear[m, 1, :2].tolist()

    def evaluate(self, theta: np.ndarray, need_grad: bool = True):
        """Return (total, residuals, penalty_term, grad) for the raw (3, H) weights theta.

        grad is the (3, H) gradient, rows d_v, d_u, d_w, or None when
        need_grad is false; every returned array is fresh.

        Overflow is deliberately left unguarded: a diverging parameter set
        yields a non-finite total, which is the caller's divergence signal,
        so numpy warnings are suppressed for the evaluation.
        """
        theta = np.asarray(theta, dtype=np.float64)
        with np.errstate(all="ignore"):
            # hot path: out arguments are positional, since this runs once
            # per training iteration
            mul = np.multiply
            m = self.point_count
            jet = self._jet
            y = jet.forward(theta, need_grad)
            r = self._r
            mul(self._y0, 0.5, r)
            mul(r, self._y2, r)
            np.add(r, self._y3, r)

            if self.penalty_active:
                slope_err = float(y[m, 1, 0]) - 1.0
                penalty = self.penalty_weight * slope_err * slope_err
                # the end row carries the slope penalty, not a residual
                r[m] = 0.0
            else:
                penalty = 0.0
            total = _ordered_square_sum(r[:m]) + penalty

            if not need_grad:
                return total, r[:m].copy(), penalty, None

            mul(r, self._y2, self._c_y0)
            mul(r, self._y0, self._c_y2)
            mul(r, 2.0, self._c_y3)
            k_rows = jet.pull_to_network()
            if self.penalty_active:
                cp = 2.0 * self.penalty_weight * slope_err
                k_rows[0, m] = cp * self._f1_end
                k_rows[1, m] = cp * self._f0_end
            return total, r[:m].copy(), penalty, jet.pull_to_params(theta)

    def report(self, params: NetworkParams) -> LossReport:
        total, residuals, penalty, _ = self.evaluate(params.weights, need_grad=False)
        return LossReport(total=total, residuals=residuals, penalty_term=penalty)

    def gradient(self, params: NetworkParams) -> np.ndarray:
        return self.evaluate(params.weights)[3]


def loss(spec: TrialSpec, params: NetworkParams, grid: CollocationGrid,
         penalty_weight: float = DEFAULT_PENALTY_WEIGHT) -> LossReport:
    """Collocation loss over the grid (plus far-slope penalty for the penalty family)."""
    return LossEvaluator(spec, grid, penalty_weight).report(params)


def loss_gradient(spec: TrialSpec, params: NetworkParams, grid: CollocationGrid,
                  penalty_weight: float = DEFAULT_PENALTY_WEIGHT) -> np.ndarray:
    """Exact (3, H) gradient of the collocation loss with respect to (v, u, w)."""
    return LossEvaluator(spec, grid, penalty_weight).gradient(params)
