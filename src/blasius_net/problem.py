"""Collocation residual and training loss for the boundary-layer ODE.

The equation solved is y''' + (1/2) y y'' = 0 on [0, L].  The loss is the sum
of squared residuals over a fixed collocation grid; the ``penalty`` trial
family adds lambda * (y'(L) - 1)^2 to pull the far-field slope to one.  The
``paper`` family pins the far end through its envelope instead, so the penalty
weight is forced to zero there.

LossEvaluator builds the trial jet (trial.trial_jet) of the grid once and
returns loss and exact parameter gradient in one fused pass.  Training hits
this path tens of thousands of times, so it works on a raw (S, 3, H) stack
theta of S weight arrays (rows v, u, w, the layout of
NetworkParams.weights) and returns one total per entry and a fresh
(S, 3, H) gradient, rows d_v, d_u, d_w.  report and the module-level
loss and loss_gradient wrappers evaluate a stack of one.
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
    def equidistant(cls, count: int, domain_end: float) -> "CollocationGrid":
        if count < 2:
            raise ValueError("equidistant grid needs at least two points")
        return cls(np.linspace(0.0, domain_end, count))


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


class LossEvaluator:
    """Fused loss / gradient evaluation on a fixed grid, for a stack of weight sets.

    The trial jet (trial.trial_jet) evaluates y, y'' and y''' at the grid
    points, plus y' at the domain end in penalty mode, and pulls the
    cotangent back onto the weights: (dL/dy0, dL/dy2, dL/dy3) on each grid
    row, and (dL/dy1, 0, 0) on the end row, whose cotangent sits on y', y''
    and y'''.  This class adds the residual, the penalty and that cotangent,
    so one evaluate() call is a fixed handful of array operations for the
    whole stack plus a short scalar tail per entry.  Each entry's total is its
    squared residuals added left to right in grid order, then its penalty,
    so it does not depend on the stack around it.  Scratch arrays are reused
    between calls to keep the training loop cheap; everything returned is
    fresh.
    """

    def __init__(self, spec: TrialSpec, grid: CollocationGrid,
                 penalty_weight: float = DEFAULT_PENALTY_WEIGHT):
        lam = float(penalty_weight)
        if not np.isfinite(lam) or lam < 0.0:
            raise ValueError("penalty_weight must be finite and non-negative")
        pts = grid.points
        self.point_count = m = pts.size
        # the paper family pins the far end through its envelope: no penalty
        self.penalty_active = spec.mode is TrialMode.PENALTY and lam > 0.0
        self.penalty_weight = lam if spec.mode is TrialMode.PENALTY else 0.0
        xs, orders = pts, (0, 2, 3)
        if self.penalty_active:
            # the end row's cotangent sits on y', y'' and y'''
            xs = np.append(pts, spec.domain_end)
            orders = ((0, 2, 3),) * m + ((1, 2, 3),)
        self._rows = xs.size
        self._jet = trial_jet(spec, xs, orders)
        self._y = None

    def _bind(self, y: np.ndarray) -> None:
        """Flat views onto the jet's buffers, rebuilt whenever the jet reallocates them."""
        jet = self._jet
        rows, m = self._rows, self.point_count
        size = y.shape[0] * rows
        self._y = y
        flat = y.reshape(size, 4)
        self._y0, self._y2, self._y3 = flat[:, 0], flat[:, 2], flat[:, 3]
        self._c_y0, self._c_y2, self._c_y3 = jet.cotangent.reshape(size, 3).T
        self._r = np.empty(size)
        if self.penalty_active:
            self._r_end = self._r[m::rows]
            self._y1_end = y[:, m, 1, 0]
            self._err = np.empty(y.shape[0])
            self._c_y1_end = jet.cotangent[:, m, 0, 0]

    def evaluate(self, theta: np.ndarray):
        """Return (totals, grad) for the float64 (S, 3, H) weight stack theta.

        totals is a list of S floats; grad is the fresh (S, 3, H) gradient,
        rows d_v, d_u, d_w.

        Overflow is deliberately left unguarded: a diverging parameter set
        yields a non-finite total, which is the caller's divergence signal.
        The caller decides whether numpy warns about it (np.errstate); the
        training loop silences it once around all of its calls.
        """
        # hot path: out arguments are positional, since this runs once per
        # training iteration
        mul = np.multiply
        jet = self._jet
        y = jet.forward(theta)
        if y is not self._y:
            self._bind(y)
        r = self._r
        mul(self._y0, 0.5, r)
        mul(r, self._y2, r)
        np.add(r, self._y3, r)

        # per entry: squares added left to right, then lambda * err * err
        rows, m = self._rows, self.point_count
        values = r.tolist()
        totals = []
        lam = self.penalty_weight
        errs = [0.0] * theta.shape[0]
        if self.penalty_active:
            errs = np.subtract(self._y1_end, 1.0, self._err).tolist()
            # the end row carries the slope penalty, not a residual
            self._r_end.fill(0.0)
        for err, start in zip(errs, range(0, len(values), rows)):
            total = 0.0
            for val in values[start:start + m]:
                total += val * val
            totals.append(total + lam * err * err)

        mul(r, self._y2, self._c_y0)
        mul(r, self._y0, self._c_y2)
        mul(r, 2.0, self._c_y3)
        if self.penalty_active:
            # the zero residual left 0 in the end row's y'' and y''' columns
            mul(self._err, 2.0 * lam, self._c_y1_end)
        return totals, jet.pull()

    def report(self, params: NetworkParams) -> LossReport:
        with np.errstate(all="ignore"):
            totals, _ = self.evaluate(params.weights[None])
        err = float(self._err[0]) if self.penalty_active else 0.0
        return LossReport(total=totals[0], residuals=self._r[:self.point_count],
                          penalty_term=self.penalty_weight * err * err)


def loss(spec: TrialSpec, params: NetworkParams, grid: CollocationGrid,
         penalty_weight: float = DEFAULT_PENALTY_WEIGHT) -> LossReport:
    """Collocation loss over the grid (plus far-slope penalty for the penalty family)."""
    return LossEvaluator(spec, grid, penalty_weight).report(params)


def loss_gradient(spec: TrialSpec, params: NetworkParams, grid: CollocationGrid,
                  penalty_weight: float = DEFAULT_PENALTY_WEIGHT) -> np.ndarray:
    """Exact (3, H) gradient of the collocation loss with respect to (v, u, w)."""
    with np.errstate(all="ignore"):
        return LossEvaluator(spec, grid, penalty_weight).evaluate(params.weights[None])[1][0]
