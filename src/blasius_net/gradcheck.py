"""Finite-difference verification of every analytic gradient path.

Central differences with a fixed step, compared component-wise against the
closed forms.  Differences are normalized by the max-norm of the two gradient
vectors (with a small floor), the usual gradcheck convention: per-component
division breaks down whenever a single component happens to sit near zero
while the vector itself is large.

fd_param_gradient hands the objective all 2 * 3H perturbed weight sets of
each entry of a (D, 3, H) stack as one stack.  Each case of
run_gradient_checks is two callables of a weight stack and its abscissae:
value gives each entry's audited scalar, gradient each entry's analytic
(3, H) gradient.  Per block of at most AUDIT_BLOCK draws the audit compares
gradient at the block's weight sets with the differences of value over
their perturbations, each at its own draw's abscissa.  Each stacked entry
gives the bits its own call would, and the block bounds the audit's memory
whatever the number of draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .network import NetworkJet
from .problem import CollocationGrid, LossEvaluator
from .training import XorShift64Star, _draw_params
from .trial import TrialMode, TrialSpec, trial_jet

__all__ = ["GradCheckResult", "fd_param_gradient", "run_gradient_checks"]

HIDDEN = 5  # hidden units of every audited network
FD_STEP = 1e-6
REL_TOL = 1e-5
SCALE_FLOOR = 1e-6
AUDIT_BLOCK = 10  # draws per stacked call


@dataclass(frozen=True)
class GradCheckResult:
    name: str
    draws: int
    max_rel_error: float
    passed: bool


def fd_param_gradient(objective, weights) -> np.ndarray:
    """Central-difference gradient of an objective at each of D weight sets.

    weights is a (D, 3, H) stack of weight sets; the result has its shape.
    objective maps a (K, 3, H) stack of weight sets to their K values.  It
    is called once, on 2 * 3H sets per weight set, in order: for each weight
    set, the 3H sets that shift one of its weights by +FD_STEP, then the 3H
    that shift it by -FD_STEP.
    """
    weights = np.asarray(weights, np.float64)
    count = weights.shape[-2] * weights.shape[-1]
    sets = weights.reshape(-1, 1, 1, count)
    stack = np.broadcast_to(sets, (sets.shape[0], 2, count, count)).copy()
    diagonal = np.arange(count)
    stack[:, 0, diagonal, diagonal] += FD_STEP
    stack[:, 1, diagonal, diagonal] -= FD_STEP
    values = np.array(objective(stack.reshape((-1,) + weights.shape[-2:])), dtype=np.float64)
    values = values.reshape(-1, 2, count)
    return ((values[:, 0] - values[:, 1]) / (2.0 * FD_STEP)).reshape(weights.shape)


def gradient_discrepancy(analytic, numeric) -> float:
    """Worst component difference, normalized by the larger vector max-norm.

    Both are arrays of gradient vectors along the last axis: a (3, H)
    gradient holds the vectors d_v, d_u and d_w.  A NaN or an infinity in
    either makes the discrepancy infinite, so that it fails any tolerance.
    """
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    with np.errstate(invalid="ignore", over="ignore"):
        scale = np.maximum(np.maximum(np.abs(a).max(-1), np.abs(n).max(-1)), SCALE_FLOOR)
        worst = float(np.max(np.abs(a - n).max(-1) / scale))
    return worst if np.isfinite(worst) else math.inf


def run_gradient_checks(draws: int = 100, seed: int = 0) -> list[GradCheckResult]:
    """Exercise the three gradient operations against finite differences.

    Covers the network's own derivatives (orders 0..3), the trial solution's
    derivatives (both modes, orders 0..3) and the loss (both modes); every
    case uses fresh random networks of HIDDEN units and abscissae from a
    seeded deterministic stream, steps FD_STEP and passes within REL_TOL.
    Each block builds two jets with an abscissa per entry, one for its draws
    and one for their perturbations; each loss case reuses one evaluator.
    """
    if draws < 1:
        raise ValueError("draws must be at least 1")

    def case(name: str, rng: XorShift64Star, value, gradient,
             abscissae: bool = True) -> GradCheckResult:
        worst = 0.0
        for start in range(0, draws, AUDIT_BLOCK):
            size = min(AUDIT_BLOCK, draws - start)
            thetas = np.empty((size, 3, HIDDEN))
            xs = np.empty(size)
            for b in range(size):
                thetas[b] = _draw_params(rng, HIDDEN, 1.0)
                if abscissae:
                    xs[b] = rng.uniform(0.05, 5.95)
            analytic = gradient(thetas, xs)
            # every perturbation sits at its own draw's abscissa
            spread = np.repeat(xs, 2 * 3 * HIDDEN)
            numeric = fd_param_gradient(lambda stack: value(stack, spread), thetas)
            worst = max(worst, gradient_discrepancy(analytic, numeric))
        return GradCheckResult(name=name, draws=draws, max_rel_error=worst,
                               passed=worst <= REL_TOL)

    def jet_case(build, order: int):
        def value(stack, xs):
            return build(xs[:, None], (order,)).forward(stack)[:, 0, order]

        def gradient(stack, xs):
            return build(xs[:, None], (order,)).gradient(stack)
        return value, gradient

    def loss_case(evaluator: LossEvaluator):
        def evaluate(stack):
            with np.errstate(all="ignore"):
                return evaluator.evaluate(stack)
        return lambda stack, _: evaluate(stack)[0], lambda stack, _: evaluate(stack)[1]

    specs = {
        TrialMode.PAPER: TrialSpec(TrialMode.PAPER, 6.0),
        TrialMode.PENALTY: TrialSpec(TrialMode.PENALTY, 6.0),
    }
    grid = CollocationGrid.equidistant(10, 6.0)
    results = []

    for order in range(4):
        results.append(case(f"param_gradient order {order}", XorShift64Star(seed * 977 + order),
                            *jet_case(NetworkJet.bare, order)))

    for mode, spec in specs.items():
        for order in range(4):
            rng = XorShift64Star(seed * 1013 + order * 8 + (0 if mode is TrialMode.PAPER else 4))
            results.append(case(f"trial_param_gradient {mode.value} order {order}", rng,
                                *jet_case(partial(trial_jet, spec), order)))

    for mode, spec in specs.items():
        rng = XorShift64Star(seed * 2027 + (0 if mode is TrialMode.PAPER else 1))
        results.append(case(f"loss_gradient {mode.value}", rng,
                            *loss_case(LossEvaluator(spec, grid)), abscissae=False))
    return results
