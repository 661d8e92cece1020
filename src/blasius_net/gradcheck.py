"""Finite-difference verification of every analytic gradient path.

Central differences with a fixed step, compared component-wise against the
closed forms.  Differences are normalized by the max-norm of the two gradient
vectors (with a small floor), the usual gradcheck convention: per-component
division breaks down whenever a single component happens to sit near zero
while the vector itself is large.

fd_param_gradient hands the objective all 2 * 3H perturbed weight sets of
one draw as a single (2 * 3H, 3, H) stack, so each draw costs one stacked
jet or evaluator call instead of 2 * 3H calls; each stacked entry gives the
bits its own call would.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .network import NetworkJet, NetworkParams
from .problem import CollocationGrid, LossEvaluator
from .training import XorShift64Star, _draw_params
from .trial import TrialMode, TrialSpec, trial_jet

__all__ = ["GradCheckResult", "fd_param_gradient", "run_gradient_checks"]

FD_STEP = 1e-6
REL_TOL = 1e-5
SCALE_FLOOR = 1e-6


@dataclass(frozen=True)
class GradCheckResult:
    name: str
    draws: int
    max_rel_error: float
    passed: bool


def fd_param_gradient(objective, params: NetworkParams, step: float = FD_STEP) -> np.ndarray:
    """Central-difference gradient of an objective, shaped like params.weights.

    objective maps a (K, 3, H) stack of weight sets to their K values.  It is
    called once, on the 2 * 3H sets that shift one weight of params by +step
    (the first 3H) or by -step (the last 3H).
    """
    weights = params.weights
    count = weights.size
    stack = np.repeat(weights.reshape(1, 1, count), 2 * count, axis=1).reshape(2, count, count)
    diagonal = np.arange(count)
    stack[0, diagonal, diagonal] += step
    stack[1, diagonal, diagonal] -= step
    values = np.array(objective(stack.reshape((2 * count,) + weights.shape)), dtype=np.float64)
    return ((values[:count] - values[count:]) / (2.0 * step)).reshape(weights.shape)


def gradient_discrepancy(analytic, numeric) -> float:
    """Worst component difference, normalized by the larger vector max-norm."""
    worst = 0.0
    for a, n in zip(analytic, numeric):
        scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(n))), SCALE_FLOOR)
        worst = max(worst, float(np.max(np.abs(a - n))) / scale)
    return worst


def run_gradient_checks(draws: int = 100, seed: int = 0, hidden: int = 5,
                        step: float = FD_STEP, tol: float = REL_TOL) -> list[GradCheckResult]:
    """Exercise the three gradient operations against finite differences.

    Covers the network's own derivatives (orders 0..3), the trial solution's
    derivatives (both modes, orders 0..3) and the loss (both modes); every
    case uses fresh random parameters and abscissae from a seeded
    deterministic stream.  Each derivative draw builds one jet at its
    abscissa; each loss case reuses one evaluator.
    """
    if draws < 1:
        raise ValueError("draws must be at least 1")
    results = []

    def case(name: str, rng: XorShift64Star, probe) -> None:
        # probe(rng) -> (analytic gradient, stacked objective), after each parameter draw
        worst = 0.0
        for _ in range(draws):
            params = _draw_params(rng, hidden, 1.0)
            gradient, objective = probe(rng)
            analytic = gradient(params)
            numeric = fd_param_gradient(objective, params, step)
            worst = max(worst, gradient_discrepancy(analytic, numeric))
        results.append(GradCheckResult(name=name, draws=draws, max_rel_error=worst,
                                       passed=worst <= tol))

    def jet_probe(build, order: int):
        def probe(rng: XorShift64Star):
            jet = build([rng.uniform(0.05, 5.95)], (order,))
            return jet.gradient, lambda stack: jet.forward(stack)[:, 0, order, 0]
        return probe

    specs = {
        TrialMode.PAPER: TrialSpec(TrialMode.PAPER, 6.0),
        TrialMode.PENALTY: TrialSpec(TrialMode.PENALTY, 6.0),
    }
    grid = CollocationGrid.equidistant(10, 6.0)

    for order in range(4):
        case(f"param_gradient order {order}", XorShift64Star(seed * 977 + order),
             jet_probe(NetworkJet.bare, order))

    for mode, spec in specs.items():
        for order in range(4):
            rng = XorShift64Star(seed * 1013 + order * 8 + (0 if mode is TrialMode.PAPER else 4))
            case(f"trial_param_gradient {mode.value} order {order}", rng,
                 jet_probe(partial(trial_jet, spec), order))

    for mode, spec in specs.items():
        rng = XorShift64Star(seed * 2027 + (0 if mode is TrialMode.PAPER else 1))
        evaluator = LossEvaluator(spec, grid)
        case(f"loss_gradient {mode.value}", rng,
             lambda _: (evaluator.gradient,
                        lambda stack: evaluator.evaluate(stack, need_grad=False)[0]))
    return results
