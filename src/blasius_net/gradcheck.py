"""Finite-difference verification of every analytic gradient path.

Central differences with a fixed step, compared component-wise against the
closed forms.  Differences are normalized by the max-norm of the two gradient
vectors (with a small floor), the usual gradcheck convention: per-component
division breaks down whenever a single component happens to sit near zero
while the vector itself is large.
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


def _perturbed(params: NetworkParams, group: int, index: int, delta: float) -> NetworkParams:
    weights = params.weights.copy()
    weights[group, index] += delta
    return NetworkParams(*weights)


def fd_param_gradient(objective, params: NetworkParams, step: float = FD_STEP) -> np.ndarray:
    """Central-difference gradient of objective(params), shaped like params.weights."""
    grad = np.empty(params.weights.shape)
    for group in range(3):
        for i in range(params.hidden_count):
            up = objective(_perturbed(params, group, i, +step))
            down = objective(_perturbed(params, group, i, -step))
            grad[group, i] = (up - down) / (2.0 * step)
    return grad


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
    results = []

    def case(name: str, rng: XorShift64Star, probe) -> None:
        # probe(rng) -> (analytic gradient, scalar objective), after each parameter draw
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
            return jet.gradient, lambda p: jet.values(p)[0, order]
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
             lambda _: (evaluator.gradient, lambda p: evaluator.report(p).total))
    return results
