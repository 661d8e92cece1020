"""Deterministic gradient-descent training of the collocation loss.

Initial weights come from a hand-rolled xorshift64* stream so that a given
seed produces bit-identical parameters on every platform; nothing else in a
run is stochastic.  Whole training runs are bit-identical for one BLAS kernel
set, whatever the stack size or thread count; another kernel set (OpenBLAS's
Haswell against its SkylakeX kernels, say) may round the matrix products of
the loss differently, and so move the last bits of a run.

One loop trains every seed of a sweep in lockstep: the weights of S seeds
are one (S, 3, H) array theta with rows v, u, w per seed (the layout of
NetworkParams.weights), with one velocity of the same shape and one
learning rate, so the momentum step is four in-place whole-array
operations for all seeds.  A seed leaves the stack when it diverges,
reaches the loss target or uses up its budget.  Every entry is computed
independently of the others, so a seed's run is the same bit for bit alone
(train is a stack of one) and at any position of a seed_sweep.  best_run
picks a sweep's winner and raises AllRunsDivergedError when no seed
survived; multi_run is a sweep followed by best_run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .network import NetworkParams
from .problem import (
    DEFAULT_PENALTY_WEIGHT,
    CollocationGrid,
    LossEvaluator,
)
from .trial import TrialMode, TrialSpec

__all__ = [
    "MOMENTUM_COEFF",
    "INIT_SCALE",
    "SWEEP_MAX_RUNS",
    "LOSS_TARGET",
    "XorShift64Star",
    "TrainingConfig",
    "TrainingRun",
    "TrainingDivergedError",
    "AllRunsDivergedError",
    "init_params",
    "train",
    "seed_sweep",
    "best_run",
    "multi_run",
]

MOMENTUM_COEFF = 0.9
INIT_SCALE = 0.5  # initial weights are uniform in [-INIT_SCALE, INIT_SCALE)
# ~7 KB of stacked scratch and outcome per seed at the documented setup, so
# ~70 MB at the cap there; it grows with hidden units times points (~21 KB
# a seed at H = 20).  More seeds than this is a typo, not a sweep
SWEEP_MAX_RUNS = 10**4
LOSS_TARGET = 1e-8  # a seed stops once its loss is at or below this

_MASK64 = (1 << 64) - 1


class TrainingDivergedError(RuntimeError):
    """Raised when the loss stops being finite during a run."""

    def __init__(self, iteration: int):
        super().__init__(f"training loss became non-finite at iteration {iteration}")
        self.iteration = iteration


class AllRunsDivergedError(RuntimeError):
    """Raised by best_run when every seed of a sweep diverged."""


def _splitmix64(value: int) -> int:
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


class XorShift64Star:
    """xorshift64* pseudo-random stream, fully determined by the seed.

    The 64-bit state is one splitmix64 round of the seed (with a fixed
    non-zero fallback, since xorshift state must never be zero).  Integer
    arithmetic only, so streams are identical across platforms.
    """

    def __init__(self, seed: int):
        state = _splitmix64(int(seed) & _MASK64)
        self._state = state if state != 0 else 0x9E3779B97F4A7C15

    def next_u64(self) -> int:
        s = self._state
        s ^= (s >> 12)
        s = (s ^ (s << 25)) & _MASK64
        s ^= (s >> 27)
        self._state = s
        return (s * 0x2545F4914F6CDD1D) & _MASK64

    def uniform(self, low: float, high: float) -> float:
        # 53-bit mantissa draw in [0, 1)
        unit = (self.next_u64() >> 11) * 2.0**-53
        return low + (high - low) * unit


def _draw_params(rng: XorShift64Star, hidden_count: int, scale: float) -> np.ndarray:
    """(3, hidden_count) uniforms in [-scale, scale) from rng, drawn row v, then u, then w."""
    draws = [rng.uniform(-scale, scale) for _ in range(3 * hidden_count)]
    return np.array(draws).reshape(3, hidden_count)


def init_params(seed: int, hidden_count: int) -> NetworkParams:
    """Uniform [-INIT_SCALE, INIT_SCALE) start from seed's stream, drawn v, then u, then w."""
    if hidden_count < 1:
        raise ValueError("hidden_count must be at least 1")
    return NetworkParams(*_draw_params(XorShift64Star(seed), hidden_count, INIT_SCALE))


@dataclass(frozen=True)
class TrainingConfig:
    """Full description of one training run; the defaults are the documented setup."""

    hidden_count: int = 5
    trial: TrialSpec = field(default_factory=lambda: TrialSpec(TrialMode.PENALTY, 6.0))
    points: int = 10  # equidistant collocation points on [0, trial.domain_end]
    lr: float = 1e-4
    penalty_weight: float = DEFAULT_PENALTY_WEIGHT
    max_iterations: int = 50000
    seed: int = 0

    def __post_init__(self):
        # the point count first, so it is the first fault reported
        if self.points < 2:
            raise ValueError("points: an equidistant grid needs at least two points")
        if self.hidden_count < 1:
            raise ValueError("hidden_count must be at least 1")
        if not np.isfinite(self.lr) or self.lr <= 0.0:
            raise ValueError("lr must be finite and positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class TrainingRun:
    """Outcome of one training run; it keeps no per-iteration loss history."""

    final_params: NetworkParams
    final_loss: float
    iterations_used: int
    initial_loss: float  # the loss before the first step


def _momentum_step(theta: np.ndarray, velocity: np.ndarray, grad: np.ndarray,
                   coeff: np.ndarray, lr: np.ndarray) -> None:
    """velocity = coeff * velocity + lr * grad, then theta -= velocity, all in place.

    grad must be fresh: it is scaled in place, so the step needs no
    temporary.  coeff and lr are 0-d float64 arrays, which a ufunc takes
    without the conversion a Python float costs on every call.
    """
    grad *= lr
    velocity *= coeff
    velocity += grad
    theta -= velocity


def _train_lockstep(cfg: TrainingConfig, seeds: list[int]) -> list:
    """Train one run per seed, all seeds as one (S, 3, H) stack moving in lockstep.

    Returns one outcome per seed, in order: its TrainingRun, or the
    TrainingDivergedError of the iteration at which its loss stopped being
    finite.  A seed leaves the stack once it diverges, reaches LOSS_TARGET
    (read at each call) or uses up the iteration budget; the others carry on.
    """
    grid = CollocationGrid.equidistant(cfg.points, cfg.trial.domain_end)
    evaluator = LossEvaluator(cfg.trial, grid, cfg.penalty_weight)
    # theta and velocity are loop-owned (S, 3, H) arrays, rows v, u, w
    theta = np.array([init_params(seed, cfg.hidden_count).weights for seed in seeds])
    velocity = np.zeros_like(theta)
    coeff, lr = np.array(MOMENTUM_COEFF), np.array(cfg.lr)
    outcomes = [None] * len(seeds)
    slots = list(range(len(seeds)))  # outcome slot of each stack entry
    budget, target = cfg.max_iterations, LOSS_TARGET
    used = 0
    with np.errstate(all="ignore"):
        totals, grad = evaluator.evaluate(theta)
        initial = totals  # the loss of each seed before its first step, by slot
        while True:
            # sum() is NaN-safe where min() is not: min skips a NaN that is not first
            if used >= budget or not math.isfinite(sum(totals)) or min(totals) <= target:
                keep = []
                for entry, (slot, total) in enumerate(zip(slots, totals)):
                    if not math.isfinite(total):
                        outcomes[slot] = TrainingDivergedError(used)
                    elif used < budget and total > target:
                        keep.append(entry)
                    else:
                        outcomes[slot] = TrainingRun(
                            final_params=NetworkParams(*theta[entry]), final_loss=total,
                            iterations_used=used, initial_loss=initial[slot])
                if not keep:
                    return outcomes
                slots = [slots[entry] for entry in keep]
                theta, velocity, grad = theta[keep], velocity[keep], grad[keep]
            _momentum_step(theta, velocity, grad, coeff, lr)
            used += 1
            totals, grad = evaluator.evaluate(theta)


def train(cfg: TrainingConfig) -> TrainingRun:
    """Run gradient descent until the loss target, divergence, or the iteration cap.

    Deterministic: the same config always produces the same run, bit for bit,
    and the same run as that seed gives inside a seed_sweep.
    """
    (outcome,) = _train_lockstep(cfg, [cfg.seed])
    if isinstance(outcome, TrainingDivergedError):
        raise outcome
    return outcome


def seed_sweep(cfg: TrainingConfig, run_count: int) -> list[TrainingRun | None]:
    """Train seeds cfg.seed .. cfg.seed + run_count - 1 in lockstep; None marks a diverged seed."""
    if not 1 <= run_count <= SWEEP_MAX_RUNS:
        raise ValueError(f"run_count must be between 1 and SWEEP_MAX_RUNS = {SWEEP_MAX_RUNS}, "
                         f"got {run_count}")
    seeds = [cfg.seed + offset for offset in range(run_count)]
    return [None if isinstance(outcome, TrainingDivergedError) else outcome
            for outcome in _train_lockstep(cfg, seeds)]


def best_run(runs: list[TrainingRun | None]) -> TrainingRun:
    """Lowest final loss in a seed_sweep result, ties to the lower seed; raise if all diverged."""
    survivors = [run for run in runs if run is not None]
    if not survivors:
        raise AllRunsDivergedError(f"all {len(runs)} seeds diverged")
    # min keeps the first of equal keys, so ties go to the lower seed
    return min(survivors, key=lambda run: run.final_loss)


# a shim that perfbench/tracing.py patches by name; ROADMAP item 3 deletes
# it with the benchmark change that unpins it
def multi_run(cfg: TrainingConfig, run_count: int) -> TrainingRun:
    """Best run (lowest final loss, ties to the lower seed) over consecutive seeds."""
    return best_run(seed_sweep(cfg, run_count))
