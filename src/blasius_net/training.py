"""Deterministic gradient-descent training of the collocation loss.

Initial weights come from a hand-rolled xorshift64* stream so that a given
seed produces bit-identical parameters on every platform; nothing else in a
run is stochastic, so whole training runs are reproducible byte for byte.
"""

from __future__ import annotations

import dataclasses
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

_MASK64 = (1 << 64) - 1


class TrainingDivergedError(RuntimeError):
    """Raised when the loss stops being finite during a run."""

    def __init__(self, iteration: int):
        super().__init__(f"training loss became non-finite at iteration {iteration}")
        self.iteration = iteration


class AllRunsDivergedError(RuntimeError):
    """Raised by multi_run when every seed diverged."""


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


def init_params(seed: int, hidden_count: int, scale: float) -> NetworkParams:
    """Uniform [-scale, scale) start, drawn in the order v, then u, then w."""
    if hidden_count < 1:
        raise ValueError("hidden_count must be at least 1")
    scale = float(scale)
    if not np.isfinite(scale) or scale <= 0.0:
        raise ValueError("scale must be finite and positive")
    rng = XorShift64Star(seed)
    draws = [rng.uniform(-scale, scale) for _ in range(3 * hidden_count)]
    h = hidden_count
    return NetworkParams(draws[:h], draws[h:2 * h], draws[2 * h:])


@dataclass(frozen=True)
class TrainingConfig:
    """Full description of one training run; the defaults are the documented setup."""

    hidden_count: int = 5
    trial: TrialSpec = field(default_factory=lambda: TrialSpec(TrialMode.PENALTY, 6.0))
    grid: CollocationGrid | None = None
    lr_v: float = 1e-4
    lr_u: float = 1e-4
    lr_w: float = 1e-4
    penalty_weight: float = DEFAULT_PENALTY_WEIGHT
    max_iterations: int = 50000
    loss_target: float = 1e-8
    seed: int = 0
    init_scale: float = 0.5

    def __post_init__(self):
        if self.hidden_count < 1:
            raise ValueError("hidden_count must be at least 1")
        for name in ("lr_v", "lr_u", "lr_w"):
            rate = float(getattr(self, name))
            if not np.isfinite(rate) or rate <= 0.0:
                raise ValueError(f"{name} must be finite and positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not np.isfinite(self.loss_target) or self.loss_target < 0.0:
            raise ValueError("loss_target must be finite and non-negative")
        if not np.isfinite(self.init_scale) or self.init_scale <= 0.0:
            raise ValueError("init_scale must be finite and positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        grid = self.grid
        if grid is None:
            grid = CollocationGrid.equidistant(10, self.trial.domain_end)
            object.__setattr__(self, "grid", grid)
        if np.any(grid.points > self.trial.domain_end):
            raise ValueError("grid extends past the trial domain end")


@dataclass(frozen=True)
class TrainingRun:
    """Outcome of one training run."""

    final_params: NetworkParams
    final_loss: float
    iterations_used: int
    loss_history: list[float]


def train(cfg: TrainingConfig) -> TrainingRun:
    """Run gradient descent until the loss target, divergence, or the iteration cap.

    loss_history holds the loss before any step and after every iteration.
    Deterministic: the same config always produces the same run, bit for bit.
    """
    evaluator = LossEvaluator(cfg.trial, cfg.grid, cfg.penalty_weight)
    start = init_params(cfg.seed, cfg.hidden_count, cfg.init_scale)
    v = start.output_weights.copy()
    u = start.hidden_biases.copy()
    w = start.input_weights.copy()

    mu = MOMENTUM_COEFF
    vel_v = np.zeros_like(v)
    vel_u = np.zeros_like(u)
    vel_w = np.zeros_like(w)
    lr_v, lr_u, lr_w = cfg.lr_v, cfg.lr_u, cfg.lr_w

    total, _, _, g_v, g_u, g_w = evaluator.evaluate(v, u, w)
    if not math.isfinite(total):
        raise TrainingDivergedError(0)
    history = [total]
    used = 0
    while used < cfg.max_iterations and total > cfg.loss_target:
        # momentum step, in place: vel <- mu vel + lr grad, p <- p - vel;
        # v/u/w and the velocities are loop-owned copies
        vel_v *= mu
        vel_v += lr_v * g_v
        vel_u *= mu
        vel_u += lr_u * g_u
        vel_w *= mu
        vel_w += lr_w * g_w
        v -= vel_v
        u -= vel_u
        w -= vel_w
        used += 1
        total, _, _, g_v, g_u, g_w = evaluator.evaluate(v, u, w)
        if not math.isfinite(total):
            raise TrainingDivergedError(used)
        history.append(total)

    final = NetworkParams(v, u, w)
    final_loss = evaluator.report(final).total
    return TrainingRun(final_params=final, final_loss=final_loss,
                       iterations_used=used, loss_history=history)


def seed_sweep(cfg: TrainingConfig, run_count: int) -> list[TrainingRun | None]:
    """Train with seeds cfg.seed .. cfg.seed + run_count - 1; None marks a diverged seed."""
    if run_count < 1:
        raise ValueError("run_count must be at least 1")
    results: list[TrainingRun | None] = []
    for offset in range(run_count):
        run_cfg = dataclasses.replace(cfg, seed=(cfg.seed + offset) & _MASK64)
        try:
            results.append(train(run_cfg))
        except TrainingDivergedError:
            results.append(None)
    return results


def best_run(runs: list[TrainingRun | None]) -> TrainingRun | None:
    """Lowest final loss in a seed_sweep result, ties to the lower seed; None if all diverged."""
    survivors = [run for run in runs if run is not None]
    # min keeps the first of equal keys, so ties go to the lower seed
    return min(survivors, key=lambda run: run.final_loss, default=None)


def multi_run(cfg: TrainingConfig, run_count: int) -> TrainingRun:
    """Best run (lowest final loss, ties to the lower seed) over consecutive seeds."""
    best = best_run(seed_sweep(cfg, run_count))
    if best is None:
        raise AllRunsDivergedError(f"all {run_count} seeds starting at {cfg.seed} diverged")
    return best
