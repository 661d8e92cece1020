"""Unit tests for seeding and the training driver."""

import dataclasses

import numpy as np
import pytest

from blasius_net.problem import LossEvaluator
from blasius_net.training import (
    INIT_SCALE,
    MOMENTUM_COEFF,
    AllRunsDivergedError,
    TrainingConfig,
    TrainingDivergedError,
    TrainingRun,
    XorShift64Star,
    _draw_params,
    best_run,
    init_params,
    multi_run,
    seed_sweep,
    train,
)
from blasius_net.trial import TrialMode, TrialSpec

MASK64 = (1 << 64) - 1

# final losses of seed_sweep(TrainingConfig(max_iterations=200), 20), repr-exact;
# any rounding change in the loss, gradient or update moves at least one.  Recorded
# on OpenBLAS's SkylakeX kernels (the report header names this run's); the Haswell
# and Zen kernels move 18 of the 20
SWEEP_FINGERPRINT = [
    0.06871839062996975,
    0.015766081176251907,
    0.19781317843779644,
    0.018091126819192758,
    8.965326119972573,
    10.398599122006376,
    0.029753501644560927,
    0.18723603067466854,
    0.00988415837643435,
    0.027448779631904993,
    0.06640317557207419,
    0.01599273312050616,
    0.17818119636681665,
    0.4183800139843142,
    0.11555845667020474,
    0.5149938256638428,
    0.004747026790692501,
    5.519030197870586,
    0.024090957303434017,
    0.015898431378934152,
]


def reference_stream(seed, count):
    """Independent re-derivation of the documented generator: one splitmix64
    round seeds an xorshift64* state (never zero), outputs are the usual
    multiplied 64-bit words."""
    z = (seed + 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    state = z ^ (z >> 31)
    if state == 0:
        state = 0x9E3779B97F4A7C15
    out = []
    for _ in range(count):
        state ^= state >> 12
        state = (state ^ (state << 25)) & MASK64
        state ^= state >> 27
        out.append((state * 0x2545F4914F6CDD1D) & MASK64)
    return out


def test_xorshift_matches_reference_implementation():
    for seed in (0, 1, 42, 123456789, MASK64):
        rng = XorShift64Star(seed)
        assert [rng.next_u64() for _ in range(20)] == reference_stream(seed, 20)


def test_xorshift_uniform_golden_values():
    rng = XorShift64Star(42)
    draws = [rng.uniform(0.0, 1.0) for _ in range(3)]
    assert draws == [0.1941059175341826, 0.5626318272656207, 0.4861061377100522]


def test_xorshift_uniform_range_and_scaling():
    rng = XorShift64Star(9)
    for _ in range(1000):
        value = rng.uniform(-0.5, 0.5)
        assert -0.5 <= value < 0.5
    a = XorShift64Star(7)
    b = XorShift64Star(7)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


def test_init_params_deterministic_and_in_range():
    first = init_params(0, 5)
    second = init_params(0, 5)
    for left, right in zip(first.weights, second.weights):
        assert np.array_equal(left, right)
        assert left.shape == (5,)
        assert np.all(left >= -0.5) and np.all(left < 0.5)
    other = init_params(1, 5)
    assert not np.array_equal(first.weights[0], other.weights[0])


def test_init_params_draw_order_v_u_w():
    for scale in (INIT_SCALE, 0.25):
        rng = XorShift64Star(11)
        draws = [rng.uniform(-scale, scale) for _ in range(9)]
        params = _draw_params(XorShift64Star(11), 3, scale)
        assert params.weights.tolist() == [draws[0:3], draws[3:6], draws[6:9]]
    assert init_params(11, 3).weights.tobytes() == _draw_params(
        XorShift64Star(11), 3, INIT_SCALE).weights.tobytes()


def test_init_params_validation():
    with pytest.raises(ValueError, match="hidden_count must be at least 1"):
        init_params(0, 0)


def test_config_defaults_and_grid_fill_in():
    cfg = TrainingConfig()
    assert cfg.hidden_count == 5
    assert cfg.trial == TrialSpec(TrialMode.PENALTY, 6.0)
    assert cfg.lr == 1e-4
    assert cfg.penalty_weight == 10.0
    assert cfg.max_iterations == 50000
    assert cfg.loss_target == 1e-8
    assert INIT_SCALE == 0.5
    assert np.allclose(cfg.grid.points, np.linspace(0.0, 6.0, 10))


def test_config_validation():
    with pytest.raises(ValueError):
        TrainingConfig(hidden_count=0)
    with pytest.raises(ValueError):
        TrainingConfig(lr=0.0)
    with pytest.raises(ValueError):
        TrainingConfig(lr=-1e-3)
    with pytest.raises(ValueError):
        TrainingConfig(max_iterations=0)
    with pytest.raises(ValueError):
        TrainingConfig(loss_target=-1.0)
    with pytest.raises(ValueError):
        TrainingConfig(seed=-1)
    with pytest.raises(ValueError, match="at least two points"):
        TrainingConfig(points=1)


def test_train_single_iteration_bookkeeping():
    cfg = TrainingConfig(max_iterations=1)
    run = train(cfg)
    assert run.iterations_used == 1
    assert run.initial_loss == pytest.approx(431.43498568954016, rel=1e-12)
    # initial_loss is the loss of the seed's start, final_loss that after the one step
    evaluator = LossEvaluator(cfg.trial, cfg.grid, cfg.penalty_weight)
    start = init_params(cfg.seed, cfg.hidden_count)
    assert run.initial_loss == evaluator.report(start).total
    assert run.final_loss == evaluator.report(run.final_params).total


def test_train_replays_momentum_update():
    cfg = TrainingConfig(max_iterations=3)
    evaluator = LossEvaluator(cfg.trial, cfg.grid, cfg.penalty_weight)
    start = init_params(cfg.seed, cfg.hidden_count)
    params = list(start.weights)
    velocity = [np.zeros(cfg.hidden_count) for _ in range(3)]
    for _ in range(3):
        grads = evaluator.evaluate(np.array(params)[None])[1][0]
        velocity = [MOMENTUM_COEFF * vel + cfg.lr * g for vel, g in zip(velocity, grads)]
        params = [p - vel for p, vel in zip(params, velocity)]
    run = train(cfg)
    assert np.array_equal(run.final_params.weights, params)
    # the loop's last loss is the loss a fresh evaluation of the final params gives
    assert run.final_loss == evaluator.report(run.final_params).total


def test_seed_sweep_fingerprint_is_bit_exact():
    runs = seed_sweep(TrainingConfig(max_iterations=200), 20)
    assert [run.final_loss for run in runs] == SWEEP_FINGERPRINT


def test_train_stops_at_loss_target():
    run = train(TrainingConfig(loss_target=1.0))
    assert run.final_loss <= 1.0
    assert run.iterations_used < 50000
    # one iteration fewer leaves the loss above the target: the run stopped at the first hit
    short = train(TrainingConfig(loss_target=1.0, max_iterations=run.iterations_used - 1))
    assert short.iterations_used == run.iterations_used - 1
    assert short.final_loss > 1.0
    assert short.initial_loss == run.initial_loss


def test_train_is_bitwise_deterministic():
    cfg = TrainingConfig(max_iterations=500)
    first = train(cfg)
    second = train(cfg)
    assert first.initial_loss == second.initial_loss
    assert first.iterations_used == second.iterations_used
    assert first.final_loss == second.final_loss
    assert np.array_equal(first.final_params.weights, second.final_params.weights)


def test_train_reduces_default_loss():
    run = train(TrainingConfig(max_iterations=2000))
    assert run.initial_loss > 100.0
    assert run.final_loss < 0.05


def test_train_paper_mode_descends():
    cfg = TrainingConfig(trial=TrialSpec(TrialMode.PAPER, 6.0), max_iterations=500)
    run = train(cfg)
    assert run.final_loss < run.initial_loss


def test_training_divergence_reports_iteration():
    cfg = TrainingConfig(lr=3e-4, seed=0, max_iterations=1500)
    with pytest.raises(TrainingDivergedError) as excinfo:
        train(cfg)
    assert excinfo.value.iteration == 6
    assert "iteration 6" in str(excinfo.value)


def test_seed_sweep_marks_divergent_seeds():
    cfg = TrainingConfig(lr=3e-4, seed=0, max_iterations=1500)
    runs = seed_sweep(cfg, 3)
    assert runs[0] is None
    assert runs[1] is not None
    assert runs[2] is not None
    with pytest.raises(ValueError):
        seed_sweep(cfg, 0)


def test_multi_run_picks_best_survivor():
    cfg = TrainingConfig(lr=3e-4, seed=0, max_iterations=1500)
    best = multi_run(cfg, 3)
    seed1 = train(dataclasses.replace(cfg, seed=1))
    assert best.final_loss == seed1.final_loss
    assert np.array_equal(best.final_params.weights[0], seed1.final_params.weights[0])


def test_best_run_prefers_lowest_loss_then_lower_seed():
    def run(loss):
        return TrainingRun(final_params=None, final_loss=loss, iterations_used=0,
                           initial_loss=loss)

    first, second, third = run(0.5), run(0.25), run(0.25)
    assert best_run([first, None, second, third]) is second
    assert best_run([None, first]) is first
    assert best_run([None, None]) is None


def test_multi_run_single_seed_equals_train():
    cfg = TrainingConfig(max_iterations=300)
    assert multi_run(cfg, 1).final_loss == train(cfg).final_loss


def test_multi_run_all_diverged():
    cfg = TrainingConfig(lr=5e-3, seed=0, max_iterations=1500)
    with pytest.raises(AllRunsDivergedError):
        multi_run(cfg, 2)
