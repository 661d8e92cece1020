"""Acceptance suite: the deliverable behaviors, each at its stated tolerance.

Every test prints exactly one PASS/FAIL line (visible with pytest -s) and
asserts the same condition, so the suite doubles as a human-readable report.
The multi-seed training check takes the bulk of the runtime (about ten
seconds, with the 20 seeds trained in lockstep); everything else finishes in
seconds.
"""

import time

import numpy as np
import pytest

from blasius_net.cli import run_cli
from blasius_net.gradcheck import run_gradient_checks
from blasius_net.oracles import rk4_profile, series_coefficients, series_eval, shoot
from blasius_net.report import evaluate_profile, relative_error
from blasius_net.tables import load_table
from blasius_net.training import TrainingConfig, seed_sweep
from blasius_net.trial import TrialMode, TrialSpec, trial_derivative, trial_value

from helpers import SIGMA_REF, random_params


def verdict(name, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def timed_shoot():
    shoot.cache_clear()  # time one real integration, not the process-wide cached sigma
    start = time.perf_counter()
    sigma = shoot()
    return sigma, time.perf_counter() - start


@pytest.fixture(scope="module")
def default_sweep():
    cfg = TrainingConfig()  # the documented default setup
    start = time.perf_counter()
    runs = seed_sweep(cfg, 20)
    elapsed = time.perf_counter() - start
    survivors = [(run.final_loss, offset, run) for offset, run in enumerate(runs) if run is not None]
    assert survivors, "every default seed diverged"
    survivors.sort(key=lambda item: (item[0], item[1]))
    return runs, survivors[0][2], elapsed


def test_shooting_oracle_accuracy(timed_shoot):
    sigma, elapsed = timed_shoot
    error = abs(sigma - SIGMA_REF)
    ok = error <= 1e-11 and elapsed < 5.0
    verdict("shooting oracle", ok,
            f"sigma={sigma:.12f} |err|={error:.2e} (tol 1e-11) in {elapsed:.2f}s (limit 5s)")


def test_series_oracle_agrees_with_rk4(timed_shoot):
    sigma, _ = timed_shoot
    start = time.perf_counter()
    coeffs = series_coefficients(25)
    profile = rk4_profile(sigma, 2.0, step=1e-3)
    worst = 0.0
    for eta in np.arange(0.2, 2.01, 0.2):
        eta = round(float(eta), 10)
        worst = max(worst, abs(series_eval(sigma, eta, 25) - profile.f[profile.index_of(eta)]))
    elapsed = time.perf_counter() - start
    ok = coeffs[2] == 11 and coeffs[3] == 375 and worst <= 1e-6 and elapsed < 1.0
    verdict("series vs rk4", ok,
            f"a2={coeffs[2]} a3={coeffs[3]} max|diff|={worst:.2e} (tol 1e-6) "
            f"in {elapsed:.2f}s (limit 1s)")


def test_gradient_audit():
    start = time.perf_counter()
    results = run_gradient_checks(draws=100)
    elapsed = time.perf_counter() - start
    worst = max(res.max_rel_error for res in results)
    ok = (all(res.passed for res in results)
          and all(res.draws >= 100 for res in results)
          and elapsed < 30.0)
    verdict("gradient audit", ok,
            f"{len(results)} cases x {results[0].draws} draws, worst rel err {worst:.2e} "
            f"(tol 1e-5) in {elapsed:.1f}s (limit 30s)")


def test_table1_printed_errors_reproduced():
    table = load_table("T1")
    checked = failures = 0
    worst_excess = 0.0
    for column in table.references:
        for own, ref, printed in zip(table.own_values, column.values, column.printed_errors):
            if printed is None:
                continue
            checked += 1
            recomputed = relative_error(own, ref)
            excess = abs(recomputed - printed.value) - printed.unit
            worst_excess = max(worst_excess, excess)
            if excess > 0.0:
                failures += 1
    ok = checked > 0 and failures == 0
    verdict("table T1 error column", ok,
            f"{checked} printed errors reproduced within one final-digit unit "
            f"({failures} off, worst excess {worst_excess:.1e})")


def test_default_training_beats_error_budget(timed_shoot, default_sweep):
    sigma, _ = timed_shoot
    runs, best, elapsed = default_sweep
    diverged = sum(1 for run in runs if run is None)
    etas = np.round(np.arange(0.5, 6.01, 0.5), 10)
    oracle = rk4_profile(sigma, 6.0, step=1e-3)
    spec = TrainingConfig().trial
    ours = evaluate_profile(spec, best.final_params, etas)
    rows = [oracle.index_of(float(eta)) for eta in etas]
    err_f = max(relative_error(ours.f[i], oracle.f[row]) for i, row in enumerate(rows))
    err_fp = max(relative_error(ours.fp[i], oracle.fp[row]) for i, row in enumerate(rows))
    ok = err_f <= 1e-2 and err_fp <= 2e-2 and elapsed < 120.0
    verdict("default training", ok,
            f"20 seeds ({diverged} diverged), best loss {best.final_loss:.2e}, "
            f"max rel err f={err_f:.2e} (tol 1e-2) fp={err_fp:.2e} (tol 2e-2) "
            f"in {elapsed:.0f}s (limit 120s)")


def test_boundary_conditions_built_in():
    rng = np.random.default_rng(2026)
    specs = {
        TrialMode.PAPER: TrialSpec(TrialMode.PAPER, 6.0),
        TrialMode.PENALTY: TrialSpec(TrialMode.PENALTY, 6.0),
    }
    worst_value = worst_slope = worst_node = 0.0
    for mode, spec in specs.items():
        for _ in range(1000):
            params = random_params(rng, 5, scale=3.0)
            worst_value = max(worst_value, abs(trial_value(spec, params, 0.0)))
            worst_slope = max(worst_slope, abs(trial_derivative(spec, params, 0.0, 1)))
            if mode is TrialMode.PAPER:
                worst_node = max(worst_node, abs(trial_value(spec, params, 6.0) - 252.0))
    ok = worst_value <= 1e-12 and worst_slope <= 1e-12 and worst_node <= 1e-9
    verdict("boundary conditions", ok,
            f"1000 draws/mode: |y(0)|<={worst_value:.1e} |y'(0)|<={worst_slope:.1e} "
            f"(tol 1e-12), paper |y(6)-252|<={worst_node:.1e} (tol 1e-9)")


def test_identical_solves_are_byte_identical(tmp_path):
    args = ["solve", "--iterations", "2000", "--runs", "2", "--seed", "0"]
    first = tmp_path / "first.txt"
    second = tmp_path / "second.txt"
    assert run_cli(args + ["--out", str(first)]) == 0
    assert run_cli(args + ["--out", str(second)]) == 0
    same = first.read_bytes() == second.read_bytes()
    verdict("deterministic solve", same,
            f"two runs of '{' '.join(args)}' wrote identical files ({first.stat().st_size} bytes)")
