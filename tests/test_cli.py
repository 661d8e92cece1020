"""End-to-end tests of the command-line interface (run in-process, bar one in subprocesses)."""

import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from blasius_net import problem
from blasius_net.cli import build_parser, run_cli
from blasius_net.model_io import load_model
from blasius_net.oracles import rk4_profile, series_eval, shoot
from blasius_net.profiles import format_float
from blasius_net.tables import load_table
from blasius_net.training import TrainingConfig

from helpers import read_profile_csv

QUICK_SOLVE = ["solve", "--hidden", "3", "--points", "6", "--iterations", "200", "--seed", "0"]


@pytest.fixture(scope="module")
def quick_model(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "model.txt"
    code = run_cli(QUICK_SOLVE + ["--out", str(path)])
    assert code == 0
    return path


def test_solve_trains_and_writes_model(quick_model, capsys):
    params, spec = load_model(quick_model)
    assert params.hidden_count == 3
    assert spec.domain_end == 6.0
    code = run_cli(QUICK_SOLVE)
    captured = capsys.readouterr()
    assert code == 0
    assert "final loss: best=" in captured.out
    assert "best run: iterations=200" in captured.out


def test_solve_is_byte_deterministic(tmp_path):
    first = tmp_path / "a.txt"
    second = tmp_path / "b.txt"
    assert run_cli(QUICK_SOLVE + ["--out", str(first)]) == 0
    assert run_cli(QUICK_SOLVE + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_solve_sweeps_each_seed_once(monkeypatch, capsys):
    # a sweep trains every seed in one lockstep loop: one evaluator per sweep
    builds = []
    original = problem.LossEvaluator.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(problem.LossEvaluator, "__init__", counting_init)
    code = run_cli(QUICK_SOLVE + ["--runs", "3"])
    captured = capsys.readouterr()
    assert code == 0
    assert len(builds) == 1
    assert captured.out == (
        "mode=penalty hidden=3 points=6 domain_end=6 seed=0 runs=3\n"
        "final loss: best=7.352425e-03 mean=2.252596e-02 min=7.352425e-03 max=3.053411e-02\n"
        "best run: iterations=200 initial_loss=8.850879e+00\n"
    )


def test_solve_reports_diverged_seeds(capsys):
    args = ["solve", "--iterations", "1500", "--runs", "3", "--lr", "3e-4"]
    code = run_cli(args)
    captured = capsys.readouterr()
    assert code == 0
    assert "diverged seeds: 1/3" in captured.out


def test_solve_all_seeds_diverged(capsys):
    args = ["solve", "--iterations", "1500", "--lr", "5e-3"]
    code = run_cli(args + ["--runs", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert "all 2 seeds diverged" in captured.err
    # one seed runs through train, which names the iteration its loss blew up at
    code = run_cli(args)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: training loss became non-finite at iteration 5\n"


def test_solve_paper_mode(tmp_path, capsys):
    path = tmp_path / "paper.txt"
    code = run_cli(["solve", "--mode", "paper", "--iterations", "50", "--out", str(path)])
    assert code == 0
    _, spec = load_model(path)
    assert spec.mode.value == "paper"
    capsys.readouterr()
    # the paper envelope's node is 6, so no other domain end makes a valid trial
    code = run_cli(["solve", "--mode", "paper", "--domain-end", "8", "--iterations", "50"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == ("error: paper mode needs domain_end = 6.0, the node of its envelope; "
                            "got 8.0\n")


def test_solve_defaults_are_the_training_config():
    # the acceptance suite certifies TrainingConfig(); users and the benchmark run `solve`
    args = build_parser().parse_args(["solve"])
    cfg = TrainingConfig()
    assert args.mode == cfg.trial.mode.value
    assert args.hidden == cfg.hidden_count
    assert args.points == cfg.points
    assert args.domain_end == cfg.trial.domain_end
    assert np.array_equal(problem.CollocationGrid.equidistant(args.points, args.domain_end).points,
                          cfg.grid.points)
    assert args.seed == cfg.seed
    assert args.iterations == cfg.max_iterations
    assert args.lr == cfg.lr
    assert args.penalty == cfg.penalty_weight


def test_solve_bytes_ignore_thread_count_and_hash_seed(tmp_path):
    out = tmp_path / "model.txt"
    argv = [sys.executable, "-m", "blasius_net.cli", "solve", "--runs", "3", "--iterations", "50",
            "--out", str(out)]
    src = Path(__file__).resolve().parents[1] / "src"
    seen = set()
    for threads, hash_seed in [("1", "0"), ("2", "1"), ("1", "1"), ("2", "0")]:
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, PYTHONHASHSEED=hash_seed)
        out.unlink(missing_ok=True)
        done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
        seen.add((done.stdout, out.read_bytes()))
    assert len(seen) == 1


def test_oracle_writes_profile(tmp_path, capsys):
    out = tmp_path / "oracle.csv"
    code = run_cli(["oracle", "--eta-max", "2.0", "--step", "0.01", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "sigma = 0.33205" in captured.out
    profile = read_profile_csv(out)
    expected = rk4_profile(shoot(), 2.0, step=0.01)
    assert np.array_equal(profile.eta, expected.eta)
    assert np.array_equal(profile.f, expected.f)
    assert "# sigma = " in out.read_text()


def test_oracle_default_file_is_pinned(tmp_path, capsys):
    out = tmp_path / "oracle.csv"
    assert run_cli(["oracle", "--out", str(out)]) == 0
    capsys.readouterr()
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "2e0059982b9d81014588eead26b673b626320d4874c5484c580a0d980af97afd"


def test_oracle_stdout(capsys):
    code = run_cli(["oracle", "--eta-max", "1.0", "--step", "0.5"])
    captured = capsys.readouterr()
    assert code == 0
    profile = read_profile_csv(io.StringIO(captured.out))
    assert len(profile) == 3
    # --step sets the output grid only; sigma is shot at the default step
    assert run_cli(["oracle", "--eta-max", "1.0"]) == 0
    default = capsys.readouterr()
    assert captured.out.splitlines()[0] == default.out.splitlines()[0]
    assert captured.out.splitlines()[0] == f"# sigma = {format_float(shoot())}"
    # a far field that cannot settle to --tol fails with the oracle's message
    assert run_cli(["oracle", "--tol", "1e-30"]) == 1
    assert "far field not settled" in capsys.readouterr().err


def test_series_prints_value(capsys):
    code = run_cli(["series", "--eta", "1.0", "--sigma", "0.332057", "--k-max", "20"])
    captured = capsys.readouterr()
    assert code == 0
    assert float(captured.out.split("sigma = ")[1].splitlines()[0]) == 0.332057
    printed = float(captured.out.split("f(1) = ")[1].splitlines()[0])
    assert printed == series_eval(0.332057, 1.0, 20)
    assert "truncation estimate" in captured.out


@pytest.mark.parametrize("argv, message", [
    (["--eta", "1e10"], "error: series term 10 overflows at eta = 10000000000.0"),
    (["--eta", "2", "--sigma", "1e200"], "error: series term 1 overflows at eta = 2.0"),
    (["--eta", "nan"], "error: sigma must be finite, and eta finite and non-negative"),
])
def test_series_bad_input_is_named(argv, message, capsys):
    code = run_cli(["series", *argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == message + "\n"


def test_series_at_the_wall_is_zero_for_any_sigma(capsys):
    # every term vanishes at eta = 0, even where sigma ** (k + 1) alone would overflow
    code = run_cli(["series", "--eta", "0", "--sigma", "1e200"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.splitlines()[1:] == ["f(0) = 0", "truncation estimate = 0.000000e+00"]
    assert captured.err == ""


def test_compare_writes_rows(quick_model, tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    code = run_cli(["compare", "--model", str(quick_model), "--table", "T2",
                    "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "eta,ours,reference,rel_error,absolute"
    # T2 has one row past the trial domain; it must be skipped with a notice
    assert "beyond domain_end=6" in captured.err
    kept = sum(1 for eta in load_table("T2").etas if eta <= 6.0)
    assert len(lines) == 1 + kept


def test_compare_column_selection(quick_model, capsys):
    assert run_cli(["compare", "--model", str(quick_model), "--table", "T1",
                    "--column", "howarth"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("eta,ours,reference,rel_error,absolute")
    assert run_cli(["compare", "--model", str(quick_model), "--table", "T1",
                    "--column", "bogus"]) == 1
    captured = capsys.readouterr()
    # the message itself, not the repr that str() of a KeyError gives
    assert captured.err.splitlines()[-1] == (
        "error: table T1 has no column 'bogus' (have: howarth, sinc_collocation)")


def test_compare_unknown_table(quick_model, capsys):
    code = run_cli(["compare", "--model", str(quick_model), "--table", "T9"])
    captured = capsys.readouterr()
    assert code == 1
    assert "unknown table id" in captured.err


def test_check_gradients_passes(capsys):
    code = run_cli(["check-gradients", "--draws", "3"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.count("PASS") == 15  # 14 cases + overall
    assert "overall: PASS" in captured.out


@pytest.mark.parametrize("draws", ["0", "-3"])
def test_check_gradients_without_draws_fails(draws, capsys):
    code = run_cli(["check-gradients", "--draws", draws])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: draws must be at least 1\n"


def test_profile_evaluates_model(quick_model, tmp_path, capsys):
    out = tmp_path / "profile.csv"
    code = run_cli(["profile", "--model", str(quick_model), "--points", "13",
                    "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    profile = read_profile_csv(out)
    assert len(profile) == 13
    assert profile.eta[0] == 0.0
    assert profile.eta[-1] == 6.0
    assert profile.f[0] == 0.0  # trial form pins the wall value


def test_profile_rejects_single_point(quick_model, capsys):
    code = run_cli(["profile", "--model", str(quick_model), "--points", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert "--points" in captured.err


def test_profile_failed_write_leaves_no_temp_file(quick_model, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.mkdir()  # the rename onto a directory fails
    code = run_cli(["profile", "--model", str(quick_model), "--points", "5", "--out", str(taken)])
    captured = capsys.readouterr()
    assert code == 1
    assert len([line for line in captured.err.splitlines() if line.startswith("error:")]) == 1
    assert sorted(path.name for path in tmp_path.iterdir()) == ["taken"]


def test_missing_model_file(capsys):
    code = run_cli(["profile", "--model", "does-not-exist.txt"])
    captured = capsys.readouterr()
    assert code == 1
    assert "error:" in captured.err


@pytest.mark.parametrize("argv", [
    ["solve", "--runs", "2", "--iterations", "1500", "--lr", "5e-3"],
    ["profile", "--model", "MODEL", "--points", "1"],
    ["oracle", "--tol", "1e-30"],
    ["oracle", "--eta-max", "nan"],
    ["compare", "--model", "MODEL", "--table", "1", "--column", "bogus"],
    ["series", "--eta", "-1"],
])
def test_failures_print_one_error_line(argv, quick_model, capsys):
    # run_cli is the one place that prints an error line; commands raise
    code = run_cli([str(quick_model) if arg == "MODEL" else arg for arg in argv])
    captured = capsys.readouterr()
    assert code == 1
    assert len([line for line in captured.err.splitlines() if line.startswith("error: ")]) == 1
    assert "Traceback" not in captured.err


def test_usage_errors_exit_two(capsys):
    assert run_cli([]) == 2
    capsys.readouterr()
    assert run_cli(["unknown-command"]) == 2
    capsys.readouterr()
    assert run_cli(["series"]) == 2  # --eta is required
    capsys.readouterr()
    for flag in ("--lr-v", "--lr-u", "--lr-w"):
        assert run_cli(["solve", flag, "1e-4"]) == 2
        capsys.readouterr()
