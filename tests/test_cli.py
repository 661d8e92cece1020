"""End-to-end tests of the command-line interface (run in-process)."""

import io

import numpy as np
import pytest

from blasius_net import load_model, load_table, read_profile_csv, rk4_profile, series_eval, shoot
from blasius_net import cli, training
from blasius_net.cli import run_cli

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
    calls = []

    def counting_train(cfg):
        calls.append(cfg.seed)
        return original(cfg)

    original = training.train
    monkeypatch.setattr(training, "train", counting_train)
    monkeypatch.setattr(cli, "train", counting_train)
    code = run_cli(QUICK_SOLVE + ["--runs", "3"])
    captured = capsys.readouterr()
    assert code == 0
    assert calls == [0, 1, 2]
    assert captured.out == (
        "mode=penalty hidden=3 points=6 domain_end=6 seed=0 runs=3\n"
        "final loss: best=7.352425e-03 mean=2.252596e-02 min=7.352425e-03 max=3.053411e-02\n"
        "best run: iterations=200 initial_loss=8.850879e+00\n"
    )


def test_solve_reports_diverged_seeds(capsys):
    args = ["solve", "--iterations", "1500", "--runs", "3",
            "--lr-v", "3e-4", "--lr-u", "3e-4", "--lr-w", "3e-4"]
    code = run_cli(args)
    captured = capsys.readouterr()
    assert code == 0
    assert "diverged seeds: 1/3" in captured.out


def test_solve_all_seeds_diverged(capsys):
    args = ["solve", "--iterations", "1500", "--runs", "2",
            "--lr-v", "5e-3", "--lr-u", "5e-3", "--lr-w", "5e-3"]
    code = run_cli(args)
    captured = capsys.readouterr()
    assert code == 1
    assert "all 2 seeds diverged" in captured.err


def test_solve_paper_mode(tmp_path):
    path = tmp_path / "paper.txt"
    code = run_cli(["solve", "--mode", "paper", "--iterations", "50", "--out", str(path)])
    assert code == 0
    _, spec = load_model(path)
    assert spec.mode.value == "paper"


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


def test_oracle_stdout(capsys):
    code = run_cli(["oracle", "--eta-max", "1.0", "--step", "0.5"])
    captured = capsys.readouterr()
    assert code == 0
    profile = read_profile_csv(io.StringIO(captured.out))
    assert len(profile) == 3


def test_series_prints_value(capsys):
    code = run_cli(["series", "--eta", "1.0", "--sigma", "0.332057", "--k-max", "20"])
    captured = capsys.readouterr()
    assert code == 0
    assert float(captured.out.split("sigma = ")[1].splitlines()[0]) == 0.332057
    printed = float(captured.out.split("f(1) = ")[1].splitlines()[0])
    assert printed == series_eval(0.332057, 1.0, 20)
    assert "truncation estimate" in captured.out


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
    assert "error:" in captured.err


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


def test_missing_model_file(capsys):
    code = run_cli(["profile", "--model", "does-not-exist.txt"])
    captured = capsys.readouterr()
    assert code == 1
    assert "error:" in captured.err


def test_usage_errors_exit_two(capsys):
    assert run_cli([]) == 2
    capsys.readouterr()
    assert run_cli(["unknown-command"]) == 2
    capsys.readouterr()
    assert run_cli(["series"]) == 2  # --eta is required
    capsys.readouterr()
