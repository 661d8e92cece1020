"""Command-line front end.

Subcommands:
    solve            train a network and optionally persist it
    oracle           shoot the wall curvature and print the RK4 profile
    series           evaluate the wall power series at one abscissa
    compare          trained model vs one bundled reference table
    check-gradients  finite-difference audit of the analytic gradients
    profile          evaluate a saved model on an eta grid as CSV

All numeric parsing/printing is locale-independent.  Exit codes: 0 success,
1 failure with a diagnostic on stderr, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from .gradcheck import run_gradient_checks
from .model_io import load_model, save_model
from .network import NETWORK_MAX_HIDDEN
from .oracles import rk4_blocks, series_eval, series_tail_estimate, shoot
from .profiles import CSV_BLOCK, format_float, open_output, write_profile_csv
from .report import compare as compare_rows
from .report import evaluate_profile
from .tables import load_table
from .training import (
    SWEEP_MAX_RUNS,
    TrainingConfig,
    best_run,
    seed_sweep,
    train,
)
from .trial import TrialMode, TrialSpec

__all__ = ["build_parser", "run_cli", "main"]

# the oracle's row cap, RK4_MAX_STEPS; profile evaluates and writes one
# block of rows at a time, and only the grid is held whole (8 B per point):
# a ~38 MB peak at the cap
PROFILE_MAX_POINTS = 10**6
# the largest grid at which one loss-and-gradient evaluation was measured to
# give the same bytes under 1, 2, 4 and 8 BLAS threads, at hidden counts
# sampled up to NETWORK_MAX_HIDDEN; past it OpenBLAS splits the products
# over threads and rounds otherwise (1154 points at 400 units already does)
SOLVE_MAX_POINTS = 1024
# a lockstep sweep holds ~47 B of jet per seed x row x hidden unit, a jet
# has points + 1 rows: ~0.4 GB at the bound, 20 seeds at both caps above
SOLVE_MAX_JET = 2**23
# XorShift64Star keeps a seed modulo 2**64, so seeds from here on repeat
SEED_END = 2**64


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blasius-net",
        description="Sigmoid-network solver for the flat-plate boundary-layer equation, "
                    "with classical oracles and bundled reference tables.")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="train a network on the collocation loss")
    setup = TrainingConfig()  # the documented setup: every training flag defaults to it
    solve.add_argument("--mode", choices=[m.value for m in TrialMode],
                       default=setup.trial.mode.value)
    solve.add_argument("--hidden", type=int, default=setup.hidden_count)
    solve.add_argument("--points", type=int, default=setup.points)
    solve.add_argument("--domain-end", type=float, default=setup.trial.domain_end)
    solve.add_argument("--seed", type=int, default=setup.seed)
    solve.add_argument("--iterations", type=int, default=setup.max_iterations)
    solve.add_argument("--lr", type=float, default=setup.lr, help="learning rate")
    solve.add_argument("--penalty", type=float, default=None,
                       help=f"far-slope penalty weight, default {setup.penalty_weight:g} "
                            "(penalty mode only)")
    solve.add_argument("--runs", type=int, default=1,
                       help="train this many consecutive seeds, keep the best")
    solve.add_argument("--out", help="write the best model here")
    solve.set_defaults(func=_cmd_solve)

    oracle = sub.add_parser("oracle", help="classical RK4 shooting solution")
    oracle.add_argument("--eta-max", type=float, default=10.0)
    oracle.add_argument("--step", type=float, default=1e-3)
    oracle.add_argument("--out", help="write the profile CSV here instead of stdout")
    oracle.set_defaults(func=_cmd_oracle)

    series = sub.add_parser("series", help="wall power-series value at one eta")
    series.add_argument("--eta", type=float, required=True)
    series.add_argument("--k-max", type=int, default=25)
    series.add_argument("--sigma", type=float, default=None,
                        help="wall curvature; defaults to the shooting value")
    series.set_defaults(func=_cmd_series)

    comp = sub.add_parser("compare", help="trained model vs a bundled reference table")
    comp.add_argument("--model", required=True)
    comp.add_argument("--table", required=True, help="table id, 1..8 or T1..T8")
    comp.add_argument("--column", default=-1,
                      help="reference column label (default: the last column)")
    comp.add_argument("--out", help="write comparison CSV here instead of stdout")
    comp.set_defaults(func=_cmd_compare)

    check = sub.add_parser("check-gradients", help="finite-difference gradient audit")
    check.add_argument("--draws", type=int, default=100)
    check.add_argument("--seed", type=int, default=0)
    check.set_defaults(func=_cmd_check_gradients)

    prof = sub.add_parser("profile", help="evaluate a saved model on an eta grid")
    prof.add_argument("--model", required=True)
    prof.add_argument("--points", type=int, default=61)
    prof.add_argument("--out", help="write the profile CSV here instead of stdout")
    prof.set_defaults(func=_cmd_profile)
    return parser


def _check_range(flag: str, value: int, low: int, cap_name: str, cap: int) -> None:
    if not low <= value <= cap:
        raise ValueError(f"{flag} must be between {low} and {cap_name} = {cap}, got {value}")


def _cmd_solve(args) -> int:
    # before the grid is allocated or a weight drawn
    _check_range("--hidden", args.hidden, 1, "NETWORK_MAX_HIDDEN", NETWORK_MAX_HIDDEN)
    _check_range("--points", args.points, 2, "SOLVE_MAX_POINTS", SOLVE_MAX_POINTS)
    _check_range("--runs", args.runs, 1, "SWEEP_MAX_RUNS", SWEEP_MAX_RUNS)
    jet = args.runs * (args.points + 1) * args.hidden
    if jet > SOLVE_MAX_JET:
        raise ValueError(f"--runs * (--points + 1) * --hidden must be at most "
                         f"SOLVE_MAX_JET = {SOLVE_MAX_JET}, got {jet}")
    if args.seed + args.runs > SEED_END:
        raise ValueError(f"--seed + --runs must be at most SEED_END = 2**64, "
                         f"got {args.seed + args.runs}")
    if args.penalty is not None and args.mode == TrialMode.PAPER.value:
        raise ValueError("--penalty has no effect in paper mode, which pins its far end")
    penalty = TrainingConfig().penalty_weight if args.penalty is None else args.penalty
    spec = TrialSpec(TrialMode(args.mode), args.domain_end)
    cfg = TrainingConfig(
        hidden_count=args.hidden,
        trial=spec,
        points=args.points,
        lr=args.lr,
        penalty_weight=penalty,
        max_iterations=args.iterations,
        seed=args.seed,
    )
    # one seed stays on train, which names the iteration a divergence happened at
    runs = [train(cfg)] if args.runs == 1 else seed_sweep(cfg, args.runs)
    best = best_run(runs)
    finals = [r.final_loss for r in runs if r is not None]
    diverged = len(runs) - len(finals)
    print(f"mode={args.mode} hidden={args.hidden} points={args.points} "
          f"domain_end={format_float(args.domain_end)} seed={args.seed} runs={args.runs}")
    if diverged:
        print(f"diverged seeds: {diverged}/{args.runs}")
    print(f"final loss: best={best.final_loss:.6e} mean={np.mean(finals):.6e} "
          f"min={np.min(finals):.6e} max={np.max(finals):.6e}")
    print(f"best run: iterations={best.iterations_used} "
          f"initial_loss={best.initial_loss:.6e}")
    if args.out:
        save_model(best.final_params, spec, args.out)
        print(f"model written: {args.out}")
    return 0


def _cmd_oracle(args) -> int:
    if not (math.isfinite(args.eta_max) and args.eta_max > 0.0):  # NaN fails both
        raise ValueError(f"--eta-max must be finite and positive, got {args.eta_max}")
    # sigma comes from its own run; --eta-max and --step set the output grid only
    # the rows go out one block at a time, so the grid is never held whole
    sigma = shoot()
    write_profile_csv(rk4_blocks(sigma, args.eta_max, args.step), args.out or sys.stdout,
                      comments={"sigma": format_float(sigma)})
    if args.out:
        print(f"sigma = {format_float(sigma)}")
        print(f"profile written: {args.out}")
    return 0


def _cmd_series(args) -> int:
    sigma = args.sigma if args.sigma is not None else shoot()
    value = series_eval(sigma, args.eta, args.k_max)
    tail = series_tail_estimate(sigma, args.eta, args.k_max)
    print(f"sigma = {format_float(sigma)}")
    print(f"f({format_float(args.eta)}) = {format_float(value)}")
    print(f"truncation estimate = {tail:.6e}")
    return 0


def _cmd_compare(args) -> int:
    params, spec = load_model(args.model)
    table = load_table(args.table)
    rows = compare_rows(spec, params, table, reference=args.column)
    skipped = table.etas[len(rows):].tolist()
    if skipped:
        print(f"note: {len(skipped)} rows beyond domain_end={spec.domain_end} skipped: "
              f"{skipped}", file=sys.stderr)
    with open_output(args.out or sys.stdout) as out:
        out.write("eta,ours,reference,rel_error,absolute\n")
        for row in rows:
            out.write(",".join([
                format_float(row.eta), format_float(row.ours), format_float(row.reference),
                f"{row.rel_error:.6e}", "1" if row.absolute else "0"]) + "\n")
    return 0


def _cmd_check_gradients(args) -> int:
    results = run_gradient_checks(draws=args.draws, seed=args.seed)
    all_passed = True
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{res.name} ({res.draws} draws): max rel err {res.max_rel_error:.3e} {status}")
        all_passed &= res.passed
    print(f"overall: {'PASS' if all_passed else 'FAIL'}")
    return 0 if all_passed else 1


def _cmd_profile(args) -> int:
    params, spec = load_model(args.model)
    _check_range("--points", args.points, 2, "PROFILE_MAX_POINTS", PROFILE_MAX_POINTS)
    etas = np.linspace(0.0, spec.domain_end, args.points)
    # one block of rows evaluated per write, so the full columns are never held
    blocks = (evaluate_profile(spec, params, etas[start:start + CSV_BLOCK])
              for start in range(0, etas.size, CSV_BLOCK))
    write_profile_csv(blocks, args.out or sys.stdout)
    if args.out:
        print(f"profile written: {args.out}")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parsing leaves the tree as it was, so one tree serves every call
    return build_parser()


def run_cli(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        # no numpy warning reaches stderr: a non-finite value ends in a named error
        with np.errstate(all="ignore"):
            return args.func(args)
    except Exception as exc:  # CLI boundary: the one place an error line is printed
        sys.stderr.write(f"error: {exc}\n")
        return 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
