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
import os
import sys
from pathlib import Path

import numpy as np

from .gradcheck import run_gradient_checks
from .model_io import load_model, save_model
from .oracles import rk4_profile, series_eval, series_tail_estimate, shoot
from .problem import CollocationGrid, DEFAULT_PENALTY_WEIGHT
from .profiles import format_float, write_profile_csv
from .report import compare as compare_rows
from .report import evaluate_profile
from .tables import load_table
from .training import TrainingConfig, best_run, seed_sweep, train
from .trial import TrialMode, TrialSpec

__all__ = ["build_parser", "run_cli", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blasius-net",
        description="Sigmoid-network solver for the flat-plate boundary-layer equation, "
                    "with classical oracles and bundled reference tables.")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="train a network on the collocation loss")
    solve.add_argument("--mode", choices=[m.value for m in TrialMode], default="penalty")
    solve.add_argument("--hidden", type=int, default=5)
    solve.add_argument("--points", type=int, default=10)
    solve.add_argument("--domain-end", type=float, default=6.0)
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--iterations", type=int, default=50000)
    solve.add_argument("--lr-v", type=float, default=1e-4)
    solve.add_argument("--lr-u", type=float, default=1e-4)
    solve.add_argument("--lr-w", type=float, default=1e-4)
    solve.add_argument("--penalty", type=float, default=DEFAULT_PENALTY_WEIGHT,
                       help="far-slope penalty weight (penalty mode only)")
    solve.add_argument("--runs", type=int, default=1,
                       help="train this many consecutive seeds, keep the best")
    solve.add_argument("--out", help="write the best model here")
    solve.set_defaults(func=_cmd_solve)

    oracle = sub.add_parser("oracle", help="classical RK4 shooting solution")
    oracle.add_argument("--eta-max", type=float, default=10.0)
    oracle.add_argument("--step", type=float, default=1e-3)
    oracle.add_argument("--tol", type=float, default=1e-10)
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
    comp.add_argument("--column", default=None,
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


def _cmd_solve(args) -> int:
    spec = TrialSpec(TrialMode(args.mode), args.domain_end)
    cfg = TrainingConfig(
        hidden_count=args.hidden,
        trial=spec,
        grid=CollocationGrid.equidistant(args.points, args.domain_end),
        lr_v=args.lr_v, lr_u=args.lr_u, lr_w=args.lr_w,
        penalty_weight=args.penalty,
        max_iterations=args.iterations,
        seed=args.seed,
    )
    if args.runs == 1:
        best = train(cfg)
        finals = [best.final_loss]
        diverged = 0
    else:
        runs = seed_sweep(cfg, args.runs)
        best = best_run(runs)
        if best is None:
            print(f"error: all {args.runs} seeds diverged", file=sys.stderr)
            return 1
        finals = [r.final_loss for r in runs if r is not None]
        diverged = len(runs) - len(finals)
    print(f"mode={args.mode} hidden={args.hidden} points={args.points} "
          f"domain_end={format_float(args.domain_end)} seed={args.seed} runs={args.runs}")
    if diverged:
        print(f"diverged seeds: {diverged}/{args.runs}")
    print(f"final loss: best={best.final_loss:.6e} mean={np.mean(finals):.6e} "
          f"min={np.min(finals):.6e} max={np.max(finals):.6e}")
    print(f"best run: iterations={best.iterations_used} "
          f"initial_loss={best.loss_history[0]:.6e}")
    if args.out:
        save_model(best.final_params, spec, args.out)
        print(f"model written: {args.out}")
    return 0


def _cmd_oracle(args) -> int:
    # always shoot against a far horizon, even when a short profile is asked for
    sigma = shoot(eta_far=max(args.eta_max, 10.0), tol=args.tol, step=args.step)
    profile = rk4_profile(sigma, args.eta_max, args.step)
    comments = {"sigma": format_float(sigma)}
    if args.out:
        write_profile_csv(profile, args.out, comments=comments)
        print(f"sigma = {format_float(sigma)}")
        print(f"profile written: {args.out}")
    else:
        write_profile_csv(profile, sys.stdout, comments=comments)
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
    within = table.restrict(spec.domain_end)
    skipped = [eta for eta in table.etas.tolist() if eta > spec.domain_end]
    if skipped:
        print(f"note: {len(skipped)} rows beyond domain_end={spec.domain_end} skipped: "
              f"{skipped}", file=sys.stderr)
    profile = evaluate_profile(spec, params, within.etas)
    column = args.column if args.column is not None else -1
    rows = compare_rows(profile, within, reference=column)
    lines = ["eta,ours,reference,rel_error,absolute"]
    for row in rows:
        lines.append(",".join([
            format_float(row.eta), format_float(row.ours), format_float(row.reference),
            f"{row.rel_error:.6e}", "1" if row.absolute else "0"]))
    text = "\n".join(lines) + "\n"
    if args.out:
        tmp = Path(args.out).with_name(Path(args.out).name + ".tmp")
        tmp.write_text(text)
        os.replace(tmp, args.out)
    else:
        sys.stdout.write(text)
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
    if args.points < 2:
        print("error: --points must be at least 2", file=sys.stderr)
        return 1
    etas = np.linspace(0.0, spec.domain_end, args.points)
    profile = evaluate_profile(spec, params, etas)
    if args.out:
        write_profile_csv(profile, args.out)
        print(f"profile written: {args.out}")
    else:
        write_profile_csv(profile, sys.stdout)
    return 0


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except Exception as exc:  # CLI boundary: report and signal failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
