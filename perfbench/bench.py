"""Benchmark worker for blasius-net: one workload, one seed, one run.

Drives the public CLI in-process through ``blasius_net.cli.run_cli`` with
stdout and stderr captured, as one closed-loop client: the next op starts
when the previous one has returned.  Every op's output is checked; an op
fails on a nonzero exit, an exception, or an output that fails its check.

Workloads (the workload seed feeds ``--seed`` of solve and check-gradients):

* ``sweep``: ``solve --runs 20`` on the documented default configuration,
  iterations cut to fit the run.  The only workload where work is shared
  across seeds (seed batching and the duplicate sweep in solve show here).
* ``single``: ``solve`` with one seed.  No seed axis, so seed batching must
  show no change here; per-iteration overhead shows undiluted.
* ``validate``: one pass of the post-training checks on the committed model
  file: oracle, a dense profile, compare on all eight tables and the
  gradient audit.  No training; the scalar network/trial paths work here.

Each run first runs one reference op at seed 0, untimed.  It warms the
process up, is checked against the values recorded in expected.json, and
gives the accuracy metrics, so those repeat exactly whatever the seed.

Run through run.py, which caps the BLAS thread pools; see README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
EXPECTED_PATH = HERE / "expected.json"
MODEL_PATH = HERE / "validate_model.txt"

WORKLOADS = ("sweep", "single", "validate")
REFERENCE_SEED = 0
SETUP_SAMPLES = 7

SWEEP_RUNS = 20
SWEEP_ITERATIONS = 200
SINGLE_ITERATIONS = 3000
# 1201 points put a grid row on every accuracy abscissa (step 0.005)
PROFILE_POINTS = 1201
GRADCHECK_DRAWS = 10
TABLE_IDS = tuple(f"T{i}" for i in range(1, 9))
CLI_COMMANDS = ("solve", "oracle", "profile", "compare", "check-gradients")

SPEED_PROBE_LOOPS = 700
# roughly the speed probe's time on the baseline host when fast; times are
# reported as wall time * SPEED_PROBE_REFERENCE_S / (probe time next to them)
SPEED_PROBE_REFERENCE_S = 5e-3

SIGMA_REF = 0.332056697280   # tabulated Blasius wall curvature f''(0)
SIGMA_TOL = 5e-6
ACCURACY_ETAS = tuple(0.5 * k for k in range(1, 13))
# Tolerances against recorded values: wide enough for reordered
# floating-point sums, far too narrow for a wrong answer.
PRINTED_RTOL = 1e-5      # values printed with 7 significant digits
FULL_RTOL = 1e-8         # values carried at full precision
SIGMA_ATOL = 1e-9        # bisection may stop one step apart
GRADCHECK_RTOL = 0.1     # finite-difference noise in the audit's worst case

FINAL_RE = re.compile(r"final loss: best=(\S+) mean=(\S+) min=(\S+) max=(\S+)$")
BEST_RE = re.compile(r"best run: iterations=(\d+) initial_loss=(\S+)$")
DIVERGED_RE = re.compile(r"diverged seeds: (\d+)/(\d+)$")
GRAD_RE = re.compile(r"(.+) \((\d+) draws\): max rel err (\S+) (PASS|FAIL)$")


class CheckFailed(Exception):
    """An op's output did not pass its check."""


@dataclass(frozen=True)
class Call:
    argv: list
    rc: int
    stdout: str
    stderr: str


def op_argvs(workload: str, seed: int, tmp: Path) -> list[list[str]]:
    """The CLI invocations that make up one op."""
    if workload == "sweep":
        return [["solve", "--runs", str(SWEEP_RUNS), "--iterations", str(SWEEP_ITERATIONS),
                 "--seed", str(seed), "--out", str(tmp / "model.txt")]]
    if workload == "single":
        return [["solve", "--iterations", str(SINGLE_ITERATIONS),
                 "--seed", str(seed), "--out", str(tmp / "model.txt")]]
    model = str(MODEL_PATH)
    return ([["oracle", "--out", str(tmp / "oracle.csv")],
             ["profile", "--model", model, "--points", str(PROFILE_POINTS),
              "--out", str(tmp / "profile.csv")]]
            + [["compare", "--model", model, "--table", tid] for tid in TABLE_IDS]
            + [["check-gradients", "--draws", str(GRADCHECK_DRAWS), "--seed", str(seed)]])


def setup(workload: str, seed: int):
    """Import the package from this checkout and prepare the op inputs.

    Returns (elapsed seconds, run_cli, timed argvs, reference argvs, tmp dir).
    """
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    from blasius_net import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"blasius_net imported from {cli.__file__}, not from {SRC}")
    tmp = OUT_DIR / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    argvs = op_argvs(workload, seed, tmp)
    reference = op_argvs(workload, REFERENCE_SEED, tmp)
    return perf_counter() - t0, cli.run_cli, argvs, reference, tmp


def run_op(run_cli, argvs) -> list[Call]:
    calls = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = run_cli(argv)
        calls.append(Call(argv, rc, out.getvalue(), err.getvalue()))
    return calls


# ---------------------------------------------------------------- checks

def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _close(actual: float, expected: float, rtol: float) -> bool:
    return abs(actual - expected) <= rtol * abs(expected)


def _exit_ok(call: Call) -> None:
    _require(call.rc == 0, f"{call.argv[0]} exited {call.rc}: {call.stderr.strip()[:200]}")


def _model_loss(params, spec) -> float:
    from blasius_net.problem import CollocationGrid, loss
    return loss(spec, params, CollocationGrid.equidistant(10, 6.0)).total


def parse_solve(calls: list[Call], seed: int, runs: int) -> dict:
    (call,) = calls
    _exit_ok(call)
    lines = call.stdout.splitlines()
    _require(lines and lines[0] == f"mode=penalty hidden=5 points=10 domain_end=6 "
             f"seed={seed} runs={runs}", f"unexpected solve header {lines[:1]}")
    parsed = {"diverged": 0}
    for line in lines[1:]:
        if m := DIVERGED_RE.match(line):
            parsed["diverged"] = int(m.group(1))
        elif m := FINAL_RE.match(line):
            parsed.update(zip(("best", "mean", "min", "max"), map(float, m.groups())))
            parsed["best_text"], parsed["min_text"] = m.group(1), m.group(3)
        elif m := BEST_RE.match(line):
            parsed["iterations"] = int(m.group(1))
            parsed["initial_loss"] = float(m.group(2))
    _require("best" in parsed and "iterations" in parsed, "solve printed no result lines")
    _require(lines[-1] == f"model written: {call.argv[-1]}", "solve wrote no model")
    return parsed


def check_solve(parsed: dict, calls: list[Call], expected: dict | None) -> None:
    """Checks for any seed, plus the recorded values when expected is given."""
    from blasius_net.model_io import load_model
    _require(parsed["min_text"] == parsed["best_text"], "best and min disagree")
    _require(parsed["min"] <= parsed["mean"] <= parsed["max"], "mean outside [min, max]")
    recomputed = _model_loss(*load_model(calls[0].argv[-1]))
    _require(_close(parsed["best"], recomputed, 1e-6),
             f"printed best loss {parsed['best']} but the saved model gives {recomputed}")
    if expected is None:
        return
    _require(parsed["diverged"] == 0, "reference sweep reports diverged seeds")
    for key, value in expected["stdout"].items():
        _require(_close(parsed[key], value, PRINTED_RTOL), f"{key}={parsed[key]}, recorded {value}")


def _read_csv(path: Path) -> list[list[float]]:
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    _require(lines[0] == "eta,f,fp,fpp", f"{path.name}: bad header")
    return [[float(x) for x in line.split(",")] for line in lines[1:]]


def parse_validate(calls: list[Call]) -> dict:
    oracle, profile, *compares, gradients = calls
    for call in calls[:-1]:
        _exit_ok(call)
    sigma_line = oracle.stdout.splitlines()[0]
    _require(sigma_line.startswith("sigma = "), f"oracle printed {sigma_line!r}")
    parsed = {"oracle_sigma": float(sigma_line[len("sigma = "):]),
              "oracle_rows": len(_read_csv(Path(oracle.argv[-1])))}

    rows = _read_csv(Path(profile.argv[-1]))
    _require(len(rows) == PROFILE_POINTS, f"profile has {len(rows)} rows")
    step = rows[-1][0] / (PROFILE_POINTS - 1)
    picked = [rows[0]] + [rows[round(eta / step)] for eta in ACCURACY_ETAS]
    _require(all(abs(r[0] - eta) <= 1e-12 for r, eta in zip(picked, (0.0,) + ACCURACY_ETAS)),
             "profile grid misses the accuracy abscissae")
    parsed["profile"] = {"f": [r[1] for r in picked], "fp": [r[2] for r in picked],
                         "fpp": [r[3] for r in picked]}

    parsed["compare"] = {}
    for tid, call in zip(TABLE_IDS, compares):
        lines = call.stdout.splitlines()
        _require(lines[0] == "eta,ours,reference,rel_error,absolute", f"compare {tid}: bad header")
        errors = [float(line.split(",")[3]) for line in lines[1:]]
        parsed["compare"][tid] = {"rows": len(errors), "max_rel_error": max(errors)}

    lines = gradients.stdout.splitlines()
    matches = [GRAD_RE.match(line) for line in lines[:-1]]
    _require(all(matches) and lines[-1].startswith("overall: "), "check-gradients output malformed")
    parsed["gradcheck"] = {"rc": gradients.rc, "cases": len(matches),
                           "overall": lines[-1][len("overall: "):],
                           "worst": max(float(m.group(3)) for m in matches)}
    return parsed


def check_validate(parsed: dict, expected: dict, pinned_seed: bool) -> None:
    """Checks for any seed; gradient-audit values are recorded for seed 0 only."""
    sigma = parsed["oracle_sigma"]
    _require(abs(sigma - SIGMA_REF) <= SIGMA_TOL, f"oracle sigma {sigma} off the tabulated value")
    _require(abs(sigma - expected["oracle_sigma"]) <= SIGMA_ATOL, f"oracle sigma {sigma} moved")
    _require(parsed["oracle_rows"] == expected["oracle_rows"], "oracle profile row count moved")
    prof = parsed["profile"]
    _require(prof["f"][0] == 0.0 and prof["fp"][0] == 0.0, "wall conditions broken")
    for key, values in expected["profile"].items():
        _require(all(_close(a, b, FULL_RTOL) for a, b in zip(prof[key], values)),
                 f"profile column {key} moved")
    for tid, want in expected["compare"].items():
        got = parsed["compare"][tid]
        _require(got["rows"] == want["rows"], f"compare {tid}: {got['rows']} rows")
        _require(_close(got["max_rel_error"], want["max_rel_error"], PRINTED_RTOL),
                 f"compare {tid}: max rel error {got['max_rel_error']} moved")
    grad = parsed["gradcheck"]
    _require(grad["rc"] == 0 and grad["overall"] == "PASS", "gradient audit failed")
    _require(grad["cases"] == expected["gradcheck_cases"], "gradient audit case count moved")
    if pinned_seed:
        _require(_close(grad["worst"], expected["gradcheck_worst"], GRADCHECK_RTOL),
                 f"gradient audit worst {grad['worst']} moved")


def _max_rel_error(ours, reference) -> float:
    return max(abs(a - b) / abs(b) for a, b in zip(ours, reference))


def accuracy(workload: str, calls: list[Call], parsed: dict, oracle_ref: dict) -> dict:
    """Accuracy of the op's result against the recorded RK4 oracle, plus its f''(0)."""
    from blasius_net.model_io import load_model
    from blasius_net.report import evaluate_profile
    if workload == "validate":
        params, spec = load_model(MODEL_PATH)
        prof = parsed["profile"]
        f, fp, fpp0 = prof["f"][1:], prof["fp"][1:], prof["fpp"][0]
    else:
        params, spec = load_model(calls[0].argv[-1])
        prof = evaluate_profile(spec, params, (0.0,) + ACCURACY_ETAS)
        f, fp, fpp0 = prof.f[1:].tolist(), prof.fp[1:].tolist(), float(prof.fpp[0])
    return {
        "best_loss": _model_loss(params, spec),
        "err_f": _max_rel_error(f, oracle_ref["f"]),
        "err_fp": _max_rel_error(fp, oracle_ref["fp"]),
        "shear_err": abs(fpp0 - SIGMA_REF),
        "fpp0": fpp0,
    }


# ---------------------------------------------------------------- timing

class SpeedProbe:
    """A fixed kernel, timed next to each op to track the host's speed.

    On the 2-core Xeon host of the first baseline (baseline.json) effective
    CPU speed swings by up to 2x in phases of seconds to minutes, which
    moves raw op latencies far more than any bound could allow.  The
    kernel's time swings with it: small-array numpy calls and scalar float
    arithmetic in the interpreter, in about equal parts, which is what the
    program is made of (the two slow down by different factors).
    It is part of the benchmark, so changes to the program cannot move it.
    """

    def __init__(self):
        import numpy as np
        self._np = np
        self._a = np.linspace(0.1, 1.0, 55).reshape(11, 5)
        self._b = np.empty_like(self._a)
        self._c = np.empty((5, 5))

    def __call__(self) -> float:
        np, a, b, c = self._np, self._a, self._b, self._c
        t0 = perf_counter()
        for _ in range(SPEED_PROBE_LOOPS):
            np.tanh(a, b)
            np.multiply(b, 0.5, b)
            np.add(b, 1.0, b)
            np.matmul(a.T, b, c)
        f, g, h = 0.0, 0.0, 0.33
        for _ in range(SPEED_PROBE_LOOPS * 16):
            k = -0.5 * f * h
            f2, g2, h2 = f + 5e-4 * g, g + 5e-4 * h, h + 5e-4 * k
            f, g, h = f + 1e-3 * g2, g + 1e-3 * h2, h - 5e-4 * f2 * h2
        return perf_counter() - t0


@dataclass
class Timings:
    """Latencies, raw and scaled to the reference host speed."""

    wall: list = field(default_factory=list)
    scaled: list = field(default_factory=list)
    probe: list = field(default_factory=list)
    parsed: list = field(default_factory=list)

    def add(self, seconds: float, probe_before: float, probe_after: float) -> None:
        probe = 0.5 * (probe_before + probe_after)
        self.wall.append(seconds)
        self.probe.append(probe)
        self.scaled.append(seconds * SPEED_PROBE_REFERENCE_S / probe)

    def median(self) -> float:
        return statistics.median(self.scaled)


# ---------------------------------------------------------------- running

class Runner:
    """Runs and checks ops of one workload, counting attempts and failures."""

    def __init__(self, workload: str, seed: int, run_cli, argvs, expected: dict):
        self.workload, self.seed, self.run_cli, self.argvs = workload, seed, run_cli, argvs
        self.expected = expected
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.first_outputs: tuple | None = None
        self.speed = SpeedProbe()

    def attempt(self, argvs, seed: int, run_op_fn=run_op):
        """Run and check one op; return (latency, calls, parsed), or None if it failed."""
        self.attempted += 1
        try:
            t0 = perf_counter()
            calls = run_op_fn(self.run_cli, argvs)
            latency = perf_counter() - t0
            parsed = self.check(calls, seed)
        except Exception as exc:  # any failure of the op counts as a failed op
            self.fail(exc)
            return None
        return latency, calls, parsed

    def fail(self, exc: Exception) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{type(exc).__name__}: {exc}")

    def check(self, calls: list[Call], seed: int) -> dict:
        pinned = seed == REFERENCE_SEED
        if self.workload == "validate":
            parsed = parse_validate(calls)
            check_validate(parsed, self.expected["validate"], pinned)
        else:
            runs = SWEEP_RUNS if self.workload == "sweep" else 1
            parsed = parse_solve(calls, seed, runs)
            check_solve(parsed, calls, self.expected[self.workload] if pinned else None)
        if seed == self.seed:
            # every op of a run repeats the first one byte for byte
            outputs = tuple(call.stdout for call in calls)
            if self.first_outputs is None:
                self.first_outputs = outputs
            _require(outputs == self.first_outputs, "op output differs from the run's first op")
        return parsed

    def reference(self, reference_argvs, report: "Report") -> None:
        """Untimed warm-up op at seed 0, giving the accuracy metrics."""
        done = self.attempt(reference_argvs, REFERENCE_SEED)
        if done is None:
            return
        _, calls, parsed = done
        recorded = self.expected[self.workload]["accuracy"]
        try:
            acc = accuracy(self.workload, calls, parsed, self.expected["oracle_reference"])
            report.extras["fpp0"] = (acc.pop("fpp0"), "1", 1)
            _require(all(_close(acc[key], recorded[key], FULL_RTOL) for key in recorded),
                     f"accuracy {acc} differs from recorded {recorded}")
        except Exception as exc:  # counted like any other failed op
            self.fail(exc)
            return
        report.accuracy = {key: (value, "1", 1) for key, value in acc.items()}
        if self.workload == "validate":
            report.extras["sigma_err"] = (abs(parsed["oracle_sigma"] - SIGMA_REF), "1", 1)
            report.extras["gradcheck_worst"] = (parsed["gradcheck"]["worst"], "1", 1)

    def loop(self, seconds: float, run_op_fn=run_op) -> Timings:
        """Closed loop for the given wall time, the speed probe timed between ops."""
        timings = Timings()
        deadline = perf_counter() + seconds
        before = self.speed()
        while True:
            done = self.attempt(self.argvs, self.seed, run_op_fn)
            after = self.speed()
            if done is not None:
                timings.add(done[0], before, after)
                timings.parsed.append(done[2])
            before = after
            if perf_counter() >= deadline:
                return timings


@dataclass
class Report:
    """What one run found: metrics for the JSON line, extras only printed."""

    metrics: dict = field(default_factory=dict)
    accuracy: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    fingerprint: list | None = None
    trace_file: Path | None = None


def useful_seed_iterations(workload: str, parsed: dict) -> int:
    # no seed reaches the 1e-8 loss target within the cut budget, so every
    # surviving seed runs all its iterations; a seed trained twice counts once
    if workload == "sweep":
        return (SWEEP_RUNS - parsed["diverged"]) * SWEEP_ITERATIONS
    return parsed["iterations"]


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1))]


def layer_metrics(s: tracing.Summary, untraced: float, traced: float) -> dict:
    """Per-layer metrics as {name: (value, unit, sample count)}; counts and times are per op."""
    ops = max(s.ops, 1)
    calls = s.calls.get
    m = {}

    def per_op(name: str, metric: str, table: dict, unit: str):
        m[metric] = (table.get(name, 0) / ops, unit, calls(name, 0))

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    evaluate = s.durations.get("problem.evaluate", [])
    per_op("problem.evaluate", "problem.evaluate.calls", s.calls, "count/op")
    m["problem.evaluate.us_p50"] = (_percentile(evaluate, 0.5) * 1e6, "us", len(evaluate))
    m["problem.evaluate.us_p99"] = (_percentile(evaluate, 0.99) * 1e6, "us", len(evaluate))
    m["problem.evaluate.share"] = (ratio(s.self_time.get("problem.evaluate", 0.0), s.op_time),
                                   "1", len(evaluate))
    per_op("problem.evaluator_build", "problem.evaluator_builds", s.calls, "count/op")
    per_op("problem.evaluator_build", "problem.evaluator_build.busy_s", s.busy, "s/op")

    trains = s.notes.get("training.train", [])
    iterations = sum(note["iterations"] for note in trains)
    per_op("training.train", "training.train.calls", s.calls, "count/op")
    m["training.train_calls_per_seed"] = (ratio(len(trains), s.distinct_seeds), "1", len(trains))
    m["training.iterations"] = (iterations / ops, "count/op", len(trains))
    m["training.loop_us_per_iteration"] = (
        ratio(s.self_time.get("training.train", 0.0) * 1e6, iterations), "us/iter", len(trains))
    m["training.diverged"] = (sum(note["diverged"] for note in trains) / ops, "count/op",
                              len(trains))
    per_op("training.init_params", "training.init_params.busy_s", s.busy, "s/op")

    for name in ("network.input_derivative", "network.param_gradient", "trial.trial_value",
                 "trial.trial_derivative", "trial.trial_param_gradient"):
        per_op(name, f"{name}.calls", s.calls, "count/op")
        per_op(name, f"{name}.self_s", s.self_time, "s/op")

    per_op("gradcheck.run_gradient_checks", "gradcheck.run_gradient_checks.busy_s", s.busy, "s/op")
    per_op("gradcheck.fd_param_gradient", "gradcheck.fd_param_gradient.calls", s.calls, "count/op")
    per_op("gradcheck.fd_param_gradient", "gradcheck.fd_param_gradient.self_s", s.self_time, "s/op")

    per_op("report.evaluate_profile", "report.evaluate_profile.busy_s", s.busy, "s/op")
    points = sum(s.notes.get("report.evaluate_profile", []))
    m["report.evaluate_profile.us_per_point"] = (
        ratio(s.busy.get("report.evaluate_profile", 0.0) * 1e6, points),
        "us/point", calls("report.evaluate_profile", 0))
    per_op("report.compare", "report.compare.busy_s", s.busy, "s/op")

    per_op("oracles.shoot", "oracles.shoot.busy_s", s.busy, "s/op")
    per_op("oracles.rk4_profile", "oracles.rk4_profile.busy_s", s.busy, "s/op")
    steps = sum(s.notes.get("oracles.far_slope", [])) + sum(s.notes.get("oracles.rk4_profile", []))
    m["oracles.rk4_steps"] = (steps / ops, "count/op",
                              calls("oracles.far_slope", 0) + calls("oracles.rk4_profile", 0))

    for name in ("model_io.save_model", "model_io.load_model", "profiles.write_profile_csv",
                 "tables.load_table"):
        per_op(name, f"{name}.busy_s", s.busy, "s/op")
    m["profiles.bytes_written"] = (sum(s.notes.get("profiles.write_profile_csv", [])) / ops,
                                   "B/op", calls("profiles.write_profile_csv", 0))

    exits = []
    for command in CLI_COMMANDS:
        per_op(f"cli.{command}", f"cli.{command}.busy_s", s.busy, "s/op")
        exits += s.notes.get(f"cli.{command}", [])
    m["cli.exit_nonzero"] = (sum(1 for rc in exits if rc != 0) / ops, "count/op", len(exits))
    m["trace.overhead"] = (traced / untraced - 1.0, "1", s.ops)
    return m


def traced_op(tracer: tracing.Tracer):
    """run_op with one span per op and one per CLI command inside it."""
    commands = {}

    def traced_cli(run_cli, argv):
        if argv[0] not in commands:
            commands[argv[0]] = tracer.wrap(f"cli.{argv[0]}", run_cli,
                                            lambda args, kwargs, rc, exc: rc)
        return commands[argv[0]](argv)

    def op(run_cli, argvs):
        return run_op(lambda argv: traced_cli(run_cli, argv), argvs)

    return tracer.wrap(tracing.OP_SPAN, op)


def measure(workload: str, seed: int, seconds: float, trace: bool, run_cli, argvs,
            reference_argvs, expected: dict) -> Report:
    """One run after setup: the reference op, then the timed loop.

    With trace, half the time runs untraced and half traced, and the
    per-layer metrics replace the end-to-end ones.
    """
    runner = Runner(workload, seed, run_cli, argvs, expected)
    report = Report(errors=runner.errors)
    runner.reference(reference_argvs, report)
    if not trace:
        timed = runner.loop(seconds)
        n = len(timed.wall)
        if n:
            report.metrics["op_median_s"] = (timed.median(), "s", n)
            report.extras["op_wall_median_s"] = (statistics.median(timed.wall), "s", n)
            report.extras["speed_probe_median_s"] = (statistics.median(timed.probe), "s", n)
            if workload != "validate":
                report.extras["seed_iters_per_s"] = (
                    useful_seed_iterations(workload, timed.parsed[0]) / timed.median(), "1/s", n)
        report.metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1)
        report.metrics.update(report.accuracy)
    else:
        plain = runner.loop(seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = runner.loop(seconds / 2, traced_op(tracer))
        finally:
            tracer.uninstall()
        if plain.wall and traced.wall:
            summary = tracing.Summary(tracer)
            report.metrics = layer_metrics(summary, plain.median(), traced.median())
            sweeps = summary.notes.get("training.seed_sweep")
            report.fingerprint = sweeps[0] if sweeps else None
            report.trace_file = OUT_DIR / f"trace-{workload}-seed{seed}.json"
            tracer.dump(report.trace_file, {
                "workload": workload, "seed": seed, "environment": environment(),
                "fingerprint_final_losses": report.fingerprint,
                "metrics": {k: {"value": v, "unit": u, "samples": n}
                            for k, (v, u, n) in report.metrics.items()}})
    report.attempted, report.failed = runner.attempted, runner.failed
    return report


def environment() -> dict:
    import numpy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "cpu_count": os.cpu_count(),
            "threads": {key: os.environ.get(key) for key in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


# ---------------------------------------------------------------- entry

def setup_timings(workload: str, seed: int) -> Timings:
    """Set-up time of fresh processes, each timing the speed probe right after."""
    timings = Timings()
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", workload,
             "--seed", str(seed)], capture_output=True, text=True, timeout=60, check=True)
        elapsed, probe_before, probe_after = map(float, done.stdout.split()[-3:])
        timings.add(elapsed, probe_before, probe_after)
    return timings


def record(run_cli, tmp: Path) -> dict:
    """Recompute expected.json from the program as it stands."""
    from blasius_net.oracles import rk4_profile, shoot
    sigma = shoot()
    oracle = rk4_profile(sigma, ACCURACY_ETAS[-1], 1e-3)
    rows = [oracle.index_of(eta) for eta in ACCURACY_ETAS]
    expected = {"oracle_reference": {
        "source": "blasius_net.oracles: rk4_profile(shoot(), 6.0, 1e-3)",
        "sigma": sigma, "eta": list(ACCURACY_ETAS),
        "f": [float(oracle.f[i]) for i in rows], "fp": [float(oracle.fp[i]) for i in rows]}}
    for workload in WORKLOADS:
        calls = run_op(run_cli, op_argvs(workload, REFERENCE_SEED, tmp))
        if workload == "validate":
            parsed = parse_validate(calls)
            entry = {"oracle_sigma": parsed["oracle_sigma"], "oracle_rows": parsed["oracle_rows"],
                     "profile": parsed["profile"], "compare": parsed["compare"],
                     "gradcheck_cases": parsed["gradcheck"]["cases"],
                     "gradcheck_worst": parsed["gradcheck"]["worst"]}
        else:
            runs = SWEEP_RUNS if workload == "sweep" else 1
            parsed = parse_solve(calls, REFERENCE_SEED, runs)
            entry = {"stdout": {key: parsed[key] for key in
                                ("best", "mean", "min", "max", "iterations", "initial_loss")}}
        entry["accuracy"] = accuracy(workload, calls, parsed, expected["oracle_reference"])
        del entry["accuracy"]["fpp0"]
        expected[workload] = entry
    return expected


def print_report(workload: str, seed: int, report: Report) -> None:
    print(f"workload={workload} seed={seed} attempted={report.attempted} "
          f"failed={report.failed} failed_frac={report.failed / report.attempted:.4f}")
    for message in report.errors:
        print(f"  failure: {message}")
    for name, (value, unit, samples) in {**report.metrics, **report.extras}.items():
        print(f"  {name:<40} {value:>14.6g} {unit:<9} n={samples}")
    if report.fingerprint is not None:
        print("  fingerprint (per-seed final losses of one traced op): "
              + " ".join("diverged" if x is None else repr(x) for x in report.fingerprint))
    if report.trace_file is not None:
        print(f"  spans written to {report.trace_file}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time the set-up of a fresh process and print it")
    parser.add_argument("--record", action="store_true",
                        help="rewrite expected.json from the reference ops of every workload")
    args = parser.parse_args(argv)
    # the workload seed, folded onto the non-negative seeds the CLI accepts
    seed = args.seed % 2**31

    elapsed, run_cli, argvs, reference_argvs, tmp = setup(args.workload, seed)
    try:
        if args.setup_probe:
            speed = SpeedProbe()
            speed()  # the first call pays one-off numpy dispatch costs
            print(elapsed, speed(), speed())
            return 0
        if args.record:
            EXPECTED_PATH.write_text(json.dumps(record(run_cli, tmp), indent=1) + "\n")
            return 0
        expected = json.loads(EXPECTED_PATH.read_text())
        setup_s = None if args.trace else setup_timings(args.workload, seed)
        report = measure(args.workload, seed, args.seconds, bool(args.trace), run_cli, argvs,
                         reference_argvs, expected)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if setup_s is not None:
        report.metrics["setup_s"] = (setup_s.median(), "s", len(setup_s.wall))
        report.extras["setup_wall_median_s"] = (statistics.median(setup_s.wall), "s",
                                                len(setup_s.wall))
    print_report(args.workload, seed, report)
    result = {"correct": report.failed == 0, "attempted": report.attempted,
              "failed": report.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit, _) in report.metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
