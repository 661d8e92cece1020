"""Outside-in layer tracing for the benchmark.

The package is not instrumented.  Instead, ``Tracer.install`` replaces each
traced public function with a wrapper that records one span (name, start,
end, parent) per call, and rebinds every module of the package that imported
the function by name, so that calls made through ``from .x import f`` are
seen too.  Spans stay in memory; ``Summary`` turns them into per-layer
counts, busy times and self times, and ``dump`` writes them out at the end.

Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path
from time import perf_counter

OP_SPAN = "bench.op"

# (module, attribute, span name).  An attribute "Class.method" patches the
# class, so calls on every instance are traced.
TARGETS = (
    ("problem", "LossEvaluator.__init__", "problem.evaluator_build"),
    ("problem", "LossEvaluator.evaluate", "problem.evaluate"),
    ("problem", "loss", "problem.loss"),
    ("problem", "loss_gradient", "problem.loss_gradient"),
    ("training", "init_params", "training.init_params"),
    ("training", "train", "training.train"),
    ("training", "seed_sweep", "training.seed_sweep"),
    ("training", "multi_run", "training.multi_run"),
    ("network", "input_derivative", "network.input_derivative"),
    ("network", "param_gradient", "network.param_gradient"),
    ("trial", "trial_value", "trial.trial_value"),
    ("trial", "trial_derivative", "trial.trial_derivative"),
    ("trial", "trial_param_gradient", "trial.trial_param_gradient"),
    ("gradcheck", "run_gradient_checks", "gradcheck.run_gradient_checks"),
    ("gradcheck", "fd_param_gradient", "gradcheck.fd_param_gradient"),
    ("report", "evaluate_profile", "report.evaluate_profile"),
    ("report", "compare", "report.compare"),
    ("oracles", "shoot", "oracles.shoot"),
    ("oracles", "_far_slope", "oracles.far_slope"),
    ("oracles", "rk4_profile", "oracles.rk4_profile"),
    ("model_io", "save_model", "model_io.save_model"),
    ("model_io", "load_model", "model_io.load_model"),
    ("profiles", "write_profile_csv", "profiles.write_profile_csv"),
    ("tables", "load_table", "tables.load_table"),
)


def _rk4_steps_to(eta_end: float, step: float) -> int:
    # mirrors the step count of oracles._far_slope: full steps plus one short tail
    full = int(math.floor(eta_end / step + 1e-12))
    tail = eta_end - full * step > 1e-12 * max(1.0, eta_end)
    return full + (1 if tail else 0)


def _note_train(args, kwargs, result, exc):
    cfg = args[0] if args else kwargs["cfg"]
    if exc is not None:
        return {"seed": cfg.seed, "iterations": getattr(exc, "iteration", 0), "diverged": True}
    return {"seed": cfg.seed, "iterations": result.iterations_used, "diverged": False}


def _note_seed_sweep(args, kwargs, result, exc):
    if exc is not None:
        return None
    return [None if run is None else run.final_loss for run in result]


def _note_points(args, kwargs, result, exc):
    etas = args[2] if len(args) > 2 else kwargs["etas"]
    return len(etas)


def _note_far_slope(args, kwargs, result, exc):
    return _rk4_steps_to(args[1], args[2])


def _note_rk4_profile(args, kwargs, result, exc):
    return 0 if result is None else len(result) - 1


def _note_bytes(args, kwargs, result, exc):
    destination = args[1] if len(args) > 1 else kwargs["destination"]
    if exc is None and isinstance(destination, (str, Path)):
        return os.path.getsize(destination)
    return 0


NOTES = {
    "training.train": _note_train,
    "training.seed_sweep": _note_seed_sweep,
    "report.evaluate_profile": _note_points,
    "oracles.far_slope": _note_far_slope,
    "oracles.rk4_profile": _note_rk4_profile,
    "profiles.write_profile_csv": _note_bytes,
}


class Tracer:
    """Span recorder; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.notes: dict[int, object] = {}
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, note=None):
        """Return fn wrapped so that every call records one span."""
        nid = self._name_id(name)
        stack, name_of, parent = self._stack, self.name_of, self.parent
        start, end, notes = self.start, self.end, self.notes

        def traced(*args, **kwargs):
            sid = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            result = exc = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                start[sid] = t0
                end[sid] = t1
                if note is not None:
                    notes[sid] = note(args, kwargs, result, exc)

        return traced

    def install(self, package: str = "blasius_net") -> None:
        """Wrap every target and rebind each package module that refers to it."""
        modules = [mod for key, mod in list(sys.modules.items())
                   if mod is not None and (key == package or key.startswith(package + "."))]
        for module_name, attr, span in TARGETS:
            module = sys.modules[f"{package}.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                original = vars(owner)[method]
                self._patch(owner, method, self.wrap(span, original, NOTES.get(span)))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(span, original, NOTES.get(span))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def dump(self, path: Path, extra: dict) -> None:
        """Write every span plus the extra fields as one JSON document."""
        spans = [[self.name_of[i], self.parent[i], self.start[i], self.end[i]]
                 for i in range(len(self.name_of))]
        doc = dict(extra)
        doc["span_fields"] = ["name", "parent", "start_s", "end_s"]
        doc["names"] = self.names
        doc["spans"] = spans
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")))


class Summary:
    """Per-name aggregates over the spans that ran inside benchmark ops."""

    def __init__(self, tracer: Tracer):
        count = len(tracer.name_of)
        op_id = tracer._name_ids.get(OP_SPAN, -1)
        root = [0] * count
        duration = [tracer.end[i] - tracer.start[i] for i in range(count)]
        child_time = [0.0] * count
        for i in range(count):
            par = tracer.parent[i]
            root[i] = i if par < 0 else root[par]
            if par >= 0:
                child_time[par] += duration[i]
        self.ops = 0
        self.op_time = 0.0
        self.calls: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.durations: dict[str, list[float]] = {}
        self.notes: dict[str, list] = {}
        op_seeds: dict[int, set] = {}
        for i in range(count):
            if tracer.name_of[root[i]] != op_id:
                continue  # outside any op: harness checks, not program work
            name = tracer.names[tracer.name_of[i]]
            if name == OP_SPAN:
                self.ops += 1
                self.op_time += duration[i]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.busy[name] = self.busy.get(name, 0.0) + duration[i]
            self.self_time[name] = self.self_time.get(name, 0.0) + duration[i] - child_time[i]
            self.durations.setdefault(name, []).append(duration[i])
            if i in tracer.notes:
                note = tracer.notes[i]
                self.notes.setdefault(name, []).append(note)
                if name == "training.train":
                    op_seeds.setdefault(root[i], set()).add(note["seed"])
        # seeds trained per op, to tell a seed trained twice from two seeds
        self.distinct_seeds = sum(len(seeds) for seeds in op_seeds.values())
