"""The package's public surface: what the benchmark's tracer patches, and each __all__."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import blasius_net

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = sorted(info.name for info in pkgutil.iter_modules(blasius_net.__path__))


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    # a deleted or renamed target breaks `perfbench/run.py --trace 1` only
    targets = load_tracing().TARGETS
    assert targets
    for module_name, attr, _span in targets:
        module = importlib.import_module(f"blasius_net.{module_name}")
        if "." in attr:
            cls_name, method = attr.split(".")
            assert method in vars(getattr(module, cls_name)), f"{module_name}.{attr}"
        else:
            assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_exists(module_name):
    module = importlib.import_module(f"blasius_net.{module_name}")
    for name in getattr(module, "__all__", ()):
        assert hasattr(module, name), f"{module_name}.__all__ lists missing {name}"
