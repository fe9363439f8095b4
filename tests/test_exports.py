"""Every exported name resolves, and so does every function the benchmark traces."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import bosegas

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_module_all_resolves():
    checked = 0
    for info in pkgutil.iter_modules(bosegas.__path__):
        mod = importlib.import_module(f"bosegas.{info.name}")
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"bosegas.{info.name}.{name}"
            checked += 1
    assert checked > 0


def test_traced_benchmark_functions_exist():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", _SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, functions in spans.TIMED.values():
        mod = importlib.import_module(f"bosegas.{module}")
        for name in functions:
            assert callable(getattr(mod, name, None)), f"bosegas.{module}.{name}"
