"""Every exported name resolves, every function the benchmark traces exists,
and the CLI imports no more of scipy than it uses."""

import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import bosegas

_ROOT = Path(__file__).resolve().parents[1]
_SPANS = _ROOT / "perfbench" / "spans.py"


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


def test_cli_import_skips_scipy_signal():
    # scipy.signal costs over half a second at every start and nothing uses it
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_ROOT / "src"), env.get("PYTHONPATH")]))
    probe = "import sys, bosegas.cli; print('scipy.signal' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
