"""Every exported name resolves, every function the benchmark traces exists
and yields the counts its tracer reads, and the CLI imports no more of scipy
than it uses."""

import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import bosegas
from bosegas.fock import generate_M, weight_recursion_report
from bosegas.lattice import shell_counts
from bosegas.toys import build_trial, toy_by_name

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


def _load_spans():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", _SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_benchmark_functions_exist():
    spans = _load_spans()
    for module, functions in spans.TIMED.values():
        mod = importlib.import_module(f"bosegas.{module}")
        for name in functions:
            assert callable(getattr(mod, name, None)), f"bosegas.{module}.{name}"


def test_trace_extractors_read_integers(gaussian_solution):
    # each extractor runs on a real result of the function it traces
    case = toy_by_name("soft-coincidence")
    trial = build_trial(case)
    results = {
        "scattering.solve_scattering": gaussian_solution,
        "lattice.shell_counts": shell_counts(40),
        "fock.generate_M": generate_M(case.mode_set, case.n, case.m_c),
        "fock.weight_recursion_report": weight_recursion_report(
            trial, [m.lam for m in case.mode_set]
        ),
    }
    extract = _load_spans()._EXTRACT
    assert set(extract) == set(results)
    for name, result in results.items():
        counts = extract[name](result)
        assert counts, name
        for key, value in counts.items():
            assert type(value) is int, (name, key, type(value))


def test_cli_import_skips_scipy_signal():
    # scipy.signal costs over half a second at every start and nothing uses it
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_ROOT / "src"), env.get("PYTHONPATH")]))
    probe = "import sys, bosegas.cli; print('scipy.signal' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
