"""Spans around calls into each `bosegas` layer, and the per-layer metrics.

`Tracer.install()` replaces each traced public function by a wrapper, both at
its defining module's attribute and at every other `bosegas` module that
imported the name (`cli` above all), so calls from one layer into another get
spans too.  A span records name, start, end, parent span and item id; spans
stay in memory and are written once, at the end of the run.  A span's self
time is its duration minus that of its direct children.

Scalar helpers called once per state or per mode (`matrix_element`,
`strict_pair_create`, `fourier_at`, `window_q`, ...) are deliberately not
wrapped: their cost stays in the self time of the layer function that calls
them, and the tracing overhead stays small.
"""

from __future__ import annotations

import functools
import importlib
import json
import re
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

# metric stem -> (module, public functions whose self time it sums)
TIMED = {
    "scattering.solve": ("scattering", ["solve_scattering"]),
    "scattering.shooting": ("scattering", ["shooting_scattering_length"]),
    "semiclassical.ledger": ("semiclassical", ["assemble_ledger"]),
    "semiclassical.integrals": (
        "semiclassical",
        ["integral_number_density", "integral_kinetic", "integral_pair"],
    ),
    "lattice.shell_counts": ("lattice", ["shell_counts"]),
    "lattice.radial_sum": ("lattice", ["radial_shell_sum"]),
    "lattice.comparison": ("lattice", ["pl_number_density_comparison"]),
    "fock.closure": ("fock", ["generate_M"]),
    "fock.weights": ("fock", ["weight_f"]),
    "fock.recursion": ("fock", ["weight_recursion_report"]),
    "fock.export": ("fock", ["export_closure"]),
    "expectation.energy_report": ("expectation", ["energy_report", "expect_component"]),
    "expectation.brute_force": ("expectation", ["brute_force_energy"]),
    "expectation.moments": (
        "expectation",
        [
            "q_psi",
            "q_psi_occupation",
            "q_psi_conditional",
            "p_uv",
            "pair_correlator_check",
            "occupation_ratio_report",
            "pl_occupation_monotonicity",
            "statistics_report",
        ],
    ),
    "toys.suite": ("toys", ["builtin_toy_suite", "build_trial", "toy_by_name"]),
    "boundary.isometry": ("boundary", ["check_isometry", "isometry_3d_separable"]),
    "boundary.penalty": ("boundary", ["kinetic_penalty"]),
    "boundary.collar": ("boundary", ["shifted_collar_average"]),
}

COUNTS = [
    "scattering.solve_calls",
    "scattering.born_sweeps",
    "scattering.not_converged",
    "lattice.shell_counts_calls",
    "lattice.shell_points",
    "fock.closure_states",
    "fock.recursion_pairs",
    "expectation.q_psi_calls",
    "cli.report_bytes",
]

IMPORTS = ["import.numpy_s", "import.scipy_s", "import.bosegas_s"]

ROOT = "cli.main"
_Q_PSI = {"expectation.q_psi", "expectation.q_psi_occupation", "expectation.q_psi_conditional"}
_SWEEPS = re.compile(r"after (\d+) sweeps")

# counts read off a traced call's result; results themselves are not kept
_EXTRACT = {
    "scattering.solve_scattering": lambda sol: {"sweeps": sol.iterations},
    "lattice.shell_counts": lambda counts: {"points": len(counts)},
    "fock.generate_M": lambda closure: {"states": len(closure)},
    "fock.weight_recursion_report": lambda rep: {"pairs": sum(rep["pairs"].values())},
}


class Tracer:
    """In-memory span recorder around `bosegas` public functions."""

    def __init__(self):
        # span: [name, start, end, parent index or None, item id, counts dict]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.item = None
        self.report_bytes = 0

    def span(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), 0.0, parent, self.item, {}]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            rec[5]["error"] = type(exc).__name__
            match = _SWEEPS.search(str(exc))
            if name == "scattering.solve_scattering" and match:
                rec[5]["sweeps"] = int(match.group(1))
            raise
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
        extract = _EXTRACT.get(name)
        if extract is not None:
            rec[5].update(extract(result))
        return result

    def _wrap(self, name: str, fn):
        if name == "lattice.shell_counts":

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                tracemalloc.start()
                try:
                    return self.span(name, fn, *args, **kwargs)
                finally:
                    self.spans[-1][5]["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()

            return traced

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever a `bosegas` module holds it."""
        originals = {}
        for module, functions in TIMED.values():
            mod = importlib.import_module(f"bosegas.{module}")
            for fn_name in functions:
                originals[id(getattr(mod, fn_name))] = f"{module}.{fn_name}"
        wrappers = {}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "bosegas" or mod_name.startswith("bosegas.")):
                continue
            for attr, value in list(vars(mod).items()):
                name = originals.get(id(value))
                if name is None:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(name, value)
                setattr(mod, attr, wrappers[id(value)])

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics as averages per round (peak memory: maximum)."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] is not None:
                child[rec[3]] += rec[2] - rec[1]
        self_s: dict[str, float] = {}
        counts = dict.fromkeys(COUNTS, 0)
        counts["cli.report_bytes"] = self.report_bytes
        peak = 0
        for i, rec in enumerate(self.spans):
            name, start, end, _, _, info = rec
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
            if name == "scattering.solve_scattering":
                counts["scattering.solve_calls"] += 1
                counts["scattering.born_sweeps"] += info.get("sweeps", 0)
                counts["scattering.not_converged"] += info.get("error") == "NotConverged"
            elif name == "lattice.shell_counts":
                counts["lattice.shell_counts_calls"] += 1
                counts["lattice.shell_points"] += info.get("points", 0)
                peak = max(peak, info["peak_bytes"])
            elif name == "fock.generate_M":
                counts["fock.closure_states"] += info.get("states", 0)
            elif name == "fock.weight_recursion_report":
                counts["fock.recursion_pairs"] += info.get("pairs", 0)
            elif name in _Q_PSI:
                counts["expectation.q_psi_calls"] += 1
        out = {}
        for stem, (module, functions) in TIMED.items():
            total = sum(self_s.get(f"{module}.{fn}", 0.0) for fn in functions)
            out[f"{stem}_s"] = total / rounds
        out["cli.self_s"] = self_s.get(ROOT, 0.0) / rounds
        out["lattice.shell_counts_peak_mb"] = peak / 2**20
        for name, value in counts.items():
            out[name] = value / rounds
        return out

    def write(self, path: Path) -> None:
        """All spans as JSON records."""
        records = [
            {"name": name, "start": start, "end": end, "parent": parent, "item": item, **info}
            for name, start, end, parent, item, info in self.spans
        ]
        path.write_text(json.dumps(records) + "\n")


def import_times(src: Path, samples: int) -> dict[str, float]:
    """Median self import time of numpy*, scipy* and bosegas* modules.

    Taken from `python -X importtime` in fresh interpreters; each value sums
    the self column over every module whose dotted name starts with the
    package name.
    """
    code = f"import sys; sys.path.insert(0, {str(src)!r}); import bosegas.cli"
    totals = {name: [] for name in IMPORTS}
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", code],
            capture_output=True,
            text=True,
            check=True,
        )
        acc = dict.fromkeys(IMPORTS, 0.0)
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            fields = line[len("import time:"):].split("|")
            if not fields[0].strip().isdigit():
                continue
            package = fields[2].strip().split(".")[0]
            key = f"import.{package}_s"
            if key in acc:
                acc[key] += int(fields[0]) * 1e-6
        for key, value in acc.items():
            totals[key].append(value)
    return {key: statistics.median(values) for key, values in totals.items()}
