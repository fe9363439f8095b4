"""Every exported name resolves, every function the benchmark traces exists
and yields the counts its tracer reads, every definition in the package has
a caller in the package, every record field is read in the package, every
parameter default is overridden by some call in the package, the config
holds only the keys callers vary, only `cli.main` writes files, the CLI
imports no more of scipy than it uses: none at start, none in trial-state
or boundary, and no module takes another module's private names."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import bosegas
from bosegas.cli import DEFAULT_CONFIG
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
        "fock.weight_recursion_report": weight_recursion_report(trial),
    }
    extract = _load_spans()._EXTRACT
    assert set(extract) == set(results)
    for name, result in results.items():
        counts = extract[name](result)
        assert counts, name
        for key, value in counts.items():
            assert type(value) is int, (name, key, type(value))


# Definitions that only tests reach, kept on purpose.  Each must still lack a
# caller in the package, so an entry goes once a pipeline calls it.
_LIBRARY_ONLY = (
    # scalar and per-state references the tests hold the vectorised code to
    "expectation.matrix_element",
    "fock.free_state",
    "fock.strict_pair_create",
)


def _library_only_definitions() -> set[str]:
    """module.name (module.Class.name for methods) of every top-level function
    or class that no Name, Attribute or import anywhere else in src/bosegas
    refers to by its name, and of every non-dunder method that no attribute
    access outside its own body names: a local variable of the same name
    does not count as a use of a method."""
    defs, refs = [], []
    for path in sorted((_ROOT / "src" / "bosegas").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((f"{path.stem}.{node.name}", node))
            if isinstance(node, ast.ClassDef):
                defs.extend(
                    (f"{path.stem}.{node.name}.{sub.name}", sub)
                    for sub in node.body
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__")
                )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((node.id, node))
            elif isinstance(node, ast.Attribute):
                refs.append((node.attr, node))
            elif isinstance(node, ast.alias):
                refs.append((node.name.rsplit(".", 1)[-1], node))
    unused = set()
    for qualified, node in defs:
        own = {id(n) for n in ast.walk(node)}
        name = qualified.rsplit(".", 1)[-1]
        method = qualified.count(".") == 2
        if not any(
            ref == name and id(at) not in own and (isinstance(at, ast.Attribute) or not method)
            for ref, at in refs
        ):
            unused.add(qualified)
    return unused


def test_no_library_only_definitions():
    timed = {
        f"{module}.{name}" for module, functions in _load_spans().TIMED.values() for name in functions
    }
    unused = _library_only_definitions()
    assert unused - timed - set(_LIBRARY_ONLY) == set()
    assert set(_LIBRARY_ONLY) <= unused


def _unread_fields() -> set[str]:
    """module.Class.field of every field of a dataclass or NamedTuple in
    src/bosegas that no attribute read anywhere in the package names,
    reads inside the class's own __init__ or __post_init__ aside."""
    fields, reads = [], []
    for path in sorted((_ROOT / "src" / "bosegas").glob("*.py")):
        tree = ast.parse(path.read_text())
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef) or not (
                _is_dataclass(cls) or any(ast.unparse(b).endswith("NamedTuple") for b in cls.bases)
            ):
                continue
            ctor = {
                id(node)
                for sub in cls.body
                if isinstance(sub, ast.FunctionDef) and sub.name in ("__init__", "__post_init__")
                for node in ast.walk(sub)
            }
            fields.extend(
                (f"{path.stem}.{cls.name}.{f.target.id}", f.target.id, ctor)
                for f in cls.body
                if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)
                and "ClassVar" not in ast.unparse(f.annotation)
            )
        reads.extend(
            (node.attr, id(node))
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        )
    return {
        qualified
        for qualified, name, ctor in fields
        if not any(attr == name and at not in ctor for attr, at in reads)
    }


def test_every_field_is_read():
    # a field only its constructor call sets carries nothing anyone uses
    assert _unread_fields() == set()


# Parameters with a default that no call in the package sets, kept on purpose:
# main reads sys.argv when the console script calls it with no arguments.
_DEFAULT_ONLY = ("cli.main.argv",)


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if (target.id if isinstance(target, ast.Name) else getattr(target, "attr", "")) == "dataclass":
            return True
    return False


def _signatures(tree: ast.Module, stem: str):
    """(qualified name, callee name, positional params, defaulted params) for
    every function in the module, nested ones included, and one entry per
    dataclass for its generated __init__.  Positional params of a method drop
    self (or cls), so they line up with the arguments of a bound call."""

    def walk(node, prefix, in_class):
        for sub in node.body:
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = sub.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                defaulted = set(positional[len(positional) - len(args.defaults) :])
                defaulted |= {a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None}
                static = any(getattr(d, "id", None) == "staticmethod" for d in sub.decorator_list)
                if in_class and not static:
                    positional = positional[1:]
                callee = prefix.rsplit(".", 1)[-1] if sub.name == "__init__" else sub.name
                yield f"{prefix}.{sub.name}", callee, positional, defaulted
                yield from walk(sub, f"{prefix}.{sub.name}", False)
            elif isinstance(sub, ast.ClassDef):
                if _is_dataclass(sub):
                    fields = [
                        f for f in sub.body
                        if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)
                        and "ClassVar" not in ast.unparse(f.annotation)
                    ]
                    names = [f.target.id for f in fields]
                    defaulted = {f.target.id for f in fields if f.value is not None}
                    yield f"{prefix}.{sub.name}", sub.name, names, defaulted
                yield from walk(sub, f"{prefix}.{sub.name}", True)

    yield from walk(tree, stem, False)


def _unset_defaults() -> set[str]:
    """module.function.param (module.Class.method.param for methods, and
    module.Class.field for dataclass fields) of every parameter with a
    default that no call anywhere in src/bosegas sets, by keyword or by
    position.  Calls match definitions by name; a call to a class name is a
    call to its __init__, and a call with *args or **kwargs sets every
    parameter it can reach."""
    trees = {
        path.stem: ast.parse(path.read_text())
        for path in sorted((_ROOT / "src" / "bosegas").glob("*.py"))
    }
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        # cls(...) calls the innermost class around it (ast.walk goes outside in)
        owner = {
            id(call): cls.name
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for call in ast.walk(cls)
            if isinstance(call, ast.Call)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(owner[id(node)] if name == "cls" else name, []).append(node)
    unset = set()
    for stem, tree in trees.items():
        for qualified, callee, positional, defaulted in _signatures(tree, stem):
            for param in defaulted:
                index = positional.index(param) if param in positional else None

                def sets(call, param=param, index=index):
                    if any(kw.arg in (param, None) for kw in call.keywords):
                        return True
                    if index is None:
                        return False
                    starred = any(isinstance(a, ast.Starred) for a in call.args)
                    return starred or len(call.args) > index

                if not any(sets(call) for call in calls.get(callee, [])):
                    unset.add(f"{qualified}.{param}")
    return unset


def test_every_default_is_set_by_a_call():
    # a default that no caller in the package overrides is a constant in
    # disguise: it belongs in the body, or the parameter goes
    assert _unset_defaults() == set(_DEFAULT_ONLY)


# The config's settable values.  A new key needs a caller outside the tests,
# a workload or a documented run, that sets it to a value other than its
# default; a setting no input varies is a constant beside its one reader.
_CONFIG_KEYS = (
    "potential.amplitude",
    "potential.width",
    "schedule.eta",
    "schedule.rho",
    "seed",
    "sweep.rho_values",
    "toy",
    "toy_modes",
    "trial.m_c",
    "trial.n",
    "trial.volume",
)


def _leaf_paths(block: dict, prefix: str = "") -> list[str]:
    paths = []
    for key, value in block.items():
        where = f"{prefix}{key}"
        paths += _leaf_paths(value, f"{where}.") if isinstance(value, dict) else [where]
    return paths


def test_config_keys_are_the_inputs_callers_vary():
    assert sorted(_leaf_paths(DEFAULT_CONFIG)) == list(_CONFIG_KEYS)


def _opens_for_writing(call: ast.Call) -> bool:
    """An open() whose mode writes: a literal mode with w, a, x or +, or a
    mode that is no literal.  Without a mode, open reads."""
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"]
    # open(path, mode) and Path.open(mode)
    modes += call.args[1:2] if isinstance(call.func, ast.Name) else call.args[:1]
    return any(
        not (isinstance(m, ast.Constant) and isinstance(m.value, str)) or set(m.value) & set("wax+")
        for m in modes
    )


def _file_writes() -> list[str]:
    """module.function:line of every write_text or write_bytes call and every
    open() for writing in src/bosegas, by the top-level definition around it
    (module-level code by its module alone)."""
    found = []
    for path in sorted((_ROOT / "src" / "bosegas").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            named = isinstance(top, (ast.FunctionDef, ast.ClassDef))
            where = f"{path.stem}.{top.name}" if named else path.stem
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in ("write_text", "write_bytes") or (
                    name == "open" and _opens_for_writing(node)
                ):
                    found.append(f"{where}:{node.lineno}")
    return found


def test_reports_are_written_in_main_alone():
    # one write path: each pipeline returns its files and cli.main writes them
    writes = _file_writes()
    assert writes
    assert {w.split(":")[0] for w in writes} == {"cli.main"}, writes


def _source_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _imported(*args: str) -> set[str]:
    """Every module a fresh `python -X importtime <args>` imports, by name."""
    out = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        env=_source_env(), capture_output=True, text=True, check=True,
    )
    lines = [ln for ln in out.stderr.splitlines() if ln.startswith("import time:")]
    return {ln.rsplit("|", 1)[-1].strip() for ln in lines[1:]}


def _scipy(modules: set[str]) -> set[str]:
    return {m for m in modules if m == "scipy" or m.startswith("scipy.")}


def test_cli_import_skips_scipy_signal():
    # scipy.signal costs over half a second at every start and nothing uses it
    probe = "import sys, bosegas.cli; print('scipy.signal' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=_source_env(), capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_cli_import_loads_no_scipy():
    # no scipy module at all, scipy.signal (over half a second) included
    modules = _imported("-c", "import bosegas.cli")
    assert "bosegas.cli" in modules
    assert _scipy(modules) == set()


@pytest.mark.parametrize("pipeline", ["trial-state", "boundary"])
def test_numpy_only_pipelines_load_no_scipy(pipeline, tmp_path):
    # scipy is imported inside the functions that call it; neither pipeline calls one
    modules = _imported("-m", "bosegas", pipeline, "--out", str(tmp_path))
    assert any(tmp_path.iterdir())
    assert _scipy(modules) == set()


def test_scattering_skips_scipy_interpolate(tmp_path):
    # the solve interpolates nothing: its observables come off the grid
    modules = _imported("-m", "bosegas", "scattering", "--out", str(tmp_path))
    assert "scipy.sparse.linalg" in modules
    assert "scipy.interpolate" not in modules


def _momentum_lookups() -> list[str]:
    """module:line of every `index_of` and of every + or - with a momentum
    operand, in each module of src/bosegas but `lattice`.  A momentum is a
    `.p` attribute, a row of `momentum_matrix()`, or a name bound to either;
    a difference inside a `norm(...)` call is a transfer magnitude (the
    coupling table samples V there) and finds no mode, so it does not count."""
    found = []
    for path in sorted((_ROOT / "src" / "bosegas").glob("*.py")):
        if path.stem == "lattice":
            continue
        tree = ast.parse(path.read_text())

        def is_momentum(node):
            if isinstance(node, ast.Attribute) and node.attr == "p":
                return True
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "momentum_matrix":
                return True
            if isinstance(node, ast.Subscript):
                return is_momentum(node.value)
            return isinstance(node, ast.Name) and node.id in bound

        bound: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and is_momentum(node.value):
                bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
        in_norm = {
            id(sub)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "norm"
            for sub in ast.walk(node)
        }
        for node in ast.walk(tree):
            lookup = isinstance(node, ast.Attribute) and node.attr == "index_of"
            summed = (
                isinstance(node, ast.BinOp)
                and isinstance(node.op, (ast.Add, ast.Sub))
                and id(node) not in in_norm
                and (is_momentum(node.left) or is_momentum(node.right))
            )
            if lookup or summed:
                found.append(f"{path.stem}:{node.lineno}")
    return found


def test_momentum_conservation_is_decided_in_lattice_alone():
    # ModeSet.conserving answers every p_a + p_b - p_c query on the mode
    # set's lattice step; a float momentum sum elsewhere is a second key
    assert _momentum_lookups() == []


def _private_imports() -> list[str]:
    """module:name of every underscore name a module of src/bosegas takes
    from another package module: by `from .x import _y` or
    `from bosegas.x import _y` at any depth, or as `x._y` on a package
    module bound by `from . import x`.  Dunder names are not private."""

    def private(name: str) -> bool:
        return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))

    found = []
    for path in sorted((_ROOT / "src" / "bosegas").glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "bosegas"
            ):
                found.extend(f"{path.stem}:{a.name}" for a in node.names if private(a.name))
                if node.module is None or node.module == "bosegas":
                    modules.update(a.asname or a.name for a in node.names)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and private(node.attr)
            ):
                found.append(f"{path.stem}:{node.value.id}.{node.attr}")
    return found


def test_no_module_imports_another_modules_private_names():
    # a private name is its module's own detail: a second module that reads
    # it couples to code that may change without notice
    assert _private_imports() == []
