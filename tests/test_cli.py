"""End-to-end pipeline runs through the command-line entry point."""

import ast
import csv
import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from bosegas import boundary as bnd
from bosegas import cli, lattice, scattering, semiclassical
from bosegas.cli import load_config, main
from bosegas.expectation import energy_report
from bosegas.fock import MAX_PARTICLES
from bosegas.semiclassical import assemble_ledger
from bosegas.toys import build_trial, toy_by_name
from conftest import load_report

_CLOSED = {
    "number_density": 1.0 / (3.0 * math.pi**2),
    "kinetic": -8.0 / (5.0 * math.pi**2),
    "pair": 1.0 / math.pi**2,
}


def _run(tmp_path, *args):
    out = tmp_path / "reports"
    code = main([*args, "--out", str(out)])
    return code, out


def _write_config(tmp_path, text):
    path = tmp_path / "config.yaml"
    path.write_text(text)
    return str(path)


def _assert_cross_checked(report):
    """A trial-state report, read through load_report, meets its own oracles:
    the two energy routes agree, every recursion identity and occupancy sum
    rule holds, and every pair-correlator gap is finite."""
    assert report["energy"]["decomposition_residual"] <= 1e-10
    assert all(err <= 1e-12 for err in report["recursion_max_error"].values())
    assert all(abs(s - 1.0) <= 1e-12 for s in report["occupancy_sum_rules"].values())
    assert all(math.isfinite(gap) for gap in report["pair_correlator_gaps"])


def test_integrals_pipeline_csv(tmp_path):
    code, out = _run(tmp_path, "integrals")
    assert code == 0
    with open(out / "integrals.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    row = rows[0]
    for key, closed in _CLOSED.items():
        assert math.isclose(float(row[key]), closed, rel_tol=1e-9), key
        assert float(row[f"{key}_rel_residual"]) <= 1e-9
    report = load_report(out / "integrals.json")
    assert report["max_rel_residual"] <= 1e-9


def test_scattering_pipeline(tmp_path):
    code, out = _run(tmp_path, "scattering")
    assert code == 0
    rep = load_report(out / "scattering.json")
    assert math.isclose(rep["a"], 0.11707990946904165, rel_tol=1e-9)
    assert rep["shooting_rel_gap"] < 1e-4
    assert rep["identity_residuals"]["gradient"] < 1e-6
    assert rep["ledger"]["final_residual"] <= 1e-12
    # the ledger block is the library's return, written as is
    cfg = load_config(None)
    solution = scattering.solve_scattering(scattering.Potential(**cfg["potential"]))
    ledger = assemble_ledger(solution)
    assert rep["ledger"] == json.loads(json.dumps(ledger))


def test_scattering_pipeline_past_born_radius(tmp_path):
    # amplitude * width^2 = 8: the Born series diverges, the solve does not
    cfg = _write_config(tmp_path, "potential: {amplitude: 2.0, width: 2.0}\n")
    code, out = _run(tmp_path, "scattering", "--config", cfg)
    assert code == 0
    rep = load_report(out / "scattering.json")
    assert rep["converged"] is True
    assert rep["shooting_rel_gap"] < 1e-6


def test_lattice_pipeline(tmp_path):
    code, out = _run(tmp_path, "lattice")
    assert code == 0
    rep = load_report(out / "lattice.json")
    assert rep["number_density"]["rel_gap_annulus"] < 1e-3
    assert rep["number_density"]["n_modes"] > 0
    assert rep["schedule"]["rho"] == rep["number_density"]["rho"]


def test_trial_state_pipeline_builtin_toy(tmp_path):
    cfg = _write_config(tmp_path, "toy: pi-pair\ntrial:\n  n: 4\n")
    code, out = _run(tmp_path, "trial-state", "--config", cfg)
    assert code == 0
    rep = load_report(out / "trial_state.json")
    assert rep["name"] == "pi-pair"
    assert rep["closure_size"] == 3
    assert rep["energy"]["decomposition_residual"] <= 1e-10
    assert max(rep["recursion_max_error"].values()) <= 1e-12
    closure = (out / "closure.txt").read_text().strip().split("\n")
    assert len(closure) == 3


def test_trial_state_energy_block_is_energy_report(tmp_path):
    code, out = _run(tmp_path, "trial-state")
    assert code == 0
    cfg = load_config(None)
    case = toy_by_name(cfg["toy"])
    trial = build_trial(case)
    energy = energy_report(trial, case.context())
    assert load_report(out / "trial_state.json")["energy"] == json.loads(json.dumps(energy))


@pytest.mark.parametrize("n, size", [(100, 51), (0, 1), (1, 1), (3, 2)])
def test_trial_state_builtin_toy_honors_trial_n(tmp_path, n, size):
    # one intermediate pair: floor(n / 2) + 1 rungs
    cfg = _write_config(tmp_path, f"toy: pi-pair\ntrial: {{n: {n}}}\n")
    code, out = _run(tmp_path, "trial-state", "--config", cfg)
    assert code == 0
    rep = load_report(out / "trial_state.json")
    assert (rep["particle_count"], rep["closure_size"]) == (n, size)


@pytest.mark.parametrize("toy, n", [("pi-pair", 260), ("two-pi-pairs", 320), ("pi-pair", 580)])
def test_trial_state_long_tower_ratio_bound_does_not_overflow(tmp_path, toy, n):
    # (lambda rho)^(2i) passes the largest double before i reaches n here;
    # the adjacent steps that decide the bound form no such power.  At
    # pi-pair, N = 580, lambda rho = -9.28 and Q({u,m}) is 0.0 for m < 8
    cfg = _write_config(tmp_path, f"toy: {toy}\ntrial: {{n: {n}}}\n")
    code, out = _run(tmp_path, "trial-state", "--config", cfg)
    assert code == 0
    assert (out / "closure.txt").is_file()
    rep = load_report(out / "trial_state.json")
    assert rep["particle_count"] == n
    bounds = rep["ratio_bounds"].values()
    assert bounds and all(r["holds"] and r["worst_ratio"] < 1.0 for r in bounds)


def test_trial_state_builtin_toy_honors_trial_m_c(tmp_path):
    # the low-pair cap binds: m_c = 1 stops the tower at its first rung
    case = toy_by_name("pl-pair-deep")
    for m_c in (case.m_c, 1):
        cfg = _write_config(tmp_path, f"toy: pl-pair-deep\ntrial: {{m_c: {m_c}}}\n")
        code, out = _run(tmp_path, "trial-state", "--config", cfg)
        assert code == 0
        rep = load_report(out / "trial_state.json")
        assert rep["particle_count"] == case.n
        assert rep["closure_size"] == len(build_trial(replace(case, m_c=m_c)))


def test_trial_state_builtin_toy_refuses_trial_volume(tmp_path, capsys):
    cfg = _write_config(tmp_path, "toy: pi-pair\ntrial: {volume: 25.0}\n")
    code, out = _run(tmp_path, "trial-state", "--config", cfg)
    assert code == 2
    assert "config error: trial.volume" in capsys.readouterr().err
    assert not (out / "trial_state.json").exists()


def test_trial_state_pipeline_mode_file(tmp_path):
    modes = tmp_path / "modes.txt"
    modes.write_text(
        "# volume = 20.0\n"
        "0 0 0 P0\n"
        "0.75 0 0 PI -0.4\n"
        "-0.75 0 0 PI -0.4\n"
    )
    cfg = _write_config(
        tmp_path,
        f"toy_modes: {modes}\ntrial:\n  n: 4\n  m_c: 2\n",
    )
    code, out = _run(tmp_path, "trial-state", "--config", cfg)
    assert code == 0
    rep = load_report(out / "trial_state.json")
    assert rep["closure_size"] == 3


def test_mode_file_off_by_roundoff_conserves_momentum(tmp_path):
    # -p is written 6e-10 off the negative of +p; both round to the lattice
    # points +-0.75, so every conservation query must pair them as neg_index
    # does.  A float sum p_+ + p_- = 6e-10 once missed the zero mode in brute
    # force alone, for a residual of 2.45e-2
    pairs = {
        "noisy": "0.7500000003 0 0 PI -0.4\n-0.7499999997 0 0 PI -0.4\n",
        "grid": "0.75 0 0 PI -0.4\n-0.75 0 0 PI -0.4\n",
    }
    energy = {}
    for name, lines in pairs.items():
        modes = tmp_path / f"{name}.txt"
        modes.write_text("# volume = 25\n0 0 0 P0\n" + lines)
        cfg = tmp_path / f"{name}.yaml"
        cfg.write_text(f"toy_modes: {modes}\ntrial:\n  n: 4\n")
        out = tmp_path / name
        assert main(["trial-state", "--config", str(cfg), "--out", str(out)]) == 0
        rep = load_report(out / "trial_state.json")
        assert rep["closure_size"] == 3
        energy[name] = rep["energy"]
    assert energy["noisy"]["decomposition_residual"] <= 1e-10
    for key in ("total", "brute_force_total"):
        assert abs(energy["noisy"][key] - energy["grid"][key]) <= 1e-12, key


def test_mode_file_on_a_two_pi_over_five_lattice_keeps_the_closure(tmp_path):
    # soft-two-channel written once on its dyadic grid and once times
    # 8 pi / 5 at full precision, so its quarter step becomes 2 pi / 5: the
    # soft rows (u; i, j) with p_i + p_j = p_u must survive the scaling
    case = toy_by_name("soft-two-channel")
    closures = {}
    for name, factor in (("grid", 1.0), ("scaled", 8.0 * math.pi / 5.0)):
        lines = [f"# volume = {case.mode_set.volume!r}"]
        for m in case.mode_set:
            px, py, pz = (float(x) * factor for x in m.p)
            lam = "" if m.lam is None else f" {m.lam!r}"
            lines.append(f"{px!r} {py!r} {pz!r} {m.region.value}{lam}")
        modes = tmp_path / f"{name}.txt"
        modes.write_text("\n".join(lines) + "\n")
        cfg = tmp_path / f"{name}.yaml"
        cfg.write_text(f"toy_modes: {modes}\ntrial:\n  n: {case.n}\n  m_c: {case.m_c}\n")
        out = tmp_path / name
        assert main(["trial-state", "--config", str(cfg), "--out", str(out)]) == 0
        rep = load_report(out / "trial_state.json")
        assert rep["closure_size"] == len(build_trial(case))
        assert rep["energy"]["decomposition_residual"] <= 1e-10
        closures[name] = (out / "closure.txt").read_text()
    assert closures["scaled"] == closures["grid"]


def test_energy_curve_gap_shrinks(tmp_path):
    cfg = _write_config(tmp_path, "sweep:\n  rho_values: [1.0e-4, 1.0e-5]\n")
    code, out = _run(tmp_path, "energy-curve", "--config", cfg)
    assert code == 0
    with open(out / "energy_curve.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["rho"]) for r in rows] == [1e-4, 1e-5]
    gaps = [float(r["rel_gap_annulus"]) for r in rows]
    assert gaps[1] < gaps[0]
    totals = [float(r["energy_total"]) for r in rows]
    assert totals[0] > totals[1] > 0.0
    for row, total in zip(rows, totals):
        leading, second = float(row["energy_leading"]), float(row["energy_second_order"])
        # the total is leading + second order, to the CSV's 12 digits, and
        # the second-order term is a small positive correction
        assert math.isclose(total, leading + second, rel_tol=1e-12)
        assert 0.0 < second < leading
    assert load_report(out / "energy_curve.json")["rho_values"] == [1e-4, 1e-5]


def test_boundary_pipeline(tmp_path):
    code, out = _run(tmp_path, "boundary")
    assert code == 0
    rep = load_report(out / "boundary.json")
    assert rep["partition_residual"] <= 1e-14
    for name, case in rep["isometry"].items():
        assert case["residual"] / abs(case["periodic"]) < 1e-8, name
    for name, case in rep["penalty"].items():
        assert case["holds_quarter_pi_sq"], name
    assert rep["degenerate_penalty"]["holds_quarter_pi_sq"]
    assert rep["collar_average"]["max_gap"] <= 2.0 / rep["collar_average"]["n_shifts"]


def test_check_all_passes_and_is_deterministic(tmp_path):
    code1, out1 = _run(tmp_path / "first", "check-all", "--seed", "123")
    code2, out2 = _run(tmp_path / "second", "check-all", "--seed", "123")
    assert code1 == 0 and code2 == 0
    blob1 = (out1 / "check_all.json").read_bytes()
    blob2 = (out2 / "check_all.json").read_bytes()
    assert blob1 == blob2
    rep = load_report(out1 / "check_all.json")
    assert rep["n_violations"] == 0
    assert rep["violations"] == []


def _fail_penalty(monkeypatch, degenerate):
    real = bnd.kinetic_penalty

    def penalty(w, sample, **kw):
        reports = real(w, sample, **kw)
        if (w.ell == w.period / 2.0) != degenerate:
            return reports
        # each penalty report as one whose bound never holds
        return [(iso, {**pen, "holds_quarter_pi_sq": False}) for iso, pen in reports]

    monkeypatch.setattr(bnd, "kinetic_penalty", penalty)


def _set_flags(monkeypatch, name, **flags):
    real = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *args: {**real(*args), **flags})


# each kind of check-all verdict, and how to make it fail
_FORCE = {
    "bound": lambda mp: mp.setitem(cli._BOUNDS, "partition", -1.0),
    "ratio_bound": lambda mp: _set_flags(mp, "occupation_ratio_report", holds=False),
    "low_monotonicity": lambda mp: _set_flags(
        mp, "pl_occupation_monotonicity", hypothesis_holds=True, monotone=False
    ),
    "penalty": lambda mp: _fail_penalty(mp, degenerate=False),
    "penalty.degenerate": lambda mp: _fail_penalty(mp, degenerate=True),
}


def _expected_records(kind, rep):
    (toy,) = rep["toys"]
    bdry = rep["boundary"]
    prefix = f"toy.{toy['name']}"
    quarter_pi_sq = math.pi**2 / 16.0

    def record(check, value, bound):
        return {"check": check, "value": value, "bound": bound}

    def by_index(reports):
        return sorted(reports.items(), key=lambda item: int(item[0]))

    return {
        "bound": [record("boundary.partition", bdry["partition_residual"], -1.0)],
        "ratio_bound": [
            record(f"{prefix}.ratio_bound.{idx}", r["worst_ratio"], 1.0)
            for idx, r in by_index(toy["ratio_bounds"])
        ],
        "low_monotonicity": [
            record(f"{prefix}.low_monotonicity.{idx}", 1.0, 0.0)
            for idx, _ in by_index(toy["low_monotonicity"])
        ],
        "penalty": [
            record(f"boundary.penalty.{name}", pen["implied_constant"], quarter_pi_sq)
            for name, pen in bdry["penalty"].items()
        ],
        "penalty.degenerate": [
            record(
                "boundary.penalty.degenerate",
                bdry["degenerate_penalty"]["implied_constant"],
                quarter_pi_sq,
            )
        ],
    }[kind]


@pytest.mark.parametrize("kind", list(_FORCE))
def test_check_all_failed_verdicts_exit_1(tmp_path, monkeypatch, capsys, kind):
    # one toy with low and intermediate towers keeps the run short
    monkeypatch.setattr(cli, "builtin_toy_suite", lambda: [toy_by_name("pl-pi-mix")])
    _FORCE[kind](monkeypatch)
    code, out = _run(tmp_path, "check-all")
    rep = load_report(out / "check_all.json")
    want = _expected_records(kind, rep)
    assert want
    assert code == 1
    assert capsys.readouterr().err == (
        f"check-all: {len(want)} violation(s); see {out / 'check_all.json'}\n"
    )
    assert rep["n_violations"] == len(want)
    assert rep["violations"] == want


# values once read as settings, now constants: each is an unknown key
_CONSTANTS = [
    "integrals:\n  g0: 1.0e300\n",
    "integrals:\n  g0: 1.0e-300\n",
    "boundary:\n  degree: 3000000\n",
    "boundary:\n  ell: 1.0e-300\n",
    "boundary:\n  period: 1.0e300\n  ell: 1\n",
    "tolerances:\n  identity: 1.0e-6\n",
    "tolerances:\n  identity: -1\n",
    "tolerances:\n  identity: .inf\n",
    "budgets:\n  closure: 1000\n",
    "budgets:\n  closure: 1000.5\n",
]


@pytest.mark.parametrize(
    "text",
    [
        "schedule:\n  rho: 2.0\n",        # domain violation
        "unknown_block:\n  x: 1\n",        # unknown key
        "schedule:\n  k_c: 4.0\n",          # keys no pipeline reads are unknown
        "tolerances:\n  integral_refined: 1.0e-9\n",
        "toy: no-such-toy\n",              # unknown builtin toy
        "trial:\n  volume: 0\n",           # nonpositive volume
        ":\n  - [broken\n",                # YAML syntax error
        "potential:\n  amplitude: abc\n",  # non-numeric float
        "sweep:\n  rho_values: [x]\n",     # non-numeric list entry
        "trial:\n  n: abc\n",              # non-numeric integer
        "schedule:\n  eta: 0.3\n",         # eta past the region ordering's 1/4
        "trial:\n  n: 6.5\n",              # fractional integer key
        "trial:\n  m_c: true\n",           # bool for an integer key
        "boundary:\n  degree: 2.5\n",
        "boundary:\n  resolution: true\n",
        "seed: true\n",
        "seed: 7.5\n",
        "seed: -5\n",                     # numpy's generators take no negative seed
        "potential:\n  amplitude: true\n",  # bool for a float key
        "trial:\n  n: \"6\"\n",             # string for an integer key
        "potential:\n  amplitude: .inf\n",  # non-finite float keys
        "potential:\n  width: .inf\n",
        "toy_modes: 5\n",                 # a number for the mode-file path
    ]
    + _CONSTANTS,
)
def test_bad_configs_exit_2(tmp_path, text, capsys):
    cfg = _write_config(tmp_path, text)
    pipeline = "trial-state" if "toy" in text else "integrals"
    code = main([pipeline, "--config", cfg, "--out", str(tmp_path / "r")])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err
    if text in _CONSTANTS:
        assert err.startswith("config error: unknown config key")


def test_config_parser_is_libyaml_with_the_safe_loaders_dicts():
    # the C parser where PyYAML has it, and the same dicts as SafeLoader
    if yaml.__with_libyaml__:
        assert cli._YAML_LOADER is yaml.CSafeLoader
    text = (
        "potential: {amplitude: 0.25, width: 2}\nschedule:\n  rho: 1e-05\n"
        "sweep:\n  rho_values: [1.0e-4, 1.0e-6]\ntoy: pi-pair\ntrial: {n: 6, m_c: null}\n"
        "seed: 7\nflag: yes\nwhen: 2001-12-14\n"
    )
    fast, safe = yaml.load(text, Loader=cli._YAML_LOADER), yaml.safe_load(text)
    assert fast == safe and repr(fast) == repr(safe)


def test_negative_seed_option_exits_2(tmp_path, capsys):
    code, out = _run(tmp_path, "boundary", "--seed", "-1")
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: seed must be >= 0")
    assert not (out / "boundary.json").exists()


@pytest.mark.parametrize("target", ["afile", "afile/sub"], ids=["file", "below-a-file"])
def test_unusable_out_exits_2(tmp_path, capsys, target):
    (tmp_path / "afile").write_text("")
    code = main(["integrals", "--out", str(tmp_path / target)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"config error: --out '{tmp_path / target}'")


@pytest.mark.parametrize(
    "pipeline, report", [("integrals", "integrals.json"), ("trial-state", "closure.txt")]
)
def test_unwritable_report_exits_2(tmp_path, capsys, pipeline, report):
    # a directory where the report goes: --out is usable, the write is not
    out = tmp_path / "o1"
    (out / report).mkdir(parents=True)
    code = main([pipeline, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"config error: cannot write report '{out / report}'")
    assert "Traceback" not in err


def _tree(path: Path) -> dict:
    # every entry below path by relative name: a file's bytes, a directory's None
    return {
        str(p.relative_to(path)): p.read_bytes() if p.is_file() else None
        for p in sorted(path.rglob("*"))
    }


def test_failed_report_write_leaves_out_as_it_was(tmp_path, capsys):
    # trial-state renders closure.txt first; the directory at trial_state.json
    # refuses the second report, and the first must not be left behind
    out = tmp_path / "o2"
    (out / "trial_state.json").mkdir(parents=True)
    (out / "notes.txt").write_text("kept")
    before = _tree(out)
    code = main(["trial-state", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"config error: cannot write report '{out / 'trial_state.json'}'")
    assert _tree(out) == before
    assert not (out / "closure.txt").exists()


@pytest.mark.parametrize(
    "text, key",
    [
        ("potential:\n  amplitude: .inf\n", "potential.amplitude"),
        ("potential:\n  width: .nan\n", "potential.width"),
        ("sweep:\n  rho_values: [1.0e-4, .nan]\n", "sweep.rho_values entry"),
        ("schedule:\n  rho: .inf\n", "schedule.rho"),
        ("trial:\n  volume: .inf\n", "trial.volume"),
    ],
)
def test_non_finite_float_keys_named(tmp_path, text, key, capsys):
    # inf passes every "> 0" domain check, so finiteness is checked on its own
    code = main(["integrals", "--config", _write_config(tmp_path, text), "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"config error: {key} must be finite")


@pytest.mark.parametrize(
    "tol",
    [
        # the default potential's ~4e-11 residuals, against a bound set below them
        1.0e-12,
    ],
    ids=["tight-identity-key"],
)
@pytest.mark.parametrize("pipeline", ["scattering", "check-all"])
def test_identity_violation_exits_3(tmp_path, capsys, monkeypatch, pipeline, tol):
    monkeypatch.setattr(semiclassical, "IDENTITY_TOL", tol)
    code = main([pipeline, "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("identity violation: scattering identities fail")
    assert "Traceback" not in err
    assert not (tmp_path / "r").exists() or not any((tmp_path / "r").iterdir())


@pytest.mark.parametrize(
    "text",
    [
        "potential: {amplitude: 1.0e-150}\n",  # g0^(5/2) underflows: 0/0 residuals
        "potential: {width: 1.0e-300}\n",      # width^2 underflows in the pair kernel
    ],
    ids=["amplitude-1e-150", "width-1e-300"],
)
def test_extreme_potential_refused(tmp_path, capsys, text):
    cfg = _write_config(tmp_path, text)
    out = tmp_path / "r"
    code = main(["scattering", "--config", cfg, "--out", str(out)])
    for path in out.iterdir():
        assert not re.search(r"\b(NaN|Infinity)\b", path.read_text()), path.name
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: potential: V_0")


@pytest.mark.parametrize(
    "text",
    [
        # V_0 ~ 16 on a grid from 1e-103: w = p^2 w / p^2 reaches 1e207, w^2 overflows
        "potential: {amplitude: 1.0e-300, width: 1.0e100}\n",
        # V_0 ~ 1.6e-111 on a grid to 1e107: p^3 overflows and w underflows
        "potential: {amplitude: 1.0e200, width: 1.0e-104}\n",
    ],
    ids=["wide-shallow", "narrow-deep"],
)
@pytest.mark.parametrize("pipeline", ["scattering", "lattice", "energy-curve"])
def test_extreme_scales_write_finite_reports(tmp_path, pipeline, text):
    # in-process, so a numpy overflow warning fails the run as an error
    cfg = _write_config(tmp_path, text)
    code, out = _run(tmp_path, pipeline, "--config", cfg)
    assert code in (0, 2, 3)
    assert code != 0 or any(out.iterdir())
    for path in out.iterdir():
        assert not re.search(r"\b(NaN|Infinity|nan|inf)\b", path.read_text()), path.name


@pytest.mark.parametrize(
    "text",
    [
        "potential: {amplitude: 1.0e-10, width: 1.0}\n",
        "potential: {amplitude: 1.0e-12, width: 1.0}\n",
        "potential: {amplitude: 1.0e-300, width: 1.0e100}\n",
    ],
    ids=["weak", "weaker", "wide-shallow"],
)
@pytest.mark.parametrize(
    "pipeline, report", [("scattering", "scattering.json"), ("check-all", "check_all.json")]
)
def test_weak_potentials_pass_the_shooting_oracle(tmp_path, pipeline, report, text):
    # a is 1e-10 to 1e-12 of the width here, or 1e-100 of it, where an
    # asymptote read-off r - u/u' loses a to roundoff; the variable-phase
    # oracle resolves it, so both pipelines pass and write their reports
    cfg = _write_config(tmp_path, text)
    code, out = _run(tmp_path, pipeline, "--config", cfg)
    assert code == 0
    assert (out / report).is_file()


@pytest.mark.parametrize("pipeline", ["lattice", "energy-curve"])
def test_divergent_integrand_exits_3(tmp_path, monkeypatch, capsys, pipeline):
    # no known schedule makes the P_L summand non-finite; an infinite one
    # stands in for it
    monkeypatch.setattr(
        lattice, "number_density_summand", lambda rho, g0: lambda mags: np.full_like(mags, np.inf)
    )
    code, out = _run(tmp_path, pipeline)
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("divergent integrand:")
    assert "Traceback" not in err
    assert not any(out.iterdir())


@pytest.mark.parametrize("pipeline", ["scattering", "lattice", "energy-curve", "check-all"])
def test_non_finite_observable_exits_3(tmp_path, monkeypatch, capsys, pipeline):
    # a NaN norm is refused by the solve that made it, never scored as an
    # identity miss nor written by the pipelines that check no identity
    observables = scattering._observables

    def nan_vw1(*args):
        g0_limit, grad_w2, _, vw2, v0 = observables(*args)
        return g0_limit, grad_w2, math.nan, vw2, v0

    monkeypatch.setattr(scattering, "_observables", nan_vw1)
    code, out = _run(tmp_path, pipeline)
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("convergence failure: scattering solve: non-finite")
    assert "vw1" in err
    for path in out.iterdir():
        assert not re.search(r"\bNaN\b", path.read_text()), path.name


@pytest.mark.parametrize(
    "pipeline, text, rho",
    [
        ("lattice", "schedule: {rho: 0.01}\n", "0.01"),
        ("lattice", "schedule: {rho: 0.1}\n", "0.1"),
        ("lattice", "schedule: {rho: 0.5}\n", "0.5"),
        ("energy-curve", "sweep: {rho_values: [1.0e-4, 0.5]}\n", "0.5"),
    ],
    ids=["lattice-0.01", "lattice-0.1", "lattice-0.5", "energy-curve-0.5"],
)
def test_empty_low_annulus_exits_2(tmp_path, capsys, pipeline, text, rho):
    # at eta = 1/200 the P_L annulus of these densities holds no lattice shell
    code, out = _run(tmp_path, pipeline, "--config", _write_config(tmp_path, text))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:")
    assert f"rho = {rho}," in err and "eta = 0.005" in err
    assert "Traceback" not in err
    assert not any(out.iterdir())


@pytest.mark.parametrize("rho", ["1.0e-99", "1.0e-200", "1.0e-300"])
@pytest.mark.parametrize(
    "pipeline, text",
    [("lattice", "schedule: {{rho: {}}}\n"), ("energy-curve", "sweep: {{rho_values: [{}]}}\n")],
    ids=["lattice", "energy-curve"],
)
def test_density_past_shell_reach_exits_3(tmp_path, capsys, pipeline, text, rho):
    # far below rho = 2.7e-9 the box volume, the top shell index and the box
    # length overflow a double; the shell budget refuses first
    code, out = _run(tmp_path, pipeline, "--config", _write_config(tmp_path, text.format(rho)))
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith(f"budget exceeded: rho = {float(rho)!r}:")
    assert "Traceback" not in err
    assert not any(out.iterdir())

@pytest.mark.parametrize(
    "pipeline, text",
    [
        ("lattice", "schedule: {rho: 1.0e-99}\n"),
        ("energy-curve", "sweep: {rho_values: [1.0e-8, 1.0e-99]}\n"),
    ],
    ids=["lattice", "energy-curve"],
)
def test_density_past_shell_reach_refused_before_the_solve(
    tmp_path, capsys, monkeypatch, pipeline, text
):
    # the shell reach is a function of the schedule alone: every rho is
    # checked before the scattering solve or any earlier rho's sum runs
    def no_solve(potential):
        raise AssertionError("solve_scattering called before the shell-reach check")

    monkeypatch.setattr(cli, "solve_scattering", no_solve)
    code, out = _run(tmp_path, pipeline, "--config", _write_config(tmp_path, text))
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("budget exceeded: rho = 1e-99:")
    assert not any(out.iterdir())


@pytest.mark.parametrize(
    "pipeline, text, where",
    [
        ("lattice", "schedule: {rho: 0.5}\n", "rho = 0.5,"),
        ("energy-curve", "sweep: {rho_values: [1.0e-8, 0.5]}\n", "rho = 0.5,"),
        # check-all's lattice probe sums rho = 1e-4 and 1e-5 at the config's eta
        ("check-all", "schedule: {eta: 1.0e-6}\n", "rho = 0.0001, eta = 1e-06"),
    ],
    ids=["lattice", "energy-curve", "check-all"],
)
def test_empty_low_annulus_refused_before_the_solve(
    tmp_path, capsys, monkeypatch, pipeline, text, where
):
    # the shell window is a function of the schedule alone: an empty P_L
    # annulus is refused before the scattering solve or any rho's shell count
    def no_solve(potential):
        raise AssertionError("solve_scattering called before the empty-annulus check")

    def no_counts(m_max, m_min=0):
        raise AssertionError("shell_counts called before the empty-annulus check")

    monkeypatch.setattr(cli, "solve_scattering", no_solve)
    monkeypatch.setattr(lattice, "shell_counts", no_counts)
    code, out = _run(tmp_path, pipeline, "--config", _write_config(tmp_path, text))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:")
    assert where in err and "contains no lattice shells" in err
    assert not any(out.iterdir())


@pytest.mark.parametrize("amplitude", [1e-8, 1e-16, 1e-20, 1e-30, 1e-60])
def test_weak_coupling_lattice_gap_is_finite(tmp_path, amplitude):
    # 4 rho g0 / p^2 falls far below the float epsilon on P_L, where a
    # summand formed from h - 1 would round to 0.  The summand tends to
    # (4 rho g0 / p^2)^2 / 16, so the gap tends to a limit free of g0
    cfg = _write_config(tmp_path, f"potential: {{amplitude: {amplitude:.1e}}}\n")
    code, out = _run(tmp_path, "lattice", "--config", cfg)
    assert code == 0
    rep = load_report(out / "lattice.json")["number_density"]
    assert 0.0 < rep["lattice_per_volume"]
    assert math.isclose(rep["rel_gap_annulus"], 2.3091241e-4, rel_tol=1e-6)


def test_float_keys_take_yaml_exponent_strings(tmp_path):
    # YAML reads an exponent without a dot as a string; float keys accept it,
    # and the loaded config holds the cast number
    cfg = load_config(_write_config(tmp_path, "sweep:\n  rho_values: [1e-06, 1e-08]\n"))
    assert cfg["sweep"]["rho_values"] == [1e-06, 1e-08]
    assert all(type(r) is float for r in cfg["sweep"]["rho_values"])
    # trial.volume goes on to the mode-file loader, which compares it with 0.0
    modes = tmp_path / "modes.txt"
    modes.write_text("0 0 0 P0\n0.75 0 0 PI -0.4\n-0.75 0 0 PI -0.4\n")
    cfg = _write_config(tmp_path, f"toy_modes: {modes}\ntrial: {{n: 4, volume: 2e1}}\n")
    assert load_config(cfg)["trial"]["volume"] == 20.0
    code, out = _run(tmp_path, "trial-state", "--config", cfg)
    assert code == 0
    assert load_report(out / "trial_state.json")["closure_size"] == 3


def test_readme_example_config_runs(tmp_path):
    # the YAML block of the README's command-line section, as written
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```yaml\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    cfg = _write_config(tmp_path, blocks[0])
    assert load_config(cfg)["potential"] == {"amplitude": 0.1, "width": 1.0}
    code, _ = _run(tmp_path, "integrals", "--config", cfg)
    assert code == 0


@pytest.mark.parametrize(
    "lines",
    [
        "0 0 0 P0\n0.75 0 0 XX -0.4\n-0.75 0 0 XX -0.4\n",   # unknown region label
        "0 0 0 P0\n0.75 zero 0 PI -0.4\n-0.75 0 0 PI -0.4\n",  # non-numeric field
        "0.75 0 0 PI -0.4\n-0.75 0 0 PI -0.4\n",                # no zero mode
        "0 0 0 P0\n0.75 0 0 PI -0.4\n0.75 0 0 PI -0.4\n",      # duplicate momentum
        "0 0 0 P0\n0.75 0 0 PI\n-0.75 0 0 PI\n",                # occupied mode, no lambda
        "# volume = -20.0\n0 0 0 P0\n0.75 0 0 PI -0.4\n-0.75 0 0 PI -0.4\n",  # bad volume
        "# volume = inf\n0 0 0 P0\n0.75 0 0 PI -0.4\n-0.75 0 0 PI -0.4\n",    # non-finite volume
        "0 0 0 P0\ninf 0 0 PI -0.4\n-inf 0 0 PI -0.4\n",                       # infinite momentum
        "0 0 0 P0\n0.75 nan 0 PI -0.4\n-0.75 0 0 PI -0.4\n",                   # NaN momentum
    ],
    ids=[
        "region", "non-numeric", "no-zero-mode", "duplicate", "no-lambda", "volume",
        "volume-inf", "momentum-inf", "momentum-nan",
    ],
)
def test_bad_mode_files_exit_2(tmp_path, lines, capsys):
    modes = tmp_path / "modes.txt"
    modes.write_text("# volume = 20.0\n" + lines)
    cfg = _write_config(tmp_path, f"toy_modes: {modes}\ntrial:\n  n: 4\n")
    code = main(["trial-state", "--config", cfg, "--out", str(tmp_path / "r")])
    assert code == 2
    assert "config error:" in capsys.readouterr().err


def test_zero_lambda_mode_file_exits_2(tmp_path, capsys):
    # the pi-pair toy with lambda 0 on both intermediate modes: log|lambda|
    # has no value, so the run stops before any report is written
    modes = tmp_path / "modes.txt"
    modes.write_text("# volume = 25.0\n0 0 0 P0\n0.75 0 0 PI 0.0\n-0.75 0 0 PI 0.0\n")
    cfg = _write_config(tmp_path, f"toy_modes: {modes}\ntrial:\n  n: 10\n")
    out = tmp_path / "r"
    code = main(["trial-state", "--config", cfg, "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not any(out.iterdir())


@pytest.mark.parametrize("extra", ["0.25 0 0 PL\n", "0.5 0 0 PI\n"], ids=["PL", "PI"])
def test_unpaired_mode_without_lambda_runs(tmp_path, extra):
    # no pair creation reaches an unpaired mode, so it needs no lambda, and the
    # occupancy reports that would read one skip it: they are vacuous there
    modes = tmp_path / "modes.txt"
    modes.write_text("# volume = 20.0\n0 0 0 P0\n0.75 0 0 PI -0.4\n-0.75 0 0 PI -0.4\n" + extra)
    cfg = _write_config(tmp_path, f"toy_modes: {modes}\ntrial:\n  n: 4\n")
    code, out = _run(tmp_path, "trial-state", "--config", cfg)
    assert code == 0
    rep = load_report(out / "trial_state.json")
    # the unpaired mode 3 has no entry in either report
    assert rep["closure_size"] == 3
    assert set(rep["ratio_bounds"]) == {"1", "2"}
    assert rep["low_monotonicity"] == {}


def test_trial_state_without_particles_writes_strict_json(tmp_path):
    # N = 0 leaves no (m, i) pair for the decay bound: no ratio, and null in
    # the report where -Infinity once made it invalid JSON
    modes = tmp_path / "modes.txt"
    modes.write_text("# volume = 25.0\n0 0 0 P0\n0.75 0 0 PI -0.4\n-0.75 0 0 PI -0.4\n")
    cfg = _write_config(tmp_path, f"toy_modes: {modes}\ntrial:\n  n: 0\n")
    code, out = _run(tmp_path, "trial-state", "--config", cfg)
    assert code == 0
    rep = load_report(out / "trial_state.json")
    assert rep["ratio_bounds"] == {str(u): {"holds": True, "worst_ratio": None} for u in (1, 2)}


def test_unknown_pipeline_rejected(tmp_path):
    with pytest.raises(SystemExit):
        main(["no-such-pipeline", "--out", str(tmp_path / "r")])


def test_one_closure_budget_default():
    # the closure budget and the identity tolerance are constants read where
    # they are spent: no function in the package takes either
    params = [
        f"{path.stem}.{node.name}.{arg.arg}"
        for path in sorted(Path(cli.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        if arg.arg in ("budget", "identity_tol")
    ]
    assert params == []
    assert not {"budgets", "tolerances"} & set(load_config(None))


_PI_PAIR_MODES = "# volume = 25.0\n0 0 0 P0\n{p} 0 0 PI -0.4\n-{p} 0 0 PI -0.4\n"


def _pi_pair_config(tmp_path, p, text):
    path = tmp_path / "modes.txt"
    path.write_text(_PI_PAIR_MODES.format(p=p))
    return _write_config(tmp_path, f"toy_modes: {str(path)!r}\n{text}")


@pytest.mark.parametrize(
    "pipeline, text, modes",
    [
        *[
            (pipeline, f"potential: {{amplitude: {amp}, width: {width}}}\n", None)
            for pipeline in ("scattering", "lattice", "energy-curve", "check-all")
            for amp, width in (("1.0", "1.0e200"), ("1.0e200", "1.0e50"))
        ],
        ("trial-state", "potential: {amplitude: 1.0e300, width: 1.0e10}\n", ("0.75", 4)),
        ("trial-state", "", ("1.0e300", 4)),
        ("trial-state", "", ("3.0e153", 100)),
        ("trial-state", "potential: {amplitude: 1.0e305, width: 1.0}\n", ("0.75", 100)),
        ("trial-state", "toy: condensate\ntrial: {n: 1.0e+30}\n", None),
        ("trial-state", f"toy: condensate\ntrial: {{n: {MAX_PARTICLES + 1}}}\n", None),
    ],
    ids=[
        *[
            f"{pipeline}-{kind}"
            for pipeline in ("scattering", "lattice", "energy-curve", "check-all")
            for kind in ("width2", "v0")
        ],
        "trial-state-v0",
        "trial-state-momentum",
        "trial-state-kinetic",
        "trial-state-interaction",
        "trial-state-n-float",
        "trial-state-n-past-max",
    ],
)
def test_overflowing_inputs_exit_2(tmp_path, capsys, pipeline, text, modes):
    # width^2 = 1e400 and V_0 = 1.6e351 or 1.6e331 leave the doubles, and so
    # do |p|^2 = 1e600 and the energy bound N max|p|^2 + 30 V_0 N^2 (at
    # |Lambda| = 25) through N |p|^2 = 100 * 9e306 or 30 V_0 N^2 = 4.7e311,
    # and a trial.n past MAX_PARTICLES leaves the int64 count products:
    # each is refused before any work, with no report
    if modes is not None:
        p, n = modes
        config = _pi_pair_config(tmp_path, p, f"{text}trial: {{n: {n}}}\n")
    else:
        config = _write_config(tmp_path, text)
    code, out = _run(tmp_path, pipeline, "--config", config)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and "Traceback" not in err
    if "toy: condensate" in text:
        assert f"trial.n must lie in 0 .. {MAX_PARTICLES}" in err
    # a config refused on load leaves --out unmade
    assert not out.exists() or not any(out.iterdir())


def test_trial_state_kinetic_bound_inside_the_doubles_runs(tmp_path):
    # N |p|^2 = 1e306: the report's energies stay finite
    config = _pi_pair_config(tmp_path, "1.0e152", "trial: {n: 100}\n")
    code, out = _run(tmp_path, "trial-state", "--config", config)
    assert code == 0
    report = load_report(out / "trial_state.json")
    _assert_cross_checked(report)
    energy = report["energy"]
    assert all(math.isfinite(v) for v in energy.values())
    assert energy["kinetic"] > 1e305


@pytest.mark.parametrize("amplitude, code", [("3.5e301", 0), ("4.0e301", 2)])
def test_trial_state_energy_bound_edge(tmp_path, capsys, amplitude, code):
    # the pi-pair modes with N = 100 at |Lambda| = 25: the bound is
    # N max|p|^2 + 30 V_0 N^2, 1.65e308 at V_0 = 5.5e302 (amplitude 3.5e301),
    # which runs with every energy finite and nothing on stderr, and 1.89e308
    # at V_0 = 6.3e302, which is refused
    config = _pi_pair_config(
        tmp_path, "0.75", f"potential: {{amplitude: {amplitude}, width: 1.0}}\ntrial: {{n: 100}}\n"
    )
    got, out = _run(tmp_path, "trial-state", "--config", config)
    err = capsys.readouterr().err
    assert got == code
    if code:
        assert err.startswith("config error:") and "V_0 = 6.29984e+302" in err
        assert not any(out.iterdir())
        return
    assert err == ""
    report = load_report(out / "trial_state.json")
    _assert_cross_checked(report)
    energy = report["energy"]
    assert all(math.isfinite(v) for v in energy.values())
    assert energy["HS1"] > 1e305


@pytest.mark.parametrize(
    "modes",
    [
        "# volume = 18\n0 0 0 P0\n0.25 0 0 PL -1e200\n-0.25 0 0 PL -1e200\n",
        "# volume = 1e-300\n0 0 0 P0\n0.25 0 0 PL -0.5\n-0.25 0 0 PL -0.5\n",
    ],
    ids=["lambda", "volume"],
)
def test_trial_state_monotonicity_hypothesis_past_the_doubles(tmp_path, capsys, modes):
    # rho^2 lambda^2 leaves the doubles through lambda = -1e200 or through
    # rho = N / |Lambda| = 4e300: the hypothesis does not hold, and the run
    # writes its report with nothing on stderr
    path = tmp_path / "modes.txt"
    path.write_text(modes)
    config = _write_config(tmp_path, f"toy_modes: {str(path)!r}\ntrial: {{n: 4}}\n")
    code, out = _run(tmp_path, "trial-state", "--config", config)
    assert code == 0
    assert capsys.readouterr().err == ""
    reports = load_report(out / "trial_state.json")["low_monotonicity"]
    assert reports and not any(r["hypothesis_holds"] for r in reports.values())


def test_trial_state_transfer_past_the_square_overflow_is_silent(tmp_path, capsys):
    # |p| width = 1e160 for the pair's transfers: V_p = 0 with nothing on stderr
    config = _pi_pair_config(tmp_path, "1.0e150", "potential: {amplitude: 0.1, width: 1.0e10}\n")
    code, out = _run(tmp_path, "trial-state", "--config", config)
    assert code == 0
    assert capsys.readouterr().err == ""
    _assert_cross_checked(load_report(out / "trial_state.json"))


@pytest.mark.parametrize("n", [55_110, 2_000_000, MAX_PARTICLES])
def test_condensate_past_the_int64_four_count_product(tmp_path, capsys, n):
    # N^2 (N - 1)^2 passes 2^63 from N = 55,110, where int64 wraps; formed in
    # floats, the brute force still matches the components, and the
    # occupancy table is a window of two counts, not N + 1
    config = _write_config(tmp_path, f"toy: condensate\ntrial: {{n: {n}}}\n")
    code, out = _run(tmp_path, "trial-state", "--config", config)
    assert code == 0
    assert capsys.readouterr().err == ""
    report = load_report(out / "trial_state.json")
    assert report["particle_count"] == n
    _assert_cross_checked(report)


def test_pl_pair_shallow_at_max_particles(tmp_path, capsys):
    # three states with a condensate of 2^31 - 5 .. 2^31 - 1: the two energy
    # routes agree, the occupancy sums hold, and the one exact pair gap is
    # finite.  The strict-low recursion identity is off by ~5e-7 here:
    # weight_f's log magnitudes carry lgamma(N) ~ 4e10 at double precision
    config = _write_config(tmp_path, f"toy: pl-pair-shallow\ntrial: {{n: {MAX_PARTICLES}}}\n")
    code, out = _run(tmp_path, "trial-state", "--config", config)
    assert code == 0
    assert capsys.readouterr().err == ""
    report = load_report(out / "trial_state.json")
    assert (report["particle_count"], report["closure_size"]) == (MAX_PARTICLES, 3)
    assert report["energy"]["decomposition_residual"] <= 1e-10
    assert all(abs(s - 1.0) <= 1e-12 for s in report["occupancy_sum_rules"].values())
    assert report["pair_correlator_gaps"] and all(
        math.isfinite(gap) for gap in report["pair_correlator_gaps"]
    )
