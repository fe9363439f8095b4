"""End-to-end pipeline runs through the command-line entry point."""

import csv
import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bosegas import boundary as bnd
from bosegas import cli, lattice, scattering
from bosegas.cli import load_config, main
from bosegas.expectation import energy_report
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
    ledger = assemble_ledger(solution, identity_tol=cfg["tolerances"]["identity"])
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
    trial = build_trial(case, budget=cfg["budgets"]["closure"])
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

@pytest.mark.parametrize(
    "text",
    [
        "schedule:\n  rho: 2.0\n",        # domain violation
        "unknown_block:\n  x: 1\n",        # unknown key
        "schedule:\n  k_c: 4.0\n",          # keys no pipeline reads are unknown
        "tolerances:\n  integral_refined: 1.0e-9\n",
        "toy: no-such-toy\n",              # unknown builtin toy
        "tolerances:\n  identity: -1\n",   # nonpositive tolerance
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
        "budgets:\n  closure: 1000.5\n",
        "seed: true\n",
        "seed: 7.5\n",
        "seed: -5\n",                     # numpy's generators take no negative seed
        "potential:\n  amplitude: true\n",  # bool for a float key
        "trial:\n  n: \"6\"\n",             # string for an integer key
        "potential:\n  amplitude: .inf\n",  # non-finite float keys
        "potential:\n  width: .inf\n",
        "tolerances:\n  identity: .inf\n",
        "toy_modes: 5\n",                 # a number for the mode-file path
        # values once read as settings, now constants: each is an unknown key
        "integrals:\n  g0: 1.0e300\n",
        "integrals:\n  g0: 1.0e-300\n",
        "boundary:\n  degree: 3000000\n",
        "boundary:\n  ell: 1.0e-300\n",
        "boundary:\n  period: 1.0e300\n  ell: 1\n",
    ],
)
def test_bad_configs_exit_2(tmp_path, text, capsys):
    cfg = _write_config(tmp_path, text)
    pipeline = "trial-state" if "toy" in text else "integrals"
    code = main([pipeline, "--config", cfg, "--out", str(tmp_path / "r")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


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
        ("tolerances:\n  identity: \"inf\"\n", "tolerances.identity"),
    ],
)
def test_non_finite_float_keys_named(tmp_path, text, key, capsys):
    # inf passes every "> 0" domain check, so finiteness is checked on its own
    code = main(["integrals", "--config", _write_config(tmp_path, text), "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"config error: {key} must be finite")


@pytest.mark.parametrize(
    "text",
    [
        # the default potential's ~4e-11 residuals, against a bound set below them
        "tolerances: {identity: 1.0e-12}\n",
    ],
    ids=["tight-identity-key"],
)
@pytest.mark.parametrize("pipeline", ["scattering", "check-all"])
def test_identity_violation_exits_3(tmp_path, capsys, pipeline, text):
    cfg = _write_config(tmp_path, text)
    code = main([pipeline, "--config", cfg, "--out", str(tmp_path / "r")])
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
    "pipeline, text",
    [
        ("lattice", "schedule: {rho: 0.5}\n"),
        ("energy-curve", "sweep: {rho_values: [1.0e-8, 0.5]}\n"),
    ],
    ids=["lattice", "energy-curve"],
)
def test_empty_low_annulus_refused_before_the_solve(tmp_path, capsys, monkeypatch, pipeline, text):
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
    assert "rho = 0.5," in err and "contains no lattice shells" in err
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
