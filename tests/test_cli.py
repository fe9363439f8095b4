"""End-to-end pipeline runs through the command-line entry point."""

import csv
import json
import math

import pytest

from bosegas.cli import main

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
        assert math.isclose(float(row[key]), closed, rel_tol=1e-6), key
        assert float(row[f"{key}_rel_residual"]) <= 1e-6
    report = json.loads((out / "integrals.json").read_text())
    assert report["max_rel_residual"] <= 1e-6


def test_integrals_pipeline_refined(tmp_path):
    code, out = _run(tmp_path, "integrals", "--refine")
    assert code == 0
    report = json.loads((out / "integrals.json").read_text())
    assert report["refine"] is True
    assert report["max_rel_residual"] <= 1e-9


def test_scattering_pipeline(tmp_path):
    code, out = _run(tmp_path, "scattering")
    assert code == 0
    rep = json.loads((out / "scattering.json").read_text())
    assert math.isclose(rep["a"], 0.11707990946904165, rel_tol=1e-9)
    assert rep["shooting_rel_gap"] < 1e-4
    assert rep["identity_residuals"]["gradient"] < 1e-6
    assert rep["ledger"]["final_residual"] <= 1e-12


def test_scattering_pipeline_past_born_radius(tmp_path):
    # amplitude * width^2 = 8: the Born series diverges, the solve does not
    cfg = _write_config(tmp_path, "potential: {amplitude: 2.0, width: 2.0}\n")
    code, out = _run(tmp_path, "scattering", "--config", cfg)
    assert code == 0
    rep = json.loads((out / "scattering.json").read_text())
    assert rep["converged"] is True
    assert rep["shooting_rel_gap"] < 1e-6


def test_lattice_pipeline(tmp_path):
    code, out = _run(tmp_path, "lattice")
    assert code == 0
    rep = json.loads((out / "lattice.json").read_text())
    assert rep["number_density"]["rel_gap_annulus"] < 1e-3
    assert rep["number_density"]["n_modes"] > 0
    assert rep["schedule"]["rho"] == rep["number_density"]["rho"]


def test_trial_state_pipeline_builtin_toy(tmp_path):
    cfg = _write_config(tmp_path, "toy: pi-pair\ntrial:\n  n: 4\n")
    code, out = _run(tmp_path, "trial-state", "--config", cfg)
    assert code == 0
    rep = json.loads((out / "trial_state.json").read_text())
    assert rep["name"] == "pi-pair"
    assert rep["closure_size"] == 3
    assert rep["energy"]["decomposition_residual"] <= 1e-10
    assert max(rep["recursion_max_error"].values()) <= 1e-12
    closure = (out / "closure.txt").read_text().strip().split("\n")
    assert len(closure) == 3


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
    rep = json.loads((out / "trial_state.json").read_text())
    assert rep["closure_size"] == 3


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


def test_boundary_pipeline(tmp_path):
    code, out = _run(tmp_path, "boundary")
    assert code == 0
    rep = json.loads((out / "boundary.json").read_text())
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
    rep = json.loads(blob1)
    assert rep["n_violations"] == 0
    assert rep["violations"] == []


@pytest.mark.parametrize(
    "text",
    [
        "schedule:\n  rho: 2.0\n",        # domain violation
        "unknown_block:\n  x: 1\n",        # unknown key
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
    ],
)
def test_bad_configs_exit_2(tmp_path, text, capsys):
    cfg = _write_config(tmp_path, text)
    pipeline = "trial-state" if "toy" in text else "integrals"
    code = main([pipeline, "--config", cfg, "--out", str(tmp_path / "r")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "lines",
    [
        "0 0 0 P0\n0.75 0 0 XX -0.4\n-0.75 0 0 XX -0.4\n",   # unknown region label
        "0 0 0 P0\n0.75 zero 0 PI -0.4\n-0.75 0 0 PI -0.4\n",  # non-numeric field
        "0.75 0 0 PI -0.4\n-0.75 0 0 PI -0.4\n",                # no zero mode
        "0 0 0 P0\n0.75 0 0 PI -0.4\n0.75 0 0 PI -0.4\n",      # duplicate momentum
        "0 0 0 P0\n0.75 0 0 PI\n-0.75 0 0 PI\n",                # occupied mode, no lambda
        "# volume = -20.0\n0 0 0 P0\n0.75 0 0 PI -0.4\n-0.75 0 0 PI -0.4\n",  # bad volume
    ],
    ids=["region", "non-numeric", "no-zero-mode", "duplicate", "no-lambda", "volume"],
)
def test_bad_mode_files_exit_2(tmp_path, lines, capsys):
    modes = tmp_path / "modes.txt"
    modes.write_text("# volume = 20.0\n" + lines)
    cfg = _write_config(tmp_path, f"toy_modes: {modes}\ntrial:\n  n: 4\n")
    code = main(["trial-state", "--config", cfg, "--out", str(tmp_path / "r")])
    assert code == 2
    assert "config error:" in capsys.readouterr().err


def test_unknown_pipeline_rejected(tmp_path):
    with pytest.raises(SystemExit):
        main(["no-such-pipeline", "--out", str(tmp_path / "r")])
