"""Command-line driver: config parsing, pipeline orchestration, reports.

Subcommands: scattering | lattice | trial-state | energy-curve | integrals |
boundary | check-all.  Configuration is YAML with nested blocks; every value
has a default so all pipelines run without a config file.  Reports are JSON
(machine summaries, sorted keys) and CSV (plot data, fixed %.12e floats);
with a fixed seed the bytes are reproducible run to run.

Exit codes: 0 ok, 1 check violation, 2 config error, 3 convergence failure
or budget exceeded.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys
from pathlib import Path

import numpy as np
import yaml

from . import boundary as bnd
from . import semiclassical as semi
from .errors import BudgetExceeded, ConfigInvalid, NotConverged, RegionUndefined
from .expectation import (
    InteractionContext,
    energy_report,
    pair_correlator_check,
    occupation_ratio_report,
    pl_occupation_monotonicity,
    q_psi,
    q_psi_occupation,
)
from .fock import export_closure, weight_recursion_report
from .lattice import Region, Schedule, load_toy_modes, pl_number_density_comparison
from .scattering import (
    Potential,
    check_scattering_identities,
    shooting_scattering_length,
    solve_scattering,
)
from .toys import ToyCase, build_trial, builtin_toy_suite, toy_by_name

__all__ = ["main", "load_config", "DEFAULT_CONFIG"]

DEFAULT_CONFIG = {
    "potential": {"amplitude": 0.1, "width": 1.0},
    "schedule": {"rho": 1.0e-5, "eta": 0.005, "k_c": None},
    "toy": "soft-coincidence",
    "toy_modes": None,
    "trial": {"n": 6, "m_c": 2, "volume": None},
    "sweep": {"rho_values": [1.0e-4, 1.0e-5, 1.0e-6, 1.0e-7, 1.0e-8]},
    "integrals": {"g0": 1.0},
    "boundary": {"ell": 0.1, "period": 1.0, "degree": 8, "resolution": 16384},
    "tolerances": {
        "identity": 1.0e-6,
        "shooting": 1.0e-4,
        "decomposition": 1.0e-10,
        "recursion": 1.0e-12,
        "imag": 1.0e-12,
        "milestone": 1.0e-12,
        "integral": 1.0e-6,
        "integral_refined": 1.0e-9,
        "partition": 1.0e-14,
        "boundary_isometry": 1.0e-8,
    },
    "budgets": {"closure": 200_000},
    "seed": 20260813,
}


# ---------------------------------------------------------------------------
# configuration


def _merge(base: dict, extra: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in extra.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigInvalid(f"unknown config key {where!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigInvalid(f"{where!r} must be a mapping")
            out[key] = _merge(base[key], value, where)
        else:
            out[key] = value
    return out


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigInvalid(message)


def _num(value, where: str, cast=float):
    """cast(value); a value that does not convert, or a bool or fractional
    value for an integer key, is a config error."""
    fractional = isinstance(value, float) and not value.is_integer()
    if cast is int and (isinstance(value, bool) or fractional):
        raise ConfigInvalid(f"{where} must be an integer, got {value!r}")
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigInvalid(f"{where} must be a number, got {value!r}") from exc


def load_config(path: str | None) -> dict:
    """Parse, merge with defaults, and validate every numeric domain."""
    raw: dict = {}
    if path is not None:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigInvalid(f"cannot read config {path!r}: {exc}") from exc
        try:
            loaded = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigInvalid(f"config {path!r} is not valid YAML: {exc}") from exc
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigInvalid("config top level must be a mapping")
        raw = loaded
    cfg = _merge(DEFAULT_CONFIG, raw)

    pot = cfg["potential"]
    _require(_num(pot["amplitude"], "potential.amplitude") > 0.0, "potential.amplitude must be > 0")
    _require(_num(pot["width"], "potential.width") > 0.0, "potential.width must be > 0")
    sched = cfg["schedule"]
    _require(0.0 < _num(sched["rho"], "schedule.rho") < 1.0, "schedule.rho must lie in (0, 1)")
    _require(0.0 < _num(sched["eta"], "schedule.eta") < 0.25, "schedule.eta must lie in (0, 1/4)")
    if sched["k_c"] is not None:
        _require(_num(sched["k_c"], "schedule.k_c") > 0.0, "schedule.k_c must be > 0")
    trial = cfg["trial"]
    _require(_num(trial["n"], "trial.n", int) >= 0, "trial.n must be >= 0")
    _require(_num(trial["m_c"], "trial.m_c", int) >= 1, "trial.m_c must be >= 1")
    if trial["volume"] is not None:
        _require(_num(trial["volume"], "trial.volume") > 0.0, "trial.volume must be > 0")
    rhos = cfg["sweep"]["rho_values"]
    _require(
        isinstance(rhos, (list, tuple)) and len(rhos) > 0,
        "sweep.rho_values must be a nonempty list",
    )
    for r in rhos:
        _require(
            0.0 < _num(r, "sweep.rho_values entry") < 1.0,
            "sweep.rho_values entries must lie in (0, 1)",
        )
    _require(_num(cfg["integrals"]["g0"], "integrals.g0") > 0.0, "integrals.g0 must be > 0")
    bcfg = cfg["boundary"]
    ell = _num(bcfg["ell"], "boundary.ell")
    period = _num(bcfg["period"], "boundary.period")
    _require(ell > 0.0, "boundary.ell must be > 0")
    _require(period > 0.0, "boundary.period must be > 0")
    _require(ell <= period / 2.0, "boundary.ell must not exceed period/2")
    _require(_num(bcfg["degree"], "boundary.degree", int) >= 1, "boundary.degree must be >= 1")
    _require(
        _num(bcfg["resolution"], "boundary.resolution", int) >= 4,
        "boundary.resolution must be >= 4",
    )
    for name, value in cfg["tolerances"].items():
        _require(_num(value, f"tolerances.{name}") > 0.0, f"tolerances.{name} must be > 0")
    _require(
        _num(cfg["budgets"]["closure"], "budgets.closure", int) > 0,
        "budgets.closure must be > 0",
    )
    _require(type(cfg["seed"]) is int, "seed must be an integer")
    return cfg


# ---------------------------------------------------------------------------
# report writers


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _fmt_cell(x) -> str:
    if isinstance(x, float):
        return f"{x:.12e}"
    return str(x)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt_cell(x) for x in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# pipelines


def _potential_from(cfg: dict) -> Potential:
    pot = cfg["potential"]
    return Potential.gaussian(float(pot["amplitude"]), float(pot["width"]))


def _solve(cfg: dict):
    return solve_scattering(_potential_from(cfg))


def run_scattering(cfg: dict, out: Path) -> dict:
    solution = _solve(cfg)
    report = solution.report()
    shoot = shooting_scattering_length(_potential_from(cfg))
    report["shooting_a"] = shoot
    report["shooting_rel_gap"] = abs(solution.a - shoot) / abs(shoot)
    report["ledger"] = semi.assemble_ledger(solution).as_dict()
    _write_json(out / "scattering.json", report)
    return report


def run_lattice(cfg: dict, out: Path) -> dict:
    sched_cfg = cfg["schedule"]
    try:
        schedule = Schedule(
            rho=float(sched_cfg["rho"]),
            eta=float(sched_cfg["eta"]),
            k_c=None if sched_cfg["k_c"] is None else float(sched_cfg["k_c"]),
        )
    except ValueError as exc:
        raise ConfigInvalid(f"schedule: {exc}") from exc
    solution = _solve(cfg)
    report = {
        "schedule": schedule.as_dict(),
        "number_density": pl_number_density_comparison(schedule, solution.g0),
        "g0": solution.g0,
    }
    _write_json(out / "lattice.json", report)
    return report


def _resolve_toy(cfg: dict) -> ToyCase:
    if cfg["toy_modes"] is not None:
        path = Path(cfg["toy_modes"])
        if not path.exists():
            raise ConfigInvalid(f"toy_modes file {str(path)!r} does not exist")
        try:
            mode_set = load_toy_modes(path, volume=cfg["trial"]["volume"])
        except (OSError, ValueError) as exc:
            raise ConfigInvalid(f"toy_modes file {str(path)!r}: {exc}") from exc
        if mode_set.volume is None:
            raise ConfigInvalid("toy_modes file carries no volume; set trial.volume")
        ctx = InteractionContext.from_potential(_potential_from(cfg), mode_set)
        return ToyCase(
            name=path.stem,
            mode_set=mode_set,
            n=int(cfg["trial"]["n"]),
            m_c=int(cfg["trial"]["m_c"]),
            v_of=ctx.v_mag,
            note="loaded from file",
        )
    try:
        return toy_by_name(str(cfg["toy"]))
    except KeyError as exc:
        known = ", ".join(c.name for c in builtin_toy_suite())
        raise ConfigInvalid(f"unknown toy {cfg['toy']!r}; builtin: {known}") from exc


def _trial_battery(case: ToyCase, *, budget: int) -> dict:
    """Everything check-all scores per toy, in one deterministic dict."""
    trial = build_trial(case, budget=budget)
    ms = case.mode_set
    rep = energy_report(trial, case.context())
    lams = [m.lam for m in ms]
    recursion = weight_recursion_report(trial, lams)
    occupancy_total = sum(q_psi(trial, [i]) for i in range(len(ms)))
    occupancy_sums = {}
    probe_modes = [ms.zero_index] + ms.nonzero_indices()[:1]
    for idx in probe_modes:
        s = sum(q_psi_occupation(trial, [(idx, m)]) for m in range(case.n + 1))
        occupancy_sums[str(idx)] = s
    pair_checks = []
    paired = [
        i
        for i in ms.nonzero_indices()
        if ms.neg_index(i) is not None
        and ms.modes[i].region in (Region.PL, Region.PI, Region.PH)
    ]
    for a_i, u in enumerate(paired):
        for v in paired[a_i + 1 :]:
            chk = pair_correlator_check(trial, u, v)
            if chk["exact_case"]:
                pair_checks.append(chk["abs_gap"])
    ratio_reports = {}
    rho = case.n / ms.volume
    for u in ms.indices_in(Region.PI):
        r = occupation_ratio_report(trial, u, rho, ms.modes[u].lam)
        ratio_reports[str(u)] = {"holds": r["holds"], "worst_ratio": r["worst_ratio"]}
    monotone_reports = {}
    for u in ms.indices_in(Region.PL):
        r = pl_occupation_monotonicity(
            trial, u, rho=rho, m_c=case.m_c, eps_h=1.0, c=1.0
        )
        monotone_reports[str(u)] = {
            "hypothesis_holds": r["hypothesis_holds"],
            "monotone": r["monotone"],
        }
    return {
        "name": case.name,
        "note": case.note,
        "closure_size": len(trial),
        "energy": rep.as_dict(),
        "recursion_max_error": recursion["max_rel_error"],
        "recursion_pairs": recursion["pairs"],
        "occupancy_total": occupancy_total,
        "particle_count": case.n,
        "occupancy_sum_rules": occupancy_sums,
        "pair_correlator_gaps": pair_checks,
        "ratio_bounds": ratio_reports,
        "low_monotonicity": monotone_reports,
        "trial": trial,
    }


def run_trial_state(cfg: dict, out: Path) -> dict:
    case = _resolve_toy(cfg)
    try:
        battery = _trial_battery(case, budget=int(cfg["budgets"]["closure"]))
    except RegionUndefined as exc:
        # only a mode file can leave lambda unset on a mode the closure fills
        raise ConfigInvalid(f"toy {case.name!r}: {exc}") from exc
    trial = battery.pop("trial")
    (out / "closure.txt").write_text(export_closure(trial))
    _write_json(out / "trial_state.json", battery)
    return battery


def run_energy_curve(cfg: dict, out: Path) -> dict:
    solution = _solve(cfg)
    g0 = solution.g0
    eta = float(cfg["schedule"]["eta"])
    header = [
        "rho",
        "pl_lattice",
        "pl_continuum_annulus",
        "rel_gap_annulus",
        "full_space_reference",
        "rel_gap_full_space",
        "n_modes",
        "energy_leading",
        "energy_second_order",
        "energy_total",
    ]
    rows = []
    for rho in (float(r) for r in cfg["sweep"]["rho_values"]):
        comp = pl_number_density_comparison(Schedule(rho=rho, eta=eta), g0)
        lead = g0 * rho**2
        second = semi.LHY_RATIO * g0**2.5 * rho**2.5
        rows.append(
            [
                rho,
                comp["lattice_per_volume"],
                comp["continuum_annulus"],
                comp["rel_gap_annulus"],
                comp["full_space_reference"],
                comp["rel_gap_full_space"],
                comp["n_modes"],
                lead,
                second,
                semi.predicted_energy_density(rho, g0),
            ]
        )
    _write_csv(out / "energy_curve.csv", header, rows)
    meta = {
        "g0": g0,
        "a": solution.a,
        "eta": eta,
        "rho_values": [float(r) for r in cfg["sweep"]["rho_values"]],
        "gaps_annulus": [row[3] for row in rows],
    }
    _write_json(out / "energy_curve.json", meta)
    return meta


def run_integrals(cfg: dict, out: Path, *, refine: bool) -> dict:
    g0 = float(cfg["integrals"]["g0"])
    nd = semi.integral_number_density(g0, refine=refine)
    kin = semi.integral_kinetic(g0, refine=refine)
    pair = semi.integral_pair(g0, refine=refine)
    header = [
        "g0",
        "number_density",
        "number_density_closed",
        "number_density_rel_residual",
        "kinetic",
        "kinetic_closed",
        "kinetic_rel_residual",
        "pair",
        "pair_closed",
        "pair_rel_residual",
    ]
    row = [
        g0,
        nd.value,
        nd.closed_form,
        nd.rel_residual,
        kin.value,
        kin.closed_form,
        kin.rel_residual,
        pair.value,
        pair.closed_form,
        pair.rel_residual,
    ]
    _write_csv(out / "integrals.csv", header, [row])
    report = {
        "g0": g0,
        "refine": refine,
        "number_density": {"value": nd.value, "closed_form": nd.closed_form},
        "kinetic": {"value": kin.value, "closed_form": kin.closed_form},
        "pair": {"value": pair.value, "closed_form": pair.closed_form},
        "max_rel_residual": max(nd.rel_residual, kin.rel_residual, pair.rel_residual),
    }
    _write_json(out / "integrals.json", report)
    return report


def _boundary_battery(cfg: dict, seed: int) -> dict:
    bcfg = cfg["boundary"]
    w = bnd.Window(ell=float(bcfg["ell"]), period=float(bcfg["period"]))
    resolution = int(bcfg["resolution"])
    degree = int(bcfg["degree"])
    rng = np.random.default_rng(seed)

    xs = np.linspace(-w.ell, w.ell, 4097)
    partition = float(
        np.max(np.abs(bnd.window_q(w, xs) ** 2 + bnd.window_q(w, xs + w.period) ** 2 - 1.0))
    )

    def const(x):
        return np.ones_like(np.asarray(x, dtype=float))

    def dconst(x):
        return np.zeros_like(np.asarray(x, dtype=float))

    omega = 2.0 * np.pi / w.period

    def phase(x):
        return np.exp(1j * omega * np.asarray(x, dtype=float))

    def dphase(x):
        return 1j * omega * np.exp(1j * omega * np.asarray(x, dtype=float))

    polys = [
        bnd.trig_polynomial(
            w.period,
            0.3 * rng.normal(size=degree),
            0.3 * rng.normal(size=degree),
        )
        for _ in range(3)
    ]
    cases = [("const", const, dconst), ("phase", phase, dphase)] + [
        (f"trig{i}", phi, dphi) for i, (phi, dphi) in enumerate(polys)
    ]

    isometry = {}
    penalty = {}
    for name, phi, dphi in cases:
        iso = bnd.check_isometry(w, phi, resolution=resolution)
        isometry[name] = {
            "extended": iso.extended,
            "periodic": iso.periodic,
            "residual": iso.residual,
        }
        pen = bnd.kinetic_penalty(w, phi, dphi, resolution=resolution)
        penalty[name] = {
            "lhs": pen.lhs,
            "periodic_kinetic": pen.periodic_kinetic,
            "collar_mass": pen.collar_mass,
            "implied_constant": pen.implied_constant,
            "holds_quarter_pi_sq": pen.holds_with(math.pi**2 / 16.0),
        }
    degenerate = bnd.Window(ell=w.period / 2.0, period=w.period)
    phi0, dphi0 = polys[0]
    pen_deg = bnd.kinetic_penalty(degenerate, phi0, dphi0, resolution=resolution)
    sep = bnd.isometry_3d_separable(w, [polys[0][0], phase, const], resolution=4096)
    avg = bnd.shifted_collar_average(w, [0.0, 0.37 * w.period, -1.6 * w.period])
    return {
        "window": {"ell": w.ell, "period": w.period},
        "partition_residual": partition,
        "isometry": isometry,
        "penalty": penalty,
        "degenerate_penalty": {
            "implied_constant": pen_deg.implied_constant,
            "holds_quarter_pi_sq": pen_deg.holds_with(math.pi**2 / 16.0),
        },
        "separable_3d_residual": sep["residual"],
        "collar_average": avg,
        "reference_constant": math.pi**2 / 16.0,
    }


def run_boundary(cfg: dict, out: Path, *, seed: int) -> dict:
    report = _boundary_battery(cfg, seed)
    _write_json(out / "boundary.json", report)
    return report


def run_check_all(cfg: dict, out: Path, *, refine: bool, seed: int) -> dict:
    tol = {k: float(v) for k, v in cfg["tolerances"].items()}
    violations: list[dict] = []

    def check(name: str, value: float, bound: float) -> None:
        if not (value <= bound):
            violations.append({"check": name, "value": value, "bound": bound})

    # scattering and the constant ledger
    solution = _solve(cfg)
    identities = check_scattering_identities(solution, tol=tol["identity"])
    check("scattering.identity.gradient", identities.residual_gradient, tol["identity"])
    check("scattering.identity.length", identities.residual_length, tol["identity"])
    shoot = shooting_scattering_length(_potential_from(cfg))
    check(
        "scattering.shooting_gap",
        abs(solution.a - shoot) / abs(shoot),
        tol["shooting"],
    )
    ledger = semi.assemble_ledger(solution)
    check("ledger.leading_imposed", ledger.leading_imposed_residual, tol["milestone"])
    check("ledger.second_imposed", ledger.second_imposed_residual, tol["milestone"])
    check("ledger.final_coefficient", ledger.final_residual, tol["milestone"])
    # raw sums inherit the quadrature error of the solved norms
    raw_bound = (
        1.5 * (identities.residual_gradient + identities.residual_length) / solution.g0
    )
    check("ledger.leading_raw", ledger.leading_residual, raw_bound)
    check("ledger.second_raw", ledger.milestone_raw_residual, 10.0 * tol["identity"])
    lhy_lhs = semi.LHY_RATIO * (4.0 * math.pi) ** 2.5
    lhy_rhs = 4.0 * math.pi * 128.0 / (15.0 * math.sqrt(math.pi))
    closed = 512.0 * math.sqrt(math.pi) / 15.0
    check("lhy.forms_agree", abs(lhy_lhs - lhy_rhs) / closed, tol["milestone"])
    check("lhy.closed_form", abs(lhy_lhs - closed) / closed, tol["milestone"])

    # continuum integrals
    integral_tol = tol["integral_refined"] if refine else tol["integral"]
    for name, result in (
        ("number_density", semi.integral_number_density(1.0, refine=refine)),
        ("kinetic", semi.integral_kinetic(1.0, refine=refine)),
        ("pair", semi.integral_pair(1.0, refine=refine)),
    ):
        check(f"integral.{name}", result.rel_residual, integral_tol)

    # toy battery
    budget = int(cfg["budgets"]["closure"])
    toy_rows = []
    for case in builtin_toy_suite():
        battery = _trial_battery(case, budget=budget)
        battery.pop("trial")
        prefix = f"toy.{case.name}"
        energy = battery["energy"]
        check(f"{prefix}.decomposition", energy["decomposition_residual"], tol["decomposition"])
        check(f"{prefix}.imag", energy["imag_residue"], tol["imag"])
        rec = battery["recursion_max_error"]
        worst_rec = max((v for v in rec.values() if v is not None), default=0.0)
        check(f"{prefix}.recursion", worst_rec, tol["recursion"])
        check(
            f"{prefix}.occupancy_total",
            abs(battery["occupancy_total"] - case.n) / max(case.n, 1),
            tol["recursion"],
        )
        for idx, s in battery["occupancy_sum_rules"].items():
            check(f"{prefix}.occupancy_norm.{idx}", abs(s - 1.0), tol["recursion"])
        for gap in battery["pair_correlator_gaps"]:
            check(f"{prefix}.pair_correlator", gap, tol["recursion"])
        for idx, r in battery["ratio_bounds"].items():
            if not r["holds"]:
                violations.append(
                    {"check": f"{prefix}.ratio_bound.{idx}", "value": r["worst_ratio"], "bound": 1.0}
                )
        for idx, r in battery["low_monotonicity"].items():
            if r["hypothesis_holds"] and not r["monotone"]:
                violations.append(
                    {"check": f"{prefix}.low_monotonicity.{idx}", "value": 1.0, "bound": 0.0}
                )
        toy_rows.append(battery)

    # boundary battery
    bdry = _boundary_battery(cfg, seed)
    check("boundary.partition", bdry["partition_residual"], tol["partition"])
    for name, iso in bdry["isometry"].items():
        check(f"boundary.isometry.{name}", iso["residual"], tol["boundary_isometry"])
    for name, pen in bdry["penalty"].items():
        if not pen["holds_quarter_pi_sq"]:
            violations.append(
                {
                    "check": f"boundary.penalty.{name}",
                    "value": pen["implied_constant"],
                    "bound": math.pi**2 / 16.0,
                }
            )
    if not bdry["degenerate_penalty"]["holds_quarter_pi_sq"]:
        violations.append(
            {
                "check": "boundary.penalty.degenerate",
                "value": bdry["degenerate_penalty"]["implied_constant"],
                "bound": math.pi**2 / 16.0,
            }
        )
    check(
        "boundary.collar_average",
        bdry["collar_average"]["max_gap"],
        2.0 / bdry["collar_average"]["n_shifts"],
    )

    # light lattice convergence probe (the full sweep lives in energy-curve)
    g0 = solution.g0
    eta = float(cfg["schedule"]["eta"])
    gaps = [
        pl_number_density_comparison(Schedule(rho=r, eta=eta), g0)["rel_gap_annulus"]
        for r in (1.0e-4, 1.0e-5)
    ]
    check("lattice.gap_shrinks", gaps[1], gaps[0])

    report = {
        "seed": seed,
        "refine": refine,
        "n_violations": len(violations),
        "violations": violations,
        "scattering": solution.report(),
        "ledger": ledger.as_dict(),
        "toys": toy_rows,
        "boundary": bdry,
        "lattice_gaps": {"1e-4": gaps[0], "1e-5": gaps[1]},
    }
    _write_json(out / "check_all.json", report)
    return report


# ---------------------------------------------------------------------------
# entry point


_PIPELINES = {
    "scattering": run_scattering,
    "lattice": run_lattice,
    "trial-state": run_trial_state,
    "energy-curve": run_energy_curve,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bosegas",
        description="Second-order upper-bound pipelines for the dilute Bose gas.",
    )
    parser.add_argument("pipeline", choices=[
        "scattering", "lattice", "trial-state", "energy-curve",
        "integrals", "boundary", "check-all",
    ])
    parser.add_argument("--config", default=None, help="YAML config path")
    parser.add_argument("--out", default="reports", help="output directory")
    parser.add_argument("--refine", action="store_true", help="tighter quadrature")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    seed = args.seed if args.seed is not None else int(cfg["seed"])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    try:
        if args.pipeline == "integrals":
            run_integrals(cfg, out, refine=args.refine)
        elif args.pipeline == "boundary":
            run_boundary(cfg, out, seed=seed)
        elif args.pipeline == "check-all":
            report = run_check_all(cfg, out, refine=args.refine, seed=seed)
            if report["n_violations"]:
                print(
                    f"check-all: {report['n_violations']} violation(s); "
                    f"see {out / 'check_all.json'}",
                    file=sys.stderr,
                )
                return 1
        else:
            _PIPELINES[args.pipeline](cfg, out)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NotConverged as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 3
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
