"""Command-line driver: config parsing, pipeline orchestration, reports.

Subcommands: scattering | trial-state | energy-curve | integrals | boundary |
check-all, one `run_*(cfg)` each in the table _PIPELINES.  energy-curve is
the one per-density pipeline: a one-rho run is a sweep of one rho.
`run_*(cfg)` returns its files; `main` writes them.  Configuration is YAML
with nested blocks; every value has a default so all pipelines run without
a config file, and the config is the only source of every value a run
reads, the seed included.  The settings no input varies, the boundary window,
check-all's bounds, the ledger's identity tolerance
(`semiclassical.IDENTITY_TOL`) and the closure budget (`fock.CLOSURE_BUDGET`),
are constants beside their one reader.  Reports are JSON (machine
summaries, sorted keys), CSV (plot data, fixed %.12e floats) and
trial-state's closure text; with a fixed seed the bytes are reproducible
run to run.  `main` renders every file of a run before it
writes any, so a pipeline that refuses writes none, and it writes them all
or none: every file goes to a temporary name first, and the renames follow
only once every write has succeeded.

Exit codes: 0 ok, 1 check violation, 2 config or usage error, 3
convergence failure, budget exceeded, a divergent integrand, or an identity
violation in a numerical step.  One table, _EXITS, maps each error a run
refuses with to its exit code and stderr label; `main` looks up every
refusal there, from config loading to the report (a report path it cannot
write is a config error), and check-all's own verdicts give exit 1.  `main`
returns argparse's own code for a usage error (2) or `--help` (0).
"""

from __future__ import annotations

import argparse
import copy
import errno
import itertools
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import yaml

from . import boundary as bnd
from . import semiclassical as semi
from .errors import (
    BudgetExceeded,
    ConfigInvalid,
    DivergentIntegrand,
    EmptyAnnulus,
    IdentityViolation,
    InvalidPotential,
    NotConverged,
    RegionUndefined,
)
from .expectation import (
    energy_report,
    mean_occupancies,
    occupancy_distribution,
    occupation_ratio_report,
    pair_correlator_check,
    pl_occupation_monotonicity,
)
from .fock import MAX_PARTICLES, export_closure, weight_recursion_report
from .lattice import (
    DEFAULT_ETA,
    Region,
    Schedule,
    load_toy_modes,
    pl_number_density_comparison,
    shell_window,
)
from .scattering import (
    Potential,
    check_scattering_identities,
    fourier_at,
    shooting_scattering_length,
    solve_scattering,
)
from .toys import ToyCase, build_trial, builtin_toy_suite, toy_by_name

__all__ = ["main", "load_config", "DEFAULT_CONFIG"]

DEFAULT_CONFIG = {
    "potential": {"amplitude": 0.1, "width": 1.0},
    "schedule": {"eta": DEFAULT_ETA},
    "toy": "soft-coincidence",
    "toy_modes": None,
    # None: the builtin toy's own value, or n = 6 and m_c = 2 for a mode file
    "trial": {"n": None, "m_c": None},
    "sweep": {"rho_values": [1.0e-4, 1.0e-5, 1.0e-6, 1.0e-7, 1.0e-8]},
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
    """cast(value); a value that does not convert, a bool, a non-finite
    value, or a string or fractional value for an integer key, is a config
    error.  Float keys take numeric strings: YAML reads 1e-08 (no dot) as
    the string '1e-08'."""
    if isinstance(value, bool):
        raise ConfigInvalid(f"{where} must be a number, got {value!r}")
    fractional = isinstance(value, float) and not value.is_integer()
    if cast is int and (isinstance(value, str) or fractional):
        raise ConfigInvalid(f"{where} must be an integer, got {value!r}")
    try:
        number = cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigInvalid(f"{where} must be a number, got {value!r}") from exc
    if not math.isfinite(number):
        raise ConfigInvalid(f"{where} must be finite, got {value!r}")
    return number


def _cast(block: dict, key: str, where: str, cast=float):
    """block[key] cast by _num and stored back, so pipelines read typed values."""
    block[key] = _num(block[key], where, cast)
    return block[key]


# libyaml's parser where PyYAML was built with it: the same safe resolver and
# the same dicts as SafeLoader, parsed in C (0.03-0.05 ms against 0.2-0.7 ms)
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_config(path: str | None) -> dict:
    """Parse, merge with defaults, validate every numeric domain, and store
    each number cast to its type (float, or int for the integer keys)."""
    raw: dict = {}
    if path is not None:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigInvalid(f"cannot read config {path!r}: {exc}") from exc
        try:
            loaded = yaml.load(text, Loader=_YAML_LOADER)
        except yaml.YAMLError as exc:
            raise ConfigInvalid(f"config {path!r} is not valid YAML: {exc}") from exc
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigInvalid("config top level must be a mapping")
        raw = loaded
    cfg = _merge(DEFAULT_CONFIG, raw)

    pot = cfg["potential"]
    _require(_cast(pot, "amplitude", "potential.amplitude") > 0.0, "potential.amplitude must be > 0")
    _require(_cast(pot, "width", "potential.width") > 0.0, "potential.width must be > 0")
    sched = cfg["schedule"]
    _require(0.0 < _cast(sched, "eta", "schedule.eta") < 0.25, "schedule.eta must lie in (0, 1/4)")
    _require(isinstance(cfg["toy_modes"], (str, type(None))), "toy_modes must be a file path")
    trial = cfg["trial"]
    if trial["n"] is not None:
        _require(
            0 <= _cast(trial, "n", "trial.n", int) <= MAX_PARTICLES,
            f"trial.n must lie in 0 .. {MAX_PARTICLES}",
        )
    if trial["m_c"] is not None:
        _require(_cast(trial, "m_c", "trial.m_c", int) >= 1, "trial.m_c must be >= 1")
    rhos = cfg["sweep"]["rho_values"]
    _require(
        isinstance(rhos, (list, tuple)) and len(rhos) > 0,
        "sweep.rho_values must be a nonempty list",
    )
    rhos = cfg["sweep"]["rho_values"] = [_num(r, "sweep.rho_values entry") for r in rhos]
    _require(all(0.0 < r < 1.0 for r in rhos), "sweep.rho_values entries must lie in (0, 1)")
    _require(type(cfg["seed"]) is int, "seed must be an integer")
    _require(cfg["seed"] >= 0, f"seed must be >= 0, got {cfg['seed']}")
    return cfg


# ---------------------------------------------------------------------------
# report rendering


def _render(content) -> str:
    """A report file's text: text as is; a list of row dicts as CSV (floats as
    %.12e, under a header of the first row's keys); a dict as sorted JSON."""
    if isinstance(content, str):
        return content
    if isinstance(content, list):
        lines = [",".join(content[0])]
        lines.extend(
            ",".join(f"{x:.12e}" if isinstance(x, float) else str(x) for x in row.values())
            for row in content
        )
        return "\n".join(lines) + "\n"
    return json.dumps(content, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# pipelines


def _potential_from(cfg: dict) -> Potential:
    pot = cfg["potential"]
    return Potential(pot["amplitude"], pot["width"])


# The ledger divides by g0^(5/2), a normal double only for g0 >= 1.1e-123
# (the least normal 2.2e-308 to the power 2/5).  g0 = 4 pi a is at most
# V_0 = amplitude (2 pi width^2)^(3/2) and tends to it at weak coupling, so
# V_0 is held three decades above that.
_V0_MIN = 1.0e-120


def _solve(cfg: dict):
    potential = _potential_from(cfg)
    v0 = potential.v0
    if v0 < _V0_MIN:
        raise ConfigInvalid(
            f"potential: V_0 = amplitude (2 pi width^2)^(3/2) = {v0:.3e} is below "
            f"{_V0_MIN:g}, where g0^(5/2) leaves the normal doubles"
        )
    return solve_scattering(potential)


def _shooting(cfg: dict, solution) -> tuple[float, float]:
    """The shooting oracle's a and its relative gap to the solved a."""
    shoot = shooting_scattering_length(_potential_from(cfg))
    return shoot, abs(solution.a - shoot) / abs(shoot)


def run_scattering(cfg: dict) -> dict:
    solution = _solve(cfg)
    report = solution.report()
    report["shooting_a"], report["shooting_rel_gap"] = _shooting(cfg, solution)
    report["ledger"] = semi.assemble_ledger(solution)
    return {"scattering.json": report}


def _pl_schedules(cfg: dict, rhos) -> list[Schedule]:
    """The schedule of each rho at the config's eta, each P_L annulus checked
    against the shell budget and for at least one shell before any solve or
    sum."""
    schedules = [Schedule(rho=rho, eta=cfg["schedule"]["eta"]) for rho in rhos]
    for schedule in schedules:
        shell_window(schedule, schedule.p_gap_top, schedule.p_low_top)
    return schedules


def _resolve_toy(cfg: dict) -> ToyCase:
    """The mode file's case, or the builtin toy with trial.n / trial.m_c
    where the config sets them."""
    trial = cfg["trial"]
    if cfg["toy_modes"] is not None:
        path = Path(cfg["toy_modes"])
        try:
            mode_set = load_toy_modes(path)
        except (OSError, ValueError) as exc:
            raise ConfigInvalid(f"toy_modes file {str(path)!r}: {exc}") from exc
        potential = _potential_from(cfg)
        return ToyCase(
            name=path.stem,
            mode_set=mode_set,
            n=6 if trial["n"] is None else trial["n"],
            m_c=2 if trial["m_c"] is None else trial["m_c"],
            v_of=lambda mag: fourier_at(potential, mag),
            note="loaded from file",
        )
    try:
        case = toy_by_name(str(cfg["toy"]))
    except KeyError as exc:
        known = ", ".join(c.name for c in builtin_toy_suite())
        raise ConfigInvalid(f"unknown toy {cfg['toy']!r}; builtin: {known}") from exc
    own = {key: trial[key] for key in ("n", "m_c") if trial[key] is not None}
    return replace(case, **own)


def _trial_battery(case: ToyCase) -> tuple:
    """The case's trial state, and everything check-all scores on it in one
    deterministic dict."""
    trial = build_trial(case)
    ms = case.mode_set
    energy = energy_report(trial, case.context())
    recursion = weight_recursion_report(trial)
    occupancy_total = sum(mean_occupancies(trial).tolist())
    probe_modes = [ms.zero_index] + ms.nonzero_indices()[:1]
    occupancy_sums = {
        str(idx): sum(occupancy_distribution(trial, idx)[1].tolist()) for idx in probe_modes
    }
    paired = [
        i
        for i in ms.nonzero_indices()
        if ms.neg_index(i) is not None
        and ms.modes[i].region in (Region.PL, Region.PI, Region.PH)
    ]
    checks = (pair_correlator_check(trial, u, v) for u, v in itertools.combinations(paired, 2))
    pair_checks = [chk["abs_gap"] for chk in checks if chk["exact_case"]]
    # a mode without lambda is one no member occupies, where both reports are vacuous
    def with_lam(region):
        return [u for u in ms.indices_in(region) if ms.modes[u].lam is not None]

    ratio_reports = {
        str(u): occupation_ratio_report(trial, u, ms.modes[u].lam) for u in with_lam(Region.PI)
    }
    monotone_reports = {str(u): pl_occupation_monotonicity(trial, u) for u in with_lam(Region.PL)}
    return trial, {
        "name": case.name,
        "note": case.note,
        "closure_size": len(trial),
        "energy": energy,
        "recursion_max_error": recursion["max_rel_error"],
        "recursion_pairs": recursion["pairs"],
        "occupancy_total": occupancy_total,
        "particle_count": case.n,
        "occupancy_sum_rules": occupancy_sums,
        "pair_correlator_gaps": pair_checks,
        "ratio_bounds": ratio_reports,
        "low_monotonicity": monotone_reports,
    }


def _worst_recursion(battery: dict) -> tuple[str, float]:
    """The recursion identity with the largest relative error, and the error."""
    return max(battery["recursion_max_error"].items(), key=lambda item: item[1])


def run_trial_state(cfg: dict) -> dict:
    trial, battery = _trial_battery(_resolve_toy(cfg))
    identity, error = _worst_recursion(battery)
    if error > _BOUNDS["recursion"]:
        raise IdentityViolation(
            f"weight recursion {identity}: relative error {error:.3e} at "
            f"N = {battery['particle_count']} is past {_BOUNDS['recursion']:g}"
        )
    return {"closure.txt": export_closure(trial), "trial_state.json": battery}


def run_energy_curve(cfg: dict) -> dict:
    schedules = _pl_schedules(cfg, cfg["sweep"]["rho_values"])
    solution = _solve(cfg)
    g0 = solution.g0
    rows, densities = [], []
    for schedule in schedules:
        rho = schedule.rho
        comp = pl_number_density_comparison(schedule, g0)
        densities.append({"schedule": schedule.as_dict(), "number_density": comp})
        leading, second = g0 * rho**2, semi.LHY_RATIO * g0**2.5 * rho**2.5
        rows.append(
            {
                "rho": rho,
                "pl_lattice": comp["lattice_per_volume"],
                "pl_continuum_annulus": comp["continuum_annulus"],
                "rel_gap_annulus": comp["rel_gap_annulus"],
                "full_space_reference": comp["full_space_reference"],
                "rel_gap_full_space": comp["rel_gap_full_space"],
                "n_modes": comp["n_modes"],
                "energy_leading": leading,
                "energy_second_order": second,
                "energy_total": leading + second,
            }
        )
    meta = {
        "g0": g0,
        "a": solution.a,
        "eta": cfg["schedule"]["eta"],
        "rho_values": cfg["sweep"]["rho_values"],
        "gaps_annulus": [row["rel_gap_annulus"] for row in rows],
        "densities": densities,
    }
    return {"energy_curve.csv": rows, "energy_curve.json": meta}


def _integrals() -> dict:
    """The three continuum integrals, by report name."""
    return {
        "number_density": semi.integral_number_density(),
        "kinetic": semi.integral_kinetic(),
        "pair": semi.integral_pair(),
    }


def run_integrals(cfg: dict) -> dict:
    g0 = 1.0  # each integral at unit coupling is its coefficient of g0^(3/2) or g0^(5/2)
    integrals = _integrals()
    row = {"g0": g0}
    for name, result in integrals.items():
        row[name] = result["value"]
        row[f"{name}_closed"] = result["closed_form"]
        row[f"{name}_rel_residual"] = result["rel_residual"]
    report = {n: {k: r[k] for k in ("value", "closed_form")} for n, r in integrals.items()}
    report |= {"g0": g0, "max_rel_residual": max(r["rel_residual"] for r in integrals.values())}
    return {"integrals.csv": [row], "integrals.json": report}


# the boundary battery's window, trigonometric degree and Simpson subintervals
_WINDOW = bnd.Window(ell=0.1, period=1.0)
_DEGREE = 8
_RESOLUTION = 16384


def _boundary_battery(seed: int) -> dict:
    w = _WINDOW
    rng = np.random.default_rng(seed)

    xs = np.linspace(-w.ell, w.ell, 4097)
    partition = float(
        np.max(np.abs(bnd.window_q(w, xs) ** 2 + bnd.window_q(w, xs + w.period) ** 2 - 1.0))
    )

    def const(x):
        return np.ones_like(np.asarray(x, dtype=float))

    omega = 2.0 * np.pi / w.period

    def phase(x):
        return np.exp(1j * omega * np.asarray(x, dtype=float))

    # three polynomials drawn as (cos, sin) coefficient rows, in draw order
    coeffs = 0.3 * rng.normal(size=(3, 2, _DEGREE))
    trig = bnd.trig_polynomial(w.period, coeffs[:, 0], coeffs[:, 1])
    trig0 = bnd.trig_polynomial(w.period, coeffs[0, 0], coeffs[0, 1])

    # the polynomials first, while no other function's samples are alive
    def sample(x):
        yield from trig(x)
        yield const(x), np.zeros_like(x)
        e = phase(x)
        yield e, 1j * omega * e

    pairs = bnd.kinetic_penalty(w, sample, resolution=_RESOLUTION)
    # named in draw order, entered in name order
    named = sorted(zip(["trig0", "trig1", "trig2", "const", "phase"], pairs))
    degenerate = bnd.Window(ell=w.period / 2.0, period=w.period)
    ((_, pen_deg),) = bnd.kinetic_penalty(degenerate, trig0, resolution=_RESOLUTION)

    def trig0_phi(x):
        return next(trig0(x))[0]

    sep = bnd.isometry_3d_separable(w, [trig0_phi, phase, const], resolution=4096)
    avg = bnd.shifted_collar_average(w, [0.0, 0.37 * w.period, -1.6 * w.period])
    return {
        "window": {"ell": w.ell, "period": w.period},
        "partition_residual": partition,
        "isometry": {name: iso for name, (iso, _) in named},
        "penalty": {name: pen for name, (_, pen) in named},
        "degenerate_penalty": {k: pen_deg[k] for k in ("implied_constant", "holds_quarter_pi_sq")},
        "separable_3d_residual": sep["residual"],
        "collar_average": avg,
        "reference_constant": bnd.QUARTER_PI_SQ,
    }


def run_boundary(cfg: dict) -> dict:
    return {"boundary.json": _boundary_battery(cfg["seed"])}


# check-all's bounds, by the name of the checks that use them; trial-state
# refuses a weight recursion past the "recursion" bound
_BOUNDS = {
    "shooting": 1.0e-4,
    "decomposition": 1.0e-10,
    "recursion": 1.0e-12,
    "imag": 1.0e-12,
    "milestone": 1.0e-12,
    "integral": 1.0e-9,
    "partition": 1.0e-14,
    "boundary_isometry": 1.0e-8,
}


def run_check_all(cfg: dict) -> dict:
    # the lattice probe's annuli, checked before any other work
    probes = _pl_schedules(cfg, (1.0e-4, 1.0e-5))
    violations: list[dict] = []

    def check(name: str, value, bound: float, holds: bool | None = None) -> None:
        """Record a violation unless `holds`, which defaults to value <= bound."""
        if not (value <= bound if holds is None else holds):
            violations.append({"check": name, "value": value, "bound": bound})

    # scattering and the constant ledger
    solution = _solve(cfg)
    check("scattering.shooting_gap", _shooting(cfg, solution)[1], _BOUNDS["shooting"])
    ledger = semi.assemble_ledger(solution)
    check("ledger.leading_imposed", ledger["leading_imposed_residual"], _BOUNDS["milestone"])
    check("ledger.second_imposed", ledger["second_imposed_residual"], _BOUNDS["milestone"])
    check("ledger.final_coefficient", ledger["final_residual"], _BOUNDS["milestone"])
    # raw sums inherit the quadrature error of the solved norms
    raw_bound = 1.5 * sum(check_scattering_identities(solution).values()) / solution.g0
    check("ledger.leading_raw", ledger["leading_residual"], raw_bound)
    check("ledger.second_raw", ledger["milestone_raw_residual"], 10.0 * semi.IDENTITY_TOL)

    # continuum integrals
    for name, result in _integrals().items():
        check(f"integral.{name}", result["rel_residual"], _BOUNDS["integral"])

    # toy battery
    toy_rows = []
    for case in builtin_toy_suite():
        _, battery = _trial_battery(case)
        prefix = f"toy.{case.name}"
        energy = battery["energy"]
        check(f"{prefix}.decomposition", energy["decomposition_residual"], _BOUNDS["decomposition"])
        check(f"{prefix}.imag", energy["imag_residue"], _BOUNDS["imag"])
        check(f"{prefix}.recursion", _worst_recursion(battery)[1], _BOUNDS["recursion"])
        check(
            f"{prefix}.occupancy_total",
            abs(battery["occupancy_total"] - case.n) / max(case.n, 1),
            _BOUNDS["recursion"],
        )
        for idx, s in battery["occupancy_sum_rules"].items():
            check(f"{prefix}.occupancy_norm.{idx}", abs(s - 1.0), _BOUNDS["recursion"])
        for gap in battery["pair_correlator_gaps"]:
            check(f"{prefix}.pair_correlator", gap, _BOUNDS["recursion"])
        for idx, r in battery["ratio_bounds"].items():
            check(f"{prefix}.ratio_bound.{idx}", r["worst_ratio"], 1.0, r["holds"])
        for idx, r in battery["low_monotonicity"].items():
            holds = r["monotone"] or not r["hypothesis_holds"]
            check(f"{prefix}.low_monotonicity.{idx}", 1.0, 0.0, holds)
        toy_rows.append(battery)

    # boundary battery
    bdry = _boundary_battery(cfg["seed"])
    check("boundary.partition", bdry["partition_residual"], _BOUNDS["partition"])
    for name, iso in bdry["isometry"].items():
        check(f"boundary.isometry.{name}", iso["residual"], _BOUNDS["boundary_isometry"])
    for name, pen in {**bdry["penalty"], "degenerate": bdry["degenerate_penalty"]}.items():
        value, holds = pen["implied_constant"], pen["holds_quarter_pi_sq"]
        check(f"boundary.penalty.{name}", value, bdry["reference_constant"], holds)
    check(
        "boundary.collar_average",
        bdry["collar_average"]["max_gap"],
        2.0 / bdry["collar_average"]["n_shifts"],
    )

    # light lattice convergence probe (the full sweep lives in energy-curve)
    gaps = [pl_number_density_comparison(s, solution.g0)["rel_gap_annulus"] for s in probes]
    check("lattice.gap_shrinks", gaps[1], gaps[0])

    report = {
        "seed": cfg["seed"],
        "n_violations": len(violations),
        "violations": violations,
        "scattering": solution.report(),
        "ledger": ledger,
        "toys": toy_rows,
        "boundary": bdry,
        "lattice_gaps": {"1e-4": gaps[0], "1e-5": gaps[1]},
    }
    return {"check_all.json": report}


# ---------------------------------------------------------------------------
# entry point


# the exit code and stderr label of each error a run refuses with
_EXITS = {
    ConfigInvalid: (2, "config error"),
    EmptyAnnulus: (2, "config error"),
    InvalidPotential: (2, "config error"),
    # only a mode file can leave lambda unset, or zero, on a mode the closure fills
    RegionUndefined: (2, "config error"),
    NotConverged: (3, "convergence failure"),
    IdentityViolation: (3, "identity violation"),
    BudgetExceeded: (3, "budget exceeded"),
    DivergentIntegrand: (3, "divergent integrand"),
}

_PIPELINES = {
    "scattering": run_scattering,
    "trial-state": run_trial_state,
    "energy-curve": run_energy_curve,
    "integrals": run_integrals,
    "boundary": run_boundary,
    "check-all": run_check_all,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bosegas",
        description="Second-order upper-bound pipelines for the dilute Bose gas.",
    )
    parser.add_argument("pipeline", choices=list(_PIPELINES))
    parser.add_argument("--config", default=None, help="YAML config path")
    parser.add_argument("--out", default="reports", help="output directory")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # a usage error (2) or --help (0), already printed by argparse
        return exc.code

    try:
        cfg = load_config(args.config)
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigInvalid(f"--out {args.out!r} is not a usable directory: {exc}") from exc
        files = _PIPELINES[args.pipeline](cfg)
        texts = {name: _render(content) for name, content in files.items()}
        # all reports or none: each is written to a temporary name beside
        # it, and the renames start once every write has succeeded and no
        # report path is a directory, where its rename would fail
        staged = {}
        try:
            for name, text in texts.items():
                target = out / name
                staged[target] = out / f".{name}.{os.getpid()}.tmp"
                staged[target].write_text(text)
                if target.is_dir():
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
            for target, tmp in staged.items():
                tmp.replace(target)
        except OSError as exc:
            for tmp in staged.values():
                tmp.unlink(missing_ok=True)
            raise ConfigInvalid(f"cannot write report {str(target)!r}: {exc}") from exc
    except tuple(_EXITS) as exc:
        code, label = next(_EXITS[t] for t in type(exc).__mro__ if t in _EXITS)
        print(f"{label}: {exc}", file=sys.stderr)
        return code
    n = files["check_all.json"]["n_violations"] if args.pipeline == "check-all" else 0
    if n:
        print(f"check-all: {n} violation(s); see {out / 'check_all.json'}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
