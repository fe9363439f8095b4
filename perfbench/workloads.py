"""The four workloads: inputs made from a seed, and the checks on each output.

A workload is a list of items.  Each item is one `bosegas.cli.main(argv)`
call that writes its reports into its own directory, plus a check that reads
those reports and compares them with `oracles`, never with a stored copy.
The seed changes the inputs but not the amount of work: it permutes item and
sweep orders, applies a lattice symmetry to the mode files and picks the
potential amplitude where no iteration count depends on it.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import oracles

# A check gets an item's exit code and standard error and returns the wrong
# outputs it finds.  Whether the item failed is its exit code alone: run.py
# counts every nonzero exit, documented or not, as a failed operation.
Problems = list[str]


@dataclass
class Item:
    key: str
    argv: list[str]
    out: Path
    check: Callable[[int, str], Problems]


@dataclass
class Workload:
    items: list[Item] = field(default_factory=list)
    configs: list[Path] = field(default_factory=list)


def _config(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


def _rel(x: float, ref: float) -> float:
    return abs(x - ref) / abs(ref)


def _exit_problems(rc: int, err: str) -> list[str]:
    return [] if rc == 0 else [f"exit {rc}: {err.strip()[-300:]}"]


# ---------------------------------------------------------------------------
# reproduce: `check-all` over seeds, one of them repeated


DEFAULT_AMPLITUDE, DEFAULT_WIDTH = 0.1, 1.0


def reproduce(seed: int, work: Path) -> Workload:
    """check-all on three seeds plus a repeat of the first.

    Uses the default potential; the workload seed picks the check-all seeds.
    Every repeat of a check-all seed, in this round or a later one, must
    write a byte-identical check_all.json.
    """
    rng = random.Random(seed)
    seeds = rng.sample(range(1, 2**31), 3)
    a_ode = oracles.gaussian_scattering_length(DEFAULT_AMPLITUDE, DEFAULT_WIDTH)
    first_bytes: dict[int, bytes] = {}
    wl = Workload()
    for k, s in enumerate(seeds + seeds[:1]):
        cfg = _config(work / f"reproduce-{k}.yaml", f"seed: {s}\n")
        out = work / f"reproduce-{k}"

        def check(rc: int, err: str, s=s, out=out) -> Problems:
            if rc == 1:
                return [f"check-all found violations: {err.strip()}"]
            problems = _exit_problems(rc, err)
            if problems:
                return problems
            raw = (out / "check_all.json").read_bytes()
            if first_bytes.setdefault(s, raw) != raw:
                problems.append(f"check_all.json for seed {s} differs from its first run")
            rep = json.loads(raw)
            if rep["n_violations"] != 0 or rep["violations"]:
                problems.append(f"{rep['n_violations']} violations")
            if rep["seed"] != s:
                problems.append(f"report seed {rep['seed']} != {s}")
            a = rep["scattering"]["a"]
            if not _rel(a, a_ode) <= 1e-6:
                problems.append(f"a={a!r} vs ODE {a_ode!r}")
            g0 = rep["ledger"]["g0"]
            if not _rel(g0, 4.0 * math.pi * a) <= 1e-14:
                problems.append(f"g0={g0!r} is not 4 pi a")
            final = rep["ledger"]["final_coefficient"]
            if not _rel(final, oracles.LHY_RATIO * g0**2.5) <= 1e-12:
                problems.append(f"final coefficient {final!r} != 16 g0^(5/2)/(15 pi^2)")
            return problems

        wl.configs.append(cfg)
        wl.items.append(Item(f"check-all-{k}", ["check-all", "--config", str(cfg), "--out", str(out)], out, check))
    return wl


# ---------------------------------------------------------------------------
# density-sweep: `energy-curve` on the default sweep


SWEEP = [1.0e-4, 1.0e-5, 1.0e-6, 1.0e-7, 1.0e-8]
ETA = 0.005


def density_sweep(seed: int, work: Path) -> Workload:
    """energy-curve over rho = 1e-4 .. 1e-8 in a seeded order.

    The seed also picks the amplitude in [0.09, 0.11]; the shell counts,
    which are the work, depend only on rho.
    """
    rng = random.Random(seed)
    rhos = SWEEP[:]
    rng.shuffle(rhos)
    amplitude = round(DEFAULT_AMPLITUDE * (0.9 + 0.2 * rng.random()), 6)
    cfg = _config(
        work / "density-sweep.yaml",
        f"potential: {{amplitude: {amplitude!r}, width: {DEFAULT_WIDTH!r}}}\n"
        f"schedule: {{eta: {ETA!r}}}\n"
        f"sweep: {{rho_values: [{', '.join(repr(r) for r in rhos)}]}}\n",
    )
    out = work / "density-sweep"
    g0_ode = 4.0 * math.pi * oracles.gaussian_scattering_length(amplitude, DEFAULT_WIDTH)
    n_modes = {r: oracles.lattice_points_between(*oracles.low_annulus_shells(r, ETA)) for r in rhos}

    def check(rc: int, err: str) -> Problems:
        problems = _exit_problems(rc, err)
        if problems:
            return problems
        meta = json.loads((out / "energy_curve.json").read_text())
        g0 = meta["g0"]
        if not _rel(g0, g0_ode) <= 1e-6:
            problems.append(f"g0={g0!r} vs ODE {g0_ode!r}")
        if meta["rho_values"] != rhos:
            problems.append("rho_values differ from the config")
        lines = (out / "energy_curve.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        if [float(r["rho"]) for r in rows] != rhos:
            return problems + ["CSV rows differ from the sweep"]
        gaps = []
        for r in sorted(rows, key=lambda row: -float(row["rho"])):
            rho = float(r["rho"])
            if int(r["n_modes"]) != n_modes[rho]:
                problems.append(f"rho={rho}: n_modes {r['n_modes']} != {n_modes[rho]}")
            lead, second = float(r["energy_leading"]), float(r["energy_second_order"])
            if not _rel(lead, g0 * rho**2) <= 1e-11:
                problems.append(f"rho={rho}: energy_leading {lead!r} != g0 rho^2")
            if not _rel(second, oracles.LHY_RATIO * g0**2.5 * rho**2.5) <= 1e-11:
                problems.append(f"rho={rho}: energy_second_order {second!r}")
            if not _rel(float(r["energy_total"]), lead + second) <= 1e-11:
                problems.append(f"rho={rho}: energy_total is not the sum")
            gaps.append(float(r["rel_gap_annulus"]))
        if not all(b < a for a, b in zip(gaps, gaps[1:])):
            problems.append(f"rel_gap_annulus does not shrink as rho falls: {gaps}")
        return problems

    return Workload([Item("energy-curve", ["energy-curve", "--config", str(cfg), "--out", str(out)], out, check)], [cfg])


# ---------------------------------------------------------------------------
# coupling-sweep: `scattering` over Gaussian widths and amplitudes


WIDTHS = [0.5, 1.0, 2.0]
AMPLITUDES = [0.1, 0.25, 0.5, 1.0, 1.5, 2.0]
# The Born iteration in solve_scattering converges for amplitude * width^2
# up to 1 within 99 of its 400 sweeps and diverges from 1.5 on; the grid
# keeps clear of the edge in between (1.25 takes 390 sweeps).
BORN_EDGE = 1.5


def coupling_sweep(seed: int, work: Path) -> Workload:
    """The scattering pipeline on every grid point, in a seeded order.

    Points with amplitude * width^2 >= BORN_EDGE lie past the Born
    iteration's radius: they must fail with exit 3 (NotConverged) and write
    no report, and count as failed.  Every other point must converge and
    match the ODE.
    """
    grid = [(w, amp) for w in WIDTHS for amp in AMPLITUDES]
    random.Random(seed).shuffle(grid)
    wl = Workload()
    for k, (width, amp) in enumerate(grid):
        cfg = _config(
            work / f"coupling-{k}.yaml", f"potential: {{amplitude: {amp!r}, width: {width!r}}}\n"
        )
        out = work / f"coupling-{k}"
        past_edge = amp * width**2 >= BORN_EDGE
        a_ode = oracles.gaussian_scattering_length(amp, width)

        def check(rc: int, err: str, width=width, amp=amp, out=out, past_edge=past_edge, a_ode=a_ode) -> Problems:
            where = f"width={width} amplitude={amp}"
            report = out / "scattering.json"
            last = err.strip().splitlines()[-1] if err.strip() else ""
            if rc == 3 and last.startswith("convergence failure:"):
                problems = [] if past_edge else [f"{where}: NotConverged inside the Born radius"]
                if report.exists():
                    problems.append(f"{where}: failed solve left a report")
                return problems
            problems = [f"{where}: {p}" for p in _exit_problems(rc, err)]
            if problems:
                return problems
            rep = json.loads(report.read_text())
            a = rep["a"]
            born = oracles.gaussian_fourier(amp, width) / (4.0 * math.pi)
            if not (math.isfinite(a) and 0.0 < a < born):
                problems.append(f"{where}: a={a!r} outside (0, V(0)/4pi={born!r})")
            if not _rel(a, a_ode) <= 1e-6:
                problems.append(f"{where}: a={a!r} vs ODE {a_ode!r}")
            for name, value in rep["identity_residuals"].items():
                if not value <= 1e-6:
                    problems.append(f"{where}: identity residual {name}={value!r}")
            return problems

        wl.configs.append(cfg)
        wl.items.append(Item(f"scattering-w{width}-a{amp}", ["scattering", "--config", str(cfg), "--out", str(out)], out, check))
    return wl


# ---------------------------------------------------------------------------
# trial-scale: `trial-state` on mode files made from the builtin toys


# (toy, particle count, closure-size closed form or None)
TRIALS = [
    ("soft-coincidence", 100, None),
    ("line-harmonics", 100, None),
    ("two-pi-pairs", 100, oracles.two_pair_tower_size),
    ("pi-pair", 100, oracles.one_pair_tower_size),
    ("ph-pair", 99, oracles.one_pair_tower_size),
    ("nine-mode-wide", 40, None),
]
CONTROL = "zero-coupling"


def _symmetry(rng: random.Random):
    """A random signed permutation of the axes; it keeps every |p| and sum."""
    axes = [0, 1, 2]
    rng.shuffle(axes)
    signs = [rng.choice((-1.0, 1.0)) for _ in range(3)]
    return lambda p: [signs[i] * float(p[axes[i]]) for i in range(3)]


def write_mode_file(path: Path, mode_set, rng: random.Random) -> list:
    """Write a toy mode set, transformed and shuffled; return the momenta by line."""
    transform = _symmetry(rng)
    lines = [(transform(m.p), m.region.value, m.lam) for m in mode_set]
    rng.shuffle(lines)
    text = [f"# volume = {float(mode_set.volume)!r}"]
    for p, label, lam in lines:
        tail = "" if lam is None else f" {float(lam)!r}"
        text.append(f"{p[0]!r} {p[1]!r} {p[2]!r} {label}{tail}")
    path.write_text("\n".join(text) + "\n")
    return [p for p, _, _ in lines]


def _trial_check(out: Path, n: int, momenta: list, tower=None, control: bool = False):
    def check(rc: int, err: str) -> Problems:
        problems = _exit_problems(rc, err)
        if problems:
            return problems
        rep = json.loads((out / "trial_state.json").read_text())
        closure = (out / "closure.txt").read_text()
        energy = rep["energy"]
        if not energy["decomposition_residual"] <= 1e-10:
            problems.append(f"decomposition residual {energy['decomposition_residual']!r}")
        if not abs(rep["occupancy_total"] - n) <= 1e-12 * max(n, 1):
            problems.append(f"occupancy total {rep['occupancy_total']!r} != {n}")
        worst = max((v for v in rep["recursion_max_error"].values() if v is not None), default=0.0)
        if not worst <= 1e-12:
            problems.append(f"recursion error {worst!r}")
        size = rep["closure_size"]
        if len(closure.splitlines()) != size:
            problems.append(f"closure.txt lists {len(closure.splitlines())} states, report says {size}")
        if tower is not None and size != tower(n):
            problems.append(f"closure size {size} != closed form {tower(n)}")
        kinetic = oracles.kinetic_from_closure(closure, momenta)
        if not _rel(energy["kinetic"], kinetic) <= 1e-10:
            problems.append(f"kinetic {energy['kinetic']!r} vs closure listing {kinetic!r}")
        if control and not _rel(energy["total"], kinetic) <= 1e-10:
            problems.append(f"zero-coupling energy {energy['total']!r} != kinetic {kinetic!r}")
        return problems

    return check


def trial_scale(seed: int, work: Path) -> Workload:
    """trial-state at N up to 100 on seeded copies of toy mode sets.

    Each mode file is a toy's mode set under a random signed axis
    permutation with its lines shuffled; the seed also picks the Gaussian
    amplitude that gives the file-based cases their coupling.  The builtin
    zero-coupling toy is the control whose energy must be its kinetic term:
    a config potential cannot have zero amplitude.
    """
    from bosegas.toys import toy_by_name

    rng = random.Random(seed)
    amplitude = round(0.05 + 0.1 * rng.random(), 6)
    wl = Workload()
    for toy, n, tower in TRIALS:
        modes = work / f"{toy}.modes"
        momenta = write_mode_file(modes, toy_by_name(toy).mode_set, rng)
        cfg = _config(
            work / f"trial-{toy}.yaml",
            f"toy_modes: {str(modes)!r}\ntrial: {{n: {n}}}\n"
            f"potential: {{amplitude: {amplitude!r}, width: 1.0}}\n",
        )
        out = work / f"trial-{toy}"
        wl.configs.append(cfg)
        wl.items.append(Item(f"trial-{toy}-{n}", ["trial-state", "--config", str(cfg), "--out", str(out)],
                             out, _trial_check(out, n, momenta, tower)))

    control = toy_by_name(CONTROL)
    momenta = [[float(x) for x in m.p] for m in control.mode_set]
    cfg = _config(work / "trial-control.yaml", f"toy: {CONTROL}\n")
    out = work / "trial-control"
    wl.configs.append(cfg)
    wl.items.append(Item(f"trial-{CONTROL}", ["trial-state", "--config", str(cfg), "--out", str(out)],
                         out, _trial_check(out, control.n, momenta, control=True)))
    rng.shuffle(wl.items)
    return wl


WORKLOADS = {
    "reproduce": reproduce,
    "density-sweep": density_sweep,
    "coupling-sweep": coupling_sweep,
    "trial-scale": trial_scale,
}
