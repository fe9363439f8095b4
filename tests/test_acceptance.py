"""Acceptance gate: ten end-to-end criteria, one visible verdict line each.

Each test prints its PASS/FAIL line through capsys.disabled() so the verdicts
appear in plain `pytest -v` output before the assertion fires.
"""

import csv
import math
import time

import numpy as np
import pytest

from bosegas.cli import main
from bosegas.expectation import (
    _sum_quadruples,
    energy_report,
    matrix_element,
    occupation_ratio_report,
    pair_correlator_check,
    q_psi,
    q_psi_occupation,
)
from bosegas.fock import weight_recursion_report
from bosegas.lattice import Region
from bosegas.semiclassical import (
    LHY_RATIO,
    assemble_ledger,
    integral_kinetic,
    integral_number_density,
    integral_pair,
)
from bosegas.scattering import check_scattering_identities, shooting_scattering_length
from bosegas.boundary import (
    Window,
    check_isometry,
    kinetic_penalty,
    trig_polynomial,
    window_q,
)
from conftest import closure_members, load_report


@pytest.fixture
def announce(capsys):
    def _announce(num, desc, ok, detail):
        with capsys.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] acceptance {num:02d} - {desc}: {detail}")
        assert ok, f"acceptance {num:02d} {desc}: {detail}"

    return _announce


def test_01_radial_integrals(announce):
    closed = {
        "number density": (integral_number_density, 1.0 / (3.0 * math.pi**2)),
        "kinetic": (integral_kinetic, -8.0 / (5.0 * math.pi**2)),
        "pair": (integral_pair, 1.0 / math.pi**2),
    }
    worst, slowest = 0.0, 0.0
    for func, want in closed.values():
        t0 = time.perf_counter()
        base = func()
        slowest = max(slowest, time.perf_counter() - t0)
        worst = max(worst, abs(base.value - want) / abs(want))
    ok = worst <= 1e-9 and slowest < 1.0
    announce(
        1,
        "three radial integrals vs closed forms",
        ok,
        f"max rel err {worst:.2e} (<=1e-9), slowest {slowest * 1e3:.0f} ms (<1 s)",
    )


def test_02_coefficient_ledger_milestones(announce, gaussian_solution):
    led = assemble_ledger(gaussian_solution, identity_tol=1e-6)
    g0 = led["g0"]
    milestone = 26.0 * g0**2.5 / (15.0 * math.pi**2)
    final = 16.0 * g0**2.5 / (15.0 * math.pi**2)
    r_mid = abs(led["second_sum_imposed"] - milestone) / milestone
    r_fin = abs(led["final_coefficient"] - final) / final
    ok = r_mid <= 1e-12 and r_fin <= 1e-12
    announce(
        2,
        "second-order sum hits 26/(15 pi^2) then 16/(15 pi^2) after the "
        "condensate-density substitution, identities imposed",
        ok,
        f"milestone rel {r_mid:.2e}, final rel {r_fin:.2e} (both <=1e-12)",
    )


def test_03_second_order_constant_forms(announce):
    forms = (
        LHY_RATIO * (4.0 * math.pi) ** 2.5,
        4.0 * math.pi * 128.0 / (15.0 * math.sqrt(math.pi)),
        512.0 * math.sqrt(math.pi) / 15.0,
    )
    spread = (max(forms) - min(forms)) / forms[2]
    ok = spread <= 1e-12
    announce(
        3,
        "the three algebraic forms of the second-order constant agree",
        ok,
        f"relative spread {spread:.2e} (<=1e-12), value {forms[2]:.12f}",
    )


def test_04_scattering_two_routes(announce, gaussian_potential, gaussian_solution):
    t0 = time.perf_counter()
    a_ode = shooting_scattering_length(gaussian_potential)
    rep = check_scattering_identities(gaussian_solution)
    dt = time.perf_counter() - t0
    gap = abs(gaussian_solution.a - a_ode) / abs(a_ode)
    ok = (
        gap <= 1e-4
        and rep["gradient"] < 1e-6
        and rep["length"] < 1e-6
        and dt < 5.0
    )
    announce(
        4,
        "momentum-space a vs position-space shooting, with exact identities",
        ok,
        f"route gap {gap:.2e} (<=1e-4), identity residuals "
        f"{rep['gradient']:.2e}/{rep['length']:.2e} (<1e-6), "
        f"{dt:.2f} s (<5 s)",
    )


def test_05_toy_energy_two_routes(announce, toy_trials):
    t0 = time.perf_counter()
    worst, sizes_ok = 0.0, True
    for case, trial in toy_trials.values():
        sizes_ok &= len(trial.mode_set) <= 9 and trial.closure.n <= 6
        sizes_ok &= len(trial.closure) <= 10_000
        rep = energy_report(trial, case.context())
        scale = max(1.0, abs(rep["brute_force_total"]))
        worst = max(worst, abs(rep["total"] - rep["brute_force_total"]) / scale)
    dt = time.perf_counter() - t0
    ok = len(toy_trials) >= 20 and sizes_ok and worst <= 1e-10 and dt < 10.0
    announce(
        5,
        "brute-force energy equals component decomposition on the toy battery",
        ok,
        f"{len(toy_trials)} toys (>=20, <=9 modes, N<=6), worst rel gap "
        f"{worst:.2e} (<=1e-10), {dt:.2f} s (<10 s)",
    )


def test_06_weight_and_organization_identities(announce, toy_trials):
    # five defining ratios of the weight on every applicable pair of states
    worst_rec = 0.0
    for _, trial in toy_trials.values():
        rep = weight_recursion_report(trial)
        worst_rec = max(worst_rec, max(rep["max_rel_error"].values()))
    # per-target organization vs the naive double sum, random + structured quads
    worst_org = 0.0
    for name in ("soft-coincidence", "soft-two-channel", "line-harmonics"):
        _, trial = toy_trials[name]
        ms = trial.mode_set
        z = ms.zero_index
        members = closure_members(trial.closure)
        rng = np.random.default_rng(17)
        quads = [tuple(int(q) for q in rng.choice(len(ms), 4)) for _ in range(4)]
        u = next(i for i in ms.nonzero_indices() if ms.neg_index(i) is not None)
        quads += [(u, ms.neg_index(u), z, z), (z, z, u, ms.neg_index(u))]
        for quad in quads:
            organized = _sum_quadruples(trial, [(quad, 1.0)])
            raw = sum(
                np.conj(trial.weights[b_i]) * trial.weights[a_i] * el
                for b_i, beta in enumerate(members)
                for a_i, alpha in enumerate(members)
                if (el := matrix_element(ms, beta, quad, alpha)) != 0.0
            )
            worst_org = max(worst_org, abs(organized - raw) / max(1.0, abs(raw)))
    # pair correlator closed form is exact when either momentum is low/intermediate
    worst_pair = 0.0
    for _, trial in toy_trials.values():
        ms = trial.mode_set
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
                    worst_pair = max(worst_pair, chk["abs_gap"])
    ok = worst_rec <= 1e-12 and worst_org <= 1e-12 and worst_pair <= 1e-12
    announce(
        6,
        "weight recursion ratios, per-target reorganization, and the exact "
        "pair-correlator branch",
        ok,
        f"recursion {worst_rec:.2e}, reorganization {worst_org:.2e}, "
        f"correlator {worst_pair:.2e} (all <=1e-12)",
    )


def test_07_moment_sum_rules_and_bounds(announce, toy_trials):
    worst_n, worst_occ, worst_imag = 0.0, 0.0, 0.0
    ratio_ok = True
    for case, trial in toy_trials.values():
        ms = trial.mode_set
        n = trial.closure.n
        total = sum(q_psi(trial, [u]) for u in range(len(ms)))
        worst_n = max(worst_n, abs(total - n) / n)
        for u in ms.nonzero_indices()[:2]:
            s = sum(q_psi_occupation(trial, [(u, m)]) for m in range(n + 1))
            worst_occ = max(worst_occ, abs(s - 1.0))
        for u in ms.indices_in(Region.PI):
            ratio_ok &= occupation_ratio_report(trial, u, ms.modes[u].lam)["holds"]
        worst_imag = max(worst_imag, energy_report(trial, case.context())["imag_residue"])
    ok = worst_n <= 1e-12 and worst_occ <= 1e-12 and ratio_ok and worst_imag < 1e-12
    announce(
        7,
        "occupancy sum rules, geometric-decay ratio bound, and realness",
        ok,
        f"particle sum rel {worst_n:.2e}, occupancy sum {worst_occ:.2e} "
        f"(<=1e-12), ratio bound {'holds' if ratio_ok else 'fails'}, "
        f"imag residue {worst_imag:.2e} (<1e-12)",
    )


def test_08_lattice_to_continuum_sweep(announce, tmp_path):
    cfg = tmp_path / "config.yaml"
    cfg.write_text("sweep:\n  rho_values: [1.0e-4, 1.0e-5, 1.0e-6, 1.0e-7, 1.0e-8]\n")
    out = tmp_path / "reports"
    code = main(["energy-curve", "--config", str(cfg), "--out", str(out)])
    with open(out / "energy_curve.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    gaps = [float(r["rel_gap_annulus"]) for r in rows]
    monotone = all(x > y for x, y in zip(gaps, gaps[1:]))
    ok = code == 0 and len(rows) == 5 and monotone
    announce(
        8,
        "low-region lattice sum approaches its continuum integral along the "
        "density sweep, recorded in the energy-curve table",
        ok,
        "gaps " + " > ".join(f"{g:.2e}" for g in gaps) + f", monotone={monotone}",
    )


def test_09_boundary_window(announce):
    w = Window(ell=0.1, period=1.0)
    xs = np.linspace(-w.ell, w.ell, 4097)
    partition = float(np.max(np.abs(window_q(w, xs) ** 2 + window_q(w, xs + w.period) ** 2 - 1.0)))
    rng = np.random.default_rng(20260813)
    worst_iso, all_hold = 0.0, True
    for ell in (0.05, 0.1, 0.25, 0.5):
        win = Window(ell=ell, period=1.0)
        for _ in range(3):
            sample = trig_polynomial(1.0, rng.normal(0, 0.3, 8), rng.normal(0, 0.3, 8))
            iso = check_isometry(win, lambda xs: next(sample(xs))[0])
            worst_iso = max(worst_iso, iso.rel_residual)
            (penalty,) = kinetic_penalty(win, sample)
            all_hold &= penalty.holds_with(math.pi**2 / 16.0)
    ok = partition <= 1e-14 and worst_iso < 1e-8 and all_hold
    announce(
        9,
        "square partition, norm isometry, and the gradient penalty of the "
        "smooth cutoff window",
        ok,
        f"partition {partition:.2e} (<=1e-14), isometry {worst_iso:.2e} "
        f"(<1e-8), penalty holds={all_hold} at pi^2/16 over all (phi, ell)",
    )


def test_10_check_all_deterministic(announce, tmp_path):
    outs = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        code = main(["check-all", "--seed", "20260813", "--out", str(out)])
        outs.append((code, (out / "check_all.json").read_bytes()))
    identical = outs[0][1] == outs[1][1]
    n_viol = load_report(tmp_path / "first" / "check_all.json")["n_violations"]
    ok = outs[0][0] == 0 and outs[1][0] == 0 and identical and n_viol == 0
    announce(
        10,
        "full verification battery passes and repeats byte-identically "
        "under a fixed seed",
        ok,
        f"exit codes {outs[0][0]}/{outs[1][0]}, identical={identical}, "
        f"violations={n_viol}",
    )
