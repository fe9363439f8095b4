"""Hamiltonian expectations on trial states: two routes, correlators, moments."""

import math
from dataclasses import replace

import numpy as np
import pytest

from bosegas.errors import ZeroConditionProbability
from bosegas.expectation import (
    _sum_quadruples,
    brute_force_energy,
    coupling_matrix,
    energy_report,
    matrix_element,
    mean_occupancies,
    occupancy_distribution,
    occupation_ratio_report,
    p_uv,
    pair_correlator_check,
    pl_occupation_monotonicity,
    q_psi,
    q_psi_conditional,
    q_psi_occupation,
    statistics_report,
)
from bosegas.fock import (
    ClosureSet,
    free_state,
    generate_M,
    strict_pair_create,
    weight_f,
    weight_recursion_report,
)
from bosegas.lattice import ModeSet, Region
from bosegas.toys import build_trial, builtin_toy_suite, gaussian_coupling, toy_by_name
from conftest import closure_members

# Frozen component table for the soft-coincidence toy (6 particles, 27 states).
_COINCIDENCE = {
    "kinetic": 0.006062815955733056,
    "HS1": 0.756221548920666,
    "HS2": -0.08978640557795661,
    "HS3": 0.001394018146770755,
    "HA1": -0.00033804387147559655,
    "HA2": 0.0,
    "total": 0.6735539335737376,
}

# Frozen components for the toy whose two soft channels share one low mode;
# this is the smallest builtin with a nonzero asymmetric-pair energy.
_TWO_CHANNEL = {
    "kinetic": 0.0014169569593630556,
    "HS1": 0.6296536389133558,
    "HS2": -0.05725248401209293,
    "HS3": 0.0,
    "HA1": -0.0001870088030005253,
    "HA2": 1.2635116243521005e-06,
    "total": 0.5736323665692498,
}


def _condensate_trial(n=5, volume=10.0):
    ms = ModeSet.toy([(0.0, 0.0, 0.0)], ["P0"], volume=volume)
    return weight_f(generate_M(ms, n, 2))


@pytest.fixture(scope="module")
def occupancy_trials(toy_trials):
    """Every builtin toy, plus two closures at N = 100 (8628 and 3826 states)."""
    trials = {name: trial for name, (_, trial) in toy_trials.items()}
    for name in ("soft-coincidence", "line-harmonics"):
        trials[f"{name}-100"] = build_trial(replace(toy_by_name(name), n=100))
    return trials


# ------------------------------------------------------------ matrix elements


def test_matrix_element_condensate_number_operator():
    ms = ModeSet.toy([(0.0, 0.0, 0.0)], ["P0"], volume=1.0)
    alpha = free_state(ms, 6)
    z = ms.zero_index
    val = matrix_element(ms, alpha, (z, z, z, z), alpha)
    assert val == 6 * 5  # N (N - 1)


def test_matrix_element_pair_creation_amplitude():
    case = toy_by_name("pi-pair")
    ms = case.mode_set
    z = ms.zero_index
    alpha = free_state(ms, 4)
    beta = strict_pair_create(ms, alpha, 1)
    got = matrix_element(ms, beta, (1, 2, z, z), alpha)
    # sqrt(a0 (a0-1) (a(k)+1) (a(-k)+1)) with a0 = 4
    assert math.isclose(got, math.sqrt(4 * 3 * 1 * 1), rel_tol=1e-15)
    # occupancy mismatch kills the element
    assert matrix_element(ms, alpha, (1, 2, z, z), alpha) == 0.0
    assert matrix_element(ms, beta, (z, z, z, z), alpha) == 0.0


def test_sum_quadruples_matches_raw_double_sum(toy_trials):
    """The per-target organization of <H> equals the naive double sum
    state-by-state, quadruple-by-quadruple, for every pattern of coinciding
    legs and on a closure larger than the toys."""
    trials = [toy_trials[name][1] for name in ("soft-coincidence", "soft-two-channel", "line-harmonics")]
    trials.append(build_trial(replace(toy_by_name("line-harmonics"), n=12)))
    # an empty mode listed before an occupied one: hopping a particle into
    # it must not be mistaken for a hop into the next mode
    gap_inside = ModeSet.toy(
        [(0.0, 0.0, 0.0), (0.75, 0.0, 0.0), (0.05, 0.0, 0.0), (-0.75, 0.0, 0.0)],
        ["P0", "PI", "Gap", "PI"],
        volume=20.0,
        lams=[None, -0.4, None, -0.4],
    )
    trials.append(weight_f(generate_M(gap_inside, 4, 2)))
    for trial in trials:
        ms = trial.mode_set
        z = ms.zero_index
        nz = ms.nonzero_indices()
        members = closure_members(trial.closure)
        rng = np.random.default_rng(3)
        quads = [
            (nz[0], z, z, nz[0]),
            (nz[0], ms.neg_index(nz[0]), z, z),
            (z, z, nz[0], ms.neg_index(nz[0])),
        ]
        quads += [tuple(rng.choice(len(ms), 4)) for _ in range(6)]
        for u, v in ((z, nz[0]), (nz[0], z), (nz[0], ms.neg_index(nz[0]))):
            quads += [(u, u, u, u), (u, u, v, v), (u, v, u, v), (u, v, v, u), (u, u, u, v), (u, v, v, v)]
        quads += [(u, z, z, v) for u in nz for v in nz]
        for quad in quads:
            organized = _sum_quadruples(trial, [(tuple(int(q) for q in quad), 1.0)])
            raw = 0.0
            for b_i, beta in enumerate(members):
                fb = trial.weights[b_i]
                if fb == 0.0:
                    continue
                for a_i, alpha in enumerate(members):
                    el = matrix_element(ms, beta, quad, alpha)
                    if el != 0.0:
                        raw += np.conj(fb) * trial.weights[a_i] * el
            assert abs(organized - raw) <= 1e-10 * max(1.0, abs(raw)), (len(trial), quad)


# ------------------------------------------------------------ energy routes


def test_condensate_only_energy_is_direct_term():
    trial = _condensate_trial(n=5, volume=10.0)
    coupling = coupling_matrix(lambda mag: math.exp(-0.3 * mag**2), trial.mode_set)
    rep = energy_report(trial, coupling)
    # HS1 carries the full V_0 N (N-1) / |Lambda|; both routes agree exactly
    assert math.isclose(rep["HS1"], coupling[0, 0] * 5 * 4 / 10.0, rel_tol=1e-12)
    assert rep["kinetic"] == 0.0
    assert rep["HS2"] == rep["HS3"] == rep["HA1"] == rep["HA2"] == 0.0
    assert math.isclose(rep["total"], rep["HS1"], rel_tol=1e-14)
    assert math.isclose(rep["brute_force_total"], rep["total"], rel_tol=1e-12)


def test_zero_coupling_total_is_kinetic(toy_trials):
    case, trial = toy_trials["zero-coupling"]
    rep = energy_report(trial, case.context())
    assert rep["HS1"] == rep["HS2"] == rep["HS3"] == rep["HA1"] == rep["HA2"] == 0.0
    assert rep["total"] == rep["kinetic"]
    assert rep["kinetic"] > 0.0


def test_energy_decomposition_vs_brute_force_all_toys(toy_trials):
    for name, (case, trial) in toy_trials.items():
        rep = energy_report(trial, case.context())
        assert rep["decomposition_residual"] <= 1e-10, name
        assert rep["imag_residue"] <= 1e-12, name


def test_frozen_component_tables(toy_trials):
    for name, frozen in (("soft-coincidence", _COINCIDENCE), ("soft-two-channel", _TWO_CHANNEL)):
        case, trial = toy_trials[name]
        rep = energy_report(trial, case.context())
        for key, want in frozen.items():
            got = rep["kinetic" if key == "kinetic" else key]
            if want == 0.0:
                assert got == 0.0, (name, key)
            else:
                assert math.isclose(got, want, rel_tol=1e-12), (name, key)


def test_every_component_exercised_somewhere(toy_trials):
    seen = {k: False for k in ("HS2", "HS3", "HA1", "HA2")}
    for case, trial in toy_trials.values():
        rep = energy_report(trial, case.context())
        for k in seen:
            seen[k] = seen[k] or rep[k] != 0.0
    assert all(seen.values()), seen


def test_ha2_skips_pairs_matched_by_mode_key():
    # -(0.5, 0.1, 0) is listed with a 1e-12 offset that the mode key rounds
    # away: v1 + v2 = 0 must be found through the key, as brute force finds
    # it, or HA2 picks up a phantom copy of HS3's pair-to-pair terms
    ms = ModeSet.toy(
        [(0.0, 0.0, 0.0), (0.25, 0.0, 0.0), (-0.25, 0.0, 0.0), (0.5, 0.1, 0.0), (-0.5, -0.1 - 1e-12, 0.0)],
        ["P0", "PL", "PL", "PI", "PI"],
        volume=20.0,
        lams=[None, -0.6, -0.6, -0.4, -0.4],
    )
    assert ms.neg_index(3) == 4
    trial = weight_f(generate_M(ms, 4, 2))
    rep = energy_report(trial, coupling_matrix(gaussian_coupling(0.9), ms))
    assert rep["HS3"] != 0.0
    assert rep["HA2"] == 0.0
    assert rep["decomposition_residual"] <= 1e-10


def _copy_at(case, momenta):
    ms = case.mode_set
    copy = ModeSet.toy(momenta, [m.region for m in ms], volume=ms.volume, lams=[m.lam for m in ms])
    return replace(case, mode_set=copy)


def _off_grid_copy(case, rng):
    """The case with every nonzero momentum component moved by under 0.45
    key steps (unit * 1e-9), the largest ones outward so the unit stays: a
    copy whose modes round to the case's lattice points."""
    ms = case.mode_set
    pmat = ms.momentum_matrix()
    top = float(np.max(np.abs(pmat)))
    step = math.ldexp(1.0, math.frexp(top)[1]) * 1e-9
    shift = rng.uniform(-0.45, 0.45, pmat.shape) * step
    largest = np.abs(pmat) == top
    shift[largest] = np.abs(shift[largest]) * np.sign(pmat[largest])
    copy = _copy_at(case, np.where(pmat != 0.0, pmat + shift, 0.0))
    assert all(copy.mode_set.index_of(m.p) == m.index for m in ms)
    return copy


@pytest.mark.parametrize("name", [case.name for case in builtin_toy_suite()])
def test_off_grid_copies_conserve_momentum_by_key(name):
    # conservation follows the modes' lattice points, not float sums or
    # per-mode key rounding: offsets that each round away can add up past
    # half a key step in p_a + p_b - p_c, and momenta scaled by 8 pi / 5
    # (a quarter becomes 2 pi / 5) lie off every decimal grid, where keys
    # rounded mode by mode would lose p + p = 2p.  Every copy must find the
    # same closure and keep both energy routes on the same quadruples
    case = toy_by_name(name)
    size = len(build_trial(case))
    rng = np.random.default_rng(list(name.encode()))
    scaled = _copy_at(case, case.mode_set.momentum_matrix() * (8.0 * math.pi / 5.0))
    for copy in [_off_grid_copy(case, rng) for _ in range(5)] + [scaled]:
        trial = build_trial(copy)
        assert len(trial) == size
        assert energy_report(trial, copy.context())["decomposition_residual"] <= 1e-10


def _brute_force_reference(state, coupling):
    """brute_force_energy with one applicator call per ordered triple."""
    ms = state.mode_set
    closure = state.closure
    vol = ms.volume
    counts = closure.counts_matrix()
    w = state.weights
    probs_c = np.conj(w)

    total = 0.0 + 0.0j
    n_modes = len(ms)
    pmat = ms.momentum_matrix()
    for j1 in range(n_modes):
        for j2 in range(n_modes):
            p12 = pmat[j1] + pmat[j2]
            for j3 in range(n_modes):
                j4 = ms.index_of(p12 - pmat[j3])
                if j4 is None:
                    continue
                vu = coupling[j1, j3]
                src, dst, amp = closure.apply_quartic(j1, j2, j3, j4)
                if len(src) == 0:
                    continue
                total += (vu / vol) * np.sum(probs_c[dst] * w[src] * amp)

    kin = 0.0
    probs = np.abs(w) ** 2
    for m in ms:
        mag2 = float(m.p @ m.p)
        if mag2 > 0.0:
            kin += mag2 * float(np.dot(probs, counts[:, m.index]))
    return kin + float(total.real)


def test_brute_force_matches_per_triple_reference(toy_trials):
    # one element sum per commuting quadruple class changes no rounding
    cases = [(case, trial) for case, trial in toy_trials.values()]
    big = replace(toy_by_name("soft-coincidence"), n=30)
    cases.append((big, build_trial(big)))
    for case, trial in cases:
        table = case.context()
        assert brute_force_energy(trial, table) == _brute_force_reference(trial, table), case.name


def test_coupling_matrix_samples_rounded_transfers():
    # each |p_i - p_j| is rounded to 12 decimals before V is sampled, so the
    # transfers 0, 0.1 and 0.2 reach V as those decimals, whatever the norm's
    # last bits; the table is symmetric with V_0 on the diagonal
    seen = []

    def v_of(mag):
        seen.append(mag)
        return math.exp(-mag)

    ms = ModeSet.toy(
        [(0.0, 0.0, 0.0), (0.1, 0.0, 0.0), (-0.1, 0.0, 0.0)], ["P0", "PL", "PL"], volume=10.0,
        lams=[None, -0.5, -0.5],
    )
    table = coupling_matrix(v_of, ms)
    assert set(seen) == {0.0, 0.1, 0.2}
    assert np.array_equal(table, table.T)
    assert table[1, 2] == math.exp(-0.2) and table[0, 1] == math.exp(-0.1)
    assert np.all(np.diag(table) == 1.0)


def test_brute_force_uses_independent_route(toy_trials):
    case, trial = toy_trials["pl-pair-minimal"]
    direct = brute_force_energy(trial, case.context())
    rep = energy_report(trial, case.context())
    assert math.isclose(direct, rep["brute_force_total"], rel_tol=0.0, abs_tol=0.0)


# ------------------------------------------------------------ moments


def test_q_psi_free_state():
    trial = _condensate_trial(n=7)
    z = trial.mode_set.zero_index
    assert q_psi(trial, [z]) == 7.0
    assert q_psi(trial, [z, z]) == 49.0


def test_q_psi_three_mode_organization(toy_trials):
    # Q(q) = |f_1|^2 + 2 |f_2|^2 on the {0, +-q} toy, by pair count
    _, trial = toy_trials["pi-pair"]
    probs = trial.probabilities()
    by_pairs = dict(zip(trial.closure.counts_matrix()[:, 1].tolist(), probs))
    expect = by_pairs.get(1, 0.0) + 2.0 * by_pairs.get(2, 0.0)
    assert math.isclose(q_psi(trial, [1]), expect, rel_tol=1e-14)


def test_q_psi_sum_rule_every_toy(toy_trials):
    for name, (_, trial) in toy_trials.items():
        n = trial.closure.n
        moments = [q_psi(trial, [u]) for u in range(len(trial.mode_set))]
        assert math.isclose(sum(moments), float(n), rel_tol=1e-12), name
        # the one-pass table keeps q_psi's summation order
        assert mean_occupancies(trial).tolist() == moments, name


def test_occupation_distribution_sums_to_one(occupancy_trials):
    for name, trial in occupancy_trials.items():
        n = trial.closure.n
        for u in range(len(trial.mode_set)):
            probs = [q_psi_occupation(trial, [(u, m)]) for m in range(n + 1)]
            assert math.isclose(sum(probs), 1.0, rel_tol=1e-12), (name, u)
            # each count's states summed as the mask selects them, bit for bit
            assert occupancy_distribution(trial, u) == probs, (name, u)


def test_conditional_moment_identity(toy_trials):
    # unconditioned call reduces to q_psi; conditioning reweights a subset
    _, trial = toy_trials["soft-coincidence"]
    u = trial.mode_set.nonzero_indices()[0]
    assert math.isclose(q_psi_conditional(trial, [u], []), q_psi(trial, [u]), rel_tol=1e-14)
    # manual oracle for one condition
    cond = [(u, 1)]
    probs = trial.probabilities()
    num = den = 0.0
    for i, c in enumerate(trial.closure.counts_matrix()[:, u].tolist()):
        if c == 1:
            den += probs[i]
            num += probs[i] * c
    assert math.isclose(q_psi_conditional(trial, [u], cond), num / den, rel_tol=1e-12)


def test_conditional_moment_impossible_condition(toy_trials):
    _, trial = toy_trials["pi-pair"]
    with pytest.raises(ZeroConditionProbability):
        q_psi_conditional(trial, [1], [(1, 99)])


# ------------------------------------------------------------ correlators


def test_pair_correlator_exact_cases(toy_trials):
    checked = 0
    for name, (_, trial) in toy_trials.items():
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
                    assert chk["abs_gap"] <= 1e-12, (name, u, v)
                    checked += 1
                else:
                    assert math.isfinite(chk["abs_gap"])
    assert checked >= 20  # the suite must actually exercise the exact branch


def test_pair_correlator_unpaired_momentum_is_zero():
    # 1.5 has no partner -1.5, so neither P(u, v) nor the direct sum has a
    # pair to create or annihilate there
    ms = ModeSet.toy(
        [(0.0, 0.0, 0.0), (0.75, 0.0, 0.0), (-0.75, 0.0, 0.0), (1.5, 0.0, 0.0)],
        ["P0", "PI", "PI", "PH"],
        volume=20.0,
        lams=[None, -0.4, -0.4, -0.2],
    )
    trial = weight_f(generate_M(ms, 4, 2))
    for u, v in ((1, 3), (3, 1)):
        chk = pair_correlator_check(trial, u, v)
        assert chk["p_uv"] == chk["direct"] == 0.0
        assert chk["abs_gap"] == 0.0


def _p_uv_reference(trial, u, v):
    """P(u, v) state by state through strict_pair_create and a dict of
    count tuples."""
    ms = trial.mode_set
    members = closure_members(trial.closure)
    index = {alpha.counts: i for i, alpha in enumerate(members)}
    nu, nv = ms.neg_index(u), ms.neg_index(v)
    total = 0.0 + 0.0j
    for gamma in members:
        bu = strict_pair_create(ms, gamma, u)
        fu = None if bu is None or bu.counts not in index else trial.weights[index[bu.counts]]
        if fu is None or fu == 0.0:
            continue
        bv = strict_pair_create(ms, gamma, v)
        fv = None if bv is None or bv.counts not in index else trial.weights[index[bv.counts]]
        if fv is None or fv == 0.0:
            continue
        c = gamma.counts
        total += fu * fv * math.sqrt((c[u] + 1) * (c[nu] + 1) * (c[v] + 1) * (c[nv] + 1))
    return total


def test_p_uv_matches_state_by_state_reference(toy_trials):
    # every paired (u, v), the high-high pairs with only a reported gap too
    checked = 0
    for name, (_, trial) in toy_trials.items():
        ms = trial.mode_set
        paired = [
            i
            for i in ms.nonzero_indices()
            if ms.neg_index(i) is not None
            and ms.modes[i].region in (Region.PL, Region.PI, Region.PH)
        ]
        for u in paired:
            for v in paired:
                if u != v:
                    assert p_uv(trial, u, v) == _p_uv_reference(trial, u, v), (name, u, v)
                    checked += 1
    assert checked > 0


def test_memoized_moves_match_fresh_lookups(toy_trials, monkeypatch):
    # every move the energy routes, P(u,v) and the recursion verifier make
    # returns the array a fresh closure computes on its first lookup
    calls = []
    lookup = ClosureSet.shift

    def spy(closure, delta):
        found = lookup(closure, delta)
        calls.append((closure, dict(delta), found))
        return found

    monkeypatch.setattr(ClosureSet, "shift", spy)
    for case, trial in toy_trials.values():
        energy_report(trial, case.context())
        weight_recursion_report(trial)
        paired = [i for i in trial.mode_set.nonzero_indices() if trial.mode_set.neg_index(i) is not None]
        for u in paired:
            for v in paired:
                if u != v:
                    p_uv(trial, u, v)
    monkeypatch.undo()
    assert len(calls) > len(toy_trials)
    fresh = {}
    for closure, delta, found in calls:
        if closure not in fresh:
            fresh[closure] = ClosureSet(closure.mode_set, closure.n, closure.m_c, closure.counts_matrix())
        assert not found.flags.writeable
        assert closure.shift(delta) is found
        assert np.array_equal(found, fresh[closure].shift(delta)), delta


def test_pair_correlator_degenerate_inputs(toy_trials):
    _, trial = toy_trials["pi-pair"]
    with pytest.raises(ValueError):
        p_uv(trial, 1, 1)
    with pytest.raises(ValueError):
        p_uv(trial, trial.mode_set.zero_index, 1)


def test_pair_correlator_condensate_vanishes():
    # no +-k pair can be created twice from a 2-particle condensate beyond k
    case = toy_by_name("two-pi-pairs")
    trial = build_trial(case)
    val = p_uv(trial, 1, 3)
    assert math.isfinite(abs(val))
    cond = _condensate_trial(n=4)
    # condensate-only set has no nonzero modes at all, so nothing to correlate
    assert cond.mode_set.nonzero_indices() == []


def asymmetry_count_F(mode_set, state, momenta) -> int:
    """Sum over the given modes in the low region of |n(v) - n(-v)|."""
    total = 0
    for v in momenta:
        if mode_set.modes[v].region is not Region.PL:
            continue
        j = mode_set.neg_index(v)
        other = state.counts[j] if j is not None else 0
        total += abs(state.counts[v] - other)
    return total


def test_asymmetry_count_balance(toy_trials):
    """F(alpha) + F(beta) counts the low-region legs whenever the HA-type
    element <alpha| a+_0 a+_{v1} a_{v2} a_{v3} |beta> is nonzero and the legs
    avoid +- collisions; exhaustive scan over the coincidence toy."""
    _, trial = toy_trials["soft-coincidence"]
    ms = trial.mode_set
    z = ms.zero_index
    nz = ms.nonzero_indices()
    members = closure_members(trial.closure)
    scanned = 0
    for v1 in nz:
        for v2 in nz:
            for v3 in nz:
                legs = (v1, v2, v3)
                if len(set(legs)) < 3:
                    continue
                if any(ms.neg_index(a) == b for a in legs for b in legs):
                    continue
                quad = (z, v1, v2, v3)
                for alpha in members:
                    for beta in members:
                        if matrix_element(ms, alpha, quad, beta) == 0.0:
                            continue
                        low_legs = sum(
                            1 for v in legs if ms.modes[v].region is Region.PL
                        )
                        got = asymmetry_count_F(ms, alpha, legs) + asymmetry_count_F(
                            ms, beta, legs
                        )
                        assert got == low_legs, (legs, alpha.counts, beta.counts)
                        scanned += 1
    assert scanned > 0


# ------------------------------------------------------------ bounds


def _ratio_reference(probs, rho, lam_u):
    """(holds, worst_ratio) of the decay bound, one (m, i) pair at a time."""
    n = len(probs) - 1
    ratio2 = (lam_u * rho) ** 2
    worst = -math.inf
    ok = True
    for m in range(1, n + 1):
        for i in range(1, m + 1):
            lhs = probs[m]
            rhs = ratio2**i * probs[m - i]
            if lhs > rhs + 1e-15 * max(1.0, abs(rhs)):
                ok = False
            if rhs > 0:
                worst = max(worst, lhs / rhs)
    return ok, (None if worst == -math.inf else worst)


def test_occupation_ratio_bound_all_toys(occupancy_trials):
    failing = 0
    for name, trial in occupancy_trials.items():
        ms = trial.mode_set
        rho = trial.closure.n / ms.volume
        for u in ms.indices_in(Region.PI):
            lam = ms.modes[u].lam
            rep = occupation_ratio_report(trial, u, lam)
            assert rep["holds"], (name, u)
            assert math.isclose(sum(rep["occupancy_probs"]), 1.0, rel_tol=1e-12)
            # a quarter of lambda breaks the bound; both verdicts match the loop
            for lam_u in (lam, lam / 4.0):
                rep = occupation_ratio_report(trial, u, lam_u)
                ref = _ratio_reference(rep["occupancy_probs"], rho, lam_u)
                assert (rep["holds"], rep["worst_ratio"]) == ref, (name, u, lam_u)
                failing += not rep["holds"]
    assert failing > 0


def test_low_occupancy_monotone_under_hypothesis(toy_trials):
    hit = 0
    for name, (_, trial) in toy_trials.items():
        ms = trial.mode_set
        for u in ms.indices_in(Region.PL):
            rep = pl_occupation_monotonicity(trial, u)
            if rep["hypothesis_holds"]:
                assert rep["monotone"], (name, u)
                hit += 1
    assert hit > 0


def test_statistics_report_shape(toy_trials):
    case, trial = toy_trials["soft-coincidence"]
    rep = statistics_report(trial, 1.0)
    assert 0.0 < rep["condensate_fraction"] <= 1.0
    assert set(rep["occupancy_by_region"]) == {"PL", "PI", "PH"}
    # report-only: targets are the rho -> 0 limits, no assertion on the gap
    assert rep["scaled_low_target"] == 1.0 / (3.0 * math.pi**2)
    assert math.isfinite(rep["scaled_low_total"])
