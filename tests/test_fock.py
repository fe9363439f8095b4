"""Occupation states, pair creations, closure generation, and trial weights."""

import math
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from bosegas.errors import BudgetExceeded, RegionUndefined
from bosegas.fock import (
    ClosureSet,
    OccupationState,
    WeightedTrialState,
    export_closure,
    free_state,
    generate_M,
    strict_pair_create,
    weight_f,
    weight_recursion_report,
)
from bosegas.lattice import ModeSet, Region
from bosegas.toys import build_trial, toy_by_name
from conftest import closure_members

_RECURSION_NAMES = (
    "strict_outer",
    "strict_low_symmetric",
    "strict_low_asymmetric",
    "soft_symmetric",
    "soft_asymmetric",
)


def _pair_set(label, lam=-0.4, volume=20.0):
    return ModeSet.toy(
        [(0.0, 0.0, 0.0), (0.75, 0.0, 0.0), (-0.75, 0.0, 0.0)],
        ["P0", label, label],
        volume=volume,
        lams=[None, lam, lam],
    )


# ---------------------------------------------------------------- creations


def test_strict_pair_create_moves_condensate_pair():
    ms = _pair_set("PI")
    alpha = free_state(ms, 4)
    beta = strict_pair_create(ms, alpha, 1)
    assert beta.counts == (2, 1, 1)
    assert beta.n == 4
    assert np.allclose(np.asarray(beta.counts) @ ms.momentum_matrix(), 0.0)
    # again on the child
    gamma = strict_pair_create(ms, beta, 1)
    assert gamma.counts == (0, 2, 2)
    # condensate exhausted
    assert strict_pair_create(ms, gamma, 1) is None


def test_strict_pair_create_rejects_zero_mode():
    ms = _pair_set("PI")
    with pytest.raises(ValueError):
        strict_pair_create(ms, free_state(ms, 4), ms.zero_index)


# ---------------------------------------------------------------- closures


def test_closure_single_outer_pair():
    # {0, +-q in P_I}, N = 4: free, one pair, two pairs
    ms = _pair_set("PI")
    clo = generate_M(ms, 4, 2)
    assert clo.counts_matrix().tolist() == [[4, 0, 0], [2, 1, 1], [0, 2, 2]]


def test_closure_low_pair_occupation_cap():
    # {0, +-u in P_L}, m_c = 2 caps the tower despite N = 6
    ms = _pair_set("PL", lam=-0.6)
    clo = generate_M(ms, 6, 2)
    assert len(clo) == 3
    assert clo.counts_matrix()[:, 1].max() == 2


def test_closure_condensate_only():
    ms = ModeSet.toy([(0.0, 0.0, 0.0)], ["P0"], volume=10.0)
    clo = generate_M(ms, 5, 2)
    assert clo.counts_matrix().tolist() == [[5]]


def test_closure_coincidence_toy_size():
    case = toy_by_name("soft-coincidence")
    clo = generate_M(case.mode_set, case.n, case.m_c)
    assert len(clo) == 27


def test_closure_particle_and_momentum_conservation(toy_trials):
    for _, trial in toy_trials.values():
        ms = trial.mode_set
        n = trial.closure.n
        for alpha in closure_members(trial.closure):
            assert alpha.n == n
            assert np.allclose(np.asarray(alpha.counts) @ ms.momentum_matrix(), 0.0, atol=1e-12)


def test_closure_low_occupancy_never_exceeds_cap(toy_trials):
    for _, trial in toy_trials.values():
        ms = trial.mode_set
        counts = trial.closure.counts_matrix()
        for u in ms.indices_in(Region.PL):
            assert np.maximum(counts[:, u], counts[:, ms.neg_index(u)]).max() <= trial.closure.m_c


def test_closure_minimality_no_orphans(toy_trials):
    # generation is breadth-first from the free state, so every state is
    # reachable and no two states share a counts vector
    for _, trial in toy_trials.values():
        counts = trial.closure.counts_matrix()
        assert len(np.unique(counts, axis=0)) == len(counts)


def _creation_deltas(ms):
    """Every strict creation {0: -2, k: +1, -k: +1} and every soft creation
    {0: -1, u: -1, i: +1, j: +1} with p_i + p_j = u, both i and j high."""
    z = ms.zero_index
    deltas = []
    for k in ms.nonzero_indices():
        j = ms.neg_index(k)
        if j is not None and k < j:
            deltas.append({z: -2, k: 1, j: 1})
    high = ms.indices_in(Region.PH)
    for u in ms.indices_in(Region.PL):
        for i in high:
            j = ms.index_of(ms.modes[u].p - ms.modes[i].p)
            if j is None or j < i or j not in high:
                continue
            delta = {z: -1, u: -1, i: 1}
            delta[j] = delta.get(j, 0) + 1
            deltas.append(delta)
    return deltas


def _moved(counts, delta):
    moved = list(counts)
    for j, d in delta.items():
        moved[j] += d
    return tuple(moved)


def _allowed(ms, m_c, counts, delta):
    """The closure rules on one state: no count goes negative, a strict pair
    lies in P_I or P_H, or in P_L with max(n(k), n(-k)) < m_c, and a soft
    creation out of u needs n(u) = n(-u)."""
    z = ms.zero_index
    if min(_moved(counts, delta)) < 0:
        return False
    if delta[z] == -1:
        u = next(j for j, d in delta.items() if d < 0 and j != z)
        return counts[u] == counts[ms.neg_index(u)]
    k, nk = (j for j in delta if j != z)
    region = ms.modes[k].region
    if region is Region.PL:
        return max(counts[k], counts[nk]) < m_c
    return region in (Region.PI, Region.PH)


def test_closure_is_closed_and_reachable(toy_trials):
    """Every allowed creation of every member lands in the closure, and every
    member after the all-condensate row 0 is an allowed creation of an
    earlier member."""
    for name, (_, trial) in toy_trials.items():
        clo = trial.closure
        ms = clo.mode_set
        rows = [tuple(r) for r in clo.counts_matrix().tolist()]
        index = {r: i for i, r in enumerate(rows)}
        assert rows[0] == free_state(ms, clo.n).counts
        reached = {0}
        for i, counts in enumerate(rows):
            for delta in _creation_deltas(ms):
                if _allowed(ms, clo.m_c, counts, delta):
                    t = index.get(_moved(counts, delta))
                    assert t is not None, (name, counts, delta)
                    if t > i:
                        reached.add(t)
        assert reached == set(range(len(rows))), name


def _bfs_reference(ms, n, m_c):
    """The closure state by state: a breadth-first queue of count tuples,
    candidate creations per state in strict outer, strict low, soft order."""
    z = ms.zero_index
    strict_outer, strict_low = [], []
    for m in ms:
        j = ms.neg_index(m.index)
        if j is None or m.index > j:
            continue
        if m.region in (Region.PI, Region.PH):
            strict_outer.append(m.index)
        elif m.region is Region.PL:
            strict_low.append(m.index)
    soft_pairs = {}
    for u in ms.indices_in(Region.PL):
        soft_pairs[u] = []
        for i in ms.indices_in(Region.PH):
            j = ms.index_of(ms.modes[u].p - ms.modes[i].p)
            if j is not None and j >= i and ms.modes[j].region is Region.PH:
                soft_pairs[u].append((i, j))
    states = [free_state(ms, n)]
    seen = {states[0].counts}
    head = 0
    while head < len(states):
        alpha = states[head]
        c = alpha.counts
        children = []
        if c[z] >= 2:
            children += [strict_pair_create(ms, alpha, k) for k in strict_outer]
            children += [
                strict_pair_create(ms, alpha, k)
                for k in strict_low
                if max(c[k], c[ms.neg_index(k)]) < m_c
            ]
        if c[z] >= 1:
            for u, pairs in soft_pairs.items():
                if c[u] >= 1 and c[u] == c[ms.neg_index(u)]:
                    for i, j in pairs:
                        nc = list(c)
                        nc[z] -= 1
                        nc[u] -= 1
                        nc[i] += 1
                        nc[j] += 1
                        children.append(OccupationState(tuple(nc)))
        for child in children:
            if child is not None and child.counts not in seen:
                seen.add(child.counts)
                states.append(child)
        head += 1
    return np.array([s.counts for s in states], dtype=np.int64)


def _outer_pairs(count):
    """The zero mode and `count` intermediate pairs on one axis."""
    ks = sorted(range(-count, count + 1), key=lambda k: k != 0)
    return ModeSet.toy([(0.1 * k, 0.0, 0.0) for k in ks], ["P0" if k == 0 else "PI" for k in ks])


def test_generation_order_matches_state_by_state_bfs(toy_trials):
    # weights and energies are left-to-right sums over rows: the order counts
    cases = [case for case, _ in toy_trials.values()]
    cases += [replace(toy_by_name("soft-coincidence"), n=30), replace(toy_by_name("line-harmonics"), n=40)]
    # 12 outer pairs, N = 8: levels of 1, 12, 78, 364 and 1365 states; at
    # the budget of 1820 a slice is 1820 // 12 = 151 parent rows, so level
    # 3's rows are walked in 3 slices and level 4's in 10
    cases.append(replace(toy_by_name("pi-pair"), name="twelve-pairs", mode_set=_outer_pairs(12), n=8))
    for case in cases:
        want = _bfs_reference(case.mode_set, case.n, case.m_c)
        got = generate_M(case.mode_set, case.n, case.m_c).counts_matrix()
        assert np.array_equal(got, want), case.name
        # a budget of exactly the closure size walks each level in slices
        tight = generate_M(case.mode_set, case.n, case.m_c, budget=len(want))
        assert np.array_equal(tight.counts_matrix(), want), case.name
        if len(want) > 1:  # the all-condensate row is always kept
            with pytest.raises(BudgetExceeded):
                generate_M(case.mode_set, case.n, case.m_c, budget=len(want) - 1)


def _shift_reference(closure, delta):
    """Member index of each state moved by delta, by count-tuple lookup."""
    rows = [tuple(r) for r in closure.counts_matrix().tolist()]
    index = {r: i for i, r in enumerate(rows)}
    return np.array([index.get(_moved(r, delta), -1) for r in rows])


def test_shift_matches_count_tuple_lookup(toy_trials):
    closures = [trial.closure for _, trial in toy_trials.values()]
    closures.append(build_trial(replace(toy_by_name("soft-coincidence"), n=30)).closure)
    soft_seen = 0
    for clo in closures:
        for delta in _creation_deltas(clo.mode_set):
            got = clo.shift(delta)
            assert got.dtype.kind == "i"
            assert np.array_equal(got, _shift_reference(clo, delta)), (len(clo), delta)
            soft_seen += delta[clo.mode_set.zero_index] == -1
    assert soft_seen > 0


def test_shift_out_of_range_never_aliases():
    # modes 0, +q, an empty gap mode, -q; rows (4,0,0,0), (2,1,0,1), (0,2,0,2)
    lams = [None, -0.4, None, -0.4]
    ms = ModeSet.toy(
        [(0.0, 0.0, 0.0), (0.75, 0.0, 0.0), (0.05, 0.0, 0.0), (-0.75, 0.0, 0.0)],
        ["P0", "PI", "Gap", "PI"],
        volume=20.0,
        lams=lams,
    )
    clo = generate_M(ms, 4, 2)
    assert len(clo) == 3
    # the gap column's cap is 1, so one particle there shares the radix
    # weight of -q: moving -q into the gap keys each row onto itself
    assert np.array_equal(clo.shift({2: 1, 3: -1}), [-1, -1, -1])
    # five condensate particles out, one into +q: the key of every row again
    assert np.array_equal(clo.shift({0: -5, 1: 1}), [-1, -1, -1])
    assert np.array_equal(clo.shift({0: -2, 1: 1, 3: 1}), [1, 2, -1])
    assert np.array_equal(clo.shift({}), [0, 1, 2])


def test_shift_memo_shares_one_read_only_array():
    case = toy_by_name("soft-coincidence")
    clo = generate_M(case.mode_set, case.n, case.m_c)
    z = clo.mode_set.zero_index
    u = clo.mode_set.nonzero_indices()[0]
    nu = clo.mode_set.neg_index(u)
    first = clo.shift({z: -2, u: 1, nu: 1})
    # the same move in another key order, with zero entries, or as a Counter
    assert clo.shift({nu: 1, u: 1, z: -2}) is first
    spare = [j for j in range(len(clo.mode_set)) if j not in (z, u, nu)]
    assert clo.shift({u: 1, spare[0]: 0, z: -2, nu: 1, spare[1]: 0}) is first
    assert clo.shift(Counter({nu: 1, z: -2, u: 1})) is first
    assert np.array_equal(first, _shift_reference(clo, {z: -2, u: 1, nu: 1}))
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0] = 0
    assert clo.shift({}) is clo.shift({u: 0})
    assert clo.shift({z: 2, u: -1, nu: -1}) is not first
    # the memo belongs to its closure: a fresh one computes its own array
    fresh = ClosureSet(clo.mode_set, clo.n, clo.m_c, clo.counts_matrix())
    again = fresh.shift({z: -2, u: 1, nu: 1})
    assert again is not first
    assert np.array_equal(again, first)


def test_radix_past_62_bits_raises_budget_exceeded():
    # 32 modes each holding 3 particles: the radix is 4^32 = 2^64
    ms = ModeSet.toy(
        [(float(i), 0.0, 0.0) for i in range(-15, 17)],
        ["P0" if i == 0 else "PH" for i in range(-15, 17)],
        volume=10.0,
        lams=[None if i == 0 else -0.1 for i in range(-15, 17)],
    )
    clo = ClosureSet(ms, 96, 2, [(3,) * 32])
    with pytest.raises(BudgetExceeded):
        clo.shift({ms.zero_index: -2, 1: 1, ms.neg_index(1): 1})
    trial = WeightedTrialState(clo, np.ones(1, dtype=complex), 0.0)
    with pytest.raises(BudgetExceeded):
        weight_recursion_report(trial)


def test_closure_budget_guard():
    case = toy_by_name("soft-coincidence")
    with pytest.raises(BudgetExceeded):
        generate_M(case.mode_set, case.n, case.m_c, budget=5)


def test_closure_budget_bounds_allocation():
    # 40 outer pairs, N = 20: levels 0-2 hold 861 states, level 3 would add
    # 11480 from 32800 candidate rows; the budget of 1000 must stop the
    # generator at a few budgets' worth of rows, not a whole level's
    ms = _outer_pairs(40)
    budget = 1000
    row_bytes = 8 * len(ms)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            generate_M(ms, 20, 2, budget=budget)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * budget * row_bytes


# ---------------------------------------------------------------- weights


def test_free_weight_closed_form(toy_trials):
    # f(free)/C_N = sqrt(|Lambda|^N / N!)
    for _, trial in toy_trials.values():
        vol = trial.mode_set.volume
        n = trial.closure.n
        expect = 0.5 * (n * math.log(vol) - math.lgamma(n + 1))
        w_free = trial.weights[0]
        got = math.log(abs(complex(w_free))) - trial.log_c_n
        assert math.isclose(got, expect, rel_tol=1e-12)


def test_weights_are_normalized_and_real(toy_trials):
    for _, trial in toy_trials.values():
        assert math.isclose(float(np.sum(np.abs(trial.weights) ** 2)), 1.0, rel_tol=1e-12)
        # negative-lambda phases land on the real axis pairwise
        assert float(np.max(np.abs(trial.weights.imag))) == 0.0


def test_weight_requires_lambda_on_occupied_modes():
    # log|lambda| needs a finite nonzero value, on an outer pair and on a low
    # pair, whose star factor takes it too
    for label in ("PI", "PL"):
        for lam in (None, 0.0, -0.0, math.inf, -math.inf):
            ms = _pair_set(label, lam=lam)
            clo = generate_M(ms, 4, 2)
            with pytest.raises(RegionUndefined):
                weight_f(clo)


def _weight_f_reference(closure, lams, volume):
    """The closed-form weights evaluated state by state, term by term."""
    ms = closure.mode_set
    z = ms.zero_index
    lam_arr = np.array([math.nan if v is None else float(v) for v in lams])
    low = ms.indices_in(Region.PL)
    log_mag = np.empty(len(closure))
    i_pow = np.zeros(len(closure), dtype=np.int64)
    for s_i, c in enumerate(closure.counts_matrix().tolist()):
        lm = 0.5 * (c[z] * math.log(volume) - math.lgamma(c[z] + 1))
        ip = 0
        for i, occ in enumerate(c):
            if i == z or occ == 0:
                continue
            lam = lam_arr[i]
            lm += occ * 0.5 * math.log(abs(lam))
            if lam < 0.0:
                ip += occ
        for u in low:
            j = ms.neg_index(u)
            star = max(c[u], c[j] if j is not None else 0)
            if star - c[u] == 1:
                lam = lam_arr[u]
                lm += 0.5 * math.log(4.0 * star * abs(lam) / volume)
                if lam < 0.0:
                    ip += 1
        log_mag[s_i] = lm
        i_pow[s_i] = ip
    shift = float(np.max(log_mag))
    mags = np.exp(log_mag - shift)
    norm = math.sqrt(float(np.sum(mags**2)))
    return mags * 1j ** (i_pow % 4) / norm, -(shift + math.log(norm))


def _recursion_reference(state, lams):
    """The five recursion checks, state by state through strict_pair_create
    and a dict of count tuples."""
    closure = state.closure
    ms = state.mode_set
    vol = ms.volume
    z = ms.zero_index
    members = closure_members(closure)
    index = {alpha.counts: i for i, alpha in enumerate(members)}
    err = dict.fromkeys(_RECURSION_NAMES, 0.0)
    cnt = dict.fromkeys(_RECURSION_NAMES, 0)
    low = ms.indices_in(Region.PL)
    high = ms.indices_in(Region.PH)

    def record(name, expected, s_from, s_to):
        f_from = state.weights[s_from]
        f_to = state.weights[s_to]
        resid = abs(f_to - expected * f_from)
        scale = max(abs(f_to), abs(f_from), 1e-300)
        err[name] = max(err[name], resid / scale)
        cnt[name] += 1

    for s_i, alpha in enumerate(members):
        c = alpha.counts
        a0 = c[z]
        for m in ms:
            k = m.index
            j = ms.neg_index(k)
            if k == z or j is None or k > j:
                continue
            if m.region not in (Region.PI, Region.PH, Region.PL):
                continue
            beta = strict_pair_create(ms, alpha, k)
            t_i = None if beta is None else index.get(beta.counts)
            if t_i is None:
                continue
            base = math.sqrt(a0 * (a0 - 1)) / vol * float(lams[k])
            if m.region in (Region.PI, Region.PH):
                record("strict_outer", base, s_i, t_i)
            elif c[k] == c[j]:
                record("strict_low_symmetric", base, s_i, t_i)
            else:
                star = max(c[k], c[j])
                record("strict_low_asymmetric", base * math.sqrt((star + 1) / star), s_i, t_i)
        if a0 < 1:
            continue
        for u in low:
            if c[u] < 1:
                continue
            for i in high:
                j = ms.index_of(ms.modes[u].p - ms.modes[i].p)
                if j is None or j < i or j not in high:
                    continue
                nc = list(c)
                nc[z] -= 1
                nc[u] -= 1
                nc[i] += 1
                nc[j] += 1
                t_i = index.get(tuple(nc))
                if t_i is None:
                    continue
                root = _sqrt_signed(float(lams[i])) * _sqrt_signed(float(lams[j]))
                nu = ms.neg_index(u)
                if nu is not None and c[u] == c[nu]:
                    expected = 2.0 * math.sqrt(a0 * c[u]) / vol * root
                    record("soft_symmetric", expected, s_i, t_i)
                else:
                    lam_u = float(lams[u])
                    expected = root / (2.0 * lam_u) * math.sqrt(a0 / vol) * math.sqrt(vol / c[u])
                    record("soft_asymmetric", expected, s_i, t_i)
    return {"max_rel_error": err, "pairs": cnt}


def _sqrt_signed(x):
    return complex(math.sqrt(x)) if x >= 0.0 else complex(0.0, math.sqrt(-x))


def test_weights_match_state_by_state_reference(toy_trials):
    for name, (case, trial) in toy_trials.items():
        lams = [m.lam for m in case.mode_set]
        weights, log_c_n = _weight_f_reference(trial.closure, lams, case.mode_set.volume)
        assert trial.weights.tobytes() == weights.tobytes(), name
        assert trial.log_c_n == log_c_n, name


def test_recursion_report_matches_state_by_state_reference(toy_trials):
    for name, (_, trial) in toy_trials.items():
        lams = [m.lam for m in trial.mode_set]
        assert weight_recursion_report(trial) == _recursion_reference(trial, lams), name


def test_recursion_identities_all_toys(toy_trials):
    """The five defining ratios of f hold to 1e-12 on every builtin toy."""
    for name, (_, trial) in toy_trials.items():
        rep = weight_recursion_report(trial)
        for kind, err in rep["max_rel_error"].items():
            assert err <= 1e-12, (name, kind, err)


def test_recursion_pair_coverage():
    # the coincidence toy exercises every recursion branch; pin the counts
    case = toy_by_name("soft-coincidence")
    trial = build_trial(case)
    rep = weight_recursion_report(trial)
    assert set(rep["pairs"]) == set(_RECURSION_NAMES)
    assert rep["pairs"] == {
        "strict_outer": 24,
        "strict_low_symmetric": 9,
        "strict_low_asymmetric": 2,
        "soft_symmetric": 8,
        "soft_asymmetric": 8,
    }


def test_export_closure_round_trip():
    case = toy_by_name("pi-pair")
    trial = build_trial(case)
    text = export_closure(trial)
    lines = [ln for ln in text.strip().split("\n") if ln]
    assert len(lines) == len(trial.closure)
    probs = [float(ln.split("|f|2=")[1].split()[0]) for ln in lines]
    assert math.isclose(sum(probs), 1.0, rel_tol=1e-10)
    # stable ordering: exporting twice gives identical bytes
    assert text == export_closure(trial)


def _export_reference(state):
    """export_closure by a Python sort of each row's (j, c) tuple key."""
    w = state.weights
    probs = np.abs(w) ** 2
    quadrants = np.where(probs > 0, np.round(np.angle(w) / (math.pi / 2)).astype(np.int64) % 4, 0)
    rows = []
    for counts, prob, quadrant in zip(
        state.closure.counts_matrix().tolist(), probs.tolist(), quadrants.tolist()
    ):
        key = tuple((j, c) for j, c in enumerate(counts) if c)
        text = ";".join(f"{j},{c}" for j, c in key)
        rows.append((key, f"{text} |f|2={prob:.12e} phase={quadrant}"))
    rows.sort(key=lambda r: r[0])
    return "\n".join(r[1] for r in rows) + "\n"


def _row_keys(closure):
    return [tuple((j, c) for j, c in enumerate(r) if c) for r in closure.counts_matrix().tolist()]


def test_export_matches_tuple_sort_reference(toy_trials):
    for name, (_, trial) in toy_trials.items():
        assert export_closure(trial) == _export_reference(trial), name


def test_export_sorts_rows_out_of_key_order():
    # soft-coincidence at N = 30 with its axes signed and permuted and its
    # modes listed in a shuffled order, the zero mode among them
    case = toy_by_name("soft-coincidence")
    ms = case.mode_set
    rng = np.random.default_rng(11)
    axes = rng.permutation(3)
    signs = rng.choice([-1.0, 1.0], 3)
    lines = rng.permutation(len(ms))
    modes = [ms.modes[i] for i in lines]
    shuffled = ModeSet.toy(
        [m.p[axes] * signs for m in modes],
        [m.region for m in modes],
        volume=ms.volume,
        lams=[m.lam for m in modes],
    )
    assert shuffled.zero_index != 0
    trial = weight_f(generate_M(shuffled, 30, case.m_c))
    keys = _row_keys(trial.closure)
    assert keys != sorted(keys)
    assert export_closure(trial) == _export_reference(trial)


def test_export_prefix_key_sorts_first():
    # (2, 0, 0) keys as ((0, 2),), a prefix of (2, 1, 0)'s ((0, 2), (1, 1)),
    # and sorts before it as the shorter tuple does; (2, 0, 1) follows both
    ms = ModeSet.toy(
        [(0.0, 0.0, 0.0), (0.75, 0.0, 0.0), (-0.75, 0.0, 0.0)],
        ["P0", "PI", "PI"],
        volume=20.0,
        lams=[None, -0.4, -0.4],
    )
    rows = [(2, 0, 1), (2, 1, 0), (0, 3, 0), (2, 0, 0), (0, 0, 3)]
    trial = WeightedTrialState(
        ClosureSet(ms, 3, 2, rows), np.full(5, 1.0 / math.sqrt(5.0), dtype=complex), 0.0
    )
    text = export_closure(trial)
    assert text == _export_reference(trial)
    assert [ln.split()[0] for ln in text.splitlines()] == ["0,2", "0,2;1,1", "0,2;2,1", "1,3", "2,3"]
