"""Exact particle-number statistics and energy expectations on trial states.

Everything here is an exact finite sum over the closure set, evaluated two
independent ways:

  * component path — the interaction splits into five pieces by the shape of
    the conserving quadruple (v1, v2, v3, v4), v1+v2 = v3+v4:

      same multiset {v1,v2} = {v3,v4}          -> HS1  (diagonal)
      {v1,v2} or {v3,v4} = {0,0}               -> HS2  (condensate <-> pair)
      both sides are +-pairs, different        -> HS3  (pair <-> pair)
      exactly one zero leg                     -> HA1
      anything else                            -> HA2

    Each non-diagonal term is summed once per source state: the target
    occupancy is forced, so the double sum over states collapses.

  * brute-force path — the raw sum (1/|L|) sum_{p,q,u} V_u a+_p a+_q
    a_{p-u} a_{q+u}, enumerated directly over ordered (p, q, p-u) triples.

Both paths find the fourth leg of a quadruple through `ModeSet.conserving`,
on the mode set's lattice step; no momentum is summed here.

The two paths share one quartic-operator applicator,
`ClosureSet.apply_quartic`, which maps every member state at once through
occupancy shifts and the closure's one member lookup, `ClosureSet.shift`.
The lookup computes each move once per closure and hands every later caller
the same read-only array, so the two routes, P(u,v) and the recursion
verifier share one lookup per move; the memo is freed with its closure.
What they keep apart are their term lists: the component table of
`_component_terms` against the raw (p, q, u) triples.  Their agreement
(decomposition residual) is the module's own oracle; `matrix_element` stays
the scalar reference the tests hold the applicator to.  Component sums run
left to right in (term, state) order, so their floating-point results do not
depend on the vectorization.

Both paths index one coupling table per mode set, `coupling_matrix`: V at
every transfer |p_i - p_j|, each magnitude rounded to 12 decimals before V
is sampled.  `expect_component` returns any of the six pieces, complex.

Q_Psi statistics follow the three query forms (plain product moments,
occupancy probabilities, conditional moments); the reports read two
per-state tables, `mean_occupancies` (every Q_Psi(u)) and
`occupancy_distribution` (Q({u,m}) of one mode over the counts it holds),
each bit-equal to its query.  P(u,v) gives the pair-to-pair correlator in
closed form over creation preimages, found through the same member lookup.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigInvalid, ZeroConditionProbability
from .fock import OccupationState, WeightedTrialState
from .lattice import ModeSet, Region

__all__ = [
    "coupling_matrix",
    "matrix_element",
    "q_psi",
    "q_psi_occupation",
    "q_psi_conditional",
    "mean_occupancies",
    "occupancy_distribution",
    "expect_component",
    "brute_force_energy",
    "energy_report",
    "p_uv",
    "pair_correlator_check",
    "occupation_ratio_report",
    "pl_occupation_monotonicity",
    "statistics_report",
    "COMPONENTS",
]

COMPONENTS = ("kinetic", "HS1", "HS2", "HS3", "HA1", "HA2")

# _left_sum adds this many rows per block
_SUM_ROWS = 4096


def coupling_matrix(v_of: Callable[[float], float], mode_set: ModeSet) -> np.ndarray:
    """(n, n) table of V at every momentum transfer |p_i - p_j| of the mode set.

    Each magnitude is rounded to 12 decimals before V is sampled; the
    diagonal is V_0.
    """
    p = mode_set.momentum_matrix()
    table = np.empty((len(p), len(p)))
    for i in range(len(p)):
        for j in range(i, len(p)):
            table[i, j] = table[j, i] = float(v_of(round(float(np.linalg.norm(p[i] - p[j])), 12)))
    return table


def matrix_element(
    mode_set: ModeSet,
    beta: OccupationState,
    quad: Sequence[int],
    alpha: OccupationState,
) -> float:
    """<beta| a+_{u1} a+_{u2} a_{u3} a_{u4} |alpha> with explicit sqrt(n) steps.

    quad holds the four mode indices (u1, u2, u3, u4).  The amplitude is
    accumulated operator by operator on a working copy of the occupancy, so
    coinciding legs need no special cases.
    """
    u1, u2, u3, u4 = quad
    c = list(alpha.counts)
    amp2 = c[u4]
    if amp2 == 0:
        return 0.0
    c[u4] -= 1
    amp2 *= c[u3]
    if amp2 == 0:
        return 0.0
    c[u3] -= 1
    c[u2] += 1
    amp2 *= c[u2]
    c[u1] += 1
    amp2 *= c[u1]
    if tuple(c) != beta.counts:
        return 0.0
    return math.sqrt(amp2)


def _left_sum(values: np.ndarray, start=0.0):
    """Sum along axis 0 strictly left to right, beginning at `start`.

    Bitwise equal to a Python `total += x` loop, unlike the pairwise np.sum.
    The rows are added _SUM_ROWS at a time, each block's running total
    carried into the next, so no copy longer than a block is made; an empty
    `values` still passes through one (empty) block, which gives the result
    its promoted dtype.
    """
    carry = np.full((1,) + values.shape[1:], start)
    for lo in range(0, max(len(values), 1), _SUM_ROWS):
        carry = np.add.accumulate(np.concatenate((carry, values[lo : lo + _SUM_ROWS])))[-1:]
    return carry[0]


def q_psi(state: WeightedTrialState, momenta: Sequence[int]) -> float:
    """Expectation of the product of occupation numbers at the given modes."""
    counts = state.closure.counts_matrix()
    prod = np.ones(len(counts))
    for u in momenta:
        prod *= counts[:, u]
    return float(_left_sum(prod * state.probabilities()))


def _condition_mask(state: WeightedTrialState, pairs) -> np.ndarray:
    mask = np.ones(len(state.closure), dtype=bool)
    counts = state.closure.counts_matrix()
    for u, m in pairs:
        mask &= counts[:, u] == m
    return mask


def q_psi_occupation(state: WeightedTrialState, pairs: Sequence[tuple]) -> float:
    """Probability that mode u_i holds exactly m_i particles for every pair."""
    return float(np.sum(state.probabilities()[_condition_mask(state, pairs)]))


def q_psi_conditional(
    state: WeightedTrialState, momenta: Sequence[int], pairs: Sequence[tuple]
) -> float:
    """Conditional product moment given exact occupancies elsewhere."""
    probs = state.probabilities()
    mask = _condition_mask(state, pairs)
    denom = float(np.sum(probs[mask]))
    if denom == 0.0:
        raise ZeroConditionProbability(f"no member state satisfies {pairs}")
    counts = state.closure.counts_matrix()
    num = probs[mask].copy()
    for u in momenta:
        num *= counts[mask, u]
    return float(np.sum(num)) / denom


def mean_occupancies(state: WeightedTrialState) -> np.ndarray:
    """Q_Psi(u) for every mode u, each summed state by state like `q_psi`."""
    return _left_sum(state.closure.counts_matrix() * state.probabilities()[:, None])


def occupancy_distribution(state: WeightedTrialState, u: int) -> tuple[int, np.ndarray]:
    """(lo, q): q[i] = Q({u,lo+i}) = `q_psi_occupation(state, [(u, lo+i)])` for
    lo+i from one below the least count column u holds to one above the
    largest, clipped to 0..N; every other count's Q is 0.0.

    A stable sort lines each held count's states up in row order, so each
    segment is the array that mask sums, and np.sum rounds it the same way;
    the other entries are the 0.0 an empty mask sums to.
    """
    col = state.closure.counts_matrix()[:, u]
    order = np.argsort(col, kind="stable")
    probs = state.probabilities()[order]
    held, starts, sizes = np.unique(col[order], return_index=True, return_counts=True)
    lo = max(int(held[0]) - 1, 0)
    q = np.zeros(min(int(held[-1]) + 1, state.closure.n) - lo + 1)
    for m, a, k in zip(held.tolist(), starts.tolist(), sizes.tolist()):
        q[m - lo] = np.sum(probs[a : a + k])
    return lo, q


def _kinetic(state: WeightedTrialState) -> float:
    """sum_u |u|^2 Q_Psi(u), each mean occupancy summed state by state."""
    means = mean_occupancies(state)
    total = 0.0
    for m in state.mode_set:
        mag2 = float(m.p @ m.p)
        if mag2 > 0.0:
            total += mag2 * float(means[m.index])
    return total


def _diagonal_interaction(state: WeightedTrialState, coupling: np.ndarray) -> float:
    """Same-multiset part: V0 sum n(n-1) + sum_{u != v} (V_{u-v} + V0) n_u n_v."""
    v0 = coupling[0, 0]
    counts = state.closure.counts_matrix().astype(float)
    same = np.sum(counts * (counts - 1.0), axis=1)
    cross = np.einsum("si,ij,sj->s", counts, coupling, counts) - np.einsum(
        "si,si->s", counts, counts
    ) * v0
    ntot = np.sum(counts, axis=1)
    cross += v0 * (ntot**2 - np.einsum("si,si->s", counts, counts))
    return float(np.dot(state.probabilities(), v0 * same + cross)) / state.mode_set.volume


def _sum_quadruples(state: WeightedTrialState, terms) -> complex:
    """sum_alpha f(T(alpha))^* f(alpha) <T(alpha)|op|alpha> over given terms.

    terms is an iterable of (quad, coefficient); the target occupancy per
    source state is unique, so membership lookup replaces the inner sum.
    Each term's contributions join the running total left to right, so one
    term's array is the most that is held at once.
    """
    w = state.weights
    total = 0.0 + 0.0j
    for quad, coeff in terms:
        src, dst, amp = state.closure.apply_quartic(*quad)
        total = _left_sum(coeff * np.conj(w[dst]) * w[src] * amp, total)
    return total


def _component_terms(state: WeightedTrialState, coupling: np.ndarray, component: str):
    """Ordered quadruple terms (indices, V coefficient / |L|) for one piece."""
    ms = state.mode_set
    vol = ms.volume
    z = ms.zero_index
    nz = ms.nonzero_indices()
    terms = []
    if component == "HS2":
        for u in nz:
            j = ms.neg_index(u)
            if j is None:
                continue
            vu = coupling[u, z] / vol
            terms.append(((u, j, z, z), vu))
            terms.append(((z, z, u, j), vu))
    elif component == "HS3":
        for u in nz:
            nu = ms.neg_index(u)
            if nu is None:
                continue
            for v in nz:
                if v == u or v == nu:
                    continue
                nv = ms.neg_index(v)
                if nv is None:
                    continue
                terms.append(((u, nu, v, nv), coupling[u, v] / vol))
    elif component == "HA1":
        for v2 in nz:
            for v3 in nz:
                v1 = ms.conserving(v2, v3, z)
                if v1 is None or v1 == z:
                    continue
                coeff = 2.0 * coupling[v2, z] / vol
                terms.append(((z, v1, v2, v3), coeff))
                terms.append(((v3, v2, v1, z), coeff))
    elif component == "HA2":
        for v1 in nz:
            for v2 in nz:
                if ms.neg_index(v1) == v2:
                    continue
                for v3 in nz:
                    v4 = ms.conserving(v1, v2, v3)
                    if v4 is None or v4 == z:
                        continue
                    if sorted((v1, v2)) == sorted((v3, v4)):
                        continue
                    terms.append(((v1, v2, v3, v4), coupling[v1, v3] / vol))
    else:
        raise ValueError(f"unknown component {component!r}")
    return terms


def expect_component(
    state: WeightedTrialState, component: str, coupling: np.ndarray
) -> complex:
    """Exact expectation of one Hamiltonian piece; its imaginary part must wash out."""
    if component == "kinetic":
        return complex(_kinetic(state))
    if component == "HS1":
        return complex(_diagonal_interaction(state, coupling))
    return _sum_quadruples(state, _component_terms(state, coupling, component))


def brute_force_energy(state: WeightedTrialState, coupling: np.ndarray) -> float:
    """<H> from the raw (p, q, u) interaction sum plus the kinetic term.

    Deliberately organized unlike the component path: enumerate ordered
    (p, q, p-u) mode triples, resolve q+u by conservation, and sum each
    term's elements at once.  Creators commute, and so do annihilators:
    triples that differ by swapping j1 with j2 or j3 with j4 apply one
    operator, so each such class's element sum is evaluated once per call
    and weighted by each triple's own V_u.
    """
    ms = state.mode_set
    closure = state.closure
    vol = ms.volume
    counts = closure.counts_matrix()
    w = state.weights
    probs_c = np.conj(w)

    total = 0.0 + 0.0j
    n_modes = len(ms)
    sums = {}
    for j1 in range(n_modes):
        for j2 in range(n_modes):
            for j3 in range(n_modes):
                j4 = ms.conserving(j1, j2, j3)
                if j4 is None:
                    continue
                vu = coupling[j1, j3]
                key = (min(j1, j2), max(j1, j2), min(j3, j4), max(j3, j4))
                if key not in sums:
                    src, dst, amp = closure.apply_quartic(j1, j2, j3, j4)
                    sums[key] = np.sum(probs_c[dst] * w[src] * amp) if len(src) else None
                if sums[key] is None:
                    continue
                total += (vu / vol) * sums[key]

    kin = 0.0
    probs = state.probabilities()
    for m in ms:
        mag2 = float(m.p @ m.p)
        if mag2 > 0.0:
            kin += mag2 * float(np.dot(probs, counts[:, m.index]))
    return kin + float(total.real)


def energy_report(state: WeightedTrialState, coupling: np.ndarray) -> dict:
    """Per-component energies next to the independent whole-sum cross-check.

    Keys: the `COMPONENTS`, then total, brute_force_total, the relative
    decomposition_residual between the two, and the largest imag_residue.
    A sum that leaves the doubles raises ConfigInvalid naming N and the sum:
    numpy's overflow raises inside the sums, and the Python-float sums, which
    overflow to inf silently, are checked for finiteness after them.
    """
    parts = {}
    imag = 0.0
    n = state.closure.n
    try:
        with np.errstate(over="raise", invalid="raise"):
            for summing in COMPONENTS:
                val = expect_component(state, summing, coupling)
                parts[summing] = float(val.real)
                imag = max(imag, abs(float(val.imag)))
            summing = "brute force"
            brute = brute_force_energy(state, coupling)
    except FloatingPointError as exc:
        raise ConfigInvalid(f"N = {n}: the {summing} sum leaves the doubles ({exc})") from exc
    total = sum(parts.values())
    energies = {**parts, "total": total, "brute_force_total": brute}
    past = [name for name, value in energies.items() if not math.isfinite(value)]
    if past:
        raise ConfigInvalid(f"N = {n}: the energy sums {', '.join(past)} leave the doubles")
    scale = max(abs(total), abs(brute), 1e-300)
    return {
        **energies,
        "decomposition_residual": abs(total - brute) / scale,
        "imag_residue": imag,
    }


def p_uv(state: WeightedTrialState, u_idx: int, v_idx: int) -> complex:
    """Pair correlator via creation preimages:

    P(u, v) = sum_g f(A^u g) f(A^v g)
              sqrt((g(u)+1)(g(-u)+1)(g(v)+1)(g(-v)+1)),

    with f vanishing outside the closure.  No conjugation appears; for the
    trial states here f is real, and the pair_correlator_check compares
    against the raw <a+_u a+_{-u} a_v a_{-v}> evaluation.
    """
    ms = state.mode_set
    z = ms.zero_index
    if u_idx == z or v_idx == z or u_idx == v_idx:
        raise ValueError("need distinct nonzero momenta")
    nu = ms.neg_index(u_idx)
    nv = ms.neg_index(v_idx)
    if nu is None or nv is None:
        return 0.0 + 0.0j  # no strict pair exists at an unpaired momentum
    closure = state.closure
    to_u = closure.shift({z: -2, u_idx: 1, nu: 1})
    to_v = closure.shift({z: -2, v_idx: 1, nv: 1})
    rows = np.flatnonzero((to_u >= 0) & (to_v >= 0))
    fu = state.weights[to_u[rows]]
    fv = state.weights[to_v[rows]]
    keep = (fu != 0.0) & (fv != 0.0)
    c = closure.counts_matrix()[rows[keep]] + 1
    # in floats, exact below 2^53: in int64 the product wraps once the counts pass 55,108
    root = np.sqrt(c[:, u_idx] * c[:, nu] * (c[:, v_idx] * c[:, nv].astype(float)))
    return _left_sum(fu[keep] * fv[keep] * root, 0.0 + 0.0j)


def pair_correlator_check(state: WeightedTrialState, u_idx: int, v_idx: int) -> dict:
    """P(u,v) next to the direct <a+_u a+_{-u} a_v a_{-v}> sum.

    The two agree exactly when either momentum sits at or below the
    intermediate region; for two high momenta only the measured gap is
    reported.  At an unpaired momentum (no -u or no -v in the mode set) the
    annihilator has no mode to act on, so both sides are 0.
    """
    ms = state.mode_set
    closed = p_uv(state, u_idx, v_idx)
    nu = ms.neg_index(u_idx)
    nv = ms.neg_index(v_idx)
    if nu is None or nv is None:
        direct = 0.0 + 0.0j
    else:
        direct = _sum_quadruples(state, [((u_idx, nu, v_idx, nv), 1.0)])
    regions = (ms.modes[u_idx].region, ms.modes[v_idx].region)
    exact_case = any(r in (Region.PL, Region.PI) for r in regions)
    return {
        "p_uv": closed,
        "direct": direct,
        "abs_gap": abs(direct - closed),
        "exact_case": exact_case,
    }


def _power(x: float, k: int) -> float:
    """x**k in Python floats for x >= 0 or k even, and inf where it leaves the
    doubles: an infinite right side is a bound that holds."""
    try:
        return x**k
    except OverflowError:
        return math.inf


def occupation_ratio_report(state: WeightedTrialState, u_idx: int, lam_u: float) -> dict:
    """Geometric occupancy decay at an intermediate mode.

    The bound is Q({u,m}) <= r^(2i) Q({u,m-i}) for all m >= i >= 1, with
    r = lam_u rho and rho = N / |L| from the state; the underlying argument
    needs only that no state holds more than N condensate particles, so it
    is exact at any scale.  Only the adjacent steps Q({u,m}) <= r^2 Q({u,m-1}),
    m = 1 .. N, are checked: every term is >= 0, so multiplying the i steps
    from m - i + 1 to m gives the bound at (m, i), and the N steps decide it.
    An r^2 past the largest double is taken as inf, a bound that holds.
    worst_ratio is the largest Q({u,m}) / (r^2 Q({u,m-1})), None when no
    step has a positive right side.
    """
    n = state.closure.n
    rho = n / state.mode_set.volume
    _, q = occupancy_distribution(state, u_idx)
    lhs, prior = q[1:], q[:-1]
    # r^2 Q is 0 where Q is, even where r^2 is too large for a double
    rhs = np.zeros_like(prior)
    np.multiply(_power(lam_u * rho, 2), prior, out=rhs, where=prior != 0.0)
    ok = not np.any(lhs > rhs + 1e-15 * np.maximum(1.0, np.abs(rhs)))
    ratios = lhs[rhs > 0] / rhs[rhs > 0]
    worst = float(np.max(ratios)) if len(ratios) else None
    return {"holds": ok, "worst_ratio": worst}


def pl_occupation_monotonicity(state: WeightedTrialState, u_idx: int) -> dict:
    """Occupancy-probability monotonicity at a low mode, under its hypothesis.

    The decrease of Q({u,m}) in m is only guaranteed when
    rho^2 lam_u^2 (1 + c m_c rho / eps_H) < 1, here with the constant c = 1
    and eps_H = 1; rho = N / |L|, m_c and lam_u are read from the state.
    Whether the hypothesis holds is returned beside the verdict, so callers
    can skip rather than fail when it does not apply.
    """
    closure = state.closure
    ms = state.mode_set
    rho = closure.n / ms.volume
    lam_u = ms.modes[u_idx].lam
    # a square past the largest double is inf: a hypothesis that does not hold
    hyp = _power(rho, 2) * _power(lam_u, 2) * (1.0 + closure.m_c * rho)
    _, probs = occupancy_distribution(state, u_idx)
    monotone = bool(np.all(probs[1:] <= probs[:-1] + 1e-15))
    return {"hypothesis_holds": hyp < 1.0, "monotone": monotone}


def statistics_report(state: WeightedTrialState, g0: float) -> dict:
    """Report-only comparison of finite-instance totals with their rho -> 0 targets.

    The scaled occupancy totals per region converge only asymptotically, so
    the measured values and the limiting targets are recorded side by side
    without assertion.  rho = N / |L| is read from the state.
    """
    ms = state.mode_set
    vol = ms.volume
    rho = state.closure.n / vol
    means = mean_occupancies(state).tolist()
    by_region = {
        reg.value: sum(means[i] for i in ms.indices_in(reg))
        for reg in (Region.PL, Region.PI, Region.PH)
    }
    scaled_low = by_region["PL"] / (rho**1.5 * vol)
    scaled_outer = (by_region["PI"] + by_region["PH"]) / (rho**1.5 * vol)
    condensate = means[ms.zero_index]
    return {
        "condensate_mean": condensate,
        "condensate_fraction": condensate / state.closure.n if state.closure.n else 1.0,
        "occupancy_by_region": by_region,
        "scaled_low_total": scaled_low,
        "scaled_low_target": g0**1.5 / (3.0 * math.pi**2),
        "scaled_outer_total": scaled_outer,
        "scaled_outer_target": 0.0,
    }
