"""Occupation states, pair creations, the closure set, and trial-state weights.

A state is a tuple of occupation counts aligned with a ModeSet.  Two partial
maps act on states:

    strict pair creation at k:   (0: -2, +k: +1, -k: +1)
    soft pair creation (u; k):   (0: -1,  u: -1, u/2+k: +1, u/2-k: +1)

The closure set M is the smallest family containing the all-condensate state
and closed under (i) strict creation at any intermediate/high mode, (ii)
strict creation at a low mode while max(n(u), n(-u)) < m_c, and (iii) soft
creation out of a low mode with symmetric occupancy, both produced momenta
landing in the high region (which, on a truncated mode set, already encodes
the magnitude window up to the cutoff).

Each member state carries the weight

    f(a) = C_N sqrt(|L|^a(0) / a(0)!) prod_{k!=0} (sqrt(lam_k))^a(k)
           prod_{u low, a*(u)-a(u)=1} sqrt(4 a*(u) lam_u / |L|)

with the convention sqrt(x) = i sqrt(|x|) for x < 0 and a*(u) =
max(a(u), a(-u)).  All lam in use are negative, and every reachable state
turns out to carry an even power of i, so the weights are real (possibly
negative); we keep them complex to let that be a theorem of the tests rather
than an assumption of the code.  Five exact recursion identities relate f
across creations; `weight_recursion_report` verifies all of them by
exhaustive scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import BudgetExceeded, RegionUndefined
from .lattice import ModeSet, Region

__all__ = [
    "OccupationState",
    "free_state",
    "strict_pair_create",
    "soft_pair_create",
    "ClosureSet",
    "generate_M",
    "WeightedTrialState",
    "weight_f",
    "weight_recursion_report",
    "export_closure",
]


@dataclass(frozen=True)
class OccupationState:
    """Occupation counts over a ModeSet's mode indices; total is conserved."""

    counts: tuple

    def __post_init__(self):
        if any(c < 0 for c in self.counts):
            raise ValueError("negative occupation")

    @property
    def n(self) -> int:
        return sum(self.counts)

    def occupancy(self, idx: int) -> int:
        return self.counts[idx]

    def sparse_key(self) -> tuple:
        """Canonical (index, count) pairs with zero entries dropped."""
        return tuple((i, c) for i, c in enumerate(self.counts) if c)

    def total_momentum(self, mode_set: ModeSet) -> np.ndarray:
        out = np.zeros(3)
        for i, c in enumerate(self.counts):
            if c:
                out += c * mode_set.modes[i].p
        return out


def free_state(mode_set: ModeSet, n: int) -> OccupationState:
    counts = [0] * len(mode_set)
    counts[mode_set.zero_index] = n
    return OccupationState(tuple(counts))


def strict_pair_create(mode_set: ModeSet, state: OccupationState, k_idx: int):
    """Move two condensate particles into +-k; None when that is impossible."""
    if k_idx == mode_set.zero_index:
        raise ValueError("strict creation needs a nonzero momentum")
    j = mode_set.neg_index(k_idx)
    if j is None:
        return None
    z = mode_set.zero_index
    if state.counts[z] < 2:
        return None
    c = list(state.counts)
    c[z] -= 2
    c[k_idx] += 1
    c[j] += 1
    return OccupationState(tuple(c))


def soft_pair_create(mode_set: ModeSet, state: OccupationState, u_idx: int, half_diff):
    """Turn one condensate particle and one at u into a pair at u/2 +- k.

    `half_diff` is the half-difference vector k; it need not itself be a
    lattice vector, only the two produced momenta must.  Returns None when a
    produced momentum is off the set or an occupancy would go negative.
    """
    u_mode = mode_set.modes[u_idx]
    if u_mode.region is not Region.PL:
        raise ValueError("soft creation consumes a low-region momentum")
    k = np.asarray(half_diff, dtype=float)
    i_plus = mode_set.index_of(u_mode.p / 2.0 + k)
    i_minus = mode_set.index_of(u_mode.p / 2.0 - k)
    if i_plus is None or i_minus is None:
        return None
    z = mode_set.zero_index
    if state.counts[z] < 1 or state.counts[u_idx] < 1:
        return None
    if u_idx in (i_plus, i_minus):
        # the produced momenta sit strictly above the low region, so a
        # collision with u itself means the caller passed a bad half-diff
        return None
    c = list(state.counts)
    c[z] -= 1
    c[u_idx] -= 1
    c[i_plus] += 1
    c[i_minus] += 1
    return OccupationState(tuple(c))


class ClosureSet:
    """The generated family M with per-state parent/op lineage.

    ops[i] is None for the root, ("strict", k_idx) or ("soft", u_idx,
    plus_idx, minus_idx) otherwise; parents[i] indexes the state the op was
    applied to.  Insertion order is deterministic (breadth first, candidate
    ops in index order).
    """

    def __init__(self, mode_set: ModeSet, n: int, m_c: int, states, parents, ops):
        self.mode_set = mode_set
        self.n = n
        self.m_c = m_c
        self.states: list[OccupationState] = states
        self.parents: list[int | None] = parents
        self.ops: list[tuple | None] = ops
        self._index = {s.counts: i for i, s in enumerate(self.states)}

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self) -> Iterable[OccupationState]:
        return iter(self.states)

    def index_of(self, state: OccupationState) -> int | None:
        return self._index.get(state.counts)

    def __contains__(self, state: OccupationState) -> bool:
        return state.counts in self._index

    @property
    def free_index(self) -> int:
        return 0

    def counts_matrix(self) -> np.ndarray:
        """Occupation counts, one row per member state; built once, read-only."""
        return self._counts

    @cached_property
    def _counts(self) -> np.ndarray:
        counts = np.array([s.counts for s in self.states], dtype=np.int64)
        counts.setflags(write=False)
        return counts

    @cached_property
    def _radix(self):
        """Mixed-radix int64 keys of the member rows, with their sort order.

        Built on first use, so a closure that is never evaluated never pays
        for it or meets the 62-bit limit.
        """
        counts = self._counts
        caps = counts.max(axis=0) + 1
        weights = np.ones(len(caps), dtype=np.int64)
        acc = 1
        for j, cap in enumerate(caps):
            weights[j] = acc
            acc *= int(cap)
            if acc > 2**62:
                raise BudgetExceeded("occupancy radix exceeds 62-bit capacity")
        keys = counts @ weights
        order = np.argsort(keys)
        return caps, weights, keys, order, keys[order]

    def apply_quartic(self, j1: int, j2: int, j3: int, j4: int):
        """a+_{j1} a+_{j2} a_{j3} a_{j4} applied to every member state at once.

        Returns (src, dst, amp): the operator maps member row src[i] onto
        member row dst[i] with amplitude amp[i], the product of the sqrt(n)
        factors taken operator by operator.  src is ascending; elements that
        vanish or leave the closure are dropped.
        """
        caps, weights, keys, order, sorted_keys = self._radix
        counts = self._counts
        n4 = counts[:, j4]
        t3 = counts[:, j3] - int(j3 == j4)
        t2 = counts[:, j2] + (1 - int(j2 == j4) - int(j2 == j3))
        t1 = counts[:, j1] + (1 + int(j1 == j2) - int(j1 == j4) - int(j1 == j3))
        prod = n4 * t3 * t2 * t1
        # the target holds t1 at j1 and at least t2 at j2; an occupancy at or
        # above its column's cap is no member's, and its key could alias one
        src = np.flatnonzero((prod > 0) & (t1 < caps[j1]) & (t2 < caps[j2]))
        tgt = keys[src] + (weights[j1] + weights[j2] - weights[j3] - weights[j4])
        pos = np.minimum(np.searchsorted(sorted_keys, tgt), len(sorted_keys) - 1)
        found = sorted_keys[pos] == tgt
        src = src[found]
        return src, order[pos[found]], np.sqrt(prod[src].astype(float))

    def symmetric_at(self, state: OccupationState, u_idx: int) -> bool:
        j = self.mode_set.neg_index(u_idx)
        return j is not None and state.counts[u_idx] == state.counts[j]

    def occupancy_star(self, state: OccupationState, u_idx: int) -> int:
        j = self.mode_set.neg_index(u_idx)
        other = state.counts[j] if j is not None else 0
        return max(state.counts[u_idx], other)


def _soft_product_pairs(mode_set: ModeSet, u_idx: int) -> list:
    """Unordered high-mode index pairs (i, j), i <= j, with p_i + p_j = u."""
    u = mode_set.modes[u_idx].p
    out = []
    for m in mode_set:
        if m.region is not Region.PH:
            continue
        j = mode_set.index_of(u - m.p)
        if j is None or j < m.index:
            continue
        if mode_set.modes[j].region is Region.PH:
            out.append((m.index, j))
    return out


def generate_M(
    mode_set: ModeSet,
    n: int,
    m_c: int,
    *,
    budget: int = 1_000_000,
) -> ClosureSet:
    """Breadth-first closure from the all-condensate state.

    The high-region magnitude window for soft products is carried by the
    region labels themselves (modes beyond the truncation are labeled
    Truncated, not PH, and are skipped for every creation).
    """
    if n < 0:
        raise ValueError("need a nonnegative particle count")
    z = mode_set.zero_index
    # canonical +-k pairs: keep the index with the smaller partner
    strict_outer = []
    strict_low = []
    for m in mode_set:
        j = mode_set.neg_index(m.index)
        if j is None or m.index > j:
            continue
        if m.region in (Region.PI, Region.PH):
            strict_outer.append(m.index)
        elif m.region is Region.PL:
            strict_low.append(m.index)
    low_modes = [m.index for m in mode_set if m.region is Region.PL]
    soft_pairs = {u: _soft_product_pairs(mode_set, u) for u in low_modes}

    root = free_state(mode_set, n)
    states = [root]
    parents: list[int | None] = [None]
    ops: list[tuple | None] = [None]
    index = {root.counts: 0}

    def neg(i):
        return mode_set.neg_index(i)

    head = 0
    while head < len(states):
        alpha = states[head]
        c = alpha.counts
        children = []
        if c[z] >= 2:
            for k in strict_outer:
                children.append((strict_pair_create(mode_set, alpha, k), ("strict", k)))
            for k in strict_low:
                if max(c[k], c[neg(k)]) < m_c:
                    children.append((strict_pair_create(mode_set, alpha, k), ("strict", k)))
        if c[z] >= 1:
            for u in low_modes:
                if c[u] >= 1 and c[u] == c[neg(u)]:
                    for i, j in soft_pairs[u]:
                        nc = list(c)
                        nc[z] -= 1
                        nc[u] -= 1
                        nc[i] += 1
                        nc[j] += 1
                        children.append((OccupationState(tuple(nc)), ("soft", u, i, j)))
        for child, op in children:
            if child is None or child.counts in index:
                continue
            if len(states) >= budget:
                raise BudgetExceeded(f"closure exceeds budget {budget}")
            index[child.counts] = len(states)
            states.append(child)
            parents.append(head)
            ops.append(op)
        head += 1
    return ClosureSet(mode_set, n, m_c, states, parents, ops)


def _sqrt_signed(x: float) -> complex:
    """sqrt with the branch convention sqrt(x) = i sqrt(|x|) for x < 0."""
    if x >= 0.0:
        return complex(math.sqrt(x))
    return complex(0.0, math.sqrt(-x))


class WeightedTrialState:
    """A closure set with its normalized complex amplitudes."""

    def __init__(self, closure: ClosureSet, weights: np.ndarray, log_c_n: float):
        self.closure = closure
        self.weights = weights
        self.log_c_n = log_c_n

    @property
    def mode_set(self) -> ModeSet:
        return self.closure.mode_set

    def __len__(self) -> int:
        return len(self.closure)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.weights) ** 2

    def weight_of(self, state: OccupationState) -> complex:
        i = self.closure.index_of(state)
        return self.weights[i] if i is not None else complex(0.0)


def weight_f(closure: ClosureSet, lams: Sequence[float], volume: float) -> WeightedTrialState:
    """Evaluate the closed-form weight on every member state and normalize.

    lams holds lambda per mode index; entries may be None/NaN wherever no
    member state occupies the mode (zero mode, gap, truncated tail).
    Amplitudes are computed in log magnitude to keep |L|^n / n! tame, shifted
    so the largest is O(1), then normalized to unit total probability.
    """
    ms = closure.mode_set
    z = ms.zero_index
    lam_arr = np.array(
        [math.nan if (v is None) else float(v) for v in lams], dtype=float
    )
    log_mag = np.empty(len(closure))
    i_pow = np.zeros(len(closure), dtype=np.int64)
    low = [m.index for m in ms if m.region is Region.PL]
    for s_i, alpha in enumerate(closure):
        c = alpha.counts
        lm = 0.5 * (c[z] * math.log(volume) - math.lgamma(c[z] + 1))
        ip = 0
        for i, occ in enumerate(c):
            if i == z or occ == 0:
                continue
            lam = lam_arr[i]
            if not math.isfinite(lam):
                raise RegionUndefined(
                    f"state occupies mode {i} where lambda is undefined"
                )
            lm += occ * 0.5 * math.log(abs(lam))
            if lam < 0.0:
                ip += occ
        for u in low:
            star = closure.occupancy_star(alpha, u)
            if star - c[u] == 1:
                lam = lam_arr[u]
                lm += 0.5 * math.log(4.0 * star * abs(lam) / volume)
                if lam < 0.0:
                    ip += 1
        log_mag[s_i] = lm
        i_pow[s_i] = ip
    shift = float(np.max(log_mag))
    mags = np.exp(log_mag - shift)
    phases = 1j ** (i_pow % 4)
    unnorm = mags * phases
    norm = math.sqrt(float(np.sum(mags**2)))
    # C_N multiplies the closed form, so log C_N = -(shift + log norm)
    return WeightedTrialState(closure, unnorm / norm, -(shift + math.log(norm)))


def weight_recursion_report(state: WeightedTrialState, lams: Sequence[float]) -> dict:
    """Exhaustively verify the five creation/weight recursion identities.

    For every member state and every creation whose image is also a member
    (including soft creations out of asymmetric occupancy, which the
    generator never performs but which can land inside M by coincidence),
    compare the stored weight ratio against the closed-form prediction.
    Returns per-identity max relative error and pair counts.
    """
    closure = state.closure
    ms = state.mode_set
    vol = ms.volume
    z = ms.zero_index
    names = (
        "strict_outer",
        "strict_low_symmetric",
        "strict_low_asymmetric",
        "soft_symmetric",
        "soft_asymmetric",
    )
    err = dict.fromkeys(names, 0.0)
    cnt = dict.fromkeys(names, 0)
    low = [m.index for m in ms if m.region is Region.PL]
    soft_pairs = {u: _soft_product_pairs(ms, u) for u in low}

    def record(name, expected, s_from, s_to):
        f_from = state.weights[s_from]
        f_to = state.weights[s_to]
        resid = abs(f_to - expected * f_from)
        scale = max(abs(f_to), abs(f_from), 1e-300)
        err[name] = max(err[name], resid / scale)
        cnt[name] += 1

    for s_i, alpha in enumerate(closure):
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
            if beta is None:
                continue
            t_i = closure.index_of(beta)
            if t_i is None:
                continue
            lam = float(lams[k])
            base = math.sqrt(a0 * (a0 - 1)) / vol * lam
            if m.region in (Region.PI, Region.PH):
                record("strict_outer", base, s_i, t_i)
            elif c[k] == c[j]:
                record("strict_low_symmetric", base, s_i, t_i)
            else:
                star = closure.occupancy_star(alpha, k)
                record(
                    "strict_low_asymmetric",
                    base * math.sqrt((star + 1) / star),
                    s_i,
                    t_i,
                )
        if a0 < 1:
            continue
        for u in low:
            if c[u] < 1:
                continue
            lam_u = float(lams[u])
            for i, j in soft_pairs[u]:
                nc = list(c)
                nc[z] -= 1
                nc[u] -= 1
                nc[i] += 1
                nc[j] += 1
                t_i = closure.index_of(OccupationState(tuple(nc)))
                if t_i is None:
                    continue
                root = _sqrt_signed(float(lams[i])) * _sqrt_signed(float(lams[j]))
                if closure.symmetric_at(alpha, u):
                    expected = 2.0 * math.sqrt(a0 * c[u]) / vol * root
                    record("soft_symmetric", expected, s_i, t_i)
                else:
                    expected = (
                        root / (2.0 * lam_u) * math.sqrt(a0 / vol) * math.sqrt(vol / c[u])
                    )
                    record("soft_asymmetric", expected, s_i, t_i)
    return {"max_rel_error": err, "pairs": cnt}


def export_closure(state: WeightedTrialState) -> str:
    """Line-oriented dump (canonical key, |f|^2, phase quadrant) for diffing."""
    rows = []
    for i, alpha in enumerate(state.closure):
        w = state.weights[i]
        prob = abs(w) ** 2
        quadrant = int(round(np.angle(w) / (math.pi / 2))) % 4 if prob > 0 else 0
        key = ";".join(f"{j},{c}" for j, c in alpha.sparse_key())
        rows.append((alpha.sparse_key(), f"{key} |f|2={prob:.12e} phase={quadrant}"))
    rows.sort(key=lambda r: r[0])
    return "\n".join(r[1] for r in rows) + "\n"
