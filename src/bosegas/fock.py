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
from collections import Counter
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
    ops in index order).  `shift` is the one member lookup: every query of
    the form "which member is this state with these occupancies moved?" goes
    through it.
    """

    def __init__(self, mode_set: ModeSet, n: int, m_c: int, states, parents, ops):
        self.mode_set = mode_set
        self.n = n
        self.m_c = m_c
        self.states: list[OccupationState] = states
        self.parents: list[int | None] = parents
        self.ops: list[tuple | None] = ops

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self) -> Iterable[OccupationState]:
        return iter(self.states)

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
        return caps.tolist(), weights.tolist(), keys, order, keys[order]

    def shift(self, delta: dict) -> np.ndarray:
        """Member index of every row with delta[j] added at column j, else -1.

        A column driven below 0 or to its cap leaves the closure: no member
        holds that count, and the shifted radix key could alias a member's.
        """
        caps, weights, keys, order, sorted_keys = self._radix
        counts = self._counts
        inside = np.ones(len(counts), dtype=bool)
        step = 0
        for j, d in delta.items():
            if d > 0:
                inside &= counts[:, j] < caps[j] - d
            elif d < 0:
                inside &= counts[:, j] >= -d
            step += d * weights[j]
        tgt = keys + step
        pos = np.minimum(np.searchsorted(sorted_keys, tgt), len(sorted_keys) - 1)
        return np.where(inside & (sorted_keys[pos] == tgt), order[pos], -1)

    def apply_quartic(self, j1: int, j2: int, j3: int, j4: int):
        """a+_{j1} a+_{j2} a_{j3} a_{j4} applied to every member state at once.

        Returns (src, dst, amp): the operator maps member row src[i] onto
        member row dst[i] with amplitude amp[i], the product of the sqrt(n)
        factors taken operator by operator.  src is ascending; elements that
        vanish or leave the closure are dropped.
        """
        counts = self._counts
        n4 = counts[:, j4]
        t3 = counts[:, j3] - int(j3 == j4)
        t2 = counts[:, j2] + (1 - int(j2 == j4) - int(j2 == j3))
        t1 = counts[:, j1] + (1 + int(j1 == j2) - int(j1 == j4) - int(j1 == j3))
        prod = n4 * t3 * t2 * t1
        delta = {}
        for j, d in ((j1, 1), (j2, 1), (j3, -1), (j4, -1)):
            delta[j] = delta.get(j, 0) + d
        dst = self.shift(delta)
        src = np.flatnonzero((prod > 0) & (dst >= 0))
        return src, dst[src], np.sqrt(prod[src].astype(float))


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
    counts = closure.counts_matrix()
    a0 = counts[:, z]
    lgamma = np.array([math.lgamma(c + 1) for c in range(int(a0.max()) + 1)])
    # terms join each state's log magnitude in one fixed order (condensate,
    # occupied modes by index, low-mode star factors): it fixes the rounding
    log_mag = 0.5 * (a0 * math.log(volume) - lgamma[a0])
    i_pow = np.zeros(len(closure), dtype=np.int64)
    for i in range(len(ms)):
        occ = counts[:, i]
        if i == z or not occ.any():
            continue
        lam = lam_arr[i]
        if not math.isfinite(lam):
            raise RegionUndefined(f"state occupies mode {i} where lambda is undefined")
        log_mag += occ * 0.5 * math.log(abs(lam))
        if lam < 0.0:
            i_pow += occ
    for u in ms.indices_in(Region.PL):
        j = ms.neg_index(u)
        if j is None:
            continue
        star = np.maximum(counts[:, u], counts[:, j])
        hit = np.flatnonzero(star - counts[:, u] == 1)
        lam = lam_arr[u]
        by_star = np.zeros(star.max() + 1)
        for s in np.unique(star[hit]):
            by_star[s] = 0.5 * math.log(4.0 * int(s) * abs(lam) / volume)
        log_mag[hit] += by_star[star[hit]]
        if lam < 0.0:
            i_pow[hit] += 1
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
    w = state.weights
    counts = closure.counts_matrix()
    a0 = counts[:, z]
    names = (
        "strict_outer",
        "strict_low_symmetric",
        "strict_low_asymmetric",
        "soft_symmetric",
        "soft_asymmetric",
    )
    err = dict.fromkeys(names, 0.0)
    cnt = dict.fromkeys(names, 0)

    def record(name, expected, src, dst):
        if len(src) == 0:
            return
        resid = np.abs(w[dst] - expected * w[src])
        scale = np.maximum(np.maximum(np.abs(w[dst]), np.abs(w[src])), 1e-300)
        err[name] = max(err[name], float(np.max(resid / scale)))
        cnt[name] += len(src)

    def targets(delta):
        dst = closure.shift(delta)
        src = np.flatnonzero(dst >= 0)
        return src, dst[src]

    for m in ms:
        k = m.index
        j = ms.neg_index(k)
        if k == z or j is None or k > j:
            continue
        if m.region not in (Region.PI, Region.PH, Region.PL):
            continue
        src, dst = targets({z: -2, k: 1, j: 1})
        if len(src) == 0:
            continue
        a = a0[src]
        base = np.sqrt(a * (a - 1)) / vol * float(lams[k])
        if m.region is not Region.PL:
            record("strict_outer", base, src, dst)
            continue
        sym = counts[src, k] == counts[src, j]
        record("strict_low_symmetric", base[sym], src[sym], dst[sym])
        star = np.maximum(counts[src, k], counts[src, j])[~sym]
        record(
            "strict_low_asymmetric",
            base[~sym] * np.sqrt((star + 1) / star),
            src[~sym],
            dst[~sym],
        )

    for u in ms.indices_in(Region.PL):
        nu = ms.neg_index(u)
        for i, j in _soft_product_pairs(ms, u):
            delta = Counter({z: -1, u: -1})
            delta.update((i, j))
            src, dst = targets(delta)
            if len(src) == 0:
                continue
            a, cu = a0[src], counts[src, u]
            root = _sqrt_signed(float(lams[i])) * _sqrt_signed(float(lams[j]))
            sym = counts[src, nu] == cu if nu is not None else np.zeros(len(src), dtype=bool)
            expected = 2.0 * np.sqrt(a[sym] * cu[sym]) / vol * root
            record("soft_symmetric", expected, src[sym], dst[sym])
            a, cu = a[~sym], cu[~sym]
            expected = root / (2.0 * float(lams[u])) * np.sqrt(a / vol) * np.sqrt(vol / cu)
            record("soft_asymmetric", expected, src[~sym], dst[~sym])
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
