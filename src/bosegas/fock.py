"""Occupation states, pair creations, the closure set, and trial-state weights.

A state is a row of occupation counts aligned with a ModeSet.  Two partial
maps act on states:

    strict pair creation at k:   (0: -2, +k: +1, -k: +1)
    soft pair creation (u; k):   (0: -1,  u: -1, u/2+k: +1, u/2-k: +1)

The closure set M is the smallest family containing the all-condensate state
and closed under (i) strict creation at any intermediate/high mode, (ii)
strict creation at a low mode while max(n(u), n(-u)) < m_c, and (iii) soft
creation out of a low mode with symmetric occupancy, both produced momenta
landing in the high region (which, on a truncated mode set, already encodes
the magnitude window up to the cutoff).  One creation table per mode set
spells these rules; `generate_M` applies it level by level to build M as a
count matrix in breadth-first order, and `weight_recursion_report` walks
the same table.  `OccupationState`, `free_state` and `strict_pair_create`
are the per-state forms that tests hold the matrix code to.

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
from typing import NamedTuple

import numpy as np

from .errors import BudgetExceeded, RegionUndefined
from .lattice import ModeSet, Region

__all__ = [
    "OccupationState",
    "free_state",
    "strict_pair_create",
    "ClosureSet",
    "generate_M",
    "WeightedTrialState",
    "weight_f",
    "weight_recursion_report",
    "export_closure",
    "CLOSURE_BUDGET",
    "MAX_PARTICLES",
]

# the cap on closure members
CLOSURE_BUDGET = 200_000

# the largest particle count: every product of two counts kept in int64
# (weight_recursion_report's a (a - 1) and a c, apply_quartic's n4 t3) stays
# below 2^62
MAX_PARTICLES = 2**31 - 1

# the least normal double
_TINY = np.finfo(float).tiny

# export_closure makes its text this many sorted rows at a time
_EXPORT_ROWS = 1024


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


class ClosureSet:
    """The generated family M, held as its count matrix.

    Row i of `counts_matrix()` is the occupation of member i; row 0 is the
    all-condensate state and the rows follow breadth-first order (a level's
    rows in order of parent row, then creation-table entry).  `shift` is the
    one member lookup: every query of the form "which member is this state
    with these occupancies moved?" goes through it.  Each distinct move is
    computed once per closure and kept, read-only, in a memo that is freed
    with the closure.  An int64 `counts` array is held as is, read-only.
    """

    def __init__(self, mode_set: ModeSet, n: int, m_c: int, counts):
        self.mode_set = mode_set
        self.n = n
        self.m_c = m_c
        self._counts = np.asarray(counts, dtype=np.int64)
        self._counts.setflags(write=False)
        self._moves: dict[tuple, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._counts)

    def counts_matrix(self) -> np.ndarray:
        """Occupation counts, one row per member state; read-only."""
        return self._counts

    @cached_property
    def _radix(self):
        """Column caps, mixed-radix weights, and the rows' key order and sorted keys.

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
        return caps.tolist(), weights.tolist(), order, keys[order]

    def shift(self, delta: dict) -> np.ndarray:
        """Member index of every row with delta[j] added at column j, else -1.

        A column driven below 0 or to its cap leaves the closure: no member
        holds that count, and the shifted radix key could alias a member's.
        The move is keyed by its nonzero entries in column order, so equal
        moves share one result whatever their key order.  Each is computed
        once per closure and returned read-only from the closure's own memo,
        which goes when the closure does.
        """
        move = tuple(sorted((j, d) for j, d in delta.items() if d))
        found = self._moves.get(move)
        if found is not None:
            return found
        caps, weights, order, sorted_keys = self._radix
        counts = self._counts
        inside = np.ones(len(counts), dtype=bool)
        step = 0
        for j, d in move:
            if d > 0:
                inside &= counts[:, j] < caps[j] - d
            else:
                inside &= counts[:, j] >= -d
            step += d * weights[j]
        # a fixed step keeps the keys' order: search the targets ascending,
        # then scatter the hits back to rows
        tgt = sorted_keys + step
        pos = np.minimum(np.searchsorted(sorted_keys, tgt), len(sorted_keys) - 1)
        hit = np.empty_like(order)
        hit[order] = np.where(sorted_keys[pos] == tgt, order[pos], -1)
        found = np.where(inside, hit, -1)
        found.setflags(write=False)
        self._moves[move] = found
        return found

    def apply_quartic(self, j1: int, j2: int, j3: int, j4: int):
        """a+_{j1} a+_{j2} a_{j3} a_{j4} applied to every member state at once.

        Returns (src, dst, amp): the operator maps member row src[i] onto
        member row dst[i] with amplitude amp[i], the product of the sqrt(n)
        factors taken operator by operator.  src is ascending; elements that
        vanish or leave the closure are dropped.  The four-count product is
        formed in floats, exact below 2^53: in int64 it wraps from N = 55,110.
        """
        counts = self._counts
        n4 = counts[:, j4]
        t3 = counts[:, j3] - int(j3 == j4)
        t2 = counts[:, j2] + (1 - int(j2 == j4) - int(j2 == j3))
        t1 = counts[:, j1] + (1 + int(j1 == j2) - int(j1 == j4) - int(j1 == j3))
        prod = n4 * t3 * (t2 * t1.astype(float))
        delta = {}
        for j, d in ((j1, 1), (j2, 1), (j3, -1), (j4, -1)):
            delta[j] = delta.get(j, 0) + d
        dst = self.shift(delta)
        src = np.flatnonzero((prod > 0) & (dst >= 0))
        return src, dst[src], np.sqrt(prod[src])


_OUTER, _LOW, _SOFT = range(3)


class _Creations(NamedTuple):
    """Every pair creation on a mode set, in generation order.

    Row r removes one particle from each column of take[r] and adds one to
    each column of give[r]: (0, 0) -> (k, -k) for a strict creation, with k
    the lower index, and (0, u) -> (i, j) for a soft one.  pair[r] holds the
    two columns its low-region guard compares: (k, -k) or (u, -u).
    """

    kind: np.ndarray
    take: np.ndarray
    give: np.ndarray
    pair: np.ndarray


def _creations(mode_set: ModeSet) -> _Creations:
    """Strict outer pairs, strict low pairs, then soft (u; i, j) pairs.

    Soft products are the unordered high-region pairs i <= j with p_i + p_j
    = u, each j the mode set's `conserving(u, 0, i)`.  A low mode without a
    partner is never occupied (only a strict creation fills a low mode), so
    it has no soft row.
    """
    z = mode_set.zero_index
    outer, low, soft = [], [], []
    for m in mode_set:
        j = mode_set.neg_index(m.index)
        if j is None or m.index > j:
            continue
        if m.region in (Region.PI, Region.PH):
            outer.append((_OUTER, z, z, m.index, j, m.index, j))
        elif m.region is Region.PL:
            low.append((_LOW, z, z, m.index, j, m.index, j))
    for u in mode_set.indices_in(Region.PL):
        nu = mode_set.neg_index(u)
        if nu is None:
            continue
        for i in mode_set.indices_in(Region.PH):
            j = mode_set.conserving(u, z, i)
            if j is not None and j >= i and mode_set.modes[j].region is Region.PH:
                soft.append((_SOFT, z, u, i, j, u, nu))
    rows = np.array(outer + low + soft, dtype=np.int64).reshape(-1, 7)
    return _Creations(rows[:, 0], rows[:, 1:3], rows[:, 3:5], rows[:, 5:7])


def _strict_states(table: _Creations, n: int, m_c: int) -> int:
    """The members strict creations alone make: the ways the P strict rows
    place c pairs each, c <= m_c on a low row, with sum c <= floor(N/2), by
    inclusion-exclusion over the low rows past m_c.  Soft creations only
    add members, so this is |M| on a strict set and below it on any other."""
    k, cap = n // 2, max(m_c, 0) + 1
    p, low = int(np.sum(table.kind != _SOFT)), int(np.sum(table.kind == _LOW))
    return sum(
        (-1) ** j * math.comb(low, j) * math.comb(k - j * cap + p, p)
        for j in range(min(low, k // cap) + 1)
    )


def generate_M(mode_set: ModeSet, n: int, m_c: int) -> ClosureSet:
    """The closure of the all-condensate state.  A closure past
    CLOSURE_BUDGET members raises BudgetExceeded, before the walk where its
    strict members alone pass the budget."""
    if not 0 <= n <= MAX_PARTICLES:
        raise ValueError(f"need a particle count in 0 .. {MAX_PARTICLES}, got {n}")
    table = _creations(mode_set)
    budget, strict = CLOSURE_BUDGET, _strict_states(table, n, m_c)
    if strict > budget:
        raise BudgetExceeded(f"closure exceeds budget {budget}: strict pairs make {strict} states")
    return ClosureSet(mode_set, n, m_c, _walk(mode_set, n, m_c, table))


def _walk(mode_set: ModeSet, n: int, m_c: int, table: _Creations) -> np.ndarray:
    """The closure's count matrix, breadth first.  Every creation-table row
    is tried on a slice of frontier rows at once, the slices sized so that
    their candidates stay within about a budget's worth of rows, and a
    member past CLOSURE_BUDGET raises BudgetExceeded.  A creation applies
    when no count goes negative and its low guard holds on the parent:
    max(n(k), n(-k)) < m_c for a strict low pair, n(u) = n(-u) for a soft
    one.  New rows, each known by its raw bytes, are kept in (parent,
    creation) first-seen order.  Modes past the high-region truncation are
    labeled Truncated, not PH, so no creation reaches them."""
    need = 1 + (table.take[:, 0] == table.take[:, 1])
    unguarded_low = table.kind != _LOW
    unguarded_soft = table.kind != _SOFT
    chunk = max(1, CLOSURE_BUDGET // max(1, len(table.kind)))
    root = np.zeros((1, len(mode_set)), dtype=np.int64)
    root[0, mode_set.zero_index] = n
    row_key = np.dtype((np.void, root.itemsize * root.shape[1]))
    seen = set(root.view(row_key).ravel().tolist())
    levels = [root]
    size = 1
    while len(levels[-1]):
        level = []
        for start in range(0, len(levels[-1]), chunk):
            frontier = levels[-1][start : start + chunk]
            ok = np.all(frontier[:, table.take] >= need[:, None], axis=2)
            pair = frontier[:, table.pair]
            ok &= unguarded_low | (pair.max(axis=2) < m_c)
            ok &= unguarded_soft | (pair[:, :, 0] == pair[:, :, 1])
            parent, op = np.nonzero(ok)
            cand = frontier[parent]
            rows = np.arange(len(cand))
            for s in (0, 1):
                cand[rows, table.take[op, s]] -= 1
                cand[rows, table.give[op, s]] += 1
            fresh = []
            for r, key in enumerate(cand.view(row_key).ravel().tolist()):
                if key not in seen:
                    if size >= CLOSURE_BUDGET:
                        raise BudgetExceeded(f"closure exceeds budget {CLOSURE_BUDGET}")
                    seen.add(key)
                    fresh.append(r)
                    size += 1
            level.append(cand[fresh])
        levels.append(np.concatenate(level))
    return np.concatenate(levels)


def _sqrt_signed(x: float) -> complex:
    """sqrt with the branch convention sqrt(x) = i sqrt(|x|) for x < 0."""
    if x >= 0.0:
        return complex(math.sqrt(x))
    return complex(0.0, math.sqrt(-x))


class WeightedTrialState:
    """A closure set with its normalized complex amplitudes."""

    def __init__(self, closure: ClosureSet, weights: np.ndarray):
        self.closure = closure
        self.weights = weights

    @property
    def mode_set(self) -> ModeSet:
        return self.closure.mode_set

    def __len__(self) -> int:
        return len(self.closure)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.weights) ** 2


def weight_f(closure: ClosureSet) -> WeightedTrialState:
    """Evaluate the closed-form weight on every member state and normalize.

    lambda_k and |L| are read from the closure's mode set: its modes' `lam`
    and its `volume`.  A lambda may be None wherever no member state
    occupies the mode (zero mode, gap, truncated tail); an occupied mode
    whose lambda is missing, non-finite or zero raises RegionUndefined.
    Amplitudes are computed in log magnitude to keep |L|^n / n! tame, shifted
    so the largest is O(1), then normalized to unit total probability.
    """
    ms = closure.mode_set
    volume = ms.volume
    z = ms.zero_index
    lam_arr = np.array([math.nan if m.lam is None else float(m.lam) for m in ms], dtype=float)
    counts = closure.counts_matrix()
    a0 = counts[:, z]
    held, at = np.unique(a0, return_inverse=True)
    lgamma = np.array([math.lgamma(c + 1) for c in held.tolist()])
    # terms join each state's log magnitude in one fixed order (condensate,
    # occupied modes by index, low-mode star factors): it fixes the rounding
    log_mag = 0.5 * (a0 * math.log(volume) - lgamma[at])
    i_pow = np.zeros(len(closure), dtype=np.int64)
    for i in range(len(ms)):
        occ = counts[:, i]
        if i == z or not occ.any():
            continue
        lam = lam_arr[i]
        # log|lam| needs a finite nonzero lambda; this check also covers the
        # low-mode star factors below, whose modes are all occupied somewhere
        if not math.isfinite(lam) or lam == 0.0:
            raise RegionUndefined(
                f"state occupies mode {i} where lambda is {float(lam)}; it must be finite and nonzero"
            )
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
    return WeightedTrialState(closure, unnorm / norm)


def weight_recursion_report(state: WeightedTrialState) -> dict:
    """Exhaustively verify the five creation/weight recursion identities.

    For every member state and every creation-table entry whose image is also
    a member (including soft creations out of asymmetric occupancy, which the
    generator never performs but which can land inside M by coincidence),
    compare the stored weight ratio against the closed-form prediction, with
    lambda_k and |L| read from the state's mode set as `weight_f` reads them.
    A pair whose source weight lies below the normal doubles, where the
    prediction from its target also puts it, is the rounding of a weight the
    doubles cannot hold (0.0 for 1e-400), not a ratio, and is skipped.
    Returns per-identity max relative error and pair counts.
    """
    closure = state.closure
    ms = state.mode_set
    lams = [m.lam for m in ms]
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
        held = (np.abs(w[src]) >= _TINY) | (np.abs(w[dst]) >= _TINY * np.abs(expected))
        expected, src, dst = expected[held], src[held], dst[held]
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

    table = _creations(ms)
    for kind, take, give, pair in zip(
        table.kind.tolist(), table.take.tolist(), table.give.tolist(), table.pair.tolist()
    ):
        delta = Counter(give)
        delta.subtract(take)
        src, dst = targets(delta)
        if len(src) == 0:
            continue
        a = a0[src]
        # occupancies of (k, -k) or (u, -u): the guard columns
        cu, cv = counts[src, pair[0]], counts[src, pair[1]]
        sym = cu == cv
        if kind == _SOFT:
            root = _sqrt_signed(float(lams[give[0]])) * _sqrt_signed(float(lams[give[1]]))
            expected = 2.0 * np.sqrt(a[sym] * cu[sym]) / vol * root
            record("soft_symmetric", expected, src[sym], dst[sym])
            a, cu = a[~sym], cu[~sym]
            expected = root / (2.0 * float(lams[pair[0]])) * np.sqrt(a / vol) * np.sqrt(vol / cu)
            record("soft_asymmetric", expected, src[~sym], dst[~sym])
            continue
        base = np.sqrt(a * (a - 1)) / vol * float(lams[give[0]])
        if kind == _OUTER:
            record("strict_outer", base, src, dst)
            continue
        record("strict_low_symmetric", base[sym], src[sym], dst[sym])
        star = np.maximum(cu, cv)[~sym]
        record(
            "strict_low_asymmetric",
            base[~sym] * np.sqrt((star + 1) / star),
            src[~sym],
            dst[~sym],
        )
    return {"max_rel_error": err, "pairs": cnt}


def export_closure(state: WeightedTrialState) -> str:
    """Line-oriented dump (canonical key, |f|^2, phase quadrant) for diffing.

    A row's key is its nonzero (j, c) pairs in column order; rows are
    written in key order.  Each pair is coded by its rank among the pairs
    the closure holds, filled in column by column, the codes packed to the
    left and padded with -1, so one lexsort ranks the rows as the key tuples
    compare: a key that is a prefix of another sorts first.  The text is
    made in blocks of _EXPORT_ROWS sorted rows, so next to the blocks made
    so far only one block's tokens and lines, the packed codes and a few
    numbers per row are held; these are freed before the blocks are joined,
    and the join's copy of the text sets the peak: about twice the text.
    """
    return "\n".join([*_export_blocks(state), ""])


def _export_blocks(state: WeightedTrialState):
    """export_closure's lines in key order, one string per block of rows."""
    counts = state.closure.counts_matrix()
    filled = np.zeros(len(counts), dtype=np.int64)
    # every code is below counts.size, so the smallest type holding -size holds them all
    width = max(1, int((counts != 0).sum(axis=1).max()))
    packed = np.full((len(counts), width), -1, dtype=np.min_scalar_type(-counts.size))
    table = []
    for j, col in enumerate(counts.T):
        rows = np.flatnonzero(col)
        values, rank = np.unique(col[rows], return_inverse=True)
        packed[rows, filled[rows]] = len(table) + rank
        filled[rows] += 1
        table += [f"{j},{c}" for c in values.tolist()]
    order = np.lexsort(packed.T[::-1])
    # the -1 pads pick the empty last token, and each row's count of pairs cuts them off
    tokens = np.array([*table, ""], dtype=object)
    probs = state.probabilities()
    for lo in range(0, len(order), _EXPORT_ROWS):
        rows = order[lo : lo + _EXPORT_ROWS]
        prob = probs[rows]
        turns = np.round(np.angle(state.weights[rows]) / (math.pi / 2)).astype(np.int64) % 4
        lines = zip(
            tokens[packed[rows]].tolist(),
            filled[rows].tolist(),
            prob.tolist(),
            np.where(prob > 0, turns, 0).tolist(),
        )
        yield "\n".join([f"{';'.join(key[:k])} |f|2={p:.12e} phase={q}" for key, k, p, q in lines])
