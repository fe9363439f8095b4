"""Momentum lattice schedules, region labels, mode sets, and shell sums.

Working on the torus of side L, allowed momenta live on (2 pi / L) Z^3.  A
density rho fixes the scale schedule

    L = rho^(-25/24),      eps_L = eta_L = eps_H = rho^eta   (eta = 1/200),
    m_c = floor(rho^-eta)  (never below 2),     N = rho L^3 (rounded).

Nonzero momenta split into concentric regions by magnitude:

    gap       0 < |p| < eps_L rho^(1/2)
    P_L       eps_L rho^(1/2) <= |p| <= eta_L^(-1) rho^(1/2)   (closed)
    P_I       eta_L^(-1) rho^(1/2) < |p| <= eps_H              (half open)
    P_H       eps_H < |p|                                      (open below)

A further label, Truncated, marks modes past a momentum cutoff.  No schedule
assigns it: toy suites and mode files carry it on modes the trial state
leaves empty.  Each region carries its own quadratic-form coefficient lambda:

    P_L:          rho lambda_p = (1 - h) / (1 + h),  h = sqrt(1 + 4 rho g0 / p^2)
    P_I, P_H:     lambda_p = -w_p   (scattering solution)

On P_L, rho lambda_p lies in (-1, 0) and |lambda_p| <= g0 / p^2 at any rho.
Past P_L, rho w_p is close to rho g0 / p^2 near the inner edge of P_I, where
it reaches g0 eta_L^2 = g0 rho^(2 eta): the bound |rho lambda_p| < 1 holds on
P_H (rho g0 / eps_H^2 = g0 rho^(1 - 2 eta) is small), but on P_I only once
g0 rho^(2 eta) < 1.  At the default eta with g0 = 1.47 that takes rho below
about 2e-17; at rho = 1e-5, rho w_p reads 1.311 just above the edge.

Sums (1/|Lambda|) sum_{p in region} F(|p|) are evaluated exactly by counting
integer lattice points shell by shell (r_3(m) = #{n in Z^3 : |n|^2 = m}),
and compared against the continuum integral (2 pi)^-3 int F d^3k over the
same annulus; the relative gap shrinks like O(|Lambda|^-1/3).  How the
counts are computed, in single-precision FFTs with a roundoff guard, and
where they stop is in `shell_counts`' docstring.  The radial summand runs in
blocks of shells into one float64 term per occupied shell, so on the
rho = 1e-8 P_L window the traced peak is 73 MiB inside `shell_counts` and
63 MiB in the sum after it.

scipy is imported inside the functions that call it (the spectra,
`shell_counts`, the continuum quadrature), not at module level: the CLI
imports this module at every start, and the trial-state and boundary
pipelines, which never count shells or integrate, would otherwise pay for
all of scipy.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .errors import BudgetExceeded, DivergentIntegrand, EmptyAnnulus

__all__ = [
    "Region",
    "Schedule",
    "Mode",
    "ModeSet",
    "shell_counts",
    "shell_window",
    "radial_shell_sum",
    "pl_number_density_comparison",
    "load_toy_modes",
]

DEFAULT_ETA = 1.0 / 200.0
# the box length is L = rho^-_BOX_EXPONENT
_BOX_EXPONENT = 25.0 / 24.0


class Region(str, Enum):
    """Label of a momentum magnitude under a schedule."""

    P0 = "P0"
    PL = "PL"
    PI = "PI"
    PH = "PH"
    GAP = "Gap"
    TRUNCATED = "Truncated"


@dataclass(frozen=True)
class Schedule:
    """Density-driven scale schedule for the momentum lattice."""

    rho: float
    eta: float = DEFAULT_ETA

    def __post_init__(self):
        if not (0.0 < self.rho < 1.0):
            raise ValueError("schedule needs 0 < rho < 1")
        if not (0.0 < self.eta < 0.25):
            raise ValueError("region ordering needs 0 < eta < 1/4")

    @property
    def box_length(self) -> float:
        return self.rho**-_BOX_EXPONENT

    @property
    def volume(self) -> float:
        return self.box_length**3

    @property
    def spacing(self) -> float:
        return 2.0 * math.pi / self.box_length

    @property
    def eps(self) -> float:
        """rho^eta, the one value of eps_L, eta_L and eps_H."""
        return self.rho**self.eta

    @property
    def m_c(self) -> int:
        return max(2, math.floor(self.rho**-self.eta))

    @property
    def p_gap_top(self) -> float:
        # also the closed lower edge of P_L
        return self.eps * math.sqrt(self.rho)

    @property
    def p_low_top(self) -> float:
        # closed upper edge of P_L, open lower edge of P_I
        return math.sqrt(self.rho) / self.eps

    @property
    def n_particles(self) -> int:
        return max(1, round(self.rho * self.volume))

    @property
    def n_rounding(self) -> float:
        """Shift absorbed when rounding rho L^3 to an integer particle count."""
        return self.n_particles - self.rho * self.volume

    def as_dict(self) -> dict:
        eps = self.eps
        return {
            "rho": self.rho,
            "eta": self.eta,
            "box_length": self.box_length,
            "eps_L": eps,
            "eta_L": eps,
            "eps_H": eps,
            "m_c": self.m_c,
            "n_particles": self.n_particles,
            "n_rounding": self.n_rounding,
        }


@dataclass
class Mode:
    """One lattice momentum with its label and (optional) lambda value."""

    index: int
    p: np.ndarray
    region: Region
    lam: float | None = None


def _lattice_step(parts: np.ndarray, tol: float) -> float | None:
    """The largest step s with every part within tol of a multiple of s.

    Such an s divides the smallest part m, so the candidates are m / k for
    k = 1 .. 64, down to 8 tol (three residuals then stay below half a step,
    so p_a + p_b - p_c rounds to its lattice point); a candidate fits when
    the intervals (x - tol) / n .. (x + tol) / n, n = rint(x k / m), share
    a point, and the middle of their overlap is the step.  None when no
    candidate fits.
    """
    if parts.size == 0:
        return None
    m = float(parts.min())
    for k in range(1, 65):
        if m / k <= 8.0 * tol:
            break
        n = np.rint(parts * (k / m))
        lo, hi = float(np.max((parts - tol) / n)), float(np.min((parts + tol) / n))
        if lo <= hi:
            return 0.5 * (lo + hi)
    return None


class ModeSet:
    """Explicit collection of modes with manual labels and optional lambdas.

    A set must list the zero mode.  It picks one scale when it is built:
    its lattice step, the largest step that every momentum component lies
    within half a key step of a multiple of (2 pi / L on the torus, a dyadic
    or decimal step for the toys), or else the key step unit * 1e-9, with
    unit the power of two above the largest component.  A mode's integer
    coordinates are n = rint(p / scale); two momenta are one mode when these
    agree.  `conserving(a, b, c)` is the mode at rint((p_a + p_b - p_c) /
    scale), on a lattice step n_a + n_b - n_c exactly, however the momenta
    were rounded when written; `neg_index(i)` is `conserving(0, 0, i)`.
    `index_of`, the one float entry point, finds the mode whose lattice
    point lies within a key step of p.

    Mode i, built from momenta[i], labels[i] and lams[i], has index i.  A
    momentum component that is not finite, or so large that |p|^2 or
    |p_i - p_j|^2 may overflow a double, raises ValueError.
    """

    def __init__(
        self,
        momenta: Sequence,
        labels: Sequence[Region | str],
        volume: float | None = None,
        lams: Sequence[float | None] | None = None,
    ):
        self.modes = [
            Mode(i, np.asarray(p, dtype=float), Region(lab), None if lams is None else lams[i])
            for i, (p, lab) in enumerate(zip(momenta, labels))
        ]
        self.volume = volume
        for m in self.modes:
            if not np.all(np.isfinite(m.p)):
                raise ValueError(f"mode {m.index}: momentum must be finite, got {m.p}")
        parts = np.abs(np.array([m.p for m in self.modes], dtype=float)).ravel()
        top = float(parts.max(initial=0.0))
        # |p|^2 <= 3 top^2 and |p_i - p_j|^2 <= 3 (2 top)^2, in Python floats
        if not math.isfinite(12.0 * top * top):
            raise ValueError(
                f"momentum component {top:.6g}: |p|^2 or |p_i - p_j|^2 overflows a double"
            )
        key_step = 1e-9 * (math.ldexp(1.0, math.frexp(top)[1]) if top > 0.0 else 1.0)
        self._scale = _lattice_step(parts[parts > 0.5 * key_step], 0.5 * key_step) or key_step
        self._near = key_step / self._scale
        self._q = [tuple(np.divide(m.p, self._scale).tolist()) for m in self.modes]
        self._by_coords = {}
        for m, q in zip(self.modes, self._q):
            n = tuple(map(round, q))
            if n in self._by_coords:
                raise ValueError(f"duplicate mode momentum {m.p}")
            self._by_coords[n] = m.index
        zero = self.index_of((0.0, 0.0, 0.0))
        if zero is None:
            raise ValueError("mode set must contain the zero mode")
        if self.modes[zero].region is not Region.P0:
            raise ValueError("zero mode must carry the P0 label")
        self.zero_index = zero
        self._neg = [self.conserving(zero, zero, m.index) for m in self.modes]

    def __len__(self) -> int:
        return len(self.modes)

    def __iter__(self):
        return iter(self.modes)

    def index_of(self, p) -> int | None:
        q = np.divide(p, self._scale)
        n = np.rint(q)
        if np.max(np.abs(q - n)) > self._near:
            return None
        return self._by_coords.get(tuple(int(x) for x in n))

    def conserving(self, a: int, b: int, c: int) -> int | None:
        """Index of the mode at p_a + p_b - p_c, None when the set has none."""
        qa, qb, qc = self._q[a], self._q[b], self._q[c]
        return self._by_coords.get(tuple(round(x + y - z) for x, y, z in zip(qa, qb, qc)))

    def neg_index(self, i: int) -> int | None:
        return self._neg[i]

    def nonzero_indices(self) -> list[int]:
        return [m.index for m in self.modes if m.index != self.zero_index]

    def indices_in(self, *regions: Region) -> list[int]:
        return [m.index for m in self.modes if m.region in regions]

    def momentum_matrix(self) -> np.ndarray:
        return np.stack([m.p for m in self.modes])


def load_toy_modes(path) -> ModeSet:
    """Read a toy mode set: one `px py pz label [lambda]` per line.

    Blank lines and `#` comments are skipped.  The `# volume = V` comment,
    which every file must carry, is the box volume.  A missing, non-finite or
    nonpositive volume raises ValueError, as `ModeSet` does for a non-finite
    momentum component.
    """
    momenta, labels, lams = [], [], []
    vol = None
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if line.startswith("#"):
                stripped = line[1:].replace(" ", "")
                if stripped.lower().startswith("volume="):
                    vol = float(stripped.split("=", 1)[1])
                continue
            if not line:
                continue
            parts = line.split()
            if len(parts) not in (4, 5):
                raise ValueError(f"malformed mode line: {raw!r}")
            momenta.append([float(parts[0]), float(parts[1]), float(parts[2])])
            labels.append(Region(parts[3]))
            lams.append(float(parts[4]) if len(parts) == 5 else None)
    if vol is None:
        raise ValueError("no '# volume = V' line")
    if not (vol > 0.0 and math.isfinite(vol)):
        raise ValueError(f"volume must be finite and > 0, got {vol}")
    return ModeSet(momenta, labels, volume=vol, lams=lams)


def _radial_continuum(radial: Callable[[float], float], k_lo: float, k_hi: float) -> float:
    """(2 pi)^-3 int_{k_lo<=|k|<=k_hi} radial(|k|) d^3k, on a log abscissa.

    Substituting k = e^t keeps quad happy when the bounds span many decades.
    """
    from scipy.integrate import quad

    if not (0.0 < k_lo < k_hi):
        raise ValueError("annulus needs 0 < k_lo < k_hi")
    val, _ = quad(
        lambda t: math.exp(3.0 * t) * radial(math.exp(t)),
        math.log(k_lo),
        math.log(k_hi),
        limit=400,
        epsabs=0.0,
        epsrel=1e-12,
    )
    return val / (2.0 * math.pi**2)


_SHELL_BUDGET = 60_000_000
# shells per block of the radial summand, and entries per block of the
# shell-count class-window gathers
_SUM_BLOCK = 1 << 16


def _square_class(parity: int, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Keys k = x^2 div 4 <= k_max of the x >= 0 of one parity, with weights.

    Each nonzero root weighs 2 for its sign, so the weighted keys tabulate
    A(k) = #{x in Z of the parity : x^2 div 4 = k}.
    """
    x = np.arange(parity, math.isqrt(4 * k_max + parity) + 1, 2)
    return x * x // 4, np.where(x == 0, 1.0, 2.0)


def _odd_smooth_ceil(n: int) -> int:
    """Smallest odd 3-5-7-smooth number >= n: a length scipy.fft transforms fast."""
    m = n | 1
    while True:
        rest = m
        for p in (3, 5, 7):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m
        m += 2


def _crt_shape(n_min: int) -> tuple[int, int]:
    """Coprime (n1, n2) = (2^a, odd 3-5-7-smooth) with n1 n2 >= n_min.

    n1 is tried at the three powers of two nearest sqrt(n_min), each with
    the smallest n2 that covers n_min, and the smallest product is kept.
    """
    a0 = n_min.bit_length() // 2
    n1s = [1 << a for a in range(max(a0 - 1, 0), a0 + 2)]
    shapes = [(n1, _odd_smooth_ceil(-(-n_min // n1))) for n1 in n1s]
    return min(shapes, key=lambda shape: shape[0] * shape[1])


def _crt_index(k, shape: tuple[int, int]):
    """Flat position of cyclic index k in the (n1, n2) layout: the CRT map
    k -> (k mod n1, k mod n2), a bijection of Z_{n1 n2} onto Z_{n1} x Z_{n2}
    for coprime n1, n2 under which cyclic convolution stays cyclic.  n1 is
    a power of two (`_crt_shape`) and every key is >= 0, so k mod n1 is the
    mask k & (n1 - 1)."""
    n1, n2 = shape
    return (k & (n1 - 1)) * n2 + k % n2


def _single_spectrum(parity: int, k_max: int, shape: tuple[int, int], workers: int) -> np.ndarray:
    """rfft2 of the one-square table A of one parity in the CRT layout."""
    from scipy.fft import rfft2

    k, w = _square_class(parity, k_max)
    table = np.zeros(shape, dtype=np.float32)
    table.ravel()[_crt_index(k, shape)] = w
    return rfft2(table, workers=workers)


def _pair_spectrum(parity: int, k_max: int, shape: tuple[int, int], workers: int) -> np.ndarray:
    """rfft2 of the pair table R, the self-convolution of A for k <= k_max.

    R(k) = #{(x, y) of the parity : x^2 div 4 + y^2 div 4 = k} is built one
    numpy row per x >= 0 over the quarter plane, visiting only y >= x: R is
    symmetric under x <-> y, so each off-diagonal pair adds 2 w_x w_y and the
    diagonal w_x^2.  The rows stop at the first x whose row holds no y >= x.
    Every table value is a small integer, exact in float32 in any order of
    addition, and the indices along a row are distinct (and stay so under
    the CRT map, as k <= k_max < n1 n2), so one fancy-index add per row is
    exact.
    """
    from scipy.fft import rfft2

    k, w = _square_class(parity, k_max)
    ends = np.searchsorted(k, k_max - k, side="right")
    twice = 2.0 * w
    table = np.zeros(shape, dtype=np.float32)
    flat = table.ravel()
    for i, j in enumerate(ends.tolist()):
        if j <= i:
            break
        vals = w[i] * twice[i:j]
        vals[0] = w[i] * w[i]
        flat[_crt_index(k[i] + k[i:j], shape)] += vals
    return rfft2(table, workers=workers)


def shell_counts(m_max: int, m_min: int = 0) -> np.ndarray:
    """r_3(m) = #{n in Z^3 : |n|^2 = m} for m = m_min .. m_max.

    A square is 0 or 1 mod 4, so the residue of m mod 4 fixes how many
    coordinates are odd.  With k = m div 4, A_0(k) = r_1(4k) and A_1(k) =
    r_1(4k+1) the even and odd squares, R_0(k) = r_2(4k) and R_2(k) =
    r_2(4k+2) the even-even and odd-odd pairs (r_1, r_2 count
    representations by one and two squares):

        r_3(4k)   = (A_0 * R_0)(k),      r_3(4k+1) = 3 (A_1 * R_0)(k),
        r_3(4k+2) = 3 (A_0 * R_2)(k),    r_3(4k+3) = (A_1 * R_2)(k),

    the 3 choosing which coordinate is the odd (or the even) one.  The
    tables stop at k_max = m_max div 4, so every linear product ends at
    2 k_max, and a cyclic convolution of length n folds index k >= n onto
    k - n <= 2 k_max - n.  With k_min = m_min div 4 every class window
    starts at k >= k_min, so any n >= n_min = 2 k_max + 1 - k_min, which
    also exceeds k_max, folds below all four and the window m_min .. m_max
    is exact.  The pair tables R_0, R_2 are built over y >= x alone (see
    `_pair_spectrum`).  The length is n = n1 n2 with n1 = 2^a and n2 odd
    (coprime, see `_crt_shape`), and the CRT map k -> (k mod n1, k mod n2)
    (`_crt_index`, a mask and one remainder; Agarwal and Cooley 1977) turns
    the cyclic convolution of length n into a 2-D cyclic convolution on
    Z_{n1} x Z_{n2}: each is one real 2-D FFT product (rfft2, and back by
    ifft down the columns in place on the product and irfft along the rows,
    threaded over the cores this process may run on), whose short lanes stay
    in cache where one transform of length n would not.  The tables are float32, so the
    transforms run in single precision (complex64 spectra, float32
    inverses).
    The float32 window is rounded back to integers before the factor 3, and
    BudgetExceeded is raised when any value lies 0.25 or more from its
    integer, so FFT roundoff can never change a count unseen.  The largest
    distance measured is 0.016 on the rho = 1e-8 P_L window and 0.031 at
    m_max = 6e7, from m_min = 1 or 4e7.  The guard sees such an error only
    while float32 spacing is below 0.25, so a value of 2^21 or more raises
    BudgetExceeded too.  The largest measured on m = 4e7 .. 6e7 is 140,208
    (about 2^17.1, r_3 at m = 56,619,419); the largest count there, 219,744,
    is three times a class value.
    """
    from scipy.fft import ifft, irfft

    if m_max > _SHELL_BUDGET:
        raise BudgetExceeded(f"shell budget: m_max={m_max} > {_SHELL_BUDGET}")
    if not 0 <= m_min <= m_max:
        raise ValueError(f"shell window needs 0 <= m_min <= m_max, got {m_min}..{m_max}")
    k_max, k_min = m_max // 4, m_min // 4
    shape = _crt_shape(2 * k_max + 1 - k_min)
    # the cores this process may run on; sched_getaffinity is Linux-only
    if hasattr(os, "sched_getaffinity"):
        workers = len(os.sched_getaffinity(0))
    else:
        workers = os.cpu_count() or 1
    raw = np.empty(m_max + 1 - m_min, dtype=np.float32)

    def convolve_class(c: int, product: np.ndarray) -> None:
        first = (c - m_min) % 4
        window = raw[first::4]
        k0 = (m_min + first) // 4
        # irfft2 in its two passes: irfft2 copies the whole spectrum before
        # its last pass, while the column pass alone runs in place on the
        # product.  n1 is a power of two, so its 1 / n1 scaling is exact
        # and the result is bit for bit irfft2's
        ifft(product, axis=0, overwrite_x=True, workers=workers)
        out = irfft(product, shape[1], axis=1, overwrite_x=True, workers=workers).ravel()
        # the window in blocks, each with the layout positions of its own k
        # (int32: n1 n2 < 2^31 within the shell budget)
        for start in range(0, window.size, _SUM_BLOCK):
            block = window[start : start + _SUM_BLOCK]
            k = np.arange(k0 + start, k0 + start + block.size, dtype=np.int32)
            block[:] = out[_crt_index(k, shape)]

    # the spectra set the peak memory: each is an (n1, n2 div 2 + 1)
    # complex64 array (19 MB on the rho = 1e-8 window, 83 MB at m_max = 6e7
    # from 4e7).  Each product overwrites one factor, which is released
    # before the next spectrum is built, and the inverse takes no copy of
    # it, so at most three spectrum-sized arrays are alive (two spectra
    # beside one table or one inverse), with the float32 window and one
    # block of layout positions; A_0 is built twice for it
    fr0 = _pair_spectrum(0, k_max, shape, workers)
    fa0 = _single_spectrum(0, k_max, shape, workers)
    convolve_class(0, np.multiply(fa0, fr0, out=fa0))
    del fa0
    fa1 = _single_spectrum(1, k_max, shape, workers)
    convolve_class(1, np.multiply(fa1, fr0, out=fr0))
    del fr0
    fr2 = _pair_spectrum(1, k_max, shape, workers)
    convolve_class(3, np.multiply(fa1, fr2, out=fa1))
    del fa1
    fa0 = _single_spectrum(0, k_max, shape, workers)
    convolve_class(2, np.multiply(fa0, fr2, out=fr2))
    del fa0, fr2
    # from 2^21 up float32 spacing is 0.25 or more: the guard below is blind
    top = float(raw.max())
    if top >= 2.0**21:
        raise BudgetExceeded(
            f"shell counts: class value {top:.7g} >= 2^21 at m_max={m_max}; "
            "float32 roundoff not measurable"
        )
    counts = np.rint(raw)
    raw -= counts  # the roundoff, in place
    margin = float(np.max(np.abs(raw, out=raw)))
    del raw
    if margin >= 0.25:
        raise BudgetExceeded(
            f"shell counts: FFT roundoff {margin:.3g} >= 0.25 at m_max={m_max}; counts not exact"
        )
    counts = counts.astype(np.int64)
    for c in (1, 2):
        counts[(c - m_min) % 4 :: 4] *= 3
    return counts


def shell_window(schedule: Schedule, p_lo: float, p_hi: float) -> tuple[int, int]:
    """The shells m_lo .. m_hi of the annulus p_lo <= |p| <= p_hi (m_lo >= 1,
    the zero mode left out).  A top shell (p_hi / step)^2 past the shell
    budget + 1 raises BudgetExceeded naming rho, a test read in logs before
    the box volume, the shell index or the box length can overflow; an
    annulus with no shell raises EmptyAnnulus.  Both refusals are functions
    of the schedule alone, so a caller can run this before any work on it."""
    log_top = 2.0 * (math.log10(p_hi / (2.0 * math.pi)) - _BOX_EXPONENT * math.log10(schedule.rho))
    if log_top > math.log10(_SHELL_BUDGET + 2):
        raise BudgetExceeded(
            f"rho = {schedule.rho!r}: the annulus reaches shell m = 10^{log_top:.1f}, "
            f"past the shell budget m <= {_SHELL_BUDGET}"
        )
    step = schedule.spacing
    m_lo = max(math.ceil((p_lo / step) ** 2 - 1e-9), 1)
    m_hi = math.floor((p_hi / step) ** 2 + 1e-9)
    if m_hi < m_lo:
        raise EmptyAnnulus(
            f"the annulus {p_lo:.6g} <= |p| <= {p_hi:.6g} at rho = {schedule.rho!r}, "
            f"eta = {schedule.eta!r} contains no lattice shells"
        )
    return m_lo, m_hi


def radial_shell_sum(
    schedule: Schedule,
    radial: Callable,
    p_lo: float,
    p_hi: float,
) -> dict:
    """(1/|Lambda|) sum over lattice modes with p_lo <= |p| <= p_hi, exactly.

    `radial` must accept a vector of magnitudes and a float, which the
    continuum quadrature passes.  The continuum companion is the
    same-annulus integral (2 pi)^-3 int radial(|k|) d^3 k, so the gap
    isolates the pure discretization error O(|Lambda|^-1/3).  Returns
    lattice_per_volume, continuum_annulus, their rel_gap_annulus, the
    n_modes summed and the lattice spacing.

    The shell window comes from `shell_window`: a top shell past the budget
    raises BudgetExceeded and an annulus with no shell EmptyAnnulus;
    shell_counts checks the exact index.
    """
    m_lo, m_hi = shell_window(schedule, p_lo, p_hi)
    step = schedule.spacing
    counts = shell_counts(m_hi, m_lo)
    # the summand block by block into one array of the occupied shells'
    # terms: each term is the same elementwise product as in one pass, so
    # their sum is too, with only one block of temporaries alive
    terms = np.empty(np.count_nonzero(counts))
    filled = 0
    for start in range(0, counts.size, _SUM_BLOCK):
        block = counts[start : start + _SUM_BLOCK]
        shells = np.flatnonzero(block)
        mags = np.sqrt(shells + float(m_lo + start)) * step
        vals = radial(mags)
        if not np.all(np.isfinite(vals)):
            raise DivergentIntegrand("radial summand not finite inside the annulus")
        np.multiply(block[shells], vals, out=terms[filled : filled + shells.size])
        filled += shells.size
    lattice = float(np.sum(terms)) / schedule.volume
    continuum = _radial_continuum(radial, p_lo, p_hi)
    gap = abs(lattice - continuum) / abs(continuum) if continuum != 0.0 else math.inf
    return {
        "lattice_per_volume": lattice,
        "continuum_annulus": continuum,
        "rel_gap_annulus": gap,
        "n_modes": int(np.sum(counts)),
        "spacing": step,
    }


def number_density_summand(rho: float, g0: float) -> Callable[[np.ndarray], np.ndarray]:
    """(rho lambda_u)^2 / (1 - (rho lambda_u)^2) on P_L, as a radial profile.

    With x = 4 rho g0 / u^2 and h = sqrt(1 + x) this equals (h-1)^2 / 4h,
    evaluated as x^2 / (4 h (1+h)^2) through h - 1 = x / (1+h): no digits
    cancel at weak coupling, where h - 1 would round to 0, and x / (1+h) is
    squared, not x, so a large x does not overflow.
    """

    def f(mags):
        x = 4.0 * rho * g0 / (mags * mags)
        h = np.sqrt(1.0 + x)
        y = x / (1.0 + h)
        return y * y / (4.0 * h)

    return f


def pl_number_density_comparison(schedule: Schedule, g0: float) -> dict:
    """Exact P_L number-density sum vs its continuum companions.

    Returns the per-volume lattice sum, the same-annulus continuum value,
    their relative gap, and the full-space reference rho^(3/2) g0^(3/2)/(3 pi^2)
    with the (slowly vanishing) annulus-truncation gap against it.
    """
    rho = schedule.rho
    res = radial_shell_sum(
        schedule,
        number_density_summand(rho, g0),
        schedule.p_gap_top,
        schedule.p_low_top,
    )
    full_space = rho**1.5 * g0**1.5 / (3.0 * math.pi**2)
    return {
        "rho": rho,
        **res,
        "full_space_reference": full_space,
        "rel_gap_full_space": abs(res["lattice_per_volume"] - full_space) / full_space,
    }
