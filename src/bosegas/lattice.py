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
same annulus; the relative gap shrinks like O(|Lambda|^-1/3).  Since a
square is 0 or 1 mod 4, r_3 splits by the residue of m mod 4 into four
convolutions of one-square by two-square tables, each indexed by k = m div 4
(see `shell_counts`).  A two-square table is symmetric under x <-> y, so
it is built over the pairs with y >= x only, each off-diagonal pair counted
twice.  For the shells m_lo .. m_hi any cyclic length
n >= 2 (m_hi div 4) + 1 - (m_lo div 4) is exact: each linear product ends at
2 (m_hi div 4), and the terms past n fold back below m_lo div 4, outside
every class window.  The length is n = n1 n2 with n1 a power of two and n2
odd, and the Chinese-remainder index map k -> (k mod n1, k mod n2) (Agarwal
and Cooley 1977; k mod n1 is the mask k & (n1 - 1)) makes each cyclic
convolution of length n a 2-D cyclic convolution on Z_{n1} x Z_{n2},
computed as one real 2-D FFT product whose transforms are threaded over
every core this process may run on.  The transforms run in single precision
(float32 tables, complex64 spectra, a float32 class window): every value
must round to its integer with a margin below 0.25, and the largest
distance measured is 0.016 at rho = 1e-8 and 0.031 at m = 6e7 (2e-11 and
7e-11 in double precision), so the counts are exact.  Shell counts stop at
m = 6e7 (rho of about 2.7e-9 at the default eta) with BudgetExceeded.  At
most three spectrum-sized arrays are alive at once, and the radial summand
runs in blocks of shells, in place, into one float64 term per occupied
shell, so on the rho = 1e-8 P_L window the traced peak is 80 MiB inside
`shell_counts` and 63 MiB in the sum after it.

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
    "check_shell_reach",
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
    def eps_l(self) -> float:
        return self.rho**self.eta

    @property
    def eta_l(self) -> float:
        return self.rho**self.eta

    @property
    def eps_h(self) -> float:
        return self.rho**self.eta

    @property
    def m_c(self) -> int:
        return max(2, math.floor(self.rho**-self.eta))

    @property
    def p_gap_top(self) -> float:
        # also the closed lower edge of P_L
        return self.eps_l * math.sqrt(self.rho)

    @property
    def p_low_top(self) -> float:
        # closed upper edge of P_L, open lower edge of P_I
        return math.sqrt(self.rho) / self.eta_l

    @property
    def n_particles(self) -> int:
        return max(1, round(self.rho * self.volume))

    @property
    def n_rounding(self) -> float:
        """Shift absorbed when rounding rho L^3 to an integer particle count."""
        return self.n_particles - self.rho * self.volume

    def as_dict(self) -> dict:
        return {
            "rho": self.rho,
            "eta": self.eta,
            "box_length": self.box_length,
            "eps_L": self.eps_l,
            "eta_L": self.eta_l,
            "eps_H": self.eps_h,
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
    """

    def __init__(self, modes: Sequence[Mode], volume: float | None = None):
        self.modes = list(modes)
        self.volume = volume
        for m in self.modes:
            if not np.all(np.isfinite(m.p)):
                raise ValueError(f"mode {m.index}: momentum must be finite, got {m.p}")
        parts = np.abs(np.array([m.p for m in self.modes], dtype=float)).ravel()
        top = float(parts.max(initial=0.0))
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

    @classmethod
    def toy(
        cls,
        momenta: Sequence,
        labels: Sequence[Region | str],
        volume: float | None = None,
        lams: Sequence[float | None] | None = None,
    ) -> "ModeSet":
        modes = []
        for i, (p, lab) in enumerate(zip(momenta, labels)):
            region = Region(lab)
            lam = None if lams is None else lams[i]
            modes.append(Mode(index=i, p=np.asarray(p, dtype=float), region=region, lam=lam))
        return cls(modes, volume=volume)

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


def load_toy_modes(path, volume: float | None = None) -> ModeSet:
    """Read a toy mode set: one `px py pz label [lambda]` per line.

    Blank lines and `#` comments are skipped.  A `# volume = V` comment sets
    the box volume unless one is passed explicitly.  A non-finite momentum
    component or volume raises ValueError.
    """
    momenta, labels, lams = [], [], []
    file_volume = None
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if line.startswith("#"):
                stripped = line[1:].replace(" ", "")
                if stripped.lower().startswith("volume="):
                    file_volume = float(stripped.split("=", 1)[1])
                continue
            if not line:
                continue
            parts = line.split()
            if len(parts) not in (4, 5):
                raise ValueError(f"malformed mode line: {raw!r}")
            p = [float(parts[0]), float(parts[1]), float(parts[2])]
            if not all(map(math.isfinite, p)):
                raise ValueError(f"momentum must be finite: {raw!r}")
            momenta.append(p)
            labels.append(Region(parts[3]))
            lams.append(float(parts[4]) if len(parts) == 5 else None)
    vol = volume if volume is not None else file_volume
    if vol is not None and not (vol > 0.0 and math.isfinite(vol)):
        raise ValueError(f"volume must be finite and > 0, got {vol}")
    return ModeSet.toy(momenta, labels, volume=vol, lams=lams)


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
# shells per block of the radial summand
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
    (`_crt_index`, a mask and one remainder) turns the cyclic convolution
    of length n into a 2-D cyclic convolution on Z_{n1} x Z_{n2}: each is
    one real 2-D FFT product (rfft2 / irfft2, threaded over the cores this
    process may run on), whose short lanes stay in cache where one
    transform of length n would not.  The tables are float32, so the
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
    from scipy.fft import irfft2

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
    # layout positions of k = k_min .. k_max, where every class window lies
    # (int32: n1 n2 < 2^31 within the shell budget)
    where = _crt_index(np.arange(k_min, k_max + 1, dtype=np.int32), shape)
    raw = np.empty(m_max + 1 - m_min, dtype=np.float32)

    def convolve_class(c: int, product: np.ndarray) -> None:
        first = (c - m_min) % 4
        window = raw[first::4]
        k0 = (m_min + first) // 4 - k_min
        out = irfft2(product, shape, overwrite_x=True, workers=workers)
        window[:] = out.ravel()[where[k0 : k0 + window.size]]

    # the spectra set the peak memory: each is an (n1, n2 div 2 + 1)
    # complex64 array (19 MB on the rho = 1e-8 window, 83 MB at m_max = 6e7
    # from 4e7).  Each product overwrites one factor, which is released
    # before the next spectrum is built, so at most three spectrum-sized
    # arrays are alive (two spectra beside one table or one inverse), with
    # the float32 window and the layout positions; A_0 is built twice for it
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


def check_shell_reach(schedule: Schedule, p_hi: float) -> None:
    """Refuse an annulus up to p_hi whose top shell (p_hi / step)^2 lies past
    the shell budget + 1, with BudgetExceeded naming rho.  The test is read
    in logs, before the box volume, the shell index or the box length can
    overflow, and needs no solve, so a caller can refuse a schedule before
    any work on it."""
    log_top = 2.0 * (math.log10(p_hi / (2.0 * math.pi)) - _BOX_EXPONENT * math.log10(schedule.rho))
    if log_top > math.log10(_SHELL_BUDGET + 2):
        raise BudgetExceeded(
            f"rho = {schedule.rho!r}: the annulus reaches shell m = 10^{log_top:.1f}, "
            f"past the shell budget m <= {_SHELL_BUDGET}"
        )


def shell_window(schedule: Schedule, p_lo: float, p_hi: float) -> tuple[int, int]:
    """The shells m_lo .. m_hi of the annulus p_lo <= |p| <= p_hi (m_lo >= 1,
    the zero mode left out), after `check_shell_reach` has refused a top
    shell past the budget.  An annulus with no shell raises EmptyAnnulus.
    Both refusals are functions of the schedule alone, so a caller can run
    this before any work on it."""
    check_shell_reach(schedule, p_hi)
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
    radial: Callable[[np.ndarray], np.ndarray],
    p_lo: float,
    p_hi: float,
) -> dict:
    """(1/|Lambda|) sum over lattice modes with p_lo <= |p| <= p_hi, exactly.

    `radial` must accept a vector of magnitudes.  The continuum companion is
    the same-annulus integral (2 pi)^-3 int radial(|k|) d^3 k, so the gap
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
        # sqrt(m) step, formed in place in the one float copy of the shells
        mags = shells + float(m_lo + start)
        np.sqrt(mags, out=mags)
        mags *= step
        vals = radial(mags)
        if not np.all(np.isfinite(vals)):
            raise DivergentIntegrand("radial summand not finite inside the annulus")
        np.multiply(block[shells], vals, out=terms[filled : filled + shells.size])
        filled += shells.size
    lattice = float(np.sum(terms)) / schedule.volume
    continuum = _radial_continuum(lambda k: float(radial(np.array([k]))[0]), p_lo, p_hi)
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

    def f(mags: np.ndarray) -> np.ndarray:
        # x = 4 rho g0 / u^2, then (x / (1 + h))^2 / (4 h) in place: a copy
        # of the magnitudes (a 0-d array for a float) holds every step, h and
        # one scratch array t the rest, with the same operations in the same
        # order as the one-line formula
        x = np.array(mags, dtype=float)
        x *= x
        np.divide(4.0 * rho * g0, x, out=x)
        h = np.add(x, 1.0, out=np.empty_like(x))
        np.sqrt(h, out=h)
        t = np.add(h, 1.0, out=np.empty_like(x))
        x /= t
        x *= x
        x /= np.multiply(h, 4.0, out=t)
        return x

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
