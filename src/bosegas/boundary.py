"""Periodic-to-Dirichlet window: cosine ramp, isometry check, kinetic penalty.

The window q rises from 0 at -ell to 1 at +ell through a quarter cosine,
holds 1 across [ell, L-ell], and falls back to 0 at L+ell:

    q(x) = cos((x - ell) pi / (4 ell))        |x| <= ell
           1                                  ell < x < L - ell
           cos((x - (L - ell)) pi / (4 ell))  |x - L| <= ell
           0                                  otherwise

The two ramps sit a quarter period apart, so q(x)^2 + q(x+L)^2 = 1 on the
overlap [-ell, ell].  Folding the extended interval [-ell, L+ell] onto one
period therefore preserves the L2 mass of any L-periodic function: the map
phi -> q phi takes periodic boundary conditions on [0, L] to Dirichlet
conditions on [-ell, L+ell] isometrically.  In 3-D the window is the
coordinate product h(x) = q(x1) q(x2) q(x3) and everything factorizes.

The price is kinetic.  For smooth periodic phi,

    int |(q phi)'|^2 <= int_0^L |phi'|^2 + C ell^-2 int chi |phi|^2

with chi the indicator of the ell-collar of the period box (torus distance
to the seam at most ell, total measure 2 ell).  Two consequences of the
same folding identity pin the constant: the cross term integrates to zero
(integrate (q^2)' d|phi|^2/dx by parts; q vanishes at both ends and the
folded second derivative integrates to zero over a period), and
q'(x)^2 + q'(x+L)^2 is the constant (pi/4ell)^2 on the fold.  So equality
holds with C = pi^2/16 exactly, for every smooth periodic phi.  The bound
is stated here with C unspecified; kinetic_penalty reports the measured
ratio rather than asserting the sharp value.

Every integral is a composite Simpson sum, and a window and a resolution
fix just six grids: the three smooth panels of [-ell, L+ell] split at the
kinks of q, the period [0, L], and the two collar arcs [0, ell] and
[L-ell, L].  kinetic_penalty makes one pass over them.  It builds each grid
once, samples q and q' once per panel, and calls its sampler once per grid
for the pair (phi, phi') of every function it checks.  The isometry pair
and the penalty triple then come from the same samples.  check_isometry
serves callers without a derivative; it samples phi once on each of its
four grids, through the same integrands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Window",
    "window_q",
    "window_q_prime",
    "collar_indicator",
    "IsometryReport",
    "check_isometry",
    "isometry_3d_separable",
    "PenaltyReport",
    "kinetic_penalty",
    "shifted_collar_average",
    "trig_polynomial",
]


@dataclass(frozen=True)
class Window:
    """Cosine window of margin ell on a box of side period."""

    ell: float
    period: float

    def __post_init__(self):
        if not (self.ell > 0):
            raise ValueError("need ell > 0")
        if not (self.ell <= self.period / 2.0):
            raise ValueError("need ell <= period/2 (plateau must not be negative)")

    @property
    def collar_fraction(self) -> float:
        """Measure fraction of the ell-collar on the torus, 2 ell / L."""
        return 2.0 * self.ell / self.period

    @property
    def breakpoints(self) -> tuple[float, float, float, float]:
        """Kinks of q: panel edges for piecewise quadrature."""
        return (-self.ell, self.ell, self.period - self.ell, self.period + self.ell)


def _branches(w: Window, xs):
    """Boolean masks for rise/plateau/fall against the shared breakpoints.

    Comparing against the same floats the quadrature panels use keeps the
    branch choice consistent at the kinks (x = L +- ell need not round to
    |x - L| == ell exactly).
    """
    b0, b1, b2, b3 = w.breakpoints
    return (
        (xs >= b0) & (xs <= b1),
        (xs > b1) & (xs < b2),
        (xs >= b2) & (xs <= b3),
    )


def window_q(w: Window, x):
    """The window value; scalar in, scalar out (arrays broadcast)."""
    xs = np.asarray(x, dtype=float)
    ell, big_l = w.ell, w.period
    on_rise, on_plateau, on_fall = _branches(w, xs)
    # each ramp only on its own nodes; rise is written last, so it wins where
    # the masks meet (ell = L/2), as the first branch of a select would
    out = np.zeros_like(xs)
    out[on_fall] = np.cos((xs[on_fall] - (big_l - ell)) * np.pi / (4.0 * ell))
    out[on_plateau] = 1.0
    out[on_rise] = np.cos((xs[on_rise] - ell) * np.pi / (4.0 * ell))
    # the cosine argument at the outer support edges can round a half-ulp
    # past its zero crossing; the window itself never leaves [0, 1]
    out = np.clip(out, 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


def window_q_prime(w: Window, x):
    """One-sided derivative of q (jumps at the outer edges +-ell, L+-ell)."""
    xs = np.asarray(x, dtype=float)
    ell, big_l = w.ell, w.period
    s = np.pi / (4.0 * ell)
    on_rise, _, on_fall = _branches(w, xs)
    # zero on the plateau and outside; rise written last, as in window_q
    out = np.zeros_like(xs)
    out[on_fall] = -s * np.sin((xs[on_fall] - (big_l - ell)) * np.pi / (4.0 * ell))
    out[on_rise] = -s * np.sin((xs[on_rise] - ell) * np.pi / (4.0 * ell))
    return float(out) if out.ndim == 0 else out


def collar_indicator(w: Window, x):
    """chi: torus distance from x to the seam at 0 is at most ell."""
    xs = np.asarray(x, dtype=float)
    y = np.mod(xs, w.period)
    dist = np.minimum(y, w.period - y)
    out = (dist <= w.ell).astype(float)
    return float(out) if out.ndim == 0 else out


def _nodes(a: float, b: float, resolution: int):
    """Composite Simpson nodes on [a, b] and their step.

    resolution counts subintervals; it is forced even (at least 2).
    """
    n = max(2, resolution + (resolution % 2))
    return np.linspace(a, b, n + 1), (b - a) / n


def _simpson(ys, h: float) -> float:
    """Composite Simpson sum of samples on equally spaced nodes of step h."""
    return float(h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum()))


def _extended_grids(w: Window, resolution: int):
    """Nodes of [-ell, L+ell] split at the window kinks, one smooth panel each.

    The plateau panel is empty when ell = L/2 and is skipped.
    """
    b0, b1, b2, b3 = w.breakpoints
    for a, b in ((b0, b1), (b1, b2), (b2, b3)):
        if b > a:
            yield _nodes(a, b, resolution)


def _density(phi):
    """|phi|^2: the integrand of the periodic and collar masses."""
    return np.abs(phi) ** 2


def _windowed_density(q, phi):
    """q^2 |phi|^2: the integrand of the extended mass."""
    return q**2 * _density(phi)


@dataclass(frozen=True)
class IsometryReport:
    extended: float
    periodic: float

    @property
    def residual(self) -> float:
        return abs(self.extended - self.periodic)

    @property
    def rel_residual(self) -> float:
        scale = max(abs(self.periodic), 1.0)
        return self.residual / scale


def check_isometry(w: Window, phi, *, resolution: int = 1 << 14) -> IsometryReport:
    """Compare int q^2 |phi|^2 over [-ell, L+ell] with int |phi|^2 over [0, L].

    phi(xs) returns the samples of an L-periodic function; it is evaluated
    directly on the extended interval, once on each of four Simpson grids:
    the three smooth panels of [-ell, L+ell] and the period [0, L].  The
    window is sampled once per panel.  resolution counts Simpson
    subintervals per grid.  kinetic_penalty reports the same pair from the
    same integrands; this form serves callers that have no derivative.
    """
    extended = sum(
        _simpson(_windowed_density(window_q(w, xs), phi(xs)), h)
        for xs, h in _extended_grids(w, resolution)
    )
    xs, h = _nodes(0.0, w.period, resolution)
    periodic = _simpson(_density(phi(xs)), h)
    return IsometryReport(extended=extended, periodic=periodic)


def isometry_3d_separable(w: Window, factors, *, resolution: int = 1 << 12) -> dict:
    """Isometry for a separable 3-D state Phi = phi1 phi2 phi3 under h.

    Both 3-D integrals factor into the 1-D ones, so the check multiplies
    per-axis reports and never touches a 3-D grid.
    """
    if len(factors) != 3:
        raise ValueError("need exactly three 1-D factors")
    reports = [check_isometry(w, phi, resolution=resolution) for phi in factors]
    extended = math.prod(r.extended for r in reports)
    periodic = math.prod(r.periodic for r in reports)
    return {
        "extended": extended,
        "periodic": periodic,
        "residual": abs(extended - periodic),
        "per_axis": [(r.extended, r.periodic) for r in reports],
    }


@dataclass(frozen=True)
class PenaltyReport:
    lhs: float
    periodic_kinetic: float
    collar_mass: float
    ell: float
    isometry: IsometryReport

    @property
    def excess(self) -> float:
        """Kinetic cost of windowing: lhs minus the periodic kinetic term."""
        return self.lhs - self.periodic_kinetic

    @property
    def implied_constant(self) -> float:
        """C such that lhs = periodic kinetic + C ell^-2 collar mass.

        nan when phi carries no mass on the collar.
        """
        if self.collar_mass <= 0.0:
            return math.nan
        return self.excess * self.ell**2 / self.collar_mass

    def holds_with(self, constant: float) -> bool:
        """lhs <= periodic kinetic + constant ell^-2 collar mass, up to 1e-9 relative."""
        rhs = self.periodic_kinetic + constant / self.ell**2 * self.collar_mass
        scale = max(abs(self.lhs), abs(rhs), 1.0)
        return self.lhs <= rhs + 1e-9 * scale


def _extended_terms(w: Window, xs, h: float, sample):
    """Per function: the Simpson sums of q^2 |phi|^2 and |(q phi)'|^2 on one
    extended panel, as rows of an (m, 2) array; q and q' are sampled once."""
    q, dq = window_q(w, xs), window_q_prime(w, xs)
    return np.array(
        [
            (_simpson(_windowed_density(q, phi), h), _simpson(np.abs(dq * phi + q * dphi) ** 2, h))
            for phi, dphi in sample(xs)
        ]
    )


def _masses(xs, h: float, sample):
    """Per function: the Simpson sums of |phi|^2 and |phi'|^2 on one grid,
    as rows of an (m, 2) array."""
    return np.array(
        [(_simpson(_density(phi), h), _simpson(_density(dphi), h)) for phi, dphi in sample(xs)]
    )


def kinetic_penalty(w: Window, sample, *, resolution: int = 1 << 14) -> list[PenaltyReport]:
    """Evaluate both sides of the windowed kinetic-energy bound.

    lhs  = int_{-ell}^{L+ell} |(q phi)'|^2
    rhs  = int_0^L |phi'|^2  +  C ell^-2 int chi |phi|^2

    with the collar mass int chi |phi|^2 taken over one period.  sample(xs)
    yields one pair (phi(xs), phi'(xs)) per function, each function
    L-periodic; the result holds one report per pair, in order.  A
    generator keeps one function's samples alive at a time.

    One pass covers the window's six Simpson grids, each built once: the
    three smooth panels of [-ell, L+ell], the period [0, L], and the two
    collar arcs [0, ell] and [L-ell, L].  sample is called once per grid
    and q, q' once per panel, so functions sampled together share both.
    Each report carries the isometry pair of check_isometry, from the same
    samples and the same integrands.
    """
    extended_lhs = sum(
        _extended_terms(w, xs, h, sample) for xs, h in _extended_grids(w, resolution)
    )
    periodic_kin = _masses(*_nodes(0.0, w.period, resolution), sample)
    # chi is supported on [0, ell] and [L-ell, L]; integrate each arc whole
    collar = (
        _masses(*_nodes(0.0, w.ell, resolution), sample)[:, 0]
        + _masses(*_nodes(w.period - w.ell, w.period, resolution), sample)[:, 0]
    )
    return [
        PenaltyReport(
            lhs=float(lhs),
            periodic_kinetic=float(kin),
            collar_mass=float(mass),
            ell=w.ell,
            isometry=IsometryReport(extended=float(extended), periodic=float(periodic)),
        )
        for (extended, lhs), (periodic, kin), mass in zip(extended_lhs, periodic_kin, collar)
    ]


def shifted_collar_average(w: Window, probes) -> dict:
    """Average chi(x + u) over n_shifts = 4096 shifts u in [0, L): the collar
    fraction, any x.

    Midpoint sampling of an arc of measure 2 ell; the count is off by at
    most the two boundary samples, so |average - 2 ell/L| <= 2/n_shifts.
    """
    n_shifts = 1 << 12
    us = (np.arange(n_shifts) + 0.5) * (w.period / n_shifts)
    averages = [float(np.mean(collar_indicator(w, x + us))) for x in np.atleast_1d(probes)]
    exact = w.collar_fraction
    return {
        "averages": averages,
        "exact": exact,
        "max_gap": max(abs(v - exact) for v in averages),
        "n_shifts": n_shifts,
    }


def trig_polynomial(period: float, cos_coeffs, sin_coeffs):
    """Real trig polynomials on [0, period] and their derivatives, as one sampler.

    cos_coeffs[k], sin_coeffs[k] weight cos/sin(2 pi (k+1) x / L); the
    constant term is fixed at 1 so each polynomial has collar mass.  2-D
    coefficient arrays hold one polynomial per row.  The sampler is a
    generator over xs yielding one pair (phi(xs), phi'(xs)) per polynomial,
    the form kinetic_penalty takes; every pair comes from one cos and one
    sin of the angle matrix.
    """
    ck = np.atleast_2d(np.asarray(cos_coeffs, dtype=float))
    sk = np.atleast_2d(np.asarray(sin_coeffs, dtype=float))
    if ck.shape != sk.shape:
        raise ValueError("coefficient arrays must have equal shapes")
    freqs = 2.0 * np.pi * np.arange(1, ck.shape[1] + 1) / period
    dck, dsk = freqs * ck, freqs * sk

    def sample(xs):
        angles = np.multiply.outer(np.asarray(xs, dtype=float), freqs)
        cos = np.cos(angles)
        sin = np.sin(angles, out=angles)
        for c, s, dc, ds in zip(ck, sk, dck, dsk):
            yield 1.0 + cos @ c + sin @ s, cos @ ds - sin @ dc

    return sample
