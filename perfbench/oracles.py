"""Computations the benchmark checks `bosegas` outputs against.

None of these call into `bosegas`: each is a separate route to a number the
program also produces, small enough to audit by eye and tested against a
closed form in `test_oracles.py`.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext

import numpy as np

# pi to 50 digits, for the exact lattice-shell bounds
_PI = Decimal("3.14159265358979323846264338327950288419716939937510")

LHY_RATIO = 16.0 / (15.0 * math.pi**2)


def phase_scattering_length(v, r_max: float, n_steps: int = 4000) -> float:
    """Scattering length of -u'' + V u = 0 by the variable-phase equation.

    Writing u = c(r) (r - a(r)) with u' = c(r) turns the radial equation into
    the first-order a'(r) = V(r) (r - a(r))^2, a(0) = 0, and a(r_max) is the
    scattering length once V vanishes beyond r_max.  `v` maps radii to V.
    Classical fixed-step RK4.
    """
    h = r_max / n_steps
    a = 0.0
    r = 0.0
    for _ in range(n_steps):
        k1 = v(r) * (r - a) ** 2
        k2 = v(r + 0.5 * h) * (r + 0.5 * h - a - 0.5 * h * k1) ** 2
        k3 = v(r + 0.5 * h) * (r + 0.5 * h - a - 0.5 * h * k2) ** 2
        k4 = v(r + h) * (r + h - a - h * k3) ** 2
        a += h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        r += h
    return a


def gaussian_scattering_length(amplitude: float, width: float) -> float:
    """Scattering length of V(r) = amplitude exp(-r^2 / 2 width^2).

    Integrated to 12 widths, where V has fallen below 1e-31 of its height.
    """

    def v(r: float) -> float:
        return amplitude * math.exp(-0.5 * (r / width) ** 2)

    return phase_scattering_length(v, 12.0 * width)


def square_well_scattering_length(height: float, radius: float) -> float:
    """Closed form a = R (1 - tanh(kR)/(kR)), k = sqrt(height), for a barrier."""
    kr = math.sqrt(height) * radius
    return radius * (1.0 - math.tanh(kr) / kr)


def gaussian_fourier(amplitude: float, width: float, p: float = 0.0) -> float:
    """V_p = 4 pi int r^2 V(r) sinc(pr) dr = A (2 pi s^2)^{3/2} exp(-p^2 s^2/2)."""
    return amplitude * (2.0 * math.pi * width**2) ** 1.5 * math.exp(-0.5 * (p * width) ** 2)


def _isqrt_array(v: np.ndarray) -> np.ndarray:
    """floor(sqrt(v)) for nonnegative int64 v below 2^52, exactly."""
    s = np.floor(np.sqrt(v.astype(np.float64))).astype(np.int64)
    s -= (s * s > v).astype(np.int64)
    s += ((s + 1) * (s + 1) <= v).astype(np.int64)
    return s


def lattice_points_within(m: int) -> int:
    """#{n in Z^3 : |n|^2 <= m} as sum over (x, y) of 2 isqrt(m - x^2 - y^2) + 1."""
    if m < 0:
        return 0
    r = math.isqrt(m)
    ys = np.arange(-r, r + 1, dtype=np.int64)
    total = 0
    for x in range(-r, r + 1):
        rest = m - x * x - ys * ys
        rest = rest[rest >= 0]
        total += int(np.sum(2 * _isqrt_array(rest) + 1))
    return total


def lattice_points_between(m_lo: int, m_hi: int) -> int:
    """#{n in Z^3 : m_lo <= |n|^2 <= m_hi}."""
    return lattice_points_within(m_hi) - lattice_points_within(m_lo - 1)


def low_annulus_shells(rho: float, eta: float) -> tuple[int, int]:
    """Integer |n|^2 range of the closed low-momentum annulus at density rho.

    The annulus is rho^(1/2+eta) <= |p| <= rho^(1/2-eta) on the lattice of
    spacing 2 pi rho^(25/24), so |n|^2 runs over
    [rho^(1+2eta-25/12), rho^(1-2eta-25/12)] / (4 pi^2).  Evaluated in
    50-digit decimal arithmetic from the binary values of rho and eta.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        r = Decimal(rho)
        e = Decimal(eta)
        four_pi2 = 4 * _PI * _PI
        base = Decimal(1) - Decimal(25) / Decimal(12)
        lo = ((base + 2 * e) * r.ln()).exp() / four_pi2
        hi = ((base - 2 * e) * r.ln()).exp() / four_pi2
        m_lo = max(int(lo.to_integral_value(rounding="ROUND_CEILING")), 1)
        m_hi = int(hi.to_integral_value(rounding="ROUND_FLOOR"))
    return m_lo, m_hi


def one_pair_tower_size(n: int) -> int:
    """Closure size of one outer +-k pair with n particles: floor(n/2) + 1."""
    return n // 2 + 1


def two_pair_tower_size(n: int) -> int:
    """Closure size of two outer pairs: #{a + b <= n/2} = C(floor(n/2) + 2, 2)."""
    return math.comb(n // 2 + 2, 2)


def kinetic_from_closure(text: str, momenta: list) -> float:
    """sum_states |f|^2 sum_j c_j |p_j|^2 from an exported closure listing.

    Each line reads `j,c;j,c;... |f|2=<prob> phase=<q>`; `momenta[j]` is
    the momentum of mode j.
    """
    mag2 = [float(sum(x * x for x in p)) for p in momenta]
    total = 0.0
    for line in text.splitlines():
        if not line.strip():
            continue
        key, prob_field, _ = line.split(" ")
        prob = float(prob_field.split("=", 1)[1])
        occupied = 0.0
        if key:
            for entry in key.split(";"):
                j, c = entry.split(",")
                occupied += int(c) * mag2[int(j)]
        total += prob * occupied
    return total
