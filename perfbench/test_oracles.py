"""Each benchmark oracle against a closed form or a brute-force count.

Run with `python3 -m pytest perfbench/test_oracles.py -q`.
"""

from __future__ import annotations

import itertools
import math

import pytest
from scipy.integrate import quad

import oracles


@pytest.mark.parametrize("height,radius", [(0.3, 1.0), (1.0, 1.0), (4.0, 0.5), (25.0, 2.0)])
def test_phase_ode_matches_square_well(height, radius):
    # V is constant on [0, R] and zero beyond, so a(R) is the scattering length
    a = oracles.phase_scattering_length(lambda r: height, radius)
    exact = oracles.square_well_scattering_length(height, radius)
    assert abs(a - exact) <= 1e-9 * exact


def test_gaussian_scattering_length_depends_on_amplitude_times_width_squared():
    # scaling r -> s r maps (A, s) to (A s^2, 1) with a -> a / s
    a = oracles.gaussian_scattering_length(0.25, 2.0)
    assert abs(a / 2.0 - oracles.gaussian_scattering_length(1.0, 1.0)) <= 1e-12 * a


@pytest.mark.parametrize("p", [0.0, 0.7, 2.5])
def test_gaussian_fourier_matches_radial_quadrature(p):
    amp, width = 1.3, 0.8

    def integrand(r):
        sinc = 1.0 if p * r == 0.0 else math.sin(p * r) / (p * r)
        return 4.0 * math.pi * r * r * amp * math.exp(-0.5 * (r / width) ** 2) * sinc

    numeric, _ = quad(integrand, 0.0, 20.0 * width, epsabs=0.0, epsrel=1e-13, limit=200)
    assert abs(oracles.gaussian_fourier(amp, width, p) - numeric) <= 1e-11 * numeric


@pytest.mark.parametrize("m", [0, 1, 2, 3, 7, 26, 50, 101])
def test_lattice_count_matches_enumeration(m):
    r = math.isqrt(m)
    box = range(-r, r + 1)
    brute = sum(1 for n in itertools.product(box, box, box) if n[0] ** 2 + n[1] ** 2 + n[2] ** 2 <= m)
    assert oracles.lattice_points_within(m) == brute


def test_lattice_count_between_matches_enumeration():
    m_lo, m_hi = 5, 40
    r = math.isqrt(m_hi)
    box = range(-r, r + 1)
    brute = sum(1 for n in itertools.product(box, box, box) if m_lo <= sum(x * x for x in n) <= m_hi)
    assert oracles.lattice_points_between(m_lo, m_hi) == brute


def test_annulus_shells_bracket_the_float_bounds():
    rho, eta = 1.0e-4, 0.005
    m_lo, m_hi = oracles.low_annulus_shells(rho, eta)
    spacing = 2.0 * math.pi * rho ** (25.0 / 24.0)
    lo2 = (rho ** (0.5 + eta) / spacing) ** 2
    hi2 = (rho ** (0.5 - eta) / spacing) ** 2
    assert m_lo - 1 < lo2 <= m_lo
    assert m_hi <= hi2 < m_hi + 1


@pytest.mark.parametrize("n", [0, 1, 2, 7, 10, 100])
def test_pair_tower_sizes_match_enumeration(n):
    # a tower state is fixed by how many pairs sit in each outer +-k pair
    one = sum(1 for a in range(n + 1) if 2 * a <= n)
    two = sum(1 for a in range(n + 1) for b in range(n + 1) if 2 * (a + b) <= n)
    assert oracles.one_pair_tower_size(n) == one
    assert oracles.two_pair_tower_size(n) == two


def test_pair_tower_sizes_at_hundred():
    assert oracles.one_pair_tower_size(100) == 51
    assert oracles.two_pair_tower_size(100) == 1326


def test_kinetic_from_closure_listing():
    momenta = [(0.0, 0.0, 0.0), (0.5, 0.0, 0.0), (-0.5, 0.0, 0.0)]
    text = "0,2 |f|2=7.5e-01 phase=0\n1,1;2,1 |f|2=2.5e-01 phase=2\n"
    assert oracles.kinetic_from_closure(text, momenta) == pytest.approx(0.25 * 0.5, rel=1e-15)
