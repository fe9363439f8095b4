"""Momentum-space zero-energy scattering solver against closed forms and an ODE."""

import math
import re
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from bosegas import scattering
from bosegas.errors import InvalidPotential, NotConverged
from bosegas.scattering import (
    Potential,
    _kernel_product,
    _legendre,
    _momentum_grid,
    _observables,
    _pair_kernel,
    _solve_on_grid,
    check_scattering_identities,
    fourier_at,
    shooting_scattering_length,
    solve_scattering,
)
from bosegas.semiclassical import assemble_ledger

# Reference values for Potential(0.1, 1.0) on the default grid.
# The position-space variable-phase value 0.117079909470726 agrees to 1.4e-11.
_REF = {
    "a": 1.170799094690416e-01,
    "g0": 1.471269533883597e+00,
    "v0": 1.574960994572242e+00,
    "vw1": 1.036914606886447e-01,
    "vw2": 7.143340523943723e-03,
    "grad_w2": 9.654812018606793e-02,
}


def test_fourier_zero_momentum_is_integral():
    # V_0 = int V = amplitude (2 pi sigma^2)^(3/2) for a Gaussian
    for amp, sig in [(0.1, 1.0), (2.0, 0.5), (1.0, 1.7)]:
        pot = Potential(amp, sig)
        expect = amp * (2.0 * math.pi * sig**2) ** 1.5
        assert math.isclose(float(fourier_at(pot, 0.0)), expect, rel_tol=1e-10)


def test_fourier_unit_gaussian_closed_form():
    # amplitude 1, width 1, p = 1: (2 pi)^(3/2) exp(-1/2) ~ 9.5526
    pot = Potential(1.0, 1.0)
    expect = (2.0 * math.pi) ** 1.5 * math.exp(-0.5)
    assert math.isclose(float(fourier_at(pot, 1.0)), expect, rel_tol=1e-9)


def test_fourier_matches_radial_quadrature():
    # independent oracle: the closed form against 4 pi int r^2 V(r) sinc(pr) dr
    # over the support, where v_at drops V past range_cutoff
    for pot in (Potential(0.3, 0.6), Potential(0.1, 1.0), Potential(2.0, 1.7)):
        for p in (0.7, 2.3):
            direct, _ = quad(
                lambda s: 4.0 * math.pi * s**2 * float(pot.v_at(s)) * np.sinc(p * s / math.pi),
                0.0,
                pot.range_cutoff,
                epsabs=0.0,
                epsrel=1e-12,
                limit=400,
            )
            assert math.isclose(float(fourier_at(pot, p)), direct, rel_tol=1e-10)


def test_fourier_decays_at_large_momentum(gaussian_potential):
    v0 = float(fourier_at(gaussian_potential, 0.0))
    assert abs(float(fourier_at(gaussian_potential, 50.0))) < 1e-12 * v0


def test_fourier_past_the_square_overflow_is_a_silent_zero():
    # (p width)^2 = 1e320 leaves the doubles and exp(-inf) = 0 is right; an
    # overflow RuntimeWarning would fail here under filterwarnings = error
    pot = Potential(0.1, 1.0e10)
    assert fourier_at(pot, 1.0e150) == 0.0
    assert np.array_equal(fourier_at(pot, np.array([0.0, 1.0e150])), [pot.v0, 0.0])


def test_fourier_bounded_by_zero_momentum_value(gaussian_potential):
    # V nonnegative implies |V_p| <= V_0; sweep a seeded momentum sample
    v0 = float(fourier_at(gaussian_potential, 0.0))
    rng = np.random.default_rng(7)
    mags = np.concatenate([rng.uniform(0.0, 30.0, 200), [0.0, 1e-8, 1e3]])
    vals = np.array([float(fourier_at(gaussian_potential, m)) for m in mags])
    assert np.all(np.abs(vals) <= v0 * (1.0 + 1e-12))


def test_reference_solution_values(gaussian_potential, gaussian_solution):
    sol = gaussian_solution
    assert sol.converged
    vp = fourier_at(gaussian_potential, _momentum_grid(gaussian_potential))
    assert sol.residual <= scattering._TOL * np.max(np.abs(vp))
    for key, want in _REF.items():
        assert math.isclose(getattr(sol, key), want, rel_tol=1e-9), key


def test_scattering_length_against_ode_shooting(gaussian_potential, gaussian_solution):
    # position-space route: the variable-phase equation, independent of the solve
    a_ode = shooting_scattering_length(gaussian_potential)
    assert math.isclose(gaussian_solution.a, a_ode, rel_tol=1e-4)


def _variable_phase_length(amplitude, width, steps):
    # a'(r) = V(r) (r - a)^2, a(0) = 0, by fixed-step RK4 to 12 widths, where
    # V has fallen below 1e-31 of its height; a(12 width) is the length
    r_max = 12.0 * width
    h = r_max / steps
    a = 0.0
    for k in range(steps):
        r = k * h
        v0, v_mid, v1 = (
            amplitude * math.exp(-0.5 * (x / width) ** 2) for x in (r, r + 0.5 * h, r + h)
        )
        k1 = v0 * (r - a) ** 2
        k2 = v_mid * (r + 0.5 * h - a - 0.5 * h * k1) ** 2
        k3 = v_mid * (r + 0.5 * h - a - 0.5 * h * k2) ** 2
        k4 = v1 * (r + h - a - h * k3) ** 2
        a += h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
    return a


@pytest.mark.parametrize("amplitude, width", [(0.1, 1.0), (1.0, 1.0), (2.0, 2.0), (0.4, 50.0)])
def test_shooting_matches_variable_phase_reference(amplitude, width):
    # RK4 at 4096 and 8192 steps, Richardson-extrapolated in h^4: the
    # reference moves by at most 3e-14 relative up to 65536 steps.  Shooting
    # lands within 2.5e-15, 1.3e-15, 4.8e-15 and 8.1e-15 of it here (at
    # rtol 1e-12 the second case missed by 8.9e-13)
    coarse, fine = (_variable_phase_length(amplitude, width, n) for n in (4096, 8192))
    ref = (16.0 * fine - coarse) / 15.0
    shot = shooting_scattering_length(Potential(amplitude, width))
    assert abs(shot - ref) <= 1e-12 * ref


def test_shooting_integration_that_stops_raises_not_converged(monkeypatch):
    # a step cap of 10 stops U = 1 long before x = 12: the compiled run's
    # UserWarning stays inside (filterwarnings = error would raise it) and
    # the failure comes out typed, naming where the run stopped
    monkeypatch.setattr(scattering, "_SHOOTING_STEPS", 10)
    with pytest.raises(NotConverged, match=r"stopped at x = .* of 12 \(DOP853 return code -2\)"):
        shooting_scattering_length(Potential(1.0, 1.0))


def test_shooting_resumes_past_the_stiffness_test():
    # at U = 1e10 DOP853's stiffness test ends runs early (return code -4);
    # the integration resumes where each stopped, and lands on the value
    # scipy's solve_ivp DOP853 at rtol 1e-12, which has no such test, gave
    # in 56,186 steps: 6.384860227176834 (4e-13 relative)
    a = shooting_scattering_length(Potential(1.0e10, 1.0))
    assert math.isclose(a, 6.384860227176834, rel_tol=1e-11)


def _observables_full_table(potential, p, p2w, g, simpson):
    # _observables' position-space w_r with the sine taken over every column
    from scipy.special import sici

    k = max(1, int(np.searchsorted(p, 2.0 * p[0])))
    g0_limit = scattering._small_p_limit(p, g, k)
    w2_limit = scattering._small_p_limit(p, p2w, k)
    grad_w2 = float(np.sum(simpson * p * p2w**2) / (2.0 * math.pi**2))
    grad_w2 += w2_limit**2 * p[0] / (2.0 * math.pi**2)
    x_gl, wt_gl = _legendre(256)
    r = 0.5 * potential.range_cutoff * (x_gl + 1.0)
    r_w = 0.5 * potential.range_cutoff * wt_gl
    w_r = (np.sin(np.outer(r, p)) @ (simpson * p2w)) / (2.0 * math.pi**2 * r)
    w_r += w2_limit * sici(p[0] * r)[0] / (2.0 * math.pi**2 * r)
    v_r = potential.v_at(r)
    vw1 = float(4.0 * math.pi * np.sum(r_w * r**2 * v_r * w_r))
    vw2 = float(4.0 * math.pi * np.sum(r_w * r**2 * v_r * w_r**2))
    return g0_limit, grad_w2, vw1, vw2, float(fourier_at(potential, 0.0))


@pytest.mark.parametrize(
    "amplitude, width", [(0.1, 1.0), (0.4, 50.0), (1e-300, 1e100), (1e200, 1e-104), (1e3, 1.0)]
)
def test_observables_sine_over_the_support_is_the_full_table(amplitude, width):
    # columns past the last nonzero Simpson weight carry r p unsined; times
    # an exact zero they add nothing, so the norms are bit for bit equal
    pot = Potential(amplitude, width)
    p = _momentum_grid(pot)
    p2w, g, simpson, _, _ = _solve_on_grid(pot, p)
    assert np.count_nonzero(simpson * p2w) < p.size
    full = _observables_full_table(pot, p, p2w, g, simpson)
    assert _observables(pot, p, p2w, g, simpson) == full


def test_shooting_starts_at_the_width_scale():
    # a ~ 1.3e-112 at width 1e-104: an integration in absolute r that starts
    # at r = 1e-9 lies past the potential's range and misses a by 100 %; the
    # variable-phase equation runs in width units and resolves it
    pot = Potential(1.0e200, 1.0e-104)
    sol = solve_scattering(pot)
    assert abs(sol.a - shooting_scattering_length(pot)) <= 1e-5 * sol.a


def test_exact_identities_hold(gaussian_solution):
    rep = check_scattering_identities(gaussian_solution)
    assert rep["gradient"] < 1e-6
    assert rep["length"] < 1e-6


def test_born_bounds(gaussian_solution):
    # 0 <= a <= V_0 / 4 pi, strictly inside both ends for V > 0
    upper = gaussian_solution.v0 / (4.0 * math.pi)
    assert 0.0 < gaussian_solution.a < upper


def test_first_born_limit_weak_potential():
    # as the amplitude shrinks, a -> V_0 / 4 pi
    pot = Potential(1e-4, 1.0)
    sol = solve_scattering(pot)
    born = sol.v0 / (4.0 * math.pi)
    assert math.isclose(sol.a, born, rel_tol=1e-3)
    assert sol.a < born


def test_scattering_length_monotone_in_amplitude():
    amps = [0.02, 0.05, 0.1, 0.2]
    values = [solve_scattering(Potential(amp, 1.0)).a for amp in amps]
    assert all(x < y for x, y in zip(values, values[1:]))


def test_zero_potential_trivial_solution():
    sol = solve_scattering(Potential(0.0, 1.0))
    assert sol.a == 0.0 and sol.g0_limit == 0.0
    assert sol.v0 == 0.0 and sol.vw1 == 0.0 and sol.vw2 == 0.0 and sol.grad_w2 == 0.0
    assert shooting_scattering_length(Potential(0.0, 1.0)) == 0.0


def test_truncated_iteration_flagged_not_converged(
    gaussian_potential, gaussian_solution, monkeypatch
):
    default_tol = scattering._TOL
    # a loose tolerance stops GMRES after fewer kernel products than the
    # reference solve, and the exact identities show the truncation
    monkeypatch.setattr(scattering, "_TOL", 1e-1)
    sol = solve_scattering(gaussian_potential)
    assert sol.iterations < gaussian_solution.iterations
    rep = check_scattering_identities(sol)
    assert max(rep["gradient"], rep["length"]) > 1e-6
    # a relative tolerance below roundoff: GMRES fails, and the message
    # carries the sup-norm residual max|p^2 w - g| that the solve ended with
    monkeypatch.setattr(scattering, "_TOL", 1e-30)
    with pytest.raises(NotConverged) as info:
        solve_scattering(gaussian_potential)
    match = re.search(r"residual (\S+) > tol", str(info.value))
    assert match is not None
    delta = float(match.group(1))
    v0 = float(fourier_at(gaussian_potential, 0.0))
    assert 1e-30 * v0 < delta <= default_tol * v0


def test_strict_raises_not_converged(gaussian_potential, monkeypatch):
    monkeypatch.setattr(scattering, "_TOL", 1e-30)
    with pytest.raises(NotConverged, match=r"residual .* > tol"):
        solve_scattering(gaussian_potential)


def test_past_born_radius_solves_without_warnings():
    # amplitude * width^2 = 8 lies far past the Born radius, where the Born
    # series diverges; the direct solve converges there silently
    pot = Potential(2.0, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_scattering(pot)
    assert sol.converged
    assert math.isclose(sol.a, shooting_scattering_length(pot), rel_tol=1e-6)


@pytest.mark.parametrize("amplitude", [2.0, 5.0, 20.0])
def test_strong_coupling_matches_shooting(amplitude):
    # same route bound as acceptance 04, far outside the Born regime
    pot = Potential(amplitude, 1.0)
    sol = solve_scattering(pot)
    a_ode = shooting_scattering_length(pot)
    assert abs(sol.a - a_ode) <= 1e-4 * abs(a_ode)
    rep = check_scattering_identities(sol)
    assert rep["gradient"] < 1e-6
    assert rep["length"] < 1e-6


def _passes_both_routes(pot):
    # both identities at the unchanged 1e-6 bound, and a against the ODE to 1e-6
    sol = solve_scattering(pot)
    rep = check_scattering_identities(sol)
    gap = abs(sol.a - shooting_scattering_length(pot)) / sol.a
    return sol, max(rep["gradient"], rep["length"], gap) <= 1e-6


@pytest.mark.parametrize("width", [0.05, 1.0, 10.0, 50.0])
@pytest.mark.parametrize(
    "coupling", [1e-15, 1e-12, 1e-10, 1e-3, 0.1, 1.0, 10.0, 100.0, 1000.0]
)
def test_domain_sweep_solves_or_refuses(width, coupling):
    # amplitude * width^2 sets a/width; the grid follows a, so every point
    # solves to both oracles, and the ledger takes it at the same bound
    sol, ok = _passes_both_routes(Potential(coupling / width**2, width))
    assert ok
    assemble_ledger(sol)


@pytest.mark.parametrize(
    "amplitude, width", [(0.5, 10.0), (200.0, 1.0), (20.0, 2.0), (0.1, 50.0), (0.4, 50.0)]
)
def test_scattering_length_far_past_width_solves(amplitude, width):
    # a is 2.4 to 3.3 widths here; a grid that starts at 1e-3/width misses
    # the identities by 4e-6 and more on these potentials
    pot = Potential(amplitude, width)
    sol, ok = _passes_both_routes(pot)
    assert sol.a > 2.0 * width
    assert ok
    assert _momentum_grid(pot)[0] < 1e-3 / width


@pytest.mark.parametrize("amplitude, width", [(0.4, 50.0), (0.1, 50.0)])
def test_identities_hold_below_the_grid_rule(amplitude, width, monkeypatch):
    # p_min at 1/20 of the rule's value: the kernel keeps its precision at
    # p_i/p_j far below 1e-6, so the length identity does not degrade
    pot = Potential(amplitude, width)
    p_min = _momentum_grid(pot)[0]
    monkeypatch.setattr(scattering, "_LOW_END_BUDGET", scattering._LOW_END_BUDGET / 8000.0)
    sol = solve_scattering(pot)
    assert math.isclose(_momentum_grid(pot)[0], p_min / 20.0, rel_tol=1e-12)
    rep = check_scattering_identities(sol)
    assert rep["gradient"] <= 1e-7
    assert rep["length"] <= 1e-7


_SMALL_GRID = np.geomspace(1e-2, 1e2, 101)


_KERNEL_CASES = [
    # widths whose squares are no powers of 2, so the order of the
    # in-place products shows in the last bits
    pytest.param(Potential(0.1, 0.7), _SMALL_GRID, id="weak"),
    pytest.param(Potential(2.0, 1.5), _SMALL_GRID, id="strong"),
    # the coupling-sweep widths at both ends of the amplitude range
    *(
        pytest.param(pot, _momentum_grid(pot), id=f"grid-w{pot.width}-a{pot.amplitude}")
        for pot in (Potential(a, w) for w in (0.5, 1.0, 2.0) for a in (0.1, 20.0))
    ),
    # a = 164 at width 50: p_min = 4.7e-8 reaches p_i/p_j = 2.6e-7 on the support
    pytest.param(Potential(0.4, 50.0), _momentum_grid(Potential(0.4, 50.0)), id="grid-w50.0-a0.4"),
]


def _direct_difference(pot, p, r):
    # Q(p + r) - Q(|p - r|) at 50 digits, Q(x) = int_0^x q V_q dq
    with mpmath.workdps(50):
        s2 = mpmath.mpf(pot.width) ** 2
        scale = pot.amplitude * (2 * mpmath.pi * s2) ** 1.5 / s2
        p, r = mpmath.mpf(p), mpmath.mpf(r)
        q = [scale * -mpmath.expm1(-x * x * s2 / 2) for x in (p + r, abs(p - r))]
        return q[0] - q[1]


def _dense_kernel(pot, p):
    # the dense K the row blocks stand for: each rectangle, and its
    # transpose in the mirrored columns, zero everywhere else
    kern = np.zeros((p.size, p.size))
    for first, rect in _pair_kernel(pot, p):
        last, end = first + rect.shape[0], first + rect.shape[1]
        kern[first:last, first:end] = rect
        kern[first:end, first:last] = rect.T
    return kern


@pytest.mark.parametrize("pot, p", _KERNEL_CASES)
def test_pair_kernel_matches_direct_difference(pot, p):
    kern = _dense_kernel(pot, p)
    assert np.array_equal(kern, kern.T)
    # the support |p_i - p_j| < sqrt(80)/width: zero past it, positive on it
    support = np.abs(np.subtract.outer(p, p)) < math.sqrt(80.0) / pot.width
    assert np.all(kern[~support] == 0.0)
    assert np.all(kern[support] > 0.0)
    # seeded support entries, plus the smallest p_i against every 16th column
    # of its support and every row's support edge
    i, j = np.nonzero(np.triu(support))
    edge = np.nonzero(np.diff(support, axis=1, append=False) & support)
    take = np.random.default_rng(7).choice(i.size, 200, replace=False)
    first = j[i == 0][::16]
    rows = np.concatenate([i[take], np.zeros_like(first), edge[0][::8]])
    cols = np.concatenate([j[take], first, edge[1][::8]])
    if p[0] < 1e-6 * math.sqrt(80.0) / pot.width:
        assert np.min(p[rows] / p[cols]) <= 1e-6
    ref = np.array([float(_direct_difference(pot, p[a], p[b])) for a, b in zip(rows, cols)])
    assert np.max(np.abs(kern[rows, cols] / ref - 1.0)) <= 1e-13


def _dense_closed_form(pot, p, rows):
    # K on rows x every column, no support search: the same float operations
    # in the same order as _pair_kernel, zero where |p_i - p_j| >= x_cut
    s2 = pot.width**2
    scale = pot.amplitude * (2.0 * math.pi * s2) ** 1.5 / s2
    gauss = (p[None, :] - p[rows, None]) ** 2 * (-0.5 * s2)
    k = np.expm1(p[rows, None] * p[None, :] * (-2.0 * s2)) * np.exp(gauss) * -scale
    k[np.abs(p[None, :] - p[rows, None]) >= math.sqrt(80.0) / pot.width] = 0.0
    return k


@pytest.mark.parametrize(
    "pot",
    [Potential(0.1, 1.0), Potential(0.4, 50.0), Potential(0.1, 0.5), Potential(2.0, 2.0)],
    ids=["default", "w50-a0.4", "w0.5-a0.1", "w2-a2"],
)
def test_pair_kernel_is_the_closed_form_bit_for_bit(pot):
    p = _momentum_grid(pot)
    kern = _dense_kernel(pot, p)
    assert np.array_equal(kern, kern.T)
    x_cut = math.sqrt(80.0) / pot.width
    for first in range(0, p.size, 256):
        rows = np.arange(first, min(first + 256, p.size))
        block = kern[rows]
        assert np.array_equal(block, _dense_closed_form(pot, p, rows))
        assert np.all(block[np.abs(p[None, :] - p[rows, None]) >= x_cut] == 0.0)


@pytest.mark.parametrize(
    "pot",
    [Potential(0.1, 1.0), Potential(0.4, 50.0), Potential(0.1, 0.5), Potential(2.0, 2.0)],
    ids=["default", "w50-a0.4", "w0.5-a0.1", "w2-a2"],
)
def test_block_product_is_the_dense_product(pot):
    # the row blocks and their mirrors applied to x give the dense K @ x,
    # up to the order of the sums; seeded x of either sign, and the
    # Simpson-weighted solution the solve feeds the product
    p = _momentum_grid(pot)
    blocks = _pair_kernel(pot, p)
    kern = _dense_kernel(pot, p)
    rng = np.random.default_rng(7)
    solved = _solve_on_grid(pot, p)
    for x in (rng.normal(size=p.size), rng.uniform(size=p.size), solved[2] * solved[0]):
        dense = kern @ x
        gap = np.max(np.abs(_kernel_product(blocks, x) - dense))
        assert gap <= 1e-13 * np.max(np.abs(dense))


@pytest.mark.parametrize(
    "pot", [Potential(0.1, 1.0), Potential(0.4, 50.0)], ids=["default", "w50-a0.4"]
)
def test_solve_keeps_no_dense_kernel(pot):
    # the dense 2049^2 kernel alone is 33.6 MB; the row blocks of its support
    # and the solve around them peak at 9.2 and 11.4 MB under tracemalloc
    p = _momentum_grid(pot)
    tracemalloc.start()
    try:
        _solve_on_grid(pot, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_solution_report_keys(gaussian_solution):
    rep = gaussian_solution.report()
    assert rep["converged"] is True
    assert rep["identity_residuals"]["gradient"] < 1e-6
    assert rep["identity_residuals"]["length"] < 1e-6
    assert math.isclose(rep["g0"], 4.0 * math.pi * rep["a"], rel_tol=1e-14)


@pytest.mark.parametrize(
    "bad",
    [
        lambda: Potential(-1.0, 1.0),
        lambda: Potential(1.0, 0.0),
        lambda: Potential(1.0, -1.0),
        lambda: Potential(math.nan, 1.0),
        lambda: Potential(1.0, math.inf),
    ],
)
def test_invalid_potentials_rejected(bad):
    with pytest.raises(InvalidPotential):
        bad()
