"""Smooth cutoff window: exact partition, isometry, and the kinetic penalty."""

import math

import numpy as np
import pytest

from bosegas import boundary
from bosegas.boundary import (
    Window,
    check_isometry,
    collar_indicator,
    isometry_3d_separable,
    kinetic_penalty,
    shifted_collar_average,
    trig_polynomial,
    window_q,
    window_q_prime,
)

_QUARTER_PI_SQ = math.pi**2 / 16.0


def _default_window():
    return Window(ell=0.1, period=1.0)


def _trig(w, seed):
    rng = np.random.default_rng(seed)
    return trig_polynomial(w.period, rng.normal(0, 0.3, 8), rng.normal(0, 0.3, 8))


def _phi(sample):
    """The phi-only callable of a one-polynomial sampler."""
    return lambda xs: next(sample(xs))[0]


def _rel_residual(rep):
    """An isometry report's residual relative to its periodic mass, or to 1."""
    return rep["residual"] / max(abs(rep["periodic"]), 1.0)


# ---------------------------------------------------------------- window


def test_window_values_at_landmarks():
    w = _default_window()
    # the edge values are cosine zeros, so exact up to one ulp of the argument
    assert abs(window_q(w, -w.ell)) <= 1e-15
    assert window_q(w, w.ell) == 1.0
    assert math.isclose(window_q(w, 0.0), math.sqrt(0.5), rel_tol=1e-15)
    assert window_q(w, 0.5) == 1.0  # plateau
    assert abs(window_q(w, w.period + w.ell)) <= 1e-15
    assert window_q(w, -2.0 * w.ell) == 0.0  # outside support


def test_window_range_and_support():
    w = _default_window()
    xs = np.linspace(-0.5, 1.5, 4001)
    q = window_q(w, xs)
    assert np.all((0.0 <= q) & (q <= 1.0))
    outside = (xs < -w.ell) | (xs > w.period + w.ell)
    assert np.all(q[outside] == 0.0)


def test_square_partition_of_unity():
    """q(x)^2 + q(x + L)^2 = 1 across the fold, to 1e-14."""
    w = _default_window()
    xs = np.linspace(-w.ell, w.ell, 4097)
    total = window_q(w, xs) ** 2 + window_q(w, xs + w.period) ** 2
    assert float(np.max(np.abs(total - 1.0))) <= 1e-14
    # seeded off-grid probes, including irrational-looking offsets
    rng = np.random.default_rng(5)
    xs = rng.uniform(-w.ell, w.ell, 2000)
    total = window_q(w, xs) ** 2 + window_q(w, xs + w.period) ** 2
    assert float(np.max(np.abs(total - 1.0))) <= 1e-14


def test_square_partition_awkward_geometry():
    # non-dyadic ell and period, and the degenerate plateau-free window
    for w in (Window(ell=0.37 / 3.0, period=2.13), Window(ell=0.5, period=1.0)):
        xs = np.linspace(-w.ell, w.ell, 2049)
        total = window_q(w, xs) ** 2 + window_q(w, xs + w.period) ** 2
        assert float(np.max(np.abs(total - 1.0))) <= 1e-14


def test_window_slope_matches_finite_differences():
    w = _default_window()
    xs = np.linspace(-w.ell + 1e-6, w.ell - 1e-6, 101)
    h = 1e-7
    fd = (window_q(w, xs + h) - window_q(w, xs - h)) / (2.0 * h)
    assert np.allclose(window_q_prime(w, xs), fd, atol=1e-6)
    # the ramp slope pi/(4 ell) bounds |q'|
    assert float(np.max(np.abs(window_q_prime(w, xs)))) <= math.pi / (4.0 * w.ell) + 1e-15
    # derivative vanishes on the plateau and outside the support
    assert window_q_prime(w, 0.5) == 0.0
    assert window_q_prime(w, 2.0) == 0.0


def test_fold_slope_identity():
    # q'(x)^2 + q'(x+L)^2 is constant (pi/4 ell)^2 across the fold; this is
    # what pins the penalty constant
    w = _default_window()
    xs = np.linspace(-w.ell, w.ell, 513)
    total = window_q_prime(w, xs) ** 2 + window_q_prime(w, xs + w.period) ** 2
    assert np.allclose(total, (math.pi / (4.0 * w.ell)) ** 2, rtol=1e-12)


def test_collar_indicator_wraps_around():
    w = _default_window()
    assert collar_indicator(w, 0.05) == 1.0
    assert collar_indicator(w, w.period - 0.05) == 1.0  # torus distance
    assert collar_indicator(w, 0.5) == 0.0


def test_window_validation():
    with pytest.raises(ValueError):
        Window(ell=0.0, period=1.0)
    with pytest.raises(ValueError):
        Window(ell=0.6, period=1.0)


# ---------------------------------------------------------------- isometry


def test_isometry_constant_function():
    w = _default_window()
    rep = check_isometry(w, lambda xs: np.ones_like(xs))
    assert math.isclose(rep["periodic"], w.period, rel_tol=1e-14)
    assert _rel_residual(rep) <= 1e-14


def test_isometry_pure_phase():
    w = _default_window()
    k = 2.0 * math.pi / w.period

    def phi(xs):
        return np.cos(3.0 * k * xs) + 0.5

    rep = check_isometry(w, phi)
    assert _rel_residual(rep) <= 1e-10


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_isometry_random_trig_polynomials(seed):
    w = _default_window()
    rep = check_isometry(w, _phi(_trig(w, seed)))
    assert _rel_residual(rep) < 1e-8


def test_isometry_degenerate_window():
    w = Window(ell=0.5, period=1.0)  # collar covers the whole box
    assert _rel_residual(check_isometry(w, _phi(_trig(w, 9)))) < 1e-8


def test_isometry_simpson_order():
    # halving the step cuts the residual ~16x until float noise
    w = _default_window()
    phi = _phi(_trig(w, 42))
    r64 = check_isometry(w, phi, resolution=64)["residual"]
    r128 = check_isometry(w, phi, resolution=128)["residual"]
    r256 = check_isometry(w, phi, resolution=256)["residual"]
    assert r256 > 1e-12  # still far from noise
    assert 8.0 < r64 / r128 < 40.0
    assert 8.0 < r128 / r256 < 40.0


def test_isometry_3d_separable_products():
    w = _default_window()
    factors = [_phi(_trig(w, s)) for s in (10, 11, 12)]
    rep = isometry_3d_separable(w, factors)
    assert rep["residual"] / abs(rep["periodic"]) < 1e-8
    # the 3-D identity is a product of the 1-D ones
    ext = per = 1.0
    for axis_ext, axis_per in rep["per_axis"]:
        ext *= axis_ext
        per *= axis_per
    assert math.isclose(rep["extended"], ext, rel_tol=1e-14)
    assert math.isclose(rep["periodic"], per, rel_tol=1e-14)


# ---------------------------------------------------------------- penalty


def test_penalty_constant_function():
    w = _default_window()
    ((_, rep),) = kinetic_penalty(w, lambda xs: [(np.ones_like(xs), np.zeros_like(xs))])
    # gradient cost comes entirely from the window ramps
    assert rep["periodic_kinetic"] == 0.0
    assert rep["collar_mass"] > 0.0
    assert math.isclose(rep["implied_constant"], _QUARTER_PI_SQ, rel_tol=1e-10)
    assert rep["holds_quarter_pi_sq"]
    # the bound is tight: a constant 0.1% below pi^2/16 fails it, up to 1e-9 relative
    rhs = rep["periodic_kinetic"] + _QUARTER_PI_SQ * 0.999 / w.ell**2 * rep["collar_mass"]
    assert not rep["lhs"] <= rhs + 1e-9 * max(abs(rep["lhs"]), abs(rhs), 1.0)


@pytest.mark.parametrize("ell", [0.05, 0.1, 0.25, 0.5])
@pytest.mark.parametrize("seed", [21, 22, 23])
def test_penalty_holds_across_windows(ell, seed):
    """int |(q phi)'|^2 <= int |phi'|^2 + C/ell^2 int chi |phi|^2 with
    C = pi^2/16, for every tested (phi, ell) pair including the plateau-free
    window; the measured implied constant never exceeds the bound."""
    w = Window(ell=ell, period=1.0)
    ((_, rep),) = kinetic_penalty(w, _trig(w, seed))
    assert rep["holds_quarter_pi_sq"]
    assert rep["implied_constant"] <= _QUARTER_PI_SQ + 1e-9
    # periodic contributions enter at full strength, never amplified
    assert rep["lhs"] <= rep["periodic_kinetic"] + _QUARTER_PI_SQ / ell**2 * rep["collar_mass"] + 1e-9


def test_penalty_constant_is_attained():
    # equality (not just a bound) for smooth periodic inputs: the cross term
    # integrates to zero, so the implied constant sits exactly at pi^2/16
    w = _default_window()
    ((_, rep),) = kinetic_penalty(w, _trig(w, 77))
    assert abs(rep["implied_constant"] - _QUARTER_PI_SQ) < 1e-11


def test_penalty_no_collar_mass_reports_nan():
    w = _default_window()

    def bump(xs):
        # supported strictly inside the plateau
        out = np.zeros_like(xs)
        mid = (xs > 0.3) & (xs < 0.7)
        out[mid] = np.sin(math.pi * (xs[mid] - 0.3) / 0.4) ** 2
        return out

    def dbump(xs):
        out = np.zeros_like(xs)
        mid = (xs > 0.3) & (xs < 0.7)
        out[mid] = (
            2.0
            * np.sin(math.pi * (xs[mid] - 0.3) / 0.4)
            * np.cos(math.pi * (xs[mid] - 0.3) / 0.4)
            * math.pi
            / 0.4
        )
        return out

    ((_, rep),) = kinetic_penalty(w, lambda xs: [(bump(xs), dbump(xs))])
    assert rep["collar_mass"] <= 1e-13
    assert math.isnan(rep["implied_constant"])


def test_shifted_collar_average():
    w = _default_window()
    rep = shifted_collar_average(w, [0.0, 0.37 * w.period, -1.6 * w.period])
    assert rep["exact"] == w.collar_fraction
    assert rep["max_gap"] <= 2.0 / rep["n_shifts"]
    assert all(abs(v - rep["exact"]) <= 2.0 / rep["n_shifts"] for v in rep["averages"])


def test_trig_polynomial_periodicity_and_derivative():
    sample = trig_polynomial(2.0, [0.3, -0.1], [0.2, 0.05])
    phi = _phi(sample)
    xs = np.linspace(0.0, 2.0, 37)
    ((_, dphi),) = sample(xs)
    assert np.allclose(phi(xs), phi(xs + 2.0), atol=1e-14)
    h = 1e-6
    fd = (phi(xs + h) - phi(xs - h)) / (2.0 * h)
    assert np.allclose(dphi, fd, atol=1e-7)
    with pytest.raises(ValueError):
        trig_polynomial(2.0, [0.3], [0.1, 0.2])


# ---------------------------------------------------------------- one pass


def _ref_simpson_panel(f, a, b, n):
    """Composite Simpson on one panel, sampling the callable f afresh: the
    route every integral took before the one pass."""
    if b <= a:
        return 0.0
    n = max(2, n + (n % 2))
    xs = np.linspace(a, b, n + 1)
    ys = np.asarray(f(xs), dtype=float)
    h = (b - a) / n
    return float(h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum()))


def _ref_extended(w, f, n):
    b0, b1, b2, b3 = w.breakpoints
    total = 0.0
    for a, b in ((b0, b1), (b1, b2), (b2, b3)):
        total += _ref_simpson_panel(f, a, b, n)
    return total


def _ref_integrals(w, phi, dphi, n):
    """(extended, periodic, lhs, periodic kinetic, collar mass), each
    integrand sampling phi, phi', q and q' on its own."""

    def density(xs):
        return np.abs(phi(xs)) ** 2

    def lhs_integrand(xs):
        qp = window_q_prime(w, xs)
        qv = window_q(w, xs)
        return np.abs(qp * phi(xs) + qv * dphi(xs)) ** 2

    extended = _ref_extended(w, lambda xs: window_q(w, xs) ** 2 * np.abs(phi(xs)) ** 2, n)
    periodic = _ref_simpson_panel(density, 0.0, w.period, n)
    lhs = _ref_extended(w, lhs_integrand, n)
    kin = _ref_simpson_panel(lambda xs: np.abs(dphi(xs)) ** 2, 0.0, w.period, n)
    collar = _ref_simpson_panel(density, 0.0, w.ell, n) + _ref_simpson_panel(
        density, w.period - w.ell, w.period, n
    )
    return extended, periodic, lhs, kin, collar


def _ref_trig(period, ck, sk):
    """phi and phi' as separate callables, each taking its own cos and sin."""
    freqs = 2.0 * np.pi * np.arange(1, ck.size + 1) / period

    def phi(xs):
        angles = np.multiply.outer(np.asarray(xs, dtype=float), freqs)
        return 1.0 + np.cos(angles) @ ck + np.sin(angles) @ sk

    def dphi(xs):
        angles = np.multiply.outer(np.asarray(xs, dtype=float), freqs)
        return -np.sin(angles) @ (freqs * ck) + np.cos(angles) @ (freqs * sk)

    return phi, dphi


def _battery_functions(period, seed):
    """const, phase and three seeded trig polynomials: one sampler for all
    five, and the same functions as separate (phi, phi') callables."""
    omega = 2.0 * np.pi / period
    coeffs = 0.3 * np.random.default_rng(seed).normal(size=(3, 2, 8))
    trig = trig_polynomial(period, coeffs[:, 0], coeffs[:, 1])

    def sample(xs):
        e = np.exp(1j * omega * xs)
        return [(np.ones_like(xs), np.zeros_like(xs)), (e, 1j * omega * e), *trig(xs)]

    refs = [
        (np.ones_like, np.zeros_like),
        (lambda xs: np.exp(1j * omega * xs), lambda xs: 1j * omega * np.exp(1j * omega * xs)),
    ] + [_ref_trig(period, c, s) for c, s in coeffs]
    return sample, refs


@pytest.mark.parametrize("ell", [0.1, 0.5])
@pytest.mark.parametrize("resolution", [1 << 14, 501])
def test_one_pass_equals_per_callable_route(ell, resolution):
    """Every reported integral is bit-equal to the per-callable route, for the
    five functions sampled together and on the plateau-free window."""
    w = Window(ell=ell, period=1.0)
    sample, refs = _battery_functions(w.period, seed=11)
    reports = kinetic_penalty(w, sample, resolution=resolution)
    assert len(reports) == len(refs) == 5
    for (iso, rep), (phi, dphi) in zip(reports, refs):
        ext, per, lhs, kin, collar = _ref_integrals(w, phi, dphi, resolution)
        assert iso["extended"] == ext
        assert iso["periodic"] == per
        assert rep["lhs"] == lhs
        assert rep["periodic_kinetic"] == kin
        assert rep["collar_mass"] == collar
        iso = check_isometry(w, phi, resolution=resolution)
        assert (iso["extended"], iso["periodic"]) == (ext, per)


def test_trig_family_rows_equal_single_polynomials():
    coeffs = 0.3 * np.random.default_rng(3).normal(size=(2, 3, 8))
    xs = np.linspace(-0.1, 1.1, 1001)
    family = list(trig_polynomial(1.0, coeffs[0], coeffs[1])(xs))
    assert len(family) == 3
    for row, (phi, dphi) in enumerate(family):
        ((phi1, dphi1),) = trig_polynomial(1.0, coeffs[0, row], coeffs[1, row])(xs)
        assert np.array_equal(phi, phi1)
        assert np.array_equal(dphi, dphi1)


@pytest.mark.parametrize("ell", [0.1, 0.5])
def test_one_pass_samples_each_grid_once(monkeypatch, ell):
    """kinetic_penalty calls its sampler once on each of the six grids (five
    on the plateau-free window) and samples q and q' once per panel;
    check_isometry samples phi once on each of its four grids."""
    w = Window(ell=ell, period=1.0)
    b0, b1, b2, b3 = w.breakpoints
    panels = [(b0, b1), (b1, b2), (b2, b3)] if b2 > b1 else [(b0, b1), (b2, b3)]
    sample, refs = _battery_functions(w.period, seed=5)
    counts = {"q": 0, "dq": 0}
    grids = []

    def counted(key, fn):
        def wrapped(w, x):
            counts[key] += 1
            return fn(w, x)

        return wrapped

    def recorded(fn):
        def wrapped(xs):
            assert xs.size == 65
            grids.append((float(xs[0]), float(xs[-1])))
            return fn(xs)

        return wrapped

    monkeypatch.setattr(boundary, "window_q", counted("q", boundary.window_q))
    monkeypatch.setattr(boundary, "window_q_prime", counted("dq", boundary.window_q_prime))

    assert len(kinetic_penalty(w, recorded(sample), resolution=64)) == 5
    assert grids == panels + [(0.0, w.period), (0.0, w.ell), (w.period - w.ell, w.period)]
    assert counts == {"q": len(panels), "dq": len(panels)}

    grids.clear()
    counts.update(q=0, dq=0)
    check_isometry(w, recorded(refs[2][0]), resolution=64)
    assert grids == panels + [(0.0, w.period)]
    assert counts == {"q": len(panels), "dq": 0}
