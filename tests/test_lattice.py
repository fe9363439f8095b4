"""Momentum lattice: schedule, region labels, mode sets, and shell sums."""

import math
import os
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.fft

from bosegas import lattice
from bosegas.errors import BudgetExceeded, DivergentIntegrand
from bosegas.lattice import (
    Mode,
    ModeSet,
    Region,
    Schedule,
    load_toy_modes,
    number_density_summand,
    pl_number_density_comparison,
    radial_shell_sum,
    shell_counts,
)

# r3(m) = #{n in Z^3 : |n|^2 = m} for m = 0..10
_R3 = [1, 6, 12, 8, 6, 24, 24, 0, 12, 30, 24]


# ---------------------------------------------------------------- schedule


def test_schedule_scales():
    s = Schedule(1e-4, eta=0.24)
    assert math.isclose(s.box_length, (1e-4) ** (-25.0 / 24.0), rel_tol=1e-14)
    assert math.isclose(s.spacing, 2.0 * math.pi / s.box_length, rel_tol=1e-14)
    # the three small parameters share one value rho^eta
    assert s.eps_l == s.eta_l == s.eps_h == (1e-4) ** 0.24
    assert s.m_c == max(2, math.floor((1e-4) ** (-0.24)))
    assert s.n_particles == round(1e-4 * s.volume)
    assert s.n_particles > 0


def test_schedule_region_edges_ordered():
    for rho in (1e-8, 1e-6, 1e-4, 1e-3):
        s = Schedule(rho)
        assert 0.0 < s.p_gap_top < s.p_low_top < s.eps_h


@pytest.mark.parametrize(
    "kwargs",
    [
        {"rho": 0.0},
        {"rho": 1.0},
        {"rho": -0.1},
        {"rho": 1e-4, "eta": 0.0},
        {"rho": 1e-4, "eta": 0.25},
    ],
)
def test_schedule_validation(kwargs):
    with pytest.raises(ValueError):
        Schedule(**kwargs)


# ---------------------------------------------------------------- regions


def classify(schedule: Schedule, p) -> Region:
    """Region label of a momentum (vector or magnitude) under the schedule.

    Boundary placement: P_L is closed at both ends, P_I is half open (its
    upper bound eps_H included), P_H is open below.
    """
    mag = float(np.linalg.norm(p))
    if mag == 0.0:
        return Region.P0
    if mag < schedule.p_gap_top:
        return Region.GAP
    if mag <= schedule.p_low_top:
        return Region.PL
    if mag <= schedule.eps_h:
        return Region.PI
    return Region.PH


def test_classify_boundaries_exact():
    s = Schedule(1e-4, eta=0.24)
    low, high = s.p_gap_top, s.p_low_top
    assert classify(s, 0.0) is Region.P0
    assert classify(s, [0.0, 0.0, 0.0]) is Region.P0
    assert classify(s, low * (1.0 - 1e-12)) is Region.GAP
    # P_L closed at both ends
    assert classify(s, low) is Region.PL
    assert classify(s, high) is Region.PL
    # P_I half open: lower end excluded, eps_H included
    assert classify(s, high * (1.0 + 1e-12)) is Region.PI
    assert classify(s, s.eps_h) is Region.PI
    assert classify(s, s.eps_h * (1.0 + 1e-12)) is Region.PH
    assert classify(s, [s.eps_h, 0.0, 0.0]) is Region.PI


# ---------------------------------------------------------------- mode sets


def from_schedule(
    schedule: Schedule, p_budget: float, k_c: float | None = None, max_modes: int = 200_000
) -> ModeSet:
    """Explicit-mode oracle: every lattice mode with |p| <= p_budget, labelled
    by classify, and past the cutoff k_c in P_H as truncated."""
    step = schedule.spacing
    nmax = int(math.floor(p_budget / step))
    est = (2 * nmax + 1) ** 3
    if est > 8 * max_modes:
        raise BudgetExceeded(f"{est} candidate vectors exceed the materialization budget")
    modes = []
    rng = range(-nmax, nmax + 1)
    # compare squared lattice norms, so the whole shell on the budget
    # sphere is kept or dropped together, whatever the rounding of |p|
    n2_max = (p_budget / step) ** 2
    for nx in rng:
        for ny in rng:
            for nz in rng:
                if nx * nx + ny * ny + nz * nz > n2_max:
                    continue
                p = np.array([nx, ny, nz], dtype=float) * step
                mag = float(np.linalg.norm(p))
                region = classify(schedule, mag)
                if k_c is not None and region is Region.PH and mag > k_c:
                    region = Region.TRUNCATED
                modes.append(Mode(index=len(modes), p=p, region=region))
                if len(modes) > max_modes:
                    raise BudgetExceeded("materialized mode count exceeded max_modes")
    return ModeSet(modes, volume=schedule.volume)


def _magnitude(m: Mode) -> float:
    return float(np.linalg.norm(m.p))


def _toy_set(volume=8.0):
    return ModeSet.toy(
        [(0.0, 0.0, 0.0), (0.5, 0.0, 0.0), (-0.5, 0.0, 0.0)],
        ["P0", "PL", "PL"],
        volume=volume,
        lams=[None, -0.5, -0.5],
    )


def test_toy_mode_set_indexing():
    ms = _toy_set()
    assert len(ms) == 3
    assert ms.zero_index == 0
    assert ms.neg_index(1) == 2 and ms.neg_index(2) == 1
    # lookup finds the mode whose lattice point lies within a key step
    assert ms.index_of([0.5 + 1e-12, 0.0, 0.0]) == 1
    assert ms.index_of([0.25, 0.0, 0.0]) is None
    assert ms.nonzero_indices() == [1, 2]
    assert ms.indices_in(Region.PL) == [1, 2]
    assert ms.momentum_matrix().shape == (3, 3)


def test_conserving_decides_in_integer_coordinates():
    # modes 0, +-a, +-b, +-(a + b), each nonzero component written 0.4 key
    # steps (1e-9 at unit 1) off its lattice point: p_a + p_b - p_c = p_d
    # must hold exactly when p_d + p_c - p_b = p_a, as it does on the lattice
    rng = np.random.default_rng(7)
    a, b = np.array([0.25, 0.5, 0.0]), np.array([0.125, -0.375, 0.75])
    exact = [np.zeros(3), a, -a, b, -b, a + b, -(a + b)]
    offsets = [np.where(p != 0.0, rng.choice([-0.4e-9, 0.4e-9], 3), 0.0) for p in exact]
    ms = ModeSet.toy(
        [p + d for p, d in zip(exact, offsets)], ["P0"] + ["PI"] * 6, volume=10.0
    )
    assert [ms.index_of(p) for p in exact] == list(range(7))
    found = 0
    for i, j, k, m in np.ndindex(7, 7, 7, 7):
        assert (ms.conserving(i, j, k) == m) == (ms.conserving(m, k, j) == i)
    for i, j, k in np.ndindex(7, 7, 7):
        target = ms.conserving(i, j, k)
        assert target == ms.index_of(exact[i] + exact[j] - exact[k])
        found += target is not None
    assert found == 175  # of the 343 triples, as on the exact lattice
    assert [ms.neg_index(i) for i in range(7)] == [0, 2, 1, 4, 3, 6, 5]


@pytest.mark.parametrize("rho", [0.02, 3e-4, 1e-6, 1e-10])
def test_from_schedule_conserving_matches_integer_lattice(rho):
    # momenta n * 2 pi / L written at full precision lie off every decimal
    # grid; rounding each to a key grid would not add up (s -> 314159265,
    # 2s -> 628318531 in key steps at s = 2 pi / 5), so conserving must
    # agree with n_a + n_b - n_c on every triple, doubles included
    s = Schedule(rho, eta=0.24)
    ms = from_schedule(s, p_budget=2 * s.spacing)
    lattice = [tuple(int(x) for x in np.rint(m.p / s.spacing)) for m in ms]
    where = {n: i for i, n in enumerate(lattice)}
    for a, b, c in np.ndindex(len(ms), len(ms), len(ms)):
        n = tuple(x + y - z for x, y, z in zip(lattice[a], lattice[b], lattice[c]))
        assert ms.conserving(a, b, c) == where.get(n)
    doubles = [m.index for m in ms if ms.index_of(2 * m.p) is not None]
    assert len(doubles) == 7  # the zero mode and the six axis modes
    for i in doubles:
        assert ms.conserving(i, i, ms.zero_index) == ms.index_of(2 * ms.modes[i].p)


def test_mode_set_without_a_common_step_rounds_sums_on_the_key_grid():
    # 1 and sqrt 2 share no lattice step, so conservation falls back to the
    # float sum p_a + p_b - p_c, rounded once to the key grid
    r = math.sqrt(2.0)
    xs = [0.0, 1.0, -1.0, r, -r, 1.0 + r, -1.0 - r]
    ms = ModeSet.toy([(x, 0.0, 0.0) for x in xs], ["P0"] + ["PI"] * 6)
    assert ms.conserving(1, 3, 0) == 5 and ms.conserving(5, 0, 3) == 1
    assert ms.conserving(1, 1, 0) is None
    assert [ms.neg_index(i) for i in range(7)] == [0, 2, 1, 4, 3, 6, 5]
    assert ms.index_of((1.0 + 1e-12, 0.0, 0.0)) == 1


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_toy_mode_set_rejects_non_finite_momenta(bad):
    with pytest.raises(ValueError, match=r"mode 2: momentum must be finite"):
        ModeSet.toy([(0.0, 0.0, 0.0), (0.5, 0.0, 0.0), (0.0, bad, 0.0)], ["P0", "PI", "PI"])


def test_toy_mode_set_rejects_duplicates_and_missing_zero():
    with pytest.raises(ValueError):
        ModeSet.toy([(0.0, 0.0, 0.0), (0.5, 0.0, 0.0), (0.5, 0.0, 0.0)], ["P0", "PL", "PL"])
    with pytest.raises(ValueError):
        ModeSet.toy([(0.5, 0.0, 0.0)], ["PL"])


def test_from_schedule_materializes_and_truncates():
    # artificial near-unity density so the box is tiny and enumerable
    s = Schedule(0.05, eta=0.24)
    ms = from_schedule(s, p_budget=6.0, k_c=4.0)
    assert len(ms) > 1
    mags = np.linalg.norm(ms.momentum_matrix(), axis=1)
    for m, mag in zip(ms, mags):
        if m.region is Region.TRUNCATED:
            assert mag > 4.0
        elif mag > 4.0:
            assert m.region is Region.TRUNCATED
        elif m.index != ms.zero_index:
            assert m.region is classify(s, mag)
    # every mode's negative is present
    assert all(ms.neg_index(m.index) is not None for m in ms)


@pytest.mark.parametrize("rho", [1e-10, 1e-12])
def test_from_schedule_keys_resolve_at_low_density(rho):
    # the spacing is ~1e-10 and below, so keys must not round momenta to
    # absolute decimals, which would merge every mode into the zero mode
    s = Schedule(rho)
    ms = from_schedule(s, p_budget=3 * s.spacing)
    assert len(ms) == 123  # lattice vectors with |n|^2 <= 9
    assert ms.index_of((0.0, 0.0, 0.0)) == ms.zero_index
    for m in ms:
        assert ms.index_of(m.p) == m.index
        j = ms.neg_index(m.index)
        assert j is not None and np.array_equal(ms.modes[j].p, -m.p)
    assert ms.index_of((0.5 * s.spacing, 0.0, 0.0)) is None


def test_from_schedule_budget_guard():
    with pytest.raises(BudgetExceeded):
        from_schedule(Schedule(1e-4), p_budget=1.0)


def test_load_toy_modes_round_trip(tmp_path):
    text = (
        "# volume = 40.0\n"
        "0 0 0 P0\n"
        "0.1 0 0 PL -0.8\n"
        "-0.1 0 0 PL -0.8\n"
        "\n"
        "1.05 0 0 PH -0.3\n"
        "-1.05 0 0 PH -0.3\n"
    )
    path = tmp_path / "modes.txt"
    path.write_text(text)
    ms = load_toy_modes(path)
    assert ms.volume == 40.0
    assert len(ms) == 5
    assert ms.modes[1].region is Region.PL and ms.modes[1].lam == -0.8
    assert ms.neg_index(3) == 4


def test_load_toy_modes_rejects_bad_lines(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 0 0 P0\n0.1 0 PL\n")
    with pytest.raises(ValueError):
        load_toy_modes(path, volume=1.0)


# ---------------------------------------------------------------- sums


@dataclass(frozen=True)
class LatticeSumResult:
    """Exact sum over an explicit mode set, with optional continuum estimate."""

    total: float
    per_volume: float
    continuum: float | None
    n_modes: int


def lattice_sum(mode_set: ModeSet, integrand, *, regions=None, radial=None, radial_bounds=None):
    """Explicit-mode oracle: sum `integrand(mode)` over the listed modes.

    With a radial profile and bounds the continuum companion
    (2 pi)^-3 int radial(|k|) d^3k over that annulus is attached.
    """
    selected = [m for m in mode_set if regions is None or m.region in regions]
    total = 0.0
    for m in selected:
        val = float(integrand(m))
        if not math.isfinite(val):
            raise DivergentIntegrand(f"integrand not finite at mode {m.index}")
        total += val
    continuum = None
    if radial is not None:
        continuum = lattice._radial_continuum(radial, *radial_bounds)
    return LatticeSumResult(total, total / mode_set.volume, continuum, len(selected))


def test_lattice_sum_toy_hand_value():
    ms = _toy_set(volume=8.0)
    res = lattice_sum(ms, lambda m: _magnitude(m) ** 2, regions=[Region.PL])
    assert math.isclose(res.total, 0.5, rel_tol=1e-14)  # 0.25 + 0.25
    assert math.isclose(res.per_volume, 0.0625, rel_tol=1e-14)
    assert res.n_modes == 2
    assert res.continuum is None


def test_lattice_sum_rejects_divergent_integrand():
    ms = _toy_set()
    with pytest.raises(DivergentIntegrand):
        lattice_sum(ms, lambda m: float("inf"))


def test_continuum_ball_volume():
    # radial integrand 1 over |k| <= R gives R^3 / 6 pi^2 per volume
    ms = _toy_set()
    res = lattice_sum(
        ms,
        lambda m: 1.0,
        regions=[Region.PL],
        radial=lambda k: 1.0,
        radial_bounds=(1e-9, 2.0),
    )
    assert math.isclose(res.continuum, 8.0 / (6.0 * math.pi**2), rel_tol=1e-9)


def test_radial_shell_sum_matches_explicit_modes():
    """FFT shell counts against every mode of the annulus listed one by one:
    shells 10 < m < 400, 3 to 20 spacings out, where both routes sum
    number_density_summand."""
    s = Schedule(1e-6)
    step = s.spacing
    m_lo, m_hi = 10.5, 400.5  # off-shell edges, so no vector sits on them
    ms = from_schedule(s, p_budget=math.sqrt(m_hi) * step)
    f = number_density_summand(s.rho, 1.471269533883597)

    def inside(m) -> bool:
        return m_lo < float(np.sum((m.p / step) ** 2)) < m_hi

    count = lattice_sum(ms, lambda m: float(inside(m))).total
    explicit = lattice_sum(ms, lambda m: f(np.array([_magnitude(m)]))[0] if inside(m) else 0.0)
    res = radial_shell_sum(s, f, math.sqrt(m_lo) * step, math.sqrt(m_hi) * step)
    assert res["n_modes"] == count > 30_000
    assert math.isclose(res["lattice_per_volume"], explicit.per_volume, rel_tol=1e-12)


def test_shell_counts_reference_and_brute_force():
    counts = shell_counts(60)
    assert list(counts[:11]) == _R3
    # cumulative count of lattice vectors inside the ball, by direct loop
    n = int(math.isqrt(60))
    brute = 0
    for x in range(-n, n + 1):
        for y in range(-n, n + 1):
            for z in range(-n, n + 1):
                if x * x + y * y + z * z <= 60:
                    brute += 1
    assert int(np.sum(counts)) == brute


@pytest.fixture(scope="module")
def shells_to_4900():
    """r_3(m) for m <= 4900 = 70^2, by bincount of |n|^2 over the cube |n_i| <= 70."""
    n = np.arange(-70, 71)
    norms = n[:, None, None] ** 2 + n[None, :, None] ** 2 + n[None, None, :] ** 2
    return np.bincount(norms.ravel())[: 4900 + 1]


@pytest.mark.parametrize("m_max", [4897, 4898, 4899, 4900])
def test_shell_counts_every_residue_class_window(shells_to_4900, m_max):
    # m_min in every residue mod 4 near both ends and in the middle, so each
    # class window starts at every offset
    for m_min in (*range(0, 4), *range(2449, 2453), *range(m_max - 3, m_max + 1)):
        window = shell_counts(m_max, m_min)
        assert np.array_equal(window, shells_to_4900[m_min : m_max + 1]), m_min


def test_shell_counts_tiny_windows(shells_to_4900):
    # windows where some residue classes hold no shell at all
    for m_max in range(8):
        for m_min in range(m_max + 1):
            window = shell_counts(m_max, m_min)
            assert np.array_equal(window, shells_to_4900[m_min : m_max + 1]), (m_min, m_max)


@pytest.mark.parametrize("m_max", [60, 1000, 12_345])
def test_shell_counts_window_matches_full_range(m_max):
    full = shell_counts(m_max)
    for m_min in (0, 1, 2, m_max // 3, (2 * m_max) // 3, m_max - 1, m_max):
        window = shell_counts(m_max, m_min)
        assert window.dtype == np.int64
        assert np.array_equal(window, full[m_min:]), m_min


def test_shell_counts_rejects_empty_window():
    with pytest.raises(ValueError):
        shell_counts(10, 11)
    with pytest.raises(ValueError):
        shell_counts(10, -1)


def test_shell_counts_roundoff_guard(monkeypatch):
    full = shell_counts(60)
    irfft2 = scipy.fft.irfft2

    def off_by_0_3(*args, **kwargs):
        # each residue class c runs its own transform, indexed by k = m div 4
        # in the CRT layout: k = 1 is m = 4 + c, so m = 5, 6 and 7 take the error
        out = irfft2(*args, **kwargs)
        out.ravel()[lattice._crt_index(1, out.shape)] += 0.3
        return out

    # shell_counts imports irfft2 from scipy.fft when called, so patch it there
    monkeypatch.setattr(scipy.fft, "irfft2", off_by_0_3)
    with pytest.raises(BudgetExceeded, match="0.3"):
        shell_counts(60, 5)
    # an error outside the kept window is not looked at
    assert np.array_equal(shell_counts(60, 8), full[8:])


def test_shell_counts_refuses_values_past_float32_resolution(monkeypatch):
    """From 2^21 up float32 spacing is 0.25 or more, so the roundoff guard
    cannot see an error there: a class value that large is refused, even one
    that lands on an integer."""
    full = shell_counts(60)
    irfft2 = scipy.fft.irfft2

    def past_2_21(*args, **kwargs):
        # k = 1 is m = 5, 6 and 7 in the window from 5, as in the guard test
        out = irfft2(*args, **kwargs)
        out.ravel()[lattice._crt_index(1, out.shape)] += 2.0**21
        return out

    monkeypatch.setattr(scipy.fft, "irfft2", past_2_21)
    with pytest.raises(BudgetExceeded, match=r"2\^21"):
        shell_counts(60, 5)
    assert np.array_equal(shell_counts(60, 8), full[8:])


def _ball_points(m: int) -> int:
    """#{n in Z^3 : |n|^2 <= m}, column by column: each (x, y) with
    x^2 + y^2 <= m holds 2 isqrt(m - x^2 - y^2) + 1 values of z."""
    if m < 0:
        return 0
    r = math.isqrt(m)
    y2 = np.arange(-r, r + 1, dtype=np.int64) ** 2
    total = 0
    for x in range(-r, r + 1):
        rest = m - x * x - y2
        rest = rest[rest >= 0]
        z = np.floor(np.sqrt(rest)).astype(np.int64)
        z -= z * z > rest  # float sqrt may land one above or below isqrt
        z += (z + 1) * (z + 1) <= rest
        total += int(np.sum(2 * z + 1))
    return total


def test_shell_counts_without_sched_getaffinity(monkeypatch):
    # off Linux os has no sched_getaffinity; the thread count falls back
    # to os.cpu_count()
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    counts = shell_counts(60)
    assert list(counts[:11]) == _R3
    assert int(np.sum(counts)) == _ball_points(60) == 1_935


def test_shell_counts_single_precision_margin_at_low_density(monkeypatch):
    """The rho = 1e-8 P_L window: the inverse transforms return float32, every
    value kept lies within 0.1 of its integer (2.5x below the 0.25 guard),
    and the counts add up to the lattice points between the two spheres."""
    s = Schedule(1e-8)
    m_lo = math.ceil((s.p_gap_top / s.spacing) ** 2)
    m_hi = math.floor((s.p_low_top / s.spacing) ** 2)
    assert (m_lo, m_hi) == (9_779_282, 14_135_361)
    kept = np.arange(m_lo // 4, m_hi // 4 + 1)
    irfft2 = scipy.fft.irfft2
    dtypes, margins = [], []

    def spy(*args, **kwargs):
        out = irfft2(*args, **kwargs)
        dtypes.append(out.dtype)
        # every k = m div 4 of the window holds an unfolded count in all
        # four residue classes
        vals = out.ravel()[lattice._crt_index(kept, out.shape)].astype(float)
        margins.append(float(np.max(np.abs(vals - np.rint(vals)))))
        return out

    monkeypatch.setattr(scipy.fft, "irfft2", spy)
    counts = shell_counts(m_hi, m_lo)
    assert dtypes == [np.float32] * 4
    assert max(margins) < 0.1
    assert int(np.sum(counts)) == _ball_points(m_hi) - _ball_points(m_lo - 1)


def test_shell_counts_per_shell_at_large_shape():
    """r_3(m) shell by shell against sum_z r_2(m - z^2) on the rho = 1e-7 P_L
    window, whose CRT layout is a full 2-D (512, 729): a permuted gather or a
    misplaced table entry moves single shells, which a sum would miss."""
    m_lo, m_hi = 825_988, 1_140_180
    assert lattice._crt_shape(2 * (m_hi // 4) + 1 - m_lo // 4) == (512, 729)
    counts = shell_counts(m_hi, m_lo)
    r = math.isqrt(m_hi)
    sq = np.arange(-r, r + 1) ** 2
    r2 = np.bincount((sq[:, None] + sq[None, :]).ravel())
    rng = np.random.default_rng(20261018)
    edges = [*range(m_lo, m_lo + 4), *range(m_hi - 3, m_hi + 1)]
    shells = np.concatenate([edges, rng.integers(m_lo + 4, m_hi - 3, size=192)])
    assert set((shells % 4).tolist()) == {0, 1, 2, 3}
    for m in shells.tolist():
        rest = m - sq[sq <= m]
        assert counts[m - m_lo] == int(np.sum(r2[rest])), m


def _quarter_plane_table(parity: int, k_max: int, shape: tuple[int, int]) -> np.ndarray:
    """The pair table R of one parity as the plain loop over the quarter
    plane: every (x, y) with x, y >= 0, one row per x, at the CRT position
    (k mod n1) n2 + k mod n2 taken from the definition."""
    n1, n2 = shape
    k, w = lattice._square_class(parity, k_max)
    ends = np.searchsorted(k, k_max - k, side="right")
    table = np.zeros(shape, dtype=np.float32)
    flat = table.ravel()
    for i, j in enumerate(ends.tolist()):
        keys = k[i] + k[:j]
        flat[keys % n1 * n2 + keys % n2] += w[i] * w[:j]
    return table


@pytest.mark.parametrize(
    "m_max, m_min",
    [(0, 0), (7, 0), (11, 0), (15, 0), (1_140_180, 825_988), (14_135_361, 9_779_282)],
    ids=["n1=1-k0", "n1=1-k1", "n1=1-k2", "n1=1-k3", "rho=1e-7", "rho=1e-8"],
)
def test_pair_table_over_the_triangle_is_the_quarter_plane_table(monkeypatch, m_max, m_min):
    """The table `_pair_spectrum` transforms, built over y >= x with the
    off-diagonal pairs doubled, is array-equal to the quarter-plane table in
    both parities: on shapes with n1 = 1, on the rho = 1e-7 window's
    (512, 729) and the rho = 1e-8 window's (1024, 4725)."""
    k_max, k_min = m_max // 4, m_min // 4
    shape = lattice._crt_shape(2 * k_max + 1 - k_min)
    if m_max < 16:
        assert shape[0] == 1
    else:
        assert shape == {1_140_180: (512, 729), 14_135_361: (1024, 4725)}[m_max]
    tables = []

    def keep_table(table, workers):
        tables.append(table)
        return table

    # _pair_spectrum imports rfft2 from scipy.fft when called, so patch it there
    monkeypatch.setattr(scipy.fft, "rfft2", keep_table)
    for parity in (0, 1):
        lattice._pair_spectrum(parity, k_max, shape, 1)
        assert tables[-1].dtype == np.float32
        assert np.array_equal(tables[-1], _quarter_plane_table(parity, k_max, shape)), parity


@pytest.mark.parametrize("dtype, top", [(np.int32, 2**31 - 1), (np.int64, 2**62)])
@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (4, 35), (512, 729), (1024, 4725), (8192, 7203)])
def test_crt_index_is_the_mod_map(dtype, top, shape):
    # n1 is a power of two, so k mod n1 is a mask for every key k >= 0
    n1, n2 = shape
    rng = np.random.default_rng(n1 * n2)
    k = np.concatenate([np.arange(64), rng.integers(0, top, size=4096)]).astype(dtype)
    assert np.array_equal(lattice._crt_index(k, shape), k % n1 * n2 + k % n2)
    assert lattice._crt_index(int(k[-1]), shape) == int(k[-1]) % n1 * n2 + int(k[-1]) % n2


def test_shell_counts_quadruple_and_three_square_theorem():
    """A number-theory oracle off the FFT route, on the rho = 1e-7 P_L
    window: r_3(4m) = r_3(m) (a sum of three squares that is 0 mod 4 has
    every square even), read against a second call on the quarter window,
    and r_3(m) = 0 exactly when m = 4^a (8b + 7) (Legendre)."""
    m_lo, m_hi = 825_988, 1_140_180
    counts = shell_counts(m_hi, m_lo)
    q_lo, q_hi = -(-m_lo // 4), m_hi // 4
    quarter = shell_counts(q_hi, q_lo)
    assert np.array_equal(counts[4 * q_lo - m_lo :: 4], quarter)
    m = np.arange(m_lo, m_hi + 1)
    odd = m.copy()
    while True:
        fours = odd % 4 == 0
        if not fours.any():
            break
        odd[fours] //= 4
    excluded = odd % 8 == 7
    assert excluded.sum() > 40_000
    assert np.array_equal(counts == 0, excluded)


def test_crt_shape_is_coprime_and_tight():
    rng = np.random.default_rng(7)
    sampled = rng.integers(3001, 30_000_001, size=400).tolist()
    for n_min in [*range(1, 3001), *sampled, 30_000_001]:
        n1, n2 = lattice._crt_shape(n_min)
        assert math.gcd(n1, n2) == 1, n_min
        assert n_min <= n1 * n2 <= 1.25 * n_min, n_min


def test_pl_number_density_counts_every_annulus_vector():
    """n_modes at rho = 1e-6 against a direct integer count over (x, y) columns."""
    s = Schedule(1e-6)
    lo2 = (s.p_gap_top / s.spacing) ** 2
    hi2 = (s.p_low_top / s.spacing) ** 2
    m_lo, m_hi = math.ceil(lo2), math.floor(hi2)
    # neither edge sits near an integer, so float rounding cannot move it
    assert min(m_lo - lo2, lo2 - (m_lo - 1), hi2 - m_hi, m_hi + 1 - hi2) > 1e-3

    def column(bound):
        # #{z : z^2 <= bound}
        return 2 * math.isqrt(bound) + 1 if bound >= 0 else 0

    direct = 0
    r = math.isqrt(m_hi)
    for x in range(-r, r + 1):
        for y in range(-r, r + 1):
            s2 = x * x + y * y
            if s2 <= m_hi:
                direct += column(m_hi - s2) - column(m_lo - 1 - s2)
    assert direct > 0
    assert pl_number_density_comparison(s, 1.471269533883597)["n_modes"] == direct


def test_radial_shell_sum_annulus_bounds():
    s = Schedule(0.05, eta=0.24)
    step = s.spacing
    res = radial_shell_sum(s, lambda mags: np.ones_like(mags), step, 2.0 * step)
    # shells m = 1..4: 6 + 12 + 8 + 6 = 32 vectors
    assert res["n_modes"] == 32
    assert math.isclose(res["lattice_per_volume"], 32.0 / s.volume, rel_tol=1e-12)
    with pytest.raises(ValueError):
        radial_shell_sum(s, lambda mags: np.ones_like(mags), 1.001 * step, 1.002 * step)


def _one_shot_sum(schedule, radial, p_lo, p_hi) -> float:
    """The lattice sum of `radial_shell_sum` as one pass over the whole window."""
    step = schedule.spacing
    m_lo = max(math.ceil((p_lo / step) ** 2 - 1e-9), 1)
    m_hi = math.floor((p_hi / step) ** 2 + 1e-9)
    counts = shell_counts(m_hi, m_lo)
    occupied = counts > 0
    mags = np.sqrt(np.flatnonzero(occupied) + float(m_lo)) * step
    return float(np.sum(counts[occupied] * radial(mags))) / schedule.volume


def _shell_edges(step: float, m_lo: int, m_hi: int) -> tuple[float, float]:
    # half a shell outside m_lo .. m_hi, so rounding cannot move either edge
    return math.sqrt(m_lo - 0.5) * step, math.sqrt(m_hi + 0.5) * step


@pytest.mark.parametrize("shells", ["rho=1e-7", 2 * lattice._SUM_BLOCK, 2 * lattice._SUM_BLOCK + 1])
def test_radial_shell_sum_blockwise_is_bit_exact(shells):
    """The blockwise sum equals the one-pass sum to the last bit, on the
    rho = 1e-7 P_L window (314,193 shells) and on windows of a whole and not
    a whole number of blocks."""
    if shells == "rho=1e-7":
        s = Schedule(1e-7)
        p_lo, p_hi = s.p_gap_top, s.p_low_top
    else:
        s = Schedule(1e-6)
        p_lo, p_hi = _shell_edges(s.spacing, 100_000, 100_000 + shells - 1)
    f = number_density_summand(s.rho, 1.471269533883597)
    res = radial_shell_sum(s, f, p_lo, p_hi)
    assert res["lattice_per_volume"] == _one_shot_sum(s, f, p_lo, p_hi)


def test_radial_shell_sum_refuses_non_finite_last_block():
    # 2 blocks and one shell: the last block is the shell m_hi alone
    s = Schedule(1e-6)
    step = s.spacing
    m_lo = 100_000
    m_hi = m_lo + 2 * lattice._SUM_BLOCK
    assert shell_counts(m_hi, m_hi)[0] > 0
    edge = math.sqrt(m_hi - 0.5) * step
    sizes = []

    def radial(mags):
        sizes.append(np.size(mags))
        return np.where(mags > edge, np.inf, 1.0)

    with pytest.raises(DivergentIntegrand):
        radial_shell_sum(s, radial, *_shell_edges(step, m_lo, m_hi))
    assert len(sizes) == 3 and sizes[-1] == 1


def test_pl_sum_traced_peaks_at_rho_1e_7(monkeypatch):
    """Traced memory of the rho = 1e-7 P_L sum in its two phases.  Inside
    shell_counts at most three spectrum-sized arrays (two spectra and a table
    or an inverse) are alive beside the float32 window, so its peak stays
    under four spectra and a 4-byte window.  After it the summand runs block
    by block into the occupied shells' float64 terms, so that phase stays
    under 2.5 times the int64 counts."""
    s = Schedule(1e-7)
    f = number_density_summand(s.rho, 1.471269533883597)
    # import scipy.fft and quad's modules before tracing
    warm = Schedule(1e-5)
    radial_shell_sum(warm, f, warm.p_gap_top, warm.p_low_top)
    counting = lattice.shell_counts
    seen = {}

    def traced(m_max, m_min=0):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        counts = counting(m_max, m_min)
        after, peak = tracemalloc.get_traced_memory()
        seen.update(window=(m_max, m_min), counts=counts, peak=peak - before, after=after)
        tracemalloc.reset_peak()
        return counts

    monkeypatch.setattr(lattice, "shell_counts", traced)
    tracemalloc.start()
    try:
        radial_shell_sum(s, f, s.p_gap_top, s.p_low_top)
        radial_peak = tracemalloc.get_traced_memory()[1] - seen["after"]
    finally:
        tracemalloc.stop()
    m_max, m_min = seen["window"]
    n1, n2 = lattice._crt_shape(2 * (m_max // 4) + 1 - m_min // 4)
    assert (n1, n2) == (512, 729)
    spectrum = n1 * (n2 // 2 + 1) * np.dtype(np.complex64).itemsize
    counts = seen["counts"]
    assert seen["peak"] < 4 * spectrum + 4 * counts.size
    assert radial_peak < 2.5 * counts.nbytes


def test_number_density_summand_matches_lambda_form():
    # (rho lambda)^2 / (1 - (rho lambda)^2) == (h-1)^2 / 4h on P_L, where
    # rho lambda = (1 - h)/(1 + h) lies in (-1, 0) and |lambda| <= g0/p^2
    rho, g0 = 1e-6, 1.3
    f = number_density_summand(rho, g0)
    for mag in (0.002, 0.01, 0.03):
        h = math.sqrt(1.0 + 4.0 * rho * g0 / mag**2)
        x = (1.0 - h) / (1.0 + h)
        assert -1.0 < x < 0.0 and -x <= rho * g0 / mag**2
        assert math.isclose(float(f(np.array([mag]))[0]), x**2 / (1.0 - x**2), rel_tol=1e-12)
    # 4 rho g0 / p^2 = 3 makes h = 2, rho lambda = -1/3 and the summand 1/8
    mag = math.sqrt(4.0 * rho * g0 / 3.0)
    assert math.isclose(float(f(np.array([mag]))[0]), 0.125, rel_tol=1e-14)


def test_number_density_summand_is_the_one_line_formula():
    """The in-place summand returns the one-line expression bit for bit, on
    a 2^16 block of P_L magnitudes, on a block spanning strong to weak
    coupling, and on a float (a 0-d array, as the continuum quadrature
    passes)."""
    rho, g0 = 1e-7, 1.471269533883597
    f = number_density_summand(rho, g0)

    def formula(u):
        x = 4.0 * rho * g0 / (u * u)
        h = np.sqrt(1.0 + x)
        y = x / (1.0 + h)
        return y * y / (4.0 * h)

    step = Schedule(rho).spacing
    blocks = [
        np.sqrt(np.arange(1 << 16) + 825_988.0) * step,
        np.geomspace(1e-12, 1e6, 1 << 16),
    ]
    for mags in blocks:
        vals = f(mags)
        assert vals.shape == mags.shape
        assert np.array_equal(vals, formula(mags))
    for mag in (1e-9, step, 0.01, 3.0):
        val = f(mag)
        assert val.ndim == 0
        assert val == formula(np.float64(mag))


def test_number_density_summand_continuum_limit():
    # at unit density scale the k_hi truncation leaves a g0^2/(2 pi^2 k_hi)
    # tail, so [1e-8, 1e8] should land within ~2e-8 relative of the closed
    # form g0^(3/2)/(3 pi^2) of the full-space integral
    g0 = 1.471269533883597
    target = g0**1.5 / (3.0 * math.pi**2)
    f = number_density_summand(1.0, g0)
    narrow = lattice._radial_continuum(f, 1e-4, 1e4)
    wide = lattice._radial_continuum(f, 1e-8, 1e8)
    assert abs(wide - target) / target < 5e-8
    # widening the annulus can only help
    assert abs(wide - target) <= abs(narrow - target)


def test_pl_number_density_gap_shrinks_with_density():
    g0 = 1.471269533883597
    coarse = pl_number_density_comparison(Schedule(1e-4), g0)
    fine = pl_number_density_comparison(Schedule(1e-5), g0)
    assert coarse["n_modes"] > 0 and fine["n_modes"] > coarse["n_modes"]
    assert fine["rel_gap_annulus"] < coarse["rel_gap_annulus"] < 1e-2
    # scale-free check: lattice/continuum per volume both ~ rho^(3/2) g0^(3/2)
    for rep in (coarse, fine):
        scale = rep["rho"] ** 1.5 * g0**1.5 / (3.0 * math.pi**2)
        assert rep["full_space_reference"] == scale
        assert 0.0 < rep["lattice_per_volume"] < scale
