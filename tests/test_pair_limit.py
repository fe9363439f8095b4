"""The exact trial-state energy of one or two +-k pairs against its
per-mode limit.

Take the zero mode and one +-k pair at k = 1.5, N particles in |Lambda| =
N / rho with rho = 0.2, and lambda = alpha / rho on both pair modes.  With
gamma = alpha^2 / (1 - alpha^2) and sigma = alpha / (1 - alpha^2), the
energy the pair adds over the condensate alone tends to

    2 k^2 gamma + 4 rho V_k (gamma + sigma)

as N grows, with a miss that falls like 1/N: per mode, the first two terms of
the second-order form with V_k in place of g0.  Past |alpha| = 1 the pair
tower is not summable, and the pair occupancy per particle tends to
(1 - 1/|alpha|) / 2 instead.  A P_L pair holds at most m_c particles per
mode, and gamma and sigma become the truncated geometric sums gamma_c and
sigma_c.  Two pairs at once add the cross term HS3, which per volume tends
to 4 sigma_1 sigma_2 (V_{|k1 - k2|} + V_{|k1 + k2|}).

A soft channel, a P_L pair +-u and two P_H modes with p_i + p_j = u, adds
the cubic term HA1.  The soft child of B_m = (N - 2m; m, m; 0, 0) has
weight ratio 2 sqrt((N - 2m) m) / |Lambda| sqrt(lam_i) sqrt(lam_j) to B_m
(`soft_symmetric`), a+_0 a+_u a_i a_j takes it back to B_m with matrix
element sqrt((N - 2m) m), and P(B_m) tends to alpha_u^{2m} / Z.  Both
orderings of (i, j) and their conjugates give

    |Lambda| HA1 -> -8 sqrt(alpha_i alpha_j) (V_{|p_i|} + V_{|p_j|}) gamma_c

for alpha_i, alpha_j < 0, with gamma_c the capped P_L occupancy.

On a strict-only mode set (no soft channel) |f|^2 factors over the pairs at
any N: the state with m_k pairs at +-k, M = sum m_k in all, has
|f|^2 / |f(all-condensate)|^2 = c_M prod_k lambda_k^(2 m_k), with
c_M = prod_{i<2M} (N - i) / |Lambda|^(2M).  Each pair's series
S_k = sum_m lambda_k^(2m) t^m, cut at m <= m_c on P_L, then gives

    Z = sum_M c_M [t^M] prod_k S_k,
    <m_k> = sum_M c_M [t^M] (t S_k' prod_{j != k} S_j) / Z,

and P(all-condensate) = 1 / Z.
"""

import math

import numpy as np
import pytest

from bosegas.expectation import energy_report, expect_component, mean_occupancies
from bosegas.lattice import ModeSet
from bosegas.toys import ToyCase, build_trial, gaussian_coupling

RHO, K = 0.2, 1.5
# V at every transfer of the three modes: 0, k and 2k
_V = {0.0: 1.0, K: 0.6, 2.0 * K: 0.25}


def _case(n: int, label: str | None, alpha: float = 0.0, m_c: int = 2) -> ToyCase:
    """The zero mode alone (label None), or with the +-k pair in `label`."""
    if label is None:
        ms = ModeSet([(0.0, 0.0, 0.0)], ["P0"], volume=n / RHO, lams=[None])
    else:
        lam = alpha / RHO
        ms = ModeSet(
            [(0.0, 0.0, 0.0), (K, 0.0, 0.0), (-K, 0.0, 0.0)],
            ["P0", label, label],
            volume=n / RHO,
            lams=[None, lam, lam],
        )
    return ToyCase(name=f"{label}-pair", mode_set=ms, n=n, m_c=m_c, v_of=_V.__getitem__)


def _pair_energy(n: int, label: str, alpha: float, m_c: int = 2) -> dict:
    """The pair's energy over the condensate's at the same N and |Lambda|,
    by the component route (total) and the brute-force route."""
    reports = []
    for case in (_case(n, label, alpha, m_c), _case(n, None)):
        reports.append(energy_report(build_trial(case), case.context()))
    pair, alone = reports
    return {key: pair[key] - alone[key] for key in ("total", "brute_force_total")}


def _assert_limit(coarse: float, fine: float, target: float, rel_tol: float, route=None):
    """Richardson from N and 4N meets target, and the miss shrinks fourfold
    from N to 4N, as one of order 1/N does."""
    assert math.isclose((4.0 * fine - coarse) / 3.0, target, rel_tol=rel_tol), route
    assert 3.5 < (coarse - target) / (fine - target) < 4.5, route


@pytest.mark.parametrize("alpha", [-0.1, -0.3, -0.5])
@pytest.mark.parametrize("label", ["PI", "PH"])
def test_pair_energy_tends_to_the_per_mode_form(label, alpha):
    gamma, sigma = alpha**2 / (1.0 - alpha**2), alpha / (1.0 - alpha**2)
    target = 2.0 * K**2 * gamma + 4.0 * RHO * _V[K] * (gamma + sigma)
    coarse, fine = _pair_energy(320, label, alpha), _pair_energy(1280, label, alpha)
    for route in ("total", "brute_force_total"):
        _assert_limit(coarse[route], fine[route], target, 2e-4, route)


@pytest.mark.parametrize("m_c", [2, 3])
@pytest.mark.parametrize("alpha", [-0.3, -0.5, -0.8])
def test_capped_pl_pair_energy_tends_to_the_truncated_form(alpha, m_c):
    # the uncapped gamma misses the limit by 0.27 % to 150 % here
    z = sum(alpha ** (2 * m) for m in range(m_c + 1))
    gamma = sum(m * alpha ** (2 * m) for m in range(m_c + 1)) / z
    sigma = sum((m + 1) * alpha ** (2 * m + 1) for m in range(m_c)) / z
    target = 2.0 * K**2 * gamma + 4.0 * RHO * _V[K] * (gamma + sigma)
    coarse, fine = _pair_energy(320, "PL", alpha, m_c), _pair_energy(1280, "PL", alpha, m_c)
    for route in ("total", "brute_force_total"):
        _assert_limit(coarse[route], fine[route], target, 2e-4, route)


_K1, _K2 = (1.5, 0.0, 0.0), (0.5, 1.0, 0.0)
_V_TWO = gaussian_coupling(0.9)


def _two_pair_components(n: int, alpha1: float, alpha2: float) -> dict:
    """|Lambda| HS3, HA1 and HA2 of two P_I pairs at +-k1 and +-k2."""
    lam1, lam2 = alpha1 / RHO, alpha2 / RHO
    ms = ModeSet(
        [(0.0, 0.0, 0.0), _K1, [-x for x in _K1], _K2, [-x for x in _K2]],
        ["P0", "PI", "PI", "PI", "PI"],
        volume=n / RHO,
        lams=[None, lam1, lam1, lam2, lam2],
    )
    case = ToyCase(name="two-pairs", mode_set=ms, n=n, m_c=2, v_of=_V_TWO)
    trial, coupling = build_trial(case), case.context()
    parts = {c: expect_component(trial, c, coupling).real for c in ("HS3", "HA1", "HA2")}
    return {**parts, "HS3": parts["HS3"] * ms.volume}


@pytest.mark.parametrize("alpha1, alpha2", [(-0.3, -0.2), (-0.5, -0.3), (-0.1, -0.4)])
def test_two_pair_cross_term_tends_to_its_limit(alpha1, alpha2):
    # 8 sigma_1 sigma_2 V at either transfer alone misses by more than 40 %
    sigma1, sigma2 = alpha1 / (1.0 - alpha1**2), alpha2 / (1.0 - alpha2**2)
    minus, plus = math.dist(_K1, _K2), math.dist(_K1, [-x for x in _K2])
    target = 4.0 * sigma1 * sigma2 * (_V_TWO(minus) + _V_TWO(plus))
    coarse, fine = (_two_pair_components(n, alpha1, alpha2) for n in (160, 640))
    for parts in (coarse, fine):
        assert parts["HA1"] == parts["HA2"] == 0.0
    _assert_limit(coarse["HS3"], fine["HS3"], target, 1e-3)


@pytest.mark.parametrize("alpha", [-0.8, -0.9])
@pytest.mark.parametrize("label", ["PI", "PH"])
def test_pair_energy_near_unit_alpha_by_three_point_richardson(label, alpha):
    # at -0.9 the 1/N^2 term still shows at N = 5120: the two-point value
    # misses by 6.6e-4, the three-point one by 2.0e-4
    gamma, sigma = alpha**2 / (1.0 - alpha**2), alpha / (1.0 - alpha**2)
    target = 2.0 * K**2 * gamma + 4.0 * RHO * _V[K] * (gamma + sigma)
    energies = [_pair_energy(n, label, alpha) for n in (1280, 5120, 20480)]
    for route in ("total", "brute_force_total"):
        e1, e4, e16 = (e[route] for e in energies)
        three = (64.0 * e16 - 20.0 * e4 + e1) / 45.0
        two = (4.0 * e16 - e4) / 3.0
        assert math.isclose(three, target, rel_tol=5e-4), route
        assert abs(three - target) < abs(two - target), route


_U, _P_I = (0.25, 0.0, 0.0), (1.25, 0.5, 0.0)
# p_j = u - p_i opens the soft channel; the other p_j leaves none
_P_J_SOFT, _P_J_STRICT = (-1.0, -0.5, 0.0), (-1.0, -0.25, 0.0)
_SOFT_SETS = [
    # (alpha_u, alpha_i, alpha_j), m_c, V
    ((-0.5, -0.3, -0.28), 2, gaussian_coupling(1.0)),
    ((-0.8, -0.1, -0.4), 3, gaussian_coupling(0.7, decay=0.5)),
    ((-0.3, -0.5, -0.2), 2, gaussian_coupling(1.3, 0.2)),
    ((-0.9, -0.6, -0.3), 4, gaussian_coupling(1.0)),
]


def _soft_triangle_ha1(n: int, alphas, m_c: int, v_of, p_j) -> tuple[int, float]:
    """(closure size, |Lambda| HA1) of the zero mode, a P_L pair at +-u, and
    P_H modes at p_i and p_j, with lambda = alpha / rho on each."""
    alpha_u, alpha_i, alpha_j = alphas
    lam_u = alpha_u / RHO
    ms = ModeSet(
        [(0.0, 0.0, 0.0), _U, [-x for x in _U], _P_I, p_j],
        ["P0", "PL", "PL", "PH", "PH"],
        volume=n / RHO,
        lams=[None, lam_u, lam_u, alpha_i / RHO, alpha_j / RHO],
    )
    case = ToyCase(name="soft-triangle", mode_set=ms, n=n, m_c=m_c, v_of=v_of)
    trial = build_trial(case)
    return len(trial), expect_component(trial, "HA1", case.context()).real * ms.volume


@pytest.mark.parametrize("alphas, m_c, v_of", _SOFT_SETS)
def test_soft_channel_cubic_term_tends_to_its_limit(alphas, m_c, v_of):
    alpha_u, alpha_i, alpha_j = alphas
    z = sum(alpha_u ** (2 * m) for m in range(m_c + 1))
    gamma = sum(m * alpha_u ** (2 * m) for m in range(m_c + 1)) / z
    v_ij = v_of(math.hypot(*_P_I)) + v_of(math.hypot(*_P_J_SOFT))
    target = -8.0 * math.sqrt(alpha_i * alpha_j) * v_ij * gamma
    coarse, fine = (_soft_triangle_ha1(n, alphas, m_c, v_of, _P_J_SOFT)[1] for n in (2560, 10240))
    _assert_limit(coarse, fine, target, 1e-4)


@pytest.mark.parametrize("alphas, m_c, v_of", _SOFT_SETS)
def test_no_soft_channel_no_cubic_term(alphas, m_c, v_of):
    # without p_i + p_j = u the closure is the P_L tower alone
    for n in (640, 2560, 10240):
        assert _soft_triangle_ha1(n, alphas, m_c, v_of, _P_J_STRICT) == (m_c + 1, 0.0)


@pytest.mark.parametrize("alpha", [-1.1, -1.3])
def test_ph_pair_occupancy_past_unit_alpha(alpha):
    n = 1280
    trial = build_trial(_case(n, "PH", alpha))
    per_particle = float(mean_occupancies(trial)[1]) / n
    assert math.isclose(per_particle, (1.0 - 1.0 / abs(alpha)) / 2.0, rel_tol=1e-3)


_VOLUME = 25.0
_STRICT_A = [
    ((1.5, 0.0, 0.0), "PH", -0.05),
    ((0.0, 1.25, 0.0), "PI", -0.03),
    ((0.0, 0.0, 1.75), "PH", -0.02),
]
# a P_L pair beside A's first two: no P_H pair sums to its momentum
_STRICT_B = [((0.25, 0.0, 0.0), "PL", -0.06), *_STRICT_A[:2]]


def _series_statistics(n: int, pairs, m_c: int) -> tuple[float, list[float]]:
    """Z and each pair's <m_k> from the pairs' power series in t, cut at
    t^(N/2), where c_M vanishes beyond."""
    top = n // 2
    series = [
        np.array([lam ** (2 * m) if label != "PL" or m <= m_c else 0.0 for m in range(top + 1)])
        for _, label, lam in pairs
    ]
    c = [1.0]
    for i in range(2, 2 * top + 1, 2):
        c.append(c[-1] * (n - i + 2) * (n - i + 1) / _VOLUME**2)

    def weighted(polys) -> float:
        """sum_M c_M [t^M] prod polys."""
        prod = np.zeros(top + 1)
        prod[0] = 1.0
        for poly in polys:
            prod = np.convolve(prod, poly)[: top + 1]
        return float(np.dot(c, prod))

    z = weighted(series)
    t_deriv = np.arange(top + 1)
    means = [
        weighted([t_deriv * s, *series[:k], *series[k + 1 :]]) / z for k, s in enumerate(series)
    ]
    return z, means


@pytest.mark.parametrize("n", [20, 80, 160])
@pytest.mark.parametrize(
    "pairs, m_c", [(_STRICT_A, 2), (_STRICT_B, 2), (_STRICT_B, 3)], ids=["A", "B-2", "B-3"]
)
def test_strict_pair_statistics_factor_over_pairs(pairs, m_c, n):
    # measured within 6.0e-14 (means) and 1.2e-14 (condensate); A at N = 160
    # is the largest closure, 91,881 states
    momenta, labels, lams = [(0.0, 0.0, 0.0)], ["P0"], [None]
    for p, label, lam in pairs:
        momenta += [p, tuple(-x for x in p)]
        labels += [label, label]
        lams += [lam, lam]
    ms = ModeSet(momenta, labels, volume=_VOLUME, lams=lams)
    trial = build_trial(ToyCase(name="strict-pairs", mode_set=ms, n=n, m_c=m_c, v_of=_V_TWO))
    z, means = _series_statistics(n, pairs, m_c)
    got = mean_occupancies(trial)
    for k, mean in enumerate(means):
        for idx in (1 + 2 * k, 2 + 2 * k):
            assert math.isclose(got[idx], mean, rel_tol=1e-12), (k, idx)
    assert math.isclose(trial.probabilities()[0], 1.0 / z, rel_tol=1e-13)
