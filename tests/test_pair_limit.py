"""The exact trial-state energy of one +-k pair against its per-mode limit.

Take the zero mode and one +-k pair at k = 1.5, N particles in |Lambda| =
N / rho with rho = 0.2, and lambda = alpha / rho on both pair modes.  With
gamma = alpha^2 / (1 - alpha^2) and sigma = alpha / (1 - alpha^2), the
energy the pair adds over the condensate alone tends to

    2 k^2 gamma + 4 rho V_k (gamma + sigma)

as N grows, with a miss that falls like 1/N: per mode, the first two terms of
the second-order form with V_k in place of g0.  Past |alpha| = 1 the pair
tower is not summable, and the pair occupancy per particle tends to
(1 - 1/|alpha|) / 2 instead.
"""

import math

import pytest

from bosegas.expectation import energy_report, mean_occupancies
from bosegas.lattice import ModeSet
from bosegas.toys import ToyCase, build_trial

RHO, K = 0.2, 1.5
# V at every transfer of the three modes: 0, k and 2k
_V = {0.0: 1.0, K: 0.6, 2.0 * K: 0.25}


def _case(n: int, label: str | None, alpha: float = 0.0) -> ToyCase:
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
    return ToyCase(name=f"{label}-pair", mode_set=ms, n=n, m_c=2, v_of=_V.__getitem__)


def _pair_energy(n: int, label: str, alpha: float) -> dict:
    """The pair's energy over the condensate's at the same N and |Lambda|,
    by the component route (total) and the brute-force route."""
    reports = []
    for case in (_case(n, label, alpha), _case(n, None)):
        reports.append(energy_report(build_trial(case), case.context()))
    pair, alone = reports
    return {key: pair[key] - alone[key] for key in ("total", "brute_force_total")}


@pytest.mark.parametrize("alpha", [-0.1, -0.3, -0.5])
@pytest.mark.parametrize("label", ["PI", "PH"])
def test_pair_energy_tends_to_the_per_mode_form(label, alpha):
    gamma, sigma = alpha**2 / (1.0 - alpha**2), alpha / (1.0 - alpha**2)
    target = 2.0 * K**2 * gamma + 4.0 * RHO * _V[K] * (gamma + sigma)
    coarse, fine = _pair_energy(320, label, alpha), _pair_energy(1280, label, alpha)
    for route in ("total", "brute_force_total"):
        limit = (4.0 * fine[route] - coarse[route]) / 3.0
        assert math.isclose(limit, target, rel_tol=2e-4), route
        # a miss of order 1/N shrinks fourfold from N = 320 to 1280
        ratio = (coarse[route] - target) / (fine[route] - target)
        assert 3.5 < ratio < 4.5, route


@pytest.mark.parametrize("alpha", [-1.1, -1.3])
def test_ph_pair_occupancy_past_unit_alpha(alpha):
    n = 1280
    trial = build_trial(_case(n, "PH", alpha))
    per_particle = float(mean_occupancies(trial)[1]) / n
    assert math.isclose(per_particle, (1.0 - 1.0 / abs(alpha)) / 2.0, rel_tol=1e-3)
