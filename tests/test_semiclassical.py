"""Closed-form radial integrals, the coefficient ledger, and the final constant."""

import dataclasses
import math
import time

import pytest

from bosegas.errors import IdentityViolation
from bosegas.semiclassical import (
    LHY_RATIO,
    assemble_ledger,
    integral_kinetic,
    integral_number_density,
    integral_pair,
    predicted_energy_density,
)

_CLOSED = {
    "number_density": 1.0 / (3.0 * math.pi**2),
    "kinetic": -8.0 / (5.0 * math.pi**2),
    "pair": 1.0 / math.pi**2,
}


@pytest.mark.parametrize(
    "func,key",
    [
        (integral_number_density, "number_density"),
        (integral_kinetic, "kinetic"),
        (integral_pair, "pair"),
    ],
)
def test_integral_closed_forms(func, key):
    # the unit-coupling coefficients; g0 enters only as the power g0^(3/2) or g0^(5/2)
    t0 = time.perf_counter()
    res = func()
    dt = time.perf_counter() - t0
    assert dt < 1.0
    assert math.isclose(res.value, _CLOSED[key], rel_tol=1e-9)


# ---------------------------------------------------------------- ledger


def test_ledger_milestones_with_identities_imposed(gaussian_solution):
    led = assemble_ledger(gaussian_solution, identity_tol=1e-6)
    g0 = led["g0"]
    milestone = 26.0 * g0**2.5 / (15.0 * math.pi**2)
    final = 16.0 * g0**2.5 / (15.0 * math.pi**2)
    assert led["leading_imposed_residual"] <= 1e-12
    assert abs(led["second_sum_imposed"] - milestone) / milestone <= 1e-12
    assert abs(led["final_coefficient"] - final) / final <= 1e-12
    assert led["second_imposed_residual"] <= 1e-12
    assert led["final_residual"] <= 1e-12


def test_ledger_raw_sums_bounded_by_identity_residuals(gaussian_solution):
    # the raw columns carry the solved norms, so their telescopes are only
    # as good as the two identity residuals that feed them
    from bosegas.scattering import check_scattering_identities

    led = assemble_ledger(gaussian_solution, identity_tol=1e-6)
    rep = check_scattering_identities(gaussian_solution)
    slack = (rep["gradient"] + rep["length"]) / led["g0"]
    assert led["leading_residual"] <= 1.5 * slack + 1e-15
    assert led["milestone_raw_residual"] <= 10.0 * (rep["gradient"] + rep["length"])
    # and still far better than the tolerance of anything downstream
    assert led["leading_residual"] < 1e-9
    assert led["milestone_raw_residual"] < 1e-9


def test_ledger_component_tables_telescope(gaussian_solution):
    led = assemble_ledger(gaussian_solution, identity_tol=1e-6)
    assert set(led["leading"]) == set(led["second_order"]) == {
        "kinetic", "HS1", "HS2", "HS3", "HA1", "HA2",
    }
    assert math.isclose(sum(led["leading"].values()), led["leading_sum"], rel_tol=1e-15)
    assert math.isclose(sum(led["second_order"].values()), led["second_sum_raw"], rel_tol=1e-15)
    # asymmetric components contribute nothing at leading order
    assert led["leading"]["HA1"] == led["leading"]["HA2"] == 0.0


def test_ledger_refuses_broken_identities(gaussian_solution):
    broken = dataclasses.replace(gaussian_solution, v0=gaussian_solution.v0 * 1.01)
    with pytest.raises(IdentityViolation):
        assemble_ledger(broken, identity_tol=1e-6)


def test_condensate_density_band(gaussian_solution):
    # condensate density rho - g0^(3/2) rho^(3/2)/(3 pi^2) at the reference g0
    led = assemble_ledger(gaussian_solution, identity_tol=1e-6)
    rho = 1e-6
    assert math.isclose(led["depletion_coefficient"], led["g0"]**1.5 / (3.0 * math.pi**2), rel_tol=1e-15)
    rho0 = rho - led["depletion_coefficient"] * rho**1.5
    assert math.isclose(rho0, 9.999397277557458e-07, rel_tol=1e-12)
    assert led["eps_band"] == 0.01


# ---------------------------------------------------------------- constants


def test_second_order_constant_identities():
    # (16/15 pi^2) (4 pi)^(5/2) = 4 pi * 128/(15 sqrt(pi)) = 512 sqrt(pi)/15
    lhs = LHY_RATIO * (4.0 * math.pi) ** 2.5
    mid = 4.0 * math.pi * 128.0 / (15.0 * math.sqrt(math.pi))
    rhs = 512.0 * math.sqrt(math.pi) / 15.0
    assert abs(lhs - rhs) / rhs <= 1e-12
    assert abs(mid - rhs) / rhs <= 1e-12


def test_predicted_energy_density_formula():
    rho, g0 = 1e-5, 1.4712695338835973
    expect = g0 * rho**2 + LHY_RATIO * g0**2.5 * rho**2.5
    assert math.isclose(predicted_energy_density(rho, g0), expect, rel_tol=1e-15)
    # second-order term is a small positive correction in the dilute regime
    assert 0.0 < predicted_energy_density(rho, g0) - g0 * rho**2 < g0 * rho**2
