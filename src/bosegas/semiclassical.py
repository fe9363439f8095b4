"""Continuum integrals, the energy-coefficient ledger, and the LHY curve.

Three radial integrals govern the second-order coefficients.  With
h = sqrt(1 + 4 g0 / k^2) and the substitution k = sqrt(g0) q they reduce to
dimensionless forms (x = 4/q^2 below, so h = sqrt(1+x)):

  number density   (2 pi)^-3 int (h-1)^2/(4h) d^3k            = g0^(3/2)/(3 pi^2)
  kinetic          (2 pi)^-3 int k^2 [ (1+2g0/k^2)/(2h)
                                       - (1+2(g0/k^2)^2)/2 ]  = -8 g0^(5/2)/(5 pi^2)
  pair             (2 pi)^-3 int (g0/k^2)(1 - 1/h) d^3k       = g0^(3/2)/pi^2

The substitution pulls out the whole g0 dependence as the power g0^(3/2) or
g0^(5/2), so each integral is computed once, at the unit coupling g0 = 1:
the functions below return those coefficients, each as value,
closed_form and their rel_residual.

Each integrand is evaluated in an algebraically equivalent form with no
subtractive cancellation anywhere on (0, inf):

  (h-1)^2/(4h)                   = 4 / (q^4 h (1+h)^2)
  (1+x/2)/(2h) - (1+x^2/8)/2     = -x^3 (5 + 3h + x) / (32 h (1+h)(1 + h + x/2))
  (1/q^2)(1 - 1/h)               = 4 / (q^4 h (1+h))

(The middle identity follows by rationalizing (1+x/2) - h twice; its small-x
limit -x^3/16 and large-x limit -x^2/16 match the direct expansions.)
Quadrature runs on [0,1] and [1, K] with the analytic power tail beyond K.

The ledger collects, per Hamiltonian component, the coefficient of rho^2 and
of rho^(5/2) in the energy density.  Writing G2 = |grad w|_2^2, W1 = |Vw|_1,
W2 = |Vw^2|_1:

  component   rho^2 coeff     rho^(5/2) coefficient
  kinetic     G2              4 G2 g0^(3/2)/(3 pi^2) - 8 g0^(5/2)/(5 pi^2)
  HS1         V0              4 V0 g0^(3/2)/(3 pi^2)
  HS2         -2 W1           2 V0 g0^(3/2)/pi^2
  HS3         W2              -2 W1 g0^(3/2)/pi^2
  HA1         0               -8 W1 g0^(3/2)/(3 pi^2)
  HA2         0               4 W2 g0^(3/2)/(3 pi^2)

Under the two scattering identities G2 - W1 + W2 = 0 and V0 - W1 = g0 the
rho^2 column sums to g0 and the rho^(5/2) column to 26 g0^(5/2)/(15 pi^2);
replacing rho^2 by the condensate density squared shifts the latter to the
second-order coefficient 16 g0^(5/2)/(15 pi^2).

scipy's `quad` is imported inside the one helper that calls it, not at
module level: the CLI imports this module at every start, and the
trial-state and boundary pipelines never integrate.
"""

from __future__ import annotations

import math

from .errors import IdentityViolation
from .scattering import ScatteringSolution, check_scattering_identities

__all__ = [
    "integral_number_density",
    "integral_kinetic",
    "integral_pair",
    "assemble_ledger",
    "LHY_RATIO",
]

# second-order coefficient of (e0 - g0 rho) / (g0^(5/2) rho^(3/2))
LHY_RATIO = 16.0 / (15.0 * math.pi**2)

_TAIL_CUT = 1.0e3
# (2 pi)^-3 times the solid angle 4 pi: d^3k = 4 pi k^2 dk
_SHELL = 1.0 / (2.0 * math.pi**2)


def _hx(q: float):
    x = 4.0 / (q * q)
    return x, math.sqrt(1.0 + x)


def _quad_with_tail(radial, tail_coeffs) -> float:
    """Integrate radial(q) over (0, inf): two panels at relative accuracy
    1e-12 plus a power-law tail.

    tail_coeffs = (c2, c4, c6) for radial ~ c2/q^2 + c4/q^4 + c6/q^6 at
    large q; the remainder beyond the cutoff K integrates to
    c2/K + c4/(3 K^3) + c6/(5 K^5).
    """
    from scipy.integrate import quad

    v1, _ = quad(radial, 0.0, 1.0, epsabs=0.0, epsrel=1e-12, limit=200)
    v2, _ = quad(radial, 1.0, _TAIL_CUT, epsabs=0.0, epsrel=1e-12, limit=400)
    c2, c4, c6 = tail_coeffs
    k = _TAIL_CUT
    tail = c2 / k + c4 / (3.0 * k**3) + c6 / (5.0 * k**5)
    return v1 + v2 + tail


def _result(value: float, closed_form: float) -> dict:
    return {
        "value": value,
        "closed_form": closed_form,
        "rel_residual": abs(value - closed_form) / abs(closed_form),
    }


def integral_number_density() -> dict:
    """Condensate-depletion integral at unit coupling; closed form 1/(3 pi^2).

    At coupling g0 the integral is g0^(3/2) times this coefficient.
    """

    def radial(q):
        x, h = _hx(q)
        return 4.0 / (q * q * h * (1.0 + h) ** 2)

    return _result(_quad_with_tail(radial, (1.0, -4.0, 15.0)) * _SHELL, 1.0 / (3.0 * math.pi**2))


def integral_kinetic() -> dict:
    """Kinetic-excess integral at unit coupling; closed form -8/(5 pi^2).

    At coupling g0 the integral is g0^(5/2) times this coefficient.
    """

    def radial(q):
        x, h = _hx(q)
        return -(2.0 / (q * q)) * (5.0 + 3.0 * h + x) / (h * (1.0 + h) * (1.0 + h + 0.5 * x))

    return _result(_quad_with_tail(radial, (-4.0, 15.0, -56.0)) * _SHELL, -8.0 / (5.0 * math.pi**2))


def integral_pair() -> dict:
    """Pair-coupling integral at unit coupling; closed form 1/pi^2.

    At coupling g0 the integral is g0^(3/2) times this coefficient.
    """

    def radial(q):
        x, h = _hx(q)
        return 4.0 / (q * q * h * (1.0 + h))

    return _result(_quad_with_tail(radial, (2.0, -6.0, 20.0)) * _SHELL, 1.0 / math.pi**2)


def assemble_ledger(solution: ScatteringSolution, *, identity_tol: float) -> dict:
    """Fill both coefficient columns from solved norms and telescope them.

    Raw sums carry the solved norms and are good to quadrature accuracy;
    imposed sums re-evaluate the same table after eliminating V0 and W2
    through the two identities, so they test the coefficient algebra alone
    and must hit the closed forms at float precision.

    Refuses to proceed when the scattering identities fail at identity_tol:
    the telescoped sums are meaningless without them.
    """
    residuals = check_scattering_identities(solution)
    if not (residuals["gradient"] <= identity_tol and residuals["length"] <= identity_tol):
        raise IdentityViolation(
            "scattering identities fail: "
            f"gradient {residuals['gradient']:.3e}, length {residuals['length']:.3e}"
        )
    g0 = solution.g0
    g32 = g0**1.5 / math.pi**2
    v0, w1, w2, grad2 = solution.v0, solution.vw1, solution.vw2, solution.grad_w2

    def columns(v0_, w1_, w2_, grad2_):
        leading = {
            "kinetic": grad2_,
            "HS1": v0_,
            "HS2": -2.0 * w1_,
            "HS3": w2_,
            "HA1": 0.0,
            "HA2": 0.0,
        }
        second = {
            "kinetic": (4.0 / 3.0) * grad2_ * g32 - 8.0 * g0**2.5 / (5.0 * math.pi**2),
            "HS1": (4.0 / 3.0) * v0_ * g32,
            "HS2": 2.0 * v0_ * g32,
            "HS3": -2.0 * w1_ * g32,
            "HA1": -(8.0 / 3.0) * w1_ * g32,
            "HA2": (4.0 / 3.0) * w2_ * g32,
        }
        return leading, second

    leading, second = columns(v0, w1, w2, grad2)
    # eliminate V0 and W2 through the identities, keep W1 and the gradient
    leading_imp, second_imp = columns(w1 + g0, w1, w1 - grad2, grad2)
    leading_sum = sum(leading.values())
    leading_sum_imposed = sum(leading_imp.values())
    second_raw = sum(second.values())
    second_imposed = sum(second_imp.values())
    milestone = 26.0 * g0**2.5 / (15.0 * math.pi**2)
    final_closed = 16.0 * g0**2.5 / (15.0 * math.pi**2)
    # substituting the condensate density for rho in the leading term moves
    # 2 g0 * depletion = (2/3 pi^2) g0^(5/2) down into the second-order column
    final = second_imposed - 2.0 * g0**2.5 / (3.0 * math.pi**2)
    return {
        "g0": g0,
        "norms": solution.norms(),
        "leading": leading,
        "second_order": second,
        "leading_sum": leading_sum,
        "leading_residual": abs(leading_sum - g0) / g0,
        "leading_sum_imposed": leading_sum_imposed,
        "leading_imposed_residual": abs(leading_sum_imposed - g0) / g0,
        "second_sum_raw": second_raw,
        "second_sum_imposed": second_imposed,
        "milestone_raw_residual": abs(second_raw - milestone) / milestone,
        "second_imposed_residual": abs(second_imposed - milestone) / milestone,
        "final_coefficient": final,
        "final_residual": abs(final - final_closed) / final_closed,
        "depletion_coefficient": g0**1.5 / (3.0 * math.pi**2),
        # half-width of the condensate-density band rho0 +- eps_band rho^(3/2)
        "eps_band": 0.01,
    }
