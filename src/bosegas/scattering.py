"""Zero-energy two-body scattering in momentum space.

A repulsive Gaussian pair potential V enters through its Fourier transform

    V_p = 4 pi int_0^inf r^2 V(r) sinc(p r) dr ,      sinc(x) = sin(x)/x .

The zero-energy scattering solution 1 - w of  -Delta u + V u = 0  turns into
a linear equation for w in momentum space,

    p^2 w_p = V_p - (2 pi)^-3 int V_{p-r} w_r d^3 r .

Radial symmetry collapses the 3-d convolution to a 1-d pair kernel,

    (2 pi)^-3 int V_{|p-r|} w_r d^3 r = (1 / 4 pi^2 p) int_0^inf dr r w_r K(p, r) ,

    K(p, r) = int_{|p-r|}^{p+r} q V_q dq
            = (V_0 / s^2) exp(-(p - r)^2 s^2 / 2) (1 - exp(-2 p r s^2)) ,

with s the width.  In this factored form K keeps its relative precision at
any ratio r/p, and it falls below e^-40 of its scale once |p - r| reaches
sqrt(80)/s; past that radius it is exactly 0.  So only its support is built
and kept: one rectangle per block of 64 rows, from the diagonal to the
support edge of the block's last row, which each product applies together
with its transpose.  On the 2049-point grid that is 1.04M to 1.32M entries
(8.3 to 10.6 MB) in place of the 4.2M (33.6 MB) of the dense matrix.  On a
log-spaced grid the equation for g = p^2 w reads (I + A) g = V_p, and
GMRES solves it in a few kernel products at any coupling strength, past
the radius where the Born series diverges.
The grid follows from the potential alone: it ends at 1e3/width and starts
low enough for an upper bound on a, so a scattering length far past the
width solves too.

The converged solution carries the scattering length a = (V_0 - ||Vw||_1)/4pi,
the coupling g0 = 4 pi a, and the norms ||Vw||_1, ||Vw^2||_1, ||grad w||_2^2
consumed by the energy ledger, all read off the solved p^2 w on the grid.
Two exact identities tie them together:

    ||grad w||_2^2 - ||Vw||_1 + ||Vw^2||_1 = 0
    V_0 - ||Vw||_1 = g0

and `check_scattering_identities` reports how well the numerics honor them,
using the independent small-p limit of g_p = p^2 w_p on the second one.

`shooting_scattering_length` is the position-space oracle for a: it
integrates the zero-energy variable-phase equation b' = U e^{-x^2/2} (x - b)^2
in width units with the 8th-order Dormand-Prince pair DOP853 (scipy's
solve_ivp) at rtol 1e-12 and reads a = b(12) width.  The equation subtracts
no two close numbers and is scale-free, so no coupling or width loses a's
digits to cancellation.

scipy is imported inside the functions that call it, not at module level:
the CLI imports this module at every start, and the trial-state and
boundary pipelines never solve (trial-state needs only `Potential` and
`fourier_at`), so no pipeline pays for a scipy module it does not call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import InvalidPotential, NotConverged

__all__ = [
    "Potential",
    "ScatteringSolution",
    "fourier_at",
    "solve_scattering",
    "check_scattering_identities",
    "shooting_scattering_length",
]

# points of the log-spaced momentum grid, odd for Simpson (see _momentum_grid)
_GRID_POINTS = 2049
# bound on V_0 (p_min a_max)^3; the identity residual is about a tenth of it
_LOW_END_BUDGET = 1e-8
# GMRES stops at a sup-norm residual of _TOL * max|V_p|
_TOL = 1e-11
# GMRES Krylov dimension and restart cycles; a solve takes 5-15 products
_KRYLOV_DIM = 40
_KRYLOV_CYCLES = 2
# pair kernel rows per block: each block is one rectangle of 64 rows by the
# columns up to its last row's support edge, at most 64 x 1563 entries on the
# coupling-sweep and {0.4, 50} grids, and the 33 rectangles are the kernel:
# 8.3 MB on the default grid and 10.6 MB on {0.4, 50}, where the solve peaks
# at 9.2 and 11.4 MB under tracemalloc.  Fewer rows store less (7.8 MB at
# 16) and more rows more (10.4 MB at 256), but a warm _solve_on_grid is
# fastest at 64 and 128 rows: 11.8 ms on the default grid against 13.5-15.3
# ms at 16-32 rows and 17.2 ms at 256, and 29.8 ms on {0.4, 50} against
# 31.5-38.8 ms.
_KERNEL_BLOCK_ROWS = 64


@cache
def _legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], built once per n, read-only."""
    from scipy.special import roots_legendre

    x, wt = roots_legendre(n)
    x.flags.writeable = wt.flags.writeable = False
    return x, wt


@dataclass(frozen=True)
class Potential:
    """Repulsive Gaussian pair potential V(r) = amplitude exp(-r^2 / 2 width^2).

    amplitude    height V(0) (energy units), nonnegative
    width        width sigma, positive

    V is treated as exactly zero beyond range_cutoff = 10 width, where it has
    fallen below e^-50 of its height.
    """

    amplitude: float
    width: float

    def __post_init__(self):
        if not 0 <= self.amplitude < math.inf:
            raise InvalidPotential("gaussian amplitude must be nonnegative and finite")
        if not 0 < self.width < math.inf:
            raise InvalidPotential("gaussian width must be positive and finite")

    @property
    def range_cutoff(self) -> float:
        return 10.0 * self.width

    def v_at(self, r) -> np.ndarray:
        """Pointwise V(r) as an array, zero beyond range_cutoff."""
        r = np.asarray(r, dtype=float)
        out = self.amplitude * np.exp(-0.5 * (r / self.width) ** 2)
        return np.where(r <= self.range_cutoff, out, 0.0)


def fourier_at(potential: Potential, p) -> np.ndarray:
    """Radial Fourier transform V_p = 4 pi int r^2 V(r) sinc(p r) dr.

    In closed form, V_p = amplitude (2 pi sigma^2)^{3/2} exp(-p^2 sigma^2 / 2).
    """
    p = np.asarray(p, dtype=float)
    scalar = p.ndim == 0
    p = np.atleast_1d(p)
    if np.any(p < 0):
        raise ValueError("momentum magnitude must be nonnegative")
    amp = potential.amplitude * (2.0 * math.pi * potential.width**2) ** 1.5
    out = amp * np.exp(-0.5 * (p * potential.width) ** 2)
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class ScatteringSolution:
    """Scattering length, coupling and norms of a converged solve.

    `residual` is the sup norm of (I + A) p^2 w - V_p on the grid, at most
    _TOL * max|V_p|, and `iterations` counts the GMRES kernel products.
    `a` comes from the position-space integral (V_0 - ||Vw||_1)/4pi, while
    g0_limit extrapolates g = V_p - conv_p, the smooth product V (1 - w) in
    momentum space, to p = 0 as an independent cross-check.
    """

    a: float
    g0: float
    g0_limit: float
    v0: float
    vw1: float
    vw2: float
    grad_w2: float
    converged: bool
    iterations: int
    residual: float

    def norms(self) -> dict[str, float]:
        return {"V0": self.v0, "VW1": self.vw1, "VW2": self.vw2, "GradW2": self.grad_w2}

    def report(self) -> dict:
        return {
            "a": self.a,
            "g0": self.g0,
            "g0_limit": self.g0_limit,
            "norms": self.norms(),
            "converged": self.converged,
            "iterations": self.iterations,
            "residual": self.residual,
            "identity_residuals": check_scattering_identities(self),
        }


def _log_simpson_weights(n: int, t_step: float) -> np.ndarray:
    # composite Simpson in t = log p; caller multiplies by p for dp = p dt
    w = np.full(n, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (t_step / 3.0)


def _small_p_limit(p: np.ndarray, f: np.ndarray, k: int) -> float:
    # Richardson in p^2 against a moderately separated node (f analytic in p^2)
    return float(f[0] - (f[k] - f[0]) * p[0] ** 2 / (p[k] ** 2 - p[0] ** 2))


def _pair_kernel(potential, p) -> list[tuple[int, np.ndarray]]:
    """K[i, j] = int_{|p_i - p_j|}^{p_i + p_j} q V_q dq on an ascending grid p,
    as the row blocks of its upper support.

    In closed form, with A = V_0 and s = width,

        K = (A/s^2) exp(-(p_j - p_i)^2 s^2/2) (-expm1(-2 p_i p_j s^2)) ,

    two factors that keep their relative precision at any p_i/p_j.  K's
    support is |p_i - p_j| < x_cut, the radius where the Gaussian factor falls
    below e^-40; entries past it are exactly 0.0.  Rounding is monotone, so
    every column j >= i with float difference p_j - p_i below x_cut has
    p_j <= p_i + x_cut in floats; one more column is taken as a margin, and
    the float difference decides.

    K is symmetric, and it is evaluated once per pair off a diagonal square:
    each block of _KERNEL_BLOCK_ROWS rows [first, last) is one dense
    rectangle R = K[first:last, first:end], whose columns reach the support
    edge end = hi[last - 1] of its last row.  Each comes back as (first, R);
    the rows past `last` of columns [first, last) are R[:, last - first:].T,
    and every entry outside the rectangles and their mirrors is 0.0.  The
    rectangle's leading square holds the pairs j < i too; they come out
    bit-equal to their mirror images, as p_i - p_j = -(p_j - p_i) and
    p_i p_j = p_j p_i in floats.  `_kernel_product` applies the blocks.
    """
    n = p.size
    s2 = potential.width**2
    scale = float(fourier_at(potential, 0.0)) / s2
    x_cut = math.sqrt(80.0) / potential.width
    hi = np.minimum(np.searchsorted(p, p + x_cut, side="right") + 1, n)
    blocks = []
    for first in range(0, n, _KERNEL_BLOCK_ROWS):
        last = min(first + _KERNEL_BLOCK_ROWS, n)
        end = hi[last - 1]
        rows, cols = p[first:last, None], p[first:end]
        prods = rows * cols
        diffs = cols - rows
        outside = np.abs(diffs) >= x_cut
        # scale * exp(-0.5 s2 d^2) * (-expm1(-2 s2 p_i p_j)), in place
        diffs *= diffs
        diffs *= -0.5 * s2
        np.exp(diffs, out=diffs)
        prods *= -2.0 * s2
        np.expm1(prods, out=prods)
        prods *= diffs
        prods *= -scale
        prods[outside] = 0.0
        blocks.append((first, prods))
    return blocks


def _kernel_product(blocks, x: np.ndarray) -> np.ndarray:
    """K @ x from the row blocks of `_pair_kernel`: each rectangle R at row
    `first` adds R @ x[first:end] to its own rows, and its part past the
    diagonal square, transposed, adds to the rows [last, end) below it."""
    y = np.zeros_like(x)
    for first, rect in blocks:
        last, end = first + rect.shape[0], first + rect.shape[1]
        y[first:last] += rect @ x[first:end]
        y[last:end] += rect[:, last - first :].T @ x[first:last]
    return y


def _momentum_grid(potential: Potential) -> np.ndarray:
    """The log-spaced grid the solver works on, from p_min to p_max = 1e3/width.

    Cutting the grid at p_min leaves an identity residual of about
    0.1 V_0 (p_min a)^3.  V_0/4pi and range_cutoff both bound a from above
    for a nonnegative potential that vanishes past range_cutoff, so p_min
    starts at 1e-3/width and drops until V_0 (p_min a_max)^3 stays within
    _LOW_END_BUDGET.  The bound is known before the solve, so one solve does.
    """
    p_min = 1e-3 / potential.width
    v0 = float(fourier_at(potential, 0.0))
    a_max = min(v0 / (4.0 * math.pi), potential.range_cutoff)
    if v0 * (p_min * a_max) ** 3 > _LOW_END_BUDGET:
        p_min = (_LOW_END_BUDGET / v0) ** (1.0 / 3.0) / a_max
    return np.geomspace(p_min, 1e3 / potential.width, _GRID_POINTS)


def _solve_on_grid(potential, p):
    from scipy.sparse.linalg import LinearOperator, gmres

    vp = fourier_at(potential, p)
    blocks = _pair_kernel(potential, p)
    # Simpson in t = log r: dr r w_r = r^2 w_r dt for the unknown p2w = p^2 w
    simpson = _log_simpson_weights(p.size, math.log(p[1] / p[0]))
    pref = 1.0 / (4.0 * math.pi**2 * p)
    # r < p_min completion of the convolution, using w_r ~ p2w[0] / r^2 there:
    # int_0^{p_min} (1/r) K(p, r) dr ~ 2 p_min p V_p, as K(p, r) ~ 2 r p V_p
    tail = p[0] * vp / (2.0 * math.pi**2)

    def conv(p2w):
        return pref * _kernel_product(blocks, simpson * p2w) + tail * p2w[0]

    matvecs = 0

    def matvec(p2w):
        nonlocal matvecs
        matvecs += 1
        return p2w + conv(p2w)

    scale = float(np.max(np.abs(vp)))
    op = LinearOperator((p.size, p.size), matvec=matvec, dtype=float)
    p2w, info = gmres(
        op, vp, rtol=0.0, atol=_TOL * scale, restart=_KRYLOV_DIM, maxiter=_KRYLOV_CYCLES
    )
    g = vp - conv(p2w)
    residual = float(np.max(np.abs(p2w - g)))  # sup norm of (I + A) p2w - V_p
    if info != 0 or residual > _TOL * scale:
        raise NotConverged(
            f"GMRES: residual {residual:.3e} > tol {_TOL:.3e} * max|V_p| {scale:.3e} "
            f"after {matvecs} kernel products",
            last_delta=residual,
        )
    return p2w, g, simpson, matvecs, residual


def _observables(potential, p, p2w, g, simpson):
    """g0_limit and the norms, from p2w = p^2 w alone.

    w itself is never formed: on a grid far from unit scale (width 1e100 or
    1e-104, say) p2w stays in range where w = p2w/p^2 or p^3 w^2 overflows,
    and the norms would come out NaN.
    """
    from scipy.special import sici

    k = max(1, int(np.searchsorted(p, 2.0 * p[0])))
    # p -> 0 limit of g by Richardson in p^2 (g is analytic in p^2)
    g0_limit = _small_p_limit(p, g, k)
    # same limit for p^2 w_p; equal to g0_limit up to the solve residual
    w2_limit = _small_p_limit(p, p2w, k)

    # ||grad w||_2^2 = (1/2 pi^2) int p^4 w_p^2 dp = (1/2 pi^2) int p p2w^2 dt,
    # small-p tail added analytically
    grad_w2 = float(np.sum(simpson * p * p2w**2) / (2.0 * math.pi**2))
    grad_w2 += w2_limit**2 * p[0] / (2.0 * math.pi**2)

    # position-space w on Gauss-Legendre nodes covering the potential support
    x_gl, wt_gl = _legendre(256)
    r = 0.5 * potential.range_cutoff * (x_gl + 1.0)
    r_w = 0.5 * potential.range_cutoff * wt_gl
    osc = np.outer(r, p)
    np.sin(osc, out=osc)
    w_r = (osc @ (simpson * p2w)) / (2.0 * math.pi**2 * r)
    # analytic completion of int_0^{p_min}: w_p ~ w2_limit / p^2 there
    si, _ = sici(p[0] * r)
    w_r += w2_limit * si / (2.0 * math.pi**2 * r)

    v_r = potential.v_at(r)
    vw1 = float(4.0 * math.pi * np.sum(r_w * r**2 * v_r * w_r))
    vw2 = float(4.0 * math.pi * np.sum(r_w * r**2 * v_r * w_r**2))
    v0 = float(fourier_at(potential, 0.0))
    return g0_limit, grad_w2, vw1, vw2, v0


def solve_scattering(potential: Potential) -> ScatteringSolution:
    """Solve the discretized scattering equation (I + A) g = V_p by GMRES.

    The unknown is g = p^2 w on the grid of _momentum_grid.  Raises
    NotConverged when GMRES reports failure, when the sup-norm residual
    max|p^2 w - g| exceeds _TOL * max|V_p|, or when an observable is not
    finite, naming it: a NaN is refused here, never scored downstream.
    """
    p = _momentum_grid(potential)
    p2w, g, simpson, matvecs, residual = _solve_on_grid(potential, p)
    g0_limit, grad_w2, vw1, vw2, v0 = _observables(potential, p, p2w, g, simpson)
    a = (v0 - vw1) / (4.0 * math.pi)
    observables = {
        "a": a,
        "g0": 4.0 * math.pi * a,
        "g0_limit": g0_limit,
        "v0": v0,
        "vw1": vw1,
        "vw2": vw2,
        "grad_w2": grad_w2,
        "residual": residual,
    }
    bad = [name for name, value in observables.items() if not math.isfinite(value)]
    if bad:
        raise NotConverged(f"scattering solve: non-finite {', '.join(bad)}")
    return ScatteringSolution(**observables, converged=True, iterations=matvecs)


def check_scattering_identities(solution: ScatteringSolution) -> dict[str, float]:
    """Residuals of the gradient and scattering-length identities:

        gradient  | ||grad w||^2 - ||Vw||_1 + ||Vw^2||_1 |
        length    | V0 - ||Vw||_1 - g0_limit |

    The length identity V0 - ||Vw||_1 = g0 is scored against the momentum-side
    extrapolation g0_limit, so it cross-checks the position-space quadratures
    against the small-p limit of the solved equation.
    """
    return {
        "gradient": abs(solution.grad_w2 - solution.vw1 + solution.vw2),
        "length": abs(solution.v0 - solution.vw1 - solution.g0_limit),
    }


def shooting_scattering_length(potential: Potential) -> float:
    """Scattering length from the zero-energy variable-phase equation.

    In width units x = r/width, with U = amplitude width^2, the phase
    function b(x) of the radial equation -u'' + V u = 0 obeys

        b'(x) = U e^{-x^2/2} (x - b)^2 ,    b(0) = 0 ,

    and b tends to a/width past the potential range; at x = 12 V has fallen
    below 1e-31 of its height, so a = b(12) width.  This is a position-space
    route entirely independent of the momentum solver.  The integrator is the
    8th-order Dormand-Prince pair DOP853 at rtol 1e-12, with atol 1e-14 U
    (1e-14 past U = 1) floored at the least normal double, so that U = 0
    gives a = 0, and a first step of 1e-3; on the tested potentials it lands
    within 1e-12 relative of an RK4 variable-phase reference.
    """
    from scipy.integrate import solve_ivp

    coupling = potential.amplitude * potential.width**2

    def rhs(x, b):
        return coupling * math.exp(-0.5 * x * x) * (x - b) ** 2

    atol = max(1e-14 * min(1.0, coupling), np.finfo(float).tiny)
    sol = solve_ivp(
        rhs, (0.0, 12.0), [0.0], method="DOP853", rtol=1e-12, atol=atol, first_step=1e-3
    )
    if not sol.success:
        raise NotConverged("variable-phase integration failed")
    return float(sol.y[0, -1]) * potential.width
