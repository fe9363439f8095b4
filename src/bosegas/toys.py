"""Built-in toy mode sets: small, exactly solvable instances for cross-checks.

Every case is small enough (at most 9 modes, N <= 6) that the trial-state
expectation can be evaluated both through the component decomposition and by
summing the full quartic operator brute force; agreement between the two is
the main oracle the test suite and `check-all` run.

The catalog is chosen so that every term of the decomposition is nonzero on
at least one case and every closure mechanism fires somewhere:

  * pure condensate (interaction is the diagonal closed form alone);
  * strict pair towers over each region, alone and mixed, on and off axis;
  * count-capped low-momentum towers at several caps;
  * soft creations with one and with two product channels (two channels is
    the smallest configuration whose energy picks up the class of quartic
    terms that move a nonzero total momentum between non-paired modes);
  * a soft chain whose product lands back inside M by coincidence, giving
    member states reachable only through asymmetric low-mode occupancy;
  * spectator modes in the gap and beyond the truncation that must stay
    empty through every generation rule;
  * a zero-coupling control where the energy must collapse to the kinetic
    term exactly.

Momenta sit on coarse dyadic grids where possible, so their components,
squares and differences are exact in floating point; the one legacy
non-dyadic case keeps regression continuity with hand-checked numbers.
Momentum conservation needs no such care: the mode set decides it on its
lattice step (`ModeSet.conserving`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .expectation import coupling_matrix
from .fock import WeightedTrialState, generate_M, weight_f
from .lattice import ModeSet

__all__ = ["ToyCase", "gaussian_coupling", "builtin_toy_suite", "build_trial", "toy_by_name"]


@dataclass(frozen=True)
class ToyCase:
    """One self-contained instance: modes, particle budget, cap, coupling."""

    name: str
    mode_set: ModeSet
    n: int
    m_c: int
    v_of: Callable[[float], float]
    note: str = ""

    def context(self) -> np.ndarray:
        """The case's pair coupling V at every momentum transfer of its modes."""
        return coupling_matrix(self.v_of, self.mode_set)


def gaussian_coupling(amplitude: float, decay: float = 0.3) -> Callable[[float], float]:
    """Smooth positive even coupling amplitude * exp(-decay k^2)."""

    def v(mag: float) -> float:
        return amplitude * math.exp(-decay * mag * mag)

    return v


def _zero_coupling(mag: float) -> float:
    return 0.0


def _modes(entries: Sequence[tuple], volume: float) -> ModeSet:
    """entries: (px, py, pz, label, lam-or-None) with the zero mode first."""
    momenta = [(e[0], e[1], e[2]) for e in entries]
    labels = [e[3] for e in entries]
    lams = [e[4] for e in entries]
    return ModeSet.toy(momenta, labels, volume=volume, lams=lams)


def _pair(x, y, z, label, lam):
    return [(x, y, z, label, lam), (-x, -y, -z, label, lam)]


def builtin_toy_suite() -> list[ToyCase]:
    zero = (0.0, 0.0, 0.0, "P0", None)
    cases: list[ToyCase] = []

    def add(name, entries, volume, n, m_c, v_of, note=""):
        cases.append(
            ToyCase(
                name=name,
                mode_set=_modes(entries, volume),
                n=n,
                m_c=m_c,
                v_of=v_of,
                note=note,
            )
        )

    add(
        "condensate",
        [zero],
        20.0,
        4,
        2,
        gaussian_coupling(1.2),
        "all particles at rest; interaction is the diagonal form alone",
    )
    add(
        "pi-pair",
        [zero] + _pair(0.75, 0.0, 0.0, "PI", -0.4),
        25.0,
        4,
        2,
        gaussian_coupling(0.9),
        "one intermediate tower, two rungs",
    )
    add(
        "pi-pair-deep",
        [zero] + _pair(0.75, 0.0, 0.0, "PI", -0.55),
        30.0,
        6,
        2,
        gaussian_coupling(1.1),
        "same tower, three rungs (cap does not bind off the low region)",
    )
    add(
        "pi-pair-offaxis",
        [zero] + _pair(0.375, 0.375, 0.25, "PI", -0.45),
        27.0,
        4,
        2,
        gaussian_coupling(1.3, decay=0.5),
        "tower off the coordinate axes",
    )
    add(
        "pl-pair-shallow",
        [zero] + _pair(0.25, 0.0, 0.0, "PL", -0.6),
        18.0,
        4,
        2,
        gaussian_coupling(0.8),
        "low tower, cap 2",
    )
    add(
        "pl-pair-deep",
        [zero] + _pair(0.25, 0.0, 0.0, "PL", -0.7),
        40.0,
        6,
        3,
        gaussian_coupling(1.0),
        "low tower, cap 3",
    )
    add(
        "pl-pair-minimal",
        [zero] + _pair(0.25, 0.0, 0.0, "PL", -0.5),
        15.0,
        2,
        2,
        gaussian_coupling(0.7),
        "two particles: one rung empties the condensate",
    )
    add(
        "ph-pair",
        [zero] + _pair(1.5, 0.0, 0.0, "PH", -0.2),
        22.0,
        4,
        2,
        gaussian_coupling(0.6, decay=0.2),
        "high tower, unconditional strict creation",
    )
    add(
        "two-pi-pairs",
        [zero] + _pair(0.5, 0.0, 0.0, "PI", -0.35) + _pair(0.0, 0.625, 0.0, "PI", -0.3),
        35.0,
        4,
        2,
        gaussian_coupling(1.0),
        "two towers; pair-swap terms move mass between them",
    )
    add(
        "two-pl-pairs",
        [zero] + _pair(0.25, 0.0, 0.0, "PL", -0.6) + _pair(0.0, 0.3125, 0.0, "PL", -0.5),
        48.0,
        6,
        2,
        gaussian_coupling(0.9),
        "two capped low towers",
    )
    add(
        "pi-ph-mix",
        [zero] + _pair(0.5, 0.0, 0.0, "PI", -0.4) + _pair(1.25, 0.0, 0.0, "PH", -0.25),
        30.0,
        6,
        2,
        gaussian_coupling(1.2),
        "collinear towers in different regions",
    )
    add(
        "pl-pi-mix",
        [zero] + _pair(0.25, 0.0, 0.0, "PL", -0.65) + _pair(0.875, 0.0, 0.0, "PI", -0.3),
        28.0,
        6,
        2,
        gaussian_coupling(1.0),
        "cap binds one tower and not the other",
    )
    add(
        "soft-triangle",
        [zero]
        + _pair(0.25, 0.0, 0.0, "PL", -0.7)
        + [
            (1.25, 0.5, 0.0, "PH", -0.3),
            (-1.0, -0.5, 0.0, "PH", -0.28),
        ],
        26.0,
        5,
        2,
        gaussian_coupling(0.8),
        "one soft channel; high products have no negatives in the set",
    )
    add(
        "soft-coincidence",
        [zero]
        + _pair(0.1, 0.0, 0.0, "PL", -0.8)
        + _pair(1.05, 0.0, 0.0, "PH", -0.3)
        + _pair(-0.95, 0.0, 0.0, "PH", -0.25),
        40.0,
        6,
        2,
        gaussian_coupling(1.0),
        "soft product of an asymmetric state lands on a strict member",
    )
    add(
        "soft-coincidence-shifted",
        [zero]
        + _pair(0.1, 0.0, 0.0, "PL", -0.9)
        + _pair(1.05, 0.0, 0.0, "PH", -0.35)
        + _pair(-0.95, 0.0, 0.0, "PH", -0.2),
        33.0,
        5,
        2,
        gaussian_coupling(1.4, decay=0.4),
        "same geometry, odd particle count and different couplings",
    )
    add(
        "soft-two-channel",
        [zero]
        + _pair(0.25, 0.0, 0.0, "PL", -0.75)
        + [
            (1.125, 0.5, 0.0, "PH", -0.3),
            (-0.875, -0.5, 0.0, "PH", -0.28),
            (1.25, -0.25, 0.0, "PH", -0.26),
            (-1.0, 0.25, 0.0, "PH", -0.24),
        ],
        32.0,
        5,
        2,
        gaussian_coupling(1.0),
        "two soft channels; channel swaps carry nonzero total momentum",
    )
    add(
        "soft-two-channel-deep",
        [zero]
        + _pair(0.25, 0.0, 0.0, "PL", -0.8)
        + [
            (1.125, 0.5, 0.0, "PH", -0.32),
            (-0.875, -0.5, 0.0, "PH", -0.3),
            (1.25, -0.25, 0.0, "PH", -0.27),
            (-1.0, 0.25, 0.0, "PH", -0.22),
        ],
        45.0,
        6,
        3,
        gaussian_coupling(1.3, decay=0.25),
        "two channels, deeper tower",
    )
    add(
        "line-harmonics",
        [zero]
        + _pair(0.25, 0.0, 0.0, "PL", -0.7)
        + _pair(0.5, 0.0, 0.0, "PI", -0.4)
        + _pair(0.75, 0.0, 0.0, "PH", -0.3),
        50.0,
        6,
        2,
        gaussian_coupling(1.0),
        "three collinear towers; rich pair-swap structure",
    )
    add(
        "nine-mode-wide",
        [zero]
        + _pair(0.25, 0.0, 0.0, "PL", -0.75)
        + _pair(0.0, 0.5, 0.0, "PI", -0.4)
        + [
            (1.125, 0.25, 0.0, "PH", -0.3),
            (-0.875, -0.25, 0.0, "PH", -0.28),
            (1.0, -0.5, 0.0, "PH", -0.26),
            (-0.75, 0.5, 0.0, "PH", -0.24),
        ],
        60.0,
        6,
        2,
        gaussian_coupling(1.1),
        "widest case: strict, capped, and two soft channels together",
    )
    add(
        "gap-spectator",
        [zero] + _pair(0.25, 0.0, 0.0, "PL", -0.6) + [(0.05, 0.0, 0.0, "Gap", None)],
        20.0,
        4,
        2,
        gaussian_coupling(0.9),
        "gap mode present but unreachable",
    )
    add(
        "truncated-spectator",
        [zero] + _pair(0.375, 0.0, 0.0, "PI", -0.45) + _pair(2.5, 0.0, 0.0, "Truncated", None),
        24.0,
        4,
        2,
        gaussian_coupling(0.8),
        "modes beyond the truncation stay empty",
    )
    add(
        "zero-coupling",
        [zero]
        + _pair(0.1, 0.0, 0.0, "PL", -0.8)
        + _pair(1.05, 0.0, 0.0, "PH", -0.3)
        + _pair(-0.95, 0.0, 0.0, "PH", -0.25),
        40.0,
        6,
        2,
        _zero_coupling,
        "control: energy must equal the kinetic term exactly",
    )
    return cases


def build_trial(toy: ToyCase, *, budget: int = 200_000) -> WeightedTrialState:
    """Generate the closure for a case and attach the closed-form weights."""
    return weight_f(generate_M(toy.mode_set, toy.n, toy.m_c, budget=budget))


def toy_by_name(name: str) -> ToyCase:
    for case in builtin_toy_suite():
        if case.name == name:
            return case
    raise KeyError(f"no builtin toy named {name!r}")
