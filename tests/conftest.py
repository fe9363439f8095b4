"""Shared fixtures: one scattering solve and one toy-trial battery per session.

The scattering solve (~0.3 s) and the 22-case closure/weight construction are
by far the most expensive setup steps, so both are session scoped and every
test that needs a solved potential or a weighted trial state pulls from here.
`closure_members` is the one per-state view of a closure that tests compare
the count-matrix code against, and `load_report` the one reader of the CLI's
JSON reports.
"""

import json
from pathlib import Path

import pytest

from bosegas.fock import OccupationState
from bosegas.scattering import Potential, solve_scattering
from bosegas.toys import build_trial, builtin_toy_suite


def closure_members(closure):
    """The closure's rows as OccupationState objects, in row order."""
    return [OccupationState(tuple(r)) for r in closure.counts_matrix().tolist()]


def load_report(path):
    """A JSON report parsed strictly: NaN, Infinity and -Infinity fail the read."""

    def reject(token):
        raise ValueError(f"{path}: {token} is not valid JSON")

    return json.loads(Path(path).read_text(), parse_constant=reject)


@pytest.fixture(scope="session")
def gaussian_potential():
    return Potential(0.1, 1.0)


@pytest.fixture(scope="session")
def gaussian_solution(gaussian_potential):
    return solve_scattering(gaussian_potential)


@pytest.fixture(scope="session")
def toy_suite():
    return builtin_toy_suite()


@pytest.fixture(scope="session")
def toy_trials(toy_suite):
    """name -> (case, weighted trial state) for every builtin toy."""
    return {case.name: (case, build_trial(case)) for case in toy_suite}
