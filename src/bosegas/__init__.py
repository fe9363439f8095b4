"""Computable pieces of a second-order upper bound for the dilute Bose gas.

Modules:
    scattering     momentum-space GMRES solve of the zero-energy pair problem
    lattice        momentum-lattice schedules, regions, mode sets, shell sums
    fock           occupation states, pair creations, closure sets, weights
    expectation    exact expectation values over weighted trial states
    semiclassical  continuum integrals and the order-rho^{5/2} constant ledger
    boundary       cosine window for the periodic-to-Dirichlet reduction
    cli            command-line pipelines and machine-readable reports
"""

__version__ = "0.1.0"
