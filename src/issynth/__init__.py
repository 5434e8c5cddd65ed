"""Data-driven controller synthesis with ISS certificates.

Pipeline: collect noisy experiment data from a polynomial control-affine
system, build the ellipsoidal set of dynamics consistent with the data,
then alternate convex sum-of-squares programs to co-design a polynomial
state-feedback controller and an ISS Lyapunov function that hold for every
consistent dynamics.  The certificate feeds an event-triggered simulation
that only samples the state when a comparison-function test fails.
"""

__version__ = "0.1.0"

from .poly import Variable, Polynomial, monomial_basis, parse_poly
from .sdp import SdpProblem, SdpSolution, solve_sdp, validate_solution

__all__ = [
    "Variable",
    "Polynomial",
    "monomial_basis",
    "parse_poly",
    "SdpProblem",
    "SdpSolution",
    "solve_sdp",
    "validate_solution",
    "__version__",
]
