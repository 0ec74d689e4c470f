"""eigenforge: variational eigensolving on polynomial trial spaces, separable
field iteration under an eigenvalue-balance constraint, per-piece action
lattices, and a prime-power codec between energy distributions and integers.
"""

from . import action, godel, polynomials, qstar, serialize, sigma_model, sturm_liouville
from .polynomials import LegendreSeries, Polynomial
from .sturm_liouville import BoundaryCondition, EigenPair, RitzTrace, SLProblem

__all__ = [
    "action",
    "godel",
    "polynomials",
    "qstar",
    "serialize",
    "sigma_model",
    "sturm_liouville",
    "Polynomial",
    "LegendreSeries",
    "BoundaryCondition",
    "SLProblem",
    "EigenPair",
    "RitzTrace",
]

__version__ = "0.1.0"
