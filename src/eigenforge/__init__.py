"""eigenforge: variational eigensolving on polynomial trial spaces, separable
field iteration under an eigenvalue-balance constraint, per-piece action
lattices, and a prime-power codec between energy distributions and integers.
Importing the package imports each module; its classes and functions are
reached through their module (``eigenforge.sturm_liouville.SLProblem``).
"""

from . import action, godel, polynomials, qstar, serialize, sigma_model, sturm_liouville

__version__ = "0.1.0"
