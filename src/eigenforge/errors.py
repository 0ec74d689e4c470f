"""Exception types shared across the library.

The CLI maps these onto exit codes: invalid input -> 2, non-convergence and
conditioning failures -> 3, missing lattice -> 4.
"""


class EigenforgeError(Exception):
    """Base class for library-specific failures."""


class DomainError(EigenforgeError, ValueError):
    """Input outside an operation's documented domain: the one class of invalid
    input, whichever rule refused it."""


class ConditioningError(EigenforgeError, RuntimeError):
    """A LAPACK factorization or eigensolve of the pencil failed, or a matrix
    or value it needed overflowed.

    ``cause`` names the failed step: ``"cholesky"`` (the mass matrix has no
    Cholesky factor), ``"eigh"`` (the reduced eigensolve failed) or
    ``"overflow"`` (the assembled mass matrix, the reduced matrix, or the
    Ritz values scaled off the pencil's reduction, is not finite).
    """

    def __init__(self, message, *, cause):
        super().__init__(message)
        self.cause = cause


class NonConvergenceError(EigenforgeError, RuntimeError):
    """Iteration exhausted its budget without meeting the tolerance.

    ``cause`` names the budget: ``"degree_cap"`` (the eigensolve reached its
    largest degree, also when a field sweep's eigensolve did) or
    ``"sweep_cap"`` (the field iteration ran all its sweeps). Carries
    whatever partial progress exists: the Ritz trace for the eigensolver,
    the iteration report for the field solver.
    """

    def __init__(self, message, *, cause, trace=None, report=None):
        super().__init__(message)
        self.cause = cause
        self.trace = trace
        self.report = report


class NoLatticeError(EigenforgeError, RuntimeError):
    """Values do not sit on a common discrete lattice at the tolerance."""
