"""Exception types shared across the library, its one check of a count, and
its one rule for showing a refused value in a message (``echo``).

The CLI maps these onto exit codes: invalid input -> 2, non-convergence and
conditioning failures -> 3, missing lattice -> 4.
"""


class EigenforgeError(Exception):
    """Base class for library-specific failures."""


class DomainError(EigenforgeError, ValueError):
    """Input outside an operation's documented domain: the one class of invalid
    input, whichever rule refused it."""


def require_int(value, name: str) -> int:
    """``value`` if its type is exactly ``int``; any other value, a ``bool``
    or an integral float included, is refused by name."""
    if type(value) is not int:
        raise DomainError(f"{name} must be an integer")
    return value


# Longest text of a refused value a message shows whole.
_ECHO_CHARS = 40


def echo(value) -> str:
    """The refused value's repr for a message. A value whose text (a string
    itself, any other value its repr) is longer than ``_ECHO_CHARS`` is shown
    by that prefix and its length, so a list of thousands of entries or an
    integer of thousands of digits gives one short line."""
    text = value if isinstance(value, str) else repr(value)
    if len(text) <= _ECHO_CHARS:
        return repr(value)
    return f"{text[:_ECHO_CHARS]!r}... ({len(text)} characters)"


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
