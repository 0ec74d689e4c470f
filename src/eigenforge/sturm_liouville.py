"""Sturm-Liouville eigensolving over polynomial trial spaces.

The trial space of degree n is every polynomial of degree <= n that meets both
end conditions. Its basis is Shen's Legendre-Galerkin recombination
(J. Shen, SIAM J. Sci. Comput. 15 (1994)): column k is
P_k + alpha_k P_{k+1} + beta_k P_{k+2} in the reference variable t, with
alpha_k and beta_k chosen so that the column meets both conditions exactly,
whether they fix the value or the derivative. The basis is evaluated at
Gauss-Legendre nodes from the cached table that quadrature also uses. The
generalized symmetric-definite eigenproblem is reduced by a Cholesky
factorization of the mass matrix and diagonalized by LAPACK
(``numpy.linalg.eigh``). LAPACK's eigenvalues carry an absolute error of
about machine epsilon times the largest eigenvalue of the reduced matrix,
which at degree 40 is a relative error of up to 4e-12 on the low modes; each
eigenvalue is therefore recomputed as the Rayleigh quotient of its vector on
the unreduced pencil, which restores full relative accuracy (the error of a
Rayleigh quotient is quadratic in the vector's error). ``solve`` escalates
the degree two at a time from 2 and stops once every requested eigenvalue
improves by less than ``k_tol`` between consecutive degrees. An
eigenfunction is the recombination matrix times its eigenvector, a
``LegendreSeries`` on the problem interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import polynomials
from .errors import (
    ConditioningError,
    ConstraintError,
    DegenerateTrialError,
    DomainError,
    NonConvergenceError,
    PreconditionError,
)
from .polynomials import LegendreSeries, Polynomial, differentiate, evaluate, integrate_product

VANISH_VALUE = "value"
VANISH_DERIVATIVE = "derivative"

_POSITIVITY_SAMPLES = 257
_POSITIVITY_MARGIN = 1e-12
_BOUNDARY_TOL = 1e-9
_NORM_FLOOR = 1e-14
_RESIDUAL_SAMPLES = 101


@dataclass(frozen=True)
class BoundaryCondition:
    """One condition per endpoint: the value or the derivative vanishes."""

    at_a: str
    at_b: str

    def __post_init__(self):
        for side, val in (("a", self.at_a), ("b", self.at_b)):
            if val not in (VANISH_VALUE, VANISH_DERIVATIVE):
                raise DomainError(
                    f"bc at {side} must be {VANISH_VALUE!r} or {VANISH_DERIVATIVE!r}, got {val!r}"
                )


DIRICHLET = BoundaryCondition(VANISH_VALUE, VANISH_VALUE)
NEUMANN = BoundaryCondition(VANISH_DERIVATIVE, VANISH_DERIVATIVE)


def _chebyshev_points(lo: float, hi: float, n: int) -> np.ndarray:
    k = np.arange(n)
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(k * math.pi / (n - 1))


@dataclass(frozen=True)
class SLProblem:
    """Coefficients p, q, r on a shared interval plus endpoint conditions.

    p and r must be strictly positive on the closed interval; this is checked
    by sampling at Chebyshev points with a small margin.
    """

    p: Polynomial
    q: Polynomial
    r: Polynomial
    bc: BoundaryCondition

    def __post_init__(self):
        iv = self.p.interval
        if self.q.interval != iv or self.r.interval != iv:
            raise DomainError("p, q, r must share one interval")
        lo, hi = iv
        xs = _chebyshev_points(lo, hi, _POSITIVITY_SAMPLES)
        for name, f in (("p", self.p), ("r", self.r)):
            if float(f.values(xs).min()) <= _POSITIVITY_MARGIN:
                raise DomainError(f"{name} must be positive on [{lo}, {hi}]")

    @property
    def interval(self) -> tuple[float, float]:
        return self.p.interval


@dataclass(frozen=True)
class EigenPair:
    lambda_: float
    u: Polynomial
    mode_index: int
    degree_used: int


@dataclass(frozen=True)
class RitzTrace:
    """Ground-mode eigenvalue per visited trial degree, non-increasing."""

    entries: tuple[tuple[int, float], ...]

    @property
    def degrees(self):
        return tuple(n for n, _ in self.entries)

    @property
    def lambdas(self):
        return tuple(lam for _, lam in self.entries)


@lru_cache(maxsize=None)
def _recombination(bc: BoundaryCondition, degree: int) -> np.ndarray:
    """Legendre coefficients of the trial basis of degree <= ``degree``: a
    (degree + 1) x (degree - 1) matrix S.

    Column k is P_k + alpha_k P_{k+1} + beta_k P_{k+2}; the 2x2 solve makes it
    vanish on both endpoint rows, P_j(+-1) = (+-1)^j for a value condition and
    P_j'(+-1) = (+-1)^(j+1) j (j+1) / 2 for a derivative condition.
    """
    if degree < 2:
        raise DomainError(f"no trial functions of degree <= {degree}: the least degree is 2")
    j = np.arange(degree + 1.0)
    rows = np.array([sign ** j if kind == VANISH_VALUE else sign ** (j + 1) * j * (j + 1) / 2
                     for kind, sign in ((bc.at_a, -1.0), (bc.at_b, 1.0))])
    S = np.zeros((degree + 1, degree - 1))
    for k in range(degree - 1):
        S[k, k] = 1.0
        S[k + 1:k + 3, k] = np.linalg.solve(rows[:, k + 1:k + 3], -rows[:, k])
    S.flags.writeable = False  # shared by every caller through the cache
    return S


def _basis_arrays(bc: BoundaryCondition, interval, degree: int, n_nodes: int):
    """Values and x-derivatives of the trial basis at the n_nodes Gauss-Legendre
    nodes mapped onto the interval: one row per basis function."""
    lo, hi = interval
    S = _recombination(bc, degree)
    table = polynomials._legendre_table(n_nodes, degree + 1)
    phi = (table @ S).T
    dphi = (table @ polynomials._legendre_derivative(degree + 1) @ S).T * (2.0 / (hi - lo))
    return phi, dphi


def _assemble(prob: SLProblem, degree: int):
    lo, hi = prob.interval
    max_integrand = max(prob.p.degree, prob.q.degree, prob.r.degree) + 2 * degree
    n_nodes = max_integrand // 2 + 1
    xg, wg = polynomials._gauss_legendre(n_nodes)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    x = mid + half * xg
    w = half * wg
    pv, qv, rv = (f.values(x) for f in (prob.p, prob.q, prob.r))
    phi, dphi = _basis_arrays(prob.bc, prob.interval, degree, n_nodes)
    A = (dphi * (w * pv)) @ dphi.T - (phi * (w * qv)) @ phi.T
    B = (phi * (w * rv)) @ phi.T
    return 0.5 * (A + A.T), 0.5 * (B + B.T)


def _generalized_eigh(A: np.ndarray, B: np.ndarray):
    """Symmetric-definite pencil (A, B) -> ascending eigenvalues, B-orthonormal vectors.

    LAPACK diagonalizes the Cholesky-reduced matrix; each eigenvalue is then
    recomputed as the Rayleigh quotient of its vector on the unreduced pencil.
    """
    try:
        L = np.linalg.cholesky(B)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError("mass matrix is numerically indefinite") from exc
    X = np.linalg.solve(L, A)
    C = np.linalg.solve(L, X.T).T
    Y = np.linalg.solve(L.T, np.linalg.eigh(0.5 * (C + C.T))[1])
    theta = np.einsum("ij,ij->j", Y, A @ Y) / np.einsum("ij,ij->j", Y, B @ Y)
    order = np.argsort(theta, kind="stable")
    return theta[order], Y[:, order]


def _sign_fixed(u: Polynomial) -> Polynomial:
    """u with u(a) > 0, or u'(a) > 0 where u(a) vanishes to the boundary tolerance."""
    lo = u.interval[0]
    s = evaluate(u, lo)
    if abs(s) <= _BOUNDARY_TOL:
        s = evaluate(differentiate(u), lo)
    return -u if s < 0 else u


def _normalized(u: Polynomial, r: Polynomial) -> Polynomial:
    """u scaled to unit r-weighted norm and sign-fixed; a collapsed u is refused."""
    nrm = integrate_product(r, u, u)
    if nrm < _NORM_FLOOR:
        raise ConditioningError(f"factor collapsed to weighted norm {nrm:.3e} < {_NORM_FLOOR}")
    return _sign_fixed(u * (1.0 / math.sqrt(nrm)))


def _build_pairs(prob: SLProblem, theta, Y, degree: int, count: int) -> list[EigenPair]:
    S = _recombination(prob.bc, degree)
    return [EigenPair(float(theta[m]),
                      _normalized(LegendreSeries(tuple(S @ Y[:, m]), prob.interval), prob.r),
                      m, degree)
            for m in range(count)]


def solve_at_degree(prob: SLProblem, degree: int, num_modes: int | None = None) -> list[EigenPair]:
    """Ritz eigenpairs of the fixed-degree trial space, ascending by eigenvalue."""
    A, B = _assemble(prob, degree)
    theta, Y = _generalized_eigh(A, B)
    available = theta.size
    count = available if num_modes is None else min(num_modes, available)
    return _build_pairs(prob, theta, Y, degree, count)


def solve(prob: SLProblem, num_modes: int = 1, k_tol: float = 1e-10,
          max_degree: int = 40, start_degree: int = 0) -> tuple[list[EigenPair], RitzTrace]:
    """Progressively minimize the Rayleigh quotient by degree escalation.

    Starting from ``start_degree`` (clamped up to 2, the least degree with a
    trial function, and rounded down to even; the default 0 is therefore a
    cold start), the degree grows by 2 until the drop of every requested
    eigenvalue between consecutive degrees is below ``k_tol`` (an absolute
    tolerance playing the reciprocal-k role in the stopping schema), or
    ``max_degree`` is hit, in which case a ``NonConvergenceError`` carrying
    the trace is raised. The eigenvalue drop is the only stop test: every
    trial function meets the end conditions by construction.

    A warm start visits a suffix of the cold degree ladder, and each stopping
    test compares two visited degrees. Whenever the cold solve stops at a
    degree D >= start + 2, the warm solve therefore returns bit-identical
    pairs and a trace equal to the cold trace's suffix from the start degree.

    Returns the eigenpairs of the final degree, orthonormal under the
    r-weighted inner product, and the ground-mode trace.
    """
    if num_modes < 1:
        raise DomainError("num_modes must be >= 1")
    if not k_tol > 0:
        raise DomainError("k_tol must be positive")
    if max_degree > polynomials.MAX_DEGREE:
        raise PreconditionError(
            f"max_degree {max_degree} exceeds the polynomial degree cap {polynomials.MAX_DEGREE}"
        )
    if max_degree < 2:
        raise DomainError("max_degree must be >= 2, the least degree with a trial function")
    trace_entries: list[tuple[int, float]] = []
    prev_vals: np.ndarray | None = None
    for degree in range(max(start_degree, 2) // 2 * 2, max_degree + 1, 2):
        theta, Y = _generalized_eigh(*_assemble(prob, degree))
        trace_entries.append((degree, float(theta[0])))
        if theta.size < num_modes:
            continue
        cur_vals = theta[:num_modes]
        if prev_vals is not None and bool(np.all(prev_vals - cur_vals < k_tol)):
            return _build_pairs(prob, theta, Y, degree, num_modes), RitzTrace(tuple(trace_entries))
        prev_vals = cur_vals
    raise NonConvergenceError(
        f"eigenvalues not converged to {k_tol} within degree {max_degree}",
        trace=RitzTrace(tuple(trace_entries)),
    )


def boundary_residuals(prob: SLProblem, u: Polynomial) -> tuple[float, float]:
    """|u| or |du/dx| at each endpoint, whichever the condition constrains."""
    lo, hi = prob.interval
    du = differentiate(u)
    res_a = abs(evaluate(u if prob.bc.at_a == VANISH_VALUE else du, lo))
    res_b = abs(evaluate(u if prob.bc.at_b == VANISH_VALUE else du, hi))
    return res_a, res_b


def rayleigh_quotient(prob: SLProblem, u: Polynomial) -> float:
    """(int p u'^2 - q u^2) / (int r u^2), all integrals exact.

    The trial function must be nonzero and satisfy the boundary conditions to
    1e-9; a weighted norm below 1e-14 is rejected as degenerate.
    """
    if u.is_zero:
        raise DegenerateTrialError("trial function is identically zero")
    res_a, res_b = boundary_residuals(prob, u)
    if res_a > _BOUNDARY_TOL or res_b > _BOUNDARY_TOL:
        raise ConstraintError(
            f"trial violates boundary conditions: residuals ({res_a:.3e}, {res_b:.3e})"
        )
    denom = integrate_product(prob.r, u, u)
    if denom < _NORM_FLOOR:
        raise DegenerateTrialError(f"weighted norm {denom:.3e} below {_NORM_FLOOR}")
    du = differentiate(u)
    num = integrate_product(prob.p, du, du) - integrate_product(prob.q, u, u)
    return num / denom


def residual(prob: SLProblem, pair: EigenPair) -> float:
    """Strong-form defect max |-(p u')' - q u - lam r u| / (1 + |lam|) at 101
    evenly spaced points."""
    lo, hi = prob.interval
    xs = np.linspace(lo, hi, _RESIDUAL_SAMPLES)
    u = pair.u
    du = differentiate(u)
    flux = (differentiate(prob.p).values(xs) * du.values(xs)
            + prob.p.values(xs) * differentiate(du).values(xs))
    defect = flux + (prob.q.values(xs) + pair.lambda_ * prob.r.values(xs)) * u.values(xs)
    worst = float(np.abs(defect).max())
    return worst / (1.0 + abs(pair.lambda_))
