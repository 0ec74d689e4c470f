"""Sturm-Liouville eigensolving over polynomial trial spaces.

The trial space of degree n is every polynomial of degree <= n that meets both
end conditions. Its basis is Shen's Legendre-Galerkin recombination
(J. Shen, SIAM J. Sci. Comput. 15 (1994)): column k is
P_k + alpha_k P_{k+1} + beta_k P_{k+2} in the reference variable t, with
alpha_k and beta_k chosen so that the column meets both conditions exactly,
whether they fix the value or the derivative. The basis and the coefficients
p, q, r are read at Gauss-Legendre nodes off the table that quadrature uses.

The basis is hierarchical (column k does not depend on the degree), so the
recombination is built once per boundary pair, at ``polynomials.MAX_DEGREE``,
and kept with the endpoint row the sign rule reads (``_shen_recombination``);
the basis of degree n is its leading (n + 1) x (n - 1) block. ``_assemble``
reads the basis and its derivative at the nodes off that kept recombination
and the kept table of P_k at the nodes.
Likewise the stiffness and mass matrices of degree n are the leading
(n - 1) x (n - 1) blocks of those of any higher degree. ``solve`` therefore
reads one reduced pencil (``_pencil``), built once at the highest degree it
may visit by a Cholesky factorization of the mass matrix, and diagonalizes
its leading block for each visited degree with LAPACK
(``numpy.linalg.eigh``). A problem with a variable coefficient assembles its
own; one whose p, q and r are all constants reads the kept reference pencil
of -u'' = mu u on (-1, 1), one per (boundary pair, top degree), through an
affine map of its Ritz values and B-norms.
LAPACK's eigenvalues carry an absolute error of about machine epsilon times
the largest eigenvalue of the reduced matrix, which at degree 40 is a
relative error of up to 4e-12 on the low modes; each eigenvalue is therefore
recomputed as the Rayleigh quotient of its vector on the unreduced pencil,
which restores full relative accuracy (the error of a Rayleigh quotient is
quadratic in the vector's error). ``solve`` escalates the degree two at a
time from 2 and stops once every requested eigenvalue improves by less than
``k_tol``, or by at most 4 ulps of its previous value, between consecutive
degrees. An eigenfunction is the recombination
matrix times its eigenvector, a ``LegendreSeries`` on the problem interval,
scaled by the square root of its Rayleigh denominator y^T B y (the exact
r-weighted norm, B being assembled by exact quadrature) and signed by the
endpoint row at a kept with the basis: u(a) > 0, or u'(a) > 0 where u(a)
vanishes: the library's one sign rule. The field solve's time pair and
starting factors, which no eigensolve returns, are only scaled to unit norm,
u / sqrt(int r u^2), under weights that ``require_positive`` has accepted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import numpy.polynomial.legendre as leg

from . import polynomials
from .errors import ConditioningError, DomainError, NonConvergenceError, require_int
from .polynomials import LegendreSeries, Polynomial

VANISH_VALUE = "value"
VANISH_DERIVATIVE = "derivative"

_POSITIVITY_MARGIN = 1e-12  # relative to the largest |f| on the interval
# A drop of at most this many ulps of the previous eigenvalue is rounding, not
# progress: converged Ritz values jitter by up to 4 ulps.
_STOP_ULPS = 4
# Each field sweep rebuilds its problems on the same weights; on the timed
# requests of field block 0 at seed 101 the latest 32 verdicts cut the
# positivity checks that find roots from 656 to 147 (an unbounded memo: 64).
_POSITIVITY_CACHE = 32


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


def require_positive(f: Polynomial, name: str) -> None:
    """Refuse f, by name, unless it exceeds 1e-12 times its largest absolute
    value on the closed interval: a rule free of f's scale (``_is_positive``).
    An f whose values there overflow is refused as not finite."""
    positive = _is_positive(f)
    if not positive:
        lo, hi = f.interval
        rule = "is not finite" if positive is None else "must be positive"
        raise DomainError(f"{name} {rule} on [{lo}, {hi}]")


@lru_cache(maxsize=_POSITIVITY_CACHE)
def _is_positive(f: Polynomial) -> bool | None:
    """Whether f exceeds 1e-12 times its largest |f| on the closed interval,
    or None where a value of f read there is not finite (read with numpy's
    overflow warning off).
    f's extremes lie at the ends or where f' vanishes, so f is read, as its
    Legendre series in the reference variable t, at t = -1 and 1 and at the
    real part of every root of f' with -1 <= t <= 1 (the real part, so that a
    double root that rounding splits into a complex pair is still read).
    The roots are those of f scaled by a power of two to coefficients below 1,
    exactly, so they keep their bits and f' does not overflow."""
    coeffs = np.asarray(polynomials.as_series(f).coeffs)
    unit = coeffs * math.ldexp(1.0, -math.frexp(float(np.abs(coeffs).max()))[1])
    roots = leg.legroots(polynomials._legendre_derivative(unit.size) @ unit).real.tolist()
    with np.errstate(over="ignore", invalid="ignore"):
        vals = leg.legval([-1.0, 1.0] + [t for t in roots if abs(t) <= 1.0], coeffs).tolist()
    if not all(map(math.isfinite, vals)):
        return None
    return min(vals) > _POSITIVITY_MARGIN * max(map(abs, vals))


@dataclass(frozen=True)
class SLProblem:
    """Coefficients p, q, r on a shared interval plus endpoint conditions.

    p and r must be positive on the closed interval (``require_positive``).
    """

    p: Polynomial
    q: Polynomial
    r: Polynomial
    bc: BoundaryCondition

    def __post_init__(self):
        iv = self.p.interval
        if self.q.interval != iv or self.r.interval != iv:
            raise DomainError("p, q, r must share one interval")
        require_positive(self.p, "p")
        require_positive(self.r, "r")

    @property
    def interval(self) -> tuple[float, float]:
        return self.p.interval


@dataclass(frozen=True)
class EigenPair:
    lambda_: float
    u: Polynomial
    degree_used: int


@dataclass(frozen=True)
class RitzTrace:
    """Ground-mode eigenvalue per visited trial degree, non-increasing."""

    entries: tuple[tuple[int, float], ...]

    @property
    def degrees(self):
        return tuple(n for n, _ in self.entries)


@lru_cache(maxsize=None)
def _shen_recombination(bc: BoundaryCondition) -> tuple[np.ndarray, np.ndarray]:
    """The trial basis of degree <= MAX_DEGREE as Legendre coefficients, a
    (MAX_DEGREE + 1) x (MAX_DEGREE - 1) matrix, and the row the sign rule reads
    (``_build_pairs``), both built once per boundary pair and kept read-only.

    Column k is P_k + alpha_k P_{k+1} + beta_k P_{k+2}; the 2x2 solve makes it
    vanish on both endpoint rows, P_j(+-1) = (+-1)^j for a value condition and
    P_j'(+-1) = (+-1)^(j+1) j (j+1) / 2 (a derivative in t) for a derivative
    condition. Column k reads only rows k..k+2, so the basis of degree n is the
    leading (n + 1) x (n - 1) block, entry for entry. The sign row is the
    endpoint row at a of what the condition there leaves free: P_j'(-1) under a
    value condition, P_j(-1) under a derivative condition; that of degree n is
    its leading n + 1 entries.
    """
    degree = polynomials.MAX_DEGREE
    j = np.arange(degree + 1.0)

    def row(kind: str, sign: float) -> np.ndarray:
        return sign ** j if kind == VANISH_VALUE else sign ** (j + 1) * j * (j + 1) / 2

    rows = np.array([row(bc.at_a, -1.0), row(bc.at_b, 1.0)])
    S = np.zeros((degree + 1, degree - 1))
    for k in range(degree - 1):
        S[k, k] = 1.0
        S[k + 1:k + 3, k] = np.linalg.solve(rows[:, k + 1:k + 3], -rows[:, k])
    sign_row = row(VANISH_DERIVATIVE if bc.at_a == VANISH_VALUE else VANISH_VALUE, -1.0)
    S.flags.writeable = sign_row.flags.writeable = False  # shared through the cache
    return S, sign_row


def _assemble(prob: SLProblem, degree: int):
    """The pencil (A, B) of the given degree, by quadrature exact at the largest
    integrand: the trial basis, its derivative and p, q, r are all read at the
    Gauss-Legendre nodes off the one cached table of P_k there; only the
    derivative's scale 2 / (b - a) and the coefficients depend on the problem.

    On an interval so short that the scale overflows (below about 1e-308),
    or with coefficients near the float range, an entry can overflow; the
    pencil is formed with numpy's warnings off, and ``_reduce`` refuses it
    (a mass matrix that is not finite or underflows, a reduced matrix that
    is not finite)."""
    lo, hi = prob.interval
    n_nodes = (max(prob.p.degree, prob.q.degree, prob.r.degree) + 2 * degree) // 2 + 1
    w = 0.5 * (hi - lo) * polynomials._gauss_legendre(n_nodes)[1]
    pv, qv, rv = polynomials.node_values(n_nodes, prob.p, prob.q, prob.r)
    S = _shen_recombination(prob.bc)[0][:degree + 1, :degree - 1]
    table = polynomials._legendre_table(n_nodes, degree + 1)
    phi = (table @ S).T
    dphi = (table @ polynomials._legendre_derivative(degree + 1) @ S).T
    with np.errstate(over="ignore", invalid="ignore"):
        dphi = dphi * (2.0 / (hi - lo))
        A = (dphi * (w * pv)) @ dphi.T - (phi * (w * qv)) @ phi.T
        B = (phi * (w * rv)) @ phi.T
        return 0.5 * (A + A.T), 0.5 * (B + B.T)


def _reduce(A: np.ndarray, B: np.ndarray):
    """Cholesky-reduce the symmetric-definite pencil (A, B) once: B = L L^T,
    C = L^-1 A L^-T. Returns ``leading_eigh(k)``, the Ritz pairs of the leading
    k x k block pencil, whose Cholesky factor is the leading block of L, so its
    reduced matrix is the leading block of C. ``leading_eigh(k)`` is a tuple
    (theta, Y, norms) in one ascending order of theta, set by one stable
    argsort (tied values keep LAPACK's order): Y holds B-orthonormal vectors,
    norms their B-norms y^T B y, theta their Rayleigh quotients on the
    unreduced block pencil (whose denominator is the norm). The lowest m
    pairs are the leading m entries, as read-only arrays. Each call solves
    its block; only the reader ``_reference_sequence`` returns keeps blocks.

    A LAPACK failure in the factorization or an eigensolve raises
    ``ConditioningError`` of cause ``"cholesky"`` or ``"eigh"``, and a mass
    matrix or a block of C that is not finite one of cause ``"overflow"``:
    the product forming C can overflow, and then carries NaN into the
    leading entries. C is formed with numpy's overflow warnings off, and its
    largest finite leading block is recorded, so a block past it is refused
    by size with no warning.
    """
    if not np.isfinite(B).all():
        raise ConditioningError("mass matrix is not finite: its assembly overflows",
                                cause="overflow")
    try:
        L = np.linalg.cholesky(B)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError("mass matrix is numerically indefinite",
                                cause="cholesky") from exc
    L_inv = np.tril(np.linalg.inv(L))
    with np.errstate(over="ignore", invalid="ignore"):
        C = L_inv @ A @ L_inv.T
        C = 0.5 * (C + C.T)
    entries_finite = np.isfinite(C)
    finite = (C.shape[0] if entries_finite.all()
              else int(np.maximum(*np.nonzero(~entries_finite)).min()))

    def leading_eigh(k: int):
        if k > finite:
            raise ConditioningError(
                f"reduced eigenproblem of size {k} is not finite: its reduction overflows",
                cause="overflow")
        try:
            vectors = np.linalg.eigh(C[:k, :k])[1]
        except np.linalg.LinAlgError as exc:
            raise ConditioningError(f"reduced eigenproblem of size {k}: {exc}",
                                    cause="eigh") from exc
        Y = L_inv[:k, :k].T @ vectors
        Ak, Bk = A[:k, :k], B[:k, :k]
        norms = np.einsum("ij,ij->j", Y, Bk @ Y)
        theta = np.einsum("ij,ij->j", Y, Ak @ Y) / norms
        order = np.argsort(theta, kind="stable")
        ritz = theta[order], Y[:, order], norms[order]
        for array in ritz:
            array.setflags(write=False)  # shared by every reader of a kept pencil
        return ritz

    return leading_eigh


@lru_cache(maxsize=None)
def _reference_sequence(bc: BoundaryCondition, top: int):
    """``leading_eigh`` of the reference pencil (K, M) of degree ``top``: that of
    -u'' = mu u on (-1, 1) under ``bc``, assembled and reduced on the first
    request and kept. Its reader, an ``lru_cache``, keeps every block it has
    solved and never a failure. There is one per (boundary pair, top degree):
    at most 4 x 31 keys (even degrees 4 to 64), and a benchmark block reads 4."""
    one, zero = Polynomial((1.0,), (-1.0, 1.0)), Polynomial((0.0,), (-1.0, 1.0))
    return lru_cache(maxsize=None)(_reduce(*_assemble(SLProblem(one, zero, one, bc), top)))


def _pencil(prob: SLProblem, top: int):
    """The one source of a solve's Ritz pairs, reduced at degree ``top``:
    (leading_eigh, scale, shift, weight), read as the Ritz values
    scale * theta - shift, the source's vectors and weight times its B-norms.

    A variable coefficient gives the problem's own pencil and the identity
    map, which keeps every bit. With constant p, q, r and h = (b - a) / 2 the
    pencil is (p/h K - q h M, r h M): the kept reference (K, M), read with
    scale p / (r h^2), shift q / r and weight r h. A weight that underflows
    to 0 leaves a zero mass matrix, refused as a failed Cholesky would be.
    """
    if prob.p.degree or prob.q.degree or prob.r.degree:
        return _reduce(*_assemble(prob, top)), 1.0, 0.0, 1.0
    (p,), (q,), (r,) = prob.p.coeffs, prob.q.coeffs, prob.r.coeffs
    lo, hi = prob.interval
    h = 0.5 * (hi - lo)
    weight = r * h
    if not weight > 0:
        raise ConditioningError("mass matrix is numerically indefinite", cause="cholesky")
    return _reference_sequence(prob.bc, top), p / weight / h, q / r, weight


def _build_pairs(prob: SLProblem, lams: list[float], Y, norms, degree: int) -> list[EigenPair]:
    """The pairs of the eigenvalues ``lams`` and the columns of Y, in that
    order, as Legendre series of unit r-weighted norm.

    Each vector is scaled by its B-norm, which is the exact r-weighted norm of
    its function, and its Legendre column is negated where the quantity the
    condition at a leaves free is negative: the derivative at a under a value
    condition, the value at a under a derivative condition, where it cannot
    vanish since u(a) = u'(a) = 0 would make u vanish (a derivative in t has
    the sign of the one in x). The basis and that endpoint row are both read
    off the boundary pair's kept table (``_shen_recombination``). The vectors
    come B-orthonormal from the reduction, so every norm is 1 to rounding and
    none can collapse.
    """
    S, sign_row = _shen_recombination(prob.bc)
    C = S[:degree + 1, :degree - 1] @ (Y / np.sqrt(norms))
    C[:, sign_row[:degree + 1] @ C < 0] *= -1.0
    return [EigenPair(lam, LegendreSeries(tuple(c), prob.interval), degree)
            for lam, c in zip(lams, C.T.tolist())]


def max_modes(max_degree: int) -> int:
    """The most modes ``solve`` can stop on with degrees up to ``max_degree``."""
    return max_degree // 2 * 2 - 3


def solve(prob: SLProblem, num_modes: int = 1, k_tol: float = 1e-10,
          max_degree: int = 40) -> tuple[list[EigenPair], RitzTrace]:
    """Progressively minimize the Rayleigh quotient by degree escalation.

    The degree starts at 2, the least degree with a trial function, and grows
    by 2 until the drop of every requested eigenvalue between consecutive
    visited degrees is below ``k_tol`` (an absolute tolerance playing the
    reciprocal-k role in the stopping schema) or at most 4 ulps of the
    previous value, or ``max_degree`` is hit, in which case a
    ``NonConvergenceError`` of cause ``"degree_cap"`` carrying the trace is
    raised. The ulp floor is
    the rounding jitter of converged Ritz values: at extreme scales (lambda
    ~ 1e19 on an interval of length 1e-9) it exceeds any absolute ``k_tol``.
    The eigenvalue drop is the only stop test: every trial function meets the
    end conditions by construction. Degree n holds n - 1 trial functions and the
    test compares two visited degrees, each holding ``num_modes`` of them, so
    a request with ``num_modes`` above ``max_modes(max_degree)`` could never
    stop and is refused with ``DomainError``, as is a ``num_modes`` or
    ``max_degree`` whose type is not exactly ``int``.

    ``_pencil`` gives the one reduced pencil, at ``max_degree`` rounded down
    to even, and the affine map its Ritz pairs are read through; each visited
    degree is its leading block and maps its lowest ``num_modes`` Ritz values
    for the trace and the stop test. A mapped value that is not finite raises
    ``ConditioningError`` of cause ``"overflow"``. The degree that stops
    returns those values with its leading vectors and B-norms. The result is
    a function of the problem, ``num_modes``, ``k_tol`` and ``max_degree``
    alone, bit for bit.

    Returns the eigenpairs of the final degree, orthonormal under the
    r-weighted inner product, and the ground-mode trace.
    """
    if require_int(num_modes, "num_modes") < 1:
        raise DomainError("num_modes must be >= 1")
    if not k_tol > 0:
        raise DomainError("k_tol must be positive")
    if require_int(max_degree, "max_degree") > polynomials.MAX_DEGREE:
        raise DomainError(
            f"max_degree {max_degree} exceeds the polynomial degree cap {polynomials.MAX_DEGREE}"
        )
    if num_modes > max_modes(max_degree):
        raise DomainError(
            f"{num_modes} modes need max_degree >= {(num_modes + 4) // 2 * 2}: the stop test "
            f"compares two visited degrees, each holding at least {num_modes} trial functions"
        )
    top = max_degree // 2 * 2
    leading_eigh, scale, shift, weight = _pencil(prob, top)
    trace_entries: list[tuple[int, float]] = []
    prev_vals: list[float] | None = None
    for degree in range(2, top + 1, 2):
        theta, Y, norms = leading_eigh(degree - 1)
        # Read as Python floats: the same IEEE test as on arrays, without
        # numpy's per-call cost at every degree of a solve of its own pencil.
        cur_vals = [scale * mu - shift for mu in theta[:num_modes].tolist()]
        if not all(map(math.isfinite, cur_vals)):
            raise ConditioningError(
                f"reduced eigenproblem of size {degree - 1} is not finite: "
                "its Ritz values overflow", cause="overflow")
        trace_entries.append((degree, cur_vals[0]))
        if len(cur_vals) < num_modes:
            continue
        if prev_vals is not None and all(p - c < k_tol or p - c <= _STOP_ULPS * math.ulp(p)
                                         for p, c in zip(prev_vals, cur_vals)):
            pairs = _build_pairs(prob, cur_vals, Y[:, :num_modes],
                                 norms[:num_modes] * weight, degree)
            return pairs, RitzTrace(tuple(trace_entries))
        prev_vals = cur_vals
    raise NonConvergenceError(
        f"eigenvalues not converged to {k_tol} within degree {max_degree}",
        cause="degree_cap", trace=RitzTrace(tuple(trace_entries)),
    )
