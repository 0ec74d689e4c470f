"""Polynomial substrate: arithmetic, quadrature, monotone-piece splitting.

Everything downstream (the eigensolvers, the field iteration, the action
integrals) computes with these values. Coefficients are monomial and
ascending; every polynomial carries the finite interval it lives on, and all
operations are pure functions of immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Literal

import numpy as np
import numpy.polynomial.polynomial as npoly

from .errors import DegenerateInputError, DomainError, IntervalMismatchError

# Trial-space degree cap for the solvers. Monomial Gram matrices are too
# ill-conditioned past this; solver assembly runs in a shifted-Legendre basis
# and converts back to monomials only at the end. Products of polynomials
# (squares, quartics under an integral) may legitimately exceed the cap.
MAX_DEGREE = 64

_ROOT_REFINE_WIDTH = 1e-12
_ROOT_MERGE_WIDTH = 1e-9
_ROOT_SCAN_GRID = 1024
# Horner evaluation of sum d_k x^k errs by at most about 2n eps sum |d_k| |x|^k;
# a derivative value within this many eps of that sum has no reliable sign.
_HORNER_NOISE = 64 * np.finfo(float).eps

Direction = Literal["increasing", "decreasing", "constant"]


def _trimmed(values: Iterable[float]) -> tuple[float, ...]:
    out = [float(v) for v in values]
    if not out:
        out = [0.0]
    while len(out) > 1 and out[-1] == 0.0:
        out.pop()
    return tuple(out)


@dataclass(frozen=True)
class Polynomial:
    """Real-coefficient polynomial on a fixed interval, ascending powers.

    The zero polynomial is represented by the single coefficient ``(0.0,)``;
    otherwise trailing zero coefficients are trimmed at construction.
    """

    coeffs: tuple[float, ...]
    interval: tuple[float, float]

    def __post_init__(self) -> None:
        coeffs = _trimmed(self.coeffs)
        if any(not math.isfinite(c) for c in coeffs):
            raise DomainError("coefficients must be finite")
        a, b = float(self.interval[0]), float(self.interval[1])
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise DomainError(f"need a finite interval with a < b, got ({a}, {b})")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "interval", (a, b))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0.0,)

    def __call__(self, x: float) -> float:
        return evaluate(self, x)

    def values(self, xs) -> np.ndarray:
        """Vectorized evaluation; all sample points must lie in the interval."""
        xs = np.asarray(xs, dtype=float)
        a, b = self.interval
        if xs.size and (float(xs.min()) < a or float(xs.max()) > b):
            raise DomainError("sample points outside the interval")
        return npoly.polyval(xs, np.asarray(self.coeffs))

    def derivative(self) -> "Polynomial":
        return differentiate(self)

    def antiderivative(self) -> "Polynomial":
        return antiderivative(self)

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.interval != self.interval:
                raise IntervalMismatchError(
                    f"operands on different intervals: {self.interval} vs {other.interval}"
                )
            return other
        if isinstance(other, (int, float)):
            return Polynomial((float(other),), self.interval)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        out = [0.0] * n
        for i, c in enumerate(self.coeffs):
            out[i] += c
        for i, c in enumerate(other.coeffs):
            out[i] += c
        return Polynomial(tuple(out), self.interval)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Polynomial(tuple(-c for c in self.coeffs), self.interval)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Polynomial(tuple(float(other) * c for c in self.coeffs), self.interval)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Polynomial((0.0,), self.interval)
        out = [0.0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            if ci == 0.0:
                continue
            for j, cj in enumerate(other.coeffs):
                out[i + j] += ci * cj
        return Polynomial(tuple(out), self.interval)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            if other == 0:
                raise DomainError("division by zero scalar")
            return self * (1.0 / float(other))
        return NotImplemented


def poly(coeffs, interval=(0.0, 1.0)) -> Polynomial:
    """Shorthand constructor."""
    return Polynomial(tuple(coeffs), tuple(interval))


def constant(value: float, interval) -> Polynomial:
    return Polynomial((float(value),), tuple(interval))


def arith(a: Polynomial, b: Polynomial, op: str) -> Polynomial:
    """Exact coefficient-level add / sub / mul of two polynomials.

    Both operands must share the same interval.
    """
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    raise DomainError(f"unknown op {op!r}; expected add, sub or mul")


def differentiate(a: Polynomial) -> Polynomial:
    """Formal derivative on the same interval."""
    if a.degree == 0:
        return Polynomial((0.0,), a.interval)
    return Polynomial(tuple(k * c for k, c in enumerate(a.coeffs) if k > 0), a.interval)


def antiderivative(a: Polynomial) -> Polynomial:
    """Antiderivative with zero constant term, on the same interval."""
    return Polynomial((0.0,) + tuple(c / (k + 1) for k, c in enumerate(a.coeffs)), a.interval)


@lru_cache(maxsize=None)
def _gauss_legendre(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def integrate(a: Polynomial) -> float:
    """Definite integral over the polynomial's interval.

    The one-factor case of ``integrate_product``: Gauss-Legendre quadrature
    with deg // 2 + 1 nodes, exact at this degree; antiderivative evaluation
    is the independent cross-check (see tests).
    """
    return integrate_product(a)


def integrate_by_antiderivative(a: Polynomial) -> float:
    """Same integral via the antiderivative; used as the dual route."""
    anti = antiderivative(a)
    lo, hi = a.interval
    c = np.asarray(anti.coeffs)
    return float(npoly.polyval(hi, c) - npoly.polyval(lo, c))


def integrate_product(*factors: Polynomial) -> float:
    """Exact integral of a product of polynomials over their shared interval.

    Factors are evaluated at the Gauss-Legendre nodes in one Horner pass over
    their zero-padded coefficient columns and multiplied pointwise in factor
    order, which avoids the coefficient blow-up (and the attendant
    cancellation) of forming the product polynomial first.
    """
    if not factors:
        raise DomainError("need at least one factor")
    iv = factors[0].interval
    for f in factors[1:]:
        if f.interval != iv:
            raise IntervalMismatchError("factors live on different intervals")
    lo, hi = iv
    total_degree = sum(f.degree for f in factors)
    x, w = _gauss_legendre(total_degree // 2 + 1)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    columns = np.zeros((max(f.degree for f in factors) + 1, len(factors)))
    for j, f in enumerate(factors):
        columns[: len(f.coeffs), j] = f.coeffs
    vals = np.prod(npoly.polyval(mid + half * x, columns), axis=0)
    return float(half * np.dot(w, vals))


def evaluate(a: Polynomial, x: float) -> float:
    """Horner-scheme value at a point inside the interval."""
    x = float(x)
    lo, hi = a.interval
    if not (lo <= x <= hi):
        raise DomainError(f"x={x} outside interval ({lo}, {hi})")
    acc = 0.0
    for c in reversed(a.coeffs):
        acc = acc * x + c
    return acc


@dataclass(frozen=True)
class MonotonePiece:
    """A maximal sub-interval on which the source polynomial is monotone.

    Nonconstant pieces are bijective from the sub-interval onto their value
    range, so each piece is invertible on its own.
    """

    source: Polynomial
    sub_interval: tuple[float, float]
    direction: Direction

    @property
    def value_range(self) -> tuple[float, float]:
        t0, t1 = self.sub_interval
        v0, v1 = evaluate(self.source, t0), evaluate(self.source, t1)
        return (min(v0, v1), max(v0, v1))


def _bisect_root(f: Callable[[float], float], lo: float, hi: float, width: float) -> float:
    flo = f(lo)
    for _ in range(200):
        if hi - lo <= width:
            break
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (flo < 0) != (fm < 0):
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def _derivative_roots(a: Polynomial) -> list[float]:
    dc = np.asarray(differentiate(a).coeffs)
    lo, hi = a.interval
    xs = np.linspace(lo, hi, _ROOT_SCAN_GRID)
    dv = npoly.polyval(xs, dc)
    f = lambda x: float(npoly.polyval(x, dc))
    roots: list[float] = []
    for i in range(len(xs) - 1):
        v0, v1 = dv[i], dv[i + 1]
        if v0 == 0.0 and lo < xs[i] < hi:
            roots.append(float(xs[i]))
        if v0 * v1 < 0.0:
            roots.append(_bisect_root(f, float(xs[i]), float(xs[i + 1]), _ROOT_REFINE_WIDTH))
    if dv[-1] == 0.0 and lo < xs[-1] < hi:
        roots.append(float(xs[-1]))
    roots = sorted(set(roots))

    def noise_between(x0: float, x1: float) -> bool:
        # Is the derivative inside its Horner rounding bound across the gap?
        probe = x0 + (x1 - x0) * np.array([0.25, 0.5, 0.75])
        bound = _HORNER_NOISE * npoly.polyval(np.abs(probe), np.abs(dc))
        return bool(np.all(np.abs(npoly.polyval(probe, dc)) <= bound))

    # Collapse near-coincident cut points: a sub-merge-width middle piece, or
    # one on which the derivative is rounding noise (a double root split in
    # two), is numerical, and dropping the pair restores sign alternation.
    merged = True
    while merged and len(roots) >= 2:
        merged = False
        for i in range(len(roots) - 1):
            if (roots[i + 1] - roots[i] < _ROOT_MERGE_WIDTH
                    or noise_between(roots[i], roots[i + 1])):
                del roots[i : i + 2]
                merged = True
                break
    # Cut points are interior only.
    return [r for r in roots if lo + _ROOT_MERGE_WIDTH < r < hi - _ROOT_MERGE_WIDTH]


def split_monotone(a: Polynomial) -> list[MonotonePiece]:
    """Partition the interval at interior derivative roots.

    Cut points are located by a sign scan over a uniform grid followed by
    bisection. Adjacent pieces carry opposite directions, and every
    nonconstant piece is checked to be value-injective on a sample grid.
    """
    if a.is_zero:
        raise DegenerateInputError("cannot split the zero polynomial")
    if a.degree == 0:
        raise DegenerateInputError("cannot split a constant polynomial")
    lo, hi = a.interval
    cuts = _derivative_roots(a)
    edges = [lo] + cuts + [hi]
    d = differentiate(a)
    pieces: list[MonotonePiece] = []
    for t0, t1 in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (t0 + t1)
        slope = evaluate(d, mid)
        if slope == 0.0:
            # Odd inflection at the midpoint (x^3 on [-1, 1]): the endpoint
            # values still tell the direction.
            slope = evaluate(a, t1) - evaluate(a, t0)
        direction: Direction = "increasing" if slope > 0 else "decreasing"
        piece = MonotonePiece(a, (t0, t1), direction)
        _check_injective(piece)
        pieces.append(piece)
    return pieces


def _check_injective(piece: MonotonePiece, samples: int = 9) -> None:
    t0, t1 = piece.sub_interval
    xs = np.linspace(t0, t1, samples)
    vs = npoly.polyval(xs, np.asarray(piece.source.coeffs))
    diffs = np.diff(vs)
    if piece.direction == "increasing":
        ok = bool(np.all(diffs > 0))
    elif piece.direction == "decreasing":
        ok = bool(np.all(diffs < 0))
    else:
        ok = True
    if not ok:
        raise DegenerateInputError(
            f"piece {piece.sub_interval} is not value-injective for its direction"
        )


def _basis_rows(size: int, interval: tuple[float, float],
                step: Callable[[int, np.ndarray, np.ndarray], np.ndarray]) -> np.ndarray:
    """Row k < size: monomial coefficients of B_k(t(x)) for a three-term basis.

    t(x) = (2x - lo - hi)/(hi - lo) maps the interval onto [-1, 1]; B_0 = 1,
    B_1 = t and B_{k+1} = step(k, t*B_k, B_{k-1}).
    """
    lo, hi = interval
    c0, c1 = (-lo - hi) / (hi - lo), 2.0 / (hi - lo)
    rows = np.zeros((size, size))
    rows[0, 0] = 1.0
    if size > 1:
        rows[1, :2] = c0, c1
    for k in range(1, size - 1):
        t_row = c0 * rows[k]
        t_row[1:] += c1 * rows[k, :-1]
        rows[k + 1] = step(k, t_row, rows[k - 1])
    return rows


def chebyshev_fit(fn: Callable[[np.ndarray], np.ndarray], degree: int,
                  interval: tuple[float, float], num_points: int | None = None) -> Polynomial:
    """Least-squares polynomial fit of a function on a Chebyshev grid.

    With ``num_points = degree + 1`` this is Chebyshev interpolation. The fit
    runs in the Chebyshev basis (well-conditioned) and is converted to
    monomial coefficients in one product with the matrix whose row k holds
    the coefficients of T_k(t(x)), built by the recurrence T_{k+1} = 2t T_k -
    T_{k-1}.
    """
    lo, hi = interval
    n = num_points or degree + 1
    if n < degree + 1:
        raise DomainError("need at least degree+1 sample points")
    k = np.arange(n)
    t = np.cos((2 * k + 1) * math.pi / (2 * n))
    xs = 0.5 * (lo + hi) + 0.5 * (hi - lo) * t
    cheb_coeffs = np.polynomial.chebyshev.chebfit(t, fn(xs), degree)
    rows = _basis_rows(degree + 1, (lo, hi), lambda k, t_b, prev: 2.0 * t_b - prev)
    return Polynomial(tuple(cheb_coeffs @ rows), (lo, hi))
