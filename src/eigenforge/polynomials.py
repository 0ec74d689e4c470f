"""Polynomial substrate: two coefficient bases on one value type, and quadrature.

Inputs (coefficient fields, weights, constants) are ``Polynomial`` values with
monomial coefficients in ascending powers of x, as the JSON input files write
them. Every function the library computes (eigenfunctions, field factors, the
fitted time pair, projected squares) is a ``LegendreSeries``, whose
coefficients multiply the Legendre polynomials P_k(t) in the interval's
reference variable t = (2x - a - b)/(b - a): the power form's condition number
grows exponentially with the degree, the Legendre form's does not. Monomials
are inputs only: ``as_series`` is their one route to a series, keeping what it
converts, and a series and a monomial neither add nor subtract. No two
functions multiply, in either basis: a product is integrated
(``integrate_product``, which keeps the latest integrals by their factors,
so an integral is a function of its factors alone, kept or computed afresh)
or fitted from values, never formed. Every value
carries the finite interval it lives on, and all operations are pure functions
of immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable

import numpy as np
import numpy.polynomial.legendre as leg
import numpy.polynomial.polynomial as npoly

from .errors import DomainError

# Trial-space degree cap for the solvers: it bounds the size of the assembled
# pencil, and the degree of every polynomial an input file gives (the
# positivity check's root-finding overflows from about degree 600). Products
# of functions under an integral may legitimately exceed it.
MAX_DEGREE = 64


def _trimmed(values: Iterable[float]) -> tuple[float, ...]:
    out = tuple(map(float, values))
    n = len(out)
    while n > 1 and out[n - 1] == 0.0:
        n -= 1
    return out[:n] if out else (0.0,)


def _reference(xs, interval):
    """t(x) = (2x - a - b)/(b - a), exactly -1 and 1 at the endpoints."""
    lo, hi = interval
    return ((xs - lo) - (hi - xs)) / (hi - lo)


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
        if not all(map(math.isfinite, coeffs)):
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

    def values(self, xs) -> np.ndarray:
        """Values at a point or an array of points, all inside the interval:
        the one evaluation."""
        xs = np.asarray(xs, dtype=float)
        a, b = self.interval
        if xs.size and (float(xs.min()) < a or float(xs.max()) > b):
            raise DomainError("sample points outside the interval")
        return self._at(xs)

    def _at(self, xs):
        return npoly.polyval(xs, np.asarray(self.coeffs))

    def derivative(self) -> "Polynomial":
        if self.degree == 0:
            return Polynomial((0.0,), self.interval)
        return Polynomial(tuple(k * c for k, c in enumerate(self.coeffs) if k > 0), self.interval)

    def _coerce(self, other):
        """A scalar or a same-basis operand as this value's type; None otherwise."""
        if isinstance(other, (int, float)):
            return type(self)((float(other),), self.interval)
        if not isinstance(other, Polynomial) or type(other) is not type(self):
            return None
        if other.interval != self.interval:
            raise DomainError(
                f"operands on different intervals: {self.interval} vs {other.interval}"
            )
        return other

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
        return type(self)(tuple(out), self.interval)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return type(self)(tuple(-c for c in self.coeffs), self.interval)

    def __mul__(self, other):
        # Scalar multiples only: no two functions multiply, monomials included.
        if isinstance(other, (int, float)):
            return type(self)(tuple(float(other) * c for c in self.coeffs), self.interval)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            if other == 0:
                raise DomainError("division by zero scalar")
            return self * (1.0 / float(other))
        return NotImplemented


# Derivatives kept by ``LegendreSeries.derivative``: the time pin and the null
# check differentiate the same fixed time pair for every state, and the null
# check each space factor once per component, only to look up integrals of
# the derivatives. A benchmark field block takes about 950 derivatives of
# about 150 distinct series; the 16 latest find 749-762 of the 794-796
# repeats an unbounded memo would.
_DERIVATIVE_CACHE = 16


@dataclass(frozen=True)
class LegendreSeries(Polynomial):
    """A computed function: ``coeffs`` multiply P_0(t), P_1(t), ... in t(x).

    Sums and differences of series, negation and scalar multiples are
    coefficient-wise, as for ``Polynomial``; a monomial operand is refused.
    """

    def _at(self, xs):
        return leg.legval(_reference(xs, self.interval), np.asarray(self.coeffs))

    @lru_cache(maxsize=_DERIVATIVE_CACHE)
    def derivative(self) -> "LegendreSeries":
        """d/dx, a function of the series alone: the latest are kept."""
        lo, hi = self.interval
        coeffs = np.asarray(self.coeffs)
        d = _legendre_derivative(coeffs.size) @ coeffs * (2.0 / (hi - lo))
        return LegendreSeries(d.tolist(), self.interval)


def _legendre_coeffs(coeffs: tuple[float, ...], interval: tuple[float, float]) -> tuple:
    """Legendre coefficients in t of a monomial polynomial in x = mid + half t.

    Horner's rule in x. t S, for the series S so far, is numpy's ``legmulx``
    loop on a list, with its products and quotients in its order:
    t P_i = ((i + 1) P_{i+1} + i P_{i-1}) / (2i + 1).
    """
    lo, hi = interval
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    acc = [coeffs[-1]]
    for c in reversed(coeffs[:-1]):
        prd = [acc[0] * 0, acc[0]] + [0.0] * (len(acc) - 1)
        for i in range(1, len(acc)):
            prd[i + 1] = (acc[i] * (i + 1)) / (2 * i + 1)
            prd[i - 1] += (acc[i] * i) / (2 * i + 1)
        nxt = [half * p for p in prd]
        for i, a in enumerate(acc):
            nxt[i] += mid * a
        nxt[0] += c
        acc = nxt
    return tuple(acc)


def as_series(f: Polynomial) -> LegendreSeries:
    """f as a Legendre series: a series as it is, a monomial converted and kept
    (inputs recur across sweeps and solves; the 256 latest are kept)."""
    return f if type(f) is LegendreSeries else _converted(f)


@lru_cache(maxsize=256)
def _converted(f: Polynomial) -> LegendreSeries:
    return LegendreSeries(_legendre_coeffs(f.coeffs, f.interval), f.interval)


@lru_cache(maxsize=None)
def _legendre_derivative(size: int) -> np.ndarray:
    """Square matrix taking size Legendre coefficients to those of d/dt."""
    out = np.zeros((size, size))
    out[: size - 1] = leg.legder(np.eye(size))[: size - 1]
    return out


def poly(coeffs, interval=(0.0, 1.0)) -> Polynomial:
    """Shorthand constructor."""
    return Polynomial(tuple(coeffs), tuple(interval))


@lru_cache(maxsize=None)
def _gauss_legendre(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


@lru_cache(maxsize=None)
def _legendre_table(n: int, size: int) -> np.ndarray:
    """P_k at the n Gauss-Legendre nodes, k < size: an (n, size) array."""
    return leg.legvander(_gauss_legendre(n)[0], size - 1)


def node_values(n: int, *factors: Polynomial) -> np.ndarray:
    """The factors' values at the n Gauss-Legendre nodes of their shared
    interval, one row per factor: one product of the cached table of P_k at
    the nodes with their series' zero-padded coefficient columns, in order."""
    if any(f.interval != factors[0].interval for f in factors):
        raise DomainError("factors live on different intervals")
    series = [as_series(f).coeffs for f in factors]
    columns = np.zeros((max(len(c) for c in series), len(series)))
    for j, c in enumerate(series):
        columns[: len(c), j] = c
    return (_legendre_table(n, columns.shape[0]) @ columns).T


# Integrals kept by ``integrate_product``: a field model re-integrates the
# same products (the null check's terms, the time pin's harmonic pair, the
# norms) in every state. A benchmark field block asks for about 3 050
# integrals of about 800 distinct products; the 128 latest find 2 090-2 112
# of the 2 216-2 249 repeats an unbounded memo would (32 find 1 988-2 013).
_INTEGRAL_CACHE = 128


@lru_cache(maxsize=_INTEGRAL_CACHE)
def integrate_product(*factors: Polynomial) -> float:
    """Exact integral of a product of polynomials over their shared interval.

    Gauss-Legendre quadrature with sum(degree) // 2 + 1 nodes, exact at the
    product's degree, without forming the product: the factors' values at
    the nodes (``node_values``) are multiplied pointwise in factor order.

    The integral is a function of its factors alone, in order: the
    ``_INTEGRAL_CACHE`` latest are kept, keyed by the factors' equality (same
    type, interval and coefficient tuple), and a kept value holds the bits a
    fresh quadrature computes. A refusal is raised afresh on every call.
    """
    if not factors:
        raise DomainError("need at least one factor")
    n = sum(f.degree for f in factors) // 2 + 1
    vals = node_values(n, *factors)
    lo, hi = factors[0].interval
    return float(0.5 * (hi - lo) * np.dot(_gauss_legendre(n)[1], np.prod(vals, axis=0)))


@lru_cache(maxsize=None)
def _fit_operator(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """The degree + 1 Chebyshev points of the first kind in t, and the
    operator taking values there to Legendre coefficients of the given
    degree: the inverse of their Legendre Vandermonde matrix. Both are
    read-only."""
    k = np.arange(degree + 1)
    t = np.cos((2 * k + 1) * math.pi / (2 * (degree + 1)))
    op = np.linalg.pinv(leg.legvander(t, degree))
    t.setflags(write=False)
    op.setflags(write=False)
    return t, op


def chebyshev_fit(fn: Callable[[np.ndarray], np.ndarray], degree: int,
                  interval: tuple[float, float]) -> LegendreSeries:
    """Legendre series of the given degree interpolating a function at the
    Chebyshev points of the first kind.

    The points and their fit operator depend only on the degree, so each is
    built once.
    """
    lo, hi = interval
    t, op = _fit_operator(degree)
    xs = 0.5 * (lo + hi) + 0.5 * (hi - lo) * t
    return LegendreSeries((op @ fn(xs)).tolist(), (lo, hi))
