"""Polynomial substrate: two coefficient bases on one value type, and quadrature.

Inputs (coefficient fields, weights, constants) are ``Polynomial`` values with
monomial coefficients in ascending powers of x, as the JSON input files write
them. Every function the library computes (eigenfunctions, field factors, the
fitted time pair, projected squares) is a ``LegendreSeries``, whose
coefficients multiply the Legendre polynomials P_k(t) in the interval's
reference variable t = (2x - a - b)/(b - a): the power form's condition number
grows exponentially with the degree, the Legendre form's does not. Monomials
are inputs only, read (values and derivative too) through their one route to
a series, ``as_series``; a series and a monomial neither add nor subtract.
No two functions multiply, in either basis: a product is integrated
(``integrate_product``, which keeps the latest integrals by their factors,
so an integral is a function of its factors alone, kept or computed afresh)
or fitted from values, never formed. Every value carries the finite interval
it lives on, and all operations are pure functions of immutable values. What
derives from one value alone (a monomial's Legendre form, a series'
derivative, a function's fitted square, its hash) is kept on that value,
computed at most once per object and dropped with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable

import numpy as np
import numpy.polynomial.legendre as leg

from .errors import DomainError

# Trial-space degree cap for the solvers: it bounds the size of the assembled
# pencil, the degree of every polynomial an input file gives, and that of
# every monomial ``as_series`` converts, whether read from a file or built in
# code (a monomial's Legendre form overflows from about degree 600). Products
# of functions under an integral may legitimately exceed it.
MAX_DEGREE = 64


def _trimmed(values: Iterable[float]) -> tuple[float, ...]:
    out = tuple(map(float, values))
    n = len(out)
    while n > 1 and out[n - 1] == 0.0:
        n -= 1
    return out[:n] if out else (0.0,)


class _kept(cached_property):
    """A ``functools.cached_property`` that stores its value with
    ``object.__setattr__``, as a frozen dataclass's own fields are stored.
    The parent writes through ``instance.__dict__`` instead, which on CPython
    3.11 moves the object's attributes out of the interpreter's fast reads:
    120 000 ``coeffs``/``interval`` reads took 3.6 ms on such objects against
    0.9 ms (Python 3.11.7, x86_64), and field_pipeline lost about 4 % of its
    requests per second. A refusal is raised on every read; nothing is kept."""

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = self.func(instance)
        object.__setattr__(instance, self.attrname, value)
        return value


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

    def __hash__(self) -> int:
        return self._hash

    @_kept
    def _hash(self) -> int:
        """The dataclass's hash of the fields, computed once per object: the
        value-keyed memos and problem lookups hash the same factors again and
        again, and each would otherwise rehash the coefficient tuple."""
        return hash((self.coeffs, self.interval))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def values(self, xs) -> np.ndarray:
        """Values at a point or an array of points, all inside the interval
        (a NaN point is not): the one evaluation, of the Legendre form
        (``as_series``)."""
        xs = np.asarray(xs, dtype=float)
        a, b = self.interval
        if xs.size and not (a <= float(xs.min()) and float(xs.max()) <= b):
            raise DomainError("sample points outside the interval")
        return leg.legval(_reference(xs, self.interval), as_series(self).coeffs)

    @_kept
    def _series(self) -> "LegendreSeries":
        """The Legendre form of this monomial polynomial, read by ``as_series``."""
        if self.degree > MAX_DEGREE:
            raise DomainError(f"a monomial of degree {self.degree} is above the cap {MAX_DEGREE}")
        return LegendreSeries(_legendre_coeffs(self.coeffs, self.interval), self.interval)

    @_kept
    def square(self) -> "LegendreSeries":
        """This function squared, as a Legendre series: interpolated from its
        values at twice its degree (``chebyshev_fit``), so exact up to rounding."""
        return chebyshev_fit(lambda xs: self.values(xs) ** 2, 2 * self.degree, self.interval)

    def derivative(self) -> "LegendreSeries":
        """d/dx, of the Legendre form and kept on it (``as_series``)."""
        return as_series(self)._derivative

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


class LegendreSeries(Polynomial):
    """A computed function: ``coeffs`` multiply P_0(t), P_1(t), ... in t(x).

    Sums and differences of series, negation and scalar multiples are
    coefficient-wise, as for ``Polynomial``; a monomial operand is refused.
    It adds no field, so its construction, equality (exact type included),
    kept hash and repr are ``Polynomial``'s.
    """

    @_kept
    def _derivative(self) -> "LegendreSeries":
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
    """f as a Legendre series: a series as it is, a monomial converted once and
    kept on it (inputs recur across sweeps and quadratures)."""
    return f if type(f) is LegendreSeries else f._series


@lru_cache(maxsize=None)
def _legendre_derivative(size: int) -> np.ndarray:
    """Square matrix taking size Legendre coefficients to those of d/dt,
    read-only."""
    out = np.zeros((size, size))
    out[: size - 1] = leg.legder(np.eye(size))[: size - 1]
    out.setflags(write=False)
    return out


def poly(coeffs, interval=(0.0, 1.0)) -> Polynomial:
    """Shorthand constructor."""
    return Polynomial(tuple(coeffs), tuple(interval))


@lru_cache(maxsize=None)
def _gauss_legendre(n: int):
    """The n Gauss-Legendre nodes and weights on [-1, 1], both read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@lru_cache(maxsize=None)
def _legendre_table(n: int, size: int) -> np.ndarray:
    """P_k at the n Gauss-Legendre nodes, k < size: an (n, size) array,
    read-only."""
    table = leg.legvander(_gauss_legendre(n)[0], size - 1)
    table.setflags(write=False)
    return table


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
# norms) in every state. The timed requests of field block 0 at seed 101 ask
# for 5 829 integrals of 790 distinct products; the 128 latest find 4 878 of
# the 5 039 repeats an unbounded memo finds.
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
