"""Polynomial substrate tests: arithmetic, quadrature, Legendre series."""

import math
from fractions import Fraction

import numpy as np
import numpy.polynomial.legendre as leg
import numpy.polynomial.polynomial as npoly
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eigenforge.errors import DomainError
from eigenforge.polynomials import (
    LegendreSeries,
    Polynomial,
    _fit_operator,
    _gauss_legendre,
    _legendre_coeffs,
    _legendre_table,
    antiderivative,
    as_series,
    chebyshev_fit,
    integrate_by_antiderivative,
    integrate_product,
    poly,
)

UNIT = (0.0, 1.0)


class TestConstruction:
    def test_trailing_zeros_trimmed(self):
        p = poly([1.0, 2.0, 0.0, 0.0], UNIT)
        assert p.coeffs == (1.0, 2.0)

    def test_zero_polynomial_single_coefficient(self):
        p = poly([0.0, 0.0], UNIT)
        assert p.coeffs == (0.0,)
        assert p.is_zero

    def test_interval_must_be_increasing(self):
        with pytest.raises(DomainError):
            poly([1.0], (1.0, 1.0))
        with pytest.raises(DomainError):
            poly([1.0], (2.0, 1.0))

    def test_nonfinite_coefficients_rejected(self):
        with pytest.raises(DomainError):
            poly([float("nan")], UNIT)


class TestArith:
    def test_product_of_monomials_is_refused(self):
        # No two functions multiply, monomials included: a product is only
        # ever integrated or fitted from values.
        x = poly([0.0, 1.0], UNIT)
        with pytest.raises(TypeError):
            x * x
        with pytest.raises(TypeError):
            x * poly([1.0, 2.0, 3.0], UNIT)

    def test_cancellation(self):
        a = poly([1.0, 1.0], UNIT)
        b = poly([1.0, -1.0], UNIT)
        assert (a + b).coeffs == (2.0,)

    def test_hand_expansion_square(self):
        # x(1-x) squared expands to x^2 - 2x^3 + x^4: the product of the two
        # factors integrates as its hand expansion does.
        u = poly([0.0, 1.0, -1.0], UNIT)
        assert integrate_product(u, u) == pytest.approx(
            integrate_product(poly([0.0, 0.0, 1.0, -2.0, 1.0], UNIT)), abs=1e-16)

    def test_interval_mismatch_rejected(self):
        a = poly([1.0], (0.0, 1.0))
        b = poly([1.0], (0.0, 2.0))
        with pytest.raises(DomainError):
            a + b

    def test_scalar_operations(self):
        a = poly([1.0, 2.0], UNIT)
        assert (2 * a).coeffs == (2.0, 4.0)
        assert (a / 2).coeffs == (0.5, 1.0)
        assert (a + 1).coeffs == (2.0, 2.0)


class TestDifferentiate:
    def test_constant(self):
        assert poly([5.0], UNIT).derivative().is_zero

    def test_square(self):
        assert poly([0.0, 0.0, 1.0], UNIT).derivative().coeffs == (0.0, 2.0)

    def test_hand_derivative(self):
        # d/dx [x - x^2] = 1 - 2x
        assert poly([0.0, 1.0, -1.0], UNIT).derivative().coeffs == (1.0, -2.0)


class TestIntegrate:
    def test_linear(self):
        assert integrate_product(poly([0.0, 1.0], UNIT)) == pytest.approx(0.5, abs=1e-15)

    def test_bubble_squared(self):
        # antiderivative of x^2(1-x)^2 is x^3/3 - x^4/2 + x^5/5, value 1/30 at 1
        u = poly([0.0, 1.0, -1.0], UNIT)
        assert integrate_product(u, u) == pytest.approx(1.0 / 30.0, abs=1e-16)

    def test_derivative_square(self):
        # antiderivative of 1 - 4x + 4x^2 gives 1/3
        d = poly([1.0, -2.0], UNIT)
        assert integrate_product(d, d) == pytest.approx(1.0 / 3.0, abs=1e-16)

    def test_agrees_with_antiderivative_route(self):
        u = poly([3.0, -1.0, 2.0, 0.5, -0.25], (-1.0, 2.0))
        gl = integrate_product(u)
        anti = integrate_by_antiderivative(u)
        assert abs(gl - anti) <= 1e-13 * max(1.0, abs(anti))


coeff = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False)


class TestQuadratureProperties:
    @given(st.lists(coeff, min_size=1, max_size=21))
    def test_fundamental_theorem(self, coeffs):
        a = poly(coeffs, (0.0, 1.0))
        lhs = integrate_product(a.derivative())
        rhs = float(a.values(1.0)) - float(a.values(0.0))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    @given(st.lists(coeff, min_size=1, max_size=41))
    def test_quadrature_exact_to_degree_40(self, coeffs):
        a = poly(coeffs, (0.0, 1.0))
        gl = integrate_product(a)
        anti = integrate_by_antiderivative(a)
        assert abs(gl - anti) <= 1e-12 * max(1.0, abs(anti), abs(gl))

    @given(st.lists(coeff, min_size=1, max_size=41))
    def test_quadrature_exact_on_wider_interval(self, coeffs):
        a = poly(coeffs, (-1.0, 2.0))
        gl = integrate_product(a)
        anti = integrate_by_antiderivative(a)
        assert abs(gl - anti) <= 1e-12 * max(1.0, abs(anti), abs(gl))


class TestEvaluate:
    # ``values`` is the one evaluation, at a scalar or at an array of points.
    def test_square_at_three(self):
        assert float(poly([0.0, 0.0, 1.0], (0.0, 4.0)).values(3.0)) == pytest.approx(9.0)

    def test_bubble_at_half(self):
        assert float(poly([0.0, 1.0, -1.0], UNIT).values(0.5)) == pytest.approx(0.25)

    def test_outside_interval_rejected(self):
        for p in (poly([1.0, 1.0], UNIT), LegendreSeries((1.0, 1.0), UNIT)):
            for x in (1.5, -0.1):
                with pytest.raises(DomainError):
                    p.values(x)

    def test_values_vectorized_matches_pointwise(self):
        p = poly([1.0, -2.0, 3.0], UNIT)
        xs = np.linspace(0.0, 1.0, 7)
        assert np.allclose(p.values(xs), [float(p.values(x)) for x in xs])


class TestLegendreSeries:
    IV = (-1.0, 2.0)

    def series(self, seed=5, size=12):
        rng = np.random.default_rng(seed)
        return LegendreSeries(tuple(rng.normal(size=size)), self.IV)

    def t(self, xs):
        return (2.0 * xs - self.IV[0] - self.IV[1]) / (self.IV[1] - self.IV[0])

    def test_values_and_derivative_match_numpy(self):
        u = self.series()
        xs = np.linspace(*self.IV, 33)
        assert np.allclose(u.values(xs), leg.legval(self.t(xs), u.coeffs), rtol=0, atol=1e-13)
        d = leg.legder(u.coeffs) * 2.0 / (self.IV[1] - self.IV[0])
        assert np.allclose(u.derivative().values(xs), leg.legval(self.t(xs), d),
                           rtol=0, atol=1e-12)
        assert float(u.values(2.0)) == pytest.approx(float(sum(u.coeffs)), abs=1e-13)

    def test_monomial_operand_is_refused(self):
        # Sums stay in one basis: a monomial reaches a series only through
        # as_series, never inside + or -. Scalars are constants in any basis.
        u = self.series()
        p = poly([0.5, -1.0, 0.25, 2.0], self.IV)
        for op in (lambda a, b: a + b, lambda a, b: a - b):
            for a, b in ((u, p), (p, u)):
                with pytest.raises(TypeError):
                    op(a, b)
        xs = np.linspace(*self.IV, 33)
        assert as_series(u) is u
        assert np.allclose((u + as_series(p)).values(xs), u.values(xs) + p.values(xs),
                           rtol=0, atol=1e-12)
        assert type(2.0 * u) is type(u / 4) is type(-u) is LegendreSeries
        assert (u + 1.0).coeffs[0] == u.coeffs[0] + 1.0

    def test_no_product_of_functions(self):
        u = self.series()
        with pytest.raises(TypeError):
            u * u
        with pytest.raises(TypeError):
            u * poly([1.0, 1.0], self.IV)
        with pytest.raises(DomainError):
            u + LegendreSeries((1.0,), (0.0, 1.0))

    def test_conversion_bit_identical_to_legmulx_horner(self):
        # Horner's rule in x = mid + half t with t S formed by numpy's legmulx:
        # the conversion runs legmulx's loop on a list, in its order.
        def reference(coeffs, interval):
            lo, hi = interval
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            acc = np.array(coeffs[-1:])
            for c in reversed(coeffs[:-1]):
                nxt = half * leg.legmulx(acc)
                nxt[: acc.size] += mid * acc
                nxt[0] += c
                acc = nxt
            return tuple(float(v) for v in acc)

        rng = np.random.default_rng(23)
        for _ in range(2000):
            lo = float(rng.uniform(-50.0, 50.0))
            hi = lo + float(10.0 ** rng.uniform(-6, 3))
            p = poly(rng.normal(size=rng.integers(1, 25)) * 10.0 ** rng.uniform(-5, 5), (lo, hi))
            got = _legendre_coeffs(p.coeffs, p.interval)
            assert [v.hex() for v in got] == [v.hex() for v in reference(p.coeffs, p.interval)]

    def test_equality_tells_the_bases_apart(self):
        assert LegendreSeries((1.0, 2.0), UNIT) != poly([1.0, 2.0], UNIT)
        assert LegendreSeries((3.0,), UNIT) == LegendreSeries((3.0, 0.0), UNIT)

    def test_mixed_quadrature_is_exact(self):
        # int_{-1}^{2} u (x^2) dx against the same integral of the monomial
        # form of u, built from numpy's Legendre-to-power conversion.
        u = self.series(size=8)
        power_t = leg.leg2poly(u.coeffs)
        c0, c1 = -(self.IV[0] + self.IV[1]) / 3.0, 2.0 / 3.0
        mono = np.zeros(1)
        for c in power_t[::-1]:
            mono = npoly.polyadd(npoly.polymul(mono, [c0, c1]), [c])
        x2 = poly([0.0, 0.0, 1.0], self.IV)
        want = integrate_by_antiderivative(poly(npoly.polymul(mono, [0.0, 0.0, 1.0]), self.IV))
        assert integrate_product(u, x2) == pytest.approx(want, rel=1e-12)
        assert integrate_product(x2, u, u) == pytest.approx(
            integrate_by_antiderivative(poly(npoly.polymul(npoly.polymul(mono, mono),
                                                           [0.0, 0.0, 1.0]), self.IV)),
            rel=1e-12)


class TestChebyshevFit:
    def test_interpolates_cosine(self):
        p = chebyshev_fit(np.cos, 12, (0.0, math.pi / 2))
        xs = np.linspace(0.0, math.pi / 2, 201)
        assert float(np.max(np.abs(p.values(xs) - np.cos(xs)))) < 1e-8

    # Values near 30, like the projected square of a large field factor.
    @pytest.mark.parametrize("degree", [12, 16], ids=["interpolate-12", "interpolate-16"])
    def test_matches_legfit(self, degree):
        iv = (0.0, 2.1)

        def fn(xs):
            return 30.0 * np.sin(1.7 * xs) ** 2 + 0.5 * xs

        p = chebyshev_fit(fn, degree, iv)
        k = np.arange(degree + 1)
        t = np.cos((2 * k + 1) * math.pi / (2 * (degree + 1)))
        ref = leg.legfit(t, fn(1.05 + 1.05 * t), degree)
        ts = np.linspace(-1.0, 1.0, 201)
        expected = leg.legval(ts, ref)
        got = p.values(1.05 + 1.05 * ts)
        assert float(np.abs(got - expected).max()) <= 1e-13 * float(np.abs(expected).max())

    def test_fit_operator_is_read_only(self):
        chebyshev_fit(np.cos, 16, (0.0, 1.0))
        for array in _fit_operator(16):
            with pytest.raises(ValueError):
                array[0] = 0.0


def _random_products(count):
    """Seeded products of 1-5 monomial factors of degree 0-18, coefficients
    spread over six decades, on intervals of length 0.1-4 inside [-3, 5]."""
    rng = np.random.default_rng(11)
    for _ in range(count):
        lo = float(rng.uniform(-3.0, 1.0))
        hi = lo + float(rng.uniform(0.1, 4.0))
        yield [poly(rng.normal(size=rng.integers(1, 20)) * 10.0 ** rng.uniform(-3, 3), (lo, hi))
               for _ in range(rng.integers(1, 6))]


def _exact_integral(factors) -> Fraction:
    """Integral of the product in rational arithmetic: every binary64
    coefficient and interval end is a Fraction exactly."""
    prod = [Fraction(1)]
    for f in factors:
        out = [Fraction(0)] * (len(prod) + len(f.coeffs) - 1)
        for i, a in enumerate(prod):
            for j, b in enumerate(f.coeffs):
                out[i + j] += a * Fraction(b)
        prod = out
    lo, hi = (Fraction(v) for v in factors[0].interval)
    return sum(c * (hi ** (k + 1) - lo ** (k + 1)) / (k + 1) for k, c in enumerate(prod))


class TestIntegrateProduct:
    def test_bit_identical_to_the_definition(self):
        # The definition: each factor converted to Legendre coefficients,
        # read at the Gauss nodes off the cached table of P_k there, and
        # multiplied pointwise in factor order. A BLAS product rounds one
        # column differently with a different number of columns, so the
        # reference reads all factors off one product with their zero-padded
        # columns, as the quadrature does, and multiplies them one by one.
        for factors in _random_products(2000):
            lo, hi = factors[0].interval
            series = [_legendre_coeffs(f.coeffs, f.interval) for f in factors]
            size = max(len(c) for c in series)
            columns = np.column_stack([np.pad(c, (0, size - len(c))) for c in series])
            n = sum(f.degree for f in factors) // 2 + 1
            table_vals = _legendre_table(n, size) @ columns
            vals = np.ones(n)
            for j in range(len(factors)):
                vals = vals * table_vals[:, j]
            want = float(0.5 * (hi - lo) * np.dot(_gauss_legendre(n)[1], vals))
            assert integrate_product(*factors) == want

    def test_exact_against_rational_integral(self):
        # Error relative to int |f|, the scale rounding works at, taken by a
        # 400-node rule on |f|. The worst of these 600 cases reads 1.3e-13
        # (1.2e-13 with the monomial factors evaluated by Horner's rule).
        x, w = _gauss_legendre(400)
        for factors in _random_products(600):
            lo, hi = factors[0].interval
            xs = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x
            vals = np.prod([f.values(xs) for f in factors], axis=0)
            scale = 0.5 * (hi - lo) * float(np.dot(w, np.abs(vals)))
            got = integrate_product(*factors)
            assert abs(Fraction(got) - _exact_integral(factors)) <= 1e-12 * scale
