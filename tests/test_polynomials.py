"""Polynomial substrate tests: arithmetic, quadrature, monotone splitting."""

import math
from fractions import Fraction

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenforge.errors import DegenerateInputError, DomainError, IntervalMismatchError
from eigenforge.polynomials import (
    MonotonePiece,
    Polynomial,
    antiderivative,
    arith,
    chebyshev_fit,
    differentiate,
    evaluate,
    integrate,
    integrate_by_antiderivative,
    integrate_product,
    poly,
    split_monotone,
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
    def test_monomial_product(self):
        x = poly([0.0, 1.0], UNIT)
        assert arith(x, x, "mul").coeffs == (0.0, 0.0, 1.0)

    def test_cancellation(self):
        a = poly([1.0, 1.0], UNIT)
        b = poly([1.0, -1.0], UNIT)
        assert arith(a, b, "add").coeffs == (2.0,)

    def test_hand_expansion_square(self):
        # x(1-x) squared expands to x^2 - 2x^3 + x^4
        u = poly([0.0, 1.0, -1.0], UNIT)
        assert arith(u, u, "mul").coeffs == (0.0, 0.0, 1.0, -2.0, 1.0)

    def test_interval_mismatch_rejected(self):
        a = poly([1.0], (0.0, 1.0))
        b = poly([1.0], (0.0, 2.0))
        with pytest.raises(IntervalMismatchError):
            arith(a, b, "add")

    def test_unknown_op_rejected(self):
        a = poly([1.0], UNIT)
        with pytest.raises(DomainError):
            arith(a, a, "pow")

    def test_product_degree_adds(self):
        a = poly([1.0, 2.0, 3.0], UNIT)
        b = poly([4.0, 5.0], UNIT)
        assert (a * b).degree == a.degree + b.degree

    def test_scalar_operations(self):
        a = poly([1.0, 2.0], UNIT)
        assert (2 * a).coeffs == (2.0, 4.0)
        assert (a / 2).coeffs == (0.5, 1.0)
        assert (a + 1).coeffs == (2.0, 2.0)


class TestDifferentiate:
    def test_constant(self):
        assert differentiate(poly([5.0], UNIT)).is_zero

    def test_square(self):
        assert differentiate(poly([0.0, 0.0, 1.0], UNIT)).coeffs == (0.0, 2.0)

    def test_hand_derivative(self):
        # d/dx [x - x^2] = 1 - 2x
        assert differentiate(poly([0.0, 1.0, -1.0], UNIT)).coeffs == (1.0, -2.0)


class TestIntegrate:
    def test_linear(self):
        assert integrate(poly([0.0, 1.0], UNIT)) == pytest.approx(0.5, abs=1e-15)

    def test_bubble_squared(self):
        # antiderivative of x^2(1-x)^2 is x^3/3 - x^4/2 + x^5/5, value 1/30 at 1
        u = poly([0.0, 1.0, -1.0], UNIT)
        assert integrate(u * u) == pytest.approx(1.0 / 30.0, abs=1e-16)

    def test_derivative_square(self):
        # antiderivative of 1 - 4x + 4x^2 gives 1/3
        d = poly([1.0, -2.0], UNIT)
        assert integrate(d * d) == pytest.approx(1.0 / 3.0, abs=1e-16)

    def test_agrees_with_antiderivative_route(self):
        u = poly([3.0, -1.0, 2.0, 0.5, -0.25], (-1.0, 2.0))
        gl = integrate(u)
        anti = integrate_by_antiderivative(u)
        assert abs(gl - anti) <= 1e-13 * max(1.0, abs(anti))


coeff = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False)


class TestQuadratureProperties:
    @given(st.lists(coeff, min_size=1, max_size=21))
    def test_fundamental_theorem(self, coeffs):
        a = poly(coeffs, (0.0, 1.0))
        lhs = integrate(differentiate(a))
        rhs = evaluate(a, 1.0) - evaluate(a, 0.0)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    @given(st.lists(coeff, min_size=1, max_size=41))
    def test_quadrature_exact_to_degree_40(self, coeffs):
        a = poly(coeffs, (0.0, 1.0))
        gl = integrate(a)
        anti = integrate_by_antiderivative(a)
        assert abs(gl - anti) <= 1e-12 * max(1.0, abs(anti), abs(gl))

    @given(st.lists(coeff, min_size=1, max_size=41))
    def test_quadrature_exact_on_wider_interval(self, coeffs):
        a = poly(coeffs, (-1.0, 2.0))
        gl = integrate(a)
        anti = integrate_by_antiderivative(a)
        assert abs(gl - anti) <= 1e-12 * max(1.0, abs(anti), abs(gl))


class TestEvaluate:
    def test_square_at_three(self):
        assert evaluate(poly([0.0, 0.0, 1.0], (0.0, 4.0)), 3.0) == pytest.approx(9.0)

    def test_bubble_at_half(self):
        assert evaluate(poly([0.0, 1.0, -1.0], UNIT), 0.5) == pytest.approx(0.25)

    def test_outside_interval_rejected(self):
        p = poly([1.0, 1.0], UNIT)
        with pytest.raises(DomainError):
            evaluate(p, 1.5)
        with pytest.raises(DomainError):
            evaluate(p, -0.1)

    def test_values_vectorized_matches_pointwise(self):
        p = poly([1.0, -2.0, 3.0], UNIT)
        xs = np.linspace(0.0, 1.0, 7)
        assert np.allclose(p.values(xs), [evaluate(p, x) for x in xs])


class TestSplitMonotone:
    def test_monotone_input_single_piece(self):
        pieces = split_monotone(poly([0.0, 1.0], UNIT))
        assert len(pieces) == 1
        assert pieces[0].sub_interval == (0.0, 1.0)
        assert pieces[0].direction == "increasing"

    def test_bubble_splits_at_half(self):
        pieces = split_monotone(poly([0.0, 1.0, -1.0], UNIT))
        assert len(pieces) == 2
        assert pieces[0].sub_interval[1] == pytest.approx(0.5, abs=1e-9)
        assert pieces[0].direction == "increasing"
        assert pieces[1].direction == "decreasing"

    def test_cubic_splits_at_pm_inv_sqrt3(self):
        pieces = split_monotone(poly([0.0, -1.0, 0.0, 1.0], (-2.0, 2.0)))
        assert len(pieces) == 3
        c = 1.0 / math.sqrt(3.0)
        assert pieces[0].sub_interval[1] == pytest.approx(-c, abs=1e-9)
        assert pieces[1].sub_interval[1] == pytest.approx(c, abs=1e-9)
        dirs = [p.direction for p in pieces]
        assert dirs == ["increasing", "decreasing", "increasing"]

    def test_zero_polynomial_rejected(self):
        with pytest.raises(DegenerateInputError):
            split_monotone(poly([0.0], UNIT))

    def test_constant_rejected(self):
        with pytest.raises(DegenerateInputError):
            split_monotone(poly([3.0], UNIT))

    def test_adjacent_pieces_alternate(self):
        # quartic with three interior extrema
        a = poly([0.0, 1.0, 0.0, -2.0, 0.5], (-2.0, 2.5))
        pieces = split_monotone(a)
        for left, right in zip(pieces[:-1], pieces[1:]):
            assert left.direction != right.direction

    @pytest.mark.parametrize("coeffs", [[0.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 2.0]])
    def test_odd_inflection_at_midpoint(self, coeffs):
        # The slope vanishes at the midpoint of the single piece; the endpoint
        # values still say increasing.
        pieces = split_monotone(poly(coeffs, (-1.0, 1.0)))
        assert [(p.sub_interval, p.direction) for p in pieces] == [
            ((-1.0, 1.0), "increasing")]

    def test_double_root_of_derivative(self):
        # The derivative 3 + 14x + 3x^2 - 36x^3 has a double root at -1/3 (a
        # stationary inflection) and a simple one at 3/4. Rounding splits the
        # double root into two sign changes 1.9e-9 apart, across which the
        # derivative is noise; they are not cut points.
        pieces = split_monotone(poly([-6.0, 3.0, 7.0, 1.0, -9.0], (-1.0, 1.0)))
        assert [p.direction for p in pieces] == ["increasing", "decreasing"]
        assert pieces[0].sub_interval[0] == -1.0
        assert pieces[0].sub_interval[1] == pytest.approx(0.75, abs=1e-9)
        assert pieces[1].sub_interval == (pieces[0].sub_interval[1], 1.0)

    @given(st.lists(st.integers(min_value=-9, max_value=9), min_size=2, max_size=7))
    @settings(max_examples=60)
    def test_pieces_tile_interval(self, int_coeffs):
        if all(c == 0 for c in int_coeffs[1:]):
            return
        a = poly([float(c) for c in int_coeffs], (-1.0, 1.0))
        if a.degree == 0:
            return
        pieces = split_monotone(a)
        assert pieces[0].sub_interval[0] == -1.0
        assert pieces[-1].sub_interval[1] == 1.0
        for left, right in zip(pieces[:-1], pieces[1:]):
            assert left.sub_interval[1] == right.sub_interval[0]

    def test_piece_ranges_cover_function_range(self):
        a = poly([0.0, -1.0, 0.0, 1.0], (-2.0, 2.0))
        pieces = split_monotone(a)
        los = min(p.value_range[0] for p in pieces)
        his = max(p.value_range[1] for p in pieces)
        xs = np.linspace(-2.0, 2.0, 4001)
        vals = a.values(xs)
        assert los == pytest.approx(float(vals.min()), abs=1e-6)
        assert his == pytest.approx(float(vals.max()), abs=1e-6)


class TestChebyshevFit:
    def test_interpolates_cosine(self):
        p = chebyshev_fit(np.cos, 12, (0.0, math.pi / 2))
        xs = np.linspace(0.0, math.pi / 2, 201)
        assert float(np.max(np.abs(p.values(xs) - np.cos(xs)))) < 1e-8

    def test_least_squares_on_denser_grid(self):
        p = chebyshev_fit(np.sin, 14, (0.0, math.pi), num_points=65)
        xs = np.linspace(0.0, math.pi, 201)
        assert float(np.max(np.abs(p.values(xs) - np.sin(xs)))) < 1e-7

    @pytest.mark.parametrize("fn,interval", [
        (np.cos, (0.0, math.pi / 2)),
        (np.sin, (0.0, math.pi / 2)),
        (lambda x: np.sin(x) ** 2, (0.0, 2.348)),
        (lambda x: np.cos(3.0 * x) ** 2, (0.0, 4.0)),
    ], ids=["cos-quarter", "sin-quarter", "sin2-L", "cos2-L"])
    def test_conversion_matches_exact_rational(self, fn, interval):
        # Same Chebyshev coefficients, converted to monomials in exact
        # rational arithmetic (T_k(t(x)) by the recurrence, t = c0 + c1 x).
        degree = 16
        lo, hi = interval
        n = degree + 1
        t = np.cos((2 * np.arange(n) + 1) * math.pi / (2 * n))
        cheb = np.polynomial.chebyshev.chebfit(t, fn(0.5 * (lo + hi) + 0.5 * (hi - lo) * t),
                                               degree)
        c0 = Fraction(-lo - hi) / Fraction(hi - lo)
        c1 = Fraction(2) / Fraction(hi - lo)
        rows = [[Fraction(1)] + [Fraction(0)] * degree,
                [c0, c1] + [Fraction(0)] * (degree - 1)]
        for k in range(1, degree):
            t_row = [c0 * rows[k][0]] + [c0 * rows[k][j] + c1 * rows[k][j - 1]
                                         for j in range(1, n)]
            rows.append([2 * a - b for a, b in zip(t_row, rows[k - 1])])
        exact = [sum(Fraction(float(cheb[k])) * rows[k][j] for k in range(n)) for j in range(n)]
        got = chebyshev_fit(fn, degree, interval).coeffs
        top = max(abs(float(e)) for e in exact)
        assert len(got) == n
        assert max(abs(float(Fraction(g) - e)) for g, e in zip(got, exact)) <= 1e-13 * top


class TestIntegrateProduct:
    def test_bit_identical_to_per_factor_evaluation(self):
        # Reference: one Horner evaluation per factor at the same nodes,
        # multiplied pointwise in factor order.
        from eigenforge.polynomials import _gauss_legendre

        rng = np.random.default_rng(11)
        for _ in range(2000):
            lo = float(rng.uniform(-3.0, 1.0))
            hi = lo + float(rng.uniform(0.1, 4.0))
            factors = [poly(rng.normal(size=rng.integers(1, 20)) * 10.0 ** rng.uniform(-3, 3),
                            (lo, hi)) for _ in range(rng.integers(1, 6))]
            x, w = _gauss_legendre(sum(f.degree for f in factors) // 2 + 1)
            xs = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x
            vals = np.ones_like(xs)
            for f in factors:
                vals = vals * npoly.polyval(xs, np.asarray(f.coeffs))
            assert integrate_product(*factors) == float(0.5 * (hi - lo) * np.dot(w, vals))
