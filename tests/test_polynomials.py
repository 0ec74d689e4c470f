"""Polynomial substrate tests: arithmetic, quadrature, Legendre series."""

import math
from fractions import Fraction

import numpy as np
import numpy.polynomial.legendre as leg
import numpy.polynomial.polynomial as npoly
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_string_spec
from eigenforge import polynomials, sigma_model
from eigenforge.errors import DomainError
from eigenforge.polynomials import (
    _INTEGRAL_CACHE,
    LegendreSeries,
    Polynomial,
    _fit_operator,
    _gauss_legendre,
    _legendre_coeffs,
    _legendre_table,
    as_series,
    chebyshev_fit,
    integrate_product,
    poly,
)
from eigenforge.sigma_model import null_postulate_residual, solve_state

UNIT = (0.0, 1.0)


class TestConstruction:
    def test_trailing_zeros_trimmed(self):
        p = poly([1.0, 2.0, 0.0, 0.0], UNIT)
        assert p.coeffs == (1.0, 2.0)

    def test_zero_polynomial_single_coefficient(self):
        p = poly([0.0, 0.0], UNIT)
        assert p.coeffs == (0.0,)

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
        with pytest.raises(DomainError, match=r"^operands on different intervals: "
                                              r"\(0\.0, 1\.0\) vs \(0\.0, 2\.0\)$"):
            a + b
        with pytest.raises(DomainError, match="^factors live on different intervals$"):
            integrate_product(a, b)

    def test_scalar_operations(self):
        a = poly([1.0, 2.0], UNIT)
        assert (2 * a).coeffs == (2.0, 4.0)
        assert (a / 2).coeffs == (0.5, 1.0)
        assert (a + 1).coeffs == (2.0, 2.0)

    @pytest.mark.parametrize("zero", [0, 0.0, -0.0])
    def test_division_by_zero_refused(self, zero):
        with pytest.raises(DomainError, match="^division by zero scalar$"):
            poly([1.0], UNIT) / zero


class TestDifferentiate:
    # A monomial's derivative is that of its Legendre form: its values are
    # checked against the hand derivative's, evaluated in the power basis.
    XS = np.linspace(0.0, 1.0, 11)

    def test_constant(self):
        assert poly([5.0], UNIT).derivative().coeffs == (0.0,)

    def test_square(self):
        got = poly([0.0, 0.0, 1.0], UNIT).derivative().values(self.XS)
        assert np.allclose(got, npoly.polyval(self.XS, [0.0, 2.0]), rtol=0, atol=1e-14)

    def test_hand_derivative(self):
        # d/dx [x - x^2] = 1 - 2x
        got = poly([0.0, 1.0, -1.0], UNIT).derivative().values(self.XS)
        assert np.allclose(got, npoly.polyval(self.XS, [1.0, -2.0]), rtol=0, atol=1e-14)


def antiderivative(a: Polynomial) -> Polynomial:
    """Antiderivative of a monomial polynomial, with zero constant term."""
    return Polynomial((0.0,) + tuple(c / (k + 1) for k, c in enumerate(a.coeffs)), a.interval)


def integrate_by_antiderivative(a: Polynomial) -> float:
    """Integral of a monomial polynomial over its interval via its
    antiderivative: the independent reference for the quadrature."""
    anti = antiderivative(a)
    lo, hi = a.interval
    c = np.asarray(anti.coeffs)
    return float(npoly.polyval(hi, c) - npoly.polyval(lo, c))


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
            for x in (1.5, -0.1, math.nan, [0.5, math.nan]):
                with pytest.raises(DomainError, match="^sample points outside the interval$"):
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


def _bits(value: float) -> str:
    return float(value).hex()


class TestIntegralMemo:
    # integrate_product keeps the latest integrals by their factors: a kept
    # value must be the bits a fresh quadrature computes, whatever was
    # computed before it.
    @staticmethod
    def _products():
        """Seeded products of 2-5 factors, monomials and series mixed. Every
        tenth is followed by the same coefficients on a longer interval and
        by the same coefficients in the other basis: other functions, with
        other integrals."""
        rng = np.random.default_rng(23)
        other = {Polynomial: LegendreSeries, LegendreSeries: Polynomial}
        for i, factors in enumerate(_random_products(300)):
            if len(factors) == 1:
                factors = factors + [poly(rng.normal(size=3), factors[0].interval)]
            factors = [as_series(f) if rng.integers(2) else f for f in factors]
            yield factors
            if i % 10 == 0:
                lo, hi = factors[0].interval
                yield [type(f)(f.coeffs, (lo, hi + 1.0)) for f in factors]
                yield [other[type(f)](f.coeffs, f.interval) for f in factors]

    def test_warm_and_cold_bit_identical(self):
        products = list(self._products())
        assert {len(fs) for fs in products} == {2, 3, 4, 5}
        assert {type(f) for fs in products for f in fs} == {Polynomial, LegendreSeries}
        cold = []
        for factors in products:
            integrate_product.cache_clear()
            cold.append(_bits(integrate_product(*factors)))
        warm = [_bits(integrate_product(*factors)) for factors in products]
        # Equal but distinct objects find the kept value.
        copies = [[type(f)(f.coeffs, f.interval) for f in fs] for fs in products]
        hits = integrate_product.cache_info().hits
        again = [_bits(integrate_product(*factors)) for factors in copies[-8:]]
        assert integrate_product.cache_info().hits == hits + 8
        assert warm == cold and again == cold[-8:]

    def test_signed_zero_series_share_a_key(self):
        minus, plus = LegendreSeries((-0.0,), UNIT), LegendreSeries((0.0,), UNIT)
        u = poly([0.0, 1.0, -1.0], UNIT)
        for factors in ((minus,), (plus,), (minus, u), (u, plus, u)):
            integrate_product.cache_clear()
            cold = _bits(integrate_product(*factors))
            swapped = tuple(plus if f is minus else minus if f is plus else f
                            for f in factors)
            assert _bits(integrate_product(*swapped)) == cold
            integrate_product.cache_clear()
            assert _bits(integrate_product(*swapped)) == cold

    def test_refusals_raised_every_time_and_never_kept(self):
        integrate_product.cache_clear()
        a, b = poly([1.0], UNIT), poly([1.0], (0.0, 2.0))
        for _ in range(3):
            with pytest.raises(DomainError):
                integrate_product()
            with pytest.raises(DomainError):
                integrate_product(a, b)
        assert integrate_product.cache_info().currsize == 0

    def test_bounded_by_the_module_constants(self):
        assert integrate_product.cache_info().maxsize == _INTEGRAL_CACHE

    def test_kept_derivatives_bit_identical(self):
        # A series keeps its derivative; a fresh, equal series computes the
        # same bits. Signed zeros among the coefficients do not change them;
        # the same coefficients on another interval are another function.
        rng = np.random.default_rng(29)
        series = []
        for n in range(1, 30):
            coeffs = tuple(rng.normal(size=n).tolist())
            series += [LegendreSeries(coeffs, (-1.0, 2.5)), LegendreSeries(coeffs, UNIT)]
        series += [LegendreSeries(c, UNIT) for c in
                   [(-0.0,), (0.0,), (1.0, -0.0, 2.0), (1.0, 0.0, 2.0), (-0.0, -0.0, 1.0),
                    (0.0, 0.0, 1.0)]]
        kept = [[_bits(c) for c in f.derivative().coeffs] for f in series]
        assert all(f.derivative() is f.derivative() for f in series)
        fresh = [[_bits(c) for c in LegendreSeries(f.coeffs, f.interval).derivative().coeffs]
                 for f in series]
        assert fresh == kept
        assert kept[-6] == kept[-5] and kept[-4] == kept[-3] and kept[-2] == kept[-1]

    def test_coupled_modes_bit_identical_cleared_and_warm(self):
        # Clearing the unit-norm memo gives new time factor objects, so their
        # derivatives and squares are computed afresh too.
        spec = make_string_spec(coupling_g=0.05, num_modes=2)

        def solve_modes(clear):
            out = []
            for mode in spec.modes:
                if clear:
                    integrate_product.cache_clear()
                    sigma_model._unit_norm.cache_clear()
                state, _ = solve_state(spec, mode.label, mode.targets)
                out.append(repr((state, null_postulate_residual(spec, state))))
            return out

        cleared = solve_modes(clear=True)
        hits = integrate_product.cache_info().hits
        assert solve_modes(clear=False) == cleared
        assert integrate_product.cache_info().hits > hits


class TestKeptOnValue:
    """A monomial's Legendre form, a series' derivative and a function's
    fitted square are kept on the object they derive from."""

    def test_fresh_equal_object_computes_the_kept_bits(self):
        # Conversions and squares; derivatives are checked in TestIntegralMemo.
        rng = np.random.default_rng(31)
        functions = []
        for n in range(1, 30):
            coeffs = tuple(rng.normal(size=n).tolist())
            functions += [poly(coeffs, (0.5, 3.0)), poly(coeffs, UNIT),
                          LegendreSeries(coeffs, UNIT)]
        functions += [poly(c, UNIT) for c in [(-0.0,), (1.0, -0.0, 2.0)]]

        def values(f):
            return [[_bits(c) for c in v.coeffs] for v in (as_series(f), f.square)]

        kept = [values(f) for f in functions]
        assert all(as_series(f) is as_series(f) and f.square is f.square for f in functions)
        fresh = [type(f)(f.coeffs, f.interval) for f in functions]
        assert [values(g) for g in fresh] == kept

    def test_each_value_computed_once_per_object(self, monkeypatch):
        calls = {"series": 0, "derivative": 0, "square": 0}

        def counted(name, function):
            def wrapper(*args):
                calls[name] += 1
                return function(*args)
            return wrapper

        monkeypatch.setattr(polynomials, "_legendre_coeffs",
                            counted("series", polynomials._legendre_coeffs))
        monkeypatch.setattr(polynomials, "_legendre_derivative",
                            counted("derivative", polynomials._legendre_derivative))
        monkeypatch.setattr(polynomials, "chebyshev_fit",
                            counted("square", polynomials.chebyshev_fit))
        p = poly([1.0, -2.0, 0.5], (0.0, 2.0))
        u = LegendreSeries((0.3, 1.0, -0.25), (0.0, 2.0))
        for copies in (1, 2):
            for _ in range(3):
                assert as_series(p) is as_series(p)
                assert u.derivative() is u.derivative()
                assert p.square is p.square and u.square is u.square
            assert calls == {"series": copies, "derivative": copies, "square": 2 * copies}
            p, u = poly(p.coeffs, p.interval), LegendreSeries(u.coeffs, u.interval)

    def test_monomial_above_the_cap_refused_on_every_call(self):
        f = poly([0.0] * 65 + [1.0], UNIT)
        assert f.degree == 65
        for _ in range(3):
            with pytest.raises(DomainError, match="degree 65 is above the cap 64"):
                as_series(f)
        assert "_series" not in vars(f)

    def test_values_and_derivative_above_the_cap_refused_as_the_series(self):
        # A monomial is read only through its Legendre form, so evaluating or
        # differentiating one above the cap raises the conversion's refusal.
        f = poly([0.0] * 65 + [1.0], UNIT)
        for read in (lambda: f.values(0.5), f.derivative):
            with pytest.raises(DomainError, match="degree 65 is above the cap 64"):
                read()
        assert "_series" not in vars(f)


class TestKeptHash:
    """A polynomial's hash is the dataclass's hash of its fields, computed
    once per object and kept on it."""

    VALUES = [poly([1.0, -2.0, 0.5], (0.0, 2.0)), poly([0.0], UNIT),
              LegendreSeries((0.3, 1.0, -0.25), (0.0, 2.0)), LegendreSeries((2.0,), UNIT)]
    IDS = ["monomial", "zero", "series", "constant-series"]

    @pytest.mark.parametrize("f", VALUES, ids=IDS)
    def test_hash_of_the_fields(self, f):
        assert hash(f) == hash((f.coeffs, f.interval))

    @pytest.mark.parametrize("f", VALUES, ids=IDS)
    def test_equal_values_hash_equal(self, f):
        other = type(f)(f.coeffs, f.interval)
        assert other is not f and other == f and hash(other) == hash(f)
        assert len({f, other}) == 1

    def test_computed_once_per_object(self, monkeypatch):
        calls = []
        kept = vars(Polynomial)["_hash"]
        compute = kept.func

        def counted(f):
            calls.append(f)
            return compute(f)

        monkeypatch.setattr(kept, "func", counted)
        values = [type(f)(f.coeffs, f.interval) for f in self.VALUES]
        for _ in range(3):
            for f in values:
                hash(f)
            integrate_product(values[0], values[2])
        assert [id(f) for f in calls] == [id(f) for f in values]

    def test_series_shares_the_kept_hash(self):
        assert LegendreSeries.__hash__ is Polynomial.__hash__
